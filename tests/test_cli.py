import json
import math
import re
import time
from decimal import Decimal

import pytest

from trimoves import cli
from trimoves.bounds import total_bound
from trimoves.cli import main
from trimoves.fixtures import circle_complex, grid_torus_complex
from trimoves.serialize import (
    complex_to_dict,
    dumps,
    geom_complex_to_dict,
)
from .test_complexes import boundary_delta3


@pytest.fixture(autouse=True)
def json_checked_dumps(monkeypatch):
    """Every file and report the CLI writes must be the text of
    json.dumps(indent=2, sort_keys=True), byte for byte."""

    def checked(data):
        text = dumps(data)
        assert text == json.dumps(data, indent=2, sort_keys=True)
        return text

    monkeypatch.setattr(cli, "dumps", checked)


@pytest.fixture
def sphere_file(tmp_path):
    path = tmp_path / "sphere.json"
    path.write_text(dumps(complex_to_dict(boundary_delta3())))
    return str(path)


@pytest.fixture
def triangle_file(tmp_path):
    from trimoves.complexes import close_under_faces

    path = tmp_path / "triangle.json"
    path.write_text(dumps(complex_to_dict(close_under_faces([(1, 2, 3)]))))
    return str(path)


class TestSubdivide:
    def test_iterated_two_on_triangle(self, triangle_file, tmp_path):
        out = tmp_path / "out.json"
        assert main(["subdivide", "--input", triangle_file, "--mode", "iterated:2",
                     "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        tris = [s for s in data["subdivision"]["maximal_simplexes"] if len(s) == 3]
        assert len(tris) == 36
        assert data["manifest"]["command"] == "subdivide"

    def test_malformed_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["subdivide", "--input", str(bad), "--mode", "bary"]) == 2

    def test_resource_cap_exit_3(self, triangle_file):
        assert main(["subdivide", "--input", triangle_file, "--mode", "iterated:3",
                     "--max-simplexes", "50"]) == 3

    def test_geometric_cap_exit_3_before_building(self, tmp_path, monkeypatch, capsys):
        # β² of the 3x3 grid torus would have 1944 simplexes; the
        # prediction stops the run before any barycentric subdivision
        from trimoves import geometry

        def no_build(k):
            raise AssertionError("built a barycentric subdivision past the predicted cap")

        monkeypatch.setattr(geometry, "barycentric", no_build)
        path = tmp_path / "grid.json"
        path.write_text(dumps(geom_complex_to_dict(grid_torus_complex(3))))
        assert main(["subdivide", "--input", str(path), "--mode", "geometric:2",
                     "--max-simplexes", "1943"]) == 3
        assert "1944 simplexes" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode",
        ["geometric:-1", "iterated:-1", "partial:-1", "geometric:x", "iterated:1.5", "partial:"],
    )
    def test_bad_mode_count_is_an_input_error(self, triangle_file, tmp_path, capsys, mode):
        path = tmp_path / "grid.json"
        path.write_text(dumps(geom_complex_to_dict(grid_torus_complex(3))))
        source = str(path) if mode.startswith("geometric") else triangle_file
        assert main(["subdivide", "--input", source, "--mode", mode]) == 2
        assert repr(mode) in capsys.readouterr().err

    def test_determinism(self, sphere_file, tmp_path):
        # identical inputs, seed and output path give byte-identical files
        out = tmp_path / "a.json"
        main(["subdivide", "--input", sphere_file, "--mode", "bary", "--output", str(out)])
        first = out.read_text()
        main(["subdivide", "--input", sphere_file, "--mode", "bary", "--output", str(out)])
        assert out.read_text() == first


class TestPachnerCli:
    def test_enumerate(self, sphere_file, tmp_path, capsys):
        assert main(["pachner", "enumerate", "--input", sphere_file]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["moves"]) == 4

    def test_bfs_one_move(self, sphere_file, tmp_path):
        from trimoves.pachner import PachnerMove, apply

        bigger = apply(boundary_delta3(), PachnerMove((1, 2, 3), (5,)))
        goal = tmp_path / "goal.json"
        goal.write_text(dumps(complex_to_dict(bigger)))
        out = tmp_path / "seq.json"
        assert main(["pachner", "bfs", "--start", sphere_file, "--goal", str(goal),
                     "--max-depth", "2", "--output", str(out)]) == 0
        assert len(json.loads(out.read_text())["sequence"]["moves"]) == 1

    def test_bfs_negative_depth_exit_2(self, sphere_file, tmp_path, capsys):
        from trimoves.pachner import PachnerMove, apply

        bigger = apply(boundary_delta3(), PachnerMove((1, 2, 3), (5,)))
        goal = tmp_path / "goal.json"
        goal.write_text(dumps(complex_to_dict(bigger)))
        for target in (sphere_file, str(goal)):
            assert main(["pachner", "bfs", "--start", sphere_file, "--goal", target,
                         "--max-depth", "-1"]) == 2
            assert "max_depth" in capsys.readouterr().err

    def test_apply_reads_unsorted_move(self, sphere_file, tmp_path):
        move = tmp_path / "move.json"
        move.write_text(json.dumps({"A": [3, 2, 1], "B": [5]}))
        out = tmp_path / "out.json"
        assert main(["pachner", "apply", "--input", sphere_file, "--move", str(move),
                     "--output", str(out)]) == 0
        assert json.loads(out.read_text())["complex"]["vertices"] == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("a, b", [([1, 1, 2], [5]), ([], [1, 2, 3, 4]), ([1, 2, 3], [-5])],
                             ids=["duplicate", "empty", "negative"])
    def test_apply_bad_move_simplex_exit_2(self, sphere_file, tmp_path, capsys, a, b):
        # a negative fresh vertex used to be applied and written out
        move = tmp_path / "move.json"
        move.write_text(json.dumps({"A": a, "B": b}))
        out = tmp_path / "out.json"
        assert main(["pachner", "apply", "--input", sphere_file, "--move", str(move),
                     "--output", str(out)]) == 2
        assert "bad move data" in capsys.readouterr().err
        assert not out.exists()

    def test_bfs_outside_signature_domain_exit_2(self, sphere_file, tmp_path):
        # three triangles on one edge: no isomorphism signature, so no search
        from trimoves.complexes import close_under_faces

        fan = tmp_path / "fan.json"
        fan.write_text(dumps(complex_to_dict(close_under_faces([(1, 2, 3), (1, 2, 4), (1, 2, 5)]))))
        assert main(["pachner", "bfs", "--start", str(fan), "--goal", sphere_file,
                     "--max-depth", "2"]) == 2
        assert main(["pachner", "bfs", "--start", sphere_file, "--goal", str(fan),
                     "--max-depth", "2"]) == 2


class TestShellCli:
    def test_find_certificate(self, tmp_path):
        from trimoves.complexes import close_under_faces

        ball = tmp_path / "ball.json"
        ball.write_text(dumps(complex_to_dict(close_under_faces([(1, 2, 3), (1, 2, 4)]))))
        out = tmp_path / "cert.json"
        assert main(["shell", "find", "--input", str(ball), "--output", str(out)]) == 0
        cert = json.loads(out.read_text())["shelling"]
        assert len(cert["steps"]) == 1

    @pytest.mark.parametrize("apex", [None, 9], ids=["fresh", "given"])
    def test_star_replaces_the_ball_by_a_cone(self, sphere_file, tmp_path, apex):
        from trimoves.complexes import close_under_faces

        ball = tmp_path / "ball.json"
        ball.write_text(dumps(complex_to_dict(close_under_faces([(1, 2, 3)]))))
        out = tmp_path / "star.json"
        argv = ["shell", "star", "--ambient", sphere_file, "--ball", str(ball), "--output", str(out)]
        assert main(argv + ([] if apex is None else ["--apex", str(apex)])) == 0
        data = json.loads(out.read_text())
        w = 5 if apex is None else apex
        assert data["sequence"]["moves"] == [{"A": [1, 2, 3], "B": [w], "fresh": [w]}]
        assert data["result"]["maximal_simplexes"] == sorted(
            [[1, 2, 4], [1, 3, 4], [2, 3, 4]] + [sorted(e + [w]) for e in ([1, 2], [1, 3], [2, 3])]
        )

    def test_star_with_conflicting_apex_exit_1(self, sphere_file, tmp_path):
        from trimoves.complexes import close_under_faces

        ball = tmp_path / "ball.json"
        ball.write_text(dumps(complex_to_dict(close_under_faces([(1, 2, 3)]))))
        code = main(["shell", "star", "--ambient", sphere_file,
                     "--ball", str(ball), "--apex", "2"])
        assert code == 1


class TestReduceAndVerifyCli:
    def test_relate_then_replay(self, tmp_path):
        k1p = tmp_path / "k1.json"
        k2p = tmp_path / "k2.json"
        k1p.write_text(dumps(geom_complex_to_dict(circle_complex(3))))
        k2p.write_text(dumps(geom_complex_to_dict(circle_complex(5, offset=0.07))))
        out = tmp_path / "relate.json"
        assert main(["reduce", "relate", "--k1", str(k1p), "--k2", str(k2p),
                     "--output", str(out)]) == 0
        data = json.loads(out.read_text())

        seq_file = tmp_path / "seq.json"
        seq_file.write_text(dumps(data["sequence"]))
        start_file = tmp_path / "start.json"
        start_file.write_text(dumps(data["start"]))
        expect_file = tmp_path / "end.json"
        expect_file.write_text(dumps(data["end"]))
        assert main(["verify", "replay", "--sequence", str(seq_file),
                     "--start", str(start_file), "--expect", str(expect_file),
                     "--pseudomanifold"]) == 0

    def test_verify_rejects_wrong_expectation(self, tmp_path, sphere_file):
        from trimoves.pachner import PachnerMove, sequence_from_moves

        seq = sequence_from_moves(boundary_delta3(), [PachnerMove((1, 2, 3), (5,))])
        from trimoves.serialize import sequence_to_dict

        seq_file = tmp_path / "seq.json"
        seq_file.write_text(dumps(sequence_to_dict(seq)))
        wrong = tmp_path / "wrong.json"
        from trimoves.complexes import close_under_faces

        wrong.write_text(dumps(complex_to_dict(close_under_faces([(1, 2, 3)]))))
        code = main(["verify", "replay", "--sequence", str(seq_file),
                     "--start", sphere_file, "--expect", str(wrong)])
        assert code == 1


class TestReduceSubcommands:
    def test_alpha2beta_roundtrip(self, sphere_file, tmp_path):
        alpha = tmp_path / "alpha.json"
        assert main(["subdivide", "--input", sphere_file, "--mode", "bary",
                     "--output", str(alpha)]) == 0
        # the subdivision payload is nested under "subdivision"
        alpha.write_text(dumps(json.loads(alpha.read_text())["subdivision"]))
        out = tmp_path / "red.json"
        assert main(["reduce", "alpha2beta", "--complex", sphere_file,
                     "--alpha", str(alpha), "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["trace"]["total_moves"] <= data["trace"]["reduction_bound"]

    def test_bridge(self, sphere_file, tmp_path):
        ident = tmp_path / "ident.json"
        assert main(["subdivide", "--input", sphere_file, "--mode", "partial:2",
                     "--output", str(ident)]) == 0
        ident.write_text(dumps(json.loads(ident.read_text())["subdivision"]))
        out = tmp_path / "bridge.json"
        assert main(["reduce", "bridge", "--complex", sphere_file,
                     "--kprime", str(ident), "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        assert any("two-layer bound" in n for n in data["trace"]["notes"])

    @pytest.mark.parametrize(
        "action, option, apex", [("alpha2beta", "--alpha", 15), ("bridge", "--kprime", 435)]
    )
    def test_wrong_starring_move_fails_the_replay(self, sphere_file, tmp_path, capsys,
                                                  monkeypatch, action, option, apex):
        # the first starring's cone move is emitted the wrong way round, from
        # the first fresh apex; the reduction applies the starring as one
        # replace, so its bounds and level checks pass, and the replay
        # before writing must catch it
        import dataclasses

        from trimoves import reduction
        from trimoves.serialize import subdivided_to_dict
        from trimoves.subdivision import barycentric

        real = reduction.memoized_shelling
        calls = []

        def one_wrong_move(ball, memo):
            starring, reused = real(ball, memo)
            calls.append(ball)
            if len(calls) == 1:
                (a, b), *rest = starring.moves
                starring = dataclasses.replace(starring, moves=((b, a), *rest))
            return starring, reused

        monkeypatch.setattr(reduction, "memoized_shelling", one_wrong_move)
        sub = tmp_path / "sub.json"
        sub.write_text(dumps(subdivided_to_dict(barycentric(boundary_delta3()))))
        out = tmp_path / "out.json"
        assert main(["reduce", action, "--complex", sphere_file, option, str(sub),
                     "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"verification failure: move simplex ({apex},) absent\n"
        assert not out.exists()

    def test_subdivide_output_is_not_a_subdivision_file(self, sphere_file, tmp_path, capsys):
        # `subdivide --output` nests the subdivision under "subdivision",
        # next to the manifest, so the file itself has no parent
        alpha = tmp_path / "alpha.json"
        assert main(["subdivide", "--input", sphere_file, "--mode", "bary",
                     "--output", str(alpha)]) == 0
        assert main(["reduce", "alpha2beta", "--complex", sphere_file,
                     "--alpha", str(alpha)]) == 2
        assert capsys.readouterr().err == "input error: subdivision has no 'parent' key\n"

    def test_bridge_size_cap_exit_3(self, tmp_path, capsys):
        # the bridge puts two more layers on kprime = β²(∂Δ⁴), which would
        # make 7,238,880 simplexes; the prediction stops it before any build
        from itertools import combinations

        from trimoves.complexes import close_under_faces
        from trimoves.serialize import subdivided_to_dict
        from trimoves.subdivision import iterated_barycentric

        sphere3 = close_under_faces(list(combinations(range(5), 4)))
        k = tmp_path / "k.json"
        k.write_text(dumps(complex_to_dict(sphere3)))
        kprime = tmp_path / "kprime.json"
        kprime.write_text(dumps(subdivided_to_dict(iterated_barycentric(sphere3, 2))))
        start = time.perf_counter()
        assert main(["reduce", "bridge", "--complex", str(k), "--kprime", str(kprime)]) == 3
        assert time.perf_counter() - start < 1.0
        assert "7238880 simplexes" in capsys.readouterr().err


class TestIntersectCli:
    def test_torus(self, tmp_path):
        k1p = tmp_path / "k1.json"
        k2p = tmp_path / "k2.json"
        k1p.write_text(dumps(geom_complex_to_dict(grid_torus_complex(3))))
        k2p.write_text(dumps(geom_complex_to_dict(grid_torus_complex(3, shift=(1 / 6, 1 / 6)))))
        out = tmp_path / "common.json"
        assert main(["intersect", "torus", "--k1", str(k1p), "--k2", str(k2p),
                     "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        assert "carrier1" in data["common_subdivision"]
        assert "carrier2" in data["common_subdivision"]

    def test_count_bound_checked_on_side_2(self, tmp_path, monkeypatch, capsys):
        # side 1, (p_i, q_n), passes; side 2, (q_i, p_n), fails at i = 0
        from trimoves import bounds

        calls = []

        def bound(n, i, p_i, q_n):
            calls.append(i)
            return 10**9 if len(calls) <= n + 1 else 1

        monkeypatch.setattr(bounds, "commonsub_bound", bound)
        k1p = tmp_path / "k1.json"
        k2p = tmp_path / "k2.json"
        k1p.write_text(dumps(geom_complex_to_dict(grid_torus_complex(3))))
        k2p.write_text(dumps(geom_complex_to_dict(grid_torus_complex(3, shift=(1 / 6, 1 / 6)))))
        assert main(["intersect", "torus", "--k1", str(k1p), "--k2", str(k2p)]) == 1
        err = capsys.readouterr().err
        assert re.search(r"side 2: s_0 = \d+ is not below its bound 1$", err.strip()), err


@pytest.mark.parametrize("period", ["1", 0, -1.0, float("nan")], ids=["string", "zero", "negative", "nan"])
def test_bad_torus_period_exit_2(tmp_path, capsys, period):
    # each command that loads a geometric complex names the field, where a
    # string once died with a TypeError, 0 with "SVD did not converge" and
    # -1.0 with a half-period error
    data = geom_complex_to_dict(grid_torus_complex(3))
    data["torus_period"] = period
    path = tmp_path / "k.json"
    path.write_text(json.dumps(data))
    for argv in (
        ["intersect", "torus", "--k1", str(path), "--k2", str(path)],
        ["reduce", "relate", "--k1", str(path), "--k2", str(path)],
        ["subdivide", "--input", str(path), "--mode", "geometric:1"],
    ):
        assert main(argv) == 2, argv
        assert "torus_period must be a positive finite number" in capsys.readouterr().err


GRID3_COORDINATES = geom_complex_to_dict(grid_torus_complex(3))["coordinates"]


@pytest.mark.parametrize(
    "kind, key, value, message",
    [
        ("complex", "vertices", 5, "bad vertex list"),
        ("complex", "vertices", [1, "a"], "bad vertex list"),
        ("subdivided", "barycenters", 5, "bad carrier or barycenter data"),
        ("subdivided", "barycenters", [[1, 2]], "bad carrier or barycenter data"),
        ("subdivided", "barycenters", [[[1], None]], "bad carrier or barycenter data"),
        ("geometric", "coordinates", [], "bad geometric data"),
        ("complex", "maximal_simplexes", [[1.5, 2, 3]], "bad simplex data"),
        ("complex", "maximal_simplexes", [[True, 2, 3]], "bad simplex data"),
        ("complex", "vertices", [1.0, 2, 3, 4], "bad vertex list"),
        ("subdivided", "barycenters", [[[1], 5.0]], "bad carrier or barycenter data"),
        ("move", "A", [1.9], "bad move data"),
        ("move", "A", [True, 2, 3], "bad move data"),
        ("geometric", "coordinates",
         {("01" if v == "1" else v): xs for v, xs in GRID3_COORDINATES.items()},
         "bad geometric data: coordinate key '01' is not a vertex label"),
        ("geometric", "coordinates", {**GRID3_COORDINATES, " 1": GRID3_COORDINATES["1"]},
         "bad geometric data: coordinate key ' 1' is not a vertex label"),
        ("geometric", "coordinates", {**GRID3_COORDINATES, "1": [0.0, "0.333"]},
         "bad geometric data: coordinate '0.333' is not a number"),
        ("geometric", "coordinates", {**GRID3_COORDINATES, "1": [False, 1 / 3]},
         "bad geometric data: coordinate False is not a number"),
        ("geometric", "coordinates", {**GRID3_COORDINATES, "1": [10**400, 1 / 3]},
         f"bad geometric data: coordinate {10**400} is not a finite number"),
        ("geometric", "coordinates", {**GRID3_COORDINATES, "1": [float("inf"), 1 / 3]},
         "bad geometric data: coordinate inf is not a finite number"),
    ],
    ids=["vertices-int", "vertices-mixed", "barycenters-int", "barycenters-flat",
         "barycenters-null", "coordinates-list", "simplex-float", "simplex-bool",
         "vertices-float", "barycenters-float", "move-float", "move-bool",
         "coordinate-key-padded", "coordinate-key-spaced", "coordinate-string",
         "coordinate-bool", "coordinate-huge-int", "coordinate-infinity"],
)
def test_malformed_field_exit_2(tmp_path, capsys, kind, key, value, message):
    # the first six once escaped their loader as a TypeError or
    # AttributeError; the rest were truncated or coerced by int() or
    # float(), and " 1" silently replaced vertex 1's coordinates
    from trimoves.serialize import subdivided_to_dict
    from trimoves.subdivision import barycentric

    sphere = tmp_path / "sphere.json"
    sphere.write_text(dumps(complex_to_dict(boundary_delta3())))
    data = {
        "complex": lambda: complex_to_dict(boundary_delta3()),
        "subdivided": lambda: subdivided_to_dict(barycentric(boundary_delta3())),
        "geometric": lambda: geom_complex_to_dict(grid_torus_complex(3)),
        "move": lambda: {"A": [1, 2, 3], "B": [5]},
    }[kind]()
    data[key] = value
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    argv = {
        "complex": ["pachner", "enumerate", "--input", str(path)],
        "subdivided": ["reduce", "alpha2beta", "--complex", str(sphere), "--alpha", str(path)],
        "geometric": ["subdivide", "--input", str(path), "--mode", "geometric:1"],
        "move": ["pachner", "apply", "--input", str(sphere), "--move", str(path)],
    }[kind]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def alpha2beta_exit(tmp_path, k, alpha: dict) -> int:
    """Exit code of ``reduce alpha2beta`` on the complex k and the
    subdivision file ``alpha``."""
    paths = tmp_path / "k.json", tmp_path / "alpha.json"
    paths[0].write_text(dumps(complex_to_dict(k)))
    paths[1].write_text(json.dumps(alpha))
    return main(["reduce", "alpha2beta", "--complex", str(paths[0]), "--alpha", str(paths[1])])


@pytest.mark.parametrize(
    "edit, message",
    [
        ("extra", "carrier entry for (1, 2), which is not a simplex of the subdivision"),
        ("missing", "no carrier entry for (14,)"),
        ("repeated", "repeated carrier entry for (1,)"),
    ],
)
def test_subdivision_needs_one_carrier_entry_per_simplex(tmp_path, capsys, edit, message):
    # vertices 1 and 2 of β(∂Δ³) are not adjacent; an entry for (1, 2) once
    # loaded, and the reduction then failed on "S((1, 2, 3)): star
    # neighbourhood is not pure" (exit 1), blaming itself for the input
    from trimoves.serialize import subdivided_to_dict
    from trimoves.subdivision import barycentric

    data = subdivided_to_dict(barycentric(boundary_delta3()))
    if edit == "extra":
        data["carrier"].append([[1, 2], [1, 2]])
    elif edit == "missing":
        data["carrier"].pop()
    else:
        data["carrier"].append(data["carrier"][0])
    assert alpha2beta_exit(tmp_path, boundary_delta3(), data) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_subdivision_carrier_must_be_the_union_of_its_vertices(tmp_path, capsys):
    # a flat triangle (0, 4, 6) with 4 and 6 on the edge (0, 1): declared
    # carried by the whole triangle (0, 1, 2), the carrier map is monotone,
    # covers the parent and is never too small, but the union of its
    # vertices' carriers is (0, 1)
    from trimoves.complexes import close_under_faces

    parent = close_under_faces([(0, 1, 2)])
    child = close_under_faces([(0, 4, 6), (0, 3, 6), (1, 3, 6), (1, 2, 3), (0, 2, 3)])
    vertex_carrier = {0: {0}, 1: {1}, 2: {2}, 3: {0, 1, 2}, 4: {0, 1}, 6: {0, 1}}
    declared = {(0, 6): (0, 1, 2), (0, 4, 6): (0, 1, 2)}
    data = complex_to_dict(child)
    data["parent"] = complex_to_dict(parent)
    data["carrier"] = [
        [list(s), list(declared.get(s) or sorted(set().union(*(vertex_carrier[v] for v in s))))]
        for s in sorted(child.simplexes)
    ]
    assert alpha2beta_exit(tmp_path, parent, data) == 2
    assert capsys.readouterr().err == (
        "input error: carrier entry (0, 4, 6) -> (0, 1, 2) is not the union of "
        "its vertices' carriers, (0, 1)\n"
    )


def test_relate_on_near_coincident_tori_exits_1(tmp_path, capsys):
    # a carrier too small for its simplex is a failed check of the common
    # subdivision, not an input error
    paths = []
    pair = grid_torus_complex(3), grid_torus_complex(3, shift=(1e-9, 1e-9))
    for name, k in zip(("k1", "k2"), pair):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(dumps(geom_complex_to_dict(k)))
    assert main(["reduce", "relate", "--k1", str(paths[0]), "--k2", str(paths[1])]) == 1
    assert capsys.readouterr().err == (
        "verification failure: common subdivision, side 1: "
        "carrier (0, 3) too small for (0, 48, 122)\n"
    )


class TestBoundCli:
    def test_compute(self, tmp_path):
        inp = tmp_path / "mfd.json"
        inp.write_text(json.dumps({
            "geometry": "hyperbolic", "n": 3, "lam": 1.0, "p": 10, "q": 12,
            "vol": 1.0, "diam": 2.0,
        }))
        out = tmp_path / "report.json"
        table = tmp_path / "report.txt"
        assert main(["bound", "compute", "--input", str(inp), "--output", str(out),
                     "--table", str(table)]) == 0
        data = json.loads(out.read_text())
        assert "total_bound" in data["report"]["values"]
        assert "volhyp_m" in data["report"]["values"]
        assert table.read_text().startswith("quantity")

    def test_bad_input_exit_2(self, tmp_path):
        inp = tmp_path / "mfd.json"
        inp.write_text(json.dumps({"geometry": "euclidean"}))
        assert main(["bound", "compute", "--input", str(inp)]) == 2

    @pytest.mark.parametrize(
        "key, value", [("n", 2.9), ("p", 10.7), ("q", True), ("n", "2")],
        ids=["n-float", "p-float", "q-bool", "n-string"],
    )
    def test_non_integer_count_exit_2(self, tmp_path, capsys, key, value):
        # int() once ran these as n = 2, p = 10 and q = 1
        data = {"geometry": "euclidean", "n": 2, "lam": 1.0, "p": 10, "q": 12, "inj": 0.5}
        data[key] = value
        inp = tmp_path / "mfd.json"
        inp.write_text(json.dumps(data))
        assert main(["bound", "compute", "--input", str(inp)]) == 2
        assert f"bad manifold data: {key} {value!r} is not an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, message",
        [("orientable", "false", "orientable 'false' is not true or false"),
         ("lam", True, "lam True is not a number"),
         ("lam", "1.0", "lam '1.0' is not a number"),
         ("inj", True, "inj True is not a number"),
         ("vol", "1.0", "vol '1.0' is not a number")],
        ids=["orientable-string", "lam-bool", "lam-string", "inj-bool", "vol-string"],
    )
    def test_non_number_field_exit_2(self, tmp_path, capsys, key, value, message):
        # bool() once read "false" as true and float() took true and "1.0"
        # as 1.0; all of these exited 0
        data = {"geometry": "hyperbolic", "n": 3, "lam": 1.0, "p": 10, "q": 12, "vol": 1.0}
        data[key] = value
        inp = tmp_path / "mfd.json"
        inp.write_text(json.dumps(data))
        assert main(["bound", "compute", "--input", str(inp)]) == 2
        assert f"bad manifold data: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("lam", 10**400), ("diam", 10**400), ("inj", 10**400), ("lam", float("inf")),
         ("vol", float("nan"))],
        ids=["lam-huge", "diam-huge", "inj-huge", "lam-infinity", "vol-nan"],
    )
    def test_non_finite_number_exit_2(self, tmp_path, capsys, key, value):
        # a number no float holds once ended in an OverflowError (lam) or a
        # ZeroDivisionError (diam) traceback, or exited 0 (inj)
        data = {"geometry": "hyperbolic", "n": 3, "lam": 1.0, "p": 10, "q": 12, "vol": 1.0}
        if key == "inj":
            data = {"geometry": "euclidean", "n": 2, "lam": 1.0, "p": 10, "q": 12}
        data[key] = value
        inp = tmp_path / "mfd.json"
        inp.write_text(json.dumps(data))
        assert main(["bound", "compute", "--input", str(inp)]) == 2
        assert f"bad manifold data: {key} {value!r} is not a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("orientable, volhyp_m", [(True, 35), (False, 134)])
    def test_orientable_flag(self, tmp_path, orientable, volhyp_m):
        inp = tmp_path / "mfd.json"
        inp.write_text(json.dumps({
            "geometry": "hyperbolic", "n": 3, "lam": 1.0, "p": 10, "q": 12, "vol": 1.0,
            "orientable": orientable,
        }))
        out = tmp_path / "report.json"
        assert main(["bound", "compute", "--input", str(inp), "--output", str(out)]) == 0
        assert json.loads(out.read_text())["report"]["values"]["volhyp_m"] == str(volhyp_m)

    def test_without_inj_or_vol_m_is_one(self, tmp_path):
        inp = tmp_path / "mfd.json"
        inp.write_text(json.dumps({"geometry": "euclidean", "n": 2, "lam": 1.0, "p": 10, "q": 12}))
        out = tmp_path / "report.json"
        assert main(["bound", "compute", "--input", str(inp), "--output", str(out)]) == 0
        report = json.loads(out.read_text())["report"]
        assert report["m"] == 1
        assert "no injectivity radius available; m defaulted to 1" in report["notes"]
        assert "inj_used" not in report["values"]

    def test_bound_past_4300_digits(self, tmp_path):
        # total_bound here has 4,330 digits, past the default limit of
        # str(int) and int(str), so both sides go through Decimal
        inp = tmp_path / "mfd.json"
        inp.write_text(json.dumps({
            "geometry": "hyperbolic", "n": 3, "lam": 1.5, "p": 20, "q": 30, "vol": 5.0,
        }))
        out = tmp_path / "report.json"
        table = tmp_path / "report.txt"
        assert main(["bound", "compute", "--input", str(inp), "--output", str(out),
                     "--table", str(table)]) == 0
        report = json.loads(out.read_text())["report"]
        text = report["values"]["total_bound"]
        assert len(text) > 4300
        assert int(Decimal(text)) == total_bound(3, 20, 30, report["mprime"])
        assert f"{'total_bound':24} {text}" in table.read_text().splitlines()

    def test_bound_over_the_digit_cap_exits_3_at_once(self, tmp_path, capsys):
        # n = 30 gives m' = 2^31, so total_bound would have about 2e11
        # digits; the cap refuses it before the power is built
        inp = tmp_path / "mfd.json"
        inp.write_text(json.dumps({
            "geometry": "euclidean", "n": 30, "lam": 1.0, "p": 10, "q": 12, "inj": 0.5,
        }))
        t0 = time.perf_counter()
        assert main(["bound", "compute", "--input", str(inp)]) == 3
        assert time.perf_counter() - t0 < 1.0
        assert "total_bound would have more than 1000000 digits" in capsys.readouterr().err


class TestGeomCli:
    def test_kappa(self, capsys):
        assert main(["geom", "kappa", "--geometry", "euclidean", "--n", "3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kappa"] == 0.75

    def test_kappa_manifest_records_output(self, tmp_path):
        out = tmp_path / "kappa.json"
        assert main(["geom", "kappa", "--geometry", "euclidean", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["manifest"]["outputs"] == [str(out)]

    def test_scaling_table_csv(self, tmp_path):
        csv_path = tmp_path / "table.csv"
        assert main(["--seed", "3", "geom", "scaling-table", "--geometry", "hyperbolic",
                     "--n", "2", "--lam", "1.0", "--levels", "2", "--count", "2",
                     "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "trial,level,simplexes,max_edge,bound"
        assert len(lines) == 1 + 2 * 3

    def test_scaling_table_over_the_simplex_cap_exits_3_at_once(self, tmp_path, capsys):
        # β^3 of a 5-simplex has 720^3 simplexes, about 90 GB of coordinates
        t0 = time.perf_counter()
        assert main(["geom", "scaling-table", "--geometry", "euclidean", "--n", "5",
                     "--csv", str(tmp_path / "table.csv")]) == 3
        assert time.perf_counter() - t0 < 1.0
        assert "720^3 simplexes, above the cap 2000000" in capsys.readouterr().err
        assert not (tmp_path / "table.csv").exists()

    def test_centroid_check_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["--seed", "11", "geom", "centroid-check", "--geometry",
                         "spherical", "--n", "2", "--lam", "1.0", "--count", "3",
                         "--csv", str(path)]) == 0
        assert a.read_text() == b.read_text()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["geom", "kappa", "--geometry", "euclidean", "--n", "0"],
         "dimension must be at least 1"),
        (["geom", "kappa", "--geometry", "spherical", "--lam", "2.0"],
         "spherical edge bound must be at most pi/2"),
        (["geom", "scaling-table", "--geometry", "spherical", "--lam", "2.0"],
         "spherical edge bound must be at most pi/2"),
        (["geom", "centroid-check", "--geometry", "hyperbolic", "--lam", "-1"],
         "edge bound must be positive"),
        (["geom", "scaling-table", "--geometry", "euclidean", "--n", "0"],
         "dimension must be at least 1"),
    ],
)
def test_bad_geom_arguments_exit_2(argv, message, capsys):
    # the dimension and edge bound are checked once, by kappa, before any
    # sampling: an input error with kappa's message
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, option",
    [
        (["pachner", "enumerate"], "--input"),
        (["pachner", "apply"], "--input"),
        (["pachner", "bfs"], "--start"),
        (["shell", "find"], "--input"),
        (["shell", "star"], "--ambient"),
        (["reduce", "relate"], "--k1"),
        (["reduce", "alpha2beta"], "--complex"),
        (["reduce", "bridge"], "--complex"),
        (["pachner", "apply", "--input", "k.json"], "--move"),
    ],
)
def test_missing_action_file_exit_2(argv, option, capsys):
    # an action run without a file option it reads is an input error that
    # names the option, not a crash
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert option in err
    assert "Traceback" not in err


def unit(*x):
    return [c / math.sqrt(sum(y * y for y in x)) for c in x]


def lorentz(x, y):
    """The point over (x, y) on the upper sheet of the hyperboloid."""
    return [x, y, math.sqrt(1 + x * x + y * y)]


@pytest.mark.parametrize(
    "geometry, points, error",
    [
        ("spherical", [unit(1, .1, .1), unit(.1, 1, .1), unit(.1, .1, 1)], None),
        ("spherical", [[1.1, 0, 0], unit(.1, 1, .1), unit(.1, .1, 1)],
         "spherical point off the unit sphere"),
        ("spherical", [[1, 0, 0], [0, 1, 0], [-0.6, 0, 0.8]],
         "spherical simplex with an edge longer than pi/2"),
        ("hyperbolic", [lorentz(0, 0), lorentz(.3, 0), lorentz(0, .3)], None),
        ("hyperbolic", [[0, 0, 2], lorentz(.3, 0), lorentz(0, .3)],
         "hyperbolic point off the hyperboloid"),
    ],
    ids=["spherical", "off-sphere", "long-edge", "hyperbolic", "off-hyperboloid"],
)
def test_curved_triangle_subdivides_or_exits_2(tmp_path, capsys, geometry, points, error):
    # a valid triangle subdivides geometrically; a failed check of
    # GeomComplex.validate is an input error that names it
    data = {"geometry": geometry, "maximal_simplexes": [[0, 1, 2]],
            "coordinates": {str(v): x for v, x in enumerate(points)}}
    path = tmp_path / "k.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "sub.json"
    code = main(["subdivide", "--input", str(path), "--mode", "geometric:1", "--output", str(out)])
    if error is None:
        assert code == 0
        sub = json.loads(out.read_text())["geometric_complex"]
        assert sub["geometry"] == geometry
        assert len(sub["maximal_simplexes"]) == 6
    else:
        assert code == 2
        assert error in capsys.readouterr().err
