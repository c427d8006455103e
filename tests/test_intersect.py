import numpy as np
import pytest

from trimoves.complexes import close_under_faces
from trimoves.fixtures import grid_torus_complex, random_chart_pair
from trimoves.geometry import GeomComplex, Geometry
from trimoves.intersect import (
    MERGE_TOL,
    IntersectionError,
    _clip_steps,
    barycentric_polytopal,
    clip_simplex_pair,
    commonsub_count_check,
    intersect_linear,
    simplex_halfspaces,
    torus_intersect,
)

E = Geometry.EUCLIDEAN


def interval_complex(breaks, labels=None):
    labels = labels or list(range(len(breaks)))
    edges = [(labels[i], labels[i + 1]) for i in range(len(breaks) - 1)]
    coords = {labels[i]: np.array([breaks[i]]) for i in range(len(breaks))}
    return GeomComplex(close_under_faces(edges), E, coords)


def square_pair():
    """Unit square cut by the two different diagonals."""
    corners = {0: [0.0, 0.0], 1: [1.0, 0.0], 2: [1.0, 1.0], 3: [0.0, 1.0]}
    k1 = GeomComplex(
        close_under_faces([(0, 1, 2), (0, 2, 3)]),
        E,
        {k: np.array(v) for k, v in corners.items()},
    )
    k2 = GeomComplex(
        close_under_faces([(0, 1, 3), (1, 2, 3)]),
        E,
        {k: np.array(v) for k, v in corners.items()},
    )
    return k1, k2


class TestClipPair:
    def test_identical_triangles(self):
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        pts, labels = clip_simplex_pair(tri, simplex_halfspaces(tri))
        assert len(pts) == 3

    def test_disjoint(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        b = a + 10.0
        pts, _ = clip_simplex_pair(a, simplex_halfspaces(b))
        assert pts == []

    def test_quad_overlap(self):
        a = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        b = np.array([[1.6, 1.6], [-0.4, 1.6], [1.6, -0.4]])
        pts, _ = clip_simplex_pair(a, simplex_halfspaces(b))
        assert len(pts) == 6  # hexagonal overlap of two opposite triangles

    @pytest.mark.parametrize("kept", [0, 1])
    def test_segment_end_within_tolerance_of_the_plane_is_kept_not_cut(self, kept):
        # the end within MERGE_TOL of the clipper's plane x = 1 is kept and
        # labelled with that plane; a cut beside it would be the same point
        # under a second carrier key
        ends = [[1 + MERGE_TOL / 2], [2.0]]
        sub = np.array(ends if kept == 0 else ends[::-1])
        pts, labels = clip_simplex_pair(sub, simplex_halfspaces(np.array([[0.0], [1.0]])))
        assert [p.tolist() for p in pts] == [[1 + MERGE_TOL / 2]]
        assert labels == [frozenset({("sub", 1 - kept), ("cut", 0)})]


class TestIntersectLinear:
    def test_identical_complexes(self):
        k1, _ = square_pair()
        poly = intersect_linear(k1, k1)
        assert len(poly.cells) == 2
        assert poly.total_measure() == pytest.approx(1.0, abs=1e-12)

    def test_interval_splits(self):
        k1 = interval_complex([0.0, 0.5, 1.0])
        k2 = interval_complex([0.0, 0.3, 1.0], labels=[10, 11, 12])
        poly = intersect_linear(k1, k2)
        measures = sorted(round(c.measure, 9) for c in poly.cells)
        assert measures == [0.2, 0.3, 0.5]

    def test_crossed_diagonals(self):
        k1, k2 = square_pair()
        poly = intersect_linear(k1, k2)
        # oracle: the two diagonals cross at the centre into 4 triangles
        assert len(poly.cells) == 4
        assert poly.total_measure() == pytest.approx(1.0, abs=1e-9)
        assert any(
            np.allclose(v, [0.5, 0.5], atol=1e-9) for v in poly.vertices.values()
        )

    def test_region_mismatch_rejected(self):
        k1, _ = square_pair()
        small = GeomComplex(
            close_under_faces([(0, 1, 2)]),
            E,
            {0: np.array([0.0, 0.0]), 1: np.array([1.0, 0.0]), 2: np.array([0.0, 1.0])},
        )
        with pytest.raises(IntersectionError):
            intersect_linear(k1, small)

    def test_provenance_contains_cells(self):
        k1, k2 = square_pair()
        poly = intersect_linear(k1, k2)
        for cell in poly.cells:
            c1 = k1.lift(cell.provenance[0])
            c2 = k2.lift(cell.provenance[1])
            from trimoves.intersect import _affine_coords

            for p in cell.lift:
                assert np.all(_affine_coords(c1, p) > -1e-9)
                assert np.all(_affine_coords(c2, p) > -1e-9)


class TestTorus:
    def test_identical_grids(self):
        k = grid_torus_complex(3)
        poly = torus_intersect(k, k)
        assert len(poly.cells) == 18
        assert poly.total_measure() == pytest.approx(1.0, abs=1e-9)

    def test_shifted_grids(self):
        k1 = grid_torus_complex(3)
        k2 = grid_torus_complex(3, shift=(1 / 6, 1 / 6))
        poly = torus_intersect(k1, k2)
        assert poly.total_measure() == pytest.approx(1.0, abs=1e-9)
        # every pair intersects in at most one convex cell
        seen = {}
        for c in poly.cells:
            assert c.provenance not in seen
            seen[c.provenance] = c

    def test_coarse_triangulation_guard(self):
        # a 1x1 grid is not even simplicial
        with pytest.raises(ValueError):
            grid_torus_complex(1)
        # stretched legs of 0.467 give diameter 0.66 >= period/2
        k = grid_torus_complex(3)
        bad = GeomComplex(
            k.complex, E, {v: (c * 1.4) % 1.0 for v, c in k.coords.items()}, 1.0
        )
        with pytest.raises(IntersectionError):
            torus_intersect(bad, bad)


class TestHalfspacesPerTop:
    """The clipping simplex's half-spaces are built once per top simplex of
    the first complex, not once per clipped pair."""

    @staticmethod
    def _count_halfspaces(monkeypatch):
        import trimoves.intersect as intersect_mod

        calls = []
        real = intersect_mod.simplex_halfspaces

        def counting(pts):
            calls.append(1)
            return real(pts)

        monkeypatch.setattr(intersect_mod, "simplex_halfspaces", counting)
        return calls

    def test_torus_once_per_top(self, monkeypatch):
        k1 = grid_torus_complex(3)
        k2 = grid_torus_complex(3, shift=(1 / 6, 1 / 6))
        calls = self._count_halfspaces(monkeypatch)
        torus_intersect(k1, k2)
        assert len(calls) == 18

    def test_linear_once_per_top(self, monkeypatch):
        k1, k2 = random_chart_pair(np.random.default_rng(14))
        calls = self._count_halfspaces(monkeypatch)
        intersect_linear(k1, k2)
        assert len(calls) == len(k1.complex.top_simplexes())


class TestDiscarded:
    """Zero-measure clips are recorded on the plane and dropped on the torus."""

    def test_plane_records_touching_pairs(self):
        # the two triangles of the square meet along the diagonal only
        k1, _ = square_pair()
        poly = intersect_linear(k1, k1)
        assert poly.discarded == [
            (((0, 1, 2), (0, 2, 3)), 0.0),
            (((0, 2, 3), (0, 1, 2)), 0.0),
        ]

    def test_torus_records_none(self, monkeypatch):
        import trimoves.intersect as intersect_mod

        nonempty = []
        real = intersect_mod.clip_simplex_pair

        def counting(sub_pts, halfspaces):
            pts, labels = real(sub_pts, halfspaces)
            if pts:
                nonempty.append(1)
            return pts, labels

        monkeypatch.setattr(intersect_mod, "clip_simplex_pair", counting)
        k = grid_torus_complex(3)
        poly = torus_intersect(k, k)
        # identical grids touch along edges and at vertices in many pairs
        assert len(nonempty) > len(poly.cells) == 18
        assert poly.discarded == []


class TestCellCycles:
    """A 2D cell's points are stored as a convex cycle, in clip order."""

    @staticmethod
    def _polys():
        yield torus_intersect(
            grid_torus_complex(3), grid_torus_complex(3, shift=(1 / 6, 1 / 6))
        )
        rng = np.random.default_rng(7)
        for _ in range(3):
            yield intersect_linear(*random_chart_pair(rng))

    def test_convex_cycle_in_stored_order(self):
        from scipy.spatial import ConvexHull

        cells = 0
        for poly in self._polys():
            for cell in poly.cells:
                pts = cell.lift
                n = len(pts)
                assert cell.faces_by_dim[2] == [tuple(range(n))]
                edges = [pts[(i + 1) % n] - pts[i] for i in range(n)]
                turns = [
                    edges[i][0] * edges[(i + 1) % n][1] - edges[i][1] * edges[(i + 1) % n][0]
                    for i in range(n)
                ]
                assert all(t > 0 for t in turns) or all(t < 0 for t in turns)
                x, y = pts[:, 0], pts[:, 1]
                shoelace = abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))) / 2
                assert shoelace == pytest.approx(cell.measure, rel=1e-12)
                assert ConvexHull(pts).volume == pytest.approx(cell.measure, rel=1e-9)
                cells += 1
        assert cells > 100


class TestBarycentricPolytopal:
    def test_single_triangle_cell(self):
        tri = GeomComplex(
            close_under_faces([(0, 1, 2)]),
            E,
            {0: np.array([0.0, 0.0]), 1: np.array([1.0, 0.0]), 2: np.array([0.0, 1.0])},
        )
        poly = intersect_linear(tri, tri)
        common = barycentric_polytopal(poly, tri, tri)
        assert common.complex.f_vector()[2] == 6

    def test_square_cell_eight_triangles(self):
        k1, k2 = square_pair()
        # intersect a triangulation with itself rotated: use the crossed
        # diagonals to get 4 triangle cells, then check 6 triangles each
        poly = intersect_linear(k1, k2)
        common = barycentric_polytopal(poly, k1, k2)
        assert common.complex.f_vector()[2] == 24
        common.side1.validate()
        common.side2.validate()

    def test_one_dimensional(self):
        k1 = interval_complex([0.0, 0.4, 1.0])
        k2 = interval_complex([0.0, 0.6, 1.0], labels=[10, 11, 12])
        poly = intersect_linear(k1, k2)
        common = barycentric_polytopal(poly, k1, k2)
        assert common.complex.f_vector()[1] == 6

    def test_cells_respect_facet_count_law(self):
        # a cell cut from a k-simplex and an l-simplex has at most
        # (k+1) + (l+1) codimension-one faces; for triangle pairs that
        # caps every polygon cell at 6 vertices
        k1 = grid_torus_complex(3)
        k2 = grid_torus_complex(3, shift=(0.11, 0.043))
        poly = torus_intersect(k1, k2)
        for c in poly.cells:
            assert len(c.vertex_ids) <= 6
        common = barycentric_polytopal(poly, k1, k2)
        # per-cell subdivision count is twice the facet count, so each cell
        # contributes at most 12 triangles
        assert common.complex.f_vector()[2] <= 12 * len(poly.cells)

    def test_quad_cells_cone_to_eight_triangles(self):
        # a k-gon cell cones over its subdivided boundary into 2k triangles;
        # the shifted-grid overlay contains genuine quadrilateral cells
        k1 = grid_torus_complex(3)
        k2 = grid_torus_complex(3, shift=(1 / 6, 1 / 6))
        poly = torus_intersect(k1, k2)
        assert any(len(c.vertex_ids) == 4 for c in poly.cells)
        common = barycentric_polytopal(poly, k1, k2)
        assert common.complex.f_vector()[2] == sum(
            2 * len(c.vertex_ids) for c in poly.cells
        )

    def test_carriers_contain_simplexes(self):
        k1 = grid_torus_complex(3)
        k2 = grid_torus_complex(3, shift=(1 / 6, 1 / 6))
        poly = torus_intersect(k1, k2)
        common = barycentric_polytopal(poly, k1, k2)
        gk = common.as_geom()
        for s in list(common.complex.simplexes)[:200]:
            c1 = common.side1.carrier(s)
            chart = k1.lift(c1)
            lifted = gk.lift(s)
            anchor = lifted.mean(axis=0)
            chart = chart + np.round((anchor - chart.mean(axis=0)))
            from trimoves.intersect import _affine_coords

            for p in lifted:
                coords = _affine_coords(chart, p)
                assert np.all(coords > -1e-7)


class TestCounts:
    def test_single_triangle_chart(self):
        tri = GeomComplex(
            close_under_faces([(0, 1, 2)]),
            E,
            {0: np.array([0.0, 0.0]), 1: np.array([1.0, 0.0]), 2: np.array([0.0, 1.0])},
        )
        poly = intersect_linear(tri, tri)
        common = barycentric_polytopal(poly, tri, tri)
        report = commonsub_count_check(tri, tri, common)
        row = report["skeleton"][2]
        assert row["s_i"] == 6
        assert row["bound"] == 3 * 36
        assert report["all_ok"] and report["measure_ok"]

    def test_interval_case(self):
        k1 = interval_complex([0.0, 0.5, 1.0])
        k2 = interval_complex([0.0, 0.3, 1.0], labels=[10, 11, 12])
        common = barycentric_polytopal(intersect_linear(k1, k2), k1, k2)
        report = commonsub_count_check(k1, k2, common)
        assert report["all_ok"] and report["measure_ok"]

    def test_torus_fixture(self):
        k1 = grid_torus_complex(3)
        k2 = grid_torus_complex(3, shift=(1 / 6, 1 / 6))
        common = barycentric_polytopal(torus_intersect(k1, k2), k1, k2)
        report = commonsub_count_check(k1, k2, common)
        assert report["all_ok"] and report["measure_ok"]


class TestChartPairs:
    def test_random_delaunay_pairs(self):
        rng = np.random.default_rng(14)
        for _ in range(3):
            k1, k2 = random_chart_pair(rng)
            poly = intersect_linear(k1, k2)
            assert poly.total_measure() == pytest.approx(1.0, rel=1e-9)
            common = barycentric_polytopal(poly, k1, k2)
            report = commonsub_count_check(k1, k2, common)
            assert report["all_ok"] and report["measure_ok"]


def two_tet_pair():
    """One tetrahedron, and the same region coned from an interior point."""
    coords = {
        0: np.array([0.0, 0.0, 0.0]),
        1: np.array([1.0, 0.0, 0.0]),
        2: np.array([0.0, 1.0, 0.0]),
        3: np.array([0.0, 0.0, 1.0]),
    }
    k1 = GeomComplex(close_under_faces([(0, 1, 2, 3)]), E, coords)
    mid = {**coords, 5: np.array([0.25, 0.25, 0.25])}
    k2 = GeomComplex(
        close_under_faces([(0, 1, 2, 5), (0, 1, 3, 5), (0, 2, 3, 5), (1, 2, 3, 5)]),
        E,
        mid,
    )
    return k1, k2


def carrier_fixture(name):
    """(k1, k2, intersect) for the pinned intersection fixtures."""
    if name == "shifted3":
        return grid_torus_complex(3), grid_torus_complex(3, shift=(1 / 6, 1 / 6)), torus_intersect
    if name == "identical3":
        return grid_torus_complex(3), grid_torus_complex(3), torus_intersect
    if name == "chart14":
        return (*random_chart_pair(np.random.default_rng(14)), intersect_linear)
    return (*two_tet_pair(), intersect_linear)


# sha256 of polytopal_to_dict + common_subdivision_to_dict, as computed when
# vertices were still identified by coordinates and carriers solved per face
INTERSECTION_SHA = {
    "chart14": "bb1b43553799d2bc6f4ed4f76259b6e09b7fb8b7e3791ea68e59fb925b6c419a",
    "identical3": "6508acd3956237dda7b612a9fd742884afa4a0b6057412032fe3187f6cd4d890",
    "shifted3": "3180aa1f90deb5019840800bf8010753211ff5a7c43909bd746d92f162fc29d8",
    "tets": "36a6399c48e88f51720042c8754059950dc0120f59d786a06fe39791cdc1ac10",
}


class TestCarrierKeys:
    """Clip vertices are identified, and carried, by the carrier pairs their
    clip labels name, and faces by the unions of their vertices'."""

    @pytest.mark.parametrize("name", sorted(INTERSECTION_SHA))
    def test_output_matches_pin(self, name):
        import hashlib

        from trimoves.serialize import common_subdivision_to_dict, dumps, polytopal_to_dict

        k1, k2, intersect = carrier_fixture(name)
        poly = intersect(k1, k2)
        common = barycentric_polytopal(poly, k1, k2)
        text = dumps(polytopal_to_dict(poly)) + dumps(common_subdivision_to_dict(common))
        assert hashlib.sha256(text.encode()).hexdigest() == INTERSECTION_SHA[name]

    @pytest.mark.parametrize("name", sorted(INTERSECTION_SHA))
    def test_label_carriers_match_barycentric_support(self, name):
        # oracle: the smallest parent faces containing a face's points, from
        # barycentric coordinates in the charts of every cell with the face,
        # against the union of the face's vertices' carriers
        k1, k2, intersect = carrier_fixture(name)
        poly = intersect(k1, k2)
        common = barycentric_polytopal(poly, k1, k2)

        def union(side, vids):
            return tuple(sorted(set().union(*(side.carrier((v,)) for v in vids))))

        checked = 0
        for cell in poly.cells:
            s1, s2 = cell.provenance
            c1, c2 = k1.lift(s1), k2.lift(s2)
            if poly.period is not None:
                c2 = c2 + poly.period * np.round(
                    (cell.lift.mean(axis=0) - c2.mean(axis=0)) / poly.period
                )
            vids = [None] * len(cell.lift)
            for local, vid in zip(cell.faces_by_dim[poly.dim][0], cell.vertex_ids):
                vids[local] = vid
            for d, faces in cell.faces_by_dim.items():
                for local in faces:
                    rec = poly.faces[tuple(sorted(vids[i] for i in local))]
                    for simplex, chart, carrier in (
                        (s1, c1, union(common.side1, rec.vids)),
                        (s2, c2, union(common.side2, rec.vids)),
                    ):
                        a = np.vstack([chart.T, np.ones(len(chart))])
                        support = set()
                        for i in local:
                            coords = np.linalg.solve(a, np.append(cell.lift[i], 1.0))
                            support |= {simplex[j] for j in np.flatnonzero(coords > 1e-9)}
                        assert carrier == tuple(sorted(support))
                    checked += 1
        assert checked > len(poly.faces)

    def test_identical_grids_share_vertices_across_the_seam(self):
        # the 3x3 grid's vertices sit on the seam of the fundamental domain;
        # every cell's copies of them get one id each
        k = grid_torus_complex(3)
        poly = torus_intersect(k, k)
        assert len(poly.vertices) == 9
        assert {tuple(c) for c in poly.vertices.values()} == {
            tuple(c) for c in k.coords.values()
        }

    def test_vertex_outside_its_chart_raises(self, monkeypatch):
        import trimoves.intersect as intersect_mod

        real = intersect_mod.clip_simplex_pair

        def swollen(sub_pts, halfspaces):
            pts, labels = real(sub_pts, halfspaces)
            if pts:
                center = np.mean(pts, axis=0)
                pts = [center + 1.5 * (p - center) for p in pts]
            return pts, labels

        monkeypatch.setattr(intersect_mod, "clip_simplex_pair", swollen)
        with pytest.raises(IntersectionError, match="escapes its provenance simplex"):
            intersect_linear(*square_pair())


class TestThreeD:
    def test_tet_self_intersection(self):
        tet = GeomComplex(
            close_under_faces([(0, 1, 2, 3)]),
            E,
            {
                0: np.array([0.0, 0.0, 0.0]),
                1: np.array([1.0, 0.0, 0.0]),
                2: np.array([0.0, 1.0, 0.0]),
                3: np.array([0.0, 0.0, 1.0]),
            },
        )
        poly = intersect_linear(tet, tet)
        assert len(poly.cells) == 1
        assert poly.total_measure() == pytest.approx(1 / 6, abs=1e-12)

    def test_two_tet_complexes(self):
        k1, k2 = two_tet_pair()
        poly = intersect_linear(k1, k2)
        assert poly.total_measure() == pytest.approx(1 / 6, rel=1e-9)
        assert len(poly.cells) == 4
        common = barycentric_polytopal(poly, k1, k2)
        common.side1.validate()
        report = commonsub_count_check(k1, k2, common)
        assert report["measure_ok"]
        # beta of a 3-cell: one tetrahedron per (facet, facet edge, cone) pair
        want = sum(
            sum(2 * len(cyc) for cyc in c.faces_by_dim[2]) for c in poly.cells
        )
        assert common.complex.f_vector()[3] == want

    def test_offset_tetrahedra_volume_against_monte_carlo(self):
        # independent oracle: rejection sampling of the overlap volume
        rng = np.random.default_rng(33)
        a = np.array(
            [[0.0, 0.0, 0.0], [1.1, 0.1, 0.0], [0.0, 1.2, 0.1], [0.1, 0.0, 1.0]]
        )
        b = a * 0.9 + np.array([0.18, 0.1, 0.07])
        from trimoves.intersect import cell_face_lattice, cell_measure

        pts, labels = clip_simplex_pair(b, simplex_halfspaces(a))
        assert len(pts) >= 4
        lattice = cell_face_lattice(3, pts, labels)
        vol = cell_measure(3, pts, lattice)

        from trimoves.intersect import _affine_coords

        lo = np.min(np.vstack([a, b]), axis=0)
        hi = np.max(np.vstack([a, b]), axis=0)
        n_samples = 200_000
        samples = rng.uniform(lo, hi, size=(n_samples, 3))

        def inside(simplex, pts_arr):
            mat = np.vstack([simplex.T, np.ones(4)])
            coords = np.linalg.solve(
                mat, np.hstack([pts_arr, np.ones((len(pts_arr), 1))]).T
            )
            return np.all(coords >= -1e-12, axis=0)

        frac = np.mean(inside(a, samples) & inside(b, samples))
        mc = frac * np.prod(hi - lo)
        assert vol == pytest.approx(mc, rel=0.05)


def reject_fixture(name):
    """(k1, k2, intersect) for the trivial-reject oracle."""
    from trimoves.fixtures import circle_complex
    from trimoves.geometry import geometric_barycentric

    if name == "fat":
        # the fat pair of the relate tests, pre-subdivided as relate does
        k1, k2 = grid_torus_complex(3), grid_torus_complex(3)
        k2.coords[4] = (k2.coords[4] + np.array([0.05, 0.045])) % 1.0
        return geometric_barycentric(k1, 1), geometric_barycentric(k2, 1), torus_intersect
    if name == "identical3":
        return grid_torus_complex(3), grid_torus_complex(3), torus_intersect
    if name.startswith("shifted"):
        g = int(name[-1])
        return grid_torus_complex(g), grid_torus_complex(g, shift=(0.5 / g, 0.5 / g)), torus_intersect
    if name == "circles":
        # shared vertices at 0 and 1/2: the edges touch end to end
        return circle_complex(4), circle_complex(6), torus_intersect
    if name.startswith("chart"):
        return (*random_chart_pair(np.random.default_rng(int(name[5:]))), intersect_linear)
    k1, k2 = two_tet_pair()
    if name == "tets-bary":
        # pre-subdivided, so that 3D pairs also miss and touch
        return geometric_barycentric(k1, 1), geometric_barycentric(k2, 1), intersect_linear
    return k1, k2, intersect_linear


class TestTrivialReject:
    """The trivial reject of ``clip_simplex_pair`` never changes a clip."""

    @pytest.mark.parametrize(
        "name, clips",
        [
            ("fat", 108 * 108 * 9),
            ("identical3", 18 * 18 * 9),
            ("shifted3", 18 * 18 * 9),
            ("shifted4", 32 * 32 * 9),
            ("circles", 4 * 6 * 3),
            ("chart14", None),
            ("chart15", None),
            ("chart16", None),
            ("chart17", None),
            ("tets", 1 * 4),
            ("tets-bary", 24 * 96),
        ],
    )
    def test_every_clip_matches_the_clip_without_reject(self, monkeypatch, name, clips):
        import trimoves.intersect as intersect_mod

        real = intersect_mod.clip_simplex_pair
        seen = {"clips": 0, "nonempty": 0}

        def checked(sub_pts, halfspaces):
            pts, labels = real(sub_pts, halfspaces)
            # the stepwise clip alone, with no trivial reject
            want_pts, want_labels = _clip_steps(sub_pts, halfspaces)
            assert len(pts) == len(want_pts)
            assert all(np.array_equal(p, q) for p, q in zip(pts, want_pts))
            assert labels == want_labels
            seen["clips"] += 1
            seen["nonempty"] += bool(pts)
            return pts, labels

        monkeypatch.setattr(intersect_mod, "clip_simplex_pair", checked)
        k1, k2, intersect = reject_fixture(name)
        intersect(k1, k2)
        if clips is None:
            clips = len(k1.complex.top_simplexes()) * len(k2.complex.top_simplexes())
        assert seen["clips"] == clips
        assert 0 < seen["nonempty"] < clips or name == "tets"
