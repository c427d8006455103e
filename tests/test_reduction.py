import dataclasses
import hashlib
import importlib.util
import itertools
import json
import random
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from trimoves.bounds import barymoves_bound, reduction_sum_bound, bridge_sum_bound
from trimoves.complexes import WorkingComplex, close_under_faces, find_isomorphism
from trimoves.fixtures import circle_complex, grid_torus_complex, random_closed_surface
from trimoves.geometry import GeomComplex, Geometry
from trimoves.intersect import IntersectionError
from trimoves import bounds, reduction, serialize
from trimoves.pachner import MoveSequence, PachnerMove, apply_moves, apply_sequence, replay_verified
from trimoves.reduction import (
    ReductionError,
    alpha_to_beta,
    beta2_bridge,
    relate,
)
from trimoves.subdivision import (
    SubdividedComplex,
    barycentric,
    identity_subdivision,
    iterated_barycentric,
    partial_relative,
    skeleton_counts,
)
from .test_complexes import boundary_delta3

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class TestAlphaToBeta:
    def test_sphere_identity_alpha(self):
        k = boundary_delta3()
        seq, trace = alpha_to_beta(k, identity_subdivision(k))
        # replay lands on a complex isomorphic to the barycentric subdivision
        out = apply_sequence(k, seq)
        assert out == trace.result
        want = barycentric(k).complex
        assert find_isomorphism(out, want) is not None
        # per-level bound and the total shape
        n, p = 2, k.f_vector()
        s = skeleton_counts(identity_subdivision(k))
        for r, used in trace.per_level_moves.items():
            assert used <= trace.per_level_bounds[r]
        assert trace.total_moves <= reduction_sum_bound(n, p, s)
        assert trace.total_moves <= barymoves_bound(n, 0, p[n])
        assert seq.removed_vertices() & set(k.vertices()) == set()

    def test_triangle_circle(self):
        k = close_under_faces([(0, 1), (1, 2), (0, 2)])
        seq, trace = alpha_to_beta(k, identity_subdivision(k))
        assert len(seq) == 3  # one starring per edge
        out = apply_sequence(k, seq)
        assert find_isomorphism(out, barycentric(k).complex) is not None

    def test_triangle_circle_against_bfs_oracle(self):
        # independent one-dimensional oracle: breadth-first search finds a
        # shortest path to the subdivided circle, which our constructive
        # sequence matches in length
        from trimoves.pachner import bfs_equivalence

        k = close_under_faces([(0, 1), (1, 2), (0, 2)])
        seq, trace = alpha_to_beta(k, identity_subdivision(k))
        oracle = bfs_equivalence(k, trace.result, max_depth=3, max_nodes=5000)
        assert oracle is not None
        assert len(oracle) == len(seq) == 3

    def test_alpha_equal_beta(self):
        # alpha = beta K: endpoint is isomorphic to beta K although the
        # sequence is not empty
        k = close_under_faces([(0, 1), (1, 2), (0, 2)])
        alpha = barycentric(k)
        seq, trace = alpha_to_beta(k, alpha)
        assert find_isomorphism(trace.result, alpha.complex) is not None

    def test_torus_identity(self):
        k = grid_torus_complex(3).complex
        seq, trace = alpha_to_beta(k, identity_subdivision(k))
        assert find_isomorphism(trace.result, barycentric(k).complex) is not None
        replay_verified(k, seq, expect=trace.result)

    def test_two_layer_chain_within_barymoves_bound(self):
        # chaining identity reductions climbs the subdivision tower one
        # barycentric layer at a time; the combined length stays below the
        # two-layer bound
        k = close_under_faces([(0, 1), (1, 2), (0, 2)])
        seq1, trace1 = alpha_to_beta(k, identity_subdivision(k))
        c1 = trace1.result
        seq2, trace2 = alpha_to_beta(c1, identity_subdivision(c1))
        total = len(seq1) + len(seq2)
        assert total <= barymoves_bound(1, 1, k.f_vector()[1])
        assert find_isomorphism(
            trace2.result, barycentric(barycentric(k).complex).complex
        ) is not None

    def test_three_sphere_identity(self):
        # n = 3: stars five tetrahedra, twenty triangle neighbourhoods and
        # sixty edge neighbourhoods, with every level checked exactly
        import itertools

        k = close_under_faces(itertools.combinations(range(5), 4))
        seq, trace = alpha_to_beta(k, identity_subdivision(k))
        assert trace.per_level_moves == {3: 5, 2: 20, 1: 60}
        assert all(
            trace.per_level_moves[r] <= trace.per_level_bounds[r] for r in (1, 2, 3)
        )
        assert trace.level_checks == {2: "exact", 1: "exact", 0: "exact"}
        replay_verified(k, seq, expect=trace.result)

    def test_three_sphere_barycentric_alpha(self):
        # non-identity alpha in dimension 3: every restricted subdivision is
        # a 24-tetrahedron ball whose shelling drives the starring
        import itertools

        k = close_under_faces(itertools.combinations(range(5), 4))
        alpha = barycentric(k)
        seq, trace = alpha_to_beta(k, alpha)
        assert trace.per_level_moves == {3: 120, 2: 120, 1: 120}
        assert find_isomorphism(trace.result, barycentric(k).complex) is not None
        replay_verified(alpha.complex, seq, expect=trace.result)

    def test_requires_closed_pseudomanifold(self):
        k = close_under_faces([(0, 1, 2)])
        with pytest.raises(ReductionError):
            alpha_to_beta(k, identity_subdivision(k))

    def test_intermediate_levels_verified(self):
        k = boundary_delta3()
        _, trace = alpha_to_beta(k, identity_subdivision(k))
        assert trace.level_checks == {1: "exact", 0: "exact"}

    def test_final_isomorphism_maps_result_onto_barycentric(self):
        k = grid_torus_complex(3).complex
        alpha = barycentric(k)
        _, trace = alpha_to_beta(k, alpha)
        iso = trace.final_isomorphism
        assert set(iso.vertex_map) == set(trace.result.vertices())
        assert iso.apply(trace.result) == barycentric(k).complex

    def test_swapped_reference_apexes_rejected(self, monkeypatch):
        # the reference complex is unchanged, so an isomorphism check would
        # still accept it; with two triangles' apexes exchanged the apex map
        # sends each apex to the wrong cone, and the level-1 check must fail
        real = reduction.partial_relative

        def swapped(k, alpha, r):
            ref = real(k, alpha, r)
            a, b = [s for s in ref.apex_of if len(s) == 3][:2]
            apex_of = dict(ref.apex_of)
            apex_of[a], apex_of[b] = apex_of[b], apex_of[a]
            return SubdividedComplex(ref.complex, ref.parent, ref.vertex_carrier, apex_of)

        monkeypatch.setattr(reduction, "partial_relative", swapped)
        k = boundary_delta3()
        with pytest.raises(ReductionError, match="after level 2"):
            alpha_to_beta(k, identity_subdivision(k))

    def test_merged_reference_apexes_rejected(self, monkeypatch):
        # with two triangles sent to one reference apex, the apex map glues
        # two cones together; the level-1 check must fail on injectivity
        real = reduction.partial_relative

        def merged(k, alpha, r):
            ref = real(k, alpha, r)
            a, b = [s for s in ref.apex_of if len(s) == 3][:2]
            apex_of = dict(ref.apex_of)
            apex_of[b] = apex_of[a]
            return SubdividedComplex(ref.complex, ref.parent, ref.vertex_carrier, apex_of)

        monkeypatch.setattr(reduction, "partial_relative", merged)
        k = boundary_delta3()
        with pytest.raises(ReductionError, match="after level 2: the apex map is not injective"):
            alpha_to_beta(k, identity_subdivision(k))

    @pytest.mark.parametrize("m", [1, 2])
    def test_each_star_neighbourhood_searched_or_reused(self, monkeypatch, m):
        # one count per S(A), one S(A) per r-simplex of the parent with
        # r >= 1; only the searches reach find_shelling
        searched = []
        real = reduction.find_shelling

        def counting(ball, **kwargs):
            searched.append(ball)
            return real(ball, **kwargs)

        monkeypatch.setattr(reduction, "find_shelling", counting)
        k = grid_torus_complex(3).complex
        _, trace = alpha_to_beta(k, iterated_barycentric(k, m))
        assert trace.shellings_searched + trace.shellings_reused == sum(k.f_vector()[1:])
        assert trace.shellings_searched == len(searched)
        assert trace.shellings_searched < trace.shellings_reused

    def test_unshellable_star_neighbourhood_rejected(self, monkeypatch):
        monkeypatch.setattr(reduction, "find_shelling", lambda ball, **kw: None)
        k = boundary_delta3()
        with pytest.raises(ReductionError, match=r"^S\(\(\d+, \d+, \d+\)\): star neighbourhood"):
            alpha_to_beta(k, identity_subdivision(k))

    def test_top_of_star_neighbourhood_must_be_maximal(self, monkeypatch):
        # S((1, 2)) built with the apex 7 of (1, 3, 4) in place of the apex 6
        # of (1, 2, 4) is a shellable 2-ball, but its top (1, 2, 7) is not
        # in the working complex, so it cannot be starred by a replace
        real = reduction._link_chains

        def wrong_apex(lk, a, apex_of):
            chains = real(lk, a, apex_of)
            if a == (1, 2):
                swap = {(apex_of[(1, 2, 4)],): (apex_of[(1, 3, 4)],)}
                chains = {swap.get(c, c) for c in chains}
            return chains

        monkeypatch.setattr(reduction, "_link_chains", wrong_apex)
        k = boundary_delta3()
        with pytest.raises(
            ReductionError,
            match=r"^S\(\(1, 2\)\): top \(1, 2, 7\) is not maximal in the working complex$",
        ):
            alpha_to_beta(k, identity_subdivision(k))

    def test_alpha_of_another_complex_rejected(self):
        k = boundary_delta3()
        other = close_under_faces([(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ReductionError, match=r"^alpha must subdivide the given complex$"):
            alpha_to_beta(k, identity_subdivision(other))

    def test_level_move_bound_checked(self, monkeypatch):
        # level 2 of the identity on ∂Δ³ cones four triangles, one move each
        monkeypatch.setattr(reduction, "reduction_level_bound", lambda n, r, p, s_r: 3)
        k = boundary_delta3()
        with pytest.raises(ReductionError, match=r"^level 2 used 4 moves, above its bound 3$"):
            alpha_to_beta(k, identity_subdivision(k))

    def test_total_move_bound_checked(self, monkeypatch):
        # 4 + 12 moves against a sum bound of 15; the level bounds still hold
        monkeypatch.setattr(reduction, "reduction_sum_bound", lambda n, p, s: 15)
        k = boundary_delta3()
        with pytest.raises(ReductionError, match=r"^total move count exceeds the reduction bound$"):
            alpha_to_beta(k, identity_subdivision(k))

    def test_parent_simplex_without_top_children_rejected(self):
        # the edge (0, 1) of the triangle's boundary is carried only by the
        # isolated vertex 3; the carriers pass validate, which does not ask
        # for a subdividing simplex of full dimension
        k = close_under_faces([(0, 1), (1, 2), (0, 2)])
        child = close_under_faces([(0, 2), (1, 2), (3,)])
        alpha = SubdividedComplex(child, k, {0: (0,), 1: (1,), 2: (2,), 3: (0, 1)})
        alpha.validate()
        with pytest.raises(ReductionError, match=r"^alpha restricted to \(0, 1\) has no top simplexes$"):
            alpha_to_beta(k, alpha)

    def test_moves_removing_a_parent_vertex_rejected(self, monkeypatch):
        # the cone move of S((1, 2, 3)) swapped for one that removes vertex 1;
        # the replace and so the level checks are unchanged
        real = reduction.memoized_shelling

        def removing(ball, memo):
            starring, reused = real(ball, memo)
            if starring.labels == (1, 2, 3):
                starring = dataclasses.replace(starring, moves=(((0,), (1, 2, 3)),))
            return starring, reused

        monkeypatch.setattr(reduction, "memoized_shelling", removing)
        k = boundary_delta3()
        with pytest.raises(ReductionError, match=r"^moves removed parent vertices \[1\]$"):
            alpha_to_beta(k, identity_subdivision(k))


def searched_link_chains(work, tops_a, alpha_vertices):
    """The link part of S(A) found by a search of the working complex: the
    simplexes off the vertices of α|A that join every top of α|A there."""
    candidates = {t for t in work.link_simplexes(tops_a[0]) if not set(t) & alpha_vertices}
    for s in tops_a[1:]:
        candidates = {
            t for t in candidates if not set(t) & set(s) and tuple(sorted(t + s)) in work
        }
    return candidates


def link_chain_case(kind, size, m, monkeypatch):
    """(parent, alpha) for ``test_link_chains_equal_the_working_complex_search``:
    β^m of ∂Δ^size, β^m of the seeded surface ``size``, or side 1 of the
    size × size grid torus related to its shift by (1/6, 1/6)."""
    if kind == "torus":
        seen = []
        real = reduction.alpha_to_beta

        def spy(k, alpha):
            seen.append((k, alpha))
            return real(k, alpha)

        monkeypatch.setattr(reduction, "alpha_to_beta", spy)
        relate(grid_torus_complex(size), grid_torus_complex(size, shift=(1 / 6, 1 / 6)))
        return seen[0]
    if kind == "surface":
        k = random_closed_surface(random.Random(size), 3)
    else:
        k = close_under_faces(itertools.combinations(range(size + 1), size))
    return k, iterated_barycentric(k, m)


@pytest.mark.parametrize(
    "kind, size, m",
    [("sphere", 3, 1), ("sphere", 3, 2), ("sphere", 4, 1), ("sphere", 4, 2),
     ("surface", 0, 2), ("surface", 1, 2), ("torus", 3, None)],
    ids=["delta3-m1", "delta3-m2", "delta4-m1", "delta4-m2", "surface0", "surface1", "torus-side1"],
)
def test_link_chains_equal_the_working_complex_search(monkeypatch, kind, size, m):
    # S(A)'s link part, built from the parent's link of A and the apex map,
    # is what a search of the partial subdivision at level r finds, for
    # every level r and every r-simplex A
    k, alpha = link_chain_case(kind, size, m, monkeypatch)
    assert k.dimension == (size - 1 if kind == "sphere" else 2)
    parent = WorkingComplex(k)
    checked = 0
    for r in range(k.dimension, 0, -1):
        reference = partial_relative(k, alpha, r)
        work = WorkingComplex(reference.complex)
        for a in k.simplexes_of_dim(r):
            children = alpha.children_with_carrier_in(a)
            tops_a = sorted(s for s in children if len(s) == r + 1)
            want = searched_link_chains(work, tops_a, {v for s in children for v in s})
            got = reduction._link_chains(parent.link_simplexes(a), a, reference.apex_of)
            assert got == want, (r, a)
            assert bool(want) == (r < k.dimension)
            checked += 1
    assert checked == sum(k.f_vector()[1:])


class TestBetaSquaredBridge:
    def split_edge_subdivision(self, k, edge):
        """Subdivision of k splitting one edge at a new vertex."""
        from trimoves.subdivision import SubdividedComplex

        w = k.max_label() + 1
        simps = set()
        carrier = {}
        for s in k.simplexes:
            if edge[0] in s and edge[1] in s:
                rest = tuple(v for v in s if v not in edge)
                for half in (edge[0],), (edge[1],):
                    child = tuple(sorted(half + (w,) + rest))
                    simps.add(child)
                    carrier[child] = s
                mid = tuple(sorted((w,) + rest))
                simps.add(mid)
                carrier[mid] = s
            else:
                simps.add(s)
                carrier[s] = s
        from trimoves.complexes import Complex

        out = Complex(simps, _assume_closed=True)
        sub = SubdividedComplex(out, k, {s[0]: c for s, c in carrier.items() if len(s) == 1})
        assert all(sub.carrier(s) == carrier[s] for s in out.simplexes)
        return sub

    def test_bridge_on_identity_subdivision(self):
        # kprime = k reduces to the plain two-extra-layer behaviour
        k = close_under_faces([(0, 1), (1, 2), (0, 2)])
        seq, trace = beta2_bridge(k, identity_subdivision(k))
        n, p = 1, k.f_vector()
        s_id = skeleton_counts(identity_subdivision(k))
        assert len(seq) <= bridge_sum_bound(n, p, s_id)
        assert find_isomorphism(trace.result, barycentric(k).complex) is not None

    def test_two_layer_bound_checked(self, monkeypatch):
        # the 12 moves on the triangle's boundary against a bound of 11
        k = close_under_faces([(0, 1), (1, 2), (0, 2)])
        monkeypatch.setattr(reduction, "bridge_sum_bound", lambda n, p, s: 11)
        with pytest.raises(ReductionError, match=r"^bridge used 12 moves, above the two-layer bound 11$"):
            beta2_bridge(k, identity_subdivision(k))

    def test_four_cycle_one_edge_split(self):
        k = close_under_faces([(0, 1), (1, 2), (2, 3), (0, 3)])
        kprime = self.split_edge_subdivision(k, (0, 1))
        kprime.validate()
        seq, trace = beta2_bridge(k, kprime)
        out = apply_sequence(trace.result, seq.reversed())
        # replay back from the endpoint reproduces the bridged start
        assert out.digest() == seq.start_digest
        assert find_isomorphism(trace.result, barycentric(k).complex) is not None
        assert len(seq) <= bridge_sum_bound(1, k.f_vector(), skeleton_counts(kprime))

    def test_torus_one_edge_split(self):
        k = grid_torus_complex(3).complex
        edge = k.simplexes_of_dim(1)[0]
        kprime = self.split_edge_subdivision(k, edge)
        kprime.validate()
        seq, trace = beta2_bridge(k, kprime)
        assert trace.level_checks == {1: "exact", 0: "exact"}
        assert len(seq) <= bridge_sum_bound(2, k.f_vector(), skeleton_counts(kprime))
        assert find_isomorphism(trace.result, barycentric(k).complex) is not None
        assert seq.removed_vertices() & set(k.vertices()) == set()


def near_coincident(kind, g1, g2, e):
    """A valid input pair a tiny shift e apart: the g1 and g2 grid tori,
    the second shifted by (e, e), or the g1- and g2-vertex circles, the
    second offset by e."""
    if kind == "torus":
        return grid_torus_complex(g1), grid_torus_complex(g2, shift=(e, e))
    return circle_complex(g1), circle_complex(g2, offset=e)


NOT_PURE = "side 1: S((0, 1, 4)): star neighbourhood is not pure"
NEAR_COINCIDENT = [
    (("torus", 3, 3, 1e-6), ReductionError, NOT_PURE),
    (("torus", 3, 3, 1e-7), ReductionError, NOT_PURE),
    (("torus", 3, 3, 1e-8), ReductionError, NOT_PURE),
    (("torus", 3, 3, 2e-9), ReductionError, NOT_PURE),
    (
        ("torus", 3, 3, 1e-9),
        IntersectionError,
        "common subdivision, side 1: carrier (0, 3) too small for (0, 48, 122)",
    ),
    (("torus", 3, 4, 1e-7), ReductionError, NOT_PURE),
    (
        ("torus", 4, 4, 1e-7),
        ReductionError,
        "side 1: S((0, 1, 5)): star neighbourhood is not pure",
    ),
    (("torus", 3, 6, 1e-7), ReductionError, NOT_PURE),
]
# circles offset by 1e-9 to 1e-12 relate: the clip keeps a segment end that
# lies within MERGE_TOL of the clipper's plane, and cuts no sliver beside it
NEAR_COINCIDENT_CIRCLES = [
    (g1, g2, e)
    for g1 in (3, 4, 5)
    for g2 in (3, 4, 6)
    for e in (1e-9, 5e-10, 1e-10, 1e-11, 1e-12)
]


class TestRelate:
    def test_identical_circles(self):
        k = circle_complex(4)
        res = relate(k, k)
        assert res.sequence.start_digest == res.start.digest()
        # start and end complexes are isomorphic (identical inputs)
        assert find_isomorphism(res.start, res.end) is not None

    def test_circles_three_and_five(self):
        k1 = circle_complex(3)
        k2 = circle_complex(5, offset=0.09)
        res = relate(k1, k2)
        assert len(res.sequence) < res.bound_value
        assert res.escalation_layers == 0
        replay_verified(res.start, res.sequence, expect=res.end)

    def test_small_shifted_tori(self):
        k1 = grid_torus_complex(3)
        k2 = grid_torus_complex(3, shift=(1 / 6, 1 / 6))
        res = relate(k1, k2)
        assert len(res.sequence) < res.bound_value
        # both endpoints are barycentric subdivisions of 18-triangle tori
        assert res.start.f_vector()[2] == 108
        assert res.end.f_vector()[2] == 108

    def test_unshellable_star_neighbourhood_stops_relate(self, monkeypatch):
        # no second attempt with more layers: the first failed reduction ends
        # the run with an error naming the side and S(A)
        calls = []
        real = reduction.alpha_to_beta

        def counting(k, alpha):
            calls.append(k)
            return real(k, alpha)

        monkeypatch.setattr(reduction, "find_shelling", lambda ball, **kw: None)
        monkeypatch.setattr(reduction, "alpha_to_beta", counting)
        with pytest.raises(
            ReductionError, match=r"^side 1: S\(.*\): star neighbourhood is not shellable"
        ):
            relate(circle_complex(3), circle_complex(5, offset=0.09))
        assert len(calls) == 1

    def test_failed_reduction_names_its_side(self, monkeypatch):
        # side 1 reduces, side 2's reduction fails: the error keeps its type
        # and message behind the prefix, and chains the original
        real = reduction.alpha_to_beta
        calls = []

        def second_fails(k, alpha):
            calls.append(k)
            if len(calls) == 2:
                raise ReductionError("S((7,)): star neighbourhood is not pure")
            return real(k, alpha)

        monkeypatch.setattr(reduction, "alpha_to_beta", second_fails)
        with pytest.raises(ReductionError) as info:
            relate(circle_complex(3), circle_complex(5, offset=0.09))
        assert str(info.value) == "side 2: S((7,)): star neighbourhood is not pure"
        assert str(info.value.__cause__) == "S((7,)): star neighbourhood is not pure"

    @pytest.mark.parametrize("pair, error, message", NEAR_COINCIDENT)
    def test_near_coincident_inputs_end_in_a_typed_error(self, pair, error, message):
        # cells of the intersection smaller than its tolerances are dropped;
        # the hole shows up as a carrier too small for its simplex (the
        # intersection's output) or as a star neighbourhood that is not pure
        # (the reduction's), never as an untyped ValueError
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            relate(*near_coincident(*pair))

    @pytest.mark.parametrize("g1, g2, e", NEAR_COINCIDENT_CIRCLES)
    def test_near_coincident_circles_relate_and_replay(self, g1, g2, e):
        res = relate(*near_coincident("circle", g1, g2, e))
        replay_verified(res.start, res.sequence, expect=res.end)

    @pytest.mark.parametrize("side", [1, 2])
    def test_common_subdivision_count_bound_checked_on_both_sides(self, monkeypatch, side):
        # relate compares each side's skeleton counts with
        # commonsub_bound(n, i, own p_i, other q_n), through the row builder
        # it shares with `trimoves intersect`; make side 1 pass and side 2
        # fail, or side 1 fail
        calls = []

        def bound(n, i, p_i, q_n):
            calls.append(i)
            return 1 if len(calls) > (n + 1) * (side - 1) else 10**9

        monkeypatch.setattr(bounds, "commonsub_bound", bound)
        monkeypatch.setattr(reduction, "alpha_to_beta", None)  # never reached
        with pytest.raises(
            ReductionError, match=rf"side {side}: s_0 = \d+ is not below its bound 1$"
        ):
            relate(circle_complex(3), circle_complex(5, offset=0.09))

    def test_sequence_removing_a_common_vertex_rejected(self, monkeypatch):
        # side 2's sequence gets one more move, removing the common vertex 0
        # of two equal circles (side 1's moves are run backwards, where the
        # same move would add it)
        real = reduction.alpha_to_beta
        calls = []

        def removing(k, alpha):
            seq, trace = real(k, alpha)
            calls.append(k)
            if len(calls) == 2:
                extra = PachnerMove((0,), (max(trace.result.vertices()) + 1, 1))
                seq = MoveSequence(seq.moves + (extra,), seq.start_digest, seq.end_digest)
            return seq, trace

        monkeypatch.setattr(reduction, "alpha_to_beta", removing)
        with pytest.raises(ReductionError, match=r"^sequence removed common vertices \[0\]$"):
            relate(circle_complex(4), circle_complex(4))

    def test_total_bound_checked(self, monkeypatch):
        # the 16 moves relating two equal 4-gons against a bound of 16
        monkeypatch.setattr(reduction, "total_bound", lambda n, p, q, m: 16)
        with pytest.raises(ReductionError, match=r"^sequence length 16 reached the bound 16$"):
            relate(circle_complex(4), circle_complex(4))

    def test_rejects_non_euclidean_inputs(self):
        k = circle_complex(3)
        sphere = GeomComplex(k.complex, Geometry.SPHERICAL, {v: (1.0, 0.0, 0.0) for v in k.coords})
        with pytest.raises(
            ReductionError, match=r"^the desk-scale pipeline is Euclidean \(flat torus/circle\)$"
        ):
            relate(sphere, sphere)

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ReductionError, match=r"^the pipeline supports dimensions 1 and 2$"):
            relate(circle_complex(3), grid_torus_complex(3))

    def test_rejects_mismatched_periods(self):
        with pytest.raises(ReductionError):
            relate(circle_complex(3), circle_complex(3, period=2.0))

    def test_pipeline_deterministic(self):
        k1 = grid_torus_complex(3)
        k2 = grid_torus_complex(3, shift=(1 / 6, 1 / 6))
        a = relate(k1, k2)
        b = relate(
            grid_torus_complex(3),
            grid_torus_complex(3, shift=(1 / 6, 1 / 6)),
        )
        assert a.sequence == b.sequence
        assert a.start.canonical_json() == b.start.canonical_json()

    def test_pre_subdivision_depth_is_exact_at_the_boundary(self):
        # (2/3)^2 * 0.7875 == 0.35 in reals, so two levels leave Lambda at half
        # the period and a third is needed; on these float inputs the exact
        # least m is 3, where a float loop stops at 2
        from fractions import Fraction
        from types import SimpleNamespace

        from trimoves.reduction import _min_convexity_depth

        stub = SimpleNamespace(
            max_edge=lambda: 0.7875, period=0.7, complex=SimpleNamespace(dimension=2)
        )
        assert Fraction(0.7875) * Fraction(2, 3) ** 2 >= Fraction(0.7) / 2
        assert _min_convexity_depth(stub) == 3
        # a Lambda below half the period needs no level
        stub.max_edge = lambda: 0.3
        assert _min_convexity_depth(stub) == 0
        # (2/3)^65 * 1e30 is still far above half the period
        stub.max_edge = lambda: 1e30
        with pytest.raises(ReductionError, match=r"^convexity pre-subdivision depth ran away$"):
            _min_convexity_depth(stub)

    def test_pre_subdivision_kicks_in_for_fat_simplexes(self, monkeypatch):
        # a jittered vertex can push a triangle's metric diameter past
        # half the period while every coordinate difference stays liftable:
        # the pipeline must pre-subdivide once before intersecting
        import trimoves.intersect as intersect_mod

        clips, nonempty, kept = [], [], []
        real_clip, real_intersect = intersect_mod.clip_simplex_pair, reduction.torus_intersect

        def counting_clip(sub_pts, halfspaces):
            pts, labels = real_clip(sub_pts, halfspaces)
            clips.append(1)
            if pts:
                nonempty.append(1)
            return pts, labels

        def counting_intersect(b1, b2):
            poly = real_intersect(b1, b2)
            kept.append(len(poly.cells))
            return poly

        monkeypatch.setattr(intersect_mod, "clip_simplex_pair", counting_clip)
        monkeypatch.setattr(reduction, "torus_intersect", counting_intersect)
        k1 = grid_torus_complex(3)
        k2 = grid_torus_complex(3)
        k2.coords[4] = (k2.coords[4] + np.array([0.05, 0.045])) % 1.0
        assert k2.max_edge() >= 0.5
        res = relate(k1, k2)
        assert res.pre_subdivision_depth == 1
        # every pair and translate is still clipped: the counts the traced
        # benchmark run pins for this pair
        pinned = load_workloads(monkeypatch).TorusRelate.TRACED_COUNTS["fat"]
        assert len(clips) == pinned["intersect.clip_simplex_pair"]
        assert kept == [pinned["intersect.cells_kept"]]
        assert len(nonempty) == 1637
        # every level of both reductions is checked exactly, including the
        # ones of 2,880 simplexes
        for trace in (res.trace1, res.trace2):
            assert trace.level_checks == {1: "exact", 0: "exact"}
        # shared barycenters of the untouched region survive as common
        # vertices and are preserved by the whole sequence
        assert len(res.common_vertices) > 8
        assert res.sequence.removed_vertices() & res.common_vertices == set()
        replay_verified(res.start, res.sequence, expect=res.end)
        # the benchmark's seed-0 fingerprints of this pair
        # (perfbench/reference.json, "fat")
        assert res.sequence.start_digest == (
            "f6ed454dd03158a9f2ed61c73127f9eee7644b2f3593ac7b537bc41947983b31"
        )
        assert res.sequence.end_digest == (
            "bd46a5a18675169baff8f0da2533f6ee13eae6ab722bf127fdbe8d25e2629c2a"
        )
        assert len(res.sequence) == 4848


# sha256 of each case's serialised output (sequence and trace) at the default
# seed.  reference.json pins digests and move count, which every valid
# shelling leaves the same (the result is the cone on the ball's boundary,
# one move per top simplex); the sequence itself pins the shelling order.
SPHERE_REDUCE_SHA = {
    "surface0-m1": "f0a3da9500f041b54bab8d204306ecbe7c4cf2cd2cf330916ac7c6514fb674d3",
    "surface0-m2": "4092f250ec6d4a80ef160b6623fc84371d62fb383217c1d45627f89df9b10402",
    "sphere3-m1": "9d4200a1afe45cb793792a6adc0820f623c03c0b54cffd4ee7d32a06e151dba9",
}
# the same for the first five BFS rounds, which pins each path (the search
# order) and not only its endpoints, and for the cheapest torus pair
PACHNER_BFS_SHA = {
    "bfs0-d2": "ac9ca7b138d7b479204f73da04a62ab6e3869a05e8cbcbc0d9753490ebd71659",
    "bfs0-d3": "0ea6be1dbc71dbc35f8a35805b06ebe0d249523c3cb972ad0310c6a891444ef4",
    "bfs0-d4": "dd8a500b4f43eff582bffec69f381f15a727295092865721f6495fba7544c018",
    "bfs1-d2": "5d7bb6995a16ce009ad9919fbe601b2cb1193e8b6d21658ce6e92e11da779285",
    "bfs1-d3": "874a77b2e605c182934569decb73fe87c1dacf8d32157a9252cab75bbc24dfce",
    "bfs1-d4": "d853356d93e69fec0b058a7e1feeed6e072678bf81b9c70d7fc9f9d42c1a3191",
    "bfs2-d2": "d9630b7b48410a60de681088332aea7055106bd9692517fec5413852bb426474",
    "bfs2-d3": "9a6c5412a7ac193f5c87c2e86b8ec80c4400866a551843afdd826c3ebb179fec",
    "bfs2-d4": "1c71d20e6caa4045885e3e0462934e1d48cbbd66861ad2e7128a80499f022590",
    "bfs3-d2": "61ae5facdb4dc1ad7e01a97bf36456399c10bca23462f5bebbe102307c992a05",
    "bfs3-d3": "4040723c04d5cd00d3f740a8efb49af62e15b19787c0b57e55903751d24aaf44",
    "bfs3-d4": "a3d578b7b9a5f31b84fc6620cc4c7437bec8b66daf968de501f0f7651f195258",
    "bfs4-d2": "5a3f03d81c82ba16b41622b53fef56cc0c19ec1f530399e0e7bf059c15cd57c1",
    "bfs4-d3": "e03631cfb2745d3595e8e40a4e24dcc702d90b7b4e52a2a10e5ae2169fa2234e",
    "bfs4-d4": "857e25992d8c268559ceda217a827596d34f6c96360e55b8ea283abd569863d6",
}
# sha256 of the ordered list of all 105 seed-0 pachner-bfs output sha256s,
# one per line: every path the search returns, in case order
PACHNER_BFS_ALL_SHA = "53d1c6af330b807e2f43e58a1e9a4517071e34013c533b9790fb3e780d4708ac"
PACHNER_BFS_ALL_SHA_SEED1 = "c911fa034f8f7911ad486dc679deb6ebc60cc1957ef0494da4ecf66965b64a93"
TORUS_RELATE_SHA = {
    "grid3-0": "79ab2dc847a7f3da8dbb8509a676957a83f2432502d8ec4bb8a952f0ffbcc620",
}
# the same over all 20 sphere-reduce outputs of a pass, at seeds 0 and 1: the
# m = 3 surfaces and sphere3-m2 repeat most star neighbourhoods, so these pin
# the shellings that alpha_to_beta serves from its memo
SPHERE_REDUCE_ALL_SHA = {
    0: "cc2931a4f62a82086a110d2926ac43198304d32c7c95dc51f46f65b0e2cf94c6",
    1: "a407f41b6da85dca5a7c191adf2ee81a4db0a790ca7bb3b896feb209066a0335",
}


@pytest.fixture
def json_checked_dumps(monkeypatch):
    """serialize.dumps, checked against json.dumps(indent=2, sort_keys=True)
    on every output the benchmark's workloads write; returns the count."""
    real = serialize.dumps
    checked = []

    def dumps(data):
        text = real(data)
        assert text == json.dumps(data, indent=2, sort_keys=True)
        checked.append(1)
        return text

    monkeypatch.setattr(serialize, "dumps", dumps)
    return checked


def load_workloads(monkeypatch):
    """perfbench/workloads.py, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    return workloads


def test_maximal_at_forgets_the_vertices_a_reduction_removes(monkeypatch):
    # a vertex leaves maximal_at with its last maximal simplex, so after a
    # replayed reduction its keys are the vertices of the complex
    workloads = load_workloads(monkeypatch)
    bench = workloads.SphereReduce()
    (case,) = [c for c in bench.generate(workloads.DEFAULT_SEED) if c.label == "surface0-m1"]
    k, m = case.args
    alpha = iterated_barycentric(k, m)
    seq, _ = alpha_to_beta(k, alpha)
    assert seq.removed_vertices()
    work = WorkingComplex(alpha.complex)
    apply_moves(work, seq.moves, k.dimension)
    assert all(work.maximal_at.values())
    assert sorted(work.maximal_at) == work.snapshot().vertices()


@pytest.mark.parametrize("label", sorted(SPHERE_REDUCE_SHA))
def test_sphere_reduce_matches_benchmark_reference(monkeypatch, json_checked_dumps, label):
    # a change to the step predicate or the greedy order that changes any
    # shelling fails here
    workloads = load_workloads(monkeypatch)
    bench = workloads.SphereReduce()
    (case,) = [c for c in bench.generate(workloads.DEFAULT_SEED) if c.label == label]
    out = bench.run(case)
    bench.check(case, out)
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    assert [out.start, out.end, out.moves] == reference[bench.name][label]
    assert out.sha == SPHERE_REDUCE_SHA[label]
    assert len(json_checked_dumps) == 1


@pytest.mark.parametrize(
    "workload, pins",
    [("pachner-bfs", PACHNER_BFS_SHA), ("torus-relate", TORUS_RELATE_SHA)],
    ids=["pachner-bfs", "torus-relate"],
)
def test_outputs_match_benchmark_reference(monkeypatch, json_checked_dumps, workload, pins):
    # a change to the order the BFS tries moves in, or to anything relate
    # emits, fails here
    workloads = load_workloads(monkeypatch)
    bench = workloads.WORKLOADS[workload]
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    cases = [c for c in bench.generate(workloads.DEFAULT_SEED) if c.label in pins]
    assert len(cases) == len(pins)
    for case in cases:
        out = bench.run(case)
        bench.check(case, out)
        assert [out.start, out.end, out.moves] == reference[bench.name][case.label]
        assert out.sha == pins[case.label], case.label
    assert len(json_checked_dumps) == len(pins)


def pass_sha(workloads, name, seed, n_cases):
    """sha256 over the ordered op sha256s of one pass of a workload."""
    bench = workloads.WORKLOADS[name]
    cases = bench.generate(seed)
    assert len(cases) == n_cases
    shas = []
    for case in cases:
        out = bench.run(case)
        bench.check(case, out)
        shas.append(out.sha)
    return hashlib.sha256("\n".join(shas).encode()).hexdigest()


def test_every_bfs_path_matches_benchmark_reference(monkeypatch, json_checked_dumps):
    # a change to the signature that merges or splits isomorphism classes,
    # or to the move order, changes some path and fails here
    workloads = load_workloads(monkeypatch)
    sha = pass_sha(workloads, "pachner-bfs", workloads.DEFAULT_SEED, 105)
    assert sha == PACHNER_BFS_ALL_SHA
    assert len(json_checked_dumps) == 105


def test_every_seed1_bfs_path_is_unchanged(monkeypatch, json_checked_dumps):
    # seed 1 searches other surfaces, so it catches what seed 0 happens to miss
    sha = pass_sha(load_workloads(monkeypatch), "pachner-bfs", 1, 105)
    assert sha == PACHNER_BFS_ALL_SHA_SEED1
    assert len(json_checked_dumps) == 105


@pytest.mark.parametrize("seed", sorted(SPHERE_REDUCE_ALL_SHA))
def test_every_sphere_reduce_output_is_unchanged(monkeypatch, json_checked_dumps, seed):
    # every shelling of every star neighbourhood, whether searched or served
    # from the memo, and every serialised byte of the pass
    workloads = load_workloads(monkeypatch)
    sha = pass_sha(workloads, "sphere-reduce", seed, 20)
    assert sha == SPHERE_REDUCE_ALL_SHA[seed]
    assert len(json_checked_dumps) == 20
