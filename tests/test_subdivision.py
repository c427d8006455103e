import math
import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trimoves.complexes import close_under_faces, find_isomorphism
from trimoves.fixtures import random_closed_surface
from trimoves.subdivision import (
    ResourceCapExceeded,
    SubdividedComplex,
    SubdivisionError,
    barycentric,
    barycentric_f_vector,
    compose_carriers,
    identity_subdivision,
    iterated_barycentric,
    partial_relative,
    skeleton_counts,
)
from .test_complexes import boundary_delta3, link, small_complexes


class TestBarycentric:
    def test_triangle_counts(self):
        k = close_under_faces([(1, 2, 3)])
        sub = barycentric(k)
        assert sub.complex.f_vector() == (7, 12, 6)
        sub.validate()

    def test_single_vertex(self):
        k = close_under_faces([(5,)])
        sub = barycentric(k)
        assert sub.complex == k

    def test_sphere_triangle_count(self):
        sub = barycentric(boundary_delta3())
        assert sub.complex.f_vector()[2] == math.factorial(3) * 4

    def test_original_vertices_survive(self):
        k = boundary_delta3()
        sub = barycentric(k)
        assert set(k.vertices()) <= set(sub.complex.vertices())
        for v in k.vertices():
            assert sub.vertex_carrier[v] == (v,)

    def test_skeleton_count_law(self):
        # i-skeleton counts of beta K are (i+1)! p_i exactly
        for maxes in ([(1, 2, 3)], [(1, 2, 3), (2, 3, 4)], [(1, 2, 3, 4)]):
            k = close_under_faces(maxes)
            s = skeleton_counts(barycentric(k))
            p = k.f_vector()
            for i in range(k.dimension + 1):
                assert s[i] == math.factorial(i + 1) * p[i]

    def test_apex_metadata(self):
        k = close_under_faces([(1, 2, 3)])
        sub = barycentric(k)
        assert set(sub.apex_of.keys()) == {s for s in k.simplexes if len(s) > 1}
        assert len(set(sub.apex_of.values())) == 4


class TestIterated:
    def test_m_zero_is_identity(self):
        k = boundary_delta3()
        sub = iterated_barycentric(k, 0)
        assert sub.complex == k

    def test_triangle_twice(self):
        k = close_under_faces([(1, 2, 3)])
        sub = iterated_barycentric(k, 2)
        assert sub.complex.f_vector()[2] == 36
        sub.validate()

    def test_tetrahedron_once(self):
        k = close_under_faces([(1, 2, 3, 4)])
        sub = iterated_barycentric(k, 1)
        assert sub.complex.f_vector()[3] == 24

    def test_top_count_formula(self):
        k = close_under_faces([(1, 2, 3), (2, 3, 4)])
        for m in range(3):
            sub = iterated_barycentric(k, m)
            assert sub.complex.f_vector()[2] == math.factorial(3) ** m * 2

    def test_resource_cap(self):
        k = close_under_faces([(1, 2, 3, 4)])
        with pytest.raises(ResourceCapExceeded):
            iterated_barycentric(k, 4, max_simplexes=1000)

    def test_predicted_f_vector_matches_build(self):
        sphere3 = close_under_faces(list(combinations(range(5), 4)))
        assert barycentric_f_vector(sphere3.f_vector(), 1) == (30, 150, 240, 120)
        assert barycentric_f_vector(sphere3.f_vector(), 2) == (540, 3420, 5760, 2880)
        cases = [(sphere3, m) for m in (1, 2)]
        rng = random.Random(0)
        cases += [(random_closed_surface(rng, 5), m) for _ in range(2) for m in (1, 2, 3)]
        for k, m in cases:
            built = iterated_barycentric(k, m).complex.f_vector()
            assert barycentric_f_vector(k.f_vector(), m) == built

    def test_cap_checked_before_building(self, monkeypatch):
        # β² of ∂Δ³ has f-vector (74, 216, 144), 434 simplexes in all
        from trimoves import subdivision

        def no_build(*args, **kwargs):
            raise AssertionError("built a layer past the predicted cap")

        k = boundary_delta3()
        assert barycentric_f_vector(k.f_vector(), 2) == (74, 216, 144)
        monkeypatch.setattr(subdivision, "partial_relative", no_build)
        message = r"^β\^2 would have 434 simplexes, above the cap 433$"
        with pytest.raises(ResourceCapExceeded, match=message):
            iterated_barycentric(k, 2, max_simplexes=433)

    def test_in_build_cap_counts_distinct_simplexes(self):
        # a face shared by several parent simplexes counts once: the cap
        # admits β² of ∂Δ³ at exactly its 434 simplexes and rejects it at 433
        k = boundary_delta3()
        assert len(iterated_barycentric(k, 2, max_simplexes=434).complex) == 434
        with pytest.raises(ResourceCapExceeded):
            iterated_barycentric(k, 2, max_simplexes=433)

    def test_negative_m(self):
        with pytest.raises(ValueError, match="^m must be non-negative$"):
            iterated_barycentric(boundary_delta3(), -1)


class TestPartialRelative:
    def test_r_equals_n_returns_alpha(self):
        k = boundary_delta3()
        alpha = barycentric(k)
        sub = partial_relative(k, alpha, k.dimension)
        assert sub.complex == alpha.complex

    def test_r_zero_identity_is_barycentric(self):
        k = boundary_delta3()
        sub = partial_relative(k, identity_subdivision(k), 0)
        assert sub.complex == barycentric(k).complex

    def test_triangle_r1_is_cone_over_boundary(self):
        k = close_under_faces([(1, 2, 3)])
        sub = partial_relative(k, identity_subdivision(k), 1)
        # one fresh apex coned over the unsubdivided boundary: 3 triangles
        assert sub.complex.f_vector() == (4, 6, 3)
        apex = sub.apex_of[(1, 2, 3)]
        assert link(sub.complex, (apex,)).f_vector() == (3, 3)

    def test_carrier_consistency_checked(self):
        k = boundary_delta3()
        alpha = barycentric(k)
        broken = type(alpha)(alpha.complex, alpha.parent, dict(alpha.vertex_carrier))
        victim = next(v for v in broken.vertex_carrier if (v,) not in k.simplexes)
        del broken.vertex_carrier[victim]
        with pytest.raises(SubdivisionError, match=rf"^carrier missing for \({victim},\)$"):
            partial_relative(k, broken, 0)

    def test_inputs_checked(self):
        k = close_under_faces([(1, 2, 3)])
        with pytest.raises(ValueError, match="^alpha must be a subdivision of k$"):
            partial_relative(boundary_delta3(), barycentric(k), 0)
        with pytest.raises(ValueError, match=r"^need 0 <= r <= 2, got 3$"):
            partial_relative(k, identity_subdivision(k), 3)
        edge = SubdividedComplex(close_under_faces([(1, 2)]), k, {1: (1,), 2: (2,)})
        with pytest.raises(ValueError, match=r"^alpha has no simplexes carried by \(3,\)$"):
            partial_relative(k, edge, 0)

    def test_identity_subdivision_counts(self):
        k = boundary_delta3()
        assert skeleton_counts(identity_subdivision(k)) == k.f_vector()

    def test_beta_squared_skeleton_counts(self):
        # (i+1)!(i+1)! s_i many i-simplexes in the i-skeleton after two rounds
        k = close_under_faces([(1, 2, 3)])
        sub = iterated_barycentric(k, 2)
        s = skeleton_counts(sub)
        assert s[1] == (math.factorial(2) ** 2) * 3
        assert s[2] == (math.factorial(3) ** 2) * 1


class TestComposeCarriers:
    def test_compose_smallest_parent(self):
        k = close_under_faces([(1, 2, 3)])
        first = barycentric(k)
        second = barycentric(first.complex)
        comp = compose_carriers(second, first)
        comp.validate()
        # every vertex of beta^2 carried by an edge of K lies on that edge
        for s in comp.complex.simplexes:
            assert comp.carrier(s) in k.simplexes

    def test_outer_must_subdivide_inner(self):
        first = barycentric(close_under_faces([(1, 2, 3)]))
        with pytest.raises(ValueError, match="^outer must subdivide inner.complex$"):
            compose_carriers(first, first)

    @pytest.mark.parametrize("top", [(0, 1, 2), (0, 1, 2, 3)])
    def test_composed_carrier_matches_geometric_support(self, top):
        # independent geometric oracle: realise beta^2 with coordinates and
        # recover each simplex's smallest containing parent face from the
        # barycentric-coordinate support of its vertices
        import numpy as np

        from trimoves.geometry import GeomComplex, Geometry, geometric_barycentric

        n = len(top) - 1
        corners = np.vstack([np.zeros(n), np.eye(n)])
        k = close_under_faces([top])
        gk = GeomComplex(k, Geometry.EUCLIDEAN, {v: corners[i] for i, v in enumerate(top)})
        comp = iterated_barycentric(k, 2)
        g2 = geometric_barycentric(gk, 2)
        assert g2.complex == comp.complex
        label_of_row = {v: i for i, v in enumerate(top)}
        mat = np.vstack([corners.T, np.ones(n + 1)])
        for s in comp.complex.simplexes:
            support = set()
            for v in s:
                coords = np.linalg.solve(mat, np.append(g2.coords[v], 1.0))
                support |= {i for i, c in enumerate(coords) if c > 1e-12}
            geometric_carrier = tuple(sorted(top[i] for i in support))
            assert comp.carrier(s) == geometric_carrier


# sha256 of dumps(subdivided_to_dict(...)): every simplex, carrier and apex
# label, as computed when partial_relative coned each face with its own loop
SUBDIVISION_SHA = {
    "barycentric-sphere3": "8c7702e7a435935fc899c7b57006ff729f338d3b30047f25fe35749fbe3bc8e0",
    "iterated2-surface0": "95c3f3f4d5dad0ca29c9b92cbe1e8eaca57d0957b71d2a5422ad0001ac8a519b",
    "partial1-iterated2-surface0": "0a41a3910e69b2672ab45907fd0d7df0eaa987f0ab2c40d5ae6fe9cf23a381fc",
}


def test_subdivision_outputs_match_pins():
    import hashlib

    from trimoves.serialize import dumps, subdivided_to_dict

    sphere3 = close_under_faces(list(combinations(range(5), 4)))
    surface = random_closed_surface(random.Random(0), 6)
    beta2 = iterated_barycentric(surface, 2)
    subs = {
        "barycentric-sphere3": barycentric(sphere3),
        "iterated2-surface0": beta2,
        "partial1-iterated2-surface0": partial_relative(surface, beta2, 1),
    }
    for name, sub in subs.items():
        text = dumps(subdivided_to_dict(sub))
        assert hashlib.sha256(text.encode()).hexdigest() == SUBDIVISION_SHA[name], name


class TestPartialSubdivisionLinks:
    def test_link_of_partial_subdivision_small(self):
        # lk(A, beta_r K) is isomorphic to beta lk(A, K) for every r-simplex
        k = boundary_delta3()
        for r in range(k.dimension + 1):
            sub = partial_relative(k, identity_subdivision(k), r)
            for a in k.simplexes_of_dim(r):
                got = link(sub.complex, a)
                want = barycentric(link(k, a)).complex
                assert find_isomorphism(got, want) is not None


@settings(max_examples=25, deadline=None)
@given(small_complexes())
def test_fuzzed_skeleton_count_law(k):
    s = skeleton_counts(barycentric(k))
    p = k.f_vector()
    for i in range(k.dimension + 1):
        assert s[i] == math.factorial(i + 1) * p[i]


@settings(max_examples=15, deadline=None)
@given(small_complexes())
def test_fuzzed_carrier_monotone(k):
    barycentric(k).validate()


PATH = [(1, 2), (2, 3)]
# (parent, child, vertex carriers, the message validate raises): each of its
# four checks, and a vertex without a carrier
INVALID = {
    "vertex-carrier-missing": (PATH, PATH, {1: (1,), 3: (3,)}, "carrier missing for (2,)"),
    "vertex-carrier-not-in-parent": (
        PATH, PATH, {1: (1,), 2: (1, 3), 3: (3,)}, "carrier (1, 3) of (2,) not in parent complex"
    ),
    "union-not-in-parent": (
        PATH, [(1, 3), (2,)], {1: (1,), 2: (2,), 3: (3,)},
        "carrier (1, 3) of (1, 3) not in parent complex",
    ),
    "too-small": (
        [(1, 2)], [(1, 2, 3)], {1: (1,), 2: (2,), 3: (1, 2)}, "carrier (1, 2) too small for (1, 2, 3)"
    ),
    "uncovered": (
        [(1, 2, 3)], [(1, 2), (2, 3), (1, 3)], {1: (1,), 2: (2,), 3: (3,)},
        "parent simplex (1, 2, 3) has no subdividing simplex",
    ),
}


@pytest.mark.parametrize("name", sorted(INVALID))
def test_validate_names_the_simplex_at_fault(name):
    parent, child, vertex_carrier, message = INVALID[name]
    sub = SubdividedComplex(close_under_faces(child), close_under_faces(parent), vertex_carrier)
    with pytest.raises(SubdivisionError, match=f"^{re.escape(message)}$"):
        sub.validate()
