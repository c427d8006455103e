import math

import numpy as np
import pytest
from scipy.optimize import minimize

from trimoves.complexes import close_under_faces
from trimoves.geometry import (
    CHECK_TOL,
    GeomComplex,
    GeomSimplex,
    Geometry,
    GeometryError,
    batch_max_edge,
    centroid,
    diameter,
    distance,
    geodesic_point,
    geometric_barycentric,
    kappa,
    median_ratio,
    minkowski,
    normalize_point,
    random_simplex,
    scaling_levels,
)
from trimoves.subdivision import ResourceCapExceeded

from .paper_lemmas import (
    adjacent_edge_bound_check,
    median_sin_ratio,
    median_sinh_ratio,
    sample_points,
    to_linear_chart,
)

E, S, H = Geometry.EUCLIDEAN, Geometry.SPHERICAL, Geometry.HYPERBOLIC


def hyp_exp(u):
    """Exponential map at the hyperboloid base point (0, ..., 0, 1)."""
    u = np.asarray(u, dtype=float)
    r = np.linalg.norm(u)
    d = len(u) + 1
    base = np.zeros(d)
    base[-1] = 1.0
    if r < 1e-15:
        return base
    direction = np.zeros(d)
    direction[:-1] = u / r
    return math.cosh(r) * base + math.sinh(r) * direction


class TestDistance:
    def test_euclidean(self):
        assert distance(E, np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_spherical_quarter_turn(self):
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        assert distance(S, e1, e2) == pytest.approx(math.pi / 2)

    def test_hyperbolic_unit_geodesic(self):
        p = np.array([0.0, 0.0, 1.0])
        q = np.array([math.sinh(1.0), 0.0, math.cosh(1.0)])
        assert distance(H, p, q) == pytest.approx(1.0, abs=1e-12)

    def test_tag_mismatch_dimensions(self):
        with pytest.raises(GeometryError):
            distance(E, np.zeros(2), np.zeros(3))


class TestNormalization:
    def test_spherical_drift_repaired(self):
        x = normalize_point(S, np.array([2.0, 0.0, 0.0]))
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-15)

    def test_hyperbolic_normalisation(self):
        x = normalize_point(H, np.array([1.0, 0.5, 3.0]))
        assert minkowski(x, x) == pytest.approx(-1.0, abs=1e-12)

    def test_lower_sheet_rejected(self):
        with pytest.raises(GeometryError):
            normalize_point(H, np.array([0.0, 0.0, -1.0]))


class TestCentroid:
    def test_euclidean_triangle(self):
        tri = GeomSimplex(E, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(centroid(tri), [1 / 3, 1 / 3])

    def test_spherical_edge_midpoint(self):
        edge = GeomSimplex(S, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert np.allclose(centroid(edge), np.array([1.0, 1.0, 0.0]) / math.sqrt(2))

    def test_hyperbolic_equilateral_equidistant(self):
        # equilateral triangle with side 1: solve the vertex angle from the
        # hyperbolic law of cosines, then place vertices by exponential map
        r = 1.0
        cos_theta = (math.cosh(r) ** 2 - math.cosh(r)) / (math.sinh(r) ** 2)
        theta = math.acos(cos_theta)
        v0 = hyp_exp([0.0, 0.0])
        v1 = hyp_exp([r, 0.0])
        v2 = hyp_exp([r * math.cos(theta), r * math.sin(theta)])
        tri = GeomSimplex(H, np.stack([v0, v1, v2]))
        assert tri.max_edge() == pytest.approx(1.0, abs=1e-12)
        c = centroid(tri)
        dists = [distance(H, c, v) for v in tri.verts]
        assert max(dists) - min(dists) < 1e-10

        # independent oracle: minimise the max vertex distance over the sheet
        def maxdist(u):
            return max(distance(H, hyp_exp(u), v) for v in tri.verts)

        res = minimize(maxdist, x0=[0.3, 0.2], method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000})
        assert res.fun == pytest.approx(dists[0], abs=1e-6)

    def test_centroid_on_all_medial_segments(self):
        rng = np.random.default_rng(5)
        for tag, lam in [(E, 1.0), (S, 1.2), (H, 1.5)]:
            for _ in range(5):
                s = random_simplex(tag, 3, lam, rng)
                centroid(s)


class TestMedianRatio:
    def test_euclidean_exact(self):
        rng = np.random.default_rng(0)
        for n in (2, 3):
            s = random_simplex(E, n, 1.0, rng)
            for i in range(n + 1):
                assert median_ratio(s, i) == pytest.approx(n / (n + 1), abs=1e-12)

    def test_hyperbolic_bounded_by_kappa(self):
        rng = np.random.default_rng(1)
        bound = 2 * math.cosh(1.0) / (2 * math.cosh(1.0) + 1)
        # 50-digit reference: 0.75527152894520234752704038165923720280069992516203
        assert bound == pytest.approx(0.7552715289452023, abs=1e-15)
        for _ in range(30):
            s = random_simplex(H, 2, 1.0, rng)
            assert median_ratio(s, 0) <= bound + 1e-12

    def test_hyperbolic_sinh_ratio_range(self):
        rng = np.random.default_rng(2)
        lam = 1.3
        for _ in range(30):
            s = random_simplex(H, 3, lam, rng)
            for i in range(4):
                h = median_sinh_ratio(s, i)
                assert 1.0 - 1e-12 <= h <= 3 * math.cosh(lam) ** 2 + 1e-9

    def test_spherical_sin_ratio_at_most_n(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            s = random_simplex(S, 2, 1.0, rng)
            for i in range(3):
                assert median_sin_ratio(s, i) <= 2 + 1e-9


class TestKappa:
    def test_euclidean(self):
        assert kappa(E, 3, 0.37) == pytest.approx(0.75)

    def test_spherical(self):
        assert kappa(S, 2, math.pi / 2) == pytest.approx(0.8)

    def test_hyperbolic(self):
        expected = 2 * math.cosh(1.0) / (2 * math.cosh(1.0) + 1)
        assert kappa(H, 2, 1.0) == pytest.approx(expected, abs=1e-12)
        # 50-digit reference: 0.75527152894520234752704038165923720280069992516203
        assert kappa(H, 2, 1.0) == pytest.approx(0.7552715289452023, abs=1e-13)

    def test_domain_checks(self):
        with pytest.raises(GeometryError):
            kappa(S, 2, 2.0)
        with pytest.raises(GeometryError):
            kappa(E, 2, 0.0)


class TestDiameter:
    def test_right_triangle(self):
        tri = GeomSimplex(E, [[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
        assert diameter(tri) == pytest.approx(5.0)

    def test_needle(self):
        tri = GeomSimplex(E, [[0.0, 0.0], [1e-9, 0.0], [2.0, 0.0]])
        assert diameter(tri) == pytest.approx(2.0)

    def test_spherical_interior_pairs_bounded(self):
        # edges (pi/3, pi/3, pi/2): diameter is the longest edge
        a = np.array([0.0, 0.0, 1.0])
        b = np.array([math.sin(math.pi / 3), 0.0, math.cos(math.pi / 3)])
        # find c with d(a,c) = pi/3 and d(b,c) = pi/2 numerically
        def eqs(phi):
            c = np.array(
                [math.sin(math.pi / 3) * math.cos(phi), math.sin(math.pi / 3) * math.sin(phi), math.cos(math.pi / 3)]
            )
            return distance(S, b, c) - math.pi / 2

        lo, hi = 0.1, math.pi
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if eqs(mid) < 0:
                lo = mid
            else:
                hi = mid
        phi = 0.5 * (lo + hi)
        c = np.array(
            [math.sin(math.pi / 3) * math.cos(phi), math.sin(math.pi / 3) * math.sin(phi), math.cos(math.pi / 3)]
        )
        tri = GeomSimplex(S, np.stack([a, b, c]))
        assert diameter(tri) == pytest.approx(math.pi / 2, abs=1e-9)
        rng = np.random.default_rng(11)
        pts = sample_points(tri, 1000, rng)
        for i in range(0, 1000, 2):
            assert distance(S, pts[i], pts[i + 1]) <= diameter(tri) + CHECK_TOL


class TestAdjacentEdges:
    def test_euclidean_holds(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            tri = random_simplex(E, 2, 1.0, rng)
            assert adjacent_edge_bound_check(tri, 100)

    def test_degenerate_endpoint_equality(self):
        tri = GeomSimplex(E, [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])
        assert adjacent_edge_bound_check(tri, 2)

    def test_spherical_long_leg_counterexample(self):
        # isosceles with legs > pi/2: the altitude beats both legs
        base_half = 0.4
        leg = 1.8
        apex = np.array([0.0, 0.0, 1.0])

        def on_sphere(theta, phi):
            return np.array(
                [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
            )

        b = on_sphere(leg, -base_half)
        c = on_sphere(leg, base_half)
        tri = GeomSimplex(S, np.stack([apex, b, c]))
        assert tri.max_edge() > math.pi / 2
        assert not adjacent_edge_bound_check(tri, 200, check_preconditions=False)
        with pytest.raises(GeometryError):
            adjacent_edge_bound_check(tri, 10)


class TestCharts:
    def test_hyperbolic_apex_to_origin(self):
        tri = GeomSimplex(H, np.stack([hyp_exp([0.0, 0.0]), hyp_exp([0.5, 0.0]), hyp_exp([0.0, 0.5])]))
        chart = to_linear_chart(tri)
        assert np.allclose(chart.to_chart(np.array([0.0, 0.0, 1.0])), [0.0, 0.0])

    def test_euclidean_identity(self):
        tri = GeomSimplex(E, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        chart = to_linear_chart(tri)
        p = np.array([0.25, 0.3])
        assert np.allclose(chart.to_chart(p), p)

    @pytest.mark.parametrize("tag,lam", [(H, 1.4), (S, 1.2)])
    def test_geodesics_map_to_lines(self, tag, lam):
        rng = np.random.default_rng(8)
        simp = random_simplex(tag, 2, lam, rng)
        chart = to_linear_chart(simp)
        pts = sample_points(simp, 2000, rng)
        for i in range(0, 2000, 2):
            p, q = pts[i], pts[i + 1]
            mid = geodesic_point(tag, p, q, rng.uniform(0.2, 0.8))
            a, b, m = chart.to_chart(np.stack([p, q, mid]))
            cross = (b - a)[0] * (m - a)[1] - (b - a)[1] * (m - a)[0]
            assert abs(cross) < CHECK_TOL

    @pytest.mark.parametrize("tag,lam", [(H, 1.4), (S, 1.2)])
    def test_round_trip(self, tag, lam):
        rng = np.random.default_rng(9)
        simp = random_simplex(tag, 2, lam, rng)
        chart = to_linear_chart(simp)
        pts = sample_points(simp, 200, rng)
        back = chart.from_chart(chart.to_chart(pts))
        assert np.max(np.linalg.norm(back - pts, axis=-1)) < CHECK_TOL


class TestGeometricBarycentric:
    def test_regular_triangle_one_level(self):
        tri = close_under_faces([(0, 1, 2)])
        coords = {
            0: np.array([0.0, 0.0]),
            1: np.array([1.0, 0.0]),
            2: np.array([0.5, math.sqrt(3) / 2]),
        }
        gk = GeomComplex(tri, E, coords)
        out = geometric_barycentric(gk, 1)
        assert out.max_edge() <= 2 / 3 + CHECK_TOL

    def test_m_zero_unchanged(self):
        tri = close_under_faces([(0, 1, 2)])
        gk = GeomComplex(tri, E, {0: [0.0, 0.0], 1: [1.0, 0.0], 2: [0.0, 1.0]})
        assert geometric_barycentric(gk, 0) is gk or geometric_barycentric(gk, 0).complex == tri

    def test_hyperbolic_batch_scaling(self):
        # triangles with edges up to 2.0: three levels stay under kappa^m
        rng = np.random.default_rng(12)
        for _ in range(150):
            s = random_simplex(H, 2, float(rng.uniform(0.5, 2.0)), rng)
            lam = s.max_edge()
            contraction = kappa(H, 2, lam)
            for level, _count, max_edge in scaling_levels(s, 3):
                assert max_edge <= contraction**level * lam + CHECK_TOL

    def test_scaling_levels_counts(self):
        s = GeomSimplex(E, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        counts = [c for _, c, _ in scaling_levels(s, 2)]
        assert counts == [1, 6, 36]

    def test_scaling_levels_cap_checked_before_any_level(self):
        # 6^8 = 1,679,616 simplexes are under the cap, 6^9 are not; the
        # refusal comes before level 0 is yielded
        s = GeomSimplex(E, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ResourceCapExceeded, match=r"6\^9 simplexes"):
            next(scaling_levels(s, 9))
        with pytest.raises(ResourceCapExceeded):
            next(scaling_levels(s, 10**9))


class TestSharpnessProbe:
    """Tall isosceles triangles show the hyperbolic contraction factor
    cannot be freed of the edge-length bound."""

    @staticmethod
    def probe(a, y):
        b_pt = hyp_exp([a / 2, 0.0])
        c_pt = hyp_exp([-a / 2, 0.0])
        a_pt = hyp_exp([0.0, y * a])
        tri = GeomSimplex(H, np.stack([a_pt, b_pt, c_pt]))
        o = centroid(tri)
        mid = hyp_exp([0.0, 0.0])
        x = distance(H, a_pt, o)
        m = distance(H, a_pt, mid)
        b = distance(H, a_pt, c_pt)
        split = math.sinh(x) / math.sinh(distance(H, o, mid))
        return x, m, b, split

    def test_median_split_identity(self):
        # the centroid splits the median so that the sinh ratio of the two
        # parts is exactly twice the half-base cosh
        for a, y in [(1, 1), (2, 1), (2, 2), (3, 1)]:
            *_, split = self.probe(a, y)
            assert split == pytest.approx(2 * math.cosh(a / 2), rel=1e-12)

    def test_median_approaches_leg(self):
        ratios = [self.probe(2, y)[1] / self.probe(2, y)[2] for y in (1, 2, 3, 4)]
        assert all(r2 > r1 for r1, r2 in zip(ratios, ratios[1:]))
        assert ratios[-1] > 0.94

    def test_median_ratio_exceeds_flat_constant(self):
        # x/m grows with the base length and passes the Euclidean 2/3,
        # so no edge-independent contraction constant can work
        values = [self.probe(a, 1)[0] / self.probe(a, 1)[1] for a in (0.5, 1, 2, 3, 4)]
        assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))
        assert values[-1] > 2 / 3


def test_batch_max_edge_matches_simplex():
    rng = np.random.default_rng(21)
    for tag, lam in [(E, 1.0), (S, 1.0), (H, 1.5)]:
        s = random_simplex(tag, 3, lam, rng)
        assert batch_max_edge(tag, s.verts[None]) == pytest.approx(s.max_edge())
