"""Acceptance suite: one test per criterion, each printing a pass/fail line
and asserting its own runtime budget.  Run with `pytest -s` to see the
per-criterion lines."""
import math
import random
import time
from fractions import Fraction

import mpmath as mp
import numpy as np

from trimoves.bounds import (
    total_bound,
    volhyp_m,
)
from trimoves.complexes import close_under_faces, find_isomorphism
from trimoves.fixtures import (
    circle_complex,
    closed_ambient,
    grid_torus_complex,
    random_ball_2d,
    random_ball_3d,
    random_chart_pair,
    random_closed_surface,
    random_complex,
)
from trimoves.geometry import (
    CHECK_TOL,
    GeomSimplex,
    Geometry,
    _dist_arrays,
    diameter,
    geodesic_point,
    distance,
    kappa,
    median_ratio,
    random_simplex,
    scaling_levels,
)
from trimoves.intersect import barycentric_polytopal, commonsub_count_check, intersect_linear, torus_intersect
from trimoves.pachner import (
    apply,
    apply_sequence,
    enumerate_moves,
    replay_verified,
)
from trimoves.reduction import alpha_to_beta, relate
from trimoves.shelling import boundary_complex, star_via_shelling
from trimoves.subdivision import (
    barycentric,
    identity_subdivision,
    iterated_barycentric,
    partial_relative,
    skeleton_counts,
)

from .paper_lemmas import (
    adjacent_edge_bound_check,
    median_sin_ratio,
    median_sinh_ratio,
    sample_points,
)
from .test_bounds import convexity_radius_chain
from .test_complexes import link

E, S, H = Geometry.EUCLIDEAN, Geometry.SPHERICAL, Geometry.HYPERBOLIC


class _Criterion:
    def __init__(self, number: int, description: str, budget_s: float):
        self.number = number
        self.description = description
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(
            f"[acceptance] criterion {self.number:2d} ({self.description}): "
            f"{status} in {elapsed:.1f}s (budget {self.budget:.0f}s)"
        )
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget"
            )
        return False


def test_criterion_01_subdivision_counts():
    with _Criterion(1, "subdivision skeleton counts", 30):
        rng = random.Random(101)
        complexes = [random_complex(rng, rng.randint(1, 4), rng.randint(1, 6)) for _ in range(20)]
        for k in complexes:
            p = k.f_vector()
            s = skeleton_counts(barycentric(k))
            for i in range(k.dimension + 1):
                assert s[i] == math.factorial(i + 1) * p[i]
            n = k.dimension
            for m in (0, 1, 2):
                sub = iterated_barycentric(k, m, max_simplexes=500_000)
                assert sub.complex.f_vector()[n] == math.factorial(n + 1) ** m * p[n]


def test_criterion_02_partial_subdivision_links():
    with _Criterion(2, "links of partial subdivisions", 60):
        rng = random.Random(202)
        complexes = []
        while len(complexes) < 18:
            k = random_complex(rng, rng.randint(1, 3), rng.randint(4, 28))
            if len(k.maximal_simplexes()) <= 30:
                complexes.append(k)
        complexes.append(close_under_faces([(1, 2, 3, 4)]))  # solid simplex
        complexes.append(random_closed_surface(rng, 5))
        for k in complexes:
            for r in range(k.dimension + 1):
                sub_r = partial_relative(k, identity_subdivision(k), r)
                for a in k.simplexes_of_dim(r):
                    got = link(sub_r.complex, a)
                    want = barycentric(link(k, a)).complex
                    assert find_isomorphism(got, want) is not None, (k, r, a)


def test_criterion_03_starring():
    with _Criterion(3, "starring shellable balls", 120):
        rng = random.Random(303)
        cases = [random_ball_2d(rng, rng.randint(1, 20)) for _ in range(50)]
        cases += [random_ball_3d(rng, rng.randint(1, 15)) for _ in range(10)]
        for ball in cases:
            ambient = closed_ambient(ball)
            r = len(ball.top_simplexes())
            seq, result = star_via_shelling(ambient, ball)
            assert len(seq) == r
            apex = next(v for v in result.vertices() if v not in ambient.vertices())
            assert link(result, (apex,)).simplexes == boundary_complex(ball).simplexes
            assert apply_sequence(ambient, seq) == result


def test_criterion_04_alpha_to_beta_sphere():
    with _Criterion(4, "identity reduction on the 2-sphere", 60):
        k = close_under_faces([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])
        seq, trace = alpha_to_beta(k, identity_subdivision(k))
        out = apply_sequence(k, seq)
        assert find_isomorphism(out, barycentric(k).complex) is not None
        for r, used in trace.per_level_moves.items():
            assert used <= trace.per_level_bounds[r]
        n, p = 2, k.f_vector()[2]
        assert trace.total_moves <= math.factorial(n + 1) ** 2 * p * p
        assert seq.removed_vertices() & set(k.vertices()) == set()


def test_criterion_05_end_to_end_relate():
    with _Criterion(5, "end-to-end pipeline on circle and torus", 600):
        # (a) two triangulations of the circle
        res_a = relate(circle_complex(3), circle_complex(5, offset=0.09))
        replay_verified(res_a.start, res_a.sequence, expect=res_a.end)
        assert len(res_a.sequence) < res_a.bound_value
        assert res_a.sequence.removed_vertices() & res_a.common_vertices == set()

        # (b) two shifted 3x3 grid flat-torus triangulations (18 triangles)
        k1 = grid_torus_complex(3)
        k2 = grid_torus_complex(3, shift=(1 / 6, 1 / 6))
        res_b = relate(k1, k2)
        replay_verified(res_b.start, res_b.sequence, expect=res_b.end)
        assert len(res_b.sequence) < res_b.bound_value
        assert res_b.bound_value == total_bound(
            2, 18, 18, res_b.bound_m
        )
        assert res_b.sequence.removed_vertices() & res_b.common_vertices == set()

        # (b') a jittered copy shares 8 of 9 vertices, making the
        # common-vertex preservation check non-vacuous
        k3 = grid_torus_complex(3)
        k3.coords[4] = k3.coords[4] + np.array([0.05, 0.03])
        res_c = relate(k1, k3)
        assert len(res_c.common_vertices) >= 8
        assert res_c.sequence.removed_vertices() & res_c.common_vertices == set()
        replay_verified(res_c.start, res_c.sequence, expect=res_c.end)


def test_criterion_06_kappa_scaling():
    with _Criterion(6, "subdivision edge contraction", 60):
        rng = np.random.default_rng(606)
        for tag, lam in ((E, 1.0), (S, 1.2), (H, 1.5)):
            for n in (2, 3):
                for _ in range(250):
                    s = random_simplex(tag, n, lam, rng)
                    lam0 = s.max_edge()
                    contraction = kappa(tag, n, lam0)
                    for level, _count, max_edge in scaling_levels(s, 3):
                        assert max_edge <= contraction**level * lam0 + CHECK_TOL


def test_criterion_07_centroid_ratios():
    with _Criterion(7, "median ratios in the three geometries", 60):
        rng = np.random.default_rng(707)
        for n in range(1, 6):
            for _ in range(40):
                s = random_simplex(E, n, 1.0, rng)
                for i in range(n + 1):
                    assert abs(median_ratio(s, i) - n / (n + 1)) < 1e-12
        lam = 1.3
        for _ in range(500):
            n = int(rng.integers(2, 4))
            s = random_simplex(H, n, lam, rng)
            i = int(rng.integers(0, n + 1))
            h = median_sinh_ratio(s, i)
            assert 1.0 - 1e-12 <= h <= n * math.cosh(lam) ** (n - 1) + CHECK_TOL
        for _ in range(500):
            n = int(rng.integers(2, 4))
            s = random_simplex(S, n, 1.2, rng)
            i = int(rng.integers(0, n + 1))
            assert median_sin_ratio(s, i) <= n + CHECK_TOL


def test_criterion_08_diameter_and_adjacent_edges():
    with _Criterion(8, "diameter and adjacent-edge comparisons", 120):
        rng = np.random.default_rng(808)
        for tag, lam in ((E, 1.0), (S, 1.2), (H, 1.5)):
            for _ in range(100):
                n = int(rng.integers(2, 4))
                s = random_simplex(tag, n, lam, rng)
                pts = sample_points(s, 1000, rng)
                d = _dist_arrays(tag, pts[::2], pts[1::2])
                assert float(np.max(d)) <= diameter(s) + CHECK_TOL
                tri = random_simplex(tag, 2, lam, rng)
                assert adjacent_edge_bound_check(tri, 10)
        # the long-leg spherical counterexample
        leg, half_base = 1.8, 0.4
        apex = np.array([0.0, 0.0, 1.0])
        b = np.array([math.sin(leg) * math.cos(-half_base), math.sin(leg) * math.sin(-half_base), math.cos(leg)])
        c = np.array([math.sin(leg) * math.cos(half_base), math.sin(leg) * math.sin(half_base), math.cos(leg)])
        tri = GeomSimplex(S, np.stack([apex, b, c]))
        assert tri.max_edge() > math.pi / 2
        assert not adjacent_edge_bound_check(tri, 200, check_preconditions=False)
        mid = geodesic_point(S, b, c, 0.5)
        assert distance(S, apex, mid) > tri.max_edge()


def test_criterion_09_common_subdivision_counts():
    with _Criterion(9, "common subdivision counts and measure", 120):
        rng = np.random.default_rng(909)
        for _ in range(20):
            k1, k2 = random_chart_pair(rng, n_interior=int(rng.integers(3, 8)))
            poly = intersect_linear(k1, k2)
            common = barycentric_polytopal(poly, k1, k2)
            report = commonsub_count_check(k1, k2, common)
            assert report["all_ok"], report
            assert report["measure_ok"], report
        k1 = grid_torus_complex(3)
        k2 = grid_torus_complex(3, shift=(1 / 6, 1 / 6))
        common = barycentric_polytopal(torus_intersect(k1, k2), k1, k2)
        report = commonsub_count_check(k1, k2, common)
        assert report["all_ok"] and report["measure_ok"]


def test_criterion_10_bound_calculator():
    with _Criterion(10, "exact bound evaluation", 5):
        # independent big-integer oracle
        want = 1
        for _ in range(2):
            want *= 2
        f = 1
        for i in range(2, 4):
            f *= i
        power = 1
        for _ in range(28):
            power *= f
        want = want * power * 1 * 1 * 2
        assert total_bound(2, 1, 1, 8) == want == 8 * 6**28

        with mp.workdps(60):
            x = (3 * mp.cosh(1) ** 2 + 1) * mp.log(2 * mp.pi * 10 / mp.mpf("0.9427"))
            reference = int(mp.floor(x)) + 1
        assert volhyp_m(3, 10, 1.0) == reference

        r, inj = convexity_radius_chain(Fraction(9, 4))
        assert r == inj / 2 == Fraction(9, 4) / 4


def test_criterion_11_move_fuzzing():
    with _Criterion(11, "bistellar move fuzzing", 60):
        rng = random.Random(1111)
        tested = 0
        while tested < 1000:
            k = random_closed_surface(rng, rng.randint(2, 10))
            chi = k.euler_characteristic()
            moves = enumerate_moves(k)
            rng.shuffle(moves)
            for m in moves[:20]:
                out = apply(k, m)
                assert apply(out, m.inverted()) == k
                assert out.euler_characteristic() == chi
                assert out.is_closed_pseudomanifold()
                tested += 1
                if tested >= 1000:
                    break
