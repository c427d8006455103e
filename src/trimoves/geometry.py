"""Constant-curvature geometry: points, simplexes, centroids, subdivision.

Euclidean points are plain n-vectors.  Spherical points are unit vectors in
(n+1)-space.  Hyperbolic points live on the upper sheet of the hyperboloid
<x, x> = -1 for the Minkowski product u.v = u_1 v_1 + ... + u_n v_n -
u_{n+1} v_{n+1}; the hyperboloid is the canonical form and the Klein chart
is a derived view, because the centroid of a simplex is the (Minkowski)
normalised sum of its lifted vertices there.

All computation is 64-bit floating point.  NORM_TOL bounds normalisation
drift, CHECK_TOL is the slack for every inequality assertion.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, permutations
from typing import Iterator, Optional

import numpy as np

from .complexes import Complex, Simplex
from .subdivision import MAX_SIMPLEXES, ResourceCapExceeded, barycentric, barycentric_f_vector

NORM_TOL = 1e-12
CHECK_TOL = 1e-9


class Geometry(str, Enum):
    EUCLIDEAN = "euclidean"
    SPHERICAL = "spherical"
    HYPERBOLIC = "hyperbolic"


class GeometryError(Exception):
    pass


def minkowski(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.sum(u[..., :-1] * v[..., :-1], axis=-1) - u[..., -1] * v[..., -1]


def normalize_point(tag: Geometry, x: np.ndarray) -> np.ndarray:
    """Project onto the model surface; raises if the drift is too large."""
    x = np.asarray(x, dtype=float)
    if tag == Geometry.EUCLIDEAN:
        return x
    if tag == Geometry.SPHERICAL:
        r = np.linalg.norm(x)
        if r < 1e-8:
            raise GeometryError("cannot normalise a near-zero vector")
        return x / r
    q = -minkowski(x, x)
    if q <= 0 or x[-1] <= 0:
        raise GeometryError("not a timelike upper-sheet vector")
    return x / math.sqrt(q)


def check_point(tag: Geometry, x: np.ndarray) -> None:
    if tag == Geometry.SPHERICAL:
        if abs(np.linalg.norm(x) - 1.0) > CHECK_TOL:
            raise GeometryError(f"spherical point off the unit sphere by > {CHECK_TOL}")
    elif tag == Geometry.HYPERBOLIC:
        if abs(minkowski(x, x) + 1.0) > CHECK_TOL or x[-1] <= 0:
            raise GeometryError(f"hyperbolic point off the hyperboloid by > {CHECK_TOL}")


def _dist_arrays(tag: Geometry, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances between paired rows, via chord-length identities that stay
    accurate near zero (arccos/arccosh of a near-1 product lose half the
    significant digits)."""
    if tag == Geometry.EUCLIDEAN:
        return np.linalg.norm(a - b, axis=-1)
    if tag == Geometry.SPHERICAL:
        chord = np.linalg.norm(a - b, axis=-1)
        return 2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))
    # on the hyperboloid <p-q, p-q> = 4 sinh^2(d/2)
    gap = np.maximum(0.0, minkowski(a - b, a - b))
    return 2.0 * np.arcsinh(np.sqrt(gap) / 2.0)


def distance(tag: Geometry, p: np.ndarray, q: np.ndarray) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise GeometryError("dimension mismatch")
    return float(_dist_arrays(tag, p, q))


def pairwise_distances(tag: Geometry, pts: np.ndarray) -> np.ndarray:
    """Condensed pairwise distance vector for rows of ``pts``."""
    i, j = np.triu_indices(pts.shape[0], k=1)
    return _dist_arrays(tag, pts[i], pts[j])


def geodesic_point(tag: Geometry, p: np.ndarray, q: np.ndarray, t: float) -> np.ndarray:
    """Point at parameter t in [0, 1] on the geodesic from p to q."""
    if tag == Geometry.EUCLIDEAN:
        return (1 - t) * p + t * q
    d = distance(tag, p, q)
    if d < 1e-14:
        return p.copy()
    if tag == Geometry.SPHERICAL:
        return (math.sin((1 - t) * d) * p + math.sin(t * d) * q) / math.sin(d)
    return (math.sinh((1 - t) * d) * p + math.sinh(t * d) * q) / math.sinh(d)


def point_to_geodesic(tag: Geometry, x: np.ndarray, p: np.ndarray, q: np.ndarray) -> float:
    """Distance from x to the geodesic segment [p, q] (ternary search; the
    distance along a geodesic to a fixed nearby point is unimodal)."""
    lo, hi = 0.0, 1.0
    for _ in range(100):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if distance(tag, x, geodesic_point(tag, p, q, m1)) <= distance(
            tag, x, geodesic_point(tag, p, q, m2)
        ):
            hi = m2
        else:
            lo = m1
    return distance(tag, x, geodesic_point(tag, p, q, 0.5 * (lo + hi)))


def torus_wrap(x: np.ndarray, period: Optional[float]) -> np.ndarray:
    """x reduced into the fundamental domain [0, period)^d of the flat torus
    R^d / (period Z)^d; x itself when there is no period."""
    return x if period is None else np.mod(x, period)


def centroid_coords(tag: Geometry, verts: np.ndarray) -> np.ndarray:
    """Centroid of a geometric simplex: the plain average for Euclidean
    vertices, the radial projection of the average for the curved models."""
    s = np.sum(np.asarray(verts, dtype=float), axis=0)
    if tag == Geometry.EUCLIDEAN:
        return s / len(verts)
    return normalize_point(tag, s)


@dataclass
class GeomSimplex:
    """A geometric simplex given by its (k+1) lifted vertex rows."""

    tag: Geometry
    verts: np.ndarray

    def __post_init__(self):
        self.verts = np.asarray(self.verts, dtype=float)
        if self.verts.ndim != 2:
            raise GeometryError("expected a (k+1, d) vertex matrix")

    @property
    def k(self) -> int:
        return self.verts.shape[0] - 1

    def validate(self) -> None:
        for row in self.verts:
            check_point(self.tag, row)
        if np.linalg.matrix_rank(
            self.verts - self.verts[0] if self.tag == Geometry.EUCLIDEAN else self.verts,
            tol=1e-10,
        ) < (self.k if self.tag == Geometry.EUCLIDEAN else self.k + 1):
            raise GeometryError("degenerate simplex: lifted vertices dependent")
        if self.tag == Geometry.SPHERICAL:
            if self.max_edge() > math.pi / 2 + CHECK_TOL:
                raise GeometryError("spherical simplex with an edge longer than pi/2")
            c = normalize_point(self.tag, np.sum(self.verts, axis=0))
            if np.min(self.verts @ c) <= 0:
                raise GeometryError("spherical simplex not inside an open hemisphere")

    def edge_lengths(self) -> np.ndarray:
        return pairwise_distances(self.tag, self.verts)

    def max_edge(self) -> float:
        return float(np.max(self.edge_lengths()))

    def centroid(self) -> np.ndarray:
        return centroid_coords(self.tag, self.verts)


def centroid(simplex: GeomSimplex) -> np.ndarray:
    """The common intersection point of all medial segments, checked to lie
    within CHECK_TOL of the geodesic between the centroids of the two sides
    of every proper split of the vertex set."""
    if simplex.k == 0:
        return simplex.verts[0].copy()
    c = simplex.centroid()
    idx = range(simplex.k + 1)
    for r in range(1, simplex.k + 1):
        for left in combinations(idx, r):
            right = tuple(i for i in idx if i not in left)
            ca = centroid_coords(simplex.tag, simplex.verts[list(left)])
            cb = centroid_coords(simplex.tag, simplex.verts[list(right)])
            if point_to_geodesic(simplex.tag, c, ca, cb) > CHECK_TOL:
                raise GeometryError(
                    f"centroid misses the ({left}, {right}) medial segment"
                )
    return c


def _median_split(simplex: GeomSimplex, vertex_index: int):
    """(a, c(S), c(B)) for the split S = a ⋆ B at the given vertex."""
    rest = [i for i in range(simplex.k + 1) if i != vertex_index]
    if not rest:
        raise GeometryError("median ratio needs a positive-dimensional simplex")
    c_b = centroid_coords(simplex.tag, simplex.verts[rest])
    return simplex.verts[vertex_index], simplex.centroid(), c_b


def median_ratio(simplex: GeomSimplex, vertex_index: int = 0) -> float:
    """d(a, c(S)) / d(a, c(B)) for the split S = a ⋆ B at the given vertex."""
    a, c_all, c_b = _median_split(simplex, vertex_index)
    denom = distance(simplex.tag, a, c_b)
    if denom < 1e-13:
        raise GeometryError("degenerate simplex: vertex coincides with face centroid")
    return distance(simplex.tag, a, c_all) / denom


def kappa(tag: Geometry, n: int, lam: float) -> float:
    """Per-level diameter contraction of barycentric subdivision."""
    if n < 1:
        raise GeometryError("dimension must be at least 1")
    if lam <= 0:
        raise GeometryError("edge bound must be positive")
    if tag == Geometry.EUCLIDEAN:
        return n / (n + 1)
    if tag == Geometry.SPHERICAL:
        if lam > math.pi / 2 + NORM_TOL:
            raise GeometryError("spherical edge bound must be at most pi/2")
        return 2 * n / (2 * n + 1)
    c = n * math.cosh(lam) ** (n - 1)
    return c / (c + 1)


def diameter(simplex: GeomSimplex) -> float:
    """Max pairwise vertex distance (equals the longest edge under the
    spherical pi/2 edge precondition)."""
    if simplex.tag == Geometry.SPHERICAL and simplex.max_edge() > math.pi / 2 + CHECK_TOL:
        raise GeometryError("diameter formula needs spherical edges at most pi/2")
    return simplex.max_edge()


# -- geometric complexes -----------------------------------------------------


@dataclass
class GeomComplex:
    """An abstract complex with vertex coordinates in one model geometry.

    ``period`` marks a flat-torus quotient R^d / (period Z)^d: coordinates
    then live in the fundamental domain and simplexes are realised by
    lifting every vertex to its translate nearest the first one, which is
    single-valued while simplex diameters stay below half the period.
    """

    complex: Complex
    tag: Geometry
    coords: dict[int, np.ndarray]
    period: Optional[float] = None

    def __post_init__(self):
        self.coords = {v: np.asarray(c, dtype=float) for v, c in self.coords.items()}
        if self.period is not None and self.tag != Geometry.EUCLIDEAN:
            raise GeometryError("torus quotients are Euclidean here")

    def lift(self, s: Simplex) -> np.ndarray:
        """Lifted vertex rows of a simplex (nearest-translate on the torus)."""
        pts = np.stack([self.coords[v] for v in s])
        if self.period is None:
            return pts
        base = pts[0]
        return pts + self.period * np.round((base - pts) / self.period)

    def geom_simplex(self, s: Simplex) -> GeomSimplex:
        return GeomSimplex(self.tag, self.lift(s))

    def edge_length(self, e: Simplex) -> float:
        pts = self.lift(e)
        return distance(self.tag, pts[0], pts[1])

    def max_edge(self) -> float:
        edges = self.complex.simplexes_of_dim(1)
        if not edges:
            return 0.0
        return max(self.edge_length(e) for e in edges)

    def validate(self) -> None:
        for s in self.complex.top_simplexes():
            self.geom_simplex(s).validate()
        if self.period is not None:
            # nearest-translate lifting must not depend on the anchor vertex:
            # the lifted vertex set needs per-axis extent below period/2
            for s in self.complex.top_simplexes():
                pts = self.lift(s)
                extent = np.max(pts, axis=0) - np.min(pts, axis=0)
                if np.any(extent >= self.period / 2):
                    raise GeometryError(
                        f"torus simplex {s} spans half the period on some axis"
                    )


def geometric_barycentric(
    gk: GeomComplex, m: int, *, max_simplexes: int = MAX_SIMPLEXES
) -> GeomComplex:
    """Geometric β^m: barycenter vertices are placed at simplex centroids.

    Asserts the per-level edge contraction: after each level every edge is
    at most κ(Λ) times the previous maximum edge length, plus CHECK_TOL.
    Raises ResourceCapExceeded before any build when β^m would be too large.
    """
    if m < 0:
        raise GeometryError("m must be non-negative")
    predicted = sum(barycentric_f_vector(gk.complex.f_vector(), m))
    if m and predicted > max_simplexes:
        raise ResourceCapExceeded(
            f"geometric β^{m} would have {predicted} simplexes, above the cap {max_simplexes}"
        )
    current = gk
    for _ in range(m):
        lam = max(current.max_edge(), 1e-300)
        sub = barycentric(current.complex)
        coords = dict(current.coords)
        for parent, apex in sub.apex_of.items():
            pts = current.lift(parent)
            c = centroid_coords(current.tag, pts)
            coords[apex] = torus_wrap(c, current.period)
        nxt = GeomComplex(sub.complex, current.tag, coords, current.period)
        contraction = kappa(current.tag, current.complex.dimension, lam)
        if nxt.max_edge() > contraction * lam + CHECK_TOL:
            raise GeometryError("barycentric subdivision failed to contract edges")
        current = nxt
    return current


# -- vectorised single-simplex subdivision ------------------------------------


def _normalize_rows(tag: Geometry, x: np.ndarray) -> np.ndarray:
    if tag == Geometry.SPHERICAL:
        return x / np.linalg.norm(x, axis=-1, keepdims=True)
    q = -minkowski(x, x)
    return x / np.sqrt(q)[..., None]


def subdivide_simplexes_once(tag: Geometry, sims: np.ndarray) -> np.ndarray:
    """One barycentric level for a batch of simplexes given as an
    (N, k+1, d) array; children are the normalised partial sums along every
    vertex order, (N * (k+1)!, k+1, d)."""
    n1 = sims.shape[1]
    perms = list(permutations(range(n1)))
    chunks = []
    for p in perms:
        cums = np.cumsum(sims[:, list(p), :], axis=1)
        if tag == Geometry.EUCLIDEAN:
            child = cums / np.arange(1, n1 + 1)[None, :, None]
        else:
            child = _normalize_rows(tag, cums)
        chunks.append(child)
    return np.concatenate(chunks, axis=0)


def batch_max_edge(tag: Geometry, sims: np.ndarray) -> float:
    n1 = sims.shape[1]
    best = 0.0
    for i, j in combinations(range(n1), 2):
        d = _dist_arrays(tag, sims[:, i, :], sims[:, j, :])
        best = max(best, float(np.max(d)))
    return best


def scaling_levels(simplex: GeomSimplex, m: int) -> Iterator[tuple[int, int, float]]:
    """Yield (level, simplex count, max edge) for β^0 .. β^m of one simplex.
    Raises ResourceCapExceeded before any build when β^m, with (n+1)!^m
    simplexes, would have more than MAX_SIMPLEXES."""
    per_level = math.factorial(simplex.verts.shape[0])
    # per_level >= 2 gives 2^64 > MAX_SIMPLEXES, so the exponent cap at 64
    # keeps the comparison exact and the power small
    if per_level ** min(m, 64) > MAX_SIMPLEXES:
        raise ResourceCapExceeded(
            f"β^{m} of one simplex would have {per_level}^{m} simplexes, "
            f"above the cap {MAX_SIMPLEXES}"
        )
    sims = simplex.verts[None, :, :]
    yield 0, 1, batch_max_edge(simplex.tag, sims)
    for level in range(1, m + 1):
        sims = subdivide_simplexes_once(simplex.tag, sims)
        yield level, sims.shape[0], batch_max_edge(simplex.tag, sims)


# -- random instances ---------------------------------------------------------


SAMPLE_TRIES = 200  # rejection-sampling attempts of random_simplex


def random_simplex(tag: Geometry, n: int, lam: float, rng: np.random.Generator) -> GeomSimplex:
    """Rejection-sample n+1 vertices in a ball of radius lam/2 around a base
    point; degenerate sets (near-dependent edge directions) are rejected.
    Spherical sampling additionally enforces pairwise distances <= pi/2."""
    if tag == Geometry.SPHERICAL and lam > math.pi / 2:
        raise GeometryError("spherical sampling requires lam <= pi/2")
    d = n if tag == Geometry.EUCLIDEAN else n + 1
    base = np.zeros(d)
    if tag != Geometry.EUCLIDEAN:
        base[-1] = 1.0

    def exp_base(u: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(u)
        if r < 1e-15:
            return base.copy()
        direction = np.zeros(d)
        direction[: n if tag != Geometry.EUCLIDEAN else d] = u / r
        if tag == Geometry.EUCLIDEAN:
            return u
        if tag == Geometry.SPHERICAL:
            return math.cos(r) * base + math.sin(r) * direction
        return math.cosh(r) * base + math.sinh(r) * direction

    for _ in range(SAMPLE_TRIES):
        us = []
        for _ in range(n + 1):
            while True:
                u = rng.uniform(-lam / 2, lam / 2, size=n)
                if np.linalg.norm(u) <= lam / 2:
                    us.append(u)
                    break
        verts = np.stack([exp_base(u) for u in us])
        # normalised edge-direction volume as the degeneracy measure
        if tag == Geometry.EUCLIDEAN:
            edges = verts[1:] - verts[0]
        else:
            chart = verts[:, :-1] / verts[:, -1:]
            edges = chart[1:] - chart[0]
        norms = np.linalg.norm(edges, axis=1)
        if np.any(norms < 1e-12):
            continue
        gram = np.linalg.det((edges / norms[:, None]) @ (edges / norms[:, None]).T)
        if abs(gram) < 1e-6:
            continue
        s = GeomSimplex(tag, verts)
        if tag == Geometry.SPHERICAL and s.max_edge() > math.pi / 2:
            continue
        if s.max_edge() > lam:
            continue
        return s
    raise GeometryError(f"could not sample a non-degenerate simplex in {SAMPLE_TRIES} tries")
