"""Checkers of the paper's geometric lemmas that only the tests run: the
sin and sinh median ratios, the adjacent-edge bound, linear charts and
point sampling in a simplex.  They are built from the kernels of
``trimoves.geometry``."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from trimoves.geometry import (
    CHECK_TOL,
    GeomSimplex,
    Geometry,
    GeometryError,
    _median_split,
    distance,
    geodesic_point,
    normalize_point,
)


def sample_points(simplex: GeomSimplex, m: int, rng: np.random.Generator) -> np.ndarray:
    """m points in the simplex, via normalised positive vertex weights."""
    w = rng.gamma(1.0, 1.0, size=(m, simplex.verts.shape[0]))
    w /= w.sum(axis=1, keepdims=True)
    pts = w @ simplex.verts
    if simplex.tag == Geometry.EUCLIDEAN:
        return pts
    return np.stack([normalize_point(simplex.tag, p) for p in pts])


def median_sinh_ratio(simplex: GeomSimplex, vertex_index: int = 0) -> float:
    """sinh d(a, c(S)) / sinh d(c(S), c(B)) for hyperbolic simplexes."""
    if simplex.tag != Geometry.HYPERBOLIC:
        raise GeometryError("sinh ratio is a hyperbolic quantity")
    a, c_all, c_b = _median_split(simplex, vertex_index)
    return math.sinh(distance(simplex.tag, a, c_all)) / math.sinh(
        distance(simplex.tag, c_all, c_b)
    )


def median_sin_ratio(simplex: GeomSimplex, vertex_index: int = 0) -> float:
    """sin d(a, c(S)) / sin d(c(S), c(B)) for spherical simplexes."""
    if simplex.tag != Geometry.SPHERICAL:
        raise GeometryError("sin ratio is a spherical quantity")
    a, c_all, c_b = _median_split(simplex, vertex_index)
    return math.sin(distance(simplex.tag, a, c_all)) / math.sin(
        distance(simplex.tag, c_all, c_b)
    )


def adjacent_edge_bound_check(
    triangle: GeomSimplex,
    samples: int = 100,
    *,
    tol: float = CHECK_TOL,
    check_preconditions: bool = True,
) -> bool:
    """Whether d(A, D) <= max(d(A, B), d(A, C)) for sampled D on [B, C]."""
    if triangle.k != 2:
        raise GeometryError("adjacent-edge check needs a triangle")
    if check_preconditions and triangle.tag == Geometry.SPHERICAL:
        if triangle.max_edge() > math.pi / 2 + tol:
            raise GeometryError("spherical precondition: edges at most pi/2")
    a, b, c = triangle.verts
    bound = max(distance(triangle.tag, a, b), distance(triangle.tag, a, c))
    for t in np.linspace(0.0, 1.0, samples):
        d = geodesic_point(triangle.tag, b, c, float(t))
        if distance(triangle.tag, a, d) > bound + tol:
            return False
    return True


@dataclass
class LinearChart:
    """A chart sending geodesics through the simplex to straight lines."""

    tag: Geometry
    chart_verts: np.ndarray
    to_chart: Callable[[np.ndarray], np.ndarray]
    from_chart: Callable[[np.ndarray], np.ndarray]


def to_linear_chart(simplex: GeomSimplex) -> LinearChart:
    """Euclidean: identity.  Hyperbolic: the Klein map x -> x_{1..n}/x_{n+1}.
    Spherical: gnomonic projection onto the tangent hyperplane at the
    simplex's hemisphere centre (requires an open hemisphere)."""
    tag = simplex.tag
    if tag == Geometry.EUCLIDEAN:
        ident = lambda p: np.asarray(p, dtype=float)
        return LinearChart(tag, simplex.verts.copy(), ident, ident)
    if tag == Geometry.HYPERBOLIC:

        def to_chart(p):
            p = np.asarray(p, dtype=float)
            return p[..., :-1] / p[..., -1:]

        def from_chart(y):
            y = np.asarray(y, dtype=float)
            s = 1.0 - np.sum(y * y, axis=-1, keepdims=True)
            if np.any(s <= 0):
                raise GeometryError("Klein point outside the unit ball")
            return np.concatenate([y, np.ones_like(y[..., :1])], axis=-1) / np.sqrt(s)

        return LinearChart(tag, to_chart(simplex.verts), to_chart, from_chart)

    center = normalize_point(tag, np.sum(simplex.verts, axis=0))
    if np.min(simplex.verts @ center) <= CHECK_TOL:
        raise GeometryError("spherical simplex not inside an open hemisphere")
    # orthonormal basis of the tangent hyperplane at the centre
    _, _, vh = np.linalg.svd(center[None, :])
    basis = vh[1:]

    def to_chart(p):
        p = np.asarray(p, dtype=float)
        dots = p @ center
        if np.any(dots <= CHECK_TOL):
            raise GeometryError("point outside the chart hemisphere")
        proj = p / dots[..., None] - center
        return proj @ basis.T

    def from_chart(y):
        y = np.asarray(y, dtype=float)
        p = center + y @ basis
        norms = np.linalg.norm(p, axis=-1, keepdims=True)
        return p / norms

    return LinearChart(tag, to_chart(simplex.verts), to_chart, from_chart)
