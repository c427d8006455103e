"""Deterministic fixture builders: torus grids, circles, balls, fuzzers.

Everything takes an explicit seed or rng so acceptance runs reproduce
byte-identically.
"""
from __future__ import annotations

import random

import numpy as np

from .complexes import Complex, close_under_faces, cone
from .geometry import GeomComplex, Geometry
from .pachner import apply as apply_move
from .pachner import enumerate_moves
from .shelling import boundary_complex


def circle_complex(k: int, period: float = 1.0, offset: float = 0.0) -> GeomComplex:
    """k-vertex triangulation of the circle R/(period Z), k >= 3."""
    if k < 3:
        raise ValueError("a simplicial circle needs at least 3 vertices")
    edges = [(i, (i + 1) % k) for i in range(k)]
    coords = {i: np.array([(offset + i * period / k) % period]) for i in range(k)}
    return GeomComplex(close_under_faces(edges), Geometry.EUCLIDEAN, coords, period)


def grid_torus_complex(
    g: int, period: float = 1.0, shift: tuple[float, float] = (0.0, 0.0)
) -> GeomComplex:
    """g x g grid triangulation of the square flat torus (2 g^2 triangles);
    simplicial for g >= 3."""
    if g < 3:
        raise ValueError("the grid torus is simplicial only for g >= 3")

    def vid(i: int, j: int) -> int:
        return (i % g) * g + (j % g)

    tris = []
    for i in range(g):
        for j in range(g):
            tris.append((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)))
            tris.append((vid(i, j), vid(i, j + 1), vid(i + 1, j + 1)))
    h = period / g
    coords = {
        vid(i, j): np.array(
            [(i * h + shift[0]) % period, (j * h + shift[1]) % period]
        )
        for i in range(g)
        for j in range(g)
    }
    return GeomComplex(close_under_faces(tris), Geometry.EUCLIDEAN, coords, period)


def random_closed_surface(rng: random.Random, n_moves: int = 6) -> Complex:
    """Mutate the boundary of the 3-simplex by random bistellar moves."""
    k = close_under_faces([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])
    for _ in range(n_moves):
        k = apply_move(k, rng.choice(enumerate_moves(k)))
    return k


def random_complex(rng: random.Random, n: int, max_top: int) -> Complex:
    """Random downward-closed complex with simplexes of dimension <= n."""
    n_verts = rng.randint(n + 1, max(n + 2, 14))
    verts = list(range(n_verts))
    maxes = []
    for _ in range(rng.randint(1, max_top)):
        size = rng.randint(1, n + 1)
        maxes.append(tuple(sorted(rng.sample(verts, size))))
    return close_under_faces(maxes)


def random_ball_2d(rng: random.Random, n_tris: int) -> Complex:
    """Shellable disk grown by gluing triangles onto boundary edges."""
    tris = [(0, 1, 2)]
    ball = close_under_faces(tris)
    next_v = 3
    while ball.f_vector()[2] < n_tris:
        bd = boundary_complex(ball)
        edge = rng.choice(bd.simplexes_of_dim(1))
        if rng.random() < 0.3:
            # fill an ear when two boundary edges meet at a vertex
            cands = []
            for v in edge:
                for other in bd.simplexes_of_dim(1):
                    if other != edge and v in other:
                        tri = tuple(sorted(set(edge) | set(other)))
                        if len(tri) == 3 and tri not in ball:
                            cands.append(tri)
            cands = [t for t in cands if _ear_fill_keeps_ball(ball, t)]
            if cands:
                tris.append(rng.choice(cands))
                ball = close_under_faces(tris)
                continue
        tris.append(tuple(sorted(edge + (next_v,))))
        next_v += 1
        ball = close_under_faces(tris)
    return ball


def _ear_fill_keeps_ball(ball: Complex, tri) -> bool:
    new = close_under_faces(list(ball.top_simplexes()) + [tri])
    if new.f_vector()[2] != ball.f_vector()[2] + 1:
        return False
    try:
        bd = boundary_complex(new)
    except ValueError:
        return False
    # disk check: connected boundary cycle and euler characteristic 1
    return new.euler_characteristic() == 1 and bd.is_closed_pseudomanifold()


def random_ball_3d(rng: random.Random, n_tets: int) -> Complex:
    """Shellable 3-ball: tetrahedra stacked onto boundary triangles."""
    tets = [(0, 1, 2, 3)]
    ball = close_under_faces(tets)
    next_v = 4
    while ball.f_vector()[3] < n_tets:
        bd = boundary_complex(ball)
        tri = rng.choice(bd.simplexes_of_dim(2))
        tets.append(tuple(sorted(tri + (next_v,))))
        next_v += 1
        ball = close_under_faces(tets)
    return ball


def closed_ambient(ball: Complex) -> Complex:
    """Close a ball into a sphere-like pseudomanifold by coning its boundary."""
    w = ball.max_label() + 1
    return Complex(
        cone(w, boundary_complex(ball)).simplexes | ball.simplexes,
        _assume_closed=True,
    )


def random_chart_pair(
    rng: np.random.Generator, n_interior: int = 6
) -> tuple[GeomComplex, GeomComplex]:
    """Two Delaunay triangulations of the unit square sharing the region."""
    # imported on first call: nothing else in the package needs scipy's slow import
    from scipy.spatial import Delaunay

    def one() -> GeomComplex:
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        interior = rng.uniform(0.05, 0.95, size=(n_interior, 2))
        pts = np.vstack([corners, interior])
        tri = Delaunay(pts)
        coords = {i: pts[i] for i in range(len(pts))}
        return GeomComplex(
            close_under_faces([tuple(sorted(map(int, s))) for s in tri.simplices]),
            Geometry.EUCLIDEAN,
            coords,
        )

    return one(), one()
