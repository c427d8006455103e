"""Common geometric subdivision via convex clipping in linear charts.

Top simplexes of the two complexes are intersected pairwise by successive
half-space clipping with one of two clippers: a cycle in 2D
(Sutherland-Hodgman, which keeps the polygon's order), a labelled vertex
set in 1D and 3D (edges read off shared plane labels), in one loop for the
plane and the torus (``_clip_tops``).
Every pair is clipped, but a clip first tries the outcode trivial reject of
Cohen-Sutherland clipping (all subject vertices beyond one clipper plane),
which answers most pairs, and on the torus the translates of all subjects
are built in one broadcast per clipping simplex.
Each clip vertex carries the set of defining hyperplanes, which is what
reconstructs the face lattice of a cell.  The labels also name the
vertex's carriers, the smallest faces of the two parent simplexes that
contain it, and that pair is its key: cells are glued into one polytopal
complex by identifying vertices with equal carrier keys (``_assemble``).
The barycentric subdivision of the result is a simplicial complex that
subdivides both parents; it records the carriers of its vertices, and a
simplex's carriers are the unions of its vertices'.

The one closed-manifold path supported end to end is the flat torus
R^d/(period Z)^d for d <= 2: per pair, the translates of one lifted
simplex are enumerated against the other, and the strong-convexity
precondition (simplex diameters below twice the convexity radius) is what
guarantees at most one translate meets.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from operator import mul
from typing import Optional

import numpy as np

from .bounds import commonsub_rows, commonsub_violation
from .complexes import Complex, Simplex
from .geometry import GeomComplex, Geometry, diameter, torus_wrap
from .subdivision import SubdividedComplex, cone_faces, skeleton_counts

MERGE_TOL = 1e-9
MIN_MEASURE = 1e-12

# vertex labels of a subject simplex with k vertices: vertex i lies on the
# facet plane opposite every other vertex
_SUBJECT_LABELS = {
    k: [frozenset(("sub", f) for f in range(k) if f != i) for i in range(k)]
    for k in (2, 3, 4)
}


class IntersectionError(Exception):
    pass


# -- clipping ------------------------------------------------------------


def _affine_coords(simplex_pts: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Barycentric coordinates of x with respect to simplex_pts rows; for
    one point per row of x, one column of coordinates per point."""
    k = simplex_pts.shape[0]
    a = np.vstack([simplex_pts.T, np.ones(k)])
    b = np.concatenate([x.T, np.ones((1,) + x.shape[:-1])])
    coords, *_ = np.linalg.lstsq(a, b, rcond=None)
    return coords


def simplex_halfspaces(pts: np.ndarray) -> list[tuple]:
    """Facet half-spaces (normal, offset, label, reject) of a
    full-dimensional simplex: normal . x <= offset holds inside, and
    ``reject`` is (the normal as Python floats, offset + 2 MERGE_TOL), the
    plane of ``clip_simplex_pair``'s trivial reject."""
    k, d = pts.shape
    if k != d + 1:
        raise IntersectionError("half-spaces need a full-dimensional simplex")
    out = []
    for i in range(k):
        rest = np.delete(pts, i, axis=0)
        base = rest[0]
        if d == 1:
            normal = np.array([1.0])
        else:
            span = rest[1:] - base
            _, _, vh = np.linalg.svd(np.vstack([span, np.zeros((1, d))]))
            normal = vh[-1]
        offset = float(normal @ base)
        if normal @ pts[i] > offset:
            normal, offset = -normal, -offset
        out.append((normal, offset, ("cut", i), (normal.tolist(), offset + 2 * MERGE_TOL)))
    return out


def _crosses(a: float, b: float) -> bool:
    """Whether a clip step cuts the edge whose ends lie at signed distances
    a and b from its plane: one more than MERGE_TOL beyond it, the other
    more than MERGE_TOL inside."""
    return (a > MERGE_TOL and b < -MERGE_TOL) or (a < -MERGE_TOL and b > MERGE_TOL)


def _clip_polygon(pts, labels, normal, offset, label):
    """Sutherland-Hodgman step preserving cycle order and vertex labels."""
    out_pts, out_labels = [], []
    m = len(pts)
    d = [float(p @ normal - offset) for p in pts]
    for i in range(m):
        j = (i + 1) % m
        if d[i] <= MERGE_TOL:
            lab = set(labels[i])
            if abs(d[i]) <= MERGE_TOL:
                lab.add(label)
            out_pts.append(pts[i])
            out_labels.append(frozenset(lab))
        if _crosses(d[i], d[j]):
            t = d[i] / (d[i] - d[j])
            x = pts[i] + t * (pts[j] - pts[i])
            out_pts.append(x)
            out_labels.append(frozenset(labels[i] & labels[j]) | {label})
    return _dedupe_cycle(out_pts, out_labels)


def _dist(p, q) -> float:
    """Euclidean distance, computed as np.linalg.norm does for a real
    vector, without its dispatch."""
    v = p - q
    return math.sqrt(v @ v)


def _dedupe_cycle(pts, labels):
    keep_pts, keep_labels = [], []
    for p, l in zip(pts, labels):
        if keep_pts and _dist(p, keep_pts[-1]) < MERGE_TOL:
            keep_labels[-1] = keep_labels[-1] | l
            continue
        keep_pts.append(p)
        keep_labels.append(l)
    if len(keep_pts) > 1 and _dist(keep_pts[0], keep_pts[-1]) < MERGE_TOL:
        keep_labels[0] = keep_labels[0] | keep_labels[-1]
        keep_pts.pop()
        keep_labels.pop()
    return keep_pts, keep_labels


def _clip_vertex_set(pts, labels, normal, offset, label):
    """Clip a labelled convex vertex set in dimension d (1 or 3); its edges
    are the vertex pairs whose label sets share at least d - 1 planes: any
    two points of a segment, the pairs on two common facets of a polyhedron.
    An end within MERGE_TOL of the plane is kept and labelled with it, and
    no edge through it is cut (``_crosses``)."""
    shared = len(normal) - 1
    d = [float(p @ normal - offset) for p in pts]
    new_pts, new_labels = [], []
    for i in range(len(pts)):
        if d[i] <= MERGE_TOL:
            lab = set(labels[i])
            if abs(d[i]) <= MERGE_TOL:
                lab.add(label)
            new_pts.append(pts[i])
            new_labels.append(frozenset(lab))
    for i, j in combinations(range(len(pts)), 2):
        if len(labels[i] & labels[j]) < shared:
            continue
        if _crosses(d[i], d[j]):
            t = d[i] / (d[i] - d[j])
            x = pts[i] + t * (pts[j] - pts[i])
            new_pts.append(x)
            new_labels.append(frozenset(labels[i] & labels[j]) | {label})
    return _dedupe_pointset(new_pts, new_labels)


def _dedupe_pointset(pts, labels):
    keep_pts: list[np.ndarray] = []
    keep_labels: list[frozenset] = []
    for p, l in zip(pts, labels):
        for i, q in enumerate(keep_pts):
            if _dist(p, q) < MERGE_TOL:
                keep_labels[i] = keep_labels[i] | l
                break
        else:
            keep_pts.append(p)
            keep_labels.append(l)
    return keep_pts, keep_labels


def clip_simplex_pair(sub_pts: np.ndarray, halfspaces):
    """Clip a full-dimensional subject simplex by the half-spaces of another
    (``simplex_halfspaces``); returns (pts, labels) of the clipped cell,
    with labels drawn from both simplexes' facet planes.

    It starts with the outcode trivial reject of Cohen-Sutherland clipping:
    if for one clipper plane every subject vertex p has n . p > offset +
    2 MERGE_TOL, in Python floats, the cell is empty and is returned at
    once.  The reject is exact with respect to the stepwise clip
    (``_clip_steps``).  Every point that clip makes is a convex combination
    of subject vertices, so at that plane each has n . p - offset >
    MERGE_TOL: the step keeps no point (it keeps those within MERGE_TOL) and
    cuts no edge (a cut needs one end below -MERGE_TOL), so the clip is
    empty there if not before.  One MERGE_TOL is the step's own tolerance;
    the other absorbs the last-bit gap between numpy's ``p @ normal``, which
    may fuse the multiply-add, and Python arithmetic, and the rounding of
    the clip points: a few ulps on coordinates of order one.
    """
    sub = sub_pts.tolist()
    for _, _, _, (coeffs, limit) in halfspaces:
        for p in sub:
            if sum(map(mul, coeffs, p)) <= limit:
                break
        else:
            return [], []
    return _clip_steps(sub_pts, halfspaces)


def _clip_steps(sub_pts: np.ndarray, halfspaces):
    """The subject simplex clipped by each half-space in turn: as a cycle
    in 2D, as a vertex set in 1D and 3D."""
    clip = _clip_polygon if sub_pts.shape[1] == 2 else _clip_vertex_set
    labels = _SUBJECT_LABELS[sub_pts.shape[0]]
    pts = list(sub_pts)
    for normal, offset, cut_label, _ in halfspaces:
        pts, labels = clip(pts, labels, normal, offset, cut_label)
        if not pts:
            return [], []
    return pts, labels


def cell_measure(dim: int, pts: list[np.ndarray], lattice) -> float:
    """Length, area or volume of a clipped cell; ``lattice`` is its
    ``cell_face_lattice`` (the 3D case sums over its 2-faces)."""
    if len(pts) <= dim:
        return 0.0
    if dim == 1:
        return float(abs(pts[1][0] - pts[0][0]))
    if dim == 2:
        arr = np.asarray(pts)
        x, y = arr[:, 0], arr[:, 1]
        return float(abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))) / 2)
    center = np.mean(np.asarray(pts), axis=0)
    vol = 0.0
    for cyc in lattice[2]:
        poly = [pts[i] for i in cyc]
        for i in range(1, len(poly) - 1):
            mat = np.stack([poly[0] - center, poly[i] - center, poly[i + 1] - center])
            vol += abs(np.linalg.det(mat)) / 6.0
    return vol


def _order_cycle(pts, idxs):
    """Order vertex indices of a planar convex polygon in 3D into a cycle."""
    arr = np.asarray([pts[i] for i in idxs])
    rel = arr - arr.mean(axis=0)
    _, _, vh = np.linalg.svd(rel)
    order = np.argsort(np.arctan2(rel @ vh[1], rel @ vh[0]))
    cyc = [idxs[i] for i in order]
    # rotate so the lexicographically smallest index leads, fix orientation
    k = cyc.index(min(cyc))
    cyc = cyc[k:] + cyc[:k]
    if cyc[-1] < cyc[1]:
        cyc = [cyc[0]] + cyc[1:][::-1]
    return cyc


def cell_face_lattice(dim: int, pts, labels):
    """Local faces by dimension: 0-faces as singletons, 1-faces as index
    pairs, 2-faces as ordered cycles.  A 2D cell's points are a cycle as
    clipped (Sutherland-Hodgman keeps the order); in 3D the plane labels
    identify the facets."""
    n = len(pts)
    faces: dict[int, list[tuple]] = {0: [(i,) for i in range(n)]}
    if dim == 1:
        if n != 2:
            raise IntersectionError("degenerate 1-cell")
        faces[1] = [tuple(range(n))]
        return faces
    if dim == 2:
        faces[1] = [tuple(sorted((i, (i + 1) % n))) for i in range(n)]
        faces[2] = [tuple(range(n))]
        return faces
    # dim == 3: facets from shared plane labels
    by_plane: dict[tuple, list[int]] = {}
    for i, lab in enumerate(labels):
        for plane in lab:
            by_plane.setdefault(plane, []).append(i)
    facet_cycles = []
    seen = set()
    for plane, idxs in sorted(by_plane.items()):
        if len(idxs) < 3:
            continue
        key = frozenset(idxs)
        if key in seen or len(key) == n:
            continue
        seen.add(key)
        facet_cycles.append(tuple(_order_cycle(pts, sorted(idxs))))
    edges = set()
    for cyc in facet_cycles:
        m = len(cyc)
        for i in range(m):
            edges.add(tuple(sorted((cyc[i], cyc[(i + 1) % m]))))
    faces[1] = sorted(edges)
    faces[2] = facet_cycles
    faces[3] = [tuple(range(n))]
    return faces


# -- global assembly -------------------------------------------------------


@dataclass
class ConvexCell:
    """A top-dimensional cell: global vertex ids (2-cells as an ordered
    cycle), its lift, the local face lattice, and where it came from."""

    vertex_ids: tuple[int, ...]
    lift: np.ndarray
    faces_by_dim: dict
    provenance: tuple[Simplex, Simplex]
    measure: float


@dataclass
class FaceRec:
    dim: int
    vids: tuple[int, ...]
    lift: np.ndarray
    boundary: set = field(default_factory=set)


@dataclass
class PolytopalComplex:
    """Identified face poset of all pairwise intersection cells; vertex i
    has the carrier pair ``vertex_carriers[i]``."""

    dim: int
    vertices: dict[int, np.ndarray]
    vertex_carriers: list[tuple[Simplex, Simplex]]
    cells: list[ConvexCell]
    faces: dict[tuple[int, ...], FaceRec]
    period: Optional[float]
    discarded: list = field(default_factory=list)

    def total_measure(self) -> float:
        return sum(c.measure for c in self.cells)

    def faces_of_dim(self, d: int) -> list[FaceRec]:
        return sorted(
            (f for f in self.faces.values() if f.dim == d), key=lambda f: f.vids
        )


def _clip_tops(k1: GeomComplex, k2: GeomComplex, period: Optional[float]):
    """Clip every top simplex of ``k2`` by every top simplex of ``k1``, in a
    fixed order.  On the torus the subject is moved to the translate
    nearest the clipper and clipped in all 3^d shifts of it, and a pair may
    meet in one shift only; on the plane it is clipped as lifted.  The
    translates of all subjects are built in one broadcast per clipper, as
    (c2 + period round((a1 - a2) / period)) + shift with each top's own
    centroid a2: the same operations in the same order as one subject at a
    time, so every chart is bit-identical to that.

    Returns the positive-measure cells as (points, point labels, face
    lattice, (s1, s2), measure, the two charts clipped with), and the
    ((s1, s2), measure) of the zero-measure clips.
    """
    dim = k1.complex.dimension
    tops2 = k2.complex.top_simplexes()
    lifts2 = [k2.lift(s2) for s2 in tops2]
    c2 = np.array(lifts2)
    if period is not None:
        a2 = np.array([lift.mean(axis=0) for lift in lifts2])
        shifts = np.array(list(np.ndindex(*(3,) * dim)), dtype=float)[:, None] * period - period
    cells, discarded = [], []
    for s1 in k1.complex.top_simplexes():
        c1 = k1.lift(s1)
        a1 = c1.mean(axis=0)
        halfspaces = simplex_halfspaces(c1)
        if period is None:
            subjects = c2[:, None]
        else:
            aligned = c2 + period * np.round((a1 - a2) / period)[:, None]
            subjects = aligned[:, None] + shifts
        for s2, translates in zip(tops2, subjects):
            hits = []
            for chart2 in translates:
                pts, labels = clip_simplex_pair(chart2, halfspaces)
                if not pts:
                    continue
                lattice = cell_face_lattice(dim, pts, labels) if len(pts) > dim else None
                measure = cell_measure(dim, pts, lattice)
                if measure >= MIN_MEASURE:
                    # copies: a kept cell holds no view of the whole batch
                    charts = (c1, chart2.copy())
                    hits.append((np.array(pts), labels, lattice, (s1, s2), measure, charts))
                else:
                    discarded.append(((s1, s2), measure))
            if len(hits) > 1:
                raise IntersectionError(
                    f"pair ({s1}, {s2}) meets in several translates; "
                    "diameter precondition violated"
                )
            cells += hits
    return cells, discarded


def _label_carriers(prov: tuple[Simplex, Simplex], labels: frozenset) -> tuple[Simplex, Simplex]:
    """The smallest faces of s1 and s2 containing a clip vertex, read off
    its labels: ("cut", i) puts it on the facet of s1 opposite s1[i], and
    ("sub", f) on the facet of s2 opposite s2[f]."""
    s1, s2 = prov
    return (
        tuple(v for i, v in enumerate(s1) if ("cut", i) not in labels),
        tuple(v for f, v in enumerate(s2) if ("sub", f) not in labels),
    )


def _assemble(cells: list, dim: int, period: Optional[float], discarded: list) -> PolytopalComplex:
    """Glue the cells into one complex, identifying each clip vertex by its
    carrier pair (σ, τ), the smallest faces of s1 and s2 containing it.

    The key is exact: a vertex p of a cell C = s1 ∩ s2 lies in relint σ ∩
    relint τ.  Were a second point p′ keyed (σ, τ), the segment [p, p′]
    would lie in that relatively open convex set, so it would extend past
    p inside C, and p would not be extreme in C.  On the torus the two
    translates of τ that p and p′ lie in would differ by a lattice vector,
    of length at least the period, yet p and p′ lie within diam σ + diam τ
    < period of each other (the diameter precondition of
    ``torus_intersect``).  The first point seen under a key, wrapped onto
    the torus, gives the vertex its coordinates, and the keys in id order
    are the vertex carriers.  A face's carriers are the unions of its
    vertices' (the barycentric support of a convex combination is the
    union of the supports), so faces keep none.
    """
    ids: dict[tuple[Simplex, Simplex], int] = {}
    vertices: dict[int, np.ndarray] = {}
    out: list[ConvexCell] = []
    faces: dict[tuple, FaceRec] = {}
    for pts, labels, lattice, prov, measure, charts in cells:
        arr = np.asarray(pts)
        if any(np.any(_affine_coords(chart, arr) < -1e-6) for chart in charts):
            raise IntersectionError(f"cell vertex of pair {prov} escapes its provenance simplex")
        vids = [ids.setdefault(_label_carriers(prov, lab), len(ids)) for lab in labels]
        if len(set(vids)) != len(vids):
            raise IntersectionError(f"cell of pair {prov} collapsed under merging")
        for p, vid in zip(pts, vids):
            if vid not in vertices:
                vertices[vid] = torus_wrap(p, period)
        cell_vids = tuple(vids[i] for i in lattice[dim][0])
        out.append(ConvexCell(cell_vids, arr, lattice, prov, measure))
        # a face's lift comes from the first cell (in the fixed order) with
        # it; a D-face's boundary is the (D-1)-faces with subset vids, from
        # every cell
        for d in range(dim + 1):
            for local in lattice[d]:
                key = tuple(sorted(vids[i] for i in local))
                rec = faces.get(key)
                if rec is None:
                    rec = faces[key] = FaceRec(d, key, arr[list(local)])
                lset = set(local)
                rec.boundary.update(
                    tuple(sorted(vids[i] for i in lower))
                    for lower in lattice.get(d - 1, ())
                    if set(lower) <= lset
                )
    return PolytopalComplex(dim, vertices, list(ids), out, faces, period, discarded)


# -- public operations -------------------------------------------------------


def _check_euclidean(gk: GeomComplex) -> None:
    if gk.tag != Geometry.EUCLIDEAN:
        raise IntersectionError(
            "intersection works in linear charts; project curved inputs first"
        )


def intersect_linear(k1: GeomComplex, k2: GeomComplex) -> PolytopalComplex:
    """All pairwise intersections of top simplexes of two triangulations of
    the same linear region, with identified faces."""
    _check_euclidean(k1)
    _check_euclidean(k2)
    dim = k1.complex.dimension
    if dim != k2.complex.dimension or not 1 <= dim <= 3:
        raise IntersectionError("matching dimensions 1..3 required")
    region1 = sum(_top_measure(k1, s) for s in k1.complex.top_simplexes())
    region2 = sum(_top_measure(k2, s) for s in k2.complex.top_simplexes())
    if abs(region1 - region2) > 1e-6 * max(region1, region2):
        raise IntersectionError("the two complexes do not cover the same region")
    cells, discarded = _clip_tops(k1, k2, None)
    poly = _assemble(cells, dim, None, discarded)
    if abs(poly.total_measure() - region1) > 1e-6 * region1:
        raise IntersectionError("intersection cells do not conserve the region measure")
    return poly


def _top_measure(gk: GeomComplex, s: Simplex) -> float:
    pts = gk.lift(s)
    mat = pts[1:] - pts[0]
    return abs(float(np.linalg.det(mat))) / math.factorial(pts.shape[0] - 1)


def torus_intersect(k1: GeomComplex, k2: GeomComplex) -> PolytopalComplex:
    """Pairwise intersections on the flat torus by enumerating fundamental
    translates of one lifted simplex against the other."""
    if k1.period is None or k2.period is None or k1.period != k2.period:
        raise IntersectionError("both complexes must share one torus period")
    period = k1.period
    dim = k1.complex.dimension
    if dim not in (1, 2):
        raise IntersectionError("torus intersection supports dimensions 1 and 2")
    bound = period / 2  # 2 r(M) = inj(M) = period/2
    for gk in (k1, k2):
        for s in gk.complex.top_simplexes():
            d = diameter(gk.geom_simplex(s))
            if d >= bound:
                raise IntersectionError(
                    f"simplex {s} has diameter {d:.4f} >= 2 r(M) = {bound}"
                )
    cells, _ = _clip_tops(k1, k2, period)  # zero-measure clips are not recorded
    poly = _assemble(cells, dim, period, [])
    region = period**dim
    if abs(poly.total_measure() - region) > 1e-6 * region:
        raise IntersectionError("torus cells do not conserve the region measure")
    return poly


@dataclass
class CommonSubdivision:
    """β of the intersection complex: one simplicial complex that subdivides
    both parents, as ``side1`` and ``side2``, with coordinates for every
    vertex."""

    side1: SubdividedComplex
    side2: SubdividedComplex
    coords: dict[int, np.ndarray]
    period: Optional[float]

    @property
    def complex(self) -> Complex:
        return self.side1.complex

    def as_geom(self) -> GeomComplex:
        return GeomComplex(self.complex, Geometry.EUCLIDEAN, dict(self.coords), self.period)


def barycentric_polytopal(
    poly: PolytopalComplex, k1: GeomComplex, k2: GeomComplex
) -> CommonSubdivision:
    """Cone every cell over its subdivided boundary, by ascending dimension,
    with the barycenter at the cell's chart centroid, which each parent
    carries by the union of the face's vertices' carriers."""
    coords: dict[int, np.ndarray] = dict(poly.vertices)
    carrier1 = {vid: c1 for vid, (c1, _) in enumerate(poly.vertex_carriers)}
    carrier2 = {vid: c2 for vid, (_, c2) in enumerate(poly.vertex_carriers)}
    sub: dict[tuple, set[Simplex]] = {rec.vids: {rec.vids} for rec in poly.faces_of_dim(0)}
    keys = [rec.vids for d in range(1, poly.dim + 1) for rec in poly.faces_of_dim(d)]
    cones = cone_faces(keys, lambda key: poly.faces[key].boundary, sub, len(poly.vertices))
    for key, apex in cones:
        coords[apex] = torus_wrap(np.mean(poly.faces[key].lift, axis=0), poly.period)
        carrier1[apex] = tuple(sorted(set().union(*(carrier1[v] for v in key))))
        carrier2[apex] = tuple(sorted(set().union(*(carrier2[v] for v in key))))
    out: set[Simplex] = set()
    for cell in poly.cells:
        out |= sub[tuple(sorted(cell.vertex_ids))]
    complex_ = Complex(out)  # validated: the cone construction must be closed
    return CommonSubdivision(
        SubdividedComplex(complex_, k1.complex, carrier1),
        SubdividedComplex(complex_, k2.complex, carrier2),
        coords,
        poly.period,
    )


def commonsub_count_check(
    k1: GeomComplex, k2: GeomComplex, common: CommonSubdivision
) -> dict:
    """The count bound on both sides ("all_ok" and "violation" cover both;
    "skeleton" lists side 1's rows), plus measure conservation."""
    n = k1.complex.dimension
    rows = commonsub_rows(
        skeleton_counts(common.side1),
        skeleton_counts(common.side2),
        k1.complex.f_vector(),
        k2.complex.f_vector(),
    )
    violation = commonsub_violation(rows)
    gk = common.as_geom()
    total = sum(_top_measure(gk, t) for t in common.complex.top_simplexes())
    if common.period is not None:
        region = common.period**n
    else:
        region = sum(_top_measure(k1, t) for t in k1.complex.top_simplexes())
    return {
        "skeleton": rows[1],
        "all_ok": violation is None,
        "violation": violation,
        "measure": total,
        "region": region,
        "measure_ok": abs(total - region) <= 1e-6 * max(region, 1e-300),
    }
