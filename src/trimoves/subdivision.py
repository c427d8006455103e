"""Barycentric, iterated, and relative-partial subdivisions with carriers.

The carrier of a subdivision simplex is the smallest simplex of the parent
complex containing it; it is what makes skeleton counts and restriction to
a parent simplex computable.  Only vertex carriers are stored: a simplex's
carrier is the union of its vertices', as the support of a convex
combination is the union of the supports (Munkres, *Elements of Algebraic
Topology*, §§15–17).  Cone apexes are always fresh labels allocated in a
fixed canonical order (ascending parent dimension, then lexicographic), so
two runs on the same input produce identical complexes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import combinations
from math import comb
from typing import Callable, Hashable, Iterable, Iterator

from .complexes import Complex, Simplex, facets, join_simplexes


class ResourceCapExceeded(Exception):
    """Raised before a subdivision or an exact bound would exceed its size
    cap (a simplex count, or the digits of ``bounds.MAX_BOUND_DIGITS``)."""


class SubdivisionError(ValueError):
    """A carrier map fails ``SubdividedComplex.validate``."""


MAX_SIMPLEXES = 2_000_000  # default simplex ceiling of every subdivision builder


@dataclass(frozen=True)
class SubdividedComplex:
    """A subdivision of ``parent`` and the carriers of its vertices.

    ``vertex_carrier[v]`` is the smallest parent simplex containing v (for a
    surviving original vertex, v itself), and a simplex's carrier is the
    union of its vertices' (``carrier``).  ``apex_of`` maps each parent
    simplex that was coned during this construction to its fresh apex
    vertex (empty for identity subdivisions and restrictions).  Inside this
    module a carrier is a bitmask over the parent's sorted vertices, and
    every simplex's mask is computed once, on first use (``_masks``).
    """

    complex: Complex
    parent: Complex
    vertex_carrier: dict[int, Simplex]
    apex_of: dict[Simplex, int] = field(default_factory=dict)

    @cached_property
    def _order(self) -> list[int]:
        """The parent's vertices; bit i of a carrier mask is the i-th."""
        return self.parent.vertices()

    @cached_property
    def _masks(self) -> dict[Simplex, int]:
        """Each simplex's carrier mask, the OR of its vertices', in the
        order of ``complex.simplexes``.  A vertex whose carrier is missing
        or is not a parent simplex is a SubdivisionError."""
        bit = {v: 1 << i for i, v in enumerate(self._order)}
        vertex_mask = {}
        for v in self.complex.vertices():
            c = self.vertex_carrier.get(v)
            if c is None:
                raise SubdivisionError(f"carrier missing for {(v,)}")
            if c not in self.parent:
                raise SubdivisionError(f"carrier {c} of {(v,)} not in parent complex")
            vertex_mask[v] = sum(bit[u] for u in c)
        masks = {}
        for s in self.complex.simplexes:
            mask = 0
            for v in s:
                mask |= vertex_mask[v]
            masks[s] = mask
        return masks

    @cached_property
    def _index(self) -> dict[Simplex, set[Simplex]]:
        """The simplexes carried by each carrier."""
        by_mask: dict[int, set[Simplex]] = {}
        for s, mask in self._masks.items():
            by_mask.setdefault(mask, set()).add(s)
        return {self._simplex_of(mask): carried for mask, carried in by_mask.items()}

    def _simplex_of(self, mask: int) -> Simplex:
        out = []
        while mask:
            out.append(self._order[(mask & -mask).bit_length() - 1])
            mask &= mask - 1
        return tuple(out)

    def carrier(self, s: Simplex) -> Simplex:
        """The smallest parent simplex containing the simplex ``s``."""
        return self._simplex_of(self._masks[s])

    def validate(self) -> None:
        """Check the carriers; raise SubdivisionError naming the first
        simplex at fault.  Every vertex has a carrier, a parent simplex
        (``_masks``); so is each simplex's, checked once per distinct
        carrier; no simplex has fewer carrier vertices than vertices; and
        every parent simplex is a carrier.  A face's carrier is a union over
        fewer vertices, so carriers are monotone by construction, and no
        facet is visited.
        """
        index = self._index
        for c, carried in index.items():
            if c not in self.parent:
                raise SubdivisionError(f"carrier {c} of {min(carried)} not in parent complex")
        for s, mask in self._masks.items():
            if mask.bit_count() < len(s):
                raise SubdivisionError(f"carrier {self._simplex_of(mask)} too small for {s}")
        for p in self.parent.simplexes:
            if p not in index:
                raise SubdivisionError(f"parent simplex {p} has no subdividing simplex")

    def children_with_carrier_in(self, a: Simplex) -> set[Simplex]:
        """All subdivision simplexes whose carrier is a face of ``a``."""
        index = self._index
        out: set[Simplex] = set()
        for k in range(1, len(a) + 1):
            for f in combinations(a, k):
                out.update(index.get(f, ()))
        return out


def identity_subdivision(k: Complex) -> SubdividedComplex:
    return SubdividedComplex(k, k, {v: (v,) for v in k.vertices()})


def partial_relative(k: Complex, alpha: SubdividedComplex, r: int) -> SubdividedComplex:
    """Subdivision that keeps ``alpha`` on the r-skeleton and cones above.

    Parent simplexes of dimension at most ``r`` carry their alpha
    subdivision; each higher-dimensional simplex is replaced, inductively by
    dimension, with the cone on its already-subdivided boundary from a fresh
    apex.  With ``alpha`` the identity and ``r = 0`` this is the barycentric
    subdivision; with ``r = n`` it returns ``alpha`` itself.  Its vertices
    are alpha's carried in the r-skeleton, and the apexes, each carried by
    the simplex it cones.
    """
    if alpha.parent is not k and alpha.parent.simplexes != k.simplexes:
        raise ValueError("alpha must be a subdivision of k")
    n = k.dimension
    if not 0 <= r <= max(n, 0):
        raise ValueError(f"need 0 <= r <= {n}, got {r}")

    # sub[a]: the subdivision of the closed simplex a, built by dimension
    sub: dict[Simplex, set[Simplex]] = {}
    for d in range(r + 1):
        for a in k.simplexes_of_dim(d):
            children = alpha.children_with_carrier_in(a)
            if not children:
                raise ValueError(f"alpha has no simplexes carried by {a}")
            sub[a] = children
    above = [a for d in range(r + 1, n + 1) for a in k.simplexes_of_dim(d)]
    first_label = max(k.max_label(), alpha.complex.max_label()) + 1
    apex_of = dict(cone_faces(above, facets, sub, first_label))

    out: set[Simplex] = set()
    for a in k.maximal_simplexes():
        out |= sub[a]
    vertex_carrier = {v: c for v, c in alpha.vertex_carrier.items() if len(c) <= r + 1}
    vertex_carrier.update((apex, a) for a, apex in apex_of.items())
    return SubdividedComplex(Complex(out, _assume_closed=True), k, vertex_carrier, apex_of)


def cone_faces(
    faces: Iterable[Hashable],
    boundary_of: Callable[[Hashable], Iterable[Hashable]],
    sub: dict,
    first_label: int,
) -> Iterator[tuple[Hashable, int]]:
    """Cone each face, in the given order, over its subdivided boundary.

    Face i takes the fresh apex ``first_label + i`` and gets ``sub[face]``,
    the join of the apex with the union of ``sub[g]`` over the faces g in
    ``boundary_of(face)``, which must all be in ``sub`` by then.  Yields
    (face, apex).
    """
    for apex, face in enumerate(faces, first_label):
        boundary: set[Simplex] = set()
        for g in boundary_of(face):
            boundary |= sub[g]
        sub[face] = join_simplexes({(apex,)}, boundary)
        yield face, apex


def barycentric(k: Complex) -> SubdividedComplex:
    """β K: cone every positive-dimensional simplex over its subdivided
    boundary from a fresh barycenter vertex; original vertices survive."""
    return partial_relative(k, identity_subdivision(k), 0)


def compose_carriers(
    outer: SubdividedComplex, inner: SubdividedComplex
) -> SubdividedComplex:
    """Carrier composition: ``outer`` subdivides ``inner.complex`` which
    subdivides ``inner.parent``; the result carries ``outer.complex`` into
    ``inner.parent``.  Each vertex is mapped through ``inner``, and unions
    commute with that: ∪_v inner.carrier(outer.carrier(v)) over v ∈ s is
    inner.carrier(∪_v outer.carrier(v)) = inner.carrier(outer.carrier(s)).
    Each distinct carrier mask of ``inner`` is decoded once."""
    if outer.parent.simplexes != inner.complex.simplexes:
        raise ValueError("outer must subdivide inner.complex")
    masks, decode = inner._masks, cache(inner._simplex_of)
    vertex_carrier = {v: decode(masks[c]) for v, c in outer.vertex_carrier.items()}
    return SubdividedComplex(outer.complex, inner.parent, vertex_carrier, dict(outer.apex_of))


def barycentric_f_vector(f: tuple[int, ...], m: int) -> tuple[int, ...]:
    """f-vector of β^m K from that of K, by f_j(βK) = Σ_i f_i(K)·(j+1)!·S(i+1,
    j+1) with S the Stirling numbers of the second kind: the j-simplexes of
    βK inside an i-simplex are the chains of j + 1 of its faces ending at
    it, one per map of its i + 1 vertices onto j + 1 levels."""
    for _ in range(m):
        f = tuple(
            sum(f_i * _onto(i + 1, j + 1) for i, f_i in enumerate(f)) for j in range(len(f))
        )
    return f


def _onto(a: int, b: int) -> int:
    """Maps of an a-set onto a b-set, b!·S(a, b), by inclusion-exclusion."""
    return sum((-1) ** k * comb(b, k) * (b - k) ** a for k in range(b + 1))


def iterated_barycentric(
    k: Complex, m: int, *, max_simplexes: int = MAX_SIMPLEXES
) -> SubdividedComplex:
    """β^m K with the carrier composed all the way down into K.  Raises
    ResourceCapExceeded before any build when β^m K would be too large."""
    if m < 0:
        raise ValueError("m must be non-negative")
    total = sum(barycentric_f_vector(k.f_vector(), m))
    if m and total > max_simplexes:
        raise ResourceCapExceeded(
            f"β^{m} would have {total} simplexes, above the cap {max_simplexes}"
        )
    current = identity_subdivision(k)
    for _ in range(m):
        current = compose_carriers(barycentric(current.complex), current)
    return current


def skeleton_counts(sub: SubdividedComplex) -> tuple[int, ...]:
    """s_i: number of i-simplexes of the subdivision whose carrier is
    i-dimensional, i.e. the ones lying in the i-skeleton of the parent."""
    counts = [0] * (sub.parent.dimension + 1)
    for s, mask in sub._masks.items():
        if mask.bit_count() == len(s):
            counts[len(s) - 1] += 1
    return tuple(counts)
