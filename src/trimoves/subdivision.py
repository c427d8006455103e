"""Barycentric, iterated, and relative-partial subdivisions with carriers.

The carrier of a subdivision simplex is the smallest simplex of the parent
complex containing it; it is what makes skeleton counts and restriction to
a parent simplex computable.  Cone apexes are always fresh labels allocated
in a fixed canonical order (ascending parent dimension, then lexicographic),
so two runs on the same input produce identical complexes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
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
    """A subdivision of ``parent`` together with its carrier map.

    ``carrier[s]`` is the smallest parent simplex containing ``s``; for a
    surviving original simplex it is the simplex itself.  ``apex_of`` maps
    each parent simplex that was coned during this construction to its
    fresh apex vertex (empty for identity subdivisions and restrictions).
    """

    complex: Complex
    parent: Complex
    carrier: dict[Simplex, Simplex]
    apex_of: dict[Simplex, int] = field(default_factory=dict)

    def validate(self) -> None:
        """Check carrier totality, monotonicity and parent coverage; raise
        SubdivisionError naming the first simplex at fault."""
        for s in self.complex.simplexes:
            c = self.carrier.get(s)
            if c is None:
                raise SubdivisionError(f"carrier missing for {s}")
            if c not in self.parent:
                raise SubdivisionError(f"carrier {c} of {s} not in parent complex")
            if len(c) < len(s):
                raise SubdivisionError(f"carrier {c} too small for {s}")
            cs = set(c)
            for f in facets(s):
                if not cs.issuperset(self.carrier[f]):
                    raise SubdivisionError(f"carrier not monotone at {f} < {s}")
        covered = {self.carrier[s] for s in self.complex.simplexes}
        for p in self.parent.simplexes:
            if p not in covered:
                raise SubdivisionError(f"parent simplex {p} has no subdividing simplex")

    def children_with_carrier_in(self, a: Simplex) -> set[Simplex]:
        """All subdivision simplexes whose carrier is a face of ``a``."""
        idx = self._carrier_index()
        out: set[Simplex] = set()
        for k in range(1, len(a) + 1):
            for f in combinations(a, k):
                out.update(idx.get(f, ()))
        return out

    def _carrier_index(self) -> dict[Simplex, set[Simplex]]:
        idx = getattr(self, "_idx", None)
        if idx is None:
            idx = {}
            for s, c in self.carrier.items():
                idx.setdefault(c, set()).add(s)
            object.__setattr__(self, "_idx", idx)
        return idx


def identity_subdivision(k: Complex) -> SubdividedComplex:
    return SubdividedComplex(k, k, {s: s for s in k.simplexes})


def partial_relative(k: Complex, alpha: SubdividedComplex, r: int) -> SubdividedComplex:
    """Subdivision that keeps ``alpha`` on the r-skeleton and cones above.

    Parent simplexes of dimension at most ``r`` carry their alpha
    subdivision; each higher-dimensional simplex is replaced, inductively by
    dimension, with the cone on its already-subdivided boundary from a fresh
    apex.  With ``alpha`` the identity and ``r = 0`` this is the barycentric
    subdivision; with ``r = n`` it returns ``alpha`` itself.
    """
    if alpha.parent is not k and alpha.parent.simplexes != k.simplexes:
        raise ValueError("alpha must be a subdivision of k")
    n = k.dimension
    if not 0 <= r <= max(n, 0):
        raise ValueError(f"need 0 <= r <= {n}, got {r}")
    for s in alpha.complex.simplexes:
        c = alpha.carrier.get(s)
        if c is None:
            raise ValueError(f"carrier missing for {s}")
        if c not in k:
            raise ValueError(f"carrier {c} of {s} is not a simplex of the parent")

    # sub[a]: the subdivision of the closed simplex a, built by dimension
    sub: dict[Simplex, set[Simplex]] = {}
    carrier: dict[Simplex, Simplex] = {}
    apex_of: dict[Simplex, int] = {}

    for d in range(r + 1):
        for a in k.simplexes_of_dim(d):
            children = alpha.children_with_carrier_in(a)
            if not children:
                raise ValueError(f"alpha has no simplexes carried by {a}")
            sub[a] = children
            for s in children:
                carrier[s] = alpha.carrier[s]
    above = [a for d in range(r + 1, n + 1) for a in k.simplexes_of_dim(d)]
    first_label = max(k.max_label(), alpha.complex.max_label()) + 1
    for a, apex, cone in cone_faces(above, facets, sub, first_label):
        apex_of[a] = apex
        for s in cone:
            carrier[s] = a

    out: set[Simplex] = set()
    for a in k.maximal_simplexes():
        out |= sub[a]
    result = Complex(out, _assume_closed=True)
    carrier = {s: carrier[s] for s in result.simplexes}
    return SubdividedComplex(result, k, carrier, apex_of)


def cone_faces(
    faces: Iterable[Hashable],
    boundary_of: Callable[[Hashable], Iterable[Hashable]],
    sub: dict,
    first_label: int,
) -> Iterator[tuple[Hashable, int, set[Simplex]]]:
    """Cone each face, in the given order, over its subdivided boundary.

    Face i takes the fresh apex ``first_label + i`` and gets ``sub[face]``,
    the join of the apex with the union of ``sub[g]`` over the faces g in
    ``boundary_of(face)``, which must all be in ``sub`` by then.  Yields
    (face, apex, the simplexes of the cone that contain the apex).
    """
    for apex, face in enumerate(faces, first_label):
        boundary: set[Simplex] = set()
        for g in boundary_of(face):
            boundary |= sub[g]
        sub[face] = join_simplexes({(apex,)}, boundary)
        yield face, apex, sub[face] - boundary


def barycentric(k: Complex) -> SubdividedComplex:
    """β K: cone every positive-dimensional simplex over its subdivided
    boundary from a fresh barycenter vertex; original vertices survive."""
    return partial_relative(k, identity_subdivision(k), 0)


def compose_carriers(
    outer: SubdividedComplex, inner: SubdividedComplex
) -> SubdividedComplex:
    """Carrier composition: ``outer`` subdivides ``inner.complex`` which
    subdivides ``inner.parent``; the result carries ``outer.complex`` into
    ``inner.parent`` by taking the smallest containing parent simplex."""
    if outer.parent.simplexes != inner.complex.simplexes:
        raise ValueError("outer must subdivide inner.complex")
    carrier = {s: inner.carrier[outer.carrier[s]] for s in outer.complex.simplexes}
    return SubdividedComplex(outer.complex, inner.parent, carrier, dict(outer.apex_of))


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
    n = sub.parent.dimension
    counts = [0] * (n + 1)
    for s in sub.complex.simplexes:
        i = len(s) - 1
        if len(sub.carrier[s]) - 1 == i:
            counts[i] += 1
    return tuple(counts)
