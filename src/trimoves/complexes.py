"""Abstract simplicial complexes with canonical vertex-tuple simplexes.

A simplex is a strictly increasing tuple of non-negative integer vertex
labels.  A ``Complex`` is an immutable value holding its full
downward-closed simplex set, so membership and equality are plain set
operations, and the sorted list of its maximal simplexes, which fixes it
and is what purity, the pseudomanifold test, the top simplexes and the
digest read; every operation returns a new one.  ``WorkingComplex``, the
mutable complex that moves are applied to, holds only its maximal
simplexes, indexed by vertex, and answers every face query from them,
the isomorphism search's included; it is the one per-vertex index.
``facet_mates`` is the one pairing of top simplexes across ridges: the
pseudomanifold test, the signature (through ``top_adjacency``) and the
shelling boundary read it.
"""
from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, permutations, repeat
from typing import Collection, Iterable, Iterator, Optional, Sequence

import orjson

Vertex = int
Simplex = tuple[int, ...]


def simplex(vertices: Iterable[int]) -> Simplex:
    """Canonicalise an iterable of vertex labels into a simplex tuple."""
    s = tuple(sorted(vertices))
    if not s:
        raise ValueError("a simplex needs at least one vertex")
    if len(set(s)) != len(s):
        raise ValueError(f"duplicate vertices in {s}")
    if any(v < 0 for v in s):
        raise ValueError(f"negative vertex label in {s}")
    return s


def faces(s: Simplex) -> Iterator[Simplex]:
    """All nonempty faces of ``s``, including ``s`` itself."""
    return chain.from_iterable(map(combinations, repeat(s), range(1, len(s) + 1)))


def facets(s: Simplex) -> Iterator[Simplex]:
    """Codimension-one faces of ``s``."""
    return combinations(s, len(s) - 1) if len(s) > 1 else iter(())


class Complex:
    """A finite, downward-closed set of simplexes and its sorted maximal
    simplexes, found on first use or handed over by a snapshot.  It keeps
    no per-vertex index; ``WorkingComplex(k)`` answers face queries."""

    __slots__ = ("_simplexes", "_dim", "_maximal", "_fvec", "_hash", "_digest")

    def __init__(self, simplexes: Iterable[Simplex], *, _assume_closed: bool = False):
        simps = frozenset(simplexes)
        if not _assume_closed:
            # facets suffice: by induction on dimension, a set holding every
            # facet of each of its members holds every face of them
            for s in simps:
                if not isinstance(s, tuple) or tuple(sorted(set(s))) != s or not s:
                    raise ValueError(f"not a canonical simplex: {s!r}")
                for f in facets(s):
                    if f not in simps:
                        raise ValueError(f"complex not closed under faces: {f} missing from {s}")
        self._simplexes = simps
        self._dim = max(map(len, simps), default=0) - 1
        self._maximal: Optional[tuple[Simplex, ...]] = None
        self._fvec: Optional[tuple[int, ...]] = None
        self._hash: Optional[int] = None
        self._digest: Optional[str] = None

    # -- construction -------------------------------------------------

    @classmethod
    def from_maximal(cls, maximal: Iterable[Iterable[int]]) -> "Complex":
        """Smallest downward-closed complex containing the given simplexes."""
        out: set[Simplex] = set()
        for m in maximal:
            out.update(faces(simplex(m)))
        return cls(out, _assume_closed=True)

    @classmethod
    def empty(cls) -> "Complex":
        return cls(frozenset(), _assume_closed=True)

    # -- basic queries -------------------------------------------------

    @property
    def simplexes(self) -> frozenset[Simplex]:
        return self._simplexes

    @property
    def dimension(self) -> int:
        return self._dim

    def __contains__(self, s) -> bool:
        return s in self._simplexes

    def __len__(self) -> int:
        return len(self._simplexes)

    def __iter__(self) -> Iterator[Simplex]:
        return iter(self._simplexes)

    def __eq__(self, other) -> bool:
        return isinstance(other, Complex) and self._simplexes == other._simplexes

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._simplexes)
        return self._hash

    def __repr__(self) -> str:
        return f"Complex(dim={self._dim}, f={self.f_vector()})"

    def vertices(self) -> list[int]:
        return sorted(s[0] for s in self._simplexes if len(s) == 1)

    def max_label(self) -> int:
        """Largest vertex label, -1 when empty.  Fresh labels go above it."""
        return max((s[-1] for s in self._simplexes), default=-1)

    def simplexes_of_dim(self, k: int) -> list[Simplex]:
        return sorted(s for s in self._simplexes if len(s) == k + 1)

    def top_simplexes(self) -> list[Simplex]:
        size = self._dim + 1
        return [m for m in self._maximal_sorted() if len(m) == size]

    def maximal_simplexes(self) -> list[Simplex]:
        """Simplexes not properly contained in any other simplex, sorted."""
        return list(self._maximal_sorted())

    def _maximal_sorted(self) -> tuple[Simplex, ...]:
        """The cached maximal simplexes.  The set is downward-closed, so
        these are exactly the simplexes that are no simplex's facet.  A
        vertex's only facet is (), which is never a simplex."""
        if self._maximal is None:
            simps = self._simplexes
            sizes = [len(s) - 1 for s in simps]
            covered = set(chain.from_iterable(map(combinations, simps, sizes)))
            self._maximal = tuple(sorted(simps - covered))
        return self._maximal

    def f_vector(self) -> tuple[int, ...]:
        """(p_0, ..., p_n): count of i-simplexes by dimension."""
        if self._fvec is None:
            counts = [0] * (self._dim + 1)
            for s in self._simplexes:
                counts[len(s) - 1] += 1
            self._fvec = tuple(counts)
        return self._fvec

    def euler_characteristic(self) -> int:
        return sum((-1) ** i * p for i, p in enumerate(self.f_vector()))

    # -- structure tests -------------------------------------------------

    def is_pure(self) -> bool:
        """Every maximal simplex has the top dimension."""
        size = self._dim + 1
        return all(len(m) == size for m in self._maximal_sorted())

    def is_closed_pseudomanifold(self) -> bool:
        """Pure, every ridge in exactly two tops, strongly connected."""
        return closed_pseudomanifold(self._maximal_sorted(), self._dim)

    # -- serialization helpers ------------------------------------------

    def canonical_json(self) -> str:
        """``{"dimension": n, "maximal_simplexes": [...]}`` without spaces,
        the sorted maximal simplexes as lists.  orjson writes it; a label of
        2^64 or more makes orjson raise TypeError, and ``json`` writes it
        instead.  Both write ints, lists and the two keys the same way."""
        data = {"dimension": self._dim, "maximal_simplexes": self._maximal_sorted()}
        try:
            return orjson.dumps(data).decode()
        except TypeError:
            return json.dumps(data, separators=(",", ":"))

    def digest(self) -> str:
        """Stable hash of the canonical serialization, computed on the first
        call.  A ``Complex`` never changes, and ``WorkingComplex.snapshot``
        hands over its maximal simplexes before anyone can read the digest,
        so the memo is the digest of the complex it is stored on."""
        if self._digest is None:
            self._digest = hashlib.sha256(self.canonical_json().encode()).hexdigest()
        return self._digest


def facet_mates(tops: Collection[Simplex]) -> list[int]:
    """The ridge pairing of top simplexes that all have n + 1 vertices, on
    facet ids: facet k of the i-th top t is the k-th entry of
    ``combinations(t, n)``, the facet opposite ``t[n - k]``, and its id is
    (n + 1)·i + k.  ``mate[f]`` is the id of the facet across f, the same
    ridge in another top, or -1 when no other top contains it.  ValueError
    when a ridge lies in more than two of the tops.  A 0-simplex has no
    facets."""
    n = len(next(iter(tops), ())) - 1
    if n < 1:
        return []
    mate: list[int] = []
    first: dict[Simplex, int] = {}  # ridge -> id of its first facet
    for f, r in enumerate(chain.from_iterable(map(combinations, tops, repeat(n)))):
        g = first.setdefault(r, f)
        if g == f:
            mate.append(-1)
        elif mate[g] < 0:
            mate[g] = f
            mate.append(g)
        else:
            raise ValueError(f"ridge {r} lies in more than two top simplexes")
    return mate


def top_adjacency(tops: Sequence[Simplex]) -> list[dict[int, tuple[int, int]]]:
    """``facet_mates`` read per top, indexed like ``tops``:
    ``across[i][v] = (j, w)`` says top j is across the facet of top i
    opposite its vertex v, and w is the vertex of top j off that facet.  A
    facet that lies in no other top has no entry.  ValueError when a ridge
    lies in more than two of the tops."""
    mate = facet_mates(tops)
    across: list[dict[int, tuple[int, int]]] = [{} for _ in tops]
    if not mate:
        return across
    size = len(tops[0])
    n = size - 1
    for f, g in enumerate(mate):
        if g > f:
            i, k = divmod(f, size)
            j, l = divmod(g, size)
            v, w = tops[i][n - k], tops[j][n - l]
            across[i][v] = (j, w)
            across[j][w] = (i, v)
    return across


def closed_pseudomanifold(tops: Collection[Simplex], n: int) -> bool:
    """Whether the complex with maximal simplexes ``tops`` is an
    n-dimensional closed pseudomanifold.  That needs, and the test proves,
    three things: purity (n >= 1 and every maximal simplex has n + 1
    vertices), degree 2 on every ridge (each ridge is a facet of some top;
    ``facet_mates`` raises for one in three tops and marks one in a single
    top with -1) and one strong component (a walk across the paired facets
    from the first top reaches every top)."""
    if n < 1 or not tops or any(len(t) != n + 1 for t in tops):
        return False
    try:
        mate = facet_mates(tops)
    except ValueError:
        return False
    if -1 in mate:
        return False
    size = n + 1
    count = len(mate) // size
    seen = [True] + [False] * (count - 1)
    stack = [0]
    reached = 1
    while stack:
        i = stack.pop() * size
        for g in mate[i : i + size]:
            j = g // size
            if not seen[j]:
                seen[j] = True
                reached += 1
                stack.append(j)
    return reached == count


def close_under_faces(maximal: Iterable[Iterable[int]]) -> Complex:
    return Complex.from_maximal(maximal)


def join_simplexes(a: Collection[Simplex], b: Collection[Simplex]) -> set[Simplex]:
    """The simplexes of A ⋆ B from those of A and B, on disjoint vertex
    sets: both sets and every union s ∪ t, sorted."""
    out = {tuple(sorted(s + t)) for s in a for t in b}
    out.update(a)
    out.update(b)
    return out


def join(k: Complex, l: Complex) -> Complex:
    """Join of two complexes on disjoint vertex sets."""
    kv = set(k.vertices())
    lv = set(l.vertices())
    if kv & lv:
        raise ValueError(f"join requires disjoint vertex labels, shared: {sorted(kv & lv)}")
    if not k.simplexes:
        return l
    if not l.simplexes:
        return k
    return Complex(join_simplexes(k.simplexes, l.simplexes), _assume_closed=True)


def cone(apex: int, base: Complex) -> Complex:
    """apex ⋆ base."""
    return join(Complex(((apex,),), _assume_closed=True), base)


# -- isomorphism search ----------------------------------------------------


@dataclass(frozen=True)
class Isomorphism:
    """A vertex bijection inducing a bijection of simplex sets."""

    vertex_map: dict[int, int]

    def apply(self, k: Complex) -> Complex:
        m = self.vertex_map
        return Complex(
            {tuple(sorted(m[v] for v in s)) for s in k.simplexes}, _assume_closed=True
        )


def _vertex_signatures(work: WorkingComplex) -> tuple[dict[int, tuple], dict[int, set[int]]]:
    """Per vertex v, in vertex order: an invariant, the counts by dimension
    of the simplexes through v (v itself, then v ∪ c for each c in lk(v))
    refined by one round of neighbour-signature aggregation, and the
    neighbours of v.  The invariant is used only to prune the search."""
    verts = sorted(work.maximal_at)
    nbrs = {v: set().union(*work.maximal_at[v]).difference((v,)) for v in verts}
    base = {
        v: ((0, 1), *sorted(Counter(map(len, work.link_simplexes((v,)))).items()))
        for v in verts
    }
    sig = {v: (base[v], tuple(sorted(base[w] for w in nbrs[v]))) for v in verts}
    return sig, nbrs


def find_isomorphism(k: Complex, l: Complex) -> Optional[Isomorphism]:
    """Backtracking search for a simplicial isomorphism from k to l.

    Candidates are bucketed by (degree, link f-vector) style signatures,
    and vertices are assigned in an order that stays adjacent to the
    already-mapped part, so the simplex-preservation check prunes early.

    Both complexes are read through ``WorkingComplex``.  Mapping v to w
    must send into l every simplex c through v whose other vertices are
    mapped.  It does exactly when it sends into l the mapped part (v and
    the mapped vertices) of each maximal simplex through v: each part is
    such a c, and each such c lies in the part of a maximal simplex that
    contains it, so its image is a face of that part's image, and l is
    closed under faces.
    """
    if k.f_vector() != l.f_vector():
        return None
    if not k.simplexes:
        return Isomorphism({})
    work = WorkingComplex(k)
    sig_k, adjacency = _vertex_signatures(work)
    sig_l = _vertex_signatures(WorkingComplex(l))[0]
    by_sig: dict[tuple, list[int]] = {}
    for w, s in sig_l.items():
        by_sig.setdefault(s, []).append(w)
    if sorted(sig_k.values()) != sorted(sig_l.values()):
        return None

    # order: rarest signature first, then grow through neighbours
    rarity = {v: len(by_sig[s]) for v, s in sig_k.items()}
    order: list[int] = []
    placed: set[int] = set()
    remaining = set(sig_k)
    while remaining:
        frontier = {v for v in remaining if adjacency[v] & placed}
        pool = frontier or remaining
        v = min(pool, key=lambda u: (rarity[u], u))
        order.append(v)
        placed.add(v)
        remaining.discard(v)

    l_simplexes = l.simplexes
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def consistent(v: int, w: int) -> bool:
        # the mapped part of each maximal simplex through v must land in l
        for m in work.maximal_at[v]:
            img = sorted(w if u == v else mapping[u] for u in m if u == v or u in mapping)
            if tuple(img) not in l_simplexes:
                return False
        return True

    def backtrack(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in by_sig.get(sig_k[v], ()):
            if w in used or not consistent(v, w):
                continue
            mapping[v] = w
            used.add(w)
            if backtrack(i + 1):
                return True
            del mapping[v]
            used.discard(w)
        return False

    import sys

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, len(order) + 100))
    try:
        found = backtrack(0)
    finally:
        sys.setrecursionlimit(old)
    if not found:
        return None
    iso = Isomorphism(dict(mapping))
    if iso.apply(k).simplexes != l.simplexes:  # bijection of simplex sets, exactly
        return None
    return iso


# -- canonical form --------------------------------------------------------


def isomorphism_signature(k: Complex) -> tuple[int, ...]:
    """A complete isomorphism invariant, after Burton's isomorphism
    signatures: two complexes are isomorphic exactly when their signatures
    are equal.

    The domain is the pure, strongly connected complexes whose ridges each
    lie in at most two top simplexes; any other input raises ValueError.
    The signature is the first half of ``tops_signature`` of the top
    simplexes: the least stream of walk records over the starts, compared
    record by record.
    """
    return tops_signature(pure_tops(k))[0]


def pure_tops(k: Complex) -> list[Simplex]:
    """The top simplexes of a nonempty pure complex, sorted; ValueError for
    any other complex."""
    tops = k.top_simplexes()
    if not tops or not k.is_pure():
        raise ValueError("isomorphism signature needs a nonempty pure complex")
    return tops


def tops_signature(
    tops: Collection[Simplex],
) -> tuple[tuple[int, ...], list[dict[int, int]]]:
    """``(isomorphism_signature, automorphisms)`` of the pure complex with
    top simplexes ``tops``; ValueError when a ridge lies in more than two of
    them or they are not strongly connected.  Each automorphism is a vertex
    map sending the top set onto itself; together with the identity, which
    is left out, they are the whole automorphism group.

    A start is one top simplex with one ordering of its vertices.  Only
    starts whose vertex-degree sequence is least are tried.  A start labels
    its vertices 0..n in its order, then walks the tops breadth-first across
    ridges, taking each top's vertices v in label order.  Each such
    (top, vertex) slot emits one record: when the top across the facet
    opposite v is newly reached, the label of its vertex w off that facet (a
    vertex seen for the first time gets the next label); otherwise, or when
    no top is across, the sentinel -1.  The new top's label order is the
    current one without v, then w, sorted again only when w already had a
    label.  The signature is the least record stream over all starts.

    Completeness.  An isomorphism maps starts to starts (degrees are
    invariant) and walks to walks, so isomorphic complexes have the same
    set of streams and the same least one.  Conversely a stream decodes to
    the labelled top set: n + 1 is the first record other than -1, or the
    stream length when every record is -1 (the first top's slots can only
    reach unlabelled vertices); then a decoder replays the walk on labels,
    the sentinel telling it which slots add a top (on a complex with
    boundary nothing else tells it).  Every top is reached and so every
    vertex labelled, so equal streams give a label-preserving bijection of
    the top sets, which is an isomorphism of the complexes.

    Early abort.  Every start of a strongly connected complex emits one
    record per (top, vertex) slot, so all streams have the same length and
    their order is lexicographic.  A start is dropped at the first record
    that exceeds the best stream's record at the same position, since no
    later record can make it less; a start that ties so far goes on.  The
    first start has nothing to compare with and runs to the end, so strong
    connectivity is checked on every call.

    Automorphisms.  A start that ties the best stream to the end decodes to
    the same labelled top set as the best start, so g(x) = the vertex with
    label best_label[x] under the tied start sends tops to tops: g is an
    automorphism, and it sends the best start to the tied one.  The ties
    are recorded against the final best only; they are cleared whenever the
    best stream changes.  They give all of Aut: an automorphism sends the
    best start to a start with the least degree sequence and the same
    stream.  A start whose stream equals the current best's is neither
    dropped nor made the best, so the final best is the first start in
    iteration order with the least stream, and every other start with that
    stream comes later and ties with it.  An automorphism that fixes a start fixes a whole top and,
    by strong connectivity, every vertex, so distinct starts give distinct
    automorphisms and |Aut| = 1 + (number of ties with the final best).
    """
    tops = list(tops)
    across = top_adjacency(tops)
    degree = Counter(chain.from_iterable(tops))
    degrees = [sorted(map(degree.__getitem__, t)) for t in tops]
    least = min(degrees)
    best: Optional[list[int]] = None
    best_label: dict[int, int] = {}
    ties: list[dict[int, int]] = []
    for i, t in enumerate(tops):
        if degrees[i] != least:
            continue
        for order in permutations(t):
            if [degree[v] for v in order] != least:
                continue
            walked = _walk_records(across, i, order, best)
            if walked is None:
                continue
            records, label = walked
            if records is None:
                ties.append(label)
            else:
                best, best_label = records, label
                ties.clear()
    # a label map lists its vertices in label order, so zipping two pairs
    # the vertices that carry the same label
    return tuple(best), [dict(zip(best_label, label)) for label in ties]


def _walk_records(
    across: list[dict[int, tuple[int, int]]],
    start: int,
    order: tuple[int, ...],
    best: Optional[list[int]],
) -> Optional[tuple[Optional[list[int]], dict[int, int]]]:
    """The record stream of one start of ``tops_signature`` (top ``start``
    with its vertices labelled in ``order``) and its vertex labels, in
    label order.  The stream is None when it ties with ``best`` to the end;
    the whole result is None when the start is dropped at its first record
    above best's."""
    label = {v: k for k, v in enumerate(order)}
    none = (len(across), -1)  # no top across: counts as already reached
    seen = [False] * len(across) + [True]
    seen[start] = True
    walk = [(start, order)]
    records: list[int] = []
    tied = best is not None
    for cur, cur_order in walk:
        step = across[cur]
        for v in cur_order:
            j, w = step.get(v, none)
            if seen[j]:
                rec = -1
            else:
                seen[j] = True
                k = cur_order.index(v)
                rest = cur_order[:k] + cur_order[k + 1 :]
                rec = label.get(w)
                if rec is None:
                    rec = label[w] = len(label)
                    walk.append((j, rest + (w,)))
                else:
                    walk.append((j, tuple(sorted(rest + (w,), key=label.__getitem__))))
            if tied:
                b = best[len(records)]
                if rec > b:
                    return None
                tied = rec == b
            records.append(rec)
    if len(walk) != len(across):
        raise ValueError("complex is not strongly connected")
    return (None if tied else records), label


# -- mutable complex -------------------------------------------------------


class WorkingComplex:
    """Mutable complex stored as its maximal simplexes, indexed by vertex,
    after the maximal-simplex representation of Boissonnat, Karthik C. S.
    and Tavenas (Algorithmica 2017): ``maximal_at[v]`` holds the maximal
    simplexes through v, and every face query reads it through ``through``.
    Moves mutate the complex in place through ``replace``; ``snapshot``
    freezes it back into a ``Complex``.
    """

    __slots__ = ("maximal_at", "next_label")

    def __init__(self, k: Complex, *, reserve_above: int = -1):
        self.maximal_at: dict[int, set[Simplex]] = {}
        self.replace((), k.maximal_simplexes())
        self.next_label = max(k.max_label(), reserve_above) + 1

    def __contains__(self, s) -> bool:
        return bool(self.through(s))

    def through(self, f: Simplex) -> set[Simplex]:
        """The maximal simplexes containing the nonempty face f: the
        intersection of ``maximal_at[v]`` over v in f, empty when some
        vertex of f is absent."""
        try:
            return set.intersection(*map(self.maximal_at.__getitem__, f))
        except KeyError:
            return set()

    def fresh_label(self) -> int:
        v = self.next_label
        self.next_label += 1
        return v

    def replace(self, removed: Iterable[Simplex], added: Iterable[Simplex]) -> None:
        """Drop the maximal simplexes ``removed``, then add ``added``, which
        the caller guarantees are maximal in the result."""
        at = self.maximal_at
        for t in removed:
            for v in t:
                through = at[v]
                through.discard(t)
                if not through:
                    del at[v]
        for t in added:
            for v in t:
                if v in at:
                    at[v].add(t)
                else:
                    at[v] = {t}

    def link_simplexes(self, a: Simplex) -> set[Simplex]:
        """lk(a) as a simplex set: the nonempty faces of m ∖ a over the
        maximal simplexes m containing a."""
        av = set(a)
        out: set[Simplex] = set()
        for m in self.through(a):
            out.update(faces(tuple(v for v in m if v not in av)))
        return out

    def maximal(self) -> set[Simplex]:
        """The maximal simplexes, which ``maximal_at`` holds exactly:
        ``replace`` adds only maximal ones."""
        return set().union(*self.maximal_at.values())

    def snapshot(self) -> Complex:
        """The complex as a ``Complex``: the faces of the maximal simplexes,
        handed their sorted list."""
        maximal = self.maximal()
        k = Complex(chain.from_iterable(map(faces, maximal)), _assume_closed=True)
        k._maximal = tuple(sorted(maximal))
        return k
