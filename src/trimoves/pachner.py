"""Detection, application, inversion and logging of bistellar moves.

The move κ(A, B) applies to a complex K of dimension n when A ∈ K,
lk(A, K) = ∂B for an (n − dim A)-simplex B ∉ K; it removes the simplexes
containing A and inserts the simplexes containing B.  Moves are recorded
with both simplexes explicit so sequences are self-contained: replay never
has to re-infer B, and vertex accounting can be audited from the log alone.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional

from .complexes import (
    Complex,
    Simplex,
    WorkingComplex,
    isomorphism_signature,
    proper_faces,
)
from .complexes import find_isomorphism  # noqa: F401  unused; perfbench's tracer patches it here


class MoveError(Exception):
    """The move is not applicable where it was asked to run."""


class SearchCapExceeded(Exception):
    """A bounded search hit its node budget before deciding."""


@dataclass(frozen=True)
class PachnerMove:
    """κ(a, b) with a and b canonical disjoint simplexes, dim a + dim b = n."""

    a: Simplex
    b: Simplex

    def __post_init__(self):
        if set(self.a) & set(self.b):
            raise ValueError(f"move simplexes must be disjoint: {self.a}, {self.b}")

    def inverted(self) -> "PachnerMove":
        return PachnerMove(self.b, self.a)

    @property
    def removed_vertices(self) -> frozenset[int]:
        return frozenset(self.a) if len(self.a) == 1 else frozenset()

    @property
    def added_vertices(self) -> frozenset[int]:
        return frozenset(self.b) if len(self.b) == 1 else frozenset()


@dataclass(frozen=True)
class MoveSequence:
    """An ordered, replayable move log with endpoint digests."""

    moves: tuple[PachnerMove, ...]
    start_digest: str
    end_digest: str

    def __len__(self) -> int:
        return len(self.moves)

    def removed_vertices(self) -> frozenset[int]:
        out: set[int] = set()
        for m in self.moves:
            out |= m.removed_vertices
        return frozenset(out)

    def reversed(self) -> "MoveSequence":
        return MoveSequence(
            tuple(m.inverted() for m in reversed(self.moves)),
            self.end_digest,
            self.start_digest,
        )


def applicable(k: Complex, a: Simplex) -> Optional[Simplex]:
    """Return the unique B with lk(a, K) = ∂B and B ∉ K, if any.

    For a top-dimensional ``a`` the link is empty and B is a fresh vertex.
    """
    if a not in k:
        raise KeyError(f"simplex {a} not in complex")
    n = k.dimension
    r = len(a) - 1
    lk = k.link(a).simplexes
    if r == n:
        if lk:
            return None
        return (k.max_label() + 1,)
    verts = sorted({v for s in lk for v in s})
    if len(verts) != n - r + 1:
        return None
    b = tuple(verts)
    if lk != frozenset(proper_faces(b)):
        return None
    if b in k:
        return None
    return b


def move_delta(move: PachnerMove) -> tuple[set[Simplex], set[Simplex]]:
    """(removed, added) simplex sets of κ(a, b): the faces of a ⋆ b
    containing a, and those containing b."""
    a, b = move.a, move.b
    removed = {tuple(sorted(a + bp)) for bp in _subsets_with_empty(b) if bp != b}
    added = {tuple(sorted(b + ap)) for ap in _subsets_with_empty(a) if ap != a}
    return removed, added


def _subsets_with_empty(s: Simplex) -> Iterable[Simplex]:
    for k in range(len(s) + 1):
        yield from combinations(s, k)


def check_applicable(work: WorkingComplex, move: PachnerMove, n: int) -> None:
    """Raise MoveError unless κ(a, b) applies to the working complex."""
    a, b = move.a, move.b
    if (len(a) - 1) + (len(b) - 1) != n:
        raise MoveError(f"dim {a} + dim {b} != {n}")
    if a not in work:
        raise MoveError(f"move simplex {a} absent")
    if b in work:
        raise MoveError(f"inserted simplex {b} already present")
    if work.link_simplexes(a) != set(proper_faces(b)):
        raise MoveError(f"link of {a} is not the boundary of {b}")


def apply_move_inplace(
    work: WorkingComplex, move: PachnerMove, n: int
) -> tuple[set[Simplex], set[Simplex]]:
    """Check that κ(a, b) applies to a working complex, apply it and return
    (removed, added)."""
    check_applicable(work, move, n)
    removed, added = move_delta(move)
    for s in removed:
        work.discard(s)
    for s in added:
        work.add(s)
    if work.next_label <= move.b[-1]:
        work.next_label = move.b[-1] + 1
    return removed, added


def apply(k: Complex, move: PachnerMove) -> Complex:
    """κ(a, b) as a pure function on complexes."""
    work = WorkingComplex(k)
    apply_move_inplace(work, move, k.dimension)
    return work.snapshot()


def _tally_ridges(
    ridges: dict[Simplex, int], simplexes: Iterable[Simplex], n: int, step: int
) -> set[Simplex]:
    """Add ``step`` to the count of each ridge of the n-simplexes among
    ``simplexes``; return those ridges."""
    touched: set[Simplex] = set()
    for s in simplexes:
        if len(s) == n + 1:
            for r in combinations(s, n):
                ridges[r] = ridges.get(r, 0) + step
                touched.add(r)
    return touched


def ridge_counts(k: Complex) -> dict[Simplex, int]:
    """Number of top simplexes containing each ridge of ``k``."""
    counts: dict[Simplex, int] = {}
    _tally_ridges(counts, k.simplexes, k.dimension, 1)
    return counts


def apply_moves(
    work: WorkingComplex,
    moves: Iterable[PachnerMove],
    n: int,
    ridges: Optional[dict[Simplex, int]] = None,
) -> None:
    """Apply moves in order, each checked by ``apply_move_inplace``.

    ``ridges``, the ``ridge_counts`` of a closed pseudomanifold, is kept
    current, and every ridge a move touches must come out with exactly two
    cofacets (or none, once the ridge has left the complex), so a purity or
    degree defect is caught at the move that creates it.
    """
    for m in moves:
        removed, added = apply_move_inplace(work, m, n)
        if ridges is None:
            continue
        touched = _tally_ridges(ridges, removed, n, -1) | _tally_ridges(ridges, added, n, 1)
        for r in touched:
            c = ridges[r]
            if c == 0:
                del ridges[r]
                if r in work:
                    raise MoveError(
                        f"move κ({m.a}, {m.b}): ridge {r} left behind without cofacets"
                    )
            elif c != 2:
                raise MoveError(
                    f"move κ({m.a}, {m.b}): ridge {r} has {c} cofacets; "
                    "intermediate complex is not a closed pseudomanifold"
                )


def sequence_from_moves(start: Complex, moves: Iterable[PachnerMove]) -> MoveSequence:
    """Apply and log moves, producing a digest-stamped sequence."""
    ms = tuple(moves)
    work = WorkingComplex(start)
    apply_moves(work, ms, start.dimension)
    return MoveSequence(ms, start.digest(), work.snapshot().digest())


def enumerate_moves(k: Complex) -> list[PachnerMove]:
    """All applicable moves, ordered by (dim a, a) for determinism."""
    out = []
    for a in sorted(k.simplexes, key=lambda s: (len(s), s)):
        b = applicable(k, a)
        if b is not None:
            out.append(PachnerMove(a, b))
    return out


FULL_CHECKS = 10  # whole-complex checks in a verified replay, one per len // FULL_CHECKS moves


def replay_verified(
    start: Complex,
    seq: MoveSequence,
    *,
    expect: Optional[Complex] = None,
    check_pseudomanifold: bool = True,
) -> Complex:
    """Replay a sequence between its digest-checked endpoints.

    With ``check_pseudomanifold`` both endpoints must be closed
    pseudomanifolds, ridge degrees are checked at every move (see
    ``apply_moves``) and the whole complex after every tenth of the
    sequence.
    """
    if start.digest() != seq.start_digest:
        raise MoveError("start complex does not match sequence start digest")
    n = start.dimension
    if check_pseudomanifold and not start.is_closed_pseudomanifold():
        raise MoveError("start complex is not a closed pseudomanifold")
    work = WorkingComplex(start)
    ridges = ridge_counts(start) if check_pseudomanifold else None
    every = max(1, len(seq.moves) // FULL_CHECKS)
    for i in range(0, len(seq.moves), every):
        part = seq.moves[i : i + every]
        apply_moves(work, part, n, ridges)
        if check_pseudomanifold and len(part) == every:
            if not work.snapshot().is_closed_pseudomanifold():
                raise MoveError(f"full check failed after move {i + every - 1}")
    out = work.snapshot()
    if check_pseudomanifold and not out.is_closed_pseudomanifold():
        raise MoveError("end complex is not a closed pseudomanifold")
    if out.digest() != seq.end_digest:
        raise MoveError("replay did not reproduce the end digest")
    if expect is not None and out != expect:
        raise MoveError("replayed complex differs from the expected complex")
    return out


def apply_sequence(k: Complex, seq: MoveSequence) -> Complex:
    """Replay a sequence with its digest and per-move checks only."""
    return replay_verified(k, seq, check_pseudomanifold=False)


def bfs_equivalence(
    k: Complex,
    l: Complex,
    max_depth: int,
    *,
    max_nodes: int = 20_000,
) -> Optional[MoveSequence]:
    """Shortest move sequence from k to (a complex isomorphic to) l within
    the depth bound, or None.  Complexes are compared by
    ``isomorphism_signature``, so k and l must be pure, strongly connected
    and have no ridge in more than two top simplexes (else ValueError);
    isomorphic complexes are visited once and distinct ones never merge."""
    goal = isomorphism_signature(l)
    sig = isomorphism_signature(k)
    if sig == goal:
        return sequence_from_moves(k, ())
    seen = {sig}
    queue: deque[tuple[Complex, tuple[PachnerMove, ...]]] = deque([(k, ())])
    nodes = 0
    while queue:
        current, path = queue.popleft()
        if len(path) >= max_depth:
            continue
        for move in enumerate_moves(current):
            nodes += 1
            if nodes > max_nodes:
                raise SearchCapExceeded(f"bfs exceeded {max_nodes} expansions")
            nxt = apply(current, move)
            sig = isomorphism_signature(nxt)
            if sig in seen:
                continue
            seen.add(sig)
            if sig == goal:
                return sequence_from_moves(k, path + (move,))
            queue.append((nxt, path + (move,)))
    return None
