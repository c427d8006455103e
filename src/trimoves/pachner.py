"""Detection, application, inversion and logging of bistellar moves.

The move κ(A, B) applies to a complex K of dimension n when A ∈ K,
lk(A, K) = ∂B for an (n − dim A)-simplex B ∉ K; it removes the simplexes
containing A and inserts the simplexes containing B.  Moves are recorded
with both simplexes explicit so sequences are self-contained: replay never
has to re-infer B, and vertex accounting can be audited from the log alone.
"""
from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Optional

from .complexes import (
    Complex,
    Simplex,
    WorkingComplex,
    closed_pseudomanifold,
    pure_tops,
    tops_signature,
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


def move_tops(move: PachnerMove) -> tuple[list[Simplex], list[Simplex]]:
    """(removed, added) maximal simplexes of κ(a, b): a ⋆ (b ∖ {x}) for each
    x ∈ b, and b ⋆ (a ∖ {y}) for each y ∈ a."""
    a, b = move.a, move.b
    removed = [tuple(sorted(a + f)) for f in combinations(b, len(b) - 1)]
    added = [tuple(sorted(b + f)) for f in combinations(a, len(a) - 1)]
    return removed, added


def check_applicable(
    work: WorkingComplex, move: PachnerMove, n: int
) -> tuple[list[Simplex], list[Simplex]]:
    """Raise MoveError unless κ(a, b) applies to the working complex;
    return its ``move_tops``.

    Past the dimension check this is the link condition lk(a) = ∂b, b ∉ K,
    stated on maximal simplexes: ``through(a)`` is exactly the tops
    a ⋆ (b ∖ {x}), x ∈ b, and ``through(b)`` is empty.  The map c ↦ a ∪ c
    is an inclusion-preserving bijection from lk(a), with the empty face,
    onto the simplexes through a, so it sends the maximal faces of lk(a) to
    ``through(a)`` (the empty face is the one maximal face when a itself is
    maximal).  A complex is fixed by its maximal faces, and those of ∂b are
    the sets b ∖ {x}, so lk(a) = ∂b exactly when ``through(a)`` is the set
    of tops above.  Nothing here assumes the complex is pure.

    Lemma (Pachner 1991; Lickorish 1999).  If K is a closed pseudomanifold
    (pure, every ridge in exactly two tops, strongly connected) and κ(a, b)
    passes this check, the result is a closed pseudomanifold too.  For each
    ridge r of a removed or added top:
    - r = a ∪ (b ∖ {x, x′}) contains a; every top through a is removed and
      no added top contains a, so r leaves (degree 0);
    - r = b ∪ (a ∖ {y, y′}) contains b, which was absent; exactly the added
      tops b ∪ (a ∖ {y}) and b ∪ (a ∖ {y′}) contain it (degree 2);
    - r = (a ∖ {y}) ∪ (b ∖ {x}) lies in exactly one removed top and one added
      top, so its degree does not change.
    Every face through a leaves, and every other face of a removed top lies
    in an added top, so no lower-dimensional maximal simplex appears and
    the result stays pure.  The removed ball a ⋆ ∂b and the added ball
    ∂a ⋆ b are each strongly connected and share the boundary ∂a ⋆ ∂b, so
    the result stays strongly connected.
    """
    a, b = move.a, move.b
    if (len(a) - 1) + (len(b) - 1) != n:
        raise MoveError(f"dim {a} + dim {b} != {n}")
    through_a = work.through(a)
    if not through_a:
        raise MoveError(f"move simplex {a} absent")
    if b in work:
        raise MoveError(f"inserted simplex {b} already present")
    removed, added = move_tops(move)
    if through_a != set(removed):
        raise MoveError(f"link of {a} is not the boundary of {b}")
    return removed, added


def apply_move_inplace(
    work: WorkingComplex, move: PachnerMove, n: int
) -> tuple[list[Simplex], list[Simplex]]:
    """Check that κ(a, b) applies to a working complex, apply it and return
    its (removed, added) maximal simplexes."""
    removed, added = check_applicable(work, move, n)
    work.replace(removed, added)
    if work.next_label <= move.b[-1]:
        work.next_label = move.b[-1] + 1
    return removed, added


def apply(k: Complex, move: PachnerMove) -> Complex:
    """κ(a, b) as a pure function on complexes."""
    work = WorkingComplex(k)
    apply_move_inplace(work, move, k.dimension)
    return work.snapshot()


def apply_moves(work: WorkingComplex, moves: Iterable[PachnerMove], n: int) -> None:
    """Apply moves in order, each checked by ``apply_move_inplace``."""
    for m in moves:
        apply_move_inplace(work, m, n)


def sequence_from_moves(start: Complex, moves: Iterable[PachnerMove]) -> MoveSequence:
    """Apply and log moves, producing a digest-stamped sequence."""
    ms = tuple(moves)
    work = WorkingComplex(start)
    apply_moves(work, ms, start.dimension)
    return MoveSequence(ms, start.digest(), work.snapshot().digest())


def enumerate_moves(k: Complex) -> list[PachnerMove]:
    """All applicable moves, ordered by (dim a, a) for determinism.  The
    candidate B is a fresh vertex for an n-simplex a, else the vertex set of
    lk(a), and must pass ``check_applicable``, which needs |B| = n + 2 − |a|
    maximal simplexes through a."""
    work = WorkingComplex(k)
    n = k.dimension
    out = []
    for a in sorted(k.simplexes, key=lambda s: (len(s), s)):
        through = work.through(a)
        if len(through) != n + 2 - len(a):
            continue
        if len(a) == n + 1:
            b = (work.next_label,)
        else:
            b = tuple(sorted(set().union(*through).difference(a)))
        try:
            check_applicable(work, PachnerMove(a, b), n)
        except MoveError:
            continue
        out.append(PachnerMove(a, b))
    return out


def replay_verified(
    start: Complex,
    seq: MoveSequence,
    *,
    expect: Optional[Complex] = None,
    check_pseudomanifold: bool = True,
) -> Complex:
    """Replay a sequence between its digest-checked endpoints.

    Every move must pass its link condition (``check_applicable``).  With
    ``check_pseudomanifold`` the start and, after at least one move, the end
    complex must be closed pseudomanifolds (``closed_pseudomanifold`` on
    their maximal simplexes, which are what the digest hashes).  No check
    runs between moves: by the lemma in ``check_applicable`` a closed start
    and moves that pass their link conditions give a closed pseudomanifold
    after every move.  A fault put into the working complex between moves,
    not by a move, is caught by the next link condition that reads it, or
    else by the end check.
    """
    if start.digest() != seq.start_digest:
        raise MoveError("start complex does not match sequence start digest")
    n = start.dimension
    if check_pseudomanifold and not closed_pseudomanifold(start.maximal_simplexes(), n):
        raise MoveError("start complex is not a closed pseudomanifold")
    work = WorkingComplex(start)
    apply_moves(work, seq.moves, n)
    out = work.snapshot()
    if (
        check_pseudomanifold
        and seq.moves
        and not closed_pseudomanifold(out.maximal_simplexes(), n)
    ):
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
    isomorphic complexes are visited once and distinct ones never merge.
    A node is its set of top simplexes, and a move swaps its ``move_tops``.
    Moves keep purity, ridge degrees and strong connectivity (the lemma in
    ``check_applicable``), so only k and l are checked against the
    signature's domain, and only the returned path is replayed.  A negative
    ``max_depth`` raises ValueError, and trying more than ``max_nodes``
    moves in all raises SearchCapExceeded; moves skipped as automorphic
    images count as tried.

    Automorphism pruning.  Each node carries the automorphisms that its
    ``tops_signature`` call returned.  Its moves come in ``enumerate_moves``
    order; a move that is the image g(m) of an earlier move m under a node
    automorphism g is skipped.  This is exact: g extends to an isomorphism
    from child(m) to child(g(m)) that fixes the fresh vertex, so the skipped
    child has the signature of an earlier sibling, and a search without
    pruning would have found that signature in ``seen``, or returned on it.
    The visited nodes, their order, the returned path and the point where
    the cap is hit are therefore the same as without pruning.

    Last-layer filter.  A child of a node at depth ``max_depth - 1`` is
    signed only when its top count and sorted vertex-degree sequence equal
    the goal's (a cheap invariant tested before canonical labelling, after
    McKay and Piperno); it is only compared with the goal, and gets no
    ``seen`` entry or queue slot.  This is exact.  The queue is FIFO, so once
    such a node is expanded every later child has depth ``max_depth`` and is
    never expanded; the ``seen`` entries of those children matter only to
    other children of that depth, and the goal's signature is never in
    ``seen`` (the search returns on meeting it).  Isomorphic complexes have
    equal invariants, so a skipped child is isomorphic neither to the goal
    nor to any later child that passes the filter.  The move is counted
    toward ``max_nodes`` and the automorphism skip applied before the
    filter, so the returned path, the None outcome and the point where the
    cap is hit are unchanged."""
    if max_depth < 0:
        raise ValueError(f"max_depth must be non-negative, got {max_depth}")
    goal_tops = pure_tops(l)
    goal = tops_signature(goal_tops)[0]
    goal_count, goal_degrees = len(goal_tops), _degree_sequence(goal_tops)
    sig, autos = tops_signature(pure_tops(k))
    if sig == goal:
        return sequence_from_moves(k, ())
    seen = {sig}
    queue: deque[
        tuple[frozenset[Simplex], tuple[PachnerMove, ...], list[dict[int, int]]]
    ] = deque([(frozenset(k.top_simplexes()), (), autos)])
    nodes = 0
    while queue:
        tops, path, autos = queue.popleft()
        if len(path) >= max_depth:
            continue
        last = len(path) == max_depth - 1
        covered: set[tuple[Simplex, Simplex]] = set()
        for move in enumerate_moves(Complex.from_maximal(tops)):
            nodes += 1
            if nodes > max_nodes:
                raise SearchCapExceeded(f"bfs tried more than {max_nodes} moves")
            a, b = move.a, move.b
            if (a, b) in covered:
                continue
            # g.get(v, v) fixes the fresh vertex of a top move
            for g in autos:
                covered.add(
                    (tuple(sorted(map(g.get, a, a))), tuple(sorted(map(g.get, b, b))))
                )
            removed, added = move_tops(move)
            nxt = tops.difference(removed).union(added)
            if last:
                if (
                    len(nxt) == goal_count
                    and _degree_sequence(nxt) == goal_degrees
                    and tops_signature(nxt)[0] == goal
                ):
                    return sequence_from_moves(k, path + (move,))
                continue
            sig, child_autos = tops_signature(nxt)
            if sig in seen:
                continue
            seen.add(sig)
            if sig == goal:
                return sequence_from_moves(k, path + (move,))
            queue.append((nxt, path + (move,), child_autos))
    return None


def _degree_sequence(tops: Iterable[Simplex]) -> list[int]:
    """The sorted numbers of top simplexes through each vertex."""
    return sorted(Counter(chain.from_iterable(tops)).values())
