"""Shellability search for balls and spheres, and starring via shellings.

An elementary shelling along B removes the top simplex A ⋆ B from a ball M
when the complex of faces of A meets ∂M in exactly ∂A and every simplex of
B ⋆ ∂A lies in ∂M; closure keeps A ⋆ ∂B.  A ball is shellable when such
steps reduce it to a single simplex.  A shelling certificate converts
directly into the move sequence that replaces the ball with the cone on its
boundary from a fresh apex: cone the final simplex, then walk the shelling
backwards turning each shed (A, B) into the move κ(A, apex ⋆ B).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .complexes import Complex, Simplex, WorkingComplex, faces, facets, proper_faces
from .pachner import (
    MoveError,
    MoveSequence,
    PachnerMove,
    SearchCapExceeded,
    apply_moves,
    ridge_counts,
)
from .pachner import apply_move_inplace  # noqa: F401  unused; perfbench's tracer patches it here


class ShellingError(Exception):
    """A starring step failed its ambient validity check."""


@dataclass(frozen=True)
class ShellingStep:
    """Shed the top simplex a ⋆ b along b."""

    a: Simplex
    b: Simplex

    @property
    def top(self) -> Simplex:
        return tuple(sorted(self.a + self.b))


@dataclass(frozen=True)
class Shelling:
    """Ordered elementary shellings reducing a ball to ``final``."""

    steps: tuple[ShellingStep, ...]
    final: Simplex

    def __len__(self) -> int:
        return len(self.steps)


def boundary_complex(ball: Complex) -> Complex:
    """Closure of the ridges lying in exactly one top simplex."""
    if not ball.is_pure():
        raise ValueError("boundary of a non-pure complex is not defined here")
    out: set[Simplex] = set()
    for r, c in ridge_counts(ball).items():
        if c == 1:
            out.update(faces(r))
    return Complex(out, _assume_closed=True)


class _BallState:
    """Top-simplex set of a residual ball with an incrementally maintained
    boundary, supporting apply/undo of elementary shellings.

    Membership of a face in ∂M is tested against the current boundary
    ridges (a face is in ∂M iff some boundary ridge contains it), which is
    all the shelling conditions need.
    """

    def __init__(self, ball: Complex):
        if not ball.is_pure():
            raise ValueError("shelling needs a pure complex")
        self.n = ball.dimension
        self.tops: set[Simplex] = set(ball.top_simplexes())
        self.ridge_tops: dict[Simplex, set[Simplex]] = {}
        self.top_byvertex: dict[int, set[Simplex]] = {}
        for t in self.tops:
            for r in facets(t):
                self.ridge_tops.setdefault(r, set()).add(t)
            for v in t:
                self.top_byvertex.setdefault(v, set()).add(t)
        if any(len(ts) > 2 for ts in self.ridge_tops.values()):
            raise ValueError("ridge in more than two top simplexes")
        self.bd_ridges: set[Simplex] = {
            r for r, ts in self.ridge_tops.items() if len(ts) == 1
        }
        self.bd_byvertex: dict[int, set[Simplex]] = {}
        for r in self.bd_ridges:
            for v in r:
                self.bd_byvertex.setdefault(v, set()).add(r)

    def in_boundary(self, f: Simplex) -> bool:
        buckets = [self.bd_byvertex.get(v) for v in f]
        if any(b is None for b in buckets):
            return False
        smallest = min(buckets, key=len)
        fs = set(f)
        return any(fs <= set(r) for r in smallest)

    def _bd_add(self, r: Simplex) -> None:
        self.bd_ridges.add(r)
        for v in r:
            self.bd_byvertex.setdefault(v, set()).add(r)

    def _bd_remove(self, r: Simplex) -> None:
        self.bd_ridges.discard(r)
        for v in r:
            bucket = self.bd_byvertex.get(v)
            if bucket is not None:
                bucket.discard(r)
                if not bucket:
                    del self.bd_byvertex[v]

    def step_is_valid(self, a: Simplex, b: Simplex) -> bool:
        """Check A ∩ ∂M = ∂A and B ⋆ ∂A ⊆ ∂M against the current state."""
        if self.in_boundary(a):
            return False
        for f in proper_faces(a):
            if not self.in_boundary(f):
                return False
        a_proper = list(proper_faces(a)) + [()]
        for bp in faces(b):
            for ap in a_proper:
                f = tuple(sorted(bp + ap))
                if not self.in_boundary(f):
                    return False
        return True

    def first_valid_step(self, t: Simplex) -> Optional[ShellingStep]:
        """First valid (A, B) split of top simplex t, largest dim A first."""
        for k in range(len(t) - 1, 0, -1):
            for a in combinations(t, k):
                b = tuple(v for v in t if v not in a)
                if self.step_is_valid(a, b):
                    return ShellingStep(a, b)
        return None

    def candidate_steps(self) -> list[ShellingStep]:
        """Valid steps, restricted to tops owning a boundary ridge (every
        valid step's top has B ⋆ (facet of A) on the boundary).  Ordered by
        largest dim A first, then lexicographically."""
        cands: set[Simplex] = set()
        for r in self.bd_ridges:
            cands.update(self.ridge_tops[r])
        out = []
        for t in sorted(cands):
            for k in range(1, len(t)):
                for a in combinations(t, k):
                    b = tuple(v for v in t if v not in a)
                    if self.step_is_valid(a, b):
                        out.append(ShellingStep(a, b))
        out.sort(key=lambda s: (-len(s.a), s.a, s.b))
        return out

    def apply(self, step: ShellingStep) -> list[tuple]:
        """Shed the step's top simplex; returns an undo record."""
        t = step.top
        undo: list[tuple] = [("top", t)]
        self.tops.discard(t)
        aset = set(step.a)
        for r in facets(t):
            if aset <= set(r):
                # ridge contains A: survives, loses this top, becomes boundary
                self.ridge_tops[r].discard(t)
                undo.append(("ridge_detach", r, t))
                if len(self.ridge_tops[r]) == 1:
                    self._bd_add(r)
                    undo.append(("bd_added", r))
            else:
                # ridge contains B: was a boundary ridge, removed entirely
                self._bd_remove(r)
                del self.ridge_tops[r]
                undo.append(("ridge_gone", r, t))
        return undo

    def undo(self, undo: list[tuple]) -> None:
        for rec in reversed(undo):
            if rec[0] == "top":
                self.tops.add(rec[1])
            elif rec[0] == "ridge_detach":
                self.ridge_tops[rec[1]].add(rec[2])
            elif rec[0] == "bd_added":
                self._bd_remove(rec[1])
            elif rec[0] == "ridge_gone":
                self.ridge_tops[rec[1]] = {rec[2]}
                self._bd_add(rec[1])

    def state_key(self) -> frozenset:
        return frozenset(self.tops)


def elementary_shellings(ball: Complex) -> list[ShellingStep]:
    """All currently valid elementary shellings of a pure complex."""
    state = _BallState(ball)
    if not state.bd_ridges:
        return []
    return state.candidate_steps()


def _greedy_shelling(state: _BallState) -> Optional[Shelling]:
    """Worklist-driven shelling without backtracking.

    A top simplex's step validity only changes when the boundary changes on
    a face of it, so after each shed only the vertex-neighbourhood of the
    removed simplex is re-examined.  Deterministic: the pending heap pops
    lexicographically smallest tops first.  Returns None when stuck, which
    for dimension <= 2 never happens (2-balls are extendably shellable);
    callers fall back to the complete search.
    """
    import heapq

    heap: list[Simplex] = []
    seen_push: set[Simplex] = set()

    def push_near(vertices) -> None:
        for v in vertices:
            for t in state.top_byvertex.get(v, ()):
                if t in state.tops and t not in seen_push:
                    seen_push.add(t)
                    heapq.heappush(heap, t)

    for r in sorted(state.bd_ridges):
        push_near(r)
    steps: list[ShellingStep] = []
    stuck_rounds = 0
    while len(state.tops) > 1:
        progressed = False
        while heap and len(state.tops) > 1:
            t = heapq.heappop(heap)
            seen_push.discard(t)
            if t not in state.tops:
                continue
            step = state.first_valid_step(t)
            if step is None:
                continue
            state.apply(step)
            steps.append(step)
            push_near(step.top)
            progressed = True
        if len(state.tops) == 1:
            break
        # heap drained early: rescan the whole boundary once; if a full
        # round after a rescan sheds nothing, the greedy path is stuck
        stuck_rounds = 0 if progressed else stuck_rounds + 1
        if stuck_rounds >= 2:
            return None
        for r in sorted(state.bd_ridges):
            push_near(r)
        if not heap:
            return None
    return Shelling(tuple(steps), next(iter(state.tops)))


def find_shelling(
    ball: Complex, *, max_nodes: int = 500_000
) -> Optional[Shelling]:
    """Backtracking search for a complete shelling.

    A greedy worklist pass runs first (it cannot get stuck in dimension at
    most 2, and usually succeeds above); the complete memoized DFS is the
    fallback.  Returns None only after exhausting the search space, so a
    None is a certificate of non-shellability; hitting the node cap raises
    SearchCapExceeded instead ("undecided"), never a false negative.
    """
    if len(ball.top_simplexes()) > 1:
        greedy = _greedy_shelling(_BallState(ball))
        if greedy is not None:
            return greedy
    state = _BallState(ball)
    if len(state.tops) == 0:
        raise ValueError("empty complex has no shelling")
    if len(state.tops) == 1:
        return Shelling((), next(iter(state.tops)))

    failed: set[frozenset] = set()
    path: list[ShellingStep] = []
    # iterative DFS; each frame holds (candidate iterator for the current
    # state, undo record of the step that entered it)
    stack: list[tuple] = [(iter(state.candidate_steps()), None)]
    nodes = 0
    while stack:
        it, entered_by = stack[-1]
        step = next(it, None)
        if step is None:
            # dead end at this state: memoize and backtrack one step
            failed.add(state.state_key())
            stack.pop()
            if entered_by is not None:
                state.undo(entered_by)
                path.pop()
            continue
        nodes += 1
        if nodes > max_nodes:
            raise SearchCapExceeded(f"shelling search exceeded {max_nodes} nodes")
        undo_rec = state.apply(step)
        path.append(step)
        if len(state.tops) == 1:
            return Shelling(tuple(path), next(iter(state.tops)))
        if state.state_key() in failed:
            state.undo(undo_rec)
            path.pop()
            continue
        stack.append((iter(state.candidate_steps()), undo_rec))
    return None


def find_sphere_shelling(sphere: Complex) -> Optional[tuple[Simplex, Shelling]]:
    """Remove some top simplex and shell the remaining ball."""
    if not sphere.is_pure():
        raise ValueError("expected a pure complex")
    for t in sorted(sphere.top_simplexes()):
        ball = Complex(sphere.simplexes - {t}, _assume_closed=True)
        sh = find_shelling(ball)
        if sh is not None:
            return t, sh
    return None


def verify_shelling(ball: Complex, shelling: Shelling) -> bool:
    """Independently replay a shelling, re-checking every condition."""
    state = _BallState(ball)
    for step in shelling.steps:
        if step.top not in state.tops:
            return False
        if not state.step_is_valid(step.a, step.b):
            return False
        state.apply(step)
    return state.tops == {shelling.final}


def starring_moves(shelling: Shelling, apex: int) -> list[PachnerMove]:
    """Moves replacing the shelled ball with apex ⋆ ∂ball: cone the final
    simplex, then κ(A, apex ⋆ B) for each shelling step in reverse order."""
    moves = [PachnerMove(shelling.final, (apex,))]
    for step in reversed(shelling.steps):
        moves.append(PachnerMove(step.a, tuple(sorted(step.b + (apex,)))))
    return moves


def star_ball_inplace(
    work: WorkingComplex, ball: Complex, shelling: Shelling, apex: int, n: int
) -> list[PachnerMove]:
    """Star a full-dimensional ball, shelled by ``shelling``, inside an
    n-dimensional working complex from the fresh vertex ``apex``.

    Every move is checked against the ambient complex before it is applied
    (the link of A must be exactly ∂(apex ⋆ B)), which turns the
    containment argument for stars of interior faces into a runtime check.
    Returns the applied moves.
    """
    if ball.dimension != n:
        raise ShellingError("ball is not full-dimensional in the ambient complex")
    for s in ball.top_simplexes():
        if s not in work:
            raise ShellingError(f"ball top simplex {s} missing from ambient complex")
    if (apex,) in work:
        raise ShellingError(f"apex {apex} already present in ambient complex")
    moves = starring_moves(shelling, apex)
    try:
        apply_moves(work, moves, n)
    except MoveError as e:
        raise ShellingError(f"ambient link condition violated: {e}") from e
    return moves


def star_via_shelling(
    ambient: Complex, ball: Complex, apex: Optional[int] = None
) -> tuple[MoveSequence, Complex]:
    """Replace ``ball`` inside ``ambient`` by the cone on its boundary.

    Emits exactly one move per top simplex of the ball.  The result
    contains apex ⋆ ∂ball in place of the ball and is returned alongside
    the digest-stamped sequence.
    """
    shelling = find_shelling(ball)
    if shelling is None:
        raise ShellingError("ball is not shellable")
    work = WorkingComplex(ambient)
    if apex is None:
        apex = work.fresh_label()
    moves = star_ball_inplace(work, ball, shelling, apex, ambient.dimension)
    result = work.snapshot()
    expected = {s for s in boundary_complex(ball).simplexes}
    if work.link_simplexes((apex,)) != expected:
        raise ShellingError("starred apex link does not equal the ball boundary")
    seq = MoveSequence(tuple(moves), ambient.digest(), result.digest())
    return seq, result
