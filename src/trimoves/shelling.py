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

import heapq
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Optional

from .complexes import Complex, Simplex, WorkingComplex, faces, facets, top_adjacency
from .pachner import (
    MoveError,
    MoveSequence,
    PachnerMove,
    SearchCapExceeded,
    apply_moves,
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

    def relabel(self, m) -> "Shelling":
        """The shelling with every vertex v replaced by ``m[v]``; an
        order-preserving ``m`` keeps each simplex sorted."""
        return Shelling(
            tuple(
                ShellingStep(tuple(m[v] for v in s.a), tuple(m[v] for v in s.b))
                for s in self.steps
            ),
            tuple(m[v] for v in self.final),
        )


def boundary_complex(ball: Complex) -> Complex:
    """Closure of the ridges lying in exactly one top simplex; ValueError
    when a ridge lies in more than two."""
    if not ball.is_pure():
        raise ValueError("boundary of a non-pure complex is not defined here")
    return Complex.from_maximal(_unpaired_facets(ball.top_simplexes()))


def _unpaired_facets(tops: list[Simplex]) -> list[Simplex]:
    """The facets of ``tops`` that lie in no other of them; ValueError when
    a ridge lies in more than two."""
    out = []
    for t, paired in zip(tops, top_adjacency(tops)):
        out.extend(r for v, r in zip(reversed(t), facets(t)) if v not in paired)
    return out


class _BallState:
    """Top-simplex set of a residual ball with an incrementally maintained
    boundary, supporting apply/undo of elementary shellings.

    ∂M is the closure of the boundary ridges, the ridges in exactly one top
    simplex; at the start they are the facets ``top_adjacency`` leaves
    unpaired.  ``bd_faces`` maps each nonempty face of a boundary ridge to
    the number of boundary ridges that contain it, so a face f lies in ∂M
    exactly when ``f in bd_faces``.  ``_bd_add`` and ``_bd_remove`` keep the
    counts.

    Shedding a valid step t = A ⋆ B changes the boundary on the facets of t
    alone, as the step itself dictates, so the state keeps no ridge → tops
    map and a step is its own undo record.  For x ∈ A, t∖{x} is a boundary
    ridge (step validity), so t is its only top and it leaves the boundary.
    For x ∈ B, t∖{x} contains A ∉ ∂M, so it is interior; no ridge lies in
    more than two tops (``top_adjacency`` checks this at the start, and
    shedding only removes tops), so it lies in exactly one other top and
    joins the boundary.
    """

    def __init__(self, ball: Complex):
        if not ball.is_pure():
            raise ValueError("shelling needs a pure complex")
        self.n = ball.dimension
        tops = ball.top_simplexes()
        self.tops: set[Simplex] = set(tops)
        self.top_byvertex: dict[int, set[Simplex]] = {}
        for t in tops:
            for v in t:
                self.top_byvertex.setdefault(v, set()).add(t)
        self.bd_ridges: set[Simplex] = set()
        self.bd_faces: dict[Simplex, int] = {}
        for r in _unpaired_facets(tops):
            self._bd_add(r)

    def _bd_add(self, r: Simplex) -> None:
        self.bd_ridges.add(r)
        counts = self.bd_faces
        for f in faces(r):
            counts[f] = counts.get(f, 0) + 1

    def _bd_remove(self, r: Simplex) -> None:
        self.bd_ridges.remove(r)
        counts = self.bd_faces
        for f in faces(r):
            if counts[f] == 1:
                del counts[f]
            else:
                counts[f] -= 1

    def step_is_valid(self, a: Simplex, b: Simplex) -> bool:
        """Check A ∩ ∂M = ∂A and B ⋆ ∂A ⊆ ∂M against the current state, for
        the top t = A ⋆ B with A nonempty and sorted (as every caller builds
        it).

        This is: A ∉ ∂M and t∖{x} is a boundary ridge for every x ∈ A.
        - B ⋆ ∂A is generated by the ridges t∖{x}, x ∈ A, so it lies in ∂M
          exactly when they do.
        - A face with as many vertices as a ridge lies in ∂M only when it is
          itself a boundary ridge.
        - Every proper face of A lies in some t∖{x}, so it lies in ∂M.
        """
        if a in self.bd_faces:
            return False
        t = tuple(sorted(a + b))
        bd = self.bd_ridges
        for x in a:
            i = t.index(x)
            if t[:i] + t[i + 1 :] not in bd:
                return False
        return True

    def valid_steps(self, t: Simplex) -> Iterator[ShellingStep]:
        """The valid (A, B) splits of top simplex t, largest dim A first."""
        for k in range(len(t) - 1, 0, -1):
            for a in combinations(t, k):
                b = tuple(v for v in t if v not in a)
                if self.step_is_valid(a, b):
                    yield ShellingStep(a, b)

    def candidate_steps(self) -> list[ShellingStep]:
        """Valid steps, restricted to tops owning a boundary ridge (every
        valid step's top has B ⋆ (facet of A) on the boundary).  Ordered by
        largest dim A first, then lexicographically."""
        bd = self.bd_ridges
        out = [
            step
            for t in self.tops
            if any(r in bd for r in facets(t))
            for step in self.valid_steps(t)
        ]
        out.sort(key=lambda s: (-len(s.a), s.a, s.b))
        return out

    def apply(self, step: ShellingStep) -> None:
        """Shed the top simplex of a valid step."""
        t = step.top
        self.tops.discard(t)
        for x, r in zip(reversed(t), facets(t)):
            (self._bd_remove if x in step.a else self._bd_add)(r)

    def undo(self, step: ShellingStep) -> None:
        """Put back the top simplex of the step last applied."""
        t = step.top
        self.tops.add(t)
        for x, r in zip(reversed(t), facets(t)):
            (self._bd_add if x in step.a else self._bd_remove)(r)

    def state_key(self) -> frozenset:
        return frozenset(self.tops)


def elementary_shellings(ball: Complex) -> list[ShellingStep]:
    """All currently valid elementary shellings of a pure complex."""
    return _BallState(ball).candidate_steps()


def _greedy_shelling(state: _BallState) -> Optional[Shelling]:
    """Worklist-driven shelling without backtracking.

    A top simplex's step validity only changes when the boundary changes on
    a face of it, so after each shed only the vertex-neighbourhood of the
    removed simplex is re-examined.  Deterministic: the pending heap pops
    lexicographically smallest tops first.  Returns None when stuck, which
    for dimension <= 2 never happens (2-balls are extendably shellable);
    callers fall back to the complete search.
    """
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
            step = next(state.valid_steps(t), None)
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

    The result commutes with order-preserving relabellings: for a pure ball
    and a bijection φ of its vertices with φ(u) < φ(v) whenever u < v, the
    shelling of φ(ball) is φ applied to the shelling of the ball (or both
    are None, or both searches raise).  Both passes read vertex labels only
    through tuple comparisons and set membership, and φ maps sorted tuples
    to sorted tuples and preserves their lexicographic order:
    - the greedy heap pops the least pending top, and holds each top at
      most once, so it pops the same tops in the same order;
    - ``sorted(bd_ridges)`` and ``candidate_steps`` sort, and splits come
      from ``combinations`` of sorted tops, so steps are tried in the same
      order;
    - the order in which a set yields its members only changes the order of
      pushes into the heap, and the final set has one member.
    The purity test, the top count and the node count do not depend on the
    labels at all.  ``reduction.memoized_shelling`` relies on this.
    """
    # the empty complex has an empty f-vector; it is rejected below
    if ball.simplexes and ball.f_vector()[-1] > 1:
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
    # state, the step that entered it, which undoes itself)
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
        state.apply(step)
        path.append(step)
        if len(state.tops) == 1:
            return Shelling(tuple(path), next(iter(state.tops)))
        if state.state_key() in failed:
            state.undo(step)
            path.pop()
            continue
        stack.append((iter(state.candidate_steps()), step))
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
    if work.link_simplexes((apex,)) != boundary_complex(ball).simplexes:
        raise ShellingError("starred apex link does not equal the ball boundary")
    seq = MoveSequence(tuple(moves), ambient.digest(), result.digest())
    return seq, result
