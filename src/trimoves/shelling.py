"""Shellability search for balls, and starring via shellings.

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
from itertools import chain
from typing import Optional

from .complexes import Complex, Simplex, WorkingComplex, facet_mates, facets
from .pachner import (
    MoveError,
    MoveSequence,
    PachnerMove,
    SearchCapExceeded,
    apply_moves,
)
from .pachner import apply_move_inplace  # noqa: F401  unused; perfbench's tracer patches it here


SHELLING_NODE_CAP = 2_000_000  # steps one complete shelling search may try


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
    """The facets of ``tops`` that lie in no other of them, in facet-id
    order; ValueError when a ridge lies in more than two."""
    return [
        r
        for r, g in zip(chain.from_iterable(map(facets, tops)), facet_mates(tops))
        if g < 0
    ]


class _BallState:
    """Top-simplex set of a residual ball with an incrementally maintained
    boundary, supporting apply/undo of elementary shellings.

    ∂M is the closure of the boundary ridges, the ridges in exactly one top
    simplex; at the start they are the facets ``facet_mates`` leaves
    unpaired.  ``boundary`` is ∂M as a ``WorkingComplex`` whose maximal
    simplexes are the boundary ridges, so a face f lies in ∂M exactly when
    ``f in boundary``.

    Shedding a valid step t = A ⋆ B changes the boundary on the facets of t
    alone, as the step itself dictates, so the state keeps no ridge → tops
    map and a step is its own undo record.  For x ∈ A, t∖{x} is a boundary
    ridge (step validity), so t is its only top and it leaves the boundary.
    For x ∈ B, t∖{x} contains A ∉ ∂M, so it is interior; no ridge lies in
    more than two tops (``facet_mates`` checks this at the start, and
    shedding only removes tops), so it lies in exactly one other top and
    joins the boundary.  Apply and undo are each one ``replace`` of these
    two sets of ridges.
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
        self.boundary = WorkingComplex(Complex.empty())
        self.boundary.replace((), _unpaired_facets(tops))

    @property
    def bd_ridges(self) -> set[Simplex]:
        """The boundary ridges."""
        return self.boundary.maximal()

    def _is_boundary_ridge(self, r: Simplex) -> bool:
        """r, with as many vertices as a ridge, lies in ∂M.  ∂M's maximal
        simplexes are exactly the boundary ridges, and a face of that size
        lies in ∂M only when it is itself one, so this is one lookup."""
        return r in self.boundary.maximal_at.get(r[0], ())

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
        if a in self.boundary:
            return False
        t = tuple(sorted(a + b))
        return all(self._is_boundary_ridge(tuple(v for v in t if v != x)) for x in a)

    def valid_step(self, t: Simplex) -> Optional[ShellingStep]:
        """The one valid (A, B) split of top simplex t, or None.

        A valid A is exactly the set of vertices x of t whose facet t∖{x}
        is a boundary ridge, found by one lookup per facet.  It lies in that
        set by the step test; and if it missed a vertex x′ of the set, it
        would lie in the boundary ridge t∖{x′}, so in ∂M.  So that set is
        the only candidate: it is a step when it is nonempty, B = t∖A is
        nonempty and A ∉ ∂M.  A vertex has no facets, so no step."""
        if len(t) < 2:
            return None
        a = tuple(x for x in t if self._is_boundary_ridge(tuple(v for v in t if v != x)))
        if not a or len(a) == len(t) or a in self.boundary:
            return None
        return ShellingStep(a, tuple(v for v in t if v not in a))

    def candidate_steps(self) -> list[ShellingStep]:
        """The valid step of every top that has one, largest dim A first,
        then lexicographically."""
        out = [step for step in map(self.valid_step, self.tops) if step is not None]
        out.sort(key=lambda s: (-len(s.a), s.a, s.b))
        return out

    def apply(self, step: ShellingStep) -> None:
        """Shed the top simplex of a valid step."""
        t = step.top
        self.tops.discard(t)
        self.boundary.replace(_facets_off(t, step.a), _facets_off(t, step.b))

    def undo(self, step: ShellingStep) -> None:
        """Put back the top simplex of the step last applied."""
        t = step.top
        self.tops.add(t)
        self.boundary.replace(_facets_off(t, step.b), _facets_off(t, step.a))


def _facets_off(t: Simplex, side: Simplex) -> list[Simplex]:
    """The facets t∖{x} of t for x ∈ side."""
    return [tuple(v for v in t if v != x) for x in side]


def _greedy_shelling(state: _BallState) -> Optional[Shelling]:
    """Worklist-driven shelling without backtracking.

    The heap starts with every top that shares a vertex with a boundary
    ridge, pops the lexicographically smallest pending top first and sheds
    it by its first valid step.  Returns None when the heap drains with more
    than one top left, which for dimension <= 2 never happens (2-balls are
    extendably shellable); callers fall back to the complete search.

    A drained heap means no step is valid, so a rescan could shed nothing.
    The steps of a top u read the boundary on faces of u alone, and:
    - a valid step of u has a boundary ridge as a facet of u, so a top with
      no vertex on a boundary ridge at the start has none, and every other
      top is pushed;
    - shedding t changes the boundary only on faces of t, and every top
      that shares a vertex with t is pushed again.
    So each top left when the heap drains had no valid step when it was
    last popped (or at the start, if never pushed), and the boundary has
    not changed on its faces since.
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
    while heap and len(state.tops) > 1:
        t = heapq.heappop(heap)
        seen_push.discard(t)
        if t not in state.tops:
            continue
        step = state.valid_step(t)
        if step is None:
            continue
        state.apply(step)
        steps.append(step)
        push_near(step.top)
    if len(state.tops) > 1:
        return None
    return Shelling(tuple(steps), next(iter(state.tops)))


def find_shelling(ball: Complex) -> Optional[Shelling]:
    """Backtracking search for a complete shelling.

    A greedy worklist pass runs first (it cannot get stuck in dimension at
    most 2, and usually succeeds above); the complete memoized DFS is the
    fallback.  Returns None only after exhausting the search space, so a
    None is a certificate of non-shellability; trying more than
    ``SHELLING_NODE_CAP`` steps raises SearchCapExceeded instead
    ("undecided"), never a false negative.

    The result commutes with order-preserving relabellings: for a pure ball
    and a bijection φ of its vertices with φ(u) < φ(v) whenever u < v, the
    shelling of φ(ball) is φ applied to the shelling of the ball (or both
    are None, or both searches raise).  Both passes read vertex labels only
    through tuple comparisons and set membership, and φ maps sorted tuples
    to sorted tuples and preserves their lexicographic order:
    - the greedy heap pops the least pending top, and holds each top at
      most once, so it pops the same tops in the same order;
    - ``sorted(bd_ridges)`` and ``candidate_steps`` sort, and a top's one
      step is a subsequence of the sorted top, so steps are tried in the
      same order;
    - the order in which a set yields its members only changes the order of
      pushes into the heap, and the final set has one member.
    The purity test, the top count and the node count do not depend on the
    labels at all.  ``reduction.memoized_shelling`` relies on this.
    """
    state = _BallState(ball)
    if not state.tops:
        raise ValueError("empty complex has no shelling")
    greedy = _greedy_shelling(state)  # one top is its own shelling: the DFS sees two or more
    if greedy is not None:
        return greedy
    state = _BallState(ball)

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
            failed.add(frozenset(state.tops))
            stack.pop()
            if entered_by is not None:
                state.undo(entered_by)
                path.pop()
            continue
        nodes += 1
        if nodes > SHELLING_NODE_CAP:
            raise SearchCapExceeded(f"shelling search exceeded {SHELLING_NODE_CAP} nodes")
        state.apply(step)
        path.append(step)
        if len(state.tops) == 1:
            return Shelling(tuple(path), next(iter(state.tops)))
        if frozenset(state.tops) in failed:
            state.undo(step)
            path.pop()
            continue
        stack.append((iter(state.candidate_steps()), step))
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
    work: WorkingComplex, shelling: Shelling, apex: int, n: int
) -> list[PachnerMove]:
    """Star the ball shelled by ``shelling`` inside an n-dimensional working
    complex from the fresh vertex ``apex``.

    Every move is checked against the ambient complex before it is applied
    (the link of A must be exactly ∂(apex ⋆ B)), which turns the
    containment argument for stars of interior faces into a runtime check;
    each top of the ball must be maximal there.  Returns the applied moves.
    """
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
    if ball.dimension != ambient.dimension:
        raise ShellingError("ball is not full-dimensional in the ambient complex")
    work = WorkingComplex(ambient)
    for s in ball.top_simplexes():
        if s not in work:
            raise ShellingError(f"ball top simplex {s} missing from ambient complex")
    apex = work.fresh_label() if apex is None else apex
    if (apex,) in work:
        raise ShellingError(f"apex {apex} already present in ambient complex")
    moves = star_ball_inplace(work, shelling, apex, ambient.dimension)
    result = work.snapshot()
    if work.link_simplexes((apex,)) != boundary_complex(ball).simplexes:
        raise ShellingError("starred apex link does not equal the ball boundary")
    seq = MoveSequence(tuple(moves), ambient.digest(), result.digest())
    return seq, result
