"""Move-sequence generators: subdivision-to-barycentric reduction and the
end-to-end pipeline relating two geometric triangulations.

``alpha_to_beta`` walks the partial-subdivision ladder downwards: at level r
it stars, for every r-simplex A of the parent K, the star neighbourhood
S(A) = α|A ⋆ β(lk_K A), built from K and the apex map, replacing it by a
cone from a fresh apex.  The apexes give the vertex correspondence for
free: after level r the working complex, relabelled by the apex map, is
equal to the partial subdivision at level r - 1, and at the end to the plain
barycentric subdivision of the parent, whatever its size.  No parent vertex
is ever removed.  Every starring is generated from a shelling certificate
and applied as one replacement of S(A) by the cone; its moves are emitted
unapplied, and ``replay_verified`` checks them move by move.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .bounds import depth_m, reduction_level_bound, reduction_sum_bound, bridge_sum_bound, commonsub_rows, commonsub_violation, mu, total_bound
from .complexes import Complex, Isomorphism, Simplex, WorkingComplex, facets, join_simplexes
from .complexes import find_isomorphism  # noqa: F401  unused; perfbench's tracer patches it here
from .geometry import GeomComplex, Geometry, geometric_barycentric
from .intersect import CommonSubdivision, IntersectionError, barycentric_polytopal, torus_intersect
from .pachner import MoveSequence, PachnerMove, replay_verified
from .pachner import apply_move_inplace  # noqa: F401  unused; perfbench's tracer patches it here
from .shelling import _unpaired_facets, find_shelling, starring_moves
from .subdivision import (
    SubdividedComplex,
    SubdivisionError,
    barycentric,
    compose_carriers,
    iterated_barycentric,
    partial_relative,
    skeleton_counts,
)


class ReductionError(Exception):
    pass


@dataclass
class ReductionTrace:
    """Per-level and total move counts against their bounds.

    ``level_checks[r]`` is ``"exact"``: the working complex, relabelled by the
    apex map (``apex_of[a]`` to the reference's apex for ``a``, the identity
    elsewhere), equals the partial subdivision at level r.
    ``final_isomorphism`` is the level-0 map extended by the identity; it
    sends ``result`` onto the barycentric subdivision of the parent.  The
    moves take ``start``, the subdivision reduced, to ``result``.
    """

    per_level_moves: dict[int, int] = field(default_factory=dict)
    per_level_bounds: dict[int, int] = field(default_factory=dict)
    total_moves: int = 0
    reduction_bound: int = 0
    start: Optional[Complex] = None
    result: Optional[Complex] = None
    final_isomorphism: Optional[Isomorphism] = None
    apex_of: dict[Simplex, int] = field(default_factory=dict)
    level_checks: dict[int, str] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    # star neighbourhoods shelled by a search, and served by memoized_shelling
    shellings_searched: int = 0
    shellings_reused: int = 0


def _link_chains(lk: set[Simplex], a: Simplex, apex_of: dict[Simplex, int]) -> set[Simplex]:
    """β(lk A) on the apexes: every chain c₁ ⊊ … ⊊ c_j of simplexes of
    ``lk``, the link of A in the parent, as the sorted tuple of
    ``apex_of[A ∪ cᵢ]``.  Each link simplex, in order of size, is coned from
    its apex over the chains of its facets."""
    chains: dict[Simplex, set[Simplex]] = {}
    for c in sorted(lk, key=len):
        below = set().union(*map(chains.__getitem__, facets(c)))
        chains[c] = join_simplexes({(apex_of[tuple(sorted(a + c))],)}, below)
    return set().union(*chains.values())


BRIDGE_LAYERS = 2  # barycentric layers beta2_bridge puts on kprime


@dataclass(frozen=True)
class Starring:
    """The starring of a shelled ball M from a fresh apex, in ranks: rank i
    is ``labels[i]``, the i-th smallest vertex of M, and the apex is rank
    ``len(labels)``.  ``moves`` are the (A, B) of ``starring_moves`` on the
    shelling, and ``cone`` the tops apex ⋆ r of apex ⋆ ∂M, one per boundary
    ridge r of M."""

    labels: tuple[int, ...]
    moves: tuple[tuple[Simplex, Simplex], ...]
    cone: tuple[Simplex, ...]

    def at(self, apex: int) -> tuple[list[PachnerMove], list[Simplex]]:
        """The moves and the cone's tops from ``apex``, which must exceed
        every vertex of M: ranks to labels is then order-preserving, so each
        relabelled simplex stays sorted."""
        if apex <= self.labels[-1]:
            raise ValueError(f"apex {apex} is not above the ball's vertices")
        label = (*self.labels, apex).__getitem__
        moves = [PachnerMove(tuple(map(label, a)), tuple(map(label, b))) for a, b in self.moves]
        return moves, [tuple(map(label, t)) for t in self.cone]


def memoized_shelling(ball: Complex, memo: dict) -> tuple[Optional[Starring], bool]:
    """The starring of ``ball`` from its shelling (``find_shelling``),
    served from ``memo`` when a ball of the same order type was shelled
    before.  Returns the starring, None when the ball has no shelling, and
    whether it was served from the memo.

    The key is the sorted maximal simplexes, each vertex replaced by its
    rank among the ball's vertices; the memo holds the ``Starring`` in ranks
    (its moves and cone), so a hit only relabels tuples.  A complex is the
    closure of its maximal simplexes, so two balls with equal keys differ by
    the order-preserving bijection between their vertices, and
    ``find_shelling`` commutes with such maps (proof in its docstring), as
    do ``starring_moves`` and the boundary ridges, with the apex above
    every vertex; so a hit is the search's own starring.  Only successful
    shellings are stored, and only a pure ball has one, so a non-pure ball,
    whose key has a lower-dimensional maximal simplex, never hits and is
    searched (and rejected) as before; ``alpha_to_beta`` rejects such a ball
    before it gets here.
    """
    maximal = ball.maximal_simplexes()
    labels = tuple(sorted({v for m in maximal for v in m}))
    rank = {v: i for i, v in enumerate(labels)}
    key = tuple(tuple(rank[v] for v in m) for m in maximal)
    stored = memo.get(key)
    if stored is not None:
        return Starring(labels, *stored), True
    shelling = find_shelling(ball)
    if shelling is None:
        return None, False
    apex = len(labels)
    stored = memo[key] = (
        tuple((m.a, m.b) for m in starring_moves(shelling.relabel(rank), apex)),
        tuple(r + (apex,) for r in _unpaired_facets(key)),
    )
    return Starring(labels, *stored), False


def alpha_to_beta(
    k: Complex, alpha: SubdividedComplex
) -> tuple[MoveSequence, ReductionTrace]:
    """Moves taking the subdivision ``alpha`` of ``k`` to the barycentric
    subdivision of ``k``, up to the relabelling ``trace.final_isomorphism``.

    Raises ReductionError naming S(A) when some star neighbourhood is not
    pure, admits no shelling or has a top that is not maximal in the
    working complex, and SubdivisionError (a ValueError) when ``alpha``
    fails ``SubdividedComplex.validate``.  Each order type of S(A) is
    searched once per call (``memoized_shelling``), and every level is
    checked exactly.

    S(A) = α|A ⋆ β(lk_K A) is built from its definition (``_link_chains``),
    and only the starring and the level check read the working complex.
    This is the star neighbourhood of α|A there: at the start of level r the
    working complex is P_r relabelled, the partial subdivision at level r
    (``_check_level`` checks it after level r + 1; at r = n it is α).  In
    P_r every simplex through a face σ of α|A carried by A is s ∪ (a chain
    of apexes over cofaces of A) for an α-simplex s ⊇ σ, as s is carried in
    the r-skeleton by a simplex containing A, so by A; and starring another
    r-simplex A′ never touches σ, whose carrier A is not a face of A′.  K is
    a closed pseudomanifold, so lk A is pure of dimension n − r − 1 and S(A)
    is n-dimensional.

    Each S(A) is starred by one ``replace``: its tops out, apex ⋆ r in for
    each boundary ridge r, and the moves of its shelling (``Starring``) are
    emitted without being applied.  Lemma (Pachner 1991; Lickorish 1999):
    the starring moves of a shelling of a ball M, whose tops are maximal
    and whose interior faces lie in no simplex outside M, take M to
    apex ⋆ ∂M and leave the rest of the complex as it was.  The interior
    faces of S(A) = α|A ⋆ β(lk A), a ball joined to a sphere, are those
    that contain a face of α|A carried by A, so by the above they lie in no
    simplex outside S(A); the tops are checked to be maximal.  The replace
    is thus the moves' result, but nothing here trusts it: the level check
    compares the whole working complex with the reference after every
    level, and every emitted sequence is replayed move by move, once, by
    ``replay_verified`` (``relate``, and ``trimoves reduce alpha2beta`` and
    ``reduce bridge``), against the end digest of the replaced complex, so
    any disagreement between the moves and the complex fails the replay.
    """
    if not k.is_closed_pseudomanifold():
        raise ReductionError("the parent complex must be a closed pseudomanifold")
    if alpha.parent.simplexes != k.simplexes:
        raise ReductionError("alpha must subdivide the given complex")
    alpha.validate()
    n = k.dimension
    p = k.f_vector()
    s_counts = skeleton_counts(alpha)

    work = WorkingComplex(alpha.complex, reserve_above=k.max_label())
    parent = WorkingComplex(k)
    kvertex_of = {v: c[0] for v, c in alpha.vertex_carrier.items() if len(c) == 1}
    trace = ReductionTrace()
    trace.reduction_bound = reduction_sum_bound(n, p, s_counts)
    moves: list[PachnerMove] = []
    memo: dict = {}  # shellings by order type, for this call only

    for r in range(n, 0, -1):
        level_moves = 0
        for a in k.simplexes_of_dim(r):
            children = alpha.children_with_carrier_in(a)
            if not any(len(s) == r + 1 for s in children):
                raise ReductionError(f"alpha restricted to {a} has no top simplexes")
            chains = _link_chains(parent.link_simplexes(a), a, trace.apex_of)
            ball = Complex(join_simplexes(children, chains), _assume_closed=True)
            if not ball.is_pure():
                raise ReductionError(f"S({a}): star neighbourhood is not pure")
            starring, reused = memoized_shelling(ball, memo)
            trace.shellings_reused += reused
            trace.shellings_searched += not reused
            if starring is None:
                raise ReductionError(f"S({a}): star neighbourhood is not shellable")
            tops = ball.maximal_simplexes()
            for t in tops:
                if t not in work.maximal_at.get(t[0], ()):
                    raise ReductionError(f"S({a}): top {t} is not maximal in the working complex")
            apex = work.fresh_label()
            mvs, cone = starring.at(apex)
            work.replace(tops, cone)
            trace.apex_of[a] = apex
            level_moves += len(mvs)
            moves.extend(mvs)
        trace.per_level_moves[r] = level_moves
        bound_r = reduction_level_bound(n, r, p, s_counts[r])
        trace.per_level_bounds[r] = bound_r
        if level_moves > bound_r:
            raise ReductionError(
                f"level {r} used {level_moves} moves, above its bound {bound_r}"
            )
        relabel = _check_level(trace, work, k, alpha, r - 1, kvertex_of)

    trace.total_moves = len(moves)
    if trace.total_moves > trace.reduction_bound:
        raise ReductionError("total move count exceeds the reduction bound")

    result = work.snapshot()
    seq = MoveSequence(tuple(moves), alpha.complex.digest(), result.digest())
    removed = seq.removed_vertices() & kvertex_of.keys()
    if removed:
        raise ReductionError(f"moves removed parent vertices {sorted(removed)}")

    trace.start = alpha.complex
    trace.result = result
    trace.final_isomorphism = Isomorphism({v: relabel.get(v, v) for v in result.vertices()})
    return seq, trace


def _check_level(
    trace: ReductionTrace,
    work: WorkingComplex,
    k: Complex,
    alpha: SubdividedComplex,
    r: int,
    kvertex_of: dict[int, int],
) -> dict[int, int]:
    """Require the working complex, relabelled by the apex map, to equal the
    partial subdivision at level r (the barycentric subdivision at r = 0,
    where vertices carried by parent vertices also map to those vertices).
    Returns the relabelling.

    Checking that the relabelling φ is injective on the vertices of the
    working complex K and sends its maximal simplexes onto the reference's
    is exactly the face-set test φ(K) = R with |φ(K)| = |K|: the size
    condition is injectivity on the faces, which is injectivity on the
    vertices, and an injective φ preserves inclusion both ways, so it maps
    the maximal simplexes of K onto those of φ(K), which fix φ(K).
    """
    reference = partial_relative(k, alpha, r) if r >= 1 else barycentric(k)
    relabel = {apex: reference.apex_of[a] for a, apex in trace.apex_of.items()}
    if r == 0:
        relabel.update(kvertex_of)
    vertices = work.maximal_at.keys()
    if len({relabel.get(v, v) for v in vertices}) != len(vertices):
        raise ReductionError(f"after level {r + 1}: the apex map is not injective")
    got = {tuple(sorted(relabel.get(v, v) for v in m)) for m in work.maximal()}
    want = set(reference.complex.maximal_simplexes())
    if got != want:
        wrong = min(got ^ want, key=lambda s: (len(s), s))
        where = (
            f"maximal simplex {wrong} of the level-{r} reference is missing from the relabelled complex"
            if wrong in want
            else f"relabelled maximal simplex {wrong} is not in the level-{r} reference"
        )
        raise ReductionError(f"after level {r + 1}: {where}")
    trace.level_checks[r] = "exact"
    return relabel


def beta2_bridge(
    k: Complex, kprime: SubdividedComplex
) -> tuple[MoveSequence, ReductionTrace]:
    """Relate the twice-subdivided ``kprime`` to the barycentric subdivision
    of ``k``, with the move count checked against the double-factorial sum
    over the skeleton counts of ``kprime`` (p_0 = 2 convention)."""
    layered = compose_carriers(iterated_barycentric(kprime.complex, BRIDGE_LAYERS), kprime)
    seq, trace = alpha_to_beta(k, layered)
    bound = bridge_sum_bound(k.dimension, k.f_vector(), skeleton_counts(kprime))
    trace.notes.append(
        f"two-layer bound {bound} (ridge links contribute the fixed "
        "two-vertex count in place of the vertex total)"
    )
    if len(seq) > bound:
        raise ReductionError(
            f"bridge used {len(seq)} moves, above the two-layer bound {bound}"
        )
    return seq, trace


@dataclass
class RelateResult:
    """End-to-end output: the verified sequence between the barycentric
    subdivisions of the two (pre-subdivided) inputs, plus audit data."""

    sequence: MoveSequence
    start: Complex
    end: Complex
    trace1: ReductionTrace
    trace2: ReductionTrace
    common: CommonSubdivision
    common_vertices: frozenset[int]
    pre_subdivision_depth: int
    # always 0: every star neighbourhood in dimensions 1 and 2 is shellable,
    # so relate never adds layers; kept for the CLI JSON and perfbench's tracer
    escalation_layers: int
    bound_m: int
    bound_value: int
    notes: list[str] = field(default_factory=list)


def _min_convexity_depth(gk: GeomComplex) -> int:
    """Smallest m with kappa^m Lambda < 2 r(M) on the flat torus/circle.

    The Euclidean kappa is n/(n+1), so the test runs in Fractions on the
    exact values of the float edge bound Lambda and period: no rounding can
    drop a level at the boundary."""
    lam = Fraction(gk.max_edge())
    inj = Fraction(gk.period) / 2  # = 2 r(M)
    n = gk.complex.dimension
    contraction = Fraction(n, n + 1)
    m = 0
    while lam >= inj:
        lam *= contraction
        m += 1
        if m > 64:
            raise ReductionError("convexity pre-subdivision depth ran away")
    return m


def _reduce_side(
    b: GeomComplex, sub: SubdividedComplex, side: int
) -> tuple[MoveSequence, ReductionTrace]:
    """``alpha_to_beta`` of one side of the common subdivision, which
    validates it; a failed validation is an IntersectionError naming the
    side and the simplex, and a failed reduction a ReductionError naming
    the side."""
    try:
        return alpha_to_beta(b.complex, sub)
    except SubdivisionError as e:
        raise IntersectionError(f"common subdivision, side {side}: {e}") from e
    except ReductionError as e:
        raise ReductionError(f"side {side}: {e}") from e


def relate(k1: GeomComplex, k2: GeomComplex, *, verify: bool = True) -> RelateResult:
    """Verified move sequence from β(pre-subdivided k1) to β(pre-subdivided
    k2) through their common geometric subdivision.

    Both inputs are barycentrically subdivided until every simplex sits in
    a strongly convex ball, intersected on the torus, and reduced through
    the common subdivision; the two reductions are stitched back to back.
    In dimensions 1 and 2 every star neighbourhood is a 1- or 2-ball, and
    those are all shellable (Danaraj and Klee 1978), so one pass suffices.
    A side of the common subdivision whose carriers fail validation raises
    IntersectionError, and a star neighbourhood that is not pure, as
    near-coincident inputs can leave one, raises ReductionError naming the
    side.
    """
    if k1.tag != k2.tag or k1.tag != Geometry.EUCLIDEAN:
        raise ReductionError("the desk-scale pipeline is Euclidean (flat torus/circle)")
    if k1.period is None or k1.period != k2.period:
        raise ReductionError("inputs must share one torus period")
    n = k1.complex.dimension
    if n != k2.complex.dimension or n > 2:
        raise ReductionError("the pipeline supports dimensions 1 and 2")

    p = k1.complex.f_vector()[n]
    q = k2.complex.f_vector()[n]
    lam = max(k1.max_edge(), k2.max_edge())
    inj = k1.period / 2

    m_geo = max(_min_convexity_depth(k1), _min_convexity_depth(k2))
    b1 = geometric_barycentric(k1, m_geo)
    b2 = geometric_barycentric(k2, m_geo)

    poly = torus_intersect(b1, b2)
    common = barycentric_polytopal(poly, b1, b2)
    sub1, sub2 = common.side1, common.side2
    f1, f2 = b1.complex.f_vector(), b2.complex.f_vector()
    violation = commonsub_violation(
        commonsub_rows(skeleton_counts(sub1), skeleton_counts(sub2), f1, f2)
    )
    if violation:
        raise ReductionError(violation)

    seq1, trace1 = _reduce_side(b1, sub1, 1)
    seq2, trace2 = _reduce_side(b2, sub2, 2)

    full = MoveSequence(
        seq1.reversed().moves + seq2.moves, seq1.end_digest, seq2.end_digest
    )
    start = trace1.result
    end = trace2.result

    common_vertices = frozenset(
        v
        for v in common.complex.vertices()
        if len(sub1.vertex_carrier[v]) == 1 and len(sub2.vertex_carrier[v]) == 1
    )
    removed = full.removed_vertices() & common_vertices
    if removed:
        raise ReductionError(f"sequence removed common vertices {sorted(removed)}")

    m_bound = depth_m(mu(Geometry.EUCLIDEAN, n), lam, inj)
    # n <= 2, so the direct bound with exponent 4 + 3m applies (it holds for n <= 4)
    bound = total_bound(n, p, q, m_bound)
    if len(full) >= bound:
        raise ReductionError(f"sequence length {len(full)} reached the bound {bound}")

    if verify:
        replay_verified(start, full, expect=end)

    return RelateResult(
        sequence=full,
        start=start,
        end=end,
        trace1=trace1,
        trace2=trace2,
        common=common,
        common_vertices=common_vertices,
        pre_subdivision_depth=m_geo,
        escalation_layers=0,
        bound_m=m_bound,
        bound_value=bound,
        notes=["direct reduction through the common subdivision succeeded"],
    )
