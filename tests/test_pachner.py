import random
from bisect import bisect_left
from collections import Counter, deque
from itertools import combinations

import pytest

from trimoves import complexes, pachner, reduction, subdivision
from trimoves.complexes import (
    Complex,
    WorkingComplex,
    close_under_faces,
    closed_pseudomanifold,
    find_isomorphism,
    isomorphism_signature,
    tops_signature,
)
from trimoves.fixtures import random_closed_surface as seeded_surface
from trimoves.pachner import (
    MoveError,
    PachnerMove,
    SearchCapExceeded,
    apply,
    apply_move_inplace,
    apply_moves,
    apply_sequence,
    bfs_equivalence,
    check_applicable,
    enumerate_moves,
    move_tops,
    replay_verified,
    sequence_from_moves,
)
from .test_complexes import boundary_delta3, boundary_of_simplex, link
from .test_reduction import load_workloads


def applicable(k: Complex, a):
    """The unique b with lk(a, K) = ∂b and b ∉ K, if any, from the moves
    ``enumerate_moves`` lists; KeyError when a is not in k."""
    if a not in k:
        raise KeyError(f"simplex {a} not in complex")
    return next((m.b for m in enumerate_moves(k) if m.a == a), None)


class TestApplicable:
    def test_two_two_flip(self):
        k = close_under_faces([(1, 2, 3), (1, 2, 4)])
        assert applicable(k, (1, 2)) == (3, 4)

    def test_blocked_when_b_present(self):
        k = close_under_faces([(1, 2, 3), (1, 2, 4), (3, 4, 5)])
        assert applicable(k, (1, 2)) is None

    def test_top_simplex_gets_fresh_vertex(self):
        k = boundary_delta3()
        b = applicable(k, (1, 2, 3))
        assert b == (5,)

    def test_sphere_edge_blocked(self):
        # lk of an edge of the boundary sphere is two points, but the
        # would-be B is already an edge of the sphere
        k = boundary_delta3()
        assert applicable(k, (1, 2)) is None

    def test_absent_simplex_raises(self):
        with pytest.raises(KeyError):
            applicable(boundary_delta3(), (9,))


class TestApply:
    def test_two_two_flip(self):
        k = close_under_faces([(1, 2, 3), (1, 2, 4)])
        out = apply(k, PachnerMove((1, 2), (3, 4)))
        assert {s for s in out.simplexes if len(s) == 3} == {(1, 3, 4), (2, 3, 4)}

    def test_one_three_move(self):
        k = boundary_delta3()
        out = apply(k, PachnerMove((1, 2, 3), (5,)))
        tris = {s for s in out.simplexes if len(s) == 3}
        assert (1, 2, 3) not in tris
        assert {(1, 2, 5), (1, 3, 5), (2, 3, 5)} <= tris
        assert out.euler_characteristic() == 2
        assert out.is_closed_pseudomanifold()

    def test_rejects_inapplicable(self):
        k = boundary_delta3()
        with pytest.raises(MoveError):
            apply(k, PachnerMove((1, 2), (3, 4)))

    def test_non_pure_complex_keeps_its_dangling_edge(self):
        k = close_under_faces([(1, 2, 3), (3, 4)])
        out = apply(k, PachnerMove((1, 2, 3), (5,)))
        assert out == close_under_faces([(1, 2, 5), (1, 3, 5), (2, 3, 5), (3, 4)])
        # the maximal simplexes the snapshot was handed are the face scan's
        scanned = Complex(out.simplexes, _assume_closed=True).maximal_simplexes()
        assert out.maximal_simplexes() == scanned
        assert (3, 4) in scanned and not out.is_pure()
        with pytest.raises(MoveError, match="link of"):
            apply(k, PachnerMove((3, 4), (5, 6)))

    def test_three_one_removes_vertex(self):
        k = apply(boundary_delta3(), PachnerMove((1, 2, 3), (5,)))
        back = apply(k, PachnerMove((5,), (1, 2, 3)))
        assert back == boundary_delta3()
        assert 5 not in back.vertices()


class TestInvert:
    def test_swap(self):
        m = PachnerMove((1, 2), (3, 4))
        assert m.inverted() == PachnerMove((3, 4), (1, 2))
        assert m.inverted().inverted() == m

    def test_round_trip(self):
        k = boundary_delta3()
        for m in enumerate_moves(k):
            k2 = apply(k, m)
            assert apply(k2, m.inverted()) == k


class TestEnumerate:
    def test_deterministic_order(self):
        k = boundary_delta3()
        moves = enumerate_moves(k)
        assert moves == sorted(moves, key=lambda m: (len(m.a), m.a))
        # all four triangles admit the 1-3 move; edges are blocked on this sphere
        assert [m.a for m in moves] == k.simplexes_of_dim(2)


class TestSequences:
    def test_replay_determinism(self):
        k = boundary_delta3()
        moves = [PachnerMove((1, 2, 3), (5,)), PachnerMove((1, 2, 4), (6,))]
        seq = sequence_from_moves(k, moves)
        out1 = apply_sequence(k, seq)
        out2 = apply_sequence(k, seq)
        assert out1 == out2
        assert out1.digest() == seq.end_digest

    def test_reversed_sequence_undoes(self):
        k = boundary_delta3()
        seq = sequence_from_moves(k, [PachnerMove((1, 2, 3), (5,))])
        fwd = apply_sequence(k, seq)
        back = apply_sequence(fwd, seq.reversed())
        assert back == k

    def test_digest_mismatch_raises(self):
        k = boundary_delta3()
        seq = sequence_from_moves(k, [PachnerMove((1, 2, 3), (5,))])
        other = close_under_faces([(1, 2, 3)])
        with pytest.raises(MoveError):
            apply_sequence(other, seq)


class TestBfs:
    def test_equal_complexes(self):
        k = boundary_delta3()
        seq = bfs_equivalence(k, k, 3)
        assert seq is not None and len(seq) == 0

    @pytest.mark.parametrize("isomorphic", [True, False])
    def test_negative_depth_rejected(self, isomorphic):
        # rejected before the search, whether or not the start is the goal
        k = boundary_delta3()
        l = k if isomorphic else apply(k, PachnerMove((1, 2, 3), (5,)))
        with pytest.raises(ValueError, match="max_depth"):
            bfs_equivalence(k, l, -1)

    def test_one_three_expansion_found_in_one_move(self):
        k = boundary_delta3()
        l = apply(k, PachnerMove((1, 2, 3), (5,)))
        seq = bfs_equivalence(k, l, 2)
        assert seq is not None and len(seq) == 1

    def test_two_eight_triangle_spheres(self):
        # the spheres are not isomorphic (vertex degrees 3, 3, 4, 4, 5, 5
        # against all 4), so the search must try moves
        k, l = two_eight_triangle_spheres()
        seq = bfs_equivalence(k, l, 4, max_nodes=50_000)
        assert seq is not None and len(seq) >= 1
        # replay and confirm the endpoint is reached
        assert find_isomorphism(apply_sequence(k, seq), l) is not None

    @pytest.mark.parametrize(
        "maximal",
        [
            [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (5, 6, 7)],  # not strongly connected
            [(1, 2, 3), (3, 4)],  # not pure
            [(1, 2, 3), (1, 2, 4), (1, 2, 5)],  # an edge in three triangles
        ],
    )
    def test_start_or_goal_outside_signature_domain(self, maximal):
        bad = close_under_faces(maximal)
        with pytest.raises(ValueError):
            bfs_equivalence(bad, boundary_delta3(), 2)
        with pytest.raises(ValueError):
            bfs_equivalence(boundary_delta3(), bad, 2)


def two_eight_triangle_spheres():
    """∂Δ³ after two 1-3 moves, and the octahedron boundary."""
    k = apply(
        apply(boundary_delta3(), PachnerMove((1, 2, 3), (5,))),
        PachnerMove((1, 2, 4), (6,)),
    )
    l = close_under_faces([(a, b, c) for a in (1, 2) for b in (3, 4) for c in (5, 6)])
    return k, l


def unpruned_bfs(k, l, max_depth, max_nodes=20_000):
    """Reference: the breadth-first search without automorphism pruning,
    trying every move of every node."""
    goal = isomorphism_signature(l)
    sig = isomorphism_signature(k)
    if sig == goal:
        return sequence_from_moves(k, ())
    seen = {sig}
    queue = deque([(frozenset(k.top_simplexes()), ())])
    nodes = 0
    while queue:
        tops, path = queue.popleft()
        if len(path) >= max_depth:
            continue
        for move in enumerate_moves(Complex.from_maximal(tops)):
            nodes += 1
            if nodes > max_nodes:
                raise SearchCapExceeded(f"bfs tried more than {max_nodes} moves")
            removed, added = move_tops(move)
            nxt = tops.difference(removed).union(added)
            sig = tops_signature(nxt)[0]
            if sig in seen:
                continue
            seen.add(sig)
            if sig == goal:
                return sequence_from_moves(k, path + (move,))
            queue.append((nxt, path + (move,)))
    return None


def bfs_outcome(search, k, l, d, max_nodes):
    try:
        return search(k, l, d, max_nodes=max_nodes)
    except SearchCapExceeded:
        return "cap"


def seeded_bfs_cases(monkeypatch, n):
    """The first n searches built like the benchmark's, at a seed it does not
    pin: (start, goal, distance)."""
    workloads = load_workloads(monkeypatch)
    return [c.args for c in workloads.WORKLOADS["pachner-bfs"].generate(2)[:n]]


class TestAutomorphismPruning:
    def test_same_paths_as_without_pruning(self, monkeypatch):
        cases = seeded_bfs_cases(monkeypatch, 12) + [two_eight_triangle_spheres() + (4,)]
        for k, l, d in cases:
            seq = bfs_equivalence(k, l, d, max_nodes=50_000)
            assert seq is not None
            assert seq == unpruned_bfs(k, l, d, max_nodes=50_000)

    def test_cap_hit_at_the_same_move(self, monkeypatch):
        # pruned moves count as tried, so both searches give up at the same
        # budgets and return the same path at the others; this search needs
        # 117 moves
        ((k, l, d),) = seeded_bfs_cases(monkeypatch, 1)
        outcomes = set()
        for max_nodes in range(0, 150, 2):
            pruned = bfs_outcome(bfs_equivalence, k, l, d, max_nodes)
            assert pruned == bfs_outcome(unpruned_bfs, k, l, d, max_nodes), max_nodes
            outcomes.add(pruned == "cap")
        assert outcomes == {True, False}

    def test_cap_message_counts_moves(self, monkeypatch):
        ((k, l, d),) = seeded_bfs_cases(monkeypatch, 1)
        with pytest.raises(SearchCapExceeded, match="tried more than 3 moves"):
            bfs_equivalence(k, l, d, max_nodes=3)


def degree_sequence(tops):
    return sorted(Counter(v for t in tops for v in t).values())


class TestLastLayerFilter:
    """At the last layer ``bfs_equivalence`` signs only the children with
    the goal's top count and sorted vertex-degree sequence."""

    def test_out_of_reach_goal(self, monkeypatch):
        # each case's goal is d vertex-adding moves away, so depth d - 1 fails;
        # the least budget that lets the search finish is the same for both
        for k, l, d in seeded_bfs_cases(monkeypatch, 12):
            assert bfs_equivalence(k, l, d - 1) is None
            assert unpruned_bfs(k, l, d - 1) is None
            least = bisect_left(
                range(50_000),
                True,
                key=lambda m: bfs_outcome(bfs_equivalence, k, l, d - 1, m) is None,
            )
            assert least > 0
            for max_nodes in (0, least // 2, least - 1, least, least + 1):
                expected = "cap" if max_nodes < least else None
                assert bfs_outcome(bfs_equivalence, k, l, d - 1, max_nodes) == expected
                assert bfs_outcome(unpruned_bfs, k, l, d - 1, max_nodes) == expected

    def test_signs_only_goal_like_last_layer_children(self, monkeypatch):
        cases = seeded_bfs_cases(monkeypatch, 12)
        signed = []
        real = tops_signature

        def spy(tops):
            signed.append(list(tops))
            return real(tops)

        # bfs_equivalence, isomorphism_signature and unpruned_bfs
        monkeypatch.setattr(pachner, "tops_signature", spy)
        monkeypatch.setattr(complexes, "tops_signature", spy)
        monkeypatch.setitem(globals(), "tops_signature", spy)
        unfiltered_would_sign_other = False
        for k, l, d in cases:
            goal_tops = l.top_simplexes()
            count, degrees = len(goal_tops), degree_sequence(goal_tops)
            signed.clear()
            assert bfs_equivalence(k, l, d) is not None
            filtered = list(signed)
            signed.clear()
            assert unpruned_bfs(k, l, d) is not None
            unfiltered = list(signed)
            # every move changes the top count by at most two and the goal has
            # 2d more tops than k, so complexes of its top count lie at depth d
            goal_like = [t for t in filtered if len(t) == count]
            assert goal_like
            assert all(degree_sequence(t) == degrees for t in goal_like)
            assert len(filtered) < len(unfiltered)
            unfiltered_would_sign_other |= any(
                len(t) == count and degree_sequence(t) != degrees for t in unfiltered
            )
        assert unfiltered_would_sign_other


class TestVertexAccounting:
    def test_top_move_adds_exactly_one_fresh_vertex(self):
        k = boundary_delta3()
        out = apply(k, PachnerMove((1, 2, 3), (5,)))
        assert set(out.vertices()) == set(k.vertices()) | {5}

    def test_inverse_of_cone_removes_interior_vertex(self):
        k = apply(boundary_delta3(), PachnerMove((1, 2, 3), (5,)))
        out = apply(k, PachnerMove((5,), (1, 2, 3)))
        assert set(out.vertices()) == set(k.vertices()) - {5}

    def test_middle_moves_keep_vertex_sets(self):
        k = close_under_faces([(1, 2, 3), (1, 2, 4)])
        out = apply(k, PachnerMove((1, 2), (3, 4)))
        assert set(out.vertices()) == set(k.vertices())

    def test_sequence_replay_byte_identical(self):
        k = boundary_delta3()
        seq = sequence_from_moves(k, [PachnerMove((1, 2, 3), (5,))])
        a = apply_sequence(k, seq).canonical_json()
        b = apply_sequence(k, seq).canonical_json()
        assert a == b


class TestReplayVerified:
    def setup_method(self):
        self.k = boundary_delta3()
        self.seq = sequence_from_moves(
            self.k, [PachnerMove((1, 2, 3), (5,)), PachnerMove((1, 2, 4), (6,))]
        )

    def test_happy_path(self):
        from trimoves.pachner import replay_verified

        out = replay_verified(self.k, self.seq)
        assert out.digest() == self.seq.end_digest

    def test_dropped_move_caught(self):
        from trimoves.pachner import MoveSequence, replay_verified

        broken = MoveSequence(
            self.seq.moves[1:], self.seq.start_digest, self.seq.end_digest
        )
        with pytest.raises(MoveError):
            replay_verified(self.k, broken)

    def test_wrong_expectation_caught(self):
        from trimoves.pachner import replay_verified

        with pytest.raises(MoveError):
            replay_verified(self.k, self.seq, expect=self.k)

    def test_open_start_rejected_under_pseudomanifold_checks(self):
        from trimoves.pachner import replay_verified

        disk = close_under_faces([(1, 2, 3)])
        seq = sequence_from_moves(disk, [])
        with pytest.raises(MoveError):
            replay_verified(disk, seq)
        replay_verified(disk, seq, check_pseudomanifold=False)

    def test_full_checks_at_start_and_end(self, monkeypatch):
        # 23 seeded moves: one whole-complex check on the start and one on
        # the end complex, none between moves
        moves = seeded_moves(self.k)
        end = self.k
        for move in moves:
            end = apply(end, move)
        seq = sequence_from_moves(self.k, moves)
        checked = spy_full_checks(monkeypatch)
        replay_verified(self.k, seq)
        assert checked == [self.k.maximal_simplexes(), end.maximal_simplexes()]
        checked = spy_full_checks(monkeypatch, fail_at=2)
        with pytest.raises(MoveError, match=r"^end complex is not a closed pseudomanifold$"):
            replay_verified(self.k, seq)
        assert len(checked) == 2

    def test_empty_sequence_checked_once(self, monkeypatch):
        # the start check already ran on the end complex
        seq = sequence_from_moves(self.k, [])
        checked = spy_full_checks(monkeypatch)
        assert replay_verified(self.k, seq, expect=self.k) == self.k
        assert checked == [self.k.maximal_simplexes()]


def spy_full_checks(monkeypatch, fail_at=None) -> list:
    """The sorted tops of each whole-complex check of a verified replay,
    in order, as a list that fills as checks run; the ``fail_at``-th check
    fails."""
    real = complexes.closed_pseudomanifold
    checked = []

    def spy(tops, n):
        checked.append(sorted(tops))
        return real(tops, n) and len(checked) != fail_at

    monkeypatch.setattr(pachner, "closed_pseudomanifold", spy)
    return checked


def seeded_moves(k: Complex, count: int = 23, seed: int = 3) -> list[PachnerMove]:
    """``count`` moves from k, each drawn with a seeded rng from the moves of
    the complex the previous ones lead to."""
    rng = random.Random(seed)
    moves = []
    for _ in range(count):
        moves.append(rng.choice(enumerate_moves(k)))
        k = apply(k, moves[-1])
    return moves


def corrupted_replay_error(monkeypatch, after: int, fault) -> str:
    """The MoveError of a verified replay of the seeded moves of ∂Δ³ whose
    working complex gets the maximal simplexes ``fault(added)`` right after
    move ``after`` is applied, where ``added`` are that move's new tops."""
    seq = sequence_from_moves(boundary_delta3(), seeded_moves(boundary_delta3()))
    real = pachner.apply_move_inplace
    applied = []

    def injecting(work, move, n):
        removed, added = real(work, move, n)
        applied.append(move)
        if len(applied) == after + 1:
            work.replace((), fault(added))
        return removed, added

    monkeypatch.setattr(pachner, "apply_move_inplace", injecting)
    with pytest.raises(MoveError) as caught:
        replay_verified(boundary_delta3(), seq)
    return str(caught.value)


# faults put into the working complex right after move 6 of the seeded
# replay, each with the message of the check that rejects it; no check runs
# between moves, so each is caught by the next link condition that reads
# it, or else by the end check
CORRUPTIONS = {
    # a flap on a ridge of the move's first new top: the edge (1, 3) then
    # lies in three triangles, which the link condition of move 8, the next
    # move on that edge, sees
    "ridge in three tops": (
        lambda added: [added[0][:2] + (1000,)],
        "link of (1, 3) is not the boundary of (2, 10)",
    ),
    # a disjoint ∂Δ³ that no later move touches
    "second component": (
        lambda added: list(combinations(range(1001, 1005), 3)),
        "end complex is not a closed pseudomanifold",
    ),
    # a dangling edge from a vertex of the move's first new top
    "lower-dimensional maximal simplex": (
        lambda added: [(added[0][0], 1000)],
        "end complex is not a closed pseudomanifold",
    ),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupted_working_complex_is_rejected(monkeypatch, name):
    fault, message = CORRUPTIONS[name]
    assert corrupted_replay_error(monkeypatch, 6, fault) == message


class TestRidgeCheck:
    def setup_method(self):
        # the sphere with a triangle hanging off edge (1, 2), which then
        # lies in three triangles
        self.k = Complex(
            boundary_delta3().simplexes | close_under_faces([(1, 2, 7)]).simplexes,
            _assume_closed=True,
        )
        self.move = PachnerMove((1, 2, 3), (8,))

    def test_degree_three_ridge_rejected(self):
        # a verified replay rejects the flapped complex at its start check
        seq = sequence_from_moves(self.k, [self.move])
        with pytest.raises(MoveError, match=r"^start complex is not a closed pseudomanifold$"):
            replay_verified(self.k, seq)

    def test_applies_without_ridge_counts(self):
        work = WorkingComplex(self.k)
        apply_moves(work, [self.move], 2)
        assert (1, 2, 8) in work and (1, 2, 3) not in work

    def test_no_ridge_is_left_without_cofacets(self):
        # a ridge stays exactly while some maximal simplex contains it, so
        # after any move every ridge present has a cofacet: here every
        # ridge of the removed triangle and the added ones
        work = WorkingComplex(self.k)
        apply_moves(work, [self.move, PachnerMove((1, 3), (4, 8))], 2)
        tops = set(work.snapshot().top_simplexes())
        for r in work.snapshot().simplexes_of_dim(1):
            assert len(work.through(r)) == sum(set(r) <= set(t) for t in tops) >= 1


def random_applicable_moves(rng, k: Complex, tries: int) -> list[PachnerMove]:
    """The moves among ``tries`` random candidates (a, b) that pass
    ``check_applicable``: a is a simplex of k and b is drawn from the
    vertices of the tops through a, off a, and two fresh labels."""
    work = WorkingComplex(k)
    n = k.dimension
    simplexes = sorted(k.simplexes)
    fresh = [k.max_label() + 1, k.max_label() + 7]
    out = []
    for _ in range(tries):
        a = rng.choice(simplexes)
        pool = sorted(set().union(*work.through(a)).difference(a)) + fresh
        b = tuple(sorted(rng.sample(pool, n + 2 - len(a))))
        if kappa_holds(work, a, b, n):
            out.append(PachnerMove(a, b))
    return out


def test_fuzzed_moves_preserve_invariants():
    # the lemma in check_applicable: a move that passes its link condition
    # takes a closed pseudomanifold to a closed pseudomanifold, and every
    # ridge of its removed and added tops ends in zero or two tops
    rng = random.Random(7)
    spheres = [boundary_of_simplex(tuple(range(1, n + 3))) for n in (1, 2, 3)]
    starts = spheres + [subdivision.barycentric(k).complex for k in spheres]
    starts += [seeded_surface(rng, rng.randint(2, 8)) for _ in range(25)]
    kinds = Counter()
    for k in starts:
        n, chi = k.dimension, k.euler_characteristic()
        # a short walk, testing moves of each complex on it
        for _ in range(4):
            moves = enumerate_moves(k)[:8] + random_applicable_moves(rng, k, 24)
            for m in moves:
                out = apply(k, m)
                degree = Counter(r for t in out.top_simplexes() for r in combinations(t, n))
                removed, added = move_tops(m)
                for r in {r for t in removed + added for r in combinations(t, n)}:
                    assert degree[r] in (0, 2), (m, r)
                assert closed_pseudomanifold(out.maximal_simplexes(), n)
                assert out.euler_characteristic() == chi
                assert apply(out, m.inverted()) == k
                kinds[n, len(m.a)] += 1
            k = apply(k, rng.choice(moves))
    # every kind of move in dimensions 1 to 3 ran
    assert set(kinds) == {(n, size) for n in (1, 2, 3) for size in range(1, n + 2)}
    assert sum(kinds.values()) > 1500


# -- the κ test against the literal link test ----------------------------------


def kappa_holds(work: WorkingComplex, a, b, n: int) -> bool:
    try:
        check_applicable(work, PachnerMove(a, b), n)
    except MoveError:
        return False
    return True


def literal_holds(k: Complex, a, b) -> bool:
    """κ(a, b) applies when dim a + dim b = n, a ∈ K, b ∉ K and
    lk(a, K) = ∂b, read off the full simplex set."""
    return (
        len(a) + len(b) == k.dimension + 2
        and a in k
        and b not in k
        and link(k, a) == boundary_of_simplex(b)
    )


def candidates(k: Complex):
    """For every simplex a: each b of the right size from the vertices of
    lk(a), then b with one vertex swapped for a fresh one, or for a top a
    the fresh vertex and each present vertex off a."""
    fresh = k.max_label() + 1
    for a in sorted(k.simplexes):
        size = k.dimension + 2 - len(a)
        if size == 1:
            yield a, (fresh,)
            yield from ((a, (v,)) for v in k.vertices() if v not in a)
            continue
        link_vertices = sorted({v for s in link(k, a).simplexes for v in s})
        for b in combinations(link_vertices, size):
            yield a, b
            yield a, b[:-1] + (fresh,)


def assert_oracle_agrees(k: Complex) -> int:
    work = WorkingComplex(k)
    accepted = 0
    for a, b in candidates(k):
        want = literal_holds(k, a, b)
        assert kappa_holds(work, a, b, k.dimension) == want, (a, b)
        accepted += want
    return accepted


def with_flaps(k: Complex) -> Complex:
    """k with a new triangle on every edge, so every edge lies in one more
    triangle than in k."""
    label = k.max_label()
    flaps = []
    for i, e in enumerate(k.simplexes_of_dim(1)):
        flaps.append(e + (label + 1 + i,))
    return Complex(k.simplexes | close_under_faces(flaps).simplexes, _assume_closed=True)


def test_kappa_test_matches_link_test_on_bfs_children_and_non_manifolds():
    accepted = 0
    for seed in range(3):
        k = seeded_surface(random.Random(seed), 6)
        accepted += assert_oracle_agrees(k)
        for move in enumerate_moves(k):
            accepted += assert_oracle_agrees(apply(k, move))
        assert_oracle_agrees(with_flaps(k))
        assert_oracle_agrees(
            Complex(k.simplexes | close_under_faces([(1, 99)]).simplexes, _assume_closed=True)
        )
    assert accepted > 100


def assert_through_matches_scan(work: WorkingComplex) -> None:
    """``through(f)`` is every maximal simplex containing f, and ``f in work``
    agrees with the snapshot, for every set of up to n + 2 vertices of the
    complex and one fresh vertex."""
    k = work.snapshot()
    maximal = k.maximal_simplexes()
    vertices = k.vertices() + [k.max_label() + 1]
    for size in range(1, k.dimension + 3):
        for f in combinations(vertices, size):
            assert work.through(f) == {m for m in maximal if set(f) <= set(m)}, f
            assert (f in work) == (f in k), f


def test_through_matches_a_scan_of_the_maximal_simplexes():
    for seed in range(3):
        rng = random.Random(seed)
        k = seeded_surface(rng, 6)
        dangling = Complex(k.simplexes | close_under_faces([(1, 99)]).simplexes, _assume_closed=True)
        for start in (k, dangling):
            work = WorkingComplex(start)
            for _ in range(6):
                assert_through_matches_scan(work)
                apply_move_inplace(work, rng.choice(enumerate_moves(work.snapshot())), 2)
            assert_through_matches_scan(work)
            assert ((1, 99) in work) == (start is dangling)


@pytest.mark.parametrize("label", ["surface0-m1", "sphere3-m1"])
def test_kappa_test_matches_link_test_along_reductions(monkeypatch, label):
    workloads = load_workloads(monkeypatch)
    (case,) = [
        c for c in workloads.SphereReduce().generate(workloads.DEFAULT_SEED) if c.label == label
    ]
    k, m = case.args
    alpha = subdivision.iterated_barycentric(k, m)
    seq, _ = reduction.alpha_to_beta(k, alpha)
    n = k.dimension
    work = WorkingComplex(alpha.complex)
    for move in seq.moves:
        before = work.snapshot()
        a, b = move.a, move.b
        assert literal_holds(before, a, b) and kappa_holds(work, a, b, n)
        # the same a with b moved off the link, and b onto a present vertex
        if len(b) > 1:
            off = b[:-1] + (before.max_label() + 1,)
        else:
            off = (next(v for v in before.vertices() if v not in a),)
        assert not literal_holds(before, a, off) and not kappa_holds(work, a, off, n)
        apply_move_inplace(work, move, n)
