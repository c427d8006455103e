import itertools
import random
from collections import Counter

import pytest

from trimoves import reduction
from trimoves.complexes import Complex, Isomorphism, close_under_faces, cone
from trimoves.fixtures import random_ball_2d, random_ball_3d, random_closed_surface
from trimoves.pachner import SearchCapExceeded, apply_sequence
from trimoves.reduction import memoized_shelling
from trimoves.shelling import (
    ShellingError,
    ShellingStep,
    _BallState,
    _greedy_shelling,
    boundary_complex,
    find_shelling,
    star_via_shelling,
    verify_shelling,
)
from trimoves.subdivision import barycentric, iterated_barycentric
from .test_complexes import boundary_delta3, link


def nonempty_subsets(s):
    return [f for r in range(1, len(s) + 1) for f in itertools.combinations(s, r)]


def splits(t):
    """Every (A, B) with A nonempty and A ⋆ B = t."""
    return [(a, tuple(v for v in t if v not in a)) for a in nonempty_subsets(t)]


def elementary_shellings(ball: Complex):
    """All currently valid elementary shellings of a pure complex."""
    return _BallState(ball).candidate_steps()


def find_sphere_shelling(sphere: Complex):
    """(t, shelling) for the first top t, in order, whose removal leaves a
    shellable ball, or None."""
    for t in sphere.top_simplexes():
        sh = find_shelling(Complex(sphere.simplexes - {t}, _assume_closed=True))
        if sh is not None:
            return t, sh
    return None


def literal_boundary(tops) -> set:
    """∂M recomputed from the tops of M: every nonempty face of a ridge that
    lies in exactly one top."""
    counts = Counter(r for t in tops for r in itertools.combinations(t, len(t) - 1))
    return {f for r, c in counts.items() if c == 1 for f in nonempty_subsets(r)}


def literal_step_is_valid(bd, a, b) -> bool:
    """Oracle for shedding A ⋆ B: A ∩ ∂M = ∂A and B ⋆ ∂A ⊆ ∂M, face by face."""
    faces_a = nonempty_subsets(a)
    if not all((f in bd) == (f != a) for f in faces_a):
        return False
    boundary_a = [()] + [f for f in faces_a if f != a]
    return all(
        tuple(sorted(bp + ap)) in bd for bp in nonempty_subsets(b) for ap in boundary_a
    )


def two_triangles():
    return close_under_faces([(1, 2, 3), (1, 2, 4)])


class TestBoundary:
    def test_single_triangle(self):
        b = boundary_complex(close_under_faces([(1, 2, 3)]))
        assert b.f_vector() == (3, 3)

    def test_two_triangles_four_cycle(self):
        b = boundary_complex(two_triangles())
        assert b.f_vector() == (4, 4)
        assert (1, 2) not in b

    def test_subdivided_triangle(self):
        sub = barycentric(close_under_faces([(1, 2, 3)]))
        b = boundary_complex(sub.complex)
        assert b.f_vector() == (6, 6)

    def test_non_pure_rejected(self):
        with pytest.raises(ValueError):
            boundary_complex(close_under_faces([(1, 2, 3), (4, 5)]))

    def test_ridge_in_three_tops_rejected(self):
        # the edge (1, 2) lies in three triangles, so they form no ball;
        # the error names the ridge
        fan = close_under_faces([(1, 2, 3), (1, 2, 4), (1, 2, 5)])
        for reader in boundary_complex, find_shelling:
            with pytest.raises(ValueError, match=r"ridge \(1, 2\) lies in more than two"):
                reader(fan)


class TestElementarySteps:
    def test_single_simplex_terminal(self):
        assert elementary_shellings(close_under_faces([(1, 2, 3)])) == []

    def test_two_triangles_enumeration_matches_conditions(self):
        k = two_triangles()
        steps = elementary_shellings(k)
        bd = literal_boundary(k.top_simplexes())
        expected = [
            (a, b)
            for t in k.top_simplexes()
            for a, b in splits(t)
            if b and literal_step_is_valid(bd, a, b)
        ]
        assert {(s.a, s.b) for s in steps} == set(expected)
        assert (( 1, 2), (4,)) in {(s.a, s.b) for s in steps}

    def test_interior_triangle_never_listed(self):
        # every listed top simplex must touch the boundary: a triangle with
        # no boundary contact cannot satisfy the free-face condition
        sub = barycentric(close_under_faces([(1, 2, 3)]))
        steps = elementary_shellings(sub.complex)
        bd_vertices = {x for (x,) in boundary_complex(sub.complex).simplexes_of_dim(0)}
        for s in steps:
            assert set(s.top) & bd_vertices


def reduction_balls(monkeypatch) -> list[Complex]:
    """Every star neighbourhood S(A) that alpha_to_beta shells on β² of two
    seeded random surfaces and on β¹ of ∂Δ⁴, whether searched or served
    from its memo: one per r-simplex of each parent, r ≥ 1."""
    balls = []
    real = reduction.memoized_shelling

    def spy(ball, memo):
        balls.append(ball)
        return real(ball, memo)

    monkeypatch.setattr(reduction, "memoized_shelling", spy)
    rng = random.Random(7)
    parents = [(random_closed_surface(rng, 3), 2) for _ in range(2)]
    parents.append((close_under_faces(itertools.combinations(range(5), 4)), 1))
    for k, m in parents:
        reduction.alpha_to_beta(k, iterated_barycentric(k, m))
    assert len(balls) == sum(sum(k.f_vector()[1:]) for k, _ in parents) == 60
    return balls


def assert_boundary_matches(state: _BallState, ball: Complex) -> None:
    """A face of the ball lies in the state's boundary exactly when it is a
    face of a ridge in one remaining top, and those ridges are ``bd_ridges``."""
    bd = literal_boundary(state.tops)
    assert {f for f in ball.simplexes if f in state.boundary} == bd
    assert state.bd_ridges == {f for f in bd if len(f) == state.n}


def test_step_predicate_matches_oracle_along_shellings(monkeypatch):
    # at every state of each greedy shelling, the lookup form of the step
    # test equals the face-by-face definition on every split of every top;
    # before and after applying and undoing every candidate step (the DFS's
    # moves), membership in the boundary is the literal boundary, and undoing
    # restores the tops
    balls = reduction_balls(monkeypatch)
    assert {ball.dimension for ball in balls} == {2, 3}
    for ball in balls:
        shelling = find_shelling(ball)
        state = _BallState(ball)
        for step in shelling.steps + (None,):
            assert_boundary_matches(state, ball)
            bd = literal_boundary(state.tops)
            for t in state.tops:
                for a, b in splits(t):
                    assert state.step_is_valid(a, b) == literal_step_is_valid(bd, a, b), (t, a)
            if step is None:
                break
            for candidate in state.candidate_steps():
                tops = set(state.tops)
                state.apply(candidate)
                assert_boundary_matches(state, ball)
                state.undo(candidate)
                assert_boundary_matches(state, ball)
                assert state.tops == tops
            state.apply(step)
        assert state.tops == {shelling.final}


def searched_step_is_valid(state: _BallState, a, b) -> bool:
    """The step test as a face search: A ∉ ∂M and every t∖{x}, x ∈ A, in ∂M
    through ``WorkingComplex`` membership."""
    bd = state.boundary
    if a in bd:
        return False
    t = tuple(sorted(a + b))
    return all(tuple(v for v in t if v != x) in bd for x in a)


def enumerated_steps(state: _BallState, t) -> list[ShellingStep]:
    """Every split of t that passes the searched step test, largest A
    first, then in ``combinations`` order."""
    return [
        ShellingStep(a, tuple(v for v in t if v not in a))
        for k in range(len(t) - 1, 0, -1)
        for a in itertools.combinations(t, k)
        if searched_step_is_valid(state, a, tuple(v for v in t if v not in a))
    ]


@pytest.mark.parametrize(
    "ball",
    [random_ball_2d(random.Random(seed), 4 + 4 * seed) for seed in range(4)]
    + [random_ball_3d(random.Random(seed), 3 + 3 * seed) for seed in range(4)]
    + [barycentric(close_under_faces([range(n + 1)])).complex for n in (2, 3)],
    ids=[f"2d-{seed}" for seed in range(4)] + [f"3d-{seed}" for seed in range(4)]
    + ["beta-triangle", "beta-tetrahedron"],
)
def test_valid_step_is_the_enumeration(ball):
    # at every state of the greedy shelling, and after each candidate step
    # from it (the DFS's states), valid_step (one ridge lookup per facet of
    # t) is the one split that the searched step test accepts on t, or None
    # when it accepts none
    state = _BallState(ball)
    shelling = _greedy_shelling(state)
    assert shelling is not None
    state = _BallState(ball)
    seen = 0
    for step in shelling.steps + (None,):
        for candidate in [None] + state.candidate_steps():
            if candidate is not None:
                state.apply(candidate)
            for t in state.tops:
                found = state.valid_step(t)
                assert enumerated_steps(state, t) == ([found] if found else []), t
                seen += found is not None
            if candidate is not None:
                state.undo(candidate)
        if step is None:
            break
        state.apply(step)
    assert seen > len(shelling.steps)


class TestFindShelling:
    def test_two_triangles(self):
        sh = find_shelling(two_triangles())
        assert sh is not None and len(sh.steps) == 1
        assert verify_shelling(two_triangles(), sh)

    def test_subdivided_triangle(self):
        ball = barycentric(close_under_faces([(1, 2, 3)])).complex
        sh = find_shelling(ball)
        assert sh is not None and len(sh.steps) == 5
        assert verify_shelling(ball, sh)

    def test_boundary_delta4_sphere(self):
        sphere = close_under_faces(itertools.combinations(range(5), 4))
        found = find_sphere_shelling(sphere)
        assert found is not None
        removed, sh = found
        ball = Complex(sphere.simplexes - {removed}, _assume_closed=True)
        assert verify_shelling(ball, sh)

    def test_three_ball_stack(self):
        tets = [(1, 2, 3, 4), (2, 3, 4, 5), (3, 4, 5, 6)]
        ball = close_under_faces(tets)
        sh = find_shelling(ball)
        assert sh is not None and len(sh.steps) == 2
        assert verify_shelling(ball, sh)

    def test_cap_raises(self, monkeypatch):
        # the full search honours the node budget; hitting it is reported
        # as "undecided", never as a false non-shellable
        ball = close_under_faces([(1, 2, 3, 4), (2, 3, 4, 5), (3, 4, 5, 6)])
        assert _BallState(ball).candidate_steps()
        # bypass the greedy fast path to hit the DFS budget directly
        monkeypatch.setattr("trimoves.shelling._greedy_shelling", lambda s: None)
        monkeypatch.setattr("trimoves.shelling.SHELLING_NODE_CAP", 0)
        with pytest.raises(SearchCapExceeded, match="exceeded 0 nodes"):
            find_shelling(ball)

    @pytest.mark.parametrize(
        "ball",
        [random_ball_2d(random.Random(seed), 3 + 3 * seed) for seed in range(4)]
        + [random_ball_3d(random.Random(seed), 2 + 2 * seed) for seed in range(4)],
        ids=[f"2d-{seed}" for seed in range(4)] + [f"3d-{seed}" for seed in range(4)],
    )
    def test_dfs_alone_finds_a_shelling(self, monkeypatch, ball):
        # the complete search is the fallback for a ball that sticks the
        # greedy; with the greedy off it must still return a shelling
        monkeypatch.setattr("trimoves.shelling._greedy_shelling", lambda s: None)
        sh = find_shelling(ball)
        assert sh is not None and len(sh.steps) == ball.f_vector()[-1] - 1
        assert verify_shelling(ball, sh)

    def test_points(self):
        # a vertex has no facets: one point is its own shelling, two points
        # have none, and the search says so without reading a facet
        assert find_shelling(close_under_faces([(3,)])).final == (3,)
        assert find_shelling(close_under_faces([(0,), (1,)])) is None

    def test_closed_complex_has_no_steps(self):
        # a closed pseudomanifold has no boundary, so no step qualifies and
        # the ball search honestly reports none; the sphere variant removes
        # one top simplex first
        sphere = boundary_delta3()
        assert elementary_shellings(sphere) == []
        assert find_shelling(sphere) is None
        assert find_sphere_shelling(sphere) is not None

    def test_pinched_pair_honestly_nonshellable(self):
        # two triangles sharing only a vertex admit no elementary shelling,
        # so exhaustion reports a genuine None, not a cap
        pinched = close_under_faces([(1, 2, 3), (1, 4, 5)])
        assert elementary_shellings(pinched) == []
        assert find_shelling(pinched) is None

    @pytest.mark.parametrize(
        "tops",
        [
            [(1, 2, 3), (1, 4, 5)],
            [(1, 2, 3, 4), (1, 5, 6, 7)],
            [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 6, 7), (1, 7, 8), (1, 8, 9)],
        ],
        ids=["pinched-pair", "pinched-tetrahedra", "pinched-fans"],
    )
    def test_greedy_stops_when_its_heap_drains(self, tops):
        # two balls sharing one vertex; the fans shed down to one triangle
        # each before the heap drains.  A drained heap leaves no valid step,
        # so the greedy gives up without a rescan and the search agrees
        ball = close_under_faces(tops)
        state = _BallState(ball)
        assert _greedy_shelling(state) is None
        assert len(state.tops) == 2
        assert state.candidate_steps() == []
        assert find_shelling(ball) is None

    def test_beta_squared_three_ball(self):
        # second derived subdivision of a subdivided 3-ball is shellable
        from trimoves.subdivision import iterated_barycentric

        ball = iterated_barycentric(close_under_faces([(1, 2, 3, 4)]), 2).complex
        sh = find_shelling(ball)
        assert sh is not None
        assert verify_shelling(ball, sh)


class TestStarring:
    def ambient_with_ball(self, ball):
        """Embed a 2-ball in a closed surface by coning its boundary."""
        w = ball.max_label() + 1
        return cone(w, boundary_complex(ball)).simplexes | ball.simplexes

    def test_single_triangle_one_move(self):
        ball = close_under_faces([(1, 2, 3)])
        ambient = Complex(self.ambient_with_ball(ball), _assume_closed=True)
        seq, result = star_via_shelling(ambient, ball)
        assert len(seq) == 1

    def test_two_triangles_two_moves(self):
        ball = two_triangles()
        ambient = Complex(self.ambient_with_ball(ball), _assume_closed=True)
        seq, result = star_via_shelling(ambient, ball)
        assert len(seq) == 2
        apex = next(v for v in result.vertices() if v not in ambient.vertices())
        assert link(result, (apex,)).simplexes == boundary_complex(ball).simplexes

    def test_subdivided_triangle_in_subdivided_sphere(self):
        sphere = barycentric(boundary_delta3())
        face = (1, 2, 3)
        ball_simps = sphere.children_with_carrier_in(face)
        ball = Complex(ball_simps, _assume_closed=True)
        assert ball.f_vector()[2] == 6
        seq, result = star_via_shelling(sphere.complex, ball)
        assert len(seq) == 6
        apex = next(
            v for v in result.vertices() if v not in sphere.complex.vertices()
        )
        got = link(result, (apex,))
        want = boundary_complex(ball)
        assert got.simplexes == want.simplexes
        assert result.is_closed_pseudomanifold()

    def test_replay_matches(self):
        ball = two_triangles()
        ambient = Complex(self.ambient_with_ball(ball), _assume_closed=True)
        seq, result = star_via_shelling(ambient, ball)
        assert apply_sequence(ambient, seq) == result

    def test_missing_ball_rejected(self):
        ambient = boundary_delta3()
        with pytest.raises(ShellingError):
            star_via_shelling(ambient, close_under_faces([(7, 8, 9)]))

    def test_ambient_link_condition_enforced(self):
        # an extra triangle hanging off the ball's interior edge breaks the
        # link equality mid-starring and must be rejected at run time
        ambient = Complex(
            boundary_delta3().simplexes | set(close_under_faces([(1, 2, 7)]).simplexes),
            _assume_closed=True,
        )
        ball = two_triangles()
        with pytest.raises(ShellingError):
            star_via_shelling(ambient, ball)


def grow_random_2ball(rng, n_tris):
    """Random shellable disk: glue triangles onto boundary edges."""
    tris = [(0, 1, 2)]
    ball = close_under_faces(tris)
    next_v = 3
    while ball.f_vector()[2] < n_tris:
        bd = boundary_complex(ball)
        edge = rng.choice(bd.simplexes_of_dim(1))
        tris.append(tuple(sorted(edge + (next_v,))))
        next_v += 1
        ball = close_under_faces(tris)
    return ball


def test_random_2balls_shellable_and_starrable():
    rng = random.Random(3)
    for _ in range(10):
        ball = grow_random_2ball(rng, rng.randint(2, 12))
        sh = find_shelling(ball)
        assert sh is not None
        assert verify_shelling(ball, sh)
        w = ball.max_label() + 1
        ambient = Complex(
            cone(w, boundary_complex(ball)).simplexes | ball.simplexes,
            _assume_closed=True,
        )
        seq, result = star_via_shelling(ambient, ball)
        assert len(seq) == ball.f_vector()[2]
        assert result.is_closed_pseudomanifold()


def order_preserving_maps(rng, vertices, count):
    """Random maps of the sorted ``vertices`` onto increasing labels."""
    for _ in range(count):
        labels = sorted(rng.sample(range(4 * len(vertices)), len(vertices)))
        yield dict(zip(vertices, labels))


def shuffled_map(rng, vertices):
    labels = rng.sample(range(4 * len(vertices)), len(vertices))
    return dict(zip(vertices, labels))


def memo_oracle_balls(monkeypatch):
    """The S(A) of reduction_balls, one per distinct ball, and seeded
    random 2-balls."""
    rng = random.Random(11)
    balls = list(dict.fromkeys(reduction_balls(monkeypatch)))
    balls += [grow_random_2ball(rng, rng.randint(2, 12)) for _ in range(6)]
    return balls


def test_memoized_shelling_is_the_fresh_search_under_relabelling(monkeypatch):
    # a hit serves φ applied to the stored shelling, which must be exactly
    # what a fresh search finds on φ(ball); a relabelling that is not
    # order-preserving still gets a valid shelling (the search's own)
    rng = random.Random(5)
    balls = memo_oracle_balls(monkeypatch)
    assert {ball.dimension for ball in balls} == {2, 3}
    for ball in balls:
        memo = {}
        stored, hit = memoized_shelling(ball, memo)
        assert not hit and stored == find_shelling(ball)
        for phi in order_preserving_maps(rng, ball.vertices(), 3):
            image = Isomorphism(phi).apply(ball)
            served, hit = memoized_shelling(image, memo)
            assert hit
            assert served == find_shelling(image) == stored.relabel(phi)
        psi = shuffled_map(rng, ball.vertices())
        image = Isomorphism(psi).apply(ball)
        served, _ = memoized_shelling(image, memo)
        assert verify_shelling(image, served)
        assert served == find_shelling(image)


def test_non_pure_ball_with_stored_tops_is_not_served():
    # the same tops plus an isolated vertex, or plus an edge between two
    # vertices of the ball: the key, the maximal simplexes in ranks, then
    # holds that vertex or edge as a lower-dimensional maximal simplex, so
    # the ball is searched and rejected as find_shelling rejects it
    ball = barycentric(close_under_faces([(1, 2, 3)])).complex
    assert (1, 2) not in ball
    memo = {}
    assert memoized_shelling(ball, memo)[0] is not None
    w = ball.max_label() + 1
    for extra in [(w,)], [(1, 2)]:
        bad = Complex(ball.simplexes | set(extra), _assume_closed=True)
        assert bad.top_simplexes() == ball.top_simplexes()
        with pytest.raises(ValueError, match="pure"):
            find_shelling(bad)
        with pytest.raises(ValueError, match="pure"):
            memoized_shelling(bad, memo)
    assert len(memo) == 1
