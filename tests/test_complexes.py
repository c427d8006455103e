import hashlib
import itertools
import json
import random
import re

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from trimoves.complexes import (
    Complex,
    Isomorphism,
    WorkingComplex,
    close_under_faces,
    closed_pseudomanifold,
    cone,
    faces,
    facet_mates,
    find_isomorphism,
    isomorphism_signature,
    join,
    join_simplexes,
    top_adjacency,
    tops_signature,
)
from trimoves.fixtures import grid_torus_complex, random_ball_2d, random_closed_surface
from trimoves.pachner import apply, apply_moves, enumerate_moves
from trimoves.shelling import _unpaired_facets
from trimoves.subdivision import barycentric


def boundary_delta3():
    """∂Δ³ on vertices 1..4."""
    return close_under_faces(itertools.combinations((1, 2, 3, 4), 3))


def octahedron():
    apex_pairs = [(1, 2), (3, 4), (5, 6)]
    tris = []
    for a in apex_pairs[0]:
        for b in apex_pairs[1]:
            for c in apex_pairs[2]:
                tris.append((a, b, c))
    return close_under_faces(tris)


def brute_link(k: Complex, a):
    """Oracle: every set b of vertices off a with a ∪ b in k, found by
    trying each set of up to dim k + 1 − |a| of the vertices v with
    a ∪ {v} in k, the only vertices such a b can hold."""
    av = set(a)
    verts = [v for v in k.vertices() if v not in av and tuple(sorted(av | {v})) in k]
    out = set()
    for r in range(1, k.dimension + 2 - len(a)):
        for b in itertools.combinations(verts, r):
            if tuple(sorted(av | set(b))) in k:
                out.add(b)
    return out


def link(k: Complex, a) -> Complex:
    """lk(a, K) from the oracle, as a complex."""
    return Complex(brute_link(k, a))


def boundary_of_simplex(s) -> Complex:
    """∂s: the complex of proper faces of one simplex."""
    return Complex(set(faces(s)) - {s}, _assume_closed=True)


def brute_join(k: Complex, l: Complex):
    out = set(k.simplexes) | set(l.simplexes)
    for a in k.simplexes:
        for b in l.simplexes:
            out.add(tuple(sorted(a + b)))
    return out


class TestCloseUnderFaces:
    def test_triangle(self):
        k = close_under_faces([(1, 2, 3)])
        assert len(k) == 7
        assert k.f_vector() == (3, 3, 1)

    def test_single_vertex(self):
        k = close_under_faces([(1,)])
        assert set(k.simplexes) == {(1,)}

    def test_two_edges(self):
        k = close_under_faces([(1, 2), (2, 3)])
        assert len(k) == 5

    def test_rejects_open_input(self):
        # the second misses only the vertex (3,) below two edges, so a
        # check of facets alone must still find it
        for simplexes in {(1, 2)}, {(1, 2, 3), (1, 2), (1, 3), (2, 3), (1,), (2,)}:
            with pytest.raises(ValueError):
                Complex(simplexes)


class TestLinkStar:
    def test_link_vertex_in_triangle(self):
        k = close_under_faces([(1, 2, 3)])
        lk = WorkingComplex(k).link_simplexes((1,))
        assert lk == brute_link(k, (1,)) == {(2,), (3,), (2, 3)}

    def test_link_vertex_in_sphere_is_cycle(self):
        k = boundary_delta3()
        lk = Complex(WorkingComplex(k).link_simplexes((1,)))
        assert set(lk.simplexes) == brute_link(k, (1,))
        assert lk.f_vector() == (3, 3)
        assert lk.is_closed_pseudomanifold()

    def test_link_edge_in_sphere(self):
        k = boundary_delta3()
        lk = WorkingComplex(k).link_simplexes((1, 2))
        assert lk == {(3,), (4,)}
        assert lk == brute_link(k, (1, 2))

    def test_link_of_absent_simplex_is_empty(self):
        k = close_under_faces([(1, 2, 3)])
        for a in (9,), (1, 9):
            assert WorkingComplex(k).link_simplexes(a) == brute_link(k, a) == set()


class TestJoin:
    def test_point_point(self):
        e = join(close_under_faces([(1,)]), close_under_faces([(2,)]))
        assert set(e.simplexes) == {(1,), (2,), (1, 2)}

    def test_point_cycle_is_cone(self):
        cyc = close_under_faces([(1, 2), (2, 3), (1, 3)])
        c = cone(9, cyc)
        assert c.f_vector() == (4, 6, 3)

    def test_edge_edge_is_three_simplex(self):
        a = close_under_faces([(1, 2)])
        b = close_under_faces([(3, 4)])
        j = join(a, b)
        assert set(j.simplexes) == set(close_under_faces([(1, 2, 3, 4)]).simplexes)
        assert set(j.simplexes) == brute_join(a, b)
        assert join_simplexes(a.simplexes, b.simplexes) == brute_join(a, b)

    def test_join_rejects_shared_vertices(self):
        with pytest.raises(ValueError):
            join(close_under_faces([(1,)]), close_under_faces([(1, 2)]))


class TestInvariants:
    def test_fvector_euler_pseudomanifold(self):
        k = boundary_delta3()
        assert k.f_vector() == (4, 6, 4)
        assert k.euler_characteristic() == 2
        assert k.is_closed_pseudomanifold()

    def test_single_triangle_not_closed(self):
        assert not close_under_faces([(1, 2, 3)]).is_closed_pseudomanifold()

    def test_strip_euler_matches_enumeration(self):
        # 7-vertex strip of triangles; oracle is the direct alternating sum
        tris = [(i, i + 1, i + 2) for i in range(5)]
        k = close_under_faces(tris)
        by_dim = {}
        for s in k.simplexes:
            by_dim[len(s) - 1] = by_dim.get(len(s) - 1, 0) + 1
        oracle = sum((-1) ** d * c for d, c in by_dim.items())
        assert k.euler_characteristic() == oracle == 1

    def test_boundary_of_simplex(self):
        b = boundary_of_simplex((1, 2, 3, 4))
        assert b.f_vector() == (4, 6, 4)

    def test_join_fvector_law(self):
        # p_k(K*L) = sum_{i+j=k-1} p_i(K) p_j(L) + p_k(K) + p_k(L)
        k = close_under_faces([(1, 2), (2, 3)])
        l = close_under_faces([(7, 8, 9)])
        j = join(k, l)
        pk, pl = k.f_vector(), l.f_vector()

        def p(vec, i):
            return vec[i] if 0 <= i < len(vec) else 0

        for kk in range(j.dimension + 1):
            expected = sum(
                p(pk, i) * p(pl, kk - 1 - i) for i in range(-1, kk + 1)
            ) + p(pk, kk) + p(pl, kk)
            assert j.f_vector()[kk] == expected


def json_canonical(k: Complex) -> str:
    """The canonical text as ``json`` writes it, any label size."""
    return json.dumps(
        {"dimension": k.dimension, "maximal_simplexes": [list(s) for s in k.maximal_simplexes()]},
        separators=(",", ":"),
    )


@st.composite
def labelled_complexes(draw):
    """Up to five maximal simplexes on labels below 2^70, so that some reach
    2^64, where orjson stops writing ints."""
    labels = draw(st.lists(st.integers(0, 2**70), min_size=1, max_size=8, unique=True))
    maxes = draw(st.lists(
        st.lists(st.sampled_from(labels), min_size=1, max_size=4, unique=True),
        min_size=1, max_size=5,
    ))
    return close_under_faces(maxes)


class TestDigest:
    @settings(max_examples=150, deadline=None)
    @given(labelled_complexes())
    def test_canonical_json_equals_json_dumps(self, k):
        assert k.canonical_json() == json_canonical(k)

    @pytest.mark.parametrize("big", [2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**64 + 1, 10**30])
    def test_canonical_json_at_the_64_bit_edge(self, big):
        k = close_under_faces([(0, big), (1,)])
        assert k.canonical_json() == json_canonical(k)
        assert k.digest() == hashlib.sha256(json_canonical(k).encode()).hexdigest()

    def test_memoised_digest_equals_a_fresh_one(self):
        # the first digest() call stores the digest; a second call, a
        # complex built afresh from the same simplexes and a snapshot all
        # give the text's hash, also after moves change the working complex
        rng = random.Random(5)
        for k in [boundary_delta3(), octahedron(), random_closed_surface(rng, 6)]:
            expected = hashlib.sha256(json_canonical(k).encode()).hexdigest()
            assert k.digest() == k.digest() == expected
            assert Complex(set(k.simplexes)).digest() == expected
            work = WorkingComplex(k)
            assert work.snapshot().digest() == expected
            apply_moves(work, [rng.choice(enumerate_moves(k))], k.dimension)
            snap = work.snapshot()
            assert snap.digest() == Complex(set(snap.simplexes)).digest() != expected


def literal_pure(k: Complex) -> bool:
    """Every maximal simplex (one in no larger simplex) has the top dimension."""
    sets = [set(s) for s in k.simplexes]
    maximal = [s for s in sets if not any(s < u for u in sets)]
    return all(len(m) - 1 == k.dimension for m in maximal)


def literal_closed_pseudomanifold(k: Complex) -> bool:
    """Pure of dimension at least 1, every ridge in exactly two tops, and the
    tops connected through shared ridges."""
    n = k.dimension
    if n < 1 or not literal_pure(k):
        return False
    tops = [set(t) for t in k.simplexes_of_dim(n)]
    if any(sum(set(r) < t for t in tops) != 2 for r in k.simplexes_of_dim(n - 1)):
        return False
    reached = [0]
    for i in reached:
        for j, u in enumerate(tops):
            if j not in reached and len(tops[i] & u) == n:
                reached.append(j)
    return len(reached) == len(tops)


def relabelled(k: Complex, offset: int) -> Complex:
    return Complex({tuple(v + offset for v in s) for s in k.simplexes}, _assume_closed=True)


DEGENERATE = {
    # name: (complex, pure, closed pseudomanifold)
    "surface+dangling edge": (
        Complex(octahedron().simplexes | close_under_faces([(1, 9)]).simplexes), False, False
    ),
    "surface+isolated vertex": (Complex(octahedron().simplexes | {(9,)}), False, False),
    "two disjoint spheres": (
        Complex(boundary_delta3().simplexes | relabelled(boundary_delta3(), 4).simplexes),
        True,
        False,
    ),
    "two spheres on a vertex": (
        Complex(boundary_delta3().simplexes | relabelled(boundary_delta3(), 3).simplexes),
        True,
        False,
    ),
    "three triangles on an edge": (
        close_under_faces([(1, 2, 3), (1, 2, 4), (1, 2, 5)]), True, False
    ),
    "boundary of the 4-simplex": (
        close_under_faces(itertools.combinations(range(5), 4)), True, True
    ),
    "single vertex": (close_under_faces([(1,)]), True, False),
    "empty": (Complex.empty(), True, False),
}


def assert_maximal_cache(snap: Complex) -> None:
    """The maximal simplexes a snapshot was handed are the sorted result of
    the face scan, and no caller can change them through a returned list."""
    scanned = Complex(snap.simplexes, _assume_closed=True)
    assert snap.maximal_simplexes() == scanned.maximal_simplexes()
    assert snap.top_simplexes() == scanned.top_simplexes()
    for returned in snap.maximal_simplexes(), snap.top_simplexes():
        returned.append((10**6,))
        returned.reverse()
    assert snap.maximal_simplexes() == scanned.maximal_simplexes()
    assert snap.top_simplexes() == scanned.top_simplexes()


class TestPurityCount:
    """``is_pure`` and ``is_closed_pseudomanifold`` read the maximal
    simplexes, found by a face scan or handed over by a snapshot; both must
    agree with the literal definitions, and so must ``closed_pseudomanifold``
    on the maximal simplexes a working complex holds."""

    @pytest.mark.parametrize("name", sorted(DEGENERATE))
    def test_degenerate_inputs(self, name):
        k, pure, closed = DEGENERATE[name]
        assert (literal_pure(k), literal_closed_pseudomanifold(k)) == (pure, closed)
        snap = WorkingComplex(k).snapshot()
        assert snap == k
        assert_maximal_cache(snap)
        for c in k, snap:
            assert c.is_pure() == pure
            assert c.is_closed_pseudomanifold() == closed
        assert closed_pseudomanifold(WorkingComplex(k).maximal(), k.dimension) == closed
        assert snap.digest() == k.digest()

    def test_random_surfaces(self):
        # each seeded surface, its first derived subdivision, the surface
        # less one triangle (pure with a boundary), and the surface after a
        # few seeded moves, each also through a snapshot
        rng = random.Random(11)
        move_rng = random.Random(12)
        for _ in range(30):
            k = random_closed_surface(rng, rng.randint(2, 8))
            beta = barycentric(k).complex
            punctured = Complex(k.simplexes - {k.top_simplexes()[0]}, _assume_closed=True)
            work = WorkingComplex(k)
            for _ in range(3):
                apply_moves(work, [move_rng.choice(enumerate_moves(work.snapshot()))], 2)
            moved = work.snapshot()
            assert_maximal_cache(moved)
            for c in (k, beta, punctured, moved):
                snap = WorkingComplex(c).snapshot()
                assert_maximal_cache(snap)
                for d in c, snap:
                    assert (d.is_pure(), d.is_closed_pseudomanifold()) == (
                        literal_pure(c),
                        literal_closed_pseudomanifold(c),
                    )
                assert closed_pseudomanifold(
                    WorkingComplex(c).maximal(), c.dimension
                ) == literal_closed_pseudomanifold(c)


def literal_pairing(tops):
    """For each facet id (n + 1)·i + k of ``tops`` (facet k of top i is the
    k-th entry of ``combinations(t, n)``), the ids of the facets of other
    tops with the same vertices, found by scanning every top."""
    size = len(tops[0]) if tops else 0
    faceted = [list(itertools.combinations(t, size - 1)) if size > 1 else [] for t in tops]
    return [
        [size * j + faceted[j].index(r) for j, u in enumerate(tops) if j != i and set(r) <= set(u)]
        for i, t in enumerate(tops)
        for r in faceted[i]
    ]


def assert_pairing_matches_literal(tops):
    """``facet_mates``, ``top_adjacency`` and ``_unpaired_facets`` against
    ``literal_pairing``: the mate of each facet and its vertex off the
    ridge, the unpaired facets in id order, or, for a ridge in three tops,
    the error naming the ridge whose third facet comes first."""
    shared = literal_pairing(tops)
    flat = [r for t in tops for r in (itertools.combinations(t, len(t) - 1) if len(t) > 1 else ())]
    third = [f for f, ids in enumerate(shared) if sum(g < f for g in ids) >= 2]
    if third:
        message = rf"^ridge {re.escape(str(flat[third[0]]))} lies in more than two top simplexes$"
        for reader in facet_mates, top_adjacency, _unpaired_facets:
            with pytest.raises(ValueError, match=message):
                reader(tops)
        return
    mate = [ids[0] if ids else -1 for ids in shared]
    assert facet_mates(tops) == mate
    across = [{} for _ in tops]
    size = len(tops[0]) if tops else 0
    for f, g in enumerate(mate):
        if g >= 0:
            (i, k), (j, l) = divmod(f, size), divmod(g, size)
            across[i][tops[i][size - 1 - k]] = (j, tops[j][size - 1 - l])
    assert top_adjacency(tops) == across
    assert _unpaired_facets(tops) == [r for r, g in zip(flat, mate) if g < 0]


class TestFacetMates:
    """The one ridge pairing and its two readers against a pairing that
    scans every top for each facet."""

    @pytest.mark.parametrize("name", sorted(DEGENERATE))
    def test_degenerate_inputs(self, name):
        assert_pairing_matches_literal(DEGENERATE[name][0].top_simplexes())

    def test_random_surfaces(self):
        # each seeded surface, punctured, moved, and with a flap on one
        # edge (a ridge in three tops), in sorted and in shuffled order
        rng = random.Random(21)
        for _ in range(20):
            k = random_closed_surface(rng, rng.randint(2, 8))
            punctured = Complex(k.simplexes - {k.top_simplexes()[0]}, _assume_closed=True)
            work = WorkingComplex(k)
            for _ in range(3):
                apply_moves(work, [rng.choice(enumerate_moves(work.snapshot()))], 2)
            edge = rng.choice(k.simplexes_of_dim(1))
            flapped = Complex(
                k.simplexes | close_under_faces([edge + (k.max_label() + 1,)]).simplexes,
                _assume_closed=True,
            )
            for c in k, punctured, work.snapshot(), flapped:
                tops = c.top_simplexes()
                assert_pairing_matches_literal(tops)
                rng.shuffle(tops)
                assert_pairing_matches_literal(tops)


class TestIsomorphism:
    def test_identity(self):
        k = boundary_delta3()
        iso = find_isomorphism(k, k)
        assert iso is not None
        assert iso.apply(k) == k

    def test_different_fvectors(self):
        assert find_isomorphism(boundary_delta3(), octahedron()) is None

    def test_torus_chart_relabelings(self):
        # 9-triangle chart: 3x3 vertex grid with diagonals
        def grid_chart(labels):
            tris = []
            for i in range(2):
                for j in range(2):
                    a = labels[3 * i + j]
                    b = labels[3 * i + j + 1]
                    c = labels[3 * (i + 1) + j]
                    d = labels[3 * (i + 1) + j + 1]
                    tris += [(a, b, d), (a, c, d)]
            return close_under_faces(tris)

        k = grid_chart(list(range(9)))
        relabel = [17, 3, 11, 2, 28, 5, 40, 1, 9]
        l = grid_chart(relabel)
        iso = find_isomorphism(k, l)
        assert iso is not None
        assert iso.apply(k) == l
        # verify by composing with the inverse
        inverse = {w: v for v, w in iso.vertex_map.items()}
        comp = {v: inverse[iso.vertex_map[v]] for v in iso.vertex_map}
        assert comp == {v: v for v in comp}

    def test_nontrivial_relabeling_of_sphere(self):
        k = boundary_delta3()
        m = {1: 10, 2: 20, 3: 30, 4: 40}
        l = Isomorphism(m).apply(k)
        iso = find_isomorphism(k, l)
        assert iso is not None
        assert iso.apply(k) == l

    def test_signature_blind_pair_rejected_honestly(self):
        # a 6-cycle and two disjoint triangles share the f-vector and every
        # vertex signature; only exhaustive search can tell them apart
        c6 = close_under_faces([(i, (i + 1) % 6) for i in range(6)])
        two_c3 = close_under_faces(
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        )
        assert c6.f_vector() == two_c3.f_vector()
        assert find_isomorphism(c6, two_c3) is None
        assert find_isomorphism(two_c3, c6) is None

    def test_disconnected_relabeling_found(self):
        k = close_under_faces([(0, 1, 2), (5, 6)])
        l = close_under_faces([(10, 11, 12), (3, 4)])
        iso = find_isomorphism(k, l)
        assert iso is not None
        assert iso.apply(k) == l


def random_relabelling(rng, k):
    verts = k.vertices()
    return Isomorphism(dict(zip(verts, rng.sample(range(100), len(verts))))).apply(k)


def bfs_children(k):
    """k and every complex one move away from it."""
    return [k] + [apply(k, m) for m in enumerate_moves(k)]


def cycle(n):
    return close_under_faces([(i, (i + 1) % n) for i in range(n)])


SIGNATURE_FAMILIES = {
    # the children of a seeded surface are the nodes bfs_equivalence dedups
    **{
        f"surface{n}": (lambda n=n: bfs_children(random_closed_surface(random.Random(n), n)))
        for n in (2, 4, 6)
    },
    "delta4": lambda: bfs_children(close_under_faces(itertools.combinations(range(5), 4))),
    "cycles": lambda: [cycle(n) for n in (3, 5, 8)],
    # with a boundary, the sentinel tells which slots reach a new top
    "disks": lambda: [random_ball_2d(random.Random(i), 1 + i % 8) for i in range(24)],
    # every vertex has degree 6, so every top is a start and the ties run long
    "grid3": lambda: bfs_children(grid_torus_complex(3).complex),
}


class TestIsomorphismSignature:
    def test_invariant_under_relabelling(self):
        rng = random.Random(7)
        cycles = [cycle(n) for n in (3, 5, 8)]
        # on the larger surfaces, starts that tie on degrees give different
        # relabellings, and only the least of them is invariant; every vertex
        # of a grid torus has degree 6, so every top is a start
        surfaces = [random_closed_surface(rng, n) for n in (0, 4, 8) + (30,) * 12]
        tori = [grid_torus_complex(g).complex for g in (3, 4)]
        delta4 = close_under_faces(itertools.combinations(range(5), 4))
        for k in cycles + surfaces + tori + [delta4]:
            sig = isomorphism_signature(k)
            for _ in range(4):
                assert isomorphism_signature(random_relabelling(rng, k)) == sig

    def test_agrees_with_find_isomorphism(self):
        # find_isomorphism is the reference: equal signatures exactly when an
        # isomorphism exists, on every pair of a seeded sample
        rng = random.Random(11)
        sample = [random_closed_surface(rng, rng.randint(0, 10)) for _ in range(40)]
        sample += [random_relabelling(rng, k) for k in sample[:5]]
        sigs = [isomorphism_signature(k) for k in sample]
        outcomes = set()
        for i, j in itertools.combinations(range(len(sample)), 2):
            iso = find_isomorphism(sample[i], sample[j]) is not None
            assert (sigs[i] == sigs[j]) == iso, (sample[i], sample[j])
            outcomes.add(iso)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("family", sorted(SIGNATURE_FAMILIES))
    def test_walk_records_agree_with_find_isomorphism(self, family):
        # the record stream with early abort against the reference, on every
        # pair of a family and of its random relabellings
        rng = random.Random(5)
        base = SIGNATURE_FAMILIES[family]()
        sample = base + [random_relabelling(rng, k) for k in base for _ in range(2)]
        sigs = [isomorphism_signature(k) for k in sample]
        outcomes = set()
        for i, j in itertools.combinations(range(len(sample)), 2):
            iso = find_isomorphism(sample[i], sample[j]) is not None
            assert (sigs[i] == sigs[j]) == iso, (sample[i], sample[j])
            outcomes.add(iso)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("maximal", [[(0,)], [(3, 7)]])
    def test_single_simplex_has_a_signature(self, maximal):
        # a 0-simplex has no ridges, so the walk is the start alone
        k = close_under_faces(maximal)
        sig = isomorphism_signature(k)
        assert isomorphism_signature(random_relabelling(random.Random(1), k)) == sig
        assert sig != isomorphism_signature(close_under_faces([(0, 1, 2)]))

    @pytest.mark.parametrize(
        "maximal",
        [
            [(0,), (1,)],  # isolated vertices share no ridge, not even ()
            [(0,), (1,), (2,)],
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],  # not strongly connected
            [(0, 1, 2), (2, 3)],  # not pure
            [(0, 1, 2), (0, 1, 3), (0, 1, 4)],  # an edge in three triangles
            [],  # empty
        ],
    )
    def test_outside_domain_rejected(self, maximal):
        with pytest.raises(ValueError):
            isomorphism_signature(close_under_faces(maximal))


def fan_disk():
    """Three triangles around the vertex 0."""
    return close_under_faces([(0, 1, 2), (0, 2, 3), (0, 3, 4)])


def brute_automorphism_count(k):
    """Oracle: the degree-preserving vertex permutations that map the top
    simplexes onto themselves."""
    tops = set(k.top_simplexes())
    degree = {v: sum(v in t for t in tops) for v in k.vertices()}
    classes = [[v for v in degree if degree[v] == d] for d in sorted(set(degree.values()))]
    count = 0
    for perms in itertools.product(*map(itertools.permutations, classes)):
        g = dict(zip(itertools.chain(*classes), itertools.chain(*perms)))
        count += all(tuple(sorted(map(g.__getitem__, t))) in tops for t in tops)
    return count


def assert_automorphism_group(k, tops=None):
    """Check tops_signature's automorphisms of k, with the top simplexes in
    the order ``tops``; return the group order."""
    tops = k.top_simplexes() if tops is None else tops
    top_set = set(tops)
    sig, autos = tops_signature(tops)
    assert sig == isomorphism_signature(k)
    for g in autos:
        assert sorted(g) == k.vertices()
        assert {tuple(sorted(map(g.__getitem__, t))) for t in tops} == top_set
    # distinct and none the identity, so with it they are the whole group
    maps = {frozenset(g.items()) for g in autos}
    assert len(maps) == len(autos)
    assert frozenset((v, v) for v in k.vertices()) not in maps
    assert len(autos) + 1 == brute_automorphism_count(k)
    return len(autos) + 1


class TestAutomorphisms:
    @pytest.mark.parametrize(
        "make, order",
        [
            (boundary_delta3, 24),
            (lambda: close_under_faces(itertools.combinations(range(5), 4)), 120),
            (octahedron, 48),
            (lambda: cycle(5), 10),
            (lambda: cycle(8), 16),
            (fan_disk, 2),
        ],
        ids=["delta3", "delta4", "octahedron", "cycle5", "cycle8", "fan-disk"],
    )
    def test_group_order(self, make, order):
        assert assert_automorphism_group(make()) == order

    def test_ties_with_a_beaten_stream_are_dropped(self):
        # in this top order a start ties an early best stream that a later
        # start beats; the maps from that tie are no automorphisms
        tops = [(1, 4, 7), (0, 1, 2), (1, 5, 6), (1, 6, 7), (0, 1, 3), (0, 2, 3), (1, 2, 4), (1, 3, 5)]
        assert assert_automorphism_group(close_under_faces(tops), tops) == 2

    def test_bfs_children_of_a_seeded_surface(self):
        # every child and a random relabelling of it, against the oracle
        rng = random.Random(3)
        orders = set()
        for k in bfs_children(random_closed_surface(random.Random(4), 4)):
            orders.add(assert_automorphism_group(k))
            assert_automorphism_group(random_relabelling(rng, k))
        assert len(orders) > 1


@st.composite
def small_complexes(draw):
    n_verts = draw(st.integers(min_value=1, max_value=8))
    verts = list(range(n_verts))
    n_max = draw(st.integers(min_value=1, max_value=6))
    maxes = []
    for _ in range(n_max):
        size = draw(st.integers(min_value=1, max_value=min(4, n_verts)))
        maxes.append(tuple(sorted(draw(st.permutations(verts))[:size])))
    return close_under_faces(maxes)


@settings(max_examples=60, deadline=None)
@given(small_complexes())
def test_fuzzed_downward_closure(k):
    for s in k.simplexes:
        for f in itertools.chain.from_iterable(
            itertools.combinations(s, r) for r in range(1, len(s))
        ):
            assert f in k


@settings(max_examples=40, deadline=None)
@given(small_complexes())
def test_fuzzed_link_against_oracle(k):
    work = WorkingComplex(k)
    for a in sorted(k.simplexes)[:10]:
        assert work.link_simplexes(a) == brute_link(k, a)


def brute_isomorphic(k: Complex, l: Complex) -> bool:
    """Oracle: whether some bijection of the vertex sets sends k's simplex
    set onto l's, trying every one.  A vertex bijection is one-to-one on
    simplexes, so with equal simplex counts into is onto."""
    kv, lv = k.vertices(), l.vertices()
    if len(kv) != len(lv) or len(k) != len(l):
        return False
    simplexes = sorted(k.simplexes)
    for image in itertools.permutations(lv):
        m = dict(zip(kv, image))
        if all(tuple(sorted(m[v] for v in s)) in l for s in simplexes):
            return True
    return False


@st.composite
def complex_pairs(draw):
    """Complexes to search between: two drawn ones, a random relabelling of
    the first, and its twin, the same number of maximal simplexes of each
    size redrawn on its vertices (often isomorphic to it, sometimes only
    sharing its f-vector)."""
    k, l = draw(small_complexes()), draw(small_complexes())
    labels = draw(st.permutations(range(12)))
    relabelled = Complex({tuple(sorted(labels[v] for v in s)) for s in k.simplexes})
    twin = close_under_faces(
        draw(st.permutations(k.vertices()))[: len(m)] for m in k.maximal_simplexes()
    )
    return [(k, l), (k, relabelled), (relabelled, l), (k, twin), (twin, relabelled)]


@seed(8)
@settings(max_examples=60, deadline=None)
@given(complex_pairs())
def test_fuzzed_isomorphism_against_brute_force(pairs):
    # non-pure, mixed-dimensional complexes: the mapped part of each maximal
    # simplex is all the search checks, so every map found must be checked
    for a, b in pairs:
        iso = find_isomorphism(a, b)
        assert (iso is not None) == brute_isomorphic(a, b), (a.simplexes, b.simplexes)
        if iso is not None:
            assert sorted(iso.vertex_map) == a.vertices()
            assert iso.apply(a).simplexes == b.simplexes
