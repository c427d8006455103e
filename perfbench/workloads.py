"""The benchmark's three workloads: seeded inputs, one operation, its checks.

An operation calls trimoves only through module attributes
(``reduction.relate``, ``pachner.bfs_equivalence``, ...), so the traced run
sees every call it makes.  Inputs come from the ``trimoves.fixtures``
builders and the seed; the library never sees the seed.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from trimoves import pachner, reduction, serialize, subdivision
from trimoves.complexes import Complex, close_under_faces, find_isomorphism
from trimoves.fixtures import grid_torus_complex, random_closed_surface

DEFAULT_SEED = 0  # the seed whose outputs are pinned in reference.json


class CheckError(Exception):
    """An operation's output failed a check."""


@dataclass
class Case:
    label: str
    args: tuple


@dataclass
class Output:
    start: str  # start digest of the emitted sequence
    end: str  # end digest
    moves: int  # sequence length
    sha: str  # sha256 of the serialised output
    detail: object  # what the full check needs; dropped once checked

    def fingerprint(self) -> tuple:
        return (self.start, self.end, self.moves, self.sha)


def _output(seq, text: str, detail) -> Output:
    sha = hashlib.sha256(text.encode()).hexdigest()
    return Output(seq.start_digest, seq.end_digest, len(seq), sha, detail)


def surface_with_vertices(rng: random.Random, n_vertices: int) -> Complex:
    """A seeded random closed surface with exactly ``n_vertices`` vertices.

    The walk starts at the 4-vertex tetrahedron boundary and a move changes
    the vertex count by at most one, so it needs at least n - 4 moves; a
    short walk hits the target most often."""
    while True:
        k = random_closed_surface(rng, rng.randint(n_vertices - 4, n_vertices - 2))
        if len(k.vertices()) == n_vertices:
            return k


class TorusRelate:
    """``reduction.relate`` on flat-torus pairs, serialised like the
    ``trimoves reduce relate`` command (sequence, start, end)."""

    name = "torus-relate"
    tail_q = 1.0  # one pass is six ops, so the tail is the slowest (fat) op
    # the median is the middle of three g=4 ops spread over the pass; the
    # cheapest op comes first because set-up runs it as the warm-up
    PASS = (3, 4, "fat", 4, 5, 4)  # grid sizes, and where the fat pair goes
    JITTER = 0.03  # vertex jitter, as a share of the grid cell
    FAT_OFFSET = (0.05, 0.045)  # moves vertex 4 so an edge reaches the period/2
    # counts the traced run must reproduce exactly, per case: the fat pair's
    # 108 x 108 triangles against 9 translates, of which 221 pairs meet
    TRACED_COUNTS = {
        "fat": {"intersect.clip_simplex_pair": 104_976, "intersect.cells_kept": 221}
    }

    def generate(self, seed: int) -> list[Case]:
        rng = np.random.default_rng(seed)
        cases = []
        for i, g in enumerate(self.PASS):
            if g == "fat":
                cases.append(self._fat(seed, rng))
                continue
            h = 1.0 / g
            shift = tuple(float(x) for x in rng.uniform(0.15, 0.85, 2) * h)
            k1 = grid_torus_complex(g)
            k2 = grid_torus_complex(g, shift=shift)
            jitter = rng.uniform(-self.JITTER, self.JITTER, (g * g, 2)) * h
            for v in sorted(k2.coords):
                k2.coords[v] = (k2.coords[v] + jitter[v]) % 1.0
            cases.append(Case(f"grid{g}-{i}", (k1, k2, 0)))
        return cases

    def _fat(self, seed: int, rng: np.random.Generator) -> Case:
        """The jittered pair of the test suite, translated as a whole (not
        at all for the default seed, which keeps the test's exact pair)."""
        shift = (0.0, 0.0) if seed == DEFAULT_SEED else tuple(
            float(x) for x in rng.uniform(0.0, 1.0, 2)
        )
        k1 = grid_torus_complex(3, shift=shift)
        k2 = grid_torus_complex(3, shift=shift)
        k2.coords[4] = (k2.coords[4] + np.array(self.FAT_OFFSET)) % 1.0
        return Case("fat", (k1, k2, 1))

    def run(self, case: Case) -> Output:
        k1, k2, _ = case.args
        res = reduction.relate(k1, k2, verify=True)
        text = serialize.dumps(
            {
                "sequence": serialize.sequence_to_dict(res.sequence),
                "start": serialize.complex_to_dict(res.start),
                "end": serialize.complex_to_dict(res.end),
            }
        )
        return _output(res.sequence, text, res)

    def check(self, case: Case, out: Output) -> None:
        res = out.detail
        if res.pre_subdivision_depth != case.args[2]:
            raise CheckError(
                f"pre-subdivision depth {res.pre_subdivision_depth}, "
                f"expected {case.args[2]}"
            )
        if res.trace1.total_moves + res.trace2.total_moves != out.moves:
            raise CheckError("the two reductions do not add up to the sequence")

    def replay(self, case: Case, out: Output) -> None:
        res = out.detail
        pachner.replay_verified(res.start, res.sequence, expect=res.end)


class SphereReduce:
    """β^m of a closed sphere, reduced back with ``alpha_to_beta`` and
    replayed against the reduction's own endpoint."""

    name = "sphere-reduce"
    tail_q = 0.75  # two passes of 20 ops leave 10 samples above p75
    SURFACES = 6
    SURFACE_VERTICES = 7
    SURFACE_DEPTHS = (1, 2, 3)
    SPHERE3_DEPTHS = (1, 2)
    TRACED_COUNTS: dict = {}

    def generate(self, seed: int) -> list[Case]:
        rng = random.Random(seed)
        cases = []
        for i in range(self.SURFACES):
            k = surface_with_vertices(rng, self.SURFACE_VERTICES)
            cases += [Case(f"surface{i}-m{m}", (k, m)) for m in self.SURFACE_DEPTHS]
        labels = rng.sample(range(1, 16), 5)  # seeded labels of the 4-simplex
        sphere3 = close_under_faces(
            [tuple(labels[i] for i in f) for f in combinations(range(5), 4)]
        )
        cases += [Case(f"sphere3-m{m}", (sphere3, m)) for m in self.SPHERE3_DEPTHS]
        return cases

    def run(self, case: Case) -> Output:
        k, m = case.args
        alpha = subdivision.iterated_barycentric(k, m)
        seq, trace = reduction.alpha_to_beta(k, alpha)
        pachner.replay_verified(alpha.complex, seq, expect=trace.result)
        text = serialize.dumps(
            {
                "sequence": serialize.sequence_to_dict(seq),
                "trace": {
                    "per_level_moves": {str(r): v for r, v in trace.per_level_moves.items()},
                    "total_moves": trace.total_moves,
                    "reduction_bound": trace.reduction_bound,
                    "level_checks": {str(r): v for r, v in trace.level_checks.items()},
                },
            }
        )
        return _output(seq, text, (alpha, seq, trace))

    def check(self, case: Case, out: Output) -> None:
        alpha, seq, trace = out.detail
        if sum(trace.per_level_moves.values()) != trace.total_moves or trace.total_moves != out.moves:
            raise CheckError("per-level moves do not add up to the sequence")
        if trace.total_moves > trace.reduction_bound:
            raise CheckError("the reduction exceeded its move bound")

    def replay(self, case: Case, out: Output) -> None:
        alpha, seq, trace = out.detail
        pachner.replay_verified(alpha.complex, seq, expect=trace.result)


class PachnerBfs:
    """``pachner.bfs_equivalence`` from a small surface to the same surface
    after d vertex-adding (1-3) moves at seeded random triangles.

    Each move adds one vertex and no move adds more, so the shortest path has
    exactly d moves and the search must clear every complex within d - 1.
    """

    name = "pachner-bfs"
    tail_q = 0.9  # one pass is 105 ops, so p90 has 10 samples above it
    ROUNDS = 35
    # (distance, surface vertices): every goal has 9 vertices, which makes
    # the three distances cost about the same, so the median and the tail
    # fall inside one spread of op times rather than between two clusters
    MIX = ((2, 7), (3, 6), (4, 5))
    TRACED_COUNTS: dict = {}

    def generate(self, seed: int) -> list[Case]:
        rng = random.Random(seed)
        cases = []
        for i in range(self.ROUNDS):
            for d, n_vertices in self.MIX:
                k = surface_with_vertices(rng, n_vertices)
                goal = k
                for _ in range(d):
                    adds = [m for m in pachner.enumerate_moves(goal) if len(m.b) == 1]
                    goal = pachner.apply(goal, rng.choice(adds))
                cases.append(Case(f"bfs{i}-d{d}", (k, goal, d)))
        return cases

    def run(self, case: Case) -> Output:
        k, goal, d = case.args
        seq = pachner.bfs_equivalence(k, goal, d)
        if seq is None:
            raise CheckError(f"no path within distance {d}")
        text = serialize.dumps({"sequence": serialize.sequence_to_dict(seq)})
        return _output(seq, text, seq)

    def check(self, case: Case, out: Output) -> None:
        if out.moves != case.args[2]:
            raise CheckError(f"path of {out.moves} moves, the distance is {case.args[2]}")

    def replay(self, case: Case, out: Output) -> None:
        k, goal, _ = case.args
        end = pachner.apply_sequence(k, out.detail)
        if find_isomorphism(end, goal) is None:
            raise CheckError("the path does not end at the goal")


WORKLOADS = {w.name: w for w in (TorusRelate(), SphereReduce(), PachnerBfs())}
