"""In-memory span recorder that wraps trimoves' public functions from outside.

Each wrapped call records a span (name, start, end, parent span, op id).
A span's self time is its duration minus the time covered by its child
spans.  Calls are synchronous, so children never overlap and the covered
time is the sum of the children's durations.

Functions are patched at the module attributes their callers resolve
(``from .x import f`` binds a second name that must be patched too), and
methods on their classes.  ``Tracer.patched()`` restores every original on
exit.
"""
from __future__ import annotations

import gzip
import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (owner, attribute, span name); the owner is a module, or "module:Class"
# for a method.
TARGETS = [
    ("trimoves.reduction", "geometric_barycentric", "geometry.geometric_barycentric"),
    ("trimoves.reduction", "torus_intersect", "intersect.torus_intersect"),
    ("trimoves.intersect", "clip_simplex_pair", "intersect.clip_simplex_pair"),
    ("trimoves.reduction", "barycentric_polytopal", "intersect.barycentric_polytopal"),
    ("trimoves.subdivision", "iterated_barycentric", "subdivision.iterated_barycentric"),
    ("trimoves.subdivision", "partial_relative", "subdivision.partial_relative"),
    ("trimoves.reduction", "partial_relative", "subdivision.partial_relative"),
    ("trimoves.reduction", "find_shelling", "shelling.find_shelling"),
    ("trimoves.shelling", "find_shelling", "shelling.find_shelling"),
    ("trimoves.reduction", "alpha_to_beta", "reduction.alpha_to_beta"),
    ("trimoves.reduction", "relate", "reduction.relate"),
    ("trimoves.reduction", "find_isomorphism", "complexes.find_isomorphism"),
    ("trimoves.pachner", "find_isomorphism", "complexes.find_isomorphism"),
    ("trimoves.complexes:Complex", "digest", "complexes.digest"),
    ("trimoves.complexes:WorkingComplex", "snapshot", "complexes.snapshot"),
    ("trimoves.pachner", "replay_verified", "pachner.replay_verified"),
    ("trimoves.reduction", "replay_verified", "pachner.replay_verified"),
    ("trimoves.pachner", "apply_move_inplace", "pachner.apply_move_inplace"),
    ("trimoves.reduction", "apply_move_inplace", "pachner.apply_move_inplace"),
    ("trimoves.shelling", "apply_move_inplace", "pachner.apply_move_inplace"),
    ("trimoves.pachner", "apply", "pachner.apply"),
    ("trimoves.pachner", "enumerate_moves", "pachner.enumerate_moves"),
    ("trimoves.pachner", "bfs_equivalence", "pachner.bfs_equivalence"),
    ("trimoves.serialize", "dumps", "serialize.dumps"),
    ("trimoves.reduction", "mu", "bounds"),
    ("trimoves.reduction", "depth_m", "bounds"),
    ("trimoves.reduction", "total_bound", "bounds"),
    ("trimoves.reduction", "reduction_sum_bound", "bounds"),
]


def _owner(target: str):
    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, op id)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.errors: list[str] = []  # failed counter cross-checks
        self.op_id = -1
        self._stack: list[list] = []  # [span index, start, child time]

    def _enter(self) -> list:
        frame = [len(self.spans), perf_counter(), 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str) -> None:
        end = perf_counter()
        self._stack.pop()
        duration = end - frame[1]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.spans[frame[0]] = (
            name, frame[1], end, parent[0] if parent else -1, self.op_id
        )
        self.self_s[name] += duration - frame[2]
        self.calls[name] += 1

    def wrap(self, name: str, fn):
        hook = COUNTERS.get(name)

        def traced(*args, **kwargs):
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, name)
            if hook is not None:
                hook(self, result, args)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code, such as one whole operation."""
        frame = self._enter()
        try:
            yield
        finally:
            self._exit(frame, name)

    @contextmanager
    def patched(self):
        saved = []
        try:
            for target, attr, name in TARGETS:
                owner = _owner(target)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        """Gzipped, one tab-separated line per span: op, parent (span line,
        from 0; -1 for none), name, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op\tparent\tname\tstart\tend\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{op}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")


# -- counters read from the wrapped calls' results ------------------------------


def _count_cells(tr: Tracer, poly, args) -> None:
    tr.counts["intersect.cells_kept"] += len(poly.cells)


def _count_subdivision(tr: Tracer, sub, args) -> None:
    tr.counts["subdivision.simplexes_out"] += len(sub.complex)


def _count_shelling(tr: Tracer, shelling, args) -> None:
    if shelling is not None:
        tr.counts["shelling.steps"] += len(shelling.steps)


def _count_reduction(tr: Tracer, result, args) -> None:
    seq, trace = result
    tr.counts["reduction.moves"] += trace.total_moves
    tr.counts["reduction.bound"] += trace.reduction_bound
    for check in trace.level_checks.values():
        tr.counts[f"reduction.level_checks.{check}"] += 1
    if not sum(trace.per_level_moves.values()) == trace.total_moves == len(seq):
        tr.errors.append(
            f"op {tr.op_id}: per-level moves {trace.per_level_moves} do not sum "
            f"to total_moves {trace.total_moves} = len(sequence) {len(seq)}"
        )


def _count_relate(tr: Tracer, res, args) -> None:
    tr.counts["reduction.escalation_layers"] += res.escalation_layers
    if res.trace1.total_moves + res.trace2.total_moves != len(res.sequence):
        tr.errors.append(
            f"op {tr.op_id}: trace moves {res.trace1.total_moves} + "
            f"{res.trace2.total_moves} != len(sequence) {len(res.sequence)}"
        )


def _count_isomorphism(tr: Tracer, iso, args) -> None:
    tr.counts["complexes.find_isomorphism.found"] += iso is not None


def _count_replay(tr: Tracer, out, args) -> None:
    tr.counts["pachner.moves_replayed"] += len(args[1])


def _count_bytes(tr: Tracer, text, args) -> None:
    tr.counts["serialize.bytes_out"] += len(text)


COUNTERS = {
    "intersect.torus_intersect": _count_cells,
    "subdivision.iterated_barycentric": _count_subdivision,
    "shelling.find_shelling": _count_shelling,
    "reduction.alpha_to_beta": _count_reduction,
    "reduction.relate": _count_relate,
    "complexes.find_isomorphism": _count_isomorphism,
    "pachner.replay_verified": _count_replay,
    "serialize.dumps": _count_bytes,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics, keyed as in BENCHMARK.json (without the overhead
    ratio, which needs the untraced pass)."""
    s, c, n = tr.self_s, tr.calls, tr.counts
    clips = c["intersect.clip_simplex_pair"]
    out = {}
    for name in (
        "geometry.geometric_barycentric",
        "intersect.torus_intersect",
        "intersect.clip_simplex_pair",
        "intersect.barycentric_polytopal",
        "subdivision.iterated_barycentric",
        "subdivision.partial_relative",
        "shelling.find_shelling",
        "reduction.alpha_to_beta",
        "reduction.relate",
        "complexes.find_isomorphism",
        "complexes.digest",
        "complexes.snapshot",
        "pachner.replay_verified",
        "pachner.apply_move_inplace",
        "pachner.apply",
        "pachner.enumerate_moves",
        "pachner.bfs_equivalence",
        "serialize.dumps",
        "bounds",
    ):
        out[f"{name}.self_s"] = s[name]
    for name in (
        "geometry.geometric_barycentric",
        "intersect.clip_simplex_pair",
        "subdivision.partial_relative",
        "shelling.find_shelling",
        "reduction.alpha_to_beta",
        "complexes.find_isomorphism",
        "complexes.digest",
        "complexes.snapshot",
        "pachner.apply_move_inplace",
        "pachner.apply",
        "pachner.enumerate_moves",
    ):
        out[f"{name}.calls"] = c[name]
    out["intersect.cells_kept"] = n["intersect.cells_kept"]
    out["intersect.cells_discarded"] = clips - n["intersect.cells_kept"]
    out["intersect.useful_ratio"] = _ratio(n["intersect.cells_kept"], clips)
    out["subdivision.simplexes_out"] = n["subdivision.simplexes_out"]
    out["shelling.steps"] = n["shelling.steps"]
    out["reduction.level_checks.iso"] = n["reduction.level_checks.iso"]
    out["reduction.level_checks.fvector"] = n["reduction.level_checks.fvector"]
    out["reduction.moves"] = n["reduction.moves"]
    out["reduction.moves_over_bound"] = _ratio(n["reduction.moves"], n["reduction.bound"])
    out["reduction.escalation_layers"] = n["reduction.escalation_layers"]
    out["complexes.find_isomorphism.found_ratio"] = _ratio(
        n["complexes.find_isomorphism.found"], c["complexes.find_isomorphism"]
    )
    out["pachner.moves_replayed"] = n["pachner.moves_replayed"]
    out["serialize.bytes_out"] = n["serialize.bytes_out"]
    return out
