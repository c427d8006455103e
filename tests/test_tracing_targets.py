"""The benchmark's tracer patches trimoves functions by module attribute.
Every target must resolve, or a traced run fails; an unused import kept only
for the tracer is otherwise easy to delete by mistake.  Its counter hooks read
fields of the library's results, so a traced relate must still add up."""
import importlib.util
from pathlib import Path

from trimoves import pachner, reduction
from trimoves.fixtures import grid_torus_complex
from .test_reduction import load_workloads

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_tracer_target_resolves():
    tracing = _load_tracing()
    assert tracing.TARGETS
    for target, attr, name in tracing.TARGETS:
        owner = tracing._owner(target)
        assert callable(getattr(owner, attr, None)), f"{target}.{attr} ({name}) does not resolve"


def test_traced_relate_counters():
    tracing = _load_tracing()
    k1 = grid_torus_complex(3)
    k2 = grid_torus_complex(3, shift=(1 / 6, 1 / 6))
    with tracing.Tracer().patched() as tr:
        res = reduction.relate(k1, k2)
    assert tr.errors == []
    assert tr.calls["reduction.relate"] == 1
    assert tr.calls["reduction.alpha_to_beta"] == 2
    assert "reduction.escalation_layers" in tr.counts
    assert tr.counts["reduction.escalation_layers"] == 0
    assert tr.counts["reduction.moves"] == len(res.sequence)


def test_traced_bfs_records_moves(monkeypatch):
    # the search enumerates moves per node and replays only the path it
    # returns, which still goes through apply_move_inplace
    tracing = _load_tracing()
    workloads = load_workloads(monkeypatch)
    bench = workloads.PachnerBfs()
    case = bench.generate(workloads.DEFAULT_SEED)[0]
    k, goal, d = case.args
    with tracing.Tracer().patched() as tr:
        seq = pachner.bfs_equivalence(k, goal, d)
    assert tr.errors == []
    assert len(seq) == d
    assert tr.calls["pachner.bfs_equivalence"] == 1
    assert tr.calls["pachner.enumerate_moves"] > 0
    assert tr.calls["pachner.apply_move_inplace"] == d
