"""The benchmark's tracer patches trimoves functions by module attribute.
Every target must resolve, or a traced run fails; an unused import kept only
for the tracer is otherwise easy to delete by mistake."""
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for target, attr, name in tracing.TARGETS:
        owner = tracing._owner(target)
        assert callable(getattr(owner, attr, None)), f"{target}.{attr} ({name}) does not resolve"
