"""One benchmark run of one workload, in its own process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        [--setup-only] [--write-reference]

``run.py`` starts it with ``PYTHONPATH=src`` and BLAS threads pinned to 1,
and reads the JSON object it prints as its last line.  Set-up time runs
from the top of this file: imports, input generation and one warm-up op.

Untraced, the run repeats whole passes over the workload's inputs, one op
at a time, while another pass still fits in ``--seconds`` of op time.
Traced, it makes one untraced pass and one traced pass over the same inputs
and compares their outputs.  Every op's output is checked outside the op
time: on its first run against reference.json (default seed) or by replay
(any other seed), afterwards against that first output.
"""
from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from math import ceil  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import trimoves  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, CheckError  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
OUT_DIR = ROOT / ".bench_out"


class Checker:
    """Checks each op's output and pins it for the ops that repeat it."""

    def __init__(self, workload, seed: int, *, replay: bool = False):
        self.workload = workload
        self.reference = None
        if seed == DEFAULT_SEED and not replay:
            self.reference = json.loads(REFERENCE.read_text()).get(workload.name, {})
        self.first: dict[str, tuple] = {}  # case label -> fingerprint
        self.moves: dict[str, int] = {}  # case label -> sequence length

    def __call__(self, case, out) -> None:
        pinned = self.first.get(case.label)
        if pinned is not None:
            if out.fingerprint() != pinned:
                raise CheckError("output differs from the first run of this input")
            return
        self.workload.check(case, out)
        if self.reference is None:
            self.workload.replay(case, out)
        elif self.reference.get(case.label) != [out.start, out.end, out.moves]:
            raise CheckError(
                f"digests or move count {[out.start, out.end, out.moves]} differ "
                f"from reference.json {self.reference.get(case.label)}"
            )
        self.first[case.label] = out.fingerprint()
        self.moves[case.label] = out.moves


def run_pass(workload, cases, check, records, tracer=None) -> float:
    """Run every case once; append one record per op; return the op time."""
    total = 0.0
    for case in cases:
        expected = workload.TRACED_COUNTS.get(case.label) if tracer else None
        if tracer is not None:
            tracer.op_id = len(records)
            before = {k: tracer.calls[k] + tracer.counts[k] for k in expected or ()}
        out = error = None
        t0 = perf_counter()
        try:
            if tracer is None:
                out = workload.run(case)
            else:
                with tracer.span("op"):
                    out = workload.run(case)
        except Exception as e:  # a failed op is counted, the run goes on
            error = f"{type(e).__name__}: {e}"
            traceback.print_exc()
        seconds = perf_counter() - t0
        total += seconds
        if out is not None:
            try:
                check(case, out)
            except Exception as e:
                error = f"check: {type(e).__name__}: {e}"
                traceback.print_exc()
        record = {
            "case": case.label,
            "seconds": seconds,
            "moves": out.moves if out is not None else None,
            "error": error,
        }
        if expected:
            got = {k: tracer.calls[k] + tracer.counts[k] - before[k] for k in before}
            if got != expected:
                tracer.errors.append(f"{case.label}: traced counts {got}, expected {expected}")
        records.append(record)
    return total


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, ceil(q * len(sorted_values)) - 1)]


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def untraced(workload, cases, check, seconds: float) -> dict:
    records: list[dict] = []
    timed = 0.0
    passes = 0
    while True:
        spent = run_pass(workload, cases, check, records)
        timed += spent
        passes += 1
        if timed + spent > seconds:
            break
    times = sorted(r["seconds"] for r in records if r["error"] is None)
    ok = len(times)
    metrics = {
        "ops_per_s": ok / timed,
        "op_p50_s": statistics.median(times) if times else 0.0,
        "op_tail_s": percentile(times, workload.tail_q) if times else 0.0,
        "verified_ratio": ok / len(records),
        "moves_per_op": statistics.fmean(check.moves.values()) if check.moves else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {
        "metrics": metrics,
        "records": records,
        "passes": passes,
        "timed_s": timed,
        "tail": {"q": workload.tail_q, "samples": ok,
                 "beyond": ok - ceil(workload.tail_q * ok) if ok else 0},
        "errors": [],
    }


def traced(workload, cases, check) -> dict:
    records: list[dict] = []
    plain = run_pass(workload, cases, check, records)
    tracer = Tracer()
    with tracer.patched():
        spent = run_pass(workload, cases, check, records, tracer)
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_ratio"] = spent / plain
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(OUT_DIR / f"spans-{workload.name}.tsv.gz")
    errors = list(tracer.errors)
    moves = [r["moves"] for r in records]
    if moves[: len(cases)] != moves[len(cases):]:
        errors.append("the traced pass emitted other move counts than the untraced one")
    return {
        "metrics": metrics,
        "records": records,
        "passes": 2,
        "timed_s": plain + spent,
        "spans": len(tracer.spans),
        "errors": errors,
    }


def write_reference(workload, cases) -> None:
    """Pin the default seed's outputs, each verified by replay first."""
    check = Checker(workload, DEFAULT_SEED, replay=True)
    records: list[dict] = []
    run_pass(workload, cases, check, records)
    failed = [r for r in records if r["error"] is not None]
    if failed:
        raise SystemExit(f"not writing a reference: {failed}")
    table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    table[workload.name] = {
        label: [fp[0], fp[1], fp[2]] for label, fp in check.first.items()
    }
    lines = []
    for name in sorted(table):
        rows = ",\n".join(
            f"    {json.dumps(label)}: {json.dumps(entry)}"
            for label, entry in sorted(table[name].items())
        )
        lines.append(f"  {json.dumps(name)}: {{\n{rows}\n  }}")
    REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args()

    source = Path(trimoves.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"trimoves was imported from {source}, not from this checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    cases = workload.generate(args.seed)
    if args.write_reference:
        write_reference(workload, cases)
        return 0
    warmup: list[dict] = []
    run_pass(workload, cases[:1], lambda case, out: None, warmup)
    setup_s = perf_counter() - T_START
    if warmup[0]["error"] is not None:
        print(f"warm-up op failed: {warmup[0]['error']}", file=sys.stderr)
        return 1
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    check = Checker(workload, args.seed)
    if args.trace:
        result = traced(workload, cases, check)
    else:
        result = untraced(workload, cases, check, args.seconds)
    result.update(setup_s=setup_s, env=environment(args.seed), cases=len(cases))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
