"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run starts ``worker.py`` in a child
process with ``PYTHONPATH=src`` and BLAS threads pinned to 1: one client,
one op at a time.  Untraced runs first start the worker twice more for set-up
only and report the median set-up time of the three.  The last line printed
is the result: ``correct``, ``attempted``, ``failed`` and the metrics named in
BENCHMARK.json (end-to-end ones untraced, per-layer ones traced).  The line
before it records the environment; ``.bench_out/`` gets the full record and,
for traced runs, the spans.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_RUNS = 3
BUDGET_S = 170  # every child of one run must end within this
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class RunError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.update({k: "1" for k in BLAS_VARS})
    return env


def run_child(argv: list[str], deadline: float) -> dict:
    """Run the worker, wait for it to end and return its last output line."""
    cmd = [sys.executable, str(HERE / "worker.py"), *argv]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as e:
        raise RunError(f"worker did not finish within {BUDGET_S} s") from e
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunError("worker printed no result")
    return json.loads(lines[-1])


def revision() -> dict:
    """Git revision when the checkout is a repository, and always a digest of
    the library sources."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        rev = proc.stdout.strip() or None
    return {"git_revision": rev, "source_sha256": digest.hexdigest()}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (ROOT / "src" / "trimoves" / "__init__.py").is_file():
        print("no trimoves sources under src/: run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + BUDGET_S
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setups.append(run_child(argv + ["--setup-only"], deadline)["setup_s"])
        result = run_child(argv, deadline)
    except RunError as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])
    metrics = dict(result["metrics"], setup_s=statistics.median(setups))

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"the worker reported no {missing}", file=sys.stderr)
        return 1
    records = result["records"]
    failed = sum(r["error"] is not None for r in records)
    summary = {
        "correct": failed == 0 and not result["errors"],
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    info = {
        "workload": args.workload,
        "trace": args.trace,
        **revision(),
        **result["env"],
        "setup_runs_s": setups,
        "passes": result["passes"],
        "cases": result["cases"],
        "timed_s": result["timed_s"],
        "errors": result["errors"],
    }
    for key in ("tail", "spans"):
        if key in result:
            info[key] = result[key]
    OUT_DIR.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(
        json.dumps({**info, "summary": summary, "records": records}, indent=1) + "\n"
    )
    print(json.dumps(info))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
