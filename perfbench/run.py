"""Benchmark entry point for accsens.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout: the library is imported from the
checkout's ``src/`` and nowhere else.  The workload runs in a fresh worker
process with BLAS/OpenMP threads pinned to 1 (a closed loop: one caller, one
call at a time).  With ``--trace 0`` the last stdout line holds every
end-to-end metric named in ``BENCHMARK.json``; ``setup_s`` is the median of
``SETUP_PROBES`` more fresh processes that only set up.  With ``--trace 1``
it holds every per-layer metric instead, from one extra traced pass.

The full record of the run (seed, machine, pass times, all metrics) is
written to ``perfbench/results/``, and the traced pass's spans to
``perfbench/results/spans-<workload>.npz``.

Exit codes: 0 correct, 1 a wrong answer or a failed run, 2 no library or
benchmark definition found in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_PROBES = 3
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 20
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class RunFailed(Exception):
    pass


def _worker(argv: list[str], timeout: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", **{var: "1" for var in THREAD_VARS})
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise RunFailed(f"worker {argv} exceeded {timeout} s") from None
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 and "wrong_answer" not in result:
        raise RunFailed(f"worker {argv} exited with code {proc.returncode}")
    return result


def _emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's reduced inputs")
    args = parser.parse_args()

    if not (ROOT / "src" / "accsens" / "__init__.py").is_file():
        print(f"no accsens package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    try:
        record = _worker(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--spans", str(RESULTS / f"spans-{args.workload}.npz")],
            WORKER_TIMEOUT_S,
        )
        if "wrong_answer" in record:
            print(f"wrong answer: {record['wrong_answer']}", file=sys.stderr)
            _emit(False, 1, 0, {})
            return 1
        if args.trace:
            values = record["per_layer"]
            declared = spec["per_layer"]
        else:
            probes = [_worker(common + ["--setup-only"], PROBE_TIMEOUT_S)["setup_s"] for _ in range(SETUP_PROBES)]
            record["setup_probes_s"] = probes
            values = dict(record["end_to_end"], setup_s=statistics.median(probes))
            declared = spec["end_to_end"]
    except RunFailed as exc:
        print(exc, file=sys.stderr)
        return 1

    metrics = {}
    for m in declared:
        value = values[m["name"]]
        if not math.isfinite(value):
            print(f"metric {m['name']} is undefined on this run ({value})", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    record["metrics"] = metrics
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(
        f"perfbench {args.workload} seed={args.seed}: {len(record['pass_s'])} passes "
        f"of {record['targets']} targets; record in {(RESULTS / f'{tag}.json').relative_to(ROOT)}"
    )
    _emit(True, record["attempted"], record["failed"], metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
