"""One benchmark workload in a fresh single-threaded process.

Started by ``run.py``, which sets the BLAS/OpenMP thread variables before
this process imports numpy.  Prints one JSON object as its last stdout line.

Set-up (importing ``accsens`` with ``accsens.cli`` and building the inputs)
is timed from the first line of this file.  With ``--setup-only`` the process
stops there.  Otherwise it runs untraced passes until the next pass would end
after ``--seconds`` (at least ``MIN_PASSES``), checks the first pass's
outputs and that every later pass returns identical ones, and with
``--trace 1`` runs one more pass with every layer traced.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import accsens  # noqa: E402
import accsens.cli  # noqa: E402,F401
import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.optimize  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3

#: Interpreter calibration.  Other tenants of a shared host slow Python-level
#: code by up to 1.5x for minutes at a time, while numpy kernels on large
#: arrays barely slow down.  A fixed interpreter-bound kernel, timed every
#: ``CAL_EVERY_S`` during the passes, tracks that slowdown; the
#: interpreter-bound share of each pass is scaled by ``CAL_REF_S`` over the
#: run's median kernel time.
CAL_REF_S = 0.025
CAL_EVERY_S = 0.5


def _toy_objective(v) -> float:
    return float((v[0] - 1.0) ** 2 + 10.0 * (v[1] - v[0] ** 2) ** 2 + (v[2] - 0.5) ** 2 + abs(v[3]))


def calibrate() -> float:
    """Seconds taken by the fixed calibration kernel: scalar math in a
    Python loop, small numpy calls, and a scipy Nelder-Mead run, the three
    kinds of interpreter-bound work the workloads do."""
    t = time.perf_counter()
    x = 0.0
    for i in range(20000):
        x += math.erfc(i * 1e-4) * math.exp(-i * 1e-5)
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(1500):
        a = np.sqrt(a * a + 1e-3)
    scipy.optimize.minimize(_toy_objective, np.zeros(4), method="Nelder-Mead",
                            options={"maxiter": 400, "xatol": 1e-12, "fatol": 1e-14})
    return time.perf_counter() - t


class Calibrator:
    """Times the kernel from a SIGALRM handler every ``CAL_EVERY_S``.

    The handler runs between bytecodes of whatever operation is in progress;
    ``stolen_s`` totals its time so that ``run_pass`` can take it out of the
    operation timers."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.stolen_s = 0.0

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        self.samples.append(calibrate())
        self.stolen_s += time.perf_counter() - t

    def __enter__(self) -> "Calibrator":
        self.samples.append(calibrate())
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_pass(ops: list, cal: Calibrator | None) -> tuple[list, float, float]:
    """Run every operation once: (outputs, interpreter-bound seconds,
    vectorized seconds), without the time the calibrator took."""
    outputs = []
    seconds = [0.0, 0.0]
    for op in ops:
        stolen = cal.stolen_s if cal else 0.0
        t = time.perf_counter()
        outputs.append((op.key, op()))
        elapsed = time.perf_counter() - t
        seconds[op.vectorized] += elapsed - ((cal.stolen_s - stolen) if cal else 0.0)
    return outputs, seconds[0], seconds[1]


def machine_info() -> dict:
    """CPU model, core count, cache sizes and library versions."""
    info = {
        "cpu": platform.processor() or platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "caches": {},
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(cache_dir.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
            info["caches"][f"L{level}{suffix}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--spans", default=None, help="file for the traced pass's spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if not Path(accsens.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"accsens imported from {accsens.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.build(args.seed, args.size)
    ops = wl.operations(inputs)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    passes: list[tuple[float, float]] = []
    reference = None
    summary = None
    attempted = failed = 0
    started = time.perf_counter()
    with Calibrator() as cal:
        while True:
            outputs, interp_s, vector_s = run_pass(ops, cal)
            passes.append((interp_s, vector_s))
            if len(passes) == 1:
                # The peak of set-up and one pass: later passes repeat the
                # work, and how many run depends on speed.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            fp = workloads.fingerprint(outputs)
            if reference is None:
                summary = wl.check(inputs, outputs)
                reference = fp
            elif fp != reference:
                raise workloads.WrongAnswer(f"pass {len(passes) - 1} returned other outputs than pass 0")
            del outputs, fp
            attempted += summary.operations
            failed += summary.refused_operations
            elapsed = time.perf_counter() - started
            if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) > args.seconds:
                break
    pass_s = [i + v for i, v in passes]
    scale = CAL_REF_S / statistics.median(cal.samples)
    wall_s = statistics.median(pass_s)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "machine": machine_info(),
        "setup_s": setup_s,
        "pass_s": pass_s,
        "pass_vectorized_s": [v for _, v in passes],
        "calibration_s": cal.samples,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {
            "wall_s": wall_s,
            "wall_ref_s": statistics.median(i * scale + v for i, v in passes),
            "solved_ratio": summary.solved / summary.targets,
            "peak_rss_mb": peak_rss_mb,
            "sens_mean": statistics.fmean(summary.sensitivities) if summary.sensitivities else float("nan"),
        },
        "targets": summary.targets,
        "solved": summary.solved,
    }
    if args.trace:
        tracer = tracing.Tracer()
        undo = tracing.instrument(tracer)
        try:
            with tracer.span(tracing.ROOT):
                outputs, _, _ = run_pass(ops, None)
        finally:
            tracing.restore(undo)
        if workloads.fingerprint(outputs) != reference:
            raise workloads.WrongAnswer("the traced pass returned other outputs than the untraced ones")
        record["per_layer"] = tracing.layer_metrics(tracer, wall_s)
        if args.spans:
            tracer.save(args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except workloads.WrongAnswer as exc:
        print(json.dumps({"wrong_answer": str(exc)}))
        sys.exit(3)
