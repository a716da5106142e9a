"""Fast self-test of the benchmark harness, on the workloads' tiny inputs.

    python3 perfbench/selftest.py

For every workload it runs ``run.py --size tiny`` once untraced and twice
traced with one seed, and checks that

* every end-to-end and per-layer metric in ``BENCHMARK.json`` is printed
  with its declared unit;
* the per-layer self times (each layer plus ``harness.self_s``) add up to
  the traced pass's ``trace.wall_s``;
* the two traced runs agree exactly on ``sens_mean``, ``solved_ratio`` and
  every per-layer count.

It also checks that the benchmark exits nonzero, without a result line, in a
copy of the benchmark that has no library next to it.  Exits 1 on the first
failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
COUNT_UNITS = ("count", "bytes")


class SelfTestFailure(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestFailure(message)


def run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[dict | None, dict | None, str]:
    """(result line, run record, stderr) of one tiny run; the result line and
    record are None when the run exits nonzero."""
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )
    if proc.returncode != 0:
        return None, None, proc.stderr.strip()
    record_file = cwd / "perfbench" / "results" / f"{workload}-seed{SEED}-trace{trace}-tiny.json"
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(record_file.read_text()), ""


def check_emitted(result: dict, declared: list[dict], what: str) -> None:
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: keys {sorted(result)}")
    expect(result["correct"] is True and result["attempted"] >= 1, f"{what}: {result}")
    metrics = result["metrics"]
    expect(set(metrics) == {m["name"] for m in declared}, f"{what}: metric names differ from BENCHMARK.json")
    for m in declared:
        got = metrics[m["name"]]
        expect(got["unit"] == m["unit"], f"{what}: {m['name']} has unit {got['unit']!r}, not {m['unit']!r}")
        expect(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
               f"{what}: {m['name']} = {got['value']!r}")


def check_workload(workload: str, spec: dict) -> None:
    result, plain, err = run(workload, 0)
    expect(result is not None, f"{workload} --trace 0 failed: {err}")
    check_emitted(result, spec["end_to_end"], f"{workload} --trace 0")

    traced = []
    for _ in range(2):
        result, record, err = run(workload, 1)
        expect(result is not None, f"{workload} --trace 1 failed: {err}")
        check_emitted(result, spec["per_layer"], f"{workload} --trace 1")
        traced.append(record)

    layer = traced[0]["per_layer"]
    self_sum = sum(v for k, v in layer.items() if k.endswith(".self_s"))
    expect(abs(self_sum - layer["trace.wall_s"]) <= 1e-6,
           f"{workload}: self times sum to {self_sum!r}, traced wall is {layer['trace.wall_s']!r}")

    for name in ("sens_mean", "solved_ratio"):
        values = [r["end_to_end"][name] for r in (plain, *traced)]
        expect(len(set(values)) == 1, f"{workload}: {name} differs across runs: {values}")
    for m in spec["per_layer"]:
        if m["unit"] in COUNT_UNITS:
            values = [r["per_layer"][m["name"]] for r in traced]
            expect(values[0] == values[1], f"{workload}: {m['name']} differs across runs: {values}")


def check_refuses_without_library(spec: dict) -> None:
    with tempfile.TemporaryDirectory(dir=HERE / "results") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
        result, _, err = run(spec["workloads"][0]["name"], 0, cwd=bare)
    expect(result is None and err, "the benchmark ran without a library next to it")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (HERE / "results").mkdir(exist_ok=True)
    try:
        check_refuses_without_library(spec)
        for w in spec["workloads"]:
            check_workload(w["name"], spec)
            print(f"selftest {w['name']}: ok", flush=True)
    except SelfTestFailure as exc:
        print(f"selftest failed: {exc}", file=sys.stderr)
        return 1
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
