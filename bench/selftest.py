"""Self-test of the benchmark harness at toy size.

Run from the root of an mflscan checkout: python3 bench/selftest.py

Checks, for every workload, that a toy-size run with tracing off and one
with tracing on both pass their correctness checks and report exactly the
metrics BENCHMARK.json declares, with its units; that the untraced report
also prints the reported metrics that are not declared (record_ms_p90,
false_alarms_per_m, error_rate); that both runs of a seed print the same
detections digest; that a wrapped function missing from its module is
listed as absent, not raised; and that a directory holding only the
benchmark, without src/mflscan, makes the run fail without a result.
Exit status 0 when every check passed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

REPORTED_ONLY = ("record_ms_p90", "false_alarms_per_m", "error_rate")


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=180, check=False,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def check(ok: bool, what: str):
        print(f"[{'PASS' if ok else 'FAIL'}] {what}")
        if not ok:
            failures.append(what)

    check(declared[1] == dict(tracing.PER_LAYER),
          "BENCHMARK.json per_layer matches tracing.PER_LAYER")
    for workload in (w["name"] for w in spec["workloads"]):
        digests = {}
        for trace in (0, 1):
            proc = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", str(trace), "--toy")
            lines = proc.stdout.strip().splitlines()
            where = f"{workload} trace={trace}"
            if proc.returncode != 0 or not lines:
                check(False, f"{where}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                continue
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}
                  and result["correct"] and result["attempted"] >= 1
                  and result["failed"] == 0, f"{where}: correct, nothing failed")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == declared[trace], f"{where}: every declared metric with its unit")
            check(all(isinstance(m["value"], float) for m in result["metrics"].values()),
                  f"{where}: every value is a number")
            if trace == 0:
                check(all(f"  {name} " in proc.stdout for name in REPORTED_ONLY),
                      f"{where}: prints {', '.join(REPORTED_ONLY)}")
            digests[trace] = next(line for line in lines if line.startswith("detections digest"))
        check(len(set(digests.values())) == 1,
              f"{workload}: traced and untraced runs give the same detections digest")

    tracer = tracing.Tracer()
    module = types.ModuleType("mflscan.gone")
    try:
        tracer.wrap(module, "removed_function", "gone.removed_function")
        check(tracer.absent == ["mflscan.gone.removed_function"],
              "a missing wrapped function is reported as absent")
    except AttributeError:
        check(False, "a missing wrapped function is reported as absent, not raised")

    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, "--workload", "field-mixed", "--seed", "1", "--seconds", "1",
                   "--trace", "0")
        check(proc.returncode != 0 and '"correct"' not in proc.stdout,
              "without src/mflscan the run fails and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any((ROOT / ".bench_work").iterdir()):
            (ROOT / ".bench_work").rmdir()

    print(f"{len(failures)} check(s) failed" if failures else "all self-test checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
