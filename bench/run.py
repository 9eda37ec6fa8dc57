"""Benchmark of the mflscan detector, one workload per run.

Run from the root of an mflscan checkout:

    python3 bench/run.py --workload field-mixed --seed 1 --seconds 30 --trace 0

Workloads: field-mixed, ablation-suite, long-rope (see workloads.py). The
run generates its inputs from --seed through `mflscan.synth`, writes them
under .bench_work/, and times the detector in a separate process
(worker.py) that only reads them; timings are scaled by the host factor of
hostspeed.py, so they do not move with the load of a shared host. It prints
a report, then as its last line one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1.

Exit status: 0 when every correctness check passed, 1 when one failed,
2 when the checkout holds no src/mflscan to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("field-mixed", "ablation-suite", "long-rope")
SETUP_ROUNDS = 3  # input generation is repeated and its median reported
RUN_LIMIT_S = 170.0  # the whole run, set-up included
LAST_REQUEST_S = 40.0  # room left for the worker's last request and reporting
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = [
    ("setup_s", "s"),
    ("segments_per_s", "1/s"),
    ("record_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
    ("f1", "ratio"),
]
P90_MIN_REQUESTS = 100  # so that at least ten requests lie beyond the p90


def pin_threads() -> dict:
    """Pin BLAS/OpenMP pools to the usable cores; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return {var: nproc for var in THREAD_VARS}


def metadata(seed: int, threads: dict) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": threads,
        "seed": seed,
        "commit": commit,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((SRC / "mflscan").glob("*.py"))),
    }


def _inputs_digest(workdir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(workdir.iterdir()):
        if path.suffix == ".mfl" or path.name.endswith("_truth.json"):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def set_up(workload: str, seed: int, workdir: Path, scale: str, tracer) -> tuple:
    """Generate and write the inputs SETUP_ROUNDS times; the first round is
    traced when a tracer is given. Returns the per-round seconds, the
    reference probe's times before and after each round, and any problem
    found."""
    import hostspeed
    import workloads
    from mflscan import synth

    def probe() -> list[float]:
        return [hostspeed.probe_ms() for _ in range(3)]

    seconds, probes, digests = [], probe(), set()
    for round_ in range(SETUP_ROUNDS):
        if tracer is not None and round_ == 0:
            tracer.wrap(synth, "generate", "synth.generate")
        t0 = time.perf_counter()
        workloads.prepare(workload, seed, workdir, scale)
        seconds.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.unwrap_all()
        digests.add(_inputs_digest(workdir))
        probes += probe()
    problems = [] if len(digests) == 1 else ["inputs differ between set-up rounds"]
    return seconds, probes, problems


def run_worker(workdir: Path, args, deadline: float) -> tuple[dict | None, float, list]:
    remaining = deadline - time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), str(workdir),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--budget", str(max(remaining - LAST_REQUEST_S, 0.0))]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=remaining, check=False)
    except subprocess.TimeoutExpired:
        return None, spawned, ["the timed process overran the run's time limit"]
    if proc.returncode != 0:
        return None, spawned, [f"the timed process exited with {proc.returncode}"]
    return json.loads((workdir / "result.json").read_text()), spawned, []


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report_end_to_end(result: dict, setup: dict) -> dict:
    import hostspeed

    phase = result["phases"][0]
    latencies, scaled = phase["latencies_ms"], phase["scaled_ms"]
    quality = result["quality"]
    metrics = {
        "setup_s": setup["total"],
        "segments_per_s": phase["segments_per_s"],
        "record_ms_p50": statistics.median(scaled),
        "peak_rss_mb": result["peak_rss_mb"],
        "f1": quality["f1"],
    }
    notes = {
        "setup_s": f"(import {setup['import']:.3f} + inputs {setup['inputs']:.3f} "
                   f"(median of {SETUP_ROUNDS}) + worker start and warm-up "
                   f"{setup['worker']:.3f}) / host factor {setup['host']:.3f}",
        "segments_per_s": f"{phase['segments']} segments, request times scaled by "
                          "the host factor",
        "record_ms_p50": f"n={len(scaled)}, scaled by the host factor",
        "peak_rss_mb": "worker process, ru_maxrss",
        "f1": "adaptive, TP/FP/FN {} over flawed records".format(quality["counts"]),
    }
    for name, unit in END_TO_END:
        print(f"  {name:<20} {_fmt(metrics[name]):>12} {unit:<6} {notes[name]}")
    if len(scaled) >= P90_MIN_REQUESTS:
        p90 = statistics.quantiles(scaled, n=10)[8]
        print(f"  {'record_ms_p90':<20} {_fmt(p90):>12} {'ms':<6} "
              f"n={len(scaled)}, scaled by the host factor")
    else:
        print(f"  {'record_ms_p90':<20} {'n/a':>12} {'ms':<6} "
              f"n={len(latencies)} < {P90_MIN_REQUESTS} requests")
    print(f"  {'wall segments/s':<20} {_fmt(phase['wall_segments_per_s']):>12} "
          f"{'1/s':<6} unscaled request times")
    print(f"  {'wall request p50':<20} {_fmt(statistics.median(latencies)):>12} "
          f"{'ms':<6} unscaled, n={len(latencies)}")
    print(f"  {'host factor':<20} "
          f"{_fmt(statistics.median(lat / s for lat, s in zip(latencies, scaled))):>12} "
          f"{'ratio':<6} median over requests of reference probe / "
          f"{hostspeed.REFERENCE_MS:g} ms")
    print(f"  {'false_alarms_per_m':<20} {_fmt(quality['false_alarms_per_m']):>12} "
          f"{'1/m':<6} {quality['false_alarms']} unmatched detections over "
          f"{quality['flaw_free_m']:.2f} m of flaw-free rope")
    attempted, failed = phase["attempted"], phase["failed"]
    print(f"  {'error_rate':<20} {_fmt(failed / max(attempted, 1)):>12} {'ratio':<6} "
          f"{failed} of {attempted} requests failed")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}


def report_layers(result: dict, generate_ms: float) -> dict:
    import tracing

    layers = dict(result["layers"], **{"synth.generate.ms": generate_ms})
    for name, unit in tracing.PER_LAYER:
        print(f"  {name:<48} {_fmt(layers[name]):>12} {unit}")
    if result["absent"]:
        print(f"  absent (reported as 0): {', '.join(result['absent'])}")
    return {name: {"value": layers[name], "unit": unit} for name, unit in tracing.PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--toy", action="store_true",
                        help="toy-size inputs, for the harness self-test")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "mflscan" / "__init__.py").is_file():
        print(f"error: {SRC / 'mflscan'} not found; run from the root of an "
              "mflscan checkout", file=sys.stderr)
        return 2

    threads = pin_threads()
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import tracing
    import workloads
    import_s = time.perf_counter() - t0
    import hostspeed  # benchmark machinery, after the import timing

    meta = metadata(args.seed, threads)
    print(f"mflscan benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("meta: " + json.dumps(meta))

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        tracer = tracing.Tracer() if args.trace else None
        setup_rounds, setup_probes, problems = set_up(args.workload, args.seed, workdir,
                                        "toy" if args.toy else "full", tracer)
        result, spawned, worker_problems = run_worker(workdir, args, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    problems += worker_problems
    attempted = failed = 0
    if result is not None:
        problems += result["problems"]
        for phase in result["phases"]:
            attempted += phase["attempted"]
            failed += phase["failed"]
            problems += phase["failures"]
    if result is None or not result["quality"]:
        print("correctness: FAILED, no metrics")
        for problem in problems:
            print(f"  - {problem}")
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": max(failed, 1), "metrics": {}}))
        return 1

    phases = result["phases"]
    if args.trace:
        generate_ms = [1000.0 * (end - start) for name, start, end, *_ in tracer.spans
                       if name == "synth.generate"]
        result["absent"] += tracer.absent
        metrics = report_layers(result, statistics.median(generate_ms) if generate_ms else 0.0)
    else:
        setup = {
            "import": import_s,
            "inputs": statistics.median(setup_rounds),
            "worker": result["ready_monotonic"] - spawned,
        }
        host = statistics.mean(setup_probes) / hostspeed.REFERENCE_MS
        setup["total"] = sum(setup.values()) / host
        setup["host"] = host
        metrics = report_end_to_end(result, setup)

    if args.workload == "ablation-suite":
        print("quality checks (reported, not gated; see bench/README.md):")
        for name, ok, detail in workloads.ablation_criteria(result["quality"]):
            print(f"  [{'PASS' if ok else 'FAIL'}] {name} ({detail})")
    print(f"detections digest: {phases[0]['digest']}")
    correct = not problems and failed == 0
    if correct:
        print("correctness: all checks passed (listed in bench/README.md)")
    else:
        print("correctness: FAILED")
        for problem in problems:
            print(f"  - {problem}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
