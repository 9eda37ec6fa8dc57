"""The timed phase of one benchmark run, in a process of its own.

`run.py` starts this process after it has written the workload's inputs, so
the peak resident memory measured here is the detector's, not the
generator's. The process reads the inputs, runs one untimed warm-up request,
then sends requests in a closed loop (one client, next request after the
previous one returns) round-robin through the inputs for the given seconds,
and always for at least one full pass. It times the reference probe of
hostspeed.py between requests and scales each request's time by the host
factor of the probes on either side, so the timings do not move with the
load other tenants put on a shared host. With --trace 1 it runs an untraced
half and a traced half, so the tracing overhead and the equality of the two
halves' detections can be checked in one process. The result goes to a JSON
file for the parent to report.

Usage: python3 bench/worker.py WORKDIR --seconds S --trace 0|1 --budget B
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def run_phase(workload, seconds: float, stop_by: float, span=workloads.NO_SPAN,
              tracer=None) -> dict:
    """Closed loop over the inputs for `seconds`, at least one full pass."""
    entries = workload.entries
    latencies, scaled, failures, mismatches = [], [], [], []
    digests, outputs = {}, {}
    segments = 0
    probe = hostspeed.probe_ms()
    stop = time.perf_counter() + seconds
    i = 0
    while i < len(entries) or time.perf_counter() < stop:
        if time.monotonic() > stop_by:
            break
        k = i % len(entries)
        entry = entries[k]
        if tracer is not None:
            tracer.request = i
        t0 = time.perf_counter()
        try:
            output = workload.run(entry, span)
        except (Exception, SystemExit) as exc:  # a failed request is counted, not fatal
            failures.append(f"request {i} ({Path(entry['record']).name}): {exc!r}")
            i += 1
            probe = hostspeed.probe_ms()
            continue
        latencies.append(1000.0 * (time.perf_counter() - t0))
        probe, before = hostspeed.probe_ms(), probe
        scaled.append(latencies[-1] * 2.0 * hostspeed.REFERENCE_MS / (before + probe))
        segments += workload.segments(entry)
        digest = workload.digest(entry, output)
        if digests.setdefault(k, digest) != digest:
            mismatches.append(f"request {i}: detections of input {k} differ from "
                              "the first pass")
        outputs.setdefault(k, output)
        i += 1
    complete = len(digests) == len(entries)
    overall = hashlib.sha256(
        "".join(digests[k] for k in sorted(digests)).encode()
    ).hexdigest()
    return {
        "attempted": i,
        "failed": len(failures),
        "failures": failures[:10],
        "mismatches": mismatches[:10],
        "complete": complete,
        "latencies_ms": latencies,
        "scaled_ms": scaled,
        "segments": segments,
        "segments_per_s": 1000.0 * segments / sum(scaled) if scaled else 0.0,
        "wall_segments_per_s": 1000.0 * segments / sum(latencies) if latencies else 0.0,
        "digest": overall,
        "outputs": outputs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workdir", type=Path)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--budget", type=float, required=True,
                        help="seconds after which no new request may start")
    args = parser.parse_args(argv)
    stop_by = time.monotonic() + args.budget

    manifest = json.loads((args.workdir / "manifest.json").read_text())
    workload = workloads.load(manifest)
    workload.run(workload.warmup)
    result = {"ready_monotonic": time.monotonic()}

    if args.trace:
        plain = run_phase(workload, args.seconds / 2, stop_by)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            traced = run_phase(workload, args.seconds / 2, stop_by, tracer.span, tracer)
        finally:
            tracer.unwrap_all()
        phases = [plain, traced]
    else:
        phases = [run_phase(workload, args.seconds, stop_by)]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = []
    for phase in phases:
        problems += phase["mismatches"]
        if not phase["complete"]:
            problems.append("a phase ended before one full pass through the inputs")
    quality = {}
    if phases[0]["complete"]:
        quality, score_problems = workload.score(phases[0]["outputs"])
        problems += score_problems
    result["quality"] = quality

    if args.trace:
        if plain["digest"] != traced["digest"]:
            problems.append("traced and untraced detections differ")
        probes, probe_problems = tracing.memory_probes(workload.records(3))
        problems += probe_problems
        f1s = quality.get("f1_by_method", {})
        extra = {
            "trace.overhead_pct":
                100.0 * (plain["segments_per_s"] / traced["segments_per_s"] - 1.0),
            "evaluate.f1.single_scale": f1s.get("single_scale", 0.0),
            "evaluate.f1.unweighted_multiscale": f1s.get("unweighted_multiscale", 0.0),
            **probes,
        }
        result["layers"] = tracing.layer_metrics(tracer, len(workload.entries), extra)
        result["absent"] = tracer.absent

    for phase in phases:
        del phase["outputs"]
    result["phases"] = phases
    result["problems"] = problems
    (args.workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
