"""The benchmark's three workloads: seeded inputs, one request, and scoring.

Inputs come only from the public `mflscan.synth` API (`generate`,
`make_eval_dataset`, `scenario_presets`). `prepare` runs in the parent
process and writes every input under a work directory; `load` runs in the
process that times the detector and reads them back, so that process never
runs the generator.

- field-mixed: `mflscan detect` (in-process `cli.main`) on 4-segment MFL1
  files cycling through low_ssr, optimal_ssr and high_ssr, every fourth rope
  flaw-free. It is the inspector's path across the whole K_a range 6-10.
- ablation-suite: one in-memory 4-segment record per request, scored under
  all three methods with `evaluate.run_ablation`. Same layers, used
  differently: single-scale skips the pyramid, unweighted fuses flat.
- long-rope: `mflscan detect` on one long high_ssr rope with flaws placed
  uniformly at random, so some sit on segment seams and in the dropped tail.
  It is where record size, `ingest` and peak memory show.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
from pathlib import Path

import numpy as np
from mflscan import cli, formats, synth
from mflscan.evaluate import METHODS, EvalReport, match_detections, run_ablation
from mflscan.ingest import PreprocessConfig
from mflscan.pipeline import process_record
from mflscan.ssr import build_context
from mflscan.synth import GroundTruthFlaw, make_eval_dataset, scenario_presets

PRESETS = ("low_ssr", "optimal_ssr", "high_ssr")
SEGMENT = PreprocessConfig().segment_length

# pool sizes: one pass must fit in a run, and the quality metrics are pooled
# over one pass, so bigger pools give steadier f1 across seeds
SIZES = {
    "full": {"field-mixed": 48, "ablation-suite": 30, "long-rope": 50},
    "toy": {"field-mixed": 4, "ablation-suite": 3, "long-rope": 6},
}
LONG_TAIL = 150  # samples past the last whole segment; the detector drops them
# Flaws from make_eval_dataset sit clear of segment seams, and the detector
# finds them (tier-1 criterion 4); adaptive recall on them below this floor
# means detection broke. long-rope is not gated: seam and tail flaws are a
# known gap of the detector.
RECALL_FLOOR = 0.9
AMPLITUDES = (0.7, 0.9, 1.1, 1.3)  # the graded amplitudes of the presets


def NO_SPAN(name: str):
    """Span factory of an untraced run: times nothing."""
    return contextlib.nullcontext()


class RequestFailed(Exception):
    """A request ended with a non-zero exit code."""


def _base_seed(seed: int, salt: int) -> int:
    # disjoint seed ranges per workload seed, clear of the tier-1 range 0-49
    return 1_000_000 + 10_000 * seed + 1_000 * salt


def _write(workdir: Path, stem: str, record, truths, preset: str) -> dict:
    path = workdir / f"{stem}.mfl"
    truth = workdir / f"{stem}_truth.json"
    formats.write_record_binary(path, record)
    formats.write_ground_truth(truth, truths)
    return {
        "record": str(path),
        "truth": str(truth),
        "out": str(workdir / f"{stem}.detections.json"),
        "preset": preset,
        "samples": record.sample_count,
        "sampling_rate_hz": record.sampling_rate_hz,
        "speed_mps": record.inspection_speed_mps,
    }


def _field_mixed(seed: int, size: int, workdir: Path) -> tuple[list, dict]:
    presets = scenario_presets()
    slots = [(PRESETS[i % 3], i % 4 == 3) for i in range(size)]
    records = {}
    for p, name in enumerate(PRESETS):
        flawed = sum(1 for s, clean in slots if s == name and not clean)
        records[name, False] = make_eval_dataset(presets[name], flawed, _base_seed(seed, p))
        clean = sum(1 for s, c in slots if s == name and c)
        records[name, True] = [
            synth.generate(dataclasses.replace(
                presets[name], flaws=(), rng_seed=_base_seed(seed, p) + 500 + j,
                label=f"{name}_clean_{j:03d}",
            ))
            for j in range(clean)
        ]
    entries = []
    for i, (name, clean) in enumerate(slots):
        record, truths = records[name, clean].pop(0)
        entries.append(_write(workdir, f"fm{i:03d}", record, truths, name))
    warm = make_eval_dataset(presets["optimal_ssr"], 1, _base_seed(seed, 9))[0]
    return entries, _write(workdir, "warmup", *warm, "optimal_ssr")


def _ablation_suite(seed: int, size: int, workdir: Path) -> tuple[list, dict]:
    presets = scenario_presets()
    per_preset = -(-size // 3)
    datasets = [
        make_eval_dataset(presets[name], per_preset, _base_seed(seed, p))
        for p, name in enumerate(PRESETS)
    ]
    entries = [
        _write(workdir, f"ab{i:03d}", *datasets[i % 3][i // 3], PRESETS[i % 3])
        for i in range(size)
    ]
    warm = make_eval_dataset(presets["low_ssr"], 1, _base_seed(seed, 9))[0]
    return entries, _write(workdir, "warmup", *warm, "low_ssr")


def _long_rope_spec(seed: int, segments: int):
    """high_ssr rope of `segments` whole segments plus a tail, as many
    flaws as segments at uniformly random positions (seams and tail included)."""
    base = scenario_presets()["high_ssr"]
    f_spatial = base.sampling_rate_hz / base.inspection_speed_mps
    length = (segments * SEGMENT + LONG_TAIL + 0.5) / f_spatial
    rng = np.random.default_rng(_base_seed(seed, 7))
    flaws = tuple(
        GroundTruthFlaw(
            axial_position_m=float(pos),
            axial_extent_m=0.03,
            radial_center_channel=float(chan),
            amplitude=float(amp),
        )
        for pos, chan, amp in zip(
            np.sort(rng.uniform(0.0, length, segments)),
            rng.uniform(1.0, 16.0, segments),
            rng.choice(AMPLITUDES, segments),
        )
    )
    return dataclasses.replace(
        base, rope_length_m=length, flaws=flaws, rng_seed=_base_seed(seed, 7),
        label="long_rope",
    )


def _long_rope(seed: int, size: int, workdir: Path) -> tuple[list, dict]:
    entry = _write(workdir, "long", *synth.generate(_long_rope_spec(seed, size)), "high_ssr")
    warm_spec = dataclasses.replace(
        scenario_presets()["high_ssr"], rng_seed=_base_seed(seed, 9), label="warmup"
    )
    return [entry], _write(workdir, "warmup", *synth.generate(warm_spec), "high_ssr")


def prepare(name: str, seed: int, workdir: Path, scale: str = "full") -> dict:
    """Generate the workload's inputs from `seed`, write them, return the manifest."""
    build = {"field-mixed": _field_mixed, "ablation-suite": _ablation_suite,
             "long-rope": _long_rope}[name]
    entries, warmup = build(seed, SIZES[scale][name], workdir)
    manifest = {"workload": name, "seed": seed, "entries": entries, "warmup": warmup,
                "recall_floor": None if name == "long-rope" else RECALL_FLOOR}
    (workdir / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest


def flaw_free_m(entry: dict, truths: list, kernel_size: int) -> float:
    """Metres of rope outside every flaw's matching window (extent + one kernel)."""
    f_spatial = entry["sampling_rate_hz"] / entry["speed_mps"]
    length = entry["samples"] / f_spatial
    pad = kernel_size / f_spatial
    windows = sorted(
        (max(0.0, t.axial_position_m - t.axial_extent_m / 2 - pad),
         min(length, t.axial_position_m + t.axial_extent_m / 2 + pad))
        for t in truths
    )
    covered, reach = 0.0, 0.0
    for lo, hi in windows:
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return length - covered


def _segments(entry: dict) -> int:
    return entry["samples"] // SEGMENT


def _detection_rows(detections) -> list:
    return [(d.segment_index, tuple(d.box), d.axial_position_m, d.axial_start_m,
             d.axial_end_m, d.score) for d in detections]


def _recall_problems(report: EvalReport, floor) -> list[str]:
    if floor is not None and report.recall < floor:
        return [f"adaptive recall {report.recall:.3f} < {floor} on seam-free flaws "
                f"(TP/FP/FN {report.tp}/{report.fp}/{report.fn})"]
    return []


class CliWorkload:
    """field-mixed and long-rope: one `mflscan detect` per request."""

    def __init__(self, manifest: dict):
        self.entries = manifest["entries"]
        self.warmup = manifest["warmup"]
        self.recall_floor = manifest["recall_floor"]

    def segments(self, entry: dict) -> int:
        return _segments(entry)

    def records(self, count: int) -> list:
        return [formats.read_record(e["record"]) for e in self.entries[:count]]

    def run(self, entry: dict, span=NO_SPAN):
        with contextlib.redirect_stdout(io.StringIO()), span("cli.main"):
            code = cli.main(["detect", entry["record"], "--out", entry["out"]])
        if code != 0:
            raise RequestFailed(f"detect exited with {code}")

    def digest(self, entry: dict, output) -> str:
        return hashlib.sha256(Path(entry["out"]).read_bytes()).hexdigest()

    def _same_as_api(self, entry: dict) -> list[str]:
        """The CLI must write exactly what `process_record` computes in memory."""
        _, written = formats.read_detections(entry["out"])
        computed = process_record(formats.read_record(entry["record"])).detections
        if _detection_rows(written) != _detection_rows(computed):
            return [f"{entry['out']}: detect wrote other detections than process_record"]
        return []

    def score(self, outputs: dict) -> tuple[dict, list[str]]:
        """Pooled adaptive counts from the written detections JSON files."""
        problems = []
        tp = fp = fn = 0
        false_alarms, free_m = 0, 0.0
        for entry in self.entries:
            payload = json.loads(Path(entry["out"]).read_text())
            if payload.get("schema_version") != 1:
                problems.append(f"{entry['out']}: schema_version "
                                f"{payload.get('schema_version')!r} != 1")
            f_spatial, detections = formats.read_detections(entry["out"])
            truths = formats.read_ground_truth(entry["truth"])
            length = entry["samples"] / f_spatial
            for det in detections:
                if not (0.0 <= det.axial_start_m <= det.axial_end_m <= length
                        and 0.0 <= det.score <= 1.0):
                    problems.append(f"{entry['out']}: implausible detection {det}")
            kernel = build_context(entry["sampling_rate_hz"], entry["speed_mps"]).kernel_size
            counts = match_detections(detections, truths, f_spatial, kernel)
            if truths:
                tp, fp, fn = tp + counts[0], fp + counts[1], fn + counts[2]
            false_alarms += counts[1]
            free_m += flaw_free_m(entry, truths, kernel)
        pooled = EvalReport(tp=tp, fp=fp, fn=fn)
        problems += _recall_problems(pooled, self.recall_floor)
        problems += self._same_as_api(self.warmup)
        quality = {
            "f1": pooled.f1,
            "counts": [tp, fp, fn],
            "false_alarms": false_alarms,
            "flaw_free_m": free_m,
            "false_alarms_per_m": false_alarms / free_m,
        }
        return quality, problems


class AblationWorkload:
    """ablation-suite: one in-memory record under all three methods per request."""

    def __init__(self, manifest: dict):
        self.entries = manifest["entries"]
        self.warmup = manifest["warmup"]
        self.recall_floor = manifest["recall_floor"]
        for entry in [*self.entries, self.warmup]:
            entry["data"] = [(formats.read_record(entry["record"]),
                              formats.read_ground_truth(entry["truth"]))]

    def segments(self, entry: dict) -> int:
        return _segments(entry) * len(METHODS)

    def records(self, count: int) -> list:
        return [e["data"][0][0] for e in self.entries[:count]]

    def run(self, entry: dict, span=NO_SPAN) -> dict:
        reports = {}
        for method in METHODS:
            with span(f"evaluate.run_ablation.{method}"):
                reports[method] = run_ablation(entry["data"], method)
        return {m: [r.tp, r.fp, r.fn] for m, r in reports.items()}

    def digest(self, entry: dict, output: dict) -> str:
        return hashlib.sha256(json.dumps(output, sort_keys=True).encode()).hexdigest()

    def score(self, outputs: dict) -> tuple[dict, list[str]]:
        """Pooled counts per method and preset from the first pass."""
        pooled = {m: EvalReport(method_tag=m) for m in METHODS}
        per_preset = {(m, p): EvalReport(method_tag=m) for m in METHODS for p in PRESETS}
        false_alarms, free_m = 0, 0.0
        for i, entry in enumerate(self.entries):
            (record, truths), = entry["data"]
            for method in METHODS:
                counts = outputs[i][method]
                pooled[method].add(*counts)
                per_preset[method, entry["preset"]].add(*counts)
            kernel = build_context(entry["sampling_rate_hz"], entry["speed_mps"]).kernel_size
            false_alarms += outputs[i]["adaptive"][1]
            free_m += flaw_free_m(entry, truths, kernel)
        quality = {
            "f1": pooled["adaptive"].f1,
            "counts": [pooled["adaptive"].tp, pooled["adaptive"].fp, pooled["adaptive"].fn],
            "false_alarms": false_alarms,
            "flaw_free_m": free_m,
            "false_alarms_per_m": false_alarms / free_m,
            "f1_by_method": {m: r.f1 for m, r in pooled.items()},
            "by_preset": {
                p: {m: {"f1": per_preset[m, p].f1, "precision": per_preset[m, p].precision}
                    for m in METHODS}
                for p in PRESETS
            },
        }
        return quality, _recall_problems(pooled["adaptive"], self.recall_floor)


def load(manifest: dict):
    if manifest["workload"] == "ablation-suite":
        return AblationWorkload(manifest)
    return CliWorkload(manifest)


def ablation_criteria(quality: dict) -> list[tuple[str, bool, str]]:
    """Tier-1 criteria 4 and 5 on this run's ablation-suite inputs.

    Reported, not gated: on seeds outside tier-1's fixture, about one
    low_ssr record in 30 draws 50-60 adaptive false alarms, so these fail
    on a share of seeds through a defect of the detector, not of the run.
    """
    by_preset = quality["by_preset"]
    checks = []
    for preset in PRESETS:
        f1 = by_preset[preset]["adaptive"]["f1"]
        checks.append((f"criterion 4: {preset} adaptive F1 >= 0.90", f1 >= 0.90,
                       f"{f1:.3f}"))
    for preset in ("low_ssr", "high_ssr"):
        got = by_preset[preset]
        checks.append((
            f"criterion 5: {preset} adaptive F1 > single-scale",
            got["adaptive"]["f1"] > got["single_scale"]["f1"],
            f"{got['adaptive']['f1']:.3f} vs {got['single_scale']['f1']:.3f}",
        ))
        checks.append((
            f"criterion 5: {preset} adaptive precision > unweighted",
            got["adaptive"]["precision"] > got["unweighted_multiscale"]["precision"],
            f"{got['adaptive']['precision']:.3f} vs "
            f"{got['unweighted_multiscale']['precision']:.3f}",
        ))
    return checks
