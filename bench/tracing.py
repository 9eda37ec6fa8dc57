"""Spans and counts around calls into mflscan's modules, from outside the program.

A traced run replaces each public function at the module attribute its caller
looks up (for example `mflscan.pipeline.match`, which `process_segment` calls
by its global name) with a wrapper that records a span: name, start, end,
parent span and request. Spans stay in memory; `layer_metrics` reduces them
when the run ends. Self time is a span's length minus the time its child
spans cover. A function missing from its module, after a later refactor, is
listed as absent instead of failing the run, and its metrics read 0.
"""

from __future__ import annotations

import contextlib
import functools
import math
import statistics
import time
import tracemalloc
from collections import defaultdict

# (name, unit) of every per-layer metric, in report order
PER_LAYER = [
    ("cli.main.self_ms", "ms"),
    ("formats.read_record.ms", "ms"),
    ("formats.write_detections.ms", "ms"),
    ("formats.record_mb", "MB"),
    ("ingest.detrend.ms", "ms"),
    ("ingest.normalize.ms", "ms"),
    ("ingest.interpolate_radial.ms", "ms"),
    ("ingest.segment.ms", "ms"),
    ("ingest.preprocess.peak_mb", "MB"),
    ("ingest.segments", "count"),
    ("ingest.samples_dropped", "count"),
    ("ssr.kernel_size", "count"),
    ("pyramid.build_pyramid.ms", "ms"),
    ("pyramid.build_template.calls", "count"),
    ("pyramid.match.L1.ms", "ms"),
    ("pyramid.match.L2.ms", "ms"),
    ("pyramid.match.L3.ms", "ms"),
    ("pyramid.match.macs", "count"),
    ("enhance.gamma_enhance.ms", "ms"),
    ("enhance.envelope.L1.ms", "ms"),
    ("enhance.envelope.L2.ms", "ms"),
    ("enhance.envelope.L3.ms", "ms"),
    ("enhance.fuse.ms", "ms"),
    ("enhance.upsample_bilinear.calls", "count"),
    ("enhance.upsample_bilinear.ms", "ms"),
    ("localize.adaptive_threshold.ms", "ms"),
    ("localize.label_passes", "count"),
    ("localize.binarize.ms", "ms"),
    ("localize.extract_components.ms", "ms"),
    ("localize.detections", "count"),
    ("localize.kept_ratio", "ratio"),
    ("pipeline.process_segment.p50_ms", "ms"),
    ("pipeline.process_segment.p99_ms", "ms"),
    ("pipeline.process_segment.self_ms", "ms"),
    ("pipeline.process_record.self_ms", "ms"),
    ("pipeline.segment_peak_mb", "MB"),
    ("evaluate.run_ablation.single_scale.ms", "ms"),
    ("evaluate.run_ablation.unweighted_multiscale.ms", "ms"),
    ("evaluate.run_ablation.adaptive.ms", "ms"),
    ("evaluate.match_detections.ms", "ms"),
    ("evaluate.f1.single_scale", "ratio"),
    ("evaluate.f1.unweighted_multiscale", "ratio"),
    ("synth.generate.ms", "ms"),
    ("trace.overhead_pct", "%"),
]

MIB = 1024 * 1024
MFL1_HEADER_BYTES = 4 + 24


class Tracer:
    """In-memory spans and counts of one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, request]
        self.counts: list[tuple] = []  # (request, name, value)
        self.absent: list[str] = []
        self.request = -1
        self._open: list[int] = []
        self._restore: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.request])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, value: float):
        self.counts.append((self.request, name, value))

    def wrap(self, module, attr: str, name, on_result=None):
        """Record a span around every call of `module.attr`.

        `name` is a span name, or a function of the call's arguments that
        returns one. `on_result(tracer, result, *args, **kwargs)` may record
        counts after the call.
        """
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.absent.append(f"{module.__name__}.{attr}")
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name(*args, **kwargs) if callable(name) else name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, result, *args, **kwargs)
            return result

        setattr(module, attr, traced)
        self._restore.append((module, attr, fn))

    def unwrap_all(self):
        while self._restore:
            module, attr, fn = self._restore.pop()
            setattr(module, attr, fn)


def _by_layer(prefix: str, height: int):
    """Span name L1/L2/L3 of a pyramid layer, told apart by its row count."""

    def name(array, *args, **kwargs):
        return f"{prefix}.L{1 + round(math.log2(height / array.shape[0]))}"

    return name


def _on_read(tracer, record, *args, **kwargs):
    tracer.count("formats.record_mb", (record.samples.nbytes + MFL1_HEADER_BYTES) / MIB)


def _on_preprocess(tracer, images, record, *args, **kwargs):
    tracer.count("ingest.segments", len(images))
    used = sum(image.length for image in images)
    tracer.count("ingest.samples_dropped", record.sample_count - used)


def _on_context(tracer, context, *args, **kwargs):
    tracer.count("ssr.kernel_size", context.kernel_size)


def _on_segment(tracer, result, *args, **kwargs):
    tracer.count("segments", 1)


def _on_template(tracer, template, *args, **kwargs):
    tracer.count("pyramid.build_template.calls", 1)


def _on_match(tracer, response, layer, template, *args, **kwargs):
    rows, cols = response.shape
    tracer.count("pyramid.match.macs", template.size ** 2 * rows * cols)


def _on_upsample(tracer, result, *args, **kwargs):
    tracer.count("enhance.upsample_bilinear.calls", 1)


def _on_threshold(tracer, scan, *args, **kwargs):
    tracer.count("localize.label_passes", len(scan.thresholds))
    regions = 0
    if scan.thresholds:
        nearest = min(range(len(scan.thresholds)),
                      key=lambda i: abs(scan.thresholds[i] - scan.chosen_threshold))
        regions = scan.region_counts[nearest]
    tracer.count("localize.regions", regions)


def _on_components(tracer, detections, *args, **kwargs):
    tracer.count("localize.detections", len(detections))


def install(tracer: Tracer):
    """Wrap every traced call site of the detector's modules."""
    from mflscan import cli, enhance, evaluate, formats, ingest, pipeline

    height = ingest.PreprocessConfig().image_height
    tracer.wrap(cli, "process_record", "pipeline.process_record")
    tracer.wrap(pipeline, "process_record", "pipeline.process_record")
    tracer.wrap(pipeline, "build_context", "ssr.build_context", _on_context)
    tracer.wrap(pipeline, "preprocess", "ingest.preprocess", _on_preprocess)
    for stage in ("detrend", "normalize", "interpolate_radial", "segment"):
        tracer.wrap(ingest, stage, f"ingest.{stage}")
    tracer.wrap(pipeline, "process_segment", "pipeline.process_segment", _on_segment)
    tracer.wrap(pipeline, "build_template", "pyramid.build_template", _on_template)
    tracer.wrap(pipeline, "build_pyramid", "pyramid.build_pyramid")
    tracer.wrap(pipeline, "match", _by_layer("pyramid.match", height), _on_match)
    tracer.wrap(pipeline, "enhance_layer", "enhance.enhance_layer")
    tracer.wrap(enhance, "gamma_enhance", "enhance.gamma_enhance")
    tracer.wrap(enhance, "envelope", _by_layer("enhance.envelope", height))
    tracer.wrap(pipeline, "fuse", "enhance.fuse")
    tracer.wrap(enhance, "upsample_bilinear", "enhance.upsample_bilinear", _on_upsample)
    tracer.wrap(pipeline, "adaptive_threshold", "localize.adaptive_threshold", _on_threshold)
    tracer.wrap(pipeline, "binarize", "localize.binarize")
    tracer.wrap(pipeline, "extract_components", "localize.extract_components",
                _on_components)
    tracer.wrap(formats, "read_record", "formats.read_record", _on_read)
    tracer.wrap(formats, "write_detections", "formats.write_detections")
    tracer.wrap(evaluate, "match_detections", "evaluate.match_detections")


def _peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


def memory_probes(records: list) -> tuple[dict, list[str]]:
    """tracemalloc peaks of preprocessing the largest record and of one
    segment (criterion 7's 4 MB budget), worst over the given records.

    Run untraced and untimed: tracemalloc slows every allocation.
    """
    from mflscan import ingest, pipeline, ssr

    probes = {"ingest.preprocess.peak_mb": 0.0, "pipeline.segment_peak_mb": 0.0}
    try:
        largest = max(records, key=lambda r: r.sample_count)
        probes["ingest.preprocess.peak_mb"] = _peak_mb(lambda: ingest.preprocess(largest))
        for record in records:
            cfg = ssr.AdaptiveConfig()
            context = ssr.build_context(record.sampling_rate_hz,
                                        record.inspection_speed_mps, cfg)
            image = ingest.preprocess(record)[0]
            pipeline.process_segment(image, context, cfg)  # warm-up
            peak = _peak_mb(lambda: pipeline.process_segment(image, context, cfg))
            probes["pipeline.segment_peak_mb"] = max(probes["pipeline.segment_peak_mb"], peak)
    except (AttributeError, TypeError) as exc:
        return probes, [f"memory probe: {exc!r}"]
    return probes, []


def _durations(spans: list) -> tuple[dict, dict]:
    """Per span name: the list of lengths and the list of self times, in ms."""
    child = defaultdict(float)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    total, own = defaultdict(list), defaultdict(list)
    for i, (name, start, end, _, _) in enumerate(spans):
        total[name].append(1000.0 * (end - start))
        own[name].append(1000.0 * (end - start - child[i]))
    return total, own


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def _p99(values: list) -> float:
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=100)[98]


def layer_metrics(tracer: Tracer, first_pass: int, extra: dict) -> dict:
    """Reduce one traced phase to the PER_LAYER metrics.

    Times are medians per call over the whole phase. Counts are computed over
    the phase's first pass through the inputs (requests 0 .. first_pass-1),
    so they repeat exactly for a seed. `extra` supplies metrics measured
    outside the traced phase.
    """
    total, own = _durations(tracer.spans)
    sums, calls = defaultdict(float), defaultdict(int)
    for request, name, value in tracer.counts:
        if 0 <= request < first_pass:
            sums[name] += value
            calls[name] += 1
    segments = sums["segments"] or 1.0

    def mean(name):
        return sums[name] / calls[name] if calls[name] else 0.0

    values = {
        "cli.main.self_ms": _median(own["cli.main"]),
        "formats.record_mb": mean("formats.record_mb"),
        "ingest.segments": mean("ingest.segments"),
        "ingest.samples_dropped": mean("ingest.samples_dropped"),
        "ssr.kernel_size": mean("ssr.kernel_size"),
        "pyramid.build_template.calls": sums["pyramid.build_template.calls"] / segments,
        "pyramid.match.macs": sums["pyramid.match.macs"] / segments,
        "enhance.upsample_bilinear.calls": sums["enhance.upsample_bilinear.calls"] / segments,
        "localize.label_passes": mean("localize.label_passes"),
        "localize.detections": sums["localize.detections"] / segments,
        "localize.kept_ratio": (sums["localize.detections"] / sums["localize.regions"]
                                if sums["localize.regions"] else 0.0),
        "pipeline.process_segment.p50_ms": _median(total["pipeline.process_segment"]),
        "pipeline.process_segment.p99_ms": _p99(total["pipeline.process_segment"]),
        "pipeline.process_segment.self_ms": _median(own["pipeline.process_segment"]),
        "pipeline.process_record.self_ms": _median(own["pipeline.process_record"]),
    }
    for name, _ in PER_LAYER:
        if name.endswith(".ms") and name not in values:
            values[name] = _median(total[name.removesuffix(".ms")])
    values.update(extra)
    return {name: float(values.get(name, 0.0)) for name, _ in PER_LAYER}
