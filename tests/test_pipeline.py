"""Methods as data: the method table, layer skipping, the μ = 1 limit, and record memory."""

import resource
import sys
import tracemalloc
from dataclasses import replace

import pytest

from mflscan import pipeline, pyramid
from mflscan.errors import ConfigInvalid
from mflscan.ingest import PreprocessConfig, preprocess
from mflscan.pipeline import (METHODS, RunConfig, method_plan, process_record, process_segment,
                              segment_stages)
from mflscan.ssr import AdaptiveConfig, build_context
from mflscan.synth import generate, scenario_presets


SHAPE = (200, 200)  # default (image_height, segment_length)


@pytest.fixture(scope="module")
def optimal():
    record, _ = generate(scenario_presets()["optimal_ssr"])
    cfg = AdaptiveConfig()
    context = build_context(record.sampling_rate_hz, record.inspection_speed_mps, cfg)
    return record, cfg, context


class TestMethodPlan:
    def test_table(self, optimal):
        _, cfg, context = optimal
        w1, w2, _ = context.weights
        assert method_plan(context, cfg, SHAPE, RunConfig("single_scale")) == (
            cfg.kernel_base, (1.0, 0.0, 0.0)
        )
        assert method_plan(context, cfg, SHAPE, RunConfig("unweighted_multiscale")) == (
            context.kernel_size, (1 / 3, 1 / 3, 1 / 3)
        )
        kernel, weights = method_plan(context, cfg, SHAPE, RunConfig("adaptive"))
        assert kernel == context.kernel_size
        assert weights == pytest.approx((w1, (1 - w1) * w2, (1 - w1) * (1 - w2)), abs=1e-15)
        assert sum(weights) == pytest.approx(1.0)

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError, match="method"):
            RunConfig("foo")

    def test_record_kernel_size_from_plan(self, optimal):
        record, cfg, context = optimal
        for method in METHODS:
            run = RunConfig(method)
            result = process_record(record, run=run)
            plan = method_plan(context, cfg, SHAPE, run)
            assert (result.kernel_size, result.fusion_weights) == plan

    def test_record_planned_once_before_preprocessing(self, optimal, monkeypatch):
        record, _, _ = optimal
        calls = []
        plan = pipeline.method_plan

        def recording_plan(context, cfg, shape, *args, **kwargs):
            calls.append(shape)
            return plan(context, cfg, shape, *args, **kwargs)

        def no_preprocess(*args):
            raise AssertionError("preprocessed before the plan was checked")

        monkeypatch.setattr(pipeline, "method_plan", recording_plan)
        monkeypatch.setattr(pipeline, "preprocess", no_preprocess)
        with pytest.raises(ConfigInvalid, match="alpha"):
            process_record(record, adaptive_cfg=AdaptiveConfig(alpha=1e300))
        with pytest.raises(ConfigInvalid, match="segment_length = 200 x 3 is below"):
            process_record(record, PreprocessConfig(segment_length=3))
        assert calls == [SHAPE, (200, 3)]


class TestLayerSkipping:
    def test_match_calls_per_segment(self, optimal, monkeypatch):
        record, cfg, context = optimal
        image = preprocess(record)[0]
        calls = []
        match = pipeline.match

        def counting_match(layer, template):
            calls.append(layer.shape)
            return match(layer, template)

        monkeypatch.setattr(pipeline, "match", counting_match)
        for method, expected in (
            ("single_scale", 1), ("unweighted_multiscale", 3), ("adaptive", 3)
        ):
            calls.clear()
            process_segment(image, context, cfg, RunConfig(method))
            assert len(calls) == expected, method
            assert calls[0] == image.pixels.shape

    def test_pool_calls_per_segment(self, optimal, monkeypatch):
        # only the layers down to the last weighted one are pooled
        record, cfg, context = optimal
        image = preprocess(record)[0]
        calls = []
        pool2 = pyramid._pool2

        def counting_pool2(img):
            calls.append(img.shape)
            return pool2(img)

        monkeypatch.setattr(pyramid, "_pool2", counting_pool2)
        for method, expected in (
            ("single_scale", 0), ("unweighted_multiscale", 2), ("adaptive", 2)
        ):
            calls.clear()
            process_segment(image, context, cfg, RunConfig(method))
            assert len(calls) == expected, method
        # adaptive at mu = 1 (f_spatial 125 samples/m) weights L1 alone
        preset = scenario_presets()["low_ssr"]
        record, _ = generate(replace(preset, inspection_speed_mps=2.0, rope_length_m=801 / 125.0))
        context = build_context(record.sampling_rate_hz, record.inspection_speed_mps, cfg)
        assert context.mu == 1.0
        calls.clear()
        process_segment(preprocess(record)[0], context, cfg, RunConfig("adaptive"))
        assert calls == []

    def test_stage_names_per_method(self, optimal):
        record, cfg, context = optimal
        image = preprocess(record)[0]
        three = {f"L{j}_{stage}" for j in (1, 2, 3) for stage in ("raw", "resp", "env")}
        assert context.mu == pytest.approx(1 / 3)
        for method, expected in (
            ("single_scale", {"L1_raw", "L1_resp", "L1_env"}),
            ("unweighted_multiscale", three),
            ("adaptive", three),
        ):
            stages = segment_stages(image, context, cfg, RunConfig(method))
            assert set(stages) == expected | {"fused"}, method
            assert stages["fused"].shape == image.pixels.shape
        # adaptive at mu = 1 (f_spatial 125 samples/m) weights L1 alone
        preset = scenario_presets()["low_ssr"]
        record, _ = generate(replace(preset, inspection_speed_mps=2.0, rope_length_m=801 / 125.0))
        context = build_context(record.sampling_rate_hz, record.inspection_speed_mps, cfg)
        assert context.mu == 1.0
        stages = segment_stages(preprocess(record)[0], context, cfg, RunConfig("adaptive"))
        assert set(stages) == {"L1_raw", "L1_resp", "L1_env", "fused"}

    def test_segment_runs_its_stages_once(self, optimal, monkeypatch):
        record, _, _ = optimal
        calls = []
        stages = pipeline.segment_stages

        def counting_stages(image, *args, **kwargs):
            calls.append(image.segment_index)
            return stages(image, *args, **kwargs)

        monkeypatch.setattr(pipeline, "segment_stages", counting_stages)
        for method in METHODS:
            calls.clear()
            result = process_record(record, run=RunConfig(method))
            assert calls == [1, 2, 3, 4], method
            assert len(result.chosen_thresholds) == 4

    def test_oversized_kernel_refused_before_template(self, optimal, monkeypatch):
        record, _, _ = optimal
        cfg = AdaptiveConfig(kernel_base=100_000)
        context = build_context(record.sampling_rate_hz, record.inspection_speed_mps, cfg)
        image = preprocess(record)[0]

        def no_template(size):
            raise AssertionError(f"template of size {size} built")

        monkeypatch.setattr(pipeline, "build_template", no_template)
        for method in METHODS:
            with pytest.raises(ConfigInvalid, match="kernel size 1000[0-9]+ .* exceeds layer"):
                process_segment(image, context, cfg, RunConfig(method))
        # K_a = ceil(51 + 5 * 2/3) = 55 fits L1 and L2 but not L3 (50 x 50)
        cfg = AdaptiveConfig(kernel_base=51)
        context = build_context(record.sampling_rate_hz, record.inspection_speed_mps, cfg)
        assert context.kernel_size == 55
        with pytest.raises(ConfigInvalid, match=r"kernel size 55 .* exceeds layer L3 \(50, 50\)"):
            process_segment(image, context, cfg, RunConfig("unweighted_multiscale"))

    def test_adaptive_equals_single_scale_at_unit_mu(self):
        # f_spatial = 250 / 2.0 = 125 samples/m, below the extreme reference
        # (250 / 1.5), so mu = 1: weights (1, 0, 0) and K_a = K_base
        preset = scenario_presets()["low_ssr"]
        spec = replace(preset, inspection_speed_mps=2.0, rope_length_m=801 / 125.0)
        record, _ = generate(spec)
        adaptive = process_record(record, run=RunConfig("adaptive"))
        single = process_record(record, run=RunConfig("single_scale"))
        assert adaptive.context.mu == 1.0
        assert adaptive.kernel_size == single.kernel_size == AdaptiveConfig().kernel_base
        assert adaptive.detections
        assert adaptive.detections == single.detections
        assert adaptive.chosen_thresholds == single.chosen_thresholds


def test_record_memory_holds_no_record_sized_array():
    # high_ssr ropes of 50 and 400 segments with a 150-sample tail, each built
    # before tracing. Processing holds one segment's working set, within
    # criterion 7's 4 MiB, where the 50-segment M x H strip alone would need
    # about 16 MB. Each segment is detrended from its own window and halo, so
    # a rope 8 x longer adds only its results; an M x N copy of the record
    # would add 8.5 MiB from 50 to 400 segments
    preset = scenario_presets()["high_ssr"]
    f_spatial = preset.sampling_rate_hz / preset.inspection_speed_mps
    peaks = []
    for segments in (50, 400):
        record, _ = generate(replace(preset, rope_length_m=(segments * 200 + 150.5) / f_spatial))
        assert record.sample_count // 200 == segments
        if not peaks:
            process_record(record)  # warm-up
        tracemalloc.start()
        try:
            process_record(record)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 4 * 2**20
    assert abs(peaks[1] - peaks[0]) <= 2**19


@pytest.mark.skipif(sys.platform != "linux", reason="glibc heap thresholds")
def test_streamed_segments_keep_their_heap(optimal):
    # each segment frees a working set of about 2.4 MB; returned to the OS,
    # it faults back in on every segment (about 2800 faults per record)
    record = optimal[0]
    process_record(record)  # warm-up
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        process_record(record)
    faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5
    assert faults < 500
