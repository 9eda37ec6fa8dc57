"""Detection scoring: matching, precision/recall/F1, ablation plumbing."""

import numpy as np
import pytest

from mflscan.errors import ConfigInvalid
from mflscan.evaluate import (
    EvalReport,
    format_report_table,
    match_detections,
    run_ablation,
    score,
)
from mflscan.localize import Detection
from mflscan.pipeline import RunConfig
from mflscan.synth import GroundTruthFlaw, make_eval_dataset, scenario_presets


def det(start_m, end_m, segment=1):
    return Detection(
        box=(0, 1, 0, 1),
        axial_position_m=(start_m + end_m) / 2,
        score=1.0,
        segment_index=segment,
        axial_start_m=start_m,
        axial_end_m=end_m,
    )


def truth(center_m, extent_m=0.03):
    return GroundTruthFlaw(axial_position_m=center_m, axial_extent_m=extent_m)


class TestScore:
    def test_empty_set_conventions(self):
        assert score(0, 0, 0) == (1.0, 1.0, 1.0)
        assert score(0, 0, 4) == (1.0, 0.0, 0.0)
        assert score(0, 3, 0)[0] == 0.0

    def test_monotone_in_tp(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            tp, fp, fn = rng.integers(0, 50, size=3)
            before = score(int(tp), int(fp), int(fn))
            after = score(int(tp) + 1, int(fp), int(fn))
            assert all(b >= a - 1e-12 for b, a in zip(after, before))


class TestMatchDetections:
    def test_no_detections_all_missed(self):
        truths = [truth(m) for m in (0.1, 0.2, 0.3, 0.4)]
        assert match_detections([], truths, 500.0) == (0, 0, 4)

    def test_exact_cover_is_true_positive(self):
        t = truth(0.2)
        d = det(0.185, 0.215)
        assert match_detections([d], [t], 500.0) == (1, 0, 0)

    def test_double_detection_one_matches(self):
        t = truth(0.2)
        dets = [det(0.18, 0.20), det(0.20, 0.22)]
        assert match_detections(dets, [t], 500.0) == (1, 1, 0)

    def test_far_detection_is_false_positive(self):
        t = truth(0.2)
        d = det(0.9, 0.95)
        assert match_detections([d], [t], 500.0) == (0, 1, 1)

    def test_counts_partition(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            truths = [truth(float(c)) for c in rng.uniform(0, 4, size=rng.integers(0, 6))]
            dets = [det(float(c), float(c) + 0.02)
                    for c in rng.uniform(0, 4, size=rng.integers(0, 6))]
            tp, fp, fn = match_detections(dets, truths, 500.0)
            assert tp + fn == len(truths)
            assert tp + fp == len(dets)

    def test_closest_center_wins(self):
        t = truth(0.2)
        near = det(0.19, 0.21)
        far = det(0.21, 0.25)
        tp, fp, fn = match_detections([far, near], [t], 500.0)
        assert (tp, fp, fn) == (1, 1, 0)

    def test_kernel_tolerance_expands_window(self):
        t = truth(0.2, extent_m=0.02)
        d = det(0.215, 0.225)  # outside bare truth interval, inside +K/f_spatial
        assert match_detections([d], [t], 500.0, kernel_size=5)[0] == 1
        assert match_detections([d], [t], 500.0, kernel_size=1)[0] == 0


class TestEvalReport:
    def test_accumulation(self):
        report = EvalReport()
        report.add(3, 1, 0)
        report.add(2, 0, 1)
        assert (report.tp, report.fp, report.fn) == (5, 1, 1)
        assert report.precision == pytest.approx(5 / 6)
        assert report.recall == pytest.approx(5 / 6)

    def test_order_invariance(self):
        a = EvalReport()
        b = EvalReport()
        chunks = [(3, 1, 0), (0, 2, 1), (5, 0, 0)]
        for chunk in chunks:
            a.add(*chunk)
        for chunk in reversed(chunks):
            b.add(*chunk)
        assert (a.tp, a.fp, a.fn) == (b.tp, b.fp, b.fn)

    def test_table_formatting(self):
        table = format_report_table({"adaptive": EvalReport(tp=62, fp=5, fn=1)})
        assert "92.54%" in table
        assert "98.41%" in table
        assert "95.38%" in table


class TestRunAblation:
    def test_unknown_method_rejected(self):
        # the method is checked once, by RunConfig
        preset = scenario_presets()["optimal_ssr"]
        dataset = make_eval_dataset(preset, 1, base_seed=0)
        with pytest.raises(ConfigInvalid, match="gradient_descent"):
            run_ablation(dataset, "gradient_descent")

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            run_ablation([], "adaptive")

    def test_deterministic_repeat(self):
        preset = scenario_presets()["optimal_ssr"]
        dataset = make_eval_dataset(preset, 1, base_seed=0)
        a = run_ablation(dataset, "adaptive")
        b = run_ablation(dataset, "adaptive")
        assert (a.tp, a.fp, a.fn) == (b.tp, b.fp, b.fn)

    def test_run_settings_reach_the_pipeline(self):
        preset = scenario_presets()["optimal_ssr"]
        dataset = make_eval_dataset(preset, 1, base_seed=0)
        report = run_ablation(dataset, "adaptive", run=RunConfig(min_area_px=10**6))
        assert (report.tp, report.fp) == (0, 0)
        with pytest.raises(ConfigInvalid):
            run_ablation(dataset, "adaptive", run=RunConfig(threshold_step=0.0))

    def test_optimal_preset_record_fully_detected(self):
        preset = scenario_presets()["optimal_ssr"]
        dataset = make_eval_dataset(preset, 1, base_seed=0)
        report = run_ablation(dataset, "adaptive")
        assert report.tp == 4
        assert report.fn == 0
