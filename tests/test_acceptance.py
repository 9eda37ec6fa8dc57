"""End-to-end acceptance suite.

Each criterion prints one [PASS]/[FAIL] line (visible even under pytest's
output capture) and then asserts, so the printed line and the pytest verdict
always agree.

Criterion 6d checks the envelope's documented contract for one pass, and
idempotence only on the envelope's fixed points: the operation itself is not
idempotent, since each pass bridges interior maxima that lie below both
neighbouring maxima (see the test for the counterexample).
"""

import math
import time
import tracemalloc

import numpy as np
import pytest

from mflscan.enhance import envelope, fuse, gamma_enhance, peak_normalize, upsample_bilinear
from mflscan.evaluate import run_ablation, score
from mflscan.ingest import PreprocessConfig, Segments, normalize, preprocess
from mflscan.localize import binarize
from mflscan.pipeline import process_segment
from mflscan.pyramid import build_template, match
from mflscan.ssr import (
    AdaptiveConfig,
    adaptive_kernel_size,
    build_context,
    compute_ssr,
    layer_weights,
    normalize_ssr,
)
from mflscan.synth import GroundTruthFlaw, SynthSpec, generate, make_eval_dataset, scenario_presets

from test_enhance import _row_maxima
from test_pyramid import naive_match, square

RECORDS_PER_PRESET = 50
BASE_SEED = 0


@pytest.fixture
def announce(capsys):
    def _announce(name, ok, detail=""):
        suffix = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {name}{suffix}")
        return ok

    return _announce


@pytest.fixture(scope="module")
def synthetic_suite():
    """The committed 50-records-per-preset suite plus all ablation reports."""
    presets = scenario_presets()
    datasets = {
        name: make_eval_dataset(spec, RECORDS_PER_PRESET, base_seed=BASE_SEED)
        for name, spec in presets.items()
    }
    t0 = time.perf_counter()
    adaptive = {name: run_ablation(ds, "adaptive") for name, ds in datasets.items()}
    adaptive_seconds = time.perf_counter() - t0
    others = {
        method: {name: run_ablation(ds, method) for name, ds in datasets.items()}
        for method in ("single_scale", "unweighted_multiscale")
    }
    return {
        "presets": presets,
        "adaptive": adaptive,
        "adaptive_seconds": adaptive_seconds,
        "single_scale": others["single_scale"],
        "unweighted_multiscale": others["unweighted_multiscale"],
    }


def test_criterion_1_convolution_oracle(announce):
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(2, 8))
        h = int(rng.integers(k, 17))
        w = int(rng.integers(k, 17))
        layer = rng.normal(size=(h, w))
        tmpl = build_template(k)
        got = match(layer, tmpl)
        want = naive_match(layer, square(tmpl))
        worst = max(worst, float(np.abs(got - want).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    assert announce(
        "criterion 1: convolution matches naive oracle",
        ok,
        f"max |err| {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_ssr_arithmetic(announce):
    checks = [
        abs(compute_ssr(250.0, 0.5) - 500.0) < 1e-9,
        abs(normalize_ssr(AdaptiveConfig().f_spatial_extreme) - 1.0) < 1e-12,
        adaptive_kernel_size(1.0 / 3.0) == 9,
        np.allclose(layer_weights(0.5), (0.25, 0.5, 0.25)),
    ]
    rng = np.random.default_rng(202)
    for mu in rng.uniform(1e-9, 1.0, size=1000):
        checks.append(abs(sum(layer_weights(float(mu))) - 1.0) <= 1e-12)
    ok = all(checks)
    assert announce("criterion 2: SSR arithmetic fixtures", ok)


def test_criterion_3_metric_fixtures(announce):
    pa = np.array(score(62, 5, 1)) * 100
    pb = np.array(score(127, 21, 25)) * 100
    ok = np.allclose(pa, (92.54, 98.41, 95.38), atol=0.01) and np.allclose(
        pb, (85.81, 83.55, 84.67), atol=0.01
    )
    assert announce("criterion 3: published precision/recall/F1 fixtures", ok)


def test_criterion_4_synthetic_end_to_end(announce, synthetic_suite):
    reports = synthetic_suite["adaptive"]
    seconds = synthetic_suite["adaptive_seconds"]
    f1s = {name: rep.f1 for name, rep in reports.items()}
    ok = all(f1 >= 0.90 for f1 in f1s.values()) and seconds < 120.0
    detail = ", ".join(f"{n} F1={f1:.3f}" for n, f1 in sorted(f1s.items()))
    assert announce(
        "criterion 4: adaptive F1 >= 0.90 on every preset",
        ok,
        f"{detail}; {seconds:.1f}s",
    )


def test_criterion_5_ablation_direction(announce, synthetic_suite):
    adaptive = synthetic_suite["adaptive"]
    single = synthetic_suite["single_scale"]
    unweighted = synthetic_suite["unweighted_multiscale"]
    comparisons = []
    for name in ("low_ssr", "high_ssr"):
        comparisons.append(adaptive[name].f1 > single[name].f1)
        comparisons.append(adaptive[name].precision > unweighted[name].precision)
    ok = all(comparisons)
    detail = "; ".join(
        f"{n}: F1 {adaptive[n].f1:.3f}>{single[n].f1:.3f}, "
        f"P {adaptive[n].precision:.3f}>{unweighted[n].precision:.3f}"
        for n in ("low_ssr", "high_ssr")
    )
    assert announce("criterion 5: strict ablation ordering", ok, detail)


class TestCriterion6Properties:
    """Pipeline invariants, each over >= 100 random inputs."""

    def test_detrend_idempotent_on_trendless_input(self, announce):
        # trendless: constant offset plus components whose mean over every
        # full-length window vanishes (sinusoids with an integer number of
        # periods per window); compared over the deep interior where no
        # truncated edge window is involved. The whole record is one window
        # (P = M) over the identity basis, so its image is the detrend, transposed.
        rng = np.random.default_rng(301)
        cfg = PreprocessConfig(half_span_la=10, segment_length=120)
        worst = 0.0
        for _ in range(100):
            m = np.arange(120)
            k = int(rng.integers(1, 10))
            x = (
                rng.uniform(-5, 5)
                + rng.uniform(0.1, 2) * np.sin(2 * np.pi * k * m / 20 + rng.uniform(0, 7))
            )[:, None] * np.ones((1, 2))
            once = Segments(x, np.eye(2), cfg)[0].pixels.T
            twice = Segments(once, np.eye(2), cfg)[0].pixels.T
            worst = max(worst, float(np.abs(twice - once)[20:-20].max()))
        ok = worst <= 1e-9
        assert announce("criterion 6a: detrend idempotent on trendless input", ok,
                        f"max drift {worst:.2e}")

    def test_normalize_order_preserving(self, announce):
        rng = np.random.default_rng(302)
        ok = True
        for _ in range(100):
            y = rng.normal(scale=rng.uniform(0.1, 10), size=(20, 5))
            out = normalize(y)
            order = np.argsort(y.ravel())
            ok = ok and bool(np.all(np.diff(out.ravel()[order]) >= 0))
        assert announce("criterion 6b: normalize preserves order", ok)

    def test_template_zero_dc(self, announce):
        rng = np.random.default_rng(303)
        worst = 0.0
        for _ in range(100):
            k = int(rng.integers(2, 9))
            c = rng.uniform(-1, 1)
            out = match(np.full((k + 4, k + 4), c), build_template(k))
            worst = max(worst, float(out.max()))
        ok = worst <= 1e-12
        assert announce("criterion 6c: constant image gives zero response", ok)

    def test_envelope_idempotent(self, announce):
        # The envelope is not idempotent, and cannot be while it keeps two
        # flaws on one row apart: between two interior maxima a point beside
        # one of them lies below the line joining them, so every pass raises
        # it. A second pass finds fewer maxima, not new ones: first-pass
        # maxima lying below both neighbouring maxima become V-shaped dips
        # and get bridged. So this checks the documented contract of one
        # pass, and idempotence only on the fixed points that repeated
        # passes reach (rows with at most one interior maximum).
        row = np.array([[0, 1, 0, 0, 5, 0, 0, 1, 0]], dtype=float)
        tent = [[1, 1, 7 / 3, 11 / 3, 5, 11 / 3, 7 / 3, 1, 1]]
        once = envelope(row)
        ok = bool(
            np.allclose(once, tent, rtol=0, atol=1e-12)
            and np.array_equal(envelope(once), np.full_like(row, 5.0))
        )
        rng = np.random.default_rng(304)
        most_passes = 0
        for _ in range(100):
            e = rng.uniform(0, 1, size=(int(rng.integers(2, 12)), int(rng.integers(6, 40))))
            once = envelope(e)
            ok = ok and bool(np.all(once >= e))
            ok = ok and np.array_equal(once.max(axis=1), e.max(axis=1))
            for r_in, r_out in zip(e, once):
                maxima = _row_maxima(r_in)
                if not maxima:
                    ok = ok and np.array_equal(r_out, r_in)
                    continue
                first, last = maxima[0], maxima[-1]
                left, right = r_in[: first + 1], r_in[last:]
                ok = ok and (
                    np.array_equal(r_out[maxima], r_in[maxima])
                    and np.array_equal(r_out[: first + 1], np.maximum(r_in[first], left))
                    and np.array_equal(r_out[last:], np.maximum(r_in[last], right))
                )
            limit = math.ceil(math.log2(e.shape[1])) + 1
            passes, cur = 1, once
            while passes <= limit:
                nxt = envelope(cur)
                ok = ok and bool(np.all(nxt >= cur))
                if np.abs(nxt - cur).max() <= 1e-9:
                    break
                passes, cur = passes + 1, nxt
            most_passes = max(most_passes, passes)
            ok = ok and passes <= limit and all(len(_row_maxima(r)) <= 1 for r in cur)
        assert announce(
            "criterion 6d: envelope contract; idempotent on its fixed points",
            ok,
            f"fixed point within {most_passes} passes",
        )

    def test_fuse_convexity_bounds(self, announce):
        rng = np.random.default_rng(305)
        ok = True
        for _ in range(100):
            f1 = rng.uniform(0, 1, size=(16, 16))
            f2 = rng.uniform(0, 1, size=(8, 8))
            f3 = rng.uniform(0, 1, size=(4, 4))
            w = rng.dirichlet((1.0, 1.0, 1.0))
            out = fuse((f1, f2, f3), tuple(w))
            lo = min(f.min() for f in (f1, f2, f3))
            hi = max(f.max() for f in (f1, f2, f3))
            ok = ok and bool(lo - 1e-12 <= out.min() and out.max() <= hi + 1e-12)
        assert announce("criterion 6e: fused output within layer bounds", ok)

    def test_binarize_pixel_monotonicity(self, announce):
        rng = np.random.default_rng(306)
        ok = True
        for _ in range(100):
            img = peak_normalize(rng.uniform(0, 1, size=(15, 15)))
            counts = [int(binarize(img, t).sum()) for t in np.arange(0.05, 1.0, 0.05)]
            ok = ok and bool(np.all(np.diff(counts) <= 0))
        assert announce("criterion 6f: white pixel count monotone in threshold", ok)

    def test_gamma_argmax_preserved(self, announce):
        rng = np.random.default_rng(307)
        ok = True
        for _ in range(100):
            c = rng.uniform(0, 1, size=(12, 12))
            for g in (1.5, 2.0, 3.0):
                out = gamma_enhance(c, g)
                ok = ok and int(np.argmax(out)) == int(np.argmax(c))
        assert announce("criterion 6g: gamma preserves argmax", ok)


def test_criterion_7_latency_and_memory(announce):
    spec = scenario_presets()["optimal_ssr"]
    record, _ = generate(spec)
    cfg = AdaptiveConfig()
    ctx = build_context(record.sampling_rate_hz, record.inspection_speed_mps, cfg)
    img = preprocess(record)[0]
    process_segment(img, ctx, cfg)  # warm-up
    t0 = time.perf_counter()
    process_segment(img, ctx, cfg)
    elapsed_ms = 1000 * (time.perf_counter() - t0)
    tracemalloc.start()
    process_segment(img, ctx, cfg)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    peak_mb = peak / (1024 * 1024)
    ok = elapsed_ms <= 300.0 and peak_mb <= 4.0
    assert announce(
        "criterion 7: per-segment latency and working memory",
        ok,
        f"{elapsed_ms:.1f} ms, {peak_mb:.2f} MB",
    )


def _flaw_footprint_px(speed):
    """Axial pixel extent of one flaw rendered with every noise source off."""
    f_spatial = 250.0 / speed
    flaw = GroundTruthFlaw(axial_position_m=400 / f_spatial, axial_extent_m=0.03)
    spec = SynthSpec(
        rope_length_m=801 / f_spatial,
        inspection_speed_mps=speed,
        sampling_rate_hz=250.0,
        flaws=(flaw,),
        strand_amplitude=0.0,
        drift_amplitude=0.0,
        white_noise_sigma=0.0,
    )
    record, _ = generate(spec)
    channel = np.abs(record.samples[:, 7])
    above = np.nonzero(channel > 0.05 * channel.max())[0]
    return int(above[-1] - above[0] + 1)


def test_criterion_8_ssr_phenomenology(announce):
    slow = _flaw_footprint_px(0.15)  # f_spatial = 1666.7 samples/m
    fast = _flaw_footprint_px(1.2)  # f_spatial = 208.3 samples/m
    # ratio must equal the 8x f_spatial ratio, allowing +/- 1 px per edge on
    # both measurements
    footprint_ok = 8 * (fast - 2) - 2 <= slow <= 8 * (fast + 2) + 2

    slopes = {}
    for name, spec in scenario_presets().items():
        f_spatial = spec.sampling_rate_hz / spec.inspection_speed_mps
        slopes[name] = 200.0 / (spec.strand_pitch_m * f_spatial)
    slope_ok = slopes["low_ssr"] > slopes["optimal_ssr"] > slopes["high_ssr"]

    ok = footprint_ok and slope_ok
    assert announce(
        "criterion 8: SSR footprint ratio and strand slope ordering",
        ok,
        f"footprints {slow}px vs {fast}px, slopes "
        + ", ".join(f"{n}={s:.1f}" for n, s in sorted(slopes.items())),
    )
