"""Preprocessing: detrend, normalize, radial interpolation, segmentation."""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from mflscan.errors import ConfigInvalid, RecordTooShort
from mflscan.ingest import (
    MflRecord,
    PreprocessConfig,
    detrend,
    interpolate_radial,
    normalize,
    preprocess,
    segment,
)


def make_record(samples, fs=250.0, v=0.5):
    return MflRecord(samples=np.asarray(samples, dtype=float), sampling_rate_hz=fs,
                     inspection_speed_mps=v)


def naive_interpolate_radial(data, height):
    """Reference for `interpolate_radial`: one periodic CubicSpline per row."""
    n = data.shape[1]
    knots = np.arange(n + 1, dtype=float)
    positions = np.arange(height) * (n / height)
    rows = [
        CubicSpline(knots, np.append(row, row[0]), bc_type="periodic")(positions)
        for row in data
    ]
    return np.clip(np.array(rows).reshape(len(data), height), -1.0, 1.0)


class TestRecordValidation:
    def test_rejects_non_finite_samples(self):
        bad = np.zeros((10, 4))
        bad[3, 1] = np.nan
        with pytest.raises(ValueError):
            make_record(bad)

    def test_rejects_empty_record(self):
        with pytest.raises(ValueError):
            make_record(np.zeros((0, 16)))

    def test_rejects_single_channel(self):
        with pytest.raises(ValueError):
            make_record(np.zeros((10, 1)))

    def test_rejects_non_positive_speed(self):
        for bad in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                make_record(np.zeros((10, 4)), v=bad)
            with pytest.raises(ValueError):
                make_record(np.zeros((10, 4)), fs=bad)

    def test_shape_properties(self):
        rec = make_record(np.zeros((30, 4)))
        assert rec.sample_count == 30
        assert rec.channel_count == 4


class TestDetrend:
    def test_constant_channel_goes_to_zero(self):
        rec = make_record(np.full((50, 3), 7.25))
        y = detrend(rec, PreprocessConfig(half_span_la=5))
        assert np.allclose(y, 0.0)

    def test_linear_ramp_interior_residual_is_half(self):
        # window [m-La, m+La-1] over x[m]=m has mean m-0.5 -> residual 0.5
        m = np.arange(100, dtype=float)
        rec = make_record(np.stack([m, m], axis=1))
        y = detrend(rec, PreprocessConfig(half_span_la=10))
        interior = y[10:90]
        assert np.allclose(interior, 0.5)

    def test_impulse_brute_force(self):
        # 10-sample vector, unit impulse at m0=5, La=2: window at m0 holds
        # 4 samples, one of them the impulse, so the residual is 1 - 1/4.
        x = np.zeros((10, 2))
        x[5, :] = 1.0
        rec = make_record(x)
        y = detrend(rec, PreprocessConfig(half_span_la=2))
        assert y[5, 0] == pytest.approx(0.75)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(60, 3))
        rec = make_record(x)
        la = 8
        y = detrend(rec, PreprocessConfig(half_span_la=la))
        for m in range(60):
            lo = max(m - la, 0)
            hi = min(m + la - 1, 59)
            expected = x[m] - x[lo : hi + 1].mean(axis=0)
            assert np.allclose(y[m], expected, atol=1e-12)

    def test_too_short_record_rejected(self):
        # a window too wide for the record is a config error that names its key
        rec = make_record(np.zeros((30, 2)))
        with pytest.raises(RecordTooShort, match="half_span_la = 20") as info:
            detrend(rec, PreprocessConfig(half_span_la=20))
        assert isinstance(info.value, ConfigInvalid)

    def test_idempotent_on_trendless_input(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(300, 4))
        rec = make_record(x)
        cfg = PreprocessConfig(half_span_la=50)
        once = detrend(rec, cfg)
        twice = detrend(make_record(once), cfg)
        # a second pass only removes what little baseline the first left
        assert np.abs(twice - once).max() < np.abs(x).max() * 0.1


class TestNormalize:
    def test_affine_map_fixture(self):
        y = np.array([[-2.0, 2.0], [1.0, 0.0]])
        out = normalize(y)
        assert out[1, 0] == pytest.approx(0.5)
        assert out[0, 0] == pytest.approx(-1.0)
        assert out[0, 1] == pytest.approx(1.0)

    def test_identity_when_already_full_range(self):
        y = np.array([[-1.0, 0.25], [1.0, -0.5]])
        assert np.allclose(normalize(y), y)

    def test_flat_input_maps_to_zeros(self):
        assert np.allclose(normalize(np.full((5, 5), 3.0)), 0.0)

    def test_order_preserving(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=(40, 4))
        out = normalize(y)
        flat_in, flat_out = y.ravel(), out.ravel()
        order = np.argsort(flat_in)
        assert np.all(np.diff(flat_out[order]) >= 0)


class TestInterpolateRadial:
    def test_knot_values_reproduced(self):
        rng = np.random.default_rng(5)
        data = rng.uniform(-1, 1, size=(10, 16))
        out = interpolate_radial(data, 32)
        # positions 0, 2, 4, ... coincide with the original channels
        assert np.allclose(out[:, ::2], data, atol=1e-9)

    def test_constant_rows_stay_constant(self):
        out = interpolate_radial(np.full((5, 16), 0.375), 200)
        assert np.allclose(out, 0.375)

    def test_single_bump_midpoint_and_range(self):
        row = np.zeros((1, 16))
        row[0, 1] = 1.0
        out = interpolate_radial(row, 32)
        # midpoint between channels 1 and 2 (knots 0 and 1) is position 1
        assert out[0, 1] >= 0.45
        assert out.max() <= 1.0
        assert out.min() >= -1.0

    def test_circular_continuity(self):
        # a bump at the last channel decays smoothly toward the wrap point
        # instead of being cut off at an artificial seam
        row = np.zeros((1, 16))
        row[0, 15] = 1.0
        out = interpolate_radial(row, 64)
        assert out[0, 63] > 0.1  # quarter-step past the last channel

    def test_matches_per_row_spline_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(2, 25))
            height = int(rng.integers(n, 4 * n + 8))  # odd and non-multiple heights too
            data = rng.uniform(-1, 1, size=(int(rng.integers(1, 40)), n))
            np.testing.assert_allclose(
                interpolate_radial(data, height), naive_interpolate_radial(data, height),
                rtol=0, atol=1e-12,
            )

    def test_output_height(self):
        out = interpolate_radial(np.zeros((7, 16)), 200)
        assert out.shape == (7, 200)


class TestSegment:
    def test_five_segments_with_origins(self):
        f = np.arange(1000 * 8, dtype=float).reshape(1000, 8)
        images = segment(f, 200)
        assert len(images) == 5
        for i, img in enumerate(images):
            assert img.segment_index == i + 1
            assert img.origin_sample == i * 200
            assert img.pixels.shape == (8, 200)

    def test_single_segment_is_transpose(self):
        f = np.arange(200 * 4, dtype=float).reshape(200, 4)
        images = segment(f, 200)
        assert len(images) == 1
        assert np.array_equal(images[0].pixels, f.T)

    def test_trailing_remainder_dropped(self):
        f = np.zeros((399, 4))
        assert len(segment(f, 200)) == 1

    def test_record_shorter_than_segment_rejected(self):
        with pytest.raises(RecordTooShort, match="segment_length = 200"):
            segment(np.zeros((150, 4)), 200)

    def test_segments_partition_exactly(self):
        rng = np.random.default_rng(9)
        f = rng.normal(size=(650, 6))
        images = segment(f, 200)
        rebuilt = np.concatenate([img.pixels.T for img in images], axis=0)
        assert np.array_equal(rebuilt, f[:600])


def test_preprocess_chain_shapes_and_range():
    rng = np.random.default_rng(1)
    rec = make_record(rng.normal(size=(450, 16)))
    images = preprocess(rec, PreprocessConfig(half_span_la=100))
    assert len(images) == 2
    for img in images:
        assert img.pixels.shape == (200, 200)
        assert img.pixels.max() <= 1.0
        assert img.pixels.min() >= -1.0
