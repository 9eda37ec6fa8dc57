"""Preprocessing: detrend, normalize, radial interpolation, segmentation."""

import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from mflscan.errors import ConfigInvalid
from mflscan.ingest import (
    MflRecord,
    PreprocessConfig,
    Segments,
    interpolate_radial,
    normalize,
    preprocess,
)
from mflscan.synth import generate, make_eval_dataset, scenario_presets

from test_oracles import halo_detrend


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
    return np.array(rows).reshape(len(data), height)


def resample(data, height):
    """Each row of `data` at `height` radial positions, through the basis."""
    return data @ interpolate_radial(data.shape[1], height)


def detrend(record, cfg):
    """The whole record detrended as one window: `preprocess` with P = M over
    the identity basis (H = N), transposed back to M x N."""
    whole = replace(cfg, image_height=record.channel_count, segment_length=record.sample_count)
    return preprocess(record, whole)[0].pixels.T


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

    def test_rate_and_speed_checked_by_compute_ssr(self):
        for fs, v in ((0.0, 0.5), (250.0, -1.0), (1e-300, 1e300), (1e300, 1e-300)):
            with pytest.raises(ValueError, match="their ratio"):
                make_record(np.zeros((10, 4)), fs=fs, v=v)

    def test_shape_properties(self):
        rec = make_record(np.zeros((30, 4)))
        assert rec.sample_count == 30
        assert rec.channel_count == 4

    def test_config_sizes_within_mfl1_bound(self):
        # sizes are checked when the config is built, before anything is allocated
        for name in ("half_span_la", "image_height", "segment_length"):
            assert getattr(PreprocessConfig(**{name: 2**32 - 1}), name) == 2**32 - 1
            for bad in (0, 2**32, 10**30):
                with pytest.raises(ConfigInvalid, match=name):
                    PreprocessConfig(**{name: bad})


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
        with pytest.raises(ConfigInvalid, match="half_span_la = 20"):
            detrend(rec, PreprocessConfig(half_span_la=20))

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


class TestInterpolateRadial:
    def test_knot_values_reproduced(self):
        rng = np.random.default_rng(5)
        data = rng.uniform(-1, 1, size=(10, 16))
        out = resample(data, 32)
        # positions 0, 2, 4, ... coincide with the original channels
        assert np.allclose(out[:, ::2], data, atol=1e-9)

    def test_constant_rows_stay_constant(self):
        out = resample(np.full((5, 16), 0.375), 200)
        assert np.allclose(out, 0.375)

    def test_single_bump_midpoint_and_range(self):
        row = np.zeros((1, 16))
        row[0, 1] = 1.0
        out = resample(row, 32)
        # midpoint between channels 1 and 2 (knots 0 and 1) is position 1
        assert out[0, 1] >= 0.45
        assert out.max() <= 1.0
        assert out.min() >= -1.0

    def test_circular_continuity(self):
        # a bump at the last channel decays smoothly toward the wrap point
        # instead of being cut off at an artificial seam
        row = np.zeros((1, 16))
        row[0, 15] = 1.0
        out = resample(row, 64)
        assert out[0, 63] > 0.1  # quarter-step past the last channel

    def test_matches_per_row_spline_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(2, 25))
            height = int(rng.integers(n, 4 * n + 8))  # odd and non-multiple heights too
            data = rng.uniform(-1, 1, size=(int(rng.integers(1, 40)), n))
            np.testing.assert_allclose(
                resample(data, height), naive_interpolate_radial(data, height),
                rtol=0, atol=1e-12,
            )

    def test_output_height(self):
        # one row per channel, one column per radial position
        assert interpolate_radial(16, 200).shape == (16, 200)

    def test_height_below_channel_count_rejected(self):
        with pytest.raises(ConfigInvalid, match="channel count 16"):
            interpolate_radial(16, 15)

    def test_basis_built_once_and_read_only(self):
        basis = interpolate_radial(16, 200)
        assert interpolate_radial(16, 200) is basis
        assert not basis.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            basis[0, 0] = 1.0
        assert np.array_equal(basis, interpolate_radial.__wrapped__(16, 200))

    def test_shared_basis_leaves_segment_pixels_unchanged(self):
        record, _ = make_eval_dataset(scenario_presets()["high_ssr"], 1, 3)[0]
        cfg = PreprocessConfig()
        fresh = interpolate_radial.__wrapped__(record.channel_count, cfg.image_height)
        want = Segments(record.samples, fresh, cfg)
        for _ in range(2):  # the second pass reads the basis the first one used
            got = preprocess(record, cfg)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert np.array_equal(a.pixels, b.pixels)


def cut(samples, length, la=50):
    """`Segments` of `samples` over the identity basis, and the halo oracle's
    detrended windows, concatenated."""
    cfg = PreprocessConfig(half_span_la=la, segment_length=length)
    images = Segments(samples, np.eye(samples.shape[1]), cfg)
    return images, np.concatenate([halo_detrend(samples, la, i * length, (i + 1) * length)
                                   for i in range(len(images))])


class TestSegment:
    """`Segments` over the identity basis is the record cut in P, each window
    detrended from its own halo and transposed."""

    def test_five_segments_with_origins(self):
        f = np.linspace(-1, 1, 1000 * 8).reshape(1000, 8)
        images, _ = cut(f, 200)
        assert len(images) == 5
        for i, img in enumerate(images):
            assert img.segment_index == i + 1
            assert img.origin_sample == i * 200
            assert img.pixels.shape == (8, 200)

    def test_single_segment_is_transpose(self):
        f = np.linspace(-1, 1, 200 * 4).reshape(200, 4)
        images, detrended = cut(f, 200)
        assert len(images) == 1
        assert np.array_equal(images[0].pixels, detrended.T)
        assert images[0].pixels.flags.c_contiguous

    def test_trailing_remainder_dropped(self):
        f = np.zeros((399, 4))
        assert len(cut(f, 200)[0]) == 1

    def test_record_shorter_than_segment_rejected(self):
        with pytest.raises(ConfigInvalid, match="segment_length = 200"):
            cut(np.zeros((150, 4)), 200)

    def test_segments_partition_exactly(self):
        rng = np.random.default_rng(9)
        f = rng.uniform(-1, 1, size=(650, 6))
        images, detrended = cut(f, 200)
        rebuilt = np.concatenate([img.pixels.T for img in images], axis=0)
        assert np.array_equal(rebuilt, detrended[:600])

    def test_sequence_protocol(self):
        rng = np.random.default_rng(13)
        images, _ = cut(rng.uniform(-1, 1, size=(650, 6)), 200)
        assert images[-1].segment_index == images[2].segment_index == 3
        assert np.array_equal(images[-3].pixels, images[0].pixels)
        for bad in (3, -4):
            with pytest.raises(IndexError):
                images[bad]
        # each access builds a fresh image; iterating twice gives equal pixels
        assert all(np.array_equal(a.pixels, b.pixels) for a, b in zip(images, list(images)))
        assert images[0].pixels is not images[0].pixels

    @pytest.mark.parametrize("la", [1, 30, 250])  # La 250 reaches past the window before
    def test_any_read_order_gives_the_same_bytes(self, la):
        record, _ = make_eval_dataset(scenario_presets()["high_ssr"], 1, 5)[0]
        cfg = PreprocessConfig(half_span_la=la, image_height=23, segment_length=61)
        in_order = [image.pixels.tobytes() for image in preprocess(record, cfg)]
        count = len(in_order)
        shuffled = np.random.default_rng(la).permutation(count)
        for order in (range(count - 1, -1, -1), shuffled, [count - 1, 0, count // 2]):
            images = preprocess(record, cfg)
            for i in order:
                assert images[int(i)].pixels.tobytes() == in_order[i]

    @pytest.mark.pins_bytes
    @pytest.mark.parametrize("rope", ["low_ssr", "optimal_ssr", "high_ssr", "long-rope"])
    def test_range_view_gives_the_record_bytes(self, rope):
        # a helper is sent `images[range(a, b)]`: image j of it is image a + j,
        # byte for byte, from the range's rows and their 2 La halo alone; the
        # long rope is 50 high_ssr segments with a 150-sample tail
        preset = scenario_presets()["high_ssr" if rope == "long-rope" else rope]
        if rope == "long-rope":
            f_spatial = preset.sampling_rate_hz / preset.inspection_speed_mps
            preset = replace(preset, rope_length_m=(50 * 200 + 150.5) / f_spatial)
        record, _ = generate(preset)
        cfg = PreprocessConfig()
        images = preprocess(record, cfg)
        count = len(images)

        def read(image):
            return image.pixels.tobytes(), image.segment_index, image.origin_sample

        whole = [read(image) for image in images]
        splits = {(0, 1), (1, count - 1), (count - 1, count)}
        for parts in (1, 2, 4):
            splits |= {(count * r // parts, count * (r + 1) // parts) for r in range(parts)}
        for a, b in sorted(splits):
            view = images[range(a, b)]
            assert [read(image) for image in view] == whole[a:b]
            assert read(view[-1]) == whole[b - 1]
            for bad in (b - a, a - b - 1):
                with pytest.raises(IndexError):
                    view[bad]
            if b - a > 1:  # a view of a view starts at its own first row
                assert read(view[range(1, b - a)][0]) == whole[a + 1]
            row_bytes = 8 * record.channel_count
            halo = row_bytes * ((b - a) * cfg.segment_length + 2 * cfg.half_span_la)
            size = len(pickle.dumps(view, pickle.HIGHEST_PROTOCOL))
            assert size <= halo + images._basis.nbytes + 1024

    @pytest.mark.pins_bytes
    def test_window_ignores_samples_before_its_halo(self):
        # 2P rows of other values ahead of the record move its windows by two;
        # window i >= 1 starts its halo at iP - La, past the rows put ahead
        record, _ = make_eval_dataset(scenario_presets()["high_ssr"], 1, 5)[0]
        cfg = PreprocessConfig()
        p = cfg.segment_length
        ahead = np.random.default_rng(3).normal(300.0, 50.0, size=(2 * p, record.channel_count))
        longer = make_record(np.vstack([ahead, record.samples]))
        original, shifted = preprocess(record, cfg), preprocess(longer, cfg)
        assert len(original) == 4 and len(shifted) == 6
        for i in range(1, len(original)):
            assert original[i].pixels.tobytes() == shifted[i + 2].pixels.tobytes()


def test_detrend_accuracy_holds_along_the_rope():
    # a difference of two prefix sums loses accuracy as the prefix grows
    # (Higham 2002, section 4); a window summed from its own halo keeps the
    # last of 400 segments, offset by 1000, close to exactly rounded window means
    preset = scenario_presets()["high_ssr"]
    f_spatial = preset.sampling_rate_hz / preset.inspection_speed_mps
    record, _ = generate(replace(preset, rope_length_m=(400 * 200 + 150.5) / f_spatial))
    x = record.samples + 1000.0
    cfg = PreprocessConfig()
    images = Segments(x, np.eye(record.channel_count), cfg)
    assert len(images) == 400
    last = images[-1]
    la, m_count = cfg.half_span_la, record.sample_count
    worst = 0.0
    for row, m in enumerate(range(last.origin_sample, last.origin_sample + last.length)):
        window = x[max(m - la, 0) : min(m + la - 1, m_count - 1) + 1].T.tolist()
        want = [x[m, n] - math.fsum(column) / len(column) for n, column in enumerate(window)]
        worst = max(worst, float(np.abs(last.pixels[:, row] - want).max()))
    assert worst <= 1e-10


def test_preprocess_chain_shapes_and_range():
    # the images are in detrended units: nothing maps them to [-1, 1] or clips them
    rng = np.random.default_rng(1)
    rec = make_record(rng.normal(size=(450, 16)))
    images = preprocess(rec, PreprocessConfig(half_span_la=100))
    assert len(images) == 2
    for img in images:
        assert img.pixels.shape == (200, 200)
        assert img.pixels.max() > 1.0
        assert img.pixels.min() < -1.0
