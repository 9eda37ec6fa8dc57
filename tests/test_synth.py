"""Synthetic record generator: determinism, flaw shape, SSR phenomenology."""

import dataclasses

import numpy as np
import pytest

from mflscan import formats
from mflscan.errors import FormatError
from mflscan.synth import (
    GroundTruthFlaw,
    SynthSpec,
    flaw_profile,
    generate,
    make_eval_dataset,
    scenario_presets,
)

QUIET = dict(strand_amplitude=0.0, drift_amplitude=0.0, white_noise_sigma=0.0)


def quiet_spec(**over):
    base = dict(
        rope_length_m=4.0,
        inspection_speed_mps=0.5,
        sampling_rate_hz=250.0,
        **QUIET,
    )
    base.update(over)
    return SynthSpec(**base)


class TestGenerate:
    def test_all_zero_without_sources(self):
        record, flaws = generate(quiet_spec())
        assert flaws == []
        assert np.allclose(record.samples, 0.0)

    def test_sample_count_and_channels(self):
        record, _ = generate(quiet_spec())
        assert record.sample_count == 2000  # 4 m at 500 samples/m
        assert record.channel_count == 16

    def test_seeded_determinism(self):
        spec = quiet_spec(white_noise_sigma=0.1, strand_amplitude=0.2,
                          drift_amplitude=0.3, rng_seed=13)
        a, _ = generate(spec)
        b, _ = generate(spec)
        assert np.array_equal(a.samples, b.samples)

    def test_different_seeds_differ(self):
        a, _ = generate(quiet_spec(white_noise_sigma=0.1, rng_seed=1))
        b, _ = generate(quiet_spec(white_noise_sigma=0.1, rng_seed=2))
        assert not np.array_equal(a.samples, b.samples)

    def test_flaw_is_valley_peak_pair(self):
        flaw = GroundTruthFlaw(axial_position_m=2.0, axial_extent_m=0.03,
                               radial_center_channel=8.0)
        record, _ = generate(quiet_spec(flaws=(flaw,)))
        channel = record.samples[:, 7]
        f_spatial = 500.0
        lo = int((2.0 - 0.03) * f_spatial)
        hi = int((2.0 + 0.03) * f_spatial)
        window = channel[lo:hi]
        signs = np.sign(window[np.abs(window) > 1e-6])
        changes = np.count_nonzero(np.diff(signs))
        assert changes == 1  # exactly one sign change: valley then peak

    def test_flaw_profile_integrates_to_zero(self):
        flaw = GroundTruthFlaw(axial_position_m=2.0, axial_extent_m=0.03)
        s = np.linspace(1.5, 2.5, 20001)
        profile = flaw_profile(s, flaw)
        assert np.trapezoid(profile, s) == pytest.approx(0.0, abs=1e-9)

    def test_too_short_spec_rejected(self):
        with pytest.raises(FormatError, match="gives 250 samples"):
            quiet_spec(rope_length_m=0.5)

    def test_invalid_speed_names_field(self):
        with pytest.raises(FormatError, match="inspection_speed_mps"):
            quiet_spec(inspection_speed_mps=-1.0)

    def test_channel_count_within_mfl1_bound(self):
        # the MFL1 header stores N as u32
        assert quiet_spec(channel_count=2**32 - 1).channel_count == 2**32 - 1
        for bad in (2**32, 10**22):
            with pytest.raises(FormatError, match="channel_count"):
                quiet_spec(channel_count=bad)

    def test_array_numpy_cannot_hold_rejected(self):
        # both sizes fit u32, but 2**29 x (2**32 - 1) float64 values pass 2**63 - 1 bytes
        with pytest.raises(FormatError, match="one array"):
            quiet_spec(rope_length_m=2**29 / 500, channel_count=2**32 - 1)

    def test_flaw_centre_wraps_around_the_ring(self, tmp_path):
        # centres whole turns apart name one channel of the 16-channel ring
        files = set()
        for centre in (4.0, 52.0, -12.0):
            flaw = GroundTruthFlaw(axial_position_m=2.0, radial_center_channel=centre)
            record, _ = generate(quiet_spec(flaws=(flaw,)))
            path = tmp_path / f"centre{centre}.mfl"
            formats.write_record_binary(path, record)
            files.add(path.read_bytes())
        assert len(files) == 1

    def test_flaw_outside_rope_rejected(self):
        flaw = GroundTruthFlaw(axial_position_m=10.0)
        with pytest.raises(FormatError, match="lies outside the rope"):
            quiet_spec(flaws=(flaw,))

    def test_stripes_span_all_channels(self):
        spec = quiet_spec(stripe_noise_rate_per_m=5.0, stripe_amplitude=1.0,
                          rng_seed=3)
        record, _ = generate(spec)
        peak_sample = int(np.argmax(record.samples[:, 0]))
        row = record.samples[peak_sample]
        assert row.min() > 0.5 * row.max()  # full radial height


class TestPresets:
    def test_preset_names_and_flaw_counts(self):
        presets = scenario_presets()
        assert set(presets) == {"low_ssr", "optimal_ssr", "high_ssr"}
        for spec in presets.values():
            assert len(spec.flaws) == 4

    def test_preset_spatial_frequencies(self):
        presets = scenario_presets()
        assert 250.0 / presets["low_ssr"].inspection_speed_mps == pytest.approx(
            208.33, abs=0.01
        )
        assert 250.0 / presets["high_ssr"].inspection_speed_mps == pytest.approx(
            1666.7, abs=0.1
        )

    def test_stripes_only_in_high_ssr(self):
        presets = scenario_presets()
        assert presets["low_ssr"].stripe_noise_rate_per_m == 0.0
        assert presets["optimal_ssr"].stripe_noise_rate_per_m == 0.0
        assert presets["high_ssr"].stripe_noise_rate_per_m > 0.0

    def test_presets_yield_four_segments(self):
        for spec in scenario_presets().values():
            record, _ = generate(spec)
            assert record.sample_count // 200 == 4


def _footprint_px(speed):
    """Axial pixel extent of a flaw rendered with all noise sources off."""
    f_spatial = 250.0 / speed
    flaw = GroundTruthFlaw(axial_position_m=400 / f_spatial, axial_extent_m=0.03)
    spec = quiet_spec(
        rope_length_m=801 / f_spatial, inspection_speed_mps=speed, flaws=(flaw,)
    )
    record, _ = generate(spec)
    channel = np.abs(record.samples[:, 7])
    above = np.nonzero(channel > 0.05 * channel.max())[0]
    return above[-1] - above[0] + 1


class TestSsrPhenomenology:
    def test_footprint_scales_with_f_spatial(self):
        slow = _footprint_px(0.15)  # f_spatial = 1666.7
        fast = _footprint_px(1.2)  # f_spatial = 208.3
        assert slow == pytest.approx(8 * fast, abs=8)  # +/- 1 px per fast-side px

    def test_strand_slope_measured_from_images(self):
        # gradient-direction check on noise-free strand images: the steeper
        # the banding, the larger the axial/radial gradient ratio
        ratios = {}
        for name, spec in scenario_presets().items():
            spec = dataclasses.replace(
                spec, flaws=(), drift_amplitude=0.0, white_noise_sigma=0.0,
                stripe_noise_rate_per_m=0.0,
            )
            record, _ = generate(spec)
            from mflscan.ingest import preprocess

            img = preprocess(record)[0].pixels
            gr, gc = np.gradient(img)
            ratios[name] = np.abs(gc).mean() / np.abs(gr).mean()
        assert ratios["low_ssr"] > ratios["optimal_ssr"] > ratios["high_ssr"]


class TestEvalDataset:
    def test_jitter_keeps_flaws_inside_rope(self):
        preset = scenario_presets()["optimal_ssr"]
        for record, truths in make_eval_dataset(preset, 10, base_seed=0):
            for truth in truths:
                assert 0 < truth.axial_position_m < preset.rope_length_m

    def test_records_differ_across_seeds(self):
        preset = scenario_presets()["optimal_ssr"]
        ds = make_eval_dataset(preset, 2, base_seed=0)
        assert not np.array_equal(ds[0][0].samples, ds[1][0].samples)

    def test_dataset_deterministic(self):
        preset = scenario_presets()["low_ssr"]
        a = make_eval_dataset(preset, 2, base_seed=5)
        b = make_eval_dataset(preset, 2, base_seed=5)
        assert np.array_equal(a[1][0].samples, b[1][0].samples)
