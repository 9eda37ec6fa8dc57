"""Synthetic multi-channel MFL record generator with planted ground truth.

The generator superimposes, per channel: slow baseline drift, helical strand
noise (a phase-rotated sinusoid producing the familiar diagonal banding),
planted flaws shaped as an axial derivative-of-Gaussian (valley-then-peak
pair), optional full-height stripe artifacts, and white noise. Because every
component is defined in physical meters, the pixel footprint of a flaw and the
apparent strand slope scale with spatial sampling resolution automatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import FormatError
from .ingest import MFL1_MAX_COUNT, MflRecord

# axial sigma of a stripe artifact, meters (full radial height, short axially)
STRIPE_SIGMA_M = 0.001

# drift is smoothed over this many samples so the detrend window removes it
DRIFT_SMOOTH_SAMPLES = 600

MIN_SAMPLES = 400  # at least two default-length segments
MAX_ARRAY_BYTES = 2**63 - 1  # numpy refuses a larger array whatever the host's memory


@dataclass(frozen=True)
class GroundTruthFlaw:
    axial_position_m: float
    axial_extent_m: float = 0.02
    radial_center_channel: float = 8.0
    radial_spread_channels: float = 2.0
    amplitude: float = 1.0


@dataclass(frozen=True)
class SynthSpec:
    rope_length_m: float
    inspection_speed_mps: float
    sampling_rate_hz: float
    channel_count: int = 16
    flaws: tuple[GroundTruthFlaw, ...] = ()
    strand_pitch_m: float = 0.05
    strand_amplitude: float = 0.15
    stripe_noise_rate_per_m: float = 0.0
    stripe_amplitude: float = 0.3
    drift_amplitude: float = 0.5
    white_noise_sigma: float = 0.02
    rng_seed: int = 0
    label: str = "synthetic"

    def __post_init__(self):
        """Refuse a spec that cannot be rendered into an MFL1 record."""
        _require_finite(self, 0, True, "rope_length_m", "inspection_speed_mps",
                        "sampling_rate_hz", "strand_pitch_m")
        _require_finite(self, 0, False, "strand_amplitude", "stripe_noise_rate_per_m",
                        "stripe_amplitude", "drift_amplitude", "white_noise_sigma")
        if not 2 <= self.channel_count <= MFL1_MAX_COUNT:
            raise FormatError(f"channel_count must lie in [2, {MFL1_MAX_COUNT}]")
        if self.rng_seed < 0:
            raise FormatError(f"rng_seed must be >= 0, got {self.rng_seed}")
        f_spatial = self.sampling_rate_hz / self.inspection_speed_mps
        samples = self.rope_length_m * f_spatial
        if not MIN_SAMPLES <= samples < MFL1_MAX_COUNT + 1:
            raise FormatError(
                f"rope_length_m * sampling_rate_hz / inspection_speed_mps gives {samples:.6g} "
                f"samples; a record holds {MIN_SAMPLES} to {MFL1_MAX_COUNT}"
            )
        if int(samples) * self.channel_count * 8 > MAX_ARRAY_BYTES:
            raise FormatError(f"{int(samples)} samples x {self.channel_count} channels need "
                              f"more bytes than one array can hold")
        if self.stripe_noise_rate_per_m * self.rope_length_m > samples:
            raise FormatError("stripe_noise_rate_per_m expects more stripes than the rope has "
                              "samples")
        for flaw in self.flaws:
            if not 0 <= flaw.axial_position_m <= self.rope_length_m:
                raise FormatError(
                    f"flaw at {flaw.axial_position_m} m lies outside the rope"
                )
            _require_finite(flaw, 0, True, "amplitude")
            # a flaw narrower than the sample spacing falls between samples
            _require_finite(flaw, 1 / f_spatial, False, "axial_extent_m")
            _require_finite(flaw, 0, False, "radial_spread_channels")
            if not math.isfinite(flaw.radial_center_channel):
                raise FormatError(f"radial_center_channel must be finite, "
                                  f"got {flaw.radial_center_channel}")


def _require_finite(obj, low: float, strict: bool, *names: str):
    """Refuse each field `names` of `obj` that is not finite and > `low` (>= unless `strict`)."""
    for name in names:
        value = getattr(obj, name)
        if not (math.isfinite(value) and (value > low if strict else value >= low)):
            raise FormatError(f"{name} must be finite and {'>' if strict else '>='} {low}, "
                              f"got {value}")


def flaw_profile(s: np.ndarray, flaw: GroundTruthFlaw) -> np.ndarray:
    """Axial derivative-of-Gaussian signature (zero-mean valley/peak pair)."""
    sigma = flaw.axial_extent_m / 4.0
    u = (s - flaw.axial_position_m) / sigma
    return flaw.amplitude * (-u) * np.exp(-0.5 * u * u)


def _channel_weights(flaw: GroundTruthFlaw, n_channels: int) -> np.ndarray:
    chan = np.arange(1, n_channels + 1, dtype=float)
    dist = np.abs(chan - flaw.radial_center_channel) % n_channels
    dist = np.minimum(dist, n_channels - dist)  # ring array: circular distance
    spread = max(flaw.radial_spread_channels, 1e-9)
    return np.exp(-0.5 * (dist / spread) ** 2)


def _smooth_drift(walk: np.ndarray, sigma: float):
    """Smooth each column of `walk` in place with a Gaussian clamped at both ends.

    The result equals `scipy.ndimage.gaussian_filter1d(walk, sigma, axis=0,
    mode="nearest")` to within rounding: the same kernel, exp(-x^2 / 2 sigma^2)
    normalized over |x| <= int(4 sigma + 0.5). Clamping adds, to each output
    sample, the first (last) sample times the kernel mass that falls before
    (after) the record; the rest is a linear convolution of the record with
    the taps that reach within it, done by FFT one column at a time.
    """
    m_count = walk.shape[0]
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 / (sigma * sigma) * x**2)
    kernel /= kernel.sum()
    # tail[k]: the kernel mass at offsets k .. radius, summed from the small end
    tail = np.append(np.cumsum(kernel[::-1])[::-1][radius:], 0.0)
    before = tail[np.minimum(np.arange(1, m_count + 1), radius + 1)]
    after = before[::-1]
    reach = min(radius, m_count - 1)
    n_fft = 1 << (m_count + reach - 1).bit_length()  # no wrap-around reaches [0, m_count)
    taps = np.zeros(n_fft)
    taps[: reach + 1] = kernel[radius : radius + reach + 1]
    taps[n_fft - reach :] = kernel[radius - reach : radius]  # negative offsets wrap around
    spectrum = np.fft.rfft(taps)
    for c in range(walk.shape[1]):
        column = walk[:, c]
        smooth = np.fft.irfft(np.fft.rfft(column, n_fft) * spectrum, n_fft)[:m_count]
        walk[:, c] = smooth + before * column[0] + after * column[-1]


def generate(spec: SynthSpec) -> tuple[MflRecord, list[GroundTruthFlaw]]:
    """Render a record from the spec. Same spec and seed give identical bits on one machine."""
    f_spatial = spec.sampling_rate_hz / spec.inspection_speed_mps
    m_count = int(np.floor(spec.rope_length_m * f_spatial))
    n = spec.channel_count
    rng = np.random.default_rng(spec.rng_seed)
    s = np.arange(m_count) / f_spatial  # axial position of each sample, meters
    signal = np.zeros((m_count, n))

    if spec.drift_amplitude > 0:
        walk = np.cumsum(rng.standard_normal((m_count, n)), axis=0)
        _smooth_drift(walk, DRIFT_SMOOTH_SAMPLES)
        peak = np.abs(walk).max()
        if peak > 0:
            signal += spec.drift_amplitude * walk / peak

    if spec.strand_amplitude > 0:
        phase = 2.0 * np.pi * (s[:, None] / spec.strand_pitch_m + np.arange(n)[None, :] / n)
        signal += spec.strand_amplitude * np.sin(phase)

    for flaw in spec.flaws:
        signal += flaw_profile(s, flaw)[:, None] * _channel_weights(flaw, n)[None, :]

    if spec.stripe_noise_rate_per_m > 0:
        n_stripes = rng.poisson(spec.stripe_noise_rate_per_m * spec.rope_length_m)
        positions = rng.uniform(0.0, spec.rope_length_m, size=n_stripes)
        for pos in positions:
            bump = spec.stripe_amplitude * np.exp(-0.5 * ((s - pos) / STRIPE_SIGMA_M) ** 2)
            signal += bump[:, None]

    if spec.white_noise_sigma > 0:
        signal += rng.normal(0.0, spec.white_noise_sigma, size=(m_count, n))

    record = MflRecord(
        samples=signal,
        sampling_rate_hz=spec.sampling_rate_hz,
        inspection_speed_mps=spec.inspection_speed_mps,
        label=spec.label,
    )
    return record, list(spec.flaws)


def _graded_flaws(f_spatial: float, segment_length: int = 200) -> tuple[GroundTruthFlaw, ...]:
    """Four flaws of graded amplitude, one centered in each of four segments."""
    amplitudes = (0.7, 0.9, 1.1, 1.3)
    channels = (4.0, 12.0, 8.0, 16.0)
    flaws = []
    for i, (amp, chan) in enumerate(zip(amplitudes, channels)):
        center_sample = segment_length // 2 + i * segment_length
        flaws.append(
            GroundTruthFlaw(
                axial_position_m=center_sample / f_spatial,
                axial_extent_m=0.03,
                radial_center_channel=chan,
                amplitude=amp,
            )
        )
    return tuple(flaws)


def scenario_presets() -> dict[str, SynthSpec]:
    """Named scenarios spanning the SSR range at a 250 Hz sampling rate.

    low_ssr is the fast scan (sparse sampling), high_ssr the slow scan (dense
    sampling, with stripe artifacts), optimal_ssr sits in between. Each rope
    is four segments long and carries four flaws of graded amplitude.
    """
    fs = 250.0
    presets = {}
    # noise amplitudes frozen after the one-time calibration run
    for name, v, knobs in (
        ("low_ssr", 1.2, {"white_noise_sigma": 0.12}),
        ("optimal_ssr", 0.5, {"strand_amplitude": 0.10}),
        ("high_ssr", 0.15, {"stripe_noise_rate_per_m": 10.0, "stripe_amplitude": 0.7}),
    ):
        f_spatial = fs / v
        length = 801 / f_spatial  # four full 200-sample segments
        presets[name] = SynthSpec(
            rope_length_m=length,
            inspection_speed_mps=v,
            sampling_rate_hz=fs,
            flaws=_graded_flaws(f_spatial),
            label=name,
            **knobs,
        )
    return presets


def make_eval_dataset(
    preset: SynthSpec, count: int, base_seed: int = 0
) -> list[tuple[MflRecord, list[GroundTruthFlaw]]]:
    """Generate `count` records from a preset, jittering flaw positions per seed.

    Positions move by up to +/-30 samples around their preset location so the
    flaws stay clear of segment boundaries while every record differs.
    """
    f_spatial = preset.sampling_rate_hz / preset.inspection_speed_mps
    dataset = []
    for i in range(count):
        seed = base_seed + i
        jitter_rng = np.random.default_rng(seed ^ 0x5EED)
        flaws = tuple(
            replace(
                flaw,
                axial_position_m=flaw.axial_position_m
                + jitter_rng.uniform(-30, 30) / f_spatial,
            )
            for flaw in preset.flaws
        )
        spec = replace(preset, flaws=flaws, rng_seed=seed, label=f"{preset.label}_{i:03d}")
        dataset.append(generate(spec))
    return dataset
