"""Raw record preprocessing: detrend, normalize, radial interpolation, segmentation.

Records arrive as M axial samples x N channels. Preprocessing turns one record
into a sequence of fixed-size H x P images (rows radial, columns axial) with
pixel values in [-1, 1]. It allocates one M x N array: `detrend` fills it a
chunk of rows at a time, and `preprocess` maps it to [-1, 1] in place. The
sequence builds each image from that array when it is accessed, so no M x H
strip of the whole record is ever held.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigInvalid
from .ssr import compute_ssr

FINITE_CHECK_SAMPLES = 2**16  # `MflRecord` checks finiteness this many samples at a time


@dataclass(frozen=True)
class MflRecord:
    """One multi-channel MFL record: M axial samples x N channels."""

    samples: np.ndarray
    sampling_rate_hz: float
    inspection_speed_mps: float
    label: str = ""

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 2 or samples.shape[0] < 1 or samples.shape[1] < 2:
            raise ValueError("samples must be an M x N matrix with M >= 1 and N >= 2")
        step = max(1, FINITE_CHECK_SAMPLES // samples.shape[1])  # rows per bool mask
        if not all(np.isfinite(samples[i : i + step]).all()
                   for i in range(0, samples.shape[0], step)):
            raise ValueError("samples must be finite")
        compute_ssr(self.sampling_rate_hz, self.inspection_speed_mps)

    @property
    def sample_count(self) -> int:
        return self.samples.shape[0]

    @property
    def channel_count(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class MflImage:
    """One H x P image segment (rows radial, columns axial) in [-1, 1]."""

    pixels: np.ndarray
    segment_index: int
    origin_sample: int

    @property
    def length(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True)
class PreprocessConfig:
    """Sizes in samples and pixels; each at most 2**32 - 1, the MFL1 header's bound on M and N."""

    half_span_la: int = 100
    image_height: int = 200
    segment_length: int = 200

    def __post_init__(self):
        for name in ("half_span_la", "image_height", "segment_length"):
            if not 1 <= getattr(self, name) <= 2**32 - 1:
                raise ConfigInvalid(f"{name} must lie in [1, 2**32 - 1]")


def detrend(record: MflRecord, cfg: PreprocessConfig) -> np.ndarray:
    """Subtract a centered moving-average baseline from every channel.

    The baseline at sample m is the mean over the window [m-La, m+La-1].
    Near the record edges the window is truncated to the available samples
    and the divisor shrinks accordingly.

    The window sums are differences of the record's cumulative sum, which is
    built a chunk of at most max(P, H*P // N) rows at a time (about one
    segment image's worth of samples) with its 2*La halo. Each chunk's sum
    starts from the running sum at its halo start, carried over from the chunk
    before (a prefix sum in blocks; Blelloch 1990), and adds the samples in
    the same order as one cumulative sum over the record would. So every
    value equals the whole-record computation's bit for bit, and the only
    record-sized array is the M x N result.
    """
    x = record.samples
    m_count, channels = x.shape
    la = cfg.half_span_la
    if m_count < 2 * la:
        raise ConfigInvalid(
            f"record has {m_count} samples, half_span_la = {la} needs at least {2 * la}"
        )
    chunk = max(cfg.segment_length, cfg.image_height * cfg.segment_length // channels)
    out = np.empty((m_count, channels))
    carry = np.zeros(channels)  # the cumulative sum of x[:halo_start]
    for start in range(0, m_count, chunk):
        stop = min(start + chunk, m_count)
        halo_start, halo_stop = max(start - la, 0), min(stop + la - 1, m_count)
        # csum[k] = sum of x[:halo_start + k]; row 0 is the carry
        csum = np.empty((halo_stop - halo_start + 1, channels))
        csum[0] = carry
        csum[1:] = x[halo_start:halo_stop]
        first = 1 if halo_start == 0 else 0  # the record's own sum starts at x[0]
        np.cumsum(csum[first:], axis=0, out=csum[first:])
        idx = np.arange(start, stop)
        lo = np.maximum(idx - la, 0)
        hi = np.minimum(idx + la - 1, m_count - 1)
        rows = out[start:stop]
        np.subtract(csum[hi + 1 - halo_start], csum[lo - halo_start], out=rows)
        rows /= (hi - lo + 1).astype(float)[:, None]
        np.subtract(x[start:stop], rows, out=rows)
        carry = csum[max(stop - la, 0) - halo_start].copy()
    return out


def _to_unit_range(y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write 2 (y - lo) / (hi - lo) - 1 into `out`, which may be `y`; zeros if hi == lo.

    lo and hi are y's global min and max.
    """
    lo = y.min()
    hi = y.max()
    if hi == lo:
        out.fill(0.0)
        return out
    np.subtract(y, lo, out=out)
    out *= 2.0
    out /= hi - lo
    out -= 1.0
    return out


def normalize(y: np.ndarray) -> np.ndarray:
    """Affine-map the global [min, max] of the record to [-1, 1], in a new array.

    A flat record (max == min) maps to all zeros. `preprocess` applies the
    same map in place instead.
    """
    y = np.asarray(y, dtype=float)
    return _to_unit_range(y, np.empty_like(y))


def _tridiagonal_solve(rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal rows (1, 4, 1) for `rhs` in LAPACK `gtsv`'s order of operations.

    The rows are diagonally dominant, so `gtsv` never pivots; its `- 0 * x[i + 2]`
    is left out, since no entry is ever -0.0.
    """
    x = rhs.copy()
    diag = [4.0]
    for i in range(1, len(x)):
        fact = 1.0 / diag[-1]
        diag.append(4.0 - fact)
        x[i] -= fact * x[i - 1]
    x[-1] /= diag[-1]
    for i in range(len(x) - 2, -1, -1):
        x[i] = (x[i] - x[i + 1]) / diag[i]
    return x


@lru_cache(maxsize=8)
def interpolate_radial(channels: int, height: int) -> np.ndarray:
    """The channels x `height` matrix that resamples an axial row to `height` radial positions.

    The channel axis is treated as circular (the sensors form a ring, so the
    last channel neighbors the first), and a periodic cubic spline
    interpolates each row. The spline is linear in the data, so it is
    evaluated once on the N x N identity: `row @ basis` is the row's spline.
    The basis is built once per (channels, height), for the last 8 such
    pairs, and shared by every caller, so it is returned read-only.

    It does scipy's `CubicSpline(..., bc_type="periodic")` arithmetic step for
    step, so it equals that basis bit for bit, layout included. The knot slopes
    solve s[k-1] + 4 s[k] + s[k+1] = 3 (slope[k-1] + slope[k]) cyclically (de Boor
    1978): N - 1 rows for the data and for the last slope's coefficients, then
    the last row closes both. (scipy's 3-knot shortcut for 2 channels gives the
    same zero slopes.)
    """
    if height < channels:
        raise ConfigInvalid(f"image height {height} is below the channel count {channels}")
    n = channels
    values = np.eye(n)[np.arange(n + 1) % n]  # knot k (row) of each channel's spline (column)
    slope = np.diff(values, axis=0)
    rhs = 3 * (np.roll(slope, 1, axis=0) + slope)
    data = _tridiagonal_solve(rhs[:-1])
    corner = np.zeros(n - 1)
    corner[[0, -1]] = -1.0
    corner = _tridiagonal_solve(corner)
    last = (rhs[-1] - data[0] - data[-1]) / (4.0 + corner[0] + corner[-1])
    knot_slopes = np.vstack([data + last * corner[:, None], last])[np.arange(n + 1) % n]
    # the Hermite cubic on [k, k + 1], summed in the order of PPoly's
    # c3 + c2 z + c1 z^2 + c0 z^3
    positions = np.arange(height) * (n / height)
    k = positions.astype(np.intp)
    z = (positions - k)[:, None]
    left, right, step = knot_slopes[k], knot_slopes[k + 1], slope[k]
    cubic = left + right - 2 * step
    basis = values[k] + left * z + (step - left - cubic) * (z * z) + cubic * (z * z * z)
    basis = basis.T  # F-ordered like scipy's: `Segments` adds in an order that follows the layout
    basis.setflags(write=False)
    return basis


class Segments(Sequence):
    """The floor(M/P) images of a normalized M x N record, each built when accessed.

    Image i (segment_index i + 1) holds samples [i*P, (i+1)*P), resampled by
    the radial basis, in image orientation (H rows radial, P columns axial)
    and clamped to [-1, 1]. A trailing remainder shorter than P is dropped and
    never resampled. Only the record and the basis are held, so memory is
    the record's plus the images the caller keeps.
    """

    def __init__(self, normalized: np.ndarray, basis: np.ndarray, length: int):
        m_count = normalized.shape[0]
        if m_count < length:
            raise ConfigInvalid(
                f"record has {m_count} samples, segment_length = {length} needs at least {length}"
            )
        self._rows, self._basis, self._length = normalized, basis, length

    def __len__(self) -> int:
        return self._rows.shape[0] // self._length

    def __getitem__(self, i: int) -> MflImage:
        count = len(self)
        if not -count <= i < count:
            raise IndexError(f"segment {i} of {count}")
        i %= count
        start = i * self._length
        # einsum runs on this thread; `@` would hand this size to the threaded
        # BLAS, whose idle worker keeps spinning on a core after the call
        pixels = np.einsum("pn,nh->hp", self._rows[start : start + self._length], self._basis,
                           order="C")
        np.clip(pixels, -1.0, 1.0, out=pixels)
        return MflImage(pixels=pixels, segment_index=i + 1, origin_sample=start)


def preprocess(record: MflRecord, cfg: PreprocessConfig = PreprocessConfig()) -> Segments:
    """Full preprocessing chain: detrend -> normalize -> radial basis -> segments.

    `detrend` returns the one M x N array that preprocessing allocates, and
    `normalize`'s map to [-1, 1] is applied to it in place, so the images
    equal those of `Segments(normalize(detrend(record, cfg)), ...)` bit for
    bit. Each segment is resampled only when it is accessed.
    """
    rows = detrend(record, cfg)
    _to_unit_range(rows, out=rows)
    basis = interpolate_radial(record.channel_count, cfg.image_height)
    return Segments(rows, basis, cfg.segment_length)
