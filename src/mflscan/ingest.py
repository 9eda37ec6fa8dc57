"""Raw record preprocessing: detrend, radial interpolation, segmentation.

Records arrive as M axial samples x N channels. Preprocessing turns one record
into a sequence of fixed-size H x P images (rows radial, columns axial) in the
record's detrended units. The sequence detrends and resamples each image's
window of samples when it is accessed, from the window and its halo alone, so
it holds no array of the record's size beside the record itself.
"""

from __future__ import annotations

import copy
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigInvalid
from .ssr import compute_ssr

FINITE_CHECK_SAMPLES = 2**16  # `MflRecord` checks finiteness this many samples at a time
MFL1_MAX_COUNT = 2**32 - 1  # the MFL1 header stores M and N as u32


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
    """One H x P image segment (rows radial, columns axial) in detrended units."""

    pixels: np.ndarray
    segment_index: int
    origin_sample: int

    @property
    def length(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True)
class PreprocessConfig:
    """Sizes in samples and pixels; each at most MFL1_MAX_COUNT, the bound on M and N."""

    half_span_la: int = 100
    image_height: int = 200
    segment_length: int = 200

    def __post_init__(self):
        for name in ("half_span_la", "image_height", "segment_length"):
            if not 1 <= getattr(self, name) <= MFL1_MAX_COUNT:
                raise ConfigInvalid(f"{name} must lie in [1, 2**32 - 1]")


def _require(m_count: int, name: str, value: int, needed: int):
    """A ConfigInvalid naming setting `name` unless the record's M reaches `needed`."""
    if m_count < needed:
        raise ConfigInvalid(
            f"record has {m_count} samples, {name} = {value} needs at least {needed}"
        )


def normalize(y: np.ndarray) -> np.ndarray:
    """Affine-map the global [min, max] of `y` to [-1, 1], in a new array.

    A flat input (max == min) maps to all zeros. `formats.write_pgm` maps
    every stage image through it.
    """
    y = np.asarray(y, dtype=float)
    lo, hi = y.min(), y.max()
    if hi == lo:
        return np.zeros_like(y)
    return 2.0 * (y - lo) / (hi - lo) - 1.0


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
        raise ConfigInvalid(f"image_height {height} is below the channel count {channels}")
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
    """The floor(M/P) images of a detrended M x N record, each built when accessed.

    Image i (segment_index i + 1) holds samples [i*P, (i+1)*P), detrended
    with their 2*La halo and resampled by the radial basis, in image
    orientation (H rows radial, P columns axial). A trailing remainder
    shorter than P is dropped and never resampled. Only the record, the basis
    and the sizes are held, so memory is the record's plus the images the
    caller keeps, and any read order gives the same bytes. `images[range(a, b)]`
    gives the same images a to b - 1 from only their rows and halo (what a
    helper is sent): `_rows` is the one rule for the rows an image or a range reads.
    """

    def __init__(self, samples: np.ndarray, basis: np.ndarray, cfg: PreprocessConfig):
        length = cfg.segment_length
        _require(samples.shape[0], "segment_length", length, length)
        self._samples, self._basis, self._length = samples, basis, length
        self._la = cfg.half_span_la
        self._segments = range(samples.shape[0] // length)  # record-level indices
        self._first_row = 0  # the record row that `_samples[0]` holds

    def __len__(self) -> int:
        return len(self._segments)

    def _rows(self, segments: range) -> slice:
        """The rows of `_samples` that segments a..b-1 and their 2*La halo read:
        [max(aP - La, first row), bP + La - 1), cut at the rows held."""
        first = max(segments.start * self._length - self._la, self._first_row)
        stop = segments.stop * self._length + self._la - 1
        return slice(first - self._first_row, stop - self._first_row)

    def __getitem__(self, i: int | range) -> MflImage | Segments:
        if isinstance(i, range):
            view = copy.copy(self)
            view._segments = self._segments[i.start : i.stop]
            span = self._rows(view._segments)
            view._samples, view._first_row = self._samples[span], self._first_row + span.start
            return view
        i = self._segments[i]
        span, la = self._rows(range(i, i + 1)), self._la
        x = self._samples[span]  # a view holds each halo, so its edges clamp as the record's
        start = i * self._length - self._first_row - span.start  # the window's row in `x`
        stop = start + self._length
        # The baseline at sample m is the mean over [m - La, m + La - 1],
        # truncated at the record's edges: a difference of one cumulative sum
        # over the window and its halo, which starts at the halo, so no
        # earlier sample enters it and its error does not grow along the rope.
        csum = np.zeros((x.shape[0] + 1, x.shape[1]))  # csum[k] = sum of x[:k]
        np.cumsum(x, axis=0, out=csum[1:])
        idx = np.arange(start, stop)
        lo = np.maximum(idx - la, 0)
        hi = np.minimum(idx + la - 1, x.shape[0] - 1)
        rows = csum[hi + 1] - csum[lo]
        rows /= (hi - lo + 1).astype(float)[:, None]
        np.subtract(x[start:stop], rows, out=rows)
        # einsum runs on this thread; `@` would hand this size to the threaded
        # BLAS, whose idle worker keeps spinning on a core after the call
        pixels = np.einsum("pn,nh->hp", rows, self._basis, order="C")
        return MflImage(pixels=pixels, segment_index=i + 1, origin_sample=i * self._length)


def preprocess(record: MflRecord, cfg: PreprocessConfig = PreprocessConfig()) -> Segments:
    """Full preprocessing chain: detrend -> radial basis -> segments, in detrended units.

    Nothing is mapped to a fixed range or clipped: every later stage ignores a
    record-wide gain and offset. Each segment is detrended from its own window
    and halo and resampled only when it is accessed, so no array of the
    record's size is allocated. With P = M and H = N the basis is the
    identity, and the one image is the whole record's detrend, transposed.
    """
    _require(record.sample_count, "half_span_la", cfg.half_span_la, 2 * cfg.half_span_la)
    basis = interpolate_radial(record.channel_count, cfg.image_height)
    return Segments(record.samples, basis, cfg)
