"""Response enhancement and weighted pyramid fusion.

Each layer response is contrast-stretched with a gamma power, bridged into
per-row upper envelopes (so a flaw's peak/valley response pair merges into one
blob), then the layers are blended into one full-resolution image with one
weight per layer.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def peak_normalize(image: np.ndarray) -> np.ndarray:
    """The image divided by its peak; all zeros when the peak is not positive."""
    peak = image.max()
    return image / peak if peak > 0 else np.zeros_like(image)


def gamma_enhance(response: np.ndarray, gamma: float) -> np.ndarray:
    """Rescale a response to [0, 1] by its own peak, then take its power gamma.

    An all-zero response passes through as zeros.
    """
    return peak_normalize(response) ** gamma


def _maxima_mask(enhanced: np.ndarray) -> np.ndarray:
    """Interior local maxima per row; a plateau counts once at its center.

    A maximal run of equal values [s, e] is a maximum when it touches neither
    end of its row and both neighbours are strictly lower; it is marked at
    (s + e) // 2. That is two terms: the strict maxima (runs of one pixel,
    one comparison per neighbour), and the centres of the plateaus (runs of
    two or more), found from the equal neighbour pairs alone, which are few.
    """
    h, w = enhanced.shape
    mask = np.zeros((h, w), dtype=bool)
    if w < 3:
        return mask
    mid = enhanced[:, 1:-1]
    np.greater(mid, enhanced[:, :-2], out=mask[:, 1:-1])
    mask[:, 1:-1] &= mid > enhanced[:, 2:]
    pairs = np.flatnonzero(enhanced[:, 1:] == enhanced[:, :-1])
    if pairs.size:
        # pair (r, c) says x[c] == x[c + 1]; at flat index r * w + c, pairs of
        # one run are consecutive and never join across a row (c <= w - 2)
        pairs += pairs // (w - 1)
        cut = np.flatnonzero(np.diff(pairs) != 1)
        starts = pairs[np.append(0, cut + 1)]
        ends = pairs[np.append(cut, pairs.size - 1)] + 1
        flat = enhanced.ravel()
        peak = (starts % w > 0) & (ends % w < w - 1)
        starts, ends = starts[peak], ends[peak]
        peak = (flat[starts - 1] < flat[starts]) & (flat[ends + 1] < flat[ends])
        mask.ravel()[(starts[peak] + ends[peak]) // 2] = True
    return mask


def envelope(enhanced: np.ndarray) -> np.ndarray:
    """Per-row upper envelope along the axial axis.

    Local maxima are linearly interpolated across the row, the first/last
    maximum is held outward, and the result never drops below the input.
    Rows without an interior maximum pass through unchanged.

    Not idempotent: a second pass bridges first-pass maxima that lie below
    both neighbouring maxima. Its fixed points are the rows with at most one
    interior maximum.

    All rows go through one np.interp over flat indices i * W + c. Each row's
    knots are its maxima plus columns 0 and W - 1, read off the mask in
    order, so no sort is needed; the column-0 knot takes the value of the
    row's first maximum, the column-(W - 1) knot that of its last. Every
    output column lies between two knots of its own row, and knot gaps are
    exact integers, so this equals a per-row np.interp bit for bit. The rows
    without a maximum are then copied back from the input.
    """
    h, w = enhanced.shape
    knots = _maxima_mask(enhanced)
    bare_rows = np.flatnonzero(~knots.any(axis=1))
    if bare_rows.size == h:
        return enhanced.copy()
    knots[:, 0] = knots[:, -1] = True
    xp = np.flatnonzero(knots)
    fp = enhanced.ravel()[xp]
    first = np.searchsorted(xp, np.arange(h) * w)
    last = np.append(first[1:], xp.size) - 1
    fp[first] = fp[first + 1]
    fp[last] = fp[last - 1]
    out = np.interp(np.arange(h * w, dtype=float), xp, fp).reshape(h, w)
    np.maximum(out, enhanced, out=out)
    out[bare_rows] = enhanced[bare_rows]
    return out


@lru_cache(maxsize=16)
def _bilinear_taps(n: int, target: int, axis: int) -> tuple[np.ndarray, ...]:
    """The taps (lo, hi, 1 - f, f) that resize `n` samples to `target` along `axis`.

    Built once per (n, target, axis), for the last 16 such keys, and shared
    by every caller, so they are returned read-only. The weights are shaped
    to broadcast along `axis` of a 2-D image.
    """
    pos = np.clip((np.arange(target) + 0.5) * (n / target) - 0.5, 0, n - 1)
    lo = pos.astype(int)
    f = np.expand_dims(pos - lo, 1 - axis)
    taps = (lo, np.minimum(lo + 1, n - 1), 1.0 - f, f)
    for tap in taps:
        tap.setflags(write=False)
    return taps


def upsample_bilinear(src: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Bilinear resize to an exact target shape (area-aligned sample centers).

    Separable: a two-tap pass along the rows, then one along the columns. Each
    pass clamps the sample positions to the source and blends the samples at
    floor(pos) and the next one (clamped) with weights (1 - f, f). The taps
    come from `_bilinear_taps`; the blend multiplies and adds into the two
    gathered copies, so `src` is never written to.
    """
    out = src
    for axis, target in enumerate(shape):
        lo, hi, w_lo, w_hi = _bilinear_taps(out.shape[axis], target, axis)
        upper = out.take(hi, axis)
        upper *= w_hi
        out = out.take(lo, axis)
        out *= w_lo
        out += upper
    return out


def fuse(envelopes: tuple[np.ndarray, ...], weights: tuple[float, float, float]) -> np.ndarray:
    """Blend 1 to 3 envelope layers, finest first, into one full-resolution image.

    The result is w1*F1 + w2*up(F2) + w3*up(up(F3)), where each layer halves
    the one before it. Bilinear upsampling is linear, so the sum is built
    coarse to fine with one upsample per step: G = w3*F3, then
    G = w2*F2 + up(G), then G = w1*F1 + up(G). Layers left out must have
    weight zero; `method_plan` and `build_pyramid` guarantee both.
    """
    n = len(envelopes)
    fused = weights[n - 1] * envelopes[n - 1]
    for j in range(n - 2, -1, -1):
        coarse = upsample_bilinear(fused, envelopes[j].shape)
        fused = weights[j] * envelopes[j]
        fused += coarse
    return fused


def enhance_layer(response: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """The gamma-enhanced response and its envelope."""
    gamma_image = gamma_enhance(response, gamma)
    return gamma_image, envelope(gamma_image)
