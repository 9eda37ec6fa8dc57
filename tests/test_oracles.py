"""Bitwise oracles: each fast kernel against the formulation it replaced.

The kernels in `pyramid`, `enhance` and `localize`, and the radial spline
basis and the windowed detrend in `ingest`, are rewritten with the same order
of floating-point operations as the code they replaced, so their outputs must
be equal bit for bit, not merely close. The replaced formulations live on here
only, as oracles. Each detrend window sums from its own halo, so its oracle
does too; the whole record's one cumulative sum is held to a tolerance. The basis oracle is scipy's periodic `CubicSpline`, compared
byte for byte and stride for stride. Equality of the `correlate1d`, `mean` and
`CubicSpline` oracles holds for the pinned numpy 2.4.6 and scipy 1.17.1.
The threshold scan stops early instead, so its oracle pins the choice and
the part of the curve it labelled, and the pipeline's detections.

The one tolerance oracle is `gaussian_filter1d(..., mode="nearest")` for the
generator's drift smoothing: the FFT convolution that replaced it computes the
same sums in another order, so the two agree to within 1e-13 of the column
peak, not bit for bit, and records built with either give the same detections.
"""

import math
import os
from dataclasses import replace
from itertools import groupby

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.ndimage import correlate1d, find_objects, gaussian_filter1d, label

from mflscan import pipeline, synth
from mflscan.enhance import _maxima_mask, envelope, fuse, gamma_enhance, upsample_bilinear
from mflscan.ingest import (
    MflImage,
    MflRecord,
    PreprocessConfig,
    Segments,
    interpolate_radial,
    preprocess,
)
from mflscan.enhance import peak_normalize
from mflscan.localize import (
    EIGHT_CONNECTED,
    Detection,
    ThresholdScan,
    _hit_span,
    _wrap_merge,
    adaptive_threshold,
    extract_components,
)
from mflscan.pipeline import METHODS, RunConfig, process_record
from mflscan.pyramid import _pool2, build_pyramid, build_template, match
from mflscan.synth import (
    DRIFT_SMOOTH_SAMPLES,
    _smooth_drift,
    generate,
    make_eval_dataset,
    scenario_presets,
)

pytestmark = pytest.mark.pins_bytes


def cubic_spline_basis(channels, height):
    """The replaced `interpolate_radial`: scipy's periodic spline of the identity."""
    knots = np.arange(channels + 1, dtype=float)
    wrapped = np.eye(channels)[:, np.arange(channels + 1) % channels]  # periodic identity
    spline = CubicSpline(knots, wrapped, axis=1, bc_type="periodic")
    return spline(np.arange(height) * (channels / height))


def whole_record_detrend(record, cfg):
    """The record detrended from one cumulative sum over the whole record."""
    x = record.samples
    m_count = x.shape[0]
    la = cfg.half_span_la
    csum = np.vstack([np.zeros((1, x.shape[1])), np.cumsum(x, axis=0)])
    idx = np.arange(m_count)
    lo = np.maximum(idx - la, 0)
    hi = np.minimum(idx + la - 1, m_count - 1)
    window_sum = csum[hi + 1] - csum[lo]
    window_len = (hi - lo + 1).astype(float)[:, None]
    baseline = window_sum / window_len
    return x - baseline


def halo_detrend(x, la, start, stop):
    """Rows [start, stop) of `x` detrended from one cumulative sum over all of
    x[max(start - La, 0):], the window's halo start onward."""
    halo_start = max(start - la, 0)
    csum = np.vstack([np.zeros((1, x.shape[1])), np.cumsum(x[halo_start:], axis=0)])
    idx = np.arange(start, stop)
    lo = np.maximum(idx - la, 0)
    hi = np.minimum(idx + la - 1, len(x) - 1)
    window_sum = csum[hi + 1 - halo_start] - csum[lo - halo_start]
    window_len = (hi - lo + 1).astype(float)[:, None]
    baseline = window_sum / window_len
    return x[start:stop] - baseline


def halo_preprocess(record, cfg):
    """`preprocess` as each window's halo detrend, then its resample."""
    x, la, p = record.samples, cfg.half_span_la, cfg.segment_length
    basis = interpolate_radial(record.channel_count, cfg.image_height)
    return [MflImage(np.einsum("pn,nh->hp", halo_detrend(x, la, i * p, (i + 1) * p), basis,
                               order="C"),
                     segment_index=i + 1, origin_sample=i * p)
            for i in range(len(x) // p)]


def reshape_mean_pool2(img):
    """The replaced `_pool2`: 2x2 blocks by reshape, averaged with `mean`."""
    h, w = img.shape
    h2, w2 = h // 2, w // 2
    return img[: 2 * h2, : 2 * w2].reshape(h2, 2, w2, 2).mean(axis=(1, 3))


def correlate1d_match(layer, template):
    """The replaced `match`: two `correlate1d` passes, radial box then axial step."""
    k = template.size
    origin = -1 if k % 2 == 0 else 0
    radial = correlate1d(layer, np.ones(k), axis=0, mode="wrap", origin=origin)
    return np.abs(correlate1d(radial, template, axis=1, mode="nearest", origin=origin))


def gathered_envelope(enhanced):
    """The replaced `envelope`: the rows holding a maximum are gathered,
    interpolated and scattered back into a copy."""
    out = enhanced.copy()
    w = enhanced.shape[1]
    mask = _maxima_mask(enhanced)
    rows = np.flatnonzero(mask.any(axis=1))
    if rows.size == 0:
        return out
    knots = mask[rows]
    knots[:, 0] = knots[:, -1] = True
    xp = np.flatnonzero(knots)
    values = enhanced[rows]
    fp = values.ravel()[xp]
    first = np.searchsorted(xp, np.arange(rows.size) * w)
    last = np.append(first[1:], xp.size) - 1
    fp[first] = fp[first + 1]
    fp[last] = fp[last - 1]
    interp = np.interp(np.arange(rows.size * w, dtype=float), xp, fp).reshape(rows.size, w)
    out[rows] = np.maximum(interp, values, out=interp)
    return out


def broadcast_upsample_bilinear(src, shape):
    """The replaced `upsample_bilinear`: taps built on every call, each pass one
    broadcast expression over fresh arrays."""
    out = np.asarray(src, dtype=float)
    for axis, target in enumerate(shape):
        n = out.shape[axis]
        pos = np.clip((np.arange(target) + 0.5) * (n / target) - 0.5, 0, n - 1)
        lo = pos.astype(int)
        f = np.expand_dims(pos - lo, 1 - axis)
        out = (1.0 - f) * out.take(lo, axis) + f * out.take(np.minimum(lo + 1, n - 1), axis)
    return out


def broadcast_fuse(envelopes, weights):
    """The replaced `fuse` blend on the replaced upsampler: G = w_j * F_j + up(G)
    into a fresh array at each step."""
    layers = [np.asarray(f, dtype=float) for f in envelopes]
    n = len(layers)
    fused = weights[n - 1] * layers[n - 1]
    for j in range(n - 2, -1, -1):
        fused = weights[j] * layers[j] + broadcast_upsample_bilinear(fused, layers[j].shape)
    return fused


def loop_wrap_merge(labeled, n_regions):
    """The replaced `_wrap_merge`: a Python loop over the columns, uniting
    every touching (top, bottom) pair, dc innermost."""
    parent = list(range(n_regions + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    top, bottom = labeled[0], labeled[-1]
    width = labeled.shape[1]
    for c in range(width):
        if not top[c]:
            continue
        for dc in (-1, 0, 1):
            cc = c + dc
            if 0 <= cc < width and bottom[cc]:
                ra, rb = find(top[c]), find(bottom[cc])
                if ra != rb:
                    parent[rb] = ra
    lut = np.array([find(i) for i in range(n_regions + 1)])
    return lut[labeled]


def full_image_extract_components(binary, intensity, min_area_px, *, segment_index,
                                  origin_sample, f_spatial):
    """The replaced `extract_components`: the whole image is labeled and the
    seam merge runs whenever there are two labels or more."""
    labeled, n_regions = label(binary, structure=EIGHT_CONNECTED)
    if n_regions > 1:
        labeled = _wrap_merge(labeled, n_regions)
    areas = np.bincount(labeled.ravel(), minlength=n_regions + 1)
    sums = np.bincount(labeled.ravel(), weights=intensity.ravel(), minlength=n_regions + 1)
    detections = []
    for idx, box in enumerate(find_objects(labeled), start=1):
        if box is None or areas[idx] < min_area_px:
            continue
        r0, r1 = box[0].start, box[0].stop - 1
        a0, a1 = box[1].start, box[1].stop - 1
        start_m = (origin_sample + a0) / f_spatial
        end_m = (origin_sample + a1 + 1) / f_spatial
        detections.append(Detection(
            box=(a0, a1, r0, r1),
            axial_position_m=(start_m + end_m) / 2.0,
            score=float(sums[idx] / areas[idx]),
            segment_index=segment_index,
            axial_start_m=start_m,
            axial_end_m=end_m,
        ))
    detections.sort(key=lambda d: d.box[0])
    return detections


def full_sweep_adaptive_threshold(norm, step):
    """The replaced `adaptive_threshold`: every threshold of the grid is
    labelled, bottom up, and the longest plateau is found over the whole
    curve; `>=` lets a later (higher) plateau win a tie."""
    if not norm.any():
        return ThresholdScan(thresholds=(), region_counts=(), chosen_threshold=1.0)
    count = int(math.ceil(1.0 / step)) - 1
    thresholds = [t for i in range(count) if (t := round((i + 1) * step, 12)) < 1]
    levels = np.array(thresholds)[:, None]
    r0, r1 = _hit_span(norm.max(axis=1) >= levels)
    c0, c1 = _hit_span(norm.max(axis=0) >= levels)
    counts = []
    for t, top, bottom, left, right in zip(thresholds, r0, r1, c0, c1):
        _, n_regions = label(norm[top:bottom, left:right] >= t, structure=EIGHT_CONNECTED)
        counts.append(n_regions)
    best, start = (0, 0, 0), 0  # (length, first, last) of the longest plateau
    for _, run in groupby(counts):
        length = len(list(run))
        if length >= best[0]:
            best = (length, start, start + length - 1)
        start += length
    return ThresholdScan(
        thresholds=tuple(thresholds),
        region_counts=tuple(counts),
        chosen_threshold=(thresholds[best[1]] + thresholds[best[2]]) / 2.0,
    )


def direct_smooth_drift(walk, sigma):
    """The replaced `_smooth_drift`: scipy's direct Gaussian filter, clamped at both ends."""
    walk[:] = gaussian_filter1d(walk, sigma, axis=0, mode="nearest")


def mixed_magnitudes(rng, shape):
    """Values in [-1, 1] over several orders of magnitude, so that sums round."""
    return rng.uniform(-1, 1, size=shape) ** 3


@pytest.fixture(scope="module")
def segment():
    """The first 200 x 200 image of the optimal-SSR preset record."""
    record, _ = generate(scenario_presets()["optimal_ssr"])
    return preprocess(record)[0].pixels


class TestRadialBasis:
    # 2 channels take scipy's 3-knot branch; the heights are the channel count,
    # one more, an odd one, and three that are not multiples of it
    @pytest.mark.parametrize("channels", [2, 3, 4, 5, 8, 16, 32])
    def test_equals_periodic_cubic_spline(self, channels):
        for height in (channels, channels + 1, 2 * channels + 1, 200, 333, 4096):
            want = cubic_spline_basis(channels, height)
            got = interpolate_radial.__wrapped__(channels, height)
            assert got.tobytes(order="A") == want.tobytes(order="A"), height
            assert got.strides == want.strides, height


class TestPool2:
    @pytest.mark.parametrize("shape", [(200, 200), (100, 100), (50, 50), (201, 199),
                                       (11, 17), (7, 4), (1, 5), (1, 1)])
    def test_equals_reshape_mean(self, shape):
        rng = np.random.default_rng(sum(shape))
        for img in (mixed_magnitudes(rng, shape), rng.normal(size=shape) * 1e6):
            assert np.array_equal(_pool2(img), reshape_mean_pool2(img))

    def test_equals_reshape_mean_on_segment_pyramid(self, segment):
        layer1, layer2, layer3 = build_pyramid(segment)
        assert np.array_equal(layer2, reshape_mean_pool2(layer1))
        assert np.array_equal(layer3, reshape_mean_pool2(layer2))


class TestMatch:
    # the three pyramid layers of a 200 x 200 segment, an odd small layer,
    # and a layer shorter and narrower than most kernels
    @pytest.mark.parametrize("shape", [(200, 200), (100, 100), (50, 50), (11, 17), (4, 6)])
    def test_equals_two_correlate1d_passes(self, shape):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        layer = mixed_magnitudes(rng, shape)
        for k in range(2, 16):
            template = build_template(k)
            assert np.array_equal(match(layer, template), correlate1d_match(layer, template)), k

    def test_equals_two_correlate1d_passes_on_segment_pyramid(self, segment):
        for layer in build_pyramid(segment):
            for k in (6, 7, 9, 10):
                template = build_template(k)
                assert np.array_equal(match(layer, template), correlate1d_match(layer, template))


class TestEnvelope:
    def test_every_row_holding_a_maximum(self, segment):
        enhanced = gamma_enhance(match(segment, build_template(9)), 2.0)
        assert _maxima_mask(enhanced).any(axis=1).all()
        assert np.array_equal(envelope(enhanced), gathered_envelope(enhanced))

    def test_some_rows_holding_a_maximum(self):
        rng = np.random.default_rng(3)
        enhanced = rng.uniform(0, 1, size=(40, 30))
        enhanced[::3] = np.linspace(0, 1, 30)  # monotone rows: no maximum
        has_max = _maxima_mask(enhanced).any(axis=1)
        assert has_max.any() and not has_max.all()
        assert np.array_equal(envelope(enhanced), gathered_envelope(enhanced))

    def test_no_row_holding_a_maximum(self):
        enhanced = np.tile(np.linspace(1, 0, 30), (40, 1))
        assert not _maxima_mask(enhanced).any()
        out = envelope(enhanced)
        assert np.array_equal(out, gathered_envelope(enhanced))
        assert out is not enhanced


class TestUpsampleBilinear:
    # the pyramid's odd and even halvings undone, and one row or one pixel
    @pytest.mark.parametrize("src_shape, shape", [((11, 30), (23, 61)), ((99, 66), (199, 133)),
                                                  ((100, 100), (200, 200)), ((1, 1), (2, 2)),
                                                  ((1, 5), (3, 11))])
    def test_equals_broadcast_blend(self, src_shape, shape):
        rng = np.random.default_rng(src_shape[0] * 1000 + src_shape[1])
        for src in (mixed_magnitudes(rng, src_shape), rng.normal(size=src_shape) * 1e6):
            got = upsample_bilinear(src, shape)
            assert got.tobytes() == broadcast_upsample_bilinear(src, shape).tobytes()


@pytest.fixture(scope="module")
def fuse_calls():
    """The (envelopes, weights) of every `fuse` call the pipeline makes on the
    golden set under every method."""
    calls = []

    def spy(envelopes, weights):
        calls.append((envelopes, weights))
        return fuse(envelopes, weights)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "fuse", spy)
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})  # a helper's calls miss the spy
        for spec in scenario_presets().values():
            for record, _ in make_eval_dataset(spec, 3, 7):
                for method in METHODS:
                    process_record(record, run=RunConfig(method))
    return calls


class TestFuse:
    def test_equals_broadcast_blend_on_golden_set(self, fuse_calls):
        layer_counts = set()
        for envelopes, weights in fuse_calls:
            layer_counts.add(len(envelopes))
            got = fuse(envelopes, weights)
            assert got.tobytes() == broadcast_fuse(envelopes, weights).tobytes(), weights
        assert layer_counts == {1, 3}


class TestWrapMerge:
    def test_equals_loop_on_labelled_images(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            shape = (int(rng.integers(2, 30)), int(rng.integers(1, 220)))
            binary = rng.random(shape) < rng.uniform(0.2, 0.7)
            labeled, n_regions = label(binary, structure=EIGHT_CONNECTED)
            assert np.array_equal(_wrap_merge(labeled, n_regions),
                                  loop_wrap_merge(labeled, n_regions))

    def test_equals_loop_on_hundreds_of_labels_with_chained_merges(self):
        rng = np.random.default_rng(6)
        chained = 0
        for _ in range(200):
            width, n_regions = int(rng.integers(1, 300)), int(rng.integers(1, 600))
            labeled = rng.integers(0, n_regions + 1, size=(int(rng.integers(2, 5)), width))
            labeled *= rng.random(width) < 0.8  # background gaps in every row
            want = loop_wrap_merge(labeled, n_regions)
            assert np.array_equal(_wrap_merge(labeled, n_regions), want)
            # three or more labels in one set took a chain of unions
            merged = np.unique(np.stack([labeled.ravel(), want.ravel()], axis=1), axis=0)
            chained += np.bincount(merged[merged[:, 0] > 0, 1]).max(initial=0) >= 3
        assert chained > 100


def assert_components_equal(binary, intensity, min_area_px, **where):
    """Windowed and full-image extraction agree on boxes, metres, scores and
    order, and every box entry is a Python int and every metre a float."""
    where = {"segment_index": 2, "origin_sample": 200, "f_spatial": 250.0, **where}
    got = extract_components(binary, intensity, min_area_px, **where)
    assert got == full_image_extract_components(binary, intensity, min_area_px, **where)
    for det in got:
        assert all(type(v) is int for v in det.box), det.box
        metres = (det.axial_position_m, det.axial_start_m, det.axial_end_m, det.score)
        assert all(type(v) is float for v in metres), metres
    return got


def seam_merges(binary):
    """How many labels the seam merge of the whole image unites."""
    labeled, n_regions = label(binary, structure=EIGHT_CONNECTED)
    return n_regions + 1 - np.unique(_wrap_merge(labeled, n_regions)).size


@pytest.fixture(scope="module")
def fused_calls():
    """The (binary, intensity, min_area_px, where) of every `extract_components`
    call the pipeline makes on the three preset records under every method."""
    calls = []

    def spy(binary, intensity, min_area_px, **where):
        calls.append((binary, intensity, min_area_px, where))
        return extract_components(binary, intensity, min_area_px, **where)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "extract_components", spy)
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})  # a helper's calls miss the spy
        for spec in scenario_presets().values():
            record, _ = generate(spec)
            for method in METHODS:
                process_record(record, run=RunConfig(method))
    return calls


class TestExtractComponents:
    def test_equals_full_image_on_fused_segments(self, fused_calls):
        spans_all_rows = 0
        for binary, intensity, min_area_px, where in fused_calls:
            assert_components_equal(binary, intensity, min_area_px, **where)
            rows = np.flatnonzero(binary.any(axis=1))
            spans_all_rows += rows[0] == 0 and rows[-1] == binary.shape[0] - 1
        # the seam rows bound some windows, and others lie inside the image
        assert len(fused_calls) == 36 and 0 < spans_all_rows < 36

    def test_equals_full_image_on_blobs_spanning_every_row(self):
        rng = np.random.default_rng(7)
        merged = 0
        for _ in range(100):
            shape = (int(rng.integers(3, 60)), int(rng.integers(3, 80)))
            binary = (rng.random(shape) < rng.uniform(0.05, 0.4)).astype(np.uint8)
            column = int(rng.integers(shape[1]))
            binary[0, column] = binary[-1, column] = 1  # touch across the seam
            merged += seam_merges(binary) > 0
            for min_area_px in (1, 2, 4):
                assert_components_equal(binary, mixed_magnitudes(rng, shape), min_area_px)
        assert merged > 50

    @pytest.mark.parametrize("edge", [0, -1])
    def test_equals_full_image_on_window_touching_one_seam_row(self, edge):
        # two blobs, one on the seam row and one at the window's far end,
        # share columns; the window's first and last rows are not both seams
        rng = np.random.default_rng(8)
        binary = np.zeros((200, 200), dtype=np.uint8)
        near, far = (slice(0, 3), slice(6, 9)) if edge == 0 else (slice(197, 200), slice(191, 194))
        binary[near, 40:50] = 1
        binary[far, 44:47] = 1
        assert binary[edge].any() and not binary[-1 - edge].any()
        got = assert_components_equal(binary, mixed_magnitudes(rng, binary.shape), 4)
        assert len(got) == 2

    def test_equals_full_image_far_from_column_zero(self):
        rng = np.random.default_rng(9)
        binary = np.zeros((200, 200), dtype=np.uint8)
        binary[120:140, 150:181] = rng.random((20, 31)) < 0.5
        got = assert_components_equal(binary, mixed_magnitudes(rng, binary.shape), 1)
        assert min(det.box[0] for det in got) >= 150 and min(det.box[2] for det in got) >= 120

    def test_equals_full_image_on_one_pixel(self):
        binary = np.zeros((200, 200), dtype=np.uint8)
        binary[77, 131] = 1
        got = assert_components_equal(binary, np.full(binary.shape, 0.25), 1)
        assert [det.box for det in got] == [(131, 131, 77, 77)]

    def test_equals_full_image_on_empty_binary(self):
        binary = np.zeros((200, 200), dtype=np.uint8)
        assert assert_components_equal(binary, np.ones(binary.shape), 1) == []


def assert_scan_equals_full_sweep(norm, step):
    """The top-down scan chooses the full sweep's threshold, and its curve is
    the full curve's top slice; returns the number of passes it made."""
    scan, full = adaptive_threshold(norm, step), full_sweep_adaptive_threshold(norm, step)
    assert scan.chosen_threshold == full.chosen_threshold
    passes = len(scan.thresholds)
    assert len(scan.region_counts) == passes >= (1 if full.thresholds else 0)
    assert scan.thresholds == full.thresholds[len(full.thresholds) - passes:]
    assert scan.region_counts == full.region_counts[len(full.thresholds) - passes:]
    return passes, len(full.thresholds)


def plateau_blobs(rng, shape, levels):
    """Random rectangles on sparse faint noise, quantized to `levels` steps, so
    that many pixels sit exactly on a threshold and plateaus of equal length
    tie."""
    h, w = shape
    img = rng.uniform(0, 0.3, size=shape) * (rng.uniform(size=shape) < 0.3)
    for _ in range(rng.integers(1, 8)):
        r, c = rng.integers(0, h), rng.integers(0, w)
        img[r : r + rng.integers(1, 6), c : c + rng.integers(1, 6)] = rng.uniform(0.2, 1)
    return np.round(img * levels) / levels


@pytest.fixture(scope="module")
def threshold_calls():
    """The (norm, step) of every `adaptive_threshold` call the pipeline makes
    on the three preset records under every method."""
    calls = []

    def spy(norm, step):
        calls.append((norm, step))
        return adaptive_threshold(norm, step)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "adaptive_threshold", spy)
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})  # a helper's calls miss the spy
        for spec in scenario_presets().values():
            record, _ = generate(spec)
            for method in METHODS:
                process_record(record, run=RunConfig(method))
    return calls


class TestAdaptiveThreshold:
    def test_equals_full_sweep_on_fused_segments(self, threshold_calls):
        passes = [assert_scan_equals_full_sweep(norm, step) for norm, step in threshold_calls]
        assert len(threshold_calls) == 36
        # some scans stop early, so the stop rule is exercised on real images
        assert any(made < grid for made, grid in passes)

    @pytest.mark.parametrize("step", [0.05, 0.1, 1 / 3, 0.013, 0.001])
    def test_equals_full_sweep_on_plateaus(self, step):
        rng = np.random.default_rng(int(step * 1000))
        stopped = 0
        for _ in range(30 if step == 0.001 else 60):
            shape = tuple(rng.integers(1, 41, size=2))
            img = plateau_blobs(rng, shape, levels=int(rng.integers(2, 21)))
            made, grid = assert_scan_equals_full_sweep(peak_normalize(img), step)
            stopped += made < grid
        # a grid of two thresholds is done by its second pass either way
        assert stopped > 0 or grid == 2

    def test_process_record_equals_full_sweep_on_golden_set(self):
        # exact floats: the golden digest rounds scores to 9 decimals
        records = [record for spec in scenario_presets().values()
                   for record, _ in make_eval_dataset(spec, 3, 7)]
        runs = [RunConfig(method) for method in METHODS]
        got = [process_record(record, run=run) for record in records for run in runs]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline, "adaptive_threshold", full_sweep_adaptive_threshold)
            # one core: a helper would run the real scan
            patch.setattr(os, "sched_getaffinity", lambda pid: {0})
            want = [process_record(record, run=run) for record in records for run in runs]
        assert [r.detections for r in got] == [r.detections for r in want]
        assert [r.chosen_thresholds for r in got] == [r.chosen_thresholds for r in want]


class TestSmoothDrift:
    # the FFT holds all 2 * 2400 + 1 taps from 2401 samples on, and below 4801
    # every output sample is clamped at one end or both
    @pytest.mark.parametrize("m_count", [400, 801, 2401, 4799, 4800, 4801, 10150])
    @pytest.mark.parametrize("channels", [2, 16])
    def test_equals_direct_filter_within_rounding(self, m_count, channels):
        rng = np.random.default_rng(m_count * 100 + channels)
        walk = np.cumsum(rng.standard_normal((m_count, channels)), axis=0)
        want = walk.copy()
        direct_smooth_drift(want, DRIFT_SMOOTH_SAMPLES)
        _smooth_drift(walk, DRIFT_SMOOTH_SAMPLES)
        assert np.all(np.abs(walk - want) <= 1e-13 * np.abs(want).max(axis=0))

    @pytest.mark.parametrize("m_count", [400, 801, 4801])
    def test_constant_column_comes_back(self, m_count):
        values = np.array([-2.5, 0.0, 1e-3, 7.0, 123456.789])
        walk = np.tile(values, (m_count, 1))
        _smooth_drift(walk, DRIFT_SMOOTH_SAMPLES)
        assert np.all(np.abs(walk - values) <= 1e-13 * np.abs(values))

    def test_process_record_equals_direct_filter_records(self):
        def records():
            return [record for spec in scenario_presets().values()
                    for record, _ in make_eval_dataset(spec, 5, 100)]

        got = records()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(synth, "_smooth_drift", direct_smooth_drift)
            want = records()
        # the two smoothings round differently, so the records are not bit for bit equal
        assert any(not np.array_equal(a.samples, b.samples) for a, b in zip(got, want))
        for fast, direct in zip(got, want):
            for method in METHODS:
                a = process_record(fast, run=RunConfig(method))
                b = process_record(direct, run=RunConfig(method))
                assert [d.box for d in a.detections] == [d.box for d in b.detections]
                assert ([d.segment_index for d in a.detections]
                        == [d.segment_index for d in b.detections])
                assert a.chosen_thresholds == b.chosen_thresholds
                assert np.allclose([d.score for d in a.detections],
                                   [d.score for d in b.detections], rtol=0, atol=1e-12)


SMALL = PreprocessConfig(half_span_la=30, image_height=23, segment_length=61)
TALL = PreprocessConfig(image_height=199, segment_length=133)


def assert_near_whole_record_sum(record, cfg, rows):
    """`rows`, the record's first windows detrended, lie within M * eps * max|x| of
    the whole record's one cumulative sum, whose prefixes grow along the record."""
    want = whole_record_detrend(record, cfg)[: len(rows)]
    bound = record.sample_count * np.finfo(float).eps * np.abs(record.samples).max()
    np.testing.assert_allclose(rows, want, rtol=0, atol=bound)


class TestSegmentWindows:
    """Each `Segments` window, P rows detrended with their 2*La halo, must equal
    the halo oracle bit for bit on either side of every seam."""

    LONG_HALO = PreprocessConfig(half_span_la=50, image_height=16, segment_length=20)

    @staticmethod
    def assert_same_bits(samples, cfg):
        # over the identity basis each image is its window's detrended rows, transposed
        record = MflRecord(samples, 250.0, 0.5)
        images = Segments(samples, np.eye(samples.shape[1]), cfg)
        got = np.concatenate([image.pixels.T for image in images])
        p, la = cfg.segment_length, cfg.half_span_la
        want = np.concatenate([halo_detrend(samples, la, i * p, (i + 1) * p)
                               for i in range(len(images))])
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert_near_whole_record_sum(record, cfg, got)

    @staticmethod
    def walk(m_count, channels):
        return np.cumsum(np.random.default_rng(m_count * 31 + channels)
                         .normal(size=(m_count, channels)), axis=0)

    @pytest.mark.parametrize("channels, cfg", [(16, PreprocessConfig()), (7, SMALL), (2, SMALL)])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_record_one_row_either_side_of_a_seam(self, channels, cfg, offset):
        # a record one row short of, at and one row past its second seam
        self.assert_same_bits(self.walk(2 * cfg.segment_length + offset, channels), cfg)

    @pytest.mark.parametrize("channels, cfg", [
        (16, PreprocessConfig()), (7, SMALL), (2, SMALL), (16, LONG_HALO)])
    def test_record_of_two_half_spans(self, channels, cfg):
        # the shortest record `preprocess` accepts, as one window
        m_count = 2 * cfg.half_span_la
        self.assert_same_bits(self.walk(m_count, channels), replace(cfg, segment_length=m_count))

    @pytest.mark.parametrize("channels, cfg, m_count", [
        (16, PreprocessConfig(), 13 * 200 + 37),
        (7, SMALL, 11 * 61 + 5),
        (2, SMALL, 12 * 61 + 60),
        (16, TALL, 20 * 133 + 1),
    ])
    def test_segments_plus_a_tail(self, channels, cfg, m_count):
        # the last window's halo reaches into the dropped tail
        assert m_count % cfg.segment_length
        self.assert_same_bits(self.walk(m_count, channels), cfg)

    @pytest.mark.parametrize("m_count", [100, 257, 1000])
    def test_half_span_longer_than_a_window(self, m_count):
        cfg = self.LONG_HALO
        assert cfg.half_span_la > cfg.segment_length
        self.assert_same_bits(self.walk(m_count, 16), cfg)

    @pytest.mark.parametrize("channels", [2, 7, 16])
    def test_channel_counts_over_many_windows(self, channels):
        self.assert_same_bits(self.walk(50 * SMALL.segment_length + 3, channels), SMALL)

    @staticmethod
    def assert_same_images(record, cfg):
        got, want = preprocess(record, cfg), halo_preprocess(record, cfg)
        assert len(got) == len(want) > 0
        for image, reference in zip(got, want):
            assert image.pixels.tobytes() == reference.pixels.tobytes()
            assert (image.segment_index, image.origin_sample) == (
                reference.segment_index, reference.origin_sample)
        identity = Segments(record.samples, np.eye(record.channel_count), cfg)
        assert_near_whole_record_sum(record, cfg,
                                     np.concatenate([image.pixels.T for image in identity]))

    @pytest.mark.parametrize("cfg", [PreprocessConfig(), SMALL, TALL, LONG_HALO])
    def test_preprocess_equals_halo_oracle_on_golden_set(self, cfg):
        records = [record for spec in scenario_presets().values()
                   for record, _ in make_eval_dataset(spec, 3, 7)]
        for record in records:
            self.assert_same_images(record, cfg)

    @pytest.mark.parametrize("channels, cfg, m_count", [
        (16, PreprocessConfig(), 13 * 200 + 37),
        (7, SMALL, 11 * 61 + 5),
        (2, PreprocessConfig(half_span_la=1, image_height=23, segment_length=61), 3 * 61 + 1),
        (16, LONG_HALO, 257),  # each window's halo reaches past the window before
        (16, TALL, 20 * 133 + 1),
        (16, PreprocessConfig(half_span_la=50), 3 * 200),  # no tail: the last halo ends the record
        (16, PreprocessConfig(half_span_la=50), 3 * 200 + 50),  # a tail exactly La long
    ])
    def test_preprocess_equals_halo_oracle_on_walks(self, channels, cfg, m_count):
        self.assert_same_images(MflRecord(self.walk(m_count, channels), 250.0, 0.5), cfg)
