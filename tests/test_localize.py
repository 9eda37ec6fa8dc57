"""Adaptive thresholding, binarization, and connected-component extraction."""

import numpy as np
import pytest
from scipy.ndimage import label

from mflscan.enhance import peak_normalize
from mflscan.errors import ConfigInvalid
from mflscan.localize import (
    EIGHT_CONNECTED,
    adaptive_threshold,
    binarize,
    extract_components,
)
from mflscan.pipeline import RunConfig

STEP = RunConfig().threshold_step


def normalized(pixels):
    """The peak-normalized image that the threshold scan and binarize take."""
    return peak_normalize(np.asarray(pixels, dtype=float))


def naive_region_counts(norm, thresholds):
    """Reference for the threshold scan: one full-image label pass per threshold."""
    return tuple(label(norm >= t, structure=EIGHT_CONNECTED)[1] for t in thresholds)


def naive_extract_components(binary, intensity, min_area_px):
    """Reference for `extract_components`: a pure-Python flood fill.

    Pixels are 8-connected; rows wrap around (the radial axis is a ring),
    columns do not. Returns the (box, score) pairs in sorted order.
    """
    h, w = binary.shape
    seen = np.zeros((h, w), dtype=bool)
    found = []
    for r0 in range(h):
        for c0 in range(w):
            if not binary[r0, c0] or seen[r0, c0]:
                continue
            seen[r0, c0] = True
            stack, pixels = [(r0, c0)], []
            while stack:
                r, c = stack.pop()
                pixels.append((r, c))
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        rr, cc = (r + dr) % h, c + dc
                        if 0 <= cc < w and binary[rr, cc] and not seen[rr, cc]:
                            seen[rr, cc] = True
                            stack.append((rr, cc))
            if len(pixels) < min_area_px:
                continue
            rows, cols = zip(*pixels)
            box = (min(cols), max(cols), min(rows), max(rows))
            found.append((box, sum(intensity[p] for p in pixels) / len(pixels)))
    return sorted(found)


def components(binary, min_area_px=4, intensity=None, origin_sample=0, f_spatial=100.0):
    """`extract_components` of segment 1; `binary` is its own intensity unless one is given."""
    intensity = binary.astype(float) if intensity is None else intensity
    return extract_components(binary, intensity, min_area_px, segment_index=1,
                              origin_sample=origin_sample, f_spatial=f_spatial)


def grid_top(step, passes):
    """The top `passes` thresholds of the scan's grid {step, 2*step, ...} < 1, ascending."""
    grid = [t for i in range(int(np.ceil(1 / step)) - 1) if (t := round((i + 1) * step, 12)) < 1]
    return tuple(grid[len(grid) - passes:])


def planted_blobs(*values):
    """A 20 x 20 image of separate 3 x 3 blobs at the given values, down a diagonal."""
    img = np.zeros((20, 20))
    for k, value in enumerate(values):
        img[2 + 6 * k : 5 + 6 * k, 2 + 6 * k : 5 + 6 * k] = value
    return img


def random_blobs(rng, shape, levels):
    """A sparse image of random rectangles on faint noise, quantized to
    `levels` steps so that many pixels sit exactly on a threshold (plateaus)."""
    h, w = shape
    img = rng.uniform(0, 0.3, size=shape) * (rng.uniform(size=shape) < 0.3)
    for _ in range(rng.integers(1, 8)):
        r, c = rng.integers(0, h), rng.integers(0, w)
        img[r : r + rng.integers(1, 6), c : c + rng.integers(1, 6)] = rng.uniform(0.2, 1)
    return np.round(img * levels) / levels


class TestAdaptiveThreshold:
    def test_two_clean_blobs_whole_sweep_plateau(self):
        img = np.zeros((20, 20))
        img[2:5, 2:5] = 1.0
        img[12:15, 12:15] = 1.0
        scan = adaptive_threshold(normalized(img), STEP)
        assert set(scan.region_counts) == {2}
        assert scan.chosen_threshold == pytest.approx(0.5)
        # the counts never change, so no plateau closes and every pass runs
        assert scan.thresholds == grid_top(STEP, 19)

    def test_all_zero_image_sentinel(self):
        scan = adaptive_threshold(normalized(np.zeros((10, 10))), STEP)
        assert scan.thresholds == ()
        assert scan.chosen_threshold == 1.0

    def test_blob_over_speckle(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 0.22, size=(30, 30))
        img[24, 7] = 0.22  # pin speckle peak so the clean plateau starts at 0.25
        img[10:14, 10:14] = 1.0
        scan = adaptive_threshold(normalized(img), STEP)
        assert scan.chosen_threshold == pytest.approx(0.6)
        idx = scan.thresholds.index(0.6)
        assert scan.region_counts[idx] == 1

    def test_ties_break_toward_higher_plateau(self):
        # counts run 3 (t=0.05), 2 (0.10-0.50), 1 (0.55-0.95): the two
        # nine-step plateaus tie and the higher one wins
        img = np.zeros((20, 20))
        img[2:5, 2:5] = 1.0
        img[12:15, 12:15] = 0.5
        img[17, 2] = 0.05
        scan = adaptive_threshold(normalized(img), STEP)
        counts = np.array(scan.region_counts)
        assert counts[scan.thresholds.index(0.05)] == 3
        assert counts[scan.thresholds.index(0.3)] == 2
        assert counts[scan.thresholds.index(0.7)] == 1
        assert scan.chosen_threshold == pytest.approx(0.75)
        # the 2-run could tie only until its last pass, so the scan reaches the bottom
        assert scan.thresholds == grid_top(STEP, 19)

    @pytest.mark.parametrize("values, curve, passes, chosen", [
        # 2 x 5 then 1 x 14: once the 14-plateau closes, no lower run can match it
        ((1.0, 0.27), (2,) * 5 + (1,) * 14, 15, 0.625),
        # 3 x 9, 2, 1 x 9: the open 3-run could at best tie the 9-plateau, and
        # a tie goes to the higher plateau, so the scan stops on its first pass
        ((1.0, 0.52, 0.47), (3,) * 9 + (2,) + (1,) * 9, 11, 0.75),
    ])
    def test_stops_once_no_lower_threshold_can_change_the_choice(self, values, curve,
                                                                   passes, chosen):
        scan = adaptive_threshold(normalized(planted_blobs(*values)), STEP)
        assert len(scan.thresholds) == passes
        assert scan.thresholds == grid_top(STEP, passes)
        assert scan.region_counts == curve[len(curve) - passes:]
        assert scan.chosen_threshold == pytest.approx(chosen)

    def test_rejects_step_outside_unit_interval(self):
        # the step is checked once, by RunConfig
        for step in (0.0, -0.1, 1.0, 2.0, float("nan"), 1e-300):
            with pytest.raises(ConfigInvalid, match="threshold_step"):
                RunConfig(threshold_step=step)

    def test_every_count_at_least_one(self):
        rng = np.random.default_rng(12)
        for step in (0.001, 0.05, 0.1, 1 / 3, 0.3, 0.9, 0.999):
            for _ in range(20):
                img = rng.uniform(0, 1, size=(12, 12)) ** 4
                scan = adaptive_threshold(normalized(img), step)
                assert scan.thresholds and min(scan.region_counts) >= 1
                assert 0 < scan.chosen_threshold <= 1

    def test_region_counts_match_full_image_oracle(self):
        rng = np.random.default_rng(21)
        for step in (0.05, 0.1, 1 / 3):
            for _ in range(60):
                shape = tuple(rng.integers(1, 41, size=2))
                img = random_blobs(rng, shape, levels=int(rng.integers(2, 21)))
                if not img.any():
                    continue
                scan = adaptive_threshold(normalized(img), step)
                norm = img / img.max()
                assert scan.region_counts == naive_region_counts(norm, scan.thresholds)

    # for these steps the last multiple below 1 rounds to 1.0 at 12 places
    @pytest.mark.parametrize("step", [1 / 49, 1 / 98])
    def test_grid_stays_below_one(self, step):
        img = np.zeros((10, 10))
        img[2:4, 2:4] = 1.0
        img[6:8, 6:8] = 0.5
        scan = adaptive_threshold(normalized(img), step)
        assert scan.thresholds[-1] < 1

    def test_step_with_no_threshold_below_one_gives_empty_scan(self):
        # RunConfig admits 1 - 1e-13, whose only multiple rounds to 1.0 at 12 places
        scan = adaptive_threshold(normalized(planted_blobs(1.0)), 1 - 1e-13)
        assert (scan.thresholds, scan.chosen_threshold) == ((), 1.0)

    def test_thresholds_strictly_increasing(self):
        img = np.zeros((10, 10))
        img[4, 4] = 1.0
        scan = adaptive_threshold(normalized(img), STEP)
        assert np.all(np.diff(scan.thresholds) > 0)
        assert len(scan.thresholds) == len(scan.region_counts)


class TestBinarize:
    def test_boundary_one_keeps_only_max(self):
        img = np.array([[0.2, 1.0], [0.5, 0.3]])
        out = binarize(normalized(img), 1.0)
        assert out.sum() == 1
        assert out[0, 1] == 1

    def test_near_zero_keeps_every_nonzero(self):
        img = np.array([[0.0, 0.1], [0.5, 0.0]])
        out = binarize(normalized(img), 1e-9)
        assert out.sum() == 2

    def test_center_pixel_fixture(self):
        img = np.full((3, 3), 0.1)
        img[1, 1] = 0.8
        out = binarize(normalized(img), 0.5)
        assert out.sum() == 1
        assert out[1, 1] == 1


class TestExtractComponents:
    def test_diagonal_pixels_are_one_component(self):
        binary = np.zeros((6, 6), dtype=np.uint8)
        binary[2, 2] = binary[3, 3] = binary[2, 3] = binary[3, 2] = 1
        dets = components(binary)
        assert len(dets) == 1

    def test_empty_binary_gives_no_detections(self):
        assert components(np.zeros((10, 10), dtype=np.uint8)) == []

    def test_two_blocks_boxes(self):
        binary = np.zeros((50, 50), dtype=np.uint8)
        binary[10:13, 10:13] = 1
        binary[40:43, 40:43] = 1
        dets = components(binary)
        assert len(dets) == 2
        assert dets[0].box == (10, 12, 10, 12)
        assert dets[1].box == (40, 42, 40, 42)

    def test_min_area_filter(self):
        binary = np.zeros((10, 10), dtype=np.uint8)
        binary[1, 1] = 1  # single pixel, below min area
        binary[5:8, 5:8] = 1
        dets = components(binary)
        assert len(dets) == 1
        assert dets[0].box == (5, 7, 5, 7)

    def test_rejects_min_area_below_one(self):
        binary = np.ones((4, 4), dtype=np.uint8)
        assert len(components(binary, min_area_px=1)) == 1
        # the minimum area is checked once, by RunConfig
        for min_area in (0, -3):
            with pytest.raises(ConfigInvalid, match="min_area_px"):
                RunConfig(min_area_px=min_area)

    def test_score_is_component_mean_intensity(self):
        binary = np.zeros((10, 10), dtype=np.uint8)
        binary[2:4, 2:4] = 1
        intensity = np.zeros((10, 10))
        intensity[2:4, 2:4] = [[0.4, 0.6], [0.8, 1.0]]
        dets = components(binary, intensity=intensity)
        assert dets[0].score == pytest.approx(0.7)

    def test_radial_wrap_merges_seam_component(self):
        # one blob straddling the top/bottom seam of the circular radial axis
        binary = np.zeros((20, 20), dtype=np.uint8)
        binary[0:2, 8:12] = 1
        binary[18:20, 8:12] = 1
        merged = components(binary)
        assert len(merged) == 1
        assert merged[0].box == (8, 11, 0, 19)

    def test_physical_coordinates(self):
        binary = np.zeros((10, 30), dtype=np.uint8)
        binary[4:6, 10:14] = 1
        dets = components(binary, origin_sample=200, f_spatial=100.0)
        det = dets[0]
        assert det.axial_start_m == pytest.approx((200 + 10) / 100.0)
        assert det.axial_end_m == pytest.approx((200 + 14) / 100.0)
        assert det.axial_position_m == pytest.approx((det.axial_start_m + det.axial_end_m) / 2)

    def test_sorted_by_axial_start(self):
        binary = np.zeros((10, 40), dtype=np.uint8)
        binary[2:5, 30:33] = 1
        binary[2:5, 5:8] = 1
        dets = components(binary)
        assert [d.box[0] for d in dets] == [5, 30]

    def test_matches_flood_fill_oracle(self):
        rng = np.random.default_rng(22)
        seam_merges = 0
        for _ in range(200):
            shape = tuple(rng.integers(1, 41, size=2))
            img = random_blobs(rng, shape, levels=int(rng.integers(2, 21)))
            if rng.uniform() < 0.5:  # blobs across the top/bottom seam
                img[0, rng.integers(0, shape[1])] = img[-1, rng.integers(0, shape[1])] = 1.0
            binary = (img >= rng.uniform(0.05, 0.9)).astype(np.uint8)
            min_area = int(rng.integers(1, 6))
            dets = components(binary, min_area, intensity=img)
            expected = naive_extract_components(binary, img, min_area)
            got = sorted((d.box, d.score) for d in dets)
            assert [box for box, _ in got] == [box for box, _ in expected]
            np.testing.assert_allclose(
                [score for _, score in got], [score for _, score in expected], rtol=0, atol=1e-12
            )
            assert [d.box[0] for d in dets] == sorted(d.box[0] for d in dets)
            unwrapped = label(binary, structure=EIGHT_CONNECTED)[1]
            seam_merges += len(naive_extract_components(binary, img, 1)) < unwrapped
        assert seam_merges >= 10  # the data exercises the radial seam

    def test_seam_merge_leaves_label_gaps(self):
        # three blobs; the top and bottom ones merge, so one label has no box
        binary = np.zeros((12, 12), dtype=np.uint8)
        binary[0:2, 3:6] = 1
        binary[5:7, 8:11] = 1
        binary[10:12, 5:8] = 1
        dets = components(binary)
        assert [d.box for d in dets] == [(3, 7, 0, 11), (8, 10, 5, 6)]
