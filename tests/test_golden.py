"""Golden digest of detections over fixed seeds, presets and methods.

A refactor that must keep behaviour keeps this digest. Box, segment and the
box edges in metres are hashed exactly; the score is rounded to 9 decimals so
that a reordered floating-point sum does not count as a change. On the same
records, a record-wide gain and offset change no detection.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from mflscan.evaluate import METHODS
from mflscan.pipeline import RunConfig, process_record
from mflscan.synth import make_eval_dataset, scenario_presets

pytestmark = pytest.mark.pins_bytes

BASE_SEED = 7
RECORDS_PER_PRESET = 3
GOLDEN_DIGEST = "32bac1d9e13a33b839d9dfa3a6c2c37a7c97974e323a8329099558763aa1643b"
GOLDEN_COUNT = 115


def golden_records():
    return [record for preset in scenario_presets().values()
            for record, _ in make_eval_dataset(preset, RECORDS_PER_PRESET, BASE_SEED)]


def detections_digest():
    lines = []
    for record in golden_records():
        for method in METHODS:
            for d in process_record(record, run=RunConfig(method=method)).detections:
                lines.append(
                    f"{record.label} {method} {d.segment_index} {d.box} "
                    f"{d.axial_start_m!r} {d.axial_end_m!r} {round(d.score, 9)!r}"
                )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest(), len(lines)


def test_detections_match_golden_digest():
    digest, count = detections_digest()
    assert (digest, count) == (GOLDEN_DIGEST, GOLDEN_COUNT)


@pytest.mark.parametrize("method", METHODS)
def test_detections_ignore_record_gain_and_offset(method):
    # each row of the flaw template sums to zero, and each layer is divided by
    # its own peak, so no stage after the radial resample sees a gain or offset
    run = RunConfig(method=method)
    for record in golden_records():
        want = process_record(record, run=run)
        for gain, offset in ((3.0, 5.0), (0.5, -2.0)):
            got = process_record(replace(record, samples=gain * record.samples + offset),
                                 run=run)
            assert ([(d.segment_index, d.box) for d in got.detections]
                    == [(d.segment_index, d.box) for d in want.detections])
            assert got.chosen_thresholds == want.chosen_thresholds
            np.testing.assert_allclose([d.score for d in got.detections],
                                       [d.score for d in want.detections], rtol=0, atol=1e-12)
