"""Golden digest of detections over fixed seeds, presets and methods.

A refactor that must keep behaviour keeps this digest. Box, segment and the
box edges in metres are hashed exactly; the score is rounded to 9 decimals so
that a reordered floating-point sum does not count as a change.
"""

import hashlib

from mflscan.evaluate import METHODS
from mflscan.pipeline import RunConfig, process_record
from mflscan.synth import make_eval_dataset, scenario_presets

BASE_SEED = 7
RECORDS_PER_PRESET = 3
GOLDEN_DIGEST = "eabe525ce7bff479383dec7ba19e6879bc15e438c6b7f9ef80aeb17ab6a0c9e9"
GOLDEN_COUNT = 115


def detections_digest():
    lines = []
    for preset in scenario_presets().values():
        for record, _ in make_eval_dataset(preset, RECORDS_PER_PRESET, BASE_SEED):
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
