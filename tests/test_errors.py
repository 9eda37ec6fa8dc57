"""Every refused input raises the one exception class of its exit code and names its setting."""

import math

import numpy as np
import pytest

from mflscan.errors import ConfigInvalid, FormatError
from mflscan.ingest import MflRecord, PreprocessConfig, preprocess
from mflscan.pipeline import process_record
from mflscan.ssr import AdaptiveConfig
from mflscan.synth import SynthSpec


def flat_record(samples=800, speed=0.5):
    """A flat 4-channel record at 250 Hz: 200 x 200 segments, f_spatial 500 at 0.5 m/s."""
    return MflRecord(np.zeros((samples, 4)), sampling_rate_hz=250.0, inspection_speed_mps=speed)


@pytest.mark.parametrize("refused, exc_type, names", [
    (lambda: preprocess(flat_record(30), PreprocessConfig(half_span_la=20)),
     ConfigInvalid, "half_span_la"),
    (lambda: process_record(flat_record(), PreprocessConfig(segment_length=3)),
     ConfigInvalid, "segment_length"),
    # K_a = ceil(60 + 5 * 2/3) = 64 does not fit the 50 x 50 layer L3
    (lambda: process_record(flat_record(), adaptive_cfg=AdaptiveConfig(kernel_base=60)),
     ConfigInvalid, "kernel_base"),
    (lambda: flat_record(speed=0.0), ValueError, "speed"),
    (lambda: SynthSpec(rope_length_m=math.nan, inspection_speed_mps=0.5, sampling_rate_hz=250.0),
     FormatError, "rope_length_m"),
], ids=["record-shorter-than-window", "segment-under-4x4", "kernel-over-layer", "speed-zero",
        "spec-nan-length"])
def test_refusal_raises_the_class_of_its_exit_code(refused, exc_type, names):
    with pytest.raises(Exception) as info:
        refused()
    assert type(info.value) is exc_type
    assert names in str(info.value)
