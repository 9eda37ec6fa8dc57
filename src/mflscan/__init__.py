"""Local flaw detection in steel wire ropes from multi-channel MFL records.

The pipeline preprocesses raw records into detrended image segments, matches
a flaw-shaped template across a three-layer image pyramid with an SSR-adaptive
kernel, fuses the per-layer responses with SSR-driven weights, and localizes
flaws by stability-based thresholding and connected components.
"""

from .ingest import MflImage, MflRecord, PreprocessConfig, preprocess
from .pipeline import PipelineResult, RunConfig, process_record, process_segment
from .ssr import AdaptiveConfig, SsrContext, build_context
from .synth import GroundTruthFlaw, SynthSpec, generate, scenario_presets

__version__ = "0.1.0"

__all__ = [
    "AdaptiveConfig",
    "GroundTruthFlaw",
    "MflImage",
    "MflRecord",
    "PipelineResult",
    "PreprocessConfig",
    "RunConfig",
    "SsrContext",
    "SynthSpec",
    "build_context",
    "generate",
    "preprocess",
    "process_record",
    "process_segment",
    "scenario_presets",
    "__version__",
]
