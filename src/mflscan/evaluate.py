"""Detection scoring: greedy matching against ground truth, P/R/F1, ablations."""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import pipeline
from .ingest import PreprocessConfig
from .localize import Detection
from .pipeline import METHODS, RunConfig  # noqa: F401 (callers import METHODS from here)
from .ssr import AdaptiveConfig
from .synth import GroundTruthFlaw


@dataclass
class EvalReport:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    method_tag: str | None = None  # None: the method is not known, as for a detections file

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 1.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 1.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if p + r else 0.0

    def add(self, tp: int, fp: int, fn: int):
        self.tp += tp
        self.fp += fp
        self.fn += fn


def score(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """(precision, recall, f1); empty denominators follow the 1.0 convention."""
    report = EvalReport(tp=tp, fp=fp, fn=fn)
    return report.precision, report.recall, report.f1


def match_detections(
    detections: list[Detection],
    truths: list[GroundTruthFlaw],
    f_spatial: float,
    kernel_size: int = AdaptiveConfig().kernel_base,
) -> tuple[int, int, int]:
    """Greedy one-to-one matching by axial interval overlap.

    A detection may match a truth when its axial interval in meters overlaps
    the truth interval [center +/- extent/2] expanded by one kernel width
    (kernel_size / f_spatial). Each truth takes the closest-center overlapping
    detection; leftovers are FP, unmatched truths FN.
    """
    tolerance = kernel_size / f_spatial
    unmatched = set(range(len(detections)))
    tp = 0
    for truth in truths:
        lo = truth.axial_position_m - truth.axial_extent_m / 2.0 - tolerance
        hi = truth.axial_position_m + truth.axial_extent_m / 2.0 + tolerance
        best = None
        for i in unmatched:
            det = detections[i]
            if det.axial_end_m < lo or det.axial_start_m > hi:
                continue
            dist = abs(det.axial_position_m - truth.axial_position_m)
            if best is None or dist < best[0]:
                best = (dist, i)
        if best is not None:
            unmatched.discard(best[1])
            tp += 1
    fp = len(unmatched)
    fn = len(truths) - tp
    return tp, fp, fn


def run_ablation(
    dataset,
    method_tag: str,
    preprocess_cfg: PreprocessConfig = PreprocessConfig(),
    adaptive_cfg: AdaptiveConfig = AdaptiveConfig(),
    run: RunConfig = RunConfig(),
) -> EvalReport:
    """Run the full pipeline on (record, truths) pairs and aggregate counts.

    single_scale uses layer 1 with the base kernel and no fusion;
    unweighted_multiscale fuses with flat (1/3, 1/3, 1/3) weights; adaptive is
    the complete SSR-adaptive pipeline (see `pipeline.METHOD_PLANS`). The
    method replaces the run's; `RunConfig` refuses an unknown one.
    """
    if not dataset:
        raise ValueError("dataset must be nonempty")
    run = replace(run, method=method_tag)
    report = EvalReport(method_tag=method_tag)
    for record, truths in dataset:
        result = pipeline.process_record(record, preprocess_cfg, adaptive_cfg, run)
        counts = match_detections(
            result.detections,
            truths,
            result.context.f_spatial,
            result.kernel_size,
        )
        report.add(*counts)
    return report


# (row label, cell text of a report) of the report table, in row order
REPORT_ROWS = (
    ("TP", lambda rep: str(rep.tp)),
    ("FP", lambda rep: str(rep.fp)),
    ("FN", lambda rep: str(rep.fn)),
    ("Precision", lambda rep: f"{100 * rep.precision:.2f}%"),
    ("Recall", lambda rep: f"{100 * rep.recall:.2f}%"),
    ("F1 score", lambda rep: f"{100 * rep.f1:.2f}%"),
)


def format_report_table(reports: dict[str, EvalReport]) -> str:
    """Aligned plain-text table, one column per method or scenario."""
    rows = [("Metric", *reports)]
    rows += [(label, *map(cell, reports.values())) for label, cell in REPORT_ROWS]
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    ]
    return "\n".join(lines)
