"""Command-line entry point: generate, detect, evaluate, inspect.

Exit codes: 0 success, 2 usage error (`errors.ConfigInvalid`, an output
that cannot be written, or a run that runs out of memory), 3 input parse
error (`errors.FormatError`).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from functools import cache
from pathlib import Path

from . import formats
from .errors import ConfigInvalid, FormatError
from .evaluate import EvalReport, METHODS, format_report_table, match_detections, run_ablation
from .ingest import PreprocessConfig, preprocess
from .pipeline import RunConfig, process_record, segment_stages
from .ssr import AdaptiveConfig
from .synth import GroundTruthFlaw, SynthSpec, generate, scenario_presets

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3

CONFIG_SECTIONS = (PreprocessConfig, AdaptiveConfig, RunConfig)
# every flat `key = value` config key and the section whose field it is
CONFIG_KEYS = {f.name: cls for cls in CONFIG_SECTIONS for f in dataclasses.fields(cls)}


def load_config(path: Path | str) -> dict:
    """The typed values a flat `key = value` config file sets; keys unknown or set twice fail."""
    values = {}
    set_on = {}  # key -> the line that set it
    path = Path(path)
    for lineno, line in enumerate(formats.read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected `key = value`")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise FormatError(f"{path}:{lineno}: unknown key {key!r}")
        if key in set_on:
            raise FormatError(f"{path}:{lineno}: key {key!r} is already set on line {set_on[key]}")
        set_on[key] = lineno
        try:
            values.update(formats.typed(CONFIG_KEYS[key], {key: raw.strip()}))
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
    return values


def _sections(values: dict) -> list:
    """PreprocessConfig, AdaptiveConfig and RunConfig of the config values; each checks its own."""
    return [cls(**{key: value for key, value in values.items() if CONFIG_KEYS[key] is cls})
            for cls in CONFIG_SECTIONS]


def _out_file(out: str) -> Path:
    """`--out` as a path; refused when it names no file ("", "." or "/" name a directory)."""
    path = Path(out)
    if not path.name:
        raise ConfigInvalid(f"--out {out!r} names no file")
    return path


def _refuse_overwrite(outputs, inputs) -> None:
    """Refuse, before any work, an `--out` path that is one of the input files."""
    for out in map(Path, filter(None, outputs)):
        for source in map(Path, filter(None, inputs)):
            if out.exists() and source.exists() and out.samefile(source):
                raise ConfigInvalid(f"--out {out} would overwrite the input {source}")


def _load_spec(spec_arg: str, seed: int | None) -> SynthSpec:
    # the seed goes in before the spec checks itself, so --seed can mend a bad rng_seed
    overrides = {} if seed is None else {"rng_seed": seed}
    presets = scenario_presets()
    if spec_arg in presets:
        return dataclasses.replace(presets[spec_arg], **overrides)
    path = Path(spec_arg)
    if not path.exists():
        raise FormatError(f"{spec_arg!r} is neither a preset ({', '.join(presets)}) nor a file")
    try:
        payload = json.loads(formats.read_text(path))
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: a spec is a JSON object, not {type(payload).__name__}")
    flaws = payload.pop("flaws", [])
    if not isinstance(flaws, list) or not all(isinstance(flaw, dict) for flaw in flaws):
        raise FormatError(f"{path}: flaws must be a list of JSON objects")
    try:
        flaws = tuple(GroundTruthFlaw(**formats.typed(GroundTruthFlaw, flaw)) for flaw in flaws)
        return SynthSpec(**formats.typed(SynthSpec, dict(payload, flaws=flaws)) | overrides)
    except (TypeError, ValueError, FormatError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def cmd_generate(args) -> int:
    if args.seed is not None and args.seed < 0:
        raise ConfigInvalid(f"--seed {args.seed} must be >= 0")
    out = _out_file(args.out)
    record_path = out.with_suffix(".mfl")
    truth_path = out.parent / (out.stem + "_truth.json")
    _refuse_overwrite([record_path, truth_path], [args.spec])
    record, flaws = generate(_load_spec(args.spec, args.seed))
    out.parent.mkdir(parents=True, exist_ok=True)
    formats.write_record_binary(record_path, record)
    formats.write_ground_truth(truth_path, flaws)
    print(f"wrote {record_path} ({record.sample_count} samples) and {truth_path}")
    return EXIT_OK


def _run_record(args):
    """The record, the config sections and the pipeline result of `args`."""
    values = load_config(args.config) if args.config else {}
    record = formats.read_record(args.record)
    sections = _sections(values)
    return record, sections, process_record(record, *sections)


def cmd_detect(args) -> int:
    source = Path(args.record)  # the default output is <stem>.detections.json beside it
    out = (source.parent / (source.stem + ".detections.json") if args.out is None
           else _out_file(args.out))
    _refuse_overwrite([out], [args.record, args.config])
    record, (preprocess_cfg, adaptive_cfg, run), result = _run_record(args)
    formats.write_detections(out, record.label, result.context.f_spatial, result.detections)
    print(f"wrote {out} ({len(result.detections)} detections)")
    if args.dump_stages:  # only once the detections are written, so a failed run dumps nothing
        dump_dir = Path(args.dump_stages)
        dump_dir.mkdir(parents=True, exist_ok=True)
        for image in preprocess(record, preprocess_cfg):
            for name, stage in segment_stages(image, result.context, adaptive_cfg, run).items():
                formats.write_pgm(dump_dir / f"seg{image.segment_index}_{name}.pgm", stage)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    if args.ablation:
        source, unread, reason = "record", ("det",), "cannot be used with --ablation"
    else:
        source, unread, reason = "det", ("record", "config"), "needs --ablation"
    for name in unread:  # a flag that the mode does not read is refused, not ignored
        if getattr(args, name) is not None:
            raise ConfigInvalid(f"--{name} {reason}")
    sources = getattr(args, source)
    if not sources or len(sources) != len(args.truth):
        raise ConfigInvalid(f"--{source} and --truth must be non-empty lists of equal length")
    out = None if args.out is None else _out_file(args.out)
    _refuse_overwrite([out], [*sources, *args.truth, args.config])
    truths = [formats.read_ground_truth(path) for path in args.truth]
    if args.ablation:
        values = load_config(args.config) if args.config else {}
        if "method" in values:
            raise ConfigInvalid("method cannot be set with --ablation, which runs every method")
        dataset = list(zip(map(formats.read_record, sources), truths))
        sections = _sections(values)
        reports = {method: run_ablation(dataset, method, *sections) for method in METHODS}
    else:
        # a detections file does not record the method that wrote it
        report = EvalReport()
        for det_path, flaws in zip(sources, truths):
            f_spatial, detections = formats.read_detections(det_path)
            report.add(*match_detections(detections, flaws, f_spatial))
        reports = {"detections": report}
    if out:  # written before the table is printed, so a refused run prints nothing
        out.write_text(formats.json_document(reports={
            name: {
                "method": rep.method_tag,
                "tp": rep.tp, "fp": rep.fp, "fn": rep.fn,
                "precision": rep.precision,
                "recall": rep.recall,
                "f1": rep.f1,
            }
            for name, rep in reports.items()
        }))
    print(format_report_table(reports))
    return EXIT_OK


def cmd_inspect(args) -> int:
    _, _, result = _run_record(args)
    context = result.context
    print(formats.json_document(
        f_spatial=context.f_spatial,
        mu=context.mu,
        K_a=context.kernel_size,
        weights=list(context.weights),
        fusion_weights=list(result.fusion_weights),
    ), end="")
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser; built once per process and then reused."""
    parser = argparse.ArgumentParser(
        prog="mflscan",
        description="Detect local flaws in steel wire ropes from MFL records.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="synthesize a record with ground truth")
    p_gen.add_argument("spec", help="preset name or JSON spec file")
    p_gen.add_argument("--out", required=True, help="output basename")
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.set_defaults(func=cmd_generate)

    p_det = sub.add_parser("detect", help="run the detection pipeline on a record")
    p_det.add_argument("record")
    p_det.add_argument("--config")
    p_det.add_argument("--out")
    p_det.add_argument("--dump-stages", metavar="DIR")
    p_det.set_defaults(func=cmd_detect)

    p_eval = sub.add_parser("evaluate", help="score detections against ground truth")
    p_eval.add_argument("--det", nargs="*", help="detections files (without --ablation)")
    p_eval.add_argument("--truth", nargs="*", default=[])
    p_eval.add_argument("--record", nargs="*", help="records (with --ablation)")
    p_eval.add_argument("--ablation", action="store_true",
                        help="re-run the pipeline with all three methods")
    p_eval.add_argument("--config", help="config file (with --ablation)")
    p_eval.add_argument("--out")
    p_eval.set_defaults(func=cmd_evaluate)

    p_ins = sub.add_parser("inspect", help="report SSR-derived quantities for a record")
    p_ins.add_argument("record")
    p_ins.add_argument("--config")
    p_ins.set_defaults(func=cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigInvalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:  # each input reader maps its own OSError to FormatError
        print(f"error: cannot write: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # sizes within every check can still exceed memory
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
