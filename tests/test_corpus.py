"""Seeded corpus of malformed inputs through every command, in process.

Truncated and bit-flipped MFL1 records, CSV records with bad headers or rows,
one config line per key with each hostile value, and bad ground-truth and
detections JSON go through `detect`, `inspect`, `evaluate` and
`evaluate --ablation`; hostile spec files go through `generate`. Paths that
cannot be read (exit 3) or written (exit 2) go through every command. Every
case must end in exit 0, 2 or 3 with at most one line on stderr, no traceback, no
"internal error", and no warning (outside a test run a warning prints two
more lines on stderr).
"""

import json
import typing
import warnings

import numpy as np
import pytest

from mflscan import formats
from mflscan.cli import CONFIG_KEYS, main
from mflscan.synth import GroundTruthFlaw, SynthSpec, generate

# a 31-digit integer: as image_height it exceeds numpy's largest array size
HOSTILE_VALUES = ("0", "-1", "nan", "inf", "1e300", "1e-300", "text", "1" + "0" * 30)
HOSTILE_SPEC_VALUES = (0, -1, float("nan"), float("inf"), 1e300, 1e-300, "text")


@pytest.fixture(scope="module")
def rope(tmp_path_factory):
    """A 400-sample (two-segment) optimal-SSR record with its truth and detections."""
    root = tmp_path_factory.mktemp("corpus")
    spec = SynthSpec(rope_length_m=0.8, inspection_speed_mps=0.5, sampling_rate_hz=250.0,
                     flaws=(GroundTruthFlaw(axial_position_m=0.3),), rng_seed=5)
    record, flaws = generate(spec)
    paths = {"record": root / "rope.mfl", "truth": root / "truth.json",
             "det": root / "det.json", "root": root}
    formats.write_record_binary(paths["record"], record)
    formats.write_ground_truth(paths["truth"], flaws)
    assert main(["detect", str(paths["record"]), "--out", str(paths["det"])]) == 0
    return paths


def run_case(argv, capsys, expect=(0, 2, 3)):
    """Problems with one run of `main`, as a list of strings (empty when fine)."""
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main([str(a) for a in argv])
        except Exception as exc:  # noqa: BLE001 - any escape is a finding
            return [f"raised {exc!r}"]
    err = capsys.readouterr().err
    problems = []
    if code not in expect:
        problems.append(f"exit {code}")
    if err.count("\n") > 1 or "Traceback" in err or "internal error" in err:
        problems.append(f"stderr {err!r}")
    problems += [f"warning {w.message}" for w in caught]
    return problems


def record_commands(path, rope):
    out = rope["root"] / "out.json"
    return [
        ["detect", path, "--out", out],
        ["inspect", path],
        ["evaluate", "--ablation", "--record", path, "--truth", rope["truth"]],
    ]


def check_all(cases, capsys, expect=(0, 2, 3)):
    failures = []
    for name, argv in cases:
        failures += [f"{name}: {' '.join(map(str, argv[:2]))}: {p}"
                     for p in run_case(argv, capsys, expect)]
    assert not failures, "\n".join(failures)


def test_truncated_and_bit_flipped_records(rope, capsys):
    raw = rope["record"].read_bytes()
    rng = np.random.default_rng(71)
    cases = []
    for i in range(8):
        path = rope["root"] / f"cut{i}.mfl"
        path.write_bytes(raw[: int(rng.integers(0, len(raw)))])
        cases += [(f"cut{i}", argv) for argv in record_commands(path, rope)]
    for i in range(16):
        data = bytearray(raw)
        # half the files take their flips in the 28-byte header
        span = 28 if i % 2 else len(data)
        for pos in rng.integers(0, span * 8, size=int(rng.integers(1, 6))):
            data[pos // 8] ^= 1 << (pos % 8)
        path = rope["root"] / f"flip{i}.mfl"
        path.write_bytes(bytes(data))
        cases += [(f"flip{i}", argv) for argv in record_commands(path, rope)]
    check_all(cases, capsys)


def test_bad_csv_records(rope, capsys):
    header = "# sampling_rate_hz=250.0, speed_mps=0.5, channels=4"
    rng = np.random.default_rng(72)
    good = [",".join(f"{v:.3f}" for v in row) for row in rng.normal(size=(400, 4))]
    bodies = {
        "no_header": good,
        "bad_field": ["# sampling_rate_hz=250.0, speed_mps, channels=4", *good],
        "bad_rate": ["# sampling_rate_hz=fast, speed_mps=0.5, channels=4", *good],
        "no_channels": ["# sampling_rate_hz=250.0, speed_mps=0.5", *good],
        "one_channel": ["# sampling_rate_hz=250.0, speed_mps=0.5, channels=1",
                        *(row.split(",")[0] for row in good)],
        "zero_speed": ["# sampling_rate_hz=250.0, speed_mps=0, channels=4", *good],
        "ratio_underflow": ["# sampling_rate_hz=1e-300, speed_mps=1e300, channels=4", *good],
        "short_row": [header, *good[:7], "1.0,2.0", *good[7:]],
        "text_row": [header, *good[:9], "1.0,x,2.0,3.0", *good[9:]],
        "nan_row": [header, *good[:3], "nan,0,0,0", *good[3:]],
        "inf_row": [header, "inf,0,0,0", *good],
        "too_short": [header, *good[:50]],
        "header_only": [header],
    }
    cases = []
    for name, lines in bodies.items():
        path = rope["root"] / f"{name}.csv"
        path.write_text("\n".join(lines) + "\n")
        cases += [(name, argv) for argv in record_commands(path, rope)]
    path = rope["root"] / "binary.csv"
    path.write_bytes(bytes(np.random.default_rng(73).integers(0, 256, 600, dtype=np.uint8)))
    cases += [("binary", argv) for argv in record_commands(path, rope)]
    check_all(cases, capsys)


def test_hostile_config_values(rope, capsys):
    cfg_lines = [f"{key} = {value}" for key in CONFIG_KEYS for value in HOSTILE_VALUES]
    cases = []
    for i, line in enumerate(cfg_lines):
        cfg = rope["root"] / f"cfg{i}.cfg"
        cfg.write_text(line + "\n")
        for argv in record_commands(rope["record"], rope):
            if "--ablation" in argv and line.startswith("method"):
                continue  # --ablation refuses every method line
            cases.append((line.replace("\n", "; "), [*argv, "--config", cfg]))
    check_all(cases, capsys)


def test_bad_truth_and_detections_json(rope, capsys):
    truth = json.loads(rope["truth"].read_text())
    det = json.loads(rope["det"].read_text())
    flaw, hit = truth["flaws"][0], det["detections"][0]
    v1 = {"schema_version": 1}  # so each row is refused for its own fault, not the version
    truths = {
        "not_json": "{flaws: [",
        "list": [],
        "no_flaws": {**v1},
        "flaws_dict": {**v1, "flaws": {"a": 1}},
        "flaw_text": {**v1, "flaws": ["x"]},
        "axial_text": {**v1, "flaws": [{**flaw, "axial_m": "x"}]},
        "extent_null": {**v1, "flaws": [{**flaw, "extent_m": None}]},
        "amplitude_list": {**v1, "flaws": [{**flaw, "amplitude": [1]}]},
        "huge_int": {**v1, "flaws": [{**flaw, "axial_m": 10**400}]},
        "deep": "[" * 100_000,
        "schema_7": {**truth, "schema_version": 7},
    }
    dets = {
        "not_json": "[",
        "deep": "[" * 100_000,
        "no_detections": {"f_spatial": 500.0},
        "f_spatial_text": {**det, "f_spatial": "abc"},
        "box_text": {**det, "detections": [{**hit, "box": ["a", 1, 2, 3]}]},
        "interval_short": {**det, "detections": [{**hit, "axial_interval_m": [0.1]}]},
        "interval_number": {**det, "detections": [{**hit, "axial_interval_m": 3}]},
        "segment_text": {**det, "detections": [{**hit, "segment": "two"}]},
        "score_null": {**det, "detections": [{**hit, "score": None}]},
        "box_three": {**det, "detections": [{**hit, "box": hit["box"][:3]}]},
        "box_five": {**det, "detections": [{**hit, "box": [*hit["box"], 1]}]},
        "interval_three": {**det, "detections": [{**hit, "axial_interval_m": [0.1, 0.2, 0.3]}]},
        "interval_inverted": {**det, "detections": [{**hit, "axial_interval_m": [0.3, 0.1]}]},
        "schema_7": {**det, "schema_version": 7},
    }
    cases = []
    for name, payload in truths.items():
        path = rope["root"] / f"truth_{name}.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        cases.append((f"truth {name}", ["evaluate", "--det", rope["det"], "--truth", path]))
        cases.append((f"truth {name}", ["evaluate", "--ablation", "--record", rope["record"],
                                        "--truth", path]))
    for name, payload in dets.items():
        path = rope["root"] / f"det_{name}.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        cases.append((f"det {name}", ["evaluate", "--det", path, "--truth", rope["truth"]]))
    check_all(cases, capsys, expect=(3,))  # every bad truth or detections file is a parse error


def test_hostile_spec_values(rope, capsys):
    """Every numeric SynthSpec and GroundTruthFlaw field with each hostile value,
    and spec files that are not a JSON object, through `generate`.

    A value that is not a finite number must write no record.
    """
    spec = {"rope_length_m": 0.8, "inspection_speed_mps": 0.5, "sampling_rate_hz": 250.0}
    flaw = {"axial_position_m": 0.3}
    payloads = {}
    for cls in (SynthSpec, GroundTruthFlaw):
        for name, kind in typing.get_type_hints(cls).items():
            if kind not in (int, float):
                continue
            for value in HOSTILE_SPEC_VALUES:
                fields = {name: value}
                payload = ({**spec, **fields, "flaws": [flaw]} if cls is SynthSpec
                           else {**spec, "flaws": [{**flaw, **fields}]})
                payloads[f"{name} = {value!r}"] = json.dumps(payload)
    payloads.update({"deep": "[" * 100_000, "string": '"x"', "list": "[]",
                     # a stripe count beyond what numpy's Poisson sampler draws
                     "stripes": json.dumps({**spec, "stripe_noise_rate_per_m": 1e20})})
    failures = []
    for i, (name, text) in enumerate(payloads.items()):
        path = rope["root"] / f"spec{i}.json"
        path.write_text(text)
        out = rope["root"] / f"gen{i}"
        failures += [f"{name}: {p}" for p in run_case(["generate", path, "--out", out], capsys)]
        if any(bad in name for bad in ("nan", "inf", "text")) and out.with_suffix(".mfl").exists():
            failures.append(f"{name}: wrote a record")
    # 2**32 - 1 channels over 2**22 samples pass every check, but the 128 PiB
    # record, the first large array that generate makes, fits in no address space
    path = rope["root"] / "huge_spec.json"
    path.write_text(json.dumps({**spec, "rope_length_m": 2**22 / 500, "channel_count": 2**32 - 1}))
    failures += [f"128 PiB record: {p}" for p in
                 run_case(["generate", path, "--out", rope["root"] / "huge"], capsys, expect=(2,))]
    assert not failures, "\n".join(failures)


def test_unreadable_inputs_and_unwritable_outputs(rope, capsys):
    """An input that cannot be read exits 3, an output that cannot be written exits 2."""
    root, record, truth = rope["root"], rope["record"], rope["truth"]
    folder = root / "a_folder"
    folder.mkdir(exist_ok=True)
    undecodable = root / "latin1.cfg"
    undecodable.write_bytes(b"gamma = 2 \xe9\n")
    unreadable = [
        ["detect", folder],
        ["inspect", folder],
        ["detect", record, "--config", folder],
        ["detect", record, "--config", undecodable],
        ["generate", folder, "--out", root / "gen_folder"],
        ["evaluate", "--det", folder, "--truth", truth],
        ["evaluate", "--det", rope["det"], "--truth", folder],
        ["evaluate", "--ablation", "--record", folder, "--truth", truth],
        ["evaluate", "--ablation", "--record", record, "--truth", folder],
    ]
    unwritable = [
        ["detect", record, "--out", folder],
        ["detect", record, "--out", root / "missing" / "x.json"],
        ["detect", record, "--dump-stages", record],
        ["generate", "optimal_ssr", "--out", record / "rope"],
        ["evaluate", "--det", rope["det"], "--truth", truth, "--out", folder],
    ]
    failures = []
    for expect, cases in ((3, unreadable), (2, unwritable)):
        for argv in cases:
            failures += [f"{' '.join(map(str, argv))}: {p}"
                         for p in run_case(argv, capsys, expect=(expect,))]
    assert not failures, "\n".join(failures)
