"""Command-line interface: generate, detect, evaluate, inspect."""

import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import mflscan
from mflscan import cli, formats
from mflscan.cli import CONFIG_KEYS, EXIT_OK, EXIT_PARSE, EXIT_USAGE, load_config, main
from mflscan.errors import FormatError
from mflscan.ingest import FINITE_CHECK_SAMPLES, MflRecord
from mflscan.pipeline import RunConfig, process_record


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_scipy_loads_only_when_a_segment_is_labelled(tmp_path):
    """A fresh process that imports the package and its CLI, then runs
    `generate` and `evaluate --det`, loads no scipy module; `detect` in the
    same process then loads `scipy.ndimage`, so the load is deferred, not
    dropped, and loads it before it forks its helper, so the helper never
    loads it again. scipy's import alone took about 0.4 s per command."""
    assert main(["generate", "optimal_ssr", "--out", str(tmp_path / "rope")]) == EXIT_OK
    assert main(["detect", str(tmp_path / "rope.mfl"),
                 "--out", str(tmp_path / "rope_dets.json")]) == EXIT_OK
    code = textwrap.dedent("""
        import os, sys, mflscan, mflscan.cli
        root = sys.argv[1]
        assert mflscan.cli.main(["generate", "optimal_ssr", "--out", root + "/again"]) == 0
        assert mflscan.cli.main(["evaluate", "--det", root + "/rope_dets.json",
                                 "--truth", root + "/rope_truth.json"]) == 0
        loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
        assert not loaded, loaded
        os.sched_getaffinity = lambda pid: {0, 1}
        fork, forks = os.fork, []
        os.fork = lambda: forks.append("scipy.ndimage" in sys.modules) or fork()
        assert mflscan.cli.main(["detect", root + "/again.mfl"]) == 0
        assert forks == [True], forks
    """)
    path = [str(Path(mflscan.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    result = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", code, str(tmp_path)],
                            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


class TestLoadConfig:
    def test_parses_known_keys(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nkernel_base = 7\ngamma = 1.5\nmethod = single_scale\n")
        assert load_config(path) == {"kernel_base": 7, "gamma": 1.5, "method": "single_scale"}

    def test_keys_are_the_config_fields(self):
        assert sorted(CONFIG_KEYS) == sorted([
            "half_span_la", "image_height", "segment_length",
            "f_spatial_extreme", "kernel_base", "alpha", "gamma",
            "method", "min_area_px", "threshold_step",
        ])

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("learning_rate = 0.1\n")
        with pytest.raises(FormatError, match="learning_rate"):
            load_config(path)

    def test_key_set_twice_rejected(self, tmp_path):
        # the first value, invalid on its own, used to be dropped without a word
        path = tmp_path / "run.cfg"
        path.write_text("gamma = 0\n# comment\ngamma = 2\n")
        with pytest.raises(FormatError, match=rf"^{path}:3: key 'gamma' is already set on line 1$"):
            load_config(path)

    def test_malformed_line_names_lineno(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("gamma = 2\nnot a key value line\n")
        with pytest.raises(FormatError, match=":2"):
            load_config(path)


class TestGenerate:
    def test_preset_writes_record_and_truth(self, tmp_path, capsys):
        out = tmp_path / "rope"
        assert main(["generate", "optimal_ssr", "--out", str(out)]) == EXIT_OK
        record_path = tmp_path / "rope.mfl"
        truth_path = tmp_path / "rope_truth.json"
        assert record_path.read_bytes()[:4] == b"MFL1"
        assert len(formats.read_ground_truth(truth_path)) == 4

    def test_invalid_spec_file_names_field(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({
            "rope_length_m": 4.0,
            "inspection_speed_mps": -1.0,
            "sampling_rate_hz": 250.0,
        }))
        code = main(["generate", str(spec_path), "--out", str(tmp_path / "r")])
        assert code == EXIT_PARSE
        assert "inspection_speed_mps" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.mfl"))

    @pytest.mark.parametrize("field", ["rope_length_m", "strand_pitch_m"])
    def test_mistyped_spec_field_is_parse_error(self, field, tmp_path, capsys):
        spec = {"rope_length_m": 4.0, "inspection_speed_mps": 0.5, "sampling_rate_hz": 250}
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({**spec, field: "x"}))
        code = main(["generate", str(spec_path), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == EXIT_PARSE
        assert err.startswith("error: ") and err.count("\n") == 1 and field in err

    # (key, spec): a JSON `true` or a float with a fraction in a spec; the parser used to
    # read 16.9 channels as 16, a seed of 3.7 as 3 and a flaw at `true` as one at 1.0 m.
    # A `flaws` that is not a list of objects used to end in a traceback or a line
    # that named no key
    @pytest.mark.parametrize("key, spec", [
        ("channel_count", {"channel_count": 16.9}),
        ("rng_seed", {"rng_seed": 3.7}),
        ("label", {"label": False}),
        ("axial_position_m", {"flaws": [{"axial_position_m": True}]}),
        ("flaws", {"flaws": [[]]}),
        ("flaws", {"flaws": [[["axial_position_m", 1.0]]]}),
        ("flaws", {"flaws": 5}),
    ])
    def test_bool_or_fractional_int_is_parse_error(self, key, spec, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(
            {"rope_length_m": 4.0, "inspection_speed_mps": 0.5, "sampling_rate_hz": 250, **spec}))
        code = main(["generate", str(spec_path), "--out", str(tmp_path / "r")])
        out, err = capsys.readouterr()
        assert code == EXIT_PARSE and out == ""
        assert err.startswith(f"error: {spec_path}: ") and err.count("\n") == 1 and key in err
        assert not list(tmp_path.glob("*.mfl"))

    # rules that `SynthSpec` checks itself, not the JSON value's type
    @pytest.mark.parametrize("spec", [{"channel_count": 1e300}, {"rng_seed": -1}])
    def test_spec_rule_refusal_names_the_file(self, spec, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(
            {"rope_length_m": 4.0, "inspection_speed_mps": 0.5, "sampling_rate_hz": 250, **spec}))
        code = main(["generate", str(spec_path), "--out", str(tmp_path / "r")])
        out, err = capsys.readouterr()
        assert code == EXIT_PARSE and out == ""
        assert err.startswith(f"error: {spec_path}: ") and err.count("\n") == 1, err

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        code = main(["generate", "low_ssr", "--seed", "-1", "--out", str(tmp_path / "r")])
        out, err = capsys.readouterr()
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: --seed") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("out", [".", "", "/"])
    def test_out_without_a_name_is_usage_error(self, tmp_path, capsys, monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        code = main(["generate", "optimal_ssr", "--out", out])
        assert code == EXIT_USAGE and capsys.readouterr() == (
            "", f"error: --out {out!r} names no file\n")
        assert not list(tmp_path.iterdir())

    def test_out_over_the_spec_is_refused(self, tmp_path, capsys):
        spec = tmp_path / "x_truth.json"
        spec.write_text(json.dumps(
            {"rope_length_m": 4.0, "inspection_speed_mps": 0.5, "sampling_rate_hz": 250}))
        before = spec.read_bytes()
        code = main(["generate", str(spec), "--out", str(tmp_path / "x")])
        out, err = capsys.readouterr()
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: --out ") and err.count("\n") == 1
        assert spec.read_bytes() == before
        assert not (tmp_path / "x.mfl").exists()

    def test_unknown_preset_rejected(self, tmp_path, capsys):
        code = main(["generate", "warp_ssr", "--out", str(tmp_path / "r")])
        assert code == EXIT_PARSE

    def test_fixed_seed_reproducible_checksums(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        main(["generate", "low_ssr", "--out", str(a), "--seed", "9"])
        main(["generate", "low_ssr", "--out", str(b), "--seed", "9"])
        assert sha256(tmp_path / "a.mfl") == sha256(tmp_path / "b.mfl")


# sha256 over the name and bytes of every PGM, in name order, that
# `detect --dump-stages` writes for `generate <preset> --seed 11`
DUMP_DIGESTS = {
    "high_ssr": "7f50f4348ffdace80fde881f3de5f2358f3a0761ce094cddb0b0f93b8caab77f",
    "low_ssr": "78a240240123540790c73ec8e4049dcfa302da04cd9a76dd7580b316ff61e701",
    "optimal_ssr": "452639936d1fe92d0b0263e33806020f7380bcd15567067657893d50885aaf4a",
}


class TestDetect:
    def test_all_zero_record_empty_detections(self, tmp_path, capsys):
        record = MflRecord(samples=np.zeros((400, 16)), sampling_rate_hz=250.0,
                           inspection_speed_mps=0.5)
        rec_path = tmp_path / "zero.mfl"
        formats.write_record_binary(rec_path, record)
        out = tmp_path / "dets.json"
        assert main(["detect", str(rec_path), "--out", str(out)]) == EXIT_OK
        f_spatial, dets = formats.read_detections(out)
        assert dets == []

    def test_preset_record_four_detections_near_truth(self, tmp_path, capsys):
        main(["generate", "optimal_ssr", "--out", str(tmp_path / "rope")])
        out = tmp_path / "dets.json"
        assert main(["detect", str(tmp_path / "rope.mfl"), "--out", str(out)]) == EXIT_OK
        f_spatial, dets = formats.read_detections(out)
        truths = formats.read_ground_truth(tmp_path / "rope_truth.json")
        assert len(dets) == 4
        for truth in truths:
            assert any(abs(d.axial_position_m - truth.axial_position_m) < 0.05
                       for d in dets)

    def test_dump_stages_writes_per_layer_files(self, tmp_path, capsys):
        main(["generate", "optimal_ssr", "--out", str(tmp_path / "rope")])
        dump = tmp_path / "stages"
        main(["detect", str(tmp_path / "rope.mfl"), "--out",
              str(tmp_path / "d.json"), "--dump-stages", str(dump)])
        for seg in range(1, 5):
            assert (dump / f"seg{seg}_fused.pgm").exists()
            for layer in range(1, 4):
                assert (dump / f"seg{seg}_L{layer}_raw.pgm").exists()
                assert (dump / f"seg{seg}_L{layer}_resp.pgm").exists()
                assert (dump / f"seg{seg}_L{layer}_env.pgm").exists()

    # the finest threshold grid RunConfig allows, 999 thresholds, runs end to end
    @pytest.mark.parametrize("key, value", [("method", "single_scale"),
                                            ("threshold_step", 0.001)])
    def test_config_sets_a_run_key(self, key, value, optimal_record, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        out = tmp_path / "d.json"
        assert main(["detect", str(optimal_record), "--config", str(cfg),
                     "--out", str(out)]) == EXIT_OK
        record = formats.read_record(optimal_record)
        detections = process_record(record, run=RunConfig(**{key: value})).detections
        assert formats.read_detections(out)[1] == detections
        assert detections != process_record(record).detections

    # (command, flag) pairs: a run key has no flag, and only `detect` dumps stages
    @pytest.mark.parametrize("flag", [
        ("detect", ["--method", "single"]),
        ("detect", ["--fusion-mode", "flat"]),
        ("inspect", ["--dump-stages", "d"]),
    ])
    def test_run_keys_are_not_flags(self, flag, optimal_record, capsys):
        command, argv = flag
        with pytest.raises(SystemExit) as exit_info:
            main([command, str(optimal_record), *argv])
        assert exit_info.value.code == EXIT_USAGE

    @pytest.mark.parametrize("method, layers", [("adaptive", 3), ("single_scale", 1)])
    def test_dump_stages_change_no_detection(self, method, layers, optimal_record, tmp_path,
                                             capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"method = {method}\n")
        plain, dumped, dump = tmp_path / "plain.json", tmp_path / "dumped.json", tmp_path / "d"
        assert main(["detect", str(optimal_record), "--config", str(cfg),
                     "--out", str(plain)]) == EXIT_OK
        assert main(["detect", str(optimal_record), "--config", str(cfg),
                     "--out", str(dumped), "--dump-stages", str(dump)]) == EXIT_OK
        assert dumped.read_bytes() == plain.read_bytes()
        names = {f"seg{i}_fused.pgm" for i in range(1, 5)} | {
            f"seg{i}_L{j}_{stage}.pgm" for i in range(1, 5) for j in range(1, layers + 1)
            for stage in ("raw", "resp", "env")
        }
        assert {path.name for path in dump.iterdir()} == names

    @pytest.mark.pins_bytes
    @pytest.mark.parametrize("preset", sorted(DUMP_DIGESTS))
    def test_dump_stages_bytes_are_pinned(self, preset, tmp_path, capsys):
        main(["generate", preset, "--out", str(tmp_path / "rope"), "--seed", "11"])
        dump = tmp_path / "stages"
        assert main(["detect", str(tmp_path / "rope.mfl"), "--out",
                     str(tmp_path / "d.json"), "--dump-stages", str(dump)]) == EXIT_OK
        digest = hashlib.sha256()
        for path in sorted(dump.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        assert digest.hexdigest() == DUMP_DIGESTS[preset]

    def test_unwritable_out_leaves_no_dump(self, optimal_record, tmp_path, capsys):
        dump = tmp_path / "stages"
        code = main(["detect", str(optimal_record), "--out", str(tmp_path / "missing" / "x.json"),
                     "--dump-stages", str(dump)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("error: cannot write: ") and err.count("\n") == 1
        assert not dump.exists()

    def test_unwritable_dump_comes_after_the_detections(self, optimal_record, tmp_path, capsys):
        plain, dumped = tmp_path / "plain.json", tmp_path / "dumped.json"
        assert main(["detect", str(optimal_record), "--out", str(plain)]) == EXIT_OK
        code = main(["detect", str(optimal_record), "--out", str(dumped),
                     "--dump-stages", str(plain)])  # a file, not a directory
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: cannot write: ")
        assert dumped.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("target", ["record", "config"])
    def test_out_over_an_input_is_refused(self, target, optimal_record, tmp_path, capsys):
        record, cfg = tmp_path / "rope.mfl", tmp_path / "run.cfg"
        record.write_bytes(optimal_record.read_bytes())
        cfg.write_text("gamma = 2\n")
        out = record if target == "record" else cfg
        before = out.read_bytes()
        code = main(["detect", str(record), "--config", str(cfg), "--out", str(out)])
        stdout, err = capsys.readouterr()
        assert code == EXIT_USAGE and stdout == ""
        assert err.startswith("error: --out ") and err.count("\n") == 1
        assert out.read_bytes() == before

    def test_default_out_over_the_config_is_refused(self, optimal_record, tmp_path, capsys):
        # without --out the detections go to <stem>.detections.json, here the config
        record, cfg = tmp_path / "rope.mfl", tmp_path / "rope.detections.json"
        record.write_bytes(optimal_record.read_bytes())
        cfg.write_text("gamma = 2\n")
        code = main(["detect", str(record), "--config", str(cfg)])
        assert code == EXIT_USAGE and capsys.readouterr() == (
            "", f"error: --out {cfg} would overwrite the input {cfg}\n")
        assert cfg.read_text() == "gamma = 2\n"

    @pytest.mark.parametrize("out", [".", "", "/"])
    def test_out_without_a_name_is_usage_error(self, optimal_record, tmp_path, capsys,
                                               monkeypatch, out):
        record = tmp_path / "rope.mfl"
        record.write_bytes(optimal_record.read_bytes())
        monkeypatch.chdir(tmp_path)
        code = main(["detect", "rope.mfl", "--out", out])
        assert code == EXIT_USAGE and capsys.readouterr() == (
            "", f"error: --out {out!r} names no file\n")
        assert list(tmp_path.iterdir()) == [record]

    def test_corrupt_record_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.mfl"
        bad.write_bytes(b"MFL1" + b"\x01" * 10)
        assert main(["detect", str(bad)]) == EXIT_PARSE

    def test_non_finite_rate_parse_error(self, tmp_path, capsys):
        for rate in (float("nan"), float("inf")):
            bad = tmp_path / "rate.mfl"
            header = struct.pack("<IIdd", 400, 16, rate, 0.5)
            bad.write_bytes(b"MFL1" + header + bytes(8 * 400 * 16))
            assert main(["detect", str(bad)]) == EXIT_PARSE
            assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_in_last_check_chunk_parse_error(self, tmp_path, capsys, bad):
        # MflRecord checks finiteness a chunk of rows at a time; the bad
        # value sits in the last row of a record that spans several chunks
        rows, channels = 3 * FINITE_CHECK_SAMPLES // 16 + 5, 16
        samples = np.zeros((rows, channels))
        samples[-1, -1] = bad
        path = tmp_path / "late.mfl"
        path.write_bytes(b"MFL1" + struct.pack("<IIdd", rows, channels, 250.0, 0.5)
                         + samples.astype("<f8").tobytes())
        assert main(["detect", str(path)]) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {path}: samples must be finite\n"

    def test_out_of_memory_is_usage_error(self, optimal_record, tmp_path, capsys, monkeypatch):
        # a size within every check, such as image_height = 4000000000, can still
        # exceed memory; a real allocation of that size may succeed on a large host
        def exhausted(*args):
            raise MemoryError("Unable to allocate 29.8 GiB")

        monkeypatch.setattr(cli, "process_record", exhausted)
        out = tmp_path / "d.json"
        code = main(["detect", str(optimal_record), "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate 29.8 GiB\n"
        assert not out.exists()


# sha256 of each JSON document the commands write for `generate optimal_ssr
# --seed 3`: its envelope (key order, indent, final newline) and its numbers
JSON_DIGESTS = {
    "truth": "a987bf05123e46681b83dfa4b6984fb9a2d6ab8cec2230d6f4a910ce2696bbbe",
    "detections": "a2b98f2215d59ea9c505febeaa5d7e89027163d29d92814762e8e905d573345b",
    "evaluate": "614505ba67670365a82b08b2e22c24be66a38006e094b4aca8494adfdec4ea20",
    "inspect": "185a0028180cae32f1e3d81f9b4abedbc63c4eaffff5c7f5500eb493274fce2c",
}


@pytest.mark.pins_bytes
def test_json_documents_bytes_are_pinned(tmp_path, capsys):
    rope, det, report = tmp_path / "rope", tmp_path / "rope.detections.json", tmp_path / "r.json"
    assert main(["generate", "optimal_ssr", "--out", str(rope), "--seed", "3"]) == EXIT_OK
    assert main(["detect", str(rope.with_suffix(".mfl")), "--out", str(det)]) == EXIT_OK
    assert main(["evaluate", "--det", str(det), "--truth", str(tmp_path / "rope_truth.json"),
                 "--out", str(report)]) == EXIT_OK
    capsys.readouterr()
    assert main(["inspect", str(rope.with_suffix(".mfl"))]) == EXIT_OK
    documents = {
        "truth": (tmp_path / "rope_truth.json").read_bytes(),
        "detections": det.read_bytes(),
        "evaluate": report.read_bytes(),
        "inspect": capsys.readouterr().out.encode(),
    }
    assert {name: hashlib.sha256(data).hexdigest()
            for name, data in documents.items()} == JSON_DIGESTS


@pytest.fixture(scope="module")
def optimal_record(tmp_path_factory):
    out = tmp_path_factory.mktemp("rope") / "rope"
    main(["generate", "optimal_ssr", "--out", str(out)])
    return out.with_suffix(".mfl")


BAD_CONFIG_LINES = [
    "gamma = -1",
    "method = foo",
    "image_height = 4",
    "threshold_step = 0",
    "segment_length = 3",
    "kernel_base = 60",
    "kernel_base = 100000",  # refused before its 100004 x 100004 template is built
    pytest.param("kernel_base = 1" + "0" * 400, id="kernel_base = 10**400"),  # beyond float
    "threshold_step = 2",
    "gamma = inf",
    "alpha = inf",
    "f_spatial_extreme = inf",
    "min_area_px = 0",
    "min_area_px = -3",
]


@pytest.mark.parametrize("line", BAD_CONFIG_LINES)
def test_bad_config_value_is_usage_error(line, optimal_record, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    capsys.readouterr()
    code = main(["detect", str(optimal_record), "--config", str(cfg),
                 "--out", str(tmp_path / "d.json")])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "d.json").exists()


@pytest.mark.parametrize("command", ["detect", "inspect"])
@pytest.mark.parametrize("lines", [
    "segment_length = 3",
    "min_area_px = 0",
    "threshold_step = 5",
    "kernel_base = 100000",
    pytest.param("kernel_base = 1" + "0" * 400, id="kernel_base = 10**400"),
    "alpha = 1e300",
    "half_span_la = 100000",
    "f_spatial_extreme = 0",
])
def test_inspect_refuses_what_detect_refuses(command, lines, optimal_record, tmp_path,
                                             capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(lines + "\n")
    capsys.readouterr()
    code = main([command, str(optimal_record), "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) <= 200
    for line in lines.splitlines():
        assert line.split(" = ")[0] in err


@pytest.mark.parametrize("command", ["detect", "inspect"])
@pytest.mark.parametrize("line", ["fusion_mode = recursive", "fs_extreme_hz = 250",
                                  "v_extreme_mps = 1.5"])
def test_removed_key_is_unknown(command, line, optimal_record, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    capsys.readouterr()
    assert main([command, str(optimal_record), "--config", str(cfg)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "unknown key" in err


@pytest.mark.parametrize("line", BAD_CONFIG_LINES)
def test_inspect_refuses_bad_config_value(line, optimal_record, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    capsys.readouterr()
    code = main(["inspect", str(optimal_record), "--config", str(cfg)])
    out, err = capsys.readouterr()
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1
    assert out == ""


@pytest.mark.parametrize("line", ["half_span_la = 100000", "segment_length = 100000",
                                  "image_height = 12\nmethod = single_scale"])
def test_config_too_large_for_record_is_usage_error(line, optimal_record, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    capsys.readouterr()
    code = main(["detect", str(optimal_record), "--config", str(cfg),
                 "--out", str(tmp_path / "d.json")])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1
    assert line.split(" = ")[0] in err


@pytest.mark.parametrize("line", ["gamma = -1", "half_span_la = 100000"])
def test_refused_run_writes_nothing(line, optimal_record, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out, dump = tmp_path / "d.json", tmp_path / "never"
    code = main(["detect", str(optimal_record), "--config", str(cfg),
                 "--out", str(out), "--dump-stages", str(dump)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists() and not dump.exists()


@pytest.mark.parametrize("name, content", [
    ("empty.mfl", b"MFL1" + struct.pack("<IIdd", 0, 16, 250.0, 0.5)),
    ("empty.csv", b"# sampling_rate_hz=250.0, speed_mps=0.5, channels=16\n"),
], ids=("mfl1", "csv"))
def test_record_without_samples_is_parse_error(name, content, tmp_path, capsys):
    path = tmp_path / name
    path.write_bytes(content)
    code = main(["detect", str(path), "--out", str(tmp_path / "d.json")])
    err = capsys.readouterr().err
    assert code == EXIT_PARSE
    assert err.startswith("error: ") and err.count("\n") == 1


class TestEvaluate:
    def test_detection_truth_pairs(self, tmp_path, capsys):
        main(["generate", "optimal_ssr", "--out", str(tmp_path / "rope")])
        main(["detect", str(tmp_path / "rope.mfl"), "--out", str(tmp_path / "d.json")])
        capsys.readouterr()
        code = main(["evaluate", "--det", str(tmp_path / "d.json"),
                     "--truth", str(tmp_path / "rope_truth.json")])
        assert code == EXIT_OK
        table = capsys.readouterr().out
        assert "Precision" in table
        assert "100.00%" in table

    def test_detections_column_does_not_name_a_method(self, optimal_record, tmp_path,
                                                      capsys):
        cfg = tmp_path / "single.cfg"
        cfg.write_text("method = single_scale\n")
        det, out = tmp_path / "single.json", tmp_path / "r.json"
        assert main(["detect", str(optimal_record), "--config", str(cfg),
                     "--out", str(det)]) == EXIT_OK
        capsys.readouterr()
        assert main(["evaluate", "--det", str(det),
                     "--truth", str(optimal_record.parent / "rope_truth.json"),
                     "--out", str(out)]) == EXIT_OK
        header = capsys.readouterr().out.splitlines()[0]
        assert header.split() == ["Metric", "detections"]
        reports = json.loads(out.read_text())["reports"]
        assert list(reports) == ["detections"]
        report = reports["detections"]
        assert report["method"] is None
        assert report["tp"] + report["fn"] == 4 and 0.0 <= report["f1"] <= 1.0

    def test_mismatched_pairing_is_usage_error(self, tmp_path, capsys):
        code = main(["evaluate", "--det", "a.json", "--truth"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "equal length" in err

    def test_mismatched_ablation_pairing_is_usage_error(self, tmp_path, capsys):
        code = main(["evaluate", "--ablation", "--record", "a.mfl", "--truth"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "equal length" in err

    @pytest.mark.parametrize("flag, mode", [
        ("--config", "det"), ("--record", "det"),
        ("--det", "ablation"),
    ])
    def test_flag_the_mode_does_not_read_is_usage_error(self, flag, mode, optimal_record,
                                                        tmp_path, capsys):
        truth = str(optimal_record.parent / "rope_truth.json")
        det = tmp_path / "d.json"
        main(["detect", str(optimal_record), "--out", str(det)])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma = 2\n")
        values = {"--config": [str(cfg)], "--record": [str(optimal_record)],
                  "--det": [str(det)]}
        source = (["--det", str(det)] if mode == "det"
                  else ["--ablation", "--record", str(optimal_record)])
        report = tmp_path / "report.json"
        capsys.readouterr()
        code = main(["evaluate", *source, "--truth", truth, flag, *values[flag],
                     "--out", str(report)])
        out, err = capsys.readouterr()
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and err.count("\n") == 1 and flag in err
        assert out == ""
        assert not report.exists()

    def test_kernel_size_is_not_a_flag(self, optimal_record, tmp_path, capsys):
        # the match tolerance is kernel_base samples, the default of match_detections
        det = tmp_path / "d.json"
        main(["detect", str(optimal_record), "--out", str(det)])
        with pytest.raises(SystemExit) as exit_info:
            main(["evaluate", "--det", str(det),
                  "--truth", str(optimal_record.parent / "rope_truth.json"),
                  "--kernel-size", "9"])
        assert exit_info.value.code == EXIT_USAGE

    # (mode, input that --out names): the output may not replace any input file
    @pytest.mark.parametrize("mode, target", [
        ("det", "truth"), ("det", "det"), ("ablation", "truth"), ("ablation", "record"),
    ])
    def test_out_over_an_input_is_refused(self, mode, target, optimal_record, tmp_path,
                                          capsys):
        truth = tmp_path / "truth.json"
        truth.write_bytes((optimal_record.parent / "rope_truth.json").read_bytes())
        record = tmp_path / "rope.mfl"
        record.write_bytes(optimal_record.read_bytes())
        det = tmp_path / "d.json"
        main(["detect", str(record), "--out", str(det)])
        inputs = {"truth": truth, "det": det, "record": record}
        before = {path: path.read_bytes() for path in inputs.values()}
        source = ["--det", str(det)] if mode == "det" else ["--ablation", "--record", str(record)]
        capsys.readouterr()
        code = main(["evaluate", *source, "--truth", str(truth), "--out", str(inputs[target])])
        out, err = capsys.readouterr()
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: --out ") and err.count("\n") == 1
        assert {path: path.read_bytes() for path in inputs.values()} == before

    @pytest.mark.parametrize("out", [".", "", "/"])
    def test_out_without_a_name_is_usage_error(self, optimal_record, tmp_path, capsys,
                                               monkeypatch, out):
        det = tmp_path / "d.json"
        main(["detect", str(optimal_record), "--out", str(det)])
        capsys.readouterr()
        monkeypatch.chdir(tmp_path)
        code = main(["evaluate", "--det", "d.json",
                     "--truth", str(optimal_record.parent / "rope_truth.json"), "--out", out])
        assert code == EXIT_USAGE and capsys.readouterr() == (
            "", f"error: --out {out!r} names no file\n")
        assert list(tmp_path.iterdir()) == [det]

    def test_unwritable_out_prints_no_table(self, optimal_record, tmp_path, capsys):
        det = tmp_path / "d.json"
        main(["detect", str(optimal_record), "--out", str(det)])
        capsys.readouterr()
        code = main(["evaluate", "--det", str(det),
                     "--truth", str(optimal_record.parent / "rope_truth.json"),
                     "--out", str(tmp_path / "missing" / "r.json")])
        out, err = capsys.readouterr()
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: cannot write: ") and err.count("\n") == 1

    @pytest.mark.parametrize("ablation", [False, True], ids=("det", "ablation"))
    def test_wrongly_typed_truth_field_is_parse_error(self, ablation, optimal_record,
                                                      tmp_path, capsys):
        truth = json.loads((optimal_record.parent / "rope_truth.json").read_text())
        truth["flaws"][0]["axial_m"] = "x"
        bad = tmp_path / "truth.json"
        bad.write_text(json.dumps(truth))
        det = tmp_path / "d.json"
        main(["detect", str(optimal_record), "--out", str(det)])
        source = ["--det", str(det)]
        if ablation:
            source = ["--ablation", "--record", str(optimal_record)]
        capsys.readouterr()
        assert main(["evaluate", *source, "--truth", str(bad)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "axial_m" in err

    def test_wrongly_typed_detections_field_is_parse_error(self, optimal_record, tmp_path,
                                                           capsys):
        det = tmp_path / "d.json"
        main(["detect", str(optimal_record), "--out", str(det)])
        payload = json.loads(det.read_text())
        payload["f_spatial"] = "abc"
        det.write_text(json.dumps(payload))
        capsys.readouterr()
        code = main(["evaluate", "--det", str(det),
                     "--truth", str(optimal_record.parent / "rope_truth.json")])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "f_spatial" in err

    # (key, value) set in the detections file: its top-level f_spatial or the first detection's key
    @pytest.mark.parametrize("key, value", [
        ("f_spatial", math.nan), ("f_spatial", -500.0), ("f_spatial", 0.0),
        ("f_spatial", math.inf), ("score", math.nan), ("axial_m", -math.inf),
        # a fraction in a whole-number key used to be read as box (0, 1, 10, 20) and
        # segment 1; a bool is no number in any key
        ("box", [0.5, 1.7, 10.9, 20.2]), ("segment", 1.9), ("segment", True),
    ])
    def test_out_of_range_detections_number_is_parse_error(self, key, value, optimal_record,
                                                           tmp_path, capsys):
        det = tmp_path / "d.json"
        main(["detect", str(optimal_record), "--out", str(det)])
        payload = json.loads(det.read_text())
        (payload if key == "f_spatial" else payload["detections"][0])[key] = value
        det.write_text(json.dumps(payload))
        capsys.readouterr()
        code = main(["evaluate", "--det", str(det),
                     "--truth", str(optimal_record.parent / "rope_truth.json")])
        out, err = capsys.readouterr()
        assert code == EXIT_PARSE and out == ""
        assert err.startswith(f"error: {det}: ") and err.count("\n") == 1 and key in err

    @pytest.mark.parametrize("ablation", [False, True], ids=("det", "ablation"))
    @pytest.mark.parametrize("key, value", [
        ("axial_m", math.nan), ("extent_m", -0.01), ("amplitude", math.inf),
        ("axial_m", True),  # not a number: it used to be scored as a flaw at 1.0 m
    ])
    def test_out_of_range_truth_number_is_parse_error(self, key, value, ablation,
                                                      optimal_record, tmp_path, capsys):
        truth = json.loads((optimal_record.parent / "rope_truth.json").read_text())
        truth["flaws"][0][key] = value
        bad = tmp_path / "truth.json"
        bad.write_text(json.dumps(truth))
        det = tmp_path / "d.json"
        main(["detect", str(optimal_record), "--out", str(det)])
        source = ["--det", str(det)]
        if ablation:
            source = ["--ablation", "--record", str(optimal_record)]
        capsys.readouterr()
        assert main(["evaluate", *source, "--truth", str(bad)]) == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1 and key in err

    def test_ablation_produces_three_sections(self, tmp_path, capsys):
        main(["generate", "optimal_ssr", "--out", str(tmp_path / "rope")])
        capsys.readouterr()
        out = tmp_path / "report.json"
        code = main(["evaluate", "--ablation",
                     "--record", str(tmp_path / "rope.mfl"),
                     "--truth", str(tmp_path / "rope_truth.json"),
                     "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        assert set(payload["reports"]) == {
            "single_scale", "unweighted_multiscale", "adaptive"
        }

    @pytest.mark.parametrize("line", ["method = foo", "method = adaptive",
                                      "threshold_step = 2", "min_area_px = 0"])
    def test_ablation_bad_run_key_is_usage_error(self, line, optimal_record, tmp_path,
                                                 capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        truth = optimal_record.parent / "rope_truth.json"
        capsys.readouterr()
        code = main(["evaluate", "--ablation", "--record", str(optimal_record),
                     "--truth", str(truth), "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_ablation_honours_run_keys(self, optimal_record, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("min_area_px = 1000000\n")  # larger than any component
        out = tmp_path / "report.json"
        code = main(["evaluate", "--ablation", "--record", str(optimal_record),
                     "--truth", str(optimal_record.parent / "rope_truth.json"),
                     "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_OK
        reports = json.loads(out.read_text())["reports"]
        assert all((rep["tp"], rep["fp"], rep["fn"]) == (0, 0, 4) for rep in reports.values())


class TestInspect:
    def test_reports_adaptive_quantities(self, tmp_path, capsys):
        main(["generate", "optimal_ssr", "--out", str(tmp_path / "rope")])
        capsys.readouterr()
        assert main(["inspect", str(tmp_path / "rope.mfl")]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["f_spatial"] == pytest.approx(500.0)
        assert payload["mu"] == pytest.approx(1.0 / 3.0, abs=1e-4)
        assert payload["K_a"] == 9
        assert sum(payload["weights"]) == pytest.approx(1.0)

    def test_reference_is_samples_per_metre(self, optimal_record, tmp_path, capsys):
        # optimal_ssr scans 500 samples per metre: at that reference mu is 1
        cfg = tmp_path / "run.cfg"
        cfg.write_text("f_spatial_extreme = 500\n")
        capsys.readouterr()
        assert main(["inspect", str(optimal_record), "--config", str(cfg)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert (payload["mu"], payload["K_a"]) == (1.0, 5)
        assert payload["weights"] == payload["fusion_weights"] == [1.0, 0.0, 0.0]

    def test_fusion_weights_are_the_applied_ones(self, optimal_record, tmp_path, capsys):
        # mu = 1/3: recursive fusion applies (w1, (1-w1)*w2, (1-w1)*(1-w2))
        expected = {
            "": (1 / 9, 32 / 81, 40 / 81),
            "method = single_scale": (1.0, 0.0, 0.0),
            "method = unweighted_multiscale": (1 / 3, 1 / 3, 1 / 3),
        }
        for line, weights in expected.items():
            cfg = tmp_path / "run.cfg"
            cfg.write_text(line + "\n")
            capsys.readouterr()
            assert main(["inspect", str(optimal_record), "--config", str(cfg)]) == EXIT_OK
            payload = json.loads(capsys.readouterr().out)
            assert payload["fusion_weights"] == pytest.approx(weights, abs=1e-4)
            assert payload["weights"] == pytest.approx((1 / 9, 4 / 9, 4 / 9), abs=1e-4)
