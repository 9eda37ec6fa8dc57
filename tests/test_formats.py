"""Record, ground-truth, detection, and PGM file formats."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mflscan import formats
from mflscan.errors import FormatError
from mflscan.ingest import MflRecord
from mflscan.localize import Detection
from mflscan.synth import GroundTruthFlaw, generate, scenario_presets


@pytest.fixture
def record():
    rng = np.random.default_rng(0)
    return MflRecord(
        samples=rng.normal(size=(50, 4)),
        sampling_rate_hz=250.0,
        inspection_speed_mps=0.5,
        label="fixture",
    )


class TestBinaryRecord:
    def test_roundtrip_bit_identical(self, tmp_path, record):
        path = tmp_path / "rec.mfl"
        formats.write_record_binary(path, record)
        back = formats.read_record_binary(path)
        assert np.array_equal(back.samples, record.samples)
        assert back.sampling_rate_hz == record.sampling_rate_hz
        assert back.inspection_speed_mps == record.inspection_speed_mps

    def test_magic_bytes(self, tmp_path, record):
        path = tmp_path / "rec.mfl"
        formats.write_record_binary(path, record)
        assert path.read_bytes()[:4] == b"MFL1"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.mfl"
        path.write_bytes(b"JUNK" + b"\x00" * 40)
        with pytest.raises(FormatError):
            formats.read_record_binary(path)

    def test_truncated_payload_rejected(self, tmp_path, record):
        path = tmp_path / "rec.mfl"
        formats.write_record_binary(path, record)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            formats.read_record_binary(path)


class TestCsvRecord:
    def test_roundtrip(self, tmp_path, record):
        path = tmp_path / "rec.csv"
        formats.write_record_csv(path, record)
        back = formats.read_record_csv(path)
        assert np.allclose(back.samples, record.samples)
        assert back.sampling_rate_hz == record.sampling_rate_hz

    def test_blank_lines_are_skipped(self, tmp_path, record):
        plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
        formats.write_record_csv(plain, record)
        header, *rows = plain.read_text().splitlines(keepends=True)
        spaced.write_text(header + rows[0] + "\n  \t\n" + "".join(rows[1:-1]) + "\n"
                          + rows[-1] + " \n\n")
        back, expected = formats.read_record_csv(spaced), formats.read_record_csv(plain)
        assert back.samples.tobytes() == expected.samples.tobytes()
        assert back.samples.shape == expected.samples.shape == record.samples.shape
        assert (back.sampling_rate_hz, back.inspection_speed_mps) == (
            expected.sampling_rate_hz, expected.inspection_speed_mps)

    def test_missing_header_names_line(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("1.0,2.0\n")
        with pytest.raises(FormatError, match=":1"):
            formats.read_record_csv(path)

    def test_bad_header_value_names_its_key(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("# sampling_rate_hz=fast, speed_mps=0.5, channels=2\n1.0,2.0\n")
        with pytest.raises(FormatError, match=":1: bad header: sampling_rate_hz: "):
            formats.read_record_csv(path)

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text(
            "# sampling_rate_hz=250, speed_mps=0.5, channels=3\n1.0,2.0,3.0\n1.0,2.0\n"
        )
        with pytest.raises(FormatError, match=":3"):
            formats.read_record_csv(path)

    def test_reading_holds_the_samples_once(self, tmp_path):
        # the 50-segment high_ssr rope with a 150-sample tail, 1.24 MiB of samples
        preset = scenario_presets()["high_ssr"]
        f_spatial = preset.sampling_rate_hz / preset.inspection_speed_mps
        rope, _ = generate(replace(preset, rope_length_m=(50 * 200 + 150.5) / f_spatial))
        csv_path, bin_path = tmp_path / "rope.csv", tmp_path / "rope.mfl"
        formats.write_record_csv(csv_path, rope)
        formats.write_record_binary(bin_path, rope)
        tracemalloc.start()
        try:
            back = formats.read_record_csv(csv_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * rope.samples.nbytes
        assert back.samples.tobytes() == formats.read_record_binary(bin_path).samples.tobytes()

    def test_dispatch_on_magic(self, tmp_path, record):
        bin_path = tmp_path / "rec.mfl"
        csv_path = tmp_path / "rec.csv"
        formats.write_record_binary(bin_path, record)
        formats.write_record_csv(csv_path, record)
        assert np.array_equal(formats.read_record(bin_path).samples, record.samples)
        assert np.allclose(formats.read_record(csv_path).samples, record.samples)


class TestPgm:
    def test_unsigned_min_max_scaling(self, tmp_path):
        path = tmp_path / "img.pgm"
        formats.write_pgm(path, np.array([[0.0, 2.0, 4.0]]))
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n3 1\n255\n")
        assert list(raw[-3:]) == [0, 128, 255]

    def test_flat_image_is_mid_grey(self, tmp_path):
        path = tmp_path / "img.pgm"
        formats.write_pgm(path, np.full((2, 3), -7.5))
        assert list(path.read_bytes()[-6:]) == [128] * 6


MISSING = object()


class TestGroundTruthJson:
    def test_roundtrip(self, tmp_path):
        flaws = [
            GroundTruthFlaw(axial_position_m=1.0, axial_extent_m=0.03,
                            radial_center_channel=4.0, amplitude=0.9),
            GroundTruthFlaw(axial_position_m=2.5),
        ]
        path = tmp_path / "truth.json"
        formats.write_ground_truth(path, flaws)
        back = formats.read_ground_truth(path)
        assert back == flaws

    def test_schema_version_present(self, tmp_path):
        path = tmp_path / "truth.json"
        formats.write_ground_truth(path, [])
        assert json.loads(path.read_text())["schema_version"] == 1

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "truth.json"
        path.write_text("{not json")
        with pytest.raises(FormatError):
            formats.read_ground_truth(path)

    @pytest.mark.parametrize("field, value", [
        ("axial_m", "x"), ("extent_m", None), ("amplitude", [1.0]), ("channel", "mid"),
        ("axial_m", 10**400),
    ])
    def test_wrongly_typed_field_rejected(self, tmp_path, field, value):
        path = tmp_path / "truth.json"
        formats.write_ground_truth(path, [GroundTruthFlaw(axial_position_m=1.0)])
        payload = json.loads(path.read_text())
        payload["flaws"][0][field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=f"bad ground-truth file: '?{field}"):
            formats.read_ground_truth(path)

    @pytest.mark.parametrize("value", [7, True, None, "1", MISSING])
    def test_schema_version_must_be_1(self, tmp_path, value):
        path = tmp_path / "truth.json"
        formats.write_ground_truth(path, [GroundTruthFlaw(axial_position_m=1.0)])
        payload = json.loads(path.read_text())
        if value is MISSING:
            del payload["schema_version"]
        else:
            payload["schema_version"] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="bad ground-truth file: '?schema_version"):
            formats.read_ground_truth(path)

    def test_numeric_strings_coerced(self, tmp_path):
        path = tmp_path / "truth.json"
        path.write_text(json.dumps({"schema_version": 1, "flaws": [
            {"axial_m": "1.5", "extent_m": 2, "amplitude": "0.5"}
        ]}))
        (flaw,) = formats.read_ground_truth(path)
        # the omitted channel and spread_channels take the GroundTruthFlaw defaults
        assert flaw == GroundTruthFlaw(axial_position_m=1.5, axial_extent_m=2.0, amplitude=0.5)
        assert isinstance(flaw.axial_extent_m, float)

    @pytest.mark.parametrize("key", ["axial_m", "extent_m", "amplitude"])
    def test_required_key_missing_rejected(self, tmp_path, key):
        path = tmp_path / "truth.json"
        formats.write_ground_truth(path, [GroundTruthFlaw(axial_position_m=1.0)])
        payload = json.loads(path.read_text())
        del payload["flaws"][0][key]
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=f"bad ground-truth file: '{key}'"):
            formats.read_ground_truth(path)

    # these printed `list indices must be integers or slices, not str` or `'int' object is
    # not subscriptable`, naming no key, and a `flaws` of "" read as no flaws
    @pytest.mark.parametrize("payload, message", [
        ([1], "the top level must be a JSON object, not list"),
        ({"schema_version": 1, "flaws": 5}, "flaws must be a list of JSON objects"),
        ({"schema_version": 1, "flaws": [5]}, "flaws must be a list of JSON objects"),
        ({"schema_version": 1, "flaws": ""}, "flaws must be a list of JSON objects"),
    ])
    def test_misshapen_document_rejected_by_name(self, tmp_path, payload, message):
        path = tmp_path / "truth.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=f"bad ground-truth file: {message}$"):
            formats.read_ground_truth(path)


def detections_with(tmp_path, field, value):
    """A one-detection file with `field` set to `value`, or deleted when `value` is MISSING."""
    path = tmp_path / "dets.json"
    det = Detection(box=(1, 2, 3, 4), axial_position_m=0.4, score=0.5, segment_index=1,
                    axial_start_m=0.3, axial_end_m=0.5)
    formats.write_detections(path, "rec", 500.0, [det])
    payload = json.loads(path.read_text())
    holder = (payload if field in ("f_spatial", "schema_version", "detections")
              else payload["detections"][0])
    if value is MISSING:
        del holder[field]
    else:
        holder[field] = value
    path.write_text(json.dumps(payload))
    return path


class TestDetectionsJson:
    def test_roundtrip(self, tmp_path):
        dets = [
            Detection(box=(10, 20, 5, 9), axial_position_m=0.42, score=0.87,
                      segment_index=2, axial_start_m=0.40, axial_end_m=0.44),
            # 2**53 + 1 is the first int that a float cannot hold
            Detection(box=(1, 2**53 + 1, 3, 4), axial_position_m=0.4, score=0.5,
                      segment_index=2**53 + 1, axial_start_m=0.3, axial_end_m=0.5),
        ]
        path = tmp_path / "dets.json"
        formats.write_detections(path, "rec", 500.0, dets)
        f_spatial, back = formats.read_detections(path)
        assert f_spatial == 500.0
        assert back == dets

    def test_schema_version_present(self, tmp_path):
        path = tmp_path / "dets.json"
        formats.write_detections(path, "rec", 500.0, [])
        assert json.loads(path.read_text())["schema_version"] == 1

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "dets.json"
        path.write_text(json.dumps({"schema_version": 1}))
        with pytest.raises(FormatError):
            formats.read_detections(path)

    @pytest.mark.parametrize("field, value", [
        ("f_spatial", "abc"), ("axial_m", "x"), ("score", None), ("segment", "two"),
        ("box", ["a", 1, 2, 3]), ("axial_interval_m", ["x", 0.4]), ("axial_interval_m", 3),
    ])
    def test_wrongly_typed_field_rejected(self, tmp_path, field, value):
        with pytest.raises(FormatError, match=f"bad detections file: '?{field}"):
            formats.read_detections(detections_with(tmp_path, field, value))

    @pytest.mark.parametrize("field, value", [
        ("box", [1, 2, 3]), ("box", [1, 2, 3, 4, 5]), ("box", [1, 2, 3.5, 4]),
        ("axial_interval_m", [0.1, 0.2, 0.3]), ("axial_interval_m", [0.3, 0.1]),
        ("schema_version", 7), ("schema_version", True), ("schema_version", None),
        ("schema_version", MISSING),
        ("detections", 5), ("detections", [[1]]), ("detections", {}),
    ])
    def test_misshapen_field_rejected_by_name(self, tmp_path, field, value):
        with pytest.raises(FormatError, match=f"bad detections file: '?{field}"):
            formats.read_detections(detections_with(tmp_path, field, value))

    @pytest.mark.parametrize("text", ['"x"', "[]", "5"])
    def test_top_level_must_be_an_object(self, tmp_path, text):
        path = tmp_path / "dets.json"
        path.write_text(text)
        with pytest.raises(FormatError, match="bad detections file: the top level must be"):
            formats.read_detections(path)

    def test_empty_interval_accepted(self, tmp_path):
        det = Detection(box=(1, 2, 3, 3), axial_position_m=0.4, score=0.5, segment_index=1,
                        axial_start_m=0.4, axial_end_m=0.4)
        path = tmp_path / "dets.json"
        formats.write_detections(path, "rec", 500.0, [det])
        assert formats.read_detections(path) == (500.0, [det])
