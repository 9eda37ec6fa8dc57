"""File formats: record CSV/binary, PGM debug dumps, ground-truth and
detection JSON."""

from __future__ import annotations

import json
import math
import struct
from array import array
from pathlib import Path

import numpy as np

from .errors import FormatError
from .ingest import MflRecord, normalize
from .localize import Detection
from .synth import GroundTruthFlaw

MAGIC = b"MFL1"
SCHEMA_VERSION = 1

# (text, test) of the range rule of a JSON number, which must also be finite
FINITE = ("finite", lambda x: True)
POSITIVE = ("finite and > 0", lambda x: x > 0)
NON_NEGATIVE = ("finite and >= 0", lambda x: x >= 0)

# truth-file key -> (GroundTruthFlaw field, required, range), in the order a truth file lists them
TRUTH_KEYS = {
    "axial_m": ("axial_position_m", True, FINITE),
    "extent_m": ("axial_extent_m", True, NON_NEGATIVE),
    "channel": ("radial_center_channel", False, FINITE),
    "spread_channels": ("radial_spread_channels", False, FINITE),
    "amplitude": ("amplitude", True, FINITE),
}


def _number(key: str, value, rule=FINITE) -> float:
    """`value` of JSON key `key` as a finite float within `rule`, or a ValueError naming it."""
    if isinstance(value, bool):  # float(True) is 1.0, but a JSON `true` is not a number
        raise ValueError(f"{key} must be a number, not {value!r}")
    number = float(value)
    text, test = rule
    if not (math.isfinite(number) and test(number)):
        raise ValueError(f"{key} must be {text}, not {value!r}")
    return number


def _int(key: str, value) -> int:
    """`value` of JSON key `key` as an int; a number with a fraction is a ValueError naming it."""
    number = _number(key, value)
    if not number.is_integer():
        raise ValueError(f"{key} must be a whole number, not {value!r}")
    return int(number)


def _numbers(key: str, values, count: int, convert) -> tuple:
    """The `count` entries of JSON key `key`'s list, each through `convert`, or a ValueError."""
    if not isinstance(values, list) or len(values) != count:
        raise ValueError(f"{key} must be a list of {count} numbers, not {values!r}")
    return tuple(convert(key, value) for value in values)


def _check_version(payload) -> None:
    """A KeyError or ValueError unless the JSON `payload` has `schema_version` the int 1."""
    version = payload["schema_version"]
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"schema_version must be {SCHEMA_VERSION}, not {version!r}")


def json_document(**fields) -> str:
    """Every JSON output: `schema_version` first, then `fields`; indent 2, a final newline."""
    return json.dumps({"schema_version": SCHEMA_VERSION, **fields}, indent=2) + "\n"


def read_text(path: Path) -> str:
    """The text of an input file; one that cannot be read or decoded is a FormatError."""
    try:
        return path.read_text()
    except (OSError, ValueError) as exc:
        raise FormatError(f"{path}: cannot read: {getattr(exc, 'strerror', None) or exc}") from exc


def write_record_binary(path: Path | str, record: MflRecord):
    """magic 'MFL1', u32 M, u32 N, f64 fs, f64 v, then M*N f64 row-major."""
    samples = np.ascontiguousarray(record.samples, dtype="<f8")
    m, n = samples.shape
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IIdd", m, n, record.sampling_rate_hz, record.inspection_speed_mps))
        fh.write(samples.tobytes())


def read_record_binary(path: Path | str) -> MflRecord:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 4 + 24 or raw[:4] != MAGIC:
        raise FormatError(f"{path}: not an MFL1 record")
    m, n, fs, v = struct.unpack_from("<IIdd", raw, 4)
    expected = 4 + 24 + 8 * m * n
    if len(raw) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, found {len(raw)}")
    samples = np.frombuffer(raw, dtype="<f8", offset=28).reshape(m, n)
    try:
        return MflRecord(samples, fs, v, label=path.stem)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_record_csv(path: Path | str, record: MflRecord):
    with open(path, "w") as fh:
        fh.write(
            f"# sampling_rate_hz={record.sampling_rate_hz}, "
            f"speed_mps={record.inspection_speed_mps}, "
            f"channels={record.channel_count}\n"
        )
        for row in record.samples:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_record_csv(path: Path | str) -> MflRecord:
    path = Path(path)
    with open(path, errors="replace") as fh:  # stray bytes then fail to parse
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise FormatError(f"{path}:1: missing metadata header")
        meta = {}
        for part in header.lstrip("#").split(","):
            if "=" not in part:
                raise FormatError(f"{path}:1: malformed header field {part!r}")
            key, value = part.split("=", 1)
            meta[key.strip()] = value.strip()
        try:
            fs = float(meta["sampling_rate_hz"])
            v = float(meta["speed_mps"])
            n = int(meta["channels"])
        except (KeyError, ValueError) as exc:
            raise FormatError(f"{path}:1: bad header: {exc}") from exc
        samples = array("d")  # grows in place: the samples are held once
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            values = line.split(",")
            if len(values) != n:
                raise FormatError(
                    f"{path}:{lineno}: expected {n} values, found {len(values)}"
                )
            try:
                samples.extend(map(float, values))
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
    if not samples:
        raise FormatError(f"{path}: no sample rows")
    try:
        return MflRecord(np.frombuffer(samples).reshape(-1, n), fs, v, label=path.stem)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def read_record(path: Path | str) -> MflRecord:
    """Dispatch on the magic bytes: binary MFL1 or headered CSV."""
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            magic = fh.read(4)
    except OSError as exc:
        raise FormatError(f"{path}: cannot read: {exc.strerror}") from exc
    if magic == MAGIC:
        return read_record_binary(path)
    return read_record_csv(path)


def write_pgm(path: Path | str, image: np.ndarray):
    """8-bit binary PGM: `normalize` maps the image's [min, max] to [0, 255]
    (a flat image to 128)."""
    pixels = np.round(127.5 * (normalize(image) + 1.0)).astype(np.uint8)
    h, w = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def write_ground_truth(path: Path | str, flaws: list[GroundTruthFlaw]):
    Path(path).write_text(json_document(
        flaws=[{key: getattr(flaw, field) for key, (field, *_) in TRUTH_KEYS.items()}
               for flaw in flaws],
    ))


def read_ground_truth(path: Path | str) -> list[GroundTruthFlaw]:
    """The flaws of a truth file; an omitted optional key takes the `GroundTruthFlaw` default."""
    path = Path(path)
    try:
        payload = json.loads(read_text(path))
        _check_version(payload)
        return [
            GroundTruthFlaw(**{field: _number(key, entry[key], rule)
                               for key, (field, required, rule) in TRUTH_KEYS.items()
                               if required or key in entry})
            for entry in payload["flaws"]
        ]
    except (ValueError, OverflowError, RecursionError, KeyError, TypeError) as exc:
        raise FormatError(f"{path}: bad ground-truth file: {exc}") from exc


def write_detections(
    path: Path | str, record_label: str, f_spatial: float, detections: list[Detection]
):
    Path(path).write_text(json_document(
        record=record_label,
        f_spatial=f_spatial,
        detections=[
            {
                "segment": det.segment_index,
                "box": list(det.box),
                "axial_m": det.axial_position_m,
                "axial_interval_m": [det.axial_start_m, det.axial_end_m],
                "score": det.score,
            }
            for det in detections
        ],
    ))


def read_detections(path: Path | str) -> tuple[float, list[Detection]]:
    path = Path(path)
    try:
        payload = json.loads(read_text(path))
        _check_version(payload)
        detections = []
        for entry in payload["detections"]:
            start, end = _numbers("axial_interval_m", entry["axial_interval_m"], 2, _number)
            if start > end:
                raise ValueError(f"axial_interval_m must not end before it starts: {[start, end]}")
            detections.append(Detection(
                box=_numbers("box", entry["box"], 4, _int),
                axial_position_m=_number("axial_m", entry["axial_m"]),
                score=_number("score", entry["score"]),
                segment_index=_int("segment", entry["segment"]),
                axial_start_m=start,
                axial_end_m=end,
            ))
        return _number("f_spatial", payload["f_spatial"], POSITIVE), detections
    except (ValueError, OverflowError, RecursionError, KeyError, TypeError) as exc:
        raise FormatError(f"{path}: bad detections file: {exc}") from exc
