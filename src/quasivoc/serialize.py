"""Versioned JSON and binary containers for analysis products.

Binary layout (little-endian): magic, u32 version, u32 header-JSON
length, header JSON bytes, then raw float64 arrays in a fixed order.
Binary round trips are bit-exact; JSON round trips are exact for values
representable in decimal (repr round-trip of float64 is exact in Python).
"""
from __future__ import annotations

import json
import math
import struct

import numpy as np

from .arma import ArmaCascade, EnvelopeError
from .qhm import AnalysisError, F0Track, HarmonicSet
from .signals import FrameGrid, QuasivocError

HARMONICS_MAGIC = b"QVHS"
CASCADE_MAGIC = b"QVAC"
FORMAT_VERSION = 1


class SerializationError(QuasivocError):
    """Raised for malformed or mismatched containers."""


def _grid_meta(grid: FrameGrid) -> dict:
    return {
        "centers": grid.centers.tolist(),
        "frame_shift": grid.frame_shift,
        "half_window": grid.half_window,
        "window_kind": grid.window_kind,
        "gauss_sigma": grid.gauss_sigma,
    }


def _grid_from_meta(meta: dict) -> FrameGrid:
    return FrameGrid(np.array(meta["centers"]), meta["frame_shift"],
                     meta["half_window"], meta["window_kind"], meta["gauss_sigma"])


# --- HarmonicSet -----------------------------------------------------------

def harmonics_to_json(hset: HarmonicSet) -> str:
    doc = {
        "format": "quasivoc-harmonics",
        "version": FORMAT_VERSION,
        "sample_rate": hset.sample_rate,
        "grid": _grid_meta(hset.grid),
        "frequencies": hset.frequencies.tolist(),
        "amplitudes": hset.amplitudes.tolist(),
        "phases": hset.phases.tolist(),
        "compensations": hset.compensations.tolist(),
        "flags": hset.flags.tolist(),
    }
    return json.dumps(doc)


def _document(text: str, kind: str) -> dict:
    """The JSON object of a `kind` product, with its format and version checked."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("format") != f"quasivoc-{kind}":
        raise SerializationError(f"not a {kind} document")
    if doc.get("version") != FORMAT_VERSION:
        raise SerializationError(f"unsupported version: {doc.get('version')}")
    return doc


def _harmonics(grid: FrameGrid, arrays: list, sample_rate, flags) -> HarmonicSet:
    """A HarmonicSet of four (frames, K) arrays."""
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    if any(a.ndim != 2 for a in arrays):
        raise SerializationError("harmonic arrays must be (frames, K)")
    try:
        return HarmonicSet(grid, *arrays, sample_rate, np.array(flags, dtype=np.int64))
    except AnalysisError as exc:
        raise SerializationError(f"invalid harmonics: {exc}") from None


def harmonics_from_json(text: str) -> HarmonicSet:
    doc = _document(text, "harmonics")
    return _harmonics(_grid_from_meta(doc["grid"]),
                      [doc[key] for key in ("frequencies", "amplitudes", "phases", "compensations")],
                      doc["sample_rate"], doc["flags"])


def _pack_container(magic: bytes, header: dict, arrays: list[np.ndarray]) -> bytes:
    hdr = json.dumps(header).encode()
    parts = [magic, struct.pack("<II", FORMAT_VERSION, len(hdr)), hdr]
    for arr in arrays:
        raw = np.ascontiguousarray(arr, dtype=np.float64).tobytes()
        parts.append(struct.pack("<Q", len(raw)))
        parts.append(raw)
    return b"".join(parts)


def _unpack_container(data: bytes, magic: bytes, n_arrays: int):
    """Header dict and float64 arrays; every length field is checked first."""
    if data[:4] != magic:
        raise SerializationError("bad magic")
    if len(data) < 12:
        raise SerializationError("truncated container header")
    version, hdr_len = struct.unpack_from("<II", data, 4)
    if version != FORMAT_VERSION:
        raise SerializationError(f"unsupported version: {version}")
    off = 12 + hdr_len
    if off > len(data):
        raise SerializationError("truncated container header")
    header = json.loads(data[12:off].decode())
    if not isinstance(header, dict):
        raise SerializationError("container header is not a JSON object")
    arrays = []
    for _ in range(n_arrays):
        if off + 8 > len(data):
            raise SerializationError("truncated container: missing array length")
        (nbytes,) = struct.unpack_from("<Q", data, off)
        off += 8
        if nbytes % 8 or off + nbytes > len(data):
            raise SerializationError("truncated container: array payload")
        arrays.append(np.frombuffer(data[off:off + nbytes], dtype=np.float64).copy())
        off += nbytes
    return header, arrays


def _shaped(arr: np.ndarray, shape: tuple) -> np.ndarray:
    """arr in the shape a header declares: counts that are whole numbers and
    whose product is arr's size."""
    if not all(isinstance(n, int) and n >= 0 for n in shape) or arr.size != math.prod(shape):
        raise SerializationError(f"array of {arr.size} values does not fit shape {shape}")
    return arr.reshape(shape)


def harmonics_to_bytes(hset: HarmonicSet) -> bytes:
    header = {
        "sample_rate": hset.sample_rate,
        "n_frames": hset.n_frames,
        "n_components": hset.n_components,
        "grid": _grid_meta(hset.grid),
        "flags": hset.flags.tolist(),
    }
    arrays = [hset.frequencies, hset.amplitudes, hset.phases, hset.compensations]
    return _pack_container(HARMONICS_MAGIC, header, arrays)


def harmonics_from_bytes(data: bytes) -> HarmonicSet:
    header, arrays = _unpack_container(data, HARMONICS_MAGIC, 4)
    shape = (header["n_frames"], header["n_components"])
    return _harmonics(_grid_from_meta(header["grid"]), [_shaped(a, shape) for a in arrays],
                      header["sample_rate"], header["flags"])


# --- ArmaCascade -----------------------------------------------------------

def cascade_to_json(cascade: ArmaCascade) -> str:
    doc = {
        "format": "quasivoc-cascade",
        "version": FORMAT_VERSION,
        "sample_rate": cascade.sample_rate,
        "orders": list(cascade.orders),
        "grid": _grid_meta(cascade.grid),
        "flags": cascade.flags.tolist(),
        "frames": [
            {"gain": g, "sections": [{"ar": a, "ma": b} for a, b in zip(ar, ma)]}
            for g, ar, ma in zip(cascade.gain.tolist(), cascade.ar.tolist(),
                                 cascade.ma.tolist())
        ],
    }
    return json.dumps(doc)


def _section_shapes(orders) -> tuple:
    """(r, P/r, Q/r) of a product's declared (P, Q, r)."""
    p, q, r = orders
    if r < 1 or p % r or q % r:
        raise SerializationError(f"cascade orders {p, q, r}: r must be >= 1 and divide P and Q")
    return r, p // r, q // r


def _cascade(grid, gain, ar, ma, sample_rate, flags) -> ArmaCascade:
    try:
        return ArmaCascade(grid, gain, ar, ma, sample_rate, np.array(flags, dtype=np.int64))
    except EnvelopeError as exc:
        raise SerializationError(f"invalid cascade: {exc}") from None


def _floats(values: list, shape: tuple) -> np.ndarray:
    """Nested JSON numbers as a float64 array of the given shape."""
    try:
        arr = np.array(values, dtype=np.float64)
    except (TypeError, ValueError):   # ragged, or not numbers
        arr = None
    if arr is None or (values and arr.shape != shape):
        raise SerializationError(f"cascade frames do not fit shape {shape}")
    return arr.reshape(shape)


def cascade_from_json(text: str) -> ArmaCascade:
    doc = _document(text, "cascade")
    r, p, q = _section_shapes(doc["orders"])
    frames = doc["frames"]
    L = len(frames)
    gain = _floats([fr["gain"] for fr in frames], (L,))
    ar, ma = (_floats([[s[key] for s in fr["sections"]] for fr in frames], (L, r, n))
              for key, n in (("ar", p), ("ma", q)))
    return _cascade(_grid_from_meta(doc["grid"]), gain, ar, ma, doc["sample_rate"], doc["flags"])


def cascade_to_bytes(cascade: ArmaCascade) -> bytes:
    p, q, r = cascade.orders
    header = {
        "sample_rate": cascade.sample_rate,
        "orders": [p, q, r],
        "n_frames": cascade.n_frames,
        "grid": _grid_meta(cascade.grid),
        "flags": cascade.flags.tolist(),
    }
    return _pack_container(CASCADE_MAGIC, header, [cascade.gain, cascade.ar, cascade.ma])


def cascade_from_bytes(data: bytes) -> ArmaCascade:
    header, arrays = _unpack_container(data, CASCADE_MAGIC, 3)
    r, p, q = _section_shapes(header["orders"])
    n = header["n_frames"]
    return _cascade(_grid_from_meta(header["grid"]), _shaped(arrays[0], (n,)),
                    _shaped(arrays[1], (n, r, p)), _shaped(arrays[2], (n, r, q)),
                    header["sample_rate"], header["flags"])


# --- F0 tracks (CSV sidecar) ----------------------------------------------

def f0_to_csv(track: F0Track) -> str:
    lines = ["time,f0"]
    for t, v in zip(track.grid.centers, track.values):
        lines.append(f"{float(t)!r},{float(v)!r}")
    return "\n".join(lines) + "\n"


def f0_from_csv(text: str, grid: FrameGrid) -> F0Track:
    """The track in a CSV of (time, f0) rows, put on grid: one row per frame
    of grid, with finite, strictly increasing times. Bad rows raise ValueError."""
    times, values = [], []
    for line in text.strip().splitlines()[1:]:
        t, v = line.split(",")
        times.append(float(t))
        values.append(float(v))
    times = np.array(times)
    if not np.all(np.isfinite(times)) or np.any(times[1:] <= times[:-1]):
        raise ValueError("times must be finite and strictly increasing")
    if len(values) != len(grid):
        raise ValueError(f"{len(values)} frames, but the frame grid has {len(grid)}")
    return F0Track(grid, np.array(values))
