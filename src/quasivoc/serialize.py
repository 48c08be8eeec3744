"""Versioned JSON and binary containers for analysis products.

Binary layout (little-endian): magic, u32 version, u32 header-JSON
length, header JSON bytes, then raw float64 arrays in a fixed order.
Binary round trips are bit-exact; JSON round trips are exact for values
representable in decimal (repr round-trip of float64 is exact in Python).
"""
from __future__ import annotations

import json
import struct

import numpy as np

from .arma import ArmaCascade, ArmaSection, CascadeFrame, EnvelopeError
from .qhm import F0Track, HarmonicSet
from .signals import FrameGrid

HARMONICS_MAGIC = b"QVHS"
CASCADE_MAGIC = b"QVAC"
FORMAT_VERSION = 1


class SerializationError(Exception):
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


def harmonics_from_json(text: str) -> HarmonicSet:
    doc = _document(text, "harmonics")
    return HarmonicSet(_grid_from_meta(doc["grid"]),
                       np.array(doc["frequencies"]), np.array(doc["amplitudes"]),
                       np.array(doc["phases"]), np.array(doc["compensations"]),
                       int(doc["sample_rate"]), np.array(doc["flags"], dtype=np.int64))


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
    if arr.size != int(np.prod(shape)):
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
    freqs, amps, phases, comp = (_shaped(a, shape) for a in arrays)
    return HarmonicSet(_grid_from_meta(header["grid"]), freqs, amps, phases, comp,
                       int(header["sample_rate"]),
                       np.array(header["flags"], dtype=np.int64))


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
            {
                "gain": fr.gain,
                "sections": [{"ar": s.ar.tolist(), "ma": s.ma.tolist()}
                             for s in fr.sections],
            }
            for fr in cascade.frames
        ],
    }
    return json.dumps(doc)


def cascade_from_json(text: str) -> ArmaCascade:
    doc = _document(text, "cascade")
    try:
        frames = [
            CascadeFrame(fr["gain"],
                         [ArmaSection(np.array(s["ar"]), np.array(s["ma"]))
                          for s in fr["sections"]])
            for fr in doc["frames"]
        ]
        cascade = ArmaCascade(_grid_from_meta(doc["grid"]), frames, tuple(doc["orders"]),
                              int(doc["sample_rate"]), np.array(doc["flags"], dtype=np.int64))
    except EnvelopeError as exc:
        raise SerializationError(f"invalid cascade: {exc}") from None
    p, q, r = cascade.orders
    for fr in frames:
        if len(fr.sections) != r or any(s.ar.shape != (p // r,) or s.ma.shape != (q // r,)
                                        for s in fr.sections):
            raise SerializationError("cascade frame sections disagree with the orders")
    return cascade


def cascade_to_bytes(cascade: ArmaCascade) -> bytes:
    p, q, r = cascade.orders
    header = {
        "sample_rate": cascade.sample_rate,
        "orders": [p, q, r],
        "n_frames": cascade.n_frames,
        "grid": _grid_meta(cascade.grid),
        "flags": cascade.flags.tolist(),
    }
    gains = np.array([fr.gain for fr in cascade.frames])
    ar = np.array([[s.ar for s in fr.sections] for fr in cascade.frames])
    ma = np.array([[s.ma for s in fr.sections] for fr in cascade.frames])
    return _pack_container(CASCADE_MAGIC, header, [gains, ar, ma])


def cascade_from_bytes(data: bytes) -> ArmaCascade:
    header, arrays = _unpack_container(data, CASCADE_MAGIC, 3)
    p, q, r = header["orders"]
    if r < 1:
        raise SerializationError(f"cascade needs at least one section, got orders {p, q, r}")
    n = header["n_frames"]
    gains = _shaped(arrays[0], (n,))
    ar = _shaped(arrays[1], (n, r, p // r))
    ma = _shaped(arrays[2], (n, r, q // r))
    frames = [
        CascadeFrame(float(gains[l]),
                     [ArmaSection(ar[l, j], ma[l, j]) for j in range(r)])
        for l in range(n)
    ]
    return ArmaCascade(_grid_from_meta(header["grid"]), frames, (p, q, r),
                       int(header["sample_rate"]),
                       np.array(header["flags"], dtype=np.int64))


# --- F0 tracks (CSV sidecar) ----------------------------------------------

def f0_to_csv(track: F0Track) -> str:
    lines = ["time,f0"]
    for t, v in zip(track.grid.centers, track.values):
        lines.append(f"{float(t)!r},{float(v)!r}")
    return "\n".join(lines) + "\n"


def f0_from_csv(text: str, frame_shift: float, half_window: float,
                window_kind: str = "hann") -> F0Track:
    times, values = [], []
    for line in text.strip().splitlines()[1:]:
        t, v = line.split(",")
        times.append(float(t))
        values.append(float(v))
    grid = FrameGrid(np.array(times), frame_shift, half_window, window_kind)
    return F0Track(grid, np.array(values))
