"""Versioned JSON and binary containers for analysis products.

Each product (format version 2) is a header plus named stacked arrays:

- harmonics: header sample_rate, grid, flags, n_frames and n_components;
  arrays frequencies, amplitudes and phases, each (n_frames, n_components).
  Phase compensations are derived data: the reader rebuilds them from the
  phases with qhm.compensations_from_phases.
- cascade: header sample_rate, grid, flags, n_frames and orders (P, Q, r);
  arrays gain (n_frames,), ar (n_frames, r, P/r) and ma (n_frames, r, Q/r).

A JSON document is {"format": "quasivoc-<kind>", "version": 2, **header,
**arrays}, with the arrays as nested lists. A binary container
(little-endian) is a magic naming the kind, u32 version, u32 header-JSON
length, the header JSON, then each array in the order above as a u64
byte count and raw float64 values. Binary round trips are bit-exact; JSON
round trips are exact too (repr of a float64 round-trips in Python).
"""
from __future__ import annotations

import json
import math
import struct

import numpy as np

from .arma import ArmaCascade
from .qhm import F0Track, HarmonicSet, compensations_from_phases
from .signals import FrameGrid, QuasivocError

FORMAT_VERSION = 2
_MAGIC = {"harmonics": b"QVHS", "cascade": b"QVAC"}
_KIND_OF_MAGIC = {magic: kind for kind, magic in _MAGIC.items()}
_KIND_OF_FORMAT = {f"quasivoc-{kind}": kind for kind in _MAGIC}
_WRITER = {"harmonics": "analyze", "cascade": "fit-envelope"}


class SerializationError(QuasivocError):
    """Raised for malformed or mismatched containers."""


def _parts(product) -> tuple[str, dict, dict]:
    """The kind, header and arrays of a HarmonicSet or an ArmaCascade."""
    grid = product.grid
    header = {
        "sample_rate": product.sample_rate,
        "grid": {"centers": grid.centers.tolist(), "frame_shift": grid.frame_shift,
                 "half_window": grid.half_window, "window_kind": grid.window_kind,
                 "gauss_sigma": grid.gauss_sigma},
        "flags": product.flags.tolist(),
        "n_frames": product.n_frames,
    }
    if isinstance(product, HarmonicSet):
        header["n_components"] = product.n_components
        return "harmonics", header, {"frequencies": product.frequencies,
                                     "amplitudes": product.amplitudes, "phases": product.phases}
    header["orders"] = list(product.orders)
    return "cascade", header, {"gain": product.gain, "ar": product.ar, "ma": product.ma}


def _shapes(kind: str, header: dict) -> dict:
    """Each array's name and the shape the header declares for it."""
    n = header["n_frames"]
    if kind == "harmonics":
        shape = (n, header["n_components"])
        return {"frequencies": shape, "amplitudes": shape, "phases": shape}
    p, q, r = header["orders"]
    if not all(isinstance(x, int) for x in (p, q, r)) or r < 1 or p % r or q % r:
        raise SerializationError(f"cascade orders {p, q, r}: r must be >= 1 and divide P and Q")
    return {"gain": (n,), "ar": (n, r, p // r), "ma": (n, r, q // r)}


def _shaped(arr: np.ndarray, shape: tuple) -> np.ndarray:
    """arr in the shape a header declares: counts that are whole numbers and
    whose product is arr's size."""
    if not all(isinstance(n, int) and n >= 0 for n in shape) or arr.size != math.prod(shape):
        raise SerializationError(f"array of {arr.size} values does not fit shape {shape}")
    return arr.reshape(shape)


def _product(kind: str, header: dict, arrays: dict):
    """The product of a header and its arrays, each of its declared shape."""
    g = header["grid"]
    grid = FrameGrid(np.array(g["centers"], dtype=np.float64), g["frame_shift"],
                     g["half_window"], g["window_kind"], g["gauss_sigma"])
    rate, flags = header["sample_rate"], np.array(header["flags"], dtype=np.int64)
    if kind == "cascade":
        return ArmaCascade(grid, arrays["gain"], arrays["ar"], arrays["ma"], rate, flags)
    phases = arrays["phases"]
    hset = HarmonicSet(grid, arrays["frequencies"], arrays["amplitudes"], phases,
                       np.zeros_like(phases), rate, flags)
    hset.compensations = compensations_from_phases(grid, hset.frequencies, hset.phases)
    return hset


def _check_version(version, kind: str):
    if version == 1:
        raise SerializationError(f"a version-1 {kind} file is no longer read: re-run"
                                 f" `quasivoc {_WRITER[kind]}` to write version {FORMAT_VERSION}")
    if version != FORMAT_VERSION:
        raise SerializationError(f"unsupported version: {version!r}")


def _reader(read):
    """read, raising every error of a malformed input as a SerializationError."""
    def checked(data, kind=None):
        try:
            return read(data, kind)
        except SerializationError:
            raise
        except (QuasivocError, KeyError, TypeError, ValueError, OverflowError) as exc:
            what = f"no field {exc}" if isinstance(exc, KeyError) else exc
            raise SerializationError(f"malformed product: {what}") from None
    return checked


def _json_text(kind: str, header: dict, arrays: dict) -> str:
    return json.dumps({"format": f"quasivoc-{kind}", "version": FORMAT_VERSION, **header,
                       **{name: arr.tolist() for name, arr in arrays.items()}})


@_reader
def _from_json(text, kind):
    """The product in a JSON document (str or bytes), of the given kind if one is given."""
    doc = json.loads(text)
    found = _KIND_OF_FORMAT.get(doc.get("format")) if isinstance(doc, dict) else None
    if found is None or kind not in (None, found):
        raise SerializationError(f"not a {kind or 'quasivoc product'} document")
    _check_version(doc.get("version"), found)
    arrays = {}
    for name, shape in _shapes(found, doc).items():
        arr = np.array(doc[name], dtype=np.float64)
        if arr.size and arr.shape != shape:    # [] stands for any empty shape
            raise SerializationError(f"{name} of shape {arr.shape} does not fit {shape}")
        arrays[name] = _shaped(arr, shape)
    return _product(found, doc, arrays)


def _container(kind: str, header: dict, arrays: dict) -> bytes:
    hdr = json.dumps(header).encode()
    parts = [_MAGIC[kind], struct.pack("<II", FORMAT_VERSION, len(hdr)), hdr]
    for arr in arrays.values():
        raw = np.ascontiguousarray(arr, dtype=np.float64).tobytes()
        parts += [struct.pack("<Q", len(raw)), raw]
    return b"".join(parts)


@_reader
def _from_bytes(data, kind):
    """The product in a binary container, of the given kind if one is given;
    every length field is checked before it is used."""
    found = _KIND_OF_MAGIC.get(data[:4])
    if found is None or kind not in (None, found):
        raise SerializationError("bad magic")
    if len(data) < 12:
        raise SerializationError("truncated container header")
    version, hdr_len = struct.unpack_from("<II", data, 4)
    _check_version(version, found)
    off = 12 + hdr_len
    if off > len(data):
        raise SerializationError("truncated container header")
    header = json.loads(data[12:off])
    if not isinstance(header, dict):
        raise SerializationError("container header is not a JSON object")
    arrays = {}
    for name, shape in _shapes(found, header).items():
        if off + 8 > len(data):
            raise SerializationError("truncated container: missing array length")
        (nbytes,) = struct.unpack_from("<Q", data, off)
        off += 8
        if nbytes % 8 or off + nbytes > len(data):
            raise SerializationError("truncated container: array payload")
        arrays[name] = _shaped(np.frombuffer(data[off:off + nbytes], dtype=np.float64).copy(),
                               shape)
        off += nbytes
    return _product(found, header, arrays)


def encode(product, binary: bool) -> bytes:
    """A HarmonicSet or an ArmaCascade as a binary container, or else as the
    ASCII text of a JSON document."""
    parts = _parts(product)
    return _container(*parts) if binary else _json_text(*parts).encode()


def decode(data: bytes):
    """The product in a file's bytes: a binary container, told by its magic,
    or else a JSON document, told by its format field."""
    return _from_bytes(data) if data[:4] in _KIND_OF_MAGIC else _from_json(data)


def harmonics_to_json(hset: HarmonicSet) -> str:
    return _json_text(*_parts(hset))


def harmonics_from_json(text: str) -> HarmonicSet:
    return _from_json(text, "harmonics")


def harmonics_to_bytes(hset: HarmonicSet) -> bytes:
    return _container(*_parts(hset))


def harmonics_from_bytes(data: bytes) -> HarmonicSet:
    return _from_bytes(data, "harmonics")


def cascade_to_json(cascade: ArmaCascade) -> str:
    return _json_text(*_parts(cascade))


def cascade_from_json(text: str) -> ArmaCascade:
    return _from_json(text, "cascade")


def cascade_to_bytes(cascade: ArmaCascade) -> bytes:
    return _container(*_parts(cascade))


def cascade_from_bytes(data: bytes) -> ArmaCascade:
    return _from_bytes(data, "cascade")


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
