"""JSON/binary container round trips and format validation."""
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quasivoc.arma import ArmaCascade
from quasivoc.qhm import AnalysisError, F0Track, HarmonicSet
from quasivoc.serialize import (SerializationError, cascade_from_bytes,
                                cascade_from_json, cascade_to_bytes,
                                cascade_to_json, f0_from_csv, f0_to_csv,
                                harmonics_from_bytes, harmonics_from_json,
                                harmonics_to_bytes, harmonics_to_json)
from quasivoc.signals import make_grid

FS = 24000


def _sample_hset():
    rng = np.random.default_rng(0)
    grid = make_grid(0.02, 0.005, 0.010)
    L, K = len(grid), 4
    return HarmonicSet(grid, rng.uniform(50, 5000, (L, K)),
                       rng.uniform(0, 1, (L, K)),
                       rng.uniform(-np.pi, np.pi, (L, K)),
                       rng.uniform(-np.pi, np.pi, (L, K)), FS,
                       np.array([0, 1, 0, 2, 0], dtype=np.int64))


def _sample_cascade():
    rng = np.random.default_rng(1)
    grid = make_grid(0.01, 0.005, 0.010)
    L = len(grid)
    return ArmaCascade(grid, np.exp(rng.uniform(-1, 1, L)), rng.uniform(-0.4, 0.4, (L, 2, 4)),
                       rng.uniform(-0.4, 0.4, (L, 2, 4)), FS, np.zeros(L, dtype=np.int64))


def _assert_hsets_equal(a: HarmonicSet, b: HarmonicSet):
    np.testing.assert_array_equal(a.frequencies, b.frequencies)
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
    np.testing.assert_array_equal(a.phases, b.phases)
    np.testing.assert_array_equal(a.compensations, b.compensations)
    np.testing.assert_array_equal(a.flags, b.flags)
    np.testing.assert_array_equal(a.grid.centers, b.grid.centers)
    assert a.sample_rate == b.sample_rate


def _assert_cascades_equal(a: ArmaCascade, b: ArmaCascade):
    assert a.orders == b.orders and a.sample_rate == b.sample_rate
    np.testing.assert_array_equal(a.flags, b.flags)
    np.testing.assert_array_equal(a.grid.centers, b.grid.centers)
    for name in ("gain", "ar", "ma"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_harmonics_json_round_trip():
    hset = _sample_hset()
    _assert_hsets_equal(harmonics_from_json(harmonics_to_json(hset)), hset)


def test_harmonics_binary_round_trip_bit_exact():
    hset = _sample_hset()
    blob = harmonics_to_bytes(hset)
    assert harmonics_to_bytes(hset) == blob  # deterministic bytes
    back = harmonics_from_bytes(blob)
    _assert_hsets_equal(back, hset)
    assert harmonics_to_bytes(back) == blob


def test_cascade_json_round_trip():
    cascade = _sample_cascade()
    _assert_cascades_equal(cascade_from_json(cascade_to_json(cascade)), cascade)


def test_cascade_binary_round_trip_bit_exact():
    cascade = _sample_cascade()
    blob = cascade_to_bytes(cascade)
    back = cascade_from_bytes(blob)
    _assert_cascades_equal(back, cascade)
    assert cascade_to_bytes(back) == blob


def test_json_binary_agree():
    hset = _sample_hset()
    via_json = harmonics_from_json(harmonics_to_json(hset))
    via_bin = harmonics_from_bytes(harmonics_to_bytes(hset))
    _assert_hsets_equal(via_json, via_bin)


def test_container_validation():
    hset = _sample_hset()
    blob = harmonics_to_bytes(hset)
    with pytest.raises(SerializationError):
        harmonics_from_bytes(b"XXXX" + blob[4:])
    bad_version = blob[:4] + b"\x63\x00\x00\x00" + blob[8:]
    with pytest.raises(SerializationError):
        harmonics_from_bytes(bad_version)
    with pytest.raises(SerializationError):
        harmonics_from_json('{"format": "something-else"}')
    with pytest.raises(SerializationError):
        cascade_from_json(harmonics_to_json(hset))
    for text in ("[1, 2]", "3", '"quasivoc-cascade"', "null"):   # top level not an object
        for read in (harmonics_from_json, cascade_from_json):
            with pytest.raises(SerializationError):
                read(text)
        for data, read in ((blob, harmonics_from_bytes),
                           (cascade_to_bytes(_sample_cascade()), cascade_from_bytes)):
            hdr_len = int.from_bytes(data[8:12], "little")
            raw = text.encode()
            with pytest.raises(SerializationError):
                read(data[:8] + len(raw).to_bytes(4, "little") + raw + data[12 + hdr_len:])
    with pytest.raises(SerializationError):
        cascade_from_bytes(blob)  # harmonics magic under the cascade reader
    doc = json.loads(cascade_to_json(_sample_cascade()))
    doc["frames"][2]["sections"].pop()       # one section short of r
    with pytest.raises(SerializationError):
        cascade_from_json(json.dumps(doc))
    doc = json.loads(cascade_to_json(_sample_cascade()))
    doc["frames"][0]["sections"][1]["ma"].append(0.0)   # five MA taps, not four
    with pytest.raises(SerializationError):
        cascade_from_json(json.dumps(doc))
    doc = json.loads(cascade_to_json(_sample_cascade()))
    doc["orders"] = [8, 8, 3]                # r must divide P and Q
    with pytest.raises(SerializationError):
        cascade_from_json(json.dumps(doc))
    for orders in ([4, 4, 1], [0, 0, 0]):    # sections of the wrong shape; no section
        doc["orders"] = orders
        with pytest.raises(SerializationError):
            cascade_from_json(json.dumps(doc))
    doc = json.loads(cascade_to_json(_sample_cascade()))
    doc["frames"][1]["gain"] = 0.0           # gains must be positive
    with pytest.raises(SerializationError):
        cascade_from_json(json.dumps(doc))
    doc["frames"][1]["gain"] = "loud"        # and numbers
    with pytest.raises(SerializationError):
        cascade_from_json(json.dumps(doc))
    for data, key, value, read in (
            (blob, "n_frames", 6, harmonics_from_bytes),   # arrays hold 5 frames
            (blob, "n_frames", 1e308, harmonics_from_bytes),
            (blob, "n_frames", 5.0, harmonics_from_bytes),
            (blob, "sample_rate", -24000, harmonics_from_bytes),
            (blob, "sample_rate", 1e30, harmonics_from_bytes),
            (blob, "sample_rate", 24000.0, harmonics_from_bytes),
            (cascade_to_bytes(_sample_cascade()), "sample_rate", 0, cascade_from_bytes),
            (cascade_to_bytes(_sample_cascade()), "n_frames", -5, cascade_from_bytes),
            (cascade_to_bytes(_sample_cascade()), "orders", [0, 0, 0], cascade_from_bytes),
            (cascade_to_bytes(_sample_cascade()), "orders", [8, 8, 3], cascade_from_bytes)):
        hdr_len = int.from_bytes(data[8:12], "little")
        header = json.loads(data[12:12 + hdr_len])
        header[key] = value
        raw = json.dumps(header).encode()
        with pytest.raises(SerializationError):
            read(data[:8] + len(raw).to_bytes(4, "little") + raw + data[12 + hdr_len:])


_HSET_BLOB = harmonics_to_bytes(_sample_hset())
_CASCADE_BLOB = cascade_to_bytes(_sample_cascade())


@given(st.integers(0, len(_HSET_BLOB) - 1), st.integers(0, len(_CASCADE_BLOB) - 1))
@example(len(_HSET_BLOB) - 13, len(_CASCADE_BLOB) - 13)   # inside the last array
@example(10, 10)                                          # inside the fixed header
@settings(max_examples=60, deadline=None)
def test_truncated_containers_raise(h_keep, c_keep):
    """Any cut, in the header or inside an array, is a SerializationError."""
    with pytest.raises(SerializationError):
        harmonics_from_bytes(_HSET_BLOB[:h_keep])
    with pytest.raises(SerializationError):
        cascade_from_bytes(_CASCADE_BLOB[:c_keep])


def test_f0_csv_round_trip():
    grid = make_grid(0.02, 0.005, 0.010)
    track = F0Track(grid, np.array([0.0, 123.456, 99.9999999, 0.0, 87.1]))
    back = f0_from_csv(f0_to_csv(track), grid)
    np.testing.assert_array_equal(back.values, track.values)
    assert back.grid is grid


@pytest.mark.parametrize("rows, match", [
    ("0.0,150\n0.005,150\n", "2 frames, but the frame grid has 3"),
    ("0.0,150\n0.01,150\n0.005,150\n", "strictly increasing"),
    ("0.0,150\n0.005\n0.01,150\n", None),
    ("0.0,150\n0.005,abc\n0.01,150\n", None),
    ("0.0,150\n0.005,-150\n0.01,150\n", "finite and nonnegative"),
    ("0.0,150\n0.005,nan\n0.01,150\n", "finite and nonnegative"),
    ("0.0,150\nnan,150\n0.01,150\n", "finite and strictly increasing"),
    ("0.0,150\n0.005,150\ninf,150\n", "finite and strictly increasing"),
])
def test_f0_csv_rejects(rows, match):
    """A bad row, non-finite times, times out of order, a negative or
    non-finite F0 and a row count other than the grid's frame count all
    raise. NaN compares false, so the ordering check alone passes it."""
    with pytest.raises((ValueError, AnalysisError), match=match):
        f0_from_csv("time,f0\n" + rows, make_grid(0.01, 0.005, 0.010))
