"""Shared fixtures: expensive synthetic signals built once per session."""
import io
import os
import struct

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from scipy.interpolate import PchipInterpolator
from scipy.io import wavfile
from scipy.signal import lfilter

from quasivoc import fixtures
from quasivoc.arma import ArmaCascade, ArmaSection, CascadeFrame, project_stable
from quasivoc.signals import FrameGrid, SignalBuffer, SignalError

FS = 24000

# CI selects HYPOTHESIS_PROFILE=ci: the same examples on every run, no deadline
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


@pytest.fixture(scope="session")
def vowel_data():
    """1-second synthetic vowel with its exact generator cascade/track."""
    buf, sidecar, cascade, track = fixtures.vowel(150.0, 1.0, FS)
    return buf, sidecar, cascade, track


@pytest.fixture(scope="session")
def multisine_data():
    buf, sidecar = fixtures.multisine(200.0, 10, 1.0, FS, seed=3)
    return buf, sidecar


def random_stable_frame(rng, n_sections=2, p_sec=8, q_sec=8, radius=0.9,
                        coeff_range=0.3):
    """A random stable cascade frame for response/fit tests."""
    secs = [ArmaSection(project_stable(rng.uniform(-coeff_range, coeff_range, p_sec),
                                       radius=radius),
                        rng.uniform(-coeff_range, coeff_range, q_sec))
            for _ in range(n_sections)]
    return CascadeFrame(float(np.exp(rng.uniform(-1, 1))), secs)


def stacked_cascade(gain, ar, ma, frame_shift=0.005, sample_rate=FS):
    """The cascade of gains (L,), AR (L, r, p) and MA (L, r, q) on a grid of
    consecutive frame centers."""
    grid = FrameGrid(np.arange(len(gain)) * frame_shift, frame_shift, 0.010)
    return ArmaCascade(grid, gain, ar, ma, sample_rate)


def cascade_of(frames, frame_shift=0.005, sample_rate=FS):
    """The cascade of frames whose sections all have the same shapes."""
    return stacked_cascade([fr.gain for fr in frames],
                           [[s.ar for s in fr.sections] for fr in frames],
                           [[s.ma for s in fr.sections] for fr in frames],
                           frame_shift, sample_rate)


def filter_time_domain(gain, ar, ma, x):
    """The lfilter oracle of one cascade row: x through each section's
    difference equation in index order, with zero initial state, then the
    gain. ar is (r, p) and ma (r, q), leading 1s implied."""
    y = np.asarray(x, dtype=np.float64)
    for a, b in zip(ar, ma):
        y = lfilter(np.concatenate(([1.0], b)), np.concatenate(([1.0], a)), y)
    return gain * y


def frame_at(cascade, l):
    """Frame l of a cascade, for the one-frame oracles."""
    return CascadeFrame(cascade.gain[l], [ArmaSection(a, b)
                                          for a, b in zip(cascade.ar[l], cascade.ma[l])])


def pchip_per_column(knot_times, knot_values, query_times):
    """The per-column phase oracle of rendering: one PCHIP interpolator over
    one column's knots, evaluated at queries held to the knot span."""
    t = np.asarray(knot_times, dtype=np.float64)
    q = np.clip(np.asarray(query_times, dtype=np.float64), t[0], t[-1])
    return PchipInterpolator(t, knot_values)(q)


def heard_samples(amps, centers, sample_rate=FS):
    """Each column's heard output samples and its support, in samples.

    An output sample lies on the interval between centers j and j + 1 that
    holds it (the last interval also holds the samples past the last
    center), and a column hears it iff the column is nonzero on frame j or
    j + 1. The support runs from a column's first heard sample to its last.
    """
    centers = np.asarray(centers, dtype=np.float64)
    n = int(round((centers[-1] - centers[0]) * sample_rate)) + 1
    tt = np.arange(n) / sample_rate + centers[0]
    j = np.clip(np.searchsorted(centers, tt, "right") - 1, 0, len(centers) - 2)
    nonzero = np.asarray(amps) != 0
    heard = nonzero[j] | nonzero[j + 1]
    first = np.argmax(heard, axis=0)
    last = n - 1 - np.argmax(heard[::-1], axis=0)
    return heard.sum(axis=0), np.where(heard.any(axis=0), last - first + 1, 0)


# the last 12 bytes of a WAVE sub-format GUID; its first 4 are the format tag
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def wav_image(tag, channels, rate, width, bits, payload, extensible=False, extra=b""):
    """A RIFF/WAVE image: a fmt chunk (EXTENSIBLE naming tag if asked), the
    extra chunk bytes, then the data chunk with its pad byte."""
    align = channels * width
    fmt = struct.pack("<HHIIHH", 0xFFFE if extensible else tag, channels, rate, rate * align,
                      align, bits)
    if extensible:
        fmt += struct.pack("<HHII", 22, bits, 0, tag) + _GUID_TAIL
    chunks = (b"fmt " + struct.pack("<I", len(fmt)) + fmt + extra
              + b"data" + struct.pack("<I", len(payload)) + payload + b"\x00" * (len(payload) % 2))
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


@st.composite
def wav_images(draw):
    """A valid WAV image of 0-12 frames of 1-3 channels, whole or cut at a
    drawn offset, or with one drawn header field overwritten by a drawn value."""
    kind = draw(st.sampled_from(["u8", "i16", "i32", "f32", "f64", "pcm24", "ext-pcm16",
                                 "ext-f32", "ext-pcm24", "list-f32"]))
    channels, frames = draw(st.integers(1, 3)), draw(st.integers(0, 12))
    rate = draw(st.sampled_from([8000, 22050, 24000]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind in ("u8", "i16", "i32", "f32", "f64"):
        data = {"u8": lambda: rng.integers(0, 256, (frames, channels)).astype(np.uint8),
                "i16": lambda: rng.integers(-2 ** 15, 2 ** 15, (frames, channels)).astype(np.int16),
                "i32": lambda: rng.integers(-2 ** 31, 2 ** 31, (frames, channels)).astype(np.int32),
                "f32": lambda: rng.uniform(-1, 1, (frames, channels)).astype(np.float32),
                "f64": lambda: rng.uniform(-1, 1, (frames, channels))}[kind]()
        out = io.BytesIO()
        wavfile.write(out, rate, data[:, 0] if channels == 1 else data)
        image = out.getvalue()
    else:
        tag, width = (3, 4) if kind.endswith("f32") else (1, 3 if kind.endswith("24") else 2)
        payload = rng.integers(0, 256, frames * channels * width).astype(np.uint8).tobytes()
        extra = b"LIST" + struct.pack("<I", 3) + b"abc\x00" if kind == "list-f32" else b""
        image = wav_image(tag, channels, rate, width, 8 * width, payload,
                          kind.startswith("ext"), extra)
    how = draw(st.sampled_from(["whole", "cut", "field"]))
    if how == "cut":
        return image[:draw(st.integers(0, len(image)))]
    if how == "whole":
        return image
    # RIFF id and size, WAVE, the fmt chunk's id, size and six fields, the
    # EXTENSIBLE cbSize and sub-format tag, and the data chunk's id and size
    fields = [(0, 4), (4, 4), (8, 4), (12, 4), (16, 4), (20, 2), (22, 2), (24, 4), (28, 4),
              (32, 2), (34, 2)]
    if kind.startswith("ext"):
        fields += [(36, 2), (44, 4)]
    at = image.index(b"data", 36)
    offset, size = draw(st.sampled_from(fields + [(at, 4), (at + 4, 4)]))
    value = draw(st.integers(0, 64) | st.integers(0, 2 ** (8 * size) - 1))
    return image[:offset] + value.to_bytes(size, "little") + image[offset + size:]


def wav_oracle(path):
    """The buffer read_wav gave when scipy.io.wavfile.read parsed its files:
    scipy's arrays, scaled and averaged to mono. Files that are not RIFF
    (scipy also reads RIFX and RF64) raise, as the codec does not read them."""
    with open(path, "rb") as fh:
        if fh.read(4) != b"RIFF":
            raise SignalError("not RIFF")
    rate, data = wavfile.read(path)
    if data.size == 0:
        raise SignalError("zero-length audio")
    if data.dtype == np.int16:
        samples = data / 32768.0
    elif data.dtype == np.int32:
        samples = data / 2147483648.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    elif data.dtype == np.uint8:
        samples = (data.astype(np.float64) - 128.0) / 128.0
    else:
        raise SignalError(f"unsupported WAV sample format: {data.dtype}")
    if samples.ndim > 1:
        samples = samples.mean(axis=1)
    return SignalBuffer(np.asarray(samples, dtype=np.float64), int(rate))
