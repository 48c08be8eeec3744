"""Windows, frame grids and WAV I/O."""
import io
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import wav_image, wav_images, wav_oracle
from hypothesis import given, settings, strategies as st
from scipy.io import wavfile

from quasivoc.signals import (FrameGrid, SignalBuffer, SignalError, frame_view, make_grid,
                              make_window, read_wav, write_wav)


# --- windows ---------------------------------------------------------------

def test_hann_length_5_closed_form():
    np.testing.assert_allclose(make_window("hann", 5), [0, 0.5, 1, 0.5, 0],
                               atol=1e-15)


def test_hamming_endpoints():
    for n in (5, 64, 481):
        w = make_window("hamming", n)
        assert abs(w[0] - 0.08) < 1e-12
        assert abs(w[-1] - 0.08) < 1e-12


def test_gauss_wide_sigma_limit():
    w = make_window("gauss", 11, gauss_sigma=1e9)
    np.testing.assert_allclose(w, 1.0, atol=1e-12)


def test_window_symmetry_and_peak():
    for kind, sigma in (("hann", 0.0), ("hamming", 0.0), ("gauss", 20.0)):
        w = make_window(kind, 101, sigma)
        np.testing.assert_allclose(w, w[::-1], atol=1e-14)
        assert w[50] == w.max()


@pytest.mark.parametrize("length", [3, 101, 241, 481, 721])
def test_window_is_exactly_symmetric(length):
    for kind, sigma in (("hann", 0.0), ("hamming", 0.0), ("gauss", 20.0)):
        w = make_window(kind, length, sigma)
        assert w.size == length and np.array_equal(w, w[::-1])


def test_window_errors():
    with pytest.raises(SignalError):
        make_window("hann", 2)
    with pytest.raises(SignalError):
        make_window("gauss", 11, gauss_sigma=0.0)
    with pytest.raises(SignalError):
        make_window("blackman", 11)


# --- buffers and grids -----------------------------------------------------

def test_buffer_validation():
    with pytest.raises(SignalError):
        SignalBuffer(np.zeros((2, 3)), 24000)
    with pytest.raises(SignalError):
        SignalBuffer(np.zeros(5), 0)
    with pytest.raises(SignalError):
        SignalBuffer(np.array([0.0, np.nan]), 24000)
    buf = SignalBuffer(np.zeros(24000), 24000)
    assert buf.duration == 1.0 and len(buf) == 24000


@pytest.mark.parametrize("rate", [24000.0, 24000.5, "24000", -8000, np.float64(8000)])
def test_buffer_refuses_a_rate_that_is_not_a_positive_integer(rate):
    """A RIFF header stores an integer rate: write_wav would fail on any
    other one with an error that is not the package's."""
    with pytest.raises(SignalError, match="positive integer"):
        SignalBuffer(np.zeros(10), rate)


def test_buffer_takes_a_numpy_integer_rate(tmp_path):
    buf = SignalBuffer(np.zeros(10), np.int32(8000))
    assert type(buf.sample_rate) is int and buf.sample_rate == 8000
    write_wav(buf, tmp_path / "x.wav")
    assert read_wav(tmp_path / "x.wav").sample_rate == 8000


def test_make_grid_spacing():
    grid = make_grid(1.0, 0.005, 0.010)
    assert len(grid) == 201
    np.testing.assert_allclose(np.diff(grid.centers), 0.005)
    assert grid.window_samples(24000) == 481


def test_grid_validation():
    with pytest.raises(SignalError):
        FrameGrid(np.array([0.0, 0.0]), 0.005, 0.01)
    with pytest.raises(SignalError):
        FrameGrid(np.array([0.0]), -1.0, 0.01)


@pytest.mark.parametrize("centers, frame_shift, half_window", [
    ([0.0, np.nan, 0.01], 0.005, 0.01),
    ([0.0, np.inf, np.inf], 0.005, 0.01),
    ([0.0, 0.005], np.nan, 0.01),
    ([0.0, 0.005], np.inf, 0.01),
    ([0.0, 0.005], 0.005, np.nan),
])
def test_grid_rejects_nonfinite(centers, frame_shift, half_window):
    """NaN compares false, so the ordering and sign checks alone pass it."""
    with pytest.raises(SignalError, match="finite"):
        FrameGrid(np.array(centers), frame_shift, half_window)


def test_center_samples_round_half_to_even():
    """A centre half a sample past an integer rounds to the even one, as
    Python's round does."""
    grid = FrameGrid(np.array([0.5, 1.5, 2.5, 2.6, 1000.25]) / 1000, 0.0005, 0.002)
    samples = grid.center_samples(1000)
    assert samples.dtype == np.int64
    assert samples.tolist() == [int(round(tc * 1000)) for tc in grid.centers] == [0, 2, 2, 3, 1000]


# --- framing ---------------------------------------------------------------

@given(n=st.integers(0, 40), length=st.integers(1, 12),
       starts=st.lists(st.integers(-60, 60), max_size=8))
@settings(max_examples=200, deadline=None)
def test_framed_rows_are_zero_padded_slices(n, length, starts):
    """Each row is the slice of the signal extended by zeros on both sides,
    for starts before the signal, inside it and past its end."""
    x = np.arange(1.0, n + 1)
    starts = np.array(starts, dtype=np.int64)
    view, offset = frame_view(x, starts, length)
    rows = view[starts + offset]
    assert rows.shape == (len(starts), length)
    for s, row in zip(starts, rows):
        expect = np.zeros(length)
        lo, hi = max(s, 0), min(s + length, n)
        if hi > lo:
            expect[lo - s:hi - s] = x[lo:hi]
        np.testing.assert_array_equal(row, expect)


# --- WAV I/O ---------------------------------------------------------------

def test_wav_float32_round_trip(tmp_path):
    ramp = np.linspace(-1, 1, 100).astype(np.float32).astype(np.float64)
    buf = SignalBuffer(ramp, 24000)
    path = tmp_path / "ramp.wav"
    assert write_wav(buf, path, "float32") == 0
    back = read_wav(path)
    assert back.sample_rate == 24000
    np.testing.assert_array_equal(back.samples, ramp)


def test_wav_pcm16_quantization_bound(tmp_path):
    rng = np.random.default_rng(0)
    buf = SignalBuffer(rng.uniform(-0.9, 0.9, 1000), 16000)
    path = tmp_path / "q.wav"
    write_wav(buf, path, "pcm16")
    back = read_wav(path)
    assert np.max(np.abs(back.samples - buf.samples)) <= 2.0 ** -15


def test_pcm16_full_scale_value(tmp_path):
    path = tmp_path / "fs.wav"
    wavfile.write(path, 24000, np.array([32767, -32768, 0], dtype=np.int16))
    back = read_wav(path)
    np.testing.assert_allclose(back.samples, [32767 / 32768, -1.0, 0.0])


def test_stereo_opposite_channels_average_to_zero(tmp_path):
    path = tmp_path / "st.wav"
    c = np.linspace(-0.5, 0.5, 64).astype(np.float32)
    wavfile.write(path, 8000, np.stack([c, -c], axis=1))
    back = read_wav(path)
    np.testing.assert_allclose(back.samples, 0.0, atol=1e-9)


def test_write_clipping_counted(tmp_path):
    buf = SignalBuffer(np.array([0.0, 1.5, -2.0]), 8000)
    path = tmp_path / "clip.wav"
    with pytest.warns(UserWarning):
        n = write_wav(buf, path)
    assert n == 2
    back = read_wav(path)
    np.testing.assert_allclose(back.samples, [0.0, 1.0, -1.0])


def test_read_wav_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_wav(tmp_path / "missing.wav")
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"not a wav file at all")
    with pytest.raises(SignalError):
        read_wav(bad)
    empty = tmp_path / "empty.wav"
    wavfile.write(empty, 8000, np.zeros(0, dtype=np.float32))
    with pytest.raises(SignalError):
        read_wav(empty)
    with pytest.raises(SignalError):
        write_wav(SignalBuffer(np.zeros(4), 8000), tmp_path / "x.wav", "mp3")



def _narrow_pcm(image):
    """Whether the image's fmt chunk, at offset 12, gives PCM of 1-8 bits in
    a container wider than one byte (the tag may come through EXTENSIBLE)."""
    if image[12:16] != b"fmt " or len(image) < 48:
        return False
    tag, channels, _, _, align, bits = struct.unpack_from("<HHIIHH", image, 20)
    if tag == 0xFFFE:
        tag = struct.unpack_from("<H", image, 44)[0]
    return tag == 1 and 1 <= bits <= 8 and channels > 0 and align // channels > 1


@given(image=wav_images())
@settings(max_examples=400, deadline=None)
def test_read_wav_matches_scipy_on_drawn_images(image):
    """On whole, cut and overwritten WAV images, read_wav gives the samples
    and rate of scipy's reader with the old conversion, and raises
    SignalError wherever that raises. The one exception: PCM of 1-8 bits in
    a container wider than one byte, which scipy reads as one byte per
    sample (so mixing low and high bytes), is a SignalError."""
    with tempfile.TemporaryDirectory() as d, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        path = Path(d) / "drawn.wav"
        path.write_bytes(image)
        try:
            want = wav_oracle(path)
        except Exception:
            with pytest.raises(SignalError):
                read_wav(path)
            return
        if _narrow_pcm(image):
            with pytest.raises(SignalError, match="-bit PCM in"):
                read_wav(path)
            return
        got = read_wav(path)
    assert got.sample_rate == want.sample_rate
    assert got.samples.tobytes() == want.samples.tobytes()


def test_read_wav_formats_and_their_scales(tmp_path):
    """uint8, 24-bit (as a left-justified int32 over 2**31) and EXTENSIBLE
    images read as scipy reads them, as does one that ends in a bare chunk id
    after its data; a cut data chunk keeps its whole samples and warns."""
    tail = wav_image(1, 1, 8000, 2, 16, struct.pack("<h", -16384)) + b"JUNK"
    cases = {
        "tail-id": tail[:4] + struct.pack("<I", len(tail) - 8) + tail[8:],
        "u8": wav_image(1, 1, 8000, 1, 8, bytes([0, 128, 255])),
        "pcm24": wav_image(1, 2, 8000, 3, 24, bytes([0, 0, 0x80, 0xFF, 0xFF, 0x7F])),
        "ext-f64": wav_image(3, 1, 8000, 8, 64, np.array([0.25, -0.5]).tobytes(),
                             extensible=True),
    }
    expect = {"tail-id": [-0.5], "u8": [-1.0, 0.0, 127 / 128],
              "pcm24": [(-2 ** 31 + (2 ** 31 - 2 ** 8)) / 2 / 2 ** 31],
              "ext-f64": [0.25, -0.5]}
    for name, image in cases.items():
        path = tmp_path / f"{name}.wav"
        path.write_bytes(image)
        assert read_wav(path).samples.tolist() == expect[name]
        assert read_wav(path).samples.tobytes() == wav_oracle(path).samples.tobytes()
    cut = tmp_path / "cut.wav"
    cut.write_bytes(wav_image(1, 1, 8000, 2, 16, struct.pack("<4h", 1, 2, 3, 4))[:-3])
    with pytest.warns(UserWarning, match="cut short"):
        assert read_wav(cut).samples.tolist() == [1 / 32768, 2 / 32768]


@pytest.mark.parametrize("image, match", [
    (wav_image(1, 1, 8000, 8, 64, bytes(16)), "unsupported sample format"),     # int64
    (wav_image(3, 1, 8000, 2, 32, bytes(4)), "unsupported sample format"),      # float16
    (b"RIFX" + wav_image(1, 1, 8000, 2, 16, bytes(4))[4:], "RIFX"),
    (b"RIFF\x04\x00\x00\x00WAVE", "no data chunk"),
    (wav_image(1, 1, 8000, 2, 16, bytes(4))[:30], "cut"),
    # 16-bit samples under a bits field of 8: scipy reads bytes, not samples
    (wav_image(1, 1, 8000, 2, 8, struct.pack("<4h", 256, 512, 768, 1024)),
     "8-bit PCM in 2-byte samples"),
])
def test_read_wav_rejects(tmp_path, image, match):
    path = tmp_path / "x.wav"
    path.write_bytes(image)
    with pytest.raises(SignalError, match=match):
        read_wav(path)


@given(samples=st.lists(st.floats(-1.5, 1.5), max_size=40),
       rate=st.sampled_from([1, 8000, 24000, 44100, 2 ** 20]),
       fmt=st.sampled_from(["float32", "pcm16"]))
@settings(max_examples=100, deadline=None)
def test_write_wav_bytes_equal_scipy(samples, rate, fmt):
    """write_wav's files are scipy.io.wavfile.write's bytes for the same
    clipped float32 or quantized int16 samples."""
    x = np.clip(np.array(samples, dtype=np.float64), -1.0, 1.0)
    data = (x.astype(np.float32) if fmt == "float32"
            else np.clip(np.round(x * 32768.0), -32768, 32767).astype(np.int16))
    want = io.BytesIO()
    wavfile.write(want, rate, data)
    with tempfile.TemporaryDirectory() as d, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        path = Path(d) / "w.wav"
        write_wav(SignalBuffer(np.array(samples, dtype=np.float64), rate), path, fmt)
        assert path.read_bytes() == want.getvalue()

# --- interpolation ---------------------------------------------------------

def test_linear_interp_single_knot_and_error():
    """Every linear interpolation in the package is np.interp: one knot holds its
    value at every query, as a one-frame product needs, and no knots is an error
    that callers report in their own terms before reaching it."""
    np.testing.assert_array_equal(np.interp([0.0, 5.0], [1.0], [3.0]), [3.0, 3.0])
    with pytest.raises(ValueError):
        np.interp([0.0], [], [])
