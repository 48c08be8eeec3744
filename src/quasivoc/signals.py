"""Core signal types, frame placement, windows, WAV I/O.

Everything here is a pure function over immutable inputs; all sample
amplitudes are float64 internally.
"""
from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# WAVE format tags; an EXTENSIBLE fmt chunk names one of the first two in the
# first 4 bytes of its sub-format GUID, whose last 12 bytes are _GUID_TAIL
_PCM, _FLOAT, _EXTENSIBLE = 1, 3, 0xFFFE
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# bytes per sample of each write_wav format
_WAV_WIDTHS = {"float32": 4, "pcm16": 2}


class QuasivocError(Exception):
    """Base class of the package's errors: bad input, not a bug."""


class SignalError(QuasivocError):
    """Raised for invalid signals or unsupported audio files."""


def check_rate(rate, error=SignalError) -> int:
    """The sample rate as an int: it must be a positive integer, a Python or
    numpy one, as a RIFF header stores it; otherwise error is raised."""
    if not isinstance(rate, (int, np.integer)) or rate < 1:
        raise error("sample_rate must be a positive integer")
    return int(rate)


@dataclass
class SignalBuffer:
    """Mono waveform with its sample rate.

    samples are dimensionless amplitudes, nominally in [-1, 1]. The sample
    rate is a positive integer (check_rate).
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise SignalError("SignalBuffer requires a 1-D sample array")
        self.sample_rate = check_rate(self.sample_rate)
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise SignalError("samples must be finite")

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate

    def __len__(self) -> int:
        return len(self.samples)


@dataclass
class FrameGrid:
    """Equally spaced frame centers with a shared analysis window.

    centers are finite times in seconds, strictly increasing, spaced by
    frame_shift. half_window is half the window span in seconds;
    frame_shift and half_window are finite and positive. window_kind is
    one of 'hann', 'hamming', 'gauss'. gauss_sigma is in samples.
    """

    centers: np.ndarray
    frame_shift: float
    half_window: float
    window_kind: str = "hann"
    gauss_sigma: float = 0.0

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=np.float64)
        if not (np.all(np.isfinite(self.centers)) and np.isfinite(self.frame_shift)
                and np.isfinite(self.half_window)):
            raise SignalError("frame centers, frame_shift and half_window must be finite")
        if self.frame_shift <= 0 or self.half_window <= 0:
            raise SignalError("frame_shift and half_window must be positive")
        if len(self.centers) > 1:
            steps = np.diff(self.centers)
            if np.any(steps <= 0):
                raise SignalError("frame centers must be strictly increasing")

    def __len__(self) -> int:
        return len(self.centers)

    def center_samples(self, sample_rate: int) -> np.ndarray:
        """Each frame's centre sample: centre * sample_rate, rounded half to even."""
        return np.rint(self.centers * sample_rate).astype(np.int64)

    def window_samples(self, sample_rate: int) -> int:
        """Odd window length in samples covering [-half_window, half_window]."""
        half = int(round(self.half_window * sample_rate))
        n = 2 * half + 1
        if n < 3:
            raise SignalError("window degenerate: fewer than 3 samples")
        return n


def make_grid(duration: float, frame_shift: float, half_window: float,
              window_kind: str = "hann", gauss_sigma: float = 0.0) -> FrameGrid:
    """Frame centers covering [0, duration] at frame_shift spacing."""
    n = int(np.floor(duration / frame_shift)) + 1
    centers = np.arange(n) * frame_shift
    return FrameGrid(centers, frame_shift, half_window, window_kind, gauss_sigma)


def frame_view(samples: np.ndarray, starts: np.ndarray, length: int) -> tuple[np.ndarray, int]:
    """A strided view of every length-sample row of the signal extended by
    zeros on both sides, as far as the rows at starts need, and the offset:
    row s + offset is samples[s:s + length]. The signal is padded once, so
    callers take blocks of rows from one view."""
    left = -int(starts.min(initial=0))
    right = max(0, int(starts.max(initial=0)) + length - samples.size)
    return sliding_window_view(np.pad(samples, (left, right)), length), left


def _parse_wav(raw: bytes) -> tuple[int, np.ndarray]:
    """The sample rate and samples of a little-endian RIFF/WAVE image.

    Chunks are walked in order, up to the RIFF size, each followed by its
    pad byte when its size is odd; unknown chunks are skipped. The samples
    are (frames,) or (frames, channels) of uint8, int16, int32 (24-bit
    samples left-justified) or float32/64: the container is the block
    alignment per channel, and PCM of 1-8 bits is unsigned bytes. A data
    chunk cut short keeps its whole samples, with a warning. Where a later
    chunk repeats fmt or data, the last one read counts. These are the
    rules of scipy.io.wavfile.read, which returns the same arrays; files it
    reads as int8, int64, float16 or float128, RIFX and RF64 are not read,
    nor is PCM of 1-8 bits in a container wider than one byte, which scipy
    misreads as one byte per sample.
    Raises SignalError, or struct.error for a field cut by the end of file.
    """
    if raw[:4] != b"RIFF":
        raise SignalError("not a RIFF file (RIFX and RF64 are not read)")
    end = struct.unpack_from("<I", raw, 4)[0] + 8
    if raw[8:12] != b"WAVE":
        raise SignalError("RIFF form is not WAVE")
    pos, fmt, rate, data = 12, None, 0, None
    while pos < end:
        cid, body = raw[pos:pos + 4], pos + 8
        if len(cid) < 4:
            if data is None:
                raise SignalError("no data chunk before the end of file")
            break
        if cid == b"fmt ":
            size = struct.unpack_from("<I", raw, pos + 4)[0]
            if size < 16:
                raise SignalError("fmt chunk shorter than 16 bytes")
            tag, channels, rate, byte_rate, align, bits = struct.unpack_from("<HHIIHH", raw, body)
            used = 16
            if tag == _EXTENSIBLE and size >= 18:
                if struct.unpack_from("<H", raw, body + 16)[0] < 22:
                    raise SignalError("EXTENSIBLE fmt chunk without its sub-format")
                guid, used = raw[body + 24:body + 40], 40
                if guid.endswith(_GUID_TAIL):
                    tag = struct.unpack("<I", guid[:4])[0]
            if tag not in (_PCM, _FLOAT):
                raise SignalError(f"unsupported WAVE format tag {tag:#06x}")
            if tag == _PCM and byte_rate != rate * align:
                raise SignalError("PCM byte rate is not sample rate * block align")
            fmt = tag, channels, align, bits
            pos = body + max(size, used) + size % 2
        elif cid == b"data":
            if fmt is None:
                raise SignalError("data chunk before the fmt chunk")
            size = struct.unpack_from("<I", raw, pos + 4)[0]
            tag, channels, align, bits = fmt
            width = align // channels if channels else 0
            if not width:
                raise SignalError("fmt chunk gives no bytes per sample")
            packed = False
            if tag == _PCM and 1 <= bits <= 8:
                if width != 1:
                    raise SignalError(f"{bits}-bit PCM in {width}-byte samples")
                dtype = np.dtype("u1")
            elif tag == _PCM and width == 3:
                dtype, packed = np.dtype("<i4"), True
            elif tag == _PCM and width in (2, 4) and bits <= 64:
                dtype = np.dtype(f"<i{width}")
            elif tag == _FLOAT and bits in (32, 64) and width in (4, 8):
                dtype = np.dtype(f"<f{width}")
            else:
                raise SignalError(f"unsupported sample format: tag {tag}, "
                                  f"{bits} bits in {width} bytes")
            # packed 24-bit samples are read byte by byte, the others item by item
            step = 1 if packed else dtype.itemsize
            wanted = size if packed else size // width
            count = min(wanted, (len(raw) - body) // step)
            if packed:
                if count % 3:
                    raise SignalError("24-bit data chunk ends inside a sample")
                wide = np.zeros((count // 3, 4), dtype=np.uint8)
                wide[:, 1:] = np.frombuffer(raw, np.uint8, count, body).reshape(-1, 3)
                data = wide.view(dtype)[:, 0]
            else:
                data = np.frombuffer(raw, dtype, count, body)
            if len(data) % channels:
                raise SignalError("data chunk ends inside a frame")
            if channels > 1:
                data = data.reshape(-1, channels)
            if count < wanted:
                warnings.warn(f"read_wav: data chunk cut short; read {count} of {wanted} "
                              f"{'bytes' if packed else 'samples'}")
                break
            pos = body + count * step + size % 2
        elif len(raw) > pos + 4:
            size = struct.unpack_from("<I", raw, pos + 4)[0]
            pos = body + size + size % 2
        else:
            pos += 4
    if data is None:
        raise SignalError("no data chunk within the RIFF size")
    return rate, data


def read_wav(path) -> SignalBuffer:
    """Read a RIFF/WAVE file into a mono float64 buffer scaled to [-1, 1].

    Multichannel input is averaged to mono. Unsigned 8-bit, 16-, 24- and
    32-bit PCM and IEEE float-32/64 are accepted, also through an
    EXTENSIBLE fmt chunk; integers are divided by 2**(bits - 1), 24-bit
    samples as left-justified 32-bit ones.
    """
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise SignalError(f"cannot read WAV file {path}: {exc}") from exc
    try:
        rate, data = _parse_wav(raw)
    except struct.error as exc:
        raise SignalError(f"cannot read WAV file {path}: header cut by the end of file") from exc
    except SignalError as exc:
        raise SignalError(f"cannot read WAV file {path}: {exc}") from exc
    if data.size == 0:
        raise SignalError(f"zero-length audio: {path}")
    if data.dtype == np.uint8:
        samples = (data.astype(np.float64) - 128.0) / 128.0
    elif data.dtype.kind == "f":
        samples = data.astype(np.float64)
    else:
        samples = data / float(1 << (8 * data.dtype.itemsize - 1))
    if samples.ndim > 1:
        samples = samples.mean(axis=1)
    return SignalBuffer(np.asarray(samples, dtype=np.float64), int(rate))


def check_wav_size(n_samples: int, sample_rate: int, fmt: str = "float32") -> None:
    """Raise SignalError unless a RIFF header can hold n_samples mono samples
    at sample_rate in write_wav's format fmt."""
    width = _WAV_WIDTHS.get(fmt)
    if width is None:
        raise SignalError(f"unsupported output format: {fmt}")
    if sample_rate * width > 0xFFFFFFFF or 50 + n_samples * width > 0xFFFFFFFF:
        raise SignalError("sample rate or length too large for a RIFF file")


def write_wav(buffer: SignalBuffer, path, fmt: str = "float32") -> int:
    """Write a buffer to disk; returns the number of hard-clipped samples.

    fmt 'float32' (default) is lossless for in-range data; 'pcm16'
    quantizes. Out-of-range samples are clipped to [-1, 1] with a warning.
    The file is a mono RIFF/WAVE with the bytes scipy.io.wavfile.write
    gives: a 16-byte fmt chunk for PCM, an 18-byte one and a fact chunk
    for float.
    """
    x = buffer.samples
    check_wav_size(len(x), buffer.sample_rate, fmt)
    n_clipped = int(np.count_nonzero((x > 1.0) | (x < -1.0)))
    if n_clipped:
        warnings.warn(f"write_wav: hard-clipped {n_clipped} out-of-range samples")
        x = np.clip(x, -1.0, 1.0)
    # a float fmt chunk ends in a zero cbSize field
    if fmt == "float32":
        data, tag, tail = x.astype("<f4"), _FLOAT, b"\x00\x00"
    else:
        data, tag, tail = np.clip(np.round(x * 32768.0), -32768, 32767).astype("<i2"), _PCM, b""
    rate, width = buffer.sample_rate, data.itemsize
    body = struct.pack("<HHIIHH", tag, 1, rate, rate * width, width, 8 * width) + tail
    chunks = b"fmt " + struct.pack("<I", len(body)) + body
    if tag == _FLOAT:
        chunks += b"fact" + struct.pack("<II", 4, len(data))
    chunks += b"data" + struct.pack("<I", data.nbytes)
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 4 + len(chunks) + data.nbytes) + b"WAVE" + chunks)
        fh.write(data.data)
    return n_clipped


def make_window(kind: str, length: int, gauss_sigma: float = 0.0) -> np.ndarray:
    """Symmetric analysis window of the given sample length.

    kind is 'hann', 'hamming', or 'gauss' (gauss_sigma in samples).
    """
    if length < 3:
        raise SignalError("window length must be >= 3")
    # the left half and the centre; the right half is their mirror image,
    # so w == w[::-1] holds exactly
    n = np.arange((length + 1) // 2, dtype=np.float64)
    if kind == "hann":
        w = 0.5 - 0.5 * np.cos(2 * np.pi * n / (length - 1))
    elif kind == "hamming":
        w = 0.54 - 0.46 * np.cos(2 * np.pi * n / (length - 1))
    elif kind == "gauss":
        if gauss_sigma <= 0:
            raise SignalError("gauss window requires sigma > 0")
        w = np.exp(-0.5 * ((n - (length - 1) / 2.0) / gauss_sigma) ** 2)
    else:
        raise SignalError(f"unknown window kind: {kind}")
    return np.concatenate((w, w[:length // 2][::-1]))


def grid_window(grid: FrameGrid, sample_rate: int) -> np.ndarray:
    """The grid's analysis window realized at the given sample rate."""
    n = grid.window_samples(sample_rate)
    return make_window(grid.window_kind, n, grid.gauss_sigma)


def _wrap(phi):
    """Wrap to (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(phi), 2 * np.pi)
