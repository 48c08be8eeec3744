"""Core signal types, frame placement, windows, WAV I/O.

Everything here is a pure function over immutable inputs; all sample
amplitudes are float64 internally.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.io import wavfile


class QuasivocError(Exception):
    """Base class of the package's errors: bad input, not a bug."""


class SignalError(QuasivocError):
    """Raised for invalid signals or unsupported audio files."""


@dataclass
class SignalBuffer:
    """Mono waveform with its sample rate.

    samples are dimensionless amplitudes, nominally in [-1, 1].
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise SignalError("SignalBuffer requires a 1-D sample array")
        if self.sample_rate <= 0:
            raise SignalError("sample_rate must be positive")
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


def read_wav(path) -> SignalBuffer:
    """Read a RIFF/WAVE file into a mono float64 buffer scaled to [-1, 1].

    Multichannel input is averaged to mono. PCM-16, PCM-32 and IEEE
    float-32/64 are accepted.
    """
    try:
        rate, data = wavfile.read(path)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise SignalError(f"cannot read WAV file {path}: {exc}") from exc
    if data.size == 0:
        raise SignalError(f"zero-length audio: {path}")
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


def write_wav(buffer: SignalBuffer, path, fmt: str = "float32") -> int:
    """Write a buffer to disk; returns the number of hard-clipped samples.

    fmt 'float32' (default) is lossless for in-range data; 'pcm16'
    quantizes. Out-of-range samples are clipped to [-1, 1] with a warning.
    """
    x = buffer.samples
    n_clipped = int(np.count_nonzero((x > 1.0) | (x < -1.0)))
    if n_clipped:
        warnings.warn(f"write_wav: hard-clipped {n_clipped} out-of-range samples")
        x = np.clip(x, -1.0, 1.0)
    if fmt == "float32":
        wavfile.write(path, buffer.sample_rate, x.astype(np.float32))
    elif fmt == "pcm16":
        q = np.clip(np.round(x * 32768.0), -32768, 32767).astype(np.int16)
        wavfile.write(path, buffer.sample_rate, q)
    else:
        raise SignalError(f"unsupported output format: {fmt}")
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
