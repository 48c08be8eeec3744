"""Objective evaluation: V/UV rate, log-f0 RMSE, MCD, SNR, RTF."""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, asdict

import numpy as np

from .qhm import F0Track
from .signals import FrameGrid, QuasivocError, SignalBuffer, frame_view, grid_window

LOG_FLOOR = 1e-10
SNR_CAP_DB = 120.0
N_MEL_FILTERS = 40
N_CEPSTRA = 24
# rows 1..N_CEPSTRA of the orthonormal DCT-II over N_MEL_FILTERS points
_DCT = np.sqrt(2.0 / N_MEL_FILTERS) * np.cos(
    np.pi / (2 * N_MEL_FILTERS) * np.arange(1, N_CEPSTRA + 1)[:, None]
    * (2 * np.arange(N_MEL_FILTERS) + 1))


class MetricError(QuasivocError):
    """Raised for incompatible metric inputs."""


@dataclass
class MetricReport:
    vuv_rate: float | None = None
    f0_rmse: float | None = None
    mcd: float | None = None
    snr: float | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    def to_table(self) -> str:
        rows = [("V/UV rate [%]", self.vuv_rate), ("f0 RMSE [log-Hz]", self.f0_rmse),
                ("MCD [dB]", self.mcd), ("SNR [dB]", self.snr)]
        width = max(len(name) for name, _ in rows)
        lines = []
        for name, value in rows:
            shown = "-" if value is None else f"{value:.6g}"
            lines.append(f"{name:<{width}}  {shown}")
        return "\n".join(lines)


def vuv_rate(gen: F0Track, ref: F0Track) -> float:
    """Percent of frames whose voiced flags disagree."""
    if len(gen.values) != len(ref.values):
        raise MetricError("track lengths differ")
    if len(gen.values) == 0:
        raise MetricError("empty tracks")
    return 100.0 * float(np.mean(gen.voiced != ref.voiced))


def f0_rmse(gen: F0Track, ref: F0Track, rhos=None) -> float | None:
    """RMSE of log f0 over frames voiced in both tracks; None if no overlap.

    rhos rescales the reference per frame (pitch-modification evaluation);
    identity when omitted. Scale factors must be finite and positive.
    """
    if len(gen.values) != len(ref.values):
        raise MetricError("track lengths differ")
    rho = np.ones(len(ref.values)) if rhos is None else np.asarray(rhos, dtype=np.float64)
    if not np.all(np.isfinite(rho) & (rho > 0)):
        raise MetricError("pitch scale factors must be finite and positive")
    both = gen.voiced & ref.voiced
    if not np.any(both):
        return None
    d = np.log(gen.values[both]) - np.log(rho[both] * ref.values[both])
    return float(np.sqrt(np.mean(d ** 2)))


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)


def mel_filterbank(n_filters: int, n_fft: int, sample_rate: int) -> np.ndarray:
    """Triangular HTK-mel filters from 0 Hz to Nyquist, (filters, bins)."""
    nyq = sample_rate / 2.0
    mel_pts = np.linspace(0.0, _hz_to_mel(nyq), n_filters + 2)
    hz_pts = _mel_to_hz(mel_pts)
    bins = np.linspace(0.0, nyq, n_fft // 2 + 1)
    lo, mid, hi = hz_pts[:-2, None], hz_pts[1:-1, None], hz_pts[2:, None]
    up = (bins - lo) / np.maximum(mid - lo, 1e-12)
    down = (hi - bins) / np.maximum(hi - mid, 1e-12)
    return np.clip(np.minimum(up, down), 0.0, None)


def mel_cepstrum(buffer: SignalBuffer, grid: FrameGrid) -> np.ndarray:
    """Per-frame mel-cepstral coefficients d = 1..N_CEPSTRA from N_MEL_FILTERS filters.

    Windowed DFT magnitude -> triangular mel energies -> log (floored)
    -> orthonormal DCT-II; the 0th (energy) coefficient is not computed.
    """
    fs = buffer.sample_rate
    window = grid_window(grid, fs)
    n_win = window.size
    n_fft = 1 << (n_win - 1).bit_length()
    fb = mel_filterbank(N_MEL_FILTERS, n_fft, fs)
    starts = grid.center_samples(fs) - n_win // 2
    view, offset = frame_view(buffer.samples, starts, n_win)
    frames = view[starts + offset]
    mag = np.abs(np.fft.rfft(frames * window, n=n_fft, axis=1))
    # one matrix-vector product per frame, as a frame on its own gets it;
    # mag @ fb.T rounds differently
    energies = np.maximum((fb @ mag[:, :, None])[..., 0], LOG_FLOOR)
    return (_DCT @ np.log(energies)[:, :, None])[..., 0]


def mcd(gen_coeffs: np.ndarray, ref_coeffs: np.ndarray) -> float:
    """Mel-cepstral distortion in dB, averaged over index-paired frames."""
    g = np.atleast_2d(np.asarray(gen_coeffs, dtype=np.float64))
    r = np.atleast_2d(np.asarray(ref_coeffs, dtype=np.float64))
    if g.shape != r.shape:
        raise MetricError("coefficient shapes differ")
    per_frame = (10.0 * np.sqrt(2.0) / np.log(10.0)) * np.sqrt(np.sum((g - r) ** 2, axis=1))
    return float(np.mean(per_frame))


def snr(gen: SignalBuffer, ref: SignalBuffer) -> float:
    """Reconstruction SNR in dB, capped at 120 dB for identical signals."""
    if len(gen) != len(ref):
        raise MetricError("signal lengths differ")
    ref_energy = float(np.sum(ref.samples ** 2))
    if ref_energy == 0:
        raise MetricError("zero reference signal")
    err = float(np.sum((ref.samples - gen.samples) ** 2))
    if err == 0:
        return SNR_CAP_DB
    return min(10.0 * np.log10(ref_energy / err), SNR_CAP_DB)


def rtf(work, audio_duration: float, runs: int = 5) -> float:
    """Median wall-clock/audio-duration ratio of a pipeline stage.

    work is a zero-argument callable; one warmup call precedes timing.
    """
    if audio_duration <= 0:
        raise MetricError("audio duration must be positive")
    work()
    times = []
    for _ in range(max(runs, 1)):
        t0 = time.perf_counter()
        work()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) / audio_duration
