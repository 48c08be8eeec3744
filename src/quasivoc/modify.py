"""Time-scale and pitch-scale modification.

Voiced frames are pitch-shifted by rho and the envelope is resampled at
the shifted frequencies; unvoiced frames keep their original frequencies.
Both banks live on the stretched time axis and are rendered separately,
then summed. The cascade itself is never altered.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arma import ArmaCascade, sample_cascade
from .qhm import F0Track, harmonic_grid
from .signals import FrameGrid, SignalBuffer, SignalError, linear_interp
from .synth import NYQUIST_GUARD, mute_aliasing, render


class ModificationError(Exception):
    """Raised for invalid scale schedules."""


@dataclass
class ScaleSchedule:
    """Per-frame time-scale beta, pitch-scale rho, and V/UV flag."""

    betas: np.ndarray
    rhos: np.ndarray
    vuv: np.ndarray

    def __post_init__(self):
        self.betas = np.asarray(self.betas, dtype=np.float64)
        self.rhos = np.asarray(self.rhos, dtype=np.float64)
        self.vuv = np.asarray(self.vuv, dtype=bool)
        if np.any(self.betas <= 0) or np.any(self.rhos <= 0):
            raise ModificationError("scale factors must be positive")
        if not (len(self.betas) == len(self.rhos) == len(self.vuv)):
            raise ModificationError("schedule arrays must have equal length")

    @classmethod
    def constant(cls, n_frames: int, beta: float, rho: float,
                 vuv: np.ndarray) -> "ScaleSchedule":
        return cls(np.full(n_frames, beta), np.full(n_frames, rho), vuv)

    @classmethod
    def from_breakpoints(cls, times, betas, rhos, grid: FrameGrid,
                         vuv: np.ndarray) -> "ScaleSchedule":
        """Linear interpolation of breakpoint (time, beta, rho) onto frames."""
        b = linear_interp(times, betas, grid.centers)
        r = linear_interp(times, rhos, grid.centers)
        return cls(b, r, vuv)


def scaled_times(grid: FrameGrid, betas: np.ndarray) -> np.ndarray:
    """Stretched frame times: t[l] = sum_i beta_i * (t_i - t_{i-1}), t[0] = 0."""
    b = np.asarray(betas, dtype=np.float64)
    if np.any(b <= 0):
        raise ModificationError("beta must be positive")
    dt = np.diff(grid.centers)
    out = np.zeros(len(grid))
    np.cumsum(b[1:] * dt, out=out[1:])
    return out


def scaled_freqs(freqs: np.ndarray, rhos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Voiced frequencies scaled by rho, unvoiced kept; both (frames, K).

    Voiced components pushed past Nyquist stay in the array and are muted
    by the amplitude mask later.
    """
    f = np.atleast_2d(np.asarray(freqs, dtype=np.float64))
    rho = np.asarray(rhos, dtype=np.float64)
    voiced = f * rho[:, None]
    return voiced, f.copy()


def modified_amplitudes(cascade: ArmaCascade, schedule: ScaleSchedule,
                        voiced_freqs: np.ndarray, unvoiced_freqs: np.ndarray,
                        counts: np.ndarray, guard: float = NYQUIST_GUARD):
    """Envelope-resampled amplitudes for the voiced and unvoiced banks.

    Voiced amplitudes are masked by VUV and carry the gain normalization
    G' = G * sqrt(K_orig / K_mod) so total power survives harmonic-count
    changes under pitch scaling; unvoiced amplitudes are masked by 1-VUV
    at the original frequencies. Returns (voiced, unvoiced, flags).
    """
    nyq_lim = cascade.sample_rate / 2 - guard
    counts = np.asarray(counts)
    vuv = schedule.vuv[:, None]
    live = np.arange(voiced_freqs.shape[1]) < counts[:, None]
    in_band = live & (voiced_freqs <= nyq_lim)
    k_mod = np.count_nonzero(in_band, axis=1)
    flags = (schedule.vuv & (k_mod == 0)).astype(np.int64)
    norm = np.sqrt(counts / np.maximum(k_mod, 1))
    mags, _ = sample_cascade(cascade, np.where(vuv, np.minimum(voiced_freqs, nyq_lim),
                                               unvoiced_freqs))
    amps_v = np.where(vuv & in_band, norm[:, None] * mags, 0.0)
    amps_uv = np.where(~vuv & live, mags, 0.0)
    return amps_v, amps_uv, flags


def modified_phases(cascade: ArmaCascade, schedule: ScaleSchedule,
                    freqs: np.ndarray, guard: float = NYQUIST_GUARD) -> np.ndarray:
    """Excitation phase on the stretched axis plus envelope phase delay.

    The trapezoid increment of step i is scaled by beta_i, matching the
    stretched frame spacing; phase delays are sampled at the given
    (already shifted or original) frequencies.
    """
    f = np.atleast_2d(np.asarray(freqs, dtype=np.float64))
    dt = np.diff(cascade.grid.centers)
    inc = np.pi * (f[:-1] + f[1:]) * (schedule.betas[1:] * dt)[:, None]
    phi = np.zeros_like(f)
    np.cumsum(inc, axis=0, out=phi[1:])
    nyq_lim = cascade.sample_rate / 2 - guard
    _, delays = sample_cascade(cascade, np.minimum(f, nyq_lim))
    # same frame-axis unwrap as plain synthesis (see delayed_phase): the
    # per-section principal angle can hop 2*pi between frames
    if delays.shape[0] > 1:
        delays = np.unwrap(delays, axis=0)
    return phi + delays


def modify(cascade: ArmaCascade, f0_track: F0Track, schedule: ScaleSchedule,
           sample_rate: int | None = None, guard: float = NYQUIST_GUARD,
           unvoiced_f0: float = 100.0,
           max_components: int | None = None) -> SignalBuffer:
    """Full time/pitch modification pipeline.

    Builds the stretched time grid, splits components into voiced and
    unvoiced banks, resamples the envelope at shifted frequencies,
    renders both banks on the stretched axis, and sums them. The VUV
    flips get a one-frame amplitude ramp for free from the linear
    interpolation of the masked framewise amplitudes.
    """
    fs = sample_rate or cascade.sample_rate
    if cascade.n_frames != len(schedule.betas) or cascade.n_frames != len(f0_track.values):
        raise SignalError("cascade, track, and schedule must share the frame grid")
    if cascade.n_frames == 0:
        return SignalBuffer(np.zeros(0), fs)
    freqs, counts = harmonic_grid(f0_track, fs, guard, unvoiced_f0, max_components)
    t_hat = scaled_times(cascade.grid, schedule.betas)
    mod_grid = FrameGrid(t_hat, cascade.grid.frame_shift, cascade.grid.half_window,
                         cascade.grid.window_kind, cascade.grid.gauss_sigma)
    f_v, f_uv = scaled_freqs(freqs, schedule.rhos)
    amps_v, amps_uv, _ = modified_amplitudes(cascade, schedule, f_v, f_uv, counts, guard)
    phi_v = modified_phases(cascade, schedule, f_v, guard)
    phi_uv = modified_phases(cascade, schedule, f_uv, guard)
    amps_v = mute_aliasing(amps_v, f_v, fs, guard)
    amps_uv = mute_aliasing(amps_uv, f_uv, fs, guard)
    voiced = render(amps_v, phi_v, mod_grid, fs)
    unvoiced = render(amps_uv, phi_uv, mod_grid, fs)
    return SignalBuffer(voiced.samples + unvoiced.samples, fs)


def load_schedule(path, grid: FrameGrid, vuv: np.ndarray) -> ScaleSchedule:
    """Read breakpoint lines 'time_seconds beta rho' into a ScaleSchedule."""
    times, betas, rhos = [], [], []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ModificationError(f"bad schedule line: {line!r}")
            times.append(float(parts[0]))
            betas.append(float(parts[1]))
            rhos.append(float(parts[2]))
    if not times:
        raise ModificationError("empty schedule file")
    return ScaleSchedule.from_breakpoints(times, betas, rhos, grid, vuv)
