"""Time-scale and pitch-scale modification.

Voiced frames are pitch-shifted by rho and the envelope is resampled at
the shifted frequencies; unvoiced frames keep their original frequencies.
Both banks live on the stretched time axis and are rendered together, in
one pass. The cascade itself is never altered.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arma import ArmaCascade
from .qhm import F0Track, harmonic_grid
from .signals import FrameGrid, QuasivocError, SignalBuffer, SignalError
from .synth import cascade_tracks, render


class ModificationError(QuasivocError):
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
        if not all(np.all(np.isfinite(x) & (x > 0)) for x in (self.betas, self.rhos)):
            raise ModificationError("scale factors must be positive and finite")
        if not (len(self.betas) == len(self.rhos) == len(self.vuv)):
            raise ModificationError("schedule arrays must have equal length")

    @classmethod
    def constant(cls, n_frames: int, beta: float, rho: float,
                 vuv: np.ndarray) -> "ScaleSchedule":
        return cls(np.full(n_frames, beta), np.full(n_frames, rho), vuv)

    @classmethod
    def from_breakpoints(cls, times, betas, rhos, grid: FrameGrid,
                         vuv: np.ndarray) -> "ScaleSchedule":
        """Linear interpolation of breakpoint (time, beta, rho) onto frames,
        holding the end values outside the breakpoints."""
        if not len(times):
            raise ModificationError("a schedule needs at least one breakpoint")
        if not (np.all(np.isfinite(times)) and np.all(np.diff(times) > 0)):
            raise ModificationError("breakpoint times must be finite and increasing")
        return cls(np.interp(grid.centers, times, betas), np.interp(grid.centers, times, rhos),
                   vuv)


def scaled_times(grid: FrameGrid, betas: np.ndarray) -> np.ndarray:
    """Stretched frame times: t[l] = sum_i beta_i * (t_i - t_{i-1}), t[0] = 0."""
    b = np.asarray(betas, dtype=np.float64)
    if np.any(b <= 0):
        raise ModificationError("beta must be positive")
    dt = np.diff(grid.centers)
    out = np.zeros(len(grid))
    np.cumsum(b[1:] * dt, out=out[1:])
    return out


def modified_tracks(cascade: ArmaCascade, schedule: ScaleSchedule, freqs: np.ndarray,
                    counts: np.ndarray):
    """Amplitudes and phases of the voiced and unvoiced banks, one envelope pass.

    Both are (frames, 2K): the voiced bank at rho*f in the first K columns,
    the unvoiced bank at f in the last K, with the first counts[l] columns
    of each bank live on frame l. cascade_tracks samples the envelope at
    both, on the stretched axis (step i scaled by beta_i), and mutes the
    components above Nyquist - NYQUIST_GUARD. Voiced amplitudes are masked
    by VUV and carry the gain normalization G' = G * sqrt(K_orig / K_mod),
    with K_mod the frame's audible voiced components, so total power
    survives harmonic-count changes under pitch scaling; unvoiced
    amplitudes are masked by 1-VUV.
    """
    f = np.atleast_2d(np.asarray(freqs, dtype=np.float64))
    counts = np.asarray(counts)
    K = f.shape[1]
    live = np.tile(np.arange(K) < counts[:, None], 2)
    amps, phases, audible = cascade_tracks(cascade, np.hstack([f * schedule.rhos[:, None], f]),
                                           live, schedule.betas)
    norm = np.sqrt(counts / np.maximum(np.count_nonzero(audible[:, :K], axis=1), 1))
    vuv = schedule.vuv[:, None]
    amps[:, :K] = np.where(vuv, norm[:, None] * amps[:, :K], 0.0)
    amps[:, K:] = np.where(vuv, 0.0, amps[:, K:])
    return amps, phases


def modify(cascade: ArmaCascade, f0_track: F0Track, schedule: ScaleSchedule,
           max_components: int | None = None) -> SignalBuffer:
    """Full time/pitch modification pipeline.

    Builds the stretched time grid, splits components into voiced and
    unvoiced banks, resamples the envelope at shifted frequencies, and
    renders both banks on the stretched axis in one render call, voiced
    columns before unvoiced ones. The VUV flips get a one-frame amplitude
    ramp for free from the linear interpolation of the masked framewise
    amplitudes.
    """
    fs = cascade.sample_rate
    if cascade.n_frames != len(schedule.betas) or cascade.n_frames != len(f0_track.values):
        raise SignalError("cascade, track, and schedule must share the frame grid")
    if cascade.n_frames == 0:
        return SignalBuffer(np.zeros(0), fs)
    freqs, counts = harmonic_grid(f0_track, fs, max_components)
    t_hat = scaled_times(cascade.grid, schedule.betas)
    mod_grid = FrameGrid(t_hat, cascade.grid.frame_shift, cascade.grid.half_window,
                         cascade.grid.window_kind, cascade.grid.gauss_sigma)
    amps, phases = modified_tracks(cascade, schedule, freqs, counts)
    return render(amps, phases, mod_grid, fs)


def load_schedule(path, grid: FrameGrid, vuv: np.ndarray) -> ScaleSchedule:
    """Read breakpoint lines 'time_seconds beta rho' into a ScaleSchedule."""
    times, betas, rhos = [], [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                t, beta, rho = (float(part) for part in line.split())
            except ValueError:
                raise ModificationError(
                    f"{path}:{lineno}: expected 'time beta rho', got {line!r}") from None
            times.append(t)
            betas.append(beta)
            rhos.append(rho)
    if not times:
        raise ModificationError("empty schedule file")
    return ScaleSchedule.from_breakpoints(times, betas, rhos, grid, vuv)
