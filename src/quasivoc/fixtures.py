"""Deterministic test-signal generators with ground-truth sidecars.

Every generator returns (SignalBuffer, sidecar dict); the sidecar holds
the exact generator parameters so tests can score reconstructions
against known truth.
"""
from __future__ import annotations

import numpy as np

from .arma import ArmaCascade
from .signals import FrameGrid, SignalBuffer, SignalError, check_rate


def _n_samples(duration: float, sample_rate: int) -> int:
    """Samples in a clip of the given duration, at least one, at a positive
    integer rate."""
    n = duration * check_rate(sample_rate)
    if not np.isfinite(n) or int(round(n)) < 1:
        raise SignalError("duration must be finite and hold at least one sample")
    return int(round(n))


def tone(freq: float, duration: float, sample_rate: int,
         amplitude: float = 0.5, phase: float = 0.0):
    """Single cosine."""
    t = np.arange(_n_samples(duration, sample_rate)) / sample_rate
    x = amplitude * np.cos(2 * np.pi * freq * t + phase)
    sidecar = {"kind": "tone", "freq": freq, "amplitude": amplitude,
               "phase": phase, "duration": duration, "sample_rate": sample_rate}
    return SignalBuffer(x, sample_rate), sidecar


def multisine(f0: float, n_harmonics: int, duration: float, sample_rate: int,
              amplitudes=None, phases=None, seed: int = 0):
    """Harmonic stack at k*f0 with given or seeded amplitudes/phases."""
    rng = np.random.default_rng(seed)
    if amplitudes is None:
        amplitudes = 0.3 / np.arange(1, n_harmonics + 1)
    if phases is None:
        phases = rng.uniform(-np.pi, np.pi, n_harmonics)
    amplitudes = np.asarray(amplitudes, dtype=np.float64)
    phases = np.asarray(phases, dtype=np.float64)
    if amplitudes.shape != (n_harmonics,) or phases.shape != (n_harmonics,):
        raise SignalError("amplitudes and phases need one value per harmonic")
    t = np.arange(_n_samples(duration, sample_rate)) / sample_rate
    x = np.zeros_like(t)
    for k in range(n_harmonics):
        x += amplitudes[k] * np.cos(2 * np.pi * (k + 1) * f0 * t + phases[k])
    sidecar = {"kind": "multisine", "f0": f0, "n_harmonics": n_harmonics,
               "amplitudes": amplitudes.tolist(), "phases": phases.tolist(),
               "duration": duration, "sample_rate": sample_rate}
    return SignalBuffer(x, sample_rate), sidecar


def chirp(f_start: float, f_end: float, duration: float, sample_rate: int,
          n_harmonics: int = 1, amplitude: float = 0.4):
    """Linear chirp of the fundamental; harmonics scale proportionally."""
    t = np.arange(_n_samples(duration, sample_rate)) / sample_rate
    f0 = f_start + (f_end - f_start) * t / duration
    phase0 = 2 * np.pi * np.cumsum(f0) / sample_rate
    x = np.zeros_like(t)
    for k in range(1, n_harmonics + 1):
        x += (amplitude / k) * np.cos(k * phase0)
    sidecar = {"kind": "chirp", "f_start": f_start, "f_end": f_end,
               "n_harmonics": n_harmonics, "amplitude": amplitude,
               "duration": duration, "sample_rate": sample_rate}
    return SignalBuffer(x, sample_rate), sidecar


def vowel_cascade(sample_rate: int, n_frames: int, frame_shift: float,
                  half_window: float, gain: float = 0.05,
                  orders=(16, 16, 2)) -> ArmaCascade:
    """Time-invariant vowel-like envelope: resonant poles plus mild zeros.

    Two sections, each a pair of resonances, giving a smooth formant-ish
    magnitude with nontrivial phase delay; orders sets the section lengths
    P/r and Q/r.
    """
    p, q, r = orders
    p_sec, q_sec = p // r, q // r

    def resonant_ar(freqs_hz, radii):
        poly = np.array([1.0])
        for f, rad in zip(freqs_hz, radii):
            w = 2 * np.pi * f / sample_rate
            poly = np.convolve(poly, [1.0, -2 * rad * np.cos(w), rad ** 2])
        out = np.zeros(p_sec)
        out[:poly.size - 1] = poly[1:]
        return out

    ar = np.array([resonant_ar([500, 1500], [0.92, 0.90]),
                   resonant_ar([2500, 3500], [0.88, 0.85])])
    ma = np.zeros((2, q_sec))
    ma[1, 0] = 0.3
    grid = FrameGrid(np.arange(n_frames) * frame_shift, frame_shift, half_window)
    return ArmaCascade(grid, np.full(n_frames, gain), np.tile(ar, (n_frames, 1, 1)),
                       np.tile(ma, (n_frames, 1, 1)), sample_rate)


def vowel(f0: float, duration: float, sample_rate: int, frame_shift: float = 0.005,
          half_window: float = 0.010, peak: float = 0.5):
    """Synthetic vowel: a known envelope cascade driven by a flat f0 track.

    Generated through the harmonic synthesis pipeline, so the sidecar's
    cascade is the exact generator of the waveform. The gain is chosen so
    the waveform peak equals `peak` (synthesis is linear in the gain).
    """
    from .qhm import F0Track
    from .synth import synthesize_arma
    if not (frame_shift > 0 and np.isfinite(duration) and duration >= 0):
        raise SignalError("frame_shift must be positive, and duration finite and nonnegative")
    n_frames = int(np.floor(duration / frame_shift)) + 1
    cascade = vowel_cascade(sample_rate, n_frames, frame_shift, half_window, 1.0)
    track = F0Track(cascade.grid, np.full(n_frames, f0))
    buf = synthesize_arma(cascade, track)
    scale = peak / np.abs(buf.samples).max()
    gain = scale
    cascade = vowel_cascade(sample_rate, n_frames, frame_shift, half_window, gain)
    buf = SignalBuffer(buf.samples * scale, sample_rate)
    sidecar = {"kind": "vowel", "f0": f0, "duration": duration,
               "sample_rate": sample_rate, "frame_shift": frame_shift,
               "half_window": half_window, "gain": gain, "peak": peak,
               "orders": list(cascade.orders)}
    return buf, sidecar, cascade, track


def noise(duration: float, sample_rate: int, amplitude: float = 0.1,
          seed: int = 0):
    """Seeded white Gaussian noise."""
    rng = np.random.default_rng(seed)
    x = amplitude * rng.standard_normal(_n_samples(duration, sample_rate))
    sidecar = {"kind": "noise", "amplitude": amplitude, "seed": seed,
               "duration": duration, "sample_rate": sample_rate}
    return SignalBuffer(x, sample_rate), sidecar


def generate(kind: str, **params):
    """Dispatch by fixture kind; returns (buffer, sidecar)."""
    if kind == "tone":
        return tone(**params)
    if kind == "multisine":
        return multisine(**params)
    if kind == "chirp":
        return chirp(**params)
    if kind == "vowel":
        buf, sidecar, _, _ = vowel(**params)
        return buf, sidecar
    if kind == "noise":
        return noise(**params)
    raise SignalError(f"unknown fixture kind: {kind}")
