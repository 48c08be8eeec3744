"""Framewise quasi-harmonic analysis.

Least-squares estimation of complex amplitudes and slopes per component,
frequency correction from the complex slope, adaptive refinement with a
nonstationary phase basis, and an autocorrelation fallback pitch detector.

The real-signal convention halves the unknowns: components are solved for
k = 1..K with the conjugate pair at -f implied, i.e. the model is
x(t) = sum_k 2*Re[(a_k + t*b_k) * exp(i*2*pi*f_k*t)].
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.integrate import cumulative_trapezoid
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.linalg.lapack import dpocon

from .signals import FrameGrid, QuasivocError, SignalBuffer, _wrap, grid_window, linear_interp

AMPLITUDE_FLOOR = 1e-7
COND_THRESHOLD = 1e10
RIDGE_SCALE = 1e-8
F0_QUANTUM = 0.01
# Component seeds stay this far below Nyquist, and unvoiced frames use seeds
# at this spacing (Pantazis et al., IEEE TASLP 2011)
NYQUIST_GUARD = 50.0
UNVOICED_F0 = 100.0
# adaptive refinement stops once an accepted iteration lowers the error by
# less than this fraction
REFINE_REL_TOL = 1e-4


class AnalysisError(QuasivocError):
    """Raised when a frame cannot be analyzed."""


@dataclass
class QhmFrameParams:
    """LS solution of one frame: complex amplitudes, slopes, frequencies."""

    a: np.ndarray          # complex amplitude per component
    b: np.ndarray          # complex slope per component (1/s)
    f_hat: np.ndarray      # seed frequency per component (Hz)
    frame_index: int = 0
    ill_conditioned: bool = False

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=np.complex128)
        self.b = np.asarray(self.b, dtype=np.complex128)
        self.f_hat = np.asarray(self.f_hat, dtype=np.float64)


@dataclass
class HarmonicSet:
    """Per-frame component frequencies, amplitudes, phases, compensations.

    All arrays are (frames, K). Phases are the wrapped framewise values in
    (-pi, pi]; compensations lie in [-pi, pi] and accumulate over frames
    during synthesis.
    """

    grid: FrameGrid
    frequencies: np.ndarray
    amplitudes: np.ndarray
    phases: np.ndarray
    compensations: np.ndarray
    sample_rate: int
    flags: np.ndarray = field(default=None)

    def __post_init__(self):
        self.frequencies = np.atleast_2d(np.asarray(self.frequencies, dtype=np.float64))
        self.amplitudes = np.atleast_2d(np.asarray(self.amplitudes, dtype=np.float64))
        self.phases = np.atleast_2d(np.asarray(self.phases, dtype=np.float64))
        self.compensations = np.atleast_2d(np.asarray(self.compensations, dtype=np.float64))
        if self.flags is None:
            self.flags = np.zeros(self.frequencies.shape[0], dtype=np.int64)
        if np.any(self.amplitudes < 0):
            raise AnalysisError("amplitudes must be nonnegative")

    @property
    def n_frames(self) -> int:
        return self.frequencies.shape[0]

    @property
    def n_components(self) -> int:
        return self.frequencies.shape[1]


@dataclass
class F0Track:
    """Per-frame fundamental frequency; 0 means unvoiced."""

    grid: FrameGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if not np.all(np.isfinite(self.values) & (self.values >= 0)):
            raise AnalysisError("f0 values must be finite and nonnegative")

    @property
    def voiced(self) -> np.ndarray:
        return self.values > 0


def _basis(t: np.ndarray, phase: np.ndarray, amp: np.ndarray | None = None) -> np.ndarray:
    """Real design matrix for the conjugate-pair LS system.

    phase is (n, K), each component's phase track over the window (the
    stationary model uses 2*pi*outer(t, f)); amp optionally scales each
    column. Columns come in blocks of K: [2cos | -2sin | 2t cos | -2t sin],
    so that the unknown vector is [Re a | Im a | Re b | Im b].
    """
    c, s = np.cos(phase), np.sin(phase)
    if amp is not None:
        c, s = c * amp, s * amp
    return np.hstack((2 * c, -2 * s, 2 * t[:, None] * c, -2 * t[:, None] * s))


def _harmonic_normal(base: float, k: int, t: np.ndarray,
                     window: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normal matrix and RHS table of the seeds base*(1..k), in closed form.

    Equals (G, T) of the _basis design Ew = _basis(t, 2*pi*outer(t, f)) *
    window with f = base*(1..k): G = Ew.T @ Ew and T = Ew[:, :2k], the
    [2cos | -2sin] half that the slope half repeats times t. With
    theta_i = 2*pi*i*base*t and the window sums
    S_m(d) = sum w^2 t^m exp(i*2*pi*d*base*t), m = 0, 1, 2, d = -2k..2k,
    Toeplitz plus Hankel gives S_m(j-i) + S_m(i+j) = sum w^2 t^m 2cos(theta_i)
    exp(i*theta_j), whose real and imaginary parts are the cos-cos and
    cos-sin entries of moment m; S_m(j-i) - S_m(i+j) gives the sin-sin ones.
    So G costs O(k*n + k^2) flops and no n x 4k basis. The powers
    exp(i*2*pi*d*base*t) come from repeated squaring: one exp per sample.
    """
    n_pow = 2 * k + 1
    powers = np.empty((t.size, n_pow), dtype=np.complex128)
    powers[:, 0] = 1.0
    z = np.exp(2j * np.pi * base * t)
    done = 1
    while done < n_pow:     # columns [0, m) times z^done are columns [done, done + m)
        m = min(done, n_pow - done)
        np.multiply(powers[:, :m], z[:, None], out=powers[:, done:done + m])
        done += m
        z = z * z
    w2 = window * window
    # a real product on the interleaved (re, im) columns: unlike the complex
    # product, it rounds the same with one and with two OpenBLAS threads
    sums = (np.stack((w2, w2 * t, w2 * t * t)) @ powers.view(np.float64)).view(np.complex128)
    signed = np.concatenate((sums[:, k - 1:0:-1].conj(), sums[:, :k]), axis=1)
    toeplitz = sliding_window_view(signed, k, axis=1)[:, ::-1]
    hankel = sliding_window_view(sums[:, 2:], k, axis=1)
    plus, minus = toeplitz + hankel, toeplitz - hankel
    cc, cs, ss = 2 * plus.real, -2 * plus.imag, 2 * minus.real
    gram = np.empty((4 * k, 4 * k))
    blocks = gram.reshape(2, 2, k, 2, 2, k)     # [amp/slope, cos/sin, i, amp/slope, cos/sin, j]
    for p in (0, 1):
        for q in (0, 1):
            blocks[p, 0, :, q, 0] = cc[p + q]
            blocks[p, 0, :, q, 1] = cs[p + q]
            blocks[p, 1, :, q, 0] = cs[p + q].T
            blocks[p, 1, :, q, 1] = ss[p + q]
    table = np.empty((t.size, 2 * k))
    np.multiply(powers[:, 1:k + 1].real, 2 * window[:, None], out=table[:, :k])
    np.multiply(powers[:, 1:k + 1].imag, -2 * window[:, None], out=table[:, k:])
    return gram, table


class _LsSolver:
    """Cached normal-equation solver for a fixed (basis, window) design.

    Frames sharing the same component frequencies and window slice reuse
    one Cholesky factorization, which dominates analysis speed for steady
    pitch. The Gram matrix G is Jacobi-scaled by d = sqrt(diag G) and
    factored once; LAPACK dpocon estimates its reciprocal 1-norm condition
    number rcond from the factor. If 1/rcond > COND_THRESHOLD or the factor
    does not exist, the design is ill-conditioned and gets a
    RIDGE_SCALE*trace(G) ridge.

    The RHS is [w*x, w*t*x] @ table: table (n, 2K) holds the windowed
    [2cos | -2sin] columns, and the slope columns are those times t. Build
    one with `harmonic` (seeds base*(1..K), closed-form Gram) or
    `from_phase` (any phase tracks, Gram of the _basis design).
    """

    def __init__(self, gram: np.ndarray, table: np.ndarray, t: np.ndarray, window: np.ndarray):
        self.d = np.sqrt(np.maximum(np.diag(gram), 1e-300))
        dd = np.outer(self.d, self.d)
        scaled = gram / dd
        try:
            self.factor = cho_factor(scaled)
            self.rcond = float(dpocon(self.factor[0], np.linalg.norm(scaled, 1))[0])
        except LinAlgError:
            self.rcond = 0.0
        self.ill_conditioned = self.rcond * COND_THRESHOLD < 1.0
        if self.ill_conditioned:
            self.factor = cho_factor((gram + RIDGE_SCALE * np.trace(gram) * np.eye(gram.shape[0])) / dd)
        self.table = table
        self.weights = np.stack((window, t * window))

    @classmethod
    def harmonic(cls, base: float, k: int, t: np.ndarray, window: np.ndarray) -> "_LsSolver":
        """Solver for the stationary design of the seeds base*(1..k)."""
        return cls(*_harmonic_normal(base, k, t, window), t, window)

    @classmethod
    def from_phase(cls, t: np.ndarray, phase: np.ndarray, window: np.ndarray,
                   amp: np.ndarray | None = None) -> "_LsSolver":
        """Solver for the _basis design of the given phase tracks."""
        ew = _basis(t, phase, amp) * window[:, None]
        return cls(ew.T @ ew, ew[:, :2 * phase.shape[1]], t, window)

    def solve(self, frame: np.ndarray, f_hat: np.ndarray, frame_index: int) -> QhmFrameParams:
        """Complex amplitudes and slopes of the components seeded at f_hat."""
        rhs = (self.weights * frame) @ self.table
        theta = (cho_solve(self.factor, rhs.ravel() / self.d) / self.d).reshape(4, -1)
        return QhmFrameParams(theta[0] + 1j * theta[1], theta[2] + 1j * theta[3],
                              f_hat, frame_index, self.ill_conditioned)


def qhm_ls_fit(frame_samples: np.ndarray, f_hats: np.ndarray, window: np.ndarray,
               sample_rate: int, frame_index: int = 0) -> QhmFrameParams:
    """Windowed least-squares fit of complex amplitude and slope per component.

    frame_samples must be centered on the frame (odd length, local time
    axis symmetric around 0). Requires at least 4K samples for a stable
    solution.
    """
    x = np.asarray(frame_samples, dtype=np.float64)
    f = np.asarray(f_hats, dtype=np.float64)
    k = f.size
    if x.size < 4 * k:
        raise AnalysisError(
            f"frame {frame_index}: window of {x.size} samples is below 4K={4 * k}")
    if np.any(np.abs(f) >= sample_rate / 2):
        raise AnalysisError(f"frame {frame_index}: component frequency at or above Nyquist")
    half = (x.size - 1) / 2.0
    t = (np.arange(x.size) - half) / sample_rate
    solver = _LsSolver.from_phase(t, 2 * np.pi * np.outer(t, f), np.asarray(window, dtype=np.float64))
    return solver.solve(x, f, frame_index)


def frequency_correction(params: QhmFrameParams) -> np.ndarray:
    """Per-component frequency offset from the complex slope.

    eta = (aR*bI - aI*bR) / (2*pi*|a|^2); components with |a| at or below
    the amplitude floor get eta = 0 (correction undefined).
    """
    a, b = params.a, params.b
    mag2 = np.abs(a) ** 2
    eta = np.zeros_like(mag2)
    ok = np.abs(a) > AMPLITUDE_FLOOR
    eta[ok] = (a.real[ok] * b.imag[ok] - a.imag[ok] * b.real[ok]) / (2 * np.pi * mag2[ok])
    return eta


def framewise_amp_phase(params: QhmFrameParams) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude and wrapped phase of each component at the frame center.

    Zero-amplitude components get phase 0 by convention.
    """
    amp = np.abs(params.a)
    phase = np.where(amp > 0, np.angle(params.a), 0.0)
    return amp, phase


def integrate_phase(inst_freq: np.ndarray, sample_rate: int) -> np.ndarray:
    """Cumulative-trapezoid phase from instantaneous frequency tracks along
    the last axis."""
    f = np.asarray(inst_freq, dtype=np.float64)
    if not np.all(np.isfinite(f)):
        raise AnalysisError("instantaneous frequency must be finite")
    return cumulative_trapezoid(2 * np.pi * f, dx=1.0 / sample_rate, initial=0.0)


def detect_f0(buffer: SignalBuffer, grid: FrameGrid,
              f0_range: tuple[float, float] = (50.0, 500.0),
              voicing_threshold: float = 0.45) -> F0Track:
    """Normalized-autocorrelation pitch detector with a voicing threshold.

    Per frame, the strongest normalized ACF peak inside the lag range
    gives f0; peaks below the threshold mark the frame unvoiced (0).
    """
    if len(buffer) == 0:
        raise AnalysisError("empty buffer")
    fs = buffer.sample_rate
    fmin, fmax = f0_range
    if not (0 < fmin < fmax < fs / 2):
        raise AnalysisError("f0_range must satisfy 0 < min < max < Nyquist")
    lag_min = max(2, int(np.floor(fs / fmax)))
    lag_max = int(np.ceil(fs / fmin))
    seg_len = 2 * lag_max
    x = buffer.samples
    values = np.zeros(len(grid))
    for l, tc in enumerate(grid.centers):
        c = int(round(tc * fs))
        lo, hi = c - seg_len // 2, c + seg_len // 2
        seg = x[max(0, lo):min(len(x), hi)]
        if seg.size < 2 * lag_min + 2:
            continue
        seg = seg - seg.mean()
        e0 = np.dot(seg, seg)
        if e0 <= 0:
            continue
        n = seg.size
        acf = np.correlate(seg, seg, mode="full")[n - 1:]
        # normalize by the energy of the overlapping region
        cum = np.cumsum(seg * seg)
        tail = e0 - np.concatenate(([0.0], cum[:-1]))
        with np.errstate(divide="ignore", invalid="ignore"):
            nacf = acf / np.sqrt(e0 * np.maximum(tail, 1e-300))
        top = min(lag_max, n - 2)
        if top <= lag_min:
            continue
        window = nacf[lag_min:top + 1]
        peak = int(np.argmax(window)) + lag_min
        if nacf[peak] < voicing_threshold:
            continue
        # parabolic refinement around the peak lag
        if lag_min < peak < top:
            y0, y1, y2 = nacf[peak - 1], nacf[peak], nacf[peak + 1]
            denom = y0 - 2 * y1 + y2
            delta = 0.5 * (y0 - y2) / denom if abs(denom) > 1e-30 else 0.0
            delta = float(np.clip(delta, -0.5, 0.5))
        else:
            delta = 0.0
        f0 = fs / (peak + delta)
        if fmin <= f0 <= fmax:
            values[l] = f0
    return F0Track(grid, values)


def refine_f0(hset: HarmonicSet, track: F0Track) -> F0Track:
    """Sharpen an f0 track using the corrected harmonic frequencies.

    On voiced frames the refined value is the amplitude-squared-weighted
    mean of f_k / k over significant components; the ACF detector is
    only accurate to a fraction of a lag, and its residual bias
    accumulates as linear phase drift over long signals. Unvoiced
    frames keep 0.
    """
    if hset.n_frames != len(track.values):
        raise AnalysisError("harmonic set and track must share the grid")
    k = np.arange(1, hset.n_components + 1)
    values = np.zeros(hset.n_frames)
    for l in range(hset.n_frames):
        if track.values[l] <= 0:
            continue
        amp = hset.amplitudes[l]
        f = hset.frequencies[l]
        use = (amp > AMPLITUDE_FLOOR) & (f > 0)
        if not use.any():
            values[l] = track.values[l]
            continue
        w = amp[use] ** 2
        values[l] = float(np.sum(w * f[use] / k[use]) / np.sum(w))
    return F0Track(hset.grid, values)


def _clamp_correction(eta: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Limit corrections to half the component spacing.

    Keeps components from swapping order or drifting onto a neighbor,
    which happens on near-silent components whose slope is pure noise.
    """
    if freqs.size > 1:
        bound = 0.5 * float(np.min(np.abs(np.diff(np.sort(freqs)))))
        bound = max(bound, 1e-3)
    else:
        bound = 0.5 * max(float(freqs[0]), 1.0)
    return np.clip(eta, -bound, bound)


def _corrected(params: QhmFrameParams, sample_rate: int):
    """Corrected frequencies, amplitudes and phases of one solved frame.

    The correction is clamped to half the component spacing and the
    corrected frequencies are clipped to [0, Nyquist).
    """
    eta = _clamp_correction(frequency_correction(params), params.f_hat)
    amp, phase = framewise_amp_phase(params)
    return np.clip(params.f_hat + eta, 0.0, sample_rate / 2 - 1e-6), amp, phase


def harmonic_grid(f0_track: F0Track, sample_rate: int,
                  max_components: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame component frequency seeds k*f0 below Nyquist - NYQUIST_GUARD.

    Unvoiced frames (f0 == 0) use a dense synthetic grid at UNVOICED_F0
    spacing so noise-like segments are still covered by quasi-harmonics.
    Seeds are quantized to F0_QUANTUM so frames with near-identical pitch
    share one frequency set (and hence one cached LS factorization); the
    per-frame frequency correction absorbs far larger seed errors than
    the quantum.

    Returns (freqs, counts): freqs is (frames, K) with K the maximum
    component count of any frame; counts[l] is the number of in-band
    components on frame l, at least 1. Components beyond counts[l] are
    parked at the frame's last in-band seed and meant to carry zero
    amplitude. A track with no frames raises AnalysisError.
    """
    f0 = f0_track.values
    if not f0.size:
        raise AnalysisError("f0 track has no frames")
    base = np.where(f0 > 0, f0, UNVOICED_F0)
    base = np.maximum(np.round(base / F0_QUANTUM) * F0_QUANTUM, F0_QUANTUM)
    counts = np.floor((sample_rate / 2.0 - NYQUIST_GUARD) / base).astype(np.int64)
    if max_components is not None:
        counts = np.minimum(counts, max_components)
    counts = np.maximum(counts, 1)
    K = int(counts.max())
    return base[:, None] * np.minimum(np.arange(1, K + 1), counts[:, None]), counts


def compensations_from_phases(grid: FrameGrid, freqs: np.ndarray,
                              phases: np.ndarray) -> np.ndarray:
    """Per-frame phase compensations reproducing the framewise phases.

    Chains wrapped corrections so that excitation phase plus the running
    compensation sum hits each measured phase modulo 2*pi; every
    compensation lies in [-pi, pi].
    """
    from .synth import excitation_phase
    exc = excitation_phase(freqs, grid)
    comp = np.zeros_like(phases)
    running = np.zeros(phases.shape[1])
    for l in range(phases.shape[0]):
        comp[l] = _wrap(phases[l] - exc[l] - running)
        running += comp[l]
    return comp


def analyze_qhm(buffer: SignalBuffer, grid: FrameGrid, f0_track: F0Track,
                max_components: int | None = None) -> HarmonicSet:
    """One QHM pass over all frames: LS fit plus frequency correction.

    Every frame is fitted on the samples its window covers inside the
    signal, with the matching slice of the window and the frame-centered
    time axis; zero-padding would bias amplitudes low. A frame fits
    min(counts[l], n_valid // 4) components, so that the LS system has at
    least as many samples as unknowns; the others keep their seeds at zero
    amplitude. The component count K is fixed across frames (the maximum
    the K rule yields on any frame). Flag bit 1 marks an ill-conditioned
    fit, bit 2 a window truncated by the signal's edge.
    """
    fs = buffer.sample_rate
    window = grid_window(grid, fs)
    n_win = window.size
    half = (n_win - 1) // 2
    t = (np.arange(n_win) - half) / fs
    seed_freqs, counts = harmonic_grid(f0_track, fs, max_components)
    above = np.flatnonzero(np.any(seed_freqs >= fs / 2, axis=1))
    if above.size:
        raise AnalysisError(f"frame {above[0]}: component frequency at or above Nyquist")
    L, K = seed_freqs.shape
    freqs = seed_freqs.copy()
    amps = np.zeros((L, K))
    phases = np.zeros((L, K))
    flags = np.zeros(L, dtype=np.int64)
    x = buffer.samples
    n = len(x)
    solvers: dict[tuple, _LsSolver] = {}
    for l, tc in enumerate(grid.centers):
        c = int(round(tc * fs))
        lo, hi = max(0, c - half), min(n, c + half + 1)
        if hi - lo < 8:
            raise AnalysisError(f"frame {l}: no usable samples")
        k_l = min(counts[l], (hi - lo) // 4)
        fseed = seed_freqs[l, :k_l]
        sl = slice(lo - c + half, hi - c + half)
        key = (fseed.tobytes(), sl.start, sl.stop)
        if key not in solvers:
            solvers[key] = _LsSolver.harmonic(fseed[0], k_l, t[sl], window[sl])
        params = solvers[key].solve(x[lo:hi], fseed, l)
        freqs[l, :k_l], amps[l, :k_l], phases[l, :k_l] = _corrected(params, fs)
        flags[l] = int(params.ill_conditioned) | 2 * (hi - lo < n_win)
    comp = compensations_from_phases(grid, freqs, phases)
    return HarmonicSet(grid, freqs, amps, phases, comp, fs, flags)


def _instantaneous_tracks(hset: HarmonicSet, n_samples: int):
    """Audio-rate frequency and amplitude per component, linearly interpolated."""
    fs = hset.sample_rate
    tt = np.arange(n_samples) / fs
    tc = hset.grid.centers
    inst_f = np.empty((hset.n_components, n_samples))
    inst_a = np.empty((hset.n_components, n_samples))
    for k in range(hset.n_components):
        inst_f[k] = linear_interp(tc, hset.frequencies[:, k], tt)
        inst_a[k] = linear_interp(tc, hset.amplitudes[:, k], tt)
    return inst_f, inst_a


def refine_adaptive(buffer: SignalBuffer, initial: HarmonicSet, mode: str = "aqhm",
                    max_iters: int = 3, return_errors: bool = False):
    """Adaptive refinement of a QHM pass with a nonstationary phase basis.

    Each iteration interpolates the corrected frequencies to audio rate,
    integrates them into a per-component phase track, rebuilds the LS
    basis around that track (mode 'eaqhm' also applies the framewise
    amplitude ratio), re-solves on every frame whose window lies inside the
    signal the components that carry amplitude (parked ones stay at zero),
    and re-corrects their frequencies.
    Iterations that do not reduce the resynthesis error against the
    original speech are rejected and refinement stops; accepted error is
    therefore monotone nonincreasing.
    """
    if mode not in ("aqhm", "eaqhm"):
        raise AnalysisError(f"unknown refinement mode: {mode}")
    if max_iters < 1:
        raise AnalysisError("max_iters must be >= 1")
    if initial.sample_rate != buffer.sample_rate:
        raise AnalysisError("harmonic set and buffer sample rates differ")
    fs = buffer.sample_rate
    grid = initial.grid
    window = grid_window(grid, fs)
    n_win = window.size
    half = (n_win - 1) // 2
    t_local = (np.arange(n_win) - half) / fs
    x = buffer.samples
    centers_idx = [int(round(tc * fs)) for tc in grid.centers]

    def total_error(hset: HarmonicSet) -> float:
        # resynthesis error over the span with full window coverage; edge
        # frames are not refined (their windows run off the signal) and
        # would otherwise mask interior improvement
        from .synth import synthesize_qhm
        y = synthesize_qhm(hset).samples
        n = min(y.size, x.size)
        lo, hi = min(half, n // 4), n - min(half, n // 4)
        return float(np.sum((x[lo:hi] - y[lo:hi]) ** 2))

    best = initial
    best_err = total_error(initial)
    history = [best_err]
    for _ in range(max_iters):
        candidate = _refine_once(buffer, best, mode, window, t_local, centers_idx)
        cand_err = total_error(candidate)
        if cand_err >= best_err:
            break
        improved = (best_err - cand_err) >= REFINE_REL_TOL * best_err
        best, best_err = candidate, cand_err
        history.append(cand_err)
        if not improved:
            break
    if return_errors:
        return best, history
    return best


def _refine_once(buffer: SignalBuffer, current: HarmonicSet, mode: str,
                 window: np.ndarray, t_local: np.ndarray,
                 centers_idx: list[int]) -> HarmonicSet:
    fs = buffer.sample_rate
    half = (window.size - 1) // 2
    n_samples = len(buffer)
    inst_f, inst_a = _instantaneous_tracks(current, n_samples)
    # global unwrapped phase track per component from frequency integration
    inst_phi = integrate_phase(inst_f, fs)
    freqs = current.frequencies.copy()
    amps = current.amplitudes.copy()
    phases = current.phases.copy()
    flags = current.flags.copy()
    x = buffer.samples
    for l, c in enumerate(centers_idx):
        lo, hi = c - half, c + half + 1
        if lo < 0 or hi > n_samples:
            # edge windows run off the signal and make the adaptive basis degenerate
            continue
        # only components with amplitude are solved: the ones harmonic_grid
        # parks at a duplicate frequency would make the basis rank-deficient,
        # so they keep their frequency, zero amplitude and phase
        live = np.flatnonzero(current.amplitudes[l])
        if live.size == 0:
            continue
        # nonstationary phase basis Phi_k(t) = phi_k(t_l + t) - phi_k(t_l)
        basis_phase = inst_phi[live, lo:hi].T - inst_phi[None, live, c]
        amp_ratio = None
        if mode == "eaqhm":
            a_c = inst_a[live, c]
            significant = a_c > max(AMPLITUDE_FLOOR, 1e-4 * float(a_c.max()))
            amp_ratio = np.ones((hi - lo, live.size))
            ratio = inst_a[live[significant], lo:hi].T / a_c[significant][None, :]
            amp_ratio[:, significant] = np.clip(ratio, 0.1, 10.0)
        try:
            params = _LsSolver.from_phase(t_local, basis_phase, window, amp_ratio).solve(
                x[lo:hi], freqs[l, live], l)
        except LinAlgError:
            flags[l] |= 2
            continue
        freqs[l, live], amps[l, live], phases[l, live] = _corrected(params, fs)
        flags[l] |= int(params.ill_conditioned)
    comp = compensations_from_phases(current.grid, freqs, phases)
    return HarmonicSet(current.grid, freqs, amps, phases, comp, fs, flags)
