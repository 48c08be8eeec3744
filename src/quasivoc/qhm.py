"""Framewise quasi-harmonic analysis.

Least-squares estimation of complex amplitudes and slopes per component,
frequency correction from the complex slope, harmonic-locked adaptive
refinement, an autocorrelation fallback pitch detector, and the analysis
chain that joins them (analyze).

The real-signal convention halves the unknowns: components are solved for
k = 1..K with the conjugate pair at -f implied, i.e. the model is
x(t) = sum_k 2*Re[(a_k + t*b_k) * exp(i*2*pi*f_k*t)].
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.linalg.lapack import dpocon

from .signals import (FrameGrid, QuasivocError, SignalBuffer, SignalError, _wrap, check_rate,
                      frame_view, grid_window)

AMPLITUDE_FLOOR = 1e-7
COND_THRESHOLD = 1e10
RIDGE_SCALE = 1e-8
F0_QUANTUM = 0.01
# Component seeds and refined harmonics stay this far below Nyquist, and
# unvoiced frames use seeds at this spacing (Pantazis et al., IEEE TASLP 2011)
NYQUIST_GUARD = 50.0
UNVOICED_F0 = 100.0
# adaptive refinement accepts an iteration only if it lowers the error by at
# least this fraction of it
REFINE_REL_TOL = 1e-4
VOICING_THRESHOLD = 0.45
# detect_f0's ACF is 0 at lags that keep at most this fraction of the energy
ACF_TAIL_FLOOR = 1e-20
# detect_f0 takes one rfft, and analyze_qhm one solve per LS set, per block of
# at most this many frames: the blocks bound the memory of both passes
FRAME_BLOCK = 128


def _next_fast_len(n: int) -> int:
    """The smallest 5-smooth integer >= n >= 1, as scipy.fft.next_fast_len(n,
    real=True) gives it: a length pocketfft transforms fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power-of-2 multiple of p35 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


class AnalysisError(QuasivocError):
    """Raised when a frame cannot be analyzed."""


@dataclass
class HarmonicSet:
    """Per-frame component frequencies, amplitudes, phases, compensations.

    All arrays are (frames, K), and the grid and the flags (frames,) hold
    one entry per frame. Phases are the wrapped framewise values in
    (-pi, pi]; compensations lie in [-pi, pi] and accumulate over frames
    during synthesis. The sample rate is a positive integer.
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
        arrays = (self.frequencies, self.amplitudes, self.phases, self.compensations)
        self.sample_rate = check_rate(self.sample_rate, AnalysisError)
        if self.flags is None:
            self.flags = np.zeros(self.frequencies.shape[0], dtype=np.int64)
        if (len({a.shape for a in arrays}) > 1 or self.frequencies.ndim != 2
                or np.shape(self.flags) != (self.n_frames,) or len(self.grid) != self.n_frames):
            raise AnalysisError("grid, flags and arrays disagree on the frame or component count")
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise AnalysisError("frequencies, amplitudes, phases and compensations must be finite")
        if np.any(self.amplitudes < 0):
            raise AnalysisError("amplitudes must be nonnegative")
        if np.any(np.abs(self.compensations) > np.pi + 1e-12):
            raise AnalysisError("phase compensations must lie in [-pi, pi]")

    @property
    def n_frames(self) -> int:
        return self.frequencies.shape[0]

    @property
    def n_components(self) -> int:
        return self.frequencies.shape[1]


@dataclass
class F0Track:
    """Per-frame fundamental frequency, one value per frame of the grid; 0
    means unvoiced."""

    grid: FrameGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(self.grid),):
            raise AnalysisError("f0 track needs one value per frame of its grid")
        if not np.all(np.isfinite(self.values) & (self.values >= 0)):
            raise AnalysisError("f0 values must be finite and nonnegative")

    @property
    def voiced(self) -> np.ndarray:
        return self.values > 0


def _harmonic_normal(z: np.ndarray, k: int, t: np.ndarray, window: np.ndarray, fold: bool):
    """Normal matrix of harmonics 1..k of one base phase, in closed form.

    z = exp(i*Phi(t)) samples the base phase over the window, and harmonic i
    has the phase theta_i = i*Phi. The design columns come in four groups of
    k, [2cos | -2sin | 2t cos | -2t sin], so that the unknown vector is
    [Re a | Im a | Re b | Im b]: group g is cos (g even) or sin (g odd)
    times t^(g//2). With the window sums S_m(d) = sum w^2 t^m z^d, d = 0..2k,
    and S_m(-d) = conj(S_m(d)), Toeplitz T_m = S_m(j-i) plus Hankel
    H_m = S_m(i+j) gives every block by one moment rule: groups g and h meet
    at moment m = g//2 + h//2, as
      cos-cos cc_m = 2Re[T_m + H_m], sin-sin ss_m = 2Re[T_m - H_m],
      cos-sin cs_m = -2Im[T_m + H_m], sin-cos cs_m.T.
    The powers z^d come from repeated squaring: one exp per sample.

    In general mode (a window cut by the signal's edge, or a nonstationary
    Phi) the sums run over every sample, and groups (0, 1, 2, 3) make one
    block of order 4k. fold mode needs a full window, the centred axis t
    (t[0] == -t[-1]) and a symmetric window, and a stationary phase
    Phi = 2*pi*base*t. Then S_0 and S_2 are real and S_1 is imaginary, so
    the sums run over the half window t >= 0 only, and the columns split
    into the orthogonal even groups (0, 3), {2cos, -2t sin}, and odd groups
    (1, 2), {-2sin, 2t cos}: two blocks of order 2k.

    Returns (blocks, table, weights) for _LsSolver: blocks is
    [(index, gram)], index placing each block's unknowns in
    [Re a | Im a | Re b | Im b]; table holds the windowed [2cos | -2sin]
    columns and weights the window and t*window. In fold mode both are over
    t >= 0, with the centre weight halved because a fold of the frame about
    its centre counts the centre sample twice. The layout is part of the
    bytes, since the RHS product and the gram's 1-norm round by it: each
    gram is C-ordered, and the table is C-ordered in fold mode and
    Fortran-ordered in general mode.
    """
    mult = 1.0
    if fold:
        h = t.size // 2
        t, window, z = t[h:], window[h:], z[h:]
        # each sample off the centre stands for itself and its mirror image
        mult = np.full(h + 1, 2.0)
        mult[0] = 1.0
    n_pow = 2 * k + 1
    powers = np.empty((t.size, n_pow), dtype=np.complex128)
    powers[:, 0] = 1.0
    done = 1
    while done < n_pow:     # columns [0, m) times z^done are columns [done, done + m)
        m = min(done, n_pow - done)
        np.multiply(powers[:, :m], z[:, None], out=powers[:, done:done + m])
        done += m
        z = z * z
    w2 = mult * window * window
    # a real product on the interleaved (re, im) columns: unlike the complex
    # product, it rounds the same with one and with two OpenBLAS threads
    moments = np.stack((w2, w2 * t, w2 * t * t)) @ powers.view(np.float64)
    # 2Re S_m and -2Im S_m, m = 0..2: even and odd in d. The first three
    # rows give cc_m = T + H and ss_m = T - H, the last three cs_m = T + H.
    # In fold mode only 2Re S_0, 2Re S_2 and -2Im S_1 are window sums
    sums = np.concatenate((2 * moments[:, 0::2], -2 * moments[:, 1::2]))
    signed = np.concatenate((sums[:, k - 1:0:-1] * np.repeat([[1.0], [-1.0]], 3, axis=0),
                             sums[:, :k]), axis=1)
    toeplitz = sliding_window_view(signed, k, axis=1)[:, ::-1]     # T = S(j - i)
    hankel = sliding_window_view(sums[:, 2:], k, axis=1)           # H = S(i + j)
    table = np.empty((t.size, 2 * k), order="C" if fold else "F")
    np.multiply(powers[:, 1:k + 1].real, 2 * window[:, None], out=table[:, :k])
    np.multiply(powers[:, 1:k + 1].imag, -2 * window[:, None], out=table[:, k:])
    blocks = []
    for groups in ([0, 3], [1, 2]) if fold else ([0, 1, 2, 3],):
        gram = np.empty((len(groups), k, len(groups), k))
        for r, g in enumerate(groups):
            for c, h in enumerate(groups):
                m = g // 2 + h // 2
                if g % 2 == h % 2:      # cc_m or ss_m
                    (np.subtract if g % 2 else np.add)(toeplitz[m], hankel[m], out=gram[r, :, c])
                elif g % 2 == 0:        # cs_m
                    np.add(toeplitz[3 + m], hankel[3 + m], out=gram[r, :, c])
                else:                   # cs_m.T
                    np.add(toeplitz[3 + m].T, hankel[3 + m].T, out=gram[r, :, c])
        index = (k * np.array(groups)[:, None] + np.arange(k)).ravel()
        blocks.append((index, gram.reshape(index.size, index.size)))
    weights = np.stack((window, t * window))
    return blocks, table, weights * (mult / 2) if fold else weights


class _LsSolver:
    """Cached normal-equation solver for a fixed (basis, window) design.

    Frames sharing the same component frequencies and window slice reuse
    one factorization, which dominates analysis speed for steady pitch. The
    normal matrix G is block diagonal, given as a list of (index, gram):
    index places the block's unknowns in [Re a | Im a | Re b | Im b]. Each
    block is Jacobi-scaled in place by d = sqrt(diag) and factored once;
    LAPACK dpocon estimates its reciprocal 1-norm condition number rcond_i.
    The 1-norm condition number of G is max ||A_i|| * max ||A_i^-1||, with
    ||A_i^-1|| = 1 / (rcond_i ||A_i||). If it exceeds COND_THRESHOLD or a
    factor does not exist, the design is ill-conditioned and every block
    gets a RIDGE_SCALE*trace(G) ridge. If not even the ridge makes every
    block factorable, the solver has no blocks and solves no frame.

    The RHS of the samples x is ((weights * x) @ table).ravel(): table
    (m, 2K) holds the windowed [2cos | -2sin] columns and weights (2, m) the
    window and t*window, so that the two rows are the amplitude and slope
    halves. One block reads the frame itself. Two blocks are the even and
    odd blocks of a full window: each reads its own fold of the frame about
    the centre sample, x(t) + x(-t) or x(t) - x(-t) over t >= 0. solve takes
    one frame (m,) or a stack (F, m) of frames that share the design: each
    block solves all F right-hand sides in one cho_solve, and every frame
    gets the bytes it gets on its own.

    Every design the package solves is harmonics 1..K of one base phase:
    build it as _LsSolver(*_harmonic_normal(...)), or with `harmonic` for
    the stationary seeds base*(1..K).
    """

    def __init__(self, blocks: list[tuple[np.ndarray, np.ndarray]], table: np.ndarray,
                 weights: np.ndarray):
        scales = [np.sqrt(np.maximum(np.diag(gram), 1e-300)) for _, gram in blocks]
        trace = sum(np.trace(gram) for _, gram in blocks)
        for (_, gram), d in zip(blocks, scales):
            gram /= d
            gram /= d[:, None]
        try:
            factors = [cho_factor(gram) for _, gram in blocks]
            norms = [np.linalg.norm(gram, 1) for _, gram in blocks]
            self.rcond = float(min(dpocon(factor[0], norm)[0] * norm
                                   for factor, norm in zip(factors, norms)) / max(norms))
        except LinAlgError:
            self.rcond = 0.0
        self.ill_conditioned = self.rcond * COND_THRESHOLD < 1.0
        if self.ill_conditioned:
            try:
                factors = [cho_factor(gram + np.diag(RIDGE_SCALE * trace / (d * d)))
                           for (_, gram), d in zip(blocks, scales)]
            except LinAlgError:
                factors = []
        self.blocks = [(index, d, factor)
                       for (index, _), d, factor in zip(blocks, scales, factors)]
        self.table, self.weights = table, weights

    @classmethod
    def harmonic(cls, base: float, k: int, t: np.ndarray, window: np.ndarray) -> "_LsSolver":
        """Solver for the stationary design of the seeds base*(1..k): the even
        and odd blocks on a full window, one block on a window cut by the
        signal's edge (t[0] != -t[-1])."""
        z = np.exp(2j * np.pi * base * t)
        return cls(*_harmonic_normal(z, k, t, window, fold=t[0] == -t[-1]))

    def solve(self, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        """Complex amplitudes a and slopes b of the components of one frame
        (m,) or of each row of frames (F, m), shaped (K,) or (F, K), or None
        if the solver has no blocks."""
        if not self.blocks:
            return None
        rows = np.atleast_2d(frames)
        if len(self.blocks) == 1:
            parts = (rows,)
        else:
            h = rows.shape[1] // 2
            parts = (rows[:, h:] + rows[:, h::-1], rows[:, h:] - rows[:, h::-1])
        n_rows = rows.shape[0]
        theta = np.empty((n_rows, 2 * self.table.shape[1]))
        for (index, d, factor), part in zip(self.blocks, parts):
            # one (2, m) @ (m, 2K) product per frame: a single (2F, m) product
            # rounds differently
            rhs = ((self.weights * part[:, None]) @ self.table).reshape(n_rows, -1)[:, index]
            theta[:, index] = cho_solve(factor, (rhs / d).T).T / d
        theta = theta.reshape(n_rows, 4, -1)
        a, b = theta[:, 0] + 1j * theta[:, 1], theta[:, 2] + 1j * theta[:, 3]
        return (a, b) if np.ndim(frames) == 2 else (a[0], b[0])


def detect_f0(buffer: SignalBuffer, grid: FrameGrid,
              f0_range: tuple[float, float] = (50.0, 500.0)) -> F0Track:
    """Normalized-autocorrelation pitch detector with a voicing threshold.

    A frame's segment is the samples inside the signal within lag_max =
    ceil(fs / min) of its centre sample, less their mean. Its ACF at lag k is
    divided by sqrt(e_0 * e_k), e_k its energy from sample k on, and is 0
    where e_k <= ACF_TAIL_FLOOR * e_0. The strongest peak at lags from
    lag_min = max(2, floor(fs / max)) to lag_max, refined by a parabola,
    gives f0. A frame is unvoiced (0) if its peak is below VOICING_THRESHOLD,
    its f0 outside f0_range or its segment shorter than 2 * lag_min + 2.
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
    # each row holds its segment from column 0 on, zeros after it
    lo = grid.center_samples(fs) - lag_max
    starts = np.maximum(lo, 0)
    sizes = np.clip(np.minimum(lo + seg_len, len(buffer)) - starts, 0, None)
    # lags 0..lag_max + 1, a peak and both its neighbours, clear of wrap-around
    nfft = _next_fast_len(seg_len + lag_max + 2)
    nacf = np.zeros((len(grid), lag_max + 2))
    view, offset = frame_view(buffer.samples, starts, seg_len)
    for i in range(0, len(grid), FRAME_BLOCK):
        rows = slice(i, i + FRAME_BLOCK)
        inside = np.arange(seg_len) < sizes[rows, None]
        seg = view[starts[rows] + offset] * inside
        seg -= seg.sum(axis=1, keepdims=True) / np.maximum(sizes[rows], 1)[:, None]
        seg *= inside
        acf = np.fft.irfft(np.abs(np.fft.rfft(seg, nfft, axis=1)) ** 2, nfft,
                           axis=1)[:, :lag_max + 2]
        cum = np.cumsum(seg * seg, axis=1)
        e0 = cum[:, -1:]
        tail = e0 - np.pad(cum[:, :lag_max + 1], ((0, 0), (1, 0)))
        # the FFT's ACF is good to about eps * e_0: where the overlap holds no
        # energy, it would divide rounding by a vanishing norm
        np.divide(acf, np.sqrt(e0 * tail), out=nacf[rows], where=tail > ACF_TAIL_FLOOR * e0)
    top = np.minimum(lag_max, sizes - 2)
    peak = lag_min + np.argmax(np.where(np.arange(lag_min, lag_max + 2) <= top[:, None],
                                        nacf[:, lag_min:], -np.inf), axis=1)
    y0, y1, y2 = np.take_along_axis(nacf, peak[:, None] + np.arange(-1, 2), axis=1).T
    # parabolic refinement around an interior peak lag
    denom = y0 - 2 * y1 + y2
    delta = np.divide(0.5 * (y0 - y2), denom, out=np.zeros(denom.shape),
                      where=np.abs(denom) > 1e-30)
    delta = np.where((lag_min < peak) & (peak < top), np.clip(delta, -0.5, 0.5), 0.0)
    f0 = fs / (peak + delta)
    voiced = (sizes >= 2 * lag_min + 2) & (y1 >= VOICING_THRESHOLD) & (fmin <= f0) & (f0 <= fmax)
    return F0Track(grid, np.where(voiced, f0, 0.0))


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
    values = np.where(track.values > 0,
                      _harmonic_f0(hset.frequencies, hset.amplitudes, track.values), 0.0)
    return F0Track(hset.grid, values)


def _harmonic_f0(freqs: np.ndarray, amps: np.ndarray, fallback) -> np.ndarray:
    """Per frame, the amplitude-squared-weighted mean of f_k / k over the
    components above AMPLITUDE_FLOOR with f_k > 0, or fallback (a scalar or
    one value per frame) on a frame with none."""
    w = np.where((amps > AMPLITUDE_FLOOR) & (freqs > 0), amps ** 2, 0.0)
    num = np.sum(w * freqs / np.arange(1, freqs.shape[1] + 1), axis=1)
    den = np.sum(w, axis=1)
    return np.divide(num, den, out=np.full(den.shape, fallback, dtype=np.float64), where=den > 0)


def _corrected(a: np.ndarray, b: np.ndarray, f_hat: np.ndarray, sample_rate: int):
    """Corrected frequencies, amplitudes and phases of solved frames: a and b
    are (K,) for one frame or (F, K) for frames that share the seeds f_hat (K,).

    The frequency correction from the complex slope is
    eta = (aR*bI - aI*bR) / (2*pi*|a|^2), and 0 where |a| is at or below
    AMPLITUDE_FLOOR (there it is undefined). It is clamped to half the
    spacing of the seeds f_hat (half the seed of a lone component), which
    keeps a near-silent component whose slope is pure noise from drifting
    onto a neighbour, and f_hat + eta is clipped to [0, Nyquist). The
    amplitude is |a| and the phase arg(a), 0 on a zero amplitude.
    """
    amp = np.abs(a)
    ok = amp > AMPLITUDE_FLOOR
    eta = np.zeros(amp.shape)
    eta[ok] = (a.real[ok] * b.imag[ok] - a.imag[ok] * b.real[ok]) / (2 * np.pi * amp[ok] ** 2)
    if f_hat.size > 1:
        bound = max(0.5 * float(np.min(np.abs(np.diff(np.sort(f_hat))))), 1e-3)
    else:
        bound = 0.5 * max(float(f_hat[0]), 1.0)
    freqs = np.clip(f_hat + np.clip(eta, -bound, bound), 0.0, sample_rate / 2 - 1e-6)
    return freqs, amp, np.where(amp > 0, np.angle(a), 0.0)


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


def excitation_phase(frame_freqs: np.ndarray, grid: FrameGrid,
                     betas: np.ndarray | None = None) -> np.ndarray:
    """Trapezoid-accumulated phase from framewise component frequencies.

    phi[l] = pi * sum_i (f[i-1] + f[i]) * beta_i * (t_i - t_{i-1}), phi[0] = 0,
    with beta_i = 1 unless per-frame time scales are given.
    frame_freqs is (frames, K); the result has the same shape.
    """
    f = np.atleast_2d(np.asarray(frame_freqs, dtype=np.float64))
    if not np.all(np.isfinite(f)):
        raise SignalError("frequencies must be finite")
    dt = np.diff(grid.centers)
    if betas is not None:
        dt = np.asarray(betas, dtype=np.float64)[1:] * dt
    inc = np.pi * (f[:-1] + f[1:]) * dt[:, None]
    phi = np.zeros_like(f)
    np.cumsum(inc, axis=0, out=phi[1:])
    return phi


def compensations_from_phases(grid: FrameGrid, freqs: np.ndarray,
                              phases: np.ndarray) -> np.ndarray:
    """Per-frame phase compensations reproducing the framewise phases.

    Chains wrapped corrections so that excitation phase plus the running
    compensation sum hits each measured phase modulo 2*pi; every
    compensation lies in [-pi, pi].
    """
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
    fit, bit 2 a window truncated by the signal's edge. A frame whose system
    not even the ridge makes factorable keeps its seeds at zero amplitude.

    Frames with the same seeds and window slice share one LS solver: each
    such group is solved in blocks of at most FRAME_BLOCK frames, and its
    solver is dropped before the next group's is built.
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
    starts = grid.center_samples(fs) - half
    # each frame's window slice [lo, hi) inside the signal
    lo, hi = np.maximum(0, -starts), np.minimum(n_win, len(buffer) - starts)
    short = np.flatnonzero(hi - lo < 8)
    if short.size:
        raise AnalysisError(f"frame {short[0]}: no usable samples")
    k = np.minimum(counts, (hi - lo) // 4)
    groups: dict[tuple, list[int]] = {}
    for l, (k_l, lo_l, hi_l) in enumerate(zip(k.tolist(), lo.tolist(), hi.tolist())):
        groups.setdefault((seed_freqs[l, :k_l].tobytes(), lo_l, hi_l), []).append(l)
    view, offset = frame_view(buffer.samples, starts, n_win)
    L, K = seed_freqs.shape
    freqs = seed_freqs.copy()
    amps = np.zeros((L, K))
    phases = np.zeros((L, K))
    flags = np.zeros(L, dtype=np.int64)
    for (_, lo_g, hi_g), rows in groups.items():
        rows = np.asarray(rows)
        k_g = k[rows[0]]
        fseed = seed_freqs[rows[0], :k_g]
        solver = _LsSolver.harmonic(fseed[0], k_g, t[lo_g:hi_g], window[lo_g:hi_g])
        for i in range(0, rows.size, FRAME_BLOCK):
            block = rows[i:i + FRAME_BLOCK]
            solved = solver.solve(view[starts[block] + offset, lo_g:hi_g])
            if solved is None:
                break
            cells = np.ix_(block, np.arange(k_g))
            freqs[cells], amps[cells], phases[cells] = _corrected(*solved, fseed, fs)
        flags[rows] = int(solver.ill_conditioned) | 2 * (hi_g - lo_g < n_win)
        del solver      # one solver alive at a time
    comp = compensations_from_phases(grid, freqs, phases)
    return HarmonicSet(grid, freqs, amps, phases, comp, fs, flags)


def analyze(buffer: SignalBuffer, grid: FrameGrid,
            f0_range: tuple[float, float] = (50.0, 500.0), max_components: int | None = None,
            refine_iters: int = 0, f0_track: F0Track | None = None) -> tuple[HarmonicSet, F0Track]:
    """The analysis chain: the harmonics and the F0 track they go with.

    Without f0_track: detect_f0, one analyze_qhm pass on the detected track,
    and refine_f0 with its voiced values clipped to f0_range, so that a
    reader that refuses a voiced F0 below the minimum takes the track back.
    The track's harmonic grid is kept as wide as the set (fit_cascade
    refuses a narrower one): if refinement raises the F0 of the frame with
    the most components past a K-rule boundary, that frame keeps its
    detected F0.
    A given f0_track is the caller's statement of F0: the pass runs on it,
    and it is returned unchanged. Then refine_adaptive runs for at most
    refine_iters iterations when refine_iters >= 1.
    """
    if f0_track is None:
        detected = detect_f0(buffer, grid, f0_range)
        hset = analyze_qhm(buffer, grid, detected, max_components)
        refined = refine_f0(hset, detected).values
        values = np.where(refined > 0, np.clip(refined, *f0_range), 0.0)
        fs = buffer.sample_rate
        if harmonic_grid(F0Track(grid, values), fs, max_components)[1].max() < hset.n_components:
            widest = np.argmax(harmonic_grid(detected, fs, max_components)[1])
            values[widest] = detected.values[widest]
        f0_track = F0Track(grid, values)
    else:
        hset = analyze_qhm(buffer, grid, f0_track, max_components)
    if refine_iters >= 1:
        hset = refine_adaptive(buffer, hset, max_iters=refine_iters)
    return hset, f0_track


def refine_adaptive(buffer: SignalBuffer, initial: HarmonicSet, mode: str = "aqhm",
                    max_iters: int = 3, return_errors: bool = False):
    """Harmonic-locked adaptive refinement of a QHM pass.

    Each iteration takes each frame's f0 as the amplitude-squared-weighted
    mean of f_k / k (UNVOICED_F0 on a frame with no component above
    AMPLITUDE_FLOOR), interpolates it linearly between frame centres and
    integrates it into one base phase track Phi0 (the adaptive harmonic
    model: Degottex & Stylianou, IEEE TASLP 2013). On every frame whose
    window lies inside the signal, it re-solves harmonics 1..m, harmonic k
    with the phase k*Phi0, and re-corrects each about k*f0. m is the length
    of the frame's leading run of components that carry amplitude and whose
    k*f0 lies below Nyquist - NYQUIST_GUARD; the other components keep
    their values. So refinement gives no amplitude to a silent (parked)
    component and solves none above the guard, and on a frame with a
    zero-amplitude component inside that run, the component and every one
    after it keep their values.
    An iteration is accepted only if it lowers the resynthesis error
    against the original speech by at least REFINE_REL_TOL of it;
    otherwise refinement stops, so the accepted errors fall strictly. The
    only mode is 'aqhm'.
    """
    if mode != "aqhm":
        raise AnalysisError(f"unknown refinement mode: {mode}")
    if max_iters < 1:
        raise AnalysisError("max_iters must be >= 1")
    if initial.sample_rate != buffer.sample_rate:
        raise AnalysisError("harmonic set and buffer sample rates differ")
    half = initial.grid.window_samples(buffer.sample_rate) // 2
    x = buffer.samples

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
        candidate = _refine_once(buffer, best)
        cand_err = total_error(candidate)
        if not (cand_err < best_err and best_err - cand_err >= REFINE_REL_TOL * best_err):
            break
        best, best_err = candidate, cand_err
        history.append(cand_err)
    if return_errors:
        return best, history
    return best


def _refine_once(buffer: SignalBuffer, current: HarmonicSet) -> HarmonicSet:
    fs = buffer.sample_rate
    window = grid_window(current.grid, fs)
    half = window.size // 2
    t = (np.arange(window.size) - half) / fs
    n_samples = len(buffer)
    f0 = _harmonic_f0(current.frequencies, current.amplitudes, UNVOICED_F0)
    # one base phase track: f0 linear between frame centres, integrated by
    # the trapezoid rule in the operation order of scipy's cumulative_trapezoid
    y = 2 * np.pi * np.interp(np.arange(n_samples) / fs, current.grid.centers, f0)
    phi0 = np.zeros(n_samples)
    np.cumsum(1.0 / fs * (y[1:] + y[:-1]) / 2.0, out=phi0[1:])
    harmonics = np.arange(1, current.n_components + 1)
    freqs = current.frequencies.copy()
    amps = current.amplitudes.copy()
    phases = current.phases.copy()
    flags = current.flags.copy()
    x = buffer.samples
    for l, c in enumerate(current.grid.center_samples(fs)):
        lo, hi = c - half, c + half + 1
        if lo < 0 or hi > n_samples:
            # edge windows run off the signal and make the adaptive basis degenerate
            continue
        # harmonics 1..m are solved, the leading run that carries amplitude
        # (so the ones harmonic_grid parks stay silent) and lies below Nyquist -
        # NYQUIST_GUARD (a misjudged f0 puts harmonics there, and they would
        # alias); the others keep their values
        seeds = harmonics * f0[l]
        m = int(np.logical_and.accumulate((current.amplitudes[l] > 0)
                                          & (seeds < fs / 2 - NYQUIST_GUARD)).sum())
        if m == 0:
            continue
        # base phase Phi0(t) = phi0(t_l + t) - phi0(t_l); harmonic k has k*Phi0
        z = np.exp(1j * (phi0[lo:hi] - phi0[c]))
        solver = _LsSolver(*_harmonic_normal(z, m, t, window, fold=False))
        solved = solver.solve(x[lo:hi])
        if solved is not None:
            freqs[l, :m], amps[l, :m], phases[l, :m] = _corrected(*solved, seeds[:m], fs)
        flags[l] |= int(solver.ill_conditioned)
    comp = compensations_from_phases(current.grid, freqs, phases)
    return HarmonicSet(current.grid, freqs, amps, phases, comp, fs, flags)
