"""Cascaded mini-ARMA spectral envelopes.

A frame's envelope is a gain times a product of low-order ARMA sections;
per-section phase angles are wrapped to [-pi, pi] and summed, so the
cascade can represent phase delays in [-r*pi, r*pi]. The fitter estimates
a stable cascade from harmonic amplitude/phase targets by a batched
damped Gauss-Newton (Levenberg-Marquardt) fit that steps every frame at
once, from a minimum-phase start, with pole-stability projection. Each
frame stops on its own once its cost stops falling or reaches a floor.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qhm import AMPLITUDE_FLOOR, excitation_phase, harmonic_grid
from .signals import FrameGrid, QuasivocError, _wrap, check_rate

STABILITY_RADIUS = 0.995
# weight of the squared wrapped phase residuals against the log-magnitude ones
PHASE_WEIGHT = 0.1
RESPONSE_EPS = 1e-12
# complex values in one block's exp table when sampling many frames (4 MB)
_TABLE_BUDGET = 1 << 18
# Jacobian and normal-matrix values in one block of frame fits (16 MB)
_FIT_BUDGET = 1 << 21
# A frame's LM fit stops once its cost fell by at most _STOP_TOL of itself over
# its last _STOP_WINDOW trial steps, or is at most _COST_FLOOR per residual
_STOP_WINDOW = 10
_STOP_TOL = 5e-5
_COST_FLOOR = 1e-8
# joint-fit cycles, each followed by re-reflection of unstable poles
_MAX_CYCLES = 4


class EnvelopeError(QuasivocError):
    """Raised for invalid cascades or singular responses."""


@dataclass
class ArmaSection:
    """One mini-ARMA section: AR and MA coefficients (leading 1 implied).

    Kept only because the benchmark reads ArmaCascade.frames; a benchmark
    change removes it.
    """

    ar: np.ndarray
    ma: np.ndarray

    def __post_init__(self):
        self.ar = np.asarray(self.ar, dtype=np.float64)
        self.ma = np.asarray(self.ma, dtype=np.float64)
        if not (np.all(np.isfinite(self.ar)) and np.all(np.isfinite(self.ma))):
            raise EnvelopeError("section coefficients must be finite")


@dataclass
class CascadeFrame:
    """Gain plus sections for one frame: the argument of sample_harmonics.

    Kept only because the benchmark reads ArmaCascade.frames and calls
    sample_harmonics; a benchmark change removes it.
    """

    gain: float
    sections: list

    def __post_init__(self):
        if not (np.isfinite(self.gain) and self.gain > 0):
            raise EnvelopeError("gain must be positive and finite")


@dataclass
class ArmaCascade:
    """Per-frame envelope cascades over a frame grid, stacked: gain (L,),
    AR (L, r, p) and MA (L, r, q), r >= 1 sections per frame, and the grid
    and the flags (L,) hold one entry per frame. The orders
    (P, Q, r) = (r*p, r*q, r) come from the shapes, and the sample rate is
    a positive integer."""

    grid: FrameGrid
    gain: np.ndarray
    ar: np.ndarray
    ma: np.ndarray
    sample_rate: int
    flags: np.ndarray = field(default=None)

    def __post_init__(self):
        self.gain, self.ar, self.ma = (np.asarray(x, dtype=np.float64)
                                       for x in (self.gain, self.ar, self.ma))
        if (self.gain.ndim != 1 or self.ar.ndim != 3 or self.ma.ndim != 3 or self.ar.shape[1] < 1
                or self.ar.shape[:2] != self.ma.shape[:2] or len(self.ar) != len(self.gain)):
            raise EnvelopeError("need gain (L,), AR (L, r, p) and MA (L, r, q) with r >= 1")
        if not (all(np.all(np.isfinite(x)) for x in (self.gain, self.ar, self.ma))
                and np.all(self.gain > 0)):
            raise EnvelopeError("gains must be positive, and gains and coefficients finite")
        self.sample_rate = check_rate(self.sample_rate, EnvelopeError)
        if self.flags is None:
            self.flags = np.zeros(len(self.gain), dtype=np.int64)
        if np.shape(self.flags) != self.gain.shape or len(self.grid) != len(self.gain):
            raise EnvelopeError("grid, flags and arrays disagree on the frame count")

    @property
    def orders(self) -> tuple:
        _, r, p = self.ar.shape
        return (r * p, r * self.ma.shape[2], r)

    @property
    def n_frames(self) -> int:
        return len(self.gain)

    @property
    def frames(self) -> list:
        """One CascadeFrame per frame over rows of the arrays, built on each
        access. The package reads the arrays; this view is kept only because
        the benchmark reads it, and a benchmark change removes it."""
        return [CascadeFrame(float(g), [ArmaSection(a, b) for a, b in zip(ar, ma)])
                for g, ar, ma in zip(self.gain, self.ar, self.ma)]


def _poly(coef, table) -> np.ndarray:
    """1 + sum_n coef[..., n] e^{-iw(n+1)}: (L, r, K) from coef (L, r, m).

    table is (L, >= m, K) with table[:, n] = e^{-iw(n+1)}; every polynomial
    of a frame shares its table.
    """
    out = np.ones((coef.shape[0], coef.shape[1], table.shape[2]), dtype=np.complex128)
    for n in range(coef.shape[2]):
        out += coef[:, :, n, None] * table[:, None, n]
    return out


def _response(ar, ma, table) -> np.ndarray:
    """Section responses (L, r, K) from AR (L, r, p) and MA (L, r, q)."""
    den = _poly(ar, table)
    if np.any(np.abs(den) < RESPONSE_EPS):
        raise EnvelopeError("singular section response (|denominator| ~ 0)")
    return _poly(ma, table) / den


def _table(w, n: int) -> np.ndarray:
    """e^{-iwq} for q = 1..n: (L, n, K) from w (L, K) in rad/sample."""
    return np.exp(-1j * w[:, None] * np.arange(1, n + 1)[:, None])


@dataclass
class EnvelopeSample:
    """Envelope magnitude and summed per-section phase delay per component:
    sample_harmonics' result, removed with it by a benchmark change."""

    magnitudes: np.ndarray
    phase_delays: np.ndarray


def _sample(gain, ar, ma, freqs, sample_rate: int):
    """Magnitudes and summed section phase delays of stacked frames, (L, K) each.

    gain is (L,), ar (L, r, p), ma (L, r, q) and freqs (L, K) in Hz. Frames
    go in blocks whose exp table holds at most _TABLE_BUDGET values.
    """
    if np.any(freqs >= sample_rate / 2):
        raise EnvelopeError("component frequency at or above Nyquist")
    L, K = freqs.shape
    n = max(ar.shape[2], ma.shape[2])
    step = max(1, _TABLE_BUDGET // max(1, K * n))
    mag = np.empty((L, K))
    delay = np.zeros((L, K))
    for start in range(0, L, step):
        rows = slice(start, start + step)
        h = _response(ar[rows], ma[rows], _table(2 * np.pi * freqs[rows] / sample_rate, n))
        mag[rows] = gain[rows, None]
        for j in range(h.shape[1]):
            mag[rows] *= np.abs(h[:, j])
            delay[rows] += np.angle(h[:, j])
    return mag, delay


def sample_cascade(cascade: ArmaCascade, freqs):
    """Envelope magnitudes and phase delays of every frame at its own frequencies.

    freqs is (frames, K) in Hz; returns (magnitudes, delays), each
    (frames, K), equal to sample_harmonics frame by frame.
    """
    f = np.atleast_2d(np.asarray(freqs, dtype=np.float64))
    if f.shape[0] != cascade.n_frames:
        raise EnvelopeError("need one row of frequencies per cascade frame")
    return _sample(cascade.gain, cascade.ar, cascade.ma, f, cascade.sample_rate)


def sample_harmonics(frame: CascadeFrame, freqs_hz, sample_rate: int) -> EnvelopeSample:
    """Magnitude and phase delay of the cascade at component frequencies.

    Magnitudes multiply across sections; phase delays are each section's
    wrapped angle in [-pi, pi] summed without re-wrapping, so the total
    spans [-r*pi, r*pi]. Shorter sections are zero-padded, which changes no
    value: a zero coefficient adds +-0.0 to a sum that starts at 1.

    The one-frame form of sample_cascade, kept as the per-frame oracle of
    its tests and because the benchmark calls it; a benchmark change
    removes it.
    """
    f = np.atleast_1d(np.asarray(freqs_hz, dtype=np.float64))
    secs = frame.sections
    ar = np.zeros((1, len(secs), max((s.ar.size for s in secs), default=0)))
    ma = np.zeros((1, len(secs), max((s.ma.size for s in secs), default=0)))
    for j, sec in enumerate(secs):
        ar[0, j, :sec.ar.size], ma[0, j, :sec.ma.size] = sec.ar, sec.ma
    mag, delay = _sample(np.array([frame.gain], dtype=np.float64), ar, ma,
                         f.reshape(1, -1), sample_rate)
    return EnvelopeSample(mag.reshape(f.shape), delay.reshape(f.shape))


def _roots(polys) -> np.ndarray:
    """Roots (..., m) of the polynomials z^m + sum_n polys[..., n] z^(m-n-1),
    from the eigenvalues of their stacked companion matrices."""
    m = polys.shape[-1]
    companion = np.broadcast_to(np.eye(m, k=-1), polys.shape + (m,)).copy()
    companion[..., :1, :] = -polys[..., None, :]
    return np.linalg.eigvals(companion)


def _rebuilt(polys, roots, moved) -> np.ndarray:
    """polys (..., m), with each polynomial where `moved` rebuilt from its roots."""
    out = polys.copy()
    for i in map(tuple, np.argwhere(moved)):
        out[i] = np.poly(roots[i])[1:].real
    return out


def project_stable(ar, radius: float = STABILITY_RADIUS) -> np.ndarray:
    """Pull AR roots with modulus above the radius radially onto it.

    ar is (..., p); polynomials whose roots all lie within the radius come
    back unchanged.
    """
    ar = np.asarray(ar, dtype=np.float64)
    roots = _roots(ar)
    mags = np.abs(roots)
    out = mags > radius
    roots = np.where(out, roots * (radius / np.maximum(mags, 1e-300)), roots)
    return _rebuilt(ar, roots, out.any(axis=-1))


def correction_capacity(cascade: ArmaCascade, freq_hz: float):
    """Per-frame frequency correction implied by phase-delay changes at freq_hz.

    Returns (per-frame deltas in Hz, cumulative sum), with the grid's frame
    shift as the time step. The cumulative sum telescopes to the endpoint
    phase-delay difference over 2*pi*dt and is bounded by r/dt in magnitude
    for an r-section cascade.
    """
    if cascade.n_frames < 2:
        raise EnvelopeError("need at least 2 frames")
    delays = sample_cascade(cascade, np.full((cascade.n_frames, 1), freq_hz))[1][:, 0]
    deltas = np.diff(delays) / (2 * np.pi * cascade.grid.frame_shift)
    return deltas, float(np.sum(deltas))


class _Fit:
    """A block of frames fitted together. A frame's parameters are [log gain |
    AR (r, p) | MA (r, q)], p and q per section. Targets, frames first: the
    exp table (L, max(p, q), K), log(A + AMPLITUDE_FLOOR), the phase and its
    weight.
    """

    def __init__(self, r, p, q, *targets):
        self.r, self.p, self.q, self.targets = r, p, q, targets

    def split(self, theta):
        """Views of the log gains (L,), AR (L, r, p) and MA (L, r, q) in theta."""
        n, r, p = len(theta), self.r, self.p
        return (theta[:, 0], theta[:, 1:1 + r * p].reshape(n, r, p),
                theta[:, 1 + r * p:].reshape(n, r, self.q))

    def residuals(self, theta, rows, mag_only: bool = False, jacobian: bool = True):
        """Residuals (L, K), or (L, 2K) with the phase rows, of frames `rows`
        at theta, and the numerators, denominators and magnitudes that
        `jacobian` builds the Jacobian of any of those frames from (None
        without jacobian)."""
        table, log_amp, phase, weight = (t[rows] for t in self.targets)
        log_g, ar, ma = self.split(theta)
        num, den = _poly(ma, table), _poly(ar, table)
        mag = np.exp(log_g[:, None] + np.sum(np.log(np.maximum(np.abs(num), 1e-30))
                                             - np.log(np.maximum(np.abs(den), 1e-30)), axis=1))
        res = log_amp - np.log(mag + AMPLITUDE_FLOOR)
        if not mag_only:
            angle = np.sum(np.angle(num) - np.angle(den), axis=1)
            res = np.concatenate([res, weight * _wrap(phase - angle)], axis=1)
        return res, ((num, den, mag) if jacobian else None)

    def jacobian(self, rows, parts, mag_only: bool = False):
        """Transposed Jacobian (L, n_par, K or 2K) of the residuals of frames
        `rows`, from the (num, den, mag) of those frames."""
        num, den, mag = parts
        table, weight = self.targets[0][rows], self.targets[3][rows]
        n, _, K = table.shape
        # chain through log(|H|+eps): factor |H|/(|H|+eps) on the magnitude
        # rows. dlogH/da = -e^{-iwn}/den and dlogH/db = e^{-iwn}/num;
        # log|H| takes the real part, angle H the imaginary part
        jt = np.zeros((n, 1 + self.r * (self.p + self.q), K if mag_only else 2 * K))
        cm = mag / (mag + AMPLITUDE_FLOOR)
        jt[:, 0, :K] = -cm
        for poly, order, off in ((-den, self.p, 1), (num, self.q, 1 + self.r * self.p)):
            t = table[:, None, :order] * (1.0 / poly)[:, :, None]
            block = jt[:, off:off + self.r * order].reshape(n, self.r, order, jt.shape[2])
            # (-c) * x is -(c * x) exactly: rounding is symmetric in sign
            np.multiply(-cm[:, None, None], t.real, out=block[..., :K])
            if not mag_only:
                np.multiply(-weight[:, None, None], t.imag, out=block[..., K:])
        return jt

    def loss(self, theta, rows):
        return np.sum(self.residuals(theta, rows, jacobian=False)[0] ** 2, axis=1)


def _normal(res, jt):
    """J^T J (L, n_par, n_par) and J^T r (L, n_par)."""
    return jt @ jt.transpose(0, 2, 1), (jt @ res[..., None])[..., 0]


def _levenberg_marquardt(fit: _Fit, theta, rows, mag_only: bool, max_steps: int):
    """Minimize the residuals of frames `rows` from theta (L, n_par), all at once.

    Each frame solves (A + mu diag A) h = -g, A = J^T J and g = J^T r, with
    its own damping mu (Nielsen's update). It stops after max_steps trial
    steps, once a step's actual and predicted cost decrease are both below
    1e-10 of its cost, or by the window and floor rules of _STOP_WINDOW and
    _COST_FLOOR. No frame's result depends on another's.
    """
    theta, active = theta.copy(), np.arange(len(theta))
    res, parts = fit.residuals(theta, rows, mag_only)
    cost, (a, g) = 0.5 * np.sum(res ** 2, axis=1), _normal(res, fit.jacobian(rows, parts, mag_only))
    diag = np.diagonal(a, axis1=1, axis2=2)
    mu, nu, steps = np.full(len(theta), 1e-2), np.full(len(theta), 2.0), np.zeros(len(theta))
    checkpoint = cost.copy()
    while active.size:
        # the floor keeps the damped matrix invertible where J^T J is singular
        d = diag[active]
        damp = mu[active, None] * np.maximum(d, 1e-12 * d.max(axis=1, keepdims=True))
        h = np.linalg.solve(a[active] + damp[:, :, None] * np.eye(d.shape[1]),
                            -g[active][..., None])[..., 0]
        res, parts = fit.residuals(theta[active] + h, rows[active], mag_only)
        old, new = cost[active], 0.5 * np.sum(res ** 2, axis=1)
        predicted = 0.5 * np.sum(h * (damp * h - g[active]), axis=1)
        steps[active] += 1
        ok = new < old
        took = active[ok]
        theta[took] += h[ok]
        if took.size:
            # the Jacobian only where the step is taken, from that trial's parts
            jt = fit.jacobian(rows[took], [part[ok] for part in parts], mag_only)
            cost[took], (a[took], g[took]) = new[ok], _normal(res[ok], jt)
        rho = np.minimum((old - new) / np.maximum(predicted, 1e-300), 1.0)
        mu[active] *= np.where(ok, np.maximum(1 / 3, 1 - (2 * rho - 1) ** 3), nu[active])
        nu[active] = np.where(ok, 2.0, 2.0 * nu[active])
        now, window = cost[active], steps[active] % _STOP_WINDOW == 0
        stalled = window & (now >= (1 - _STOP_TOL) * checkpoint[active])
        checkpoint[active[window]] = now[window]
        active = active[~((np.maximum(old - new, predicted) <= 1e-10 * old) | stalled
                          | (now <= _COST_FLOOR * res.shape[1]) | (steps[active] >= max_steps))]
    return theta


def _reflect(polys):
    """Move each root c with |c| >= 1 of the polynomials 1 + sum_n polys[..., n]
    z^-(n+1) to min(1/|c|, STABILITY_RADIUS) c/|c|, dividing the magnitude
    response by |c|. Returns the polynomials (unchanged where no root moved)
    and the log corrections (...) to add to a denominator's log-gain, or
    subtract for a numerator's."""
    roots = _roots(polys)
    mags = np.maximum(np.abs(roots), 1e-300)
    out = mags >= 1.0
    roots = roots * np.where(out, np.minimum(1.0 / mags, STABILITY_RADIUS) / mags, 1.0)
    corr = -np.sum(np.log(np.where(out, mags, 1.0)), axis=-1)
    return _rebuilt(polys, roots, out.any(axis=-1)), corr


def fit_targets(freqs, amps, phases, sample_rate: int, orders, max_steps: int):
    """Fit a stable cascade to each row of (L, K) harmonic amplitude/phase targets.

    Minimizes sum_k (log(A_k+eps) - log(|H_k|+eps))^2
    + PHASE_WEIGHT * wrap(phi_k - angle(H_k))^2 by Levenberg-Marquardt
    with the analytic Jacobian, in two stages. Stage one fits the
    magnitude alone, then reflects every pole and zero outside the unit
    circle to its magnitude-equivalent inside (with gain compensation),
    yielding a stable minimum-phase warm start whose phase is already
    close for vocal-tract-like envelopes. Stage two fits magnitude and
    phase jointly from that start, re-reflecting unstable poles and
    re-optimizing if needed. Each fit stops after max_steps trial steps,
    or sooner once its cost falls by at most 5e-5 of itself over 10 steps
    or reaches 1e-8 per residual. Every row is fitted at once, and no
    row's result depends on another's.

    Returns gains (L,), AR (L, r, P/r), MA (L, r, Q/r), final losses (L,)
    and flags (L,): flag 1 marks degenerate all-zero targets and flag 2 a
    fit that still needed stabilizing after the last cycle.
    """
    p, q, r = orders
    if r <= 0 or p % r or q % r:
        raise EnvelopeError("r must divide both P and Q")
    amps = np.asarray(amps, dtype=np.float64)
    if np.any(amps < 0):
        raise EnvelopeError("target amplitudes must be nonnegative")
    # all-silent targets get the floor gain and flat sections (flag 1), unfitted
    silent = np.all(amps <= AMPLITUDE_FLOOR, axis=1)
    live = np.flatnonzero(~silent)
    a, w = amps[live], 2 * np.pi * np.asarray(freqs, dtype=np.float64)[live] / sample_rate
    # a component at or below the amplitude floor has no defined phase (it
    # is indistinguishable from silence), so it weighs on the magnitude only
    fit = _Fit(r, p // r, q // r, _table(w, max(p, q) // r),
               np.log(a + AMPLITUDE_FLOOR), np.asarray(phases, dtype=np.float64)[live],
               np.sqrt(PHASE_WEIGHT) * (a > AMPLITUDE_FLOOR))
    start = np.zeros((live.size, 1 + p + q))
    start[:, 0] = np.log(np.maximum(np.mean(a, axis=1), AMPLITUDE_FLOOR))
    # stage one: magnitude-only fit, then fold all roots inside the circle
    # (minimum-phase start)
    left = np.arange(live.size)
    theta = _levenberg_marquardt(fit, start, left, True, max_steps)
    log_g, ar, ma = fit.split(theta)
    ar[...], corr = _reflect(ar)
    log_g += corr.sum(axis=1)
    ma[...], corr = _reflect(ma)
    log_g -= corr.sum(axis=1)
    # stage two: joint fits, re-reflecting unstable poles after each cycle. A
    # frame leaves once a cycle ends stable, keeps its best (theta, loss) and
    # gets flag 2 if its last cycle still needed reflecting.
    best, loss, flags = theta.copy(), fit.loss(theta, left), np.zeros(live.size, dtype=np.int64)
    for _ in range(_MAX_CYCLES):
        th = _levenberg_marquardt(fit, theta[left], left, False, max_steps)
        log_g, ar, _ = fit.split(th)
        ar[...], corr = _reflect(ar)
        log_g += corr.sum(axis=1)
        th_loss, unstable = fit.loss(th, left), np.any(corr != 0.0, axis=1)
        won = th_loss < loss[left]
        best[left[won]], loss[left[won]] = th[won], th_loss[won]
        theta[left], flags[left] = th, 2 * unstable
        left = left[unstable]
        if not left.size:
            break
    if not np.all(np.isfinite(loss)):
        raise EnvelopeError("non-finite fit loss")
    params, losses = np.zeros((len(amps), 1 + p + q)), np.zeros(len(amps))
    out = silent.astype(np.int64)
    params[live], losses[live], out[live] = best, loss, flags
    log_g, ar, ma = fit.split(params)
    gains = np.where(silent, AMPLITUDE_FLOOR, np.exp(log_g))
    return gains, project_stable(ar, radius=1.0 - 1e-4), ma, losses, out


def fit_cascade(hset, f0_track=None, orders=(128, 128, 8), max_steps: int = 500,
                n_workers: int = 1) -> ArmaCascade:
    """Fit one cascade frame per analyzed frame of a HarmonicSet.

    Phase targets are the residual between the measured framewise phase
    and the excitation phase accumulated over frames. When f0_track is
    given, the excitation frequencies are rebuilt as the harmonic grid of
    that track (the same grid harmonic synthesis uses), keeping analysis
    and synthesis phase references consistent; otherwise the set's own
    corrected frequencies are used. Frames are fitted together, in blocks
    whose Jacobians and normal matrices hold at most _FIT_BUDGET values;
    no frame's result depends on its block. n_workers is ignored; it is kept
    only because the benchmark passes it, and a benchmark change removes it.
    """
    fs, freqs = hset.sample_rate, hset.frequencies
    if f0_track is not None:
        freqs, _ = harmonic_grid(f0_track, fs, max_components=hset.n_components)
        if freqs.shape != hset.frequencies.shape:
            raise EnvelopeError("f0 track harmonic grid does not match the set")
    residual = _wrap(hset.phases - excitation_phase(freqs, hset.grid))
    n_par = 1 + orders[0] + orders[1]
    step = max(1, _FIT_BUDGET // ((2 * freqs.shape[1] + n_par) * n_par))
    # an empty set still makes one (empty) block, which fixes the shapes
    blocks = [fit_targets(freqs[i:i + step], hset.amplitudes[i:i + step], residual[i:i + step],
                          fs, orders, max_steps)
              for i in range(0, max(1, hset.n_frames), step)]
    gain, ar, ma, _, flags = (np.concatenate(parts) for parts in zip(*blocks))
    return ArmaCascade(hset.grid, gain, ar, ma, fs, flags)
