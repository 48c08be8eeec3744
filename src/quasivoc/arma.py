"""Cascaded mini-ARMA spectral envelopes.

A frame's envelope is a gain times a product of low-order ARMA sections;
per-section phase angles are wrapped to [-pi, pi] and summed, so the
cascade can represent phase delays in [-r*pi, r*pi]. The fitter estimates
a stable cascade from harmonic amplitude/phase targets by gradient
descent with pole-stability projection.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.signal import lfilter

from .signals import FrameGrid, _wrap

STABILITY_RADIUS = 0.995
RESPONSE_EPS = 1e-12
# complex values in one block's exp table when sampling many frames (4 MB)
_TABLE_BUDGET = 1 << 18


class EnvelopeError(Exception):
    """Raised for invalid cascades or singular responses."""


@dataclass
class ArmaSection:
    """One mini-ARMA section: AR and MA coefficients (leading 1 implied)."""

    ar: np.ndarray
    ma: np.ndarray

    def __post_init__(self):
        self.ar = np.asarray(self.ar, dtype=np.float64)
        self.ma = np.asarray(self.ma, dtype=np.float64)
        if not (np.all(np.isfinite(self.ar)) and np.all(np.isfinite(self.ma))):
            raise EnvelopeError("section coefficients must be finite")

    def is_stable(self, margin: float = 1e-4) -> bool:
        if self.ar.size == 0:
            return True
        roots = np.roots(np.concatenate(([1.0], self.ar)))
        return bool(np.all(np.abs(roots) <= 1.0 - margin))


@dataclass
class CascadeFrame:
    """Gain plus r sections for one frame."""

    gain: float
    sections: list

    def __post_init__(self):
        if not (np.isfinite(self.gain) and self.gain > 0):
            raise EnvelopeError("gain must be positive and finite")


@dataclass
class ArmaCascade:
    """Per-frame envelope cascades over a frame grid."""

    grid: FrameGrid
    frames: list
    orders: tuple  # (P, Q, r)
    sample_rate: int
    flags: np.ndarray = field(default=None)

    def __post_init__(self):
        p, q, r = self.orders
        if r <= 0 or p % r or q % r:
            raise EnvelopeError("r must divide both P and Q")
        if self.flags is None:
            self.flags = np.zeros(len(self.frames), dtype=np.int64)

    @property
    def n_frames(self) -> int:
        return len(self.frames)


def _section_values(ar, ma, table: list, shape) -> np.ndarray:
    """(1 + sum b_q e^{-iwq}) / (1 + sum a_p e^{-iwp}) over a shared exp table.

    table[q - 1] is e^{-iwq}, one entry for every polynomial at w.
    Coefficients run along the first axis of ar and ma; each one is a
    scalar or broadcasts against the table entries, which have `shape`.
    """
    num = np.ones(shape, dtype=np.complex128)
    for b, e in zip(ma, table):
        num += b * e
    den = np.ones(shape, dtype=np.complex128)
    for a, e in zip(ar, table):
        den += a * e
    if np.any(np.abs(den) < RESPONSE_EPS):
        raise EnvelopeError("singular section response (|denominator| ~ 0)")
    return num / den


def section_response(section: ArmaSection, omega) -> np.ndarray:
    """Frequency response of one section at omega (rad/sample).

    H(w) = (1 + sum b_q e^{-iwq}) / (1 + sum a_p e^{-iwp}).
    """
    w = np.atleast_1d(np.asarray(omega, dtype=np.float64))
    n = max(section.ar.size, section.ma.size)
    table = [np.exp(-1j * w * q) for q in range(1, n + 1)]
    out = _section_values(section.ar, section.ma, table, w.shape)
    return out if np.ndim(omega) else out[0]


def cascade_response(frame: CascadeFrame, omega) -> np.ndarray:
    """Gain times the product of section responses."""
    w = np.atleast_1d(np.asarray(omega, dtype=np.float64))
    h = np.full(w.shape, frame.gain, dtype=np.complex128)
    for sec in frame.sections:
        h *= section_response(sec, w)
    return h if np.ndim(omega) else h[0]


@dataclass
class EnvelopeSample:
    """Envelope magnitude and summed per-section phase delay per component."""

    magnitudes: np.ndarray
    phase_delays: np.ndarray


def _stack(frames: list):
    """Gains (L,), AR (L, r, p) and MA (L, r, q) of a list of frames.

    Shorter coefficient vectors and missing sections are zero-padded. That
    changes no value: a zero coefficient adds +-0.0 to a sum that starts at
    1, and a zero section's response is exactly 1.
    """
    r = max((len(fr.sections) for fr in frames), default=0)
    p = max((s.ar.size for fr in frames for s in fr.sections), default=0)
    q = max((s.ma.size for fr in frames for s in fr.sections), default=0)
    ar = np.zeros((len(frames), r, p))
    ma = np.zeros((len(frames), r, q))
    for l, fr in enumerate(frames):
        for j, sec in enumerate(fr.sections):
            ar[l, j, :sec.ar.size] = sec.ar
            ma[l, j, :sec.ma.size] = sec.ma
    return np.array([fr.gain for fr in frames], dtype=np.float64), ar, ma


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
    # coefficient-first, so each coefficient is a (frames, 1) column
    ar_t = np.moveaxis(ar, 0, -1)[..., None]
    ma_t = np.moveaxis(ma, 0, -1)[..., None]
    mag = np.empty((L, K))
    delay = np.zeros((L, K))
    for start in range(0, L, step):
        rows = slice(start, start + step)
        w = 2 * np.pi * freqs[rows] / sample_rate
        table = [np.exp(-1j * w * q) for q in range(1, n + 1)]
        mag[rows] = gain[rows, None]
        for a, b in zip(ar_t, ma_t):
            h = _section_values(a[:, rows], b[:, rows], table, w.shape)
            mag[rows] *= np.abs(h)
            delay[rows] += np.angle(h)
    return mag, delay


def sample_cascade(cascade: ArmaCascade, freqs):
    """Envelope magnitudes and phase delays of every frame at its own frequencies.

    freqs is (frames, K) in Hz; returns (magnitudes, delays), each
    (frames, K), equal to sample_harmonics frame by frame.
    """
    f = np.atleast_2d(np.asarray(freqs, dtype=np.float64))
    if f.shape[0] != cascade.n_frames:
        raise EnvelopeError("need one row of frequencies per cascade frame")
    return _sample(*_stack(cascade.frames), f, cascade.sample_rate)


def sample_harmonics(frame: CascadeFrame, freqs_hz, sample_rate: int) -> EnvelopeSample:
    """Magnitude and phase delay of the cascade at component frequencies.

    Magnitudes multiply across sections; phase delays are each section's
    wrapped angle in [-pi, pi] summed without re-wrapping, so the total
    spans [-r*pi, r*pi].
    """
    f = np.atleast_1d(np.asarray(freqs_hz, dtype=np.float64))
    mag, delay = _sample(*_stack([frame]), f.reshape(1, -1), sample_rate)
    return EnvelopeSample(mag.reshape(f.shape), delay.reshape(f.shape))


def filter_time_domain(frame: CascadeFrame, x) -> np.ndarray:
    """Run the input through each section's difference equation, then the gain.

    Sections are applied in index order with zero initial state.
    """
    y = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(y)):
        raise EnvelopeError("input must be finite")
    for sec in frame.sections:
        b = np.concatenate(([1.0], sec.ma))
        a = np.concatenate(([1.0], sec.ar))
        y = lfilter(b, a, y)
    return frame.gain * y


def project_stable(ar: np.ndarray, radius: float = STABILITY_RADIUS) -> np.ndarray:
    """Pull AR roots with modulus above the radius radially onto it."""
    if ar.size == 0:
        return ar
    roots = np.roots(np.concatenate(([1.0], ar)))
    mags = np.abs(roots)
    if np.all(mags <= radius):
        return ar
    roots = np.where(mags > radius, roots * (radius / np.maximum(mags, 1e-300)), roots)
    poly = np.poly(roots)
    return np.real(poly[1:])


def correction_capacity(frames: list, freq_hz: float, sample_rate: int,
                        frame_shift: float):
    """Per-frame frequency correction implied by phase-delay changes.

    Returns (per-frame deltas in Hz, cumulative sum). The cumulative sum
    telescopes to the endpoint phase-delay difference over 2*pi*dt and is
    bounded by r/dt in magnitude for an r-section cascade.
    """
    if len(frames) < 2:
        raise EnvelopeError("need at least 2 frames")
    freqs = np.full((len(frames), 1), freq_hz, dtype=np.float64)
    delays = _sample(*_stack(frames), freqs, sample_rate)[1][:, 0]
    deltas = np.diff(delays) / (2 * np.pi * frame_shift)
    return deltas, float(np.sum(deltas))


def _reflect_stable(ar: np.ndarray, radius: float = STABILITY_RADIUS,
                    trigger: float = 1.0):
    """Reflect polynomial roots at or beyond the trigger into the circle.

    Root c with |c| >= trigger becomes min(1/|c|, radius) * c/|c|, which
    preserves the magnitude response up to a constant factor; adding the
    returned correction to the log-gain restores it (up to the clamp at
    the radius).
    """
    if ar.size == 0:
        return ar, 0.0
    roots = np.roots(np.concatenate(([1.0], ar)))
    mags = np.abs(roots)
    if np.all(mags < trigger):
        return ar, 0.0
    # reflecting root c divides |den| by |c|, so divide the gain by |c|
    log_corr = -float(np.sum(np.log(mags[mags >= trigger])))
    new_mags = np.where(mags >= trigger, np.minimum(1.0 / np.maximum(mags, 1e-300), radius), mags)
    roots = roots * (new_mags / np.maximum(mags, 1e-300))
    poly = np.poly(roots)
    return np.real(poly[1:]), log_corr


def _split(theta: np.ndarray, p_sec: int, q_sec: int, r: int):
    """Unpack flat parameters into (log_gain, ar list, ma list)."""
    log_g = theta[0]
    ars, mas = [], []
    off = 1
    for _ in range(r):
        ars.append(theta[off:off + p_sec]); off += p_sec
        mas.append(theta[off:off + q_sec]); off += q_sec
    return log_g, ars, mas


def _pack(log_g: float, ars, mas) -> np.ndarray:
    parts = [np.array([log_g])]
    for a, b in zip(ars, mas):
        parts.append(a); parts.append(b)
    return np.concatenate(parts)


def _eval_fit(theta, ew, p_sec, q_sec, r):
    """Response, per-section numerator/denominator values at target omegas.

    ew is exp(-1j * outer(omega, 1..max(p_sec, q_sec))).
    """
    log_g, ars, mas = _split(theta, p_sec, q_sec, r)
    n = ew.shape[0]
    log_mag = np.full(n, log_g)
    angle_sum = np.zeros(n)
    nums, dens = [], []
    for a, b in zip(ars, mas):
        num = 1.0 + ew[:, :q_sec] @ b if q_sec else np.ones(n, dtype=np.complex128)
        den = 1.0 + ew[:, :p_sec] @ a if p_sec else np.ones(n, dtype=np.complex128)
        nums.append(num); dens.append(den)
        log_mag += np.log(np.maximum(np.abs(num), 1e-30))
        log_mag -= np.log(np.maximum(np.abs(den), 1e-30))
        angle_sum += np.angle(num) - np.angle(den)
    return log_mag, angle_sum, nums, dens


def fit_frame(freqs_hz, amplitudes, residual_phases, sample_rate: int,
              orders=(128, 128, 8), phase_weight: float = 0.1,
              max_steps: int = 300, amp_floor: float = 1e-7,
              max_cycles: int = 4) -> tuple[CascadeFrame, float, int]:
    """Fit a stable cascade to harmonic amplitude/phase targets.

    Minimizes sum_k (log(A_k+eps) - log(|H_k|+eps))^2
    + phase_weight * wrap(phi_k - angle(H_k))^2 by damped least squares
    (trust-region with the analytic Jacobian) in two stages. Stage one
    fits the magnitude alone, then reflects every pole and zero outside
    the unit circle to its magnitude-equivalent inside (with gain
    compensation), yielding a stable minimum-phase warm start whose
    phase is already close for vocal-tract-like envelopes. Stage two
    fits magnitude and phase jointly from that start, re-reflecting
    unstable poles and re-optimizing if needed. Returns (frame, final
    loss, flag) where flag 1 marks degenerate all-zero targets and
    flag 2 a fit that still needed stabilizing after the last cycle.
    """
    from scipy.optimize import least_squares
    p, q, r = orders
    if r <= 0 or p % r or q % r:
        raise EnvelopeError("r must divide both P and Q")
    p_sec, q_sec = p // r, q // r
    f = np.asarray(freqs_hz, dtype=np.float64)
    amp = np.asarray(amplitudes, dtype=np.float64)
    phi = np.asarray(residual_phases, dtype=np.float64)
    if np.any(amp < 0):
        raise EnvelopeError("target amplitudes must be nonnegative")
    w = 2 * np.pi * f / sample_rate
    if np.all(amp <= amp_floor):
        sections = [ArmaSection(np.zeros(p_sec), np.zeros(q_sec)) for _ in range(r)]
        return CascadeFrame(amp_floor, sections), 0.0, 1
    target_log = np.log(amp + amp_floor)
    # the phase of a component at or below the amplitude floor is
    # undefined (it is indistinguishable from silence), so such
    # components contribute only to the magnitude term
    phase_mask = (amp > amp_floor).astype(np.float64)
    lam = np.sqrt(phase_weight)
    ew = np.exp(-1j * np.outer(w, np.arange(1, max(p_sec, q_sec) + 1)))
    last = [None, None]

    def evaluate(theta):
        # least_squares asks for the Jacobian at the point it evaluated last
        key = theta.tobytes()
        if last[0] != key:
            last[:] = key, _eval_fit(theta, ew, p_sec, q_sec, r)
        return last[1]

    def residuals(theta, mag_only=False):
        log_mag, angle_sum, _, _ = evaluate(theta)
        d_mag = target_log - np.log(np.exp(log_mag) + amp_floor)
        if mag_only:
            return d_mag
        d_phi = lam * phase_mask * _wrap(phi - angle_sum)
        return np.concatenate([d_mag, d_phi])

    def jacobian(theta, mag_only=False):
        log_mag, _, nums, dens = evaluate(theta)
        mag = np.exp(log_mag)
        n, npar = w.size, theta.size
        jm = np.zeros((n, npar))
        jp = np.zeros((n, npar))
        # chain through log(|H|+eps): factor |H|/(|H|+eps) on the
        # magnitude rows
        cm = mag / (mag + amp_floor)
        jm[:, 0] = -cm
        off = 1
        for j in range(r):
            if p_sec:
                # dlogH/da_p = -e^{-iwp}/den -> log|H| takes Re, angle Im
                t = -ew[:, :p_sec] / dens[j][:, None]
                jm[:, off:off + p_sec] = -cm[:, None] * t.real
                jp[:, off:off + p_sec] = -lam * phase_mask[:, None] * t.imag
                off += p_sec
            if q_sec:
                t = ew[:, :q_sec] / nums[j][:, None]
                jm[:, off:off + q_sec] = -cm[:, None] * t.real
                jp[:, off:off + q_sec] = -lam * phase_mask[:, None] * t.imag
                off += q_sec
        return jm if mag_only else np.vstack([jm, jp])

    theta = np.zeros(1 + r * (p_sec + q_sec))
    theta[0] = np.log(max(float(np.mean(amp)), amp_floor))
    # stage one: magnitude-only fit, then fold all roots inside the
    # unit circle (minimum-phase warm start, magnitude unchanged)
    sol = least_squares(lambda th: residuals(th, True), theta,
                        jac=lambda th: jacobian(th, True), method="trf",
                        max_nfev=max_steps, xtol=1e-12, ftol=1e-12,
                        gtol=1e-12)
    log_g, ars, mas = _split(sol.x, p_sec, q_sec, r)
    ar_refl = [_reflect_stable(a) for a in ars]
    ma_refl = [_reflect_stable(b) for b in mas]
    # a reflected zero divides |num| (gain correction sign flips)
    min_phase = _pack(log_g + sum(c for _, c in ar_refl)
                      - sum(c for _, c in ma_refl),
                      [a for a, _ in ar_refl], [b for b, _ in ma_refl])
    # keeping the zeros unreflected covers non-minimum-phase targets
    mixed_phase = _pack(log_g + sum(c for _, c in ar_refl),
                        [a for a, _ in ar_refl], mas)

    def cycles(theta):
        best_theta = theta.copy()
        best_loss = float(np.sum(residuals(theta) ** 2))
        flag = 0
        for _ in range(max_cycles):
            sol = least_squares(residuals, theta, jac=jacobian, method="trf",
                                max_nfev=max_steps, xtol=1e-14, ftol=1e-14,
                                gtol=1e-14)
            log_g, ars, mas = _split(sol.x, p_sec, q_sec, r)
            reflected = [_reflect_stable(a) for a in ars]
            stable = all(corr == 0.0 for _, corr in reflected)
            log_g = log_g + sum(corr for _, corr in reflected)
            theta = _pack(log_g, [a for a, _ in reflected], mas)
            loss = float(np.sum(residuals(theta) ** 2))
            if loss < best_loss:
                best_theta, best_loss = theta.copy(), loss
            flag = 0 if stable else 2
            if stable:
                break
        return best_theta, best_loss, flag

    best_theta, best_loss, flag = cycles(min_phase)
    if best_loss > 1e-4 * f.size:
        alt_theta, alt_loss, alt_flag = cycles(mixed_phase)
        if alt_loss < best_loss:
            best_theta, best_loss, flag = alt_theta, alt_loss, alt_flag
    if not np.isfinite(best_loss):
        raise EnvelopeError("non-finite fit loss")
    log_g, ars, mas = _split(best_theta, p_sec, q_sec, r)
    ars = [project_stable(a, radius=1.0 - 1e-4) for a in ars]
    sections = [ArmaSection(a, b) for a, b in zip(ars, mas)]
    return CascadeFrame(float(np.exp(log_g)), sections), best_loss, flag


def fit_cascade(hset, f0_track=None, orders=(128, 128, 8), phase_weight: float = 0.1,
                max_steps: int = 500, n_workers: int = 1, guard: float = 50.0,
                unvoiced_f0: float = 100.0) -> ArmaCascade:
    """Fit one cascade frame per analyzed frame of a HarmonicSet.

    Phase targets are the residual between the measured framewise phase
    and the excitation phase accumulated over frames. When f0_track is
    given, the excitation frequencies are rebuilt as the harmonic grid of
    that track (the same grid harmonic synthesis uses), keeping analysis
    and synthesis phase references consistent; otherwise the set's own
    corrected frequencies are used. Frames are independent; n_workers > 1
    fits them in a thread pool with order-preserving assembly
    (bit-identical to sequential).
    """
    from .qhm import harmonic_grid
    from .synth import excitation_phase
    fs = hset.sample_rate
    if f0_track is not None:
        freqs, _ = harmonic_grid(f0_track, fs, guard, unvoiced_f0,
                                 max_components=hset.n_components)
        if freqs.shape != hset.frequencies.shape:
            raise EnvelopeError("f0 track harmonic grid does not match the set")
    else:
        freqs = hset.frequencies
    exc = excitation_phase(freqs, hset.grid)
    residual = _wrap(hset.phases - exc)

    def fit_one(l):
        return fit_frame(freqs[l], hset.amplitudes[l], residual[l],
                         fs, orders, phase_weight, max_steps)

    indices = range(hset.n_frames)
    if n_workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(fit_one, indices))
    else:
        results = [fit_one(l) for l in indices]
    frames = [res[0] for res in results]
    flags = np.array([res[2] for res in results], dtype=np.int64)
    return ArmaCascade(hset.grid, frames, tuple(orders), fs, flags)
