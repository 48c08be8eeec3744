"""Oscillator-bank synthesis from framewise parameters.

Framewise unwrapped phases are interpolated to audio rate by monotone
piecewise-cubic Hermite (PCHIP) interpolation, with the coefficients of
every oscillator from one pass and one interval search shared by all of
them; amplitudes are linear-interpolated on the same intervals.
Components are summed as 2*A_k(t)*cos(phi_k(t)) in ascending k
(deterministic, bit-reproducible).
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .arma import ArmaCascade, sample_cascade
from .qhm import NYQUIST_GUARD, F0Track, HarmonicSet, excitation_phase, harmonic_grid
from .signals import FrameGrid, SignalBuffer, SignalError

# samples per render block: a column's temporaries in one block are about
# 256 KB, and blocks are the unit of work of render's thread pool
RENDER_BLOCK = 32768


def _pchip_end(h0, h1, m0, m1):
    """Moler's one-sided three-point end slope, kept shape-preserving."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    keep = np.sign(d) == np.sign(m0)
    steep = keep & (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3. * np.abs(m0))
    return np.where(steep, 3. * m0, np.where(keep, d, 0.0))


def _pchip(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Monotone cubic Hermite coefficients (4, L - 1, m) of the columns of y
    (L, m) over knots x (L,), L >= 2: c[i, j] multiplies s**(3 - i) on
    interval j. Interior slopes are Fritsch & Carlson's weighted harmonic
    means, 0 at a sign change or a flat side; two knots give the line. The
    operations are those of scipy's PchipInterpolator, so c equals its .c
    bit for bit.
    """
    h = np.diff(x)[:, None]
    m = np.diff(y, axis=0) / h
    d = np.zeros_like(y)
    if len(x) == 2:
        d[:] = m
    else:
        sm = np.sign(m)
        flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
            np.divide(1.0, whmean, out=d[1:-1], where=~flat)
        d[0] = _pchip_end(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))


def cascade_tracks(cascade: ArmaCascade, freqs: np.ndarray, live: np.ndarray,
                   betas: np.ndarray | None = None):
    """Amplitude and phase tracks of components on a cascade's envelope.

    freqs and live are (frames, K). The envelope is sampled once, at each
    frequency clamped to the limit Nyquist - NYQUIST_GUARD. A component is
    audible where it is live and its frequency is at most the limit, and
    only audible components keep their magnitude. Phases are the excitation
    phase over the cascade's grid (step i scaled by betas[i], if given) plus
    the sampled phase delays. Per-section principal angles can flip branch
    (jump by 2*pi) between frames when a pole angle sits near +-pi, so the
    delay track is unwrapped along the frame axis per component before it
    is added; the result is a continuous phase track safe to interpolate.

    Returns (amplitudes, phases, audible), each (frames, K).
    """
    f = np.atleast_2d(np.asarray(freqs, dtype=np.float64))
    limit = cascade.sample_rate / 2 - NYQUIST_GUARD
    mags, delays = sample_cascade(cascade, np.minimum(f, limit))
    phases = excitation_phase(f, cascade.grid, betas) + np.unwrap(delays, axis=0)
    audible = live & (f <= limit)
    return np.where(audible, mags, 0.0), phases, audible


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def rendered_length(centers: np.ndarray, sample_rate: int) -> int:
    """Samples that render writes over frame centers t_0 .. t_L: one per
    sample period, both ends included."""
    span = (centers[-1] - centers[0]) * sample_rate
    if not np.isfinite(span):
        raise SignalError("output length is not finite")
    return int(round(span)) + 1


def render(amplitudes: np.ndarray, phases: np.ndarray, grid: FrameGrid,
           sample_rate: int) -> SignalBuffer:
    """Additive rendering of framewise tracks over [t_0, t_L].

    amplitudes and phases are (frames, K); phases must be unwrapped.
    Components are summed in ascending k; the conjugate-symmetric pair is
    folded into 2*A*cos(phi) and the DC term is omitted. A component is
    rendered only on the intervals where it is heard: column k hears the
    interval between frame centers j and j + 1 iff it is nonzero on frame j
    or j + 1. Elsewhere its linear amplitude is exactly 0, so its terms are
    +-0.0 and would leave the sum, which starts at +0.0 and so is never
    -0.0, as it is. All-zero columns are skipped. A column evaluates its
    support, from its first heard interval to its last, as one contiguous
    run; a column that hears less than half of its support evaluates only
    its heard samples, gathered, and adds them back in one contiguous pass
    (a gather costs more than it saves on a column heard almost throughout).

    Phases are PCHIP-interpolated, holding the end values past t_L. The
    coefficients of all live columns come from one _pchip pass, and each
    column evaluates them at the shared sample intervals in the term order
    of scipy's piecewise-polynomial evaluation,
    ((c3 + c2*s) + c1*s**2) + c0*s**3, so the samples equal one scipy
    PchipInterpolator per column bit for bit. Amplitudes take numpy.interp's
    formula, slope*s + a_j, on the same intervals.

    The output is rendered in blocks of RENDER_BLOCK samples. In each block
    every live column evaluates only its own samples there, from the
    coefficients of the block's own intervals, so a column's temporaries
    are block-sized, and adds them into the block in ascending k. Blocks
    are disjoint and every sample sums the same terms in the same order,
    so the bytes do not depend on the block size or on how blocks are
    scheduled: a render of two or more blocks runs them on a thread pool
    of one worker per usable CPU (numpy's cos and arithmetic release the
    interpreter lock), and a render of one block, or on one CPU, runs
    inline.
    """
    amps = np.atleast_2d(np.asarray(amplitudes, dtype=np.float64))
    phis = np.atleast_2d(np.asarray(phases, dtype=np.float64))
    if amps.shape != phis.shape or amps.shape[0] != len(grid):
        raise SignalError("track shapes inconsistent with the grid")
    L = amps.shape[0]
    if L == 0:
        return SignalBuffer(np.zeros(0), sample_rate)
    centers = grid.centers
    t0, t_end = centers[0], centers[-1]
    n = rendered_length(centers, sample_rate)
    out = np.zeros(n)
    nonzero = amps != 0
    live = np.flatnonzero(nonzero.any(axis=0))
    if L == 1:
        for k in live:
            out += 2 * amps[0, k] * np.cos(phis[0, k])
        return SignalBuffer(out, sample_rate)
    if live.size == 0:
        return SignalBuffer(out, sample_rate)
    first = np.argmax(nonzero[:, live], axis=0)
    last = L - 1 - np.argmax(nonzero[::-1, live], axis=0)
    # (live, 4, L - 1): in a column's c, c[m, j] multiplies s**(3 - m) on interval j
    coef = np.ascontiguousarray(_pchip(centers, phis[:, live]).transpose(2, 0, 1))
    tt = np.minimum(np.arange(n) / sample_rate + t0, t_end)
    before = np.searchsorted(tt, centers, "left")
    # interval j holds samples [edges[j], edges[j + 1]), the last one also
    # those at t_end; s is each sample's offset into its interval
    edges = np.r_[0, before[1:-1], n]
    s = tt - np.repeat(centers[:-1], np.diff(edges))
    del tt
    # (live, L - 1): whether a column hears interval j; its support [lo, hi)
    # runs from its first heard interval to its last
    heard = np.ascontiguousarray((nonzero[:-1, live] | nonzero[1:, live]).T)
    lo = edges[np.maximum(first - 1, 0)]
    hi = edges[np.minimum(last + 1, L - 1)]
    gather = 2 * (heard @ np.diff(edges)) < hi - lo
    slopes = np.diff(amps[:, live], axis=0) / np.diff(centers)[:, None]
    held = before[-1]

    def render_block(b0):
        b1 = min(b0 + RENDER_BLOCK, n)
        # the intervals j0 .. j1 - 1 that hold samples [b0, b1)
        j0 = np.searchsorted(edges, b0, "right") - 1
        j1 = np.searchsorted(edges, b1, "left")
        cuts = edges[j0:j1 + 1]
        for c, slope, k, l, h, hears, sparse in zip(coef[:, :, j0:j1], slopes[j0:j1].T, live,
                                                   lo, hi, heard[:, j0:j1], gather):
            l, h = max(l, b0), min(h, b1)
            if l >= h:
                continue
            runs = np.diff(cuts.clip(l, h))
            x = s[l:h]
            if sparse:
                keep = hears.repeat(runs)
                runs = np.where(hears, runs, 0)
                x = x[keep]
            # ((c3 + c2*s) + c1*s**2) + c0*s**3, with one buffer besides phi
            phi = c[2].repeat(runs)
            phi *= x
            phi += c[3].repeat(runs)
            buf = x * x
            buf *= c[1].repeat(runs)
            phi += buf
            np.multiply(x, x, out=buf)
            buf *= x
            buf *= c[0].repeat(runs)
            phi += buf
            del buf
            # np.interp's slope*s + a_j, and a_L from t_end on
            a = slope.repeat(runs)
            a *= x
            a += amps[j0:j1, k].repeat(runs)
            if h > held:
                a[held - h:] = amps[-1, k]
            a *= 2
            a *= np.cos(phi, out=phi)
            if sparse:
                # back onto the support, with +0.0 on its silent samples
                terms, a = a, np.zeros(h - l)
                a[keep] = terms
            out[l:h] += a
            del phi, a

    starts = range(0, n, RENDER_BLOCK)
    workers = min(len(starts), _usable_cpus())
    if workers == 1:
        for b0 in starts:
            render_block(b0)
    else:
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(render_block, starts))
    return SignalBuffer(out, sample_rate)


def synthesize_qhm(hset: HarmonicSet) -> SignalBuffer:
    """Resynthesis from a harmonic set: the excitation phase plus the running
    sum of the compensations, with components above Nyquist - NYQUIST_GUARD
    muted."""
    fs = hset.sample_rate
    if hset.n_frames == 0:
        return SignalBuffer(np.zeros(0), fs)
    phases = (excitation_phase(hset.frequencies, hset.grid)
              + np.cumsum(hset.compensations, axis=0))
    amps = np.where(hset.frequencies > fs / 2 - NYQUIST_GUARD, 0.0, hset.amplitudes)
    return render(amps, phases, hset.grid, fs)


def synthesize_arma(cascade: ArmaCascade, f0_track: F0Track,
                    max_components: int | None = None) -> SignalBuffer:
    """Resynthesis from an envelope cascade and an f0 track.

    Component frequencies are the harmonic grid of the track (dense
    synthetic grid on unvoiced frames), and the first counts[l] of them are
    live on frame l; cascade_tracks gives their amplitudes and phases.
    """
    fs = cascade.sample_rate
    if cascade.n_frames == 0:
        return SignalBuffer(np.zeros(0), fs)
    if cascade.n_frames != len(f0_track.values):
        raise SignalError("cascade and f0 track must share the frame grid")
    freqs, counts = harmonic_grid(f0_track, fs, max_components)
    live = np.arange(freqs.shape[1]) < counts[:, None]
    amps, phases, _ = cascade_tracks(cascade, freqs, live)
    return render(amps, phases, cascade.grid, fs)
