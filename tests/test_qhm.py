"""Framewise least-squares analysis, frequency correction, refinement,
and the pitch detector."""
import dataclasses
import importlib.util
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from scipy.linalg import LinAlgError, cho_factor

from quasivoc import fixtures, qhm
from quasivoc.qhm import (AnalysisError, F0Track, HarmonicSet, analyze_qhm,
                          compensations_from_phases, detect_f0, harmonic_grid,
                          refine_adaptive, refine_f0)
from quasivoc.qhm import (COND_THRESHOLD, F0_QUANTUM, NYQUIST_GUARD, _corrected,
                          _harmonic_normal, _LsSolver)
from quasivoc.serialize import harmonics_to_bytes
from quasivoc.signals import FrameGrid, SignalBuffer, grid_window, make_grid, make_window
from quasivoc.synth import synthesize_arma

FS = 24000


def _centered_frame(freqs, amps, phases, n=481, fs=FS):
    half = (n - 1) // 2
    t = (np.arange(n) - half) / fs
    x = np.zeros(n)
    for f, a, p in zip(freqs, amps, phases):
        x += a * np.cos(2 * np.pi * f * t + p)
    return x, t


def _seeds(f0, sample_rate=FS, max_components=None):
    """harmonic_grid's seeds on a one-frame track."""
    track = F0Track(make_grid(0.0, 0.005, 0.010), [f0])
    return harmonic_grid(track, sample_rate, max_components)[0][0]


def _oracle_ls(x, t, freqs, window):
    """Independent brute-force solve of the same windowed LS problem.

    Builds the complex conjugate-pair model directly and solves the real
    normal equations with lstsq (no shared code with the package's
    cached-Cholesky path).
    """
    cols = []
    for f in freqs:
        e = np.exp(1j * 2 * np.pi * f * t)
        cols += [2 * e.real, -2 * e.imag, 2 * t * e.real, -2 * t * e.imag]
    E = np.stack(cols, axis=1) * window[:, None]
    theta, *_ = np.linalg.lstsq(E, window * x, rcond=None)
    a = theta[0::4] + 1j * theta[1::4]
    b = theta[2::4] + 1j * theta[3::4]
    return a, b


# --- one-frame LS solve ----------------------------------------------------

def _basis(t, phase):
    """Real design matrix of the phase tracks phase (n, K), one row per
    sample: blocks of K columns [2cos | -2sin | 2t cos | -2t sin], so that
    the unknown vector is [Re a | Im a | Re b | Im b]."""
    c, s = np.cos(phase), np.sin(phase)
    return np.hstack((2 * c, -2 * s, 2 * t[:, None] * c, -2 * t[:, None] * s))


def _basis_solver(t, phase, window):
    """The one-block solver of the _basis design, its Gram matrix Ew.T @ Ew
    built from the sampled columns (no shared code with _harmonic_normal)."""
    ew = _basis(t, phase) * window[:, None]
    return _LsSolver([(np.arange(ew.shape[1]), ew.T @ ew)], ew[:, :2 * phase.shape[1]],
                     np.stack((window, t * window)))


def _stationary_solver(freqs, window, t):
    """The solver of the stationary design of any seeds, one block."""
    return _basis_solver(t, 2 * np.pi * np.outer(t, freqs), window)


def test_ls_fit_pure_cosine_exact_seed():
    """Both constructors: the one-block design and the even/odd blocks."""
    A, f, phi = 0.3, 200.0, 0.7
    x, t = _centered_frame([f], [A], [phi])
    w = make_window("hann", 481)
    for solver in (_stationary_solver([f], w, t), _LsSolver.harmonic(f, 1, t, w)):
        a, b = solver.solve(x)
        np.testing.assert_allclose(a[0], (A / 2) * np.exp(1j * phi), atol=1e-9)
        assert abs(b[0]) <= 1e-6 * A


def test_ls_fit_zero_frame():
    _, t = _centered_frame([], [], [])
    w = make_window("hann", 481)
    for solver in (_stationary_solver([100.0, 200.0], w, t), _LsSolver.harmonic(100.0, 2, t, w)):
        a, b = solver.solve(np.zeros(481))
        np.testing.assert_allclose(a, 0.0, atol=1e-15)
        np.testing.assert_allclose(b, 0.0, atol=1e-15)


def test_ls_fit_matches_normal_equation_oracle():
    x, t = _centered_frame([101.0], [1.0], [0.0])
    w = make_window("hann", 481)
    a, b = _stationary_solver([100.0], w, t).solve(x)
    a_ref, b_ref = _oracle_ls(x, t, [100.0], w)
    np.testing.assert_allclose(a, a_ref, rtol=1e-8, atol=1e-12)
    np.testing.assert_allclose(b, b_ref, rtol=1e-8, atol=1e-10)
    freqs, _, _ = _corrected(a, b, np.array([100.0]), FS)
    assert abs(freqs[0] - 101.0) < 0.05


def test_ls_fit_errors():
    """analyze_qhm refuses a seed at Nyquist and a frame with under 8 samples."""
    grid = FrameGrid(np.array([240 / FS]), 0.005, 0.010)
    with pytest.raises(AnalysisError, match="Nyquist"):
        analyze_qhm(SignalBuffer(np.zeros(481), FS), grid, F0Track(grid, [FS / 2.0]))
    grid = FrameGrid(np.zeros(1), 0.005, 0.010)
    with pytest.raises(AnalysisError, match="no usable samples"):
        analyze_qhm(SignalBuffer(np.zeros(7), FS), grid, F0Track(grid, [100.0]))


def test_ls_optimality_under_perturbation():
    """No random perturbation of the solved coefficients reduces the error."""
    rng = np.random.default_rng(11)
    x, t = _centered_frame([150.0, 320.0], [0.5, 0.2], [0.3, -1.1])
    x += 0.01 * rng.standard_normal(x.size)
    freqs = np.array([150.0, 320.0])
    w = make_window("hann", 481)
    a, b = _stationary_solver(freqs, w, t).solve(x)

    def wsse(a, b):
        model = np.zeros_like(x)
        for k, f in enumerate(freqs):
            e = np.exp(1j * 2 * np.pi * f * t)
            model += 2 * np.real((a[k] + t * b[k]) * e)
        return np.sum((w * (x - model)) ** 2)

    base = wsse(a, b)
    for _ in range(40):
        da = 1e-4 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        db = 1e-2 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        assert wsse(a + da, b + db) >= base - 1e-12


# --- LS conditioning -------------------------------------------------------

def test_analysis_runs_no_full_svd(monkeypatch):
    """The condition estimate comes from the Cholesky factor, not an SVD."""
    def no_svd(*args, **kwargs):
        raise AssertionError("full SVD in analysis")

    monkeypatch.setattr(np.linalg, "cond", no_svd)
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    buf, _ = fixtures.chirp(100.0, 140.0, 0.2, FS, n_harmonics=3)
    grid = make_grid(0.2 - 1.0 / FS, 0.005, 0.010)
    hset = analyze_qhm(buf, grid, detect_f0(buf, grid), max_components=6)
    refined = refine_adaptive(buf, hset, mode="aqhm", max_iters=1)
    assert np.all(np.isfinite(refined.amplitudes))


def test_ls_fit_coincident_frequencies_flagged():
    x, t = _centered_frame([150.0, 300.0], [0.5, 0.2], [0.3, -1.1])
    w = make_window("hann", 481)
    solver = _stationary_solver([150.0, 150.0, 300.0], w, t)
    assert solver.ill_conditioned
    a, b = solver.solve(x)
    assert np.all(np.isfinite(a)) and np.all(np.isfinite(b))


def test_ls_fit_harmonic_set_not_flagged():
    f = _seeds(150.0)
    w = make_window("hann", 481)
    _, t = _centered_frame([], [], [])
    assert f.size == 79
    assert not _stationary_solver(f, w, t).ill_conditioned
    assert not _LsSolver.harmonic(150.0, 79, t, w).ill_conditioned


@pytest.mark.parametrize("freqs", [_seeds(150.0),
                                   np.array([100.0, 104.0]),
                                   np.array([200.0, 210.0, 400.0])])
def test_condition_estimate_tracks_two_norm(freqs):
    """1/rcond lies within a factor 4K of the scaled Gram's 2-norm condition."""
    w = make_window("hann", 481)
    t = (np.arange(481) - 240) / FS
    cols = []
    for f in freqs:
        e = np.exp(1j * 2 * np.pi * f * t)
        cols += [2 * e.real, -2 * e.imag, 2 * t * e.real, -2 * t * e.imag]
    Ew = np.stack(cols, axis=1) * w[:, None]
    G = Ew.T @ Ew
    d = np.sqrt(np.diag(G))
    oracle = np.linalg.cond(G / np.outer(d, d))
    assert oracle < COND_THRESHOLD
    solvers = [_stationary_solver(freqs, w, t)]
    if np.array_equal(freqs, freqs[0] * np.arange(1, freqs.size + 1)):
        # the even and odd blocks of the full window
        solvers.append(_LsSolver.harmonic(freqs[0], freqs.size, t, w))
        assert len(solvers[-1].blocks) == 2
    n = 4 * freqs.size
    for solver in solvers:
        assert oracle / n <= 1.0 / solver.rcond <= n * oracle


# Slices of the default 481-sample window: a full interior frame, frame 1 of
# a clip (its window starts 120 samples before the signal) and the last
# frame of a clip that ends at its center.
WINDOW_SLICES = {"interior": slice(0, 481), "left-edge": slice(120, 481),
                 "right-edge": slice(0, 241)}


def _harmonic_case(n_components, edge):
    """Seeds and window slice of one frame, with analyze_qhm's count rule."""
    base = 100.0 if n_components == 119 else 150.0   # 119 is the unvoiced grid
    w = make_window("hann", 481)[WINDOW_SLICES[edge]]
    t = ((np.arange(481) - 240) / FS)[WINDOW_SLICES[edge]]
    k = min(n_components, t.size // 4)
    return base, base * np.arange(1, k + 1), t, w


def _assert_gram_matches(gram, expect):
    """gram equals expect to 1e-12 after Jacobi scaling by expect's diagonal."""
    d = np.sqrt(np.diag(expect))
    np.testing.assert_allclose(gram / np.outer(d, d), expect / np.outer(d, d), rtol=0, atol=1e-12)


@pytest.mark.parametrize("edge", sorted(WINDOW_SLICES))
@pytest.mark.parametrize("n_components", [1, 79, 119])
def test_harmonic_normal_matches_basis(n_components, edge):
    """On the full window the _basis Gram matrix is block diagonal, and the
    folded even and odd blocks are its blocks; a window cut by the edge
    gets the whole matrix as one block, summed over every sample."""
    base, f, t, w = _harmonic_case(n_components, edge)
    k = f.size
    ew = _basis(t, 2 * np.pi * np.outer(t, f)) * w[:, None]
    ref = ew.T @ ew
    weights = np.stack((w, t * w))
    z = np.exp(2j * np.pi * base * t)
    if edge != "interior":
        [(index, gram)], table, got_weights = _harmonic_normal(z, k, t, w, fold=False)
        np.testing.assert_array_equal(index, np.arange(4 * k))
        _assert_gram_matches(gram, ref)
        np.testing.assert_array_equal(gram, gram.T)
        np.testing.assert_allclose(table, ew[:, :2 * k], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(got_weights, weights)
        assert len(_LsSolver.harmonic(base, k, t, w).blocks) == 1
        return
    even, odd = np.r_[:k, 3 * k:4 * k], np.arange(k, 3 * k)
    assert np.abs(ref[np.ix_(even, odd)]).max() <= 1e-15 * np.abs(ref).max()
    blocks, table, half_weights = _harmonic_normal(z, k, t, w, fold=True)
    assert [index.tolist() for index, _ in blocks] == [even.tolist(), odd.tolist()]
    for index, gram in blocks:
        _assert_gram_matches(gram, ref[np.ix_(index, index)])
    h = t.size // 2
    np.testing.assert_allclose(table, ew[h:, :2 * k], rtol=0, atol=1e-12)
    # a fold of the frame about its centre counts the centre sample twice
    np.testing.assert_array_equal(half_weights, weights[:, h:] * np.r_[0.5, np.ones(h)])


def test_general_design_matches_basis_on_a_chirp():
    """Harmonics 1..79 of a 750 Hz/s chirp's base phase: the closed-form
    design of general mode matches the _basis Gram matrix and table, and
    its solver matches the _basis solver."""
    w = make_window("hann", 481)
    t = (np.arange(481) - 240) / FS
    phi = 2 * np.pi * (150.0 * t + 0.5 * 750.0 * t * t)
    harmonics = np.arange(1, 80)
    ew = _basis(t, np.outer(phi, harmonics)) * w[:, None]
    ref = ew.T @ ew
    blocks, table, weights = _harmonic_normal(np.exp(1j * phi), 79, t, w, fold=False)
    [(index, gram)] = blocks
    np.testing.assert_array_equal(index, np.arange(4 * 79))
    _assert_gram_matches(gram, ref)
    np.testing.assert_array_equal(gram, gram.T)
    np.testing.assert_allclose(table, ew[:, :2 * 79], rtol=0, atol=1e-12)
    np.testing.assert_array_equal(weights, np.stack((w, t * w)))
    solver = _LsSolver(blocks, table, weights)
    [(_, d, _)] = solver.blocks
    np.testing.assert_allclose(d, np.sqrt(np.diag(ref)), rtol=1e-12)
    x = np.random.default_rng(3).standard_normal(t.size)
    ref_solver = _basis_solver(t, np.outer(phi, harmonics), w)
    assert not solver.ill_conditioned and not ref_solver.ill_conditioned
    for value, expect in zip(solver.solve(x), ref_solver.solve(x)):
        np.testing.assert_allclose(value, expect, rtol=0, atol=1e-9 * np.abs(expect).max())


@pytest.mark.parametrize("edge", sorted(WINDOW_SLICES))
@pytest.mark.parametrize("n_components", [1, 79, 119])
def test_harmonic_solver_matches_basis_solver(n_components, edge):
    """Both constructors solve a noise frame to the same amplitudes and slopes.

    The bound is 1e-9 of the largest value, widened to 1e-14 / rcond where
    that is larger: on the full window at 119 components (1/rcond about
    2.5e7) the rounding difference of the two Gram matrices moves a and b
    by up to about 1e-8 of their largest value.
    """
    base, f, t, w = _harmonic_case(n_components, edge)
    x = np.random.default_rng(n_components).standard_normal(t.size)
    ref_solver = _basis_solver(t, 2 * np.pi * np.outer(t, f), w)
    solver = _LsSolver.harmonic(base, f.size, t, w)
    assert solver.ill_conditioned == ref_solver.ill_conditioned
    rel = 1e-9 if solver.ill_conditioned else max(1e-9, 1e-14 / ref_solver.rcond)
    for value, expect in zip(solver.solve(x), ref_solver.solve(x)):
        np.testing.assert_allclose(value, expect, rtol=0, atol=rel * np.abs(expect).max())


def _stack_solver(kind):
    """A solver of each kind, and its frame length."""
    t = (np.arange(481) - 240) / FS
    hann, gauss = make_window("hann", 481), make_window("gauss", 481, 1e-3)
    if kind == "fold":
        return _LsSolver.harmonic(150.0, 79, t, hann), 481
    if kind == "edge":
        return _LsSolver.harmonic(150.0, 79, t[120:], hann[120:]), 361
    if kind == "locked":
        # harmonics 1..34 of a 750 Hz/s chirp's base phase, as refinement solves them
        phi = 2 * np.pi * (150.0 * t + 0.5 * 750.0 * t * t)
        return _LsSolver(*_harmonic_normal(np.exp(1j * phi), 34, t, hann, fold=False)), 481
    if kind == "ridge":
        return _LsSolver.harmonic(200.0, 59, t, gauss), 481
    # the window slice left of the centre sample weighs every sample 0
    return _LsSolver.harmonic(200.0, 59, t[:240], gauss[:240]), 240


@pytest.mark.parametrize("kind", ["fold", "edge", "locked", "ridge", "none"])
def test_solve_on_a_stack_matches_single_solves(kind):
    """An (F, m) stack of frames solves to the bytes of F single solves: the
    folds and right-hand sides are per row, and the factor's one cho_solve
    of F columns rounds each column as a solve on its own does."""
    solver, m = _stack_solver(kind)
    assert len(solver.blocks) == {"fold": 2, "ridge": 2, "none": 0}.get(kind, 1)
    assert solver.ill_conditioned == (kind in ("ridge", "none"))
    frames = np.random.default_rng(11).standard_normal((37, m))
    if kind == "none":
        assert solver.solve(frames) is None and solver.solve(frames[0]) is None
        return
    singles = [solver.solve(x) for x in frames]
    for stack in (frames, frames[:1]):
        a, b = solver.solve(stack)
        assert a.shape == b.shape == (len(stack), singles[0][0].size)
        assert a.tobytes() == np.stack([s[0] for s in singles[:len(stack)]]).tobytes()
        assert b.tobytes() == np.stack([s[1] for s in singles[:len(stack)]]).tobytes()


# --- frequency correction ------------------------------------------------

def _slopes(eta, a=None):
    """Unit amplitudes a and the slopes b whose correction is eta Hz."""
    eta = np.asarray(eta, dtype=np.float64)
    a = np.ones(eta.size, complex) if a is None else a
    return a, 2j * np.pi * eta * a


def test_correction_zero_slope():
    freqs, _, _ = _corrected(*_slopes([0.0]), np.array([100.0]), FS)
    assert freqs[0] == 100.0


def test_correction_closed_form():
    c = 7.3
    freqs, _, _ = _corrected(np.array([1.0 + 0j]), np.array([1j * c]), np.array([100.0]), FS)
    np.testing.assert_allclose(freqs[0] - 100.0, c / (2 * np.pi))


def test_correction_floor():
    freqs, _, _ = _corrected(np.array([1e-9 + 0j]), np.array([5.0 + 3j]), np.array([100.0]), FS)
    assert freqs[0] == 100.0


def test_correction_scale_invariance():
    x, t = _centered_frame([103.0], [0.4], [0.2])
    w = make_window("hann", 481)
    solver = _stationary_solver([100.0], w, t)
    a1, b1 = solver.solve(x)
    f1, _, _ = _corrected(a1, b1, np.array([100.0]), FS)
    for c in (0.5, 3.0, 40.0):
        a2, b2 = solver.solve(c * x)
        np.testing.assert_allclose(a2, c * a1, rtol=1e-9)
        np.testing.assert_allclose(b2, c * b1, rtol=1e-9)
        np.testing.assert_allclose(_corrected(a2, b2, np.array([100.0]), FS)[0], f1, rtol=1e-9)


@pytest.mark.parametrize("f_hat, eta, expect", [
    ([100.0, 200.0, 300.0], [80.0, -3.0, -60.0], [150.0, 197.0, 250.0]),
    # refinement passes the current frequencies, in any order
    ([100.0, 300.0, 150.0], [40.0, -40.0, 10.0], [125.0, 275.0, 160.0]),
    # coincident seeds still move by 1e-3 Hz
    ([100.0, 100.0], [5.0, -5.0], [100.001, 99.999]),
])
def test_correction_clamped_to_half_the_seed_spacing(f_hat, eta, expect):
    """A noisy slope moves a component by at most half the seed spacing."""
    freqs, amp, _ = _corrected(*_slopes(eta), np.array(f_hat), FS)
    np.testing.assert_allclose(freqs, expect, rtol=0, atol=1e-9)
    np.testing.assert_array_equal(amp, 1.0)


@pytest.mark.parametrize("f_hat, eta, expect", [(40.0, 100.0, 60.0), (40.0, -100.0, 20.0),
                                                (40.0, 15.0, 55.0), (0.5, -3.0, 0.0)])
def test_correction_of_a_lone_component_within_half_its_frequency(f_hat, eta, expect):
    """A lone component moves by at most 0.5*f, and at least 0.5 Hz."""
    freqs, _, _ = _corrected(*_slopes([eta]), np.array([f_hat]), FS)
    np.testing.assert_allclose(freqs, [expect], rtol=0, atol=1e-9)


def test_corrected_frequencies_clipped_to_zero_and_below_nyquist():
    freqs, _, _ = _corrected(*_slopes([-300.0, 100.0]), np.array([1.0, 11990.0]), FS)
    assert freqs[0] == 0.0
    assert freqs[1] == FS / 2 - 1e-6


# --- framewise amplitude/phase ---------------------------------------------

def test_framewise_amp_phase_cases():
    a = np.array([1.0, 0.0, -2j])
    _, amp, phase = _corrected(a, np.zeros(3, complex), np.array([100.0, 200.0, 300.0]), FS)
    np.testing.assert_allclose(amp, [1.0, 0.0, 2.0])
    np.testing.assert_allclose(phase, [0.0, 0.0, -np.pi / 2])


# --- pitch detection -------------------------------------------------------

def test_detect_f0_silence():
    grid = make_grid(0.3, 0.005, 0.010)
    track = detect_f0(SignalBuffer(np.zeros(int(0.3 * FS)), FS), grid)
    assert np.all(track.values == 0)
    assert not track.voiced.any()


def test_detect_f0_pure_tone():
    buf, _ = fixtures.tone(200.0, 0.5, FS)
    grid = make_grid(0.5, 0.005, 0.010)
    track = detect_f0(buf, grid)
    interior = track.values[5:-5]
    assert np.all(interior > 0)
    assert np.all(np.abs(interior - 200.0) <= 2.0)


def test_detect_f0_noise_mostly_unvoiced():
    buf, _ = fixtures.noise(0.5, FS, seed=4)
    grid = make_grid(0.5, 0.005, 0.010)
    track = detect_f0(buf, grid)
    assert np.mean(track.values == 0) >= 0.8


def _detect_f0_loop(buffer, grid, f0_range=(50.0, 500.0)):
    """detect_f0 one frame at a time, with direct ACF products: the segment
    within lag_max of the centre sample inside the signal, less its mean;
    the ACF over the energy of the overlap from lag k on; the strongest peak,
    refined by a parabola; f0 values, 0 on unvoiced frames."""
    fs = buffer.sample_rate
    fmin, fmax = f0_range
    lag_min = max(2, int(np.floor(fs / fmax)))
    lag_max = int(np.ceil(fs / fmin))
    x = buffer.samples
    values = np.zeros(len(grid))
    for l, tc in enumerate(grid.centers):
        c = int(round(tc * fs))
        seg = x[max(0, c - lag_max):min(len(x), c + lag_max)]
        if seg.size < 2 * lag_min + 2:
            continue
        seg = seg - seg.mean()
        e0 = np.dot(seg, seg)
        if e0 <= 0:
            continue
        n = seg.size
        acf = np.correlate(seg, seg, mode="full")[n - 1:]
        tail = e0 - np.concatenate(([0.0], np.cumsum(seg * seg)[:-1]))
        with np.errstate(divide="ignore", invalid="ignore"):
            nacf = acf / np.sqrt(e0 * np.maximum(tail, 1e-300))
        top = min(lag_max, n - 2)
        if top <= lag_min:
            continue
        peak = int(np.argmax(nacf[lag_min:top + 1])) + lag_min
        if nacf[peak] < qhm.VOICING_THRESHOLD:
            continue
        delta = 0.0
        if lag_min < peak < top:
            y0, y1, y2 = nacf[peak - 1], nacf[peak], nacf[peak + 1]
            denom = y0 - 2 * y1 + y2
            if abs(denom) > 1e-30:
                delta = float(np.clip(0.5 * (y0 - y2) / denom, -0.5, 0.5))
        f0 = fs / (peak + delta)
        if fmin <= f0 <= fmax:
            values[l] = f0
    return values


def _cut_tone(phase, tail):
    """A 0.3 s 150 Hz tone of the given phase, scaled by tail from 0.15 s on."""
    x = fixtures.tone(150.0, 0.3, FS, phase=phase)[0].samples
    x[int(0.15 * FS):] *= tail
    return SignalBuffer(x, FS)


@pytest.mark.parametrize("make", [
    lambda: fixtures.vowel(150.0, 0.5, FS, 0.005, 0.010)[0],
    lambda: fixtures.vowel(90.0, 0.5, FS, 0.005, 0.010)[0],
    lambda: fixtures.chirp(80.0, 400.0, 0.5, FS, n_harmonics=5)[0],
    # cut to exact zeros: the FFT's ACF at lags past the cut is rounding,
    # which read frame 30 of the sine as 50 Hz before the tail-energy floor
    lambda: _cut_tone(-np.pi / 2, 0.0),
    lambda: _cut_tone(0.0, 0.0),
    lambda: _cut_tone(0.0, 1e-12),
    lambda: SignalBuffer(np.where(np.arange(int(0.3 * FS)) < int(0.15 * FS), 0.0,
                                  fixtures.tone(150.0, 0.3, FS)[0].samples), FS),
    lambda: fixtures.noise(0.5, FS, seed=4)[0],
    # shorter than 2 * lag_min + 2 = 98 samples
    lambda: SignalBuffer(fixtures.tone(150.0, 0.3, FS)[0].samples[:97], FS),
    lambda: SignalBuffer(np.zeros(int(0.3 * FS)), FS),
], ids=["vowel150", "vowel90", "chirp", "sine-cut", "cosine-cut", "cosine-1e-12-tail",
        "silence-tone", "noise", "short", "zeros"])
def test_detect_f0_matches_per_frame_loop(make):
    """One rfft for every frame gives the loop's voicing exactly, and its f0
    to rounding: the FFT's ACF differs from the direct products by about
    eps times the segment's energy."""
    buf = make()
    grid = make_grid(buf.duration, 0.005, 0.010)
    got, expect = detect_f0(buf, grid).values, _detect_f0_loop(buf, grid)
    np.testing.assert_array_equal(got > 0, expect > 0)
    np.testing.assert_allclose(got, expect, rtol=1e-12, atol=0)


@pytest.mark.parametrize("block", [1, 7, 1000])
def test_detect_f0_block_size_changes_no_bit(block, monkeypatch):
    """Every frame's ACF is computed on its own row, so how many frames share
    an rfft changes no bit of the track."""
    buf = fixtures.chirp(80.0, 400.0, 1.5, FS, n_harmonics=5)[0]
    grid = make_grid(buf.duration, 0.005, 0.010)
    assert len(grid) > 2 * qhm.FRAME_BLOCK
    expect = detect_f0(buf, grid).values
    monkeypatch.setattr(qhm, "FRAME_BLOCK", block)
    assert detect_f0(buf, grid).values.tobytes() == expect.tobytes()


def test_detect_f0_takes_no_correlation_from_a_tail_without_energy():
    """Where a sine drops to 1e-12 of itself, the overlap at lag 480 (3
    periods) of the frame on the drop holds 1e-24 of the segment's energy:
    below ACF_TAIL_FLOOR, so that lag carries no correlation and the frame
    reads 150 Hz. The per-frame loop takes the energy from a running sum,
    where it rounds to zero or below, and reads 50 Hz on this phase. Every
    other frame agrees."""
    buf = _cut_tone(-np.pi / 2, 1e-12)
    grid = make_grid(buf.duration, 0.005, 0.010)
    got, expect = detect_f0(buf, grid).values, _detect_f0_loop(buf, grid)
    assert abs(got[30] - 150.0) < 2.0
    others = np.arange(len(grid)) != 30
    np.testing.assert_array_equal(got[others] > 0, expect[others] > 0)
    np.testing.assert_allclose(got[others], expect[others], rtol=1e-12, atol=0)


def test_detect_f0_errors():
    grid = make_grid(0.1, 0.005, 0.010)
    with pytest.raises(AnalysisError):
        detect_f0(SignalBuffer(np.zeros(0), FS), grid)
    buf = SignalBuffer(np.zeros(100), FS)
    with pytest.raises(AnalysisError):
        detect_f0(buf, grid, f0_range=(500.0, 50.0))


# --- harmonic grids --------------------------------------------------------

def _oracle_seeds(f0, sample_rate, max_components=None):
    """The seed rule one frame at a time: k*f0 below Nyquist - 50 Hz, with
    f0 quantized to F0_QUANTUM and 100 Hz spacing on unvoiced frames."""
    base = f0 if f0 > 0 else 100.0
    base = max(round(base / F0_QUANTUM) * F0_QUANTUM, F0_QUANTUM)
    k = int(np.floor((sample_rate / 2.0 - 50.0) / base))
    if max_components is not None:
        k = min(k, max_components)
    k = max(k, 1)
    return base * np.arange(1, k + 1)


def test_harmonic_grid_k_rule():
    f = _seeds(200.0)
    assert f.size == 59  # floor((12000 - 50) / 200)
    np.testing.assert_allclose(f, 200.0 * np.arange(1, 60))
    # unvoiced frames fall back to the dense synthetic grid
    fu = _seeds(0.0)
    np.testing.assert_allclose(fu[:3], [100.0, 200.0, 300.0])
    assert _seeds(200.0, max_components=8).size == 8


@pytest.mark.parametrize("cap", [None, 8])
@pytest.mark.parametrize("fs", [24000, 16000, 8000])
def test_harmonic_grid_matches_per_frame_rule(fs, cap):
    """The array pass gives the bytes of the per-frame rule, each frame's extra
    components parked at its last seed, on a voiced/unvoiced track whose F0
    values straddle quantization steps and component-count steps."""
    rng = np.random.default_rng(5)
    near = 150.0 + F0_QUANTUM * np.linspace(-1.0, 1.0, 9)
    steps = (fs / 2 - 50.0) / np.arange(10, 60)
    f0 = np.concatenate([near, steps, steps - F0_QUANTUM / 2, steps + F0_QUANTUM / 2,
                         np.zeros(5), rng.uniform(50.0, 500.0, 20)])
    f0[rng.permutation(f0.size)[:10]] = 0.0
    track = F0Track(make_grid((f0.size - 1) * 0.005, 0.005, 0.010), f0)
    freqs, counts = harmonic_grid(track, fs, cap)
    rows = [_oracle_seeds(v, fs, cap) for v in f0]
    K = max(r.size for r in rows)
    expect = np.array([np.concatenate((r, np.full(K - r.size, r[-1]))) for r in rows])
    assert freqs.shape == expect.shape and freqs.tobytes() == expect.tobytes()
    assert counts.dtype == np.int64 and counts.tolist() == [r.size for r in rows]


def test_harmonic_grid_parks_missing_components():
    grid = make_grid(0.01, 0.005, 0.010)
    track = F0Track(grid, np.array([200.0, 400.0, 200.0]))
    freqs, counts = harmonic_grid(track, FS)
    assert freqs.shape == (3, 59)
    assert list(counts) == [59, 29, 59]
    # frame 1 has fewer in-band components; extras park at its last one
    np.testing.assert_allclose(freqs[1, 29:], freqs[1, 28])


# --- analysis round trip ---------------------------------------------------

def test_analyze_qhm_recovers_multisine(multisine_data):
    buf, sidecar = multisine_data
    grid = make_grid(buf.duration - 1.0 / FS, 0.005, 0.010)
    track = F0Track(grid, np.full(len(grid), sidecar["f0"]))
    hset = analyze_qhm(buf, grid, track, max_components=10)
    amps_true = np.asarray(sidecar["amplitudes"])
    interior = slice(5, len(grid) - 5)
    # component amplitudes are the conjugate-pair half-amplitudes: a cosine
    # of amplitude A analyzes to |a_k| = A/2 and renders back as 2|a_k|
    n_int = hset.amplitudes[interior].shape[0]
    np.testing.assert_allclose(hset.amplitudes[interior],
                               np.tile(amps_true / 2, (n_int, 1)),
                               rtol=1e-5, atol=1e-8)
    np.testing.assert_allclose(hset.frequencies[interior],
                               np.tile(200.0 * np.arange(1, 11), (n_int, 1)),
                               atol=1e-3)
    # boundary frames carry the truncated-window flag
    assert hset.flags[0] & 2 and hset.flags[-1] & 2


def test_analyze_qhm_edge_frames_match_oracle(multisine_data):
    """Edge frames solve the LS problem on the samples inside the signal,
    with the window slice and time axis of the centered frame."""
    buf, sidecar = multisine_data
    grid = make_grid(buf.duration - 1.0 / FS, 0.005, 0.010)
    hset = analyze_qhm(buf, grid, F0Track(grid, np.full(len(grid), sidecar["f0"])),
                       max_components=10)
    window = grid_window(grid, FS)
    half = (window.size - 1) // 2
    x = buf.samples
    for l in (0, 1, len(grid) - 2, len(grid) - 1):
        c = int(round(grid.centers[l] * FS))
        lo, hi = max(0, c - half), min(x.size, c + half + 1)
        freqs = sidecar["f0"] * np.arange(1, 11)
        a, b = _oracle_ls(x[lo:hi], (np.arange(lo, hi) - c) / FS, freqs,
                          window[lo - c + half:hi - c + half])
        eta = (a.real * b.imag - a.imag * b.real) / (2 * np.pi * np.abs(a) ** 2)
        np.testing.assert_allclose(hset.amplitudes[l] * np.exp(1j * hset.phases[l]), a,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(hset.frequencies[l], freqs + eta, rtol=0, atol=1e-9)
        assert hset.flags[l] & 2


def test_analyze_flags_a_failed_solve_ill_conditioned():
    """A frame whose normal matrix not even the ridge makes factorable keeps
    its seeds at zero amplitude and gets bit 1. Under a Gauss window a
    thousandth of a sample wide, that is the last frame of a tone."""
    buf, _ = fixtures.tone(200.0, 0.2, FS)
    grid = make_grid(buf.duration, 0.005, 0.010, "gauss", 1e-3)
    track = detect_f0(buf, grid)
    hset = analyze_qhm(buf, grid, track)
    seeds, _ = harmonic_grid(track, FS)
    assert hset.flags[-1] == 3
    assert np.all(hset.amplitudes[-1] == 0) and np.all(hset.phases[-1] == 0)
    np.testing.assert_array_equal(hset.frequencies[-1], seeds[-1])
    assert np.all(hset.amplitudes[:-1].any(axis=1))


def _analyze_qhm_loop(buffer, grid, f0_track, max_components=None):
    """analyze_qhm one frame at a time: each frame solves the samples inside
    the signal on its own, with the solver of its seeds and window slice,
    and every solver of the pass stays cached until the pass ends."""
    fs = buffer.sample_rate
    window = grid_window(grid, fs)
    n_win = window.size
    half = (n_win - 1) // 2
    t = (np.arange(n_win) - half) / fs
    seed_freqs, counts = harmonic_grid(f0_track, fs, max_components)
    L, K = seed_freqs.shape
    freqs = seed_freqs.copy()
    amps = np.zeros((L, K))
    phases = np.zeros((L, K))
    flags = np.zeros(L, dtype=np.int64)
    x = buffer.samples
    n = len(x)
    solvers = {}
    for l, c in enumerate(grid.center_samples(fs)):
        lo, hi = max(0, c - half), min(n, c + half + 1)
        if hi - lo < 8:
            raise AnalysisError(f"frame {l}: no usable samples")
        k_l = min(counts[l], (hi - lo) // 4)
        fseed = seed_freqs[l, :k_l]
        sl = slice(lo - c + half, hi - c + half)
        key = (fseed.tobytes(), sl.start, sl.stop)
        if key not in solvers:
            solvers[key] = _LsSolver.harmonic(fseed[0], k_l, t[sl], window[sl])
        solved = solvers[key].solve(x[lo:hi])
        if solved is not None:
            freqs[l, :k_l], amps[l, :k_l], phases[l, :k_l] = _corrected(*solved, fseed, fs)
        flags[l] = int(solvers[key].ill_conditioned) | 2 * (hi - lo < n_win)
    comp = compensations_from_phases(grid, freqs, phases)
    return HarmonicSet(grid, freqs, amps, phases, comp, fs, flags)


def _vibrato_clip(n_frames):
    """A vowel of n_frames 5 ms frames with 150 +- 20 Hz vibrato at 5.5 Hz."""
    unit = fixtures.vowel_cascade(FS, n_frames, 0.005, 0.010, 1.0)
    track = F0Track(unit.grid, 150.0 + 20.0 * np.sin(2 * np.pi * 5.5 * unit.grid.centers))
    raw = synthesize_arma(unit, track).samples
    return SignalBuffer(0.5 * raw / np.abs(raw).max(), FS)


def _steady(buf, f0):
    grid = make_grid(buf.duration, 0.005, 0.010)
    return buf, grid, F0Track(grid, np.full(len(grid), f0))


def _detected(buf, window_kind="hann", gauss_sigma=0.0):
    grid = make_grid(buf.duration, 0.005, 0.010, window_kind, gauss_sigma)
    return buf, grid, detect_f0(buf, grid)


# (buffer, grid, track, max_components) of analyze_qhm's equivalence cases
ANALYSIS_CASES = {
    # one interior LS set of 197 frames: two blocks
    "vowel150": lambda: (*_steady(fixtures.vowel(150.0, 1.0, FS)[0], 150.0), None),
    # 132 seeds, 120 fitted on a full window: the (hi - lo) // 4 rule
    "vowel90": lambda: (*_steady(fixtures.vowel(90.0, 0.5, FS)[0], 90.0), None),
    "vibrato": lambda: (*_detected(_vibrato_clip(81)), None),
    # 300 samples: every window is cut by an edge
    "short": lambda: (*_steady(SignalBuffer(fixtures.vowel(150.0, 0.1, FS)[0].samples[:300],
                                            FS), 150.0), None),
    # the last frame's solver has no blocks
    "gauss": lambda: (*_detected(fixtures.tone(200.0, 0.2, FS)[0], "gauss", 1e-3), None),
    "cap": lambda: (*_detected(fixtures.vowel(150.0, 0.5, FS)[0]), 12),
}


def _batched_and_loop_bytes(case):
    buf, grid, track, cap = ANALYSIS_CASES[case]()
    return (harmonics_to_bytes(analyze_qhm(buf, grid, track, cap)),
            harmonics_to_bytes(_analyze_qhm_loop(buf, grid, track, cap)))


@pytest.mark.parametrize("case", sorted(ANALYSIS_CASES))
def test_analyze_qhm_matches_per_frame_loop(case):
    """Solving each LS set's frames together writes the loop's bytes."""
    got, expect = _batched_and_loop_bytes(case)
    assert got == expect


def test_analyze_qhm_cases_cover_two_blocks_and_edge_frames():
    """The vowel150 case has one LS set of more than FRAME_BLOCK frames, and
    every window of the short case is cut by an edge. The gauss case's failed
    solve is pinned by test_analyze_flags_a_failed_solve_ill_conditioned."""
    buf, grid, track, _ = ANALYSIS_CASES["vowel150"]()
    centers = grid.center_samples(FS)
    assert np.count_nonzero((centers >= 240) & (centers + 241 <= len(buf))) > qhm.FRAME_BLOCK
    assert np.all(analyze_qhm(*ANALYSIS_CASES["short"]()[:3]).flags & 2)


def test_analyze_qhm_raises_on_the_loops_first_short_frame():
    """Frames 1 and 2 have fewer than 8 samples inside the signal: the error
    names frame 1, as the loop's does."""
    buf = SignalBuffer(fixtures.tone(150.0, 0.1, FS)[0].samples, FS)
    grid = FrameGrid(np.array([1200, 2633, 2700, 3000]) / FS, 0.005, 0.010)
    track = F0Track(grid, np.full(4, 150.0))
    errors = []
    for run in (analyze_qhm, _analyze_qhm_loop):
        with pytest.raises(AnalysisError) as info:
            run(buf, grid, track)
        errors.append(str(info.value))
    assert errors == ["frame 1: no usable samples"] * 2


@pytest.mark.parametrize("block", [1, 7, 1000])
def test_analyze_qhm_block_size_changes_no_bit(block, monkeypatch):
    """Every frame's right-hand side and solution is its own column, so how
    many frames share a solve changes no bit of the harmonics."""
    buf, grid, track, _ = ANALYSIS_CASES["vowel150"]()
    expect = harmonics_to_bytes(analyze_qhm(buf, grid, track))
    monkeypatch.setattr(qhm, "FRAME_BLOCK", block)
    assert harmonics_to_bytes(analyze_qhm(buf, grid, track)) == expect


def _solver_builds(monkeypatch, run, *args):
    """run(*args) with _LsSolver.harmonic recording each build's (base, k,
    t[0], t.size), which names its seeds base * (1..k) and its window slice,
    and how many earlier solvers are still alive at the build."""
    harmonic = _LsSolver.harmonic
    built, alive, refs = [], [], []

    def recording(base, k, t, window):
        alive.append(sum(ref() is not None for ref in refs))
        solver = harmonic(base, k, t, window)
        built.append((float(base), int(k), float(t[0]), t.size))
        refs.append(weakref.ref(solver))
        return solver

    with monkeypatch.context() as patch:
        patch.setattr(_LsSolver, "harmonic", recording)
        run(*args)
    return built, alive


def test_analyze_qhm_builds_each_solver_once_with_one_alive(monkeypatch):
    """Each seed set and window slice gets one solver, as the loop's cache
    gives it, and no earlier solver is alive when the next one is built."""
    case = ANALYSIS_CASES["vibrato"]()[:3]
    expect, _ = _solver_builds(monkeypatch, _analyze_qhm_loop, *case)
    assert len(set(expect)) == len(expect) < len(case[1])
    built, alive = _solver_builds(monkeypatch, analyze_qhm, *case)
    assert sorted(built) == sorted(expect)
    assert alive == [0] * len(built)


def test_analyze_qhm_matches_per_frame_loop_on_two_blas_threads():
    """A solve of many right-hand sides may split its columns across
    threads: at two OpenBLAS threads the batched pass still writes the bytes
    the loop writes at that thread count."""
    script = ("import sys\n"
              "sys.path[:0] = sys.argv[1:]\n"
              "import test_qhm\n"
              "for case in ('vowel150', 'vibrato'):\n"
              "    got, expect = test_qhm._batched_and_loop_bytes(case)\n"
              "    print(case, got == expect)\n")
    src = Path(qhm.__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    run = subprocess.run([sys.executable, "-c", script, str(src), str(Path(__file__).parent)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["vowel150", "True", "vibrato", "True"]


@pytest.mark.parametrize("name", ["frequencies", "amplitudes", "phases", "compensations"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_harmonic_set_rejects_nonfinite_values(name, value):
    grid = make_grid(0.01, 0.005, 0.010)
    arrays = {key: np.ones((3, 2)) for key in ("frequencies", "amplitudes", "phases",
                                               "compensations")}
    arrays[name][1, 0] = value
    with pytest.raises(AnalysisError, match="finite"):
        HarmonicSet(grid, **arrays, sample_rate=FS)


def test_harmonic_set_and_f0_track_need_one_entry_per_frame():
    """The grid, the flags and every array agree on the frame count."""
    grid = make_grid(0.01, 0.005, 0.010)
    L = len(grid)
    fields = {"grid": grid, "sample_rate": FS,
              **{key: np.ones((L, 2)) for key in ("frequencies", "amplitudes", "phases",
                                                   "compensations")}}
    assert HarmonicSet(**fields).flags.tolist() == [0] * L
    assert F0Track(grid, np.ones(L)).values.shape == (L,)
    short = make_grid(0.005, 0.005, 0.010)
    for bad in ({"grid": short}, {"flags": np.zeros(L - 1)}, {"flags": np.zeros(L + 1)},
                {"flags": np.zeros((L, 1))}, {"amplitudes": np.ones((L - 1, 2))},
                {"phases": np.ones((L, 3))}, {"frequencies": np.ones((L, 2, 1))}):
        with pytest.raises(AnalysisError, match="disagree"):
            HarmonicSet(**{**fields, **bad})
    for grid_, values in ((short, np.ones(L)), (grid, np.ones(L + 1)), (grid, np.ones((L, 1)))):
        with pytest.raises(AnalysisError, match="one value per frame"):
            F0Track(grid_, values)


def test_refine_f0_recovers_offset():
    grid = make_grid(0.02, 0.005, 0.010)
    L = len(grid)
    k = np.arange(1, 6)
    freqs = np.tile(150.5 * k, (L, 1))
    amps = np.tile(1.0 / k, (L, 1))
    hset = HarmonicSet(grid, freqs, amps, np.zeros((L, 5)), np.zeros((L, 5)), FS)
    track = F0Track(grid, np.full(L, 150.0))
    refined = refine_f0(hset, track)
    np.testing.assert_allclose(refined.values, 150.5, rtol=1e-12)
    # unvoiced frames stay unvoiced
    track0 = F0Track(grid, np.zeros(L))
    assert np.all(refine_f0(hset, track0).values == 0)


def _loop_harmonic_f0(freqs, amps, fallback):
    """The weighted f_k / k mean one frame at a time, over the compacted
    components above the amplitude floor."""
    k = np.arange(1, freqs.shape[1] + 1)
    out = np.array(np.broadcast_to(fallback, freqs.shape[:1]), dtype=np.float64)
    for l in range(freqs.shape[0]):
        use = (amps[l] > qhm.AMPLITUDE_FLOOR) & (freqs[l] > 0)
        if use.any():
            w = amps[l, use] ** 2
            out[l] = np.sum(w * freqs[l, use] / k[use]) / np.sum(w)
    return out


def test_harmonic_f0_matches_per_frame_loop():
    """refine_f0 and refinement's f0 sum every frame's row at once; the
    summation order differs from the per-frame loop, so the bound is the
    rounding of K positive terms in any order, 2*K*eps relative."""
    rng = np.random.default_rng(12)
    L, K = 60, 119
    grid = FrameGrid(np.arange(L) * 0.005, 0.005, 0.010)
    freqs = rng.uniform(90.0, 110.0, (L, 1)) * np.arange(1, K + 1) + rng.normal(0, 2.0, (L, K))
    amps = rng.uniform(0.0, 0.1, (L, K)) * (rng.uniform(size=(L, K)) < 0.7)
    amps[:5] = 0.0                                          # no component at all
    amps[5:10] = qhm.AMPLITUDE_FLOOR                        # none above the floor
    freqs[10, :] = 0.0                                      # none with f > 0
    track = F0Track(grid, np.where(np.arange(L) % 4 == 3, 0.0, rng.uniform(80.0, 120.0, L)))
    hset = HarmonicSet(grid, freqs, amps, np.zeros((L, K)), np.zeros((L, K)), FS)
    rtol = 2 * K * np.finfo(np.float64).eps
    got = refine_f0(hset, track).values
    expect = np.where(track.values > 0, _loop_harmonic_f0(freqs, amps, track.values), 0.0)
    np.testing.assert_allclose(got, expect, rtol=rtol, atol=0)
    np.testing.assert_array_equal(got[:11], expect[:11])
    np.testing.assert_allclose(qhm._harmonic_f0(freqs, amps, qhm.UNVOICED_F0),
                               _loop_harmonic_f0(freqs, amps, qhm.UNVOICED_F0), rtol=rtol, atol=0)


def _vowel50():
    """A 50 Hz vowel, on which refine_f0 reads most voiced frames a hair
    below 50 Hz."""
    buf = fixtures.vowel(50.0, 0.5, FS)[0]
    return buf, make_grid(buf.duration, 0.005, 0.015), None


# (buffer, grid, max_components) of the analysis chain's cases
CHAIN_CASES = {
    "vowel150": lambda: (*_steady(fixtures.vowel(150.0, 1.0, FS)[0], 150.0)[:2], None),
    # the CI's chirp, on which refinement changes the product
    "chirp": lambda: (*_detected(fixtures.chirp(100.0, 140.0, 0.6, FS, n_harmonics=3)[0])[:2],
                      6),
    "vibrato": lambda: (*_detected(_vibrato_clip(81))[:2], None),
    "vowel50": _vowel50,
}


@pytest.mark.parametrize("refine_iters", [0, 1])
@pytest.mark.parametrize("case", sorted(CHAIN_CASES))
def test_analyze_keeps_the_harmonics_and_refines_the_track(case, refine_iters):
    """The harmonics are those of detect_f0, one analyze_qhm pass and the
    optional refinement of that pass. The track keeps the detected voicing
    and takes refine_f0's values, those outside the F0 range at its bound,
    and its harmonic grid is the set's shape."""
    buf, grid, cap = CHAIN_CASES[case]()
    hset, track = qhm.analyze(buf, grid, max_components=cap, refine_iters=refine_iters)
    detected = detect_f0(buf, grid)
    first = analyze_qhm(buf, grid, detected, cap)
    expect = refine_adaptive(buf, first, max_iters=refine_iters) if refine_iters else first
    assert harmonics_to_bytes(hset) == harmonics_to_bytes(expect)
    assert track.grid is grid and track.voiced.any()
    np.testing.assert_array_equal(track.voiced, detected.voiced)
    raw = refine_f0(first, detected).values
    inside = (raw >= 50.0) & (raw <= 500.0)
    np.testing.assert_array_equal(track.values[inside], raw[inside])
    outside = track.voiced & ~inside
    assert np.isin(track.values[outside], [50.0, 500.0]).all()
    # only the 50 Hz vowel reaches outside the range
    assert (np.count_nonzero(outside) > 10) == (case == "vowel50")
    assert harmonic_grid(track, FS, hset.n_components)[0].shape == hset.frequencies.shape


@pytest.mark.parametrize("refine_iters", [0, 1])
def test_analyze_takes_a_given_track_as_given(refine_iters, monkeypatch):
    """A given track is neither detected nor refined: it is returned
    unchanged, and the harmonics are the pass on it."""
    buf = _vibrato_clip(41)
    grid = make_grid(buf.duration, 0.005, 0.010)
    values = 150.0 + 20.0 * np.sin(2 * np.pi * 5.5 * grid.centers)
    given = F0Track(grid, values.copy())
    calls = {"detect_f0": 0, "refine_f0": 0}

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(qhm, name, counted(name, getattr(qhm, name)))
    hset, track = qhm.analyze(buf, grid, refine_iters=refine_iters, f0_track=given)
    assert calls == {"detect_f0": 0, "refine_f0": 0}
    assert track is given
    np.testing.assert_array_equal(track.values, values)
    expect = analyze_qhm(buf, grid, given)
    if refine_iters:
        expect = refine_adaptive(buf, expect, max_iters=refine_iters)
    assert harmonics_to_bytes(hset) == harmonics_to_bytes(expect)
    # the patches count the detected chain's calls
    qhm.analyze(buf, grid)
    assert calls == {"detect_f0": 1, "refine_f0": 1}


def test_compensations_reproduce_phases():
    grid = make_grid(0.05, 0.005, 0.010)
    rng = np.random.default_rng(8)
    L = len(grid)
    freqs = np.tile([200.0, 400.0], (L, 1)) + rng.uniform(-1, 1, (L, 2))
    phases = rng.uniform(-np.pi, np.pi, (L, 2))
    comp = compensations_from_phases(grid, freqs, phases)
    assert np.all(np.abs(comp) <= np.pi + 1e-12)
    from quasivoc.synth import excitation_phase
    rebuilt = excitation_phase(freqs, grid) + np.cumsum(comp, axis=0)
    err = np.angle(np.exp(1j * (rebuilt - phases)))
    np.testing.assert_allclose(err, 0.0, atol=1e-9)


# --- adaptive refinement ---------------------------------------------------

def test_refine_adaptive_stationary_degenerate(multisine_data):
    buf, sidecar = multisine_data
    grid = make_grid(0.3, 0.005, 0.010)
    track = F0Track(grid, np.full(len(grid), sidecar["f0"]))
    hset = analyze_qhm(buf, grid, track, max_components=6)
    refined = refine_adaptive(buf, hset, "aqhm", max_iters=2)
    np.testing.assert_allclose(refined.amplitudes, hset.amplitudes, atol=1e-8)
    np.testing.assert_allclose(refined.frequencies, hset.frequencies, atol=1e-6)


@pytest.fixture(scope="module")
def vibrato_analysis():
    """QHM analysis of a 0.2 s vowel with 150 +- 20 Hz vibrato at 5.5 Hz."""
    buf = _vibrato_clip(41)
    grid = make_grid(buf.duration, 0.005, 0.010)
    return buf, analyze_qhm(buf, grid, detect_f0(buf, grid))


def test_refine_leaves_parked_components_silent(vibrato_analysis):
    """Refinement solves only components with amplitude, so the components
    harmonic_grid parks at a duplicate frequency stay at zero amplitude and
    do not make every refined frame ill-conditioned."""
    buf, hset = vibrato_analysis
    parked = hset.amplitudes == 0
    assert parked.any()
    refined = refine_adaptive(buf, hset, "aqhm", max_iters=1)
    assert np.all(refined.amplitudes[parked] == 0)
    np.testing.assert_array_equal(refined.frequencies[parked], hset.frequencies[parked])
    half = hset.grid.window_samples(FS) // 2
    centers = hset.grid.center_samples(FS)
    inside = (centers >= half) & (centers + half < len(buf))
    assert np.count_nonzero(refined.flags[inside] & 1) < np.count_nonzero(inside) / 2


def test_refine_flags_a_failed_solve_ill_conditioned(vibrato_analysis, monkeypatch):
    """A refined frame whose factorization fails keeps its values and gets
    bit 1; bit 2 stays reserved for windows cut by the signal's edge."""
    buf, hset = vibrato_analysis
    half = hset.grid.window_samples(FS) // 2
    centers = hset.grid.center_samples(FS)
    first = next(l for l, c in enumerate(centers)
                 if c >= half and c + half < len(buf) and hset.amplitudes[l].any())
    calls = []

    def failing_first_frame(a, *args, **kwargs):
        # the first frame's factorization and its ridge retry
        calls.append(None)
        if len(calls) <= 2:
            raise LinAlgError("not positive definite")
        return cho_factor(a, *args, **kwargs)

    monkeypatch.setattr(qhm, "cho_factor", failing_first_frame)
    refined = qhm._refine_once(buf, hset)
    assert len(calls) > 2
    assert refined.flags[first] & 1 and not refined.flags[first] & 2
    np.testing.assert_array_equal(refined.amplitudes[first], hset.amplitudes[first])
    np.testing.assert_array_equal(refined.flags & 2, hset.flags & 2)


def test_refine_stops_its_run_at_a_silent_component(vibrato_analysis):
    """Refinement solves harmonics 1..m, the leading run with amplitude: a
    zero-amplitude component inside an interior frame's run keeps its
    values, and so does every component after it, while the ones before it
    are re-solved."""
    buf, hset = vibrato_analysis
    half = hset.grid.window_samples(FS) // 2
    centers = hset.grid.center_samples(FS)
    l = next(l for l, c in enumerate(centers)
             if c >= half and c + half < len(buf) and np.all(hset.amplitudes[l, :8] > 0))
    amplitudes = hset.amplitudes.copy()
    amplitudes[l, 4] = 0.0
    silenced = dataclasses.replace(hset, amplitudes=amplitudes)
    refined = qhm._refine_once(buf, silenced)
    for name in ("frequencies", "amplitudes", "phases"):
        value, before = getattr(refined, name)[l], getattr(silenced, name)[l]
        np.testing.assert_array_equal(value[4:], before[4:])
        assert np.all(value[:4] != before[:4])


def test_refine_adaptive_chirp_error_decreases():
    buf, _ = fixtures.chirp(100.0, 140.0, 0.6, FS, n_harmonics=3)
    grid = make_grid(0.6 - 1.0 / FS, 0.005, 0.010)
    track = detect_f0(buf, grid)
    hset = analyze_qhm(buf, grid, track, max_components=6)
    refined, errors = refine_adaptive(buf, hset, "aqhm", max_iters=3,
                                      return_errors=True)
    assert len(errors) >= 2
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_refine_keeps_harmonics_above_the_nyquist_guard():
    """A frame whose f0 puts its top harmonics at or above Nyquist -
    NYQUIST_GUARD solves only the ones below: those above keep their values
    (solving them would alias), and the rest stay finite."""
    buf, _ = fixtures.noise(0.1, FS, seed=2)
    grid = make_grid(buf.duration, 0.005, 0.010)
    L, K, f0 = len(grid), 119, 105.0
    k = np.arange(1, K + 1)
    above = k * f0 >= FS / 2 - NYQUIST_GUARD
    assert 0 < above.sum() < K
    rng = np.random.default_rng(6)
    hset = HarmonicSet(grid, np.tile(f0 * k, (L, 1)), rng.uniform(0.01, 0.1, (L, K)),
                       rng.uniform(-np.pi, np.pi, (L, K)), np.zeros((L, K)), FS)
    refined = qhm._refine_once(buf, hset)
    for name in ("frequencies", "amplitudes", "phases"):
        value, before = getattr(refined, name), getattr(hset, name)
        np.testing.assert_array_equal(value[:, above], before[:, above])
        assert np.all(np.isfinite(value))
        # interior frames re-solve every harmonic below the guard
        assert np.all(value[L // 2, ~above] != before[L // 2, ~above])


def test_refine_adaptive_errors():
    buf = SignalBuffer(np.zeros(100), FS)
    grid = make_grid(0.002, 0.001, 0.002)
    hset = HarmonicSet(grid, np.full((3, 1), 100.0), np.zeros((3, 1)),
                       np.zeros((3, 1)), np.zeros((3, 1)), FS)
    with pytest.raises(AnalysisError):
        refine_adaptive(buf, hset, "bogus")
    with pytest.raises(AnalysisError):
        refine_adaptive(buf, hset, "aqhm", max_iters=0)
    with pytest.raises(AnalysisError):
        refine_adaptive(SignalBuffer(np.zeros(100), 2 * FS), hset, "aqhm")


def test_next_fast_len_equals_scipy():
    assert [qhm._next_fast_len(n) for n in range(1, 20001)] == [
        scipy.fft.next_fast_len(n, real=True) for n in range(1, 20001)]


def _benchmark_workloads():
    """perfbench/workloads.py, for its seeded inputs."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["steady-vowel", "vibrato-analysis", "vibrato-fit"])
def test_detect_f0_equals_scipy_fft_form(monkeypatch, workload):
    """numpy's FFT and the 5-smooth length give the F0 track of scipy.fft's
    rfft, irfft and next_fast_len bit for bit on the benchmark's inputs."""
    make_inputs = _benchmark_workloads().make_inputs
    for seed in range(3):
        buf = make_inputs(workload, seed).buf
        grid = make_grid(buf.duration, 0.005, 0.010)
        got = detect_f0(buf, grid).values
        with monkeypatch.context() as m:
            m.setattr(np.fft, "rfft", scipy.fft.rfft)
            m.setattr(np.fft, "irfft", scipy.fft.irfft)
            m.setattr(qhm, "_next_fast_len", lambda n: scipy.fft.next_fast_len(n, real=True))
            want = detect_f0(buf, grid).values
        assert got.tobytes() == want.tobytes(), seed
