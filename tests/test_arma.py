"""Cascade responses against the time-domain oracle, stability handling,
and the envelope fitter."""
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import (cascade_of, filter_time_domain, frame_at, random_stable_frame,
                      stacked_cascade)
from quasivoc import arma, fixtures
from quasivoc.arma import (ArmaCascade, ArmaSection, CascadeFrame, EnvelopeError,
                           _wrap, correction_capacity, fit_cascade, fit_targets,
                           project_stable, sample_cascade, sample_harmonics)
from quasivoc.qhm import AMPLITUDE_FLOOR, F0Track, HarmonicSet, analyze, analyze_qhm, harmonic_grid
from quasivoc.serialize import cascade_to_bytes
from quasivoc.signals import make_grid
from quasivoc.synth import excitation_phase, synthesize_arma

FS = 24000


# --- responses -------------------------------------------------------------

def _one_row(gain, ar, ma, freqs):
    """Magnitudes and phase delays of the one-row cascade of gain, AR (r, p)
    and MA (r, q) at freqs (Hz), from sample_cascade."""
    cascade = stacked_cascade([gain], [ar], [ma])
    mags, delays = sample_cascade(cascade, np.reshape(freqs, (1, -1)))
    return mags[0], delays[0]


def test_section_response_examples():
    none = np.zeros((1, 0))
    mag, delay = _one_row(1.0, none, none, np.linspace(0.0, 0.99 * FS / 2, 5))
    np.testing.assert_allclose(mag, 1.0)
    np.testing.assert_allclose(delay, 0.0)
    mag, delay = _one_row(1.0, [[-0.9]], none, 0.0)
    np.testing.assert_allclose(mag, 10.0)
    np.testing.assert_allclose(delay, 0.0)
    mag, _ = _one_row(1.0, none, [[-1.0]], 0.0)
    np.testing.assert_allclose(mag, 0.0)


def test_section_response_singular():
    with pytest.raises(EnvelopeError):
        _one_row(1.0, [[-1.0]], np.zeros((1, 0)), 0.0)


def test_section_validation():
    with pytest.raises(EnvelopeError):
        ArmaSection(np.array([np.inf]), np.zeros(0))


def test_cascade_response_gain_only():
    none = np.zeros((1, 0))
    mag, delay = _one_row(2.0, none, none, np.linspace(0, 3, 7) * FS / (2 * np.pi))
    np.testing.assert_allclose(mag, 2.0)
    np.testing.assert_allclose(delay, 0.0)


def test_cascade_response_two_identical_poles():
    mag, delay = _one_row(1.0, [[-0.5], [-0.5]], np.zeros((2, 0)), 0.0)
    np.testing.assert_allclose(mag, 4.0)
    np.testing.assert_allclose(delay, 0.0)


def test_cascade_frame_gain_validation():
    with pytest.raises(EnvelopeError):
        CascadeFrame(0.0, [])
    with pytest.raises(EnvelopeError):
        CascadeFrame(np.inf, [])


def test_response_matches_impulse_dft():
    """sample_cascade's magnitudes equal the DFT of the lfilter impulse
    response. The odd length puts every rfft bin below Nyquist."""
    rng = np.random.default_rng(13)
    n = 4097
    cascade = cascade_of([random_stable_frame(rng) for _ in range(10)])
    mags, _ = sample_cascade(cascade, np.tile(np.arange(n // 2 + 1) * FS / n, (10, 1)))
    imp = np.zeros(n)
    imp[0] = 1.0
    for l in range(10):
        h_time = filter_time_domain(cascade.gain[l], cascade.ar[l], cascade.ma[l], imp)
        rel = np.abs(np.abs(np.fft.rfft(h_time)) - mags[l]) / np.maximum(mags[l], 1e-30)
        assert rel.max() < 1e-6


# --- harmonic sampling -----------------------------------------------------

def test_sample_harmonics_identity():
    fr = CascadeFrame(1.5, [ArmaSection(np.zeros(4), np.zeros(4))])
    env = sample_harmonics(fr, [100.0, 1000.0, 5000.0], FS)
    np.testing.assert_allclose(env.magnitudes, 1.5)
    np.testing.assert_allclose(env.phase_delays, 0.0)


def test_sample_harmonics_real_pole_zero_delay_at_dc():
    fr = CascadeFrame(1.0, [ArmaSection(np.array([-0.7]), np.zeros(0))])
    env = sample_harmonics(fr, [0.0], FS)
    assert env.phase_delays[0] == 0.0
    assert env.magnitudes[0] > 0


def test_sample_harmonics_matches_termwise_oracle(vowel_data):
    _, _, cascade, _ = vowel_data
    freqs = np.array([450.0, 1500.0, 3600.0])
    env = sample_harmonics(frame_at(cascade, 0), freqs, FS)
    w = 2 * np.pi * freqs / FS
    mag = np.full(3, cascade.gain[0])
    delay = np.zeros(3)
    for ar, ma in zip(cascade.ar[0], cascade.ma[0]):
        num = np.ones(3, complex)
        for q, b in enumerate(ma, start=1):
            num = num + b * np.exp(-1j * w * q)
        den = np.ones(3, complex)
        for p, a in enumerate(ar, start=1):
            den = den + a * np.exp(-1j * w * p)
        mag = mag * np.abs(num / den)
        delay = delay + np.angle(num / den)
    np.testing.assert_allclose(env.magnitudes, mag, rtol=1e-12)
    np.testing.assert_allclose(env.phase_delays, delay, atol=1e-12)


def test_sample_harmonics_nyquist_error():
    fr = CascadeFrame(1.0, [])
    with pytest.raises(EnvelopeError):
        sample_harmonics(fr, [FS / 2.0], FS)


def test_phase_delay_range_bound():
    rng = np.random.default_rng(17)
    freqs = np.linspace(50, 11000, 40)
    for _ in range(20):
        fr = random_stable_frame(rng, n_sections=8, p_sec=2, q_sec=2,
                                 radius=0.95, coeff_range=0.9)
        env = sample_harmonics(fr, freqs, FS)
        assert np.all(np.abs(env.phase_delays) <= 8 * np.pi + 1e-12)


# --- sampling every frame at once -----------------------------------------

def _per_frame_sample(gain, sections, freqs):
    """Frame by frame, section by section, one exp per coefficient;
    sections are (ar, ma) pairs."""
    w = 2 * np.pi * np.asarray(freqs, dtype=np.float64) / FS
    mag = np.full(w.shape, gain)
    delay = np.zeros(w.shape)
    for ar, ma in sections:
        num = np.ones(w.shape, dtype=np.complex128)
        for q, b in enumerate(ma, start=1):
            num += b * np.exp(-1j * w * q)
        den = np.ones(w.shape, dtype=np.complex128)
        for p, a in enumerate(ar, start=1):
            den += a * np.exp(-1j * w * p)
        h = num / den
        mag *= np.abs(h)
        delay += np.angle(h)
    return mag, delay


def _assert_bitwise_per_frame(cascade, freqs, frames=None):
    """sample_cascade and sample_harmonics equal the oracle bit for bit on
    every frame; frames, if given, are the cascade's frames before padding."""
    mags, delays = sample_cascade(cascade, freqs)
    assert mags.shape == delays.shape == freqs.shape
    for l in range(cascade.n_frames):
        fr = frames[l] if frames else frame_at(cascade, l)
        mag, delay = _per_frame_sample(fr.gain, [(s.ar, s.ma) for s in fr.sections], freqs[l])
        env = sample_harmonics(fr, freqs[l], FS)
        for got in (mags[l], env.magnitudes):
            assert got.tobytes() == mag.tobytes()
        for got in (delays[l], env.phase_delays):
            assert got.tobytes() == delay.tobytes()


@pytest.mark.parametrize("blocked", [False, True])
def test_sample_cascade_matches_per_frame_vowel(monkeypatch, blocked):
    cascade = fixtures.vowel_cascade(FS, 23, 0.005, 0.010, 0.05)
    freqs = np.random.default_rng(21).uniform(0.0, FS / 2 - 1.0, (23, 17))
    if blocked:
        # 3 frames per block, so the last block is a partial one
        monkeypatch.setattr(arma, "_TABLE_BUDGET", 3 * 17 * 8)
    _assert_bitwise_per_frame(cascade, freqs)


def test_sample_cascade_zero_section_frames():
    grid = make_grid(0.02, 0.005, 0.010)
    L = len(grid)
    cascade = ArmaCascade(grid, 0.5 + np.arange(L), np.zeros((L, 1, 0)), np.zeros((L, 1, 0)), FS)
    assert cascade.orders == (0, 0, 1)
    freqs = np.tile([0.0, 150.0, 9000.0], (len(grid), 1))
    mags, delays = sample_cascade(cascade, freqs)
    np.testing.assert_array_equal(mags, np.repeat(0.5 + np.arange(len(grid)), 3)
                                  .reshape(-1, 3))
    assert delays.tobytes() == np.zeros_like(freqs).tobytes()
    _assert_bitwise_per_frame(cascade, freqs)


def test_sample_cascade_mixed_section_shapes():
    """Frames with different section counts and lengths, zero-padded to one
    stack: the padding must not move a single bit, in the stack or in
    sample_harmonics' own padding of the unpadded frames."""
    rng = np.random.default_rng(22)
    frames = [CascadeFrame(1.0, []),
              CascadeFrame(2.0, [ArmaSection(np.array([-0.8]), np.zeros(0))]),
              CascadeFrame(0.3, [ArmaSection(np.array([0.2, -0.1]), np.array([0.4, 0.1])),
                                 ArmaSection(np.array([-0.5]), np.zeros(0))]),
              random_stable_frame(rng, n_sections=3, p_sec=4, q_sec=2)]
    ar, ma = np.zeros((4, 3, 4)), np.zeros((4, 3, 2))
    for l, fr in enumerate(frames):
        for j, sec in enumerate(fr.sections):
            ar[l, j, :sec.ar.size], ma[l, j, :sec.ma.size] = sec.ar, sec.ma
    cascade = ArmaCascade(make_grid(0.015, 0.005, 0.010), [fr.gain for fr in frames],
                          ar, ma, FS)
    freqs = rng.uniform(0.0, FS / 2 - 1.0, (4, 9))
    freqs[:, 0] = 0.0
    _assert_bitwise_per_frame(cascade, freqs, frames)


def test_sample_cascade_errors():
    cascade = fixtures.vowel_cascade(FS, 3, 0.005, 0.010)
    freqs = np.full((3, 2), 100.0)
    freqs[2, 1] = FS / 2
    with pytest.raises(EnvelopeError):
        sample_cascade(cascade, freqs)
    with pytest.raises(EnvelopeError):
        sample_cascade(cascade, np.full((2, 2), 100.0))
    # the second frame's pole is on the unit circle
    singular = ArmaCascade(make_grid(0.005, 0.005, 0.010), np.ones(2),
                           np.array([[[-0.5]], [[-1.0]]]), np.zeros((2, 1, 0)), FS)
    with pytest.raises(EnvelopeError):
        sample_cascade(singular, np.zeros((2, 1)))


# --- the time-domain oracle ------------------------------------------------

def test_filter_identity_gain():
    x = np.arange(10.0)
    np.testing.assert_allclose(filter_time_domain(3.0, np.zeros((1, 0)), np.zeros((1, 0)), x),
                               3.0 * x)


def test_filter_geometric_impulse_response():
    imp = np.zeros(20)
    imp[0] = 1.0
    np.testing.assert_allclose(filter_time_domain(1.0, [[-0.9]], np.zeros((1, 0)), imp),
                               0.9 ** np.arange(20), rtol=1e-12)


def test_filter_noise_convolution_oracle():
    """Filtering equals linear convolution with the decayed impulse response."""
    rng = np.random.default_rng(23)
    cascade = cascade_of([random_stable_frame(rng, radius=0.85)])
    gain, ar, ma = cascade.gain[0], cascade.ar[0], cascade.ma[0]
    x = rng.standard_normal(2000)
    imp = np.zeros(4000)
    imp[0] = 1.0
    h = filter_time_domain(1.0, ar, ma, imp)
    y = filter_time_domain(gain, ar, ma, x)
    expect = gain * np.convolve(x, h)[:x.size]
    np.testing.assert_allclose(y, expect, atol=1e-8)


# --- stability projection --------------------------------------------------

def test_project_stable():
    stable = np.array([-0.5, 0.06])
    np.testing.assert_array_equal(project_stable(stable), stable)
    unstable = np.array([-2.1, 1.1])  # roots 1.0 and 1.1
    proj = project_stable(unstable, radius=0.995)
    roots = np.roots(np.concatenate(([1.0], proj)))
    assert np.all(np.abs(roots) <= 0.995 + 1e-9)
    assert project_stable(np.zeros(0)).size == 0
    # stacked: each polynomial is projected on its own, the stable one unchanged
    both = project_stable(np.array([[stable, unstable]]), radius=0.995)
    assert both.shape == (1, 2, 2)
    assert both[0, 0].tobytes() == stable.tobytes() and both[0, 1].tobytes() == proj.tobytes()
    assert project_stable(np.zeros((3, 2, 0))).shape == (3, 2, 0)


def test_project_stable_matches_np_roots():
    """The stacked companion-matrix roots give the bits of np.roots, so the
    batched projection equals projecting each polynomial through np.roots."""
    rng = np.random.default_rng(53)

    def one(ar, radius):
        roots = np.roots(np.concatenate(([1.0], ar)))
        mags = np.abs(roots)
        if np.all(mags <= radius):
            return ar
        return np.real(np.poly(np.where(mags > radius, roots * (radius / mags), roots))[1:])

    for order in (1, 2, 5, 8, 16):
        ar = rng.uniform(-1.5, 1.5, (6, 3, order))
        got = project_stable(ar, radius=0.9)
        want = np.array([[one(a, 0.9) for a in row] for row in ar])
        assert got.tobytes() == want.tobytes()


# --- correction capacity ---------------------------------------------------

def test_correction_capacity_time_invariant(vowel_data):
    _, _, cascade, _ = vowel_data
    head = ArmaCascade(make_grid(0.02, 0.005, 0.010), cascade.gain[:5], cascade.ar[:5],
                       cascade.ma[:5], FS)
    deltas, total = correction_capacity(head, 450.0)
    np.testing.assert_allclose(deltas, 0.0, atol=1e-12)
    assert total == 0.0


def test_correction_capacity_closed_form():
    ident = CascadeFrame(1.0, [ArmaSection(np.zeros(1), np.zeros(0))])
    delayed = CascadeFrame(1.0, [ArmaSection(np.array([-0.8]), np.zeros(0))])
    dt = 0.005
    d = sample_harmonics(delayed, 500.0, FS).phase_delays[0]
    deltas, total = correction_capacity(cascade_of([ident, delayed], dt), 500.0)
    np.testing.assert_allclose(total, d / (2 * np.pi * dt), rtol=1e-12)
    np.testing.assert_allclose(deltas, [total])


def test_correction_capacity_telescoping():
    rng = np.random.default_rng(29)
    frames = [random_stable_frame(rng) for _ in range(12)]
    dt = 0.005
    deltas, total = correction_capacity(cascade_of(frames, dt), 700.0)
    d0 = sample_harmonics(frames[0], 700.0, FS).phase_delays[0]
    dl = sample_harmonics(frames[-1], 700.0, FS).phase_delays[0]
    np.testing.assert_allclose(total, (dl - d0) / (2 * np.pi * dt), atol=1e-9)
    with pytest.raises(EnvelopeError):
        correction_capacity(cascade_of(frames[:1], dt), 700.0)


# --- fitter ----------------------------------------------------------------

def _fit_one(f, amps, phases, orders, max_steps=300):
    """fit_targets on one row of targets: the fitted one-row cascade, its
    loss and its flag."""
    targets = (np.reshape(x, (1, -1)) for x in (f, amps, phases))
    gain, ar, ma, loss, _, _, flag = fit_targets(*targets, FS, orders, max_steps)
    return stacked_cascade(gain, ar, ma), loss[0], flag[0]


def _targets(frame, f):
    """Magnitudes and wrapped phase delays of a CascadeFrame at f (Hz)."""
    mags, delays = sample_cascade(cascade_of([frame]), np.reshape(f, (1, -1)))
    return mags[0], _wrap(delays[0])


def _assert_fitted_stable(ar):
    """Every fitted AR polynomial of ar (..., p) has its roots within 1 - 1e-4."""
    for poly in ar.reshape(int(np.prod(ar.shape[:-1])), ar.shape[-1]):
        roots = np.roots(np.concatenate(([1.0], poly)))
        assert np.all(np.abs(roots) <= 1.0 - 1e-4 + 1e-9)


def test_fit_frame_flat_targets():
    f = np.linspace(200, 8000, 20)
    fit, loss, flag = _fit_one(f, np.full(20, 0.37), np.zeros(20), (8, 8, 2))
    assert loss <= 1e-6
    assert flag == 0
    np.testing.assert_allclose(fit.gain, 0.37, rtol=1e-3)
    np.testing.assert_allclose(fit.ar, 0.0, atol=1e-3)
    np.testing.assert_allclose(fit.ma, 0.0, atol=1e-3)


def test_fit_frame_all_zero_targets():
    f = np.linspace(200, 8000, 10)
    fit, loss, flag = _fit_one(f, np.zeros(10), np.zeros(10), (4, 4, 1))
    assert flag == 1
    assert fit.gain[0] == pytest.approx(1e-7)


def test_fit_frame_recovers_known_cascade():
    rng = np.random.default_rng(31)
    secs = [ArmaSection(project_stable(rng.uniform(-0.5, 0.5, 8), radius=0.92),
                        rng.uniform(-0.5, 0.5, 8)) for _ in range(2)]
    true = CascadeFrame(0.2, secs)
    f = np.sort(rng.uniform(80, 11000, 20))
    mags, phases = _targets(true, f)
    fit, loss, flag = _fit_one(f, mags, phases, (16, 16, 2), max_steps=150)
    got = sample_cascade(fit, f[None])[0][0]
    mag_db = 20 / np.log(10) * np.abs(np.log(mags + 1e-7) - np.log(got + 1e-7))
    assert mag_db.max() <= 0.5


def test_fit_frame_stability_invariant():
    """Even on adversarial targets the fitted poles stay inside the circle."""
    rng = np.random.default_rng(37)
    f = np.sort(rng.uniform(80, 11000, 25))
    amp = np.exp(rng.uniform(-6, 2, 25))
    phi = rng.uniform(-np.pi, np.pi, 25)
    fit, _, _ = _fit_one(f, amp, phi, (8, 8, 2), max_steps=60)
    _assert_fitted_stable(fit.ar)


def test_fit_frame_gain_homogeneity():
    rng = np.random.default_rng(41)
    true = random_stable_frame(rng)
    f = np.sort(rng.uniform(100, 10000, 24))
    mags, phases = _targets(true, f)
    base, _, _ = _fit_one(f, mags, phases, (8, 8, 2), max_steps=100)
    c = 5.0
    scaled, _, _ = _fit_one(f, c * mags, phases, (8, 8, 2), max_steps=100)
    m0 = sample_cascade(base, f[None])[0]
    m1 = sample_cascade(scaled, f[None])[0]
    np.testing.assert_allclose(m1, c * m0, rtol=0.01)


def test_fit_frame_bad_inputs():
    with pytest.raises(EnvelopeError):
        _fit_one([100.0], [-1.0], [0.0], (4, 4, 1))
    with pytest.raises(EnvelopeError):
        _fit_one([100.0], [1.0], [0.0], (4, 4, 3))


# --- cascade-level fitting -------------------------------------------------

def _small_hset():
    grid = make_grid(0.01, 0.005, 0.010)
    L = len(grid)
    freqs = np.tile(np.linspace(300, 9000, 12), (L, 1))
    amps = np.tile(np.exp(-np.linspace(0, 2, 12)), (L, 1)) * 0.1
    phases = np.zeros((L, 12))
    return HarmonicSet(grid, freqs, amps, phases, np.zeros((L, 12)), FS)


def test_fit_cascade_repeat_determinism():
    hset = _small_hset()
    first = fit_cascade(hset, orders=(8, 8, 2), max_steps=40)
    again = fit_cascade(hset, orders=(8, 8, 2), max_steps=40)
    for name in ("gain", "ar", "ma", "flags"):
        np.testing.assert_array_equal(getattr(first, name), getattr(again, name))


def _vibrato_hset(n_frames=12):
    """Analysis of a short vowel whose F0 rises and falls: every frame differs."""
    cascade = fixtures.vowel_cascade(FS, n_frames, 0.005, 0.010, 0.05)
    f0 = 150.0 + 20.0 * np.sin(np.linspace(0.0, np.pi, n_frames))
    track = F0Track(cascade.grid, f0)
    buf = synthesize_arma(cascade, track)
    return analyze_qhm(buf, cascade.grid, track, max_components=12), track


@pytest.mark.parametrize("frames_per_block", [1, 5, None])
def test_fit_cascade_blocks_and_workers_byte_identical(monkeypatch, frames_per_block):
    hset, track = _vibrato_hset()
    assert len({hset.amplitudes[l].tobytes() for l in range(hset.n_frames)}) == hset.n_frames
    ref = cascade_to_bytes(fit_cascade(hset, track, orders=(8, 8, 2), max_steps=40))
    n_par = 1 + 8 + 8
    per_frame = (2 * hset.n_components + n_par) * n_par
    # 1 frame per block, 5 (the last block a partial one) or all frames in one
    monkeypatch.setattr(arma, "_FIT_BUDGET", per_frame * (frames_per_block or hset.n_frames))
    got = fit_cascade(hset, track, orders=(8, 8, 2), max_steps=40)
    assert cascade_to_bytes(got) == ref


def test_fit_stops_before_max_steps(monkeypatch):
    """On real analysis targets each frame's magnitude and joint fits stop
    once the cost stops falling or reaches its floor, well before the step
    limit."""
    buf, _, cascade, track = fixtures.vowel(150.0, 0.05, FS)
    hset = analyze_qhm(buf, cascade.grid, track)
    freqs, _ = harmonic_grid(track, FS, max_components=hset.n_components)
    residual = _wrap(hset.phases - excitation_phase(freqs, hset.grid))
    solver, stages = arma._levenberg_marquardt, []

    def recording(fit, theta, rows, mag_only, max_steps):
        out = solver(fit, theta, rows, mag_only, max_steps)
        stages.append((mag_only, out[1][0]))
        return out

    monkeypatch.setattr(arma, "_levenberg_marquardt", recording)
    for l in (3, 5, 7):
        stages.clear()
        _, _, flag = _fit_one(freqs[l], hset.amplitudes[l], residual[l], (16, 16, 2),
                              max_steps=500)
        assert flag == 0
        assert [mag_only for mag_only, _ in stages] == [True, False]
        assert all(0 < steps < 500 for _, steps in stages)


def test_fit_stages_stop_before_the_cap(monkeypatch):
    """On a vowel's analysis at (16, 16, 2) and 150 steps, most frames stop
    before the step cap in the magnitude stage and in the first joint cycle,
    as their step counts read. fit_targets sums each frame's steps over
    every stage and returns the stop reason of its last joint fit."""
    buf, _, cascade, _ = fixtures.vowel(150.0, 0.1, FS)
    hset, track = analyze(buf, cascade.grid)
    solver, targets, stages, results = arma._levenberg_marquardt, arma.fit_targets, [], []

    def recording(fit, theta, rows, mag_only, max_steps):
        out = solver(fit, theta, rows, mag_only, max_steps)
        stages.append((mag_only, rows.copy(), out[1].copy(), out[2].copy()))
        return out

    def recording_targets(*args):
        results.append(targets(*args))
        return results[-1]

    monkeypatch.setattr(arma, "_levenberg_marquardt", recording)
    monkeypatch.setattr(arma, "fit_targets", recording_targets)
    fit_cascade(hset, track, orders=(16, 16, 2), max_steps=150)
    assert len(results) == 1 and [m for m, *_ in stages[:2]] == [True, False]
    for _, rows, steps, reasons in stages[:2]:
        assert len(rows) == hset.n_frames
        assert np.all((steps >= 1) & (steps <= 150))
        assert np.all((reasons >= 1) & (reasons < len(arma.STOP_REASONS)))
        assert np.count_nonzero(steps < 150) >= 0.75 * len(rows)
    total, last = np.zeros(hset.n_frames, dtype=np.int64), np.zeros(hset.n_frames, dtype=np.int64)
    for _, rows, steps, reasons in stages:
        total[rows] += steps
        last[rows] = reasons
    _, _, _, _, got_steps, got_reasons, _ = results[0]
    assert got_steps.tolist() == total.tolist()
    assert got_reasons.tolist() == last.tolist()


def _unstable_pair():
    """A _Fit of two frames of noisy (4, 4, 1) targets and its start theta:
    frame 0 at a cascade with a pole at |z| = 1.1, frame 1 at its twin with
    that pole at 0.9."""
    rng = np.random.default_rng(0)
    f = np.sort(rng.uniform(100, 10000, 24))
    ar = [np.poly([pole, 0.5 * np.exp(0.6j), 0.5 * np.exp(-0.6j), 0.3]).real[1:]
          for pole in (1.1, 0.9)]
    ma = np.array([0.2, -0.1, 0.05, 0.0])
    freqs = np.tile(f, (2, 1))
    mags, delays = sample_cascade(stacked_cascade([0.3, 0.3], [a[None] for a in ar],
                                                  [ma[None], ma[None]]), freqs)
    mags = mags * np.exp(0.3 * rng.standard_normal(mags.shape))
    phases = _wrap(delays + 0.3 * rng.standard_normal(mags.shape))
    fit = arma._Fit(1, 4, 4, arma._table(2 * np.pi * freqs / FS, 4),
                    np.log(mags + AMPLITUDE_FLOOR), phases,
                    np.sqrt(arma.PHASE_WEIGHT) * (mags > AMPLITUDE_FLOOR))
    theta = np.hstack([np.full((2, 1), np.log(0.3)), np.vstack(ar), np.vstack([ma, ma])])
    return fit, theta


def test_joint_fit_with_an_unstable_pole_steps_past_a_stalled_window(monkeypatch):
    """With tolerances at which every window stalls, a joint fit whose AR
    holds a root outside the unit circle keeps stepping (here to the cap),
    while its stable twin stops at the first window. The magnitude stage,
    whose result is reflected anyway, stops both at the first window."""
    fit, theta = _unstable_pair()
    monkeypatch.setattr(arma, "_JOINT_STOP_TOL", 1.0)
    monkeypatch.setattr(arma, "_MAG_STOP_TOL", 1.0)
    window, names = arma._STOP_WINDOW, arma.STOP_REASONS
    th, steps, reasons = arma._levenberg_marquardt(fit, theta, np.arange(2), False, 60)
    assert steps.tolist() == [60, window]
    assert [names[r] for r in reasons] == ["cap", "window"]
    assert np.abs(arma._roots(fit.split(th)[1][:1])).max() >= 1.0
    _, steps, reasons = arma._levenberg_marquardt(fit, theta, np.arange(2), True, 60)
    assert steps.tolist() == [window, window]
    assert [names[r] for r in reasons] == ["window", "window"]


_THREADS_SCRIPT = """
import hashlib, sys
import numpy as np
from quasivoc import fixtures
from quasivoc.arma import _wrap, fit_cascade, sample_cascade
from quasivoc.qhm import F0Track, HarmonicSet, harmonic_grid
from quasivoc.serialize import cascade_to_bytes
from quasivoc.synth import excitation_phase

cascade = fixtures.vowel_cascade(24000, 6, 0.005, 0.010, 0.05)
track = F0Track(cascade.grid, 150.0 + 20.0 * np.sin(np.linspace(0.0, np.pi, 6)))
freqs, _ = harmonic_grid(track, 24000, max_components=40)
mags, delays = sample_cascade(cascade, freqs)
phases = _wrap(delays + excitation_phase(freqs, cascade.grid))
hset = HarmonicSet(cascade.grid, freqs, mags, phases, np.zeros_like(mags), 24000)
fitted = fit_cascade(hset, track, orders=(32, 32, 2), max_steps=100)
sys.stdout.write(hashlib.sha256(cascade_to_bytes(fitted)).hexdigest())
"""


def test_fit_cascade_blas_thread_independent():
    """The fit's bytes, stop decisions included, do not depend on the BLAS
    thread count. Targets are sampled from a known cascade because analysis
    itself does depend on it."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=300, check=True)
        digests.append(run.stdout)
    assert len(digests[0]) == 64 and digests[0] == digests[1]


def test_import_leaves_scipy_signal_unloaded():
    """The package never filters in the time domain, so importing it does not
    load scipy.signal; only the tests' lfilter oracle does. Phase integrals
    are numpy trapezoid sums, so it does not load scipy.integrate either.
    WAV I/O, PCHIP coefficients and FFTs are numpy, so scipy.io,
    scipy.interpolate, scipy.fft and what they pull in (scipy.special,
    scipy.sparse, scipy.optimize) stay unloaded too."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", "import sys, quasivoc; "
                          "print('scipy.signal' in sys.modules, "
                          "'scipy.integrate' in sys.modules)"],
                         env=env, capture_output=True, text=True, timeout=120, check=True)
    assert run.stdout.strip() == "False False"
    unloaded = ["scipy.io", "scipy.interpolate", "scipy.fft", "scipy.special", "scipy.sparse",
                "scipy.optimize"]
    run = subprocess.run([sys.executable, "-c", "import sys, quasivoc; "
                          f"print([m for m in {unloaded!r} if m in sys.modules])"],
                         env=env, capture_output=True, text=True, timeout=120, check=True)
    assert run.stdout.strip() == "[]"


def test_fit_without_scipy_optimize(monkeypatch):
    """The fitter is numpy only: scipy's least_squares is never called."""
    import scipy.optimize

    def refuse(*args, **kwargs):
        raise AssertionError("scipy.optimize.least_squares called")

    monkeypatch.setattr(scipy.optimize, "least_squares", refuse)
    rng = np.random.default_rng(43)
    f = np.sort(rng.uniform(100, 10000, 24))
    fit, loss, flag = _fit_one(f, *_targets(random_stable_frame(rng), f), (8, 8, 2),
                               max_steps=60)
    hset, track = _vibrato_hset(6)
    cascade = fit_cascade(hset, track, orders=(8, 8, 2), max_steps=40)
    assert np.isfinite(loss) and flag in (0, 2)
    assert cascade.n_frames == 6 and set(cascade.flags.tolist()) <= {0, 2}
    gains = np.append(cascade.gain, fit.gain)
    assert np.all(np.isfinite(gains)) and np.all(gains > 0)
    _assert_fitted_stable(fit.ar)
    _assert_fitted_stable(cascade.ar)


@pytest.mark.parametrize("orders", [(8, 0, 2), (0, 8, 2)])
def test_fit_with_a_zero_order(orders):
    """All-pole and all-zero cascades fit: an empty AR or MA part has no roots
    to reflect and no Jacobian columns."""
    p, q, r = orders
    rng = np.random.default_rng(47)
    f = np.sort(rng.uniform(100, 10000, 24))
    fit, loss, flag = _fit_one(f, *_targets(random_stable_frame(rng), f), orders,
                               max_steps=60)
    hset, track = _vibrato_hset(4)
    cascade = fit_cascade(hset, track, orders=orders, max_steps=40)
    assert np.isfinite(loss) and flag in (0, 2)
    assert cascade.orders == orders and set(cascade.flags.tolist()) <= {0, 2}
    assert cascade.ar.shape == (4, r, p // r) and cascade.ma.shape == (4, r, q // r)
    assert fit.ar.shape == (1, r, p // r) and fit.ma.shape == (1, r, q // r)
    gains = np.append(cascade.gain, fit.gain)
    assert np.all(np.isfinite(gains)) and np.all(gains > 0)
    _assert_fitted_stable(fit.ar)
    _assert_fitted_stable(cascade.ar)


def test_fit_cascade_silent_frames_are_not_fitted(monkeypatch):
    """At the default step limit, all-zero frames get the floor gain and flat
    sections without entering the optimizer, and the other frames' results
    do not change."""
    hset, track = _vibrato_hset(6)
    silent = [0, 3, 5]
    amps = hset.amplitudes.copy()
    amps[silent] = 0.0
    quiet = HarmonicSet(hset.grid, hset.frequencies, amps, hset.phases,
                        hset.compensations, FS)
    ref = fit_cascade(hset, track, orders=(8, 8, 2))
    fitted = []
    solver = arma._levenberg_marquardt

    def counting(fit, theta, rows, *args):
        fitted.append(len(theta))
        return solver(fit, theta, rows, *args)

    monkeypatch.setattr(arma, "_levenberg_marquardt", counting)
    got = fit_cascade(quiet, track, orders=(8, 8, 2))
    assert fitted and max(fitted) <= hset.n_frames - len(silent)
    assert got.flags[silent].tolist() == [1, 1, 1]
    for l in range(hset.n_frames):
        if l in silent:
            assert got.gain[l] == 1e-7
            assert not got.ar[l].any() and not got.ma[l].any()
            continue
        assert got.gain[l] == ref.gain[l] and got.flags[l] == ref.flags[l]
        assert got.ar[l].tobytes() == ref.ar[l].tobytes()
        assert got.ma[l].tobytes() == ref.ma[l].tobytes()


def test_fit_cascade_track_grid_mismatch():
    """A track on another frame count is refused. A track whose harmonic
    grid is narrower than the set's K (3000 Hz: 3 components, against 12)
    fits on that grid with each frame's missing columns parked at its last
    one, as harmonic_grid parks them."""
    hset = _small_hset()
    longer = make_grid(0.02, 0.005, 0.010)
    with pytest.raises(EnvelopeError, match="frame count"):
        fit_cascade(hset, F0Track(longer, np.full(len(longer), 150.0)), orders=(8, 8, 2))
    track = F0Track(hset.grid, np.full(hset.n_frames, 3000.0))
    narrow, _ = harmonic_grid(track, FS)
    assert narrow.shape[1] == 3
    parked = np.repeat(narrow[:, -1:], 12 - 3, axis=1)
    padded = HarmonicSet(hset.grid, np.hstack([narrow, parked]), hset.amplitudes,
                         hset.phases, hset.compensations, FS)
    got = fit_cascade(hset, track, orders=(8, 8, 2), max_steps=10)
    ref = fit_cascade(padded, None, orders=(8, 8, 2), max_steps=10)
    assert cascade_to_bytes(got) == cascade_to_bytes(ref)
    # a set of no components takes no column of the track's grid
    empty = np.zeros((hset.n_frames, 0))
    none = HarmonicSet(hset.grid, empty, empty, empty, empty, FS)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert (cascade_to_bytes(fit_cascade(none, track, orders=(8, 8, 2), max_steps=2))
                == cascade_to_bytes(fit_cascade(none, None, orders=(8, 8, 2), max_steps=2)))


def test_cascade_orders_validation():
    grid = make_grid(0.01, 0.005, 0.010)
    L = len(grid)
    cascade = ArmaCascade(grid, np.ones(L), np.zeros((L, 2, 4)), np.zeros((L, 2, 3)), FS)
    assert cascade.orders == (8, 6, 2) and cascade.n_frames == L
    assert cascade.flags.tolist() == [0] * L
    bad = [(np.ones(L), np.zeros((L, 0, 4)), np.zeros((L, 0, 4))),     # no section
           (np.ones(L), np.zeros((L, 2, 4)), np.zeros((L, 3, 4))),     # section counts
           (np.ones(L + 1), np.zeros((L, 2, 4)), np.zeros((L, 2, 4))),  # frame counts
           (np.ones(L), np.zeros((L, 8)), np.zeros((L, 8))),           # not stacked
           (np.zeros(L), np.zeros((L, 2, 4)), np.zeros((L, 2, 4))),    # zero gain
           (np.full(L, np.inf), np.zeros((L, 2, 4)), np.zeros((L, 2, 4))),
           (np.ones(L), np.full((L, 2, 4), np.nan), np.zeros((L, 2, 4)))]
    for gain, ar, ma in bad:
        with pytest.raises(EnvelopeError):
            ArmaCascade(grid, gain, ar, ma, FS)


def test_cascade_grid_and_flags_need_one_entry_per_frame():
    grid = make_grid(0.01, 0.005, 0.010)
    L = len(grid)
    arrays = (np.ones(L), np.zeros((L, 2, 4)), np.zeros((L, 2, 3)))
    for grid_, flags in ((make_grid(0.005, 0.005, 0.010), None), (grid, np.zeros(L - 1)),
                         (grid, np.zeros(L + 1)), (grid, np.zeros((L, 1)))):
        with pytest.raises(EnvelopeError, match="frame count"):
            ArmaCascade(grid_, *arrays, FS, flags)


def test_frames_view():
    """The read-only per-frame view holds the stacked arrays' values."""
    cascade = fixtures.vowel_cascade(FS, 3, 0.005, 0.010, 0.05)
    frames = cascade.frames
    assert len(frames) == 3 and all(len(fr.sections) == 2 for fr in frames)
    for l, fr in enumerate(frames):
        assert fr.gain == cascade.gain[l]
        for j, sec in enumerate(fr.sections):
            assert sec.ar.tobytes() == cascade.ar[l, j].tobytes()
            assert sec.ma.tobytes() == cascade.ma[l, j].tobytes()
