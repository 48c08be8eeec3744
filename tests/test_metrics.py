"""Objective metrics: closed forms, invariances, and an independent
filterbank oracle."""
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scipy.fft import dct, rfft

from quasivoc import fixtures
from quasivoc.metrics import (MetricError, MetricReport, f0_rmse, mcd, mel_cepstrum,
                              mel_filterbank, rtf, snr, vuv_rate)
from quasivoc.qhm import F0Track
from quasivoc.signals import SignalBuffer, frame_view, grid_window, make_grid

FS = 24000


def _track(values):
    values = np.asarray(values, dtype=np.float64)
    grid = make_grid((len(values) - 1) * 0.005, 0.005, 0.010)
    return F0Track(grid, values)


# --- V/UV ------------------------------------------------------------------

def test_vuv_rate_cases():
    a = _track([100, 0, 120, 0])
    assert vuv_rate(a, a) == 0.0
    b = _track([0, 90, 0, 100])
    assert vuv_rate(a, b) == 100.0
    c = _track([100, 0, 120, 130])
    assert vuv_rate(a, c) == 25.0
    with pytest.raises(MetricError):
        vuv_rate(a, _track([100, 0]))


def test_vuv_rate_ten_frames_one_mismatch():
    a = _track([100.0] * 10)
    vals = [100.0] * 10
    vals[3] = 0.0
    assert vuv_rate(a, _track(vals)) == 10.0


# --- f0 RMSE ---------------------------------------------------------------

def test_f0_rmse_cases():
    a = _track([100, 200, 0, 150])
    assert f0_rmse(a, a) == 0.0
    doubled = _track([200, 400, 0, 300])
    assert f0_rmse(doubled, a, rhos=np.full(4, 2.0)) == pytest.approx(0.0, abs=1e-12)
    shifted = _track(np.array([100, 200, 0, 150]) * np.exp(0.1))
    assert f0_rmse(shifted, a) == pytest.approx(0.1, abs=1e-12)
    assert f0_rmse(_track([0, 0]), _track([100, 0])) is None
    with pytest.raises(MetricError):
        f0_rmse(a, _track([100.0]))


@pytest.mark.parametrize("rho", [-1.0, 0.0, np.nan, np.inf])
def test_f0_rmse_rejects_bad_scale_factors(rho):
    a = _track([100, 200, 0, 150])
    with pytest.raises(MetricError, match="finite and positive"):
        f0_rmse(a, a, rhos=np.full(4, rho))


def test_f0_rmse_symmetry():
    rng = np.random.default_rng(1)
    a = _track(rng.uniform(80, 300, 20))
    b = _track(rng.uniform(80, 300, 20))
    assert f0_rmse(a, b) == pytest.approx(f0_rmse(b, a), rel=1e-12)


# --- mel cepstra -----------------------------------------------------------

def _oracle_mel_cepstrum(buffer, grid, n_coeffs=24, n_filters=40):
    """Second, independently-coded implementation of the same definition:
    symmetric-window DFT magnitude, HTK-mel triangles, log floor 1e-10,
    orthonormal DCT-II written as an explicit cosine sum."""
    fs = buffer.sample_rate
    window = grid_window(grid, fs)
    n_win = window.size
    half = (n_win - 1) // 2
    n_fft = 2 ** int(np.ceil(np.log2(n_win)))
    mel_max = 2595.0 * np.log10(1.0 + (fs / 2.0) / 700.0)
    edges_hz = 700.0 * (10.0 ** (np.linspace(0, mel_max, n_filters + 2) / 2595.0) - 1.0)
    bins = np.linspace(0.0, fs / 2.0, n_fft // 2 + 1)
    out = np.zeros((len(grid), n_coeffs))
    d = np.arange(n_filters)
    dct_basis = np.cos(np.pi * np.outer(np.arange(1, n_coeffs + 1),
                                        (2 * d + 1) / (2 * n_filters)))
    dct_basis *= np.sqrt(2.0 / n_filters)
    x = buffer.samples
    for l, tc in enumerate(grid.centers):
        c = int(round(tc * fs))
        frame = np.zeros(n_win)
        lo, hi = c - half, c + half + 1
        s_lo, s_hi = max(0, lo), min(len(x), hi)
        frame[s_lo - lo:s_hi - lo] = x[s_lo:s_hi]
        mag = np.abs(np.fft.rfft(frame * window, n=n_fft))
        energies = np.zeros(n_filters)
        for i in range(n_filters):
            lo_f, mid, hi_f = edges_hz[i], edges_hz[i + 1], edges_hz[i + 2]
            tri = np.minimum((bins - lo_f) / max(mid - lo_f, 1e-12),
                             (hi_f - bins) / max(hi_f - mid, 1e-12))
            energies[i] = np.sum(np.clip(tri, 0, None) * mag)
        out[l] = dct_basis @ np.log(np.maximum(energies, 1e-10))
    return out


def test_mel_cepstrum_matches_independent_oracle():
    buf, _ = fixtures.noise(0.2, FS, seed=6)
    grid = make_grid(0.15, 0.005, 0.010)
    got = mel_cepstrum(buf, grid)
    ref = _oracle_mel_cepstrum(buf, grid)
    np.testing.assert_allclose(got, ref, atol=1e-6)



def _scipy_mel_cepstrum(buffer, grid):
    """mel_cepstrum through scipy.fft's rfft and orthonormal DCT-II, and the
    norm of each frame's log mel energies (that of all 40 DCT coefficients)."""
    fs = buffer.sample_rate
    window = grid_window(grid, fs)
    n_fft = 1 << (window.size - 1).bit_length()
    starts = grid.center_samples(fs) - window.size // 2
    view, offset = frame_view(buffer.samples, starts, window.size)
    mag = np.abs(rfft(view[starts + offset] * window, n=n_fft, axis=1))
    fb = mel_filterbank(40, n_fft, fs)
    log_energies = np.log(np.maximum((fb @ mag[:, :, None])[..., 0], 1e-10))
    return (dct(log_energies, type=2, norm="ortho", axis=1)[:, 1:25],
            np.linalg.norm(log_energies, axis=1, keepdims=True))


@pytest.mark.parametrize("make", [lambda: fixtures.noise(0.3, FS, seed=6)[0],
                                  lambda: fixtures.multisine(200.0, 5, 0.3, FS, seed=2)[0],
                                  lambda: fixtures.vowel(150.0, 0.3, FS)[0],
                                  lambda: SignalBuffer(np.zeros(int(0.3 * FS)), FS)],
                         ids=["noise", "multisine", "vowel", "silence"])
def test_mel_cepstrum_equals_scipy_dct_form(make):
    """The cosine-matrix DCT is within 1e-12 of the scipy.fft form, relative
    to the norm of the frame's log mel energies: on a constant frame the
    coefficients are 0 and both forms leave rounding of that norm's order."""
    buf = make()
    grid = make_grid(0.25, 0.005, 0.010)
    want, norm = _scipy_mel_cepstrum(buf, grid)
    assert np.all(np.abs(mel_cepstrum(buf, grid) - want) <= 1e-12 * norm)

def test_mel_cepstrum_determinism_and_scale_invariance():
    buf, _ = fixtures.multisine(200.0, 5, 0.2, FS, seed=2)
    grid = make_grid(0.15, 0.005, 0.010)
    a = mel_cepstrum(buf, grid)
    np.testing.assert_array_equal(a, mel_cepstrum(buf, grid))
    scaled = SignalBuffer(buf.samples * 3.7, FS)
    np.testing.assert_allclose(mel_cepstrum(scaled, grid), a, atol=1e-9)


def test_mel_cepstrum_silent_frames_floored():
    grid = make_grid(0.05, 0.005, 0.010)
    buf = SignalBuffer(np.zeros(int(0.1 * FS)), FS)
    out = mel_cepstrum(buf, grid)
    assert np.all(np.isfinite(out))


# --- MCD -------------------------------------------------------------------

def test_mcd_closed_forms():
    a = np.zeros((1, 24))
    assert mcd(a, a) == 0.0
    b = a.copy()
    delta = 0.37
    b[0, 5] = delta
    expect = (10.0 * np.sqrt(2.0) / np.log(10.0)) * delta
    assert mcd(b, a) == pytest.approx(expect, abs=1e-9)
    with pytest.raises(MetricError):
        mcd(np.zeros((1, 24)), np.zeros((2, 24)))


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_mcd_symmetry(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 24))
    b = rng.standard_normal((4, 24))
    assert mcd(a, b) == pytest.approx(mcd(b, a), rel=1e-12)
    assert mcd(a, b) >= 0.0


# --- SNR -------------------------------------------------------------------

def test_snr_cases():
    rng = np.random.default_rng(3)
    ref = SignalBuffer(rng.standard_normal(500) * 0.1, FS)
    assert snr(ref, ref) == 120.0
    assert snr(SignalBuffer(np.zeros(500), FS), ref) == pytest.approx(0.0, abs=1e-12)
    gen = SignalBuffer(ref.samples * 1.01, FS)
    assert snr(gen, ref) == pytest.approx(40.0, abs=1e-9)
    with pytest.raises(MetricError):
        snr(ref, SignalBuffer(np.zeros(499), FS))
    with pytest.raises(MetricError):
        snr(ref, SignalBuffer(np.zeros(500), FS))


# --- RTF -------------------------------------------------------------------

def test_rtf_sleep_stub():
    ratio = rtf(lambda: time.sleep(0.02), audio_duration=0.1, runs=3)
    assert 0.15 <= ratio <= 0.45
    with pytest.raises(MetricError):
        rtf(lambda: None, audio_duration=0.0)


# --- report ----------------------------------------------------------------

def test_report_serialization():
    rep = MetricReport(vuv_rate=1.5, mcd=0.25, snr=40.0)
    js = rep.to_json()
    assert '"mcd": 0.25' in js
    table = rep.to_table()
    assert "MCD [dB]" in table and "-" in table  # unset fields shown as '-'
