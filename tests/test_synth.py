"""Phase accumulation, oscillator-bank rendering, and the two synthesis
pipelines."""
import numpy as np
import pytest

from quasivoc import arma, fixtures
from conftest import cascade_of, frame_at
from quasivoc.arma import (ArmaCascade, ArmaSection, CascadeFrame, sample_cascade,
                           sample_harmonics)
from quasivoc.qhm import F0Track, HarmonicSet, analyze_qhm, harmonic_grid
from quasivoc.signals import (FrameGrid, SignalBuffer, SignalError, cubic_interp,
                              linear_interp, make_grid)
from quasivoc.synth import (compensated_phase, delayed_phase, excitation_phase,
                            mute_aliasing, render, synthesize_arma,
                            synthesize_qhm)

FS = 24000


def _grid(n_frames, dt=0.01):
    return make_grid((n_frames - 1) * dt, dt, 0.010)


# --- excitation phase ------------------------------------------------------

def test_excitation_phase_constant():
    f = np.full((4, 1), 100.0)
    phi = excitation_phase(f, _grid(4))
    np.testing.assert_allclose(np.diff(phi[:, 0]), 2 * np.pi, rtol=1e-12)
    assert phi[0, 0] == 0.0


def test_excitation_phase_zero():
    phi = excitation_phase(np.zeros((5, 3)), _grid(5))
    np.testing.assert_array_equal(phi, 0.0)


def test_excitation_phase_trapezoid_step():
    f = np.array([[100.0], [120.0]])
    phi = excitation_phase(f, _grid(2))
    np.testing.assert_allclose(phi[1, 0], np.pi * 220 * 0.01, rtol=1e-12)


def test_excitation_phase_nonfinite():
    with pytest.raises(SignalError):
        excitation_phase(np.array([[np.inf]]), _grid(1))


# --- compensated phase -----------------------------------------------------

def test_compensated_phase_identity_and_step():
    exc = excitation_phase(np.full((4, 1), 100.0), _grid(4))
    np.testing.assert_array_equal(compensated_phase(exc, np.zeros((4, 1))), exc)
    comp = np.zeros((4, 1))
    comp[0, 0] = np.pi / 2
    np.testing.assert_allclose(compensated_phase(exc, comp), exc + np.pi / 2)


def test_compensated_phase_prefix_sum_oracle():
    rng = np.random.default_rng(3)
    exc = rng.standard_normal((6, 2))
    comp = rng.uniform(-np.pi, np.pi, (6, 2))
    out = compensated_phase(exc, comp)
    expect = exc + np.cumsum(comp, axis=0)
    np.testing.assert_allclose(out, expect, atol=1e-12)


def test_compensated_phase_range_error():
    with pytest.raises(SignalError):
        compensated_phase(np.zeros((2, 1)), np.full((2, 1), 4.0))


# --- delayed phase ---------------------------------------------------------

def test_delayed_phase_identity_cascade():
    frames = [CascadeFrame(1.0, [ArmaSection(np.zeros(4), np.zeros(4))])
              for _ in range(3)]
    cascade = cascade_of(frames, 0.01)
    f = np.full((3, 2), 200.0)
    exc = excitation_phase(f, cascade.grid)
    _, delays = sample_cascade(cascade, f)
    np.testing.assert_allclose(delayed_phase(exc, delays), exc, atol=1e-12)


def test_delayed_phase_constant_offset():
    sec = ArmaSection(np.array([-0.6, 0.1, 0.0, 0.0]), np.zeros(4))
    frames = [CascadeFrame(1.0, [sec]) for _ in range(4)]
    cascade = cascade_of(frames, 0.01)
    f = np.full((4, 1), 700.0)
    exc = excitation_phase(f, cascade.grid)
    d = sample_harmonics(frames[0], 700.0, FS).phase_delays[0]
    _, delays = sample_cascade(cascade, f)
    np.testing.assert_allclose(delayed_phase(exc, delays), exc + d, atol=1e-12)


def test_delayed_phase_composition_oracle(vowel_data):
    _, _, cascade, _ = vowel_data
    sub = ArmaCascade(_grid(3, cascade.grid.frame_shift), cascade.gain[:3], cascade.ar[:3],
                      cascade.ma[:3], FS)
    f = np.tile([150.0, 300.0, 450.0], (3, 1))
    exc = excitation_phase(f, sub.grid)
    out = delayed_phase(exc, sample_cascade(sub, f)[1])
    for l in range(3):
        d = sample_harmonics(frame_at(cascade, l), f[l], FS).phase_delays
        # equality holds mod 2*pi (the delay track is unwrapped frame-wise)
        err = np.angle(np.exp(1j * (out[l] - exc[l] - d)))
        np.testing.assert_allclose(err, 0.0, atol=1e-10)


# --- rendering -------------------------------------------------------------

def test_render_single_stationary_component():
    L = 101
    grid = _grid(L, 0.01)
    f = np.full((L, 1), 100.0)
    phi = excitation_phase(f, grid)
    amps = np.full((L, 1), 0.5)
    out = render(amps, phi, grid, FS)
    spec = np.abs(np.fft.rfft(out.samples)) / len(out) * 2
    peak = int(np.argmax(spec))
    freq = peak * FS / len(out)
    assert abs(freq - 100.0) < 1.0
    assert abs(spec[peak] - 1.0) < 0.01


def test_render_silence_and_empty():
    grid = _grid(5)
    out = render(np.zeros((5, 2)), np.zeros((5, 2)), grid, FS)
    np.testing.assert_array_equal(out.samples, 0.0)
    empty = HarmonicSet(grid, np.zeros((0, 1)), np.zeros((0, 1)),
                        np.zeros((0, 1)), np.zeros((0, 1)), FS)
    assert len(synthesize_qhm(empty)) == 0


def test_render_dense_evaluation_oracle():
    """Knots at every sample make interpolation exact; compare against the
    direct sum of 2*A*cos(phi)."""
    n = 200
    rng = np.random.default_rng(7)
    centers = np.arange(n) / FS
    grid = FrameGrid(centers, 1.0 / FS, 0.010)
    amps = rng.uniform(0.1, 0.5, (n, 2))
    f = np.tile([100.0, 200.0], (n, 1))
    phi = excitation_phase(f, grid) + rng.uniform(-1, 1, (1, 2))
    out = render(amps, phi, grid, FS)
    expect = np.sum(2 * amps * np.cos(phi), axis=1)
    np.testing.assert_allclose(out.samples, expect, atol=1e-9)


def test_render_amplitude_linearity_and_superposition():
    L = 21
    grid = _grid(L)
    rng = np.random.default_rng(9)
    f = np.tile([150.0, 400.0], (L, 1))
    phi = excitation_phase(f, grid)
    a1 = rng.uniform(0, 0.3, (L, 2))
    a2 = rng.uniform(0, 0.3, (L, 2))
    base = render(a1, phi, grid, FS).samples
    # amplitudes are interpolated to sample rate before the product, so
    # scaling commutes only up to rounding
    np.testing.assert_allclose(render(3.0 * a1, phi, grid, FS).samples,
                               3.0 * base, rtol=1e-11, atol=1e-13)
    np.testing.assert_allclose(
        render(a1 + a2, phi, grid, FS).samples,
        base + render(a2, phi, grid, FS).samples, atol=1e-12)


def test_render_phase_shift_preserves_magnitude_spectrum():
    L = 51
    grid = _grid(L)
    f = np.full((L, 1), 440.0)
    phi = excitation_phase(f, grid)
    amps = np.full((L, 1), 0.4)
    a = render(amps, phi, grid, FS).samples
    b = render(amps, phi + 0.7, grid, FS).samples
    # compare magnitude spectra away from edge leakage
    wa = np.abs(np.fft.rfft(a * np.hanning(a.size)))
    wb = np.abs(np.fft.rfft(b * np.hanning(b.size)))
    assert np.max(np.abs(wa - wb)) / wa.max() < 1e-9


def test_render_shape_mismatch():
    grid = _grid(3)
    with pytest.raises(SignalError):
        render(np.zeros((3, 2)), np.zeros((3, 3)), grid, FS)
    with pytest.raises(SignalError):
        render(np.zeros((2, 2)), np.zeros((2, 2)), grid, FS)


def _render_every_sample(amps, phis, grid):
    """Every component over every output sample."""
    L, K = amps.shape
    t0 = grid.centers[0]
    n = int(round((grid.centers[-1] - t0) * FS)) + 1
    tt = t0 + np.arange(n) / FS
    out = np.zeros(n)
    for k in range(K):
        if L == 1:
            out += 2 * amps[0, k] * np.cos(phis[0, k])
            continue
        phi = cubic_interp(grid.centers, phis[:, k], tt)
        a = linear_interp(grid.centers, amps[:, k], tt)
        out += 2 * a * np.cos(phi)
    return out


@pytest.mark.parametrize("centers", [
    0.005 * np.arange(12),
    0.0123 + np.cumsum(np.r_[0.0, np.random.default_rng(4).uniform(0.004, 0.011, 11)]),
])
def test_render_skips_only_exact_zeros(centers):
    """Skipped columns and the samples outside a component's support add
    only +-0.0, so the sum matches the full loop bit for bit."""
    L, K = len(centers), 8
    grid = FrameGrid(centers, 0.005, 0.010)
    rng = np.random.default_rng(11)
    amps = np.zeros((L, K))
    amps[0, 1] = 0.3                      # first frame only
    amps[-1, 2] = 0.2                     # last frame only
    amps[4:8, 3] = rng.uniform(0.1, 0.5, 4)   # interior support
    amps[6, 4] = 0.4                      # one interior frame
    amps[:, 5] = rng.uniform(0.1, 0.5, L)     # everywhere
    amps[[2, 9], 6] = [0.1, -0.2]         # two islands, one negative
    # column 0 and column 7 stay all zero
    phis = excitation_phase(rng.uniform(100, 3000, (L, K)), grid) + rng.uniform(-3, 3, K)
    out = render(amps, phis, grid, FS).samples
    assert out.tobytes() == _render_every_sample(amps, phis, grid).tobytes()
    one = render(amps[6:7], phis[6:7], FrameGrid(centers[6:7], 0.005, 0.010), FS).samples
    assert one.tobytes() == _render_every_sample(amps[6:7], phis[6:7],
                                                 FrameGrid(centers[6:7], 0.005, 0.010)).tobytes()


def test_mute_aliasing():
    amps = np.ones((2, 2))
    f = np.array([[100.0, 11990.0], [100.0, 200.0]])
    out = mute_aliasing(amps, f, FS)
    np.testing.assert_array_equal(out, [[1.0, 0.0], [1.0, 1.0]])


# --- pipelines -------------------------------------------------------------

def test_synthesize_qhm_round_trip(multisine_data):
    buf, sidecar = multisine_data
    grid = make_grid(buf.duration - 1.0 / FS, 0.005, 0.010)
    track = F0Track(grid, np.full(len(grid), sidecar["f0"]))
    hset = analyze_qhm(buf, grid, track, max_components=10)
    out = synthesize_qhm(hset)
    n = min(len(out), len(buf))
    err = np.sum((buf.samples[:n] - out.samples[:n]) ** 2)
    snr = 10 * np.log10(np.sum(buf.samples[:n] ** 2) / err)
    assert snr >= 30.0


def test_synthesize_qhm_equals_raw_render():
    L = 11
    grid = _grid(L)
    f = np.full((L, 2), 100.0) * np.array([1, 2])
    exc = excitation_phase(f, grid)
    amps = np.full((L, 2), 0.2)
    # wrapped framewise phases consistent with zero compensations
    phases = np.angle(np.exp(1j * exc))
    hset = HarmonicSet(grid, f, amps, phases, np.zeros((L, 2)), FS)
    out = synthesize_qhm(hset)
    expect = render(amps, exc, grid, FS)
    np.testing.assert_allclose(out.samples, expect.samples, atol=1e-12)


def _flat(grid, gain):
    """A flat envelope of the given gain on every frame of the grid."""
    L = len(grid)
    return ArmaCascade(grid, np.full(L, gain), np.zeros((L, 1, 0)), np.zeros((L, 1, 0)), FS)


def test_synthesize_arma_flat_envelope_peaks():
    L = 101
    grid = make_grid(0.5, 0.005, 0.010)
    cascade = _flat(grid, 1.0)
    track = F0Track(grid, np.full(len(grid), 200.0))
    out = synthesize_arma(cascade, track, max_components=3)
    spec = np.abs(np.fft.rfft(out.samples))
    df = FS / len(out)
    peaks = [spec[int(round(f / df))] for f in (200.0, 400.0, 600.0)]
    assert max(peaks) / min(peaks) < 1.01


def test_synthesize_arma_unvoiced_power_sum():
    grid = make_grid(0.5, 0.005, 0.010)
    cascade = _flat(grid, 0.01)
    track = F0Track(grid, np.zeros(len(grid)))  # all unvoiced
    out = synthesize_arma(cascade, track)
    freqs, counts = harmonic_grid(track, FS)
    k = counts[0]
    # sum of K cosines of amplitude 2*G: mean power K * (2G)^2 / 2
    expect = k * (2 * 0.01) ** 2 / 2
    power = np.mean(out.samples ** 2)
    assert abs(power - expect) / expect < 0.05


def test_synthesize_arma_grid_mismatch():
    grid = make_grid(0.02, 0.005, 0.010)
    cascade = _flat(grid, 1.0)
    other = make_grid(0.05, 0.005, 0.010)
    track = F0Track(other, np.full(len(other), 200.0))
    with pytest.raises(SignalError):
        synthesize_arma(cascade, track)
    empty = ArmaCascade(grid, np.zeros(0), np.zeros((0, 1, 0)), np.zeros((0, 1, 0)), FS)
    assert len(synthesize_arma(empty, F0Track(grid, np.zeros(0)))) == 0


def test_synthesize_arma_samples_every_frame_at_once(monkeypatch):
    """The per-frame sampler does not run."""
    cascade = fixtures.vowel_cascade(FS, 41, 0.005, 0.010, 0.05)
    f0 = np.full(41, 140.0)
    f0[10:15] = 0.0
    track = F0Track(cascade.grid, f0)
    expect = synthesize_arma(cascade, track).samples

    def forbidden(*args, **kwargs):
        raise AssertionError("per-frame envelope sampling")

    monkeypatch.setattr(arma, "sample_harmonics", forbidden)
    assert synthesize_arma(cascade, track).samples.tobytes() == expect.tobytes()
