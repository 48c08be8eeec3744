"""Phase accumulation, oscillator-bank rendering, and the two synthesis
pipelines."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.interpolate import PchipInterpolator

from quasivoc import arma, fixtures, synth
from conftest import cascade_of, frame_at, heard_samples, pchip_per_column
from quasivoc.arma import (ArmaCascade, ArmaSection, CascadeFrame, sample_cascade,
                           sample_harmonics)
from quasivoc.modify import scaled_times
from quasivoc.qhm import AnalysisError, F0Track, HarmonicSet, analyze_qhm, harmonic_grid
from quasivoc.signals import FrameGrid, SignalError, make_grid
from quasivoc.synth import (cascade_tracks, excitation_phase, render, synthesize_arma,
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


# --- synthesize_qhm compensations -------------------------------------------

def _compensated_set(f, comp, amps=0.2):
    """A harmonic set over _grid at frequencies f with the given compensations."""
    grid = _grid(f.shape[0])
    phases = np.angle(np.exp(1j * excitation_phase(f, grid)))
    return HarmonicSet(grid, f, np.full(f.shape, amps), phases, comp, FS)


def test_synthesize_qhm_compensation_identity_and_step():
    """synthesize_qhm renders the excitation phase plus the running sum of
    the compensations: zero compensations leave it as it is, and one step
    on the first frame offsets every frame."""
    f = np.full((4, 1), 100.0)
    exc = excitation_phase(f, _grid(4))
    amps = np.full((4, 1), 0.2)
    out = synthesize_qhm(_compensated_set(f, np.zeros((4, 1))))
    assert out.samples.tobytes() == render(amps, exc, _grid(4), FS).samples.tobytes()
    comp = np.zeros((4, 1))
    comp[0, 0] = np.pi / 2
    out = synthesize_qhm(_compensated_set(f, comp))
    expect = render(amps, exc + np.pi / 2, _grid(4), FS)
    assert out.samples.tobytes() == expect.samples.tobytes()


def test_synthesize_qhm_compensation_prefix_sum_oracle():
    rng = np.random.default_rng(3)
    f = rng.uniform(100.0, 3000.0, (6, 2))
    comp = rng.uniform(-np.pi, np.pi, (6, 2))
    phase = excitation_phase(f, _grid(6))
    running = np.zeros(2)
    for l in range(6):
        running = running + comp[l]
        phase[l] += running
    out = synthesize_qhm(_compensated_set(f, comp))
    expect = render(np.full((6, 2), 0.2), phase, _grid(6), FS)
    np.testing.assert_allclose(out.samples, expect.samples, atol=1e-9)


def test_synthesize_qhm_compensation_range_error():
    """Every harmonic set, and so every product synthesize_qhm reads, holds
    compensations in [-pi, pi]."""
    f = np.full((2, 1), 100.0)
    with pytest.raises(AnalysisError, match=r"\[-pi, pi\]"):
        _compensated_set(f, np.full((2, 1), 4.0))
    _compensated_set(f, np.full((2, 1), -np.pi))


# --- cascade_tracks delays --------------------------------------------------

def _all_live(f):
    return np.ones(np.shape(f), dtype=bool)


def test_cascade_tracks_identity_cascade():
    frames = [CascadeFrame(1.0, [ArmaSection(np.zeros(4), np.zeros(4))])
              for _ in range(3)]
    cascade = cascade_of(frames, 0.01)
    f = np.full((3, 2), 200.0)
    exc = excitation_phase(f, cascade.grid)
    amps, phases, audible = cascade_tracks(cascade, f, _all_live(f))
    np.testing.assert_allclose(phases, exc, atol=1e-12)
    np.testing.assert_array_equal(amps, 1.0)
    assert audible.all()


def test_cascade_tracks_delay_constant_offset():
    sec = ArmaSection(np.array([-0.6, 0.1, 0.0, 0.0]), np.zeros(4))
    frames = [CascadeFrame(1.0, [sec]) for _ in range(4)]
    cascade = cascade_of(frames, 0.01)
    f = np.full((4, 1), 700.0)
    exc = excitation_phase(f, cascade.grid)
    env = sample_harmonics(frames[0], 700.0, FS)
    amps, phases, _ = cascade_tracks(cascade, f, _all_live(f))
    np.testing.assert_allclose(phases, exc + env.phase_delays[0], atol=1e-12)
    np.testing.assert_array_equal(amps, env.magnitudes[0])
    # time scales stretch the excitation steps and leave the delays
    betas = np.array([1.0, 2.0, 0.5, 3.0])
    _, stretched, _ = cascade_tracks(cascade, f, _all_live(f), betas)
    np.testing.assert_allclose(stretched, excitation_phase(f, cascade.grid, betas)
                               + env.phase_delays[0], atol=1e-12)


def test_cascade_tracks_delay_composition_oracle(vowel_data):
    _, _, cascade, _ = vowel_data
    sub = ArmaCascade(_grid(3, cascade.grid.frame_shift), cascade.gain[:3], cascade.ar[:3],
                      cascade.ma[:3], FS)
    f = np.tile([150.0, 300.0, 450.0], (3, 1))
    exc = excitation_phase(f, sub.grid)
    _, out, _ = cascade_tracks(sub, f, _all_live(f))
    for l in range(3):
        d = sample_harmonics(frame_at(cascade, l), f[l], FS).phase_delays
        # equality holds mod 2*pi (the delay track is unwrapped frame-wise)
        err = np.angle(np.exp(1j * (out[l] - exc[l] - d)))
        np.testing.assert_allclose(err, 0.0, atol=1e-10)


def test_cascade_tracks_delay_unwraps_along_frames():
    """A delay that crosses the branch cut between frames is unwrapped, so
    the phase track stays continuous."""
    r = 0.95
    ar = np.convolve([1.0, -2 * r * np.cos(0.2), r * r], [1.0, -2 * r * np.cos(0.4), r * r])
    frames = [CascadeFrame(1.0, [ArmaSection(ar[1:], np.zeros(2))]) for _ in range(2)]
    cascade = cascade_of(frames, 0.01)
    # between the two resonances the section's angle runs through -pi
    f = np.array([[1375.0], [1450.0]])
    _, delays = sample_cascade(cascade, f)
    assert delays[0, 0] < -2.5 and delays[1, 0] > 2.5
    _, phases, _ = cascade_tracks(cascade, f, _all_live(f))
    delayed = phases - excitation_phase(f, cascade.grid)
    np.testing.assert_allclose(delayed, [delays[0], delays[1] - 2 * np.pi], atol=1e-12)


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
    empty = HarmonicSet(FrameGrid(np.zeros(0), 0.01, 0.010), np.zeros((0, 1)), np.zeros((0, 1)),
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
        phi = pchip_per_column(grid.centers, phis[:, k], tt)
        a = np.interp(tt, grid.centers, amps[:, k])
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


def _centers(kind, L):
    """Frame centers of one shape: on sample times or off them, uniform or
    jittered, or the stretched grid of a constant time scale."""
    rng = np.random.default_rng(L)
    if kind == "uniform-on-samples":
        return np.arange(L) * 120 / FS
    if kind == "uniform-off-samples":
        return 0.0123 + 0.005 * np.arange(L)
    if kind == "jittered-on-samples":
        return np.cumsum(rng.integers(30, 300, L)) / FS
    if kind == "jittered-off-samples":
        return 0.0123 + np.cumsum(np.r_[0.0, rng.uniform(0.004, 0.011, L - 1)])
    beta = float(kind.split("=")[1])
    return scaled_times(_grid(L, 0.005), np.full(L, beta))


@pytest.mark.parametrize("kind", ["uniform-on-samples", "uniform-off-samples",
                                  "jittered-on-samples", "jittered-off-samples",
                                  "beta=0.7", "beta=2.0"])
@pytest.mark.parametrize("L", [2, 3, 12])
def test_render_matches_per_column_pchip(L, kind):
    """One coefficient pass and one interval search give the bytes of one
    interpolator per column, on every support a column can have."""
    centers = _centers(kind, L)
    grid = FrameGrid(centers, 0.005, 0.010)
    rng = np.random.default_rng(5)
    amps = np.zeros((L, 6))
    amps[0, 0] = 0.3                          # first frame only
    amps[-1, 1] = -0.2                        # last frame only
    amps[L // 2, 2] = 0.4                     # one interior frame when L > 2
    amps[:, 3] = rng.uniform(0.1, 0.5, L)     # everywhere
    amps[:, 5] = rng.uniform(-0.5, 0.5, L)    # everywhere, signs mixed
    # column 4 stays all zero
    phis = excitation_phase(rng.uniform(100, 3000, (L, 6)), grid) + rng.uniform(-3, 3, 6)
    out = render(amps, phis, grid, FS).samples
    assert out.tobytes() == _render_every_sample(amps, phis, grid).tobytes()


def _islands(rng):
    """Four columns over 31 frames: one heard throughout, one heard on half
    of its support's intervals, and two heard on less than half of their
    support, as scattered islands."""
    amps = np.zeros((31, 4))
    amps[:, 0] = rng.uniform(0.1, 0.5, 31)        # heard throughout
    amps[[12, 18], 1] = [0.25, -0.35]             # heard on 4 of its 8 intervals
    # single frames by an empty interval of _blocks_case, and an island at
    # the held tail
    amps[[1, 10, 29, 30], 2] = [0.3, -0.4, 0.31, -0.27]
    # an island, and a run across output sample 4096, a block cut
    amps[2, 3] = -0.2
    amps[24:28, 3] = [0.4, -0.1, 0.3, -0.5]
    return amps


def _blocks_case():
    """A clip of about 5000 samples whose jittered centers lie off the sample
    times, with two pairs of centers closer than one sample period, so that
    intervals 4 and 9 hold no sample, and whose last output sample lies past
    t_L, where it holds the end values. Columns 6-9 are the _islands."""
    rng = np.random.default_rng(24)
    gaps = rng.uniform(0.004, 0.011, 30)
    gaps[[4, 9]] = 0.2 / FS
    centers = 0.0123 + np.cumsum(np.r_[0.0, gaps])
    span = (centers[-1] - centers[0]) * FS
    centers[-1] += (np.floor(span) + 0.7 - span) / FS
    L, K = len(centers), 10
    grid = FrameGrid(centers, 0.005, 0.010)
    amps = np.zeros((L, K))
    amps[:, 0] = rng.uniform(0.1, 0.5, L)     # everywhere
    amps[5:15, 1] = rng.uniform(0.1, 0.5, 10)  # part of the clip, across block cuts
    amps[-1, 2] = 0.3                         # last frame only: the held tail
    amps[[0, 9], 3] = [0.2, -0.4]             # first frame, and by an empty interval
    amps[:, 5] = rng.uniform(-0.5, 0.5, L)    # everywhere, signs mixed
    # column 4 stays all zero
    amps[:, 6:] = _islands(rng)
    phis = excitation_phase(rng.uniform(100, 3000, (L, K)), grid) + rng.uniform(-3, 3, K)
    return amps, phis, grid


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("block", [1, 7, 120, 4096])
def test_render_blocks_and_workers_change_no_bit(monkeypatch, block, cpus):
    """Each sample sums the same terms in the same order whatever the block
    size and the number of workers, so the bytes equal the oracle's and
    those of the default one-block render; two usable CPUs render two or
    more blocks on a pool, one CPU renders them inline."""
    amps, phis, grid = _blocks_case()
    n = int(round((grid.centers[-1] - grid.centers[0]) * FS)) + 1
    assert (n - 1) / FS > grid.centers[-1] - grid.centers[0]
    assert 4096 < n < synth.RENDER_BLOCK
    heard, support = heard_samples(amps[:, 6:], grid.centers)
    assert heard[0] == support[0] == n and np.all(2 * heard[2:] < support[2:])
    default = render(amps, phis, grid, FS).samples
    assert default.tobytes() == _render_every_sample(amps, phis, grid).tobytes()
    pools = []

    class CountedPool(synth.ThreadPoolExecutor):
        def __init__(self, workers):
            pools.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(synth, "ThreadPoolExecutor", CountedPool)
    monkeypatch.setattr(synth, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(synth, "RENDER_BLOCK", block)
    assert render(amps, phis, grid, FS).samples.tobytes() == default.tobytes()
    assert pools == ([2] if cpus == 2 else [])


@pytest.mark.parametrize("kind", ["uniform-on-samples", "uniform-off-samples",
                                  "jittered-on-samples", "jittered-off-samples",
                                  "beta=0.7", "beta=2.0"])
def test_render_islands_match_per_column_pchip(kind):
    """Columns heard on less than half of their support evaluate only their
    heard samples, beside a column heard on half of it and one heard
    throughout, with the bytes of one interpolator per column."""
    grid = FrameGrid(_centers(kind, 31), 0.005, 0.010)
    rng = np.random.default_rng(27)
    amps = _islands(rng)
    phis = excitation_phase(rng.uniform(100, 3000, (31, 4)), grid) + rng.uniform(-3, 3, 4)
    heard, support = heard_samples(amps, grid.centers)
    assert heard[0] == support[0] and np.all(2 * heard[2:] < support[2:])
    if kind == "uniform-on-samples":
        assert 2 * heard[1] == support[1]
    out = render(amps, phis, grid, FS).samples
    assert out.tobytes() == _render_every_sample(amps, phis, grid).tobytes()


def test_one_pchip_per_render(monkeypatch, vowel_data):
    """The phase coefficients of every live column come from one pass."""
    built = []
    pchip = synth._pchip

    def counted(*args):
        built.append(1)
        return pchip(*args)

    monkeypatch.setattr(synth, "_pchip", counted)
    grid = _grid(12)
    amps = np.full((12, 8), 0.1)
    phis = excitation_phase(np.full((12, 8), 100.0) * np.arange(1, 9), grid)
    render(amps, phis, grid, FS)
    assert len(built) == 1
    render(np.zeros((12, 8)), phis, grid, FS)
    assert len(built) == 1
    _, _, cascade, track = vowel_data
    synthesize_arma(cascade, track)
    assert len(built) == 2



# knot values with repeats (flat runs), exact and signed zeros and sign changes
_KNOT_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]) | st.floats(-1e6, 1e6)


@given(steps=st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=8),
       origin=st.floats(-100.0, 100.0), data=st.data())
@settings(max_examples=300, deadline=None)
def test_pchip_coefficients_equal_scipy(steps, origin, data):
    """The coefficient pass gives scipy's PchipInterpolator(x, y).c bit for
    bit, from two knots (the line) up, on columns with flat runs, sign
    changes and exact zeros."""
    x = origin + np.cumsum(np.r_[0.0, steps])
    y = data.draw(arrays(np.float64, (len(x), data.draw(st.integers(1, 4))),
                         elements=_KNOT_VALUES))
    got = synth._pchip(x, y)
    assert got.shape == (4, len(x) - 1, y.shape[1])
    assert got.tobytes() == PchipInterpolator(x, y).c.tobytes()

def _unit_render(centers, phases):
    """2 * 0.5 * cos(phi(t)): the rendered samples of one unit component."""
    grid = FrameGrid(np.asarray(centers, dtype=np.float64), 0.005, 0.010)
    phases = np.asarray(phases, dtype=np.float64)[:, None]
    return render(np.full(phases.shape, 0.5), phases, grid, FS).samples


def _output_times(centers):
    """The times of render's output samples, not held at the last center."""
    n = int(round((centers[-1] - centers[0]) * FS)) + 1
    return centers[0] + np.arange(n) / FS


def test_render_phase_reproduces_affine():
    centers = np.array([0.0, 0.003, 0.011, 0.020])
    tt = _output_times(centers)
    out = _unit_render(centers, 300.0 * centers + 1.0)
    np.testing.assert_allclose(out, np.cos(300.0 * tt + 1.0), atol=1e-12)


def test_render_phase_exact_at_knots_and_monotone():
    """On [0, pi] the cosine is decreasing, so the samples are monotone and
    stay within the knot values exactly when the interpolated phase does."""
    knots = np.array([0, 24, 48, 72])
    v = np.array([0.0, 0.1, 2.0, 2.05])
    out = _unit_render(knots / FS, v)
    np.testing.assert_allclose(out[knots], np.cos(v), atol=1e-13)
    assert np.all(np.diff(out) <= 1e-12)
    assert out.min() >= np.cos(v.max()) - 1e-12 and out.max() <= np.cos(v.min()) + 1e-12


@given(st.lists(st.integers(1, 300), min_size=1, max_size=11),
       st.lists(st.floats(-1e3, 1e3), min_size=12, max_size=12))
@settings(max_examples=60, deadline=None)
def test_render_phase_exact_at_knots_property(gaps, values):
    knots = np.concatenate(([0], np.cumsum(gaps)))
    v = np.asarray(values[:knots.size])
    out = _unit_render(knots / FS, v)
    # a knot's own interval starts at it, where the polynomial is its value
    assert out[knots[:-1]].tobytes() == np.cos(v[:-1]).tobytes()
    np.testing.assert_allclose(out[knots[-1]], np.cos(v[-1]), atol=1e-9)


def test_render_phase_holds_endpoint():
    """The last sample falls past the last center, where the phase holds."""
    centers = np.array([0.0, 100.0, 240.6]) / FS
    assert _output_times(centers)[-1] > centers[-1]
    out = _unit_render(centers, [2.0, 3.5, 5.0])
    np.testing.assert_allclose(out[-1], np.cos(5.0), atol=1e-12)


@given(st.floats(-5000, 5000), st.floats(-50, 50))
@settings(max_examples=40, deadline=None)
def test_render_affine_phase_property(slope, intercept):
    centers = np.array([0.0, 0.005, 0.0125, 0.030, 0.040])
    out = _unit_render(centers, slope * centers + intercept)
    np.testing.assert_allclose(out, np.cos(slope * _output_times(centers) + intercept),
                               atol=1e-9)


def test_cascade_tracks_and_synthesize_qhm_mute_aliasing():
    """Components above Nyquist - NYQUIST_GUARD are muted: by cascade_tracks,
    which also mutes components that are not live, and by synthesize_qhm."""
    frames = [CascadeFrame(1.0, [ArmaSection(np.zeros(2), np.zeros(2))]) for _ in range(2)]
    cascade = cascade_of(frames, 0.01)
    f = np.array([[100.0, 11990.0], [100.0, 200.0]])
    live = np.array([[True, True], [True, False]])
    amps, _, audible = cascade_tracks(cascade, f, live)
    np.testing.assert_array_equal(amps, [[1.0, 0.0], [1.0, 0.0]])
    np.testing.assert_array_equal(audible, [[True, False], [True, False]])
    hset = HarmonicSet(_grid(2), f, np.ones((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)), FS)
    expect = render([[1.0, 0.0], [1.0, 1.0]], excitation_phase(f, _grid(2)), _grid(2), FS)
    assert synthesize_qhm(hset).samples.tobytes() == expect.samples.tobytes()


def test_synthesize_arma_mutes_a_fundamental_above_the_limit():
    """A frame whose lone component lies at Nyquist is muted, and its knot's
    phase delay is sampled at Nyquist - NYQUIST_GUARD instead of refused."""
    cascade = fixtures.vowel_cascade(FS, 5, 0.005, 0.010)
    f0 = np.full(5, 150.0)
    f0[2] = FS / 2
    track = F0Track(cascade.grid, f0)
    out = synthesize_arma(cascade, track)
    assert len(out) == 481 and np.all(np.isfinite(out.samples))
    assert out.samples[240] == 0.0      # the muted frame's centre
    freqs, counts = harmonic_grid(track, FS)
    assert counts[2] == 1 and freqs[2, 0] == FS / 2
    live = np.arange(freqs.shape[1]) < counts[:, None]
    amps, phases, audible = cascade_tracks(cascade, freqs, live)
    assert not audible[2].any() and not amps[2].any()
    d = sample_harmonics(frame_at(cascade, 2), FS / 2 - 50.0, FS).phase_delays[0]
    exc = excitation_phase(freqs, cascade.grid)
    np.testing.assert_allclose(np.angle(np.exp(1j * (phases[2, 0] - exc[2, 0] - d))), 0.0,
                               atol=1e-10)


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
    none = FrameGrid(np.zeros(0), 0.005, 0.010)
    empty = ArmaCascade(none, np.zeros(0), np.zeros((0, 1, 0)), np.zeros((0, 1, 0)), FS)
    assert len(synthesize_arma(empty, F0Track(none, np.zeros(0)))) == 0


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


def test_render_calls_no_interp(monkeypatch):
    """Amplitudes come from the interval search that places every sample's
    phase, so rendering calls np.interp for no column."""
    cascade = fixtures.vowel_cascade(FS, 41, 0.005, 0.010, 0.05)
    track = F0Track(cascade.grid, np.full(41, 140.0))
    calls = []
    interp = np.interp

    def counting(*args, **kwargs):
        calls.append(args)
        return interp(*args, **kwargs)

    monkeypatch.setattr(np, "interp", counting)
    out = synthesize_arma(cascade, track).samples
    assert np.abs(out).max() > 0
    assert len(calls) == 0


@pytest.mark.parametrize("frame_shift", [0.005, 0.01, 0.0125])
def test_vowel_cascade_has_one_frame_per_grid_centre(frame_shift):
    """The cascade's grid has n_frames centres for every count, including
    those where (n - 1) * shift / shift floors to n - 2."""
    for n in range(1, 3000):
        cascade = fixtures.vowel_cascade(FS, n, frame_shift, 0.010)
        assert len(cascade.grid) == cascade.n_frames == n, n
