"""Time-stretch and pitch-shift: schedules, scaled grids, bank splitting,
and the full modification pipeline."""
import importlib
import re

import numpy as np
import pytest

from conftest import frame_at, heard_samples
from quasivoc import arma, fixtures, synth
from quasivoc.arma import ArmaCascade, sample_cascade, sample_harmonics
from quasivoc.modify import (ModificationError, ScaleSchedule, load_schedule,
                             modified_tracks, modify, scaled_times)
from quasivoc.qhm import F0Track, harmonic_grid
from quasivoc.signals import make_grid
from quasivoc.synth import excitation_phase, synthesize_arma

FS = 24000


def _identity_cascade(grid):
    """Gain 1 and one empty section on every frame: a flat, zero-phase envelope."""
    L = len(grid)
    return ArmaCascade(grid, np.ones(L), np.zeros((L, 1, 0)), np.zeros((L, 1, 0)), FS)


def _identity_schedule(track):
    return ScaleSchedule.constant(len(track.values), 1.0, 1.0, track.voiced)


def _banks(tracks, K):
    """Split (frames, 2K) modified tracks into the voiced and unvoiced halves."""
    return tracks[:, :K], tracks[:, K:]


# --- schedules -------------------------------------------------------------

def test_schedule_validation():
    with pytest.raises(ModificationError):
        ScaleSchedule(np.array([1.0, -1.0]), np.ones(2), np.ones(2, bool))
    with pytest.raises(ModificationError):
        ScaleSchedule(np.ones(2), np.array([1.0, 0.0]), np.ones(2, bool))
    with pytest.raises(ModificationError):
        ScaleSchedule(np.ones(3), np.ones(2), np.ones(2, bool))


def test_schedule_from_breakpoints():
    grid = make_grid(0.02, 0.005, 0.010)
    sched = ScaleSchedule.from_breakpoints([0.0, 0.02], [1.0, 2.0], [1.0, 1.0],
                                           grid, np.ones(len(grid), bool))
    np.testing.assert_allclose(sched.betas, [1.0, 1.25, 1.5, 1.75, 2.0])
    np.testing.assert_allclose(sched.rhos, 1.0)
    # one breakpoint holds its values on every frame
    sched = ScaleSchedule.from_breakpoints([0.01], [1.5], [0.8], grid, np.ones(len(grid), bool))
    np.testing.assert_array_equal(sched.betas, 1.5)
    np.testing.assert_array_equal(sched.rhos, 0.8)
    with pytest.raises(ModificationError, match="breakpoint"):
        ScaleSchedule.from_breakpoints([], [], [], grid, np.ones(len(grid), bool))


def test_load_schedule(tmp_path):
    grid = make_grid(0.01, 0.005, 0.010)
    path = tmp_path / "sched.txt"
    path.write_text("# comment\n0.0 1.0 1.0\n0.01 2.0 1.5\n")
    sched = load_schedule(path, grid, np.ones(len(grid), bool))
    np.testing.assert_allclose(sched.betas, [1.0, 1.5, 2.0])
    np.testing.assert_allclose(sched.rhos, [1.0, 1.25, 1.5])
    bad = tmp_path / "bad.txt"
    bad.write_text("0.0 1.0\n")
    with pytest.raises(ModificationError):
        load_schedule(bad, grid, np.ones(len(grid), bool))
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(ModificationError):
        load_schedule(empty, grid, np.ones(len(grid), bool))
    bad.write_text("# comment\n0.0 1.0 1.0\n0.01 fast 1.0\n")
    with pytest.raises(ModificationError, match=re.escape(f"{bad}:3: ")):
        load_schedule(bad, grid, np.ones(len(grid), bool))
    for text in ("nan 1.0 1.0\n", "0.01 2.0 1.0\n0.0 1.0 1.0\n", "0.0 1.0 1.0\n0.0 2.0 1.0\n"):
        bad.write_text(text)     # a time that is not finite, decreasing, repeated
        with pytest.raises(ModificationError):
            load_schedule(bad, grid, np.ones(len(grid), bool))


# --- scaled times ----------------------------------------------------------

def test_scaled_times_identity_and_double():
    grid = make_grid(0.02, 0.005, 0.010)
    np.testing.assert_allclose(scaled_times(grid, np.ones(len(grid))),
                               grid.centers, atol=1e-15)
    np.testing.assert_allclose(scaled_times(grid, np.full(len(grid), 2.0)),
                               0.01 * np.arange(len(grid)), atol=1e-15)


def test_scaled_times_prefix_sum_oracle():
    grid = make_grid(0.01, 0.005, 0.010)
    out = scaled_times(grid, np.array([1.0, 2.0, 1.0]))
    np.testing.assert_allclose(out, [0.0, 0.01, 0.015], atol=1e-15)
    with pytest.raises(ModificationError):
        scaled_times(grid, np.array([1.0, 0.0, 1.0]))


# --- bank amplitudes and phases --------------------------------------------

def test_modified_amplitudes_identity_matches_synthesis(vowel_data):
    _, _, cascade, track = vowel_data
    sched = _identity_schedule(track)
    freqs, counts = harmonic_grid(track, FS)
    amps, _ = modified_tracks(cascade, sched, freqs, counts)
    amps_v, amps_uv = _banks(amps, freqs.shape[1])
    assert np.all(amps_v.max(axis=1) > 0)  # every voiced frame keeps a component
    np.testing.assert_array_equal(amps_uv, 0.0)  # all frames voiced
    for l in (0, 50, 100):
        env = sample_harmonics(frame_at(cascade, l), freqs[l], FS)
        np.testing.assert_allclose(amps_v[l, :counts[l]],
                                   env.magnitudes[:counts[l]], rtol=1e-12)


def test_modified_amplitudes_unvoiced_masking(vowel_data):
    _, _, cascade, track = vowel_data
    vuv = track.voiced.copy()
    vuv[:10] = False
    sched = ScaleSchedule.constant(len(vuv), 1.0, 1.0, vuv)
    freqs, counts = harmonic_grid(track, FS)
    amps, _ = modified_tracks(cascade, sched, freqs, counts)
    amps_v, amps_uv = _banks(amps, freqs.shape[1])
    np.testing.assert_array_equal(amps_v[:10], 0.0)
    assert amps_uv[:10].max() > 0
    # mask partition: one bank is all-zero at every frame
    for l in range(len(vuv)):
        assert amps_v[l].max() == 0.0 or amps_uv[l].max() == 0.0


def test_modified_amplitudes_flat_envelope_power():
    """Doubling pitch halves K; the gain normalization keeps the power sum."""
    grid = make_grid(0.01, 0.005, 0.010)
    L = len(grid)
    cascade = _identity_cascade(grid)
    track = F0Track(grid, np.full(L, 200.0))
    sched = ScaleSchedule.constant(L, 1.0, 2.0, track.voiced)
    freqs, counts = harmonic_grid(track, FS)
    amps, _ = modified_tracks(cascade, sched, freqs, counts)
    amps_v, _ = _banks(amps, freqs.shape[1])
    p_orig = np.sum(2 * np.ones(counts[0]) ** 2)
    p_mod = np.sum(2 * amps_v[0] ** 2)
    assert abs(p_mod - p_orig) / p_orig < 0.01
    live = amps_v[0][amps_v[0] > 0]
    np.testing.assert_allclose(live, np.sqrt(counts[0] / live.size), rtol=1e-12)


def test_modified_amplitudes_all_aliased_muted():
    cascade = _identity_cascade(make_grid(0.005, 0.005, 0.010))
    sched = ScaleSchedule.constant(2, 1.0, 130.0, np.ones(2, bool))
    freqs = np.full((2, 3), 100.0)  # rho * f = 13 kHz, beyond Nyquist
    amps, phases = modified_tracks(cascade, sched, freqs, np.full(2, 3, dtype=np.int64))
    amps_v, _ = _banks(amps, 3)
    np.testing.assert_array_equal(amps_v, 0.0)
    assert np.all(np.isfinite(phases))


def test_modified_phases_identity(vowel_data):
    _, _, cascade, track = vowel_data
    grid = cascade.grid
    ident = _identity_cascade(grid)
    sched = _identity_schedule(track)
    freqs, counts = harmonic_grid(track, FS)
    _, phases = modified_tracks(ident, sched, freqs, counts)
    for out in _banks(phases, freqs.shape[1]):
        np.testing.assert_allclose(out, excitation_phase(freqs, grid), atol=1e-12)


def test_modified_phases_beta_doubles_increments():
    grid = make_grid(0.02, 0.005, 0.010)
    L = len(grid)
    ident = _identity_cascade(grid)
    sched = ScaleSchedule.constant(L, 2.0, 1.0, np.ones(L, bool))
    f = np.full((L, 1), 100.0)
    _, phases = modified_tracks(ident, sched, f, np.ones(L, dtype=np.int64))
    base = excitation_phase(f, grid)
    for out in _banks(phases, 1):
        np.testing.assert_allclose(np.diff(out, axis=0), 2 * np.diff(base, axis=0),
                                   atol=1e-12)


def test_modified_phases_composition_oracle(vowel_data):
    _, _, cascade, track = vowel_data
    L = cascade.n_frames
    rng = np.random.default_rng(19)
    betas = rng.uniform(0.5, 2.0, L)
    sched = ScaleSchedule(betas, np.full(L, 1.3), track.voiced)
    freqs, counts = harmonic_grid(track, FS)
    _, phases = modified_tracks(cascade, sched, freqs, counts)
    dt = np.diff(cascade.grid.centers)
    # the voiced bank runs at rho * f, the unvoiced bank at f
    for out, f in zip(_banks(phases, freqs.shape[1]), (1.3 * freqs, freqs)):
        phi = np.zeros_like(f)
        for l in range(1, L):
            phi[l] = phi[l - 1] + np.pi * (f[l - 1] + f[l]) * betas[l] * dt[l - 1]
        for l in (0, 77, L - 1):
            safe = np.minimum(f[l], FS / 2 - 50.0)
            d = sample_harmonics(frame_at(cascade, l), safe, FS).phase_delays
            err = np.angle(np.exp(1j * (out[l] - phi[l] - d)))
            np.testing.assert_allclose(err, 0.0, atol=1e-8)


# --- full pipeline ---------------------------------------------------------

def test_modify_identity_reproduces_synthesis(vowel_data):
    _, _, cascade, track = vowel_data
    plain = synthesize_arma(cascade, track)
    out = modify(cascade, track, _identity_schedule(track))
    assert len(out) == len(plain)
    np.testing.assert_allclose(out.samples, plain.samples, atol=1e-9)


def test_modify_beta_doubles_duration(vowel_data):
    _, _, cascade, track = vowel_data
    sched = ScaleSchedule.constant(cascade.n_frames, 2.0, 1.0, track.voiced)
    plain = synthesize_arma(cascade, track)
    out = modify(cascade, track, sched)
    assert abs(out.duration - 2 * plain.duration) <= cascade.grid.frame_shift


def test_modify_rho_doubles_pitch(vowel_data):
    from quasivoc.qhm import detect_f0
    _, _, cascade, track = vowel_data
    sched = ScaleSchedule.constant(cascade.n_frames, 1.0, 2.0, track.voiced)
    out = modify(cascade, track, sched)
    grid = make_grid(out.duration - 1.0 / FS, 0.005, 0.010)
    got = detect_f0(out, grid)
    voiced = got.values[got.voiced][3:-3]
    assert voiced.size > 0
    assert np.all(np.abs(voiced - 300.0) / 300.0 <= 0.02)


def test_modify_leaves_cascade_untouched(vowel_data):
    _, _, cascade, track = vowel_data
    freqs = np.tile(np.linspace(0.01, 3.0, 50) * FS / (2 * np.pi), (cascade.n_frames, 1))
    before = sample_cascade(cascade, freqs)
    arrays = [x.copy() for x in (cascade.gain, cascade.ar, cascade.ma)]
    modify(cascade, track,
           ScaleSchedule.constant(cascade.n_frames, 1.7, 1.4, track.voiced))
    after = sample_cascade(cascade, freqs)
    for old, new in zip(before, after):
        assert old.tobytes() == new.tobytes()
    for old, new in zip(arrays, (cascade.gain, cascade.ar, cascade.ma)):
        assert old.tobytes() == new.tobytes()


def test_modify_grid_mismatch(vowel_data):
    from quasivoc.signals import SignalError
    _, _, cascade, track = vowel_data
    sched = ScaleSchedule.constant(3, 1.0, 1.0, np.ones(3, bool))
    with pytest.raises(SignalError):
        modify(cascade, track, sched)



def test_modify_samples_every_frame_at_once(monkeypatch):
    """The per-frame sampler does not run."""
    cascade = fixtures.vowel_cascade(FS, 41, 0.005, 0.010, 0.05)
    f0 = np.full(41, 140.0)
    f0[10:15] = 0.0
    track = F0Track(cascade.grid, f0)
    sched = ScaleSchedule.constant(41, 1.5, 1.3, track.voiced)
    expect = modify(cascade, track, sched).samples

    def forbidden(*args, **kwargs):
        raise AssertionError("per-frame envelope sampling")

    monkeypatch.setattr(arma, "sample_harmonics", forbidden)
    assert modify(cascade, track, sched).samples.tobytes() == expect.tobytes()


def test_one_envelope_pass_per_call(monkeypatch):
    """synthesize_arma and modify each sample the envelope exactly once."""
    cascade = fixtures.vowel_cascade(FS, 21, 0.005, 0.010, 0.05)
    f0 = np.full(21, 140.0)
    f0[5:8] = 0.0
    track = F0Track(cascade.grid, f0)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return arma.sample_cascade(*args, **kwargs)

    monkeypatch.setattr(synth, "sample_cascade", counted)
    synth.synthesize_arma(cascade, track)
    assert len(calls) == 1
    calls.clear()
    modify(cascade, track, ScaleSchedule.constant(21, 1.5, 1.3, track.voiced))
    assert len(calls) == 1


class _CountingNumpy:
    """numpy, with a count of the samples passed to cos."""

    def __init__(self):
        self.cos_samples = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def cos(self, x, *args, **kwargs):
        self.cos_samples += np.size(x)
        return np.cos(x, *args, **kwargs)


def test_modify_evaluates_only_heard_samples(monkeypatch):
    """A column heard on less than half of its support passes only its heard
    samples to cos, and every other column its whole support: every fifth
    frame unvoiced leaves the unvoiced bank heard on about two fifths."""
    cascade = fixtures.vowel_cascade(FS, 41, 0.005, 0.010, 0.05)
    f0 = np.full(41, 140.0)
    f0[::5] = 0.0
    track = F0Track(cascade.grid, f0)
    rendered = []

    def kept(amps, phases, grid, sample_rate):
        rendered.append((amps, grid))
        return synth.render(amps, phases, grid, sample_rate)

    counting = _CountingNumpy()
    monkeypatch.setattr(importlib.import_module("quasivoc.modify"), "render", kept)
    monkeypatch.setattr(synth, "np", counting)
    modify(cascade, track, ScaleSchedule.constant(41, 1.37, 1.3, track.voiced))
    [(amps, grid)] = rendered
    heard, support = heard_samples(amps, grid.centers)
    gathered = 2 * heard < support
    # the voiced bank is heard throughout, the unvoiced one gathers
    K = amps.shape[1] // 2
    assert np.all(heard[:K] == support[:K]) and support[:K].any()
    assert np.all(gathered[K:] == (support[K:] > 0)) and gathered[K:].any()
    assert counting.cos_samples == np.where(gathered, heard, support).sum()


def test_modify_renders_once(monkeypatch):
    """Both banks go to one render call as (frames, 2K) tracks, and its
    output is modify's."""
    cascade = fixtures.vowel_cascade(FS, 21, 0.005, 0.010, 0.05)
    f0 = np.full(21, 140.0)
    f0[5:8] = 0.0
    track = F0Track(cascade.grid, f0)
    freqs, _ = harmonic_grid(track, FS)
    outputs = []

    def counted(amps, phases, grid, sample_rate):
        assert amps.shape == phases.shape == (21, 2 * freqs.shape[1])
        outputs.append(synth.render(amps, phases, grid, sample_rate))
        return outputs[-1]

    # the package re-exports the modify() function under the module's name
    modify_module = importlib.import_module("quasivoc.modify")
    monkeypatch.setattr(modify_module, "render", counted)
    out = modify(cascade, track, ScaleSchedule.constant(21, 1.5, 1.3, track.voiced))
    assert len(outputs) == 1 and out is outputs[0]


def test_modify_bytes_do_not_depend_on_usable_cpus(monkeypatch):
    """A stretched clip of several render blocks gives the same bytes on
    one usable CPU (blocks inline) as on two (blocks on a pool)."""
    cascade = fixtures.vowel_cascade(FS, 161, 0.005, 0.010)
    f0 = np.full(161, 150.0)
    f0[60:70] = 0.0
    track = F0Track(cascade.grid, f0)
    schedule = ScaleSchedule.constant(161, 2.0, 1.5, track.voiced)
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(synth, "_usable_cpus", lambda: cpus)
        runs.append(modify(cascade, track, schedule).samples)
    assert len(runs[0]) > synth.RENDER_BLOCK
    assert runs[0].tobytes() == runs[1].tobytes()
