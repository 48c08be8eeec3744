"""Top-level acceptance checks, one per release criterion.

Each test prints a single PASS/FAIL line with its measured numbers; the
assertions pin the tolerances.
"""
import hashlib
import time

import numpy as np
import pytest

from conftest import cascade_of, filter_time_domain, frame_at, stacked_cascade
from quasivoc import fixtures
from quasivoc.arma import (ArmaSection, CascadeFrame, _wrap, correction_capacity,
                           fit_cascade, fit_targets, project_stable, sample_cascade,
                           sample_harmonics)
from quasivoc.metrics import f0_rmse, mcd, mel_cepstrum, rtf, snr, vuv_rate
from quasivoc.modify import ScaleSchedule, modify
from quasivoc.qhm import F0Track, analyze, analyze_qhm, detect_f0, refine_adaptive
from quasivoc.serialize import cascade_to_bytes, harmonics_to_bytes
from quasivoc.signals import FrameGrid, SignalBuffer, make_grid
from quasivoc.synth import synthesize_arma, synthesize_qhm

FS = 24000


def _report(number, name, ok, detail):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {number} ({name}): {detail}"


def _interior_snr(ref, gen, trim):
    n = min(len(ref), len(gen))
    r = ref[trim:n - trim]
    g = gen[trim:n - trim]
    err = np.sum((r - g) ** 2)
    if err == 0:
        return 120.0
    return 10 * np.log10(np.sum(r ** 2) / err)


def test_criterion_1_frequency_correction():
    t0 = time.time()
    # one frame at the centre of a 481-sample clip, under a full Hann window
    grid = FrameGrid(np.array([240 / FS]), 0.005, 0.010)
    t = (np.arange(481) - 240) / FS

    def corrected(f_true, f_seed):
        buf = SignalBuffer(np.cos(2 * np.pi * f_true * t), FS)
        hset = analyze_qhm(buf, grid, F0Track(grid, [f_seed]), max_components=1)
        assert not hset.flags[0] & 2
        return hset.frequencies[0, 0]

    one_pass = corrected(101.0, 100.0)
    ok_single = abs(one_pass - 101.0) <= 0.05

    rng = np.random.default_rng(15)
    worst_rel = 0.0
    for _ in range(25):
        offset = rng.uniform(-5.0, 5.0)
        got = corrected(200.0 + offset, 200.0)
        worst_rel = max(worst_rel, abs(got - (200.0 + offset)) / abs(offset))
    elapsed = time.time() - t0
    _report(1, "frequency correction", ok_single and worst_rel <= 0.05
            and elapsed < 1.0,
            f"101 Hz -> {one_pass:.6f}, worst offset error {100 * worst_rel:.4f}%, "
            f"{elapsed:.2f} s")


def test_criterion_2_qhm_round_trip(multisine_data):
    t0 = time.time()
    buf, sidecar = multisine_data
    grid = make_grid(buf.duration - 1.0 / FS, 0.005, 0.010)
    track = F0Track(grid, np.full(len(grid), sidecar["f0"]))
    hset = analyze_qhm(buf, grid, track, max_components=10)
    out = synthesize_qhm(hset)
    n = min(len(out), len(buf))
    stationary_snr = 10 * np.log10(
        np.sum(buf.samples[:n] ** 2)
        / np.sum((buf.samples[:n] - out.samples[:n]) ** 2))

    cbuf, _ = fixtures.chirp(100.0, 140.0, 1.0, FS, n_harmonics=3)
    cgrid = make_grid(cbuf.duration - 1.0 / FS, 0.005, 0.010)
    ctrack = detect_f0(cbuf, cgrid)
    initial = analyze_qhm(cbuf, cgrid, ctrack, max_components=8)
    refined, errors = refine_adaptive(cbuf, initial, "aqhm", max_iters=3,
                                      return_errors=True)
    monotone = all(b < a for a, b in zip(errors, errors[1:]))
    cout = synthesize_qhm(refined)
    chirp_snr = _interior_snr(cbuf.samples, cout.samples, 240)
    elapsed = time.time() - t0
    _report(2, "qhm round trip",
            stationary_snr >= 30.0 and monotone and len(errors) >= 2
            and chirp_snr >= 20.0 and elapsed < 10.0,
            f"stationary {stationary_snr:.1f} dB, chirp {chirp_snr:.1f} dB, "
            f"errors {['%.3g' % e for e in errors]}, {elapsed:.1f} s")


def _draw_sections(rng, coeff_range, radius):
    """Two sections of AR and MA order 8, drawn section by section."""
    secs = [(project_stable(rng.uniform(-coeff_range, coeff_range, 8), radius=radius),
             rng.uniform(-coeff_range, coeff_range, 8)) for _ in range(2)]
    return [a for a, _ in secs], [b for _, b in secs]


def test_criterion_3_time_frequency_consistency():
    t0 = time.time()
    rng = np.random.default_rng(42)
    # an odd length puts every rfft bin below Nyquist, where sample_cascade samples
    n = 4097
    gains, ars, mas = [], [], []
    for _ in range(100):
        ar, ma = _draw_sections(rng, 0.3, 0.9)
        ars.append(ar)
        mas.append(ma)
        gains.append(float(np.exp(rng.uniform(-1, 1))))
    cascade = stacked_cascade(gains, ars, mas)
    h_eval, _ = sample_cascade(cascade, np.tile(np.arange(n // 2 + 1) * FS / n, (100, 1)))
    imp = np.zeros(n)
    imp[0] = 1.0
    worst = 0.0
    for l in range(100):
        h_time = filter_time_domain(cascade.gain[l], cascade.ar[l], cascade.ma[l], imp)
        h_dft = np.abs(np.fft.rfft(h_time))
        worst = max(worst, float(np.max(np.abs(h_dft - h_eval[l])
                                        / np.maximum(h_eval[l], 1e-30))))
    elapsed = time.time() - t0
    _report(3, "time/frequency consistency", worst < 1e-6 and elapsed < 5.0,
            f"worst relative error {worst:.2e} over 100 cascades, {elapsed:.1f} s")


def test_criterion_4_phase_delay_range():
    rng = np.random.default_rng(4)
    freqs = np.linspace(50.0, 11000.0, 50)
    in_range = True
    for _ in range(30):
        secs = [ArmaSection(project_stable(rng.uniform(-0.9, 0.9, 2), radius=0.95),
                            rng.uniform(-0.9, 0.9, 2)) for _ in range(8)]
        fr = CascadeFrame(1.0, secs)
        d = sample_harmonics(fr, freqs, FS).phase_delays
        in_range &= bool(np.all(np.abs(d) <= 8 * np.pi + 1e-12))

    # eight near-identical resonant poles stack their section angles far
    # beyond what a single section's principal value could express
    secs = [ArmaSection(np.array([-0.95, 0.0]), np.zeros(2)) for _ in range(8)]
    wide = CascadeFrame(1.0, secs)
    probe = 0.1 * FS / (2 * np.pi)  # omega = 0.1 rad/sample
    attained = abs(sample_harmonics(wide, probe, FS).phase_delays[0])

    frames = []
    for _ in range(20):
        secs = [ArmaSection(project_stable(rng.uniform(-0.6, 0.6, 2), radius=0.9),
                            rng.uniform(-0.6, 0.6, 2)) for _ in range(8)]
        frames.append(CascadeFrame(1.0, secs))
    dt = 0.005
    deltas, total = correction_capacity(cascade_of(frames, dt), 900.0)
    d0 = sample_harmonics(frames[0], 900.0, FS).phase_delays[0]
    dl = sample_harmonics(frames[-1], 900.0, FS).phase_delays[0]
    telescope_err = abs(total - (dl - d0) / (2 * np.pi * dt))
    bound_ok = abs(total) <= 8 / dt

    _report(4, "phase-delay range",
            in_range and attained > np.pi and telescope_err < 1e-9 and bound_ok,
            f"range held over 30 cascades, attained |delay| {attained:.2f} rad, "
            f"telescoping error {telescope_err:.1e}")


def test_criterion_5_envelope_fit_self_consistency():
    t0 = time.time()
    rng = np.random.default_rng(7)
    gains, ars, mas, freqs = [], [], [], []
    for _ in range(50):
        ar, ma = _draw_sections(rng, 0.5, 0.92)
        ars.append(ar)
        mas.append(ma)
        gains.append(float(np.exp(rng.uniform(-2, 1))))
        freqs.append(np.sort(rng.uniform(80.0, 11000.0, 30)))
    freqs = np.array(freqs)
    mags, delays = sample_cascade(stacked_cascade(gains, ars, mas), freqs)
    gain, ar, ma, _, _, _, _ = fit_targets(freqs, mags, _wrap(delays), FS, (16, 16, 2), 150)
    got_mags, got_delays = sample_cascade(stacked_cascade(gain, ar, ma), freqs)
    mag_db = np.max(20 / np.log(10) * np.abs(np.log(mags + 1e-7) - np.log(got_mags + 1e-7)),
                    axis=1)
    phase_err = np.max(np.abs(_wrap(delays - got_delays)), axis=1)
    hit = (mag_db <= 0.5) & (phase_err <= 0.2)
    ok = int(np.sum(hit))
    # the reported miss is the last trial that missed
    miss = np.flatnonzero(~hit)
    worst = (float(mag_db[miss[-1]]), float(phase_err[miss[-1]])) if miss.size else (0.0, 0.0)
    elapsed = time.time() - t0
    _report(5, "envelope fit self-consistency", ok >= 48 and elapsed < 60.0,
            f"{ok}/50 trials within 0.5 dB / 0.2 rad "
            f"(worst miss {worst[0]:.2f} dB / {worst[1]:.2f} rad), {elapsed:.1f} s")


def test_criterion_6_end_to_end_envelope_synthesis(vowel_data):
    buf, _, true_cascade, _ = vowel_data
    grid = true_cascade.grid
    hset, track = analyze(buf, grid)
    cascade = fit_cascade(hset, track, orders=(16, 16, 2), max_steps=150)
    out = synthesize_arma(cascade, track)
    got_snr = snr(out, buf)
    got_mcd = mcd(mel_cepstrum(out, grid), mel_cepstrum(buf, grid))
    _report(6, "end-to-end analysis/fit/synthesis",
            got_snr >= 20.0 and got_mcd <= 1.5,
            f"SNR {got_snr:.1f} dB, MCD {got_mcd:.3f} dB")


def test_criterion_7_modification_laws(vowel_data):
    buf, _, cascade, track = vowel_data
    plain = synthesize_arma(cascade, track)

    identity = modify(cascade, track,
                      ScaleSchedule.constant(cascade.n_frames, 1.0, 1.0,
                                             track.voiced))
    ident_err = float(np.max(np.abs(identity.samples - plain.samples)))

    probe = np.array([300.0, 1200.0, 5000.0])
    env_before = sample_harmonics(frame_at(cascade, 0), probe, FS).magnitudes.copy()

    shifted = modify(cascade, track,
                     ScaleSchedule.constant(cascade.n_frames, 1.0, 2.0,
                                            track.voiced))
    grid_out = make_grid(shifted.duration - 1.0 / FS, 0.005, 0.010)
    grid_ref = make_grid(plain.duration - 1.0 / FS, 0.005, 0.010)
    t_out = detect_f0(shifted, grid_out)
    t_ref = detect_f0(plain, grid_ref)
    n = min(len(t_out.values), len(t_ref.values))
    t_out = F0Track(make_grid((n - 1) * 0.005, 0.005, 0.010), t_out.values[:n])
    t_ref = F0Track(t_out.grid, t_ref.values[:n])
    both = t_out.voiced & t_ref.voiced
    per_frame = np.abs(t_out.values[both] / t_ref.values[both] - 2.0) / 2.0
    rmse = f0_rmse(t_out, t_ref, rhos=np.full(n, 2.0))

    stretched = modify(cascade, track,
                       ScaleSchedule.constant(cascade.n_frames, 2.0, 1.0,
                                              track.voiced))
    dur_err = abs(stretched.duration - 2 * plain.duration)

    env_after = sample_harmonics(frame_at(cascade, 0), probe, FS).magnitudes
    env_same = bool(np.array_equal(env_before, env_after))

    _report(7, "modification laws",
            ident_err <= 1e-9 and per_frame.size > 0
            and float(per_frame.max()) <= 0.02 and rmse <= 0.05
            and dur_err <= cascade.grid.frame_shift and env_same,
            f"identity max err {ident_err:.1e}, pitch-law worst "
            f"{100 * float(per_frame.max()):.2f}%, f0 RMSE {rmse:.2e}, "
            f"duration err {dur_err * 1000:.2f} ms, envelope unchanged {env_same}")


def test_criterion_8_metric_closed_forms():
    a = np.zeros((1, 24))
    b = a.copy()
    b[0, 3] = 0.25
    mcd_err = abs(mcd(b, a) - (10 * np.sqrt(2) / np.log(10)) * 0.25)

    grid = make_grid(0.015, 0.005, 0.010)
    ref = F0Track(grid, np.array([100.0, 150.0, 0.0, 220.0]))
    gen = F0Track(grid, 2.0 * ref.values)
    rho_case = f0_rmse(gen, ref, rhos=np.full(4, 2.0))

    mask = F0Track(grid, np.array([100.0, 0.0, 130.0, 0.0]))
    anti = F0Track(grid, np.array([0.0, 90.0, 0.0, 120.0]))
    complementary = vuv_rate(mask, anti)

    _report(8, "metric closed forms",
            mcd_err <= 1e-9 and rho_case == pytest.approx(0.0, abs=1e-12)
            and complementary == 100.0,
            f"mcd err {mcd_err:.1e}, rho-cancelled rmse {rho_case:.1e}, "
            f"complementary vuv {complementary}")


def test_criterion_9_real_time_factors():
    buf, _, cascade, track = fixtures.vowel(150.0, 5.0, FS)
    duration = buf.duration
    grid = cascade.grid

    def analysis():
        t = detect_f0(buf, grid)
        analyze_qhm(buf, grid, t)

    def synthesis():
        synthesize_arma(cascade, track)

    rtf_analysis = rtf(analysis, duration, runs=5)
    rtf_synthesis = rtf(synthesis, duration, runs=5)
    overall = rtf_analysis + rtf_synthesis
    _report(9, "real-time factors", rtf_synthesis < 1.0 and overall < 2.0,
            f"analysis {rtf_analysis:.3f}, synthesis {rtf_synthesis:.3f}, "
            f"overall {overall:.3f} (5 s audio, single process)")


def test_criterion_10_determinism(multisine_data):
    buf, sidecar = multisine_data
    grid = make_grid(0.2, 0.005, 0.010)
    track = F0Track(grid, np.full(len(grid), sidecar["f0"]))

    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    h_runs = {digest(harmonics_to_bytes(
        analyze_qhm(buf, grid, track, max_components=8))) for _ in range(2)}
    hset = analyze_qhm(buf, grid, track, max_components=8)
    c_runs = {digest(cascade_to_bytes(
        fit_cascade(hset, track, orders=(8, 8, 2), max_steps=60))) for _ in range(3)}
    cascade = fit_cascade(hset, track, orders=(8, 8, 2), max_steps=60)
    s_runs = {digest(synthesize_arma(cascade, track).samples.tobytes())
              for _ in range(2)}
    sched = ScaleSchedule.constant(cascade.n_frames, 1.3, 1.2, track.voiced)
    m_runs = {digest(modify(cascade, track, sched).samples.tobytes())
              for _ in range(2)}
    ok = all(len(s) == 1 for s in (h_runs, c_runs, s_runs, m_runs))
    _report(10, "determinism", ok,
            "analysis/fit/synthesis/modification hashes identical across runs")
