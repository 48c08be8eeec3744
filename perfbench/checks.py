"""Output checks and the deterministic counts and quality of a pipeline.

``check_pipeline`` runs after every pipeline, outside its timing, and
counts a failed operation for each output that is non-finite, has the
wrong sample rate, does not survive its container round trip, or whose
bytes differ from the first pipeline's. ``describe`` derives the
counters and quality figures once per run: they depend only on the
inputs, so the first pipeline's values stand for every pipeline.
"""
from __future__ import annotations

import hashlib

import numpy as np
from quasivoc import arma, metrics, qhm, serialize, signals, synth
from quasivoc.modify import ScaleSchedule

from workloads import BETA, FRAME_SHIFT, FS, HALF_WINDOW, REFINE_ITERS, RHO

AMP_FLOOR = 1e-7


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a, dtype=np.float64))) for a in arrays)


def invalid(result) -> str | None:
    """Why an operation's output is unusable, or None if it is fine."""
    if isinstance(result, tuple):
        return next((why for why in map(invalid, result) if why), None)
    rate = getattr(result, "sample_rate", FS)
    if rate != FS:
        return f"sample rate {rate}, expected {FS}"
    if isinstance(result, signals.SignalBuffer):
        ok = _finite(result.samples)
    elif isinstance(result, qhm.F0Track):
        ok = _finite(result.values, result.grid.centers)
    elif isinstance(result, qhm.HarmonicSet):
        ok = _finite(result.frequencies, result.amplitudes, result.phases,
                     result.compensations, result.grid.centers)
    elif isinstance(result, arma.ArmaCascade):
        ok = _finite([fr.gain for fr in result.frames],
                     *[s.ar for fr in result.frames for s in fr.sections],
                     *[s.ma for fr in result.frames for s in fr.sections])
    elif isinstance(result, signals.FrameGrid):
        ok = _finite(result.centers)
    elif isinstance(result, ScaleSchedule):
        ok = _finite(result.betas, result.rhos)
    elif isinstance(result, (str, bytes)):
        ok = len(result) > 0
    elif isinstance(result, list):
        ok = _finite(result)
    else:
        ok = True
    return None if ok else "non-finite output"


def digests(p) -> dict:
    """SHA-256 of the outputs that must not change between passes."""
    out = {}
    if "hset" in p.out:
        out["analysis.bin"] = serialize.harmonics_to_bytes(p.out["hset"])
    if "wav" in p.out:
        out.update({"harmonics.bin": p.out["harmonics_io"][1],
                    "cascade.bin": p.out["cascade_io"][1],
                    "synth.samples": p.out["final"].samples.tobytes(),
                    "modify.samples": p.out["modified"].samples.tobytes()})
    return {k: hashlib.sha256(v).hexdigest() for k, v in out.items()}


def check_pipeline(p, tracer, reference: dict | None) -> dict:
    """Count failures in p; return its digests (empty if an operation raised)."""
    for name, result in p.produced:
        why = invalid(result)
        if why:
            p.fail(f"{name}: {why}")
    if p.aborted:
        return {}
    to_bytes = {"harmonics_io": serialize.harmonics_to_bytes,
                "cascade_io": serialize.cascade_to_bytes}
    for key, encode in to_bytes.items():
        if key not in p.out:
            continue
        _, data, from_text, from_data = p.out[key]
        for how, decoded in (("json", from_text), ("bin", from_data)):
            if tracer.call(encode, decoded) != data:
                p.fail(f"{key}: {how} round trip changed the bytes")
    for name, (written, read) in p.out.get("wav", {}).items():
        expected = np.clip(written.samples, -1.0, 1.0).astype(np.float32)
        if read.sample_rate != FS or not np.array_equal(read.samples, expected):
            p.fail(f"wav {name}: read back differs from what was written")
    got = digests(p)
    for key, value in (reference or {}).items():
        if key in got and got[key] != value:
            p.fail(f"{key}: bytes differ from the first pipeline's")
    return got


def _ls_sets(seeds, counts, grid, n_samples: int) -> int:
    """LS factorizations analyze_qhm makes: distinct interior seed sets
    plus one per boundary frame."""
    half = (grid.window_samples(FS) - 1) // 2
    interior, boundary = set(), 0
    for l, tc in enumerate(grid.centers):
        c = int(round(tc * FS))
        if c - half >= 0 and c + half + 1 <= n_samples:
            interior.add(seeds[l, :counts[l]].tobytes())
        else:
            boundary += 1
    return len(interior) + boundary


def _wrap(phi):
    return np.pi - np.mod(np.pi - phi, 2 * np.pi)


def describe(p, inp, tracer) -> dict:
    """Counters and quality of one finished pipeline, by metric name."""
    o, call = p.out, tracer.call
    buf, hset, track, grid = inp.buf, o["hset"], o["track"], o["grid"]
    L = hset.n_frames
    seeds, counts = call(qhm.harmonic_grid, track, FS)
    k_grid = seeds.shape[1]
    final, modified = o["final"], o["modified"]
    m = {
        "qhm.frames": L,
        "qhm.components": hset.n_components,
        "qhm.ls_sets": _ls_sets(seeds, counts, grid, len(buf)),
        "qhm.ill_conditioned_frames": int(np.count_nonzero(hset.flags & 1)),
        "qhm.vuv_err_pct": call(metrics.vuv_rate, o["detected"], inp.true_track),
        "arma.envelope_points": L * k_grid * (o["envelope_banks"] + 2),
        "synth.samples_out": len(final),
        "synth.length_delta_samples": len(final) - len(buf),
        "modify.samples_out": len(modified),
        "serialize.harmonics_json_bytes": len(o["harmonics_io"][0].encode()),
        "serialize.harmonics_bin_bytes": len(o["harmonics_io"][1]),
        "serialize.cascade_json_bytes": len(o["cascade_io"][0].encode()),
        "serialize.cascade_bin_bytes": len(o["cascade_io"][1]),
    }
    m["qhm.ls_sets_per_frame"] = m["qhm.ls_sets"] / L
    # oscillators per output sample, the base of the ns-per-sample figures
    m["synth.oscillators"] = o["refined"].n_components if "refined" in o else k_grid
    m["modify.oscillators"] = 2 * k_grid

    n = min(len(final), len(buf))
    gen = signals.SignalBuffer(final.samples[:n], FS)
    ref = signals.SignalBuffer(buf.samples[:n], FS)
    m["snr_db"] = call(metrics.snr, gen, ref)
    cgrid = call(signals.make_grid, n / FS, FRAME_SHIFT, HALF_WINDOW)
    m["mcd_db"] = call(metrics.mcd, call(metrics.mel_cepstrum, gen, cgrid),
                       call(metrics.mel_cepstrum, ref, cgrid))
    mgrid = call(signals.make_grid, modified.duration, FRAME_SHIFT, HALF_WINDOW)
    detected = call(qhm.detect_f0, modified, mgrid).values
    src = np.minimum(np.rint(mgrid.centers / BETA / FRAME_SHIFT).astype(int), L - 1)
    wanted = RHO * track.values[src]
    both = (detected > 0) & (wanted > 0)
    m["modify_pitch_err_pct"] = 100.0 * float(np.median(np.abs(detected[both] / wanted[both] - 1)))

    if "refine_errors" in o:
        accepted = len(o["refine_errors"]) - 1
        m["qhm.refine_iters_accepted"] = accepted
        m["qhm.refine_iters_attempted"] = min(REFINE_ITERS, accepted + 1)
    if "fitted" in o:
        fitted = o["fitted"]
        m["arma.divergent_frames"] = int(np.count_nonzero(fitted.flags & 2))
        m["arma.degenerate_frames"] = int(np.count_nonzero(fitted.flags & 1))
        freqs, _ = call(qhm.harmonic_grid, track, FS, max_components=hset.n_components)
        residual = _wrap(hset.phases - call(synth.excitation_phase, freqs, grid))
        mag_err, phase_err = [], []
        for l in range(L):
            env = call(arma.sample_harmonics, fitted.frames[l], freqs[l], FS)
            use = hset.amplitudes[l] > AMP_FLOOR
            mag_err.append(np.abs(20 * np.log10(env.magnitudes[use] / hset.amplitudes[l][use])))
            phase_err.append(np.abs(_wrap(env.phase_delays[use] - residual[l][use])))
        mag_err, phase_err = np.concatenate(mag_err), np.concatenate(phase_err)
        if mag_err.size:        # all-silent targets leave nothing to compare
            m["arma.fit_mag_err_db_p50"] = float(np.median(mag_err))
            m["arma.fit_mag_err_db_max"] = float(mag_err.max())
            m["arma.fit_phase_err_rad_p50"] = float(np.median(phase_err))
            m["arma.fit_phase_err_rad_max"] = float(phase_err.max())
    return m
