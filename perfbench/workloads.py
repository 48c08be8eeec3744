"""Seeded inputs and the vocoder chains the benchmark runs on them.

Inputs come only from public ``quasivoc.fixtures`` and ``synthesize_arma``
calls. Each chain calls the library entry points a user of
``analyze`` -> ``fit-envelope`` -> ``synth``/``modify`` calls through
``Pipeline.op``, which counts the operation, keeps its output for
the checks and, when tracing is on, records a span around it. Stage
blocks (``Pipeline.stage``) are timed on every run; their sums give the
end-to-end real-time factors.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from quasivoc import arma, fixtures, qhm, serialize, signals, synth
from quasivoc.modify import ScaleSchedule, modify

FS = 24000
FRAME_SHIFT = 0.005
HALF_WINDOW = 0.010
BETA, RHO = 2.0, 1.5
FIT_ORDERS = (16, 16, 2)
FIT_STEPS = 150
REFINE_ITERS = 1

# steady-vowel: clip seconds; vibrato workloads: vibrato half cycles.
SIZES = {"steady-vowel": 5.0, "vibrato-analysis": 6, "vibrato-fit": 2}
# The self-check cuts every clip to a few frames.
TINY_SECONDS = {"steady-vowel": 0.25, "vibrato-analysis": 0.1, "vibrato-fit": 0.02}


@dataclass
class Inputs:
    buf: signals.SignalBuffer
    cascade: arma.ArmaCascade     # generator envelope on the clip's frame grid
    true_track: qhm.F0Track       # generator F0 on the clip's frame grid
    params: dict


def make_inputs(workload: str, seed: int, tiny: bool = False) -> Inputs:
    rng = np.random.default_rng(seed)
    if workload == "steady-vowel":
        return _steady_vowel(TINY_SECONDS[workload] if tiny else SIZES[workload], rng)
    return _vibrato(SIZES[workload], rng, TINY_SECONDS[workload] if tiny else None)


def _steady_vowel(duration: float, rng) -> Inputs:
    buf, sidecar, _, _ = fixtures.vowel(150.0, duration, FS, FRAME_SHIFT, HALF_WINDOW)
    # dropping 1-119 samples leaves the clip off the 5 ms (120-sample)
    # grid, which is where resynthesis length goes wrong
    drop = int(rng.integers(1, 120))
    buf = signals.SignalBuffer(buf.samples[:-drop], FS)
    grid = signals.make_grid(buf.duration, FRAME_SHIFT, HALF_WINDOW)
    cascade = fixtures.vowel_cascade(FS, len(grid), FRAME_SHIFT, HALF_WINDOW, sidecar["gain"])
    track = qhm.F0Track(cascade.grid, np.full(len(grid), 150.0))
    return Inputs(buf, cascade, track, {"f0_hz": 150.0, "trim_samples": drop})


def _vibrato(half_cycles: int, rng, max_seconds: float | None = None) -> Inputs:
    """150 +- 20 Hz vibrato over a whole number of half cycles.

    Half cycle i has its own rate, drawn from the i-th of ``half_cycles``
    equal slices of 4.5-6.5 Hz in seeded order; the clip starts at a zero
    crossing of the vibrato, rising or falling by seed, and ends at one.
    The detector's voicing errors, and with them the count of distinct
    LS sets and the fit's cost per frame, follow the F0 slope, so giving
    every clip the whole band of rates and the same spread of slopes
    keeps the seed-to-seed spread small. Half-cycle lengths are not
    multiples of the frame shift, so frames do not repeat frequency sets.
    """
    rates = 4.5 + 2.0 * (rng.permutation(half_cycles) + rng.uniform(size=half_cycles)) / half_cycles
    falling = int(rng.integers(2))
    ends = np.cumsum(0.5 / rates)
    starts = ends - 0.5 / rates
    duration = ends[-1] if max_seconds is None else min(ends[-1], max_seconds)
    n = int(np.floor(duration / FRAME_SHIFT)) + 1
    t = np.arange(n) * FRAME_SHIFT
    seg = np.minimum(np.searchsorted(ends, t, side="right"), half_cycles - 1)
    theta = np.pi * (seg + falling) + 2 * np.pi * rates[seg] * (t - starts[seg])
    unit = fixtures.vowel_cascade(FS, n, FRAME_SHIFT, HALF_WINDOW, 1.0)
    track = qhm.F0Track(unit.grid, 150.0 + 20.0 * np.sin(theta))
    raw = synth.synthesize_arma(unit, track)
    gain = 0.5 / float(np.abs(raw.samples).max())
    cascade = fixtures.vowel_cascade(FS, n, FRAME_SHIFT, HALF_WINDOW, gain)
    buf = signals.SignalBuffer(raw.samples * gain, FS)
    return Inputs(buf, cascade, track, {"rates_hz": rates.tolist(),
                                        "start_phase_rad": np.pi * falling})


class OpFailed(Exception):
    """An operation raised; the pipeline stops there."""


class Pipeline:
    """One pass of a chain: stage wall times, operation counts, outputs."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.stage_s: dict[str, float] = defaultdict(float)
        self.wall_s = 0.0
        self.check_s = 0.0
        self.aborted = False      # an operation raised
        self.finished = False     # ran to the end and was checked
        self.attempted = 0
        self.errors: list[str] = []
        self.produced: list[tuple[str, object]] = []   # every op's output
        self.out: dict[str, object] = {}               # named results for checks

    @contextmanager
    def stage(self, name: str):
        t0 = time.perf_counter()
        with self.tracer.span("bench", name):
            yield
        self.stage_s[name] += time.perf_counter() - t0

    def op(self, fn, *args, **kwargs):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"
        self.attempted += 1
        try:
            result = self.tracer.call(fn, *args, **kwargs)
        except Exception as exc:
            self.fail(f"{name}: {type(exc).__name__}: {exc}")
            self.aborted = True
            raise OpFailed(name) from exc
        self.produced.append((name, result))
        return result

    def fail(self, reason: str) -> None:
        self.errors.append(reason)


def analysis(p: Pipeline, inp: Inputs):
    buf = inp.buf
    with p.stage("analyze"):
        grid = p.op(signals.make_grid, buf.duration, FRAME_SHIFT, HALF_WINDOW)
        detected = p.op(qhm.detect_f0, buf, grid)
        first = p.op(qhm.analyze_qhm, buf, grid, detected)
        track = p.op(qhm.refine_f0, first, detected)
        hset = p.op(qhm.analyze_qhm, buf, grid, track)
    p.out.update(grid=grid, detected=detected, track=track, hset=hset)
    return track, hset


def _harmonics_io(p: Pipeline, hset):
    with p.stage("io"):
        text = p.op(serialize.harmonics_to_json, hset)
        from_text = p.op(serialize.harmonics_from_json, text)
        data = p.op(serialize.harmonics_to_bytes, hset)
        from_data = p.op(serialize.harmonics_from_bytes, data)
    p.out["harmonics_io"] = (text, data, from_text, from_data)
    return from_data


def _cascade_io(p: Pipeline, cascade):
    with p.stage("io"):
        text = p.op(serialize.cascade_to_json, cascade)
        from_text = p.op(serialize.cascade_from_json, text)
        data = p.op(serialize.cascade_to_bytes, cascade)
        from_data = p.op(serialize.cascade_from_bytes, data)
    p.out["cascade_io"] = (text, data, from_text, from_data)
    return from_data


def _modify(p: Pipeline, cascade, track):
    with p.stage("modify"):
        schedule = p.op(ScaleSchedule.constant, cascade.n_frames, BETA, RHO, track.voiced)
        out = p.op(modify, cascade, track, schedule)
    p.out["modified"] = out
    return out


def _wav_io(p: Pipeline, buffers: dict, wav_dir):
    read = {}
    with p.stage("io"):
        for name, buf in buffers.items():
            path = wav_dir / f"{name}.wav"
            p.op(signals.write_wav, buf, path)
            read[name] = p.op(signals.read_wav, path)
    p.out["wav"] = {name: (buffers[name], read[name]) for name in buffers}


def _steady_vowel_prefix(p: Pipeline, inp: Inputs) -> dict:
    track, hset = analysis(p, inp)
    return {"track": track, "harmonics": hset, "cascade": inp.cascade}


def _vibrato_analysis_prefix(p: Pipeline, inp: Inputs) -> dict:
    track, hset = analysis(p, inp)
    with p.stage("refine"):
        refined, errors = p.op(qhm.refine_adaptive, inp.buf, hset, mode="aqhm",
                               max_iters=REFINE_ITERS, return_errors=True)
    p.out.update(refined=refined, refine_errors=errors)
    return {"track": track, "harmonics": refined, "cascade": inp.cascade,
            "synth_from_harmonics": True}


def _vibrato_fit_prefix(p: Pipeline, inp: Inputs) -> dict:
    track, hset = analysis(p, inp)
    with p.stage("fit"):
        fitted = p.op(arma.fit_cascade, hset, track, orders=FIT_ORDERS,
                      max_steps=FIT_STEPS, n_workers=1)
    p.out["fitted"] = fitted
    return {"track": track, "harmonics": hset, "cascade": fitted}


def run_tail(p: Pipeline, state: dict, wav_dir) -> None:
    """Write and read back the products, resynthesize, modify, write WAVs.

    vibrato-analysis resynthesizes from its refined harmonics, the others
    from their cascade (the generator's, or the fitted one).
    """
    track = state["track"]
    hset = _harmonics_io(p, state["harmonics"])
    cascade = _cascade_io(p, state["cascade"])
    with p.stage("synth"):
        if state.get("synth_from_harmonics"):
            out = p.op(synth.synthesize_qhm, hset)
        else:
            out = p.op(synth.synthesize_arma, cascade, track)
    p.out.update(final=out, envelope_banks=0 if state.get("synth_from_harmonics") else 1)
    mod = _modify(p, cascade, track)
    _wav_io(p, {"synth": out, "modify": mod}, wav_dir)


# A pipeline runs the workload's prefix (analysis, then its refinement or
# fit) and the shared tail once. After it, the analysis and the tail run
# again REPEATS = (analysis, tail) times on the same inputs and prefix
# results, so the short stages get enough samples for a steady median in
# workloads where one long stage takes most of the time; the repeats are
# checked like the pipeline but are not part of its wall time.
CHAINS = {
    "steady-vowel": _steady_vowel_prefix,
    "vibrato-analysis": _vibrato_analysis_prefix,
    "vibrato-fit": _vibrato_fit_prefix,
}
REPEATS = {"steady-vowel": (0, 0), "vibrato-analysis": (1, 4), "vibrato-fit": (3, 8)}
