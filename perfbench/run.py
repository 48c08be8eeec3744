"""Layered, seeded benchmark of the quasivoc vocoder pipeline.

    python3 perfbench/run.py --workload steady-vowel --seed 0 --seconds 20 --trace 0

Run from the repository root. The benchmark imports quasivoc from
``src/`` next to this directory, generates the workload's inputs from the
seed, then runs the workload's chain as a closed loop, one pipeline at a
time, until ``--seconds`` have passed (at least one pipeline). After each
pipeline, outside its timing, every output is checked. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the gated end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Every metric,
the host, the inputs and the output digests are also printed above it
and written to ``perfbench/out/``.

After each pipeline the analysis and the light tail may run again on the
same inputs (``workloads.REPEATS``); stage medians count those repeats,
``pipeline_rtf`` only whole pipelines.

With ``--trace 1`` the loop alternates untraced and traced pipelines.
Traced pipelines record a span around every call into a quasivoc module
and write them out at the end; per-layer times come from the traced
pipelines, and the tracing overhead is traced minus untraced wall.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import catalog

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 2          # fresh processes timed besides this one
WORKERS_PROBE_FRAMES = 4  # frames fitted at n_workers=1 and 2 in a traced run
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(catalog.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the benchmark's self-check")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def pin_threads() -> None:
    """One BLAS/OpenMP thread in this process and its children (<= nproc)."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def timed_setup(args):
    """Import quasivoc from this checkout and generate the inputs."""
    t0 = time.perf_counter()
    src = ROOT / "src"
    if not (src / "quasivoc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no quasivoc sources under {src}")
    sys.path.insert(0, str(src))
    import quasivoc
    if Path(quasivoc.__file__).resolve().parent != (src / "quasivoc").resolve():
        raise SystemExit(f"perfbench: imported quasivoc from {quasivoc.__file__}, not {src}")
    import workloads
    inputs = workloads.make_inputs(args.workload, args.seed, args.tiny)
    return inputs, time.perf_counter() - t0


def setup_probe(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    if args.tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def host_info() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(), "pinned": {v: os.environ[v] for v in THREAD_VARS},
            "machine": platform.machine()}


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def median(values):
    return statistics.median(values) if values else None


def run_loop(args, inputs, tracer):
    """Closed loop, one pipeline at a time, until the time is up.

    Returns [(pipeline, traced, repeats)], the first finished pipeline
    (the only one that keeps its outputs), its digests and description,
    and the loop's wall time.
    """
    import checks
    import workloads
    prefix = workloads.CHAINS[args.workload]
    n_analysis, n_tail = workloads.REPEATS[args.workload]
    wav_dir = OUT_DIR / f"wav-{os.getpid()}"
    wav_dir.mkdir(parents=True, exist_ok=True)
    runs, reference, described, first = [], None, None, None

    def attempt(p, name, fn, *fn_args):
        t0 = time.perf_counter()
        try:
            with tracer.span("bench", name):
                fn(p, *fn_args)
        except workloads.OpFailed:
            pass
        p.wall_s = time.perf_counter() - t0

    def checked(p, root):
        nonlocal reference, described, first
        tracer.root = root
        t0 = time.perf_counter()
        with tracer.span("bench", "check"):
            got = checks.check_pipeline(p, tracer, reference)
            if got and reference is None:
                reference, described, first = got, checks.describe(p, inputs, tracer), p
        p.check_s = time.perf_counter() - t0
        p.finished = bool(got)
        if p is not first:      # keep memory flat however many pipelines run
            p.out, p.produced = {}, []

    state = None

    def chain(p):
        nonlocal state
        state = prefix(p, inputs)
        workloads.run_tail(p, state, wav_dir)

    start = time.perf_counter()
    try:
        while True:
            i = len(runs)
            traced = bool(args.trace) and i % 2 == 1
            tracer.enabled, tracer.root = traced, f"pipeline{i}"
            p = workloads.Pipeline(tracer)
            attempt(p, "pipeline", chain)
            checked(p, f"check{i}")
            repeats = []
            if p.finished:
                jobs = [("analysis", workloads.analysis, inputs)] * n_analysis \
                    + [("tail", workloads.run_tail, state, wav_dir)] * n_tail
                for r, (name, fn, *fn_args) in enumerate(jobs):
                    q = workloads.Pipeline(tracer)
                    tracer.root = f"pipeline{i}.{name}{r}"
                    attempt(q, name, fn, *fn_args)
                    checked(q, f"check{i}.{name}{r}")
                    repeats.append(q)
            runs.append((p, traced, repeats))
            if time.perf_counter() - start >= args.seconds and (not args.trace or len(runs) >= 2):
                break
    finally:
        shutil.rmtree(wav_dir, ignore_errors=True)
    return runs, first, reference, described, time.perf_counter() - start


def workers_probe(p, tracer, frames: int):
    """fit_cascade wall at n_workers=2 over n_workers=1 on the same frames.

    Returns (ratio, failures); the two cascades must be byte-identical.
    """
    import numpy as np
    from quasivoc import arma, qhm, serialize, signals
    from workloads import FIT_ORDERS, FIT_STEPS
    hset = p.out["hset"]
    lo = max(0, hset.n_frames // 2 - frames // 2)
    sl = slice(lo, lo + frames)
    grid = hset.grid
    sub = qhm.HarmonicSet(
        signals.FrameGrid(grid.centers[sl], grid.frame_shift, grid.half_window,
                          grid.window_kind, grid.gauss_sigma),
        hset.frequencies[sl], hset.amplitudes[sl], hset.phases[sl],
        hset.compensations[sl], hset.sample_rate, np.array(hset.flags[sl]))
    tracer.root = "workers_probe"
    walls, blobs, failures = [], [], []
    for workers in (1, 2):
        t0 = time.perf_counter()
        try:
            fitted = tracer.call(arma.fit_cascade, sub, None, orders=FIT_ORDERS,
                                 max_steps=FIT_STEPS, n_workers=workers)
        except Exception as exc:
            failures.append(f"arma.fit_cascade n_workers={workers}: {type(exc).__name__}: {exc}")
            continue
        walls.append(time.perf_counter() - t0)
        blobs.append(serialize.cascade_to_bytes(fitted))
    if len(blobs) == 2 and blobs[0] != blobs[1]:
        failures.append("arma.fit_cascade: n_workers=2 bytes differ from n_workers=1")
    ratio = walls[1] / walls[0] if len(walls) == 2 else None
    return ratio, failures


def summarize(args, inputs, runs, described, setup_samples, tracer, probe):
    import spans as spans_mod
    dur = inputs.buf.duration
    plain = [p for p, traced, _ in runs if p.finished and not traced]
    traced = [p for p, t, _ in runs if p.finished and t]
    # stage samples also count the repeats of the analysis and the tail
    samples = plain + [q for p, t, repeats in runs if not t for q in repeats if q.finished]
    m, n = {}, {}

    def put(name, values, scale=1.0):
        values = [v for v in values if v is not None]
        if values:
            m[name], n[name] = statistics.median(values) * scale, len(values)

    put("setup_s", setup_samples)
    put("pipeline_rtf", [p.wall_s for p in plain], 1 / dur)
    for stage in ("analyze", "refine", "fit", "synth", "modify", "io"):
        put(f"{stage}_rtf", [q.stage_s[stage] for q in samples if stage in q.stage_s], 1 / dur)
    m["peak_rss_mb"], n["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
    put("metrics.check_s", [p.check_s for p, _, _ in runs])
    for name, value in (described or {}).items():
        m[name], n[name] = value, 1

    if traced:
        calls = spans_mod.call_times(tracer.spans)
        own = spans_mod.self_times(tracer.spans)
        roots = [f"pipeline{i}" for i, (p, t, _) in enumerate(runs) if t and p.finished]

        def from_calls(name, *keys):
            if any(k in calls[r] for r in roots for k in keys):
                put(name, [sum(calls[r].get(k, 0.0) for k in keys) for r in roots])

        for layer in ("qhm", "synth", "serialize", "bench"):
            put(f"{layer}.self_s", [own[r][layer] for r in roots])
        from_calls("qhm.detect_f0_s", "qhm.detect_f0")
        from_calls("qhm.analyze_qhm_s", "qhm.analyze_qhm")
        from_calls("qhm.refine_f0_s", "qhm.refine_f0")
        from_calls("qhm.refine_adaptive_s", "qhm.refine_adaptive")
        from_calls("arma.fit_cascade_s", "arma.fit_cascade")
        from_calls("synth.synthesize_arma_s", "synth.synthesize_arma")
        from_calls("synth.synthesize_qhm_s", "synth.synthesize_qhm")
        from_calls("modify.modify_s", "modify.modify")
        for kind in ("harmonics", "cascade"):
            for fmt, suffix in (("json", "json"), ("bin", "bytes")):
                from_calls(f"serialize.{kind}_{fmt}_s", f"serialize.{kind}_to_{suffix}",
                           f"serialize.{kind}_from_{suffix}")
        from_calls("signals.wav_io_s", "signals.write_wav", "signals.read_wav")
        last_analyze = [[s for s in tracer.spans if s["root"] == r and s["name"] == "analyze_qhm"][-1]
                        for r in roots]
        if described:
            put("qhm.ms_per_ls_set", [(s["end_ns"] - s["start_ns"]) / 1e6 for s in last_analyze],
                1 / described["qhm.ls_sets"])
            synth_s = m.get("synth.synthesize_arma_s", m.get("synth.synthesize_qhm_s"))
            m["synth.ns_per_osc_sample"] = synth_s * 1e9 / (
                described["synth.oscillators"] * described["synth.samples_out"])
            m["modify.ns_per_osc_sample"] = m["modify.modify_s"] * 1e9 / (
                described["modify.oscillators"] * described["modify.samples_out"])
            for fmt in ("json", "bin"):
                size = sum(described[f"serialize.{k}_{fmt}_bytes"] for k in ("harmonics", "cascade"))
                secs = sum(m[f"serialize.{k}_{fmt}_s"] for k in ("harmonics", "cascade"))
                m[f"serialize.{fmt}_mb_per_s"] = 2 * size / secs / 1e6   # encode + decode
            if "arma.fit_cascade_s" in m:
                m["arma.fit_s_per_frame"] = m["arma.fit_cascade_s"] / described["qhm.frames"]
        walls_plain = median([p.wall_s for p in plain])
        walls_traced = median([p.wall_s for p in traced])
        m["trace.overhead_pct"] = 100.0 * (walls_traced / walls_plain - 1.0)
        m["trace.overhead_ms"] = 1e3 * (walls_traced - walls_plain)
        n["trace.overhead_pct"] = n["trace.overhead_ms"] = min(len(plain), len(traced))
        if probe[0] is not None:
            m["arma.workers2_ratio"], n["arma.workers2_ratio"] = probe[0], 1
    return m, n


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    inputs, setup_main = timed_setup(args)
    if args.setup_probe:
        print(repr(setup_main))
        return 0
    setup_samples = [setup_main] + [setup_probe(args) for _ in range(SETUP_PROBES)]

    import spans as spans_mod
    tracer = spans_mod.Tracer()
    runs, first, digests, described, loop_s = run_loop(args, inputs, tracer)
    everything = [q for p, _, repeats in runs for q in [p] + repeats]
    attempted = sum(q.attempted for q in everything)
    errors = [e for q in everything for e in q.errors]
    probe = (None, [])
    if args.trace and first is not None:
        probe = workers_probe(first, tracer, 2 if args.tiny else WORKERS_PROBE_FRAMES)
        attempted += 2
        errors += probe[1]
    m, n = summarize(args, inputs, runs, described, setup_samples, tracer, probe)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = OUT_DIR / f"spans-{stem}.json"
    if args.trace:
        tracer.write(spans_path)
    host = host_info()
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "host": host,
              "inputs": {"duration_s": inputs.buf.duration, "samples": len(inputs.buf),
                         **inputs.params},
              "loop": {"kind": "closed", "clients": 1, "pipelines": len(runs),
                       "traced": sum(t for _, t, _ in runs), "wall_s": loop_s,
                       "repeats": sum(len(repeats) for _, _, repeats in runs)},
              "pipelines": [{"traced": t, "wall_s": p.wall_s, "check_s": p.check_s,
                             "stages_s": dict(p.stage_s),
                             "repeats_stages_s": [dict(q.stage_s) for q in repeats]}
                            for p, t, repeats in runs],
              "attempted": attempted, "failed": len(errors), "errors": errors[:50],
              "digests": digests, "setup_samples_s": setup_samples,
              "metrics": {k: {"value": v, "unit": catalog.UNITS.get(k, ""), "n": n.get(k)}
                          for k, v in m.items()}}
    report_path = OUT_DIR / f"report-{stem}.json"
    report_path.write_text(json.dumps(report, indent=1))

    print_report(args, report, m, n)
    gated = catalog.END_TO_END if not args.trace else catalog.PER_LAYER
    result = {name: {"value": m[name], "unit": unit} for name, unit, *_ in gated if name in m}
    correct = not errors and len(result) == len(gated) and described is not None
    print(f"report: {report_path.relative_to(ROOT)}"
          + (f"  spans: {spans_path.relative_to(ROOT)}" if args.trace else ""))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(errors),
                      "metrics": result}))
    return 0


def print_report(args, report, m, n):
    host, inp, loop = report["host"], report["inputs"], report["loop"]
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' tiny' if args.tiny else ''}")
    print("host " + " ".join(f"{k}={v}" for k, v in host.items() if k != "pinned")
          + " " + " ".join(f"{k}={v}" for k, v in host["pinned"].items()))
    print("input " + " ".join(f"{k}={v}" for k, v in inp.items()))
    print(f"loop closed, 1 client: {loop['pipelines']} pipelines ({loop['traced']} traced, "
          f"{loop['repeats']} stage repeats) "
          f"in {loop['wall_s']:.2f} s; operations attempted={report['attempted']} "
          f"failed={report['failed']}")
    for err in report["errors"][:10]:
        print(f"  failed: {err}")

    def row(name, unit, note=""):
        if name in m:
            count = f"n={n[name]}" if n.get(name) else ""
            print(f"  {name:<32} {m[name]:>14.6g} {unit:<6} {count:<5} {note}")

    def moves(pairs):
        return "moves " + ", ".join(f"{e}@{w}" for e, w in pairs) if pairs else ""

    print("end-to-end, gated (median over untraced passes; bound from BENCHMARK.json)")
    for name, unit, _, bound in catalog.END_TO_END:
        row(name, unit, f"bound {bound:.0%}")
    print("end-to-end, reported and not gated")
    for name, unit, *_ in catalog.PER_LAYER + catalog.WORKLOAD_ONLY:
        if name in catalog.REPORTED:
            row(name, unit)
    print("per-layer" + ("" if args.trace else " (timings need --trace 1)"))
    for name, unit, _, _, pairs in catalog.PER_LAYER:
        if name not in catalog.REPORTED:
            row(name, unit, moves(pairs))
    print(f"per-layer, {args.workload} only (not on the result line)")
    for name, unit, _, only, pairs in catalog.WORKLOAD_ONLY:
        if args.workload in only and name not in catalog.REPORTED:
            row(name, unit, moves(pairs))
    print("known defects, reported as measured and not gated: "
          + " ".join(f"{k}={m[k]:g}" for k in catalog.DEFECTS if k in m))


if __name__ == "__main__":
    sys.exit(main())
