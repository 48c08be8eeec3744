"""Command-line front end: analyze, fit-envelope, synth, modify, eval,
bench, gen-fixture.

Exit codes: 0 success, 1 flagged numerical/quality failure, 2 usage or
I/O error.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import fixtures, metrics, serialize
from .arma import fit_cascade
from .config import PipelineConfig, load_config
from .modify import ScaleSchedule, load_schedule, modify
from .qhm import AnalysisError, F0Track, analyze_qhm, detect_f0, refine_adaptive
from .signals import QuasivocError, SignalError, make_grid, read_wav, write_wav
from .synth import synthesize_arma, synthesize_qhm

EXIT_OK = 0
EXIT_QUALITY = 1
EXIT_USAGE = 2


class CliError(QuasivocError):
    """Raised for bad command-line usage; like every QuasivocError, it exits 2."""


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", type=Path, help="plain-text key = value config file")
    p.add_argument("--seed", type=int, help="seed for all randomness")
    p.add_argument("--frame-shift", type=float, dest="frame_shift")
    p.add_argument("--window", type=float, dest="half_window",
                   help="half analysis-window length in seconds")
    p.add_argument("--window-kind", choices=["hann", "hamming", "gauss"])
    p.add_argument("--orders", help="P,Q,r as comma-separated integers")
    p.add_argument("--max-components", type=int, dest="max_components")
    p.add_argument("--f0-range", help="min,max in Hz")
    p.add_argument("--format", choices=["float32", "pcm16"], dest="output_format")


def _build_config(args) -> PipelineConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else PipelineConfig()
    for name in ("seed", "frame_shift", "half_window", "window_kind", "output_format",
                 "max_components"):
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    if getattr(args, "orders", None):
        try:
            p, q, r = (int(s) for s in args.orders.split(","))
        except ValueError:
            raise CliError("--orders expects P,Q,r integers")
        cfg.order_p, cfg.order_q, cfg.order_r = p, q, r
    if getattr(args, "f0_range", None):
        try:
            lo, hi = (float(s) for s in args.f0_range.split(","))
        except ValueError:
            raise CliError("--f0-range expects min,max")
        cfg.f0_min, cfg.f0_max = lo, hi
    return cfg.validate()


def _read_input(path: Path):
    if not path.exists():
        raise CliError(f"input file not found: {path}")
    return read_wav(path)


def _make_grid_for(duration: float, cfg: PipelineConfig):
    return make_grid(duration, cfg.frame_shift, cfg.half_window,
                     cfg.window_kind, cfg.gauss_sigma)


def _detect_f0(buffer, grid, cfg: PipelineConfig) -> F0Track:
    return detect_f0(buffer, grid, (cfg.f0_min, cfg.f0_max), cfg.voicing_threshold)


def _analyze(buffer, cfg: PipelineConfig, f0_file=None):
    grid = _make_grid_for(buffer.duration, cfg)
    track = (_load_f0_csv(Path(f0_file), cfg, grid) if f0_file
             else _detect_f0(buffer, grid, cfg))
    hset = analyze_qhm(buffer, grid, track, cfg.component_cap)
    if cfg.refine_mode != "none":
        hset = refine_adaptive(buffer, hset, cfg.refine_mode, cfg.refine_iters)
    return hset, track


def _codec(path: Path, kind: str, direction: str):
    """serialize's encoder (direction "to") or decoder ("from") of the
    harmonics or cascade product for the path's suffix, and whether it
    works on bytes (.bin) or on JSON text (any other suffix)."""
    binary = path.suffix == ".bin"
    return getattr(serialize, f"{kind}_{direction}_{'bytes' if binary else 'json'}"), binary


def _write_product(path: Path, product, kind: str):
    encode, binary = _codec(path, kind, "to")
    if binary:
        path.write_bytes(encode(product))
    else:
        path.write_text(encode(product))


def cmd_analyze(args) -> int:
    cfg = _build_config(args)
    buffer = _read_input(args.input)
    hset, track = _analyze(buffer, cfg, args.f0_file)
    _write_product(args.output, hset, "harmonics")
    if args.f0_out:
        Path(args.f0_out).write_text(serialize.f0_to_csv(track))
    # bit 1 (ill-conditioned) sets exit 1 only where the window lies inside the
    # signal: a window cut by the signal's edge (bit 2) holds about as many
    # samples as the frame has unknowns and is flagged on every voiced clip
    flagged = np.flatnonzero((hset.flags & 3) == 1).tolist()
    n_flagged = len(flagged)
    if n_flagged:
        print(f"ill-conditioned frames ({n_flagged}): {flagged[:20]}"
              + ("..." if n_flagged > 20 else ""))
    print(f"analyzed {hset.n_frames} frames, K={hset.n_components} -> {args.output}")
    return EXIT_QUALITY if n_flagged else EXIT_OK


def _load_product(path: Path, kind: str):
    """The harmonics or cascade product in a .bin or .json file."""
    if not path.exists():
        raise CliError(f"{kind} file not found: {path}")
    decode, binary = _codec(path, kind, "from")
    try:
        return decode(path.read_bytes() if binary else path.read_text())
    except (serialize.SerializationError, KeyError, TypeError, ValueError) as exc:
        raise CliError(f"malformed {kind} file: {exc}")


def _load_f0_csv(path: Path, cfg: PipelineConfig, grid=None) -> F0Track:
    """The F0 track in a CSV file. Given a grid, the file must hold one value
    per frame of it, and the track is put on that grid."""
    if not path.exists():
        raise CliError(f"f0 file not found: {path}")
    try:
        track = serialize.f0_from_csv(path.read_text(), cfg.frame_shift,
                                      cfg.half_window, cfg.window_kind)
    except (ValueError, AnalysisError) as exc:
        raise CliError(f"malformed f0 file: {exc}")
    # K grows as 1/F0, so a tiny voiced F0 would ask for an unbounded grid
    low = track.values[(track.values > 0) & (track.values < cfg.f0_min)]
    if low.size:
        raise CliError(f"f0 file {path}: voiced value {low.min():g} Hz is below the"
                       f" minimum F0 of {cfg.f0_min:g} Hz (set with --f0-range)")
    if grid is None:
        return track
    if len(track.values) != len(grid):
        raise CliError(f"f0 file {path}: {len(track.values)} frames, but the frame grid"
                       f" has {len(grid)}")
    return F0Track(grid, track.values)


def cmd_fit_envelope(args) -> int:
    cfg = _build_config(args)
    hset = _load_product(args.harmonics, "harmonics")
    track = _load_f0_csv(args.f0, cfg) if args.f0 else None
    cascade = fit_cascade(hset, track, orders=cfg.orders, phase_weight=cfg.phase_weight,
                          max_steps=cfg.fit_max_steps)
    _write_product(args.output, cascade, "cascade")
    divergent = np.flatnonzero(cascade.flags & 2).tolist()
    if divergent:
        print(f"divergent frames: {divergent}")
    print(f"fitted {cascade.n_frames} frames, orders {cfg.orders} -> {args.output}")
    return EXIT_QUALITY if divergent else EXIT_OK


def cmd_synth(args) -> int:
    cfg = _build_config(args)
    if args.from_harmonics:
        hset = _load_product(args.model, "harmonics")
        out = synthesize_qhm(hset)
    else:
        cascade = _load_product(args.model, "cascade")
        track = _load_f0_csv(args.f0, cfg, cascade.grid)
        out = synthesize_arma(cascade, track, max_components=cfg.component_cap)
    write_wav(out, args.output, cfg.output_format)
    print(f"wrote {len(out)} samples ({out.duration:.3f} s) -> {args.output}")
    return EXIT_OK


def cmd_modify(args) -> int:
    cfg = _build_config(args)
    cascade = _load_product(args.model, "cascade")
    track = _load_f0_csv(args.f0, cfg, cascade.grid)
    vuv = track.voiced
    if args.schedule:
        schedule = load_schedule(args.schedule, cascade.grid, vuv)
    else:
        schedule = ScaleSchedule.constant(cascade.n_frames, args.beta, args.rho, vuv)
    out = modify(cascade, track, schedule, max_components=cfg.component_cap)
    write_wav(out, args.output, cfg.output_format)
    result_track = _detect_f0(out, _make_grid_for(out.duration, cfg), cfg)
    voiced = result_track.values[result_track.voiced]
    mean_f0 = float(voiced.mean()) if voiced.size else 0.0
    print(f"duration {out.duration:.3f} s, mean detected f0 {mean_f0:.1f} Hz"
          f" -> {args.output}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _build_config(args)
    gen = _read_input(args.generated)
    ref = _read_input(args.reference)
    if gen.sample_rate != ref.sample_rate:
        raise CliError(f"sample rates differ: {gen.sample_rate} vs {ref.sample_rate} Hz")
    report = metrics.MetricReport()
    # one grid over the shorter signal for both tracks and both cepstra
    grid = _make_grid_for(min(gen.duration, ref.duration), cfg)
    tg, tr = _detect_f0(gen, grid, cfg), _detect_f0(ref, grid, cfg)
    report.vuv_rate = metrics.vuv_rate(tg, tr)
    report.f0_rmse = metrics.f0_rmse(tg, tr, np.full(len(grid), args.rho))
    report.mcd = metrics.mcd(metrics.mel_cepstrum(gen, grid), metrics.mel_cepstrum(ref, grid))
    if len(gen) == len(ref):
        report.snr = metrics.snr(gen, ref)
    if args.json_out:
        Path(args.json_out).write_text(report.to_json())
    print(report.to_table())
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = _build_config(args)
    buffer = _read_input(args.input)
    duration = buffer.duration
    state = {}

    def analysis():
        state["hset"], state["track"] = _analyze(buffer, cfg)

    analysis()

    def synthesis():
        state["out"] = synthesize_qhm(state["hset"])

    rtf_analysis = metrics.rtf(analysis, duration, runs=args.runs)
    rtf_synthesis = metrics.rtf(synthesis, duration, runs=args.runs)
    rows = [("analysis", rtf_analysis), ("synthesis", rtf_synthesis),
            ("overall", rtf_analysis + rtf_synthesis)]
    print(f"{'stage':<12}RTF")
    for name, value in rows:
        print(f"{name:<12}{value:.4f}")
    return EXIT_OK


def cmd_gen_fixture(args) -> int:
    cfg = _build_config(args)
    try:
        params = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as exc:
        raise CliError(f"--params is not valid JSON: {exc}")
    if not isinstance(params, dict):
        raise CliError("--params must be a JSON object")
    params.setdefault("sample_rate", cfg.sample_rate)
    params.setdefault("duration", 1.0)
    if args.kind == "noise":
        params.setdefault("seed", cfg.seed)
    try:
        buffer, sidecar = fixtures.generate(args.kind, **params)
    except (TypeError, SignalError) as exc:
        raise CliError(f"invalid fixture parameters: {exc}")
    write_wav(buffer, args.output, cfg.output_format)
    sidecar_path = Path(str(args.output) + ".json")
    sidecar_path.write_text(json.dumps(sidecar, indent=2))
    print(f"wrote {args.kind} fixture -> {args.output} (+ sidecar)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasivoc",
        description="Quasi-harmonic vocoder with cascaded ARMA envelopes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="extract harmonic parameters from a WAV")
    p.add_argument("input", type=Path)
    p.add_argument("output", type=Path, help=".json or .bin harmonics file")
    p.add_argument("--f0-file", type=Path, help="external f0 CSV")
    p.add_argument("--f0-out", type=Path, help="write the detected f0 track CSV")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("fit-envelope", help="fit ARMA cascades to harmonics")
    p.add_argument("harmonics", type=Path)
    p.add_argument("output", type=Path, help=".json or .bin cascade file")
    p.add_argument("--f0", type=Path, help="f0 CSV fixing the excitation grid")
    _add_common(p)
    p.set_defaults(func=cmd_fit_envelope)

    p = sub.add_parser("synth", help="synthesize speech from a cascade or harmonics")
    p.add_argument("model", type=Path, help="cascade file (or harmonics with --from-harmonics)")
    p.add_argument("output", type=Path)
    p.add_argument("--f0", type=Path, help="f0 CSV (required for cascade synthesis)")
    p.add_argument("--from-harmonics", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("modify", help="time-stretch / pitch-shift")
    p.add_argument("model", type=Path, help="cascade file")
    p.add_argument("output", type=Path)
    p.add_argument("--f0", type=Path, required=True)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--schedule", type=Path, help="breakpoint file: time beta rho")
    _add_common(p)
    p.set_defaults(func=cmd_modify)

    p = sub.add_parser("eval", help="objective metrics between two WAVs")
    p.add_argument("generated", type=Path)
    p.add_argument("reference", type=Path)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--json-out", type=Path)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="real-time-factor table")
    p.add_argument("input", type=Path)
    p.add_argument("--runs", type=int, default=5)
    _add_common(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen-fixture", help="deterministic test signals")
    p.add_argument("kind", choices=["tone", "multisine", "chirp", "am", "vowel", "noise"])
    p.add_argument("output", type=Path)
    p.add_argument("--params", help="JSON object of generator parameters")
    _add_common(p)
    p.set_defaults(func=cmd_gen_fixture)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (QuasivocError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
