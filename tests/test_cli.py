"""End-to-end command-line workflows and exit-code contracts."""
import argparse
import contextlib
import dataclasses
import io
import json
import warnings

import numpy as np
import pytest
from conftest import wav_images
from hypothesis import given, settings, strategies as st

import quasivoc as qv
from quasivoc import cli, fixtures, metrics, serialize
from quasivoc.arma import ArmaCascade
from quasivoc.cli import build_parser, main
from quasivoc.config import PipelineConfig
from quasivoc.qhm import F0Track, HarmonicSet
from quasivoc.signals import FrameGrid, SignalBuffer, SignalError, make_grid, read_wav, write_wav


@pytest.fixture()
def tone_wav(tmp_path):
    path = tmp_path / "tone.wav"
    code = main(["gen-fixture", "tone", str(path),
                 "--params", '{"freq": 200.0, "duration": 0.3}'])
    assert code == 0
    return path


def test_gen_fixture_writes_sidecar(tone_wav):
    sidecar = json.loads((tone_wav.parent / "tone.wav.json").read_text())
    assert sidecar["kind"] == "tone"
    assert sidecar["freq"] == 200.0
    buf = read_wav(tone_wav)
    assert buf.sample_rate == 24000
    assert len(buf) == int(0.3 * 24000)


def test_gen_fixture_noise_deterministic(tmp_path):
    """The seed is a generator parameter: seed 9 gives the same bytes on
    every run and other bytes than the default seed 0."""
    a, b, c = tmp_path / "a.wav", tmp_path / "b.wav", tmp_path / "c.wav"
    for path, params in ((a, '{"seed": 9, "duration": 0.2}'),
                         (b, '{"seed": 9, "duration": 0.2}'),
                         (c, '{"duration": 0.2}')):
        assert main(["gen-fixture", "noise", str(path), "--params", params]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    assert json.loads((tmp_path / "a.wav.json").read_text())["seed"] == 9
    assert json.loads((tmp_path / "c.wav.json").read_text())["seed"] == 0


def test_full_pipeline_round_trip(tmp_path, tone_wav):
    harm = tmp_path / "harm.json"
    f0 = tmp_path / "f0.csv"
    assert main(["analyze", str(tone_wav), str(harm), "--f0-out", str(f0),
                 "--max-components", "5"]) == 0
    assert harm.exists() and f0.exists()

    casc = tmp_path / "casc.json"
    code = main(["fit-envelope", str(harm), str(casc), "--orders", "8,8,2",
                 "--f0", str(f0)])
    assert code == 0

    out = tmp_path / "out.wav"
    assert main(["synth", str(casc), str(out), "--f0", str(f0),
                 "--max-components", "5"]) == 0
    synth = read_wav(out)
    assert len(synth) > 0

    # the identity schedule reproduces the synthesis byte-for-byte
    mod = tmp_path / "mod.wav"
    assert main(["modify", str(casc), str(mod), "--f0", str(f0),
                 "--rho", "1", "--beta", "1", "--max-components", "5"]) == 0
    assert mod.read_bytes() == out.read_bytes()

    # self-comparison metrics are the trivial fixed points
    report = tmp_path / "report.json"
    assert main(["eval", str(out), str(out), "--json-out", str(report)]) == 0
    rep = json.loads(report.read_text())
    assert rep["vuv_rate"] == 0.0
    assert rep["mcd"] == 0.0
    assert rep["snr"] == 120.0


def test_binary_products_round_trip(tmp_path, tone_wav):
    harm = tmp_path / "harm.bin"
    f0 = tmp_path / "f0.csv"
    assert main(["analyze", str(tone_wav), str(harm), "--f0-out", str(f0),
                 "--max-components", "3"]) == 0
    casc = tmp_path / "casc.bin"
    # with only 3 components the (4,4,1) fit is under-determined and may
    # flag frames (exit 1); the product is still written either way and
    # the synth step below proves the binary container reads back
    assert main(["fit-envelope", str(harm), str(casc), "--orders", "4,4,1",
                 "--f0", str(f0)]) in (0, 1)
    out = tmp_path / "out.wav"
    assert main(["synth", str(casc), str(out), "--f0", str(f0),
                 "--max-components", "3"]) == 0


@pytest.mark.parametrize("orders", ["4,0,1", "0,4,1"])
def test_fit_envelope_all_pole_and_all_zero(tmp_path, tone_wav, orders):
    harm = tmp_path / "harm.bin"
    f0 = tmp_path / "f0.csv"
    assert main(["analyze", str(tone_wav), str(harm), "--f0-out", str(f0),
                 "--max-components", "3"]) == 0
    casc = tmp_path / "casc.json"
    assert main(["fit-envelope", str(harm), str(casc), "--orders", orders,
                 "--f0", str(f0)]) in (0, 1)
    assert json.loads(casc.read_text())["orders"] == [int(x) for x in orders.split(",")]


def test_synth_from_harmonics(tmp_path, tone_wav):
    harm = tmp_path / "harm.json"
    assert main(["analyze", str(tone_wav), str(harm),
                 "--max-components", "3"]) == 0
    out = tmp_path / "qhm.wav"
    assert main(["synth", str(harm), str(out), "--from-harmonics"]) == 0
    buf = read_wav(out)
    orig = read_wav(tone_wav)
    n = min(len(buf), len(orig))
    err = np.sum((buf.samples[:n] - orig.samples[:n]) ** 2)
    assert 10 * np.log10(np.sum(orig.samples[:n] ** 2) / err) > 30.0


def test_modify_with_schedule(tmp_path, tone_wav):
    harm = tmp_path / "harm.json"
    f0 = tmp_path / "f0.csv"
    main(["analyze", str(tone_wav), str(harm), "--f0-out", str(f0),
          "--max-components", "3"])
    casc = tmp_path / "casc.json"
    main(["fit-envelope", str(harm), str(casc), "--orders", "4,4,1",
          "--f0", str(f0)])
    sched = tmp_path / "sched.txt"
    sched.write_text("0.0 2.0 1.0\n0.3 2.0 1.0\n")
    out = tmp_path / "slow.wav"
    assert main(["modify", str(casc), str(out), "--f0", str(f0),
                 "--schedule", str(sched), "--max-components", "3"]) == 0
    slow = read_wav(out)
    assert abs(slow.duration - 2 * 0.3) < 0.02


def test_bench_runs(tmp_path, tone_wav, capsys):
    assert main(["bench", str(tone_wav), "--runs", "1",
                 "--max-components", "3"]) == 0
    captured = capsys.readouterr().out
    assert "analysis" in captured and "overall" in captured


def test_eval_rho_scaled_pair(tmp_path):
    a, b = tmp_path / "a.wav", tmp_path / "b.wav"
    main(["gen-fixture", "tone", str(a), "--params", '{"freq": 200.0, "duration": 0.3}'])
    main(["gen-fixture", "tone", str(b), "--params", '{"freq": 100.0, "duration": 0.3}'])
    report = tmp_path / "rep.json"
    assert main(["eval", str(a), str(b), "--rho", "2.0",
                 "--json-out", str(report)]) == 0
    rep = json.loads(report.read_text())
    assert rep["f0_rmse"] < 0.02


@pytest.mark.parametrize("rho", ["-1", "0", "nan", "inf"])
def test_eval_rejects_bad_rho(tone_wav, rho, capsys):
    assert main(["eval", str(tone_wav), str(tone_wav), "--rho", rho]) == 2
    assert "finite and positive" in capsys.readouterr().err


def test_eval_mcd_covers_every_frame_of_the_shorter_signal(tmp_path):
    """3598 samples span 30 frames at the default 5 ms shift; a grid built
    from (frames - 1) * shift loses the last one to rounding."""
    a, b = tmp_path / "a.wav", tmp_path / "b.wav"
    for path, freq in ((a, 200.0), (b, 230.0)):
        write_wav(fixtures.tone(freq, 3598 / 24000, 24000)[0], path)
    report = tmp_path / "rep.json"
    assert main(["eval", str(a), str(b), "--json-out", str(report)]) == 0
    cfg = PipelineConfig()
    grid = make_grid(3598 / 24000, cfg.frame_shift, cfg.half_window, cfg.window_kind,
                     cfg.gauss_sigma)
    assert len(grid) == 30
    gen, ref = read_wav(a), read_wav(b)
    assert len(gen) == len(ref) == 3598
    want = metrics.mcd(metrics.mel_cepstrum(gen, grid), metrics.mel_cepstrum(ref, grid))
    assert json.loads(report.read_text())["mcd"] == want


def test_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    """A MemoryError anywhere in a command exits 2 with a message, not a
    traceback."""
    cascade = fixtures.vowel_cascade(24000, 5, 0.005, 0.010)
    casc, f0 = tmp_path / "casc.bin", tmp_path / "f0.csv"
    casc.write_bytes(serialize.cascade_to_bytes(cascade))
    f0.write_text(serialize.f0_to_csv(F0Track(cascade.grid, np.full(5, 150.0))))

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 53.6 GiB")

    monkeypatch.setattr(cli, "modify", exhausted)
    capsys.readouterr()
    assert main(["modify", str(casc), str(tmp_path / "o.wav"), "--f0", str(f0)]) == 2
    assert "error: out of memory" in capsys.readouterr().err
    assert not (tmp_path / "o.wav").exists()


def test_exit_code_2_on_missing_and_malformed(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "missing.wav"),
                 str(tmp_path / "h.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not valid json")
    assert main(["fit-envelope", str(bad), str(tmp_path / "c.json")]) == 2
    wav = tmp_path / "t.wav"
    main(["gen-fixture", "tone", str(wav), "--params", '{"duration": 0.1, "freq": 100.0}'])
    assert main(["analyze", str(wav), str(tmp_path / "h.json"),
                 "--f0-range", "bad"]) == 2
    # malformed F0 CSVs, non-positive scales, cut containers, mixed rates
    cascade = fixtures.vowel_cascade(24000, 5, 0.005, 0.010)
    casc = tmp_path / "casc.bin"
    casc.write_bytes(serialize.cascade_to_bytes(cascade))
    f0 = tmp_path / "f0.csv"
    f0.write_text(serialize.f0_to_csv(F0Track(cascade.grid, np.full(5, 150.0))))
    out = tmp_path / "out.wav"
    runs = []
    for name, text in (("text", "time,f0\n0.0,abc\n"), ("short", "time,f0\n0.0\n"),
                       ("negative", "time,f0\n0.0,-150.0\n")):
        bad = tmp_path / f"{name}.csv"
        bad.write_text(text)
        runs.append(["analyze", str(wav), str(tmp_path / "h.json"), "--f0-file", str(bad)])
        runs.append(["synth", str(casc), str(out), "--f0", str(bad)])
    runs.append(["modify", str(casc), str(out), "--f0", str(f0), "--beta", "-1"])
    runs.append(["modify", str(casc), str(out), "--f0", str(f0), "--rho", "0"])
    hset = tmp_path / "h.bin"
    main(["analyze", str(wav), str(hset)])
    assert hset.exists()
    runs.append(["fit-envelope", str(hset), str(tmp_path / "c.json"), "--orders", "nonsense"])
    # F0 CSVs with a NaN or infinite time, one row per frame of the product's grid
    hgrid = serialize.harmonics_from_bytes(hset.read_bytes()).grid
    for time, row in (("nan", 2), ("inf", -1)):
        for grid, argv in (
                (hgrid, ["analyze", str(wav), str(tmp_path / "h.json"), "--f0-file"]),
                (hgrid, ["fit-envelope", str(hset), str(tmp_path / "c.json"), "--f0"]),
                (cascade.grid, ["synth", str(casc), str(out), "--f0"])):
            lines = serialize.f0_to_csv(F0Track(grid, np.full(len(grid), 150.0))).splitlines()
            lines[row] = f"{time},150.0"
            bad = tmp_path / f"{time}_{argv[0]}.csv"
            bad.write_text("\n".join(lines) + "\n")
            runs.append(argv + [str(bad)])
    for src, keep in ((casc, -13), (casc, 10), (hset, -13)):
        short = tmp_path / f"cut{keep}_{src.name}"
        short.write_bytes(src.read_bytes()[:keep])
        runs.append(["synth", str(short), str(out), "--f0", str(f0)]
                    + (["--from-harmonics"] if src is hset else []))
    # JSON products whose top level is not an object
    listed = tmp_path / "listed.json"
    listed.write_text("[1, 2]")
    runs.append(["synth", str(listed), str(out), "--f0", str(f0), "--from-harmonics"])
    runs.append(["synth", str(listed), str(out), "--f0", str(f0)])
    runs.append(["modify", str(listed), str(out), "--f0", str(f0)])
    runs.append(["fit-envelope", str(listed), str(tmp_path / "c.json")])
    blob = casc.read_bytes()
    listed_bin = tmp_path / "listed.bin"
    listed_bin.write_bytes(blob[:8] + (6).to_bytes(4, "little") + b"[1, 2]"
                           + blob[12 + int.from_bytes(blob[8:12], "little"):])
    runs.append(["synth", str(listed_bin), str(out), "--f0", str(f0)])
    # fields of the wrong JSON type
    for key, value in (("orders", 5), ("frames", 5), ("frames", [5] * 5), ("grid", []),
                       ("sample_rate", None)):
        doc = json.loads(serialize.cascade_to_json(cascade))
        doc[key] = value
        typed = tmp_path / f"typed_{len(runs)}.json"
        typed.write_text(json.dumps(doc))
        runs.append(["synth", str(typed), str(out), "--f0", str(f0)])
    # products whose grid, flags and arrays disagree on the frame or component count,
    # forged by editing a JSON document or a binary container's header
    harmonics = serialize.harmonics_from_bytes(hset.read_bytes())

    def drop_last_column(doc):
        for row in doc["phases"]:
            row.pop()

    edits = [(harmonics, ".json", lambda doc: doc["amplitudes"].pop()),
             (harmonics, ".json", drop_last_column)]
    for product in (harmonics, cascade):
        for edit in (lambda doc: doc["grid"]["centers"].pop(), lambda doc: doc["flags"].pop(),
                     lambda doc: doc["flags"].append(0)):
            edits += [(product, suffix, edit) for suffix in (".json", ".bin")]
    # sample rates that are not positive integers, and a frame count whose
    # product with K overflows a float
    for rate in (-24000, 1e30, 1e12):
        edits += [(harmonics, ".bin", lambda doc, rate=rate: doc.update(sample_rate=rate)),
                  (cascade, ".bin", lambda doc, rate=rate: doc.update(sample_rate=rate))]
    edits += [(harmonics, ".json", lambda doc: doc.update(sample_rate=-24000)),
              (harmonics, ".bin", lambda doc: doc.update(n_frames=1e308, n_components=10))]
    for i, (product, suffix, edit) in enumerate(edits):
        kind = "cascade" if isinstance(product, ArmaCascade) else "harmonics"
        bad = tmp_path / f"forged{i}{suffix}"
        if suffix == ".json":
            doc = json.loads(getattr(serialize, f"{kind}_to_json")(product))
            edit(doc)
            bad.write_text(json.dumps(doc))
        else:
            data = getattr(serialize, f"{kind}_to_bytes")(product)
            hdr_len = int.from_bytes(data[8:12], "little")
            header = json.loads(data[12:12 + hdr_len])
            edit(header)
            raw = json.dumps(header).encode()
            bad.write_bytes(data[:8] + len(raw).to_bytes(4, "little") + raw
                            + data[12 + hdr_len:])
        if kind == "harmonics":
            runs += [["synth", str(bad), str(out), "--from-harmonics"],
                     ["fit-envelope", str(bad), str(tmp_path / "c.json")]]
        else:
            runs += [["synth", str(bad), str(out), "--f0", str(f0)],
                     ["modify", str(bad), str(out), "--f0", str(f0)]]
    # a sample rate whose output no RIFF header can hold is refused before
    # rendering, which would ask for terabytes
    for product, kind, flag in ((harmonics, "harmonics", ["--from-harmonics"]),
                                (cascade, "cascade", ["--f0", str(f0)])):
        fast_rate = tmp_path / f"rate_{kind}.bin"
        fast_rate.write_bytes(getattr(serialize, f"{kind}_to_bytes")(
            dataclasses.replace(product, sample_rate=10 ** 12)))
        runs.append(["synth", str(fast_rate), str(out)] + flag)
    # a schedule value that does not parse
    sched = tmp_path / "sched.txt"
    sched.write_text("0.0 1.0 1.0\n0.01 abc 1.0\n")
    runs.append(["modify", str(casc), str(out), "--f0", str(f0), "--schedule", str(sched)])
    # a time scale whose output no RIFF header can hold: 0.3 s stretched to 3.5 days
    vowel = fixtures.vowel_cascade(24000, 61, 0.005, 0.010)
    long_casc, long_f0 = tmp_path / "long.bin", tmp_path / "long.csv"
    long_casc.write_bytes(serialize.cascade_to_bytes(vowel))
    long_f0.write_text(serialize.f0_to_csv(F0Track(vowel.grid, np.full(61, 150.0))))
    huge = tmp_path / "huge.txt"
    huge.write_text("0 1e6 1\n")
    runs.append(["modify", str(long_casc), str(out), "--f0", str(long_f0), "--beta", "1e6"])
    runs.append(["modify", str(long_casc), str(out), "--f0", str(long_f0),
                 "--schedule", str(huge)])
    slow, fast = tmp_path / "8k.wav", tmp_path / "48k.wav"
    for path, rate in ((slow, 8000), (fast, 48000)):
        assert main(["gen-fixture", "vowel", str(path), "--params",
                     json.dumps({"f0": 150.0, "duration": 0.2, "sample_rate": rate})]) == 0
    runs.append(["eval", str(slow), str(fast)])
    capsys.readouterr()
    for argv in runs:
        assert main(argv) == 2, argv
        assert "error:" in capsys.readouterr().err, argv
    assert not out.exists()


def test_gen_fixture_vowel_with_a_frame_count_off_the_floor(tmp_path):
    """0.1451 s holds 30 frames, where (30 - 1) * 0.005 / 0.005 floors to 28:
    the generator's cascade still has one grid centre per frame."""
    wav = tmp_path / "v.wav"
    assert main(["gen-fixture", "vowel", str(wav),
                 "--params", '{"f0": 150.0, "duration": 0.1451}']) == 0
    assert len(read_wav(wav)) == 29 * 120 + 1


def test_analyze_below_the_window_pitch_writes_and_flags(tmp_path, capsys):
    """At 90 Hz the default window holds fewer samples than 4K unknowns; each
    frame fits the components its samples support, and analyze writes the
    product and exits 1."""
    wav, harm = tmp_path / "v90.wav", tmp_path / "h.bin"
    assert main(["gen-fixture", "vowel", str(wav),
                 "--params", '{"f0": 90.0, "duration": 0.3}']) == 0
    assert main(["analyze", str(wav), str(harm)]) == 1
    assert "ill-conditioned frames" in capsys.readouterr().out
    hset = serialize.harmonics_from_bytes(harm.read_bytes())
    # 481 samples hold 120 of the 132 components below Nyquist - guard
    assert hset.n_frames == 61 and hset.n_components == 132
    assert hset.amplitudes[:, :120].any() and not hset.amplitudes[:, 120:].any()


def test_analyze_edge_frames_do_not_set_the_exit_code(tmp_path, capsys):
    """The first and last frame's windows are cut by the signal's edge (bit 2)
    and flagged ill-conditioned (bit 1); analyze keeps both bits in the
    product but lists and counts only frames with bit 1 alone."""
    wav, harm = tmp_path / "v150.wav", tmp_path / "h.bin"
    write_wav(fixtures.vowel(150.0, 0.3, 24000)[0], wav)
    capsys.readouterr()
    assert main(["analyze", str(wav), str(harm)]) == 0
    assert "ill-conditioned" not in capsys.readouterr().out
    flags = serialize.harmonics_from_bytes(harm.read_bytes()).flags
    assert np.flatnonzero(flags & 1).tolist() == [0, 60]
    assert np.all(flags[[0, 60]] & 2)


def test_products_encode_only_the_written_format(tmp_path, tone_wav, monkeypatch):
    """A .bin product is written without building its JSON text."""
    def no_json(*_):
        raise AssertionError("JSON encoder called for a .bin product")

    monkeypatch.setattr(serialize, "harmonics_to_json", no_json)
    monkeypatch.setattr(serialize, "cascade_to_json", no_json)
    harm, f0, casc = tmp_path / "h.bin", tmp_path / "f0.csv", tmp_path / "c.bin"
    assert main(["analyze", str(tone_wav), str(harm), "--f0-out", str(f0),
                 "--max-components", "3"]) in (0, 1)
    assert main(["fit-envelope", str(harm), str(casc), "--orders", "4,4,1",
                 "--f0", str(f0)]) in (0, 1)
    assert serialize.harmonics_from_bytes(harm.read_bytes()).n_components == 3
    assert serialize.cascade_from_bytes(casc.read_bytes()).orders == (4, 4, 1)


# the options each subcommand takes: --config, the shared options its command
# reads, and its own
_OPTIONS = {
    "analyze": "--config --frame-shift --window --window-kind --max-components --f0-range"
               " --f0-file --f0-out",
    "fit-envelope": "--config --orders --f0-range --f0",
    "synth": "--config --max-components --f0-range --format --f0 --from-harmonics",
    "modify": "--config --frame-shift --max-components --f0-range --format --f0 --rho"
              " --beta --schedule",
    "eval": "--config --frame-shift --window --window-kind --f0-range --rho --json-out",
    "bench": "--config --frame-shift --window --window-kind --max-components --f0-range"
             " --runs",
    "gen-fixture": "--config --format --params",
}


def test_each_subcommand_takes_only_the_options_it_reads():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
               for name, p in sub.choices.items()}
    assert options == {name: set(flags.split()) for name, flags in _OPTIONS.items()}
    assert sum(map(len, options.values())) == 44


@pytest.mark.parametrize("argv", [
    ["analyze", "in.wav", "out.bin", "--orders", "16,16,2"],
    ["fit-envelope", "h.bin", "c.bin", "--window", "0.02"],
    ["synth", "c.bin", "o.wav", "--seed", "3"],
    ["synth", "c.bin", "o.wav", "--f0", "f0.csv", "--orders", "1,2"],
    ["modify", "c.bin", "o.wav", "--f0", "f0.csv", "--window-kind", "hamming"],
    ["gen-fixture", "noise", "o.wav", "--f0-range", "60,400"],
    # the AM tone had no user after the eaQHM test was deleted
    ["gen-fixture", "am", "o.wav"],
])
def test_options_a_subcommand_does_not_read_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_synth_cascade_without_f0_exits_2(tmp_path, capsys):
    casc = tmp_path / "casc.bin"
    casc.write_bytes(serialize.cascade_to_bytes(fixtures.vowel_cascade(24000, 5, 0.005,
                                                                       0.010)))
    capsys.readouterr()
    assert main(["synth", str(casc), str(tmp_path / "out.wav")]) == 2
    assert "--f0" in capsys.readouterr().err
    assert not (tmp_path / "out.wav").exists()


def test_removed_k_guard_option_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "in.wav", "out.bin", "--k-guard", "50"])
    assert exc.value.code == 2


def test_f0_csv_below_f0_min_exits_2(tmp_path, capsys):
    """A voiced F0 below f0_min would ask for a component grid that grows as
    1/F0; the CSV is rejected before any analysis."""
    wav, harm = tmp_path / "tone.wav", tmp_path / "h.bin"
    assert main(["gen-fixture", "tone", str(wav),
                 "--params", '{"freq": 200.0, "duration": 0.02}']) == 0
    csv = tmp_path / "f0.csv"
    csv.write_text(serialize.f0_to_csv(F0Track(make_grid(0.02, 0.005, 0.010),
                                               [0.0, 0.5, 0.5, 0.5, 0.0])))
    capsys.readouterr()
    assert main(["analyze", str(wav), str(harm), "--f0-file", str(csv)]) == 2
    assert "voiced value 0.5 Hz" in capsys.readouterr().err
    # a value a hair below the minimum prints with all its digits, not as 50
    csv.write_text(serialize.f0_to_csv(F0Track(make_grid(0.02, 0.005, 0.010),
                                               [0.0, 50.0, 49.99999, 50.0, 0.0])))
    assert main(["analyze", str(wav), str(harm), "--f0-file", str(csv)]) == 2
    err = capsys.readouterr().err
    assert "voiced value 49.99999 Hz is below the minimum F0 of 50 Hz" in err
    assert "--f0-range" in err
    assert not harm.exists()


def test_analyze_f0_out_writes_the_library_track(tmp_path):
    """--f0-out writes the track of qhm.analyze: the refined track, clipped to
    --f0-range. Read back with --f0-file, it is used as given: the same
    track comes out, and the harmonics are the pass on it."""
    wav, harm, f0 = tmp_path / "v.wav", tmp_path / "h.bin", tmp_path / "f0.csv"
    assert main(["gen-fixture", "chirp", str(wav), "--params",
                 '{"f_start": 100.0, "f_end": 140.0, "duration": 0.3, "n_harmonics": 3}']) == 0
    assert main(["analyze", str(wav), str(harm), "--f0-out", str(f0),
                 "--max-components", "6", "--f0-range", "60,400"]) == 0
    buf = read_wav(wav)
    grid = make_grid(buf.duration, 0.005, 0.010)
    hset, track = qv.analyze(buf, grid, (60.0, 400.0), max_components=6)
    assert f0.read_text() == serialize.f0_to_csv(track)
    assert harm.read_bytes() == serialize.harmonics_to_bytes(hset)
    assert track.voiced.any()
    harm3, f0_3 = tmp_path / "h3.bin", tmp_path / "f0_3.csv"
    assert main(["analyze", str(wav), str(harm3), "--f0-file", str(f0), "--f0-out", str(f0_3),
                 "--max-components", "6"]) == 0
    assert f0_3.read_bytes() == f0.read_bytes()
    given, _ = qv.analyze(buf, grid, max_components=6, f0_track=track)
    assert harm3.read_bytes() == serialize.harmonics_to_bytes(given)


def test_low_voice_chain_reads_its_own_track(tmp_path):
    """refine_f0 reads most frames of a 50 Hz vowel a hair below 50 Hz; the
    written track is clipped to --f0-range, so fit-envelope takes it back."""
    wav, harm, f0 = tmp_path / "v50.wav", tmp_path / "h.bin", tmp_path / "f0.csv"
    assert main(["gen-fixture", "vowel", str(wav),
                 "--params", '{"f0": 50.0, "duration": 0.5}']) == 0
    assert main(["analyze", str(wav), str(harm), "--window", "0.015",
                 "--f0-out", str(f0)]) in (0, 1)
    cfg = tmp_path / "steps.cfg"
    cfg.write_text("fit_max_steps = 5\n")
    assert main(["fit-envelope", str(harm), str(tmp_path / "c.bin"), "--orders", "8,8,2",
                 "--config", str(cfg), "--f0", str(f0)]) in (0, 1)
    values = np.array([float(line.split(",")[1]) for line in f0.read_text().splitlines()[1:]])
    assert values[values > 0].min() == 50.0


def test_refined_track_is_as_wide_as_the_set(tmp_path):
    """On this fully voiced falling chirp the lowest-F0 frame sets the set's
    K = 219, and refine_f0 raises it past the K-rule boundary at
    11950 / 219 = 54.566 Hz. fit-envelope refuses a track whose harmonic grid
    is narrower than the set, so that frame keeps its detected F0 and the
    chain reads its own track back."""
    wav, harm, f0 = tmp_path / "c.wav", tmp_path / "h.bin", tmp_path / "f0.csv"
    assert main(["gen-fixture", "chirp", str(wav), "--params",
                 '{"f_start": 67.47, "f_end": 52.47, "duration": 0.2, "n_harmonics": 8,'
                 ' "amplitude": 0.15}']) == 0
    assert main(["analyze", str(wav), str(harm), "--f0-out", str(f0)]) in (0, 1)
    cfg = tmp_path / "steps.cfg"
    cfg.write_text("fit_max_steps = 5\n")
    assert main(["fit-envelope", str(harm), str(tmp_path / "c.bin"), "--orders", "8,8,2",
                 "--config", str(cfg), "--f0", str(f0)]) in (0, 1)
    buf = read_wav(wav)
    grid = make_grid(buf.duration, 0.005, 0.010)
    hset, track = qv.analyze(buf, grid)
    assert f0.read_text() == serialize.f0_to_csv(track)
    detected = qv.detect_f0(buf, grid)
    raw = qv.refine_f0(qv.analyze_qhm(buf, grid, detected), detected)
    assert detected.voiced.all() and hset.n_components == 219
    assert qv.harmonic_grid(raw, buf.sample_rate)[0].shape[1] < 219
    kept = np.flatnonzero(track.values != raw.values)
    assert kept.size == 1 and track.values[kept] == detected.values[kept]
    assert qv.harmonic_grid(track, buf.sample_rate)[0].shape[1] == 219


def test_fit_envelope_zero_frame_f0_exits_2(tmp_path, capsys):
    """A header-only F0 CSV over a zero-frame harmonics product is a usage
    error, not a traceback."""
    grid = FrameGrid(np.zeros(0), 0.005, 0.010)
    empty = np.zeros((0, 3))
    harm, csv = tmp_path / "empty.bin", tmp_path / "empty.csv"
    harm.write_bytes(serialize.harmonics_to_bytes(
        HarmonicSet(grid, empty, empty, empty, empty, 24000)))
    csv.write_text("time,f0\n")
    capsys.readouterr()
    assert main(["fit-envelope", str(harm), str(tmp_path / "c.bin"), "--f0", str(csv)]) == 2
    assert "no frames" in capsys.readouterr().err
    assert not (tmp_path / "c.bin").exists()


def test_synth_exit_code_2_on_ragged_cascade(tmp_path, capsys):
    cascade = fixtures.vowel_cascade(24000, 5, 0.005, 0.010)
    doc = json.loads(serialize.cascade_to_json(cascade))
    doc["frames"][1]["sections"][0]["ar"] = [0.1, 0.0, 0.0]   # 3 taps, not 8
    casc = tmp_path / "ragged.json"
    casc.write_text(json.dumps(doc))
    f0 = tmp_path / "f0.csv"
    f0.write_text(serialize.f0_to_csv(F0Track(cascade.grid, np.full(5, 150.0))))
    assert main(["synth", str(casc), str(tmp_path / "out.wav"), "--f0", str(f0)]) == 2
    assert "malformed cascade file" in capsys.readouterr().err
    assert not (tmp_path / "out.wav").exists()


@pytest.mark.parametrize("field, value", [("centers", 2), ("frame_shift", None),
                                          ("half_window", None)])
def test_synth_exit_code_2_on_nonfinite_grid(tmp_path, tone_wav, capsys, field, value):
    """A NaN in the grid of a harmonics product is a usage error, not a
    traceback from the interpolator."""
    harm = tmp_path / "harm.json"
    assert main(["analyze", str(tone_wav), str(harm), "--max-components", "3"]) == 0
    doc = json.loads(harm.read_text())
    if value is None:
        doc["grid"][field] = float("nan")
    else:
        doc["grid"][field][value] = float("nan")
    harm.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["synth", str(harm), str(tmp_path / "out.wav"), "--from-harmonics"]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "out.wav").exists()


@pytest.fixture(scope="module")
def small_harmonics(tmp_path_factory):
    """A 5-frame tone's harmonics JSON at three components, and its F0 CSV."""
    d = tmp_path_factory.mktemp("small")
    assert main(["gen-fixture", "tone", str(d / "tone.wav"),
                 "--params", '{"freq": 200.0, "duration": 0.02}']) == 0
    assert main(["analyze", str(d / "tone.wav"), str(d / "harm.json"), "--max-components",
                 "3", "--f0-out", str(d / "f0.csv")]) in (0, 1)
    return d


@pytest.mark.parametrize("command", ["synth", "fit-envelope"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("name", ["frequencies", "amplitudes", "phases", "compensations"])
def test_nonfinite_harmonics_exit_2(small_harmonics, tmp_path, capsys, command, value, name):
    """A harmonics product with one non-finite value is a usage error for
    synthesis and for the envelope fit, not a traceback or a written file."""
    d = small_harmonics
    doc = json.loads((d / "harm.json").read_text())
    doc[name][2][1] = value
    harm = tmp_path / "bad.json"
    harm.write_text(json.dumps(doc))
    out = tmp_path / ("out.wav" if command == "synth" else "casc.bin")
    argv = ([command, str(harm), str(out), "--from-harmonics"] if command == "synth" else
            [command, str(harm), str(out), "--f0", str(d / "f0.csv"), "--orders", "4,4,1"])
    capsys.readouterr()
    assert main(argv) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_gauss_window_without_a_factorable_frame(tmp_path, capsys):
    """A Gauss window a thousandth of a sample wide leaves one frame that not
    even the ridge makes factorable: analyze writes the product and exits 0
    or 1, with no traceback."""
    wav, harm, cfg = tmp_path / "tn.wav", tmp_path / "x.bin", tmp_path / "g.cfg"
    assert main(["gen-fixture", "tone", str(wav),
                 "--params", '{"freq": 200.0, "duration": 0.2}']) == 0
    cfg.write_text("window_kind = gauss\ngauss_sigma = 1e-3\n")
    assert main(["analyze", str(wav), str(harm), "--config", str(cfg)]) in (0, 1)
    assert serialize.harmonics_from_bytes(harm.read_bytes()).flags[-1] & 1


def test_config_file_flows_through(tmp_path, tone_wav):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("max_components = 4\nframe_shift = 0.01\n")
    harm = tmp_path / "harm.json"
    assert main(["analyze", str(tone_wav), str(harm), "--config", str(cfg)]) == 0
    doc = json.loads(harm.read_text())
    assert len(doc["frequencies"][0]) == 4
    bad = tmp_path / "bad.txt"
    bad.write_text("bogus_key = 1\n")
    assert main(["analyze", str(tone_wav), str(harm), "--config", str(bad)]) == 2


def _bad_value_config(tmp_path, wav, line):
    cfg = tmp_path / "cfg.txt"
    cfg.write_bytes(b"max_components = 4\n" + line + b"\n")
    return ["analyze", wav, str(tmp_path / "h.json"), "--config", str(cfg)]


@pytest.mark.parametrize("make_argv", [
    lambda d, wavs: _bad_value_config(d, wavs["tone"], b"frame_shift = abc"),
    lambda d, wavs: _bad_value_config(d, wavs["tone"], b"order_p = 1.5"),
    lambda d, wavs: _bad_value_config(d, wavs["tone"], b"window_kind = \xff\xfe"),
    lambda d, wavs: _bad_value_config(d, wavs["tone"], b"k_guard = 50"),
    lambda d, wavs: _bad_value_config(d, wavs["tone"], b"unvoiced_f0 = 100"),
    lambda d, wavs: _bad_value_config(d, wavs["tone"], b"seed = 9"),
    lambda d, wavs: _bad_value_config(d, wavs["tone"], b"sample_rate = 16000"),
    lambda d, wavs: _bad_value_config(d, wavs["tone"], b"max_components = -5"),
    lambda d, wavs: ["gen-fixture", "tone", str(d / "g.wav"), "--params", "{bad"],
    lambda d, wavs: ["gen-fixture", "tone", str(d / "g.wav"), "--params", "[1,2]"],
    lambda d, wavs: ["gen-fixture", "multisine", str(d / "g.wav"), "--params",
                     '{"f0": 100.0, "n_harmonics": 3, "amplitudes": [0.1]}'],
    lambda d, wavs: ["gen-fixture", "noise", str(d / "g.wav"), "--params", '{"seed": -1}'],
    lambda d, wavs: ["gen-fixture", "vowel", str(d / "g.wav"), "--params",
                     '{"f0": 150.0, "frame_shift": 0}'],
    lambda d, wavs: ["gen-fixture", "tone", str(d / "g.wav"), "--params",
                     '{"freq": 100.0, "duration": -1}'],
    lambda d, wavs: ["gen-fixture", "chirp", str(d / "g.wav"), "--params",
                     '{"f_start": 100.0, "f_end": 200.0, "duration": 0}'],
    lambda d, wavs: ["gen-fixture", "tone", str(d / "g.wav"), "--params",
                     '{"freq": 100.0, "sample_rate": 24000.5}'],
    lambda d, wavs: ["analyze", wavs["short"], str(d / "h.json")],
    lambda d, wavs: ["bench", wavs["short"], "--runs", "1"],
    lambda d, wavs: ["eval", wavs["tone"], wavs["silent"]],
], ids=["config-text-value", "config-float-order", "config-not-utf8", "config-k-guard",
        "config-unvoiced-f0", "config-seed", "config-sample-rate",
        "config-negative-cap", "params-not-json", "params-not-object",
        "multisine-short-amplitudes", "noise-negative-seed", "vowel-zero-frame-shift",
        "tone-negative-duration", "chirp-zero-duration", "tone-fractional-rate",
        "analyze-5-samples", "bench-5-samples", "eval-zero-reference"])
def test_exit_code_2_on_unparseable_values_and_unusable_audio(tmp_path, tone_wav, capsys,
                                                              make_argv):
    """Config values that do not parse or are out of range, a config file
    that is not text, the removed keys k_guard, unvoiced_f0, seed and
    sample_rate, --params that is not a JSON object, fixture parameters
    that make no clip (or an empty one), a WAV too short to analyze and an
    all-zero reference all exit 2 with a message, not a traceback."""
    wavs = {"tone": str(tone_wav), "short": str(tmp_path / "short.wav"),
            "silent": str(tmp_path / "silent.wav")}
    write_wav(SignalBuffer(np.full(5, 0.1), 24000), wavs["short"])
    write_wav(SignalBuffer(np.zeros(len(read_wav(tone_wav))), 24000), wavs["silent"])
    capsys.readouterr()
    argv = make_argv(tmp_path, wavs)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    if argv[0] == "gen-fixture" and argv[-1].endswith("}"):     # a JSON object
        assert "invalid fixture parameters" in err
    assert not (tmp_path / "g.wav").exists() and not (tmp_path / "h.json").exists()


# --- drawn text as input files ----------------------------------------------

@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A 5-frame tone, its harmonics product, the 5-frame vowel cascade and a
    5-frame F0 CSV."""
    d = tmp_path_factory.mktemp("fuzz")
    assert main(["gen-fixture", "tone", str(d / "tone.wav"),
                 "--params", '{"freq": 200.0, "duration": 0.02}']) == 0
    assert main(["analyze", str(d / "tone.wav"), str(d / "harm.bin")]) in (0, 1)
    cascade = fixtures.vowel_cascade(24000, 5, 0.005, 0.010)
    (d / "casc.bin").write_bytes(serialize.cascade_to_bytes(cascade))
    (d / "f0.csv").write_text(serialize.f0_to_csv(F0Track(cascade.grid, np.full(5, 150.0))))
    return d


# Text without decimal digits parses as no finite number. Rows of numbers
# hold no large time scale, and a small positive F0 is rejected before any
# analysis, so every run that succeeds stays small and quick.
_CHARS = st.characters(exclude_categories=("Nd", "Cs"))
_WORDS = st.text(_CHARS, max_size=6)
_NUMBERS = {"f0": ["0", "0.5", "150", "-150", "nan", "inf", "1e9"],
            "schedule": ["0", "0.01", "0.5", "2", "-1", "nan", "inf"]}
_LAYOUT = {"f0": (2, ","), "schedule": (3, " ")}     # columns, separator
_KEYS = st.one_of(_WORDS, st.sampled_from(sorted(vars(PipelineConfig()))
                                          + ["threads", "k_guard", "unvoiced_f0",
                                             "voicing_threshold", "refine_mode"]))


@st.composite
def _drawn_file(draw, kind):
    """Free text, or rows of drawn tokens or of numbers in the file's layout."""
    mode = draw(st.sampled_from(["text", "tokens", "numbers"]))
    if mode == "text":
        return draw(st.text(_CHARS, max_size=80))
    if kind == "config":
        values = _WORDS if mode == "tokens" else st.sampled_from(["nan", "inf", "-inf"])
        line = st.builds("{} = {}".format, _KEYS, values)
    else:
        columns, sep = _LAYOUT[kind]
        tokens = st.sampled_from(_NUMBERS[kind])
        if mode == "tokens":
            tokens, columns = tokens | _WORDS, None
        line = st.lists(tokens, min_size=columns or 0, max_size=columns or 4).map(sep.join)
    rows = draw(st.lists(line, max_size=7))
    return "\n".join((["time,f0"] if kind == "f0" else []) + rows)


@given(st.sampled_from(["f0", "schedule", "config"]).flatmap(
    lambda kind: st.tuples(st.just(kind), _drawn_file(kind))))
@settings(max_examples=150, deadline=None)
def test_drawn_input_files_exit_0_1_or_2(fuzz_dir, drawn):
    """Drawn text as the F0 CSV, the schedule file or the config file: every
    run ends in exit 0, 1 or 2, with no exception escaping main."""
    kind, text = drawn
    d = fuzz_dir
    path = d / f"drawn.{kind}"
    path.write_text(text, encoding="utf-8")
    out = str(d / "out.wav")
    runs = {
        "f0": [["analyze", str(d / "tone.wav"), str(d / "h.bin"), "--f0-file", str(path)],
               ["synth", str(d / "casc.bin"), out, "--f0", str(path)],
               ["fit-envelope", str(d / "harm.bin"), str(d / "c.bin"), "--f0", str(path),
                "--orders", "4,4,1"]],
        "schedule": [["modify", str(d / "casc.bin"), out, "--f0", str(d / "f0.csv"),
                      "--schedule", str(path)]],
        "config": [["analyze", str(d / "tone.wav"), str(d / "h.bin"), "--config", str(path)]],
    }
    for argv in runs[kind]:
        assert main(argv) in (0, 1, 2), argv


@given(image=wav_images() | st.binary(max_size=60))
@settings(max_examples=120, deadline=None)
def test_analyze_drawn_wav_bytes(fuzz_dir, image):
    """analyze on drawn bytes as the input WAV: a file read_wav rejects exits
    2 with a message, and no run lets an exception escape main."""
    path = fuzz_dir / "drawn.wav"
    path.write_bytes(image)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            read_wav(path)
            rejected = False
        except SignalError:
            rejected = True
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["analyze", str(path), str(fuzz_dir / "drawn.bin")])
    if rejected:
        assert code == 2 and err.getvalue().startswith("error: ")
    else:
        assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
