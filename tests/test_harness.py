"""Command-line interface: subcommands, config precedence, exit codes,
byte-identical reruns."""

import csv
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from arcnc import harness
from arcnc.harness import main
from arcnc.topology import combination_network, eta, load_topology


def run_cli(*argv):
    return main(list(argv))


def test_gen_comb_roundtrip(tmp_path):
    out = tmp_path / "net.txt"
    assert run_cli("gen", "comb", "--n", "4", "--m", "2", "--out", str(out)) == 0
    assert load_topology(out.read_text()) == combination_network(4, 2)


def test_gen_fig1_and_trace(tmp_path, capsys):
    assert run_cli("gen", "fig1", "--out", str(tmp_path)) == 0
    topo_file = tmp_path / "fig1_topology.txt"
    ov_file = tmp_path / "fig1_overrides.txt"
    assert topo_file.exists() and ov_file.exists()
    out_json = tmp_path / "trace.json"
    rc = run_cli("trace", "--topology", str(topo_file),
                 "--override", str(ov_file), "--q", "2",
                 "--out", str(out_json))
    captured = capsys.readouterr()
    assert rc == 0
    assert "k(x0->e0, t=0) = 1" in captured.out
    doc = json.loads(out_json.read_text())
    assert doc["T"] == {"5": 0, "6": 0, "7": 0, "8": 0, "9": 0, "10": 1}
    assert doc["avg_T"] == 1 / 6
    assert doc["avg_code_len"] == 1.5
    assert doc["avg_memory_bits"] == 42 / 11
    assert doc["success"] is True


@pytest.mark.parametrize("q, lines, doc", [
    (2, "032b60bc6fca7d8f176997d4fd4292868fa614d51ccc8df13b1642a267dcb441",
     "3d0b7a4fe4b0a1814c63c84c7b5c803669d2ec7f1e38be30a8aa6104879a49ff"),
    (3, "fc6429c6f82ca8531b6ded89fbdeb17e51e2a8b3264657998140eea4bf1987d5",
     "8a98e6243f67da1f83bc1c5f42334eafc478d9cb7cba3327643b82a5627da9ca"),
    (4, "8f4633581d774c9b9a171b5c256b2243d1a69f2519cfd358cbe53a311e710309",
     "72adcf979ad27ef34bbb374c49c96e995e8590e3da04b8b03e4ea30f06c743b4"),
], ids=["q2", "q3", "q4"])
def test_trace_bytes_are_pinned(tmp_path, capsys, q, lines, doc):
    # gen fig1's script: the trace lines on stdout and the JSON in --out,
    # or both on stdout without --out.  A changed line, field or value
    # changes these digests.
    assert run_cli("gen", "fig1", "--out", str(tmp_path)) == 0
    argv = ["trace", "--topology", str(tmp_path / "fig1_topology.txt"),
            "--override", str(tmp_path / "fig1_overrides.txt"),
            "--q", str(q)]
    out = tmp_path / "trace.json"
    assert run_cli(*argv, "--out", str(out)) == 0
    text = capsys.readouterr().out.encode()
    assert hashlib.sha256(text).hexdigest() == lines
    assert hashlib.sha256(out.read_bytes()).hexdigest() == doc
    assert run_cli(*argv) == 0
    assert capsys.readouterr().out.encode() == text + out.read_bytes()


def test_gen_cycle(tmp_path):
    out = tmp_path / "cycle.txt"
    assert run_cli("gen", "cycle", "--out", str(out)) == 0
    topo = load_topology(out.read_text())
    assert topo.m == 2 and len(topo.sinks) == 1


def test_run_campaign_outputs(tmp_path):
    outdir = tmp_path / "camp"
    rc = run_cli("run", "--n", "4", "--m", "2", "--q", "2", "--trials", "40",
                 "--seed", "11", "--out", str(outdir), "--no-verify")
    assert rc == 0
    sinks_csv = (outdir / "campaign_sinks.csv").read_text()
    trials_csv = (outdir / "campaign_trials.csv").read_text()
    assert sinks_csv.splitlines()[0] == "trial,seed,sink,T_i,T_N,success"
    assert trials_csv.splitlines()[0] == \
        "trial,avg_T,avg_code_len,avg_memory_bits,rounds"
    assert len(sinks_csv.strip().splitlines()) == 1 + 40 * 6
    doc = json.loads((outdir / "summary.json").read_text())
    assert doc["arcnc"]["trials"] == 40
    assert doc["arcnc"]["analysis"]["et_upper"] == 5 / 3
    assert doc["bnc_comparison"]["decoding_delay"] == 1
    assert "literature" in doc["bnc_comparison"]["label"]


def test_run_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for outdir in (a, b):
        assert run_cli("run", "--n", "4", "--m", "2", "--q", "2",
                       "--trials", "25", "--seed", "42",
                       "--out", str(outdir)) == 0
    for name in ("campaign_sinks.csv", "campaign_trials.csv", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_deterministic_campaign_has_zero_variance(tmp_path):
    # The fig1 override script fixes every trial's avg_T at 1/6; float
    # cancellation must not make the variance negative and the standard
    # error complex.
    assert run_cli("gen", "fig1", "--out", str(tmp_path)) == 0
    outdir = tmp_path / "out"
    assert run_cli("run", "--topology", str(tmp_path / "fig1_topology.txt"),
                   "--override", str(tmp_path / "fig1_overrides.txt"),
                   "--q", "2", "--trials", "34", "--seed", "1",
                   "--mode", "arcnc", "--out", str(outdir)) == 0
    doc = json.loads((outdir / "summary.json").read_text())["arcnc"]
    assert doc["mean_avg_T"] == pytest.approx(1 / 6)
    assert doc["var_avg_T"] == doc["se_avg_T"] == 0.0


def test_var_upper_reported_for_combination_networks_only(tmp_path):
    # C(source out-degree, m) = 3 = number of sinks, but this is no
    # combination network, so the comb(n, m) bound does not apply.
    dag = tmp_path / "dag.txt"
    dag.write_text("nodes 5\nm 1\nsource 0\nsinks 2 3 4\n"
                   "edge 0 1\nedge 0 2\nedge 1 3\nedge 1 4\nedge 0 4\n")
    comb = tmp_path / "comb.txt"
    assert run_cli("gen", "comb", "--n", "4", "--m", "2",
                   "--out", str(comb)) == 0
    for topo_file, want in ((dag, False), (comb, True)):
        outdir = tmp_path / topo_file.stem
        assert run_cli("run", "--topology", str(topo_file), "--q", "2",
                       "--trials", "20", "--seed", "1", "--mode", "arcnc",
                       "--no-verify", "--out", str(outdir)) == 0
        doc = json.loads((outdir / "summary.json").read_text())
        assert ("var_upper" in doc["arcnc"]["analysis"]) == want


def test_compare_adds_rlnc_section(tmp_path):
    outdir = tmp_path / "cmp"
    rc = run_cli("compare", "--n", "4", "--m", "2", "--q", "8",
                 "--trials", "4000", "--seed", "1", "--out", str(outdir),
                 "--no-verify")
    assert rc == 0
    doc = json.loads((outdir / "summary.json").read_text())
    assert "rlnc" in doc and "arcnc" in doc
    # per-sink fractions near 441/512; the overall AND over the six
    # correlated sinks is well below that
    for frac in doc["rlnc"]["per_sink_success"].values():
        assert abs(frac - 441 / 512) < 0.03
    assert 0 < doc["rlnc"]["overall_success"] < min(
        doc["rlnc"]["per_sink_success"].values())
    rows = list(csv.DictReader(
        (outdir / "rlnc_curve.csv").read_text().splitlines()))
    assert len(rows) == 6
    for row in rows:
        assert float(row["ho_bound"]) == 49 / 64


def test_bounds_table(tmp_path):
    out = tmp_path / "bounds.csv"
    rc = run_cli("bounds", "--n", "4", "--m", "2", "--q", "8",
                 "--t-max", "2", "--out", str(out))
    assert rc == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    cells = {(r["quantity"], r["t"]): r["value"] for r in rows}
    assert cells[("ho_bound_sink", "0")] == "49/64"
    assert cells[("et_upper", "")] == "17/63"   # 2/7 - 1/63 for m=2, q=8
    # the law of a sink's T: P(T = 0) = (1 - 1/8)(1 - 1/64), and the mean
    # delay 1/7 + 1/63
    assert cells[("stopping_law", "0")] == "441/512"
    assert cells[("mean_delay", "")] == "10/63"


@pytest.mark.parametrize("n, m, q, t_max, digest", [
    (4, 2, 8, 4,
     "8840d06dd47effd7c68f7f0aa573bcf7ec30a0854c92500eb08e08543ac8f8d3"),
    (6, 3, 3, 4,
     "08200d03aa43edeb2cbc9e4b20996854948e78d33d27debcf13dad18e62d160f"),
    (3, 3, 2, 4,
     "c1bffe8619bfb640d94e94db6bf2faed8a21d92b9096e98430452319b668d7ac"),
    (40, 20, 2, 1,
     "eadcde699567ad1f3d7d49fb3be72c0a08f8eb4c640dfa3dc7b5e969bdedc8f3"),
], ids=["comb42-q8", "comb63-q3", "comb33-q2", "comb40_20-q2"])
def test_bounds_bytes_are_pinned(tmp_path, n, m, q, t_max, digest):
    # Every exact value is printed in full as n/d (or n): a rounded or
    # reformatted one changes these digests.
    out = tmp_path / "bounds.csv"
    assert run_cli("bounds", "--n", str(n), "--m", str(m), "--q", str(q),
                   "--t-max", str(t_max), "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_bounds_na_cells(tmp_path):
    out = tmp_path / "bounds.csv"
    assert run_cli("bounds", "--n", "4", "--m", "2", "--q", "2",
                   "--t-max", "1", "--out", str(out)) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    cells = {(r["quantity"], r["t"]): r["value"] for r in rows}
    # network bound needs q^(t+1) > d = 6: N/A at t = 0, 1 for q = 2
    assert cells[("ho_bound_network", "0")] == "N/A"
    assert cells[("ho_bound_network", "1")] == "N/A"
    assert cells[("et_upper", "")] == "5/3"
    assert cells[("et_lower", "")] == "3/5"


def test_bounds_eta_is_the_combination_networks(tmp_path):
    # bounds gives comb(n, m) eta = n and per-sink eta = m without
    # building the network; they equal the counts on the network itself.
    out = tmp_path / "bounds.csv"
    for n in range(1, 8):
        for m in range(1, n + 1):
            assert run_cli("bounds", "--n", str(n), "--m", str(m), "--q",
                           "2", "--t-max", "0", "--out", str(out)) == 0
            rows = list(csv.DictReader(out.read_text().splitlines()))
            etas = {r["quantity"]: int(r["eta"]) for r in rows
                    if r["quantity"].startswith("ho_bound")}
            topo = combination_network(n, m)
            assert etas["ho_bound_network"] == eta(topo)
            assert {eta(topo, r) for r in topo.sinks} == \
                {etas["ho_bound_sink"]}


def test_wide_networks_are_not_built_to_count_or_compare(tmp_path,
                                                         monkeypatch):
    # comb(40, 20) has about 1.4e11 sinks: bounds gets its eta without
    # building it, and run compares a file topology with comb(n, m) only
    # once the node and edge counts match.
    def refuse(n, m):
        raise AssertionError(f"comb({n},{m}) built")

    monkeypatch.setattr(harness, "combination_network", refuse)
    out = tmp_path / "bounds.csv"
    start = time.monotonic()
    assert run_cli("bounds", "--n", "40", "--m", "20", "--q", "2",
                   "--out", str(out)) == 0
    assert time.monotonic() - start < 1
    # a fan: the source, 40 relays and one sink of m = 20
    fan = tmp_path / "fan.txt"
    fan.write_text("nodes 42\nm 20\nsource 0\nsinks 41\n" + "".join(
        f"edge 0 {i}\nedge {i} 41\n" for i in range(1, 41)))
    outdir = tmp_path / "fan"
    assert run_cli("run", "--topology", str(fan), "--q", "2", "--trials",
                   "10", "--no-verify", "--out", str(outdir)) == 0
    doc = json.loads((outdir / "summary.json").read_text())
    assert "var_upper" not in doc["arcnc"]["analysis"]


def test_config_file_with_cli_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 4\nm = 2\nq = 4\ntrials = 10\nseed = 3\n")
    outdir = tmp_path / "o1"
    assert run_cli("run", "--config", str(cfg), "--out", str(outdir),
                   "--no-verify") == 0
    doc = json.loads((outdir / "summary.json").read_text())
    assert doc["arcnc"]["q"] == 4 and doc["arcnc"]["trials"] == 10
    outdir2 = tmp_path / "o2"
    assert run_cli("run", "--config", str(cfg), "--q", "8",
                   "--out", str(outdir2), "--no-verify") == 0
    doc2 = json.loads((outdir2 / "summary.json").read_text())
    assert doc2["arcnc"]["q"] == 8   # CLI flag wins over the file


@pytest.mark.parametrize("command, text, rc, err", [
    ("bounds", "n = 4\nm = 2\nq = 2\nt_max = 1\n", 0, ""),
    ("run", "n = 4\nm = 2\ntrials = 5\nmode = bogus\n", 1,
     "config key 'mode': invalid choice 'bogus'"),
    ("run", "n = 4\nm = 2\ntrials = 5\nverify = false\n", 1,
     "config key 'verify' takes no value"),
    ("bounds", "config = other.cfg\nn = 4\nm = 2\n", 1,
     "unknown config key 'config'"),
    ("bounds", "n = 4\ntol = 1e-9\n", 1, "unknown config key 'tol'"),
    ("run", "n = 4\nm = 2\ntrials = 5\ntrials = 7\n", 1,
     "config line 4: duplicate key 'trials' (first given on line 3)"),
    ("run", "n = 4\nm = 2\nmax-rounds = 3\nmax_rounds = 4\n", 1,
     "config line 4: duplicate key 'max_rounds' (first given on line 3)"),
])
def test_config_file_values_checked_like_flags(tmp_path, capsys, command,
                                               text, rc, err):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert run_cli(command, "--config", str(cfg), "--out", str(out)) == rc
    assert err in capsys.readouterr().err
    if rc:
        assert not out.exists()
    else:
        rows = csv.DictReader(out.read_text().splitlines())
        assert {r["t"] for r in rows} == {"", "0", "1"}


def test_exit_code_validation_errors(tmp_path, capsys):
    assert run_cli("run", "--trials", "5") == 1          # no topology at all
    assert run_cli("bounds", "--m", "3", "--q", "2", "--n", "2") == 1  # n < m
    assert run_cli("run", "--n", "4", "--m", "2", "--q", "6",
                   "--trials", "1") == 1                 # invalid field order
    ov = tmp_path / "bad.txt"
    ov.write_text("k 0 1 0\n")   # five fields required
    assert run_cli("trace", "--n", "4", "--m", "2",
                   "--override", str(ov)) == 1
    # usage errors exit 1, as the same values read from --config do
    assert run_cli("run", "--n", "4", "--trials", "abc") == 1
    assert "argument --trials: invalid int value" in capsys.readouterr().err
    assert run_cli("run", "--n", "4", "--mode", "bogus") == 1
    assert "argument --mode: invalid choice" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--help")
    assert exc.value.code == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["bounds", "--n", "4", "--m", "2", "--seed", "1"],
    ["bounds", "--n", "4", "--m", "2", "--max-rounds", "5"],
    ["bounds", "--n", "4", "--m", "2", "--override", "k.txt"],
    ["bounds", "--n", "4", "--m", "2", "--topology", "absent.txt"],
    ["gen", "comb", "--n", "4", "--m", "2", "--q", "4"],
    ["gen", "comb", "--n", "4", "--m", "2", "--seed", "1"],
    ["gen", "comb", "--n", "4", "--m", "2", "--max-rounds", "5"],
    ["gen", "comb", "--n", "4", "--m", "2", "--topology", "absent.txt"],
    ["gen", "comb", "--n", "4", "--m", "2", "--override", "k.txt"],
    ["gen", "comb", "--n", "4", "--m", "2", "--tol", "0.1"],
    ["trace", "--n", "4", "--m", "2", "--tol", "0.1"],
    ["bounds", "--n", "4", "--m", "2", "--tol", "nan"],
    ["compare", "--n", "4", "--m", "2", "--trials", "5", "--mode", "arcnc"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_subcommand_rejects_options_it_does_not_read(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", str(out)) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["run", "--tol", "0"], ["run", "--tol", "nan"],
    ["compare", "--tol", "-1"]], ids=["run0", "runnan", "compare-1"])
def test_campaign_rejects_bad_tol_before_any_work(tmp_path, monkeypatch,
                                                  capsys, argv):
    # run and compare take no --tol: exact_ET runs at its own default
    def fail(*args, **kwargs):
        raise AssertionError("campaign started")

    monkeypatch.setattr(harness, "collect_campaign", fail)
    monkeypatch.setattr(harness, "sink_success_fractions", fail)
    outdir = tmp_path / "out"
    assert run_cli(*argv, "--n", "4", "--m", "2", "--trials", "5",
                   "--out", str(outdir)) == 1
    assert "unrecognized arguments: --tol" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("argv, files, rc, message", [
    (["run", "--config", "{d}/c.cfg"], {"c.cfg": "# n and m\n\nn 4\n"}, 1,
     "error: config line 3: expected 'key = value'"),
    (["run", "--config", "{d}/c.cfg"], {"c.cfg": "n = 4\ntrials = many\n"},
     1, "error: config key 'trials': invalid value 'many'"),
    (["run", "--n", "4", "--trials", "5", "--override", "{d}/k.txt"],
     {"k.txt": "k -1 0 zero 1\n"}, 1,
     "error: override line 1: non-integer field"),
    (["run", "--topology", "{d}/t.txt", "--trials", "5"],
     {"t.txt": "nodes 3\nm 2\nsource 0\nsinks 2\nedge 0 1\nedge 1 2\n"}, 1,
     "error: multicast validation failed: sinks (2,) have max-flow below "
     "m=2"),
    (["gen", "comb", "--m", "2"], {}, 1, "error: gen comb needs --n\n"),
    (["trace", "--n", "4"], {}, 1,
     "error: trace needs --override SCRIPT"),
    (["bounds", "--m", "2", "--q", "3"], {}, 1, "error: bounds needs --n\n"),
    (["gen", "fig1", "--out", "{d}/file/out"], {"file": ""}, 2,
     "I/O error: [Errno 20] Not a directory"),
    (["run", "--n", "4", "--trials", "5", "--no-verify",
      "--out", "{d}/file/out"], {"file": ""}, 2,
     "I/O error: [Errno 17] File exists"),
], ids=["config-no-equals", "config-value", "override-field", "max-flow",
        "gen-comb-no-n", "trace-no-override", "bounds-no-n", "fig1-dir",
        "run-write"])
def test_bad_input_exits_with_its_message(tmp_path, capsys, argv, files, rc,
                                          message):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    before = sorted(tmp_path.rglob("*"))
    argv = [arg.format(d=tmp_path) for arg in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "out")]
    assert run_cli(*argv) == rc
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert sorted(tmp_path.rglob("*")) == before


def test_compare_rejects_cyclic_topology_before_any_output(tmp_path, capsys):
    cycle = tmp_path / "cycle.txt"
    assert run_cli("gen", "cycle", "--out", str(cycle)) == 0
    for argv in (["compare"], ["run", "--mode", "rlnc"]):
        outdir = tmp_path / "out"
        assert run_cli(*argv, "--topology", str(cycle), "--q", "4",
                       "--trials", "20", "--out", str(outdir)) == 1
        assert "acyclic" in capsys.readouterr().err
        assert not outdir.exists()


@pytest.mark.parametrize("command, target", [
    ("run", "collect_campaign"), ("compare", "collect_campaign"),
    ("compare", "sink_success_fractions")])
def test_failed_campaign_leaves_no_output(tmp_path, monkeypatch, command,
                                          target):
    def fail(*args, **kwargs):
        raise RuntimeError("campaign interrupted")

    monkeypatch.setattr(harness, target, fail)
    outdir = tmp_path / "out"
    with pytest.raises(RuntimeError, match="campaign interrupted"):
        run_cli(command, "--n", "4", "--m", "2", "--trials", "5",
                "--out", str(outdir))
    assert not outdir.exists()


def test_run_rejects_bad_workers_and_trials(tmp_path, capsys):
    for flag, value in (("--workers", "0"), ("--workers", "-3"),
                        ("--trials", "0")):
        outdir = tmp_path / "out"
        assert run_cli("run", "--n", "4", "--m", "2", "--trials", "5",
                       flag, value, "--out", str(outdir)) == 1
        assert f"{flag} must be >= 1" in capsys.readouterr().err
        assert not outdir.exists()


def test_run_rejects_topology_without_sinks(tmp_path, capsys):
    topo_file = tmp_path / "nosinks.txt"
    topo_file.write_text("nodes 2\nm 1\nsource 0\nsinks\nedge 0 1\n")
    outdir = tmp_path / "out"
    assert run_cli("run", "--topology", str(topo_file), "--trials", "5",
                   "--out", str(outdir)) == 1
    assert "error: topology has no sinks" in capsys.readouterr().err
    assert not outdir.exists()


def test_exit_code_io_errors(tmp_path, capsys):
    assert run_cli("run", "--topology", str(tmp_path / "absent.txt"),
                   "--trials", "1") == 2
    assert run_cli("trace", "--n", "4", "--m", "2",
                   "--override", str(tmp_path / "absent.txt")) == 2
    assert run_cli("run", "--config", str(tmp_path / "absent.cfg")) == 2
    capsys.readouterr()


def test_duplicate_override_line_rejected(tmp_path, capsys):
    ov = tmp_path / "dup.txt"
    ov.write_text("k -1 0 0 1\nk -1 0 0 1\n")
    assert run_cli("trace", "--n", "4", "--m", "2",
                   "--override", str(ov)) == 1
    err = capsys.readouterr().err
    assert "line 2" in err and "duplicate" in err


def test_truncated_override_script_names_missing_pair(tmp_path, capsys):
    from arcnc.harness import fig1_override_text
    lines = [ln for ln in fig1_override_text().splitlines()
             if not ln.endswith("3 1 0")]   # drop k -2 e3 t=1
    ov = tmp_path / "trunc.txt"
    ov.write_text("\n".join(lines) + "\n")
    assert run_cli("trace", "--n", "4", "--m", "2", "--q", "2",
                   "--override", str(ov)) == 1
    err = capsys.readouterr().err
    assert "x1->e3, t=1" in err


def test_override_the_trial_never_draws_rejected(tmp_path, capsys):
    from arcnc.harness import fig1_override_text
    ov = tmp_path / "relay.txt"
    ov.write_text(fig1_override_text() + "k 0 4 0 1\n")   # e4 leaves a relay
    out = tmp_path / "trace.json"
    assert run_cli("trace", "--n", "4", "--m", "2", "--q", "2",
                   "--override", str(ov), "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "k(e0->e4, t=0)" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--q", "6"], "6 is neither prime nor a power of 2"),
    (["--max-rounds", "0"], "--max-rounds must be >= 1")],
    ids=["q6", "max-rounds0"])
@pytest.mark.parametrize("argv", [
    ["run"], ["run", "--mode", "rlnc"], ["compare"], ["trace"]],
    ids=["run", "run-rlnc", "compare", "trace"])
def test_bad_field_and_max_rounds_fail_before_the_topology_loads(
        tmp_path, monkeypatch, capsys, argv, flags, message):
    # Building comb(16, 4) and its max-flow check takes seconds.
    def fail(*args, **kwargs):
        raise AssertionError("topology loaded")

    monkeypatch.setattr(harness, "_load_topology_arg", fail)
    outdir = tmp_path / "out"
    assert run_cli(*argv, "--n", "16", "--m", "4", *flags,
                   "--out", str(outdir)) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("flags, message", [
    (["--q", "1"], "field order 1 out of supported range"),
    (["--q", "6"], "6 is neither prime nor a power of 2"),
    (["--q", "-3"], "field order -3 out of supported range"),
    (["--t-max", "-1"], "--t-max must be >= 0"),
    (["--m", "-1"], "need 1 <= m <= n, got n=4, m=-1"),
    (["--n", "-2", "--m", "-3"], "need 1 <= m <= n, got n=-2, m=-3"),
], ids=["q1", "q6", "q-3", "tmax-1", "m-1", "n-2m-3"])
def test_bounds_rejects_bad_input(tmp_path, capsys, flags, message):
    out = tmp_path / "bounds.csv"
    assert run_cli("bounds", "--n", "4", "--m", "2", "--q", "2", *flags,
                   "--out", str(out)) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["run", "--trials", "5"], ["compare", "--trials", "5"], ["trace"],
    ["gen", "comb"], ["bounds"]], ids=lambda argv: argv[0])
def test_n_zero_reports_the_range(tmp_path, capsys, argv):
    # --n 0 is given, not missing: the user sees the range it breaks.
    out = tmp_path / "out"
    assert run_cli(*argv, "--n", "0", "--m", "2", "--out", str(out)) == 1
    assert "error: need 1 <= m <= n, got n=0, m=2" in capsys.readouterr().err
    assert not out.exists()


def _open_failing_on_write(monkeypatch, nth):
    """Make the harness's nth file opened for writing fail: disk full."""
    writes = []

    def fake_open(path, mode="r", *args, **kwargs):
        if "w" in mode or "x" in mode:
            writes.append(path)
            if len(writes) == nth:
                raise OSError(28, "No space left on device")
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(harness, "open", fake_open, raising=False)
    return writes


def test_run_write_failure_leaves_no_output(tmp_path, monkeypatch, capsys):
    writes = _open_failing_on_write(monkeypatch, 3)
    outdir = tmp_path / "sub" / "out"
    assert run_cli("run", "--n", "4", "--m", "2", "--trials", "5",
                   "--no-verify", "--out", str(outdir)) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert len(writes) == 3
    assert list((tmp_path / "sub").iterdir()) == []


def test_run_write_failure_keeps_existing_directory_as_it_was(
        tmp_path, monkeypatch, capsys):
    outdir = tmp_path / "out"
    outdir.mkdir()
    (outdir / "summary.json").write_text("old\n")
    _open_failing_on_write(monkeypatch, 3)
    assert run_cli("run", "--n", "4", "--m", "2", "--trials", "5",
                   "--no-verify", "--out", str(outdir)) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert [p.name for p in outdir.iterdir()] == ["summary.json"]
    assert (outdir / "summary.json").read_text() == "old\n"


def test_main_calls_in_one_process_match_fresh_processes(monkeypatch,
                                                         capsys):
    # main builds its parser once per process; calls after a usage error
    # and with other subcommands and options still parse as in a fresh
    # interpreter.  Usage text wraps at COLUMNS, set alike in both.
    calls = [["gen", "comb", "--n", "5", "--m", "3"],
             ["run", "--n", "4", "--m", "2", "--mode", "bogus"],
             ["bounds", "--n", "4", "--m", "2", "--q", "3", "--t-max", "2"]]
    monkeypatch.setenv("COLUMNS", "80")
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    fresh = [subprocess.run([sys.executable, "-m", "arcnc", *argv],
                            capture_output=True, env=env)
             for argv in calls]
    assert [p.returncode for p in fresh] == [0, 1, 0]
    for argv, proc in zip(calls, fresh):
        assert main(argv) == proc.returncode
        out = capsys.readouterr()
        assert (out.out.encode(), out.err.encode()) == (proc.stdout,
                                                        proc.stderr)
    assert harness.build_parser() is harness.build_parser()
