"""The three campaign workloads of the arcnc benchmark.

Each workload is a closed batch: one caller waits for a whole campaign.
A workload knows how to set itself up (the part `setup_s` measures), how
to run one timed call for a given base seed, how to check the output of
that call, and how to produce the output of its correctness gate, a
fixed campaign at the committed seed whose SHA-256 is recorded in
`reference.json`.

The workload seed reaches the program only as `SimConfig.base_seed`
(library workloads) or `--seed` (the CLI workload).
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"



def _cannot_run(text):
    print(f"perfbench: {text}", file=sys.stderr)
    sys.exit(2)


_src = ROOT / "src"
if not (_src / "arcnc" / "__init__.py").is_file():
    _cannot_run(f"{_src / 'arcnc'} not found; run from a checkout that "
                "holds the arcnc sources")
sys.path.insert(0, str(_src))

import arcnc  # noqa: E402

if Path(arcnc.__file__).resolve().parent != (_src / "arcnc").resolve():
    _cannot_run(f"imported arcnc from {arcnc.__file__}, not from {_src}")

# Seed the correctness gate runs at; reference.json was recorded with it.
GATE_SEED = 20110331

# Trials per run re-checked against the independent stopping-time oracle.
ORACLE_TRIALS = 4


def campaign_seed(seed: int, call: int) -> int:
    """Base seed of the call-th timed campaign of a run with --seed seed."""
    return seed * 10_000 + call


class Failure(Exception):
    """A check on the program's output did not hold."""


def summary_digest(summary) -> str:
    doc = json.dumps(summary.to_json_dict(), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def check_summary(summary, trials: int, sinks) -> int:
    """Structural invariants of a CampaignSummary; returns failed trials."""
    if summary.trials != trials:
        raise Failure(f"summary counts {summary.trials} trials, ran {trials}")
    if sum(summary.hist_T_N.values()) != trials:
        raise Failure("hist_T_N does not sum to the trial count")
    if sorted(summary.per_sink_T_hist) != sorted(sinks):
        raise Failure("per_sink_T_hist does not cover exactly the sinks")
    for r, h in summary.per_sink_T_hist.items():
        if sum(h.values()) != trials:
            raise Failure(f"per-sink histogram of sink {r} does not sum "
                          "to the trial count")
    if not 0 <= summary.success_count <= trials:
        raise Failure("success count out of range")
    return trials - summary.success_count


class LibraryWorkload:
    """`engine.collect_campaign` on a combination network, workers=1."""

    workers = 1

    def __init__(self, name, n, m, q, verify, trials_per_call, trace_trials,
                 gate_trials):
        self.name = name
        self.n, self.m, self.q = n, m, q
        self.verify = verify
        self.trials_per_call = trials_per_call
        self.trace_trials = trace_trials
        self.gate_trials = gate_trials

    def setup(self):
        """Import, topology, field, max-flow check and a first trial."""
        from arcnc import engine, gf, topology
        self.engine = engine
        topo = topology.combination_network(self.n, self.m)
        field = gf.field_new(self.q)
        if not topology.validate_multicast(topo).ok:
            raise Failure("combination network fails the max-flow check")
        self.config = engine.SimConfig(topology=topo, field=field,
                                       verify_decode=self.verify,
                                       verify_headers=self.verify)
        engine.run_trial(self.config, 0)

    def _config(self, base_seed, **kw):
        return dataclasses.replace(self.config, base_seed=base_seed, **kw)

    def call_workers(self, base_seed, trials, workers):
        return self.engine.collect_campaign(self._config(base_seed), trials,
                                            workers=workers)

    def call(self, base_seed, trials):
        """The timed call."""
        return self.call_workers(base_seed, trials, self.workers)

    def collect(self, summary):
        """The output of a timed call, gathered outside the timed region."""
        return summary

    def check(self, trials, summary) -> int:
        """Raise `Failure` on inconsistent output; return failed trials."""
        return check_summary(summary, trials, self.config.topology.sinks)

    def digest(self, summary) -> str:
        return summary_digest(summary)

    def gate(self, workers) -> str:
        """Digest of the gate campaign at the committed seed."""
        return self.digest(self.call_workers(GATE_SEED, self.gate_trials,
                                             workers))

    def oracle(self, base_seed, _summary):
        """Stopping times of a few trials against the dense rank rule.

        The campaign over those trials must also aggregate to the summary
        of the checked trials.
        """
        from oracle import check_stopping_times
        cfg = self._config(base_seed, keep_kernels=True)
        expect = self.engine.CampaignSummary(
            trials=ORACLE_TRIALS, q=self.q, m=self.m,
            d=len(cfg.topology.sinks), eta=self.engine.eta(cfg.topology))
        for i in range(ORACLE_TRIALS):
            res = self.engine.run_trial(cfg, i)
            check_stopping_times(res, cfg)
            expect.absorb(res)
        got = self.call(base_seed, ORACLE_TRIALS)
        if got.to_json_dict() != expect.to_json_dict():
            raise Failure("collect_campaign disagrees with its checked trials")


class CliWorkload:
    """In-process `harness.main(["compare", ...])` with a worker pool."""

    n, m, q = 6, 3, 3
    workers = 2
    files = ("campaign_sinks.csv", "campaign_trials.csv", "rlnc_curve.csv",
             "summary.json")

    def __init__(self, name, trials_per_call, trace_trials, gate_trials):
        self.name = name
        self.trials_per_call = trials_per_call
        self.trace_trials = trace_trials
        self.gate_trials = gate_trials

    def setup(self):
        """Import, topology, field, max-flow check and a first trial."""
        from arcnc import engine, gf, harness, topology
        self.engine, self.harness = engine, harness
        topo = topology.combination_network(self.n, self.m)
        field = gf.field_new(self.q)
        if not topology.validate_multicast(topo).ok:
            raise Failure("combination network fails the max-flow check")
        self.config = engine.SimConfig(topology=topo, field=field,
                                       verify_decode=False,
                                       verify_headers=False)
        engine.run_trial(self.config, 0)

    def call_workers(self, base_seed, trials, workers):
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        out = tempfile.mkdtemp(prefix="compare-", dir=OUT_DIR)
        rc = self.harness.main([
            "compare", "--n", str(self.n), "--m", str(self.m),
            "--q", str(self.q), "--no-verify", "--workers", str(workers),
            "--trials", str(trials), "--seed", str(base_seed), "--out", out])
        if rc != 0:
            shutil.rmtree(out)
            raise Failure(f"arcnc compare exited with {rc}")
        return out

    def call(self, base_seed, trials):
        """The timed call; returns the output directory."""
        return self.call_workers(base_seed, trials, self.workers)

    def collect(self, out):
        """The four output files' bytes; removes the output directory."""
        try:
            return {f: (Path(out) / f).read_bytes() for f in self.files}
        finally:
            shutil.rmtree(out)

    def digest(self, blobs) -> str:
        h = hashlib.sha256()
        for f in self.files:
            h.update(f.encode() + b"\0" + blobs[f] + b"\0")
        return h.hexdigest()

    def check(self, trials, blobs) -> int:
        """The CSVs, the summary and the RLNC curve must agree; returns
        the trials that ended success=False."""
        sinks = self.config.topology.sinks
        rows = list(csv.reader(
            blobs["campaign_sinks.csv"].decode().splitlines()))
        if rows[0] != self.engine.TRIAL_SINK_COLUMNS:
            raise Failure("campaign_sinks.csv header changed")
        rows = rows[1:]
        if len(rows) != trials * len(sinks):
            raise Failure(f"campaign_sinks.csv has {len(rows)} rows, "
                          f"want {trials * len(sinks)}")
        t_n = {}
        per_sink = {}
        failed = set()
        for trial, _seed, sink, t_i, tn, ok in rows:
            t_n[int(trial)] = int(tn)
            h = per_sink.setdefault(sink, {})
            h[t_i] = h.get(t_i, 0) + 1
            if ok != "1":
                failed.add(trial)
        trial_rows = blobs["campaign_trials.csv"].decode().splitlines()
        if len(trial_rows) != trials + 1 or sorted(t_n) != list(range(trials)):
            raise Failure("CSV trial indices do not cover 0..trials-1")
        summary = json.loads(blobs["summary.json"])
        hist = {}
        for tn in t_n.values():
            hist[str(tn)] = hist.get(str(tn), 0) + 1
        arc = summary["arcnc"]
        if arc["trials"] != trials or arc["hist_T_N"] != hist \
                or arc["per_sink_T_hist"] != per_sink:
            raise Failure("summary.json disagrees with campaign_sinks.csv")
        curve = blobs["rlnc_curve.csv"].decode().splitlines()
        if len(curve) != len(sinks) + 1:
            raise Failure("rlnc_curve.csv does not have one row per sink")
        if not 0.0 <= summary["rlnc"]["overall_success"] <= 1.0:
            raise Failure("RLNC success fraction out of range")
        return len(failed)

    def gate(self, workers) -> str:
        """Digest of the gate campaign at the committed seed."""
        return self.digest(self.collect(
            self.call_workers(GATE_SEED, self.gate_trials, workers)))

    def oracle(self, base_seed, blobs):
        """Stopping times of the first trials against the dense rank rule
        and against the CSV rows the timed call wrote for them."""
        from oracle import check_stopping_times
        cfg = dataclasses.replace(self.config, base_seed=base_seed,
                                  keep_kernels=True)
        rows = csv.reader(blobs["campaign_sinks.csv"].decode().splitlines())
        next(rows)
        written = {}
        for trial, _seed, sink, t_i, _tn, _ok in rows:
            written[(int(trial), int(sink))] = int(t_i)
        for i in range(ORACLE_TRIALS):
            res = self.engine.run_trial(cfg, i)
            check_stopping_times(res, cfg)
            for r, t_i in res.T.items():
                if written[(i, r)] != t_i:
                    raise Failure(f"campaign_sinks.csv: trial {i} sink {r} "
                                  f"has T={written[(i, r)]}, run_trial {t_i}")


# Timed calls are short (0.25 to 1 s) so that a run holds dozens of them:
# trials_per_s is a quantile over calls, see run.py.
WORKLOADS = {
    w.name: w for w in (
        LibraryWorkload("lean-comb82-q2", 8, 2, 2, verify=False,
                        trials_per_call=100, trace_trials=200,
                        gate_trials=200),
        LibraryWorkload("verified-comb63-q4", 6, 3, 4, verify=True,
                        trials_per_call=12, trace_trials=16, gate_trials=16),
        CliWorkload("cli-compare-comb63-q3", trials_per_call=500,
                    trace_trials=300, gate_trials=200),
    )
}


def load_reference() -> dict:
    with open(Path(__file__).resolve().parent / "reference.json") as fh:
        return json.load(fh)


def setup_probe(name: str):
    """Body of one fresh interpreter measured by `setup_s`."""
    WORKLOADS[name].setup()
    os.write(1, b"ready\n")
