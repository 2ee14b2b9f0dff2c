"""arcnc campaign benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it measures the end-to-end metrics of one workload:
trials/s of the timed calls (lower quartile over calls), set-up time
(median over fresh interpreters) and peak resident memory.  With
--trace 1 it runs a fixed trial set alternately untraced and with
per-layer wrappers installed, and reports per-layer counts and self
times.  Either way the last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

Every run first checks the workload's gate campaign at the committed seed
against `reference.json`, then checks the output of every timed call and
a few trials against an independent stopping-time oracle.  The exit code
is 1 when any check fails, 2 when the benchmark cannot run at all.

`--record-reference` rewrites `reference.json` from the current sources,
at workers=1; use it only when a change is meant to alter outputs.
"""

from __future__ import annotations

import sys

if len(sys.argv) == 3 and sys.argv[1] == "--setup-probe":
    # A fresh interpreter timed by the parent for setup_s: keep this path
    # free of everything the measurement does not need.
    import workloads
    workloads.setup_probe(sys.argv[2])
    sys.exit(0)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from workloads import (GATE_SEED, OUT_DIR, ROOT, WORKLOADS,  # noqa: E402
                       Failure, campaign_seed, load_reference)

# Timed calls per run at least, whatever --seconds says.
MIN_CALLS = 3
# Fresh interpreters per run for setup_s.
SETUP_PROBES = 9
SETUP_TIMEOUT_S = 60


def provenance() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
    # numpy is a declared dependency of arcnc.  Importing it here, before
    # anything is measured, keeps its import footprint out of peak_rss_mb,
    # which is then the campaign's own memory.
    import numpy
    return {"git_commit": commit,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "loadavg_start": loadavg()}


def loadavg() -> str:
    return Path("/proc/loadavg").read_text().strip()


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


class Run:
    """Counts and checks shared by both modes."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def problem(self, text):
        self.problems.append(text)
        print(f"CHECK FAILED: {text}", file=sys.stderr)

    def gate(self):
        """Gate campaign at the committed seed vs the recorded digest."""
        ref = load_reference()[self.wl.name]
        if (ref["seed"], ref["trials"]) != (GATE_SEED, self.wl.gate_trials):
            self.problem("reference.json was recorded for another gate "
                         "campaign; re-record it")
            return
        got = self.wl.gate(self.wl.workers)
        if got != ref["sha256"]:
            self.problem(f"gate digest {got} != reference {ref['sha256']} "
                         f"(seed {GATE_SEED}, {self.wl.gate_trials} trials, "
                         f"workers={self.wl.workers})")

    def timed_call(self, base_seed, trials):
        """One call; returns (seconds, output) or None if the call raised."""
        self.attempted += trials
        start = perf_counter()
        try:
            raw = self.wl.call(base_seed, trials)
        except Exception:  # the program failed: count its trials, go on
            traceback.print_exc()
            self.failed += trials
            return None
        secs = perf_counter() - start
        out = self.wl.collect(raw)
        try:
            self.failed += self.wl.check(trials, out)
        except Failure as exc:
            self.failed += trials
            self.problem(f"base seed {base_seed}: {exc}")
        return secs, out

    def oracle(self, base_seed, out):
        try:
            self.wl.oracle(base_seed, out)
        except Failure as exc:
            self.problem(f"oracle, base seed {base_seed}: {exc}")

    @property
    def correct(self):
        return not self.problems


def measure(wl, seed, seconds, run: Run):
    """End-to-end metrics of one workload.

    Returns name -> (unit, samples, value), and the calibration loop times
    taken between the timed calls.
    """
    wl.setup()
    run.gate()
    rates = []
    setups = []
    children_kib = None
    loop_s = [calibration_s()]
    last = None
    start = perf_counter()
    call = 0
    while call < MIN_CALLS or perf_counter() - start < seconds:
        base = campaign_seed(seed, call)
        got = run.timed_call(base, wl.trials_per_call)
        loop_s.append(calibration_s())
        if got is not None:
            rates.append(wl.trials_per_call / got[0])
            last = base, got[1]
        call += 1
        # Set-up probes are spread over the run, between timed calls, so
        # that their median covers the same host states as the calls.
        due = (len(setups) + 1) / (SETUP_PROBES + 1) * seconds
        if len(setups) < SETUP_PROBES and perf_counter() - start >= due:
            if children_kib is None:
                children_kib = children_peak_kib()
            setups.append(setup_probe(wl.name))
    if children_kib is None:
        children_kib = children_peak_kib()
    rss = peak_rss_mib(wl.workers, children_kib)
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(wl.name))
    if last is not None:
        run.oracle(*last)
    # Other tenants of the host this was tuned on slow every call down by
    # a similar amount most of the time and leave it alone in bursts.  The
    # lower quartile of per-call throughput (the rate three in four calls
    # reached) follows the common state; see README.md, "Noise".
    metrics = {
        "trials_per_s": ("trials/s", rates, quartiles(rates)[0]),
        "setup_s": ("s", setups, statistics.median(setups)),
        "peak_rss_mb": ("MiB", [rss], rss),
    }
    return metrics, loop_s


def calibration_s():
    """Seconds this interpreter takes for a fixed pure-Python loop.

    A host-speed reading, printed next to the metrics: on a shared host,
    other tenants change how fast this interpreter runs by tens of percent
    for minutes at a time, and the load average inside the machine does
    not show it.
    """
    start = perf_counter()
    acc = 0
    table = [0] * 256
    counts = {}
    for i in range(40_000):
        a = (i * 2654435761) & 0xFFFF
        acc ^= table[a & 255]
        table[a & 255] = acc + i
        counts[a & 511] = counts.get(a & 511, 0) + 1
    return perf_counter() - start


def children_peak_kib():
    """Largest peak RSS of any child reaped so far.

    Read before the first set-up probe: a child started with fork and
    exec reports at least the parent's RSS at the fork, so a probe would
    mask the pool workers' own peak.
    """
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def peak_rss_mib(workers, children_kib):
    """Peak RSS of this process plus `workers` times the largest child's
    (pool workers run concurrently; pages shared with the parent count in
    each process)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + (workers * children_kib if workers > 1 else 0)) / 1024


def setup_probe(name):
    """Seconds from starting a fresh interpreter to the end of set-up."""
    start = perf_counter()
    with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             "--setup-probe", name],
            cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        secs = perf_counter() - start
        try:
            rc = proc.wait(timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    if line != b"ready\n" or rc != 0:
        raise RuntimeError(f"set-up probe for {name} failed (exit {rc})")
    return secs


def measure_traced(wl, seed, seconds, run: Run):
    """Per-layer metrics from a fixed trial set, traced and untraced."""
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        wl.setup()
    finally:
        tracer.uninstall()
    run.gate()
    mark = len(tracer)
    before = dict(tracer.counts)
    base = campaign_seed(seed, 0)
    n = wl.trace_trials
    plain = traced = 0.0
    passes = 0
    last = None
    start = perf_counter()
    while passes < 1 or perf_counter() - start < seconds:
        got = run.timed_call(base, n)
        tracer.install()
        try:
            got_traced = run.timed_call(base, n)
        finally:
            tracer.uninstall()
        passes += 1
        if got is None or got_traced is None:
            continue
        plain += got[0]
        traced += got_traced[0]
        if wl.digest(got[1]) != wl.digest(got_traced[1]):
            run.problem("tracing changed the output")
        last = base, got[1]
    if last is not None:
        run.oracle(*last)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    spans_path = OUT_DIR / f"spans-{wl.name}.tsv.gz"
    tracer.write(spans_path)
    return layer_metrics(tracer, mark, before, passes, passes * n, wl,
                         traced / plain if plain else 0.0), spans_path


def layer_metrics(tracer, mark, before, campaigns, trials, wl, overhead):
    calls = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
    own = tracer.self_times(mark)
    every = tracer.self_times(0)

    def per_trial_calls(name):
        return calls.get(name, 0) / trials

    def per_trial_self(name):
        return own.get(name, (0, 0.0))[1] / trials

    def per_call_self(name):
        n, secs = every.get(name, (0, 0.0))
        return secs / n if n else 0.0

    trial_ms = sorted(d * 1e3 for d in tracer.durations("engine.run_trial",
                                                        mark))
    p50 = p99 = 0.0
    if len(trial_ms) >= 2:
        cuts = statistics.quantiles(trial_ms, n=100)
        p50, p99 = cuts[49], cuts[98]
    sinks = len(wl.config.topology.sinks)
    m = {}
    for name in ("gf.mul", "gf.add", "gf.inv"):
        m[name + ".calls"] = (per_trial_calls(name), "calls/trial")
    for name in ("rng.randint", "polyalg.extend", "polyalg.select_columns",
                 "polyalg.det"):
        m[name + ".calls"] = (per_trial_calls(name), "calls/trial")
        m[name + ".self_s"] = (per_trial_self(name), "s/trial")
    m["polyalg.det.per_sink"] = (calls.get("polyalg.det", 0)
                                 / (trials * sinks), "calls/sink")
    for name in ("polyalg.adjugate", "polyalg.sequential_decode"):
        m[name + ".self_s"] = (per_trial_self(name), "s/trial")
    m["polyalg.toeplitz_solve.calls"] = (
        per_trial_calls("polyalg.toeplitz_solve"), "calls/trial")
    m["engine.run_trial.calls"] = (per_trial_calls("engine.run_trial"),
                                   "calls/trial")
    m["engine.run_trial.self_s"] = (per_trial_self("engine.run_trial"),
                                    "s/trial")
    m["engine.run_trial.ms_p50"] = (p50, "ms")
    m["engine.run_trial.ms_p99"] = (p99, "ms")
    for name in ("engine._verify_headers", "engine.collect_campaign"):
        m[name + ".self_s"] = (per_trial_self(name), "s/trial")
    for name in ("topology.validate_multicast", "topology.build"):
        m[name + ".self_s"] = (per_call_self(name), "s/call")
    m["baseline.sink_success_fractions.calls"] = (
        calls.get("baseline.sink_success_fractions", 0) / campaigns,
        "calls/campaign")
    m["baseline.sink_success_fractions.self_s"] = (
        per_trial_self("baseline.sink_success_fractions"), "s/trial")
    for name in ("baseline.rlnc_trial", "baseline.rank_fq"):
        m[name + ".calls"] = (per_trial_calls(name), "calls/trial")
    m["analysis.self_s"] = (per_trial_self("analysis"), "s/trial")
    m["harness.write.bytes"] = (per_trial_calls("harness.write.bytes"),
                                "B/trial")
    m["harness.write.self_s"] = (per_trial_self("harness.write"), "s/trial")
    m["harness.main.self_s"] = (per_trial_self("harness.main"), "s/trial")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    m["_samples"] = {"traced_trials": trials,
                     "run_trial_spans": len(trial_ms),
                     "spans": len(tracer) - mark}
    return m


def record_reference():
    ref = {}
    for name, wl in WORKLOADS.items():
        wl.setup()
        ref[name] = {"seed": GATE_SEED, "trials": wl.gate_trials,
                     "workers": 1, "sha256": wl.gate(1)}
        print(name, ref[name]["sha256"])
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    wl = WORKLOADS[args.workload]
    run = Run(wl)
    prov = provenance()
    doc = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "provenance": prov}
    if args.trace:
        layers, spans_path = measure_traced(wl, args.seed, args.seconds, run)
        doc["samples"] = layers.pop("_samples")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        doc["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        samples, loop_s = measure(wl, args.seed, args.seconds, run)
        metrics = {k: {"value": v, "unit": u}
                   for k, (u, _xs, v) in samples.items()}
        doc["samples"] = {k: xs for k, (_u, xs, _v) in samples.items()}
        prov["calibration_loop_ms"] = [round(x * 1e3, 3) for x in loop_s]
    prov["loadavg_end"] = loadavg()
    if not run.correct:
        run.failed = run.attempted
    doc.update(problems=run.problems, attempted=run.attempted,
               failed=run.failed, metrics=metrics)

    print(f"# workload {wl.name}  seed {args.seed}  trace {args.trace}")
    for key in ("git_commit", "python", "numpy", "nproc", "cpus_usable",
                "loadavg_start", "loadavg_end"):
        print(f"# {key}: {prov[key]}")
    if "calibration_loop_ms" in prov:
        loop_ms = prov["calibration_loop_ms"]
        q1, q2, q3 = quartiles(loop_ms)
        print(f"# host speed: calibration loop {q2:.4g} ms (quartiles "
              f"{q1:.4g} {q3:.4g}, range {min(loop_ms):.4g} .. "
              f"{max(loop_ms):.4g}) between calls")
    if args.trace:
        s = doc["samples"]
        print(f"# {s['traced_trials']} traced trials, {s['spans']} spans, "
              f"{s['run_trial_spans']} run_trial spans -> {doc['spans_file']}")
        if wl.workers > 1:
            print(f"# {wl.name} runs trials in {wl.workers} worker "
                  "processes: only spans of the parent process are counted")
    for k, v in metrics.items():
        line = f"{k} = {v['value']:.6g} {v['unit']}"
        if not args.trace:
            xs = doc["samples"][k]
            q1, q2, q3 = quartiles(xs)
            line += (f"  ({len(xs)} samples: quartiles {q1:.6g} "
                     f"{q2:.6g} {q3:.6g}, IQR/median {(q3 - q1) / q2:.3f})")
        print(line)
    print(f"failed_frac = {run.failed / max(run.attempted, 1):.6g} ratio  "
          f"({run.failed} of {run.attempted} trials)")
    print(f"correct = {run.correct}")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
