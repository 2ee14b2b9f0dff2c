"""Command-line front door: topology generation, golden traces, Monte Carlo
campaigns, bound tables and RLNC comparisons.

Subcommands: gen, trace, run, bounds, compare (= run --mode both); each
accepts only the options it reads.  Configuration can come from a flat
``key = value`` file (--config); command line flags override file values.
Exit codes: 0 success, 1 validation or usage error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import shutil
import sys
from dataclasses import fields
from functools import lru_cache

from . import analysis
from .baseline import curve_rows, expected_attempts, sink_success_fractions
from .engine import OverrideError, SimConfig, collect_campaign, run_trial
from .gf import FieldError, field_new
from .topology import (TopologyError, combination_network, eta, is_acyclic,
                       load_topology, save_topology, two_node_cycle_network,
                       validate_multicast)

# Analytic properties of the deterministic binary network code of Xiao et
# al. on combination networks, shown in reports as static reference
# columns.  These are literature values, not simulated.
BNC_LITERATURE = {
    "label": "literature value (deterministic BNC, Xiao et al.)",
    "decoding_delay": 1,
    "memory_bits_per_node": 4,
    "block_length_note": "block length p >= n - m",
}

# Fig. 1 golden-trace realization: the source's local kernel matrix at
# t=0 and the update drawn at t=1 for the two unfrozen right columns.
_FIG1_T0 = {0: (1, 0), 1: (0, 1), 2: (1, 1), 3: (1, 1)}
_FIG1_T1 = {2: (0, 0), 3: (1, 0)}


def fig1_override_text() -> str:
    lines = ["# golden-trace kernel script for the (4,2) combination network",
             "# k <from-edge-id> <to-edge-id> <t> <value>; ids -1,-2 are the",
             "# source's two message inputs"]
    for t, table in ((0, _FIG1_T0), (1, _FIG1_T1)):
        for e, (a, b) in sorted(table.items()):
            lines.append(f"k -1 {e} {t} {a}")
            lines.append(f"k -2 {e} {t} {b}")
    return "\n".join(lines) + "\n"


def parse_override_script(text: str) -> dict:
    """Parse ``k <from-edge-id> <to-edge-id> <t> <value>`` lines."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] != "k" or len(parts) != 5:
            raise OverrideError(f"override line {lineno}: expected "
                                f"'k <from> <to> <t> <value>', got {raw.strip()!r}")
        try:
            ein, eout, t, val = map(int, parts[1:])
        except ValueError:
            raise OverrideError(f"override line {lineno}: non-integer field") from None
        key = (ein, eout, t)
        if key in out:
            raise OverrideError(f"override line {lineno}: duplicate entry for "
                                f"({ein} -> {eout}, t={t})")
        out[key] = val
    return out


def parse_config_file(text: str) -> dict:
    """Flat ``key = value`` configuration; '#' comments.  Each key may
    appear once, with '-' and '_' the same ('max-rounds' is 'max_rounds')."""
    out = {}
    first_line = {}                # option dest -> line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        dest = key.replace("-", "_")
        if dest in first_line:
            raise ValueError(f"config line {lineno}: duplicate key {key!r} "
                             f"(first given on line {first_line[dest]})")
        first_line[dest] = lineno
        out[key] = val.strip()
    return out


# Options that are None until the CLI or a config file supplies them; real
# defaults are applied after merging so file values are distinguishable
# from defaults.
_OPTION_DEFAULTS = {"m": 2, "q": 2, "seed": 0, "max_rounds": 50,
                    "trials": 1000, "workers": 1, "t_max": 4, "mode": "arcnc"}


def _config_value(key, action, text):
    """A config file value, converted and checked as its flag would be."""
    if action.nargs == 0:
        raise ValueError(f"config key {key!r} takes no value; "
                         f"give {action.option_strings[0]} on the command line")
    try:
        val = action.type(text) if action.type else text
    except ValueError:
        raise ValueError(f"config key {key!r}: invalid value {text!r}") from None
    if action.choices is not None and val not in action.choices:
        raise ValueError(f"config key {key!r}: invalid choice {text!r} "
                         f"(choose from {', '.join(action.choices)})")
    return val


def _merge_config(args):
    """Fill unset options from a config file; CLI flags win."""
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                file_vals = parse_config_file(fh.read())
        except OSError as exc:
            raise IOFailure(str(exc)) from exc
        for key, text in file_vals.items():
            action = args.options.get(key.replace("-", "_"))
            if action is None:
                raise ValueError(f"unknown config key {key!r}")
            val = _config_value(key, action, text)
            if getattr(args, action.dest) is None:
                setattr(args, action.dest, val)
    for dest, dv in _OPTION_DEFAULTS.items():
        if hasattr(args, dest) and getattr(args, dest) is None:
            setattr(args, dest, dv)
    return args


class IOFailure(Exception):
    """Wrapper marking an error as I/O (exit code 2)."""


def _load_topology_arg(args):
    """The --topology file or comb(--n, --m), checked for max-flow m."""
    if getattr(args, "topology", None):
        try:
            with open(args.topology) as fh:
                topo = load_topology(fh.read())
        except OSError as exc:
            raise IOFailure(str(exc)) from exc
    elif getattr(args, "n", None) is not None:
        topo = combination_network(args.n, args.m)
    else:
        raise ValueError("no topology: give --topology FILE or --n/--m")
    report = validate_multicast(topo)
    if not report.ok:
        raise ValueError(f"multicast validation failed: sinks {report.failures} "
                         f"have max-flow below m={topo.m}")
    return topo


def _read_overrides(path):
    try:
        with open(path) as fh:
            return parse_override_script(fh.read())
    except OSError as exc:
        raise IOFailure(str(exc)) from exc


def _write_text(path, text):
    try:
        if path is None or path == "-":
            sys.stdout.write(text)
        else:
            with open(path, "w") as fh:
                fh.write(text)
    except OSError as exc:
        raise IOFailure(str(exc)) from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    if args.network == "comb":
        if args.n is None:
            raise ValueError("gen comb needs --n")
        topo = combination_network(args.n, args.m)
        _write_text(args.out, save_topology(topo))
    elif args.network == "fig1":
        outdir = args.out or "."
        try:
            os.makedirs(outdir, exist_ok=True)
        except OSError as exc:
            raise IOFailure(str(exc)) from exc
        topo = combination_network(4, 2)
        _write_text(os.path.join(outdir, "fig1_topology.txt"),
                    save_topology(topo))
        _write_text(os.path.join(outdir, "fig1_overrides.txt"),
                    fig1_override_text())
    else:                                  # cycle
        _write_text(args.out, save_topology(two_node_cycle_network()))
    return 0


def _trial_result_json(res) -> dict:
    """Every field of the TrialResult `res` but its trace lines and kernel
    blocks, dicts with string keys."""
    doc = {f.name: getattr(res, f.name) for f in fields(res)
           if f.name not in ("trace_lines", "final_F")}
    return {name: {str(k): v for k, v in val.items()}
            if isinstance(val, dict) else val for name, val in doc.items()}


def cmd_trace(args) -> int:
    if args.max_rounds < 1:
        raise ValueError("--max-rounds must be >= 1")
    field = field_new(args.q)
    topo = _load_topology_arg(args)
    if not args.override:
        raise ValueError("trace needs --override SCRIPT")
    overrides = _read_overrides(args.override)
    cfg = SimConfig(topology=topo, field=field, max_rounds=args.max_rounds,
                    base_seed=args.seed, overrides=overrides,
                    strict_overrides=True, trace=True)
    res = run_trial(cfg, 0)
    for line in res.trace_lines:
        print(line)
    payload = json.dumps(_trial_result_json(res), indent=2, sort_keys=True) + "\n"
    if args.out:
        _write_text(args.out, payload)
    else:
        print(payload, end="")
    return 0


def _analysis_columns(topo, q, t_max):
    m = topo.m
    d = len(topo.sinks)
    cols = {
        "et_upper": float(analysis.et_upper(m, q)),
        "et_lower": float(analysis.et_lower(m, q)),
        "et2_upper": float(analysis.et2_upper(m, q)),
        "exact_ET": analysis.exact_ET(q, m),
    }
    net_eta = eta(topo)
    ho = {}
    for t in range(t_max + 1):
        try:
            ho[str(t)] = float(analysis.ho_bound(d, q, net_eta, t))
        except analysis.BoundNotApplicable:
            ho[str(t)] = "N/A"
    cols["ho_bound_by_t"] = ho
    cols["eta"] = net_eta
    # var_upper bounds comb(n, m) only, n the source's out-degree: built
    # only if the node and edge counts match comb(n, m)'s.
    n = len(topo.out_edges(topo.source))
    if (topo.num_nodes, topo.num_edges) == (1 + n + d, n + m * d) \
            and d == math.comb(n, m) and topo == combination_network(n, m):
        cols["var_upper"] = float(analysis.var_upper(n, m, q))
    return cols


def cmd_run(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    if args.workers < 1:
        raise ValueError("--workers must be >= 1")
    if args.max_rounds < 1:
        raise ValueError("--max-rounds must be >= 1")
    field = field_new(args.q)
    topo = _load_topology_arg(args)
    if args.mode in ("rlnc", "both") and not is_acyclic(topo)[0]:
        raise ValueError("one-shot RLNC baseline requires an acyclic topology")
    overrides = _read_overrides(args.override) if args.override else None
    # Output is buffered and written only once every pass has finished, so
    # a failed campaign leaves no output directory behind.
    files = {}                             # file name -> text
    summary_doc = {"bnc_comparison": BNC_LITERATURE}
    if args.mode in ("arcnc", "both"):
        cfg = SimConfig(topology=topo, field=field, max_rounds=args.max_rounds,
                        base_seed=args.seed, overrides=overrides,
                        verify_decode=args.verify, verify_headers=args.verify)
        sink_buf = io.StringIO()
        trial_buf = io.StringIO()
        summary = collect_campaign(cfg, args.trials, workers=args.workers,
                                   sink_csv=sink_buf, trial_csv=trial_buf)
        files["campaign_sinks.csv"] = sink_buf.getvalue()
        files["campaign_trials.csv"] = trial_buf.getvalue()
        doc = summary.to_json_dict()
        doc["analysis"] = _analysis_columns(topo, args.q,
                                            max(2, summary.max_T_N()))
        summary_doc["arcnc"] = doc
    if args.mode in ("rlnc", "both"):
        fracs, overall = sink_success_fractions(topo, field, args.trials,
                                                args.seed)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["q", "sink", "success_fraction", "ho_bound"])
        for row in curve_rows(topo, args.q, fracs):
            writer.writerow([row["q"], row["sink"],
                             f"{row['success_fraction']:.10g}",
                             f"{row['ho_bound']:.10g}"])
        files["rlnc_curve.csv"] = buf.getvalue()
        summary_doc["rlnc"] = {
            "per_sink_success": {str(r): v for r, v in sorted(fracs.items())},
            "overall_success": overall,
            "expected_attempts_derived": expected_attempts(overall),
            "memory_bits_per_node": topo.m * math.log2(args.q),
        }
    files["summary.json"] = json.dumps(summary_doc, indent=2,
                                       sort_keys=True) + "\n"
    _write_outputs(args.out or ".", files)
    return 0


def _write_outputs(outdir, files):
    """Write every file of `files` (name -> text) into `outdir`, or none.

    Each file is written to a temporary name in its directory and renamed
    into place once all of them are written.  An output directory that
    does not exist yet is built as a temporary sibling and renamed into
    place at the end, so a failed write leaves neither the directory nor
    a temporary file behind.
    """
    fresh = not os.path.isdir(outdir)
    work = f"{os.path.normpath(outdir)}.{os.getpid()}.tmp" if fresh else outdir
    made = False
    temps = {}                             # temporary path -> final path
    try:
        if fresh:
            os.makedirs(os.path.dirname(os.path.abspath(work)), exist_ok=True)
            os.mkdir(work)
            made = True
        for name, text in files.items():
            tmp = os.path.join(work, f".{name}.{os.getpid()}.tmp")
            temps[tmp] = os.path.join(work, name)
            _write_text(tmp, text)
        for tmp, path in temps.items():
            os.replace(tmp, path)
        if fresh:
            os.rename(work, outdir)
    except BaseException as exc:
        for tmp in temps:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        if made:
            shutil.rmtree(work, ignore_errors=True)
        if isinstance(exc, OSError):
            raise IOFailure(str(exc)) from exc
        raise


def cmd_bounds(args) -> int:
    m, q, n = args.m, args.q, args.n
    if n is None:
        raise ValueError("bounds needs --n")
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got n={n}, m={m}")
    field_new(q)                           # rejects q that is no field order
    if args.t_max < 0:
        raise ValueError("--t-max must be >= 0")
    d = math.comb(n, m)
    # eta of comb(n, m): the source's n out-edges, m of them on each sink's
    # paths; the intermediates are relays and draw nothing.
    net_eta, sink_eta = n, m
    rows = []

    def row(quantity, t, value, mode):
        rows.append([quantity, m, q, n, d, net_eta, t, value, mode])

    for quantity, dq, eq in (("ho_bound_network", d, net_eta),
                             ("ho_bound_sink", 1, sink_eta)):
        for t in range(args.t_max + 1):
            try:
                val = analysis.ho_bound(dq, q, eq, t)
            except analysis.BoundNotApplicable:
                val = "N/A"
            rows.append([quantity, m, q, n, dq, eq, t, val, "exact"])
    row("et_upper", "", analysis.et_upper(m, q), "exact")
    row("et_lower", "", analysis.et_lower(m, q), "exact")
    row("et2_upper", "", analysis.et2_upper(m, q), "exact")
    row("exact_ET", "", f"{analysis.exact_ET(q, m):.12g}", "float")
    if m >= 2:
        row("rho_ub", "", analysis.rho_ub(m, q), "exact")
    row("var_upper", "", analysis.var_upper(n, m, q), "exact")
    # the engine's exact law of a sink's T, and its mean delay
    for t in range(args.t_max + 1):
        row("stopping_law", t, analysis.stopping_law(q, m, t), "exact")
    row("mean_delay", "", analysis.mean_delay(q, m), "exact")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["quantity", "m", "q", "n", "d", "eta", "t", "value", "mode"])
    writer.writerows(rows)
    _write_text(args.out, buf.getvalue())
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as every other validation error does."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


# Every option: its add_argument keywords.  A help text gains the option's
# default from _OPTION_DEFAULTS.
_OPTIONS = {
    "n": dict(type=int, help="combination network parameter n"),
    "m": dict(type=int, help="multicast rate m"),
    "q": dict(type=int, help="field size"),
    "seed": dict(type=int, help="base seed"),
    "max-rounds": dict(type=int, help="steps before a trial fails"),
    "topology": dict(help="topology file path"),
    "override": dict(help="kernel override script path"),
    "out": dict(help="output file or directory"),
    "config": dict(help="flat key=value config file"),
    "trials": dict(type=int, help="number of trials"),
    "workers": dict(type=int, help="worker processes"),
    "mode": dict(choices=["arcnc", "rlnc", "both"],
                 help="which codes to simulate"),
    "no-verify": dict(dest="verify", action="store_false",
                      help="skip per-trial decode/header verification"),
    "t-max": dict(type=int, help="last t of the bound table"),
}

_CAMPAIGN = ("n m q seed max-rounds topology override out config trials "
             "workers no-verify")

# (name, help, handler, the options it reads, fixed argument values)
_SUBCOMMANDS = (
    ("gen", "write a topology file", cmd_gen, "n m out config", {}),
    ("trace", "scripted single-trial trace", cmd_trace,
     "n m q seed max-rounds topology override out config", {}),
    ("run", "Monte Carlo campaign", cmd_run, _CAMPAIGN + " mode", {}),
    ("compare", "Monte Carlo campaign (ARCNC vs RLNC)", cmd_run, _CAMPAIGN,
     {"mode": "both"}),
    ("bounds", "closed-form bound table", cmd_bounds,
     "n m q out config t-max", {}),
)


# Built once per process, which saves 2-3 ms a call: parsing only reads
# the parser.
@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="arcnc",
        description="Adaptive convolutional network coding simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func, options, fixed in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        if name == "gen":
            p.add_argument("network", choices=["comb", "fig1", "cycle"])
        acts = []
        for opt in options.split():
            kw = dict(_OPTIONS[opt])
            dest = kw.get("dest", opt.replace("-", "_"))
            if dest in _OPTION_DEFAULTS:
                kw["help"] += f" (default {_OPTION_DEFAULTS[dest]})"
            acts.append(p.add_argument("--" + opt, **kw))
        # Config file keys are the subcommand's option dests but config.
        p.set_defaults(func=func, **fixed, options={
            a.dest: a for a in acts if a.dest != "config"})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _merge_config(parser.parse_args(argv))
        return args.func(args)
    except IOFailure as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except (TopologyError, OverrideError, FieldError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
