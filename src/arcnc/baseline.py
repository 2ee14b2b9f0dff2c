"""One-shot RLNC baseline for field-size / delay / memory comparisons.

One-shot RLNC is the engine cut at constraint length 1: trial i is step 0
of `engine`'s protocol without x_0, one scalar coefficient per coding
pair, drawn from `rng.trial_rng(seed, i)` in `engine`'s draw order (its
module docstring states the order and the relays).  A sink succeeds when
its scalar global kernel matrix has rank m.

`rlnc_trial` is the reference.  `sink_success_fractions` runs the same
trials in the engine lockstep itself, `batch._lockstep` cut at one
round, lean, one numpy lane per trial, in the slices of `batch`'s one
sizing rule, and counts their verdicts slice by slice: each trial's
SplitMix64 state starts m draws back, so that the m x_0 draws a lean
step skips are none, and a sink succeeds when it ACKs at step 0, which
every slice runs.  numpy is imported only when a lockstep slice starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2

from .engine import SimConfig
from .gf import Field
from .polyalg import rank_fq
from .rng import trial_rng
from .topology import Topology, eta, is_acyclic


@dataclass
class RlncResult:
    """Outcome of one one-shot RLNC draw."""

    per_sink: dict            # sink id -> full-rank success flag
    success: bool             # AND over sinks
    memory_bits_per_node: float  # m * log2(q)


def _global_vectors(topo: Topology, field: Field, rng):
    """Scalar global kernel vector (length m) of every edge, by edge id.

    Every coefficient is drawn first, in `engine`'s draw order; the
    vectors then follow in a topological walk of `topo`."""
    acyclic, order = is_acyclic(topo)
    if not acyclic:
        raise ValueError("one-shot RLNC baseline requires an acyclic topology")
    m, q = topo.m, field.q
    ins = {v: topo.in_edges(v) for v in range(topo.num_nodes)}
    ins[topo.source] = [-1 - j for j in range(m)]
    local = {e: [rng.randint(q) for _ in ins[v]]
             for v in range(topo.num_nodes)
             if v == topo.source or len(ins[v]) != 1
             for e in topo.out_edges(v)}
    fvec = {-1 - j: [int(i == j) for i in range(m)] for j in range(m)}
    for v in order:
        for e in topo.out_edges(v):
            if e not in local:         # a relay
                fvec[e] = fvec[ins[v][0]]
                continue
            acc = [0] * m
            for k, ein in zip(local[e], ins[v]):
                if k:
                    fe = fvec[ein]
                    for i in range(m):
                        acc[i] = field.add(acc[i], field.mul(k, fe[i]))
            fvec[e] = acc
    return fvec


def rlnc_trial(topo: Topology, field: Field, seed: int,
               trial_index: int = 0) -> RlncResult:
    """One one-shot RLNC draw; per-sink and overall full-rank verdicts."""
    rng = trial_rng(seed, trial_index)
    fvec = _global_vectors(topo, field, rng)
    m = topo.m
    per_sink = {}
    for r in topo.sinks:
        rows = [[fvec[e][i] for e in topo.in_edges(r)] for i in range(m)]
        per_sink[r] = rank_fq(rows, field) == m
    return RlncResult(per_sink=per_sink,
                      success=all(per_sink.values()),
                      memory_bits_per_node=m * log2(field.q))


def _verdicts(topo: Topology, field: Field, seed: int, start: int,
              stop: int):
    """Per-sink verdicts (rows in `topo.sinks` order) of the trials
    `rlnc_trial(topo, field, seed, i)`, start <= i < stop, one bool array
    per lockstep slice, in trial order: the engine lockstep cut at one
    round, with the x_0 draws taken back."""
    if not is_acyclic(topo)[0]:
        raise ValueError("one-shot RLNC baseline requires an acyclic topology")
    from .batch import _block_static, _lockstep_slices

    st = _block_static(topo)
    config = SimConfig(topology=topo, field=field, max_rounds=1,
                       base_seed=seed, verify_decode=False)
    # A lean step skips the m x_0 draws, which one-shot RLNC never makes:
    # starting m draws back, coding pair p takes the trial's draw p + 1.
    # An ACK at step 0 is a rank increment of m: F_0 has rank m.
    for T, _ in _lockstep_slices(config, st, start, stop, back=topo.m):
        yield T == 0


def sink_success_fractions(topo: Topology, field: Field, trials: int,
                           seed: int):
    """Per-sink and overall success fractions of the trials
    `rlnc_trial(topo, field, seed, i)`, i < trials.

    Returns (per_sink fraction dict, overall fraction).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    counts = overall = 0
    for ok in _verdicts(topo, field, seed, 0, trials):
        counts = counts + ok.sum(axis=1)
        overall += int(ok.all(axis=0).sum())
    return ({r: c / trials for r, c in zip(topo.sinks, counts.tolist())},
            overall / trials)


def curve_rows(topo: Topology, q: int, fracs: dict):
    """Rows `q,sink,success_fraction,ho_bound` for one field size.

    fracs maps sink -> success fraction.  ho_bound is the per-sink analytic
    lower bound (d = 1, per-sink link count eta), which applies at every
    field size: q > d.
    """
    from .analysis import ho_bound

    bounds = {}                        # eta -> ho_bound, once per eta
    rows = []
    for r in topo.sinks:
        e = eta(topo, r)
        if e not in bounds:
            bounds[e] = float(ho_bound(1, q, e, 0))
        rows.append({"q": q, "sink": r, "success_fraction": fracs[r],
                     "ho_bound": bounds[e]})
    return rows


def expected_attempts(success_fraction: float) -> float:
    """Derived quantity: expected one-shot attempts until success."""
    if success_fraction <= 0:
        return float("inf")
    return 1.0 / success_fraction
