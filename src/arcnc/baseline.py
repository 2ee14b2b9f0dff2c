"""One-shot RLNC baseline for field-size / delay / memory comparisons.

Every coding node draws one scalar coefficient per adjacent (input, output)
pair, uniformly over F_q; in-degree-1 relays forward their input unchanged.
A sink succeeds when its scalar global kernel matrix has rank m.  This is
exactly the simulator's behaviour truncated to constraint length 1, which
is what the equivalence checks rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2

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
    """Scalar global kernel vector (length m) per edge, topological order."""
    acyclic, order = is_acyclic(topo)
    if not acyclic:
        raise ValueError("one-shot RLNC baseline requires an acyclic topology")
    m = topo.m
    q = field.q
    fvec = [None] * topo.num_edges
    for v in order:
        ins = topo.in_edges(v)
        if v == topo.source:
            for e in topo.out_edges(v):
                fvec[e] = [rng.randint(q) for _ in range(m)]
        elif len(ins) == 1:
            src = fvec[ins[0]]
            for e in topo.out_edges(v):
                fvec[e] = list(src)
        else:
            for e in topo.out_edges(v):
                acc = [0] * m
                for ein in ins:
                    k = rng.randint(q)
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


def _is_combination_like(topo: Topology) -> bool:
    """True when every sink has exactly m inputs, each a relay copy of a
    distinct source edge."""
    for v in range(topo.num_nodes):
        if v == topo.source or v in topo.sinks:
            continue
        if len(topo.in_edges(v)) != 1:
            return False
        if topo.tail(topo.in_edges(v)[0]) != topo.source:
            return False
    for r in topo.sinks:
        parents = [topo.tail(e) for e in topo.in_edges(r)]
        if len(parents) != topo.m or len(set(parents)) != len(parents) \
                or topo.source in parents:
            return False
    return True


def _fractions_vectorized(topo: Topology, field: Field, trials: int, seed: int):
    """numpy fast path for combination-like networks with m = 2.

    Sinks see columns that are verbatim copies of the source's random
    per-edge vectors, so only n column draws per trial are needed and the
    2x2 full-rank test reduces to a determinant.
    """
    import numpy as np

    q = field.q
    n = len(topo.out_edges(topo.source))
    gen = np.random.default_rng(seed)
    cols = gen.integers(0, q, size=(trials, n, 2), dtype=np.int64)
    if field.kind == "prime":
        def mul(a, b):
            return (a * b) % q
        def sub(a, b):
            return (a - b) % q
    else:
        exp = np.array(field._exp, dtype=np.int64)
        log = np.array(field._log, dtype=np.int64)
        def mul(a, b):
            out = exp[log[a] + log[b]]
            return np.where((a == 0) | (b == 0), 0, out)
        def sub(a, b):
            return a ^ b
    src_pos = {e: i for i, e in enumerate(topo.out_edges(topo.source))}
    per_sink = {}
    overall = np.ones(trials, dtype=bool)
    for r in topo.sinks:
        idx = [src_pos[topo.in_edges(topo.tail(e))[0]] for e in topo.in_edges(r)]
        a, b = cols[:, idx[0], :], cols[:, idx[1], :]
        det = sub(mul(a[:, 0], b[:, 1]), mul(a[:, 1], b[:, 0]))
        ok = det != 0
        per_sink[r] = float(np.mean(ok))
        overall &= ok
    return per_sink, float(np.mean(overall))


def sink_success_fractions(topo: Topology, field: Field, trials: int,
                           seed: int):
    """Monte Carlo per-sink and overall success fractions.

    Returns (per_sink fraction dict, overall fraction).  Uses a vectorized
    path on combination-like networks with m = 2; the generic path loops
    rlnc_trial.
    """
    if topo.m == 2 and _is_combination_like(topo):
        return _fractions_vectorized(topo, field, trials, seed)
    counts = {r: 0 for r in topo.sinks}
    overall = 0
    for i in range(trials):
        res = rlnc_trial(topo, field, seed, i)
        for r, ok in res.per_sink.items():
            counts[r] += ok
        overall += res.success
    return ({r: c / trials for r, c in counts.items()}, overall / trials)


def curve_rows(topo: Topology, q: int, fracs: dict):
    """Rows `q,sink,success_fraction,ho_bound` for one field size.

    fracs maps sink -> success fraction.  ho_bound is the per-sink analytic
    lower bound (d = 1, per-sink link count eta); "N/A" where inapplicable
    (q <= d).
    """
    from .analysis import BoundNotApplicable, ho_bound

    rows = []
    for r in topo.sinks:
        try:
            bound = float(ho_bound(1, q, eta(topo, r), 0))
        except BoundNotApplicable:
            bound = "N/A"
        rows.append({"q": q, "sink": r, "success_fraction": fracs[r],
                     "ho_bound": bound})
    return rows


def expected_attempts(success_fraction: float) -> float:
    """Derived quantity: expected one-shot attempts until success."""
    if success_fraction <= 0:
        return float("inf")
    return 1.0 / success_fraction
