"""One-shot RLNC baseline for field-size / delay / memory comparisons.

One-shot RLNC is the engine cut at constraint length 1: every coding node
draws one scalar coefficient per adjacent (input, output) pair, uniformly
over F_q, and in-degree-1 relays forward their input unchanged.  A sink
succeeds when its scalar global kernel matrix has rank m.

Trial i draws from `rng.trial_rng(seed, i)` one coefficient per coding
pair in the engine's draw order (see `engine`), with no source symbols
x_0: pair p of `_topo_static`'s `coding` list takes the trial's draw
p + 1.  `rlnc_trial` is the reference.  `sink_success_fractions` runs the
same trials as step 0 of the engine lockstep, on `batch`'s arrays (its
draws, header propagation and sink input roots), one numpy lane per
trial, and re-runs with `rlnc_trial` the rare trial whose draws `randint`
rejects.  numpy is imported only when a lockstep block starts.
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
    """Scalar global kernel vector (length m) of every edge, by edge id.

    Every coefficient is drawn first, in the engine's draw order (nodes by
    id, out-edges, inputs), the source coding its virtual inputs -1..-m,
    whose vectors are the unit vectors e_j, and relays drawing nothing.
    The vectors then follow in a topological walk of `topo`."""
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


_CHUNK = 1 << 12                   # trials per lockstep block


def _success_block(topo: Topology, field: Field, seed: int, start: int,
                   stop: int):
    """Per-sink verdicts (rows in `topo.sinks` order) of the trials
    `rlnc_trial(topo, field, seed, i)`, start <= i < stop: step 0 of the
    engine lockstep without x_0.  A trial with a rejected draw draws more
    than one value per pair; it is re-run with rlnc_trial."""
    if not is_acyclic(topo)[0]:
        raise ValueError("one-shot RLNC baseline requires an acyclic topology")
    import numpy as np

    from .batch import (_G, _block_static, _mix64, _propagate, _rejected,
                        _values, array_field, trial_seeds)

    m, q, B = topo.m, field.q, stop - start
    fld = array_field(q)
    st = _block_static(topo)
    draws = np.arange(1, len(st["heads"]) + 1, dtype=np.uint64)[:, None]
    raw = _mix64(trial_seeds(seed, start, stop) + draws * _G)
    k = _values(raw, q)                            # (pairs, trials)
    f = np.zeros((st["R"] + 1, m, B), dtype=np.int64)
    src_roots, first = st["src_roots"], st["src_first"]
    f[src_roots] = k[first:first + len(src_roots) * m].reshape(
        len(src_roots), m, B)
    _propagate(fld, st["conv"], [k], [f])
    # A sink's columns, padded with the zero row R, go one by one into an
    # echelon basis with a slot per pivot coordinate, on all (sink, trial)
    # lanes at once: rank m fills every slot.  Cross-multiplying clears a
    # coordinate without inverses.
    in_roots = st["in_roots"]
    basis = np.zeros((m, m, len(in_roots), B), dtype=np.int64)
    for j, roots in enumerate(in_roots.T):
        v = f[roots].transpose(1, 0, 2)            # (m, sinks, trials)
        for p in range(m):
            if j:                      # column 0 finds every slot empty
                a = np.where(basis[p, p] != 0, basis[p, p], 1)
                v[p:] = fld.submul(fld.mul(a, v[p:]), v[p], basis[p, p:])
            new = v[p] != 0
            np.copyto(basis[p], v, where=new)
            np.copyto(v, 0, where=new)
    ok = (basis[range(m), range(m)] != 0).all(axis=0)
    for b in np.flatnonzero(_rejected(raw, q).any(axis=0)):
        res = rlnc_trial(topo, field, seed, start + int(b))
        ok[:, b] = [res.per_sink[r] for r in topo.sinks]
    return ok


def sink_success_fractions(topo: Topology, field: Field, trials: int,
                           seed: int):
    """Per-sink and overall success fractions of the trials
    `rlnc_trial(topo, field, seed, i)`, i < trials, run in lockstep.

    Returns (per_sink fraction dict, overall fraction).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    import numpy as np

    ok = np.hstack([_success_block(topo, field, seed, i,
                                   min(i + _CHUNK, trials))
                    for i in range(0, trials, _CHUNK)])
    counts = ok.sum(axis=1).tolist()
    return ({r: c / trials for r, c in zip(topo.sinks, counts)},
            int(ok.all(axis=0).sum()) / trials)


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
