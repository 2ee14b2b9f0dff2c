"""One-shot RLNC baseline for field-size / delay / memory comparisons.

Every coding node draws one scalar coefficient per adjacent (input, output)
pair, uniformly over F_q; in-degree-1 relays forward their input unchanged.
A sink succeeds when its scalar global kernel matrix has rank m.  This is
exactly the simulator's behaviour truncated to constraint length 1, which
is what the equivalence checks rely on.

`rlnc_trial` is the reference: trial i draws from `rng.trial_rng(seed, i)`.
`sink_success_fractions` runs those same trials in one numpy lockstep on
any acyclic topology, each trial's SplitMix64 draws on its own lane, with
the engine lockstep's array arithmetic and rejection test
(`batch.array_field`, `batch._rejected`), and re-runs with `rlnc_trial`
the rare trial whose draws `randint` rejects.  numpy is imported only when
a lockstep block starts.
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


_CHUNK = 1 << 12                   # trials per lockstep block


def _success_block(topo: Topology, field: Field, seed: int, start: int,
                   stop: int):
    """Per-sink verdicts (rows in `topo.sinks` order) of the trials
    `rlnc_trial(topo, field, seed, i)`, start <= i < stop: the walk of
    `_global_vectors` with one numpy lane per trial.  A trial with a
    rejected draw draws more than the walk; it is re-run with rlnc_trial."""
    acyclic, order = is_acyclic(topo)
    if not acyclic:
        raise ValueError("one-shot RLNC baseline requires an acyclic topology")
    import numpy as np

    from .batch import _G, _mix64, _rejected, _values, array_field, \
        trial_seeds

    m, q = topo.m, field.q
    fld = array_field(q)
    state = trial_seeds(seed, start, stop)
    raws = []

    def draw():                        # SplitMix64.next64 on every lane
        state[:] += _G
        raws.append(_mix64(state))
        return _values(raws[-1], q)

    zero = np.zeros((m, stop - start), dtype=np.int64)
    fvec = [None] * topo.num_edges
    for v in order:
        ins = topo.in_edges(v)
        for e in topo.out_edges(v):
            if v == topo.source:
                fvec[e] = np.array([draw() for _ in range(m)])
            elif len(ins) == 1:
                fvec[e] = fvec[ins[0]]
            else:
                fvec[e] = zero
                for ein in ins:
                    fvec[e] = fld.add(fvec[e], fld.mul(draw(), fvec[ein]))
    # A sink's columns go one by one into an echelon basis with a slot per
    # pivot coordinate, on all (sink, trial) lanes at once: rank m fills
    # every slot.  Cross-multiplying clears a coordinate without inverses.
    ins = [topo.in_edges(r) for r in topo.sinks]
    basis = np.zeros((m, m, len(ins), stop - start), dtype=np.int64)
    for j in range(max(map(len, ins))):
        v = np.stack([fvec[es[j]] if j < len(es) else zero for es in ins],
                     axis=1)                           # (m, sinks, trials)
        for p in range(m):
            if j:                      # column 0 finds every slot empty
                a = np.where(basis[p, p] != 0, basis[p, p], 1)
                v[p:] = fld.submul(fld.mul(a, v[p:]), v[p], basis[p, p:])
            new = v[p] != 0
            np.copyto(basis[p], v, where=new)
            np.copyto(v, 0, where=new)
    ok = (basis[range(m), range(m)] != 0).all(axis=0)
    for b in np.flatnonzero(_rejected(np.array(raws), q).any(axis=0)):
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
