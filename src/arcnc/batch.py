"""Lean GF(2) trials in lockstep: a block of trials advanced together in
numpy, every result equal to `engine.run_trial`'s.

Eligibility.  `engine.collect_campaign` runs a block here only where the
output is provably the same as `run_trial`'s: q = 2, an acyclic topology,
and none of `verify_decode`, `trace`, `keep_kernels` or kernel overrides.
Every other campaign runs `run_trial`, which stays the reference; the
differential tests compare each block with the `engine.TrialBlock` of
`run_trial`'s results.

Draw-order contract.  Each trial keeps its own SplitMix64 state in a
uint64 vector.  Step t first advances the state by m draws (the source
symbols x_t, which a lean trial never reads), then by one draw for each
coding pair in `_topo_static`'s `coding` order, counted only in trials
that are still running and whose pair's head node had not ACKed before
t.  A kernel coefficient is the low bit of `mix64(state)`, which is what
`SplitMix64.randint(2)` returns.  So every trial consumes exactly the
draws `run_trial` makes, in the same order.

State.  Headers are m-bit masks, and a relay's out-edge reads the history
of its root input edge.  The stopping rule is `polyalg.ToeplitzExpansion`
over GF(2) with rows as uint64 bitmasks (bit p = column p from the right),
run on every waiting (sink, trial) pair at once: step t appends the rows
`top << c | F_t bits` to a basis that grows by c positions per step.  The
basis is kept in reduced echelon form, one row slot per bit position: a
pivot bit is set only in its own row, so a new row is reduced in one pass
by XOR with the rows whose pivot bits it has set.  A non-zero remainder
raises the rank; its lowest set bit becomes a pivot, cleared from the
other rows.  A sink with fewer than c_max inputs gets zero columns, which
leave every rank increment unchanged.  The ACK pass is `run_trial`'s.

Results.  A block comes back as an `engine.TrialBlock` built from the ACK
times, one `.tolist()` per column; no per-trial object is made.

Cutoff and fallback.  A Toeplitz row of step t has (t + 1) * c_max bits,
so the lockstep runs at most min(max_rounds, 64 // c_max) steps.  The
trials still running then, every failed trial among them, are re-run from
the start with `run_trial` and put into the block at their own positions;
trials are independent by index, so their results are the reference's own.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .engine import TrialBlock, _batchable, _topo_static, run_trial
from .rng import _GAMMA, _MASK, mix64

__all__ = ["run_block", "trial_seeds"]

# numpy 1.x promotes uint64 mixed with a signed int to float64, so every
# operand below is a np.uint64.
_U = np.uint64
_ONE = _U(1)
_G = _U(_GAMMA)
# column of the bit values 1 << p, one row per bit position p
_BITS = (_ONE << np.arange(64, dtype=np.uint64))[:, None]


def _mix64(z):
    """rng.mix64 on a uint64 array."""
    z = (z ^ (z >> _U(30))) * _U(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U(27))) * _U(0x94D049BB133111EB)
    return z ^ (z >> _U(31))


def trial_seeds(base_seed: int, start: int, stop: int):
    """rng.trial_seed(base_seed, i) for i in range(start, stop), as uint64."""
    index = np.arange(start + 1, stop + 1, dtype=np.uint64)
    return _mix64(_U(mix64(base_seed)) ^ _mix64(index * _G))


@lru_cache(maxsize=32)
def _block_static(topo):
    """Index arrays of an acyclic topology for the lockstep.

    Edges that share a history (a relay's out-edges and its input edge)
    share one root index; row R of a header array stays zero and pads
    the inputs of sinks with fewer than c_max inputs.
    """
    (_, inputs, coding, relay_edges, propagate, _, neighbors, downstream,
     coding_out) = _topo_static(topo)
    m = topo.m
    root = {eout: i for i, (_, eout) in enumerate(propagate)}
    for eout, ein in relay_edges:
        root[eout] = root[ein]
    R = len(propagate)
    pair = {}                          # (ein, eout) -> draw index
    heads = []
    for eout, head, ins in coding:
        for ein in ins:
            pair[(ein, eout)] = len(heads)
            heads.append(head)
    # The source's pairs are consecutive in draw order, out-edge by
    # out-edge, inputs -1..-m: its headers are the drawn bits themselves.
    src_out = topo.out_edges(topo.source)
    src_first = pair[(-1, src_out[0])] if src_out else 0
    conv = [(root[eout], [(pair[(ein, eout)], root[ein]) for ein in inputs[v]])
            for v, eout in propagate if v != topo.source]
    sinks = list(topo.sinks)
    c_max = max(len(topo.in_edges(r)) for r in sinks)
    in_roots = np.full((len(sinks), c_max), R, dtype=np.intp)
    for s, r in enumerate(sinks):
        for j, e in enumerate(topo.in_edges(r)):
            in_roots[s, j] = root[e]
    others = [v for v in range(topo.num_nodes) if v not in topo.sinks]
    reach = np.array([[r in downstream[v] for r in sinks] for v in others],
                     dtype=bool).reshape(len(others), len(sinks))
    # L of a node is 1 + the latest ACK among it and its neighbours.
    width = 1 + max(len(neighbors[v]) for v in range(topo.num_nodes))
    near = np.array([[v] + sorted(neighbors[v]) + [v] * (width - 1 - len(
        neighbors[v])) for v in range(topo.num_nodes)], dtype=np.intp)
    return dict(
        R=R, heads=np.array(heads, dtype=np.intp),
        src_roots=np.array([root[e] for e in src_out], dtype=np.intp),
        src_first=src_first, conv=[c for c in conv if c[1]],
        c_max=c_max, in_roots=in_roots,
        sinks=sinks, sink_nodes=np.array(sinks, dtype=np.intp),
        others=np.array(others, dtype=np.intp), reach=reach, near=near,
        code_heads=np.array([topo.head(e) for e in coding_out],
                            dtype=np.intp),
        xstep=_U(m * _GAMMA & _MASK),
        bit_shift=np.arange(m, dtype=np.uint64)[:, None],
        col_shift=np.arange(c_max - 1, -1, -1, dtype=np.uint64),
    )


def _insert(basis, row):
    """Insert `row` (a uint64 per column) into the reduced-echelon `basis`,
    shape (positions, columns), in place; True where the rank grew.

    basis[p] is the row whose pivot is bit p, or zero.
    """
    P = len(basis)
    row = row ^ np.bitwise_xor.reduce(basis * ((row & _BITS[:P]) != 0),
                                      axis=0)
    low = row & (~row + _ONE)          # lowest set bit: the new pivot
    # XOR the remainder into row slot `low` (empty) and into every row
    # that has bit `low` set, which clears it there.
    basis ^= row * (((basis | _BITS[:P]) & low) != 0)
    return row != 0


def _extend(top, basis, bits, c):
    """`ToeplitzExpansion.extend` on every column: F_t's rows as `bits`
    (m, columns); returns the new top rows and basis and the increments."""
    top = (top << _U(c)) | bits
    basis = np.concatenate([basis, np.zeros((c, top.shape[1]),
                                            dtype=np.uint64)])
    inc = np.zeros(top.shape[1], dtype=np.intp)
    for row in top:
        inc += _insert(basis, row)
    return top, basis, inc


def run_block(config, start: int, stop: int) -> TrialBlock:
    """`TrialBlock.of([run_trial(config, i) for i in range(start, stop)])`,
    computed in lockstep for a config that `engine._batchable` accepts."""
    if not _batchable(config):
        raise ValueError("run_block needs a lean GF(2) config on an acyclic "
                         "topology without overrides")
    topo = config.topology
    m = topo.m
    st = _block_static(topo)
    B = stop - start
    state = trial_seeds(config.base_seed, start, stop)
    seeds = state.tolist()
    never = config.max_rounds          # run_trial's ACK time of a node that
                                       # never ACKs
    ack = np.full((topo.num_nodes, B), never, dtype=np.int64)
    heads, c_max, R = st["heads"], st["c_max"], st["R"]
    src_roots, src_first = st["src_roots"], st["src_first"]
    n_src = len(src_roots) * m
    conv = st["conv"]
    khist, fhist = [], []              # kept only for real-input pairs
    # waiting (sink, trial) pairs and their Toeplitz rank state
    ws = np.repeat(np.arange(len(st["sinks"]), dtype=np.intp), B)
    wt = np.tile(np.arange(B, dtype=np.intp), len(st["sinks"]))
    top = np.zeros((m, len(ws)), dtype=np.uint64)
    basis = np.zeros((0, len(ws)), dtype=np.uint64)
    running = np.ones(B, dtype=bool)
    steps = min(config.max_rounds, 64 // c_max)
    t = 0
    while t < steps and running.any():
        # ------------------------------------------------------ draws
        state += st["xstep"]
        draw = running & (ack[heads] >= t)
        count = np.cumsum(draw, axis=0, dtype=np.uint64)
        k = (_mix64(state + count * _G) & _ONE) * draw
        if len(heads):
            state += count[-1] * _G
        # ------------------------------------------------ propagation
        f = np.zeros((R + 1, B), dtype=np.uint64)
        f[src_roots] = (k[src_first:src_first + n_src]
                        .reshape(len(src_roots), m, B)
                        << st["bit_shift"]).sum(axis=1, dtype=np.uint64)
        if conv:
            khist.append(k)
            fhist.append(f)
            for rout, ins in conv:
                acc = f[rout]
                for p, rin in ins:
                    for i in range(t + 1):
                        acc ^= khist[i][p] * fhist[t - i][rin]
        # ------------------------------------------------- rank test
        heads_in = f[st["in_roots"][ws], wt[:, None]]         # (N, c_max)
        bits = (((heads_in[:, None, :] >> st["bit_shift"]) & _ONE)
                << st["col_shift"]).sum(axis=2, dtype=np.uint64)
        top, basis, inc = _extend(top, basis, bits.T, c_max)
        done = inc == m
        ack[st["sink_nodes"][ws[done]], wt[done]] = t
        keep = ~done
        ws, wt, top, basis = ws[keep], wt[keep], top[:, keep], basis[:, keep]
        # -------------------------------------------------- ACK pass
        waiting = ack[st["sink_nodes"]] == never
        ready = ~(st["reach"][:, :, None] & waiting).any(axis=1)
        others = st["others"]
        ack[others] = np.where(ready & (ack[others] == never), t, ack[others])
        running[:] = False
        running[wt] = True
        t += 1
    return _block(config, st, start, seeds, ack, running)


def _block(config, st, start, seeds, ack, running) -> TrialBlock:
    """The TrialBlock of the lockstep's ACK times, with run_trial's
    results at the positions of the trials still running."""
    topo = config.topology
    V = topo.num_nodes
    B = len(seeds)
    T = ack[st["sink_nodes"]]
    T_N = T.max(axis=0)
    L = ack[st["near"]].max(axis=1) + 1
    n_code = len(st["code_heads"])
    code = ack[st["code_heads"]].sum(axis=0) + n_code
    # The sums are small integers, so float64 division rounds them as
    # run_trial's Python division does.
    block = TrialBlock(
        trial=list(range(start, start + B)), seed=seeds, success=[True] * B,
        rounds=(T_N + 1).tolist(), T_N=T_N.tolist(),
        avg_T=(T.sum(axis=0) / len(T)).tolist(),
        avg_code_len=(code / n_code).tolist() if n_code else [0.0] * B,
        avg_memory_bits=(topo.m * L.sum(axis=0) / V).tolist(),
        T=dict(zip(st["sinks"], T.tolist())),
        L=dict(zip(range(V), L.tolist())))
    for b in np.flatnonzero(running).tolist():
        block.put(b, run_trial(config, start + b))
    return block
