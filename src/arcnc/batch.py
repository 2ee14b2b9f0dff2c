"""Lean trials in lockstep: a block of trials advanced together in numpy,
every result equal to `engine.run_trial`'s, in every field.

Eligibility.  `engine.collect_campaign` runs a block here only where the
output is provably the same as `run_trial`'s: an acyclic topology and
none of `verify_decode`, `trace`, `keep_kernels` or kernel overrides, for
any q.  Every other campaign runs `run_trial`, which stays the reference;
the differential tests compare each block with the `engine.TrialBlock` of
`run_trial`'s results.

Draw-order contract.  Each trial keeps its own SplitMix64 state in a
uint64 vector.  Step t first draws the m source symbols x_t (which a lean
trial never reads), then one coefficient for each coding pair in
`_topo_static`'s `coding` order, counted only in trials that are still
running and whose pair's head node had not ACKed before t.  A draw is
`mix64(state)` after the state advances by the SplitMix64 gamma, and the
value is the draw mod q, which is what `SplitMix64.randint(q)` returns
unless it rejects the draw.  For q a power of two it never does.  For any
other q, `randint` rejects a draw at or above 2^64 - (2^64 mod q) and
draws again, so the rest of that trial's draws would shift against the
lockstep's.  Every draw of a running trial, x_t included, is checked with
`randint`'s predicate (`_rejected`); a trial with a rejected draw is
re-run from the start with `run_trial` and put into the block at its own
position (trials are independent by index, so the result is the
reference's own).  Every other trial consumes exactly the draws
`run_trial` makes, in the same order.

Arithmetic.  `array_field(q)` does F_q on int64 arrays of elements in
[0, q): add and mul mod p in a prime field; in GF(2^k) xor for add and a
gather for mul, from the q x q product table for q <= 256 and from the
exp/log tables above (log 0 points into a zero tail of exp); inverses
from a table.  `baseline.sink_success_fractions` uses the same helper.

State.  Headers are (roots, m, trials) arrays, and a relay's out-edge
reads the history of its root input edge.  The stopping rule is
`polyalg.ToeplitzExpansion` on every waiting (sink, trial) pair at once:
step t puts F_t's column in front of each of the pair's c_max equations
(zero past its inputs) and inserts them into a basis that gains m
positions.  `_Basis`, the array form of `polyalg._RowBasis`, is dense and
reduced-echelon: slot p holds the row whose pivot is position p, with
value 1 there, and position p is zero in every other row.  New equations
are reduced by one vectorized subtraction of `rows[:, pivots] @ basis`,
then by each other; a non-zero remainder raises the rank, and its lowest
non-zero position becomes its pivot and is cleared from the other rows.
The ACK pass is `run_trial`'s.

Room.  A block runs to `max_rounds`, and a trial still running then has
failed, as in `run_trial`, unless its rank state runs out of room first:
the dense basis holds at most `_BASIS_ENTRIES` entries, which only sinks
that keep failing to decode for many steps come near.  GF(2) runs the
same rank test with every equation a uint64 bitmask (`_BitBasis`), about
twice as fast as the dense basis on lean GF(2) campaigns, while the
(t+1)*m positions of step t fit in 64 bits, whatever the in-degrees.
When the rank state has no room for another step, the trials still
running are re-run with `run_trial`, as rejected ones are.

Results.  A block comes back as an `engine.TrialBlock` built from the ACK
times, one `.tolist()` per column; no per-trial object is made.
"""

from __future__ import annotations

from functools import lru_cache
from math import log2

import numpy as np

from .engine import TrialBlock, _batchable, _topo_static, run_trial
from .gf import field_new
from .rng import _GAMMA, _MASK, mix64

__all__ = ["array_field", "run_block", "trial_seeds"]

# numpy 1.x promotes uint64 mixed with a signed int to float64, so every
# operand below is a np.uint64.
_U = np.uint64
_G = _U(_GAMMA)


def _mix64(z):
    """rng.mix64 on a uint64 array."""
    z = (z ^ (z >> _U(30))) * _U(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U(27))) * _U(0x94D049BB133111EB)
    return z ^ (z >> _U(31))


def _rejected(raw, q: int):
    """Where a raw draw is one that `SplitMix64.randint(q)` rejects."""
    return raw > _MASK - (1 << 64) % q


def _values(raw, q: int):
    """`SplitMix64.randint(q)`'s value of each raw draw, as int64, where
    the draw is not rejected."""
    if q & (q - 1):
        return (raw % _U(q)).astype(np.int64)
    return (raw & _U(q - 1)).astype(np.int64)


def trial_seeds(base_seed: int, start: int, stop: int):
    """rng.trial_seed(base_seed, i) for i in range(start, stop), as uint64."""
    index = np.arange(start + 1, stop + 1, dtype=np.uint64)
    return _mix64(_U(mix64(base_seed)) ^ _mix64(index * _G))


class _ArrayField:
    """F_q on int64 arrays of elements in [0, q), with numpy broadcasting:
    `add`, `mul`, `inv`, `dot` (the matrix product over the last two
    axes), and the fused `submul(c, a, b)` = c - a*b and `subdot(c, a, b)`
    = c - a @ b."""

    def __init__(self, q: int):
        if q & (q - 1):                # prime: products stay below 2^32

            def mod(a):                # a % q; int64 remainder is slower
                return a - a // q * q

            self.add = lambda a, b: mod(a + b)
            self.mul = lambda a, b: mod(a * b)
            self.dot = lambda a, b: mod(a @ b)
            self.submul = lambda c, a, b: mod(c - a * b)
            self.subdot = lambda c, a, b: mod(c - a @ b)
            inv = np.ones(q, dtype=np.int64)
            base, e = np.arange(q, dtype=np.int64), q - 2
            while e:                   # a^(p-2), square and multiply
                if e & 1:
                    inv = mod(inv * base)
                base = mod(base * base)
                e >>= 1
        else:                          # GF(2^k): add is xor
            if q == 2:
                mul = np.bitwise_and
                inv = np.arange(2, dtype=np.int64)
            else:
                fld = field_new(q)
                # log 0 points into a zero tail of exp
                exp = np.array(fld._exp + [0] * 2 * q, dtype=np.int64)
                log = np.array([2 * q - 2] + fld._log[1:], dtype=np.int64)
                inv = exp[(q - 1) - log]

                def mul(a, b):
                    return exp[log[a] + log[b]]

                if q <= 256:           # one gather from the product table
                    k = q.bit_length() - 1
                    elements = np.arange(q, dtype=np.int64)
                    prod = mul(elements[:, None], elements).ravel()

                    def mul(a, b):
                        return prod[(a << k) | b]

            self.add = np.bitwise_xor
            self.mul = mul
            self.dot = lambda a, b: np.bitwise_xor.reduce(
                mul(a[..., :, :, None], b[..., None, :, :]), axis=-2)
            self.submul = lambda c, a, b: c ^ mul(a, b)
            self.subdot = lambda c, a, b: c ^ self.dot(a, b)
        inv[0] = 0
        self.inv = inv.__getitem__


@lru_cache(maxsize=8)
def array_field(q: int) -> _ArrayField:
    """The array arithmetic of F_q (q prime or a power of two <= 2^16)."""
    return _ArrayField(q)


@lru_cache(maxsize=32)
def _block_static(topo):
    """Index arrays of an acyclic topology for the lockstep.

    Edges that share a history (a relay's out-edges and its input edge)
    share one root index; row R of a header array stays zero and pads
    each sink's input roots, in input order, to c_max.
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
    # out-edge, inputs -1..-m: its headers are the drawn values themselves.
    src_out = topo.out_edges(topo.source)
    src_first = pair[(-1, src_out[0])] if src_out else 0
    conv = [(root[eout],
             np.array([pair[(ein, eout)] for ein in inputs[v]], dtype=np.intp),
             np.array([root[ein] for ein in inputs[v]], dtype=np.intp))
            for v, eout in propagate if v != topo.source and inputs[v]]
    sinks = list(topo.sinks)
    ins = [[root[e] for e in topo.in_edges(r)] for r in sinks]
    c_max = max(map(len, ins))
    in_roots = np.array([r + [R] * (c_max - len(r)) for r in ins],
                        dtype=np.intp)
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
        src_first=src_first, conv=conv, c_max=c_max, in_roots=in_roots,
        in_deg=np.array([len(r) for r in ins], dtype=np.intp),
        sinks=sinks, sink_nodes=np.array(sinks, dtype=np.intp),
        others=np.array(others, dtype=np.intp), reach=reach, near=near,
        code_heads=np.array([topo.head(e) for e in coding_out],
                            dtype=np.intp),
        comps=np.arange(m, dtype=np.intp)[:, None],
        # the m source-symbol draws of a step, as state offsets
        xoffsets=(np.arange(1, m + 1, dtype=np.uint64) * _G)[:, None],
        xstep=_U(m * _GAMMA & _MASK),
    )


# Most entries a dense basis holds, 8 MiB of int64.  Only sinks that keep
# failing to decode for many steps come near it (a sink whose max-flow is
# below m never decodes); their trials then run `run_trial`, one at a time.
_BASIS_ENTRIES = 1 << 20


class _Basis:
    """`ToeplitzExpansion` of every waiting (sink, trial) pair over F_q.

    `eqs` holds each input's newest equation, shape (pairs, c, positions),
    and `basis` the reduced-echelon basis, shape (pairs, slots, positions):
    slot p holds the row whose pivot is position p, or zero.
    """

    def __init__(self, fld, N: int, c: int):
        self.fld = fld
        self.eqs = np.zeros((N, c, 0), dtype=np.int64)
        self.basis = np.zeros((N, 0, 0), dtype=np.int64)

    def full(self, m: int) -> bool:
        """True when m more positions would take the basis past
        `_BASIS_ENTRIES`."""
        N, P0 = self.basis.shape[:2]
        return N * (P0 + m) ** 2 > _BASIS_ENTRIES

    def keep(self, pairs):
        self.eqs, self.basis = self.eqs[pairs], self.basis[pairs]

    def extend(self, F):
        """Put F_t, (c, m, pairs), in front of the first c equations, the
        rest being zero padding; returns each pair's rank increment.

        The new equations are reduced by the stored rows in one product,
        then by each other, and their pivots cleared from the stored rows.
        """
        fld = self.fld
        c, m, N = F.shape
        P0 = self.basis.shape[1]
        eqs = self.eqs = np.concatenate([F.transpose(2, 0, 1),
                                         self.eqs[:, :c]], axis=2)
        # stored rows are zero at the m new (highest) positions
        old = np.concatenate([self.basis,
                              np.zeros((N, P0, m), dtype=np.int64)], axis=2)
        rows = fld.subdot(eqs, eqs[:, :, :P0], old) if P0 else eqs
        lanes = np.arange(N)
        new, pivots, inc = [], [], np.zeros(N, dtype=np.intp)
        for r in range(c):
            row = rows[:, r]
            for pivot, other in zip(pivots, new):
                row = fld.submul(row, row[lanes, pivot][:, None], other)
            nz = row != 0
            if not nz.any():           # zero in every pair: no rank
                continue
            pivot = nz.argmax(axis=1)  # lowest non-zero position
            row = fld.mul(row, fld.inv(row[lanes, pivot])[:, None])
            new = [fld.submul(other, other[lanes, pivot][:, None], row)
                   for other in new]
            new.append(row)
            pivots.append(pivot)
            inc += nz.any(axis=1)
        basis = self.basis = np.concatenate(
            [old, np.zeros((N, m, P0 + m), dtype=np.int64)], axis=1)
        if new:
            new, pivots = np.stack(new, axis=1), np.stack(pivots, axis=1)
            basis[:, :P0] = fld.subdot(old, np.take_along_axis(
                old, pivots[:, None, :], axis=2), new)
            # A row that found no pivot is zero: it cleared nothing, and
            # storing it at slot 0 would overwrite that slot's row.
            n, r = np.nonzero(new.any(axis=2))
            basis[n, pivots[n, r]] = new[n, r]
        return inc


# bit p of a GF(2) row is its entry at position p
_SHIFTS = np.arange(64, dtype=np.uint64)
_BITS = (_U(1) << _SHIFTS)[:, None]


class _BitBasis:
    """`_Basis` over GF(2) with every row a uint64 bitmask, bit p its
    entry at position p, so a row holds at most 64 positions.

    `eqs` has shape (c, pairs) and `basis` (slots, pairs): slot p holds
    the row whose pivot is bit p, or zero.  A row is reduced in one pass
    by XOR with the rows whose pivot bits it has set; a non-zero
    remainder's lowest set bit becomes its pivot and is cleared from the
    other rows.
    """

    def __init__(self, N: int, c: int):
        self.eqs = np.zeros((c, N), dtype=np.uint64)
        self.basis = np.zeros((0, N), dtype=np.uint64)

    def full(self, m: int) -> bool:
        """True when m more positions would not fit a uint64 row."""
        return len(self.basis) + m > 64

    def keep(self, pairs):
        self.eqs, self.basis = self.eqs[:, pairs], self.basis[:, pairs]

    def extend(self, F):
        """`_Basis.extend` on 0/1 entries."""
        c, m, N = F.shape
        eqs = self.eqs = (self.eqs[:c] << _U(m)) | np.bitwise_or.reduce(
            F.astype(np.uint64) << _SHIFTS[:m, None], axis=1)
        basis = self.basis = np.concatenate(
            [self.basis, np.zeros((m, N), dtype=np.uint64)])
        bits = _BITS[:len(basis)]
        inc = np.zeros(N, dtype=np.intp)
        for row in eqs:
            row = row ^ np.bitwise_xor.reduce(basis * ((row & bits) != 0),
                                              axis=0)
            low = row & (~row + _U(1))
            # XOR the remainder into slot `low` (empty) and into every row
            # with bit `low` set, which clears it there.
            basis ^= row * (((basis | bits) & low) != 0)
            inc += row != 0
        return inc


def run_block(config, start: int, stop: int) -> TrialBlock:
    """`TrialBlock.of([run_trial(config, i) for i in range(start, stop)])`,
    computed in lockstep for a config that `engine._batchable` accepts."""
    if not _batchable(config):
        raise ValueError("run_block needs a lean config on an acyclic "
                         "topology without trace, kept kernels or "
                         "overrides")
    topo = config.topology
    m, q = topo.m, config.field.q
    fld = array_field(q)
    exact = not q & (q - 1)            # a power of two: no draw rejects
    st = _block_static(topo)
    B = stop - start
    state = trial_seeds(config.base_seed, start, stop)
    seeds = state.tolist()
    never = config.max_rounds          # run_trial's ACK time of a node that
                                       # never ACKs
    ack = np.full((topo.num_nodes, B), never, dtype=np.int64)
    heads, c, R = st["heads"], st["c_max"], st["R"]
    src_roots, src_first = st["src_roots"], st["src_first"]
    n_src = len(src_roots) * m
    conv = st["conv"]
    khist, fhist = [], []              # kept only for real-input pairs
    redo = np.zeros(B, dtype=bool)     # trials re-run with run_trial
    # waiting (sink, trial) pairs and their Toeplitz rank state
    ws = np.repeat(np.arange(len(st["sinks"]), dtype=np.intp), B)
    wt = np.tile(np.arange(B, dtype=np.intp), len(st["sinks"]))
    rank = _BitBasis(len(ws), c) if q == 2 else _Basis(fld, len(ws), c)
    running = np.ones(B, dtype=bool)
    t = 0
    while t < config.max_rounds and running.any() and not rank.full(m):
        # ------------------------------------------------------ draws
        if not exact:
            redo |= running & _rejected(
                _mix64(state + st["xoffsets"]), q).any(axis=0)
        state += st["xstep"]
        draw = running & (ack[heads] >= t)
        count = np.cumsum(draw, axis=0, dtype=np.uint64)
        raw = _mix64(state + count * _G)
        if not exact:
            redo |= (_rejected(raw, q) & draw).any(axis=0)
        k = _values(raw, q) * draw
        if len(heads):
            state += count[-1] * _G
        # ------------------------------------------------ propagation
        f = np.zeros((R + 1, m, B), dtype=np.int64)
        f[src_roots] = k[src_first:src_first + n_src].reshape(
            len(src_roots), m, B)
        if conv:
            khist.append(k)
            fhist.append(f)
            for rout, pairs, roots in conv:
                kin = np.concatenate([khist[i][pairs] for i in range(t + 1)])
                fin = np.concatenate([fhist[t - i][roots]
                                      for i in range(t + 1)])
                # sum over (delay, input) of k_i * f_{t-i}, per trial
                f[rout] = fld.dot(fin.T, kin.T[:, :, None])[:, :, 0].T
        # ------------------------------------------------- rank test
        # F_t of every waiting pair, (c, m, N): zero past the widest sink
        c = st["in_deg"][ws].max()
        inc = rank.extend(f[st["in_roots"][ws, :c].T[:, None], st["comps"],
                            wt])
        done = inc == m
        ack[st["sink_nodes"][ws[done]], wt[done]] = t
        keep = ~done
        ws, wt = ws[keep], wt[keep]
        rank.keep(keep)
        # -------------------------------------------------- ACK pass
        waiting = ack[st["sink_nodes"]] == never
        ready = ~(st["reach"][:, :, None] & waiting).any(axis=1)
        others = st["others"]
        ack[others] = np.where(ready & (ack[others] == never), t, ack[others])
        running[:] = False
        running[wt] = True
        t += 1
    if t < config.max_rounds:          # the rank state ran out of room
        redo |= running
    return _block(config, st, start, seeds, ack, redo)


def _block(config, st, start, seeds, ack, redo) -> TrialBlock:
    """The TrialBlock of the lockstep's ACK times, with run_trial's
    results at the positions where `redo` is set."""
    topo = config.topology
    V = topo.num_nodes
    B = len(seeds)
    T = ack[st["sink_nodes"]]
    T_N = T.max(axis=0)
    L = ack[st["near"]].max(axis=1) + 1
    n_code = len(st["code_heads"])
    code = ack[st["code_heads"]].sum(axis=0) + n_code
    # The integer sums are small, so float64 division rounds them as
    # run_trial's Python division does.  Memory bits are m * L_v * log2 q
    # added up in node order, as run_trial adds them: log2 q is inexact
    # unless q is a power of two.
    bits = np.add.accumulate(topo.m * L * log2(config.field.q), axis=0)
    block = TrialBlock(
        trial=list(range(start, start + B)), seed=seeds,
        success=(T_N < config.max_rounds).tolist(),
        rounds=np.minimum(T_N + 1, config.max_rounds).tolist(),
        T_N=T_N.tolist(), avg_T=(T.sum(axis=0) / len(T)).tolist(),
        avg_code_len=(code / n_code).tolist() if n_code else [0.0] * B,
        avg_memory_bits=(bits[-1] / V).tolist(),
        T=dict(zip(st["sinks"], T.tolist())),
        L=dict(zip(range(V), L.tolist())))
    for b in np.flatnonzero(redo).tolist():
        block.put(b, run_trial(config, start + b))
    return block
