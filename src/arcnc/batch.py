"""Trials in lockstep: a block of trials advanced together in numpy,
every result equal to `engine.run_trial`'s, in every field.

Eligibility.  `engine.collect_campaign` runs a block here only where the
output is provably the same as `run_trial`'s: an acyclic topology, none
of `trace`, `keep_kernels` or kernel overrides, any q, lean or verified
(`verify_decode`) trials, and sinks of any in-degree.  Every other
campaign (cyclic or traced) runs `run_trial`, which stays the reference;
the differential tests compare each block with the `engine.TrialBlock`
of `run_trial`'s results.

Draw-order contract.  Each trial keeps its own SplitMix64 state in a
uint64 vector and draws in `engine`'s order: step t first draws the m
source symbols x_t (which a lean trial never reads), then one coefficient
for each coding pair in `_topo_static`'s `coding` order, counted only in
trials that are still running and whose pair's head node had not ACKed
before t.  A draw is `mix64(state)` after the state advances by the
SplitMix64 gamma, and the value is the draw mod q, as
`SplitMix64.randint(q)` returns it.  A lean block skips the x_t draws by
advancing the state past them.  So every trial consumes exactly the draws
`run_trial` makes, in the same order, and leaves the lockstep only for
room (below).

Arithmetic.  `array_field(q)` does F_q on integer arrays of elements in
[0, q): add and mul mod p in a prime field; in GF(2^k) xor for add and a
gather for mul, from the q x q product table for q <= 256 and from the
exp/log tables above (log 0 points into a zero tail of exp); inverses
from a table.  Its `dtype` is the type the dense rank state is kept in:
int32 in GF(2^k) and for primes below 2^10, int64 for larger primes.
Headers and draws stay int64.  `baseline.sink_success_fractions` runs
step 0 of the lockstep with the same helpers.

State.  Headers are (roots, m, trials) arrays, and a relay's out-edge
reads the history of its root input edge.  The stopping rule is
`polyalg.ToeplitzExpansion` on every waiting (sink, trial) pair at once:
step t puts F_t's column in front of each of the pair's c_max equations
(zero past its inputs) and inserts them into a basis that gains m
positions.  `_Basis`, the array form of `polyalg._RowBasis`, is dense and
reduced-echelon: slot p holds the row whose pivot is position p, with
value 1 there, and position p is zero in every other row.  Every rank
state puts the pairs last, (slots, positions, pairs) for `_Basis`, so each
array operation runs along the long pair axis.  New equations are reduced
by the stored rows in one product summed over the slot axis, then by each
other; a non-zero remainder raises the rank, and its lowest non-zero
position becomes its pivot, is cleared from the stored rows in one more
such product, and takes slot p by a put.  `_PlaneBasis` is the same
basis bit-packed, in GF(2) and in verified GF(2^k) blocks.  The ACK pass
is `run_trial`'s.

Verified blocks.  The header arrays gain the symbol y at row m, and the
m virtual inputs, rows R+1 .. R+m, carry e_j at t = 0 and the drawn x_t,
so the source's out-edges convolve them as any node convolves its inputs.
Each equation carries its y after the x-positions.  A pair stays in the
rank state after its sink's ACK, until its trial's horizon
H = T_N + max(max_r delta_r, T_N) + 1, `run_trial`'s tail.  On any sink
delta_r is `run_trial`'s: the rank deficits m - inc_t of the steps
before the ACK, summed, which is d_1 + ... + d_m for the invariant
factors z^d_i of the kernel matrix (Massey & Sain 1968; Forney 1970).
Tail steps draw only x_t.  Three checks, each an array operation, raise
`EngineError` naming the trial and the sink: no equation reduces to
0 = y != 0; at H every x_{s,j} with s <= H -
delta_r is determined and equals the drawn one; and, with
`verify_headers`, y_{e,t} = sum_i f_{e,i} . x_{t-i} on each distinct sink
input root at every step.  A failed check never falls back to
`run_trial`, which would hide a lockstep fault.  In GF(2^k) a verified
block keeps its equations bit-packed (`_PlaneBasis`), y at bit 63;
prime fields keep the dense basis, in sub-blocks of at most
`_VERIFIED_PAIRS` pairs, since a verified pair stays until its horizon.

Room.  A block runs to `max_rounds`, and a trial still running then has
failed, as in `run_trial`, unless its rank state runs out of room first:
when the rank state has no room for the m positions of another step, the
trials still running or in their tail are re-run from the start with
`run_trial` and put into the block at their own positions (trials are
independent by index, so each result is the reference's own).  This is
the only way a trial leaves the lockstep.  The dense basis holds at most
`_BASIS_ENTRIES` entries for the whole block, which only sinks that keep
failing to decode for many steps come near; so a row has at most 2^10
positions, a sum of products in a prime field below 2^10 stays below
2^30, in int32, and a step's products hold at most c_max times as many
entries as the basis.  A bit-packed row holds the (t+1)*m positions of
step t, whatever the in-degrees: 64 in a lean block, 63 beside y in a
verified one.  So a lean GF(2) trial runs bit-packed for 64 // m steps,
and a verified trial whose horizon H has (H+1)*m > 63 is still in its
tail at the first step without room, and is re-run there.

Results.  A block comes back as an `engine.TrialBlock` built from the ACK
times and delays, one `.tolist()` per column; no per-trial object is
made.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from math import log2
from operator import itemgetter

import numpy as np

from .engine import (EngineError, TrialBlock, _batchable, _topo_static,
                     run_trial)
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


def _values(raw, q: int):
    """`SplitMix64.randint(q)`'s value of each raw draw, raw mod q, as
    int64; a mask for q a power of two, which is about twice as fast."""
    if q & (q - 1):
        return (raw % _U(q)).astype(np.int64)
    return (raw & _U(q - 1)).astype(np.int64)


def trial_seeds(base_seed: int, start: int, stop: int):
    """rng.trial_seed(base_seed, i) for i in range(start, stop), as uint64."""
    index = np.arange(start + 1, stop + 1, dtype=np.uint64)
    return _mix64(_U(mix64(base_seed)) ^ _mix64(index * _G))


class _ArrayField:
    """F_q on integer arrays of elements in [0, q), with numpy
    broadcasting: `mul`, `inv`, `dot` (the matrix product over the
    last two axes), and the fused `submul(c, a, b)` = c - a*b and
    `subsum(c, a, b)` = c - sum_s a[s]*b[s], summed over the first axis.

    `dtype` is the narrowest integer type the rank state can reduce in:
    int32 in GF(2^k) and for primes q < 2^10, where a sum of at most 2^10
    products stays below 2^30 (`_BASIS_ENTRIES` caps a dense row at 2^10
    positions), and int64 for larger primes.  The tables are of `dtype`;
    the operations take either type.
    """

    def __init__(self, q: int):
        dtype = self.dtype = np.dtype(
            np.int64 if q & (q - 1) and q >= 1 << 10 else np.int32)
        if q & (q - 1):                # prime: products stay below 2^32

            def mod(a):                # a % q; int64 remainder is slower
                return a - a // q * q

            self.mul = lambda a, b: mod(a * b)
            self.dot = lambda a, b: mod(a @ b)
            self.submul = lambda c, a, b: mod(c - a * b)
            # add.reduce would accumulate int32 in int64
            self.subsum = lambda c, a, b: mod(
                c - np.add.reduce(a * b, axis=0, dtype=dtype))
            inv = np.ones(q, dtype=dtype)
            base, e = np.arange(q, dtype=dtype), q - 2
            while e:                   # a^(p-2), square and multiply
                if e & 1:
                    inv = mod(inv * base)
                base = mod(base * base)
                e >>= 1
        else:                          # GF(2^k): add is xor
            if q == 2:
                mul = np.bitwise_and
                inv = np.arange(2, dtype=dtype)
            else:
                fld = field_new(q)
                # log 0 points into a zero tail of exp
                exp = np.array(fld._exp + [0] * 2 * q, dtype=dtype)
                log = np.array([2 * q - 2] + fld._log[1:], dtype=dtype)
                inv = exp[(q - 1) - log]

                def mul(a, b):
                    return exp[log[a] + log[b]]

                if q <= 256:           # one gather from the product table
                    k = q.bit_length() - 1
                    elements = np.arange(q, dtype=dtype)
                    prod = mul(elements[:, None], elements).ravel()

                    def mul(a, b):
                        return prod[(a << k) | b]

            self.mul = mul
            self.dot = lambda a, b: np.bitwise_xor.reduce(
                mul(a[..., :, :, None], b[..., None, :, :]), axis=-2)
            self.submul = lambda c, a, b: c ^ mul(a, b)
            self.subsum = lambda c, a, b: c ^ np.bitwise_xor.reduce(
                mul(a, b), axis=0)
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

    def convolution(outs, ins, in_roots):
        """(out-edge roots, draw index of each (out-edge, input) pair,
        input roots) of one node."""
        return (np.array([root[e] for e in outs], dtype=np.intp),
                np.array([[pair[(ein, e)] for ein in ins] for e in outs],
                         dtype=np.intp).reshape(len(outs), len(ins)),
                np.array(in_roots, dtype=np.intp))

    conv = [convolution([e for _, e in outs], inputs[v],
                        [root[ein] for ein in inputs[v]])
            for v, outs in groupby(propagate, key=itemgetter(0))
            if v != topo.source and inputs[v]]
    # In a verified block rows R+1 .. R+m of the header array are the
    # virtual inputs, which carry x_t, and the source's out-edges convolve
    # them like any other node's inputs.
    src_conv = [convolution(src_out, inputs[topo.source],
                            [R - ein for ein in inputs[topo.source]])
                ] if src_out else []
    sinks = list(topo.sinks)
    ins = [[root[e] for e in topo.in_edges(r)] for r in sinks]
    checked = {}                       # sink input root -> (edge, sink)
    for r in sinks:
        for e in topo.in_edges(r):
            checked.setdefault(root[e], (e, r))
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
        src_first=src_first, conv=conv, src_conv=src_conv, c_max=c_max,
        in_roots=in_roots, checked=list(checked.values()),
        checked_roots=np.array(list(checked), dtype=np.intp),
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


# Most entries a dense basis holds, 4 MiB in int32 (8 MiB in the int64 of
# primes above 2^10).  Only sinks that keep failing to decode for many
# steps come near it (a sink whose max-flow is below m never decodes);
# their trials then run `run_trial`, one at a time.
_BASIS_ENTRIES = 1 << 20

# Most (sink, trial) pairs a verified block keeps in a dense basis at once:
# its pairs stay until the horizon, so longer blocks run in sub-blocks.
_VERIFIED_PAIRS = 320


class _Basis:
    """`ToeplitzExpansion` of every (sink, trial) pair in the lockstep over
    F_q, in the field's `dtype`.

    `eqs` holds each input's newest equation, shape (c, positions, pairs),
    and `basis` the reduced-echelon basis, shape (slots, positions,
    pairs): slot p holds the row whose pivot is position p, or zero.  With
    `symbols`, each row has one more position, last, for the received
    symbol y, which no pivot takes.
    """

    def __init__(self, fld, N: int, c: int, symbols: bool = False):
        self.fld = fld
        self.sym = int(symbols)
        self.eqs = np.zeros((c, self.sym, N), dtype=fld.dtype)
        self.basis = np.zeros((0, self.sym, N), dtype=fld.dtype)
        self.bad = np.zeros(N, dtype=bool)

    def full(self, m: int) -> bool:
        """True when m more positions would take the basis past
        `_BASIS_ENTRIES`."""
        P0, _, N = self.basis.shape
        return N * (P0 + m) * (P0 + m + self.sym) > _BASIS_ENTRIES

    def keep(self, pairs):
        self.eqs, self.basis = self.eqs[:, :, pairs], self.basis[:, :, pairs]

    def extend(self, F, y=None):
        """Put F_t, (c, m, pairs), in front of the first c equations, the
        rest being zero padding, with the symbols y, (c, pairs), if kept;
        returns each pair's rank increment.  `bad` marks the pairs where
        an equation reduced to 0 = y != 0.

        The new equations are reduced by the stored rows in one product
        summed over the slots, then by each other, and their pivots are
        cleared from the stored rows in one more.
        """
        fld = self.fld
        c, m, N = F.shape
        P0 = len(self.basis)
        P = P0 + m                     # x-positions; y follows them
        W = P + self.sym
        eqs = np.empty((c, W, N), dtype=fld.dtype)
        eqs[:, :m] = F
        eqs[:, m:] = self.eqs[:c]      # the old y, if kept, is overwritten
        if self.sym:
            eqs[:, P] = y
        self.eqs = eqs
        # slot P is spare: it takes the rows that find no pivot
        basis = np.zeros((P + 1, W, N), dtype=fld.dtype)
        # stored rows are zero at the m new (highest) x-positions
        old = basis[:P0]
        old[:, :P0] = self.basis[:, :P0]
        old[:, P:] = self.basis[:, P0:]
        rows = fld.subsum(eqs, eqs[:, :P0].swapaxes(0, 1)[:, :, None],
                          old[:, None]) if P0 else eqs
        lanes = np.arange(N)
        new, pivots, slots = [], [], []
        inc = np.zeros(N, dtype=np.intp)
        bad = self.bad = np.zeros(N, dtype=bool)
        for row in rows:
            for pivot, other in zip(pivots, new):
                row = fld.submul(row, row[pivot, lanes], other)
            nz = row[:P] != 0
            has = nz.any(axis=0)
            if self.sym:
                bad |= ~has & (row[P] != 0)
            if not has.any():          # zero in every pair: no rank
                continue
            pivot = nz.argmax(axis=0)  # lowest non-zero position
            # a row without a pivot becomes zero: inv(0) = 0
            row = fld.mul(row, fld.inv(row[pivot, lanes]))
            new = [fld.submul(other, other[pivot, lanes], row)
                   for other in new]
            new.append(row)
            pivots.append(pivot)
            slots.append(np.where(has, pivot, P))
            inc += has
        if new:
            new = np.stack(new)
            if P0:
                old[:] = fld.subsum(old, old[:, np.stack(pivots), lanes]
                                    .swapaxes(0, 1)[:, :, None],
                                    new[:, None])
            # row r of pair n goes to slot slots[r][n]
            at = np.arange(W)[:, None] * N + lanes
            np.put(basis, np.stack(slots)[:, None] * (W * N) + at, new)
        self.basis = basis[:P]
        return inc

    def solved(self, pairs):
        """x at every position of the chosen pairs, (pairs, positions), and
        where the equations determine it: its slot holds the unit row."""
        basis = self.basis[:, :, pairs]
        P = len(basis)
        unit = (basis[:, :P] == np.eye(P, dtype=basis.dtype)[:, :, None]
                ).all(axis=1)
        return basis[:, P].T, unit.T


# bit p of a bit-packed row is its entry at position p
_SHIFTS = np.arange(64, dtype=np.uint64)
_BITS = (_U(1) << _SHIFTS)[:, None]
_Y = _U(1) << _U(63)                   # the y bit of a row with symbols
_XBITS = ~_Y


class _PlaneBasis:
    """`_Basis` over GF(2^k), k >= 1, with every row bit-packed: k uint64
    bit planes, bit p of plane u holding bit u of the row's entry at
    position p.  x-positions start at bit 0, so a row holds 64 of them;
    with `symbols`, y sits at bit 63, beside 63 x-positions.

    `eqs` has shape (c, k, pairs) and `basis` (slots, k, pairs): slot p
    holds the row whose pivot is bit p, with entry 1 there, or zero.  A
    product acts on whole planes: alpha (the element 2) times a row moves
    plane u to u + 1 and folds the top plane back by the field's modulus,
    and a row times any element is Horner's rule over the element's bits.
    In GF(2) a row is one plane and a plain bitmask.
    """

    def __init__(self, N: int, c: int, q: int, symbols: bool = False):
        k = self.k = q.bit_length() - 1
        self.sym = symbols
        self.inv = array_field(q).inv
        low = field_new(q).modulus ^ q     # alpha^k; its bit 0 is set
        self.fold = np.array([_MASK * (low >> u & 1) for u in range(1, k)],
                             dtype=np.uint64)[:, None]
        self.planes = np.arange(k)[:, None, None]
        self.weights = 1 << self.planes[:, 0]
        self.unit = np.zeros((64, k, 1), dtype=np.uint64)
        self.unit[:, 0] = _BITS            # bit p on plane 0 of slot p
        self.eqs = np.zeros((c, k, N), dtype=np.uint64)
        self.basis = np.zeros((0, k, N), dtype=np.uint64)
        self.bad = np.zeros(N, dtype=bool)

    def full(self, m: int) -> bool:
        """True when m more x-positions would not fit a row."""
        return len(self.basis) + m > 64 - self.sym

    def keep(self, pairs):
        self.eqs, self.basis = self.eqs[:, :, pairs], self.basis[:, :, pairs]

    def _alpha(self, x):
        """alpha times the rows x, (k, pairs)."""
        out = np.concatenate([x[-1:], x[:-1]])
        out[1:] ^= x[-1] & self.fold
        return out

    def _times(self, x, s):
        """The rows x, (k, pairs), times the elements s, (pairs,)."""
        bit = [_U(0) - ((s >> a) & 1).astype(np.uint64)
               for a in range(self.k)]
        out = x & bit[-1]
        for a in range(self.k - 2, -1, -1):
            out = self._alpha(out) ^ (x & bit[a])
        return out

    def extend(self, F, y=None):
        """`_Basis.extend`; each new equation is reduced by the stored
        rows, then stored, in turn."""
        c, m, N = F.shape
        k = self.k
        planes = self.planes
        # bit u of each entry, on plane u; a GF(2) entry is its own bit
        F = (F[:, None] >> planes) & 1 if k > 1 else F[:, None]
        new = np.bitwise_or.reduce(
            F.astype(np.uint64) << _SHIFTS[:m, None], axis=2)
        old = self.eqs[:c]
        if self.sym:
            new |= ((y[:, None] >> planes[:, 0]) & 1).astype(np.uint64) \
                << _U(63)
            old = old & _XBITS
            bad = self.bad = np.zeros(N, dtype=bool)
        eqs = self.eqs = (old << _U(m)) | new
        basis = self.basis = np.concatenate(
            [self.basis, np.zeros((m, k, N), dtype=np.uint64)])
        bits = _BITS[:len(basis), None]
        unit = self.unit[:len(basis)]
        inc = np.zeros(N, dtype=np.intp)
        for row in eqs:
            # subtract each stored row times the row's entry at its pivot,
            # by Horner's rule over the entry's bits, top plane first
            for a in range(k - 1, -1, -1):
                part = np.bitwise_xor.reduce(
                    basis * ((row[a] & bits) != 0), axis=0)
                acc = part if a == k - 1 else self._alpha(acc) ^ part
            row = row ^ acc
            x = np.bitwise_or.reduce(row, axis=0) if k > 1 else row[0]
            if self.sym:               # only y is left: 0 = y != 0
                bad |= x == _Y
                x = x & _XBITS
            low = x & -x               # the lowest set bit
            if k > 1:                  # entry 1 at the pivot `low`
                lead = (((row & low) != 0) * self.weights).sum(axis=0)
                row = self._times(row, self.inv(lead))
            # Clear bit `low` from every stored row and store the row at
            # slot `low`, which is empty: slot p takes alpha^a times the
            # row for each bit a of its entry at `low`, slot `low` the row.
            hit = ((basis | unit) & low) != 0
            for a in range(k):
                if a:
                    row = self._alpha(row)
                basis ^= row * hit[:, a:a + 1]
            inc += x != 0
        return inc

    def solved(self, pairs):
        """`_Basis.solved`."""
        basis = self.basis[:, :, pairs]
        x = basis & _XBITS
        unit = (x[:, 0] == _BITS[:len(basis)]) & ~x[:, 1:].any(axis=1)
        values = ((basis >> _U(63)).astype(np.int64)
                  << np.arange(self.k)[:, None]).sum(axis=1)
        return values.T, unit.T


def run_block(config, start: int, stop: int) -> TrialBlock:
    """`TrialBlock.of([run_trial(config, i) for i in range(start, stop)])`,
    computed in lockstep for a config that `engine._batchable` accepts."""
    if not _batchable(config):
        raise ValueError("run_block needs an acyclic topology without "
                         "trace, kept kernels or overrides")
    st = _block_static(config.topology)
    size = stop - start
    q = config.field.q
    if config.verify_decode and q & (q - 1):
        size = max(1, _VERIFIED_PAIRS // len(st["sinks"]))
    seeds = trial_seeds(config.base_seed, start, stop)
    ack, delta, redo = (np.concatenate(part, axis=-1) for part in zip(*(
        _lockstep(config, st, start + i, seeds[i:i + size].copy())
        for i in range(0, stop - start, size))))
    return _block(config, st, start, seeds.tolist(), ack, delta, redo)


def _lockstep(config, st, start: int, state):
    """The ACK times (nodes, trials), the summed rank deficits (sinks,
    trials) and the trials to re-run with `run_trial`, of the trials from
    `start` on whose SplitMix64 states `state` holds (advanced in place)."""
    topo = config.topology
    m, q = topo.m, config.field.q
    fld = array_field(q)
    verified = config.verify_decode
    B = len(state)
    never = config.max_rounds          # run_trial's ACK time of a node that
                                       # never ACKs
    ack = np.full((topo.num_nodes, B), never, dtype=np.int64)
    heads, c, R = st["heads"], st["c_max"], st["R"]
    src_roots, src_first = st["src_roots"], st["src_first"]
    n_src = len(src_roots) * m
    conv = st["src_conv"] + st["conv"] if verified else st["conv"]
    sink_nodes = st["sink_nodes"]
    khist, fhist, xhist = [], [], []   # kept only where conv reads them
    redo = np.zeros(B, dtype=bool)     # trials out of room: run_trial
    # (sink, trial) pairs and their Toeplitz rank state: a lean pair
    # leaves at its sink's ACK, a verified one at its trial's horizon
    ws = np.repeat(np.arange(len(sink_nodes), dtype=np.intp), B)
    wt = np.tile(np.arange(B, dtype=np.intp), len(sink_nodes))
    rank = _PlaneBasis(len(ws), c, q, verified) if q == 2 or (
        verified and not q & (q - 1)) else _Basis(fld, len(ws), c, verified)
    delta = np.zeros((len(sink_nodes), B), dtype=np.int64)
    horizon = np.full(B, -1, dtype=np.int64)
    running = np.ones(B, dtype=bool)   # trials with a sink still waiting
    t = 0
    while True:
        # trials still running or, verified, in their tail
        live = running | (horizon >= t) if verified else running
        if not live.any():
            break
        if rank.full(m):               # no room for another step
            redo = live
            break
        # ------------------------------------------------------ draws
        if verified:
            xhist.append(_values(_mix64(state + st["xoffsets"]), q))
        state += st["xstep"]
        draw = running & (ack[heads] >= t)
        count = np.cumsum(draw, axis=0, dtype=np.uint64)
        k = _values(_mix64(state + count * _G), q) * draw
        if len(heads):
            state += count[-1] * _G
        # ------------------------------------------------ propagation
        f = np.zeros((R + 1 + m * verified, m + verified, B), dtype=np.int64)
        if verified:                   # the virtual inputs: e_j, then x_t
            f[R + 1:, m] = xhist[t]
            if t == 0:
                j = np.arange(m)
                f[R + 1 + j, j] = 1
        else:
            f[src_roots] = k[src_first:src_first + n_src].reshape(
                len(src_roots), m, B)
        if conv:
            khist.append(k)
            fhist.append(f)
            _propagate(fld, conv, khist, fhist)
        if verified and config.verify_headers:
            _check_headers(fld, st, fhist, xhist, live, start)
        # ------------------------------------------------- rank test
        # F_t of every pair, (c, m, N): zero past the widest sink
        c = st["in_deg"][ws].max()
        roots = st["in_roots"][ws, :c].T
        F = f[roots[:, None], st["comps"], wt]
        inc = rank.extend(F, f[roots, m, wt] if verified else None)
        done = inc == m
        if verified:
            if rank.bad.any():
                n = rank.bad.argmax()
                raise EngineError(
                    f"trial {start + wt[n]}, sink {st['sinks'][ws[n]]}: "
                    "received streams inconsistent with the kernels")
            # the rank deficits before the sink's ACK sum to its delay
            delta[ws, wt] += m - inc
            done &= ack[sink_nodes[ws], wt] == never
        ack[sink_nodes[ws[done]], wt[done]] = t
        # -------------------------------------------------- ACK pass
        waiting = ack[sink_nodes] == never
        ready = ~(st["reach"][:, :, None] & waiting).any(axis=1)
        others = st["others"]
        ack[others] = np.where(ready & (ack[others] == never), t, ack[others])
        left = waiting.any(axis=0)
        if verified:
            _set_horizons(t, running & ~left, delta, horizon)
            fin = horizon == t
            if fin.any():
                _check_decoded(st, rank, fin[wt], ws, wt, xhist, delta, t,
                               start)
        running = left & (t + 1 < config.max_rounds)
        keep = (running | (horizon > t))[wt] if verified else ~done
        ws, wt = ws[keep], wt[keep]
        rank.keep(keep)
        t += 1
    return ack, delta, redo


def _propagate(fld, conv, khist, fhist):
    """Fill in the entries of step t = len(fhist) - 1 that `conv` lists:
    each node's local kernels convolved with its input histories."""
    t = len(fhist) - 1
    for routs, pairs, roots in conv:
        kin = np.concatenate([khist[i][pairs] for i in range(t + 1)], axis=1)
        fin = np.concatenate([fhist[t - i][roots] for i in range(t + 1)])
        # sum over (delay, input) of k_i * f_{t-i}, per out-edge and trial
        fhist[t][routs] = fld.dot(kin.transpose(2, 0, 1),
                                  fin.transpose(2, 0, 1)).transpose(1, 2, 0)


def _set_horizons(t, stopped, delta, horizon):
    """Set the horizon H = T_N + max(max_r delta_r, T_N) + 1, `run_trial`'s,
    of the trials whose last sink ACKed at t (T_N = t): their pairs stay
    in the rank state through step H."""
    if stopped.any():
        horizon[stopped] = t + np.maximum(delta[:, stopped].max(axis=0),
                                          t) + 1


def _check_headers(fld, st, fhist, xhist, live, start):
    """y_{e,t} = sum_i f_{e,i} . x_{t-i} on each distinct sink input root
    of every live trial, at the step t just propagated.

    Where a sink input is a source out-edge, as on every combination
    network, f_{e,i} is the source's drawn kernel and `_propagate` made
    y_{e,t} as this same sum, so the check catches only a fault after
    propagation there; it is independent where a coding node sits between
    the source and the sink.  The decode check (`_check_decoded`) is the
    end-to-end one on every topology."""
    roots = st["checked_roots"]
    m = len(xhist[0])
    # f_{e,i} and x_{t-i} at position i*m + j
    fe = np.concatenate([h[roots, :m] for h in fhist], axis=1)
    xs = np.concatenate(xhist[::-1])
    want = fld.dot(fe.transpose(2, 0, 1), xs.T[:, :, None])[:, :, 0].T
    wrong = (want != fhist[-1][roots, m]) & live
    if wrong.any():
        i, b = np.argwhere(wrong)[0]
        e, r = st["checked"][i]
        raise EngineError(f"trial {start + b}, sink {r}: header "
                          f"inconsistency on edge e{e} at t={len(xhist) - 1}")


def _check_decoded(st, rank, sel, ws, wt, xhist, delta, H, start):
    """Every x_{s,j} with s <= H - delta of the chosen pairs, whose trials
    reach their horizon H now, is determined and equals the drawn one."""
    m = len(xhist[0])
    values, known = rank.solved(sel)
    ws, wt = ws[sel], wt[sel]
    d = delta[ws, wt]
    sent = np.concatenate(xhist)[:, wt].T       # x_{s,j} at s*m + j
    need = np.arange(values.shape[1]) < ((H - d + 1) * m)[:, None]
    wrong = need & ~(known & (values == sent))
    if wrong.any():
        n, p = np.argwhere(wrong)[0]
        raise EngineError(
            f"trial {start + wt[n]}, sink {st['sinks'][ws[n]]}: decode "
            f"failure on symbol {p % m} (delay {d[n]}, horizon {H})")


def _block(config, st, start, seeds, ack, delta, redo) -> TrialBlock:
    """The TrialBlock of the lockstep's ACK times and delays, with
    run_trial's results at the positions where `redo` is set."""
    topo = config.topology
    V = topo.num_nodes
    B = len(seeds)
    T = ack[st["sink_nodes"]]
    T_N = T.max(axis=0)
    success = (T_N < config.max_rounds).tolist()
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
        success=success,
        rounds=np.minimum(T_N + 1, config.max_rounds).tolist(),
        T_N=T_N.tolist(), avg_T=(T.sum(axis=0) / len(T)).tolist(),
        avg_code_len=(code / n_code).tolist() if n_code else [0.0] * B,
        avg_memory_bits=(bits[-1] / V).tolist(),
        T=dict(zip(st["sinks"], T.tolist())),
        delta={r: [d if ok else None for d, ok in zip(row, success)]
               for r, row in zip(st["sinks"], delta.tolist())}
        if config.verify_decode else {r: [None] * B for r in st["sinks"]},
        L=dict(zip(range(V), L.tolist())))
    for b in np.flatnonzero(redo).tolist():
        block.put(b, run_trial(config, start + b))
    return block
