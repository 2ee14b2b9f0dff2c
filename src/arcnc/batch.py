"""Trials in lockstep: a block of trials advanced together in numpy,
every result equal to `engine.run_trial`'s, for every config.

The protocol, its draw order and its rules are stated once, in
`engine`'s module docstring; this module follows them on arrays, and the
docstrings at the code say how.  `run_trial` is the reference: the
differential tests compare each block with the `engine.TrialBlock` of
its results.

Draws.  Each trial keeps its SplitMix64 state in a uint64 vector.  A
draw is `mix64(state)` after the state advances by the SplitMix64 gamma,
and its value the draw mod q, as `SplitMix64.randint(q)` returns it.
Only the running trials' states and draw masks are gathered, and a lean
block advances a state past the x_t draws it never reads, so every
trial consumes exactly `run_trial`'s draws, in its order.  The draws a
config scripts (its overrides and a cycle's zeros at t = 0) come from
`engine._script`, as `run_trial`'s do; a step's are an array of draw
indices and one of values, masked out of the draws.  A lean block's
source headers are the source's draws, gathered through `src_conv`'s
draw indices.

Arithmetic.  `array_field(q)` does F_q on integer arrays, in the
narrowest integer type that holds its products and short sums
(`_ArrayField` gives each bound).

Layout.  A step's header array is (roots, components, trials), one row
per distinct edge history (`_block_static`), with y at component m in a
verified block.  Where a step reads earlier steps (a convolution past
the source, or a verified block's checks), the draws and header arrays
of every step are stacked in `_Steps`, so that a read is one slice or
gather.  The ACK state is one bool array of the nodes that have not
ACKed; the lockstep keeps only the sinks' ACK times and delays, and
`_block` derives the other nodes' ACK times from them.

Rank states.  The stopping rule is `polyalg.ToeplitzExpansion` on every
waiting (sink, trial) pair at once.  `_Basis`, the array form of
`polyalg._RowBasis`, is dense and reduced-echelon; `_PlaneBasis` is the
same basis bit-packed, in GF(2) and in verified GF(2^k) blocks.  Every
rank state puts the pairs last, so each array operation runs along the
long pair axis.

Flat offsets.  Once a slice, `_lockstep` computes each pair's flat
offsets into the sinks' ACK times and delays and into a step's header
array, in one index array that one `take` a step compacts with the
pairs; it reads a pair's entries with `take` and writes them with a flat
store, and the rank states read a pair's entry at its pivot the same
way.  On numpy 2.4 a multi-array fancy index costs 2.5-4x a `take` of
flat offsets, and a boolean mask several times a `take` of its
`flatnonzero`; `_Basis` stores a row in its slot by a one-hot add, a
third of the time of a put (3 rows of 9 positions, 10,000 pairs).  A
flat write goes through `reshape(-1)`, which is a view only of a
C-contiguous array, so only such arrays are written that way: `take`
returns one, but a fancy index such as a[:, idx] need not, and a write
through its reshape would land in a copy.

Room.  A block runs to `max_rounds`, as `run_trial` does, unless its
rank state runs out of room first: when, at a step t >= 1, it has no
room for m more positions, the trials still running or in their tail
re-run from their first draw, each as a slice of its own, written in at
their own positions.  A one-trial slice keeps the dense basis and never
checks room, so it holds about sinks x P^2 entries at P x-positions, as
`run_trial` does.  Step 0 always runs, so the RLNC pass, cut at one
round, re-runs none.  Rows are bit-packed only if step 0's m positions
fit one: 64 in a lean block, 63 beside y in a verified one, and step t
needs (t+1)*m, whatever the in-degrees.  So a lean GF(2) trial runs
bit-packed for 64 // m steps, and a verified trial whose horizon H has
(H+1)*m > 63 is still in its tail at the first step without room, and
re-runs there.  One rule, `_slice_trials`, sizes every slice, and a
campaign block is one slice; the constants it reads give each cap's
reason.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from math import log2
from operator import itemgetter

import numpy as np

from .engine import (EngineError, OverrideError, TrialBlock, _edge_name,
                     _script, _topo_static)
from .gf import DEFAULT_MODULI, field_new
from .rng import _GAMMA, _MASK, mix64

__all__ = ["array_field", "run_block", "trial_seeds"]

# numpy 1.x promotes uint64 mixed with a signed int to float64, so every
# operand below is a np.uint64.
_U = np.uint64
_G = _U(_GAMMA)


def _mix64(z):
    """rng.mix64 on the uint64 array z, in place; returns z."""
    z ^= z >> _U(30)
    z *= _U(0xBF58476D1CE4E5B9)
    z ^= z >> _U(27)
    z *= _U(0x94D049BB133111EB)
    z ^= z >> _U(31)
    return z


def _values(raw, q: int):
    """`SplitMix64.randint(q)`'s value of each raw draw, raw mod q, as
    uint64: raw - raw // q * q, a third of the time of `%`, or a mask."""
    if q & (q - 1):
        q = _U(q)
        return raw - raw // q * q
    return raw & _U(q - 1)


def trial_seeds(base_seed: int, start: int, stop: int):
    """rng.trial_seed(base_seed, i) for i in range(start, stop), as uint64."""
    index = np.arange(start + 1, stop + 1, dtype=np.uint64)
    return _mix64(_U(mix64(base_seed)) ^ _mix64(index * _G))


def _narrowest(bound: int) -> np.dtype:
    """The narrowest signed integer type that holds -bound .. bound."""
    return next(np.dtype(t) for t in (np.int8, np.int16, np.int32)
                if bound <= np.iinfo(t).max)


class _ArrayField:
    """F_q on integer arrays of elements in [0, q), with numpy
    broadcasting: `mul`, `inv`, `dot` (the matrix product over the
    last two axes), and the fused `submul(c, a, b)` = c - a*b and
    `subsum(c, a, b)` = c - sum_s a[s]*b[s], summed over the first axis.

    `dtype` is the narrowest integer type the headers and the rank state
    can reduce in: int8 in GF(2), whose product is `&`, and int32 in
    GF(2^k); for primes q < 2^10 the narrowest signed type that holds
    (q-1)^2, the largest product, so c - a*b lies in it too, as does
    -q(q-1), the most negative multiple of q that `mod` subtracts (int8
    up to q = 11, int16 up to 181, int32 up to 1021); int64 for larger
    primes.  `subsum` sums S products in `dtype` while S (q-1)^2 + q fits
    it, so that c - sum and its mod do too (31 terms at q = 3, 7 at
    q = 5, 3 at q = 7), sums of at most 2^10 products in a type that
    holds 2^10 (q-1)^2 (int16 up to q = 5, int32 up to 1021), longer
    ones in int64, and returns `dtype`; `dot` sums in int64, whatever its
    operands' types.  The tables are of `dtype`; the operations take any
    integer type.
    """

    def __init__(self, q: int):
        if q & (q - 1) and q < 1 << 10:
            dtype = _narrowest((q - 1) ** 2)
            acc = _narrowest((q - 1) ** 2 << 10)
        else:
            dtype = acc = np.dtype(np.int64 if q & (q - 1) else
                                   np.int8 if q == 2 else np.int32)
        self.dtype = dtype
        if q & (q - 1):                # prime

            def mod(a):                # a % q; int64 remainder is slower
                return a - a // q * q

            # the most terms a sum in `dtype` takes, of the 2^10 at most
            self.narrow = min((int(np.iinfo(dtype).max) - q) // (q - 1) ** 2,
                              1 << 10)

            def subsum(c, a, b):
                ab = a * b
                n = len(ab)
                # add.reduce would accumulate a narrow type in int64
                s = np.add.reduce(ab, axis=0, dtype=dtype if n <= self.narrow
                                  else acc if n <= 1 << 10 else np.int64)
                return mod(c - s).astype(dtype, copy=False)

            self.mul = lambda a, b: mod(a * b)
            self.dot = lambda a, b: mod(np.matmul(a, b, dtype=np.int64))
            self.submul = lambda c, a, b: mod(c - a * b)
            self.subsum = subsum
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
        self.inv = inv.take


@lru_cache(maxsize=8)
def array_field(q: int) -> _ArrayField:
    """The array arithmetic of F_q (q prime or a power of two <= 2^16)."""
    return _ArrayField(q)


@lru_cache(maxsize=32)
def _block_static(topo):
    """Index arrays of a topology for the lockstep.

    Edges that share a history (a relay's out-edges and their root) share
    one root index; row R of a header array stays zero, is the root of a
    cycle of relays alone, and pads each sink's input roots, in input
    order, to c_max.
    """
    (acyclic, inputs, (draws, index), relay_edges, propagate, _, neighbors,
     downstream, coding_out) = _topo_static(topo)
    m = topo.m
    root = {eout: i for i, (_, eout) in enumerate(propagate)}
    R = len(propagate)
    for eout, r in relay_edges:
        root[eout] = root.get(r, R)
    src_out = topo.out_edges(topo.source)

    def convolution(outs, ins, in_roots):
        """(out-edge roots, draw index of each (out-edge, input) pair,
        input roots) of one node."""
        return (np.array([root[e] for e in outs], dtype=np.intp),
                np.array([[index[ein, e] for ein in ins] for e in outs],
                         dtype=np.intp).reshape(len(outs), len(ins)),
                np.array(in_roots, dtype=np.intp))

    conv = [convolution([e for _, e in outs], inputs[v],
                        [root[ein] for ein in inputs[v]])
            for v, outs in groupby(propagate, key=itemgetter(0))
            if v != topo.source and inputs[v]]
    # In a verified block rows R+1 .. R+m of the header array are the
    # virtual inputs, which carry x_t, and the source's out-edges convolve
    # them like any other node's inputs; in a lean block their headers are
    # the source's draws themselves.
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
    # `heads` gives each draw's head node as its row in the lockstep's node
    # array, where the other nodes' rows come first, then the sinks'
    row = dict(zip(others + sinks, range(topo.num_nodes)))
    heads = [row[head] for *_, head in draws]
    # 1 where the sink is downstream of the node, in float64, so that one
    # matrix product counts a step's waiting sinks downstream of each node
    reach = np.array([[r in downstream[v] for r in sinks] for v in others],
                     dtype=np.float64).reshape(len(others), len(sinks))
    # L of a node is 1 + the latest ACK among it and its neighbours.
    width = 1 + max(len(neighbors[v]) for v in range(topo.num_nodes))
    near = np.array([[v] + sorted(neighbors[v]) + [v] * (width - 1 - len(
        neighbors[v])) for v in range(topo.num_nodes)], dtype=np.intp)
    return dict(
        # a step's passes past the first (cyclic, `run_trial`'s |E| + 1)
        passes=0 if acyclic else topo.num_edges,
        R=R, heads=np.array(heads, dtype=np.intp),
        conv=conv, src_conv=src_conv, c_max=c_max,
        in_roots=in_roots, checked=list(checked.values()),
        checked_roots=np.array(list(checked), dtype=np.intp),
        in_deg=np.array([len(r) for r in ins], dtype=np.intp),
        sinks=sinks,
        others=np.array(others, dtype=np.intp), reach=reach, near=near,
        code_heads=np.array([topo.head(e) for e in coding_out],
                            dtype=np.intp),
        # the m source-symbol draws of a step, as state offsets
        xoffsets=(np.arange(1, m + 1, dtype=np.uint64) * _G)[:, None],
        xstep=_U(m * _GAMMA & _MASK),
    )


# Most entries a dense basis of several trials holds from step 1 on, 1 MiB
# in int8 (2 MiB in int16, 4 MiB in int32 and 8 MiB in int64), a step's
# products at most c_max times as many, and most a slice's step 0 holds
# in its per-trial arrays unless one trial needs more.  Only sinks that
# keep failing to decode bring a basis near it; their trials then re-run
# one to a slice, which has no such cap.
_BASIS_ENTRIES = 1 << 20

# Most (sink, trial) pairs a verified slice keeps in a dense basis at once:
# its pairs stay until the horizon.
_VERIFIED_PAIRS = 320

# Most trials a verified lockstep slice holds, and fewest a lean one may
# hold.
BLOCK_TRIALS = 128

# Sink equation entries (sinks x c_max x m a trial) a lean slice holds, if
# more than BLOCK_TRIALS trials: a step pays a fixed numpy cost, and its
# work grows with these entries.  2^17 makes 728 trials on comb(6,3) and 128
# on comb(10,3) or wider; against 128-trial blocks, lean campaigns took
# 1.1-2.0x less process time on the narrow shapes and 0.99-1.2x on the wide
# ones (a 2-core shared host, outputs equal).
BLOCK_ENTRIES = 1 << 17


@lru_cache(maxsize=128)
def _weights(P: int):
    """The weights P - p of positions p < P, a column in the narrowest type
    that holds P."""
    return np.arange(P, 0, -1, dtype=_narrowest(P))[:, None]


def _first_true(nz):
    """The lowest True position in each column of the bool array nz,
    (P, pairs), or P where a column has none: P minus the largest of the
    weights P - p of its True entries, several times faster than argmax
    along a short first axis."""
    P = len(nz)
    return P - (nz * _weights(P)).max(axis=0).astype(np.intp)


class _Basis:
    """`ToeplitzExpansion` of every (sink, trial) pair in the lockstep over
    F_q, in the field's `dtype`.

    `eqs` holds each input's newest equation, shape (c, positions, pairs),
    and `basis` the reduced-echelon basis, shape (slots, positions,
    pairs): slot p holds the row whose pivot is position p, with 1 there
    and position p zero in every other row, or zero.  With `symbols`,
    each row has one more position, last, for the received symbol y,
    which no pivot takes.
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
        """Keep the pairs at the indices `pairs`, in order."""
        self.eqs = self.eqs.take(pairs, axis=2)
        self.basis = self.basis.take(pairs, axis=2)

    def extend(self, F, y=None):
        """Put F_t, (m, c, pairs), in front of the first c equations, the
        rest being zero padding, with the symbols y, (c, pairs), if kept;
        returns each pair's rank increment.  `bad` marks the pairs where
        an equation reduced to 0 = y != 0.

        The new equations are reduced by the stored rows in one product
        summed over the slots, then by each other, and their pivots are
        cleared from the stored rows in one more.  A pair's entry at its
        pivot is read at the flat offset pivot * pairs + pair.
        """
        fld = self.fld
        m, c, N = F.shape
        P0 = len(self.basis)
        P = P0 + m                     # x-positions; y follows them
        W = P + self.sym
        eqs = np.empty((c, W, N), dtype=fld.dtype)
        eqs[:, :m] = F.swapaxes(0, 1)
        eqs[:, m:] = self.eqs[:c]      # the old y, if kept, is overwritten
        if self.sym:
            eqs[:, P] = y
        self.eqs = eqs
        basis = np.zeros((P, W, N), dtype=fld.dtype)
        # stored rows are zero at the m new (highest) x-positions
        old = basis[:P0]
        old[:, :P0] = self.basis[:, :P0]
        old[:, P:] = self.basis[:, P0:]
        rows = fld.subsum(eqs, eqs[:, :P0].swapaxes(0, 1)[:, :, None],
                          old[:, None]) if P0 else eqs
        lanes = np.arange(N)
        new, offsets, slots = [], [], []
        inc = np.zeros(N, dtype=np.intp)
        bad = self.bad = np.zeros(N, dtype=bool)
        for row in rows:               # C-contiguous: reshape(-1) views
            for at, other in zip(offsets, new):
                row = fld.submul(row, row.reshape(-1).take(at), other)
            slot = _first_true(row[:P] != 0)   # the pivot, or P
            has = slot != P
            if self.sym:
                bad |= ~has & (row[P] != 0)
            if not has.any():          # zero in every pair: no rank
                continue
            # each pair's entry at its pivot is at flat offset `at`; a row
            # without a pivot, zero at every x-position, reads position
            # P - 1 and becomes zero: inv(0) = 0
            at = np.minimum(slot, P - 1) * N + lanes
            row = fld.mul(row, fld.inv(row.reshape(-1).take(at)))
            new = [fld.submul(other, other.reshape(-1).take(at), row)
                   for other in new]
            new.append(row)
            offsets.append(at)
            slots.append(slot)
            inc += has
        if new:
            if P0:
                old[:] = fld.subsum(old, old.reshape(P0, -1).take(
                    np.stack(offsets), axis=1).swapaxes(0, 1)[:, :, None],
                                    np.stack(new)[:, None])
            # row r of pair n goes to slot slots[r][n], which is zero until
            # then, by a one-hot add; a row without a pivot is zero
            positions = np.arange(P)[:, None]
            for row, slot in zip(new, slots):
                basis += (positions == slot)[:, None] * row
        self.basis = basis
        return inc

    def solved(self, pairs):
        """x at every position of the pairs at the indices `pairs`, (pairs,
        positions), and where the equations determine it: its slot holds
        the unit row."""
        basis = self.basis.take(pairs, axis=2)
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
        low = DEFAULT_MODULI[k] ^ q        # alpha^k; its bit 0 is set
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

    keep = _Basis.keep

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
        m, c, N = F.shape
        k = self.k
        planes = self.planes
        # bit u of each entry, on plane u; a GF(2) entry is its own bit
        F = (F[:, None] >> planes) & 1 if k > 1 else F[:, None]
        new = np.bitwise_or.reduce(
            F.astype(np.uint64) << _SHIFTS[:m, None, None, None],
            axis=0).swapaxes(0, 1)
        old = self.eqs[:c]
        if self.sym:
            new |= ((y[:, None] >> planes[:, 0]) & 1).astype(np.uint64) \
                << _U(63)
            old = old & _XBITS
            bad = self.bad = np.zeros(N, dtype=bool)
        eqs = self.eqs = (old << _U(m)) | new
        P0 = len(self.basis)
        basis = np.zeros((P0 + m, k, N), dtype=np.uint64)
        basis[:P0] = self.basis
        self.basis = basis
        shifts = _SHIFTS[:P0 + m, None, None]
        unit = self.unit[:P0 + m]
        inc = np.zeros(N, dtype=np.intp)
        for row in eqs:
            # subtract each stored row times the row's entry at its pivot,
            # by Horner's rule over the entry's bits, top plane first
            for a in range(k - 1, -1, -1):
                part = np.bitwise_xor.reduce(
                    basis * ((row[a] >> shifts) & _U(1)), axis=0)
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
        basis = self.basis.take(pairs, axis=2)
        x = basis & _XBITS
        unit = (x[:, 0] == _BITS[:len(basis)]) & ~x[:, 1:].any(axis=1)
        values = ((basis >> _U(63)).astype(np.int64)
                  << np.arange(self.k)[:, None]).sum(axis=1)
        return values.T, unit.T


def run_block(config, start: int, stop: int) -> TrialBlock:
    """`TrialBlock.of([run_trial(config, i) for i in range(start, stop)])`,
    computed in lockstep, for every config: a block keeps no trace lines
    or kernel blocks."""
    st = _block_static(config.topology)
    T, delta = (np.concatenate(part, axis=-1) for part in zip(
        *_lockstep_slices(config, st, start, stop)))
    seeds = trial_seeds(config.base_seed, start, stop).tolist()
    return _block(config, st, start, seeds, T, delta)


def _bit_packed(config) -> bool:
    """True when the lockstep's rank state is a `_PlaneBasis` (Room)."""
    q, v = config.field.q, config.verify_decode
    return (q == 2 or v and not q & (q - 1)) and config.topology.m <= 64 - v


def _slice_trials(config, st) -> int:
    """Most trials a lockstep slice of `config` holds (Room, above); `st`
    is `_block_static(config.topology)`."""
    topo = config.topology
    m, q = topo.m, config.field.q
    v = int(config.verify_decode)
    sinks = len(st["sinks"])
    eqs = sinks * st["c_max"] * m          # a trial's sink equation entries
    # step 0's per-trial arrays: ACK times, draws, headers and F_0
    size = _BASIS_ENTRIES // (topo.num_nodes + len(st["heads"])
                              + (st["R"] + 1 + m * v) * (m + v) + eqs)
    if v:
        size = min(size, BLOCK_TRIALS)
        if q & (q - 1):                # (sink, trial) pairs, in a prime field
            size = min(size, _VERIFIED_PAIRS // sinks)
    else:
        size = min(size, max(BLOCK_TRIALS, BLOCK_ENTRIES // eqs))
        if not _bit_packed(config):    # step 1's 2m positions fit, even
                                       # if no pair ACKed at step 0
            size = min(size, _BASIS_ENTRIES // (4 * m * m * sinks))
    return max(1, size)


def _lockstep_slices(config, st, start: int, stop: int, back: int = 0):
    """`_lockstep` of the trials start..stop-1 of `config`, their states
    moved `back` draws back, in slices of `_slice_trials`, in order."""
    size = _slice_trials(config, st)
    back = _U(back * _GAMMA & _MASK)
    for i in range(start, stop, size):
        yield _lockstep(config, st, i, trial_seeds(
            config.base_seed, i, min(i + size, stop)) - back)


class _Steps:
    """Arrays of one shape, one per step, stacked along a first (step)
    axis whose length doubles when it is full: `a[:t + 1]` holds steps
    0..t."""

    def __init__(self, shape, dtype):
        self.a = np.zeros((4, *shape), dtype=dtype)

    def at(self, t: int):
        """Step t's array, zero until written, a C-contiguous view; t is
        at most one past the last step asked for."""
        if t == len(self.a):
            a = np.zeros((2 * t, *self.a.shape[1:]), dtype=self.a.dtype)
            a[:t] = self.a
            self.a = a
        return self.a[t]


def _lockstep(config, st, start: int, state):
    """The sinks' ACK times and summed rank deficits, both (sinks, trials),
    of the trials from `start` on, whose SplitMix64 states are `state`
    (which it advances); the trials out of room re-run as one-trial
    slices, written in at their own positions (Room)."""
    topo = config.topology
    m, q = topo.m, config.field.q
    fld = array_field(q)
    verified = config.verify_decode
    v = int(verified)
    B = len(state)
    seeds = state.copy()               # to re-run the trials out of room
    never = config.max_rounds          # run_trial's ACK time of a node that
                                       # never ACKs
    heads, c, R = st["heads"], st["c_max"], st["R"]
    conv = st["src_conv"] + st["conv"] if verified else st["conv"]
    S = len(st["sinks"])
    T = np.full((S, B), never, dtype=np.int64)     # the sinks' ACK times
    # True where a node has not ACKed, in rows of the other nodes, then of
    # the sinks (`waiting`)
    busy = np.ones((topo.num_nodes, B), dtype=bool)
    busy_o, waiting = busy[:-S], busy[-S:]
    shape = (R + 1 + m * v, m + v, B)  # a step's header array
    # the histories conv reads, and a verified block's checks
    hist = bool(conv) or verified
    if hist:
        khist = _Steps((len(heads), B), np.int64)
        fhist = _Steps(shape, fld.dtype)
    redo = np.zeros(B, dtype=bool)     # trials out of room: re-run
    # (sink, trial) pairs and their Toeplitz rank state: a lean pair
    # leaves at its sink's ACK, a verified one at its trial's horizon.
    # `pairs` holds each pair's flat offsets, compacted with the pairs by
    # one take: row 0 sink * B + trial, into T and delta, through
    # reshape(-1) views of those C-contiguous arrays, whose trial is
    # row 0 mod B; row 1 the sink's in-degree; from row 2 on each input's
    # column of a step's header array, root * B + trial, in its copy with
    # the component axis first.
    ws = np.repeat(np.arange(S, dtype=np.intp), B)
    wt = np.tile(np.arange(B, dtype=np.intp), S)
    pairs = np.concatenate([[ws * B + wt, st["in_deg"].take(ws)],
                            st["in_roots"].take(ws, axis=0).T * B + wt])
    rank = _PlaneBasis(len(ws), c, q, verified) if B > 1 and _bit_packed(
        config) else _Basis(fld, len(ws), c, verified)
    delta = np.zeros((S, B), dtype=np.int64)
    Ts, deltas = T.reshape(-1), delta.reshape(-1)
    horizon = np.full(B, -1, dtype=np.int64)
    running = np.ones(B, dtype=bool)   # trials with a sink still waiting
    live = running                     # and, verified, trials in their tail
    # `engine._script`'s draws, t -> (draw indices, values)
    script, last = _script(config)
    script = {s: (np.array(list(sc), dtype=np.intp),
                  np.array(list(sc.values()), dtype=np.uint64)[:, None])
              for s, sc in script.items()}
    t = 0
    while True:
        if t and B > 1 and rank.full(m):   # no room for another step
            redo = live
            break
        po = pairs[0]
        # ------------------------------------------------------ draws
        f = fhist.at(t) if hist else np.zeros(shape, dtype=fld.dtype)
        if verified:                   # x_t, on the virtual inputs
            f[R + 1:, m] = _values(_mix64(state + st["xoffsets"]), q)
        state += st["xstep"]
        # only running trials draw coefficients, for the pairs whose head
        # node has not ACKed
        run = running.nonzero()[0]
        draw = busy.take(heads, axis=0).take(run, axis=1)
        if t in script:                # a scripted pair takes no draw
            at, val = script[t]
            would = draw[at]
            draw[at] = False
        if t <= last and draw.any():
            ein, eout, _ = _topo_static(topo)[2][0][draw.any(axis=1).argmax()]
            raise OverrideError(f"override script missing k({_edge_name(ein)}"
                                f"->{_edge_name(eout)}, t={t})")
        # each pair's state at its draw, the draws counted so far
        pos = np.add.accumulate(draw, axis=0, dtype=np.uint64)
        pos *= _G
        pos += state.take(run)
        if len(heads):
            state[run] = pos[-1]
        k = np.zeros((len(heads), B), dtype=np.uint64)
        k[:, run] = _values(_mix64(pos), q) * draw
        if t in script:                # stored where the pair would draw
            k[at[:, None], run] = val * would
        # ------------------------------------------------ propagation
        if verified:
            if t == 0:                 # the virtual inputs carry e_j
                j = np.arange(m)
                f[R + 1 + j, j] = 1
        else:
            for routs, at_src, _ in st["src_conv"]:
                f[routs] = k.take(at_src, axis=0)
        if hist:
            khist.at(t)[:] = k
            _settle(fld, conv, khist.a, fhist.a, t, st["passes"], live, start)
        if verified and config.verify_headers:
            _check_headers(fld, st, fhist.a, t, live, start)
        # ------------------------------------------------- rank test
        # F_t of every pair, (m, c, N), zero past the widest sink, and y
        Fy = f.transpose(1, 0, 2).reshape(m + v, -1).take(
            pairs[2:2 + pairs[1].max()], axis=1)
        inc = rank.extend(Fy[:m], Fy[m] if verified else None)
        # delta (`engine`); a verified pair adds 0 after its ACK, as inc
        # stays m
        deltas[po] += m - inc
        done = inc == m
        if verified:
            wt = po % B
            if rank.bad.any():
                n = rank.bad.argmax()
                raise EngineError(
                    f"trial {start + wt[n]}, sink {st['sinks'][po[n] // B]}"
                    ": received streams inconsistent with the kernels")
            done &= Ts.take(po) == never
        Ts[po.take(done.nonzero()[0])] = t
        np.equal(T, never, out=waiting)
        # -------------------------------------------------- ACK pass
        # `engine`'s ACK rule: the float64 product counts each node's
        # waiting sinks downstream exactly
        np.greater(st["reach"] @ waiting, 0, out=busy_o)
        left = waiting.any(axis=0)
        if verified:
            _set_horizons(t, running & ~left, delta, horizon)
            fin = horizon == t
            if fin.any():
                sel = fin.take(wt).nonzero()[0]
                at = po.take(sel)
                _check_decoded(st, rank, sel, at // B, at % B,
                               deltas.take(at), fhist.a[:t + 1, R + 1:, m],
                               start)
        running = left & (t + 1 < config.max_rounds)
        live = running | (horizon > t) if verified else running
        if not live.any():
            break
        keep = (live.take(wt) if verified else ~done).nonzero()[0]
        pairs = pairs.take(keep, axis=1)
        rank.keep(keep)
        t += 1
    for b in np.flatnonzero(redo).tolist():
        T[:, b:b + 1], delta[:, b:b + 1] = _lockstep(config, st, start + b,
                                                     seeds[b:b + 1])
    return T, delta


def _propagate(fld, conv, khist, fhist, t):
    """Fill in the entries of step t that `conv` lists: each node's local
    kernels convolved with its input histories.  `khist` and `fhist` hold
    the draws and the header arrays of steps 0..t (and zeros after), one
    per step along their first axis."""
    B = fhist.shape[-1]
    for routs, pairs, roots in conv:
        # k_i and f_{t-i} at (delay i, input), for each trial
        kin = khist[:t + 1, pairs].transpose(3, 1, 0, 2).reshape(
            B, len(routs), -1)
        fin = fhist[t::-1, roots].transpose(3, 0, 1, 2).reshape(
            B, kin.shape[2], -1)
        # sum over (delay, input) of k_i * f_{t-i}, per out-edge and trial
        fhist[t, routs] = fld.dot(kin, fin).transpose(1, 2, 0)


def _settle(fld, conv, khist, fhist, t, passes, live, start):
    """`_propagate` at step t, repeated on a cycle (`passes` = |E|) as
    `engine` does until no `live` trial's entries change; else
    `EngineError` names the first live trial, of those from `start` on,
    whose entries still change."""
    _propagate(fld, conv, khist, fhist, t)
    f = fhist[t]
    for _ in range(passes):
        was = f.copy()
        _propagate(fld, conv, khist, fhist, t)
        moved = (f != was).any(axis=(0, 1)) & live
        if not moved.any():
            return
    if passes:
        raise EngineError(f"trial {start + moved.argmax()}: cyclic fixed "
                          f"point did not converge at t={t} (time-0 kernel "
                          "matrix is not nilpotent)")


def _set_horizons(t, stopped, delta, horizon):
    """Set the horizon H (`engine`) of the trials whose last sink ACKed at
    t (T_N = t): their pairs stay in the rank state through step H."""
    if stopped.any():
        b = np.flatnonzero(stopped)
        horizon[b] = t + np.maximum(delta.take(b, axis=1).max(axis=0), t) + 1


def _check_headers(fld, st, fhist, t, live, start):
    """y_{e,t} = sum_i f_{e,i} . x_{t-i} on each distinct sink input root
    of every live trial, at the step t just propagated; `fhist` holds the
    header arrays of steps 0..t, one per step along its first axis, and
    the drawn x in their virtual-input rows.

    Where a sink input is a source out-edge, as on every combination
    network, f_{e,i} is the source's drawn kernel and `_propagate` made
    y_{e,t} as this same sum, so the check catches only a fault after
    propagation there; it is independent where a coding node sits between
    the source and the sink.  The decode check (`_check_decoded`) is the
    end-to-end one on every topology."""
    roots = st["checked_roots"]
    B = fhist.shape[-1]
    # f_{e,i} and x_{t-i} at position i*m + j; y is the last component
    fe = fhist[:t + 1, roots, :-1].transpose(3, 1, 0, 2).reshape(
        B, len(roots), -1)
    xs = fhist[t::-1, st["R"] + 1:, -1].reshape(-1, B)
    want = fld.dot(fe, xs.T[:, :, None])[:, :, 0].T
    wrong = (want != fhist[t, roots, -1]) & live
    if wrong.any():
        i, b = np.argwhere(wrong)[0]
        e, r = st["checked"][i]
        raise EngineError(f"trial {start + b}, sink {r}: header "
                          f"inconsistency on edge e{e} at t={t}")


def _check_decoded(st, rank, sel, ws, wt, d, xs, start):
    """Every x_{s,j} with s <= H - d of the pairs at the indices `sel`,
    whose trials reach their horizon H now, is determined and equals the
    drawn one; ws, wt and d are those pairs' sinks, trials and delays, and
    xs holds the drawn x of steps 0..H, one per step along its first
    axis."""
    steps, m, B = xs.shape
    H = steps - 1
    values, known = rank.solved(sel)
    sent = xs.reshape(-1, B).take(wt, axis=1).T  # x_{s,j} at s*m + j
    need = np.arange(values.shape[1]) < ((H - d + 1) * m)[:, None]
    wrong = need & ~(known & (values == sent))
    if wrong.any():
        n, p = np.argwhere(wrong)[0]
        raise EngineError(
            f"trial {start + wt[n]}, sink {st['sinks'][ws[n]]}: decode "
            f"failure on symbol {p % m} (delay {d[n]}, horizon {H})")


def _block(config, st, start, seeds, T, delta) -> TrialBlock:
    """The TrialBlock of the sinks' ACK times and delays, one `.tolist()`
    per column, with its counts as bincounts and array sums: no
    per-trial object or per-node L row is made."""
    topo = config.topology
    V = topo.num_nodes
    B = len(seeds)
    ack = np.empty((V, B), dtype=np.int64)
    ack[st["sinks"]] = T
    # `engine`'s ACK rule, at t = 0 where a node's row of `reach` is zero
    # (T >= 0); the float64 products of small integers are exact
    ack[st["others"]] = (st["reach"][:, :, None] * T).max(axis=1)
    T_N = T.max(axis=0)
    ok = T_N < config.max_rounds
    delta = delta.tolist()
    for b in np.flatnonzero(~ok).tolist():     # a failed trial has no delay
        for row in delta:
            row[b] = None
    L = ack[st["near"]].max(axis=1) + 1
    n_code = len(st["code_heads"])
    code = ack[st["code_heads"]].sum(axis=0) + n_code
    # The integer sums are small, so float64 division rounds them as
    # run_trial's Python division does.  Memory bits are m * L_v * log2 q
    # added up in node order, as run_trial adds them: log2 q is inexact
    # unless q is a power of two.
    bits = np.add.accumulate(topo.m * L * log2(config.field.q), axis=0)
    # each sink's T histogram, one bincount over the sinks' rows
    w = int(T_N.max()) + 1
    hist = np.bincount((T + np.arange(0, len(T) * w, w)[:, None]).ravel(),
                       minlength=len(T) * w).reshape(len(T), w).tolist()
    return TrialBlock(
        trial=list(range(start, start + B)), seed=seeds,
        success=ok.tolist(),
        rounds=np.minimum(T_N + 1, config.max_rounds).tolist(),
        T_N=T_N.tolist(), avg_T=(T.sum(axis=0) / len(T)).tolist(),
        avg_code_len=(code / n_code).tolist() if n_code else [0.0] * B,
        avg_memory_bits=(bits[-1] / V).tolist(),
        T=dict(zip(st["sinks"], T.tolist())),
        delta=dict(zip(st["sinks"], delta)),
        hist_T_N=_nonzero(np.bincount(T_N).tolist()),
        per_sink_T_hist=dict(zip(st["sinks"], map(_nonzero, hist))),
        sum_T2=int((T * T).sum()),
        sum_L=dict(zip(range(V), L.sum(axis=1).tolist())))


def _nonzero(counts) -> dict:
    """{value: count} of the non-zero entries of a bincount list."""
    return {i: k for i, k in enumerate(counts) if k}
