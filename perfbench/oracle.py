"""Independent check of a trial's per-sink stopping times.

The engine stops sink i at the first t where the rank of the block
Toeplitz expansion M_t grows by m over M_{t-1}; it tracks that rank
incrementally.  This module recomputes every rank from scratch, by dense
Gaussian elimination with its own field arithmetic, from the coefficient
blocks the trial kept (`SimConfig.keep_kernels`).
"""

from __future__ import annotations


class _Arith:
    """F_q for prime q, or GF(2^k) given its modulus bitmask."""

    def __init__(self, q: int, modulus):
        self.q = q
        self.binary = modulus is not None and q > 2
        self.modulus = modulus

    def sub(self, a, b):
        return a ^ b if self.binary else (a - b) % self.q

    def mul(self, a, b):
        if not self.binary:
            return a * b % self.q
        out = 0
        while b:
            if b & 1:
                out ^= a
            b >>= 1
            a <<= 1
            if a >> (self.q.bit_length() - 1):
                a ^= self.modulus
        return out

    def inv(self, a):
        return next(x for x in range(1, self.q) if self.mul(a, x) == 1)


def _rank(rows, ar: _Arith) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pinv = ar.inv(rows[rank][col])
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = ar.mul(rows[r][col], pinv)
                rows[r] = [ar.sub(a, ar.mul(f, b))
                           for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _toeplitz(blocks, t: int):
    """Rows of M_t: block (i, j) = F_{j-i} for j >= i, else zero."""
    m, c = len(blocks[0]), len(blocks[0][0])
    rows = []
    for i in range(t + 1):
        for r in range(m):
            row = []
            for j in range(t + 1):
                row.extend(blocks[j - i][r] if j >= i else [0] * c)
            rows.append(row)
    return rows


def stopping_time(blocks, m: int, ar: _Arith):
    """First t with rank(M_t) - rank(M_{t-1}) == m, or None."""
    prev = 0
    for t in range(len(blocks)):
        rank = _rank(_toeplitz(blocks, t), ar)
        if rank - prev == m:
            return t
        prev = rank
    return None


def check_stopping_times(res, config):
    """Raise `Failure` unless every sink's T in `res` is the dense-rank one."""
    from workloads import Failure

    fld = config.field
    ar = _Arith(fld.q, fld.modulus)
    m = config.topology.m
    for r, blocks in res.final_F.items():
        want = stopping_time(blocks, m, ar)
        got = res.T[r] if res.T[r] < config.max_rounds else None
        if want != got:
            raise Failure(f"trial {res.trial} sink {r}: engine T={got}, "
                          f"dense rank rule gives {want}")
