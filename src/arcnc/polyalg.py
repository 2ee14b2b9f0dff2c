"""Polynomials and polynomial matrices over F_q.

Implements the delay-domain algebra used by the protocol: truncated
convolution, rank over F_q, the block-Toeplitz expansion and the
Toeplitz-system decoder.

One row echelon basis (_RowBasis) on one layout, the Toeplitz system's
equations (ToeplitzExpansion), does the engine's elimination.  rank_fq,
a separate plain elimination, is the independent reference that the
tests check the expansion against and the RLNC baseline's rank.

ToeplitzExpansion is the one rank, valuation and decode primitive.  Its
rank increment at level L is #{i : d_i <= L}, where z^d_1 .. z^d_m are
the invariant factors of the kernel matrix over F_q[[z]] (Massey & Sain
1968; Forney 1970).  The engine's stopping rule reads it at the current
level: an increment of m at level L means x_0 is determined by the
received window through L, and the rank deficits summed up to that level
are d_1 + ... + d_m, the sink's decoding delay.  The engine decodes
from that same expansion, extended with the received symbols through the
horizon; toeplitz_solve is the tests' one call for both.  det_valuation,
PolyMatrix.det, select_columns and sequential_decode are test oracles.
"""

from __future__ import annotations

import itertools

from .gf import Field


class SingularMatrixError(ValueError):
    """Polynomial matrix has no full-rank m x m submatrix."""


class DecodeHorizonError(ValueError):
    """Not enough received symbols to decode anything yet."""


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class Poly:
    """Polynomial in the delay variable z, coefficients in a Field.

    coeffs[i] is the coefficient of z^i; trailing zeros are allowed and
    ignored by comparisons.  The zero polynomial has degree -1.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs=()):
        self.field = field
        self.coeffs = list(coeffs)

    @classmethod
    def zero(cls, field):
        return cls(field, [])

    @classmethod
    def one(cls, field):
        return cls(field, [1])

    def trim(self) -> "Poly":
        c = list(self.coeffs)
        while c and c[-1] == 0:
            c.pop()
        return Poly(self.field, c)

    @property
    def degree(self) -> int:
        for i in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[i]:
                return i
        return -1

    def is_zero(self) -> bool:
        return self.degree == -1

    def valuation(self) -> int:
        """Multiplicity of z dividing self; undefined (raises) for zero."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        raise ValueError("valuation of the zero polynomial")

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field == other.field and self.trim().coeffs == other.trim().coeffs

    def __hash__(self):
        return hash((self.field, tuple(self.trim().coeffs)))

    def __add__(self, other: "Poly") -> "Poly":
        f = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(f, [f.add(self[i], other[i]) for i in range(n)])

    def __sub__(self, other: "Poly") -> "Poly":
        f = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(f, [f.sub(self[i], other[i]) for i in range(n)])

    def __mul__(self, other: "Poly") -> "Poly":
        f = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(f)
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = f.add(out[i + j], f.mul(ai, bj))
        return Poly(f, out)

    def scale(self, s: int) -> "Poly":
        f = self.field
        return Poly(f, [f.mul(s, c) for c in self.coeffs])

    def __repr__(self):
        return f"Poly({self.trim().coeffs})"


def poly_mul_trunc(a: Poly, b: Poly, t: int) -> Poly:
    """Product of a and b, keeping coefficients of z^0 .. z^t only."""
    f = a.field
    out = [0] * (t + 1)
    for i, ai in enumerate(a.coeffs):
        if ai and i <= t:
            for j, bj in enumerate(b.coeffs):
                if j > t - i:
                    break
                if bj:
                    out[i + j] = f.add(out[i + j], f.mul(ai, bj))
    return Poly(f, out)


def power_series_inv(u, field: Field, nterms: int) -> list:
    """First nterms coefficients of 1/u(z); requires u[0] != 0."""
    u0 = u[0] if len(u) > 0 else 0
    if u0 == 0:
        raise ZeroDivisionError("power series with zero constant term")
    inv0 = field.inv(u0)
    out = [inv0]
    for n in range(1, nterms):
        acc = 0
        for k in range(1, min(n, len(u) - 1) + 1):
            acc = field.add(acc, field.mul(u[k], out[n - k]))
        out.append(field.neg(field.mul(inv0, acc)))
    return out


# ---------------------------------------------------------------------------
# scalar matrices over F_q
# ---------------------------------------------------------------------------

def rank_fq(rows, field: Field) -> int:
    """Row rank of a matrix (list of rows of ints) by Gaussian elimination."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pinv = field.inv(rows[rank][col])
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                fct = field.mul(rows[r][col], pinv)
                rows[r] = [field.sub(a, field.mul(fct, b))
                           for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


# ---------------------------------------------------------------------------
# the row echelon basis and the block Toeplitz expansion M_t
# ---------------------------------------------------------------------------

class _RowBasis:
    """Row echelon basis over F_q, the elimination behind every rank,
    valuation and decode in this module.

    A row is a list of field elements; its lead is its last non-zero
    position.  A stored row has lead value 1 and keeps the list of its
    other non-zero positions, so a reduction step needs no inverse.
    """

    __slots__ = ("field", "rows")

    def __init__(self, field: Field):
        self.field = field
        self.rows = {}             # lead -> (row, its other non-zero positions)

    def insert(self, row: list) -> int:
        """Reduce `row` (taken over, not copied); the lead it is stored at,
        or -1 if it reduced to zero."""
        f = self.field
        sub, mul = f.sub, f.mul
        rows = self.rows
        for lead in range(len(row) - 1, -1, -1):
            v = row[lead]
            if not v:
                continue
            b = rows.get(lead)
            if b is None:
                nz = [p for p in range(lead) if row[p]]
                if v != 1:
                    s = f.inv(v)
                    for p in nz:
                        row[p] = mul(s, row[p])
                    row[lead] = 1
                rows[lead] = (row, nz)
                return lead
            brow, bnz = b
            row[lead] = 0
            for p in bnz:
                row[p] = sub(row[p], mul(v, brow[p]))
        return -1

    def reduce(self, last=None):
        """Clear every lead position from the other rows (reduced form), or
        only from the rows with leads up to `last`: they read no row with
        a higher lead."""
        f = self.field
        sub, mul = f.sub, f.mul
        rows = self.rows
        leads = sorted(lead for lead in rows if last is None or lead <= last)
        # Rows with lower leads are already reduced, so clearing one lead
        # puts no entry at another.
        for i, lead in enumerate(leads):
            row, nz = rows[lead]
            hit = [b for b in leads[:i] if row[b]]
            for b in hit:
                brow, bnz = rows[b]
                v = row[b]
                row[b] = 0
                for p in bnz:
                    row[p] = sub(row[p], mul(v, brow[p]))
            if hit:
                rows[lead] = (row, [p for p in range(lead) if row[p]])


class ToeplitzExpansion:
    """Incremental rank state of the expansions M_0, M_1, ..., M_t.

    M_t has (t+1)*m rows and (t+1)*c columns; block (i, j) = F_{j-i} for
    j >= i and zero otherwise.  Its column (t, col) is the equation
    y_{col,t} = sum_{s,j} x_{s,j} F_{t-s}[j][col], kept as a row with y at
    position 0 and x_{s,j}'s coefficient at 1 + s*m + j.  Level t appends
    the c equations of time t, each the previous one of its column with
    F_t's column put in front of the x-part; the rank of the x-parts is
    rank(M_t).  The symbols ride along: a combination of equations is one.
    """

    def __init__(self, field: Field, m: int, c: int):
        self.field = field
        self.m = m
        self.c = c
        self.t = -1                # degree of the last appended F_t
        self.basis = _RowBasis(field)
        self.eqs = [[0] for _ in range(c)]   # newest equation per column

    def extend(self, F_t, y_t=None) -> int:
        """Append F_t and the c symbols y_t received at time t (default 0);
        returns rank(M_t) - rank(M_{t-1})."""
        m, c = self.m, self.c
        if len(F_t) != m or any(len(r) != c for r in F_t):
            raise ValueError(f"coefficient matrix must be {m}x{c}")
        self.t += 1
        eqs = self.eqs
        insert = self.basis.insert
        inc = 0
        for col, F_col in enumerate(zip(*F_t)):
            row = eqs[col] = [y_t[col] if y_t else 0, *F_col] + eqs[col][1:]
            # a copy: the basis reduces the rows it is given.  A row stored
            # at lead 0 reads 0 = y != 0 and is no rank.
            if insert(row[:]) > 0:
                inc += 1
        return inc

    def solve(self, steps=None):
        """x_0 .. x_{steps-1} (x_0 .. x_t by default) as far as the received
        symbols determine them: a list of m-lists with None in the
        undetermined positions.  Only the rows that lead at those
        positions are reduced.  Raises ValueError if the symbols are
        inconsistent with the kernels."""
        basis = self.basis
        if 0 in basis.rows:        # a row reduced to 0 = y != 0
            raise ValueError("received streams inconsistent with the kernels")
        m = self.m
        if steps is None:
            steps = self.t + 1
        last = steps * m           # the position of x_{steps-1,m-1}
        basis.reduce(last)
        # x_{s,j} is determined exactly when no free unknown is left in its
        # row; its value is then the row's y.
        out = [[None] * m for _ in range(steps)]
        for lead, (row, nz) in basis.rows.items():
            if lead <= last and nz in ([], [0]):
                s, j = divmod(lead - 1, m)
                out[s][j] = row[0]
        return out


def det_valuation(Fs, field: Field):
    """Summed rank deficits of the kernel matrix F with coefficients
    F_0 .. F_t (m x c, c >= m): the valuation of det F when F is square.

    The expansion is fed F_0 .. F_t, then zero blocks up to level m*t,
    the largest valuation a non-zero m x m minor can have.  None exactly
    when F lacks full row rank over the rational functions (det F = 0
    when square), wide F included.
    """
    m = len(Fs[0])
    c = len(Fs[0][0])
    te = ToeplitzExpansion(field, m, c)
    zero = [[0] * c for _ in range(m)]
    padding = itertools.repeat(zero, (m - 1) * (len(Fs) - 1))
    deficit = 0
    for F in itertools.chain(Fs, padding):
        inc = te.extend(F)
        if inc == m:
            return deficit
        deficit += m - inc
    return None


# ---------------------------------------------------------------------------
# polynomial matrices
# ---------------------------------------------------------------------------

class PolyMatrix:
    """Matrix of polynomials over one Field."""

    def __init__(self, field: Field, entries):
        self.field = field
        self.entries = [[e if isinstance(e, Poly) else Poly(field, e)
                         for e in row] for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0

    @classmethod
    def from_coeff_matrices(cls, field: Field, Fs) -> "PolyMatrix":
        """Build from the coefficient view F_0 .. F_t."""
        m = len(Fs[0])
        c = len(Fs[0][0])
        return cls(field, [[[F[r][j] for F in Fs] for j in range(c)]
                           for r in range(m)])

    def submatrix_cols(self, cols) -> "PolyMatrix":
        return PolyMatrix(self.field, [[row[j] for j in cols]
                                       for row in self.entries])

    def _det_cofactor(self, idx_rows, idx_cols) -> Poly:
        f = self.field
        n = len(idx_rows)
        if n == 1:
            return self.entries[idx_rows[0]][idx_cols[0]]
        acc = Poly.zero(f)
        sub_rows = idx_rows[1:]
        for k, jc in enumerate(idx_cols):
            a = self.entries[idx_rows[0]][jc]
            if a.is_zero():
                continue
            minor = self._det_cofactor(sub_rows, idx_cols[:k] + idx_cols[k + 1:])
            term = a * minor
            if k % 2:
                term = term.scale(f.neg(1))
            acc = acc + term
        return acc

    def det(self) -> Poly:
        """Exact determinant polynomial, by cofactor expansion."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        return self._det_cofactor(list(range(n)), list(range(n)))

    def adjugate(self) -> "PolyMatrix":
        """adj(A): A * adj(A) = det(A) * I."""
        if self.rows != self.cols:
            raise ValueError("adjugate of a non-square matrix")
        f = self.field
        n = self.rows
        if n == 1:
            return PolyMatrix(f, [[Poly.one(f)]])
        out = [[None] * n for _ in range(n)]
        all_idx = list(range(n))
        for i in range(n):
            for j in range(n):
                rows = all_idx[:j] + all_idx[j + 1:]
                cols = all_idx[:i] + all_idx[i + 1:]
                minor = self._det_cofactor(rows, cols)
                if (i + j) % 2:
                    minor = minor.scale(f.neg(1))
                out[i][j] = minor
        return PolyMatrix(f, out)

    def mul_vector_trunc(self, ys, t: int):
        """Row vector y(z) times this matrix, truncated to degree t."""
        f = self.field
        out = []
        for j in range(self.cols):
            acc = Poly(f, [0] * (t + 1))
            for i in range(self.rows):
                acc = acc + poly_mul_trunc(ys[i], self.entries[i][j], t)
            out.append(acc)
        return out


def toeplitz_solve(Fs, ys, m: int, horizon: int, field: Field):
    """Decode x from y(z) = x(z) F(z) by elimination on the Toeplitz system.

    ToeplitzExpansion's extend through `horizon` and solve in one call,
    for the tests.  Fs are F_0..F_D (m x c, c >= m; zero blocks past D)
    and ys the c received streams.

    Returns a list x[0..horizon], each entry an m-list with None in the
    positions the window leaves undetermined.  Raises ValueError if the
    received streams are inconsistent with the kernels.
    """
    c = len(Fs[0][0])
    te = ToeplitzExpansion(field, m, c)
    zero = [[0] * c for _ in range(m)]
    for t in range(horizon + 1):
        te.extend(Fs[t] if t < len(Fs) else zero, [y[t] for y in ys])
    return te.solve()


def select_columns(F: PolyMatrix, m: int):
    """First (lexicographic) m-column subset with non-zero determinant.

    Test oracle for the engine's column choice.  Returns (column index
    tuple, the m x m submatrix, its determinant).
    """
    if F.cols < m:
        raise SingularMatrixError("fewer columns than the multicast rate")
    for subset in itertools.combinations(range(F.cols), m):
        sub = F.submatrix_cols(subset)
        det = sub.det()
        if not det.is_zero():
            return subset, sub, det
    raise SingularMatrixError("no full-rank column subset exists")


def sequential_decode(F: PolyMatrix, det: Poly, ys, horizon: int):
    """Symbol-by-symbol decode of y(z) = x(z) F(z).

    Test reference for toeplitz_solve.  F must be square and invertible
    over the rational functions, and det must be det(F) (as returned by
    select_columns).  Writes
    det(F) = z^delta * u(z) with u(0) != 0 and recovers
    x(z) = y(z) adj(F)(z) u(z)^{-1} z^{-delta}.  Decoding x_t uses y only
    through time t + delta.

    Returns (delta, xs) where xs[j] is the coefficient stream of source
    symbol j for times 0 .. horizon - delta.
    """
    f = F.field
    m = F.rows
    if det.is_zero():
        raise SingularMatrixError("kernel matrix determinant is zero")
    delta = det.valuation()
    if horizon < delta:
        raise DecodeHorizonError(
            f"horizon {horizon} < decoding delay {delta}: no symbols decodable yet")
    ypolys = [y if isinstance(y, Poly) else Poly(f, y) for y in ys]
    s = F.adjugate().mul_vector_trunc(ypolys, horizon)
    uinv = Poly(f, power_series_inv(det.coeffs[delta:], f, horizon + 1))
    xs = []
    for j in range(m):
        v = poly_mul_trunc(s[j], uinv, horizon)
        if any(v.coeffs[:delta]):
            raise ValueError("received streams inconsistent with the kernel matrix")
        xs.append(v.coeffs[delta:horizon - delta + 1 + delta])
    return delta, xs
