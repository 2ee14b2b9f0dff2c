"""Polynomials and polynomial matrices over F_q.

Implements the delay-domain algebra used by the protocol: truncated
convolution, rank over F_q, the block-Toeplitz decodability test, the
cofactor determinant and column selection, and the sequential
(power-series) decoder.  toeplitz_solve, direct elimination on the
Toeplitz system, is kept as the reference the sequential decoder is
tested against.

Decodability of a kernel matrix known through degree t is tested via rank
increments of the block upper-triangular Toeplitz expansions M_L.  The
increment at the current level only certifies that the first message symbol
is recoverable with delay <= t; to decide invertibility of the matrix as a
whole (non-zero determinant), increments are additionally probed at
zero-padded levels L = t+1 .. m*t.  Some level passes if and only if the
determinant (some m x m minor, in the rectangular case) is a non-zero
polynomial, which PolyMatrix.det checks independently.
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

    def shift(self, k: int) -> "Poly":
        """Multiply by z^k (k >= 0)."""
        return Poly(self.field, [0] * k + list(self.coeffs))

    def eval(self, x: int) -> int:
        f = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, x), c)
        return acc

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
# incremental row bases (right-aligned column indexing)
# ---------------------------------------------------------------------------
#
# Rows of M_{t-1} reappear inside M_t shifted right by one block width, so
# indexing columns from the right end makes the elimination state of M_{t-1}
# directly reusable when extending to M_t.

class _Gf2RowBasis:
    """Row basis over GF(2); rows are bitmasks, bit p = column p from the right."""

    __slots__ = ("rows",)

    def __init__(self, rows=None):
        self.rows = dict(rows) if rows else {}

    def insert(self, row: int) -> bool:
        rows = self.rows
        while row:
            lead = row.bit_length() - 1
            b = rows.get(lead)
            if b is None:
                rows[lead] = row
                return True
            row ^= b
        return False

    def clone(self):
        return _Gf2RowBasis(self.rows)

    @property
    def rank(self):
        return len(self.rows)


class _GenericRowBasis:
    """Row basis over any Field; rows are {position: nonzero value} dicts."""

    __slots__ = ("field", "rows")

    def __init__(self, field: Field, rows=None):
        self.field = field
        self.rows = dict(rows) if rows else {}

    def insert(self, row: dict) -> bool:
        f = self.field
        rows = self.rows
        while row:
            lead = max(row)
            b = rows.get(lead)
            if b is None:
                rows[lead] = row
                return True
            fct = f.mul(row[lead], f.inv(b[lead]))
            new = dict(row)
            for p, v in b.items():
                nv = f.sub(new.get(p, 0), f.mul(fct, v))
                if nv:
                    new[p] = nv
                elif p in new:
                    del new[p]
            row = new
        return False

    def clone(self):
        return _GenericRowBasis(self.field, self.rows)

    @property
    def rank(self):
        return len(self.rows)


def _make_basis(field: Field):
    return _Gf2RowBasis() if field.q == 2 else _GenericRowBasis(field)


# ---------------------------------------------------------------------------
# block Toeplitz expansion M_t
# ---------------------------------------------------------------------------

class ToeplitzExpansion:
    """Incremental rank state of the expansions M_0, M_1, ..., M_t.

    M_t has (t+1)*m rows and (t+1)*c columns; block (i, j) = F_{j-i} for
    j >= i and zero otherwise.  Extending by one coefficient matrix costs
    one insertion of m rows; the elimination state of M_{t-1} is reused.
    """

    def __init__(self, field: Field, m: int, c: int):
        self.field = field
        self.m = m
        self.c = c
        self.blocks = []           # F_0 .. F_t, each m x c
        self.basis = _make_basis(field)
        self.rank = 0              # rank(M_t)
        self.prev_rank = 0         # rank(M_{t-1}); rank(M_{-1}) == 0
        self.last_increment = 0

    @property
    def t(self) -> int:
        return len(self.blocks) - 1

    def _top_rows(self, shift: int = 0):
        """The m rows [F_0 .. F_t] in right-aligned coordinates + shift."""
        m, c = self.m, self.c
        width = len(self.blocks) * c
        if self.field.q == 2:
            out = []
            for r in range(m):
                row = 0
                for i, F in enumerate(self.blocks):
                    Fr = F[r]
                    for j in range(c):
                        if Fr[j]:
                            row |= 1 << (width - 1 - (i * c + j) + shift)
                out.append(row)
            return out
        out = []
        for r in range(m):
            row = {}
            for i, F in enumerate(self.blocks):
                Fr = F[r]
                for j in range(c):
                    if Fr[j]:
                        row[width - 1 - (i * c + j) + shift] = Fr[j]
            out.append(row)
        return out

    def extend(self, F_t) -> int:
        """Append coefficient matrix F_t; returns rank(M_t) - rank(M_{t-1})."""
        if len(F_t) != self.m or any(len(r) != self.c for r in F_t):
            raise ValueError(
                f"coefficient matrix must be {self.m}x{self.c}")
        self.blocks.append([list(r) for r in F_t])
        inc = 0
        for row in self._top_rows():
            if self.basis.insert(row):
                inc += 1
        self.prev_rank = self.rank
        self.rank += inc
        self.last_increment = inc
        return inc

    def increment_is_full(self) -> bool:
        """rank(M_t) - rank(M_{t-1}) == m at the current level."""
        return self.last_increment == self.m

    def decodable(self) -> bool:
        """True iff the kernel matrix known through degree t is invertible.

        Checks the rank increment at the current level and, failing that,
        at zero-padded levels up to m*t (the largest possible determinant
        valuation), which together decide det != 0 exactly.
        """
        if self.last_increment == self.m:
            return True
        t = self.t
        if t < 0:
            return False
        probe = self.basis.clone()
        rows = self._top_rows()
        for L in range(t + 1, self.m * t + 1):
            shift = (L - t) * self.c
            inc = 0
            if self.field.q == 2:
                for row in rows:
                    if probe.insert(row << shift):
                        inc += 1
            else:
                for row in rows:
                    if probe.insert({p + shift: v for p, v in row.items()}):
                        inc += 1
            if inc == self.m:
                return True
        return False


def build_toeplitz(Fs, field: Field) -> ToeplitzExpansion:
    """Toeplitz expansion from coefficient matrices F_0 .. F_t."""
    if not Fs:
        raise ValueError("need at least F_0")
    m = len(Fs[0])
    c = len(Fs[0][0])
    te = ToeplitzExpansion(field, m, c)
    for F in Fs:
        te.extend(F)
    return te


def concat_rank(Fs, field: Field) -> int:
    """Rank of the horizontal concatenation (F_0 F_1 ... F_t)."""
    rows = [sum((list(F[r]) for F in Fs), []) for r in range(len(Fs[0]))]
    return rank_fq(rows, field)


def decodable(Fs, m: int, field: Field) -> bool:
    """Decodability of a global kernel matrix given through degree t.

    Condition 1 (rank of the concatenation equals m) is a cheap necessary
    pre-filter; the Toeplitz rank-increment test decides the answer.
    """
    if len(Fs[0]) != m:
        raise ValueError("block row count must equal the multicast rate")
    if concat_rank(Fs, field) != m:
        return False
    return build_toeplitz(Fs, field).decodable()


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

    def coeff_matrix(self, i: int):
        """The scalar matrix F_i of z^i coefficients."""
        return [[e[i] for e in row] for row in self.entries]

    def max_degree(self) -> int:
        return max((e.degree for row in self.entries for e in row), default=-1)

    def coeff_matrices(self):
        """Lossless coefficient view F_0 .. F_t (t = max entry degree)."""
        t = max(self.max_degree(), 0)
        return [self.coeff_matrix(i) for i in range(t + 1)]

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

    Reference decoder: the engine decodes with sequential_decode, and the
    tests check that decoder against this one.  Fs are the coefficient matrices F_0..F_D (m rows, c >= m columns) and
    ys the c received streams through `horizon`.  Unlike the adjugate
    decoder this works directly on the linear system
    y_{e,t} = sum_i x_{t-i} F_i, so it needs no invertible column subset:
    a message symbol is recovered exactly when the received window
    determines it.

    Returns a list x[0..horizon], each entry an m-list with None in the
    positions the window leaves undetermined.  Raises ValueError if the
    received streams are inconsistent with the kernels.
    """
    c = len(Fs[0][0])
    D = len(Fs) - 1
    nu = (horizon + 1) * m
    rows = []
    rhs = []
    for t in range(horizon + 1):
        for col in range(c):
            row = [0] * nu
            for i in range(min(t, D) + 1):
                Fi = Fs[i]
                for j in range(m):
                    v = Fi[j][col]
                    if v:
                        row[(t - i) * m + j] = v
            rows.append(row)
            rhs.append(ys[col][t])
    # Reduced row echelon form with the right-hand side carried along.
    pivots = {}                    # column -> row index
    rank = 0
    for col in range(nu):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        rhs[rank], rhs[piv] = rhs[piv], rhs[rank]
        pinv = field.inv(rows[rank][col])
        rows[rank] = [field.mul(pinv, a) for a in rows[rank]]
        rhs[rank] = field.mul(pinv, rhs[rank])
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                fct = rows[r][col]
                rows[r] = [field.sub(a, field.mul(fct, b))
                           for a, b in zip(rows[r], rows[rank])]
                rhs[r] = field.sub(rhs[r], field.mul(fct, rhs[rank]))
        pivots[col] = rank
        rank += 1
    for r in range(rank, len(rows)):
        if rhs[r]:
            raise ValueError("received streams inconsistent with the kernels")
    free = [col for col in range(nu) if col not in pivots]
    out = [[None] * m for _ in range(horizon + 1)]
    for col, r in pivots.items():
        if all(rows[r][fc] == 0 for fc in free):
            out[col // m][col % m] = rhs[r]
    return out


def select_columns(F: PolyMatrix, m: int, max_valuation=None):
    """First (lexicographic) m-column subset with non-zero determinant.

    With max_valuation, the determinant must also have valuation at most
    max_valuation.  When F is a power-series matrix truncated past that
    bound, this skips the subsets whose determinant is zero but whose
    truncation is not.

    Returns (column index tuple, the m x m submatrix, its determinant).
    """
    if F.cols < m:
        raise SingularMatrixError("fewer columns than the multicast rate")
    for subset in itertools.combinations(range(F.cols), m):
        sub = F.submatrix_cols(subset)
        det = sub.det()
        if not det.is_zero() and (max_valuation is None
                                  or det.valuation() <= max_valuation):
            return subset, sub, det
    raise SingularMatrixError("no full-rank column subset exists"
                              if max_valuation is None else
                              "no column subset has a determinant of "
                              f"valuation <= {max_valuation}")


def sequential_decode(F: PolyMatrix, det: Poly, ys, horizon: int):
    """Symbol-by-symbol decode of y(z) = x(z) F(z).

    F must be square and invertible over the rational functions, and det
    must be det(F) (as returned by select_columns).  Writes
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
