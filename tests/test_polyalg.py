"""Polynomial and polynomial-matrix algebra: arithmetic, decodability,
determinants, the sequential decoder and its reference decoder."""

import itertools
import random

import pytest

from arcnc.gf import field_new
from arcnc.polyalg import (DecodeHorizonError, Poly, PolyMatrix,
                           SingularMatrixError, ToeplitzExpansion,
                           det_valuation, poly_mul_trunc, power_series_inv,
                           rank_fq, select_columns, sequential_decode,
                           toeplitz_solve)

F2 = field_new(2)
F3 = field_new(3)
F4 = field_new(4)
F5 = field_new(5)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def test_poly_basic_arithmetic():
    p = Poly(F2, [1, 1])            # 1 + z
    assert (p * p) == Poly(F2, [1, 0, 1])   # 1 + z^2 over GF(2)
    assert (p + p).is_zero()
    assert p.degree == 1
    assert Poly(F2, [0, 0, 1]).valuation() == 2
    with pytest.raises(ValueError):
        Poly.zero(F2).valuation()
    assert Poly.one(F3) == Poly(F3, [1])


def test_poly_eval_and_scale():
    p = Poly(F5, [1, 2, 3])          # 1 + 2z + 3z^2
    assert p.scale(2) == Poly(F5, [2, 4, 1])
    assert (p - p).is_zero()


def test_poly_mul_trunc_matches_full_product():
    rng = random.Random(7)
    for _ in range(50):
        a = Poly(F3, [rng.randrange(3) for _ in range(5)])
        b = Poly(F3, [rng.randrange(3) for _ in range(5)])
        full = a * b
        for t in range(6):
            tr = poly_mul_trunc(a, b, t)
            assert tr.coeffs[:t + 1] == list(full.coeffs[:t + 1]) + \
                [0] * (t + 1 - len(full.coeffs[:t + 1])) or \
                tr == Poly(F3, full.coeffs[:t + 1])


def test_power_series_inv():
    # (1 + z)^{-1} = 1 + z + z^2 + ... over GF(2)
    inv = power_series_inv([1, 1], F2, 6)
    assert inv == [1] * 6
    # check u * u^{-1} = 1 mod z^8 for random units over GF(5)
    rng = random.Random(3)
    for _ in range(30):
        u = [rng.randrange(1, 5)] + [rng.randrange(5) for _ in range(5)]
        v = power_series_inv(u, F5, 8)
        prod = poly_mul_trunc(Poly(F5, u), Poly(F5, v), 7)
        assert prod == Poly(F5, [1])
    with pytest.raises(ZeroDivisionError):
        power_series_inv([0, 1], F2, 4)


# ---------------------------------------------------------------------------
# rank machinery
# ---------------------------------------------------------------------------

def test_rank_fq_examples():
    assert rank_fq([[1, 0], [0, 1]], F2) == 2
    assert rank_fq([[1, 1], [1, 1]], F2) == 1
    assert rank_fq([[0, 0]], F2) == 0
    assert rank_fq([[1, 2], [2, 4]], F5) == 1
    assert rank_fq([[1, 2], [2, 1]], F3) == 1   # 2*(1,2) = (2,1) mod 3


def _random_rows(rng, r, c, q):
    return [[rng.randrange(q) for _ in range(c)] for _ in range(r)]


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_rank_fq_matches_row_reduction_oracle(field):
    # Oracle: count pivots of a plain fraction-free elimination.
    rng = random.Random(field.q)
    for _ in range(60):
        r, c = rng.randrange(1, 5), rng.randrange(1, 5)
        rows = _random_rows(rng, r, c, field.q)
        M = [row[:] for row in rows]
        rank = 0
        for col in range(c):
            piv = next((i for i in range(rank, r) if M[i][col]), None)
            if piv is None:
                continue
            M[rank], M[piv] = M[piv], M[rank]
            inv = field.inv(M[rank][col])
            M[rank] = [field.mul(inv, a) for a in M[rank]]
            for i in range(r):
                if i != rank and M[i][col]:
                    f = M[i][col]
                    M[i] = [field.sub(a, field.mul(f, b))
                            for a, b in zip(M[i], M[rank])]
            rank += 1
        assert rank_fq(rows, field) == rank


# ---------------------------------------------------------------------------
# Toeplitz expansion and decodability
# ---------------------------------------------------------------------------

def test_toeplitz_extend_increment_bounds():
    rng = random.Random(11)
    for q, fld in ((2, F2), (4, F4)):
        for _ in range(40):
            m, c = 2, rng.randrange(2, 5)
            te = ToeplitzExpansion(fld, m, c)
            total = 0
            for t in range(4):
                F = _random_rows(rng, m, c, q)
                inc = te.extend(F)
                assert 0 <= inc <= m
                total += inc
            assert total <= (te.t + 1) * m


def _block_toeplitz(Fs):
    """M_t built explicitly: block (i, j) is F_{j-i} for j >= i, else zero."""
    m, c = len(Fs[0]), len(Fs[0][0])
    n = len(Fs)
    return [[Fs[j - i][r][col] if j >= i else 0
             for j in range(n) for col in range(c)]
            for i in range(n) for r in range(m)]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 256])
def test_toeplitz_extend_increment_is_explicit_rank_difference(q):
    fld = field_new(q)
    rng = random.Random(300 + q)
    for _ in range(60):
        m, c = rng.randrange(1, 4), rng.randrange(1, 5)
        te = ToeplitzExpansion(fld, m, c)
        Fs = []
        prev = 0
        for t in range(5):
            # sparse blocks, so that increments below m are common
            Fs.append([[rng.randrange(q) if rng.random() < 0.4 else 0
                        for _ in range(c)] for _ in range(m)])
            rank = rank_fq(_block_toeplitz(Fs), fld)
            assert te.extend(Fs[-1]) == rank - prev
            prev = rank


@pytest.mark.parametrize("q", [2, 3, 4])
def test_toeplitz_extend_increments_do_not_depend_on_symbols(q):
    # The received symbols ride along at position 0: an expansion fed them
    # has the increments of one that is not, also when they are
    # inconsistent and a row reduces to 0 = y != 0.  solve() raises
    # exactly when appending y to M_t's rows raises its rank.
    fld = field_new(q)
    rng = random.Random(700 + q)
    inconsistent = 0
    for _ in range(60):
        m, c = rng.randrange(1, 4), rng.randrange(1, 5)
        plain = ToeplitzExpansion(fld, m, c)
        fed = ToeplitzExpansion(fld, m, c)
        Fs, ys = [], []
        for t in range(4):
            Fs.append([[rng.randrange(q) if rng.random() < 0.4 else 0
                        for _ in range(c)] for _ in range(m)])
            ys.append([rng.randrange(q) for _ in range(c)])
            assert fed.extend(Fs[-1], ys[-1]) == plain.extend(Fs[-1])
        M = _block_toeplitz(Fs)
        y_row = [y for y_t in ys for y in y_t]
        if rank_fq(M + [y_row], fld) > rank_fq(M, fld):
            inconsistent += 1
            with pytest.raises(ValueError):
                fed.solve()
        else:
            fed.solve()
        # with every symbol 0, whatever is determined is 0
        assert {x for x_t in plain.solve() for x in x_t} <= {0, None}
    assert 10 <= inconsistent < 60


def test_decodable_known_cases():
    I = [[1, 0], [0, 1]]
    dup = [[1, 1], [1, 1]]
    assert det_valuation([I], F2) is not None
    assert det_valuation([dup], F2) is None
    # F(z) = [[1, z], [z, 1]]: det = 1 - z^2, nonzero -> decodable at t=1.
    F0 = [[1, 0], [0, 1]]
    F1 = [[0, 1], [1, 0]]
    assert det_valuation([F0, F1], F2) is not None
    # F(z) = [[1, z], [1, z]]: rows proportional, det = 0.
    assert det_valuation([[[1, 0], [1, 0]], [[0, 1], [0, 1]]], F2) is None


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_decodable_equals_det_oracle(q):
    fld = field_new(q)
    rng = random.Random(100 + q)
    for _ in range(120):
        m = rng.randrange(1, 4)
        t = rng.randrange(0, 4)
        Fs = [_random_rows(rng, m, m, q) for _ in range(t + 1)]
        det = PolyMatrix.from_coeff_matrices(fld, Fs).det()
        # None exactly when det = 0; otherwise the summed rank deficits are
        # the determinant's valuation.
        if det.is_zero():
            assert det_valuation(Fs, fld) is None
        else:
            assert det_valuation(Fs, fld) == det.valuation()
    # Wide kernel matrices (c = m + 1) have full rank iff some m-column
    # subset has a non-zero determinant.
    rng = random.Random(200 + q)
    for _ in range(120):
        m = rng.randrange(1, 4)
        t = rng.randrange(0, 4)
        Fs = [_random_rows(rng, m, m + 1, q) for _ in range(t + 1)]
        try:
            select_columns(PolyMatrix.from_coeff_matrices(fld, Fs), m)
            want = True
        except SingularMatrixError:
            want = False
        assert (det_valuation(Fs, fld) is not None) == want


def test_concat_rank_necessity():
    # A matrix whose concatenation (F_0 F_1 ...) has rank < m is never
    # decodable: some source row combination is never sent.
    Fs = [[[1, 1], [0, 0]], [[0, 1], [0, 0]]]   # second source row never sent
    assert det_valuation(Fs, F2) is None


# ---------------------------------------------------------------------------
# polynomial matrices: determinant, adjugate, column selection
# ---------------------------------------------------------------------------

def test_det_and_adjugate_identity():
    rng = random.Random(17)
    for q, fld in ((3, F3), (4, F4)):
        for _ in range(25):
            n = rng.randrange(1, 4)
            t = rng.randrange(0, 3)
            Fs = [_random_rows(rng, n, n, q) for _ in range(t + 1)]
            A = PolyMatrix.from_coeff_matrices(fld, Fs)
            det = A.det()
            adj = A.adjugate()
            # A * adj(A) = det(A) * I
            for i in range(n):
                for j in range(n):
                    acc = Poly.zero(fld)
                    for k in range(n):
                        acc = acc + A.entries[i][k] * adj.entries[k][j]
                    want = det if i == j else Poly.zero(fld)
                    assert acc == want


def test_select_columns_lexicographic():
    # Columns 0 and 1 are dependent; (0, 2) is the first invertible pair.
    A = PolyMatrix(F2, [[[1], [1], [0]],
                        [[0], [0], [1]]])
    subset, sub, det = select_columns(A, 2)
    assert subset == (0, 2)
    assert det == sub.det() and not det.is_zero()
    B = PolyMatrix(F2, [[[1], [1]], [[1], [1]]])
    with pytest.raises(SingularMatrixError):
        select_columns(B, 2)
    # det of columns (0, 1) is z^2: non-zero, so (0, 1) is first.
    C = PolyMatrix(F2, [[[0, 1], [0], [1]],
                        [[0], [0, 1], [1]]])
    assert select_columns(C, 2)[0] == (0, 1)


# ---------------------------------------------------------------------------
# decoding round trips
# ---------------------------------------------------------------------------

def _random_invertible(rng, fld, m, tmax):
    while True:
        Fs = [_random_rows(rng, m, m, fld.q) for _ in range(tmax + 1)]
        A = PolyMatrix.from_coeff_matrices(fld, Fs)
        if not A.det().is_zero():
            return Fs, A


def _encode(fld, xs, A, horizon):
    """y(z) = x(z) A(z) truncated to `horizon`; xs[j] is stream j."""
    xpolys = [Poly(fld, s) for s in xs]
    m = A.rows
    ys = []
    for j in range(A.cols):
        acc = Poly(fld, [0] * (horizon + 1))
        for i in range(m):
            acc = acc + poly_mul_trunc(xpolys[i], A.entries[i][j], horizon)
        ys.append([acc[t] for t in range(horizon + 1)])
    return ys


@pytest.mark.parametrize("q", [2, 3, 5])
def test_sequential_decode_round_trip(q):
    fld = field_new(q)
    rng = random.Random(q * 7)
    for _ in range(40):
        m = rng.randrange(1, 4)
        Fs, A = _random_invertible(rng, fld, m, rng.randrange(0, 3))
        horizon = 8
        xs = [[rng.randrange(q) for _ in range(horizon + 1)] for _ in range(m)]
        ys = _encode(fld, xs, A, horizon)
        delta, dec = sequential_decode(A, A.det(), ys, horizon)
        assert delta == A.det().valuation()
        for j in range(m):
            n = len(dec[j])
            assert dec[j] == xs[j][:n]
            assert n >= horizon + 1 - delta


def test_sequential_decode_horizon_error():
    # det = z^2 -> delay 2; horizon 1 is too short.
    A = PolyMatrix(F2, [[[0, 1], [0]], [[0], [0, 1]]])
    assert A.det().valuation() == 2
    with pytest.raises(DecodeHorizonError):
        sequential_decode(A, A.det(), [[1, 0], [0, 1]], 1)


def test_toeplitz_solve_matches_sequential_decode():
    rng = random.Random(29)
    for q in (2, 3, 4):
        fld = field_new(q)
        for _ in range(25):
            m = rng.randrange(1, 4)
            Fs, A = _random_invertible(rng, fld, m, rng.randrange(0, 3))
            horizon = 7
            xs = [[rng.randrange(q) for _ in range(horizon + 1)]
                  for _ in range(m)]
            ys = _encode(fld, xs, A, horizon)
            sol = toeplitz_solve(Fs, ys, m, horizon, fld)
            delta, dec = sequential_decode(A, A.det(), ys, horizon)
            for t in range(horizon + 1):
                for j in range(m):
                    if sol[t][j] is not None:
                        assert sol[t][j] == xs[j][t]
            # everything the adjugate decoder recovers, elimination does too
            for j in range(m):
                for t in range(len(dec[j])):
                    assert sol[t][j] == dec[j][t]


def test_toeplitz_solve_wide_matrix_and_inconsistency():
    # Wide 1 x 2 kernel: second stream is a delayed copy of the first.
    Fs = [[[1, 0]], [[0, 1]]]
    xs = [[1, 0, 1, 1]]
    ys = _encode(F2, xs, PolyMatrix.from_coeff_matrices(F2, Fs), 3)
    sol = toeplitz_solve(Fs, ys, 1, 3, F2)
    assert [row[0] for row in sol] == xs[0]
    ys[1][2] ^= 1   # corrupt one received symbol
    with pytest.raises(ValueError):
        toeplitz_solve(Fs, ys, 1, 3, F2)


@pytest.mark.parametrize("q", [2, 3])
def test_toeplitz_solve_matches_brute_force_solution_set(q):
    # Oracle: enumerate every message x through the horizon and keep those
    # whose encoding is the received y.  toeplitz_solve must return exactly
    # the coordinates that are constant over that set, with their values,
    # and raise exactly when the set is empty.  Sparse kernels make
    # rank-deficient systems with undetermined symbols common.
    fld = field_new(q)
    rng = random.Random(500 + q)
    checked = {"empty": 0, "partial": 0, "full": 0}
    for _ in range(60):
        m, c = rng.randrange(1, 3), rng.randrange(1, 4)
        horizon = rng.randrange(0, 4)
        D = rng.randrange(0, horizon + 1)
        Fs = [[[rng.randrange(q) if rng.random() < 0.5 else 0
                for _ in range(c)] for _ in range(m)] for _ in range(D + 1)]
        A = PolyMatrix.from_coeff_matrices(fld, Fs)
        xs_of_y = {}
        for flat in itertools.product(range(q), repeat=(horizon + 1) * m):
            y = _encode(fld, [flat[j::m] for j in range(m)], A, horizon)
            xs_of_y.setdefault(tuple(map(tuple, y)), []).append(flat)
        encodings = list(xs_of_y)
        for ys in (rng.choice(encodings),
                   tuple(tuple(rng.randrange(q) for _ in range(horizon + 1))
                         for _ in range(c))):
            sols = xs_of_y.get(ys, [])
            if not sols:
                checked["empty"] += 1
                with pytest.raises(ValueError):
                    toeplitz_solve(Fs, [list(y) for y in ys], m, horizon, fld)
                continue
            want = [[sols[0][s * m + j]
                     if len({x[s * m + j] for x in sols}) == 1 else None
                     for j in range(m)] for s in range(horizon + 1)]
            assert toeplitz_solve(Fs, [list(y) for y in ys], m, horizon,
                                  fld) == want
            checked["partial" if len(sols) > 1 else "full"] += 1
    assert min(checked.values()) >= 10, checked


def test_decoder_inconsistent_streams_rejected():
    A = PolyMatrix(F2, [[[1], [0]], [[0], [0, 1]]])   # det = z, delay 1
    xs = [[1, 1, 0, 1], [0, 1, 1, 0]]
    ys = _encode(F2, xs, A, 3)
    delta, dec = sequential_decode(A, A.det(), ys, 3)
    assert delta == 1 and dec[0] == xs[0][:3] and dec[1] == xs[1][:3]
