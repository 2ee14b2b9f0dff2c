"""Closed-form bounds and the stopping-time series."""

import inspect
import math
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from arcnc import analysis
from arcnc.analysis import (BoundNotApplicable, et2_upper, et_lower, et_upper,
                            exact_ET, full_rank_prob_Q, ho_bound, mean_delay,
                            rho_ub, rho_upper, stopping_law, var_upper)


def type_law(q, m, t):
    """Yield (d, P(d)) for every Smith type d = (d_1 <= ... <= d_m) with
    every d_i <= t, by the finite-m Cohen-Lenstra law, type by type: the
    reference `stopping_law`'s recursion must equal.

    With lambda the non-zero d_i and lambda'_j = #{i : d_i >= j} its
    conjugate, P = phi(m)^2 / (q^{sum_j lambda'_j^2} prod_v phi(mult v)),
    the product over the distinct values v of d, zero included, and
    phi(k) = prod_{i=1..k} (1 - q^{-i}) = full_rank_prob_Q(q, k, 1).
    """
    top = full_rank_prob_Q(q, m, 1) ** 2
    for d in combinations_with_replacement(range(t + 1), m):
        weight = q ** sum(sum(1 for di in d if di >= j) ** 2
                          for j in range(1, d[-1] + 1))
        for mult in Counter(d).values():
            weight *= full_rank_prob_Q(q, mult, 1)
        yield d, top / weight


def test_ho_bound_values():
    assert ho_bound(1, 8, 2, 0) == Fraction(49, 64)
    assert ho_bound(6, 2, 4, 2) == Fraction(1, 256)
    assert ho_bound(6, 2, 4, 3) == Fraction(625, 4096)
    assert ho_bound(1, 2, 3, 0) == Fraction(1, 8)


def test_ho_bound_guard():
    with pytest.raises(BoundNotApplicable):
        ho_bound(6, 2, 4, 1)   # q^2 = 4 <= d = 6
    with pytest.raises(BoundNotApplicable):
        ho_bound(2, 2, 1, 0)
    # d = 0: no sinks to fail, bound is 1
    assert ho_bound(0, 2, 4, 0) == 1


def test_ho_bound_monotone_in_t_and_q():
    vals = [ho_bound(6, 2, 4, t) for t in range(2, 8)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    qvals = [ho_bound(6, q, 4, 2) for q in (2, 3, 4, 5, 8)]
    assert all(b > a for a, b in zip(qvals, qvals[1:]))


def test_full_rank_prob_Q():
    assert full_rank_prob_Q(2, 2, 1) == Fraction(3, 8)
    # m = 1: a random length-t window is nonzero with probability 1 - q^-t
    assert full_rank_prob_Q(2, 1, 1) == Fraction(1, 2)
    assert full_rank_prob_Q(2, 1, 2) == Fraction(3, 4)
    # monotone in t, limit 1
    vals = [full_rank_prob_Q(2, 2, t) for t in range(1, 8)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1


def test_series_and_bounds_values():
    assert et_upper(2, 2) == Fraction(5, 3)
    assert et_lower(2, 2) == Fraction(3, 5)
    assert et2_upper(1, 2) == 9
    assert et2_upper(2, 2) == Fraction(127, 9)
    assert rho_upper(2, 1, 2) == Fraction(5, 3)
    assert rho_ub(2, 2) == Fraction(5, 3)
    assert var_upper(6, 2, 2) == Fraction(686, 675)


def test_exact_ET_values():
    assert exact_ET(2, 1) == pytest.approx(1.0, abs=1e-8)
    assert exact_ET(2, 2) == pytest.approx(1.19047619, abs=1e-7)
    assert exact_ET(2, 2, tol=1e-12) == pytest.approx(exact_ET(2, 2), abs=1e-8)


def test_series_sandwiched_by_bounds():
    for q in (2, 3, 4, 8):
        for m in (1, 2, 3):
            et = exact_ET(q, m)
            assert et_lower(m, q) <= et + 1e-6
            assert et <= et_upper(m, q) + 1e-6


def test_exact_ET_decreasing_in_q():
    vals = [exact_ET(q, 2) for q in (2, 3, 4, 8, 16, 256)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.01


def test_bounds_decreasing_in_q_increasing_in_m():
    assert et_upper(2, 4) < et_upper(2, 2)
    assert et_upper(3, 2) > et_upper(2, 2)
    assert et2_upper(2, 4) < et2_upper(2, 2)
    assert var_upper(6, 2, 4) < var_upper(6, 2, 2)


def test_var_upper_consistent_with_second_moment():
    # var <= E[T^2] upper bound always
    for q in (2, 4):
        assert var_upper(6, 2, q) <= et2_upper(2, q)


def test_exact_modes_return_fractions():
    # Every public function but the paper's truncated series returns an
    # exact Fraction; a new one fails here until it is listed.
    args = {"ho_bound": (6, 2, 4, 2), "full_rank_prob_Q": (2, 2, 1),
            "et_upper": (1, 2), "et_lower": (1, 2), "et2_upper": (2, 2),
            "rho_upper": (2, 1, 2), "rho_ub": (2, 2), "var_upper": (6, 2, 2),
            "stopping_law": (2, 2, 1), "mean_delay": (2, 1)}
    public = {name for name, fn in vars(analysis).items()
              if inspect.isfunction(fn) and fn.__module__ == analysis.__name__
              and not name.startswith("_")}
    assert public == set(args) | {"exact_ET"}
    for name, a in args.items():
        assert type(getattr(analysis, name)(*a)) is Fraction, name
    assert type(exact_ET(2, 2)) is float
    assert type(ho_bound(0, 2, 4, 0)) is Fraction


def test_stopping_law_values():
    # P(T > t) under the finite-m Cohen-Lenstra law
    assert [1 - stopping_law(2, 2, t) for t in range(4)] == [
        Fraction(5, 8), Fraction(41, 128), Fraction(329, 2048),
        Fraction(2633, 32768)]
    assert [1 - stopping_law(2, 3, t) for t in range(2)] == [
        Fraction(43, 64), Fraction(11411, 32768)]
    assert 1 - stopping_law(3, 3, 0) == Fraction(313, 729)
    # m = 1: T is geometric, P(T > t) = q^-(t+1)
    assert [stopping_law(5, 1, t) for t in range(3)] == [
        1 - Fraction(1, 5 ** (t + 1)) for t in range(3)]
    # E[T] = sum_t P(T > t) = 19/15 at (2, 2); the terms past t = 40 sum
    # to about 1e-12
    tail = sum(1 - stopping_law(2, 2, t) for t in range(40))
    assert f"{float(tail):.12g}" == "1.26666666667"
    assert 0 < Fraction(19, 15) - tail < Fraction(1, 10 ** 11)
    # the paper's series is not this law: it understates the tail
    assert exact_ET(2, 2) < float(tail)


def test_stopping_law_equals_the_type_by_type_sum():
    for q in (2, 3, 4, 5, 8):
        for m in range(1, 7):
            for t in range(5):
                assert stopping_law(q, m, t) == sum(
                    (p for _, p in type_law(q, m, t)), Fraction(0)), (q, m, t)


def test_mean_delay_is_the_laws_mean():
    for (q, m), want in (((2, 2), Fraction(4, 3)), ((3, 2), Fraction(5, 8)),
                         ((2, 3), Fraction(31, 21))):
        assert mean_delay(q, m) == want
        # sum |lambda| P(lambda) over the types with every d_i <= 24: the
        # rest of the sum is below 1e-4
        partial = sum(sum(d) * p for d, p in type_law(q, m, 24))
        assert 0 < want - partial < Fraction(1, 10 ** 4)


def test_input_validation():
    with pytest.raises(ValueError):
        full_rank_prob_Q(2, 2, 0)
    with pytest.raises(ValueError):
        exact_ET(2, 2, tol=0)
