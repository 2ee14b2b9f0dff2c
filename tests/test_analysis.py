"""Closed-form bounds and the stopping-time series."""

import math
from fractions import Fraction

import pytest

from arcnc import analysis
from arcnc.analysis import (BoundNotApplicable, et2_upper, et_lower, et_upper,
                            exact_ET, full_rank_prob_Q, ho_bound, rho_ub,
                            rho_upper, var_upper)


def test_ho_bound_values():
    assert ho_bound(1, 8, 2, 0, exact=True) == Fraction(49, 64)
    assert ho_bound(6, 2, 4, 2, exact=True) == Fraction(1, 256)
    assert ho_bound(6, 2, 4, 3, exact=True) == Fraction(625, 4096)
    assert ho_bound(1, 8, 2, 0) == pytest.approx(49 / 64)
    assert ho_bound(1, 2, 3, 0, exact=True) == Fraction(1, 8)


def test_ho_bound_guard():
    with pytest.raises(BoundNotApplicable):
        ho_bound(6, 2, 4, 1)   # q^2 = 4 <= d = 6
    with pytest.raises(BoundNotApplicable):
        ho_bound(2, 2, 1, 0)
    # d = 0: no sinks to fail, bound is 1
    assert ho_bound(0, 2, 4, 0, exact=True) == 1


def test_ho_bound_monotone_in_t_and_q():
    vals = [ho_bound(6, 2, 4, t) for t in range(2, 8)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    qvals = [ho_bound(6, q, 4, 2) for q in (2, 3, 4, 5, 8)]
    assert all(b > a for a, b in zip(qvals, qvals[1:]))


def test_full_rank_prob_Q():
    assert full_rank_prob_Q(2, 2, 1, exact=True) == Fraction(3, 8)
    # m = 1: a random length-t window is nonzero with probability 1 - q^-t
    assert full_rank_prob_Q(2, 1, 1, exact=True) == Fraction(1, 2)
    assert full_rank_prob_Q(2, 1, 2, exact=True) == Fraction(3, 4)
    # monotone in t, limit 1
    vals = [full_rank_prob_Q(2, 2, t) for t in range(1, 8)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1


def test_series_and_bounds_values():
    assert et_upper(2, 2, exact=True) == Fraction(5, 3)
    assert et_lower(2, 2, exact=True) == Fraction(3, 5)
    assert et2_upper(1, 2, exact=True) == 9
    assert et2_upper(2, 2, exact=True) == Fraction(127, 9)
    assert rho_upper(2, 1, 2, exact=True) == Fraction(5, 3)
    assert rho_ub(2, 2, exact=True) == Fraction(5, 3)
    assert var_upper(6, 2, 2, exact=True) == Fraction(686, 675)


def test_exact_ET_values():
    assert exact_ET(2, 1) == pytest.approx(1.0, abs=1e-8)
    assert exact_ET(2, 2) == pytest.approx(1.19047619, abs=1e-7)
    assert exact_ET(2, 2, tol=1e-12) == pytest.approx(exact_ET(2, 2), abs=1e-8)


def test_series_sandwiched_by_bounds():
    for q in (2, 3, 4, 8):
        for m in (1, 2, 3):
            et = exact_ET(q, m)
            assert float(et_lower(m, q)) <= et + 1e-6
            assert et <= float(et_upper(m, q)) + 1e-6


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
        assert float(var_upper(6, 2, q)) <= float(et2_upper(2, q))


def test_exact_modes_return_fractions():
    assert isinstance(et_upper(2, 2, exact=True), Fraction)
    assert isinstance(ho_bound(6, 2, 4, 2, exact=True), Fraction)
    assert isinstance(et_upper(2, 2), float)


def test_input_validation():
    with pytest.raises(ValueError):
        full_rank_prob_Q(2, 2, 0)
    with pytest.raises(ValueError):
        exact_ET(2, 2, tol=0)
