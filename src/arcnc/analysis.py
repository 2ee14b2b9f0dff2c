"""Closed-form bounds and exact series for stopping-time behaviour.

Every function has an exact rational mode (Fraction) and a float mode;
quantities like 49/64 or 5/3 that reports must show exactly come from the
rational mode.  All bound functions are pure.
"""

from __future__ import annotations

import math
from fractions import Fraction


class BoundNotApplicable(ValueError):
    """Requested bound is outside its validity region (e.g. q^{t+1} <= d)."""


def _maybe_float(x, exact: bool):
    return x if exact else float(x)


def ho_bound(d: int, q: int, eta: int, t: int, exact: bool = False):
    """Success-probability lower bound (1 - d/q^{t+1})^eta.

    Requires q^{t+1} > d (raises BoundNotApplicable otherwise); d = 0
    gives probability 1.
    """
    if d == 0:
        return _maybe_float(Fraction(1), exact)
    if q ** (t + 1) <= d:
        raise BoundNotApplicable(
            f"bound needs q^(t+1) > d, got q^{t + 1}={q ** (t + 1)} <= d={d}")
    val = (1 - Fraction(d, q ** (t + 1))) ** eta
    return _maybe_float(val, exact)


def full_rank_prob_Q(q: int, m: int, t: int, exact: bool = False):
    """Q = prod_{l=1..m} (1 - q^{-tl}): full-rank probability at time t >= 1.

    P(T_i >= t) = 1 - Q.
    """
    if t < 1:
        raise ValueError("full_rank_prob_Q needs t >= 1")
    val = Fraction(1)
    for l in range(1, m + 1):
        val *= 1 - Fraction(1, q ** (t * l))
    return _maybe_float(val, exact)


def exact_ET(q: int, m: int, tol: float = 1e-9) -> float:
    """E[T_i] = sum_{t>=1} P(T_i >= t), truncated.

    Terms are accumulated exactly until the geometric tail bound
    m * q^{-t} / (1 - 1/q) drops below tol.
    """
    if not tol > 0:                        # NaN would never stop the loop
        raise ValueError("tol must be positive")
    acc = Fraction(0)
    t = 1
    while True:
        acc += 1 - full_rank_prob_Q(q, m, t, exact=True)
        t += 1
        tail = m * q ** (-t) / (1 - 1 / q)
        if tail < tol:
            return float(acc)


def et_upper(m: int, q: int, exact: bool = False):
    """ET_UB = sum_{k=1..m} (-1)^{k-1} C(m,k) / (q^k - 1)."""
    val = sum((-1) ** (k - 1) * Fraction(math.comb(m, k), q ** k - 1)
              for k in range(1, m + 1))
    return _maybe_float(val, exact)


def et_lower(m: int, q: int, exact: bool = False):
    """ET_LB: same alternating sum with q^{km} in place of q^k."""
    val = sum((-1) ** (k - 1) * Fraction(math.comb(m, k), q ** (k * m) - 1)
              for k in range(1, m + 1))
    return _maybe_float(val, exact)


def et2_upper(m: int, q: int, exact: bool = False):
    """ET^2_UB = ET_UB + 2 sum_k (-1)^{k-1} C(m,k) (q^k/(q^k-1))^2."""
    extra = sum((-1) ** (k - 1) * math.comb(m, k)
                * Fraction(q ** k, q ** k - 1) ** 2
                for k in range(1, m + 1))
    val = et_upper(m, q, exact=True) + 2 * extra
    return _maybe_float(val, exact)


def rho_upper(m: int, lam: int, q: int, exact: bool = False):
    """rho_{lambda,UB}: upper bound on E[T_i T_j] for sinks sharing lambda parents.

    The unknown E[T_i] factor is replaced by its upper bound ET_UB, which
    preserves validity as an upper bound.
    """
    if not 0 < lam < m:
        raise ValueError("rho needs 0 < lambda < m")
    val = et_upper(m, q, exact=True) * et_upper(m - lam, q, exact=True)
    return _maybe_float(val, exact)


def rho_ub(m: int, q: int, exact: bool = False):
    """max over lambda = 1..m-1 of rho_{lambda,UB}; undefined for m = 1."""
    if m < 2:
        raise ValueError("rho undefined for m = 1 (no shared-parent pairs)")
    val = max(rho_upper(m, lam, q, exact=True) for lam in range(1, m))
    return _maybe_float(val, exact)


def var_upper(n: int, m: int, q: int, exact: bool = False):
    """Variance bound ET^2_UB/d + (m/n) rho_UB - (1 + m/n) ET_LB^2.

    d = C(n,m).  For m = 1 there are no shared-parent sink pairs and the
    rho term is omitted.
    """
    if n < m:
        raise ValueError("var_upper needs n >= m")
    d = math.comb(n, m)
    val = Fraction(et2_upper(m, q, exact=True), 1) / d
    if m > 1:
        val += Fraction(m, n) * rho_ub(m, q, exact=True)
    val -= (1 + Fraction(m, n)) * et_lower(m, q, exact=True) ** 2
    return _maybe_float(val, exact)
