"""Closed-form bounds, the paper's stopping-time series and exact laws.

Every bound is an exact `Fraction` (49/64, 5/3); callers convert it to a
float only where they print one.  `exact_ET` is the paper's series for
E[T_i], truncated, and returns a float.  All functions are pure.

The engine's stopping time has an exact law of its own.  A comb(n, m)
sink's kernel matrix F(z) is Haar-random over F_q[[z]]; in its Smith form
F = U diag(z^{d_1}, ..., z^{d_m}) V the rank increment at level t is
#{i : d_i <= t}, so T = max d_i, and the decoding delay is d_1 + ... + d_m
(Forney 1970; Massey & Sain 1968 on the inverse of a convolutional
encoder).  The type (d_i) follows the finite-m Cohen-Lenstra law (Cohen &
Lenstra 1984; Friedman & Washington 1989): `stopping_law` gives P(T <= t)
and `mean_delay` the mean delay.
"""

from __future__ import annotations

import math
from fractions import Fraction


class BoundNotApplicable(ValueError):
    """Requested bound is outside its validity region (e.g. q^{t+1} <= d)."""


def ho_bound(d: int, q: int, eta: int, t: int) -> Fraction:
    """Success-probability lower bound (1 - d/q^{t+1})^eta.

    Requires q^{t+1} > d (raises BoundNotApplicable otherwise); d = 0
    gives probability 1.
    """
    if d == 0:
        return Fraction(1)
    if q ** (t + 1) <= d:
        raise BoundNotApplicable(
            f"bound needs q^(t+1) > d, got q^{t + 1}={q ** (t + 1)} <= d={d}")
    return (1 - Fraction(d, q ** (t + 1))) ** eta


def full_rank_prob_Q(q: int, m: int, t: int) -> Fraction:
    """Q = prod_{l=1..m} (1 - q^{-tl}): full-rank probability at time t >= 1.

    P(T_i >= t) = 1 - Q.
    """
    if t < 1:
        raise ValueError("full_rank_prob_Q needs t >= 1")
    val = Fraction(1)
    for l in range(1, m + 1):
        val *= 1 - Fraction(1, q ** (t * l))
    return val


def exact_ET(q: int, m: int, tol: float = 1e-9) -> float:
    """E[T_i] = sum_{t>=1} P(T_i >= t), the paper's series, truncated.

    Terms are accumulated exactly until the geometric tail bound
    m * q^{-t} / (1 - 1/q) drops below tol.
    """
    if not tol > 0:                        # NaN would never stop the loop
        raise ValueError("tol must be positive")
    acc = Fraction(0)
    t = 1
    while True:
        acc += 1 - full_rank_prob_Q(q, m, t)
        t += 1
        tail = m * q ** (-t) / (1 - 1 / q)
        if tail < tol:
            return float(acc)


def et_upper(m: int, q: int) -> Fraction:
    """ET_UB = sum_{k=1..m} (-1)^{k-1} C(m,k) / (q^k - 1)."""
    return sum((-1) ** (k - 1) * Fraction(math.comb(m, k), q ** k - 1)
               for k in range(1, m + 1))


def et_lower(m: int, q: int) -> Fraction:
    """ET_LB: same alternating sum with q^{km} in place of q^k."""
    return sum((-1) ** (k - 1) * Fraction(math.comb(m, k), q ** (k * m) - 1)
               for k in range(1, m + 1))


def et2_upper(m: int, q: int) -> Fraction:
    """ET^2_UB = ET_UB + 2 sum_k (-1)^{k-1} C(m,k) (q^k/(q^k-1))^2."""
    extra = sum((-1) ** (k - 1) * math.comb(m, k)
                * Fraction(q ** k, q ** k - 1) ** 2
                for k in range(1, m + 1))
    return et_upper(m, q) + 2 * extra


def rho_upper(m: int, lam: int, q: int) -> Fraction:
    """rho_{lambda,UB}: upper bound on E[T_i T_j] for sinks sharing lambda parents.

    The unknown E[T_i] factor is replaced by its upper bound ET_UB, which
    preserves validity as an upper bound.
    """
    if not 0 < lam < m:
        raise ValueError("rho needs 0 < lambda < m")
    return et_upper(m, q) * et_upper(m - lam, q)


def rho_ub(m: int, q: int) -> Fraction:
    """max over lambda = 1..m-1 of rho_{lambda,UB}; undefined for m = 1."""
    if m < 2:
        raise ValueError("rho undefined for m = 1 (no shared-parent pairs)")
    return max(rho_upper(m, lam, q) for lam in range(1, m))


def var_upper(n: int, m: int, q: int) -> Fraction:
    """Variance bound ET^2_UB/d + (m/n) rho_UB - (1 + m/n) ET_LB^2.

    d = C(n,m).  For m = 1 there are no shared-parent sink pairs and the
    rho term is omitted.
    """
    if n < m:
        raise ValueError("var_upper needs n >= m")
    val = et2_upper(m, q) / math.comb(n, m)
    if m > 1:
        val += Fraction(m, n) * rho_ub(m, q)
    return val - (1 + Fraction(m, n)) * et_lower(m, q) ** 2


def stopping_law(q: int, m: int, t: int) -> Fraction:
    """P(T <= t) for a sink whose m x m kernel matrix is Haar-random over
    F_q[[z]], as every comb(n, m) sink's is.

    A Smith type (d_i) with every d_i <= t has the conjugate parts
    lambda'_j = #{i : d_i >= j}, m = lambda'_0 >= ... >= lambda'_t >=
    lambda'_{t+1} = 0, and lambda'_v - lambda'_{v+1} is the multiplicity of
    the value v.  Its probability is phi(m)^2 prod_{j=1..t} q^{-lambda'_j^2}
    prod_{v=0..t} 1/phi(lambda'_v - lambda'_{v+1}), with phi(k) =
    prod_{i=1..k} (1 - q^{-i}) = full_rank_prob_Q(q, k, 1), so one pass
    over j sums every type, carrying the summed weight of each lambda'_j.
    """
    phi = [full_rank_prob_Q(q, k, 1) for k in range(m + 1)]
    weight = {m: Fraction(1)}          # lambda'_j -> summed weight
    for _ in range(t):
        step = {}
        for a, w in weight.items():
            for b in range(a + 1):
                step[b] = step.get(b, 0) + w / (phi[a - b] * q ** (b * b))
        weight = step
    return phi[m] ** 2 * sum(w / phi[a] for a, w in weight.items())


def mean_delay(q: int, m: int) -> Fraction:
    """E[d_1 + ... + d_m] = sum_{i=1..m} 1/(q^i - 1) under the same law."""
    return sum((Fraction(1, q ** i - 1) for i in range(1, m + 1)),
               Fraction(0))
