"""Adaptive coding engine: scripted traces, statistics, determinism,
cyclic operation and campaign output."""

import io
import math

import pytest

from arcnc.engine import (OverrideError, SimConfig, TRIAL_SINK_COLUMNS,
                          TRIAL_SUMMARY_COLUMNS, collect_campaign, run_trial)
from arcnc.gf import field_new
from arcnc.harness import fig1_override_text, parse_override_script
from arcnc.polyalg import PolyMatrix, select_columns
from arcnc.rng import SplitMix64
from arcnc.topology import (Topology, combination_network, random_layered_dag,
                            two_node_cycle_network, validate_multicast)

F2 = field_new(2)


def fig1_config(**kw):
    topo = combination_network(4, 2)
    overrides = parse_override_script(fig1_override_text())
    return SimConfig(topology=topo, field=F2, overrides=overrides,
                     strict_overrides=True, **kw)


def test_scripted_trace_exact_values():
    res = run_trial(fig1_config(), 0)
    assert res.success
    assert [res.T[r] for r in sorted(res.T)] == [0, 0, 0, 0, 0, 1]
    assert res.T_N == 1
    assert res.avg_T == pytest.approx(1 / 6)
    assert res.avg_code_len == pytest.approx(3 / 2)
    assert res.avg_memory_bits == pytest.approx(42 / 11)
    assert res.delta[10] == 1
    assert all(res.delta[r] == 0 for r in range(5, 10))


def test_scripted_trace_independent_of_seed():
    a = run_trial(fig1_config(base_seed=1), 0)
    b = run_trial(fig1_config(base_seed=999), 5)
    # every coefficient the trial needs is scripted, so the RNG never runs
    assert a.T == b.T and a.avg_memory_bits == b.avg_memory_bits


def test_strict_override_missing_pair():
    overrides = parse_override_script(fig1_override_text())
    del overrides[(-1, 3, 1)]
    cfg = SimConfig(topology=combination_network(4, 2), field=F2,
                    overrides=overrides, strict_overrides=True)
    with pytest.raises(OverrideError, match=r"x0->e3, t=1"):
        run_trial(cfg, 0)


def test_override_validation():
    topo = combination_network(4, 2)
    with pytest.raises(OverrideError):
        SimConfig(topology=topo, field=F2, overrides={(0, 99, 0): 1})
    with pytest.raises(OverrideError):
        SimConfig(topology=topo, field=F2, overrides={(0, 1, 0): 7})  # 7 >= q


def test_all_ones_override_rate_one():
    # n = m = 1 relay chain: source -> relay -> sink with constant kernel 1
    # decodes instantly.
    topo = combination_network(1, 1)
    cfg = SimConfig(topology=topo, field=F2,
                    overrides={(-1, 0, 0): 1}, strict_overrides=True)
    res = run_trial(cfg, 0)
    assert res.success and res.T_N == 0
    assert res.delta[topo.sinks[0]] == 0


def test_m1_sink_success_is_nonzero_draw():
    # (2,1): each sink decodes at t=0 iff its source coefficient draw is
    # nonzero, probability 1/2 at q=2.
    topo = combination_network(2, 1)
    cfg = SimConfig(topology=topo, field=F2, base_seed=21)
    summary = collect_campaign(cfg, 4000)
    for r in topo.sinks:
        frac = summary.per_sink_success_by_t(r, 0)
        assert abs(frac - 0.5) <= 3 * math.sqrt(0.25 / 4000)


def test_trial_determinism_and_independence():
    cfg = SimConfig(topology=combination_network(4, 2), field=F2, base_seed=5)
    a = run_trial(cfg, 7)
    b = run_trial(cfg, 7)
    assert (a.T, a.delta, a.L, a.avg_memory_bits) == \
        (b.T, b.delta, b.L, b.avg_memory_bits)
    c = run_trial(cfg, 8)
    assert c.seed != a.seed


def test_campaign_csv_shapes():
    cfg = SimConfig(topology=combination_network(4, 2), field=F2, base_seed=3)
    sink_buf, trial_buf = io.StringIO(), io.StringIO()
    summary = collect_campaign(cfg, 20, sink_csv=sink_buf, trial_csv=trial_buf)
    sink_lines = sink_buf.getvalue().strip().splitlines()
    trial_lines = trial_buf.getvalue().strip().splitlines()
    assert sink_lines[0] == ",".join(TRIAL_SINK_COLUMNS)
    assert trial_lines[0] == ",".join(TRIAL_SUMMARY_COLUMNS)
    assert len(sink_lines) == 1 + 20 * 6
    assert len(trial_lines) == 1 + 20
    assert summary.trials == 20 and summary.d == 6 and summary.eta == 4
    doc = summary.to_json_dict()
    for key in ("success_fraction", "mean_avg_T", "se_avg_T", "hist_T_N"):
        assert key in doc


def test_campaign_deterministic_across_workers():
    cfg = SimConfig(topology=combination_network(4, 2), field=F2, base_seed=8,
                    verify_decode=False, verify_headers=False)
    buf1, buf2 = io.StringIO(), io.StringIO()
    s1 = collect_campaign(cfg, 40, workers=1, trial_csv=buf1)
    s2 = collect_campaign(cfg, 40, workers=2, trial_csv=buf2)
    assert buf1.getvalue() == buf2.getvalue()
    assert s1.to_json_dict() == s2.to_json_dict()


def test_success_by_t_monotone():
    cfg = SimConfig(topology=combination_network(4, 2), field=F2, base_seed=2,
                    verify_decode=False, verify_headers=False)
    summary = collect_campaign(cfg, 500)
    tmax = summary.max_T_N()
    vals = [summary.success_by_t(t) for t in range(tmax + 1)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] == summary.success_fraction == 1.0


def test_verified_trials_succeed():
    # verify_decode / verify_headers raise on any internal inconsistency
    for q in (2, 4):
        cfg = SimConfig(topology=combination_network(5, 2), field=field_new(q),
                        base_seed=q)
        for i in range(150):
            assert run_trial(cfg, i).success


def test_delays_and_lengths_consistent():
    cfg = SimConfig(topology=combination_network(4, 2), field=F2, base_seed=77)
    for i in range(100):
        res = run_trial(cfg, i)
        assert res.T_N == max(res.T.values())
        assert res.rounds >= res.T_N
        # the reported delay is the valuation of the decoding submatrix
        # determinant; it need not be bounded by T_i but stays small
        for r, d in res.delta.items():
            assert d is not None and 0 <= d <= res.rounds
        assert set(res.L) == set(range(cfg.topology.num_nodes))
        assert all(l >= 1 for l in res.L.values())


def _check_delta_is_det_valuation(cfg, trials):
    """Every decoded sink's delay is the valuation of the determinant of
    the first full-rank column subset of its retained kernel matrix."""
    checked = 0
    for i in trials:
        res = run_trial(cfg, i)
        if not res.success:
            continue
        for r, Fs in res.final_F.items():
            pm = PolyMatrix.from_coeff_matrices(cfg.field, Fs)
            _, sub, _ = select_columns(pm, cfg.topology.m)
            assert res.delta[r] == sub.det().valuation(), (i, r)
            checked += 1
    return checked


def test_delta_is_det_valuation_on_multihop_dag():
    # Sink 12 has three inputs and stops at T = 4, but its first full-rank
    # column pair has a determinant of valuation 12: the horizon has to be
    # sized from that determinant, not from the stopping time.
    topo = Topology(num_nodes=13, edges=(
        (0, 1), (0, 2), (0, 3), (1, 4), (3, 4), (1, 5), (3, 5), (1, 6),
        (3, 6), (4, 7), (5, 7), (6, 7), (4, 8), (4, 9), (5, 9), (6, 9),
        (8, 10), (9, 10), (8, 11), (9, 11), (7, 12), (8, 12), (9, 12)),
        source=0, sinks=(10, 11, 12), m=2)
    cfg = SimConfig(topology=topo, field=F2, base_seed=202, max_rounds=40,
                    keep_kernels=True)
    res = run_trial(cfg, 35)
    assert res.success and res.T[12] == 4 and res.delta[12] == 12
    assert _check_delta_is_det_valuation(cfg, [35]) == 3


def test_delta_is_det_valuation_on_random_dags():
    checked = 0
    for m in (1, 2, 3):
        topos = []
        seed = 0
        while len(topos) < 2:
            topo = random_layered_dag(SplitMix64(seed), layers=3,
                                      width=2 * m + 2, m=m)
            seed += 1
            if validate_multicast(topo).ok:
                topos.append(topo)
        for topo in topos:
            for q in (2, 3, 4):
                cfg = SimConfig(topology=topo, field=field_new(q),
                                base_seed=q, keep_kernels=True)
                checked += _check_delta_is_det_valuation(cfg, range(40))
    assert checked > 0


def test_cyclic_network_runs_and_decodes():
    topo = two_node_cycle_network()
    cfg = SimConfig(topology=topo, field=field_new(4), base_seed=13)
    ok = 0
    for i in range(200):
        res = run_trial(cfg, i)
        ok += res.success
    assert ok == 200


def test_cyclic_delta_skips_column_pairs_with_zero_determinant():
    # Sink 4 has three inputs.  Over the rational functions its column pair
    # (0, 1) has a zero determinant, yet every truncation of that pair has
    # a non-zero one, of valuation just past the horizon.  The first
    # full-rank pair is (0, 2), whose determinant has valuation 4.
    topo = Topology(num_nodes=5, edges=(
        (0, 1), (0, 3), (1, 2), (1, 3), (1, 4), (2, 1), (2, 4), (3, 2),
        (3, 4)), source=0, sinks=(4,), m=2)
    cfg = SimConfig(topology=topo, field=field_new(3), base_seed=1,
                    max_rounds=20)
    res = run_trial(cfg, 19)
    assert res.success and res.T[4] == 3 and res.delta[4] == 4


def test_cyclic_time0_restricted_to_disjoint_paths():
    # With q=2 the trial may need several rounds, but the fixed point must
    # stay well-defined (no EngineError) and headers verified.
    topo = two_node_cycle_network()
    cfg = SimConfig(topology=topo, field=F2, base_seed=4, max_rounds=30)
    results = [run_trial(cfg, i) for i in range(100)]
    assert sum(r.success for r in results) >= 95


def test_trace_lines_present():
    res = run_trial(fig1_config(trace=True), 0)
    assert res.trace_lines
    assert any("k(x0->e0, t=0) = 1" in ln for ln in res.trace_lines)


def test_max_rounds_validation():
    with pytest.raises(ValueError):
        SimConfig(topology=combination_network(4, 2), field=F2, max_rounds=0)
    with pytest.raises(ValueError):
        collect_campaign(SimConfig(topology=combination_network(4, 2),
                                   field=F2), 0)
