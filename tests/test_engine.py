"""Adaptive coding engine: scripted traces, statistics, determinism,
cyclic operation and campaign output."""

import dataclasses
import hashlib
import io
import math

import pytest
from hypothesis import given, settings, strategies as st

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
    # Sink 12 has three inputs and stops at T = 3, but its first full-rank
    # column pair has a determinant of valuation 10: the horizon has to be
    # sized from that determinant, not from the stopping time.
    topo = Topology(num_nodes=13, edges=(
        (0, 1), (0, 2), (0, 3), (1, 4), (3, 4), (1, 5), (3, 5), (1, 6),
        (3, 6), (4, 7), (5, 7), (6, 7), (4, 8), (4, 9), (5, 9), (6, 9),
        (8, 10), (9, 10), (8, 11), (9, 11), (7, 12), (8, 12), (9, 12)),
        source=0, sinks=(10, 11, 12), m=2)
    cfg = SimConfig(topology=topo, field=F2, base_seed=202, max_rounds=40,
                    keep_kernels=True)
    res = run_trial(cfg, 27)
    assert res.success and res.T[12] == 3 and res.delta[12] == 10
    assert _check_delta_is_det_valuation(cfg, [27]) == 3


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


def _first_valid_dag(seed, m, layers=3):
    """The first random_layered_dag from `seed` on that passes max-flow."""
    while True:
        topo = random_layered_dag(SplitMix64(seed), layers=layers,
                                  width=2 * m + 2, m=m)
        if validate_multicast(topo).ok:
            return topo
        seed += 1


_MODES = {"lean": dict(verify_decode=False, verify_headers=False),
          "verified": dict(keep_kernels=True),
          "trace": dict(trace=True)}


def _lean(topo, q, **kw):
    return SimConfig(topology=topo, field=field_new(q), **_MODES["lean"],
                     **kw)


def test_lean_trials_report_no_delay():
    topo = combination_network(4, 2)
    for i in range(20):
        lean = run_trial(_lean(topo, 2, base_seed=6), i)
        full = run_trial(SimConfig(topology=topo, field=F2, base_seed=6), i)
        assert lean.T == full.T
        assert all(d is None for d in lean.delta.values())
        assert all(d is not None for d in full.delta.values())


@settings(derandomize=True, max_examples=30, deadline=None)
@given(seed=st.integers(0, 1 << 20), m=st.integers(1, 3),
       layers=st.integers(2, 3), q=st.sampled_from([2, 3, 4]),
       trial=st.integers(0, 999))
def test_lean_and_verified_trials_agree(seed, m, layers, q, trial):
    # Lean trials propagate headers only; everything but the delay must
    # match the verified trial, which also decodes and checks headers.
    # The verified trial's kept kernels run on through its decoding tail.
    topo = _first_valid_dag(seed, m, layers)
    lean = run_trial(_lean(topo, q, base_seed=seed, keep_kernels=True), trial)
    full = run_trial(SimConfig(topology=topo, field=field_new(q),
                               base_seed=seed, keep_kernels=True), trial)
    for name in ("success", "rounds", "T", "T_N", "L", "memory_bits",
                 "avg_T", "avg_code_len", "avg_memory_bits"):
        assert getattr(lean, name) == getattr(full, name), name
    assert list(lean.final_F) == list(topo.sinks)
    for r, blocks in lean.final_F.items():
        assert len(blocks) == lean.rounds
        assert blocks == full.final_F[r][:lean.rounds]


def test_failed_trial_reports_no_delay():
    # Nothing is decoded in a failed trial, verified or traced.
    for kw in ({}, {"trace": True}):
        res = run_trial(SimConfig(topology=combination_network(4, 2),
                                  field=F2, base_seed=3, max_rounds=1, **kw),
                        0)
        assert not res.success
        assert res.delta == dict.fromkeys(range(5, 11))


def test_node_without_out_edges_acks_at_t0():
    # Node 2 reaches no sink, so it ACKs at once and edge e1 freezes at
    # t = 0 instead of growing its kernel to the end of the trial.
    topo = Topology(3, ((0, 1), (0, 2)), source=0, sinks=(1,), m=1)
    for mode in ("lean", "verified"):
        res = run_trial(SimConfig(topology=topo, field=F2, base_seed=3,
                                  **_MODES[mode]), 0)
        assert res.T == {1: 1}
        assert res.L == {0: 2, 1: 2, 2: 2}
        assert res.avg_code_len == 1.5


# ---------------------------------------------------------------------------
# golden trial outputs
# ---------------------------------------------------------------------------

DEAD_END = Topology(6, ((0, 4), (4, 5), (0, 1), (0, 2), (1, 3), (2, 3)),
                    source=0, sinks=(3,), m=2)


def _golden_cases():
    """(name, topology, q, mode, trials); every case runs at base_seed 3."""
    for n, m in ((4, 2), (6, 3), (8, 2)):
        topo = combination_network(n, m)
        for q in (2, 3, 4, 256):
            yield f"comb{n}{m}-q{q}-lean", topo, q, "lean", 40
            yield f"comb{n}{m}-q{q}-verified", topo, q, "verified", 4
    yield "comb42-q3-trace", combination_network(4, 2), 3, "trace", 3
    for m in (1, 2, 3):
        topo = _first_valid_dag(0, m)
        for q in (2, 3, 4):
            yield f"dag-m{m}-q{q}-lean", topo, q, "lean", 40
            yield f"dag-m{m}-q{q}-verified", topo, q, "verified", 4
    for q in (2, 3, 4):
        yield f"cycle-q{q}-lean", two_node_cycle_network(), q, "lean", 40
        yield f"cycle-q{q}-verified", two_node_cycle_network(), q, \
            "verified", 4
    # Nodes 4 and 5 reach no sink, so they ACK at t = 0 and freeze edges
    # e0 and e1.
    for q in (2, 3):
        yield f"deadend-q{q}-lean", DEAD_END, q, "lean", 200
        yield f"deadend-q{q}-verified", DEAD_END, q, "verified", 4
        yield f"deadend-q{q}-trace", DEAD_END, q, "trace", 3


def _canonical(x):
    """Dicts as sorted item lists, so digests ignore insertion order."""
    if isinstance(x, dict):
        return [(k, _canonical(v)) for k, v in sorted(x.items())]
    if isinstance(x, (list, tuple)):
        return [_canonical(v) for v in x]
    return x


def _trial_digest(cfg, trials):
    """First 16 hex digits of a SHA-256 over every TrialResult field but
    the seed; the delay only where the trial measures one."""
    h = hashlib.sha256()
    for i in range(trials):
        doc = dataclasses.asdict(run_trial(cfg, i))
        del doc["seed"]
        if not (cfg.verify_decode or cfg.trace):
            del doc["delta"]
        h.update(repr(_canonical(doc)).encode())
    return h.hexdigest()[:16]


def _golden_digests():
    return {name: _trial_digest(SimConfig(topology=topo, field=field_new(q),
                                          base_seed=3, **_MODES[mode]),
                                trials)
            for name, topo, q, mode, trials in _golden_cases()}


# The propagation shortcuts of run_trial (shared relay histories, frozen
# kernels that stop growing, header-only lean trials, ACK passes only on
# sink ACKs) and the in-place Toeplitz rows must leave every digest as is.
GOLDEN = {
    "comb42-q2-lean": "180605c0a501ec04",
    "comb42-q2-verified": "780f3a563f260c5f",
    "comb42-q3-lean": "60d0e6e7ba90a0c6",
    "comb42-q3-verified": "10bdf4b4502e3752",
    "comb42-q4-lean": "97edc5b0fc10141d",
    "comb42-q4-verified": "01cab1889fd784cc",
    "comb42-q256-lean": "9b6a910ffd99d80f",
    "comb42-q256-verified": "eb31537a21de60f6",
    "comb63-q2-lean": "36e6aef9b3ef9544",
    "comb63-q2-verified": "216dddad382c937d",
    "comb63-q3-lean": "e3e3e50a0ed771d8",
    "comb63-q3-verified": "8521c6677b35febe",
    "comb63-q4-lean": "aafaeef9600a4697",
    "comb63-q4-verified": "6a9a4cbe4d62aa72",
    "comb63-q256-lean": "da920f8ca6e78c75",
    "comb63-q256-verified": "5e8aef4986af8c2d",
    "comb82-q2-lean": "81dc3fad9d3c0884",
    "comb82-q2-verified": "30f532a120e7c5ba",
    "comb82-q3-lean": "63166f435ad6f40c",
    "comb82-q3-verified": "20ee78b645ea3af1",
    "comb82-q4-lean": "14930943df8500a8",
    "comb82-q4-verified": "79304c1ebecf449b",
    "comb82-q256-lean": "9ee49f199f9d8f91",
    "comb82-q256-verified": "116a36368f07fd06",
    "comb42-q3-trace": "c82c2a213e707aeb",
    "dag-m1-q2-lean": "a7dcbaf2059dd9a0",
    "dag-m1-q2-verified": "8a46912e18f1c489",
    "dag-m1-q3-lean": "c7d7261cca3163ea",
    "dag-m1-q3-verified": "b8f4d056c12c43bd",
    "dag-m1-q4-lean": "f81a74b475237b95",
    "dag-m1-q4-verified": "39bd68c96f656c2a",
    "dag-m2-q2-lean": "6f9b0b3abfb8cbe9",
    "dag-m2-q2-verified": "24a2360d6d3cbda5",
    "dag-m2-q3-lean": "98cd3202963eca05",
    "dag-m2-q3-verified": "668c002903e7eed4",
    "dag-m2-q4-lean": "196db753bc726531",
    "dag-m2-q4-verified": "c352b2dd207bab18",
    "dag-m3-q2-lean": "239387c7e8929ad4",
    "dag-m3-q2-verified": "d2a7210fb3629fbe",
    "dag-m3-q3-lean": "17ecfff7a4f584d0",
    "dag-m3-q3-verified": "2bc1ed343d26936d",
    "dag-m3-q4-lean": "206784e48694f4af",
    "dag-m3-q4-verified": "864c350b66291315",
    "cycle-q2-lean": "46134853de8c397f",
    "cycle-q2-verified": "d124cc1036c3b193",
    "cycle-q3-lean": "9509b89580b98532",
    "cycle-q3-verified": "ca369a9432dab0f6",
    "cycle-q4-lean": "5936f103c1b429f0",
    "cycle-q4-verified": "11de687792c2dba1",
    "deadend-q2-lean": "cef35434f88f7828",
    "deadend-q2-verified": "67a33b76fdf169aa",
    "deadend-q2-trace": "36acfc8e76900c42",
    "deadend-q3-lean": "2a3d00cea34f8018",
    "deadend-q3-verified": "78d49b0811215ede",
    "deadend-q3-trace": "40070a8ea2e65b85",
}


def test_golden_trial_outputs():
    got = _golden_digests()
    assert sorted(got) == sorted(GOLDEN)
    assert {k: v for k, v in got.items() if v != GOLDEN[k]} == {}
