"""Lockstep blocks, lean and verified, in every field: every result
equals run_trial's, and campaigns take the lockstep path exactly where
that holds."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from arcnc import analysis, baseline, batch, engine
from arcnc.baseline import rlnc_trial, sink_success_fractions
from arcnc.engine import SimConfig, TrialBlock, collect_campaign, run_trial
from arcnc.gf import field_new
from arcnc.polyalg import ToeplitzExpansion
from arcnc.rng import SplitMix64, trial_seed
from arcnc.topology import (Topology, combination_network,
                            random_layered_dag, two_node_cycle_network,
                            validate_multicast)

F2 = field_new(2)


def _lean(topo, q=2, **kw):
    return SimConfig(topology=topo, field=field_new(q), verify_decode=False,
                     verify_headers=False, **kw)


def _first_valid_dag(seed, m):
    while True:
        topo = random_layered_dag(SplitMix64(seed), layers=3,
                                  width=2 * m + 2, m=m)
        if validate_multicast(topo).ok:
            return topo
        seed += 1


def _check_block(cfg, start, stop):
    got = batch.run_block(cfg, start, stop)
    want = TrialBlock.of([run_trial(cfg, i) for i in range(start, stop)])
    assert dataclasses.asdict(got) == dataclasses.asdict(want)
    return got


@pytest.mark.parametrize("n, m, trials", [(4, 2, 200), (6, 2, 200),
                                          (8, 2, 150), (6, 3, 100)])
def test_run_block_matches_run_trial_on_combination_networks(n, m, trials):
    _check_block(_lean(combination_network(n, m), base_seed=21), 0, trials)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_run_block_matches_run_trial_on_random_dags(m):
    for seed in (0, 100):
        topo = _first_valid_dag(seed, m)
        _check_block(_lean(topo, base_seed=seed), 7, 107)


def test_run_block_on_sinks_of_unequal_in_degree():
    topo = _first_valid_dag(100, 2)
    assert len({len(topo.in_edges(r)) for r in topo.sinks}) > 1
    _check_block(_lean(topo, base_seed=4), 0, 128)


# Sink 4 has an out-edge into sink 5, so its own ACK freezes a kernel.
SINK_WITH_OUT_EDGE = Topology(6, ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4),
                                  (4, 5), (3, 5), (2, 5)),
                              source=0, sinks=(4, 5), m=2)


def test_run_block_on_a_sink_with_out_edges():
    assert validate_multicast(SINK_WITH_OUT_EDGE).ok
    _check_block(_lean(SINK_WITH_OUT_EDGE, base_seed=9), 0, 128)


# SINK_WITH_OUT_EDGE with relay 6 hung off node 1: node 6 reaches no sink,
# so it ACKs at t = 0, and its L is 1 + the ACK time of node 1, which
# ACKs with the last sink, at T_N.
DEAD_END = Topology(7, SINK_WITH_OUT_EDGE.edges + ((1, 6),), source=0,
                    sinks=(4, 5), m=2)


def test_run_block_on_a_node_that_reaches_no_sink():
    assert validate_multicast(DEAD_END).ok
    got = _check_block(_lean(DEAD_END, base_seed=9), 0, 128)
    assert got.sum_L[6] == sum(got.T_N) + 128


@pytest.mark.parametrize("max_rounds", [1, 2, 3])
@pytest.mark.parametrize("topo", [combination_network(4, 2),
                                  combination_network(6, 3),
                                  SINK_WITH_OUT_EDGE],
                         ids=["comb42", "comb63", "sinkout"])
def test_run_block_falls_back_at_the_cutoff(topo, max_rounds):
    # Trials still running after max_rounds steps fail in the lockstep,
    # as those that stop at the last step finish there.
    cfg = _lean(topo, base_seed=11, max_rounds=max_rounds)
    _check_block(cfg, 5, 134)


# q = 2 runs in the tests above.
FIELDS = [3, 4, 5, 256]
# Above q = 256 a product goes through the exp/log tables, not the product
# table, and a verified row has 16 bit planes.
BIG = 1 << 16


def _record_reruns(monkeypatch):
    """The list of trial indices run_block hands to run_trial, in order."""
    rerun = []
    monkeypatch.setattr(batch, "run_trial",
                        lambda cfg, i: rerun.append(i) or run_trial(cfg, i))
    return rerun


@pytest.mark.parametrize("q", FIELDS + [BIG])
@pytest.mark.parametrize("n, m, trials", [(4, 2, 200), (6, 3, 100)])
def test_run_block_matches_run_trial_in_every_field(n, m, trials, q):
    _check_block(_lean(combination_network(n, m), q=q, base_seed=21), 0,
                 trials)


@pytest.mark.parametrize("q", FIELDS)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_run_block_on_random_dags_in_every_field(m, q):
    for seed in (0, 100):
        topo = _first_valid_dag(seed, m)
        _check_block(_lean(topo, q=q, base_seed=seed), 7, 107)


@pytest.mark.parametrize("q", FIELDS)
def test_run_block_on_unequal_in_degrees_and_sink_out_edges(q):
    _check_block(_lean(_first_valid_dag(100, 2), q=q, base_seed=4), 0, 128)
    _check_block(_lean(SINK_WITH_OUT_EDGE, q=q, base_seed=9), 0, 128)


@pytest.mark.parametrize("q", FIELDS)
@pytest.mark.parametrize("max_rounds", [1, 2, 3])
@pytest.mark.parametrize("topo", [combination_network(4, 2),
                                  combination_network(6, 3),
                                  SINK_WITH_OUT_EDGE],
                         ids=["comb42", "comb63", "sinkout"])
def test_failed_trials_finish_in_the_lockstep(topo, max_rounds, q,
                                              monkeypatch):
    # Blocks run to max_rounds in every field but GF(2), whose bitmask rows
    # stop at 64 positions, and report the trials that fail themselves.
    rerun = _record_reruns(monkeypatch)
    got = _check_block(_lean(topo, q=q, base_seed=11, max_rounds=max_rounds),
                       5, 134)
    assert rerun == []
    if max_rounds == 1 and q != 256:
        assert not all(got.success)


# Sink 34 reads 33 relays, 33 equations a step over m = 2 new positions.
# Sink 35 reads two of the relays and often needs more steps.
WIDE_SINK = Topology(36, tuple((0, i) for i in range(1, 34))
                     + tuple((i, 34) for i in range(1, 34))
                     + ((1, 35), (2, 35)), source=0, sinks=(34, 35), m=2)


def test_wide_gf2_sink_stays_in_the_bitmask_lockstep(monkeypatch):
    # A rank state grows by m positions a step, however many inputs the
    # sink has, so a 33-input sink fits the bitmask rows for 32 steps.
    assert validate_multicast(WIDE_SINK).ok
    rerun = _record_reruns(monkeypatch)
    got = _check_block(_lean(WIDE_SINK, base_seed=2), 0, 64)
    assert rerun == [] and any(tn > 0 for tn in got.T_N)


# Max-flow 1 < m: every input of sink 10 carries relay 1's one stream, so
# the sink never decodes, and its rank state grows by m = 2 positions a
# step.
NARROW_CUT = Topology(11, ((0, 1),) + tuple((1, i) for i in range(2, 10))
                      + tuple((i, 10) for i in range(2, 10)),
                      source=0, sinks=(10,), m=2)


def test_gf2_trials_past_64_positions_rerun_with_run_trial(monkeypatch):
    # The bitmask rows hold 32 steps of 2 positions; a sink that never
    # decodes outlasts them when max_rounds is 33 or more.
    cfg = _lean(NARROW_CUT, base_seed=2, max_rounds=33)
    rerun = _record_reruns(monkeypatch)
    got = _check_block(cfg, 0, 8)
    assert rerun == list(range(8)) and not any(got.success)


def test_lean_gf2_rows_hold_64_positions(monkeypatch):
    # A lean row keeps bit 63 for an x-position: 32 steps of 2 positions
    # fill it exactly, so at max_rounds 32 no trial re-runs.
    cfg = _lean(NARROW_CUT, base_seed=2, max_rounds=32)
    rerun = _record_reruns(monkeypatch)
    got = _check_block(cfg, 0, 8)
    assert rerun == [] and not any(got.success)


@pytest.mark.parametrize("m", [63, 64, 65])
def test_one_sink_at_the_bit_plane_boundary(m, monkeypatch):
    # comb(m,m) in GF(2): a lean row holds m = 63 and 64 x-positions, a
    # verified one 63 beside y, and a rank state whose step 0 does not fit
    # a row is dense.  Step 0 runs in the lockstep either way, so the RLNC
    # pass gives rlnc_trial's verdicts without calling it.
    topo = combination_network(m, m)
    results = [rlnc_trial(topo, F2, 3, i) for i in range(10)]
    with monkeypatch.context() as patch:
        patch.setattr(baseline, "rlnc_trial", None)     # never called
        fracs, overall = sink_success_fractions(topo, F2, 10, 3)
    assert fracs == {r: sum(res.per_sink[r] for res in results) / 10
                     for r in topo.sinks}
    assert overall == sum(res.success for res in results) / 10
    for verify in (False, True):
        cfg = SimConfig(topology=topo, field=F2, base_seed=3,
                        verify_decode=verify, verify_headers=verify)
        assert batch._bit_packed(cfg) == (m <= 64 - verify)
        _check_block(cfg, 0, 4)


def test_dense_basis_out_of_room_reruns_with_run_trial(monkeypatch):
    assert not validate_multicast(NARROW_CUT).ok
    cfg = _lean(NARROW_CUT, q=3, base_seed=1, max_rounds=6)
    rerun = _record_reruns(monkeypatch)
    got = _check_block(cfg, 0, 8)
    assert rerun == [] and not any(got.success)
    # room for 6 positions, three steps, on 8 waiting pairs
    monkeypatch.setattr(batch, "_BASIS_ENTRIES", 8 * 6 ** 2)
    _check_block(cfg, 0, 8)
    assert rerun == list(range(8))


def test_wide_prime_field_lean_block_stays_in_the_lockstep(monkeypatch):
    # comb(11,4) has 330 sinks of m = 4 inputs.  A lean slice, and so a
    # campaign block, holds 2^20 // (4 m^2 x 330) = 49 trials, so that
    # step 1 has room even if no sink ACKs at step 0: in 128-trial
    # slices the dense basis would have none.
    cfg = _lean(combination_network(11, 4), q=3, base_seed=7)
    assert batch._slice_trials(cfg, batch._block_static(cfg.topology)) == 49
    rerun = _record_reruns(monkeypatch)
    spans = []
    real_lockstep = batch._lockstep
    monkeypatch.setattr(batch, "_lockstep", lambda config, st, i, state: (
        spans.append((i, i + len(state))) or real_lockstep(config, st, i,
                                                           state)))
    got = batch.run_block(cfg, 0, 98)
    assert rerun == [] and spans == [(0, 49), (49, 98)]
    # the first trials, against run_trial's
    want = TrialBlock.of([run_trial(cfg, i) for i in range(4)])
    for name in engine._BLOCK_COLUMNS:
        assert getattr(got, name)[:4] == getattr(want, name)
    for name in ("T", "delta"):
        assert {k: row[:4] for k, row in getattr(got, name).items()} \
            == getattr(want, name)


def test_average_memory_bits_add_up_in_node_order():
    # At q = 3 log2 q is inexact, so m * sum(L) * log2 q / V can differ in
    # the last bit from run_trial's sum over the nodes in node order.
    cfg = _lean(combination_network(4, 2), q=3, base_seed=21)
    got = _check_block(cfg, 0, 40)
    topo = cfg.topology
    whole = [topo.m * sum(run_trial(cfg, i).L.values()) * math.log2(3)
             / topo.num_nodes for i in range(40)]
    assert any(a != b for a, b in zip(whole, got.avg_memory_bits))


# One scripted coefficient on comb(4,2): k(x0->e0, t=0) = 1.
OVERRIDE = {(-1, 0, 0): 1}


def test_run_block_rejects_configs_it_does_not_reproduce():
    # Cyclic configs and configs with overrides run run_trial, lean or
    # verified.
    topo = combination_network(4, 2)
    for cfg in (_lean(two_node_cycle_network(), q=3),
                SimConfig(topology=two_node_cycle_network(), field=F2),
                SimConfig(topology=topo, field=F2, overrides=OVERRIDE),
                _lean(topo, overrides=OVERRIDE)):
        with pytest.raises(ValueError):
            batch.run_block(cfg, 0, 4)
    # A block keeps no kernels or trace lines, and a traced lean trial
    # reports the delay as an untraced one does, so kept-kernel and traced
    # configs run in the lockstep.
    _check_block(_lean(topo, keep_kernels=True), 0, 40)
    _check_block(SimConfig(topology=topo, field=F2, keep_kernels=True), 0, 40)
    _check_block(SimConfig(topology=topo, field=F2, trace=True), 0, 40)
    _check_block(_lean(topo, trace=True), 0, 40)


def test_collect_campaign_takes_the_batch_path_only_when_eligible(
        monkeypatch):
    blocks = []

    def spy(config, start, stop):
        blocks.append((start, stop))
        return real(config, start, stop)

    real = batch.run_block
    monkeypatch.setattr(batch, "run_block", spy)
    topo = combination_network(4, 2)
    # 2^17 // (6 sinks x 2 inputs x m=2) = 5461 lean trials a block:
    # 10,923 trials make three even blocks
    collect_campaign(_lean(topo), 10_923)
    assert blocks == [(0, 3641), (3641, 7282), (7282, 10_923)]
    blocks.clear()
    # a verified block holds BLOCK_TRIALS = 128 trials
    collect_campaign(SimConfig(topology=topo, field=F2), 300)
    assert blocks == [(0, 100), (100, 200), (200, 300)]
    blocks.clear()
    collect_campaign(_lean(topo, q=3), 5)
    # a block keeps no kernels, so a kept-kernel campaign runs there too
    collect_campaign(SimConfig(topology=topo, field=field_new(3),
                               keep_kernels=True), 5)
    assert blocks == [(0, 5), (0, 5)]
    blocks.clear()
    # verified, with m inputs per sink and with 33 on one sink, and traced
    for cfg in (SimConfig(topology=topo, field=field_new(3)),
                SimConfig(topology=WIDE_SINK, field=field_new(3)),
                SimConfig(topology=WIDE_SINK, field=field_new(3),
                          trace=True)):
        collect_campaign(cfg, 5)
    assert blocks == [(0, 5), (0, 5), (0, 5)]
    blocks.clear()
    for cfg in (_lean(two_node_cycle_network(), q=3),
                SimConfig(topology=two_node_cycle_network(),
                          field=field_new(3)),
                SimConfig(topology=topo, field=field_new(3),
                          overrides=OVERRIDE)):
        collect_campaign(cfg, 5)
    assert blocks == []


@pytest.mark.parametrize("cfg, trials, size", [
    # bit-packed lean, dense lean, verified in a prime field (320 pairs
    # over 6 sinks) and verified in GF(4)
    pytest.param(_lean(combination_network(4, 2)), 6000, 5461,
                 id="lean-q2"),
    pytest.param(_lean(combination_network(6, 3), q=3), 1500, 728,
                 id="lean-q3"),
    pytest.param(SimConfig(topology=combination_network(4, 2),
                           field=field_new(3)), 120, 53,
                 id="verified-q3"),
    pytest.param(SimConfig(topology=combination_network(6, 3),
                           field=field_new(4)), 130, 128,
                 id="verified-q4"),
])
def test_a_campaign_block_is_one_lockstep_slice(cfg, trials, size,
                                                monkeypatch):
    # collect_campaign sizes its blocks by the lockstep's one rule, so each
    # block runs as one slice: the fewest blocks of at most `size` trials,
    # as even as can be.
    assert batch._slice_trials(cfg, batch._block_static(cfg.topology)) \
        == size
    blocks, spans = [], []
    real_block, real_lockstep = batch.run_block, batch._lockstep
    monkeypatch.setattr(batch, "run_block", lambda config, i, j: (
        blocks.append((i, j)) or real_block(config, i, j)))
    monkeypatch.setattr(batch, "_lockstep", lambda config, st, i, state: (
        spans.append((i, i + len(state))) or real_lockstep(config, st, i,
                                                           state)))
    collect_campaign(cfg, trials)
    n = -(-trials // size)
    assert blocks == spans == [(trials * i // n, trials * (i + 1) // n)
                               for i in range(n)]


@pytest.mark.parametrize("base_seed", [0, 5, -1, -(1 << 70) - 3, 1 << 64,
                                       (1 << 64) + 7, 3 << 90])
def test_trial_seeds_match_trial_seed(base_seed):
    for start, stop in ((0, 40), ((1 << 40) - 20, (1 << 40) + 20)):
        want = [trial_seed(base_seed, i) for i in range(start, stop)]
        assert batch.trial_seeds(base_seed, start, stop).tolist() == want


def test_importing_the_engine_and_cli_does_not_import_numpy():
    # numpy's import would add to every interpreter's start-up; only a
    # lean campaign on an acyclic network needs it.
    src = Path(engine.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, arcnc.engine, arcnc.harness; "
            "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


_NO_NUMPY_CAMPAIGN = """
import sys

from arcnc import engine
from arcnc.gf import field_new
from arcnc.topology import two_node_cycle_network

real_run_block = engine._run_block


def checked_run_block(args):
    block = real_run_block(args)
    if "numpy" in sys.modules:
        raise RuntimeError("a run_trial block imported numpy")
    return block


engine._run_block = checked_run_block

if __name__ == "__main__":
    cyclic = engine.SimConfig(topology=two_node_cycle_network(),
                              field=field_new(3))
    lean_cyclic = engine.SimConfig(topology=two_node_cycle_network(),
                                   field=field_new(3), verify_decode=False,
                                   verify_headers=False)
    for cfg, trials in ((cyclic, 40), (lean_cyclic, 40)):
        for workers in (1, 2):
            engine.collect_campaign(cfg, trials, workers=workers)
    print("numpy" in sys.modules)
"""


def test_q3_campaigns_do_not_import_numpy(tmp_path):
    # Only the lockstep needs numpy; a pool worker that imports it grows by
    # megabytes.  Cyclic campaigns, verified or lean, run run_trial blocks,
    # and every block, in-process and in the workers, checks.
    script = tmp_path / "campaign.py"
    script.write_text(_NO_NUMPY_CAMPAIGN)
    src = Path(engine.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, str(script)], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "False"


def _columns(blocks):
    """F_t of every pair, m x c each, as the lockstep's (m, c, pairs)
    array."""
    return np.array(blocks, dtype=np.int64).transpose(1, 2, 0)


def _ones(m, *cols):
    """An m x c 0/1 matrix whose column k has its ones in rows cols[k]."""
    return [[int(r in col) for col in cols] for r in range(m)]


def test_reduced_echelon_basis_matches_toeplitz_expansion():
    # Each column of the GF(2) bit-packed arrays, one plane, is one
    # (sink, trial) rank state.  With m = 32, F_0's row j sits at bit j
    # after step 0 and at bit 32 + j after step 1, and F_1's row j at bit j.
    m, c = 32, 2
    cases = [
        (_ones(m, {0}, {31}), _ones(m, {0}, {31})),
        (_ones(m, {0, 31}, {0, 31}), _ones(m, {31}, {0, 31})),
        (_ones(m, {0}, ()), _ones(m, {0}, {0, 31})),
        (_ones(m, (), ()), _ones(m, {0}, {31})),
        (_ones(m, {31}, {0, 31}), _ones(m, {0, 31}, {0})),
    ]
    rand = SplitMix64(3)
    cases += [tuple([[rand.randint(2) if j in (0, 1, 30, 31) else 0
                      for _ in range(c)] for j in range(m)]
                    for _ in range(2)) for _ in range(40)]
    n = len(cases)
    rank = batch._PlaneBasis(n, c, 2)
    scalar = [ToeplitzExpansion(F2, m, c) for _ in cases]
    for t in range(2):
        inc = rank.extend(_columns([case[t] for case in cases]))
        assert inc.tolist() == [te.extend(case[t])
                                for te, case in zip(scalar, cases)]
    basis = rank.basis[:, 0]
    # the first case has its pivots at bits 0 and 63
    pivots = [p for p in range(64) if basis[p, 0]]
    assert pivots == [0, 31, 32, 63]
    for col in range(n):
        rows = basis[:, col].tolist()
        for p, row in enumerate(rows):
            if row:
                assert row >> p & 1
                assert not any(other >> p & 1 for q, other in enumerate(rows)
                               if q != p)


@pytest.mark.parametrize("q", FIELDS)
def test_dense_basis_matches_toeplitz_expansion(q):
    # Each last index of the dense arrays is one (sink, trial) rank
    # state.  Entries drawn from {0, 1, q - 1} on a few columns, and whole
    # zero blocks, make rank deficits common.
    field = field_new(q)
    m, c, steps, n = 2, 3, 4, 300
    rand = SplitMix64(q)
    pick = (0, 0, 1, q - 1)
    cases = [[[[pick[rand.randint(4)] if j != 1 else 0 for j in range(c)]
               for _ in range(m)] if rand.randint(4) else [[0] * c] * m
              for _ in range(steps)] for _ in range(n)]
    rank = batch._Basis(batch.array_field(q), n, c)
    scalar = [ToeplitzExpansion(field, m, c) for _ in cases]
    deficits = 0
    for t in range(steps):
        inc = rank.extend(_columns([case[t] for case in cases]))
        want = [te.extend(case[t]) for te, case in zip(scalar, cases)]
        assert inc.tolist() == want
        deficits += sum(w < m for w in want)
    assert deficits > n
    # slot p holds a row with value 1 at position p, and position p is zero
    # in every other row
    for basis in rank.basis.transpose(2, 0, 1).tolist():
        for p, row in enumerate(basis):
            assert all(v == 0 for v in row) or row[p] == 1
            assert all(other[p] == 0 for o, other in enumerate(basis)
                       if o != p and any(basis[p]))


@pytest.mark.parametrize("q", [2, 4, 8, 2**16])
def test_plane_basis_matches_toeplitz_expansion(q):
    # Each last index of the bit-plane arrays is one (sink, trial) rank
    # state with its symbols: y_t = sum_s x_s F_{t-s} of drawn x, with one
    # symbol changed in every other case, so that some cases turn
    # inconsistent, at some step, and others never do.
    field = field_new(q)
    m, c, steps, n = 2, 3, 6, 300
    rand = SplitMix64(q)
    pick = (0, 0, 1, q - 1)
    cases = [[[[pick[rand.randint(4)] if j != 1 else 0 for j in range(c)]
               for _ in range(m)] if rand.randint(4) else [[0] * c] * m
              for _ in range(steps)] for _ in range(n)]
    xs = [[[rand.randint(q) for _ in range(m)] for _ in range(steps)]
          for _ in cases]
    ys = []
    for i, (case, x) in enumerate(zip(cases, xs)):
        y = [[0] * c for _ in range(steps)]
        for t in range(steps):
            for s in range(t + 1):
                for j in range(m):
                    for col in range(c):
                        y[t][col] = field.add(y[t][col], field.mul(
                            x[s][j], case[t - s][j][col]))
        if i % 2:
            t, col = rand.randint(steps), rand.randint(c)
            y[t][col] = field.add(y[t][col], 1 + rand.randint(q - 1))
        ys.append(y)
    rank = batch._PlaneBasis(n, c, q, symbols=True)
    scalar = [ToeplitzExpansion(field, m, c) for _ in cases]
    for t in range(steps):
        was = [0 in te.basis.rows for te in scalar]
        inc = rank.extend(_columns([case[t] for case in cases]),
                          np.array([y[t] for y in ys]).T)
        assert inc.tolist() == [te.extend(case[t], y[t]) for te, case, y
                                in zip(scalar, cases, ys)]
        # `bad` marks the pairs whose equations reduced to 0 = y != 0 at
        # this step, which the scalar basis stores at lead 0
        now = [0 in te.basis.rows for te in scalar]
        assert ([b for b, w in zip(rank.bad.tolist(), was) if not w]
                == [b for b, w in zip(now, was) if not w])
    assert 0 < sum(now) < n // 2
    # slot p holds a row with entry 1 at position p, and position p is
    # zero in every other row
    k, P = q.bit_length() - 1, steps * m
    basis = rank.basis.tolist()
    for i in range(n):
        rows = [[sum((basis[s][u][i] >> p & 1) << u for u in range(k))
                 for p in range(P)] for s in range(P)]
        for p, row in enumerate(rows):
            assert not any(row) or row[p] == 1
            assert not any(row) or all(other[p] == 0 for o, other in
                                       enumerate(rows) if o != p)
    # the consistent cases determine the x that scalar `solve` does, the
    # drawn x where no symbol was changed
    values, unit = rank.solved(np.arange(n))
    for i, te in enumerate(scalar):
        if not now[i]:
            want = [v for x in te.solve() for v in x]
            assert [v if u else None for v, u in zip(values[i].tolist(),
                                                    unit[i].tolist())] == want
            assert i % 2 or all(v in (None, x) for v, x in
                                zip(want, [x for s in xs[i] for x in s]))


# 1021 is the largest prime below 2^10, whose dense basis reduces in int32,
# and 1031 the smallest above, whose basis takes int64; GF(2^16) reduces
# in int32.  Below 2^10 a prime's entries are of the narrowest type that
# holds (q-1)^2: 11 is the largest prime in int8 and 13 the smallest in
# int16, 181 the largest in int16 and 191 the smallest in int32.
@pytest.mark.parametrize("q, dtype, verify", [
    (1021, np.int32, False), (1021, np.int32, True),
    (1031, np.int64, False), (1031, np.int64, True),
    (BIG, np.int32, False),
    (11, np.int8, False), (11, np.int8, True),
    (13, np.int16, False), (13, np.int16, True),
    (181, np.int16, False), (181, np.int16, True),
    (191, np.int32, False), (191, np.int32, True)])
def test_dense_basis_dtype_boundary(q, dtype, verify):
    assert batch.array_field(q).dtype == dtype
    _check_block(SimConfig(topology=combination_network(4, 2),
                           field=field_new(q), base_seed=29,
                           verify_decode=verify, verify_headers=verify),
                 0, 200)


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 181, 191, 1021, 1031])
def test_prime_field_sums_do_not_overflow(q):
    # Every operand at its largest, q - 1, against Python ints mod q: a
    # sum of 2^10 products (a dense row's most positions), a product and
    # c - a*b, in the field's dtype, and a matrix product of 2^10 terms.
    fld = batch.array_field(q)
    top = q - 1
    c = np.array([0, 1, top], dtype=fld.dtype)
    big = np.full((1 << 10, 3), top, dtype=fld.dtype)
    got = fld.subsum(c, big, big)
    assert got.dtype == fld.dtype
    assert got.tolist() == [(x - (top * top << 10)) % q for x in (0, 1, top)]
    a = np.full(3, top, dtype=fld.dtype)
    assert fld.submul(c, a, a).tolist() == [(x - top * top) % q
                                            for x in (0, 1, top)]
    assert fld.mul(a, a).tolist() == [top * top % q] * 3
    row = np.full((1, 1 << 10), top, dtype=fld.dtype)
    assert fld.dot(row, row.T).tolist() == [[(top * top << 10) % q]]


# ---------------------------------------------------------------------------
# verified blocks: the symbols, the tail up to the horizon and the checks
# ---------------------------------------------------------------------------

ALL_FIELDS = [2] + FIELDS


def _verified(topo, q=2, **kw):
    return SimConfig(topology=topo, field=field_new(q), **kw)


def _square_dag(seed, m):
    """A random layered DAG whose sinks are the last-layer nodes with
    exactly m inputs; the other last-layer nodes reach no sink."""
    while True:
        topo = random_layered_dag(SplitMix64(seed), layers=3,
                                  width=2 * m + 2, m=m)
        sinks = tuple(r for r in topo.sinks if len(topo.in_edges(r)) == m)
        if sinks:
            topo = Topology(topo.num_nodes, topo.edges, source=0,
                            sinks=sinks, m=m)
            if validate_multicast(topo).ok:
                return topo
        seed += 1


def _check_verified(cfg, start, stop):
    """_check_block on a verified config: the blocks agree in every field,
    the delay of every (sink, trial) pair included."""
    got = _check_block(cfg, start, stop)
    assert any(d is not None for row in got.delta.values() for d in row)
    return got


@pytest.mark.parametrize("q", ALL_FIELDS + [BIG])
@pytest.mark.parametrize("n, m, trials", [(4, 2, 200), (6, 3, 60)])
def test_verified_run_block_matches_run_trial(n, m, trials, q, monkeypatch):
    rerun = _record_reruns(monkeypatch)
    _check_verified(_verified(combination_network(n, m), q=q, base_seed=23),
                    0, trials)
    assert len(rerun) < trials // 10


@pytest.mark.parametrize("q", ALL_FIELDS)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_verified_run_block_on_square_random_dags(m, q):
    for seed in (0, 100):
        topo = _square_dag(seed, m)
        assert engine._batchable(_verified(topo))
        if m > 1:
            # a node between the source and the sinks codes, so the
            # propagation and the header check see more than the source
            assert any(len(topo.in_edges(v)) > 1 and topo.out_edges(v)
                       for v in range(1, topo.num_nodes))
        _check_verified(_verified(topo, q=q, base_seed=seed), 3, 63)


# Sink 12 reads three edges; its first full-rank column pair has a
# determinant of valuation 10 in trial 27 at base seed 202, its delay 3.
MULTIHOP = Topology(num_nodes=13, edges=(
    (0, 1), (0, 2), (0, 3), (1, 4), (3, 4), (1, 5), (3, 5), (1, 6), (3, 6),
    (4, 7), (5, 7), (6, 7), (4, 8), (4, 9), (5, 9), (6, 9), (8, 10), (9, 10),
    (8, 11), (9, 11), (7, 12), (8, 12), (9, 12)),
    source=0, sinks=(10, 11, 12), m=2)


@pytest.mark.parametrize("q", ALL_FIELDS)
@pytest.mark.parametrize("topo", [_first_valid_dag(seed, m) for m in (1, 2, 3)
                                  for seed in (0, 100)]
                         + [MULTIHOP, WIDE_SINK],
                         ids=[f"dag-m{m}-{seed}" for m in (1, 2, 3)
                              for seed in (0, 100)] + ["multihop", "wide"])
def test_verified_run_block_on_wide_sinks(topo, q):
    # The lean tests' random DAGs, the multihop DAG and the 33-input sink:
    # on a sink with more than m inputs the delay is the summed rank
    # deficits too.
    assert any(len(topo.in_edges(r)) > topo.m for r in topo.sinks)
    _check_verified(_verified(topo, q=q, base_seed=202, max_rounds=40),
                    0, 60)


# Sink 4 codes onto an out-edge into sink 5, whose header check then reads
# a coded edge, and its own ACK freezes that kernel.
SQUARE_SINK_WITH_OUT_EDGE = Topology(
    6, ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (4, 5), (3, 5)), source=0,
    sinks=(4, 5), m=2)


@pytest.mark.parametrize("q", ALL_FIELDS)
def test_verified_run_block_on_a_square_sink_with_out_edges(q):
    assert validate_multicast(SQUARE_SINK_WITH_OUT_EDGE).ok
    _check_verified(_verified(SQUARE_SINK_WITH_OUT_EDGE, q=q, base_seed=9),
                    0, 128)


def test_verified_run_block_on_a_node_that_reaches_no_sink():
    got = _check_verified(_verified(DEAD_END, q=3, base_seed=9), 0, 128)
    assert got.sum_L[6] == sum(got.T_N) + 128


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("max_rounds", [1, 2, 3])
@pytest.mark.parametrize("topo", [combination_network(4, 2),
                                  combination_network(6, 3),
                                  _square_dag(100, 2)],
                         ids=["comb42", "comb63", "dag"])
def test_verified_failed_trials_finish_in_the_lockstep(topo, max_rounds, q,
                                                       monkeypatch):
    # Failed trials stop at max_rounds; the trials that succeed run their
    # tail past it, up to their horizon.
    rerun = _record_reruns(monkeypatch)
    got = _check_block(_verified(topo, q=q, base_seed=11,
                                 max_rounds=max_rounds), 5, 134)
    assert rerun == []
    if max_rounds == 1:
        assert not all(got.success)


def test_verified_tail_runs_past_max_rounds(monkeypatch):
    # At max_rounds 1 a trial succeeds only with T_N = 0; its horizon is
    # 1, so its tail runs one step past max_rounds.
    rerun = _record_reruns(monkeypatch)
    got = _check_block(_verified(combination_network(4, 2), q=4,
                                 base_seed=11, max_rounds=1), 0, 100)
    assert rerun == [] and 0 < sum(got.success) < 100


@pytest.mark.parametrize("q", [2, 4])
def test_verified_trials_past_64_positions_rerun_with_run_trial(q,
                                                                monkeypatch):
    # One sink with m = 8 inputs: a bitmask row holds 63 x-positions and
    # y, so a trial whose horizon H has (H+1)*8 + 1 > 64 re-runs.
    rerun = _record_reruns(monkeypatch)
    cfg = _verified(combination_network(8, 8), q=q, base_seed=1)
    _check_block(cfg, 0, 30)
    if q == 2:
        assert 0 < len(rerun) < 30


def test_verified_dense_basis_out_of_room_reruns_with_run_trial(monkeypatch):
    cfg = _verified(combination_network(4, 2), q=3, base_seed=2)
    rerun = _record_reruns(monkeypatch)
    _check_verified(cfg, 0, 40)
    assert rerun == []
    # room for 6 x-positions and y, three steps, on 6 * 40 pairs
    monkeypatch.setattr(batch, "_BASIS_ENTRIES", 6 * 40 * 6 * 7)
    _check_block(cfg, 0, 40)
    assert 0 < len(rerun) < 40


def _absorbed_json(cfg, trials):
    """The summary of trials 0..trials-1, absorbed one run_trial result at
    a time, as JSON with sorted keys."""
    topo = cfg.topology
    summary = engine.CampaignSummary(trials=trials, q=cfg.field.q, m=topo.m,
                                     d=len(topo.sinks), eta=engine.eta(topo))
    for i in range(trials):
        summary.absorb(run_trial(cfg, i))
    return json.dumps(summary.to_json_dict(), sort_keys=True)


# _BASIS_ENTRIES at which some, not all, of the first 40 trials at base
# seed 17 run out of room, lean and verified
RERUN_ENTRIES = {("comb63", False): 500, ("comb63", True): 100_000,
                 ("dag", False): 200, ("dag", True): 800}


@pytest.mark.parametrize("case", ["plain", "failed", "rerun"])
@pytest.mark.parametrize("verify", [False, True], ids=["lean", "verified"])
@pytest.mark.parametrize("name, topo", [
    ("comb63", combination_network(6, 3)), ("dag", _first_valid_dag(100, 2))],
    ids=["comb63", "dag"])
def test_campaign_counts_equal_absorbed_run_trials(name, topo, verify, case,
                                                   monkeypatch):
    # A lockstep block's counts are bincounts over its arrays, a run_trial
    # block's are Counters; merged, they give the summary of absorbing
    # each run_trial result, with failed trials (max_rounds 2) and with
    # trials re-run for lack of room written into the arrays.
    cfg = SimConfig(topology=topo, field=field_new(3), base_seed=17,
                    verify_decode=verify, verify_headers=verify,
                    max_rounds=2 if case == "failed" else 50)
    rerun = _record_reruns(monkeypatch)
    if case == "rerun":
        monkeypatch.setattr(batch, "_BASIS_ENTRIES",
                            RERUN_ENTRIES[name, verify])
    got = collect_campaign(cfg, 40)
    assert json.dumps(got.to_json_dict(), sort_keys=True) \
        == _absorbed_json(cfg, 40)
    assert (0 < len(rerun) < 40) if case == "rerun" else rerun == []
    if case == "failed":
        assert got.success_count < 40


def _check_equal_delays(topo, q, monkeypatch, entries=None, **kw):
    """Lean and verified blocks of trials 0..39 at base seed 17, each
    equal to run_trial's, report the same delays, None only in failed
    trials; with `entries`, {verify_decode: _BASIS_ENTRIES}, some of the
    trials of each run out of room and re-run with run_trial."""
    blocks = []
    for cfg in (_lean(topo, q=q, base_seed=17, **kw),
                _verified(topo, q=q, base_seed=17, **kw)):
        rerun = _record_reruns(monkeypatch)
        if entries:
            monkeypatch.setattr(batch, "_BASIS_ENTRIES",
                                entries[cfg.verify_decode])
        blocks.append(_check_block(cfg, 0, 40))
        assert (0 < len(rerun) < 40) if entries else rerun == []
    lean, full = blocks
    assert lean.T == full.T and lean.delta == full.delta
    assert all((d is None) == (not ok) for row in lean.delta.values()
               for d, ok in zip(row, lean.success))
    return lean


@pytest.mark.parametrize("max_rounds", [2, 50])
@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("topo", [
    combination_network(4, 2), combination_network(6, 3),
    _first_valid_dag(100, 2), _first_valid_dag(0, 3), WIDE_SINK],
    ids=["comb42", "comb63", "dag", "dag3", "wide"])
def test_lean_and_verified_blocks_report_equal_delays(topo, q, max_rounds,
                                                      monkeypatch):
    # verify_decode switches on the checks alone, so a lean block reports
    # the delays a verified one does, trial for trial; at max_rounds 2
    # some trials fail.
    lean = _check_equal_delays(topo, q, monkeypatch, max_rounds=max_rounds)
    assert all(lean.success) == (max_rounds == 50)


@pytest.mark.parametrize("name, topo", [
    ("comb63", combination_network(6, 3)), ("dag", _first_valid_dag(100, 2))],
    ids=["comb63", "dag"])
def test_rerun_trials_report_equal_delays(name, topo, monkeypatch):
    _check_equal_delays(topo, 3, monkeypatch, entries={
        v: RERUN_ENTRIES[name, v] for v in (False, True)})


@pytest.mark.parametrize("q, m", [(2, 1), (2, 2), (3, 2), (4, 2), (5, 2),
                                  (8, 2), (2, 3), (3, 3), (4, 3), (2, 4)])
def test_lean_delay_matches_the_exact_law(q, m):
    # An oracle that is not an engine.  A comb(m+1, m) sink reads m relays
    # of the source, whose kernels draw fresh coefficients through the
    # sink's ACK, so its kernel matrix is Haar-random over F_q[[z]]; its
    # delay is the sum d_1 + ... + d_m of the Smith form's valuations,
    # whose mean under the Cohen-Lenstra law is `analysis.mean_delay`,
    # sum_{i=1..m} 1/(q^i - 1) (4/3 at q = 2, m = 2).  Only the first sink
    # is read, as the sinks of one trial share relays, so its 20,000 delays
    # are iid.
    topo, trials = combination_network(m + 1, m), 20_000
    block = batch.run_block(_lean(topo, q=q, base_seed=41), 0, trials)
    assert all(block.success)
    d = np.array(block.delta[topo.sinks[0]], dtype=np.float64)
    want = float(analysis.mean_delay(q, m))
    z = (d.mean() - want) / (d.std(ddof=1) / math.sqrt(trials))
    # A fixed bound, not one tuned to the seed: |z| > 4 has probability
    # 6e-5 under the law, so the grid of ten cells fails by chance about
    # once in 1,600 seeds.  Dropping step 0's deficit, counting a deficit
    # step as 1, or reusing one draw for two coding pairs each fails cells
    # of the grid.
    assert abs(z) <= 4, (d.mean(), want, z)


# chi^2 quantiles at p = 1e-4, by degrees of freedom
_CHI2_1E4 = {1: 15.14, 2: 18.42, 3: 21.11, 4: 23.51}


def _T_chi2(hist, trials, q, m):
    """(chi^2, its p = 1e-4 threshold) of the T histogram `hist` of
    `trials` iid sinks against `analysis.stopping_law`, in bins 0..3 and
    >= 4, merged from the top until each expects at least 5 trials."""
    cdf = [analysis.stopping_law(q, m, t) for t in range(4)] + [1]
    want = [trials * float(b - a) for a, b in zip([0] + cdf, cdf)]
    got = [hist.get(t, 0) for t in range(4)]
    got.append(trials - sum(got))
    while want[-1] < 5:
        want[-2:] = [sum(want[-2:])]
        got[-2:] = [sum(got[-2:])]
    return (sum((g - w) ** 2 / w for g, w in zip(got, want)),
            _CHI2_1E4[len(want) - 1])


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 11, 16])
def test_lean_stopping_time_matches_the_exact_law(q, m, monkeypatch):
    # The T half of the oracle above: the first sink's T against
    # `analysis.stopping_law` by chi^2, in bins 0..3 and >= 4, merged from
    # the top until each expects at least 5 trials (at q = 16 the top two
    # expect 0.3 and 4.9).  The grid runs the bit planes (q = 2, 4, 8, 16),
    # the int8 dense basis (q = 3, 5, 7, 11) and the int8 boundary at 11.
    topo, trials = combination_network(m + 1, m), 20_000
    reruns = _record_reruns(monkeypatch)
    block = batch.run_block(_lean(topo, q=q, base_seed=41), 0, trials)
    assert all(block.success)
    # Trials out of room re-run in run_trial (one at q = 2, m = 4), so a
    # lockstep fault that stalls its trials would reach the histogram
    # through the other engine.
    assert len(reruns) <= trials // 1000
    chi2, bound = _T_chi2(block.per_sink_T_hist[topo.sinks[0]], trials, q, m)
    # A fixed threshold, not one tuned to the seed: under the law each cell
    # exceeds it with probability 1e-4, so the 32 cells fail by chance
    # about once in 300 seeds.  An ACK one step late, a rank without the
    # Toeplitz shift or one draw used for two pairs each fails cells of the
    # grid.
    assert chi2 <= bound, chi2


@pytest.mark.parametrize("q, m", [(2, 2), (3, 2), (4, 3)],
                         ids=["planes-q2", "dense-q3", "planes-q4"])
def test_verified_blocks_match_the_exact_law(q, m, monkeypatch):
    # The law's T and mean delay, on verified blocks: bit planes at q = 2,
    # the dense prime-field basis at q = 3 and GF(4) planes at q = 4, each
    # with its sink input checks, tail steps and decode check.  Thresholds
    # are the grid's: chi^2 at p = 1e-4 and the mean delay within 3
    # standard errors.
    topo, trials = combination_network(m + 1, m), 5_000
    reruns = _record_reruns(monkeypatch)
    block = batch.run_block(_verified(topo, q=q, base_seed=41), 0, trials)
    assert all(block.success)
    assert len(reruns) <= trials // 1000
    first = topo.sinks[0]
    chi2, bound = _T_chi2(block.per_sink_T_hist[first], trials, q, m)
    assert chi2 <= bound, chi2
    d = np.array(block.delta[first], dtype=np.float64)
    want = float(analysis.mean_delay(q, m))
    assert abs(d.mean() - want) <= 3 * d.std(ddof=1) / math.sqrt(trials), (
        d.mean(), want)


def test_verified_blocks_split_into_sub_blocks(monkeypatch):
    # A dense basis holds at most _VERIFIED_PAIRS pairs: 6 sinks of
    # comb(4,2) make sub-blocks of 2 trials.
    monkeypatch.setattr(batch, "_VERIFIED_PAIRS", 12)
    spans = []
    real = batch._lockstep
    monkeypatch.setattr(batch, "_lockstep", lambda config, st, i, state: (
        spans.append((i, i + len(state))) or real(config, st, i, state)))
    _check_verified(_verified(combination_network(4, 2), q=5, base_seed=3),
                    0, 7)
    assert spans == [(0, 2), (2, 4), (4, 6), (6, 7)]


def _break_step(monkeypatch, t, change):
    """Apply `change(f)` to the header array of step t right after the
    lockstep propagates it."""
    real = batch._propagate

    def broken(fld, conv, khist, fhist, step):
        real(fld, conv, khist, fhist, step)
        if step == t:
            change(fhist[t])

    monkeypatch.setattr(batch, "_propagate", broken)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_verified_lockstep_reports_a_wrong_decode(q, monkeypatch):
    # A read-off that gets one determined symbol wrong must not pass.
    cls = batch._Basis if q == 3 else batch._PlaneBasis
    real = cls.solved

    def flip_one(self, pairs):
        values, known = real(self, pairs)
        values[0, 0] = (values[0, 0] + 1) % q
        return values, known

    monkeypatch.setattr(cls, "solved", flip_one)
    cfg = _verified(combination_network(4, 2), q=q, base_seed=5)
    with pytest.raises(engine.EngineError,
                       match=r"trial \d+, sink \d+: decode failure on "
                             r"symbol 0"):
        batch.run_block(cfg, 0, 8)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("row", ["symbol", "header"])
def test_verified_lockstep_checks_the_headers(q, row, monkeypatch):
    # One changed entry at step 1 on the first sink input root of trial 2:
    # y_e = x . f_e fails there, whichever of the two changed.
    cfg = _verified(combination_network(4, 2), q=q, base_seed=5)
    st = batch._block_static(cfg.topology)
    root = st["checked_roots"][0]
    e, r = st["checked"][0]

    def change(f):
        i = (root, cfg.topology.m if row == "symbol" else 0, 2)
        f[i] = (f[i] + 1) % q

    _break_step(monkeypatch, 1, change)
    # A changed header coefficient f_{e,1} shows at the first t with
    # x_{t-1} != 0 in its component, a changed symbol at t = 1.
    with pytest.raises(engine.EngineError,
                       match=f"trial 2, sink {r}: header inconsistency on "
                             f"edge e{e} at t="):
        batch.run_block(cfg, 0, 8)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_verified_lockstep_without_header_check_reports_a_changed_symbol(
        q, monkeypatch):
    # With verify_headers off, a changed received symbol still fails the
    # decode: the sink's equations no longer hold for the drawn x.
    cfg = _verified(combination_network(4, 2), q=q, base_seed=5,
                    verify_headers=False)
    st = batch._block_static(cfg.topology)
    m = cfg.topology.m

    def change(f):
        f[st["checked_roots"], m, 2] = (f[st["checked_roots"], m, 2] + 1) % q

    _break_step(monkeypatch, 0, change)
    with pytest.raises(engine.EngineError, match=r"trial 2, sink \d+: "):
        batch.run_block(cfg, 0, 8)


@pytest.mark.parametrize("P", [1, 2, 7, 300, 1024])
def test_first_true_is_argmax_or_past_the_end(P):
    # _first_true gives argmax(axis=0) where a column has a True entry and
    # P where it has none
    rng = np.random.default_rng(P)
    for density in (0.0, 0.01, 0.3, 1.0):
        nz = rng.random((P, 500)) < density
        nz[:, :3] = False              # all-zero columns in every case
        nz[-1, 3] = True               # a column whose only entry is last
        got = batch._first_true(nz)
        assert got.dtype == np.intp
        assert ((got % P) == nz.argmax(axis=0)).all()
        assert ((got == P) == ~nz.any(axis=0)).all()


@pytest.mark.parametrize("q, plane", [(3, False), (4, False), (2, True),
                                      (4, True)])
@pytest.mark.parametrize("symbols", [False, True])
def test_keep_by_index_equals_boolean_selection(q, plane, symbols):
    n, m, c = 40, 2, 3
    rng = np.random.default_rng(q)

    def state():
        rank = batch._PlaneBasis(n, c, q, symbols) if plane else \
            batch._Basis(batch.array_field(q), n, c, symbols)
        for _ in range(2):
            rank.extend(rng.integers(0, q, (m, c, n)),
                        rng.integers(0, q, (c, n)) if symbols else None)
        return rank

    rank = state()
    mask = rng.random(n) < 0.5
    want = rank.eqs[:, :, mask], rank.basis[:, :, mask]
    assert want[1].any()
    rank.keep(np.flatnonzero(mask))
    assert (rank.eqs == want[0]).all() and (rank.basis == want[1]).all()
    assert rank.eqs.shape == want[0].shape
    assert rank.basis.shape == want[1].shape
