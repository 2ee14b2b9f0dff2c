"""Lockstep lean GF(2) blocks: every result equals run_trial's, and
campaigns take the lockstep path exactly where that holds."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from arcnc import batch, engine
from arcnc.engine import SimConfig, TrialBlock, collect_campaign, run_trial
from arcnc.gf import field_new
from arcnc.polyalg import ToeplitzExpansion
from arcnc.rng import SplitMix64, trial_seed
from arcnc.topology import (Topology, combination_network,
                            random_layered_dag, validate_multicast)

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


@pytest.mark.parametrize("max_rounds", [1, 2, 3])
@pytest.mark.parametrize("topo", [combination_network(4, 2),
                                  combination_network(6, 3),
                                  SINK_WITH_OUT_EDGE],
                         ids=["comb42", "comb63", "sinkout"])
def test_run_block_falls_back_at_the_cutoff(topo, max_rounds):
    # Trials still running after max_rounds steps fail; run_trial re-runs
    # them, and those that stop at the last step finish in the lockstep.
    cfg = _lean(topo, base_seed=11, max_rounds=max_rounds)
    _check_block(cfg, 5, 134)


def test_run_block_rejects_configs_it_does_not_reproduce():
    topo = combination_network(4, 2)
    for cfg in (_lean(topo, q=3), SimConfig(topology=topo, field=F2),
                _lean(topo, keep_kernels=True), _lean(topo, trace=True)):
        with pytest.raises(ValueError):
            batch.run_block(cfg, 0, 4)


def test_collect_campaign_takes_the_batch_path_only_when_eligible(
        monkeypatch):
    blocks = []

    def spy(config, start, stop):
        blocks.append((start, stop))
        return real(config, start, stop)

    real = batch.run_block
    monkeypatch.setattr(batch, "run_block", spy)
    topo = combination_network(4, 2)
    collect_campaign(_lean(topo), 300)
    assert blocks == [(0, 128), (128, 256), (256, 300)]
    blocks.clear()
    for cfg in (_lean(topo, q=3), SimConfig(topology=topo, field=F2)):
        collect_campaign(cfg, 5)
    assert blocks == []


@pytest.mark.parametrize("base_seed", [0, 5, -1, -(1 << 70) - 3, 1 << 64,
                                       (1 << 64) + 7, 3 << 90])
def test_trial_seeds_match_trial_seed(base_seed):
    for start, stop in ((0, 40), ((1 << 40) - 20, (1 << 40) + 20)):
        want = [trial_seed(base_seed, i) for i in range(start, stop)]
        assert batch.trial_seeds(base_seed, start, stop).tolist() == want


def test_importing_the_engine_and_cli_does_not_import_numpy():
    # numpy's import would add to every interpreter's start-up; only a
    # lean GF(2) campaign needs it.
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
from arcnc.topology import combination_network

real_run_block = engine._run_block


def checked_run_block(args):
    block = real_run_block(args)
    if "numpy" in sys.modules:
        raise RuntimeError("a q=3 block imported numpy")
    return block


engine._run_block = checked_run_block

if __name__ == "__main__":
    cfg = engine.SimConfig(topology=combination_network(4, 2),
                           field=field_new(3), verify_decode=False,
                           verify_headers=False)
    for workers in (1, 2):
        engine.collect_campaign(cfg, 40, workers=workers)
    print("numpy" in sys.modules)
"""


def test_q3_campaigns_do_not_import_numpy(tmp_path):
    # Only the lockstep needs numpy; a pool worker that imports it grows by
    # megabytes.  Every block, in-process and in the workers, checks.
    script = tmp_path / "campaign.py"
    script.write_text(_NO_NUMPY_CAMPAIGN)
    src = Path(engine.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, str(script)], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "False"


def _row(c, *cols):
    return [int(j in cols) for j in range(c)]


def test_reduced_echelon_basis_matches_toeplitz_expansion():
    # Each column of the lockstep's arrays is one (sink, trial) rank state.
    # With c = 32, F_0's column 0 sits at bit 31 after step 0 and at bit 63
    # after step 1, and F_1's column 31 at bit 0.
    c, m = 32, 2
    zero = _row(c)
    cases = [
        ([_row(c, 0), _row(c, 31)], [_row(c, 31), _row(c, 0)]),
        ([_row(c, 0, 31), _row(c, 0, 31)], [_row(c, 31), _row(c, 0, 31)]),
        ([_row(c, 0), zero], [_row(c, 0), _row(c, 0, 31)]),
        ([zero, zero], [_row(c, 0), _row(c, 31)]),
        ([_row(c, 31), _row(c, 0, 31)], [_row(c, 0, 31), _row(c, 0)]),
    ]
    rand = SplitMix64(3)
    cases += [tuple([[rand.randint(2) if j in (0, 1, 30, 31) else 0
                      for j in range(c)] for _ in range(m)]
                    for _ in range(2)) for _ in range(40)]
    n = len(cases)
    top = np.zeros((m, n), dtype=np.uint64)
    basis = np.zeros((0, n), dtype=np.uint64)
    scalar = [ToeplitzExpansion(F2, m, c) for _ in cases]
    for t in range(2):
        bits = np.array([[sum(v << (c - 1 - j) for j, v in enumerate(row))
                          for row in case[t]] for case in cases],
                        dtype=np.uint64).T
        top, basis, inc = batch._extend(top, basis, bits, c)
        assert inc.tolist() == [te.extend(case[t])
                                for te, case in zip(scalar, cases)]
    # the first case has its pivots at bits 63 and 0
    pivots = [p for p in range(64) if basis[p, 0]]
    assert pivots == [0, 31, 32, 63]
    for col in range(n):
        rows = basis[:, col].tolist()
        for p, row in enumerate(rows):
            if row:
                assert row >> p & 1
                assert not any(other >> p & 1 for q, other in enumerate(rows)
                               if q != p)
