"""One-shot RLNC baseline: known fractions, field-size trends, and the
lockstep checked trial by trial against rlnc_trial."""

import math

import numpy as np
import pytest

from arcnc import baseline, batch
from arcnc.baseline import (curve_rows, expected_attempts, rlnc_trial,
                            sink_success_fractions)
from arcnc.gf import field_new
from arcnc.rng import SplitMix64
from arcnc.topology import (Topology, combination_network,
                            random_layered_dag, two_node_cycle_network)

THREE_INPUT_SINK = Topology(5, ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4),
                                (3, 4)), source=0, sinks=(4,), m=2)
BUTTERFLY = Topology(num_nodes=7,
                     edges=((0, 1), (0, 2), (1, 3), (2, 3), (3, 4),
                            (1, 5), (2, 6), (4, 5), (4, 6)),
                     source=0, sinks=(5, 6), m=2)


def test_per_sink_fraction_q8():
    # On the (4,2) network each sink decodes iff its 2x2 matrix of uniform
    # columns is invertible: (1 - 1/q)(1 - 1/q^2) = 441/512 at q = 8.
    topo = combination_network(4, 2)
    fracs, overall = sink_success_fractions(topo, field_new(8), 40000, seed=1)
    p = 441 / 512
    sigma = math.sqrt(p * (1 - p) / 40000)
    for r, f in fracs.items():
        assert abs(f - p) <= 3 * sigma, f"sink {r}: {f}"
    assert overall <= min(fracs.values()) + 1e-12


def test_large_field_success_near_one():
    topo = combination_network(4, 2)
    fracs, overall = sink_success_fractions(topo, field_new(1 << 16), 3000,
                                            seed=2)
    assert overall >= 0.999


def test_success_monotone_in_q():
    topo = combination_network(4, 2)
    vals = []
    for q in (2, 4, 8, 64):
        _, overall = sink_success_fractions(topo, field_new(q), 20000, seed=3)
        vals.append(overall)
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_scalar_path_agrees_with_vectorized():
    # Trial i of the lockstep is rlnc_trial(topo, field, seed, i), so on
    # the first 2000 trials its fractions equal the loop's, float for
    # float.  Over more trials they agree with the closed form of a square
    # sink of uniform columns at q = 8, on m = 3 and m = 2.
    field = field_new(8)
    for m, trials in ((3, 4000), (2, 40000)):
        topo = combination_network(4, m)
        results = [rlnc_trial(topo, field, 4, i) for i in range(2000)]
        fracs, overall = sink_success_fractions(topo, field, 2000, seed=4)
        assert fracs == {r: sum(res.per_sink[r] for res in results) / 2000
                         for r in topo.sinks}
        assert overall == sum(res.success for res in results) / 2000
        p = math.prod(1 - 8 ** -i for i in range(1, m + 1))
        fracs, _ = sink_success_fractions(topo, field, trials, seed=4)
        sigma = math.sqrt(p * (1 - p) / trials)
        for f in fracs.values():
            assert abs(f - p) <= 4 * sigma


def test_rlnc_trial_determinism():
    topo = combination_network(4, 2)
    f = field_new(4)
    a = rlnc_trial(topo, f, seed=9, trial_index=3)
    b = rlnc_trial(topo, f, seed=9, trial_index=3)
    assert a.per_sink == b.per_sink and a.success == b.success
    c = rlnc_trial(topo, f, seed=9, trial_index=4)
    assert isinstance(c.success, bool)
    assert a.memory_bits_per_node == 2 * 2   # m * log2(q)


def test_success_curve_rows_and_na_cells():
    topo = combination_network(4, 2)
    rows = []
    for q in (2, 8):
        fracs, _ = sink_success_fractions(topo, field_new(q), 2000, seed=5)
        rows.extend(curve_rows(topo, q, fracs))
    assert len(rows) == 2 * 6
    for row in rows:
        assert set(row) == {"q", "sink", "success_fraction", "ho_bound"}
        if row["q"] == 2:
            # per-sink bound needs q^(t+1) > d = 1: 2 > 1 holds, so the
            # bound applies even at q = 2
            assert row["ho_bound"] != "N/A"
            assert 0.0 <= row["ho_bound"] <= 1.0
        if row["q"] == 8:
            assert row["ho_bound"] == pytest.approx(49 / 64)
        assert row["success_fraction"] >= row["ho_bound"] - 0.05


def test_sink_with_more_than_m_inputs():
    # Sink 4 sees three relayed source columns, so it decodes iff the 2x3
    # matrix of uniform columns over GF(2) has rank 2: 42 of the 64
    # matrices.  Its rank test must read all three columns.
    fracs, overall = sink_success_fractions(THREE_INPUT_SINK, field_new(2),
                                            20000, seed=1)
    p = 42 / 64
    sigma = math.sqrt(p * (1 - p) / 20000)
    assert abs(fracs[4] - p) <= 4 * sigma
    assert overall == fracs[4]


def test_generic_path_on_butterfly():
    # The butterfly's interior coding node sums two draws times its inputs.
    fracs, overall = sink_success_fractions(BUTTERFLY, field_new(16), 2000,
                                            seed=6)
    assert set(fracs) == {5, 6}
    assert overall >= 0.8   # large field: coding succeeds almost always


def test_cyclic_topology_rejected():
    with pytest.raises(ValueError):
        rlnc_trial(two_node_cycle_network(), field_new(4), seed=0)
    with pytest.raises(ValueError, match="acyclic"):
        sink_success_fractions(two_node_cycle_network(), field_new(4), 10,
                               seed=0)


@pytest.mark.parametrize("m", [2, 3])
def test_zero_trials_rejected(m):
    # Was NaN with a RuntimeWarning at m = 2, ZeroDivisionError at m = 3.
    with pytest.raises(ValueError, match="trials must be >= 1"):
        sink_success_fractions(combination_network(4, m), field_new(4), 0,
                               seed=1)


# Node 3 has no inputs: its out-edges carry zero vectors and it draws
# nothing, while coding node 1 sums three inputs, one of them node 3's.
ORPHAN_INPUT = Topology(4, ((0, 1), (0, 1), (3, 1), (1, 2), (1, 2), (3, 2)),
                        source=0, sinks=(2,), m=2)


def _relabelled(topo):
    """topo with its non-source nodes numbered backwards, so that coding
    nodes come in id order before the coding nodes upstream of them: the
    engine's draw order (node ids) then differs from a topological walk."""
    n = topo.num_nodes

    def new(v):
        return v and n - v             # the source, node 0, keeps its id

    return Topology(n, tuple((new(u), new(v)) for u, v in topo.edges),
                    source=0, sinks=tuple(map(new, topo.sinks)), m=topo.m)


TOPOLOGIES = {
    "comb42": combination_network(4, 2),
    "comb63": combination_network(6, 3),
    "three-input-sink": THREE_INPUT_SINK,
    "butterfly": BUTTERFLY,
    "orphan-input": ORPHAN_INPUT,
    **{f"dag-m{m}": random_layered_dag(SplitMix64(1), layers=3,
                                       width=2 * m + 2, m=m)
       for m in (1, 2, 3)},
    "dag-relabelled": _relabelled(random_layered_dag(
        SplitMix64(1), layers=4, width=4, m=2)),
}


def _reference(topo, field, seed, start, stop):
    """rlnc_trial's verdicts, one row per sink, one column per trial."""
    runs = [rlnc_trial(topo, field, seed, i).per_sink
            for i in range(start, stop)]
    return [[run[r] for run in runs] for r in topo.sinks]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 256, 1 << 16])
@pytest.mark.parametrize("name", TOPOLOGIES)
def test_lockstep_verdicts_equal_rlnc_trial(name, q):
    topo = TOPOLOGIES[name]
    field = field_new(q)
    got = baseline._success_block(topo, field, 11, 5, 205)
    assert got.tolist() == _reference(topo, field, 11, 5, 205)


def test_chunks_do_not_change_fractions(monkeypatch):
    # 50 trials in blocks of 7 (the last one short) give the fractions of
    # one block of 50.
    topo = BUTTERFLY
    field = field_new(3)
    whole = sink_success_fractions(topo, field, 50, seed=8)
    monkeypatch.setattr(baseline, "_CHUNK", 7)
    assert sink_success_fractions(topo, field, 50, seed=8) == whole


def test_a_value_is_one_draw_mod_q(monkeypatch):
    # randint takes one draw per value, even the top draw 2^64 - 1, whose
    # value at q = 3 is (2^64 - 1) % 3 = 0; the lockstep's values are the
    # same draw mod q, in a prime field of any size.
    draws = iter([(1 << 64) - 1, 5])
    monkeypatch.setattr(SplitMix64, "next64", lambda self: next(draws))
    rng = SplitMix64(0)
    assert rng.randint(3) == 0 and rng.randint(3) == 2
    raw = [(1 << 64) - 1, (1 << 64) - 2, 0]
    for q in (3, 65521):
        got = batch._values(np.array(raw, dtype=np.uint64), q)
        assert got.tolist() == [v % q for v in raw]


def test_expected_attempts():
    assert expected_attempts(0.5) == 2.0
    assert expected_attempts(1.0) == 1.0
    assert expected_attempts(0.0) == float("inf")
