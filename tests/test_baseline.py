"""One-shot RLNC baseline: known fractions, field-size trends, fast path."""

import math

import pytest

from arcnc.baseline import (curve_rows, expected_attempts, rlnc_trial,
                            sink_success_fractions)
from arcnc.gf import field_new
from arcnc.topology import (Topology, combination_network,
                            two_node_cycle_network)


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
    # m = 3 forces the generic per-trial loop; compare its q=8 per-sink
    # fraction against the closed form rather than against the numpy path
    # (different RNG streams).
    topo = combination_network(4, 3)
    p = (1 - 1 / 8) * (1 - 1 / 64) * (1 - 1 / 512)
    fracs, _ = sink_success_fractions(topo, field_new(8), 4000, seed=4)
    sigma = math.sqrt(p * (1 - p) / 4000)
    for f in fracs.values():
        assert abs(f - p) <= 4 * sigma
    # and the vectorized m=2 path against the same construction
    topo2 = combination_network(4, 2)
    p2 = (1 - 1 / 8) * (1 - 1 / 64)
    fracs2, _ = sink_success_fractions(topo2, field_new(8), 40000, seed=4)
    sigma2 = math.sqrt(p2 * (1 - p2) / 40000)
    for f in fracs2.values():
        assert abs(f - p2) <= 4 * sigma2


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
    topo = Topology(5, ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)),
                    source=0, sinks=(4,), m=2)
    fracs, overall = sink_success_fractions(topo, field_new(2), 20000, seed=1)
    p = 42 / 64
    sigma = math.sqrt(p * (1 - p) / 20000)
    assert abs(fracs[4] - p) <= 4 * sigma
    assert overall == fracs[4]


def test_generic_path_on_butterfly():
    # The butterfly has an interior coding node, so it is not
    # combination-like and takes the scalar per-trial path.
    topo = Topology(num_nodes=7,
                    edges=((0, 1), (0, 2), (1, 3), (2, 3), (3, 4),
                           (1, 5), (2, 6), (4, 5), (4, 6)),
                    source=0, sinks=(5, 6), m=2)
    fracs, overall = sink_success_fractions(topo, field_new(16), 2000, seed=6)
    assert set(fracs) == {5, 6}
    assert overall >= 0.8   # large field: coding succeeds almost always


def test_cyclic_topology_rejected():
    with pytest.raises(ValueError):
        rlnc_trial(two_node_cycle_network(), field_new(4), seed=0)


def test_expected_attempts():
    assert expected_attempts(0.5) == 2.0
    assert expected_attempts(1.0) == 1.0
    assert expected_attempts(0.0) == float("inf")
