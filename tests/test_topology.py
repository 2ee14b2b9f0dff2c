"""Network model: generators, file format, flows and the eta count."""

import math

import pytest

from arcnc.rng import SplitMix64
from arcnc.topology import (Topology, TopologyError, coding_nodes,
                            combination_network, disjoint_paths, eta,
                            is_acyclic, load_topology, random_layered_dag,
                            save_topology, two_node_cycle_network,
                            validate_multicast)


def test_combination_network_shape():
    topo = combination_network(4, 2)
    assert topo.num_nodes == 1 + 4 + 6
    assert topo.num_edges == 4 + 6 * 2
    assert topo.source == 0
    assert topo.sinks == (5, 6, 7, 8, 9, 10)
    assert topo.m == 2
    # each sink sees a distinct 2-subset of intermediates, lexicographic
    subsets = [tuple(sorted(topo.tail(e) for e in topo.in_edges(r)))
               for r in topo.sinks]
    assert subsets == sorted(subsets)
    assert len(set(subsets)) == 6
    assert all(len(s) == 2 for s in subsets)


@pytest.mark.parametrize("n,m", [(2, 1), (4, 2), (5, 2), (6, 3)])
def test_combination_network_multicast(n, m):
    topo = combination_network(n, m)
    assert len(topo.sinks) == math.comb(n, m)
    report = validate_multicast(topo)
    assert report.ok
    assert all(f >= m for f in report.flows.values())
    acyclic, order = is_acyclic(topo)
    assert acyclic
    assert order[0] == topo.source


def test_combination_network_rejects_bad_params():
    with pytest.raises(TopologyError):
        combination_network(2, 3)   # n < m
    with pytest.raises(TopologyError):
        combination_network(0, 0)


def test_eta_counts():
    topo = combination_network(4, 2)
    # the source plus every in-degree->=2 node; only the source has
    # out-edges, so eta counts its 4 links
    assert coding_nodes(topo) == [0] + list(topo.sinks)
    assert eta(topo) == 4
    for r in topo.sinks:
        assert eta(topo, r) == 2   # two source edges feed each sink
    cyc = two_node_cycle_network()
    assert eta(cyc) > 0


def test_roundtrip_save_load():
    for topo in (combination_network(4, 2), combination_network(5, 3),
                 two_node_cycle_network()):
        text = save_topology(topo)
        again = load_topology(text)
        assert again == topo
        # idempotent serialization
        assert save_topology(again) == text


def test_load_topology_errors_cite_line_numbers():
    with pytest.raises(TopologyError, match="line 1"):
        load_topology("bogus 4\n")
    good = save_topology(combination_network(4, 2))
    bad = good + "edge 99\n"
    nlines = bad.count("\n")
    with pytest.raises(TopologyError, match=f"line {nlines}"):
        load_topology(bad)
    with pytest.raises(TopologyError):
        load_topology(good + "edge 99 100\n")   # out-of-range endpoint
    with pytest.raises(TopologyError):
        load_topology("")   # missing directives


def test_comments_and_blank_lines_ignored():
    text = save_topology(combination_network(4, 2))
    noisy = "# header comment\n\n" + text.replace("\n", "\n# noise\n", 1)
    assert load_topology(noisy) == combination_network(4, 2)


def test_max_flow_drops_when_edge_removed():
    topo = combination_network(4, 2)
    # remove one source edge: sinks fed by that intermediate lose a path
    victim = topo.out_edges(topo.source)[0]
    dead_mid = topo.head(victim)
    edges = tuple(e for i, e in enumerate(topo.edges) if i != victim)
    cut = Topology(num_nodes=topo.num_nodes, edges=edges, source=topo.source,
                   sinks=topo.sinks, m=topo.m)
    report = validate_multicast(cut)
    assert not report.ok
    for r in topo.sinks:
        hit = dead_mid in {topo.tail(e) for e in topo.in_edges(r)}
        assert (report.flows[r] < topo.m) == hit


def test_disjoint_paths():
    topo = combination_network(4, 2)
    paths = disjoint_paths(topo)
    for r, plist in paths.items():
        assert len(plist) == 2
        used = [e for p in plist for e in p]
        assert len(used) == len(set(used))   # edge-disjoint
        for p in plist:
            assert topo.tail(p[0]) == topo.source
            assert topo.head(p[-1]) == r
            for a, b in zip(p, p[1:]):
                assert topo.head(a) == topo.tail(b)


def test_two_node_cycle_network():
    cyc = two_node_cycle_network()
    assert cyc.m == 2
    acyclic, _ = is_acyclic(cyc)
    assert not acyclic
    assert validate_multicast(cyc).ok
    paths = disjoint_paths(cyc)
    (sink,) = cyc.sinks
    assert len(paths[sink]) == 2


def test_random_layered_dag_structure():
    rng = SplitMix64(42)
    for _ in range(10):
        topo = random_layered_dag(rng, layers=3, width=3, m=2)
        acyclic, _ = is_acyclic(topo)
        assert acyclic
        for e in range(topo.num_edges):
            assert topo.tail(e) != topo.head(e)
        # every sink stays reachable (flow >= 1), though the random graph
        # need not support the full multicast rate
        report = validate_multicast(topo)
        assert all(f >= 1 for f in report.flows.values())


def test_topology_validation():
    with pytest.raises(TopologyError):
        Topology(num_nodes=2, edges=((0, 5),), source=0, sinks=(1,), m=1)
    with pytest.raises(TopologyError):
        Topology(num_nodes=2, edges=((0, 1),), source=0, sinks=(5,), m=1)
    with pytest.raises(TopologyError):
        Topology(num_nodes=2, edges=((0, 1),), source=0, sinks=(1,), m=0)
    with pytest.raises(TopologyError, match="no sinks"):
        Topology(num_nodes=2, edges=((0, 1),), source=0, sinks=(), m=1)


def test_topology_hashable_and_adjacency():
    topo = combination_network(4, 2)
    assert hash(topo) == hash(combination_network(4, 2))
    for e in range(topo.num_edges):
        assert e in topo.out_edges(topo.tail(e))
        assert e in topo.in_edges(topo.head(e))
