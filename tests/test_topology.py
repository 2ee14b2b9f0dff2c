"""Network model: generators, file format, flows and the eta count."""

import math
import re

import pytest

from arcnc.harness import main
from arcnc.rng import SplitMix64
from arcnc.topology import (Topology, TopologyError, _max_flow, coding_nodes,
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
    for directive in ("nodes 11", "m 2", "source 0", "sinks 5 6"):
        with pytest.raises(TopologyError, match=f"line {nlines}: duplicate"):
            load_topology(good + directive + "\n")


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


@pytest.mark.parametrize("source, message", [
    ("nodes 3\nm 1\nsource 3\nsinks 2\nedge 0 2\n",
     "source id 3 out of range"),
    ("nodes 3\nm 1\nsource 0\nsinks 3\nedge 0 2\n", "sink id 3 out of range"),
    ("nodes 3\nm 1\nsource 0\nsinks 0\nedge 0 2\n",
     "a sink cannot equal the source"),
    ("nodes 3\nm 1\nsource 0\nsinks 2 2\nedge 0 2\n", "duplicate sink ids"),
    (lambda: random_layered_dag(SplitMix64(0), layers=0, width=3),
     "need layers >= 1 and width >= 1"),
    (lambda: random_layered_dag(SplitMix64(0), layers=2, width=0),
     "need layers >= 1 and width >= 1"),
    (lambda: disjoint_paths(Topology(3, ((0, 1), (1, 2)), 0, (2,), 2)),
     "sink 2 has max-flow 1 < m=2; no disjoint paths"),
], ids=["source", "sink", "sink-is-source", "duplicate-sinks", "layers0",
        "width0", "disjoint-paths"])
def test_bad_topology_rejected_with_its_message(tmp_path, capsys, source,
                                                message):
    if callable(source):       # library calls that no subcommand makes
        with pytest.raises(TopologyError, match=re.escape(message)):
            source()
        return
    path = tmp_path / "topo.txt"
    path.write_text(source)
    out = tmp_path / "out"
    assert main(["run", "--topology", str(path), "--trials", "5",
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert f"error: {message}\n" == captured.err and captured.out == ""
    assert not out.exists()


def test_topology_hashable_and_adjacency():
    topo = combination_network(4, 2)
    assert hash(topo) == hash(combination_network(4, 2))
    for e in range(topo.num_edges):
        assert e in topo.out_edges(topo.tail(e))
        assert e in topo.in_edges(topo.head(e))


# The max-flow search over the whole graph and eta's scan of every edge,
# as they were before each searched only the nodes that reach the sink:
# the oracles of `_max_flow` and `eta`.
def _max_flow_whole_graph(topo, sink):
    used = [False] * topo.num_edges
    flow = 0
    while True:
        parent = {topo.source: None}
        queue = [topo.source]
        qi = 0
        while qi < len(queue) and sink not in parent:
            v = queue[qi]
            qi += 1
            for eid in topo.out_edges(v):
                w = topo.head(eid)
                if not used[eid] and w not in parent:
                    parent[w] = (eid, True)
                    queue.append(w)
            for eid in topo.in_edges(v):
                w = topo.tail(eid)
                if used[eid] and w not in parent:
                    parent[w] = (eid, False)
                    queue.append(w)
        if sink not in parent:
            return flow, used
        v = sink
        while v != topo.source:
            eid, fwd = parent[v]
            used[eid] = fwd
            v = topo.tail(eid) if fwd else topo.head(eid)
        flow += 1


def _eta_rescan(topo, sink=None):
    cn = set(coding_nodes(topo))
    eids = [e for e in range(topo.num_edges) if topo.tail(e) in cn]
    if sink is None:
        return len(eids)
    reaches = {sink}
    frontier = [sink]
    while frontier:
        v = frontier.pop()
        for eid in topo.in_edges(v):
            u = topo.tail(eid)
            if u not in reaches:
                reaches.add(u)
                frontier.append(u)
    return sum(1 for e in eids if topo.head(e) in reaches)


def _flow_cases():
    comb = combination_network(5, 3)
    victim = comb.out_edges(comb.source)[1]
    cases = {f"comb{n}{m}": combination_network(n, m)
             for n, m in ((4, 2), (6, 3), (5, 5), (8, 2))}
    cases["comb53-cut"] = Topology(
        num_nodes=comb.num_nodes, source=comb.source, sinks=comb.sinks,
        m=comb.m, edges=tuple(e for i, e in enumerate(comb.edges)
                              if i != victim))
    cases["cycle"] = two_node_cycle_network()
    # sink 3 is out of the source's reach; node 4 reaches no sink
    cases["unreachable"] = Topology(
        num_nodes=5, edges=((0, 1), (2, 3), (0, 4), (4, 1), (1, 4)),
        source=0, sinks=(1, 3), m=1)
    rng = SplitMix64(7)
    for layers, width, m in ((2, 3, 1), (3, 4, 2), (4, 5, 2), (3, 6, 3)):
        for i in range(3):
            cases[f"dag-{layers}x{width}-m{m}-{i}"] = random_layered_dag(
                rng, layers=layers, width=width, m=m)
    return cases


@pytest.mark.parametrize("name, topo", _flow_cases().items())
def test_max_flow_and_eta_equal_the_whole_graph_search(name, topo):
    for r in topo.sinks:
        flow, used = _max_flow_whole_graph(topo, r)
        assert _max_flow(topo, r) == (flow, {e for e, u in enumerate(used)
                                             if u})
        assert eta(topo, r) == _eta_rescan(topo, r)
    assert eta(topo) == _eta_rescan(topo)
    report = validate_multicast(topo)
    assert report.flows == {r: _max_flow_whole_graph(topo, r)[0]
                            for r in topo.sinks}
    if report.ok:
        assert disjoint_paths(topo) == _disjoint_paths_whole_graph(topo)


def _disjoint_paths_whole_graph(topo):
    """disjoint_paths' lowest-edge-id-first walk over the whole-graph
    search's flags."""
    out = {}
    for r in topo.sinks:
        remaining = list(_max_flow_whole_graph(topo, r)[1])
        paths = []
        for _ in range(topo.m):
            path, v = [], topo.source
            while v != r:
                eid = next(e for e in topo.out_edges(v) if remaining[e])
                remaining[eid] = False
                path.append(eid)
                v = topo.head(eid)
            paths.append(path)
        out[r] = paths
    return out
