"""Directed multigraph network model and flow machinery.

Topologies are unit-capacity directed multigraphs with a single source,
a set of sinks and a multicast rate m.  Edges carry integer ids in file /
generation order; every deterministic tie-break in the toolkit is keyed on
edge id.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from functools import cached_property


class TopologyError(ValueError):
    """Malformed topology file or invalid network description."""


@dataclass(frozen=True)
class Topology:
    """Unit-capacity directed multigraph with source, sinks and rate m."""

    num_nodes: int
    edges: tuple          # tuple of (tail, head) pairs; index = edge id
    source: int
    sinks: tuple
    m: int
    _in: dict = field(default=None, repr=False, compare=False)
    _out: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        n = self.num_nodes
        if not self.sinks:
            raise TopologyError("topology has no sinks")
        if not (0 <= self.source < n):
            raise TopologyError(f"source id {self.source} out of range")
        for r in self.sinks:
            if not (0 <= r < n):
                raise TopologyError(f"sink id {r} out of range")
            if r == self.source:
                raise TopologyError("a sink cannot equal the source")
        if len(set(self.sinks)) != len(self.sinks):
            raise TopologyError("duplicate sink ids")
        if self.m < 1:
            raise TopologyError("multicast rate m must be >= 1")
        ins = {v: [] for v in range(n)}
        outs = {v: [] for v in range(n)}
        for eid, (u, v) in enumerate(self.edges):
            if not (0 <= u < n and 0 <= v < n):
                raise TopologyError(f"edge {eid} endpoint out of range: {(u, v)}")
            outs[u].append(eid)
            ins[v].append(eid)
        object.__setattr__(self, "_in", ins)
        object.__setattr__(self, "_out", outs)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def _coding_heads(self) -> tuple:
        """The head of each out-edge of a coding node, in edge id order:
        `eta`'s links, listed once per topology."""
        cn = set(coding_nodes(self))
        return tuple(v for u, v in self.edges if u in cn)

    def in_edges(self, v: int):
        """Ids of edges entering v, ascending."""
        return self._in[v]

    def out_edges(self, v: int):
        """Ids of edges leaving v, ascending."""
        return self._out[v]

    def tail(self, eid: int) -> int:
        return self.edges[eid][0]

    def head(self, eid: int) -> int:
        return self.edges[eid][1]


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def combination_network(n: int, m: int) -> Topology:
    """The (n choose m) combination network.

    Node 0 is the source, nodes 1..n the intermediates, then one sink per
    m-subset of intermediates in lexicographic subset order.  Edge ids:
    first source->intermediate in intermediate order, then per sink its m
    parent edges in subset order.
    """
    if not 1 <= m <= n:
        raise TopologyError(f"need 1 <= m <= n, got n={n}, m={m}")
    subsets = list(itertools.combinations(range(1, n + 1), m))
    edges = [(0, i) for i in range(1, n + 1)]
    sinks = []
    node = n + 1
    for sub in subsets:
        for i in sub:
            edges.append((i, node))
        sinks.append(node)
        node += 1
    return Topology(num_nodes=node, edges=tuple(edges), source=0,
                    sinks=tuple(sinks), m=m)


def two_node_cycle_network() -> Topology:
    """A small cyclic network with multicast rate 2 and a single sink.

    Nodes: source 0, cycle nodes a=1 and b=2 (edges both ways between
    them), sink 3.  The source feeds both cycle nodes, each of which feeds
    the sink, so the min-cut to the sink is 2 while the a<->b pair forms a
    directed cycle.
    """
    edges = ((0, 1), (0, 2), (1, 2), (2, 1), (1, 3), (2, 3))
    return Topology(num_nodes=4, edges=edges, source=0, sinks=(3,), m=2)


def random_layered_dag(rng, layers: int, width: int, m: int = 1) -> Topology:
    """Seeded random layered DAG for property tests.

    Node 0 is the source; `layers` layers of `width` nodes follow; the
    last layer's nodes are the sinks.  Every node gets at least one edge
    from the previous layer so all sinks stay reachable.
    """
    if layers < 1 or width < 1:
        raise TopologyError("need layers >= 1 and width >= 1")
    edges = []
    prev = [0]
    node = 1
    layer_nodes = []
    for _ in range(layers):
        cur = list(range(node, node + width))
        node += width
        for v in cur:
            picks = {prev[rng.randint(len(prev))]}
            for u in prev:
                if rng.randint(3) == 0:
                    picks.add(u)
            for u in sorted(picks):
                edges.append((u, v))
        layer_nodes.append(cur)
        prev = cur
    return Topology(num_nodes=node, edges=tuple(edges), source=0,
                    sinks=tuple(layer_nodes[-1]), m=m)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def load_topology(text: str) -> Topology:
    """Parse the one-directive-per-line topology format.

    Directives: ``nodes <count>``, ``m <rate>``, ``source <id>``,
    ``sinks <id> ...`` (each exactly once), ``edge <from> <to>`` (repeated;
    order defines edge ids).  '#' starts a comment.  Errors carry line
    numbers.
    """
    num_nodes = None
    m = None
    source = None
    sinks = None
    edges = []
    first_line = {}                # directive given once -> its line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key, args = parts[0], parts[1:]
        if key in ("nodes", "m", "source", "sinks"):
            if key in first_line:
                raise TopologyError(f"line {lineno}: duplicate directive {key!r} "
                                    f"(first given on line {first_line[key]})")
            first_line[key] = lineno
        try:
            if key == "nodes":
                (num_nodes,) = map(int, args)
            elif key == "m":
                (m,) = map(int, args)
            elif key == "source":
                (source,) = map(int, args)
            elif key == "sinks":
                sinks = tuple(int(a) for a in args)
            elif key == "edge":
                u, v = map(int, args)
                edges.append((u, v))
            else:
                raise TopologyError(f"line {lineno}: unknown directive {key!r}")
        except (ValueError, TypeError) as exc:
            if isinstance(exc, TopologyError):
                raise
            raise TopologyError(f"line {lineno}: bad arguments for {key!r}: {raw.strip()!r}") from None
    for name, val in (("nodes", num_nodes), ("m", m),
                      ("source", source), ("sinks", sinks)):
        if val is None:
            raise TopologyError(f"missing required directive {name!r}")
    try:
        return Topology(num_nodes=num_nodes, edges=tuple(edges),
                        source=source, sinks=sinks, m=m)
    except TopologyError as exc:
        raise TopologyError(str(exc)) from None


def save_topology(topo: Topology) -> str:
    """Canonical text form; save(load(x)) round-trips canonical files."""
    lines = [f"nodes {topo.num_nodes}",
             f"m {topo.m}",
             f"source {topo.source}",
             "sinks " + " ".join(str(r) for r in topo.sinks)]
    for u, v in topo.edges:
        lines.append(f"edge {u} {v}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# flow machinery
# ---------------------------------------------------------------------------

def _ancestors(topo: Topology, sink: int) -> set:
    """The nodes from which `sink` is reachable, itself included, by
    reverse BFS."""
    up = {sink}
    frontier = [sink]
    while frontier:
        for eid in topo.in_edges(frontier.pop()):
            u = topo.tail(eid)
            if u not in up:
                up.add(u)
                frontier.append(u)
    return up


def _max_flow(topo: Topology, sink: int):
    """Unit-capacity max-flow source->sink by BFS augmentation.

    Augmenting paths explore edges in ascending id order, so the result is
    deterministic.  Returns (flow value, the set of the edges that carry
    flow).

    The search visits only the nodes from which the sink is reachable.
    An augmenting path runs through such nodes alone, so every edge that
    carries flow joins two of them; from any other node the residual
    graph leads only to nodes like it, which never discover one of them.
    Skipping those nodes leaves every BFS parent, and so the flow, as a
    search of the whole graph finds them, and no flag is kept for an edge
    outside them.
    """
    used = set()                       # the edges that carry flow
    up = _ancestors(topo, sink)
    if topo.source not in up:
        return 0, used
    # each node's arcs among `up`, ascending edge id: an in-edge of a
    # node of `up` comes from one, so they are the in-edges of `up`
    ins = {v: [(e, topo.tail(e)) for e in topo.in_edges(v)] for v in up}
    outs = {v: [] for v in up}
    for w, arcs in ins.items():
        for e, u in arcs:
            outs[u].append((e, w))
    for arcs in outs.values():
        arcs.sort()
    flow = 0
    while True:
        # BFS over residual graph: forward unused edges, backward used edges.
        parent = {topo.source: None}   # node -> (edge id, forward?)
        queue = [topo.source]
        qi = 0
        while qi < len(queue) and sink not in parent:
            v = queue[qi]
            qi += 1
            for eid, w in outs[v]:
                if eid not in used and w not in parent:
                    parent[w] = (eid, True)
                    queue.append(w)
            for eid, w in ins[v]:
                if eid in used and w not in parent:
                    parent[w] = (eid, False)
                    queue.append(w)
        if sink not in parent:
            return flow, used
        v = sink
        while v != topo.source:
            eid, fwd = parent[v]
            if fwd:
                used.add(eid)
                v = topo.tail(eid)
            else:
                used.remove(eid)
                v = topo.head(eid)
        flow += 1


@dataclass
class MulticastReport:
    """Per-sink max-flow values and the overall verdict."""

    m: int
    flows: dict                 # sink -> max-flow value
    failures: tuple             # sinks with flow < m

    @property
    def ok(self) -> bool:
        return not self.failures


def validate_multicast(topo: Topology) -> MulticastReport:
    """Check min-cut(source, sink) >= m for every sink."""
    flows = {}
    failures = []
    for r in topo.sinks:
        flow, _ = _max_flow(topo, r)
        flows[r] = flow
        if flow < topo.m:
            failures.append(r)
    return MulticastReport(m=topo.m, flows=flows, failures=tuple(failures))


def disjoint_paths(topo: Topology) -> dict:
    """m edge-disjoint source->sink paths per sink, as edge-id lists.

    Extracted from an integral max-flow; deterministic (lowest-edge-id-
    first path walking).  Raises TopologyError if some sink's flow < m.
    """
    out = {}
    for r in topo.sinks:
        flow, used = _max_flow(topo, r)
        if flow < topo.m:
            raise TopologyError(
                f"sink {r} has max-flow {flow} < m={topo.m}; no disjoint paths")
        paths = []
        for _ in range(topo.m):
            path = []
            v = topo.source
            while v != r:
                eid = next(e for e in topo.out_edges(v) if e in used)
                used.remove(eid)
                path.append(eid)
                v = topo.head(eid)
            paths.append(path)
        out[r] = paths
    return out


def coding_nodes(topo: Topology):
    """Nodes that combine inputs: the source plus nodes of in-degree >= 2.

    Nodes with a single incoming edge are relays: they forward their input
    unchanged and draw no random coefficients.
    """
    return [v for v in range(topo.num_nodes)
            if v == topo.source or len(topo.in_edges(v)) >= 2]


def eta(topo: Topology, sink: int | None = None) -> int:
    """Number of links carrying randomly drawn coefficients.

    Counts out-edges of coding nodes; with `sink` given, only links lying
    on some path to that sink (the per-sink success-bound exponent).
    """
    heads = topo._coding_heads
    if sink is None:
        return len(heads)
    up = _ancestors(topo, sink)
    return sum(1 for v in heads if v in up)


def is_acyclic(topo: Topology):
    """(acyclic?, topological node order) via Kahn's algorithm.

    Zero-in-degree nodes are consumed in ascending id order, so the order
    is deterministic.  Returns (False, None) on a cycle.
    """
    indeg = [0] * topo.num_nodes
    for _, v in topo.edges:
        indeg[v] += 1
    ready = [v for v in range(topo.num_nodes) if indeg[v] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for eid in topo.out_edges(v):
            w = topo.head(eid)
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    if len(order) != topo.num_nodes:
        return False, None
    return True, order
