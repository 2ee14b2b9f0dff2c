"""The adaptive convolutional network coding protocol engine.

Time-stepped simulation: every coding node grows its local kernels by one
randomly drawn coefficient per step, symbols and global-kernel headers
propagate by truncated convolution, sinks test decodability each step via
the block-Toeplitz rank condition, and acknowledgements freeze upstream
kernel growth per edge.

Determinism: a trial is fully determined by (base_seed, trial_index),
and draws from the SplitMix64 stream `rng.trial_rng(base_seed,
trial_index)` in this order, which the lockstep (`batch`) and the one-shot
RLNC baseline (`baseline`) follow too.  Each step t draws first the
source symbols x_t (component index ascending), then one coefficient per
coding adjacent pair whose kernel is not frozen: nodes in ascending id
order, out-edges ascending, inputs ascending (the source is a coding node
over its virtual inputs -1..-m, in that order; relays draw nothing).
`_topo_static`'s `draws` lists the pairs in this order; a pair's draw
index is its position there.  On a cyclic network step 0 draws only for
the pairs along the sinks' edge-disjoint paths; the others, `zero0`, take
0 without a draw.  Those zeros and the overrides are a config's script,
which `_script` resolves and checks once for both engines: a scripted
pair takes its value instead of a draw.  A one-shot RLNC trial is step 0
without x_0: coding pair p takes the trial's draw p + 1.

Conventions:
  * The source has m virtual input edges with ids -1..-m carrying the
    message streams; their global kernels are the unit vectors e_j.
  * In-degree-1 non-source nodes are relays: they forward their input
    unchanged and draw nothing.  On every topology a relay's out-edges
    share the history of their root, the first edge up the relay chain
    whose tail is not a relay; a cycle of relays alone roots at its least
    edge id and carries zero.
  * ACKs are control-plane and resolve instantaneously and transitively
    at end of step; a non-sink node ACKs once every sink it reaches has
    ACKed (at t = 0 if it reaches none), and an edge freezes at the end of
    the step in which its head node has ACKed.  A frozen kernel stops
    growing: later steps append no coefficient to it.  Each node's ACK
    time is the one record of this: a sink's stopping time T is its ACK
    time, and an edge's freeze time is its head node's.
  * Each edge, virtual inputs included, keeps one history: entry t holds
    the header f_{e,t} at positions 0..m-1 and, in a verified or traced
    trial, the symbol y_{e,t} at position m.  Virtual input -1-j holds
    x_{j,t} under its constant header.  A sink's kernel blocks F_t (and
    `final_F`), its received streams and the header check all read the
    histories of its input edges.
  * One rule computes every edge's step-t entry, header and symbol
    alike: the local kernels convolved with the input histories,
    truncated at t.  A step sets its entries to zero, then recomputes
    them in `propagate` order, topological on a DAG, so one pass is
    exact.  On a cyclic network the step-t entries also feed each other
    through the time-0 kernel coefficients, so the passes repeat until
    none changes an entry.  Step 0's disjoint-path draws make that
    time-0 coupling nilpotent on the real edges, so the passes settle
    within |E| + 1, else `EngineError`.
  * A sink's decoding delay delta is the sum of its stopping rule's rank
    deficits m - inc_t through its ACK, on every topology: d_1 + ... + d_m
    for the kernel matrix's invariant factors z^d_i, the least valuation
    of its m x m minors (Massey & Sain 1968; Forney 1970).
  * A verified trial that succeeds runs on past T_N to its horizon
    H = T_N + max(max_r delta_r, T_N) + 1, so every sink decodes at least
    two symbols.  Every kernel is frozen by then, so these tail steps draw
    only x_t; cyclic feedback still extends the (rational) global
    kernels.  Each sink decodes from its stopping rule's expansion, fed
    y_t through H: every x_{s,j} with s <= H - delta_r must be determined
    and equal the drawn one.  With `verify_headers`, y_{e,t} =
    sum_i f_{e,i} . x_{t-i} must hold on every sink input edge through H.
  * Lean trials keep headers alone (entries of width m), on every
    topology, and report the same delay, from the same rank deficits;
    `verify_decode` only switches on the decode and header checks.  The
    source symbols x_t are drawn in either case, so lean and verified
    trials consume the same draw stream.

Campaigns run in contiguous blocks of trials, in-process or one block per
pool task, and are merged in trial order.  A block comes back as a
`TrialBlock`, one list per per-trial quantity and one row per sink (T,
delta), beside its integer counts (the T_N and per-sink T histograms, the
sum of T^2 and each node's sum of L), made where the block is made;
`CampaignSummary.absorb_block` merges the counts and folds the float
columns in trial order, and each CSV file gets its rows as one string.
Every campaign, on any topology, with or without overrides, lean or
verified, in any field, runs each block in lockstep with numpy
(`batch.run_block`), with results equal to `run_trial`'s, one lockstep
slice (`batch._slice_trials`) per block; a trial out of room re-runs
in a lockstep slice of its own.  `run_trial` is the reference: the tests
compare every block with it, and `arcnc trace` runs it.  A campaign runs
no more processes than the CPUs it may use.
"""

from __future__ import annotations

import operator
import os
from collections import Counter
from dataclasses import dataclass, field as dc_field
from functools import lru_cache, reduce
from math import log2

from .gf import Field
from .polyalg import ToeplitzExpansion
# Not called here; perfbench's tracer resolves these three names in engine.
from .polyalg import select_columns, sequential_decode, toeplitz_solve  # noqa: F401
from .rng import trial_rng, trial_seed
from .topology import (Topology, _ancestors, disjoint_paths, eta,
                       is_acyclic)

__all__ = ["SimConfig", "TrialResult", "TrialBlock", "CampaignSummary",
           "EngineError", "OverrideError", "run_trial", "collect_campaign",
           "eta"]


class EngineError(RuntimeError):
    """Protocol-level failure (e.g. cyclic fixed point does not converge)."""


class OverrideError(ValueError):
    """Kernel override script is malformed or incomplete."""


@dataclass
class SimConfig:
    """Experiment knobs for one simulation campaign."""

    topology: Topology
    field: Field
    max_rounds: int = 50
    base_seed: int = 0
    overrides: dict | None = None      # (from_edge, to_edge, t) -> coefficient
    strict_overrides: bool = False     # error on missing scripted coefficients
    verify_decode: bool = True
    verify_headers: bool = True
    trace: bool = False
    keep_kernels: bool = False         # retain per-sink F blocks in the result

    def __post_init__(self):
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.overrides:
            _script(self)


@dataclass
class TrialResult:
    """Everything measured in one trial."""

    trial: int
    seed: int
    success: bool
    rounds: int                 # steps until all sinks decodable (or max_rounds)
    T: dict                     # sink -> ACK time (max_rounds if never ACKed)
    T_N: int
    delta: dict                 # sink -> decoding delay; None in failed
                                # trials
    L: dict                     # node -> constraint length
    memory_bits: dict           # node -> m * L * log2(q)
    avg_T: float
    avg_code_len: float
    avg_memory_bits: float
    trace_lines: list | None = None
    final_F: dict | None = None  # sink -> blocks F_0.. read from the input
                                 # edges' headers, if kept


# The per-trial TrialResult fields a campaign keeps.
_BLOCK_COLUMNS = ("trial", "seed", "success", "rounds", "T_N", "avg_T",
                  "avg_code_len", "avg_memory_bits")


@dataclass
class TrialBlock:
    """What a campaign keeps of consecutive trials: one list per quantity,
    position i of every list holding the same trial, and the integer
    counts `CampaignSummary` merges (L only as these), made with the
    block."""

    trial: list
    seed: list
    success: list
    rounds: list
    T_N: list
    avg_T: list
    avg_code_len: list
    avg_memory_bits: list
    T: dict                     # sink -> T of each trial
    delta: dict                 # sink -> delta of each trial (None in
                                # failed trials)
    hist_T_N: dict              # T_N -> trials
    per_sink_T_hist: dict       # sink -> {T: trials}
    sum_T2: int                 # sum of T^2 over the (trial, sink) pairs
    sum_L: dict                 # node -> sum of L over the trials

    @classmethod
    def of(cls, results) -> "TrialBlock":
        """The block of a non-empty list of TrialResults, in list order."""
        first = results[0]
        T = {r: [res.T[r] for res in results] for r in first.T}
        return cls(*([getattr(res, name) for res in results]
                     for name in _BLOCK_COLUMNS),
                   T=T, delta={r: [res.delta[r] for res in results]
                               for r in first.delta},
                   hist_T_N=dict(Counter(res.T_N for res in results)),
                   per_sink_T_hist={r: dict(Counter(row))
                                    for r, row in T.items()},
                   sum_T2=sum(t * t for row in T.values() for t in row),
                   sum_L={v: sum(res.L[v] for res in results)
                          for v in first.L})


def _edge_name(eid: int) -> str:
    return f"x{-eid - 1}" if eid < 0 else f"e{eid}"


@lru_cache(maxsize=32)
def _topo_static(topo: Topology):
    """Per-topology constants shared by every trial.

    Returns (acyclic, inputs, (draws, index), relay_edges, propagate,
    zero0, neighbors, downstream, coding_out) where
      * inputs maps node -> input edge ids (virtual -1..-m for the source),
      * draws lists (input, out-edge, head node) of every coding pair in
        the kernel draw order (module docstring), and index maps (input,
        out-edge) -> its draw index, its position in draws,
      * relay_edges lists (out-edge, root) of every relay, its root as
        the module docstring defines it,
      * propagate lists the (node, out-edge) pairs of the non-relay nodes
        whose histories a step computes, in topological order when
        acyclic, else the source first and the rest in node order,
      * zero0 is the set of draw indices that take 0 without a draw at
        t = 0, those off the sinks' disjoint paths on a cyclic network;
        empty on a DAG,
      * neighbors maps node -> adjacent node set,
      * downstream maps node -> the sinks reachable from it,
      * coding_out lists the edges whose code length is averaged.
    """
    m = topo.m
    acyclic, order = is_acyclic(topo)
    order = order or [topo.source] + [v for v in range(topo.num_nodes)
                                      if v != topo.source]
    inputs = {}
    relays = set()
    for v in range(topo.num_nodes):
        if v == topo.source:
            inputs[v] = list(range(-1, -m - 1, -1))
        else:
            ins = topo.in_edges(v)
            inputs[v] = list(ins)
            if len(ins) == 1:
                relays.add(v)
    draws = [(ein, eout, topo.head(eout))
             for v in range(topo.num_nodes) if v not in relays
             for eout in topo.out_edges(v) for ein in inputs[v]]
    index = {(ein, eout): i for i, (ein, eout, _) in enumerate(draws)}

    def root(e):
        chain = []
        while topo.tail(e) in relays and e not in chain:
            chain.append(e)
            e = inputs[topo.tail(e)][0]
        return min(chain[chain.index(e):]) if e in chain else e

    relay_edges = [(eout, root(eout)) for v in sorted(relays)
                   for eout in topo.out_edges(v)]
    propagate = [(v, eout) for v in order if v not in relays
                 for eout in topo.out_edges(v)]
    zero0 = frozenset()
    if not acyclic:
        on_paths = set()
        for paths in disjoint_paths(topo).values():
            for p in paths:
                on_paths.update((-1 - j, p[0]) for j in range(m))
                on_paths.update(zip(p, p[1:]))
        zero0 = frozenset(i for pair, i in index.items()
                          if pair not in on_paths)
    neighbors = {}
    for v in range(topo.num_nodes):
        neigh = {topo.head(e) for e in topo.out_edges(v)}
        neigh.update(topo.tail(e) for e in topo.in_edges(v))
        neighbors[v] = neigh
    # Sinks reachable downstream of each node (the node's ACK condition;
    # in a DAG this coincides with "all children have ACKed", and unlike
    # the child-based form it is well-defined on cycles), from one reverse
    # search per sink.
    up = {r: _ancestors(topo, r) for r in topo.sinks}
    downstream = {v: frozenset(r for r in topo.sinks if v != r and v in up[r])
                  for v in range(topo.num_nodes)}
    sink_set = set(topo.sinks)
    # code length of an edge out of a coding node: 1 + its freeze time
    coding_out = [e for e in range(topo.num_edges)
                  if topo.tail(e) not in relays
                  and topo.tail(e) not in sink_set]
    return (acyclic, inputs, (draws, index), relay_edges, propagate, zero0,
            neighbors, downstream, coding_out)


def _script(config: SimConfig):
    """The draws `config` scripts instead of drawing, ({t: {draw index:
    value}}, the last step a strict script covers, else -1): its
    overrides, each checked, and on a cyclic network the 0 of each pair
    off the sinks' disjoint paths at t = 0.  Both engines read it."""
    _, _, (_, index), _, _, zero0, *_ = _topo_static(config.topology)
    script = {0: dict.fromkeys(zero0, 0)} if zero0 else {}
    overrides = config.overrides or {}
    for (ein, eout, t), v in overrides.items():
        name = f"override k({_edge_name(ein)}->{_edge_name(eout)}, t={t})"
        if t < 0 or not (0 <= v < config.field.q):
            raise OverrideError(f"{name} = {v} invalid")
        # only a coding node's own input/out-edge pairs draw, and a
        # cyclic network draws at t=0 only along disjoint paths
        i = index.get((ein, eout))
        if i is None:
            raise OverrideError(
                f"{name}: no coding node draws this coefficient")
        if t == 0 and i in zero0:
            raise OverrideError(
                f"{name}: this cyclic network draws it only from t=1")
        script.setdefault(t, {})[i] = v
    last = max((t for *_, t in overrides), default=-1) \
        if config.strict_overrides else -1
    return script, last


def run_trial(config: SimConfig, trial_index: int = 0) -> TrialResult:
    topo = config.topology
    fld = config.field
    m, q = topo.m, fld.q
    rng = trial_rng(config.base_seed, trial_index)
    (acyclic, inputs, (draws, index), relay_edges, propagate, _, neighbors,
     downstream, coding_out) = _topo_static(topo)
    script, strict_max = _script(config)
    sinks = set(topo.sinks)
    trace = [] if config.trace else None
    # Symbol streams are read only by decoding and header verification.
    keep_symbols = config.verify_decode or config.trace

    kernels = {pair: [] for pair in index}

    # One history per edge: entry t is f_{e,t}, then y_{e,t} if symbols
    # are kept.  Virtual input -1-j sits at hist[-1-j], counted from the
    # end, and holds x_{j,t} under the header e_j at t = 0, zero after.
    width = m + 1 if keep_symbols else m
    E = topo.num_edges
    hist = [[] for _ in range(E + m)]
    # A relay forwards its input unchanged, so its out-edges share their
    # root's history list.
    roots = dict(relay_edges)
    for eout, root in relay_edges:
        hist[eout] = hist[root]
    own = [e for e in range(E) if roots.get(e, e) == e]   # distinct lists

    tes = {r: ToeplitzExpansion(fld, m, len(topo.in_edges(r))) for r in topo.sinks}
    deficit = dict.fromkeys(topo.sinks, 0)   # sink -> sum of m - inc to now
    ack_time = {}                            # node -> step at which it ACKed

    def draw_coefficients(t):
        scripted = script.get(t, {})
        for i, (ein, eout, head) in enumerate(draws):
            if ack_time.get(head, t) < t:
                continue                     # a frozen kernel stops growing
            if i in scripted:
                val = scripted[i]
            elif t <= strict_max:
                raise OverrideError(
                    f"override script missing k({_edge_name(ein)}->"
                    f"{_edge_name(eout)}, t={t})")
            else:
                val = rng.randint(q)
            kernels[ein, eout].append(val)
            if trace is not None and val:
                trace.append(f"  k({_edge_name(ein)}->"
                             f"{_edge_name(eout)}, t={t}) = {val}")

    def conv_edge(v, eout, t):
        """Entry t of edge eout: the local kernels convolved with the input
        histories at delays 0..t."""
        add, mul = fld.add, fld.mul
        acc = [0] * width
        for ein in inputs[v]:
            k = kernels[(ein, eout)]
            h = hist[ein]
            for i in range(min(len(k), t + 1)):
                ki = k[i]
                if ki:
                    vec = h[t - i]
                    for p in range(width):
                        if vec[p]:
                            acc[p] = add(acc[p], mul(ki, vec[p]))
        return acc

    zero = [0] * width

    def step(t):
        """Entry t of every history: zero, then passes in `propagate` order
        until one changes nothing (module docstring)."""
        for e in own:
            hist[e].append(zero)
        for _ in range(E + 1):
            moved = False
            for v, eout in propagate:
                entry = conv_edge(v, eout, t)
                moved = moved or entry != hist[eout][t]
                hist[eout][t] = entry
            if acyclic or not moved:
                return
        raise EngineError(
            f"cyclic fixed point did not converge at t={t} "
            "(time-0 kernel matrix is not nilpotent)")

    def advance(t, tail):
        """Source symbols, kernel draws and propagation for step t."""
        if trace is not None:
            trace.append(f"t={t} (tail)" if tail else f"t={t}")
        xt = [rng.randint(q) for _ in range(m)]
        for j, x in enumerate(xt):
            head = [int(t == 0 and i == j) for i in range(m)]
            hist[-1 - j].append((head + [x])[:width])
        if trace is not None and not tail:
            trace.append(f"  x_{t} = {tuple(xt)}")
        draw_coefficients(t)
        step(t)
        if keep_symbols:    # ACKed sinks' expansions run on to the decode
            for r in sinks & ack_time.keys():
                tes[r].extend(*block(r, t))

    def block(r, t):
        """F_t (row i: component i of each input header) and y_t of sink r."""
        heads = [hist[e][t] for e in topo.in_edges(r)]
        return ([[f[i] for f in heads] for i in range(m)],
                [f[m] for f in heads] if keep_symbols else None)

    # ------------------------------------------------------------------ run
    t = 0
    waiting = list(topo.sinks)               # sinks not yet decodable
    while t < config.max_rounds:
        advance(t, tail=False)
        still = []
        for r in waiting:
            # Stopping rule: the rank increment of the Toeplitz expansion
            # equals m at the current level.  This certifies that x_0 is
            # determined by the received window through t, which (by the
            # shift structure of the system) keeps every later symbol
            # decodable with delay <= t even while upstream kernels of
            # still-waiting siblings continue to grow.
            inc = tes[r].extend(*block(r, t))
            deficit[r] += m - inc
            if inc == m:
                ack_time[r] = t
                if trace is not None:
                    trace.append(f"  sink {r} decodable (T={t}); ACK")
            else:
                still.append(r)
                if trace is not None:
                    trace.append(f"  sink {r} not decodable")
        # ACK resolution (module docstring): a non-sink node can ACK only
        # at t = 0 or at a step where a sink ACKed.
        if t == 0 or len(still) < len(waiting):
            for v in range(topo.num_nodes):
                if (v not in ack_time and v not in sinks
                        and downstream[v] <= ack_time.keys()):
                    ack_time[v] = t
                    if trace is not None:
                        trace.append(f"  node {v} ACKed")
            if trace is not None:
                trace.extend(f"  edge e{e} frozen (t0={t})"
                             for e in range(topo.num_edges)
                             if ack_time.get(topo.head(e)) == t)
        waiting = still
        t += 1
        if not waiting:
            break

    success = not waiting
    rounds = t
    T = {r: ack_time.get(r, config.max_rounds) for r in topo.sinks}

    # A successful trial measures the delay, lean or verified; a failed
    # one none.
    delta = deficit if success else dict.fromkeys(topo.sinks)
    # ------------------------------------------------- decoding verification
    if success and keep_symbols:
        # The tail runs to the horizon H (module docstring); last = T_N.
        last = rounds - 1
        while t <= last + max(max(delta.values()), last) + 1:
            advance(t, tail=True)
            t += 1
        horizon = t - 1
        for r in topo.sinks:
            d = delta[r]
            try:
                # the check reads x_0 .. x_{horizon-d}
                xhat = tes[r].solve(horizon - d + 1)
            except ValueError as exc:
                raise EngineError(f"sink {r}: {exc}") from exc
            for j in range(m):
                want = [x[m] for x in hist[-1 - j][:horizon - d + 1]]
                if [x[j] for x in xhat] != want:
                    raise EngineError(
                        f"sink {r}: decode failure on symbol {j} "
                        f"(delay {d}, horizon {horizon})")
            if trace is not None:
                trace.append(f"  sink {r}: delay delta={d}, decoded "
                             f"x_0..x_{horizon - d} verified")
        if config.verify_headers:
            _verify_headers(topo, fld, hist, horizon)

    # ----------------------------------------------------------- metrics
    for v in range(topo.num_nodes):
        ack_time.setdefault(v, config.max_rounds)
    bits_per_sym = log2(q)
    L = {}
    memory_bits = {}
    for v in range(topo.num_nodes):
        neigh = neighbors[v]
        L[v] = 1 + max(ack_time[v], max((ack_time[u] for u in neigh), default=0))
        memory_bits[v] = m * L[v] * bits_per_sym
    code_lens = [1 + ack_time[topo.head(e)] for e in coding_out]
    avg_code_len = sum(code_lens) / len(code_lens) if code_lens else 0.0
    d = len(topo.sinks)
    avg_T = sum(T.values()) / d
    # A left fold in node order: sum() compensates rounding on Python
    # 3.12+, and the lockstep adds in node order too.
    avg_memory_bits = reduce(operator.add, memory_bits.values()) \
        / topo.num_nodes
    return TrialResult(
        trial=trial_index,
        seed=trial_seed(config.base_seed, trial_index),
        success=success,
        rounds=rounds,
        T=T,
        T_N=max(T.values()),
        delta=delta,
        L=L,
        memory_bits=memory_bits,
        avg_T=avg_T,
        avg_code_len=avg_code_len,
        avg_memory_bits=avg_memory_bits,
        trace_lines=trace,
        final_F={r: [block(r, i)[0] for i in range(t)] for r in topo.sinks}
        if config.keep_kernels else None,
    )


def _verify_headers(topo, fld, hist, horizon):
    """Check y_e(z) = x(z) . f_e(z) on every sink input edge, exactly, in
    the edge histories of `run_trial` (x_j read from hist[-1-j]).  Edges
    that share a history (a relay's out-edges) are checked once, under the
    first such edge in sink order."""
    add, mul = fld.add, fld.mul
    m = topo.m
    x = [[entry[m] for entry in hist[-1 - j]] for j in range(m)]
    seen = set()
    for r in topo.sinks:
        for e in topo.in_edges(r):
            h = hist[e]
            if id(h) in seen:
                continue
            seen.add(id(h))
            # the non-zero header coefficients (i, x_j, f_{e,i}[j]), by i
            terms = [(i, x[j], fj) for i, fv in enumerate(h[:horizon + 1])
                     for j, fj in enumerate(fv[:m]) if fj]
            for t in range(horizon + 1):
                acc = 0
                for i, xj, fj in terms:
                    if i > t:
                        break
                    if xj[t - i]:
                        acc = add(acc, mul(fj, xj[t - i]))
                if acc != h[t][m]:
                    raise EngineError(
                        f"header inconsistency on edge e{e} at t={t}")


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------

@dataclass
class CampaignSummary:
    """Aggregated Monte Carlo campaign results."""

    trials: int
    q: int
    m: int
    d: int
    eta: int
    success_count: int = 0
    hist_T_N: dict = dc_field(default_factory=dict)
    per_sink_T_hist: dict = dc_field(default_factory=dict)
    sum_avg_T: float = 0.0
    sum_avg_T_sq: float = 0.0
    sum_T2: float = 0.0          # sum of T_i^2 over all (trial, sink)
    sum_L: dict = dc_field(default_factory=dict)
    sum_avg_code_len: float = 0.0
    sum_avg_memory_bits: float = 0.0

    @property
    def success_fraction(self) -> float:
        return self.success_count / self.trials

    @property
    def mean_avg_T(self) -> float:
        return self.sum_avg_T / self.trials

    @property
    def var_avg_T(self) -> float:
        """Unbiased sample variance of the per-trial average stopping time."""
        n = self.trials
        mean = self.mean_avg_T
        if n < 2:
            return 0.0
        # When every avg_T is equal, rounding can leave the difference a
        # hair below zero.
        return max(0.0, (self.sum_avg_T_sq - n * mean * mean) / (n - 1))

    @property
    def se_avg_T(self) -> float:
        return (self.var_avg_T / self.trials) ** 0.5

    @property
    def mean_T2(self) -> float:
        """Sample mean of T_i^2 over all (trial, sink) pairs."""
        return self.sum_T2 / (self.trials * self.d)

    def success_by_t(self, t: int) -> float:
        """Fraction of trials with all sinks decodable by time t.  A failed
        trial's T_N is max_rounds, above every successful one's, so capping
        the count at success_count leaves the failures out."""
        done = sum(c for tn, c in self.hist_T_N.items() if tn <= t)
        return min(done, self.success_count) / self.trials

    def mean_L(self) -> dict:
        return {v: s / self.trials for v, s in self.sum_L.items()}

    def max_T_N(self) -> int:
        return max(self.hist_T_N) if self.hist_T_N else 0

    def to_json_dict(self) -> dict:
        tmax = self.max_T_N()
        return {
            "trials": self.trials,
            "q": self.q,
            "m": self.m,
            "d": self.d,
            "eta": self.eta,
            "success_fraction": self.success_fraction,
            "mean_avg_T": self.mean_avg_T,
            "var_avg_T": self.var_avg_T,
            "se_avg_T": self.se_avg_T,
            "mean_T2": self.mean_T2,
            "mean_avg_code_len": self.sum_avg_code_len / self.trials,
            "mean_avg_memory_bits": self.sum_avg_memory_bits / self.trials,
            "hist_T_N": {str(k): v for k, v in sorted(self.hist_T_N.items())},
            "success_by_t": [self.success_by_t(t) for t in range(tmax + 1)],
            "per_sink_T_hist": {str(r): {str(k): v for k, v in sorted(h.items())}
                                for r, h in self.per_sink_T_hist.items()},
            "mean_L": {str(v): x for v, x in self.mean_L().items()},
        }

    def absorb(self, res: TrialResult):
        """Absorb one trial."""
        self.absorb_block(TrialBlock.of([res]))

    def absorb_block(self, block: TrialBlock):
        """Absorb a block of trials: merge its counts."""
        self.success_count += sum(block.success)
        _count_into(self.hist_T_N, block.hist_T_N)
        for r, counts in block.per_sink_T_hist.items():
            _count_into(self.per_sink_T_hist.setdefault(r, {}), counts)
        self.sum_T2 += block.sum_T2
        _count_into(self.sum_L, block.sum_L)
        # The float sums fold left in trial order, one addition per trial
        # (sum() may compensate rounding), so they do not depend on how a
        # campaign is cut into blocks.
        self.sum_avg_T = reduce(operator.add, block.avg_T, self.sum_avg_T)
        self.sum_avg_T_sq = reduce(
            operator.add, map(operator.mul, block.avg_T, block.avg_T),
            self.sum_avg_T_sq)
        self.sum_avg_code_len = reduce(operator.add, block.avg_code_len,
                                       self.sum_avg_code_len)
        self.sum_avg_memory_bits = reduce(
            operator.add, block.avg_memory_bits, self.sum_avg_memory_bits)


def _count_into(hist: dict, counts: dict):
    for key, k in counts.items():
        hist[key] = hist.get(key, 0) + k


TRIAL_SINK_COLUMNS = ["trial", "seed", "sink", "T_i", "T_N", "success"]
TRIAL_SUMMARY_COLUMNS = ["trial", "avg_T", "avg_code_len",
                         "avg_memory_bits", "rounds"]


def _run_block(args) -> TrialBlock:
    """Trials start..stop-1 of a campaign, in trial order."""
    from .batch import run_block
    return run_block(*args)


def collect_campaign(config: SimConfig, trials: int, workers: int = 1,
                     sink_csv=None, trial_csv=None) -> CampaignSummary:
    """Run `trials` independent trials and aggregate.

    Optional file objects receive the per-(trial, sink) CSV and the
    per-trial summary CSV as blocks stream in.  Blocks are merged in trial
    order, so the output is identical for any worker count.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    topo = config.topology
    summary = CampaignSummary(trials=trials, q=config.field.q, m=topo.m,
                              d=len(topo.sinks), eta=eta(topo))
    # Rows are written as csv.writer writes them: comma-separated, no
    # quoting (no field needs it), "\r\n" line ends.
    if sink_csv is not None:
        sink_csv.write(",".join(TRIAL_SINK_COLUMNS) + "\r\n")
    if trial_csv is not None:
        trial_csv.write(",".join(TRIAL_SUMMARY_COLUMNS) + "\r\n")

    def consume(block: TrialBlock):
        summary.absorb_block(block)
        if sink_csv is not None:
            # Each sink's "sink,T" cells are formatted once per value, and
            # the columns a trial's sinks share once per trial.
            cells = [{t: f"{r},{t}" for t in set(Ts)}
                     for r, Ts in block.T.items()]
            rows = []
            for trial, seed, T_N, ok, *Ts in zip(
                    block.trial, block.seed, block.T_N, block.success,
                    *block.T.values()):
                head, tail = f"{trial},{seed},", f",{T_N},{ok:d}\r\n"
                rows.append(head + (tail + head).join(
                    map(dict.__getitem__, cells, Ts)) + tail)
            sink_csv.write("".join(rows))
        if trial_csv is not None:
            # Each distinct value is formatted once; all are sums of
            # non-negative numbers, so -0.0, which equals 0.0 as a key but
            # prints apart, never occurs.
            cols = block.avg_T, block.avg_code_len, block.avg_memory_bits
            g = {x: f"{x:.10g}" for x in set().union(*cols)}
            trial_csv.write("".join(
                f"{trial},{avg_T},{code_len},{bits},{rounds}\r\n"
                for trial, avg_T, code_len, bits, rounds in zip(
                    block.trial, *(map(g.__getitem__, c) for c in cols),
                    block.rounds)))

    # Output never depends on the worker count, so workers beyond the
    # CPUs this process may use would only add processes.
    workers = min(workers, len(os.sched_getaffinity(0)) if hasattr(
        os, "sched_getaffinity") else os.cpu_count() or 1)
    # numpy is imported here, not with the package, and forked workers
    # inherit it.  A block is one lockstep slice: the fewest blocks of at
    # most `batch._slice_trials` trials, even in size; their count is a
    # multiple of `workers` if more than one.  A lean campaign of one
    # block forks no child: a child takes about 2.5 ms to start and a
    # thousand copy-on-write faults in the parent, more than one lean
    # block's share saves.  A verified trial costs ten times a lean one,
    # so a verified campaign always splits among the workers.
    from . import batch
    blocks = -(-trials // batch._slice_trials(config,
                                              batch._block_static(topo)))
    if blocks > 1 or config.verify_decode:
        blocks = min(trials, blocks + -blocks % workers)
    bounds = [trials * i // blocks for i in range(blocks + 1)]
    tasks = [(config, i, j) for i, j in zip(bounds, bounds[1:])]
    workers = min(workers, len(tasks))     # no idle worker processes
    if workers <= 1:
        for block in map(_run_block, tasks):
            consume(block)
    else:
        import multiprocessing
        # The parent runs blocks 0, w, 2w, ... itself beside w - 1 forked
        # children, which run the rest: it computes instead of waiting on
        # w children, and one process fewer is forked.  Blocks are still
        # consumed in trial order.
        with multiprocessing.Pool(workers - 1) as pool:
            children = pool.imap(_run_block, [
                task for i, task in enumerate(tasks) if i % workers])
            for i, task in enumerate(tasks):
                consume(next(children) if i % workers
                        else _run_block(task))
    return summary
