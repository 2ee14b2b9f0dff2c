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
`_topo_static`'s `coding` lists the pairs in this order.  A one-shot RLNC
trial is step 0 without x_0: coding pair p takes the trial's draw p + 1.

Conventions:
  * The source has m virtual input edges with ids -1..-m carrying the
    message streams; their global kernels are the unit vectors e_j.
  * In-degree-1 non-source nodes are relays: their local kernel is the
    constant 1 and they draw nothing.  On acyclic networks a relay's
    out-edges share its input edge's history instead of recomputing it.
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
    truncated at t.  On a cyclic network the step-t entries of the edges
    also feed each other through the time-0 kernel coefficients; the
    cyclic step convolves the rest the same way and solves only that
    coupling, by substitution.
  * A sink's decoding delay delta is the sum of its stopping rule's rank
    deficits m - inc_t through its ACK, on every topology: d_1 + ... + d_m
    for the kernel matrix's invariant factors z^d_i, the least valuation
    of its m x m minors (Massey & Sain 1968; Forney 1970).  A verified
    sink decodes from that same expansion, fed y_t and run on to the horizon.
  * Lean trials keep headers alone (entries of width m), on every
    topology, and report no decoding delay.  The source symbols x_t are
    drawn in either case, so lean and verified trials consume the same
    draw stream.

Campaigns run in contiguous blocks of trials, in-process or one block per
pool task, and are merged in trial order.  A block comes back as a
`TrialBlock`, one list per per-trial quantity and one row per sink (T,
delta), beside its integer counts (the T_N and per-sink T histograms, the
sum of T^2 and each node's sum of L), made where the block is made;
`CampaignSummary.absorb_block` merges the counts and folds the float
columns in trial order, and each CSV file gets its rows as one string.
Campaigns on acyclic networks (no trace or overrides), lean or verified,
in any field, run each block in lockstep with numpy (`batch.run_block`),
with results equal to `run_trial`'s, one lockstep slice
(`batch._slice_trials`) per block; every other block (traced or cyclic)
runs `run_trial` trial by trial and transposes the results with
`TrialBlock.of`, which imports no numpy.  A campaign runs no more
processes than the CPUs it may use.
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
from .topology import Topology, disjoint_paths, eta, is_acyclic

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
            _, _, coding, _, _, eligible0, *_ = _topo_static(self.topology)
            drawn = {(ein, eout) for eout, _, ins in coding for ein in ins}
            for (ein, eout, t), v in self.overrides.items():
                name = f"override k({_edge_name(ein)}->{_edge_name(eout)}, t={t})"
                if t < 0 or not (0 <= v < self.field.q):
                    raise OverrideError(f"{name} = {v} invalid")
                # only a coding node's own input/out-edge pairs draw, and a
                # cyclic network draws at t=0 only along disjoint paths
                if (ein, eout) not in drawn:
                    raise OverrideError(
                        f"{name}: no coding node draws this coefficient")
                if t == 0 and eligible0 is not None \
                        and (ein, eout) not in eligible0:
                    raise OverrideError(
                        f"{name}: this cyclic network draws it only from t=1")


@dataclass
class TrialResult:
    """Everything measured in one trial."""

    trial: int
    seed: int
    success: bool
    rounds: int                 # steps until all sinks decodable (or max_rounds)
    T: dict                     # sink -> ACK time (max_rounds if never ACKed)
    T_N: int
    delta: dict                 # sink -> decoding delay, the summed rank
                                # deficits before its ACK; None in lean
                                # and failed trials
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
    delta: dict                 # sink -> delta of each trial (None in lean
                                # and failed trials)
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

    Returns (acyclic, inputs, coding, relay_edges, propagate, eligible0,
    neighbors, downstream, coding_out) where
      * inputs maps node -> input edge ids (virtual -1..-m for the source),
      * coding lists (out-edge, head node, inputs) of every non-relay
        node in ascending node id order, the kernel draw order,
      * relay_edges lists (out-edge, input edge) of every relay, in
        topological order when acyclic,
      * propagate lists the (node, out-edge) pairs whose histories a step
        computes: those of the non-relay nodes in topological order when
        acyclic, every pair when cyclic (relays keep a constant-1 kernel),
      * eligible0 is the t=0 random-draw eligibility set for cyclic
        networks (None when acyclic),
      * neighbors maps node -> adjacent node set,
      * downstream maps node -> the sinks reachable from it,
      * coding_out lists the edges whose code length is averaged.
    """
    m = topo.m
    acyclic, order = is_acyclic(topo)
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
    coding = [(eout, topo.head(eout), inputs[v])
              for v in range(topo.num_nodes) if v not in relays
              for eout in topo.out_edges(v)]
    relay_edges = [(eout, inputs[v][0])
                   for v in (order or range(topo.num_nodes)) if v in relays
                   for eout in topo.out_edges(v)]
    skip = relays if acyclic else set()      # a cyclic step runs relays too
    propagate = [(v, eout) for v in (order or range(topo.num_nodes))
                 if v not in skip for eout in topo.out_edges(v)]
    eligible0 = None
    if not acyclic:
        # Cyclic initialization restricts t=0 randomness to the adjacent
        # pairs along each sink's edge-disjoint paths.
        eligible0 = set()
        for paths in disjoint_paths(topo).values():
            for p in paths:
                for j in range(m):
                    eligible0.add((-(j + 1), p[0]))
                for a, b in zip(p, p[1:]):
                    eligible0.add((a, b))
    neighbors = {}
    for v in range(topo.num_nodes):
        neigh = {topo.head(e) for e in topo.out_edges(v)}
        neigh.update(topo.tail(e) for e in topo.in_edges(v))
        neighbors[v] = neigh
    # Sinks reachable downstream of each node (the node's ACK condition;
    # in a DAG this coincides with "all children have ACKed", and unlike
    # the child-based form it is well-defined on cycles).
    sink_set = set(topo.sinks)
    downstream = {}
    for v in range(topo.num_nodes):
        seen = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for e in topo.out_edges(u):
                w = topo.head(e)
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        seen.discard(v)
        downstream[v] = frozenset(seen & sink_set)
    # code length of an edge out of a coding node: 1 + its freeze time
    coding_out = [e for e in range(topo.num_edges)
                  if topo.tail(e) not in relays
                  and topo.tail(e) not in sink_set]
    return (acyclic, inputs, coding, relay_edges, propagate, eligible0,
            neighbors, downstream, coding_out)


def run_trial(config: SimConfig, trial_index: int = 0) -> TrialResult:
    topo = config.topology
    fld = config.field
    m, q = topo.m, fld.q
    rng = trial_rng(config.base_seed, trial_index)
    (acyclic, inputs, coding, relay_edges, propagate, eligible0, neighbors,
     downstream, coding_out) = _topo_static(topo)
    sinks = set(topo.sinks)
    trace = [] if config.trace else None
    # Symbol streams are read only by decoding and header verification.
    keep_symbols = config.verify_decode or config.trace

    kernels = {(ein, eout): [] for eout, _, ins in coding for ein in ins}
    if not acyclic:
        for eout, ein in relay_edges:
            kernels[(ein, eout)] = [1]

    overrides = dict(config.overrides) if config.overrides else {}
    strict_max = max((t for (_, _, t) in overrides), default=-1) \
        if config.strict_overrides else -1

    # One history per edge: entry t is f_{e,t}, then y_{e,t} if symbols
    # are kept.  Virtual input -1-j sits at hist[-1-j], counted from the
    # end, and holds x_{j,t} under the header e_j at t = 0, zero after.
    width = m + 1 if keep_symbols else m
    E = topo.num_edges
    hist = [[] for _ in range(E + m)]
    if acyclic:
        # A relay forwards its input unchanged, so its out-edges share the
        # input edge's history list (topological order resolves chains).
        for eout, ein in relay_edges:
            hist[eout] = hist[ein]

    tes = {r: ToeplitzExpansion(fld, m, len(topo.in_edges(r))) for r in topo.sinks}
    deficit = dict.fromkeys(topo.sinks, 0)   # sink -> sum of m - inc to now
    ack_time = {}                            # node -> step at which it ACKed

    def draw_coefficients(t):
        for eout, head, ins in coding:
            if ack_time.get(head, t) < t:
                continue                     # a frozen kernel stops growing
            for ein in ins:
                if t == 0 and eligible0 is not None and (ein, eout) not in eligible0:
                    kernels[(ein, eout)].append(0)
                    continue
                key = (ein, eout, t)
                if key in overrides:
                    val = overrides[key]
                elif t <= strict_max:
                    raise OverrideError(
                        f"override script missing k({_edge_name(ein)}->"
                        f"{_edge_name(eout)}, t={t})")
                else:
                    val = rng.randint(q)
                kernels[(ein, eout)].append(val)
                if trace is not None and val:
                    trace.append(f"  k({_edge_name(ein)}->"
                                 f"{_edge_name(eout)}, t={t}) = {val}")

    def conv_edge(v, eout, t, first=0):
        """Entry t of edge eout: the local kernels convolved with the input
        histories at delays `first`..t."""
        add, mul = fld.add, fld.mul
        acc = [0] * width
        for ein in inputs[v]:
            k = kernels[(ein, eout)]
            h = hist[ein]
            for i in range(first, min(len(k), t + 1)):
                ki = k[i]
                if ki:
                    vec = h[t - i]
                    for p in range(width):
                        if vec[p]:
                            acc[p] = add(acc[p], mul(ki, vec[p]))
        return acc

    def step_acyclic(t):
        for v, eout in propagate:
            hist[eout].append(conv_edge(v, eout, t))

    def step_cyclic(t):
        add, mul = fld.add, fld.mul
        # Known part: every input at delays i >= 1.
        b = [None] * E
        for v, eout in propagate:
            b[eout] = conv_edge(v, eout, t, first=1)
        # The time-0 coupling, the virtual inputs' entry t included, is
        # nilpotent on the real edges under the disjoint-path
        # initialization, so substituting it from zero settles within |E|
        # + 1 substitutions; the iterates are partial sums of sum_i K0^i b.
        k0 = [(ein, eout, k[0]) for (ein, eout), k in kernels.items()
              if k and k[0]]
        virtual = [hist[e][t] for e in range(-m, 0)]
        cur = [[0] * width for _ in range(E)] + virtual
        for _ in range(E + 1):
            nxt = [list(row) for row in b] + virtual
            for ein, eout, k in k0:
                vec, acc = cur[ein], nxt[eout]
                for p in range(width):
                    if vec[p]:
                        acc[p] = add(acc[p], mul(k, vec[p]))
            if nxt == cur:
                break
            cur = nxt
        else:
            raise EngineError(
                f"cyclic fixed point did not converge at t={t} "
                "(time-0 kernel matrix is not nilpotent)")
        for e in range(E):
            hist[e].append(cur[e])

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
        (step_acyclic if acyclic else step_cyclic)(t)
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
            # still-waiting siblings continue to grow.  The deficits m - inc
            # through the ACK sum to the sink's decoding delay.
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
        # Instantaneous transitive ACK resolution.  A non-sink node ACKs
        # once every sink downstream of it has ACKed, so ACKs happen only
        # at t = 0 (nodes that reach no sink) and at steps where a sink
        # ACKed.
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

    # ------------------------------------------------- decoding verification
    # Only a verified successful trial measures the delay.
    delta = dict.fromkeys(topo.sinks)
    if success and keep_symbols:
        # The tail runs to the horizon last + max(max delta, T_N) + 1, where
        # last = T_N is the step at which the last sink stopped, so every
        # sink decodes at least two symbols.  All kernels are frozen by
        # now, so the tail draws only source symbols; cyclic feedback still
        # extends the (rational) global kernels.
        delta = deficit
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


# Most trials a `run_trial` campaign block or a verified lockstep slice
# holds, and fewest a lean lockstep slice may hold (`batch._slice_trials`).
BLOCK_TRIALS = 128


def _batchable(config: SimConfig) -> bool:
    """True when `batch.run_block` gives exactly `run_trial`'s block:
    untraced trials (a traced lean one reports delays), lean or
    verified, in any field on an acyclic topology, with no overrides; a
    block keeps no kernels."""
    return (not config.trace and not config.overrides
            and _topo_static(config.topology)[0])


def _run_block(args) -> TrialBlock:
    """Trials start..stop-1 of a campaign, in trial order."""
    config, start, stop = args
    if _batchable(config):
        from .batch import run_block
        return run_block(config, start, stop)
    return TrialBlock.of([run_trial(config, i) for i in range(start, stop)])


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
            trial_csv.write("".join(
                f"{trial},{avg_T:.10g},{code_len:.10g},{bits:.10g},{rounds}\r\n"
                for trial, avg_T, code_len, bits, rounds in zip(
                    block.trial, block.avg_T, block.avg_code_len,
                    block.avg_memory_bits, block.rounds)))

    # Output never depends on the worker count, so workers beyond the
    # CPUs this process may use would only add processes.
    workers = min(workers, len(os.sched_getaffinity(0)) if hasattr(
        os, "sched_getaffinity") else os.cpu_count() or 1)
    if _batchable(config):
        # numpy is imported here, not with the package, and forked workers
        # inherit it.  A block is one lockstep slice: the fewest blocks of
        # at most `batch._slice_trials` trials, even in size; their count
        # is a multiple of `workers` if more than one.  A lean campaign of
        # one block forks no child: a child takes about 2.5 ms to start
        # and a thousand copy-on-write faults in the parent, more than one
        # lean block's share saves.  A verified trial costs ten times a
        # lean one, so a verified campaign always splits among the workers.
        from . import batch
        blocks = -(-trials // batch._slice_trials(
            config, batch._block_static(topo)))
        if blocks > 1 or config.verify_decode:
            blocks = min(trials, blocks + -blocks % workers)
        bounds = [trials * i // blocks for i in range(blocks + 1)]
    else:
        # Eight run_trial blocks per worker, which cost nothing per block
        # and gain from balance.
        size = BLOCK_TRIALS
        if workers > 1:
            size = max(1, min(size, trials // (workers * 8)))
        bounds = [*range(0, trials, size), trials]
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
