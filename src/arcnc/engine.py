"""The adaptive convolutional network coding protocol engine.

Time-stepped simulation: every coding node grows its local kernels by one
randomly drawn coefficient per step, symbols and global-kernel headers
propagate by truncated convolution, sinks test decodability each step via
the block-Toeplitz rank condition, and acknowledgements freeze upstream
kernel growth per edge.

Determinism: a trial is fully determined by (base_seed, trial_index).
Draws happen in a fixed order each step: first the source symbols x_t
(component index ascending), then one coefficient per unfrozen coding
adjacent pair, nodes in ascending id order, out-edges ascending, inputs
ascending (the source's virtual inputs -1..-m come in that order).

Conventions:
  * The source has m virtual input edges with ids -1..-m carrying the
    message streams; their global kernels are the unit vectors.
  * In-degree-1 non-source nodes are relays: their local kernel is the
    constant 1 and they draw nothing.
  * ACKs are control-plane and resolve instantaneously and transitively
    at end of step; an edge freezes at the end of the step in which its
    head node has ACKed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from math import log2

from .gf import Field
from .polyalg import (PolyMatrix, SingularMatrixError, ToeplitzExpansion,
                      select_columns, sequential_decode)
# Not called here; perfbench's tracer still wraps engine.toeplitz_solve.
from .polyalg import toeplitz_solve  # noqa: F401
from .rng import trial_rng, trial_seed
from .topology import Topology, disjoint_paths, eta, is_acyclic

__all__ = ["SimConfig", "TrialResult", "CampaignSummary", "EngineError",
           "OverrideError", "run_trial", "collect_campaign", "eta"]


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
    source_script: list | None = None  # x[t] = list of m symbols
    verify_decode: bool = True
    verify_headers: bool = True
    trace: bool = False
    keep_kernels: bool = False         # retain per-sink F blocks in the result

    def __post_init__(self):
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.overrides:
            for (ein, eout, t), v in self.overrides.items():
                if not (-self.topology.m <= ein < self.topology.num_edges):
                    raise OverrideError(f"override from-edge {ein} out of range")
                if not (0 <= eout < self.topology.num_edges):
                    raise OverrideError(f"override to-edge {eout} out of range")
                if t < 0 or not (0 <= v < self.field.q):
                    raise OverrideError(
                        f"override k({ein}->{eout}, t={t}) = {v} invalid")


@dataclass
class TrialResult:
    """Everything measured in one trial."""

    trial: int
    seed: int
    success: bool
    rounds: int                 # steps until all sinks decodable (or max_rounds)
    T: dict                     # sink -> stopping time (max_rounds on failure)
    T_N: int
    delta: dict                 # sink -> decoding delay (when decoded) or None
    L: dict                     # node -> constraint length
    memory_bits: dict           # node -> m * L * log2(q)
    avg_T: float
    avg_code_len: float
    avg_memory_bits: float
    trace_lines: list | None = None
    final_F: dict | None = None  # sink -> coefficient matrices, if kept


def _edge_name(eid: int) -> str:
    return f"x{-eid - 1}" if eid < 0 else f"e{eid}"


@lru_cache(maxsize=32)
def _topo_static(topo: Topology):
    """Per-topology constants shared by every trial.

    Returns (acyclic, order, inputs, relays, eligible0, neighbors) where
    inputs maps node -> input edge ids (virtual -1..-m for the source),
    eligible0 is the t=0 random-draw eligibility set for cyclic networks
    (None when acyclic) and neighbors maps node -> adjacent node set.
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
    return acyclic, order, inputs, relays, eligible0, neighbors, downstream


def run_trial(config: SimConfig, trial_index: int = 0) -> TrialResult:
    topo = config.topology
    fld = config.field
    m, q = topo.m, fld.q
    rng = trial_rng(config.base_seed, trial_index)
    acyclic, order, inputs, relays, eligible0, neighbors, downstream = \
        _topo_static(topo)
    sinks = set(topo.sinks)
    trace = [] if config.trace else None
    keep_F = config.verify_decode or config.trace or config.keep_kernels

    kernels = {}
    for v in range(topo.num_nodes):
        for eout in topo.out_edges(v):
            if v in relays:
                kernels[(inputs[v][0], eout)] = [1]
            else:
                for ein in inputs[v]:
                    kernels[(ein, eout)] = []

    overrides = dict(config.overrides) if config.overrides else {}
    strict_max = max((t for (_, _, t) in overrides), default=-1) \
        if config.strict_overrides else -1

    xs = [[] for _ in range(m)]              # message streams
    ysym = [[] for _ in range(topo.num_edges)]   # symbol stream per edge
    fhist = [[] for _ in range(topo.num_edges)]  # header m-vector per edge, per t

    tes = {r: ToeplitzExpansion(fld, m, len(topo.in_edges(r))) for r in topo.sinks}
    Fs = {r: [] for r in topo.sinks}
    T = {}
    acked = set()
    ack_time = {}
    freeze_t = {}                            # edge -> freeze time

    def draw_coefficients(t):
        for v in range(topo.num_nodes):
            if v in relays:
                continue
            for eout in topo.out_edges(v):
                ft = freeze_t.get(eout)
                frozen = ft is not None and t > ft
                for ein in inputs[v]:
                    if frozen:
                        kernels[(ein, eout)].append(0)
                        continue
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

    def conv_edge(v, eout, t):
        """Symbol and header for edge eout at time t from stored histories."""
        add, mul = fld.add, fld.mul
        ysum = 0
        fsum = [0] * m
        for ein in inputs[v]:
            k = kernels[(ein, eout)]
            if ein < 0:
                j = -ein - 1
                hist = xs[j]
                for i in range(min(len(k), t + 1)):
                    ki = k[i]
                    if ki:
                        ysum = add(ysum, mul(ki, hist[t - i]))
                # the virtual input's header is the constant unit vector,
                # so only the i == t kernel coefficient contributes to f_t
                if t < len(k) and k[t]:
                    fsum[j] = add(fsum[j], k[t])
            else:
                hist = ysym[ein]
                fh = fhist[ein]
                for i in range(min(len(k), t + 1)):
                    ki = k[i]
                    if ki:
                        ysum = add(ysum, mul(ki, hist[t - i]))
                        fv = fh[t - i]
                        for j in range(m):
                            if fv[j]:
                                fsum[j] = add(fsum[j], mul(ki, fv[j]))
        return ysum, fsum

    def step_acyclic(t):
        for v in order:
            for eout in topo.out_edges(v):
                ysum, fsum = conv_edge(v, eout, t)
                ysym[eout].append(ysum)
                fhist[eout].append(fsum)

    def step_cyclic(t):
        add, mul = fld.add, fld.mul
        E = topo.num_edges
        # Known part: contributions from delays i >= 1 plus virtual inputs.
        by = [0] * E
        bf = [[0] * m for _ in range(E)]
        k0 = {}                    # (ein, eout) -> time-0 coupling, real edges
        for v in range(topo.num_nodes):
            for eout in topo.out_edges(v):
                for ein in inputs[v]:
                    k = kernels[(ein, eout)]
                    if ein < 0:
                        j = -ein - 1
                        for i in range(min(len(k), t + 1)):
                            ki = k[i]
                            if ki:
                                by[eout] = add(by[eout], mul(ki, xs[j][t - i]))
                                if i == t:
                                    bf[eout][j] = add(bf[eout][j], ki)
                    else:
                        for i in range(1, min(len(k), t + 1)):
                            ki = k[i]
                            if ki:
                                by[eout] = add(by[eout], mul(ki, ysym[ein][t - i]))
                                fv = fhist[ein][t - i]
                                for j in range(m):
                                    if fv[j]:
                                        bf[eout][j] = add(bf[eout][j],
                                                          mul(ki, fv[j]))
                        if k and k[0]:
                            k0[(ein, eout)] = k[0]
        # Fixed point: the time-0 coupling matrix is nilpotent under the
        # disjoint-path initialization, so |E| substitutions converge.
        cy = [0] * E
        cf = [[0] * m for _ in range(E)]

        def iterate(src_y, src_f):
            ny = list(by)
            nf = [list(row) for row in bf]
            for (ein, eout), k in k0.items():
                yv = src_y[ein]
                if yv:
                    ny[eout] = add(ny[eout], mul(k, yv))
                fv = src_f[ein]
                for j in range(m):
                    if fv[j]:
                        nf[eout][j] = add(nf[eout][j], mul(k, fv[j]))
            return ny, nf

        for _ in range(E):
            cy, cf = iterate(cy, cf)
        check_y, check_f = iterate(cy, cf)
        if check_y != cy or check_f != cf:
            raise EngineError(
                f"cyclic fixed point did not converge at t={t} "
                "(time-0 kernel matrix is not nilpotent)")
        for e in range(E):
            ysym[e].append(cy[e])
            fhist[e].append(cf[e])

    def advance(t, tail):
        """Source symbols, kernel draws and propagation for step t."""
        if trace is not None:
            trace.append(f"t={t} (tail)" if tail else f"t={t}")
        if config.source_script is None:
            xt = [rng.randint(q) for _ in range(m)]
        elif t < len(config.source_script):
            xt = list(config.source_script[t])
        elif tail:
            xt = [0] * m
        else:
            raise OverrideError(f"source script has no symbols for t={t}")
        for j in range(m):
            xs[j].append(xt[j])
        if trace is not None and not tail:
            trace.append(f"  x_{t} = {tuple(xt)}")
        draw_coefficients(t)
        if acyclic:
            step_acyclic(t)
        else:
            step_cyclic(t)

    # ------------------------------------------------------------------ run
    t = 0
    all_done_at = None
    while t < config.max_rounds:
        advance(t, tail=False)
        # Sinks test decodability.
        for r in topo.sinks:
            if r in T and not keep_F:
                continue
            Ft = [[fhist[e][t][i] for e in topo.in_edges(r)] for i in range(m)]
            Fs[r].append(Ft)
            if r in T:
                continue
            te = tes[r]
            # Stopping rule: the rank increment of the Toeplitz expansion
            # equals m at the current level.  This certifies that x_0 is
            # determined by the received window through t, which (by the
            # shift structure of the system) keeps every later symbol
            # decodable with delay <= t even while upstream kernels of
            # still-waiting siblings continue to grow.
            if te.extend(Ft) == m:
                T[r] = t
                acked.add(r)
                ack_time[r] = t
                if trace is not None:
                    trace.append(f"  sink {r} decodable (T={t}); ACK")
            elif trace is not None:
                trace.append(f"  sink {r} not decodable")
        # Instantaneous transitive ACK resolution, then per-edge freezing.
        # A non-sink node ACKs once every sink downstream of it has ACKed.
        for v in range(topo.num_nodes):
            if v in acked or v in sinks:
                continue
            if topo.out_edges(v) and downstream[v] <= acked:
                acked.add(v)
                ack_time[v] = t
                if trace is not None:
                    trace.append(f"  node {v} ACKed")
        for e in range(topo.num_edges):
            if e not in freeze_t and topo.head(e) in acked:
                freeze_t[e] = t
                if trace is not None:
                    trace.append(f"  edge e{e} frozen (t0={t})")
        t += 1
        if len(T) == len(topo.sinks):
            all_done_at = t - 1
            break

    success = all_done_at is not None
    rounds = (all_done_at + 1) if success else config.max_rounds

    # ------------------------------------------------- decoding verification
    delta = {r: (T[r] if r in T else None) for r in topo.sinks}
    if success and (config.verify_decode or config.trace):
        # A sink's decoding delay is the z-adic valuation of the
        # determinant of the first full-rank column subset of its kernel
        # matrix known through the horizon.  The horizon must reach
        # all_done_at + delta + 1 for every sink to decode two symbols, so
        # the tail grows until the selections made on it fit.  All kernels
        # are frozen by now, so the tail draws only source symbols.
        #
        # A non-zero determinant has valuation at most cap: global kernels
        # are N(z) / p(z) with p(0) = 1 and deg N <= E * all_done_at.  On
        # cyclic networks a subset whose determinant is zero can look
        # non-zero, with a valuation past the horizon, in the truncated
        # matrix; once the horizon reaches limit the selection skips those.
        cap = m * topo.num_edges * all_done_at
        limit = all_done_at + cap + 1
        selected = {}
        stale = set(topo.sinks)    # sinks whose kernel matrix changed
        target = all_done_at + max(T.values()) + 1
        while True:
            while t <= target:
                advance(t, tail=True)
                # Cyclic feedback keeps extending the global kernels even
                # after freezing (they are rational), so the decoder needs
                # the F_t blocks through the whole horizon.
                for r in topo.sinks:
                    Ft = [[fhist[e][t][i] for e in topo.in_edges(r)]
                          for i in range(m)]
                    Fs[r].append(Ft)
                    if any(any(row) for row in Ft):
                        stale.add(r)
                t += 1
            horizon = t - 1
            bound = cap if horizon >= limit else None
            for r in topo.sinks:
                if r in stale or (bound is not None and delta[r] > bound):
                    PM = PolyMatrix.from_coeff_matrices(fld, Fs[r])
                    try:
                        selected[r] = select_columns(PM, m, bound)
                    except SingularMatrixError as exc:
                        raise EngineError(f"sink {r}: {exc}") from exc
                    delta[r] = selected[r][2].valuation()
            stale.clear()
            target = all_done_at + max(max(delta.values()),
                                       max(T.values())) + 1
            if target <= horizon:
                break
            target = min(target, limit)
        for r in topo.sinks:
            subset, sub, det = selected[r]
            in_ids = topo.in_edges(r)
            d, decoded_cols = sequential_decode(
                sub, det, [ysym[in_ids[c]] for c in subset], horizon)
            for j in range(m):
                want = xs[j][:horizon - d + 1]
                if decoded_cols[j][:len(want)] != want:
                    raise EngineError(
                        f"sink {r}: decode failure on symbol {j} "
                        f"(delay {d}, horizon {horizon})")
            if trace is not None:
                trace.append(f"  sink {r}: delay delta={d}, decoded "
                             f"x_0..x_{horizon - d} verified")
        if config.verify_headers:
            _verify_headers(topo, fld, fhist, ysym, xs, horizon)

    # ----------------------------------------------------------- metrics
    for r in topo.sinks:
        T.setdefault(r, config.max_rounds)
    for v in range(topo.num_nodes):
        if v in sinks:
            ack_time.setdefault(v, T[v])
        else:
            ack_time.setdefault(v, config.max_rounds)
    bits_per_sym = log2(q)
    L = {}
    memory_bits = {}
    for v in range(topo.num_nodes):
        neigh = neighbors[v]
        L[v] = 1 + max(ack_time[v], max((ack_time[u] for u in neigh), default=0))
        memory_bits[v] = m * L[v] * bits_per_sym
    # code length of an edge out of a coding node: 1 + its freeze time
    coding_out = [e for e in range(topo.num_edges)
                  if topo.tail(e) not in relays and topo.tail(e) not in sinks]
    code_lens = [1 + ack_time[topo.head(e)] for e in coding_out]
    avg_code_len = sum(code_lens) / len(code_lens) if code_lens else 0.0
    d = len(topo.sinks)
    avg_T = sum(T.values()) / d
    avg_memory_bits = sum(memory_bits.values()) / topo.num_nodes
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
        final_F=Fs if config.keep_kernels else None,
    )


def _verify_headers(topo, fld, fhist, ysym, xs, horizon):
    """Check y_e(z) = x(z) . f_e(z) on every sink input edge, exactly."""
    add, mul = fld.add, fld.mul
    m = topo.m
    for r in topo.sinks:
        for e in topo.in_edges(r):
            for t in range(horizon + 1):
                acc = 0
                for i in range(t + 1):
                    fv = fhist[e][i]
                    for j in range(m):
                        if fv[j]:
                            acc = add(acc, mul(fv[j], xs[j][t - i]))
                if acc != ysym[e][t]:
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
        return (self.sum_avg_T_sq - n * mean * mean) / (n - 1) if n > 1 else 0.0

    @property
    def se_avg_T(self) -> float:
        return (self.var_avg_T / self.trials) ** 0.5

    @property
    def mean_T2(self) -> float:
        """Sample mean of T_i^2 over all (trial, sink) pairs."""
        return self.sum_T2 / (self.trials * self.d)

    def success_by_t(self, t: int) -> float:
        """Fraction of trials with all sinks decodable by time t."""
        return sum(c for tn, c in self.hist_T_N.items() if tn <= t) / self.trials

    def per_sink_success_by_t(self, sink: int, t: int) -> float:
        hist = self.per_sink_T_hist[sink]
        return sum(c for ti, c in hist.items() if ti <= t) / self.trials

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
        self.success_count += int(res.success)
        self.hist_T_N[res.T_N] = self.hist_T_N.get(res.T_N, 0) + 1
        for r, ti in res.T.items():
            h = self.per_sink_T_hist.setdefault(r, {})
            h[ti] = h.get(ti, 0) + 1
            self.sum_T2 += ti * ti
        self.sum_avg_T += res.avg_T
        self.sum_avg_T_sq += res.avg_T * res.avg_T
        for v, l in res.L.items():
            self.sum_L[v] = self.sum_L.get(v, 0) + l
        self.sum_avg_code_len += res.avg_code_len
        self.sum_avg_memory_bits += res.avg_memory_bits


TRIAL_SINK_COLUMNS = ["trial", "seed", "sink", "T_i", "T_N", "success"]
TRIAL_SUMMARY_COLUMNS = ["trial", "avg_T", "avg_code_len",
                         "avg_memory_bits", "rounds"]


def _run_trial_star(args):
    return run_trial(*args)


def collect_campaign(config: SimConfig, trials: int, workers: int = 1,
                     sink_csv=None, trial_csv=None) -> CampaignSummary:
    """Run `trials` independent trials and aggregate.

    Optional file objects receive the per-(trial, sink) CSV and the
    per-trial summary CSV as rows stream in.  Results are merged in trial
    order, so the output is identical for any worker count.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    topo = config.topology
    summary = CampaignSummary(trials=trials, q=config.field.q, m=topo.m,
                              d=len(topo.sinks), eta=eta(topo))
    sink_writer = trial_writer = None
    if sink_csv is not None:
        sink_writer = csv.writer(sink_csv)
        sink_writer.writerow(TRIAL_SINK_COLUMNS)
    if trial_csv is not None:
        trial_writer = csv.writer(trial_csv)
        trial_writer.writerow(TRIAL_SUMMARY_COLUMNS)

    def consume(res: TrialResult):
        summary.absorb(res)
        if sink_writer is not None:
            for r in topo.sinks:
                sink_writer.writerow([res.trial, res.seed, r, res.T[r],
                                      res.T_N, int(res.success)])
        if trial_writer is not None:
            trial_writer.writerow([res.trial, f"{res.avg_T:.10g}",
                                   f"{res.avg_code_len:.10g}",
                                   f"{res.avg_memory_bits:.10g}", res.rounds])

    if workers <= 1:
        for i in range(trials):
            consume(run_trial(config, i))
    else:
        import multiprocessing
        with multiprocessing.Pool(workers) as pool:
            args = ((config, i) for i in range(trials))
            chunk = max(1, trials // (workers * 8))
            for res in pool.imap(_run_trial_star, args, chunksize=chunk):
                consume(res)
    return summary
