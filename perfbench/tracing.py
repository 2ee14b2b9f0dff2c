"""Per-layer spans and counts, recorded from outside the program.

`Tracer.install` replaces the public functions of each arcnc layer with
wrappers, both where they are defined and in every module that imported
them by value (e.g. `engine.select_columns`, `harness.collect_campaign`);
`uninstall` puts the originals back.  A span is (name, start, end,
parent span index, trial index); the trial index is the request id and
is -1 outside `run_trial`.  Field operations are only counted, because a
timer around each of millions of `Field.mul` calls would swamp the layers
above them.

Spans live in memory until `write`.  Self time of a span is its duration
minus the durations of its direct children; spans are strictly nested,
since a campaign runs in one thread.
"""

from __future__ import annotations

import gzip
import inspect
from array import array
from collections import Counter
from time import perf_counter


def _targets():
    """(metric name, kind, [(owner, attribute), ...]) for every wrapper."""
    from arcnc import analysis, baseline, engine, gf, harness, polyalg, rng
    from arcnc import topology

    out = [
        ("gf.add", "count", [(gf.Field, "add")]),
        ("gf.mul", "count", [(gf.Field, "mul")]),
        ("gf.inv", "count", [(gf.Field, "inv")]),
        ("rng.randint", "span", [(rng.SplitMix64, "randint")]),
        ("polyalg.extend", "span", [(polyalg.ToeplitzExpansion, "extend")]),
        ("polyalg.select_columns", "span",
         [(polyalg, "select_columns"), (engine, "select_columns")]),
        ("polyalg.det", "span", [(polyalg.PolyMatrix, "det")]),
        ("polyalg.adjugate", "span", [(polyalg.PolyMatrix, "adjugate")]),
        ("polyalg.sequential_decode", "span",
         [(polyalg, "sequential_decode"), (engine, "sequential_decode")]),
        ("polyalg.toeplitz_solve", "span",
         [(polyalg, "toeplitz_solve"), (engine, "toeplitz_solve")]),
        ("engine.run_trial", "trial", [(engine, "run_trial")]),
        ("engine._verify_headers", "span", [(engine, "_verify_headers")]),
        ("engine.collect_campaign", "span",
         [(engine, "collect_campaign"), (harness, "collect_campaign")]),
        ("topology.build", "span",
         [(topology, "combination_network"),
          (harness, "combination_network")]),
        ("topology.validate_multicast", "span",
         [(topology, "validate_multicast"), (harness, "validate_multicast")]),
        ("baseline.sink_success_fractions", "span",
         [(baseline, "sink_success_fractions"),
          (harness, "sink_success_fractions")]),
        ("baseline.rlnc_trial", "span", [(baseline, "rlnc_trial")]),
        ("baseline.rank_fq", "count", [(baseline, "rank_fq")]),
        ("harness.write", "write", [(harness, "_write_text")]),
        ("harness.main", "span", [(harness, "main")]),
    ]
    public = [name for name, fn in vars(analysis).items()
              if inspect.isfunction(fn) and fn.__module__ == analysis.__name__
              and not name.startswith("_")]
    out.append(("analysis", "span", [(analysis, name) for name in public]))
    return out


class Tracer:
    def __init__(self):
        # Span i is (names[name_id[i]], start[i], end[i], parent[i],
        # trial[i]), in flat arrays: a lean traced run makes ~10^5 spans.
        self.names = []
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.trial = array("l")
        self.counts = Counter()  # name -> calls, and harness.write bytes
        self._stack = []
        self._trial = -1
        self._saved = []         # (owner, attribute, original)

    def __len__(self):
        return len(self.start)

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, trial_arg=False):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        stack, counts = self._stack, self.counts
        ids, starts, ends = self.name_id, self.start, self.end
        parents, trials = self.parent, self.trial

        def wrapper(*args, **kwargs):
            idx = len(starts)
            outer = self._trial
            if trial_arg:
                self._trial = args[1] if len(args) > 1 \
                    else kwargs.get("trial_index", 0)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            trials.append(self._trial)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self._trial = outer
                counts[name] += 1
                starts[idx] = start
                ends[idx] = end
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _write(self, name, fn):
        span = self._span(name, fn)
        counts = self.counts

        def wrapper(path, text):
            counts[name + ".bytes"] += len(text.encode())
            return span(path, text)
        return wrapper

    def install(self):
        for name, kind, places in _targets():
            for owner, attr in places:
                fn = getattr(owner, attr)
                if kind == "count":
                    new = self._count(name, fn)
                elif kind == "write":
                    new = self._write(name, fn)
                else:
                    new = self._span(name, fn, trial_arg=kind == "trial")
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, new)

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # -- analysis ---------------------------------------------------------

    def self_times(self, first=0):
        """name -> (calls, summed self seconds) over spans first..end."""
        starts, ends, parents = self.start, self.end, self.parent
        child = [0.0] * len(starts)
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = {}
        for i in range(first, len(starts)):
            name = self.names[self.name_id[i]]
            calls, secs = out.get(name, (0, 0.0))
            out[name] = (calls + 1, secs + ends[i] - starts[i] - child[i])
        return out

    def durations(self, name, first=0):
        if name not in self.names:
            return []
        nid = self.names.index(name)
        return [self.end[i] - self.start[i]
                for i in range(first, len(self.start))
                if self.name_id[i] == nid]

    def write(self, path):
        """Spans as gzipped tab-separated lines, times relative to the
        first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=3) as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\ttrial\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name_id[i]]}"
                         f"\t{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}"
                         f"\t{self.parent[i]}\t{self.trial[i]}\n")
