"""Per-layer tracing from outside the program.

Wrappers are installed at the names callers actually look up: module
globals of ``biasrank.experiments`` and ``biasrank.cli`` (``from .solver
import ...`` copies a function into the importing module, so patching
``biasrank.solver`` would miss every call), and class attributes for
methods.  Each wrapped call appends a span ``[name, start_ns, end_ns,
parent, job]`` to an in-memory list; ``parent`` is the index of the
enclosing span, or -1.  Counts that need arguments or results (distinct
draws, distinct unconstrained rankings, whether bounds bound) are taken in
hooks that run outside the span's own interval.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

import numpy as np

# Per-layer metrics in output order, with their units.
LAYER_METRICS = {
    "stats.rng_for_trial.calls": "count",
    "stats.rng_for_trial.busy_s": "s",
    "stats.draw.calls": "count",
    "stats.draw.busy_s": "s",
    "stats.draw.useful_ratio": "ratio",
    "solver.rank_unconstrained.calls": "count",
    "solver.rank_unconstrained.busy_s": "s",
    "solver.rank_unconstrained.useful_ratio": "ratio",
    "solver.rank_constrained_greedy.calls": "count",
    "solver.rank_constrained_greedy.busy_s": "s",
    "solver.rank_constrained_greedy.bind_ratio": "ratio",
    "model.from_arrays.busy_s": "s",
    "constraints.simple_constraints.busy_s": "s",
    "model.ranking_utility.busy_s": "s",
    "model.instance_from_json.busy_s": "s",
    "constraints.from_json.busy_s": "s",
    "constraints.derived_constraints.busy_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "experiments.run_trial.busy_s": "s",
    "experiments.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Metrics that must repeat exactly between traced cycles of one run.
COUNT_METRICS = tuple(
    k for k in LAYER_METRICS if k.endswith((".calls", "_ratio", "output_bytes")) and not k.startswith("trace.")
)

# Layers whose self time (span minus child spans) is reported.
SELF_LAYERS = ("cli", "experiments")


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


class Tracer:
    """Installs span-recording wrappers on biasrank and summarizes a cycle."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []
        self.spans: list[list] = []  # wrappers append here, so it is only ever cleared
        self.stack = [-1]
        self.reset()

    def reset(self) -> None:
        """Forget the spans and counts recorded so far."""
        self.spans.clear()
        self.stack[:] = [-1]
        self.job = -1
        self._ctx = None  # identifies the trial whose draws and rankings follow
        self._in_trial = False
        self._ordinal: Counter = Counter()
        self._distinct: dict[str, set] = {"stats.draw": set(), "solver.rank_unconstrained": set()}
        self._last_uncons = (None, None)
        self._greedy_bound = 0

    def start_job(self, index: int) -> None:
        self.job = index
        self._set_ctx(None)
        self._in_trial = False
        self._last_uncons = (None, None)

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            rec = [name, 0, 0, stack[-1], tracer.job]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, before=None, after=None) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__, before, after))
        else:
            new = self.wrap(name, raw, before, after)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self) -> None:
        from biasrank import cli, constraints, experiments, model, stats

        p = self._patch
        p(stats.SeedSpec, "rng_for_trial", "stats.rng_for_trial", after=self._after_rng)
        for cls in stats.Distribution.__args__:
            p(cls, "draw", "stats.draw", after=lambda a, r: self._use("stats.draw"))
        p(model.Instance, "from_arrays", "model.from_arrays")
        p(constraints.ConstraintMatrix, "from_json_dict", "constraints.from_json")
        p(experiments, "simple_constraints", "constraints.simple_constraints")
        p(experiments, "run_trial", "experiments.run_trial", before=self._before_trial, after=self._after_trial)
        for mod in (experiments, cli):
            p(mod, "ranking_utility", "model.ranking_utility")
            p(mod, "rank_unconstrained", "solver.rank_unconstrained", after=self._after_uncons)
            p(mod, "rank_constrained_greedy", "solver.rank_constrained_greedy", after=self._after_greedy)
        p(cli, "instance_from_json", "model.instance_from_json")
        p(cli, "derived_constraints", "constraints.derived_constraints")
        p(cli, "run_sweep", "experiments.run_sweep")
        p(cli, "estimate_order_stats", "experiments.estimate_order_stats")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- hooks --------------------------------------------------------------

    def _set_ctx(self, ctx) -> None:
        self._ctx = ctx
        self._ordinal.clear()

    def _use(self, kind: str) -> None:
        """Record one call of ``kind``; calls with the same (trial context,
        ordinal within the context) compute the same thing."""
        n = self._ordinal[kind]
        self._ordinal[kind] = n + 1
        self._distinct[kind].add((self._ctx, n) if self._ctx is not None else (len(self.spans),))

    def _before_trial(self, args) -> None:
        # Alpha only changes the bounds, so draws and unconstrained rankings
        # are shared by every alpha cell of one (config, trial).
        cfg, trial = args[0], args[1]
        self._set_ctx(("trial", self.job, cfg.m_a, cfg.m_b, cfg.n, cfg.beta, cfg.target_group, trial))
        self._in_trial = True

    def _after_trial(self, args, result) -> None:
        self._in_trial = False

    def _after_rng(self, args, result) -> None:
        if not self._in_trial:
            self._set_ctx(("rng", self.job, args[0].master_seed, args[1]))

    def _after_uncons(self, args, result) -> None:
        self._use("solver.rank_unconstrained")
        self._last_uncons = (args[1], result.positions)

    def _after_greedy(self, args, result) -> None:
        instance, weights = args[0], args[1]
        if self._last_uncons[0] is weights:
            top = self._last_uncons[1]
        else:
            top = tuple(np.argsort(-np.asarray(weights, dtype=float), kind="stable")[: instance.n].tolist())
        self._greedy_bound += result.positions != top

    # -- summary ------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Layer metrics of the spans recorded since the last reset; the
        runner adds cli.output_bytes and trace.overhead_ratio."""
        spans = self.spans
        child = [0] * len(spans)
        for name, t0, t1, parent, job in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: Counter = Counter()
        busy: defaultdict = defaultdict(int)
        self_ns: defaultdict = defaultdict(int)
        for i, (name, t0, t1, parent, job) in enumerate(spans):
            calls[name] += 1
            if parent < 0 or spans[parent][0] != name:  # count nested same-name calls once
                busy[name] += t1 - t0
            self_ns[name.split(".", 1)[0]] += t1 - t0 - child[i]
        out: dict[str, float] = {}
        for metric in LAYER_METRICS:
            name, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls[name]
            elif kind == "busy_s":
                out[metric] = busy[name] / 1e9
            elif kind == "useful_ratio":
                out[metric] = _ratio(len(self._distinct[name]), calls[name])
            elif kind == "bind_ratio":
                out[metric] = _ratio(self._greedy_bound, calls[name])
            elif kind == "self_s" and name in SELF_LAYERS:
                out[metric] = self_ns[name] / 1e9
        return out


def write_spans(path, spans: list[list]) -> None:
    """Write spans as CSV: name, start and end (perf_counter ns), index of
    the parent span (-1 for none), job index within the cycle."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name,start_ns,end_ns,parent,job\n")
        fh.writelines(f"{n},{a},{b},{p},{j}\n" for n, a, b, p, j in spans)
