"""One workload process: set up, then repeat the workload's job cycle.

Usage (started by run.py, one fresh process per workload run)::

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR [--setup-only]

Prints ``READY`` once biasrank is imported and the inputs are written, so
the parent can time set-up, then one JSON line with the run's results.
With ``--trace 0`` every cycle is untraced, and a calibration kernel is
timed between jobs to measure how fast the host ran during the run.  With ``--trace 1`` untraced and
traced cycles alternate; the traced ones give the layer metrics, their
ratio gives the tracing overhead, and their outputs must hash the same as
the untraced ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import time
from pathlib import Path

import numpy as np

import workloads as W
from tracing import COUNT_METRICS, Tracer, write_spans

SPANS_DIR = ".perfbench_out"

# On a shared host the same code runs 20-40% slower for a minute or more
# while other tenants are busy, which no affordable run length averages
# out.  So a fixed kernel of interpreter and numpy work, independent of
# biasrank, is timed just before every job (about once per CAL_EVERY_S of
# job time), and each job's time is divided by that moment's slowdown, the
# kernel's median time over CAL_REF_S.  ops_per_ref_s is then throughput on
# a host that runs the kernel in CAL_REF_S.  The kernel allocates nothing
# the collector tracks and runs with the collector off, so its time does
# not depend on what the workload left on the heap.
CAL_REF_S = 0.005
CAL_EVERY_S = 0.25
_CAL_DATA = np.random.default_rng(12345).uniform(size=50000)
_CAL_BUF = np.empty_like(_CAL_DATA)


def _calibration_kernel() -> float:
    gc.disable()
    try:
        t0 = time.perf_counter()
        s = 0
        for i in range(40000):
            s += i * i
        _CAL_BUF[:] = _CAL_DATA
        _CAL_BUF.sort()
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Calibrator:
    """``before_job`` hook: times the kernel as many times as CAL_EVERY_S
    fits into the time since its previous call and records the slowdown
    that applies to the job about to run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.slowdowns: list[float] = []  # one per job run, in order
        self._last: float | None = None

    def __call__(self, index: int) -> None:
        reps = 1 if self._last is None else 1 + int((time.perf_counter() - self._last) / CAL_EVERY_S)
        times = [_calibration_kernel() for _ in range(reps)]
        self.samples.extend(times)
        self.slowdowns.append(statistics.median(times) / CAL_REF_S)
        self._last = time.perf_counter()


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=W.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    W.use_source_tree()
    from biasrank import cli

    wl = W.SETUP[args.workload](args.seed, args.workdir)
    golden = W.load_golden(args.workload, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return

    digests: dict[int, str] = {}
    plain: list[list[W.JobResult]] = []  # one list of job results per cycle
    traced: list[list[W.JobResult]] = []
    layers: list[dict] = []
    first_spans = None
    tracer = Tracer() if args.trace else None
    calibrator = None if tracer else Calibrator()
    start = time.perf_counter()
    # The first cycle of a process runs cold; in a traced run it is left out
    # of the traced/untraced comparison.
    warmup = [W.run_cycle(wl, cli.main, golden, digests)] if tracer else []
    last = 0.0
    while not plain or time.perf_counter() - start + last <= args.seconds:
        t0 = time.perf_counter()
        plain.append(W.run_cycle(wl, cli.main, golden, digests, calibrator))
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                cyc = W.run_cycle(wl, tracer.wrap("cli.main", cli.main), golden, digests, tracer.start_job)
            finally:
                tracer.uninstall()
            traced.append(cyc)
            summary = tracer.summary()
            summary["cli.output_bytes"] = sum(r.size for r in cyc)
            layers.append(summary)
            if first_spans is None:
                first_spans = list(tracer.spans)
        last = time.perf_counter() - t0

    results = [r for cyc in warmup + plain + traced for r in cyc]
    failed = [r for r in results if r.problems]
    report = {
        "attempted": len(results),
        "failed": len(failed),
        "problems": sorted({p for r in failed for p in r.problems})[:10],
        "cycles": len(plain),
        "ops_per_s": wl.ops / _median_cycle_seconds([[r.seconds for r in c] for c in plain]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if calibrator is not None:
        n = len(wl.jobs)
        ref_times = [
            [r.seconds / slow for r, slow in zip(c, calibrator.slowdowns[i * n : (i + 1) * n])]
            for i, c in enumerate(plain)
        ]
        report["ops_per_ref_s"] = wl.ops / _median_cycle_seconds(ref_times)
        report["host_slowdown"] = statistics.median(calibrator.samples) / CAL_REF_S
        report["calibrations"] = len(calibrator.samples)
    if tracer is not None:
        report["layers"] = _layer_metrics(layers, plain, traced)
        report["traced_cycles"] = len(traced)
        counts_differ = [k for k in COUNT_METRICS if len({m[k] for m in layers}) > 1]
        if counts_differ:
            report["problems"].append(f"counts differ between traced cycles: {counts_differ}")
        out = Path(SPANS_DIR)
        out.mkdir(exist_ok=True)
        write_spans(out / f"spans-{args.workload}-seed{args.seed}.csv", first_spans)
    print(json.dumps(report), flush=True)


def _median_cycle_seconds(times: list[list[float]]) -> float:
    """Sum over jobs of each job's median time across cycles (``times[c][j]``
    is job j in cycle c): a burst of interference from other processes slows
    a few job runs, and a per-job median drops them while every job still
    counts once."""
    return sum(statistics.median(runs) for runs in zip(*times))


def _layer_metrics(layers: list[dict], plain: list[list[W.JobResult]],
                   traced: list[list[W.JobResult]]) -> dict[str, float]:
    """Median of each layer metric over the traced cycles; counts are equal
    across cycles, so their median is the count itself."""
    out = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    seconds = [[[r.seconds for r in c] for c in cycles] for cycles in (traced, plain)]
    out["trace.overhead_ratio"] = _median_cycle_seconds(seconds[0]) / _median_cycle_seconds(seconds[1]) - 1.0
    return out


if __name__ == "__main__":
    main()
