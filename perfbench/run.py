"""biasrank benchmark: one workload run, measured from a fresh process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep|orderstats|repair \
        [--seed N] [--seconds S] [--trace 0|1]

The workload runs in a child process (perfbench/worker.py) with BLAS and
OpenMP pinned to one thread.  With ``--trace 0`` the run reports the
end-to-end metrics: ``setup_s`` is the median, over several fresh
processes, of the time from process start until biasrank is imported and
the inputs are written; ``ops_per_ref_s`` is ``ops_per_s``, the
operations of one job cycle over the sum of each job's median time inside
``biasrank.cli.main`` across the run's cycles, times the host slowdown
that perfbench/worker.py measures alongside; ``peak_rss_mb``
is the workload process's peak resident set.  With ``--trace 1`` it reports
the per-layer metrics of perfbench/tracing.py instead.  Every job's output
is checked (see perfbench/workloads.py); a job that fails counts in
``failed``.  The last line of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import LAYER_METRICS
from workloads import NAMES

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 7  # processes timed for setup_s; the last one also measures
TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
END_TO_END = {"ops_per_ref_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def _start(argv: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its READY line; returns (process, set-up seconds)."""
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv], stdout=subprocess.PIPE, env=env, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        _stop(proc)
        raise BenchError(f"worker did not get ready (exit code {proc.returncode})")
    return proc, setup


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def _finish(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for a worker to exit cleanly; returns the rest of its output."""
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError("worker ran past the time limit")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if not (Path("src") / "biasrank" / "cli.py").is_file():
        raise BenchError("run from the root of a biasrank checkout (src/biasrank not found)")
    deadline = time.monotonic() + TIMEOUT_S
    base = Path(".perfbench_work")
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=base))
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = None
    try:
        setups = []
        for i in range(SETUP_SAMPLES - 1 if trace == 0 else 0):
            probe_dir = workdir / f"probe{i}"
            probe_dir.mkdir()
            proc, setup = _start(argv + ["--workdir", str(probe_dir), "--setup-only"], deadline)
            _finish(proc, deadline)
            setups.append(setup)
        proc, setup = _start(argv + ["--workdir", str(workdir)], deadline)
        setups.append(setup)
        lines = _finish(proc, deadline).splitlines()
        if not lines:
            raise BenchError("worker printed no result")
        report = json.loads(lines[-1])
    finally:
        if proc is not None:
            _stop(proc)
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(base.iterdir()):
            base.rmdir()

    if trace:
        metrics = {k: {"value": report["layers"][k], "unit": u} for k, u in LAYER_METRICS.items()}
        samples = {k: report["traced_cycles"] for k in LAYER_METRICS}
    else:
        values = {"ops_per_ref_s": report["ops_per_ref_s"], "setup_s": statistics.median(setups),
                  "peak_rss_mb": report["peak_rss_mb"]}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        samples = {"ops_per_ref_s": report["cycles"], "setup_s": len(setups), "peak_rss_mb": 1}
    for k, m in metrics.items():
        print(f"{workload:<10} {k:<42} {m['value']:>14.6g} {m['unit']:<6} n={samples[k]}")
    if not trace:
        print(f"{workload:<10} {'ops_per_s':<42} {report['ops_per_s']:>14.6g} {'1/s':<6} n={report['cycles']}")
        print(f"{workload:<10} {'host_slowdown':<42} {report['host_slowdown']:>14.6g} {'ratio':<6} "
              f"n={report['calibrations']}")
    attempted, failed = report["attempted"], report["failed"]
    print(f"{workload:<10} {'failed_ratio':<42} {failed / attempted:>14.6g} {'ratio':<6} n={attempted} jobs")
    for problem in report["problems"]:
        print(f"{workload:<10} problem: {problem}")
    return {"correct": failed == 0 and not report["problems"], "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=NAMES, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
