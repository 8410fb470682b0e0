"""Run the benchmark over several seeds and summarize every end-to-end metric.

Usage, from the root of a checkout::

    python3 perfbench/report.py [--workloads sweep,orderstats,repair] \
        [--seeds 0-9] [--seconds S]

For each workload and each metric run.py prints (the end-to-end metrics
plus the raw ``ops_per_s`` and ``host_slowdown`` behind ``ops_per_ref_s``),
prints the median over the runs, the interquartile range as a share of the
median (``statistics.quantiles`` with n=4), the bound from BENCHMARK.json
where there is one, and the per-run sample count; also the failed ratio
over all jobs.  Runs are sequential, one process at a
time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for wl in args.workloads.split(","):
        values: dict[str, list[float]] = defaultdict(list)
        units: dict[str, str] = {}
        samples: dict[str, set[str]] = defaultdict(set)
        attempted = failed = 0
        for seed in seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{wl} seed={seed}: run failed (exit {proc.returncode}): {proc.stderr.strip()[-300:]}")
                status = 1
                continue
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            if not result["correct"]:
                status = 1
                print("\n".join(line for line in lines if "problem:" in line))
            # Table lines are "workload name value unit n=count"; values of
            # the end-to-end metrics are taken at full precision from the JSON.
            for line in lines[:-1]:
                fields = line.split()
                if len(fields) == 5 and fields[1] != "failed_ratio":
                    name = fields[1]
                    metric = result["metrics"].get(name)
                    values[name].append(metric["value"] if metric else float(fields[2]))
                    units[name] = fields[3]
                    samples[name].add(fields[4])
            print(f"{wl} seed={seed}: " + "  ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            print(f"{wl:<10} {name:<13} median {med:.6g} {units[name]}  iqr/median {spread:.4f}"
                  f"  bound {bounds.get(name, '-')}  runs {len(vals)}  per-run {','.join(sorted(samples[name]))}")
        ratio = failed / attempted if attempted else float("nan")
        print(f"{wl:<10} failed_ratio {ratio:.6g} ({failed}/{attempted} jobs)")
    return status


if __name__ == "__main__":
    sys.exit(main())
