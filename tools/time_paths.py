"""In-process timings of the CLI paths perfbench does not time.

Usage, from the root of a checkout::

    python3 tools/time_paths.py [--repeats R] [--best-of K] [--src PATH]

Two cases run through ``biasrank.cli.main`` in this process:

* ``mixing_beta_sweep``: ``sweep`` at beta 0.9, m_a = m_b = 500, n = 100,
  DCG, alphas 0, 0.05, ..., 0.5, uniform utilities, 200 trials, seed 0.
  Targets reach the observed top n here, unlike at perfbench's betas.
* ``supernumerary``: m_a = m_b = 400, n = 40, DCG, alpha 0.15, gamma 1.5,
  ``Uniform(0, 100)`` scores, 2000 trials, seed 7.

Each repeat runs every case K times in turn and keeps its fastest wall
time (``time.perf_counter``), so one slow call on a shared host does not
count.  One JSON line per case gives the median and quartiles of the R
best-of-K times in seconds and the sha256 of the output, which must be the
same on every call.  ``--src`` times the package under another source tree,
such as a second checkout, so two versions can be compared run for run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
UNIFORM = {"kind": "uniform", "a": 0.0, "b": 1.0}

# name -> (subcommand, config document, extra arguments)
CASES = {
    "mixing_beta_sweep": (
        "sweep",
        {
            "m_a": 500, "m_b": 500, "n": 100, "alphas": [round(0.05 * i, 2) for i in range(11)], "betas": [0.9],
            "dist_a": UNIFORM, "dist_b": UNIFORM, "discount": {"kind": "dcg"}, "trials": 200,
        },
        ["--seed", "0"],
    ),
    "supernumerary": (
        "supernumerary",
        {
            "n": 40, "m_a": 400, "m_b": 400, "alpha": 0.15, "gamma": 1.5,
            "dist_a": {"kind": "uniform", "a": 0.0, "b": 100.0}, "dist_b": {"kind": "uniform", "a": 0.0, "b": 100.0},
            "discount": {"kind": "dcg"}, "trials": 2000,
        },
        ["--seed", "7"],
    ),
}


def case_argv(name: str, workdir: Path) -> list[str]:
    """The CLI arguments of a case, its config written into ``workdir``."""
    command, doc, extra = CASES[name]
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return [command, str(path), *extra]


def run_once(main, argv: list[str]) -> tuple[float, bytes]:
    """Wall seconds of one ``main(argv)`` call and what it wrote to stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = main(argv)
        seconds = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return seconds, out.getvalue().encode()


def time_cases(main, repeats: int, best_of: int, workdir: Path) -> list[dict]:
    argvs = {name: case_argv(name, workdir) for name in CASES}
    best: dict[str, list[float]] = {name: [] for name in CASES}
    outputs: dict[str, set[bytes]] = {name: set() for name in CASES}
    for _ in range(repeats):
        for name, argv in argvs.items():
            runs = [run_once(main, argv) for _ in range(best_of)]
            best[name].append(min(seconds for seconds, _ in runs))
            outputs[name].update(out for _, out in runs)
    results = []
    for name, times in best.items():
        if len(outputs[name]) != 1:
            raise SystemExit(f"{name}: the output changed between calls")
        q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive") if len(times) > 1 else times * 3
        results.append(
            {
                "case": name,
                "repeats": repeats,
                "best_of": best_of,
                "median_s": median,
                "q1_s": q1,
                "q3_s": q3,
                "sha256": hashlib.sha256(outputs[name].pop()).hexdigest(),
            }
        )
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeats", type=int, default=20, help="best-of-K times per case (default 20)")
    parser.add_argument("--best-of", type=int, default=5, help="calls per repeat and case (default 5)")
    parser.add_argument("--src", default=str(ROOT / "src"), help="source tree to import biasrank from")
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.best_of < 1:
        parser.error("--repeats and --best-of must be positive")
    sys.path.insert(0, args.src)
    from biasrank import cli

    with tempfile.TemporaryDirectory() as tmp:
        for result in time_cases(cli.main, args.repeats, args.best_of, Path(tmp)):
            print(json.dumps({**result, "src": args.src}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
