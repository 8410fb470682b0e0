"""Benchmark workloads: inputs made from the seed, the CLI jobs that run
them, and the output checks every job must pass whatever the seed.

A job is one in-process ``biasrank.cli.main(argv)`` call.  A workload is a
fixed list of jobs (one cycle) plus the number of operations the cycle
performs; the worker repeats the cycle until its time is up.  Each job's
output is checked three ways: against the sha256 pinned in
``reference.json`` when the seed is the default one, against the bytes the
same job produced earlier in the run, and by a check that holds for any
seed (the paper's claims, or exact recomputation).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 0
NAMES = ("sweep", "orderstats", "repair")

# sweep: the acceptance-C6 grid at fewer trials per cell.
SWEEP_M, SWEEP_N, SWEEP_TRIALS, SWEEP_ROUNDS = 1000, 100, 30, 2
SWEEP_MB_FRACS = (0.25, 0.5)
SWEEP_BETAS = (0.25, 0.5)
SWEEP_ALPHAS = tuple(round(0.05 * i, 2) for i in range(11))
SWEEP_COLUMNS = "alpha,beta,m_a,m_b,n,trials,mean_cons,se_cons,mean_uncons,se_uncons,mean_opt,se_opt"

# orderstats: one job per distribution, both with one seed per run.  Cycles
# repeat identical jobs, so a run makes only four distinct 4-se tests and a
# chance excursion past 4 se (about 6e-5 per test) stays rare across runs.
OS_K, OS_L, OS_MA, OS_MB, OS_TRIALS = 10, 2, 50, 50, 30000
OS_SE_LIMIT = 4.0

# repair: exact repair of biased instances large enough that the general
# greedy lookahead dominates the solve.
REPAIR_N, REPAIR_P, REPAIR_INSTANCES = 1600, 3, 10
REPAIR_M = 4 * REPAIR_N
REPAIR_BETAS = (0.5, 0.7, 0.9)


def use_source_tree() -> None:
    """Import biasrank from the checkout's ``src`` directory."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def job_seed(workload: str, seed: int, index: int) -> int:
    """64-bit CLI seed for the index-th job group of a workload run."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class Job:
    argv: list[str]
    check: Callable[[bytes], list[str]]
    out_path: Path | None = None  # set when the job writes with --out


@dataclass
class Workload:
    jobs: list[Job]
    ops: int  # operations per cycle of all jobs


@dataclass
class JobResult:
    seconds: float
    digest: str
    size: int
    problems: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Setup


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def setup_sweep(seed: int, workdir: Path) -> Workload:
    configs = []
    for frac in SWEEP_MB_FRACS:
        m_b = int(SWEEP_M * frac)
        cfg = {
            "m_a": SWEEP_M - m_b,
            "m_b": m_b,
            "n": SWEEP_N,
            "alphas": list(SWEEP_ALPHAS),
            "betas": list(SWEEP_BETAS),
            "dist_a": {"kind": "uniform", "a": 0.0, "b": 1.0},
            "dist_b": {"kind": "uniform", "a": 0.0, "b": 1.0},
            "discount": {"kind": "dcg"},
            "trials": SWEEP_TRIALS,
        }
        configs.append((frac, _write_json(workdir / f"sweep-mb{m_b}.json", cfg)))
    jobs = []
    for r in range(SWEEP_ROUNDS):
        s = job_seed("sweep", seed, r)
        for frac, path in configs:
            check = functools.partial(check_sweep, mb_frac=frac, cli_seed=s)
            jobs.append(Job(["sweep", path, "--seed", str(s), "--threads", "1"], check))
    ops = SWEEP_ROUNDS * len(SWEEP_MB_FRACS) * len(SWEEP_BETAS) * len(SWEEP_ALPHAS) * SWEEP_TRIALS
    return Workload(jobs, ops)


def setup_orderstats(seed: int, workdir: Path) -> Workload:
    lognormal = _write_json(workdir / "lognormal.json", {"kind": "lognormal", "mu": 0.0, "sigma": 1.0})
    s = job_seed("orderstats", seed, 0)
    base = [
        "orderstats", "--k", str(OS_K), "--l", str(OS_L), "--ma", str(OS_MA), "--mb", str(OS_MB),
        "--trials", str(OS_TRIALS), "--seed", str(s), "--threads", "1",
    ]
    check = functools.partial(check_orderstats, cli_seed=s)
    jobs = [Job(base, check), Job(base + ["--dist", lognormal], check)]
    return Workload(jobs, 2 * OS_TRIALS)


def _dcg(n: int) -> np.ndarray:
    return 1.0 / np.log(np.arange(1, n + 1, dtype=float) + 1.0)


def setup_repair(seed: int, workdir: Path) -> Workload:
    """Random instances with p disjoint groups plus ungrouped items (label
    -1).  The expected answers come from the latent-optimal ranking: the
    derived bounds are its prefix counts, and the exact-repair theorem says
    solving the biased instance under them returns that ranking."""
    rng = np.random.default_rng(seed)
    n, m, p = REPAIR_N, REPAIR_M, REPAIR_P
    v = _dcg(n)
    factors = np.array(REPAIR_BETAS + (1.0,))  # index -1 picks the 1.0
    betas_arg = ",".join(str(b) for b in REPAIR_BETAS)
    jobs = []
    for i in range(REPAIR_INSTANCES):
        w = rng.uniform(0.0, 1.0, m)
        labels = rng.integers(-1, p, m)
        inst = {
            "n": n,
            "v": {"kind": "dcg"},
            "groups": [np.nonzero(labels == s)[0].tolist() for s in range(p)],
            "items": [
                {"id": j, "w": wj, "groups": [g] if g >= 0 else []}
                for j, (wj, g) in enumerate(zip(w.tolist(), labels.tolist()))
            ],
        }
        inst_path = _write_json(workdir / f"repair-{i}.json", inst)
        bounds_path = workdir / f"repair-{i}-bounds.json"
        top = np.argsort(-w, kind="stable")[:n]
        onehot = labels[top, None] == np.arange(p)
        bounds = np.cumsum(onehot, axis=0).tolist()
        expected = {
            "positions": top.tolist(),
            "latent_utility": float(w[top] @ v),
            "observed_utility": float((w * factors[labels])[top] @ v),
            "betas": list(REPAIR_BETAS),
        }
        jobs.append(
            Job(
                ["derive-constraints", inst_path, "--out", str(bounds_path)],
                functools.partial(check_derived, bounds=bounds),
                out_path=bounds_path,
            )
        )
        jobs.append(
            Job(
                ["solve", inst_path, "--constraints", str(bounds_path), "--betas", betas_arg],
                functools.partial(check_repair, expected=expected),
            )
        )
    return Workload(jobs, REPAIR_INSTANCES)


SETUP = {"sweep": setup_sweep, "orderstats": setup_orderstats, "repair": setup_repair}


# ---------------------------------------------------------------------------
# Seed-independent checks; each returns a list of problems (empty when fine)


def check_sweep(out: bytes, mb_frac: float, cli_seed: int) -> list[str]:
    lines = out.decode().splitlines()
    if lines[:2] != [f"# seed={cli_seed}", SWEEP_COLUMNS]:
        return ["sweep header differs"]
    rows = [[float(x) for x in line.split(",")] for line in lines[2:]]
    m_b = int(SWEEP_M * mb_frac)
    grid = [(b, a) for b in SWEEP_BETAS for a in SWEEP_ALPHAS]
    if [(r[1], r[0]) for r in rows] != grid:
        return ["sweep rows do not cover the (beta, alpha) grid in order"]
    problems = []
    for r in rows:
        if r[2:6] != [SWEEP_M - m_b, m_b, SWEEP_N, SWEEP_TRIALS]:
            problems.append(f"row alpha={r[0]} beta={r[1]} echoes wrong sizes")
        if not (r[10] >= r[6] and r[10] >= r[8]):
            problems.append(f"row alpha={r[0]} beta={r[1]}: mean_opt below mean_cons or mean_uncons")
    for beta in SWEEP_BETAS:
        cells = [r for r in rows if r[1] == beta]
        means = [r[6] for r in cells]
        best = cells[means.index(max(means))][0]
        if abs(best - mb_frac) > 0.1 + 1e-9:
            problems.append(f"beta={beta}: constrained mean peaks at alpha={best}, not near {mb_frac}")
        star = next(r for r in cells if abs(r[0] - mb_frac) < 1e-9)
        sep = (star[6] - star[8]) / math.hypot(star[7], star[9])
        if not sep > 3.0:
            problems.append(f"beta={beta}: constrained beats unconstrained by only {sep:.2f} se")
    return problems


def check_orderstats(out: bytes, cli_seed: int) -> list[str]:
    d = json.loads(out)
    echo = {"seed": cli_seed, "trials": OS_TRIALS, "k": OS_K, "l": OS_L, "m_a": OS_MA, "m_b": OS_MB}
    problems = [f"{key} echoed as {d.get(key)}" for key, val in echo.items() if d.get(key) != val]
    # The closed forms are recomputed here so a wrong analytic value fails
    # even if the Monte Carlo estimate happens to agree with it.
    analytic = {"Nkb": OS_K * OS_MB / (OS_MA + OS_MB), "Pl": OS_L * (1.0 + OS_MA / (OS_MB + 1.0))}
    mc = d["monte_carlo"]
    for name, exact in analytic.items():
        printed = d["analytic"][f"expected_{name}"]
        if not math.isclose(printed, exact, rel_tol=1e-12):
            problems.append(f"expected_{name} is {printed}, closed form gives {exact}")
        mean, se = mc[f"mean_{name}"], mc[f"se_{name}"]
        if not (se > 0 and abs(mean - exact) <= OS_SE_LIMIT * se):
            problems.append(f"mean_{name}={mean} is not within {OS_SE_LIMIT} se ({se}) of {exact}")
    return problems


def check_derived(out: bytes, bounds: list[list[int]]) -> list[str]:
    d = json.loads(out)
    if (d.get("n"), d.get("p"), d.get("L")) != (REPAIR_N, REPAIR_P, bounds):
        return ["derived bounds differ from the latent-optimal prefix counts"]
    return []


def check_repair(out: bytes, expected: dict) -> list[str]:
    d = json.loads(out)
    return [f"solve {key} differs from the latent optimum" for key, val in expected.items() if d.get(key) != val]


# ---------------------------------------------------------------------------
# Running and verifying jobs


def load_golden(workload: str, seed: int) -> list[str] | None:
    """Pinned output digests, defined for the default seed only."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"][workload]["golden_sha256"]


def run_job(job: Job, main: Callable[[list[str]], int]) -> tuple[float, int | None, bytes, str]:
    """Call main(argv) with stdout and stderr captured; only the call is timed.

    Returns (seconds, exit code or None if it raised, output bytes, stderr).
    """
    if job.out_path is not None:
        job.out_path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(job.argv)
        except Exception:  # a crash is a failed job, not a failed benchmark
            traceback.print_exc(file=err)
        seconds = time.perf_counter() - t0
    if job.out_path is not None:
        data = job.out_path.read_bytes() if job.out_path.exists() else b""
    else:
        data = out.getvalue().encode()
    return seconds, code, data, err.getvalue()


def verify(job: Job, seconds: float, code: int | None, data: bytes, stderr: str, golden: str | None,
           earlier: str | None) -> JobResult:
    digest = hashlib.sha256(data).hexdigest()
    problems = []
    if code != 0:
        problems.append(f"exit code {code}: {stderr.strip()[-300:]}")
    if golden is not None and digest != golden:
        problems.append("output sha256 differs from the pinned default-seed digest")
    if earlier is not None and digest != earlier:
        problems.append("output differs from an earlier run of the same job")
    if code == 0:
        try:
            problems.extend(job.check(data))
        except (ValueError, KeyError, IndexError, TypeError, StopIteration) as exc:
            problems.append(f"unreadable output: {exc!r}")
    return JobResult(seconds, digest, len(data), problems)


def run_cycle(wl: Workload, main, golden: list[str] | None, digests: dict[int, str],
              before_job=None) -> list[JobResult]:
    """Run every job of the workload once (one cycle) and verify each output.

    ``digests`` maps job index to the first digest seen in this run; it is
    filled on first sight and compared against afterwards.
    """
    results = []
    for index, job in enumerate(wl.jobs):
        if before_job is not None:
            before_job(index)
        res = verify(job, *run_job(job, main), golden[index] if golden else None, digests.get(index))
        digests.setdefault(index, res.digest)
        results.append(res)
    return results
