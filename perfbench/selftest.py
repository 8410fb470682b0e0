"""Self-test of the benchmark's output checker.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Shows that the checks catch what they are meant to catch: a flipped output
byte, a nonzero exit and a wrong closed-form mean each raise the failed
ratio above 0, while a clean cycle fails nothing at the default seed
(golden digests) and at a second seed (seed-independent checks only), whose
inputs differ from the default seed's.  Takes about a minute.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

import workloads as W

SECOND_SEED = 1


def failed_ratio(cycle: list[W.JobResult]) -> float:
    return sum(1 for r in cycle if r.problems) / len(cycle)


def input_digest(wl: W.Workload, workdir: Path) -> str:
    h = hashlib.sha256()
    for job in wl.jobs:
        h.update(" ".join(job.argv).encode())
    for path in sorted(workdir.iterdir()):
        h.update(path.read_bytes())
    return h.hexdigest()


def flip_one_byte(data: bytes) -> bytes:
    b = bytearray(data)
    b[len(b) // 2] ^= 1
    return bytes(b)


def main() -> int:
    W.use_source_tree()
    from biasrank import cli

    def flipping_main(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if "--out" in argv:
            path = Path(argv[argv.index("--out") + 1])
            path.write_bytes(flip_one_byte(path.read_bytes()))
        else:
            sys.stdout.write(flip_one_byte(buf.getvalue().encode()).decode())
        return code

    def failing_main(argv):
        cli.main(argv)
        return 3

    real_expected_pl = cli.expected_Pl

    def wrong_expected_pl(*args):
        return real_expected_pl(*args) * 1.01

    ok = True

    def report(name: str, passed: bool, detail: str) -> None:
        nonlocal ok
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}", flush=True)

    base = W.ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="selftest-", dir=base))
    try:
        for name in W.NAMES:
            setups = {}
            for seed in (W.DEFAULT_SEED, SECOND_SEED):
                d = root / f"{name}-{seed}"
                d.mkdir()
                wl = W.SETUP[name](seed, d)
                golden = W.load_golden(name, seed)
                cyc = W.run_cycle(wl, cli.main, golden, {})
                problems = [p for r in cyc for p in r.problems]
                report(f"{name} seed={seed} clean", not problems, f"failed_ratio={failed_ratio(cyc)} {problems[:3]}")
                setups[seed] = (wl, d)
            (wl0, d0), (wl1, d1) = setups[W.DEFAULT_SEED], setups[SECOND_SEED]
            report(f"{name} second seed changes inputs", input_digest(wl0, d0) != input_digest(wl1, d1), "")

            golden = W.load_golden(name, W.DEFAULT_SEED)
            cyc = W.run_cycle(wl0, flipping_main, golden, {})
            report(f"{name} flipped byte", failed_ratio(cyc) > 0, f"failed_ratio={failed_ratio(cyc)}")
            cyc = W.run_cycle(wl0, failing_main, golden, {})
            report(f"{name} nonzero exit", failed_ratio(cyc) > 0, f"failed_ratio={failed_ratio(cyc)}")

        d = root / "orderstats-wrong-mean"
        d.mkdir()
        wl = W.SETUP["orderstats"](SECOND_SEED, d)
        cli.expected_Pl = wrong_expected_pl
        try:
            cyc = W.run_cycle(wl, cli.main, None, {})
        finally:
            cli.expected_Pl = real_expected_pl
        report("orderstats wrong closed-form mean", failed_ratio(cyc) > 0, f"failed_ratio={failed_ratio(cyc)}")
    finally:
        shutil.rmtree(root, ignore_errors=True)
        if not any(base.iterdir()):
            base.rmdir()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
