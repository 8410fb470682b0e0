"""Record the default-seed output digests and the environment in
perfbench/reference.json.

Usage, from the root of a git checkout::

    python3 perfbench/pin.py

Runs one cycle of every workload at the default seed, refuses to pin if any
job fails its seed-independent checks, and rewrites only the
``golden_sha256`` lists and the ``environment`` block.  Re-pinning is a
deliberate act: a change that claims identical output must leave the
pinned digests as they are.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import workloads as W


def environment() -> dict:
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=W.ROOT, capture_output=True, text=True).stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit or "unknown",
    }


def main() -> int:
    W.use_source_tree()
    from biasrank import cli

    ref = json.loads(W.REFERENCE.read_text(encoding="utf-8"))
    base = W.ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="pin-", dir=base))
    try:
        for name in W.NAMES:
            (workdir / name).mkdir()
            wl = W.SETUP[name](W.DEFAULT_SEED, workdir / name)
            cycle = W.run_cycle(wl, cli.main, None, {})
            problems = [p for r in cycle for p in r.problems]
            if problems:
                print(f"{name}: not pinned, checks failed: {problems[:5]}", file=sys.stderr)
                return 1
            ref["workloads"][name]["golden_sha256"] = [r.digest for r in cycle]
            print(f"{name}: pinned {len(cycle)} digests")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(base.iterdir()):
            base.rmdir()
    ref["environment"] = environment()
    W.REFERENCE.write_text(json.dumps(ref, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
