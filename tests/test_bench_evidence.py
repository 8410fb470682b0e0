"""The committed benchmark evidence stays well formed.

Each ``BENCH_<workload>.json`` at the repository root maps a change number
to the runs measured for it: one entry per ``perfbench/run.py`` invocation,
with the side (``parent`` or ``change``), the seed, the ``--trace`` value and
the JSON line the run printed, verbatim, as ``result``.  Each change
number holds exactly one ``parent`` and one ``change`` run per (seed,
trace), so every run has its pair.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
END_TO_END = ("ops_per_ref_s", "setup_s", "peak_rss_mb")


def test_evidence_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_every_run_passed_its_output_checks(path):
    workload = path.name.removeprefix("BENCH_").removesuffix(".json")
    doc = json.loads(path.read_text())
    assert doc and all(key.isdigit() for key in doc)
    for runs in doc.values():
        assert {entry["side"] for entry in runs} == {"parent", "change"}
        sides = Counter((entry["seed"], entry["trace"], entry["side"]) for entry in runs)
        pairs = {(seed, trace) for seed, trace, _ in sides}
        assert sides == Counter({(seed, trace, side): 1 for seed, trace in pairs for side in ("parent", "change")})
        for entry in runs:
            assert entry["workload"] == workload and entry["trace"] in (0, 1)
            result = entry["result"]
            assert result["correct"] is True
            assert result["failed"] == 0 < result["attempted"]
            metrics = result["metrics"]
            # trace 0 reports the end-to-end metrics, trace 1 the per-layer ones
            assert (set(END_TO_END) <= set(metrics)) == (entry["trace"] == 0)
            assert metrics and all(isinstance(m["value"], (int, float)) and m["unit"] for m in metrics.values())
