"""Smoke test of tools/time_paths.py at its smallest setting: one call per
case, and each printed sha256 is that of the CLI's own output for the
case's config."""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

from biasrank.cli import main

TOOL = Path(__file__).resolve().parents[1] / "tools" / "time_paths.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("time_paths", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smallest_setting_prints_the_cli_output_digests(tmp_path, capsys):
    tool = load_tool()
    assert tool.main(["--repeats", "1", "--best-of", "1"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["case"] for r in lines] == list(tool.CASES)
    for result in lines:
        assert result["repeats"] == result["best_of"] == 1
        assert 0 < result["q1_s"] == result["median_s"] == result["q3_s"]
        out = tmp_path / f"{result['case']}.out"
        assert main([*tool.case_argv(result["case"], tmp_path), "--out", str(out)]) == 0
        assert result["sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()
