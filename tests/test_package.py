"""The package's public surface, its declared dependencies, and the trace
points that perfbench/tracing.py wraps: the benchmark's per-layer metrics
read spans recorded at these names, so renaming or moving one of them
breaks ``--trace 1`` runs."""

import ast
import importlib.util
import json
import re
import sys
import types
from pathlib import Path

import biasrank
from biasrank import cli, constraints, experiments, model, solver, stats

SUBMODULES = (model, constraints, solver, stats, experiments)

# The lines of src/biasrank/*.py, as ``wc -l`` counts them.
SRC_LINE_BUDGET = 2433


class TestPublicSurface:
    def test_every_name_is_its_defining_submodules_object(self):
        for name in biasrank.__all__:
            owners = [mod for mod in SUBMODULES if name in mod.__all__]
            assert len(owners) == 1, name
            assert getattr(biasrank, name) is getattr(owners[0], name)

    def test_all_is_the_sorted_union_of_the_submodule_alls(self):
        assert biasrank.__all__ == sorted(set().union(*(mod.__all__ for mod in SUBMODULES)))
        for mod in SUBMODULES:
            for name in mod.__all__:
                value = getattr(mod, name)  # constants and the Distribution union have no home module
                if isinstance(value, (type, types.FunctionType)):
                    assert value.__module__ == mod.__name__, (mod, name)

    def test_no_modules_and_no_private_names(self):
        assert biasrank.__all__ == sorted(set(biasrank.__all__))
        for name in biasrank.__all__:
            assert not name.startswith("_")
            assert not isinstance(getattr(biasrank, name), types.ModuleType)

    def test_star_import_binds_exactly_all(self):
        namespace: dict = {}
        exec("from biasrank import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == biasrank.__all__


def test_src_line_budget():
    src = Path(__file__).resolve().parents[1] / "src" / "biasrank"
    lines = sum(path.read_bytes().count(b"\n") for path in src.glob("*.py"))
    assert lines <= SRC_LINE_BUDGET, (
        f"src/biasrank/*.py has {lines} lines, over the budget of {SRC_LINE_BUDGET}: "
        "raise SRC_LINE_BUDGET in the same diff and say why in CHANGES.md"
    )


def test_every_third_party_import_is_a_declared_dependency():
    import tomllib  # Python 3.11+: imported here, so on 3.10 only this test fails and the module's others still run

    root = Path(__file__).resolve().parents[1]
    requirements = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower() for req in requirements}
    imported = set()
    for path in (root / "src" / "biasrank").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    assert imported - set(sys.stdlib_module_names) == declared


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTracePoints:
    def test_sweep_records_spans_and_uninstall_restores_every_attribute(self, tmp_path):
        owners = [cli, constraints, experiments, model, stats, stats.SeedSpec, model.Instance]
        owners += [constraints.ConstraintMatrix, *stats.Distribution.__args__]
        before = [dict(vars(owner)) for owner in owners]
        config = {
            "m_a": 12,
            "m_b": 12,
            "n": 8,
            "beta": 0.5,
            "alphas": [0.0, 0.25],
            "betas": [0.5],
            "dist_a": {"kind": "uniform"},
            "dist_b": {"kind": "lognormal"},
            "trials": 3,
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        tracer = load_tracing().Tracer()
        tracer.install()
        try:
            assert cli.main(["sweep", str(path), "--out", str(tmp_path / "sweep.csv")]) == 0
        finally:
            tracer.uninstall()
        names = {span[0] for span in tracer.spans}
        assert {"stats.draw", "experiments.run_sweep"} <= names
        for owner, saved in zip(owners, before):
            now = vars(owner)
            assert now.keys() == saved.keys(), owner
            for attr, value in saved.items():
                assert now[attr] is value, (owner, attr)
