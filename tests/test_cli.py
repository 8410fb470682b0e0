import contextlib
import copy
import dataclasses
import gc
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings, strategies as st

import biasrank
from biasrank import ConstraintMatrix, DiscountVector, cli, experiments, model, satisfies, stats
from biasrank.cli import ingest_scores, main

FACT_INSTANCE_W = {
    "n": 2,
    "v": {"kind": "custom", "values": [2.0, 1.0]},
    "groups": [[0], [1]],
    "items": [
        {"id": 0, "w": 2.0, "groups": [0]},
        {"id": 1, "w": 1.0, "groups": [1]},
    ],
}

FACT_INSTANCE_W_PRIME = {
    "n": 2,
    "v": {"kind": "custom", "values": [2.0, 1.0]},
    "groups": [[0], [1]],
    "items": [
        {"id": 0, "w": 1.0, "groups": [0]},
        {"id": 1, "w": 2.0, "groups": [1]},
    ],
}

# The smallest instance where per-group derived bounds miss the latent optimum: item 0
# is in groups 0 and 1, item 1 in group 1, item 2 in none and item 3 in group 0.
OVERLAP_COUNTEREXAMPLE = {
    "n": 2,
    "v": {"kind": "dcg"},
    "groups": [[0, 3], [0, 1]],
    "items": [
        {"id": 0, "w": 0.577, "groups": [0, 1]},
        {"id": 1, "w": 0.776, "groups": [1]},
        {"id": 2, "w": 0.462},
        {"id": 3, "w": 0.91, "groups": [0]},
    ],
}

ITEM_WITHOUT_W = {**FACT_INSTANCE_W, "items": [{"id": 0, "w": 2.0, "groups": [0]}, {"id": 1, "groups": [1]}]}

TRIAL_CONFIG = {
    "m_a": 12,
    "m_b": 12,
    "n": 8,
    "beta": 0.5,
    "alpha": 0.25,
    "dist_a": {"kind": "uniform", "a": 0.0, "b": 1.0},
    "dist_b": {"kind": "uniform", "a": 0.0, "b": 1.0},
    "discount": {"kind": "dcg"},
}

SUPERNUMERARY_CONFIG = {
    "n": 10,
    "m_a": 30,
    "m_b": 10,
    "alphas": [0.1, 0.2],
    "gamma": 1.076,
    "score_offset": 105.0,
    "dist_a": {"kind": "normal", "mu": 30.79, "sigma": 51.80},
    "dist_b": {"kind": "normal", "mu": 21.24, "sigma": 39.27},
    "trials": 10,
}


# Utilities near the float maximum: finite draws whose means or standard
# errors overflow.
HUGE_TRIAL_CONFIG = {
    **TRIAL_CONFIG,
    "m_a": 20,
    "m_b": 20,
    "n": 5,
    "dist_a": {"kind": "normal", "mu": 1e307, "sigma": 1},
    "dist_b": {"kind": "normal", "mu": 1e307, "sigma": 1},
    "discount": {"kind": "constant"},
}
HUGE_SPREAD = {"kind": "normal", "mu": 1e307, "sigma": 1e306}
# Finite parameters whose draws overflow, and whose draws' discounted sums overflow.
HUGE_DRAWS = {"kind": "shifted_scaled", "base": {"kind": "uniform"}, "scale": 1e308, "shift": 1e308}
HUGE_SUMS = {"kind": "lognormal", "mu": 708.0, "sigma": 0.01}
# id -> (argv, files): each runs into numpy overflow, which must reach no stderr line but the one error.
OVERFLOWING = {
    f"{name}-{command}": ([command, "cfg"], {"cfg": {**base, **sizes, "dist_a": dist, "dist_b": dist}})
    for command, base in [
        ("sweep", {**TRIAL_CONFIG, "alphas": [0.25], "betas": [0.5]}),
        ("simulate", TRIAL_CONFIG),
        ("supernumerary", SUPERNUMERARY_CONFIG),
    ]
    for name, dist, sizes in [
        ("huge-draws", HUGE_DRAWS, {"m_a": 5, "m_b": 5, "n": 3, "discount": {"kind": "constant"}, "trials": 3}),
        ("huge-sums", HUGE_SUMS, {"m_a": 50, "m_b": 50, "n": 30, "discount": {"kind": "dcg"}, "trials": 20}),
    ]
}
OVERFLOWING["huge-utility-solve"] = (
    ["solve", "inst"],
    {"inst": {"n": 2, "v": {"kind": "constant"}, "groups": [], "items": [{"id": i, "w": 1.7e308} for i in range(2)]}},
)
# id -> (argv, config): each asks for no trials or a negative number of them; "cfg" is the config's path.
NONPOSITIVE_TRIALS = {
    f"{argv[0]}{trials}": ([*argv, "--trials", trials], doc)
    for argv, doc in [
        (["simulate", "cfg"], TRIAL_CONFIG),
        (["sweep", "cfg"], {**TRIAL_CONFIG, "alphas": [0.0], "betas": [0.5]}),
        (["supernumerary", "cfg"], SUPERNUMERARY_CONFIG),
        (["orderstats", "--k", "1", "--l", "1", "--ma", "2", "--mb", "2", "--dist", "cfg"], {"kind": "uniform"}),
    ]
    for trials in ("0", "-1")
}
NONPOSITIVE_TRIALS["sweep-config0"] = (
    ["sweep", "cfg"],
    {**TRIAL_CONFIG, "alphas": [0.0], "betas": [0.5], "trials": 0},
)


@pytest.fixture
def normal_draws(monkeypatch):
    """A list that gets one entry per ``Normal.draw`` call."""
    calls = []
    draw = stats.Normal.draw
    monkeypatch.setattr(stats.Normal, "draw", lambda self, *args: calls.append(1) or draw(self, *args))
    return calls


# JSON strings, booleans and lists where a number belongs, in a scalar field or
# inside a list of numbers: (command, document, the one-line error, which names
# the field).  An orderstats document is its --dist distribution, and a
# constraint document is solve's --constraints for the fact instance.
NUMBER_FIELDS = [
    ("simulate", {**TRIAL_CONFIG, "beta": True}, "beta must be a number, got true"),
    ("simulate", {**TRIAL_CONFIG, "beta": "0.5"}, "beta must be a number, got a string"),
    ("simulate", {**TRIAL_CONFIG, "alpha": "0.25"}, "alpha must be a number, got a string"),
    ("simulate", {**TRIAL_CONFIG, "dist_a": {"kind": "uniform", "a": "0"}}, "uniform a must be a number, got a string"),
    ("simulate", {**TRIAL_CONFIG, "dist_b": {"kind": "normal", "mu": "0"}}, "normal mu must be a number, got a string"),
    (
        "simulate",
        {**TRIAL_CONFIG, "dist_b": {"kind": "normal", "sigma": "1"}},
        "normal sigma must be a number, got a string",
    ),
    (
        "simulate",
        {**TRIAL_CONFIG, "n": 3, "discount": {"kind": "custom", "values": ["3", "2", "1"]}},
        "discount value must be a number, got a string",
    ),
    ("simulate", {**TRIAL_CONFIG, "discount": {"kind": "dcg", "log_base": "2"}}, "log_base must be a number, got a string"),
    ("sweep", {**TRIAL_CONFIG, "alphas": ["0.1", 0.2], "betas": [0.5]}, "alpha must be a number, got a string"),
    ("sweep", {**TRIAL_CONFIG, "alphas": [0.1], "betas": [0.5, True]}, "beta must be a number, got true"),
    ("supernumerary", {**SUPERNUMERARY_CONFIG, "score_offset": "105"}, "score_offset must be a number, got a string"),
    ("supernumerary", {**SUPERNUMERARY_CONFIG, "gamma": "1.5"}, "gamma must be a number, got a string"),
    (
        "supernumerary",
        {**SUPERNUMERARY_CONFIG, "dist_b": {"kind": "shifted_scaled", "base": {"kind": "uniform"}, "scale": "2"}},
        "shifted_scaled scale must be a number, got a string",
    ),
    (
        "supernumerary",
        {**SUPERNUMERARY_CONFIG, "discount": {"kind": "dcg", "log_base": "2"}},
        "log_base must be a number, got a string",
    ),
    ("orderstats", {"kind": "empirical", "sample": ["1", "2"]}, "empirical sample must be a number, got a string"),
    (
        "solve",
        {**FACT_INSTANCE_W, "items": [{"id": 0, "w": 2.0, "groups": [0]}, {"id": 1, "w": True, "groups": [1]}]},
        "item w must be a number, got true",
    ),
    ("solve", {**FACT_INSTANCE_W, "groups": [[False], [1]]}, "group member must be a whole number, got false"),
    (
        "simulate",
        {**TRIAL_CONFIG, "n": 5, "discount": {"kind": "custom", "values": [3, 2, 1, True, 0.5]}},
        "discount value must be a number, got true",
    ),
    ("orderstats", {"kind": "empirical", "sample": [3, True, 1]}, "empirical sample must be a number, got true"),
    ("solve", {"n": 2, "p": 2, "L": [[1, True], [1, 1]]}, "constraint bound must be a whole number, got true"),
    ("solve", {"n": 2, "p": 2, "L": [[1, [2]], [1, 1]]}, "constraint bound must be a whole number, got [2]"),
    ("solve", {"n": 2, "p": [2], "L": [[1, 0], [1, 1]]}, "p must be a whole number, got [2]"),
    ("simulate", {**TRIAL_CONFIG, "beta": [0.5]}, "beta must be a number, got [0.5]"),
    ("simulate", {**TRIAL_CONFIG, "dist_a": {"kind": "uniform", "a": [0]}}, "uniform a must be a number, got [0]"),
    ("sweep", {**TRIAL_CONFIG, "alphas": [0.1, [0.2]], "betas": [0.5]}, "alpha must be a number, got [0.2]"),
    ("simulate", {**TRIAL_CONFIG, "discount": {"kind": "dcg", "log_base": [2]}}, "log_base must be a number, got [2]"),
    ("simulate", {**TRIAL_CONFIG, "n": [8]}, "n must be a whole number, got [8]"),
    ("simulate", {**TRIAL_CONFIG, "trials": [5]}, "trials must be a whole number, got [5]"),
    (
        "sweep",
        {**TRIAL_CONFIG, "alphas": [0.0], "betas": [0.5], "trials": [3]},
        "trials must be a whole number, got [3]",
    ),
    ("supernumerary", {**SUPERNUMERARY_CONFIG, "gamma": [0.5]}, "gamma must be a number, got [0.5]"),
    ("simulate", {**TRIAL_CONFIG, "n": 10**30}, f"n must be a whole number, got {10**30}"),
    (
        "solve",
        {**FACT_INSTANCE_W, "items": [{"id": 10**30, "w": 2.0, "groups": [0]}, {"id": 1, "w": 1.0, "groups": [1]}]},
        f"item id must be a whole number, got {10**30}",
    ),
    (
        "solve",
        {**FACT_INSTANCE_W, "items": [{"id": 0, "w": [2.0], "groups": [0]}, {"id": 1, "w": 1.0, "groups": [1]}]},
        "item w must be a number, got [2.0]",
    ),
    ("orderstats", {"kind": "empirical", "sample": [3, [2], 1]}, "empirical sample must be a number, got [2]"),
    ("simulate", {**TRIAL_CONFIG, "beta": 10**400}, "beta must be a number, got an integer past the float range"),
    (
        "orderstats",
        {"kind": "uniform", "b": 10**400},
        "uniform b must be a number, got an integer past the float range",
    ),
]
NUMBER_FIELD_IDS = [
    "boolean-beta",
    "string-beta",
    "string-alpha",
    "string-uniform-a",
    "string-normal-mu",
    "string-normal-sigma",
    "string-discount-values",
    "string-log-base-simulate",
    "string-alphas-sweep",
    "boolean-betas-sweep",
    "string-score-offset",
    "string-gamma",
    "string-shifted-scale",
    "string-log-base-supernumerary",
    "string-empirical-sample",
    "boolean-among-numbers-w",
    "boolean-group-list",
    "boolean-discount-values",
    "boolean-empirical-sample",
    "boolean-bound-row",
    "nested-bound-row",
    "list-p-constraints",
    "list-beta",
    "list-uniform-a",
    "nested-alphas-sweep",
    "list-log-base",
    "list-n-simulate",
    "list-trials-simulate",
    "list-trials",
    "list-gamma",
    "huge-n-simulate",
    "huge-item-id",
    "list-w",
    "nested-empirical-sample",
    "huge-beta",
    "huge-uniform-b",
]
# JSON values that are not lists where a list belongs, at the top or inside a
# list of lists or objects, and constraint rows of the wrong count or width:
# (command, document, the one-line error, which names the field), read as in
# NUMBER_FIELDS.
LIST_FIELDS = [
    ("solve", {"n": 2, "p": 2, "L": [[1, 2], [1]]}, "L row 1 has 1 bounds, expected p=2"),
    ("solve", {"n": 2, "p": 2, "L": 5}, "L must be a list, got 5"),
    ("solve", {"n": 2, "p": 2, "L": [1, [1, 1]]}, "L row must be a list, got 1"),
    ("solve", {"n": 2, "p": 2, "L": [[1, 0], [1, 1], [1, 1]]}, "L has 3 rows, expected n=2"),
    (
        "simulate",
        {**TRIAL_CONFIG, "discount": {"kind": "custom", "values": 3}},
        "discount values must be a list, got 3",
    ),
    ("solve", {**FACT_INSTANCE_W, "groups": 5}, "groups must be a list, got 5"),
    ("solve", {**FACT_INSTANCE_W, "groups": [5, [1]]}, "group must be a list, got 5"),
    (
        "solve",
        {**FACT_INSTANCE_W, "items": [{"id": 0, "w": 2.0, "groups": 0}, {"id": 1, "w": 1.0, "groups": [1]}]},
        "item groups must be a list, got 0",
    ),
    ("solve", {**FACT_INSTANCE_W, "items": 5}, "items must be a list, got 5"),
    ("solve", {**FACT_INSTANCE_W, "items": [5]}, "item must be an object, got 5"),
    ("solve", {**FACT_INSTANCE_W, "items": [[0, 2.0]]}, "item must be an object, got [0, 2.0]"),
    ("orderstats", {"kind": "empirical", "sample": 3}, "empirical sample must be a list, got 3"),
    ("sweep", {**TRIAL_CONFIG, "alphas": 0.5, "betas": [0.5]}, "alphas must be a list, got 0.5"),
    ("sweep", {**TRIAL_CONFIG, "alphas": [0.5], "betas": {"0.5": 1}}, 'betas must be a list, got {"0.5": 1}'),
    ("supernumerary", {**SUPERNUMERARY_CONFIG, "alphas": "0.5"}, "alphas must be a list, got a string"),
]
LIST_FIELD_IDS = [
    "ragged-bound-rows",
    "number-bounds",
    "number-bound-row",
    "extra-bound-row",
    "number-discount-values",
    "number-groups",
    "number-group",
    "number-item-groups",
    "number-items",
    "number-item",
    "list-item",
    "number-empirical-sample",
    "number-alphas-sweep-named",
    "object-betas-sweep",
    "string-alphas-supernumerary",
]
ORDERSTATS_DIST = ["orderstats", "--k", "2", "--l", "1", "--ma", "5", "--mb", "5", "--trials", "3", "--dist"]


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def parse_error_argv(tmp_path, command, doc):
    """The command line that reads ``doc`` as in NUMBER_FIELDS."""
    path = write_json(tmp_path, "cfg.json", doc)
    if "L" in doc:  # a constraint document, for the fact instance
        return ["solve", write_json(tmp_path, "inst.json", FACT_INSTANCE_W), "--constraints", path]
    return ORDERSTATS_DIST + [path] if command == "orderstats" else [command, path]


def run_to_json(tmp_path, argv):
    out = tmp_path / "out.json"
    code = main(argv + ["--out", str(out)])
    assert code == 0
    return json.loads(out.read_text())


class TestSolveAndDerive:
    def test_derive_constraints(self, tmp_path):
        inst = write_json(tmp_path, "inst.json", FACT_INSTANCE_W)
        doc = run_to_json(tmp_path, ["derive-constraints", inst])
        assert doc == {"n": 2, "p": 2, "L": [[1, 0], [1, 1]]}

    @pytest.mark.parametrize("L, code", [([[], []], 0), ([], 3)], ids=["empty-rows", "flat-empty"])
    def test_bounds_without_groups(self, tmp_path, capsys, L, code):
        """With p = 0, L is n empty rows; a flat empty L has no rows and is rejected."""
        ungrouped = {**FACT_INSTANCE_W, "groups": [], "items": [{"id": 0, "w": 2.0}, {"id": 1, "w": 1.0}]}
        inst = write_json(tmp_path, "inst.json", ungrouped)
        bounds = write_json(tmp_path, "bounds.json", {"n": 2, "p": 0, "L": L})
        assert main(["solve", inst, "--constraints", bounds, "--out", str(tmp_path / "out.json")]) == code
        assert capsys.readouterr().err == ("error: L has 0 rows, expected n=2\n" if code else "")
        if not code:
            assert json.loads((tmp_path / "out.json").read_text())["positions"] == [0, 1]

    def test_solve_unbiased(self, tmp_path):
        inst = write_json(tmp_path, "inst.json", FACT_INSTANCE_W)
        doc = run_to_json(tmp_path, ["solve", inst])
        assert doc["positions"] == [0, 1]
        assert doc["latent_utility"] == 5.0
        assert doc["observed_utility"] == 5.0

    def test_solve_biased_observed_utility(self, tmp_path):
        inst = write_json(tmp_path, "inst.json", FACT_INSTANCE_W)
        doc = run_to_json(tmp_path, ["solve", inst, "--betas", "1.0,0.25"])
        assert doc["positions"] == [0, 1]
        assert doc["observed_utility"] == 4.25
        assert doc["latent_utility"] == 5.0

    def test_fixed_constraints_fail_for_swapped_utilities(self, tmp_path):
        # bounds taken from the first utility vector pin the second one to a
        # suboptimal ranking: latent utility 4 against the optimal 5
        inst_w = write_json(tmp_path, "w.json", FACT_INSTANCE_W)
        inst_wp = write_json(tmp_path, "wp.json", FACT_INSTANCE_W_PRIME)
        L = run_to_json(tmp_path, ["derive-constraints", inst_w])
        lpath = write_json(tmp_path, "L.json", L)
        doc = run_to_json(tmp_path, ["solve", inst_wp, "--constraints", lpath, "--betas", "1.0,0.25"])
        assert doc["positions"] == [0, 1]
        assert doc["latent_utility"] == 4.0

    def test_matching_constraints_recover_optimum(self, tmp_path):
        inst_wp = write_json(tmp_path, "wp.json", FACT_INSTANCE_W_PRIME)
        L = run_to_json(tmp_path, ["derive-constraints", inst_wp])
        assert L == {"n": 2, "p": 2, "L": [[0, 1], [1, 1]]}
        lpath = write_json(tmp_path, "L.json", L)
        doc = run_to_json(tmp_path, ["solve", inst_wp, "--constraints", lpath, "--betas", "1.0,0.25"])
        assert doc["positions"] == [1, 0]
        assert doc["latent_utility"] == 5.0

    def test_overlapping_groups_defeat_derived_bounds(self, tmp_path, capsys):
        """Per-group bounds copied from the latent optimum do not repair overlapping groups.

        Item 0 is in both groups and meets both groups' bounds alone, which frees the second
        slot for the ungrouped item 2: the repaired ranking meets the bounds and beats the
        latent optimum (3, 1) in observed utility, but loses latent utility.  Bounds per
        membership type would change this on purpose.
        """
        inst = write_json(tmp_path, "inst.json", OVERLAP_COUNTEREXAMPLE)
        assert main(["derive-constraints", inst]) == 0
        bounds = capsys.readouterr().out
        assert json.loads(bounds) == {"n": 2, "p": 2, "L": [[1, 0], [1, 1]]}
        (tmp_path / "L.json").write_text(bounds, encoding="utf-8")
        assert main(["solve", inst, "--constraints", str(tmp_path / "L.json"), "--betas", "0.231,0.172"]) == 0
        assert capsys.readouterr().out == (
            '{\n  "betas": [\n    0.231,\n    0.172\n  ],\n  "latent_utility": 1.2529655612945307,\n'
            '  "observed_utility": 0.45360483165497323,\n  "positions": [\n    0,\n    2\n  ]\n}\n'
        )
        optimum = run_to_json(tmp_path, ["solve", inst])
        assert optimum["positions"] == [3, 1] and optimum["latent_utility"] == 2.0191981270713826

        instance = model.instance_from_json(OVERLAP_COUNTEREXAMPLE)
        observed = model.observed_utilities(instance, model.BiasModel([0.231, 0.172]))
        repaired, latent_opt = model.Ranking([0, 2]), model.Ranking([3, 1])
        assert satisfies(repaired, ConstraintMatrix.from_json_dict(json.loads(bounds)), instance.membership_matrix)
        assert model.ranking_utility(repaired, instance.v, observed) > model.ranking_utility(
            latent_opt, instance.v, observed
        )
        assert model.ranking_utility(repaired, instance.v, instance.latent_utilities) < 2.0191981270713826

    @pytest.mark.parametrize("m, n", [(11, 2), (8, 7)], ids=["m-11", "n-7"])
    def test_overlapping_groups_past_the_brute_force_limit(self, tmp_path, capsys, m, n):
        """Overlapping groups send ``solve`` to the brute-force solver, which refuses large instances."""
        items = [{"id": 0, "w": 1.0, "groups": [0, 1]}] + [{"id": i, "w": 1.0} for i in range(1, m)]
        doc = {"n": n, "v": {"kind": "dcg"}, "groups": [[0], [0]], "items": items}
        inst = write_json(tmp_path, "inst.json", doc)
        bounds = write_json(tmp_path, "L.json", {"n": n, "p": 2, "L": [[0, 0]] * n})
        assert main(["solve", inst, "--constraints", bounds]) == 3
        assert capsys.readouterr().err == (
            "error: the brute-force solver, which overlapping groups need, is limited to m <= 10 and n <= 6,"
            f" got m={m}, n={n}\n"
        )


class TestSimulate:
    def test_byte_identical_given_seed(self, tmp_path):
        cfg = write_json(tmp_path, "cfg.json", TRIAL_CONFIG)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["simulate", cfg, "--seed", "42", "--out", str(out1)]) == 0
        assert main(["simulate", cfg, "--seed", "42", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_config_trials_unless_the_flag_overrides(self, tmp_path):
        cfg = write_json(tmp_path, "cfg.json", {**TRIAL_CONFIG, "trials": 2.0})
        assert run_to_json(tmp_path, ["simulate", cfg])["trials"] == 2
        assert run_to_json(tmp_path, ["simulate", cfg, "--trials", "3"])["trials"] == 3

    def test_report_fields(self, tmp_path):
        cfg = write_json(tmp_path, "cfg.json", TRIAL_CONFIG)
        doc = run_to_json(tmp_path, ["simulate", cfg, "--seed", "1", "--trials", "3"])
        assert doc["seed"] == 1 and doc["trials"] == 3
        assert len(doc["reports"]) == 3
        for rep in doc["reports"]:
            assert rep["u_opt"] >= rep["u_cons"] - 1e-9
            assert rep["u_opt"] >= rep["u_uncons"] - 1e-9


class TestSweep:
    def sweep_config(self, tmp_path):
        doc = {**TRIAL_CONFIG, "alphas": [round(0.05 * i, 2) for i in range(11)], "betas": [0.25], "trials": 6}
        return write_json(tmp_path, "sweep.json", doc)

    def test_grid_rows(self, tmp_path):
        cfg = self.sweep_config(tmp_path)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", cfg, "--seed", "3", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# seed=3"
        assert len(lines) == 2 + 11  # header + one row per alpha per beta

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        cfg = self.sweep_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", cfg, "--seed", "42", "--threads", "1", "--out", str(a)]) == 0
        assert main(["sweep", cfg, "--seed", "42", "--threads", "8", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "alphas, betas, message",
        [
            ([0.1, 1.5], [0.5, -1.0], "alpha must lie in [0, 1]"),
            ([0.1, 0.2], [0.5, 2.0], "beta must lie in [0, 1]"),
            ([1.5], [-1.0], "beta must lie in [0, 1]"),
            ([0.1, -0.5], [0.5, 0.7, 1.2], "alpha must lie in [0, 1]"),
            ([0.1, 0.2, 2.0], [1.5, 0.5], "beta must lie in [0, 1]"),
            ([0.1, 0.3], [0.2, 0.4, float("nan")], "beta must lie in [0, 1]"),
        ],
    )
    def test_first_bad_cell_of_the_grid(self, tmp_path, capsys, alphas, betas, message):
        # the message of the first invalid (beta, alpha) cell in grid order
        doc = {**TRIAL_CONFIG, "alphas": alphas, "betas": betas, "trials": 2}
        assert main(["sweep", write_json(tmp_path, "sweep.json", doc)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"


class TestOrderstats:
    def test_analytic_and_monte_carlo(self, tmp_path):
        doc = run_to_json(
            tmp_path,
            ["orderstats", "--k", "10", "--l", "2", "--ma", "50", "--mb", "50", "--trials", "2000", "--seed", "5"],
        )
        assert doc["analytic"]["expected_Nkb"] == 5.0
        mc = doc["monte_carlo"]
        assert abs(mc["mean_Nkb"] - 5.0) <= 4 * mc["se_Nkb"]

    def test_infinite_draws_rank_without_a_warning(self, tmp_path, capsys):
        argv = ["orderstats", "--k", "3", "--l", "2", "--ma", "10", "--mb", "10", "--trials", "50", "--dist"]
        assert main(argv + [write_json(tmp_path, "dist.json", HUGE_DRAWS)]) == 0
        out, err = capsys.readouterr()
        assert err == "" and json.loads(out)["trials"] == 50


class TestSupernumerary:
    def test_csv_output(self, tmp_path):
        cfg = write_json(tmp_path, "sup.json", SUPERNUMERARY_CONFIG)
        out = tmp_path / "sup.csv"
        assert main(["supernumerary", cfg, "--seed", "2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "alpha,scheme,seats,mean_utility_per_seat,se"
        assert len(lines) == 2 + 2 * 5

    def test_custom_discount_covers_the_pool(self, tmp_path):
        """A custom discount lists m_a + m_b values; the dcg values listed so
        give the bytes of the dcg kind, and another list other bytes."""
        m = SUPERNUMERARY_CONFIG["m_a"] + SUPERNUMERARY_CONFIG["m_b"]
        discounts = {
            "dcg": {"kind": "dcg"},
            "dcg-listed": {"kind": "custom", "values": DiscountVector.dcg(m).values.tolist()},
            "linear": {"kind": "custom", "values": np.linspace(1.0, 0.0, m).tolist()},
        }
        csv = {}
        for name, discount in discounts.items():
            cfg = write_json(tmp_path, f"{name}.json", {**SUPERNUMERARY_CONFIG, "discount": discount})
            assert main(["supernumerary", cfg, "--seed", "2", "--out", str(tmp_path / name)]) == 0
            csv[name] = (tmp_path / name).read_bytes()
        assert csv["dcg-listed"] == csv["dcg"] != csv["linear"]

    def test_custom_discount_of_the_base_capacity(self, tmp_path, capsys):
        doc = {**SUPERNUMERARY_CONFIG, "discount": {"kind": "custom", "values": [1.0] * 10}}
        assert main(["supernumerary", write_json(tmp_path, "cfg.json", doc)]) == 3
        assert capsys.readouterr().err == "error: discount has 10 values, expected 40\n"


# Bad discounts and the one error line each gives, under every command that reads a discount.
BAD_DISCOUNTS = [
    (["dcg"], "discount must be a JSON object"),
    ({"kind": "lcg"}, "unknown discount kind 'lcg'"),
    ({}, "unknown discount kind None"),
    ({"log_base": 2.0}, "unknown discount kind None"),
    ({"kind": "dcg", "log_base": "2"}, "log_base must be a number, got a string"),
    ({"kind": "dcg", "log_base": [2]}, "log_base must be a number, got [2]"),
    ({"kind": "dcg", "log_base": 0.5}, "log base must exceed 1"),
    ({"kind": "zipf", "log_base": "2"}, "log_base must be a number, got a string"),
    ({"kind": "custom"}, 'custom discount requires a "values" array'),
    ({"kind": "zipf", "log_base": 0.5}, "discount kind 'zipf' takes no field 'log_base'"),
    ({"kind": "constant", "values": "x"}, "discount kind 'constant' takes no field 'values'"),
    ({"kind": "dcg", "values": [1.0]}, "discount kind 'dcg' takes no field 'values'"),
    ({"kind": "custom", "values": [1.0], "log_base": 2.0}, "discount kind 'custom' takes no field 'log_base'"),
    ({"kind": "dcg", "base": 2.0}, "discount kind 'dcg' takes no field 'base'"),
]
BAD_DISCOUNT_IDS = [
    "not-an-object",
    "unknown-kind",
    "empty-object",
    "missing-kind",
    "string-log-base",
    "list-log-base",
    "small-log-base",
    "string-log-base-beside-zipf",
    "custom-without-values",
    "log-base-beside-zipf",
    "values-beside-constant",
    "values-beside-dcg",
    "log-base-beside-custom",
    "unknown-field",
]


class TestDiscountParity:
    CONFIGS = {
        "simulate": TRIAL_CONFIG,
        "sweep": {**TRIAL_CONFIG, "alphas": [0.0], "betas": [0.5], "trials": 2},
        "supernumerary": {**SUPERNUMERARY_CONFIG, "trials": 2},
        "solve": FACT_INSTANCE_W,
    }

    @pytest.mark.parametrize("command", sorted(CONFIGS))
    @pytest.mark.parametrize("discount, message", BAD_DISCOUNTS, ids=BAD_DISCOUNT_IDS)
    def test_same_error_line_for_every_command(self, tmp_path, capsys, command, discount, message):
        doc = {**self.CONFIGS[command], "v" if command == "solve" else "discount": discount}
        assert main([command, write_json(tmp_path, "cfg.json", doc)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("n", [0, -1])
    @pytest.mark.parametrize(
        "discount",
        [{"kind": "constant"}, {"kind": "dcg"}, {"kind": "zipf"}, {"kind": "custom", "values": [1.0]}],
        ids=["constant", "dcg", "zipf", "custom"],
    )
    @pytest.mark.parametrize("command", ["solve", "simulate"])
    def test_length_below_one_is_one_line_for_every_kind(self, tmp_path, capsys, command, discount, n):
        """The instance n and a trial config's n size the discount: below 1, every kind gives one line."""
        doc = {**FACT_INSTANCE_W, "v": discount} if command == "solve" else {**TRIAL_CONFIG, "discount": discount}
        assert main([command, write_json(tmp_path, "doc.json", {**doc, "n": n})]) == 3
        assert capsys.readouterr().err == f"error: discount length must be at least 1, got {n}\n"


def config_json(cfg) -> dict:
    """A trial or seat-expansion config as a JSON document: each distribution and the discount as its own object."""
    doc = {}
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        doc[f.name] = value.to_json_dict() if hasattr(value, "to_json_dict") else value
    return json.loads(json.dumps(doc))


SHIFTED_UNIFORM = stats.ShiftedScaled(stats.Uniform(0.5, 2.0), 3.0, -1.0)
# Every field away from its default, the discount custom, a law shifted_scaled.
NON_DEFAULT_CONFIGS = {
    "trial": experiments.TrialConfig(
        m_a=7,
        m_b=5,
        n=4,
        beta=0.3,
        alpha=0.6,
        dist_a=SHIFTED_UNIFORM,
        dist_b=stats.Normal(1.0, 2.0),
        discount=DiscountVector(np.array([4.0, 3.0, 2.0, 0.5])),
        target_group=0,
    ),
    "supernumerary": experiments.SupernumeraryConfig(
        n=4,
        m_a=3,
        m_b=2,
        alpha=0.4,
        gamma=1.3,
        dist_a=stats.LogNormal(0.2, 0.7),
        dist_b=SHIFTED_UNIFORM,
        discount=DiscountVector(np.array([5.0, 4.0, 3.0, 2.0, 1.0])),
        score_offset=12.5,
    ),
}
# The keys each command must find in its config: the others have defaults or come from "alphas" and "betas".
REQUIRED_KEYS = {
    "simulate": ("m_a", "m_b", "n", "beta", "dist_a", "dist_b"),
    "sweep": ("m_a", "m_b", "n", "dist_a", "dist_b"),
    "supernumerary": ("n", "m_a", "m_b", "gamma", "dist_a", "dist_b"),
}


class TestConfigReader:
    @pytest.mark.parametrize(
        "name, what, positions",
        [("trial", "trial config", ("n",)), ("supernumerary", "supernumerary config", ("m_a", "m_b"))],
    )
    def test_non_default_config_reads_back_equal(self, name, what, positions):
        cfg = NON_DEFAULT_CONFIGS[name]
        defaults = [f for f in dataclasses.fields(cfg) if f.default is not dataclasses.MISSING]
        assert defaults and all(getattr(cfg, f.name) != f.default for f in defaults)
        read = cli._config_from_json(type(cfg), config_json(cfg), what, positions)
        assert read == cfg
        assert list(map(type, vars(read).values())) == list(map(type, vars(cfg).values()))  # as 7 == 7.0

    @pytest.mark.parametrize("command, key", [(c, key) for c, keys in REQUIRED_KEYS.items() for key in keys])
    def test_missing_key_is_one_line(self, tmp_path, capsys, command, key):
        doc = {k: v for k, v in TestDiscountParity.CONFIGS[command].items() if k != key}
        what = {"simulate": "trial config", "sweep": "sweep config", "supernumerary": "supernumerary config"}[command]
        assert main([command, write_json(tmp_path, "cfg.json", doc)]) == 3
        assert capsys.readouterr().err == f"error: {what} missing key '{key}'\n"

    @pytest.mark.parametrize(
        "command, faults, message",
        [
            ("simulate", {"m_a": "12", "n": None}, "m_a must be a whole number, got a string"),
            ("sweep", {"m_b": None, "n": None, "dist_a": {"kind": "x"}}, "sweep config missing key 'm_b'"),
            ("supernumerary", {"score_offset": "105", "discount": {"kind": "lcg"}}, "unknown discount kind 'lcg'"),
        ],
    )
    def test_first_fault_in_field_order(self, tmp_path, capsys, command, faults, message):
        """A config with several faults reports the one in the dataclass's first field (None: the key is missing)."""
        doc = {k: v for k, v in {**TestDiscountParity.CONFIGS[command], **faults}.items() if v is not None}
        assert main([command, write_json(tmp_path, "cfg.json", doc)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "command, extra, message",
        [
            ("simulate", {"alphas": [0.5]}, "trial config takes no key 'alphas'"),
            ("sweep", {"trails": 3}, "sweep config takes no key 'trails'"),
            ("supernumerary", {"beta": 0.5}, "supernumerary config takes no key 'beta'"),
            ("orderstats", {"kind": "lognormal", "a": 0.0}, "lognormal distribution takes no field 'a'"),
            (
                "simulate",
                {"dist_b": {"kind": "shifted_scaled", "base": {"kind": "uniform", "sigma": 1.0}}},
                "uniform distribution takes no field 'sigma'",
            ),
        ],
        ids=["trial", "sweep", "supernumerary", "orderstats-dist", "nested-dist"],
    )
    def test_unread_key_is_one_line(self, tmp_path, capsys, command, extra, message):
        if command == "orderstats":
            path = write_json(tmp_path, "dist.json", extra)
            argv = ["orderstats", "--k", "2", "--l", "1", "--ma", "5", "--mb", "5", "--dist", path]
        else:
            argv = [command, write_json(tmp_path, "cfg.json", {**TestDiscountParity.CONFIGS[command], **extra})]
        assert main(argv) == 3
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestIngest:
    def test_two_rows_single_group(self, tmp_path):
        csv = tmp_path / "scores.csv"
        csv.write_text("score,group\n1.0,a\n3.0,a\n")
        dists, summary, order = ingest_scores(str(csv))
        assert order == ["a"]
        assert summary["a"]["mean"] == 2.0
        assert sorted(dists["a"].sample.tolist()) == [1.0, 3.0]

    def test_group_indices_first_seen_order(self, tmp_path):
        csv = tmp_path / "scores.csv"
        csv.write_text("score,group\n1.0,m\n2.0,f\n3.0,m\n")
        _, _, order = ingest_scores(str(csv))
        assert order == ["m", "f"]

    def test_malformed_row_reports_line(self, tmp_path):
        csv = tmp_path / "scores.csv"
        csv.write_text("score,group\n1.0,a\nnot_a_number,a\n")
        with pytest.raises(ValueError, match="line 3"):
            ingest_scores(str(csv))

    def test_empty_group_reports_line(self, tmp_path):
        csv = tmp_path / "scores.csv"
        csv.write_text("score,group\n1.0,\n")
        with pytest.raises(ValueError, match="line 2"):
            ingest_scores(str(csv))

    @pytest.mark.parametrize(
        "text, message",
        [
            # group b's summary is finite, but ingest writes nothing when any number is not
            ("score,group\n1e308,a\n1e308,a\n1,b\n", "summary.a.mean is not a finite number"),
            ("score,grp\n1.0,a\n", 'expected CSV header "score,group"'),
            ("score,group\n1.0,a,b\n", "line 2: expected 2 fields, got 3"),
            ("score,group\n\n", "CSV contains no data rows"),
        ],
        ids=["overflowing-mean", "other-header", "three-fields", "no-data-rows"],
    )
    def test_fault_is_one_line(self, tmp_path, capsys, text, message):
        csv = tmp_path / "scores.csv"
        csv.write_text(text, encoding="utf-8")
        assert main(["ingest", str(csv), "--out", str(tmp_path / "out.json")]) == 3
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "out.json").exists()

    def test_recovers_generator_moments(self, tmp_path):
        rng = np.random.default_rng(404)
        rows = ["score,group"]
        rows += [f"{x},a" for x in rng.normal(30.79, 51.80, 4000)]
        rows += [f"{x},b" for x in rng.normal(21.24, 39.27, 4000)]
        csv = tmp_path / "scores.csv"
        csv.write_text("\n".join(rows) + "\n")
        doc = run_to_json(tmp_path, ["ingest", str(csv)])
        assert abs(doc["summary"]["a"]["mean"] - 30.79) <= 3 * 51.80 / np.sqrt(4000)
        assert abs(doc["summary"]["b"]["mean"] - 21.24) <= 3 * 39.27 / np.sqrt(4000)


class TestExitCodes:
    def test_usage_error(self):
        assert main(["no-such-command"]) == 1
        assert main([]) == 1

    def test_missing_file(self):
        assert main(["solve", "/nonexistent/instance.json"]) == 3

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["solve", str(path)]) == 3

    def test_infeasible_constraints(self, tmp_path):
        inst = write_json(tmp_path, "inst.json", FACT_INSTANCE_W)
        # demands a second group-1 item that does not exist
        lpath = write_json(tmp_path, "L.json", {"n": 2, "p": 2, "L": [[0, 1], [0, 2]]})
        assert main(["solve", inst, "--constraints", lpath]) == 2

    @pytest.mark.parametrize("command", ["sweep", "simulate"])
    def test_infeasible_alpha(self, tmp_path, capsys, command):
        # floor(0.5 * 8) = 4 target items are needed but only 3 exist
        grid = {"alphas": [0.0, 0.5], "betas": [0.5]} if command == "sweep" else {}
        doc = {**TRIAL_CONFIG, "m_b": 3, **grid, "alpha": 0.5}
        code = main([command, write_json(tmp_path, "cfg.json", doc)])
        assert code == 2
        assert capsys.readouterr().err == "infeasible: no ranking satisfies the constraint matrix\n"

    def test_bad_betas_count(self, tmp_path):
        inst = write_json(tmp_path, "inst.json", FACT_INSTANCE_W)
        assert main(["solve", inst, "--betas", "0.5"]) == 3

    @pytest.mark.parametrize(
        "argv, files",
        [
            (["solve", "inst"], {"inst": ITEM_WITHOUT_W}),
            (["derive-constraints", "inst"], {"inst": ITEM_WITHOUT_W}),
            (["solve", "inst"], {"inst": {**FACT_INSTANCE_W, "n": None}}),
            (
                ["solve", "inst"],
                {"inst": {**FACT_INSTANCE_W, "items": [{"id": 0, "w": 2.0, "groups": [None]}, FACT_INSTANCE_W["items"][1]]}},
            ),
            (["solve", "inst"], {"inst": {**FACT_INSTANCE_W, "groups": [[None], [1]]}}),
            (["solve", "inst"], {"inst": [FACT_INSTANCE_W]}),
            (["solve", "inst", "--constraints", "L"], {"inst": FACT_INSTANCE_W, "L": [[1, 0], [1, 1]]}),
            (["sweep", "cfg"], {"cfg": {**TRIAL_CONFIG, "alphas": [], "betas": [0.5]}}),
            (["sweep", "cfg"], {"cfg": [{**TRIAL_CONFIG, "alphas": [0.0], "betas": [0.5]}]}),
            (["simulate", "cfg"], {"cfg": [TRIAL_CONFIG]}),
            (["supernumerary", "cfg"], {"cfg": [SUPERNUMERARY_CONFIG]}),
            (["orderstats", "--k", "2", "--l", "1", "--ma", "5", "--mb", "5", "--dist", "d"], {"d": [{"kind": "uniform"}]}),
            (["solve", "inst"], {"inst": {**FACT_INSTANCE_W, "v": [2.0, 1.0]}}),
            (["supernumerary", "cfg"], {"cfg": {**SUPERNUMERARY_CONFIG, "discount": ["dcg"]}}),
            (["supernumerary", "cfg"], {"cfg": {**SUPERNUMERARY_CONFIG, "discount": {"kind": "dcg", "log_base": "e"}}}),
            (["supernumerary", "cfg"], {"cfg": {**SUPERNUMERARY_CONFIG, "discount": {"kind": "dcg", "log_base": [2]}}}),
            (["supernumerary", "cfg"], {"cfg": {**SUPERNUMERARY_CONFIG, "discount": {"kind": "dcg", "log_base": 0.5}}}),
            (["supernumerary", "cfg"], {"cfg": {**SUPERNUMERARY_CONFIG, "discount": {"kind": "lcg"}}}),
            (["simulate", "cfg", "--trials", "0"], {"cfg": TRIAL_CONFIG}),
            (["simulate", "cfg"], {"cfg": {**TRIAL_CONFIG, "m_a": float("inf")}}),
            (["sweep", "cfg"], {"cfg": {**TRIAL_CONFIG, "alphas": [0.0], "betas": [0.5], "trials": float("inf")}}),
            (["supernumerary", "cfg"], {"cfg": {**SUPERNUMERARY_CONFIG, "n": float("-inf")}}),
            (["supernumerary", "cfg"], {"cfg": {**SUPERNUMERARY_CONFIG, "trials": float("inf")}}),
            (["solve", "inst", "--constraints", "L"], {"inst": FACT_INSTANCE_W, "L": {"n": None, "p": 2, "L": []}}),
            (
                ["solve", "inst", "--constraints", "L"],
                {"inst": FACT_INSTANCE_W, "L": {"n": 2, "p": 2, "L": [[1, 0], [1, None]]}},
            ),
            (
                ["solve", "inst", "--constraints", "L"],
                {"inst": FACT_INSTANCE_W, "L": {"n": 2, "p": 2, "L": [[1, 0], [float("inf"), 1]]}},
            ),
            (
                ["solve", "inst", "--constraints", "L"],
                {"inst": FACT_INSTANCE_W, "L": {"n": 2, "p": 2, "L": [[1, 0], [1.5, 1]]}},
            ),
            (["solve", "inst", "--constraints", "L"], {"inst": FACT_INSTANCE_W, "L": {"n": 2.5, "p": 2, "L": [[1, 0], [1, 1]]}}),
            (
                ["sweep", "cfg"],
                {"cfg": {**TRIAL_CONFIG, "alphas": [0.0], "betas": [0.5], "dist_a": {"kind": "uniform", "a": -math.inf}}},
            ),
            (["orderstats", "--k", "2", "--l", "1", "--ma", "5", "--mb", "5", "--dist", "d"], {"d": {"kind": "uniform", "a": None}}),
            (
                ["orderstats", "--k", "2", "--l", "1", "--ma", "5", "--mb", "5", "--dist", "d"],
                {"d": {"kind": "shifted_scaled", "base": {"kind": "uniform"}, "scale": math.nan}},
            ),
            (
                ["orderstats", "--k", "2", "--l", "1", "--ma", "5", "--mb", "5", "--dist", "d"],
                {"d": {"kind": "lognormal", "sigma": math.nan}},
            ),
            (ORDERSTATS_DIST + ["d"], {"d": {"kind": "lognormal", "mu": math.inf}}),
            (ORDERSTATS_DIST + ["d"], {"d": {"kind": "normal", "sigma": math.inf}}),
            (ORDERSTATS_DIST + ["d"], {"d": {"kind": "shifted_scaled", "base": {"kind": "uniform"}, "scale": math.inf}}),
            (ORDERSTATS_DIST + ["d"], {"d": {"kind": "shifted_scaled", "base": {"kind": "uniform"}, "shift": -math.inf}}),
            (["supernumerary", "cfg"], {"cfg": {**SUPERNUMERARY_CONFIG, "gamma": math.nan}}),
            (["supernumerary", "cfg"], {"cfg": {**SUPERNUMERARY_CONFIG, "score_offset": math.nan}}),
            (["supernumerary", "cfg"], {"cfg": {**SUPERNUMERARY_CONFIG, "score_offset": math.inf}}),
            (["supernumerary", "cfg"], {"cfg": {**SUPERNUMERARY_CONFIG, "gamma": 1e308}}),
            (["sweep", "cfg"], {"cfg": {**HUGE_TRIAL_CONFIG, "alphas": [0.0], "betas": [0.5], "trials": 4}}),
            (
                ["supernumerary", "cfg"],
                {"cfg": {**SUPERNUMERARY_CONFIG, "dist_a": HUGE_SPREAD, "dist_b": HUGE_SPREAD, "trials": 50}},
            ),
            (["simulate", "cfg", "--trials", "4"], {"cfg": HUGE_TRIAL_CONFIG}),
            *OVERFLOWING.values(),
        ],
        ids=[
            "solve-item-without-w",
            "derive-item-without-w",
            "null-n",
            "null-group-id",
            "null-group-member",
            "list-instance",
            "list-constraints",
            "no-alphas",
            "list-sweep-config",
            "list-simulate-config",
            "list-supernumerary-config",
            "list-orderstats-dist",
            "list-discount",
            "list-supernumerary-discount",
            "string-log-base-supernumerary",
            "list-log-base-supernumerary",
            "small-log-base-supernumerary",
            "unknown-discount-kind-supernumerary",
            "simulate-zero-trials",
            "infinite-m_a-simulate",
            "infinite-trials-sweep",
            "infinite-n-supernumerary",
            "infinite-trials-supernumerary",
            "null-n-constraints",
            "null-bound",
            "infinite-bound",
            "fractional-bound",
            "fractional-n-constraints",
            "infinite-uniform-range",
            "null-orderstats-dist-parameter",
            "nan-orderstats-utilities",
            "nan-sigma-orderstats",
            "inf-mu-orderstats",
            "inf-sigma-orderstats",
            "inf-scale-orderstats",
            "minus-inf-shift-orderstats",
            "nan-gamma-supernumerary",
            "nan-offset-supernumerary",
            "inf-offset-supernumerary",
            "huge-gamma-supernumerary",
            "overflowing-means-sweep",
            "overflowing-means-supernumerary",
            "overflowing-means-simulate",
            *OVERFLOWING,
        ],
    )
    def test_malformed_json_is_one_line_parse_error(self, tmp_path, capsys, argv, files):
        paths = {name: write_json(tmp_path, f"{name}.json", doc) for name, doc in files.items()}
        code = main([paths.get(arg, arg) for arg in argv])
        err = capsys.readouterr().err
        assert code == 3
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, doc", NONPOSITIVE_TRIALS.values(), ids=NONPOSITIVE_TRIALS)
    def test_nonpositive_trials_are_one_line(self, tmp_path, capsys, argv, doc):
        cfg, out = write_json(tmp_path, "cfg.json", doc), tmp_path / "out"
        assert main([cfg if arg == "cfg" else arg for arg in argv] + ["--out", str(out)]) == 3
        assert capsys.readouterr() == ("", "error: trials must be positive\n")
        assert not out.exists()

    @pytest.mark.parametrize("depth, code", [(900, 0), (2000, 3)], ids=["900-levels", "2000-levels"])
    def test_deeply_nested_json(self, tmp_path, capsys, depth, code):
        # json.dumps recurses as deeply as json.load, so the chain is written as text
        path = tmp_path / "dist.json"
        path.write_text('{"kind": "shifted_scaled", "base": ' * depth + '{"kind": "uniform"}' + "}" * depth)
        argv = ["orderstats", "--k", "2", "--l", "1", "--ma", "5", "--mb", "5", "--trials", "10", "--dist", str(path)]
        assert main(argv) == code
        err = capsys.readouterr().err
        if code:
            assert len(err.splitlines()) == 1 and err.startswith("error: ")
        else:
            assert err == ""

    @pytest.mark.parametrize("depth", [1000, 1500, 10**6], ids=["1000-levels", "1500-levels", "million-levels"])
    def test_deeply_nested_arrays(self, tmp_path, capsys, depth):
        path = tmp_path / "inst.json"
        path.write_text("[" * depth + "]" * depth)
        assert main(["solve", str(path)]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, files, field",
        [OVERFLOWING["huge-utility-solve"] + ("latent_utility",), OVERFLOWING["huge-sums-simulate"] + ("mean.u_cons",)],
        ids=["solve", "simulate"],
    )
    def test_non_finite_result_names_its_field(self, tmp_path, capsys, argv, files, field):
        paths = {name: write_json(tmp_path, f"{name}.json", doc) for name, doc in files.items()}
        assert main([paths.get(arg, arg) for arg in argv]) == 3
        assert capsys.readouterr() == ("", f"error: {field} is not a finite number\n")

    @pytest.mark.parametrize(
        "discount, code",
        [
            ({"kind": "dcg", "log_base": 2.0}, 0),  # the control: a good discount draws
            ({"kind": "lcg"}, 3),
        ],
        ids=["good", "unknown-kind"],
    )
    def test_bad_supernumerary_discount_fails_before_drawing(self, tmp_path, normal_draws, discount, code):
        doc = {**SUPERNUMERARY_CONFIG, "discount": discount, "trials": 2}
        assert main(["supernumerary", write_json(tmp_path, "cfg.json", doc)]) == code
        assert bool(normal_draws) == (code == 0)

    @pytest.mark.parametrize("offset", [math.nan, math.inf], ids=["nan-offset", "inf-offset"])
    def test_bad_score_offset_fails_before_drawing(self, tmp_path, capsys, normal_draws, offset):
        doc = {**SUPERNUMERARY_CONFIG, "score_offset": offset}
        assert main(["supernumerary", write_json(tmp_path, "cfg.json", doc)]) == 3
        assert capsys.readouterr().err == f"error: score offset must be finite, got {offset}\n"
        assert not normal_draws

    @pytest.mark.parametrize(
        "command, doc",
        [
            ("sweep", {**TRIAL_CONFIG, "alphas": 0.5, "betas": [0.5]}),
            ("supernumerary", {**SUPERNUMERARY_CONFIG, "alphas": 0.5}),
            ("sweep", {**TRIAL_CONFIG, "alphas": {"0.5": 1}, "betas": [0.5]}),
            ("solve", {**FACT_INSTANCE_W, "n": 1.5, "v": {"kind": "constant"}}),
            ("solve", {**FACT_INSTANCE_W, "items": [{"id": 0.7, "w": 2.0, "groups": [0]}, {"id": 1, "w": 1.0, "groups": [1]}]}),
            ("solve", {**FACT_INSTANCE_W, "items": [{"id": 0, "w": 2.0, "groups": [0.2]}, {"id": 1, "w": 1.0, "groups": [1]}]}),
            ("solve", {**FACT_INSTANCE_W, "groups": [[0.2], [1]]}),
            ("simulate", {**TRIAL_CONFIG, "m_b": 20.9}),
            ("simulate", {**TRIAL_CONFIG, "n": 5.5}),
            ("simulate", {**TRIAL_CONFIG, "target_group": 0.5}),
            ("sweep", {**TRIAL_CONFIG, "alphas": [0.0], "betas": [0.5], "trials": 2.5}),
            ("simulate", {**TRIAL_CONFIG, "trials": 2.5}),
            ("supernumerary", {**SUPERNUMERARY_CONFIG, "m_a": 30.5}),
            # JSON strings and booleans, which a float or int cast reads as numbers
            ("solve", {**FACT_INSTANCE_W, "items": [{"id": 0, "w": "0.5", "groups": [0]}, {"id": 1, "w": 1.0, "groups": [1]}]}),
            ("solve", {**FACT_INSTANCE_W, "items": [{"id": 0, "w": True, "groups": [0]}, {"id": 1, "w": False, "groups": [1]}]}),
            ("solve", {**FACT_INSTANCE_W, "items": [{"id": "0", "w": 2.0, "groups": [0]}, {"id": 1, "w": 1.0, "groups": [1]}]}),
            ("solve", {**FACT_INSTANCE_W, "items": [{"id": 0, "w": 2.0, "groups": ["0"]}, {"id": 1, "w": 1.0, "groups": [1]}]}),
            ("solve", {**FACT_INSTANCE_W, "groups": [["0"], [1]]}),
            ("solve", {**FACT_INSTANCE_W, "n": True, "v": {"kind": "constant"}}),
            ("solve", {"n": 2, "p": 2, "L": [["1", 0], [1, 1]]}),
            ("solve", {"n": "2", "p": 2, "L": [[1, 0], [1, 1]]}),
            ("solve", {"n": 2, "p": 2, "L": [[True, False], [True, True]]}),
            ("simulate", {**TRIAL_CONFIG, "m_b": "12"}),
            *[(command, doc) for command, doc, _ in NUMBER_FIELDS + LIST_FIELDS],
        ],
        ids=[
            "number-alphas-sweep",
            "number-alphas-supernumerary",
            "object-alphas",
            "fractional-n-instance",
            "fractional-item-id",
            "fractional-group-id",
            "fractional-group-member",
            "fractional-m_b-simulate",
            "fractional-n-simulate",
            "fractional-target-group",
            "fractional-trials-sweep",
            "fractional-trials-simulate",
            "fractional-m_a-supernumerary",
            "string-w",
            "boolean-w",
            "string-item-id",
            "string-group-id",
            "string-group-member",
            "boolean-n-instance",
            "string-bound",
            "string-n-constraints",
            "boolean-bound",
            "string-m_b-simulate",
            *NUMBER_FIELD_IDS,
            *LIST_FIELD_IDS,
        ],
    )
    def test_wrong_json_type_is_one_line_parse_error(self, tmp_path, capsys, command, doc):
        code = main(parse_error_argv(tmp_path, command, doc))
        err = capsys.readouterr().err
        assert code == 3
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, doc, message", NUMBER_FIELDS + LIST_FIELDS, ids=NUMBER_FIELD_IDS + LIST_FIELD_IDS
    )
    def test_string_or_boolean_number_names_its_field(self, tmp_path, capsys, command, doc, message):
        assert main(parse_error_argv(tmp_path, command, doc)) == 3
        assert capsys.readouterr().err == f"error: {message}\n"


class TestCollectorPause:
    """``main`` runs each command with the cyclic garbage collector paused,
    and leaves it as the caller had it, whatever the exit code."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_main_restores_the_collector_state(self, tmp_path, capsys, enabled):
        inst = write_json(tmp_path, "inst.json", FACT_INSTANCE_W)
        overfull = write_json(tmp_path, "bounds.json", {"n": 2, "p": 2, "L": [[1, 1], [1, 1]]})
        runs = [
            (["derive-constraints", inst, "--out", str(tmp_path / "out.json")], 0),
            (["solve", inst, "--constraints", overfull], 2),
            (["solve", str(tmp_path / "missing.json")], 3),
            (["solve"], 1),
        ]
        derive, during = cli.derived_constraints, []

        def record(instance):
            during.append(gc.isenabled())
            return derive(instance)

        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            with mock.patch.object(cli, "derived_constraints", record):
                for argv, code in runs:
                    assert main(argv) == code
                    assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        capsys.readouterr()
        assert during == [False]


class TestSeedRange:
    ORDERSTATS = ["orderstats", "--k", "2", "--l", "1", "--ma", "5", "--mb", "5", "--trials", "3"]

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("command", ["orderstats", "sweep", "simulate", "supernumerary"])
    def test_seed_outside_64_bits_is_usage_error(self, tmp_path, capsys, command, seed):
        configs = {
            "sweep": {**TRIAL_CONFIG, "alphas": [0.0], "betas": [0.5], "trials": 2},
            "simulate": TRIAL_CONFIG,
            "supernumerary": {**SUPERNUMERARY_CONFIG, "trials": 2},
        }
        argv = self.ORDERSTATS if command == "orderstats" else [command, write_json(tmp_path, "cfg.json", configs[command])]
        assert main(argv + ["--seed", seed]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("usage error: ")
        # the same run is fine at the ends of the range
        for ok in ("0", str(2**64 - 1)):
            assert main(argv + ["--seed", ok, "--out", str(tmp_path / "out")]) == 0

    def test_non_integer_seed_is_usage_error(self, capsys):
        assert main(self.ORDERSTATS + ["--seed", "1.5"]) == 1
        assert capsys.readouterr().err == "usage error: argument --seed: invalid int value: '1.5'\n"


class TestSubcommandFlags:
    """``--out`` is every subcommand's; ``--seed``, ``--trials`` and ``--threads`` only the randomized ones'."""

    def deterministic_argv(self, tmp_path, command):
        if command == "ingest":
            (tmp_path / "scores.csv").write_text("score,group\n1.0,a\n2.0,b\n", encoding="utf-8")
            return [command, str(tmp_path / "scores.csv")]
        return [command, write_json(tmp_path, "inst.json", FACT_INSTANCE_W)]

    @pytest.mark.parametrize("flag", [["--seed", "1"], ["--trials", "5"], ["--threads", "2"]], ids=lambda f: f[0])
    @pytest.mark.parametrize("command", ["solve", "derive-constraints", "ingest"])
    def test_deterministic_commands_refuse_randomized_flags(self, tmp_path, capsys, command, flag):
        argv = self.deterministic_argv(tmp_path, command)
        assert main(argv + flag) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("usage error: ")
        assert main(argv + ["--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("command", ["simulate", "sweep", "orderstats", "supernumerary"])
    def test_randomized_commands_take_every_shared_flag(self, tmp_path, capsys, command):
        configs = {
            "sweep": {**TRIAL_CONFIG, "alphas": [0.0], "betas": [0.5]},
            "simulate": TRIAL_CONFIG,
            "supernumerary": SUPERNUMERARY_CONFIG,
        }
        if command == "orderstats":
            argv = ["orderstats", "--k", "2", "--l", "1", "--ma", "5", "--mb", "5"]
        else:
            argv = [command, write_json(tmp_path, "cfg.json", configs[command])]
        out = tmp_path / "out"
        assert main(argv + ["--seed", "1", "--trials", "2", "--threads", "2", "--out", str(out)]) == 0
        assert capsys.readouterr() == ("", "") and out.stat().st_size > 0


class TestRepeatedCalls:
    """One process, many ``main`` calls: the parser is built once and reused,
    so no call may see the flags of another."""

    ORDERSTATS = ["orderstats", "--k", "2", "--l", "1", "--ma", "5", "--mb", "5", "--trials", "30"]

    def jobs(self, tmp_path):
        sweep = write_json(tmp_path, "sweep.json", {**TRIAL_CONFIG, "alphas": [0.0, 0.25], "betas": [0.5], "trials": 4})
        simulate = write_json(tmp_path, "simulate.json", TRIAL_CONFIG)
        return [
            ["sweep", sweep, "--seed", "5", "--trials", "3", "--out", str(tmp_path / "out.csv")],
            ["sweep", sweep],
            ["simulate", simulate, "--seed", "7", "--trials", "2", "--out", str(tmp_path / "out-simulate.json")],
            ["simulate", simulate],
            [*self.ORDERSTATS, "--seed", "9", "--out", str(tmp_path / "out-orderstats.json")],
            self.ORDERSTATS,
        ]

    def call(self, argv, capsys):
        code = main(argv)
        out, err = capsys.readouterr()
        data = Path(argv[argv.index("--out") + 1]).read_bytes() if "--out" in argv else out.encode()
        return code, data, err

    def test_each_call_equals_a_single_call(self, tmp_path, capsys):
        jobs = self.jobs(tmp_path)
        single = []
        for argv in jobs:
            cli._build_parser.cache_clear()
            single.append(self.call(argv, capsys))
        cli._build_parser.cache_clear()
        for order in (jobs, jobs[::-1]):
            for argv in order:
                assert self.call(argv, capsys) == single[jobs.index(argv)]
        assert cli._build_parser.cache_info().misses == 1
        # the calls without flags ran at seed 0, wrote to stdout and took the default trials
        sweep, simulate, orderstats = (single[i][1] for i in (1, 3, 5))
        assert sweep.startswith(b"# seed=0\n") and sweep.splitlines()[2].split(b",")[5] == b"4"
        assert (json.loads(simulate)["seed"], json.loads(simulate)["trials"]) == (0, 1)
        assert (json.loads(orderstats)["seed"], json.loads(orderstats)["trials"]) == (0, 30)

    @pytest.mark.parametrize(
        "bad", [["sweep"], ["simulate", "cfg.json", "--trials", "x"], ["orderstats", "--k", "2"]]
    )
    def test_usage_error_before_and_after_a_run(self, tmp_path, capsys, bad):
        ok = ["simulate", write_json(tmp_path, "cfg.json", TRIAL_CONFIG), "--trials", "2"]
        cli._build_parser.cache_clear()
        expected = self.call(ok, capsys)
        for argv in (ok, bad, ok, bad):
            code, data, err = self.call(argv, capsys)
            if argv is bad:
                assert code == 1 and len(err.splitlines()) == 1 and err.startswith("usage error: ")
            else:
                assert (code, data, err) == expected


class TestMemoryError:
    def test_failed_allocation_is_one_line_io_error(self, tmp_path, capsys, monkeypatch):
        def no_memory(self, rng, size, out=None):
            raise MemoryError

        monkeypatch.setattr(stats.Uniform, "draw", no_memory)
        path = write_json(tmp_path, "cfg.json", TRIAL_CONFIG)
        assert main(["simulate", path, "--trials", "2"]) == 3
        assert capsys.readouterr().err == "error: out of memory\n"


class TestSizeCheck:
    """Counts far beyond memory are refused before anything large is allocated."""

    HUGE = {"m_a": 10**9}
    CASES = [
        (["simulate", "cfg"], {"cfg": {**TRIAL_CONFIG, **HUGE}}),
        (["simulate", "cfg", "--trials", str(10**9)], {"cfg": TRIAL_CONFIG}),
        (["simulate", "cfg"], {"cfg": {**TRIAL_CONFIG, "m_a": 10**12, "m_b": 10**12, "n": 10**12}}),
        (["sweep", "cfg"], {"cfg": {**TRIAL_CONFIG, **HUGE, "alphas": [0.0, 0.5], "betas": [0.5]}}),
        (["sweep", "cfg", "--trials", str(10**12)], {"cfg": {**TRIAL_CONFIG, "alphas": [0.0], "betas": [0.5]}}),
        (["orderstats", "--k", "2", "--l", "1", "--ma", str(10**9), "--mb", "10"], {}),
        (["orderstats", "--k", "2", "--l", "1", "--ma", "10", "--mb", "10", "--trials", str(10**12)], {}),
        (["supernumerary", "cfg"], {"cfg": {**SUPERNUMERARY_CONFIG, **HUGE}}),
        (["supernumerary", "cfg", "--trials", str(10**12)], {"cfg": SUPERNUMERARY_CONFIG}),
        (["solve", "inst"], {"inst": {**FACT_INSTANCE_W, "n": 10**12, "v": {"kind": "constant"}}}),
    ]

    @pytest.mark.parametrize("argv, files", CASES)
    def test_exit_3_before_a_large_allocation(self, tmp_path, capsys, monkeypatch, argv, files):
        def guarded(allocate):
            def allocate_small(*args, **kwargs):
                dims = [d for a in args[:2] for d in (a if isinstance(a, tuple) else (a,))]
                if max((abs(d) for d in dims if isinstance(d, (int, float, np.integer))), default=0) > 10**7:
                    raise AssertionError(f"{allocate.__name__}{args} was called")
                return allocate(*args, **kwargs)

            return allocate_small

        for name in ("empty", "zeros", "ones", "arange"):
            monkeypatch.setattr(np, name, guarded(getattr(np, name)))
        paths = {key: write_json(tmp_path, f"{key}.json", doc) for key, doc in files.items()}
        assert main([paths.get(a, a) for a in argv]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "more than the limit of" in err

    def test_membership_matrix_is_sized_before_it_is_made(self, tmp_path, capsys, monkeypatch):
        """An instance's m items times p group lists is checked against the
        limit before any (m, p) matrix is allocated; here m = 2 and p = 3."""
        inst = write_json(tmp_path, "inst.json", {**FACT_INSTANCE_W, "groups": [[0], [1], []]})
        shapes, zeros = [], np.zeros
        monkeypatch.setattr(np, "zeros", lambda shape, *a, **kw: shapes.append(shape) or zeros(shape, *a, **kw))
        monkeypatch.setattr(model, "MAX_ELEMENTS", 5)
        assert main(["solve", inst]) == 3
        err = capsys.readouterr().err
        assert err == "error: the membership matrix would hold 6 elements, more than the limit of 5\n"
        assert (2, 3) not in shapes
        monkeypatch.setattr(model, "MAX_ELEMENTS", 6)
        assert main(["solve", inst, "--out", str(tmp_path / "out.json")]) == 0


# Small JSON values: sizes and counts stay tiny whatever key they land on.
JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-3, 30)
    | st.floats(-40.0, 40.0)
    | st.sampled_from([float("nan"), float("inf"), float("-inf")])
    | st.text(max_size=4)
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)

# Documents for the writer: the fuzz values above, number lists and matrices
# (an empty row included) of extreme numbers, and keys that hold the
# separators the writer's C-encoder calls and row breaks work with.
NUMBERS = st.integers() | st.floats() | st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf"), 2**70])
KEYS = st.text(max_size=4) | st.sampled_from(['a, "b', "], [", "\\", "x, ", '": ', "é", "\u2028"])
DOCUMENTS = st.recursive(
    JSON_VALUES | st.lists(NUMBERS, max_size=5) | st.lists(st.lists(NUMBERS, max_size=3), max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=12,
)
HOSTILE = {'a, "b': [1.5, -0.0], "], [": [[float("nan"), 2**70], []], "\\": {"x, ": float("-inf"), "y": 1}}

# Each command's output on a small input, as `json.dumps(doc, indent=2, sort_keys=True)` printed it.
PRINTED = {
    "solve": (["solve", "inst", "--betas", "1.0,0.5"], """{
  "betas": [
    1.0,
    0.5
  ],
  "latent_utility": 5.0,
  "observed_utility": 4.5,
  "positions": [
    0,
    1
  ]
}
"""),
    "derive-constraints": (["derive-constraints", "inst"], """{
  "L": [
    [
      1,
      0
    ],
    [
      1,
      1
    ]
  ],
  "n": 2,
  "p": 2
}
"""),
    "orderstats": (["orderstats", "--k", "1", "--l", "1", "--ma", "2", "--mb", "2", "--trials", "3", "--seed", "7"], """{
  "analytic": {
    "expected_Nkb": 0.5,
    "expected_Pl": 1.6666666666666665
  },
  "k": 1,
  "l": 1,
  "m_a": 2,
  "m_b": 2,
  "monte_carlo": {
    "mean_Nkb": 0.3333333333333333,
    "mean_Pl": 2.0,
    "se_Nkb": 0.33333333333333337,
    "se_Pl": 0.5773502691896258
  },
  "seed": 7,
  "trials": 3
}
"""),
    "simulate": (["simulate", "cfg", "--trials", "2", "--seed", "5"], """{
  "mean": {
    "u_cons": 5.104782361075237,
    "u_opt": 5.127599262618375,
    "u_uncons": 4.932989577205237
  },
  "reports": [
    {
      "n_b_cons": 2,
      "n_b_uncons": 0,
      "u_cons": 4.856480235925423,
      "u_opt": 4.880208505600935,
      "u_uncons": 4.721663203286905
    },
    {
      "n_b_cons": 2,
      "n_b_uncons": 0,
      "u_cons": 5.353084486225051,
      "u_opt": 5.374990019635816,
      "u_uncons": 5.144315951123568
    }
  ],
  "seed": 5,
  "trials": 2
}
"""),
    "ingest": (["ingest", "csv"], """{
  "group_order": [
    "a",
    "b"
  ],
  "groups": {
    "a": {
      "kind": "empirical",
      "sample": [
        2.0,
        3.5
      ]
    },
    "b": {
      "kind": "empirical",
      "sample": [
        1.0
      ]
    }
  },
  "summary": {
    "a": {
      "count": 2,
      "mean": 2.75,
      "stddev": 1.0606601717798212
    },
    "b": {
      "count": 1,
      "mean": 1.0,
      "stddev": 0.0
    }
  }
}
"""),
}


class TestJsonText:
    @given(doc=DOCUMENTS)
    @example(doc=HOSTILE)
    @example(doc={**HOSTILE, "], [": [[0.5, 2**70], []], "\\": {"x, ": -1e308, "y": 1}})
    @settings(max_examples=200, deadline=None)
    def test_equals_indented_json_dumps(self, doc):
        """Equal bytes, or for a document with NaN or an infinity, ValueError from both."""
        try:
            want = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
        except ValueError:
            with pytest.raises(ValueError):
                cli._json_text(doc)
        else:
            assert cli._json_text(doc) == want

    @pytest.mark.parametrize(
        "doc, orjson_outcome",
        [
            ({"L": [[2**63 - 1, -(2**63)], [2**63, 2**64 - 1]]}, "written"),
            ({"L": [[7]]}, "written"),
            ({"a": {"b": {"L": [[1, -2, 0], [30, 4, 5]], "n": 2}}, "c": [1]}, "written"),
            ({"L": [[0, 2**64]]}, "refused"),
            ({"L": [[-(2**63) - 1, 1]]}, "refused"),
            ({"L": [[1, 2], [2**70, 3]]}, "refused"),
            ({"L": [[True, False], [False, True]]}, "not asked"),
            ({"L": [[1, 2.0]]}, "not asked"),
        ],
    )
    def test_integer_matrices(self, doc, orjson_outcome):
        """orjson writes a matrix of ints within 64 bits; one past them, or a bool or float cell, takes json."""
        with mock.patch.object(orjson, "dumps", wraps=orjson.dumps) as spy:
            assert cli._json_text(doc) == json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
        assert spy.call_count == (orjson_outcome != "not asked")
        if spy.called:
            (matrix,), _ = spy.call_args
            with contextlib.nullcontext() if orjson_outcome == "written" else pytest.raises(orjson.JSONEncodeError):
                orjson.dumps(matrix)

    def test_derived_bounds_written_by_orjson(self, tmp_path):
        """derive-constraints writes the 1600 x 3 ``L`` of the 6400-item instance with one orjson call."""
        inst, out = write_json(tmp_path, "inst.json", repair_instance()), tmp_path / "bounds.json"
        with mock.patch.object(orjson, "dumps", wraps=orjson.dumps) as spy:
            assert main(["derive-constraints", inst, "--out", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert [call.args[0] for call in spy.call_args_list] == [doc["L"]] and len(doc["L"]) == 1600
        assert out.read_text(encoding="utf-8") == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("command", sorted(PRINTED) + ["supernumerary", "sweep"])
    def test_printed_bytes(self, tmp_path, capsys, command):
        """Each command prints its result and writes the same bytes to ``--out``: the PRINTED text for a JSON
        command, and for the CSV commands whatever they print."""
        argv, want = PRINTED.get(command, ([command, "cfg", "--trials", "2", "--seed", "5"], None))
        configs = {
            "sweep": {**TRIAL_CONFIG, "alphas": [0.0, 0.25], "betas": [0.5]},
            "supernumerary": SUPERNUMERARY_CONFIG,
        }
        files = {
            "inst": write_json(tmp_path, "inst.json", FACT_INSTANCE_W),
            "cfg": write_json(tmp_path, "cfg.json", configs.get(command, TRIAL_CONFIG)),
            "csv": str(tmp_path / "scores.csv"),
        }
        (tmp_path / "scores.csv").write_text("score,group\n3.5,a\n1,b\n2,a\n", encoding="utf-8")
        argv, out = [files.get(arg, arg) for arg in argv], tmp_path / "out"
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert printed == want if want else printed.startswith("# seed=5\n")
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr() == ("", "") and out.read_bytes() == printed.encode()


def same_json(a, b) -> bool:
    """Equal JSON trees: the same types, floats bit for bit, and objects with the same keys in the same order."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, dict):
        return list(a) == list(b) and all(same_json(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_json, a, b))
    return a == b


def whole_text_agrees(text: str) -> bool:
    """The loader's two checks as whole-text scans: no character other than a digit or "." (nor the start of the
    text) before 19 digits, and at most 2**14 ``[`` and ``{``."""
    return re.search(r"(?:^|[^0-9.])[0-9]{19}", text) is None and text.count("[") + text.count("{") <= 2**14


def repair_instance() -> dict:
    """An instance shaped as perfbench's ``repair`` ones: 6400 items, n = 1600, three groups and ungrouped items."""
    rng = np.random.default_rng(31)
    labels = rng.integers(-1, 3, 6400)
    items = zip(rng.uniform(0.0, 1.0, 6400).tolist(), labels.tolist())
    return {
        "n": 1600,
        "v": {"kind": "dcg"},
        "groups": [np.flatnonzero(labels == s).tolist() for s in range(3)],
        "items": [{"id": i, "w": w, "groups": [g] if g >= 0 else []} for i, (w, g) in enumerate(items)],
    }


def load_both(text: str) -> tuple:
    """``text`` written to a file, then read by ``cli._load_object`` and by ``json.loads`` with its object check:
    each one's value, or its error's type and message."""
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(text, encoding="utf-8")
        for load in (lambda: cli._load_object(str(path), "test"), lambda: json.loads(path.read_text(encoding="utf-8"))):
            try:
                value = load()
                results.append(value if isinstance(value, dict) else "ValueError: test JSON must be an object")
            except ValueError as exc:
                results.append(f"{type(exc).__name__}: {exc}")
    return tuple(results)


@st.composite
def json_texts(draw):
    """A JSON text of an object, in one of json.dumps' layouts, with one character cut or inserted now and then."""
    text = json.dumps(
        {"doc": draw(DOCUMENTS | st.text())},
        ensure_ascii=draw(st.booleans()),
        indent=draw(st.sampled_from([None, 0, 2, "\t"])),
        separators=draw(st.sampled_from([None, (",", ":")])),
    )
    edit = draw(st.integers(0, 3))
    at = draw(st.integers(0, len(text)))
    if edit == 1:
        text = text[:at] + text[at + 1 :]
    elif edit == 2:
        text = text[:at] + draw(st.sampled_from(list('{}[],:"0-.eE \\\n\r\t')) | st.characters()) + text[at:]
    return text


# Number texts: a sign, an integer part, then an optional fraction and exponent; digit runs reach 40.
FLOAT_TEXTS = st.builds(
    "{}{}{}{}".format,
    st.sampled_from(["", "-"]),
    st.from_regex(r"0|[1-9][0-9]{0,39}", fullmatch=True),
    st.just("") | st.from_regex(r"\.[0-9]{1,40}", fullmatch=True),
    st.just("") | st.from_regex(r"[eE][+-]?[0-9]{1,3}", fullmatch=True),
)


class TestLoadObject:
    """``_load_object`` parses as ``json.loads`` does: the same value, types, float bits, key order and error
    message, with orjson on the texts its checks admit and json on the rest."""

    @given(text=json_texts())
    @example(text='{"a": "\\ud800", "b": "\\udc00\\ud800"}')
    @example(text='{"a": 1, "a": [2], "b": 3, "a": {}}')
    @example(text='{"a":[18446744073709551616]}')
    @example(text='\ufeff{"a": 1}')
    @example(text='{"a": [1e-7, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -0]}')
    @example(text=' {"a":\t[1 ,2]\r\n}\n ')
    @settings(max_examples=250, deadline=None)
    def test_equals_json_loads(self, text):
        got, want = load_both(text)
        assert same_json(got, want), (text, got, want)

    @given(number=FLOAT_TEXTS)
    @example(number="0.1234567890123456789012345678901234567890")
    @example(number="123456789012345678.123456789012345678e-300")
    @example(number="2.47032822920623272e-324")
    @example(number="1797693134862315708145274237317043567981e269")
    @settings(max_examples=250, deadline=None)
    def test_float_texts(self, number):
        got, want = load_both(f'{{"x": {number}, "y": [{number}]}}')
        assert same_json(got, want), (number, got, want)

    @pytest.mark.parametrize(
        "text",
        [
            *(f'{{"x": {value}}}' for value in (2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64 - 1, 2**64, 10**19)),
            '{"x": -123456789012345678901234567890}',
            '{"x":[18446744073709551616,-9223372036854775809],"y":{"z":-18446744073709551617}}',
            '{"x": [1, 100000000000000000000000000000000000000001]}',
            '{"1234567890123456789012": "x1234567890123456789012", "y": "1234567890123456789012345"}',
            '{"x": NaN, "y": [Infinity, -Infinity]}',
            '{"x": 1e400, "y": -1e400, "z": 1.7976931348623159e308}',
            '{"x": 1,}',
            '{"x": 01}',
            '{"x": [1, 2}',
            "",
            "[1, 2]",
        ],
    )
    def test_texts_orjson_reads_differently_or_refuses(self, text):
        got, want = load_both(text)
        assert same_json(got, want), (got, want)

    @pytest.mark.parametrize(
        "payload",
        ["-9999999999999999999", "-999999999999999999", "0.12345678901234567890123", "[" * 40 + "]" * 40],
        ids=["int19", "int18", "fraction23", "nested40"],
    )
    @pytest.mark.parametrize("edge", [1, 2])
    def test_runs_across_chunk_edges(self, payload, edge):
        """A 19-digit integer (orjson floats it), an 18-digit one, a 23-digit fraction and 40 nested lists start at
        every offset from -20 to +20 bytes around a chunk edge, in texts with 2**14 and 2**14 + 1 openers: the
        checks answer as the whole-text scans do, and the text loads as json.loads reads it."""
        for offset in range(-20, 21):
            at = edge * cli._CHUNK + offset
            for openers in (2**14, 2**14 + 1):
                head = '{"pad": "' + "x" * (at - 17) + '", "n": '  # the payload starts at byte ``at``
                tail = ', "z": "' + "{" * (openers - 1 - payload.count("[")) + '"}'
                text = head + payload + tail
                assert cli._orjson_agrees(text) == whole_text_agrees(text), (payload, at, openers)
                got, want = load_both(text)
                assert same_json(got, want), (payload, at, openers)

    @pytest.mark.parametrize(
        "text",
        [
            *("", "1" * 18, "1" * 19, "-" + "1" * 19, "." + "1" * 19, "1." + "1" * 19, "e" + "1" * 25, "é" + "1" * 19),
            *("[" * 2**14, "{" * 2**14 + "[", "[]" * 2**14 + "x" * 2**16),
        ],
    )
    def test_text_start_and_opener_count(self, text):
        """The start of the text counts as a byte before a digit run, and every opener counts once."""
        assert cli._orjson_agrees(text) == whole_text_agrees(text)

    def test_checks_hold_no_whole_text_temporary(self):
        """On the 6400-item instance's 364 KiB text, the checks peak at one encoded copy of the text plus at most
        256 KiB: no temporary grows with the text."""
        text = json.dumps(repair_instance())
        tracemalloc.start()
        try:
            assert cli._orjson_agrees(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= len(text.encode()) + 256 * 1024

    def test_repair_instance_takes_orjson(self, tmp_path, monkeypatch):
        """The 6400-item instance and its bounds parse without json.loads, to the bytes json's parse gives."""
        inst = write_json(tmp_path, "inst.json", repair_instance())
        bounds, out = tmp_path / "bounds.json", tmp_path / "out.json"

        def run() -> tuple[bytes, bytes]:
            assert main(["derive-constraints", inst, "--out", str(bounds)]) == 0
            assert main(["solve", inst, "--constraints", str(bounds), "--betas", "0.5,0.7,0.9", "--out", str(out)]) == 0
            return bounds.read_bytes(), out.read_bytes()

        with monkeypatch.context() as patched:
            patched.setattr(json, "loads", mock.Mock(side_effect=AssertionError("json.loads called")))
            fast = run()

        def refuse(text):
            raise orjson.JSONDecodeError("refused", text, 0)

        with monkeypatch.context() as patched:
            patched.setattr(orjson, "loads", refuse)
            assert run() == fast


FUZZ_SWEEP = {**TRIAL_CONFIG, "alphas": [0.0, 0.25], "betas": [0.5], "trials": 3}
FUZZ_SUPERNUMERARY = {**SUPERNUMERARY_CONFIG, "discount": {"kind": "dcg"}, "trials": 3}
FUZZ_CONSTRAINTS = {"n": 2, "p": 2, "L": [[1, 0], [1, 1]]}
FUZZ_DIST = {"kind": "shifted_scaled", "base": {"kind": "uniform", "a": 0.0, "b": 1.0}, "scale": 2.0, "shift": 1.0}
# name -> (argv with "doc" where the fuzzed document goes, base document, other files)
FUZZ_TARGETS = {
    "solve-instance": (["solve", "doc", "--betas", "1.0,0.5"], FACT_INSTANCE_W, {}),
    "derive-instance": (["derive-constraints", "doc"], FACT_INSTANCE_W, {}),
    "solve-constraints": (["solve", "inst", "--constraints", "doc"], FUZZ_CONSTRAINTS, {"inst": FACT_INSTANCE_W}),
    "simulate-trial": (["simulate", "doc", "--trials", "2"], TRIAL_CONFIG, {}),
    "sweep": (["sweep", "doc"], FUZZ_SWEEP, {}),
    "supernumerary": (["supernumerary", "doc"], FUZZ_SUPERNUMERARY, {}),
    "orderstats-dist": (
        ["orderstats", "--k", "2", "--l", "1", "--ma", "5", "--mb", "5", "--trials", "3", "--dist", "doc"],
        FUZZ_DIST,
        {},
    ),
}


@st.composite
def mutated(draw, doc):
    """The document with one or two values somewhere inside replaced by
    random JSON or their keys dropped, or replaced whole."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JSON_VALUES)
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 2))):
        node = doc
        while True:
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                node = child
                continue
            if isinstance(node, dict) and draw(st.integers(0, 4)) == 0:
                del node[key]
            else:
                node[key] = draw(JSON_VALUES)
            break
        if not doc:
            break
    return doc


# Texts of Python's and numpy's own errors, which a document's type or shape
# raises when something reads it before a reader has checked its type.
INTERNAL_ERRORS = ("has no len()", "not subscriptable", "not iterable", "object of type", "inhomogeneous shape")


class TestFuzzedDocuments:
    """Random JSON inside every input document gives a documented exit
    code and never an unhandled exception."""

    @pytest.mark.parametrize("target", sorted(FUZZ_TARGETS))
    def test_exit_code_without_traceback(self, target):
        argv, base, others = FUZZ_TARGETS[target]

        @given(doc=mutated(base))
        @settings(max_examples=150, deadline=None)
        def check(doc):
            with tempfile.TemporaryDirectory() as tmp:
                files = {**others, "doc": doc}
                paths = {name: write_json(Path(tmp), f"{name}.json", value) for name, value in files.items()}
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = main([paths.get(arg, arg) for arg in argv] + ["--out", str(Path(tmp) / "out")])
            report = f"exit {code}, stderr {err.getvalue()!r}"
            assert code in (0, 1, 2, 3), report
            assert "Traceback" not in err.getvalue(), report
            if code:
                assert len(err.getvalue().splitlines()) == 1, report
            if code == 3:  # a message of the program's, not Python's or numpy's own
                assert not any(text in err.getvalue() for text in INTERNAL_ERRORS), report

        check()


class TestModuleEntry:
    """``python -m biasrank`` runs the CLI in a fresh interpreter."""

    def run(self, *argv):
        env = dict(os.environ, PYTHONPATH=str(Path(biasrank.__file__).resolve().parent.parent))
        return subprocess.run([sys.executable, "-m", "biasrank", *argv], capture_output=True, text=True, env=env)

    def test_no_subcommand_is_usage_error(self):
        assert self.run().returncode == 1

    def test_most_nested_text_orjson_reads(self, tmp_path):
        # 2**14 objects deep, orjson's recursion stays far inside an 8 MiB stack; the instance has no "n"
        path = tmp_path / "inst.json"
        path.write_text('{"a": ' * 2**14 + "1" + "}" * 2**14)
        proc = self.run("solve", str(path))
        assert (proc.returncode, proc.stderr) == (3, "error: instance JSON missing key 'n'\n")

    def test_tiny_sweep(self, tmp_path):
        doc = {**TRIAL_CONFIG, "alphas": [0.0, 0.25], "betas": [0.5], "trials": 3}
        proc = self.run("sweep", write_json(tmp_path, "sweep.json", doc), "--seed", "1")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "# seed=1" and len(lines) == 4
