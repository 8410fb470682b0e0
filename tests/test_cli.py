import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import biasrank
from biasrank import cli, stats
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


@pytest.fixture
def normal_draws(monkeypatch):
    """A list that gets one entry per ``Normal.draw`` call."""
    calls = []
    draw = stats.Normal.draw
    monkeypatch.setattr(stats.Normal, "draw", lambda self, *args: calls.append(1) or draw(self, *args))
    return calls


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


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


class TestSimulate:
    def test_byte_identical_given_seed(self, tmp_path):
        cfg = write_json(tmp_path, "cfg.json", TRIAL_CONFIG)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["simulate", cfg, "--seed", "42", "--out", str(out1)]) == 0
        assert main(["simulate", cfg, "--seed", "42", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

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


class TestSupernumerary:
    def test_csv_output(self, tmp_path):
        cfg = write_json(tmp_path, "sup.json", SUPERNUMERARY_CONFIG)
        out = tmp_path / "sup.csv"
        assert main(["supernumerary", cfg, "--seed", "2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "alpha,scheme,seats,mean_utility_per_seat,se"
        assert len(lines) == 2 + 2 * 5


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
        doc = {**TRIAL_CONFIG, "m_b": 3, "alphas": [0.0, 0.5], "betas": [0.5], "alpha": 0.5}
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
        ],
        ids=[
            "solve-item-without-w",
            "derive-item-without-w",
            "null-n",
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
            "nan-gamma-supernumerary",
            "nan-offset-supernumerary",
            "inf-offset-supernumerary",
            "huge-gamma-supernumerary",
            "overflowing-means-sweep",
            "overflowing-means-supernumerary",
            "overflowing-means-simulate",
        ],
    )
    def test_malformed_json_is_one_line_parse_error(self, tmp_path, capsys, argv, files):
        paths = {name: write_json(tmp_path, f"{name}.json", doc) for name, doc in files.items()}
        code = main([paths.get(arg, arg) for arg in argv])
        err = capsys.readouterr().err
        assert code == 3
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err

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
            ("simulate", {**TRIAL_CONFIG, "n": [8]}),
            ("sweep", {**TRIAL_CONFIG, "alphas": [0.0], "betas": [0.5], "trials": [3]}),
            ("supernumerary", {**SUPERNUMERARY_CONFIG, "gamma": [0.5]}),
            ("sweep", {**TRIAL_CONFIG, "alphas": {"0.5": 1}, "betas": [0.5]}),
            ("solve", {**FACT_INSTANCE_W, "n": 1.5, "v": {"kind": "constant"}}),
            ("solve", {**FACT_INSTANCE_W, "items": [{"id": 0.7, "w": 2.0, "groups": [0]}, {"id": 1, "w": 1.0, "groups": [1]}]}),
            ("solve", {**FACT_INSTANCE_W, "items": [{"id": 0, "w": 2.0, "groups": [0.2]}, {"id": 1, "w": 1.0, "groups": [1]}]}),
            ("solve", {**FACT_INSTANCE_W, "groups": [[0.2], [1]]}),
            ("simulate", {**TRIAL_CONFIG, "m_b": 20.9}),
            ("simulate", {**TRIAL_CONFIG, "n": 5.5}),
            ("simulate", {**TRIAL_CONFIG, "target_group": 0.5}),
            ("sweep", {**TRIAL_CONFIG, "alphas": [0.0], "betas": [0.5], "trials": 2.5}),
            ("supernumerary", {**SUPERNUMERARY_CONFIG, "m_a": 30.5}),
        ],
        ids=[
            "number-alphas-sweep",
            "number-alphas-supernumerary",
            "list-n-simulate",
            "list-trials",
            "list-gamma",
            "object-alphas",
            "fractional-n-instance",
            "fractional-item-id",
            "fractional-group-id",
            "fractional-group-member",
            "fractional-m_b-simulate",
            "fractional-n-simulate",
            "fractional-target-group",
            "fractional-trials-sweep",
            "fractional-m_a-supernumerary",
        ],
    )
    def test_wrong_json_type_is_one_line_parse_error(self, tmp_path, capsys, command, doc):
        code = main([command, write_json(tmp_path, "cfg.json", doc)])
        err = capsys.readouterr().err
        assert code == 3
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err


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


NUMBERS = (
    st.integers()
    | st.integers(-(2**80), 2**80)
    | st.floats()
    | st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e-7, 1e22])
)
KEYS = st.text(max_size=6) | st.sampled_from(["L", "positions", "é", "键", "\u2028", 'q"\\'])
# What solve and derive-constraints print, plus shapes that must fall back.
FLAT_VALUES = (
    NUMBERS
    | st.lists(NUMBERS, max_size=6)
    | st.lists(st.lists(NUMBERS, max_size=4), max_size=4)
    | st.lists(st.lists(NUMBERS, max_size=3) | NUMBERS, max_size=3)
    | st.booleans()
    | st.none()
    | st.text(max_size=3)
    | st.lists(st.booleans() | st.none() | st.text(max_size=2), max_size=3)
    | st.lists(st.lists(st.lists(NUMBERS, max_size=2), max_size=2), max_size=2)
)


class TestDumpJson:
    @given(obj=st.dictionaries(KEYS, FLAT_VALUES, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_bytes_equal_indented_json_dumps(self, obj):
        text = cli._flat_json(obj)
        want = json.dumps(obj, indent=2, sort_keys=True)
        assert text is None or text == want
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._dump_json(obj, None)
        assert out.getvalue() == want + "\n"

    def test_solve_and_derive_shapes_take_the_template(self):
        bounds = {"L": [[0, 1, 0], [1, 1, 1]], "n": 2, "p": 3}
        ranking = {"betas": [1.0, 0.5], "latent_utility": float("nan"), "observed_utility": -0.0, "positions": [3, 1]}
        for obj in (bounds, ranking, {"positions": [], "é": 2**70}):
            assert cli._flat_json(obj) == json.dumps(obj, indent=2, sort_keys=True)
        for obj in ({"L": [[0], []]}, {"flag": True}, {"groups": {"a": 1}}, {1: 2}):
            assert cli._flat_json(obj) is None


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
            assert code in (0, 1, 2, 3)
            assert "Traceback" not in err.getvalue()
            if code:
                assert len(err.getvalue().splitlines()) == 1

        check()


class TestModuleEntry:
    """``python -m biasrank`` runs the CLI in a fresh interpreter."""

    def run(self, *argv):
        env = dict(os.environ, PYTHONPATH=str(Path(biasrank.__file__).resolve().parent.parent))
        return subprocess.run([sys.executable, "-m", "biasrank", *argv], capture_output=True, text=True, env=env)

    def test_no_subcommand_is_usage_error(self):
        assert self.run().returncode == 1

    def test_tiny_sweep(self, tmp_path):
        doc = {**TRIAL_CONFIG, "alphas": [0.0, 0.25], "betas": [0.5], "trials": 3}
        proc = self.run("sweep", write_json(tmp_path, "sweep.json", doc), "--seed", "1")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "# seed=1" and len(lines) == 4
