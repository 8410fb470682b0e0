"""Command-line entry point.

Subcommands::

    solve               instance JSON (+ optional constraint JSON, bias
                        factors) -> ranking JSON with latent and observed
                        utilities
    derive-constraints  instance JSON -> constraint JSON taken from the
                        latent-optimal ranking
    simulate            trial-config JSON -> trial report JSON
    sweep               sweep-config JSON -> CSV of per-cell means
    orderstats          closed-form vs Monte Carlo composition of the
                        utility-sorted ranking -> JSON
    supernumerary       seat-expansion config JSON -> CSV
    ingest              score CSV ("score,group" header) -> per-group
                        empirical distribution JSON

Common flags: ``--seed`` (an integer in [0, 2**64), default 0, echoed
into every randomized output so reported numbers are reproducible),
``--trials``, ``--threads`` (accepted for compatibility; trials run
sequentially and output never depends on it), and ``--out`` (default
stdout).

Exit codes: 0 success, 1 usage error, 2 infeasible constraints,
3 I/O, parse or range error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .constraints import (
    ConstraintMatrix,
    InfeasibleConstraintsError,
    NonDisjointGroupsError,
    derived_constraints,
)
from .model import (
    BiasModel,
    DiscountVector,
    instance_from_json,
    observed_utilities,
    ranking_utility,
    whole_numbers,
)
from .solver import (
    BRUTEFORCE_MAX_ITEMS,
    BRUTEFORCE_MAX_POSITIONS,
    rank_constrained_bruteforce,
    rank_constrained_greedy,
    rank_unconstrained,
)
from .stats import Distribution, Empirical, SeedSpec, distribution_from_json, expected_Nkb, expected_Pl
from .experiments import (
    SupernumeraryConfig,
    TrialConfig,
    estimate_order_stats,
    run_sweep,
    run_trials,
    supernumerary_compare,
    supernumerary_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_IO = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); we reserve 2
        raise _UsageError(message)


def _master_seed(text: str) -> int:
    """``--seed`` value: an integer in [0, 2**64)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"{value} is outside [0, 2**64)")
    return value


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_object(path: str, what: str) -> dict:
    d = _load_json(path)
    if not isinstance(d, dict):
        raise ValueError(f"{what} JSON must be an object")
    return d


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


_NUMBER = {int, float}


def _flat_json(obj: dict) -> str | None:
    """``json.dumps(obj, indent=2, sort_keys=True)`` for an object of
    numbers, number lists and lists of nonempty number lists (what
    ``solve`` and ``derive-constraints`` print), or None for any other
    shape.

    With an indent the standard library encodes in pure Python; here the C
    encoder writes each list on one line and the line breaks go in after,
    which is safe because the text of a number holds no ``,`` or ``[``.
    """
    if {type(k) for k in obj} - {str}:
        return None
    fields = []
    for key in sorted(obj):
        value = obj[key]
        if type(value) in _NUMBER:
            text = json.dumps(value)
        elif type(value) is not list:
            return None
        elif not value:
            text = "[]"
        elif {type(x) for x in value} <= _NUMBER:
            text = "[\n    " + json.dumps(value)[1:-1].replace(", ", ",\n    ") + "\n  ]"
        elif {type(r) for r in value} == {list} and all(value) and {type(x) for r in value for x in r} <= _NUMBER:
            rows = json.dumps(value)[2:-2].replace(", ", ",\n      ")
            text = "[\n    [\n      " + rows.replace("],\n      [", "\n    ],\n    [\n      ") + "\n    ]\n  ]"
        else:
            return None
        fields.append(f"{json.dumps(key)}: {text}")
    return "{\n  " + ",\n  ".join(fields) + "\n}" if fields else "{}"


def _dump_json(obj: dict, out: str | None) -> None:
    text = _flat_json(obj)
    if text is None:
        text = json.dumps(obj, indent=2, sort_keys=True)
    _write_output(text + "\n", out)


def _parse_betas(text: str, p: int) -> BiasModel:
    parts = [t for t in text.split(",") if t.strip()]
    betas = [float(t) for t in parts]
    if len(betas) != p:
        raise ValueError(f"expected {p} bias factors, got {len(betas)}")
    return BiasModel(betas)


def _config_error(what: str, exc: Exception) -> ValueError:
    """A missing key, or a JSON value of the wrong type or out of range
    (an infinite count), as a parse error."""
    problem = "missing key" if isinstance(exc, KeyError) else "has a bad value:"
    return ValueError(f"{what} {problem} {exc}")


def _trial_config_from_json(d: dict) -> TrialConfig:
    try:
        n = int(whole_numbers(d["n"], "n"))
        return TrialConfig(
            m_a=int(whole_numbers(d["m_a"], "m_a")),
            m_b=int(whole_numbers(d["m_b"], "m_b")),
            n=n,
            beta=float(d["beta"]),
            alpha=float(d.get("alpha", 0.0)),
            dist_a=distribution_from_json(d["dist_a"]),
            dist_b=distribution_from_json(d["dist_b"]),
            discount=DiscountVector.from_json_dict(d.get("discount", {"kind": "constant"}), n),
            target_group=int(whole_numbers(d.get("target_group", 1), "target_group")),
        )
    except (KeyError, TypeError, OverflowError) as exc:
        raise _config_error("trial config", exc) from exc


def _supernumerary_config_from_json(d: dict, alpha: float) -> SupernumeraryConfig:
    discount = d.get("discount", {"kind": "constant"})
    if not isinstance(discount, dict):
        raise ValueError("discount must be a JSON object")
    try:
        return SupernumeraryConfig(
            n=int(whole_numbers(d["n"], "n")),
            m_a=int(whole_numbers(d["m_a"], "m_a")),
            m_b=int(whole_numbers(d["m_b"], "m_b")),
            alpha=float(alpha),
            gamma=float(d["gamma"]),
            dist_a=distribution_from_json(d["dist_a"]),
            dist_b=distribution_from_json(d["dist_b"]),
            score_offset=float(d.get("score_offset", 105.0)),
            discount_kind=discount.get("kind", "constant"),
            log_base=discount.get("log_base"),
        )
    except (KeyError, TypeError, OverflowError) as exc:
        raise _config_error("supernumerary config", exc) from exc


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_solve(args) -> int:
    inst = instance_from_json(_load_json(args.instance))
    bias = _parse_betas(args.betas, inst.p) if args.betas else BiasModel(np.ones(inst.p))
    observed = observed_utilities(inst, bias)
    if args.constraints:
        L = ConstraintMatrix.from_json_dict(_load_json(args.constraints))
        try:
            ranking = rank_constrained_greedy(inst, observed, L)
        except NonDisjointGroupsError:
            if inst.m > BRUTEFORCE_MAX_ITEMS or inst.n > BRUTEFORCE_MAX_POSITIONS:
                raise ValueError("overlapping groups require the brute-force solver (small instances only)")
            ranking = rank_constrained_bruteforce(inst, observed, L)
    else:
        ranking = rank_unconstrained(inst, observed)
    _dump_json(
        {
            "positions": list(ranking.positions),
            "latent_utility": ranking_utility(ranking, inst.v, inst.latent_utilities),
            "observed_utility": ranking_utility(ranking, inst.v, observed),
            "betas": [float(b) for b in bias.betas],
        },
        args.out,
    )
    return EXIT_OK


def _cmd_derive_constraints(args) -> int:
    inst = instance_from_json(_load_json(args.instance))
    _dump_json(derived_constraints(inst).to_json_dict(), args.out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg = _trial_config_from_json(_load_object(args.config, "trial config"))
    seed = SeedSpec(args.seed)
    trials = args.trials if args.trials is not None else 1
    reports = run_trials(cfg, trials, seed)
    body = {
        "seed": seed.master_seed,
        "trials": trials,
        "reports": [asdict(r) for r in reports],
        "mean": {
            "u_cons": sum(r.u_cons for r in reports) / trials,
            "u_uncons": sum(r.u_uncons for r in reports) / trials,
            "u_opt": sum(r.u_opt for r in reports) / trials,
        },
    }
    if not all(map(math.isfinite, body["mean"].values())):
        raise ValueError("a mean overflows the float range")
    _dump_json(body, args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    d = _load_object(args.config, "sweep config")
    if not all(isinstance(d.get(key), list) and d[key] for key in ("alphas", "betas")):
        raise ValueError('sweep config needs nonempty "alphas" and "betas" lists')
    try:
        alphas = [float(a) for a in d["alphas"]]
        betas = [float(b) for b in d["betas"]]
        trials = args.trials if args.trials is not None else int(whole_numbers(d.get("trials", 1000), "trials"))
    except (TypeError, OverflowError) as exc:
        raise _config_error("sweep config", exc) from exc
    base = _trial_config_from_json({**d, "alpha": alphas[0], "beta": betas[0]})
    report = run_sweep(base, alphas, betas, trials, SeedSpec(args.seed))
    _write_output(report.to_csv(), args.out)
    return EXIT_OK


def _cmd_orderstats(args) -> int:
    try:
        dist: Distribution = distribution_from_json(_load_json(args.dist) if args.dist else {"kind": "uniform"})
    except (TypeError, OverflowError) as exc:
        raise _config_error("distribution", exc) from exc
    trials = args.trials if args.trials is not None else 10000
    seed = SeedSpec(args.seed)
    est = estimate_order_stats(args.k, args.l, args.ma, args.mb, dist, trials, seed)
    _dump_json(
        {
            "seed": seed.master_seed,
            "trials": trials,
            "k": args.k,
            "l": args.l,
            "m_a": args.ma,
            "m_b": args.mb,
            "analytic": {
                "expected_Nkb": expected_Nkb(args.k, args.ma, args.mb),
                "expected_Pl": expected_Pl(args.l, args.ma, args.mb),
            },
            "monte_carlo": {
                "mean_Nkb": est.mean_Nkb,
                "se_Nkb": est.se_Nkb,
                "mean_Pl": est.mean_Pl,
                "se_Pl": est.se_Pl,
            },
        },
        args.out,
    )
    return EXIT_OK


def _cmd_supernumerary(args) -> int:
    d = _load_object(args.config, "supernumerary config")
    alphas = d.get("alphas")
    if alphas is None:
        alphas = [d["alpha"]] if "alpha" in d else None
    if not alphas or not isinstance(alphas, list):
        raise ValueError('supernumerary config needs "alpha" or a nonempty "alphas" list')
    try:
        trials = args.trials if args.trials is not None else int(whole_numbers(d.get("trials", 1000), "trials"))
    except (TypeError, OverflowError) as exc:
        raise _config_error("supernumerary config", exc) from exc
    seed = SeedSpec(args.seed)
    configs = [_supernumerary_config_from_json(d, a) for a in alphas]
    reports = [supernumerary_compare(c, trials, seed) for c in configs]
    _write_output(supernumerary_csv(reports), args.out)
    return EXIT_OK


def ingest_scores(csv_path: str):
    """Read a "score,group" CSV into one empirical distribution per group.

    Group names map to indices in first-seen order.  Returns
    (distributions, summary, group_order) where distributions maps name ->
    Empirical and summary maps name -> {count, mean, stddev}.
    """
    by_group: dict[str, list[float]] = {}
    with open(csv_path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if header.strip().replace(" ", "") != "score,group":
            raise ValueError('expected CSV header "score,group"')
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 2 fields, got {len(parts)}")
            score_text, group = parts[0].strip(), parts[1].strip()
            if not group:
                raise ValueError(f"line {lineno}: empty group name")
            try:
                score = float(score_text)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: bad score {score_text!r}") from exc
            by_group.setdefault(group, []).append(score)
    if not by_group:
        raise ValueError("CSV contains no data rows")
    dists = {g: Empirical(vals) for g, vals in by_group.items()}
    summary = {}
    for g, scores in by_group.items():
        vals = np.asarray(scores, dtype=float)
        summary[g] = {
            "count": int(vals.size),
            "mean": float(vals.mean()),
            "stddev": float(vals.std(ddof=1)) if vals.size > 1 else 0.0,
        }
    return dists, summary, list(by_group)


def _cmd_ingest(args) -> int:
    dists, summary, order = ingest_scores(args.csv)
    _dump_json(
        {
            "groups": {g: dists[g].to_json_dict() for g in order},
            "group_order": order,
            "summary": summary,
        },
        args.out,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built on the first ``main`` call and reused: a parse leaves no state in it."""
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=_master_seed, default=0, help="64-bit master seed in [0, 2**64) (default 0)")
    common.add_argument("--trials", type=int, default=None, help="number of Monte Carlo trials")
    common.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility; trials run sequentially and output never depends on it",
    )
    common.add_argument("--out", type=str, default=None, help="output path (default stdout)")

    parser = _Parser(prog="biasrank", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("solve", parents=[common], help="rank an instance, optionally under constraints")
    p.add_argument("instance", help="instance JSON path")
    p.add_argument("--constraints", help="constraint JSON path")
    p.add_argument("--betas", help="comma-separated per-group bias factors (default all 1)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("derive-constraints", parents=[common], help="constraints from the latent-optimal ranking")
    p.add_argument("instance", help="instance JSON path")
    p.set_defaults(func=_cmd_derive_constraints)

    p = sub.add_parser("simulate", parents=[common], help="run trials for one configuration")
    p.add_argument("config", help="trial-config JSON path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", parents=[common], help="grid of trial means over alphas and betas")
    p.add_argument("config", help="sweep-config JSON path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("orderstats", parents=[common], help="analytic vs Monte Carlo ranking composition")
    p.add_argument("--k", type=int, required=True, help="prefix length")
    p.add_argument("--l", type=int, required=True, help="target-item index")
    p.add_argument("--ma", type=int, required=True, help="privileged group size")
    p.add_argument("--mb", type=int, required=True, help="target group size")
    p.add_argument("--dist", help="distribution JSON path (default uniform on [0,1])")
    p.set_defaults(func=_cmd_orderstats)

    p = sub.add_parser("supernumerary", parents=[common], help="seat-expansion scheme comparison")
    p.add_argument("config", help="supernumerary config JSON path")
    p.set_defaults(func=_cmd_supernumerary)

    p = sub.add_parser("ingest", parents=[common], help="score CSV to empirical distributions")
    p.add_argument("csv", help='CSV path with header "score,group"')
    p.set_defaults(func=_cmd_ingest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        return args.func(args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except (InfeasibleConstraintsError, NonDisjointGroupsError) as exc:
        sys.stderr.write(f"infeasible: {exc}\n")
        return EXIT_INFEASIBLE
    except (OSError, json.JSONDecodeError, ValueError, RecursionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_IO
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return EXIT_IO


def entry() -> None:
    raise SystemExit(main())
