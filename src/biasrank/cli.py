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

Every subcommand takes ``--out`` (default stdout).  The randomized ones,
``simulate``, ``sweep``, ``orderstats`` and ``supernumerary``, also take
``--seed`` (an integer in [0, 2**64), default 0, echoed into every output
so reported numbers are reproducible), ``--trials`` and ``--threads``
(accepted for compatibility; trials run sequentially and output never
depends on it).

Exit codes: 0 success, 1 usage error, 2 infeasible constraints,
3 I/O, parse or range error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import math
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import orjson

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
)
from .solver import rank_constrained_bruteforce, rank_constrained_greedy, rank_unconstrained
from .stats import JSON_NUMBER, Empirical, SeedSpec, distribution_from_json, expected_Nkb, expected_Pl
from .stats import read_list, read_number, read_numbers
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
_CHUNK = 2**15  # bytes of text that _orjson_agrees reads at a time


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


def _orjson_agrees(text: str) -> bool:
    """Whether ``orjson.loads(text)`` must equal ``json.loads(text)``: the text holds no integer of 19 digits or
    more (orjson floats one outside [-2**63, 2**64)) and at most 2**14 ``[`` and ``{`` (it has no depth limit).
    Both checks read the encoded text ``_CHUNK`` bytes at a time, so no temporary grows with the text."""
    data, openers = text.encode(), 0
    for start in range(0, len(data), _CHUNK):
        # the chunk, the byte before it (a space before the text) and the 19 after it, for a digit run across its end
        codes = np.frombuffer(data[start - 1 : start + _CHUNK + 19] if start else b" " + data[: _CHUNK + 19], np.uint8)
        openers += np.count_nonzero(codes[1 : _CHUNK + 1] | 32 == 123)  # only "[" and "{" give 123 with bit 32 set
        run = digit = codes - 48 < 10  # uint8 arithmetic takes every byte below "0" past 9
        for shift in (1, 2, 4, 8, 3):  # run[i]: digits from i on, 2, 4, 8, 16 and then 19 of them
            run = run[:-shift] & run[shift:]
        # a byte that is neither a digit nor "." before 19 digits starts an integer (or exponent) of 19 digits or more
        if openers > 2**14 or np.count_nonzero(run[1:] & ~digit[:-19] & (codes[:-19] != 46)):
            return False
    return True


def _load_object(path: str, what: str) -> dict:
    """The JSON object at ``path`` as ``json.loads`` reads it, by orjson where :func:`_orjson_agrees` allows; a text
    nested past json's recursion limit, with at most 2**14 openers, parses here where json raises RecursionError."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        d = orjson.loads(text) if _orjson_agrees(text) else json.loads(text)
    except orjson.JSONDecodeError:  # NaN, infinities, 1e400, lone surrogates, a BOM or invalid JSON, for json's message
        d = json.loads(text)
    if not isinstance(d, dict):
        raise ValueError(f"{what} JSON must be an object")
    return d


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True, allow_nan=False)`` for a document with text keys: one C-encoder
    call for each object or list of numbers, whose item separator holds the line break, and one orjson call for each
    matrix of integers, whose bytes json's are. Other objects, lists and keys recurse, with ``indent`` the line break
    and indent before their first line."""
    if not isinstance(value, (dict, list, tuple)) or not value:
        return json.dumps(value, allow_nan=False)
    inner = indent + "  "
    if isinstance(value, dict):
        if {type(v) for v in value.values()} <= JSON_NUMBER:
            body = json.dumps(value, sort_keys=True, separators=("," + inner, ": "), allow_nan=False)[1:-1]
        else:
            body = ("," + inner).join(f"{_json_text(k)}: {_json_text(value[k], inner)}" for k in sorted(value))
        return "{" + inner + body + indent + "}"
    types = {type(x) for x in value}
    if types == {list} and {type(x) for row in value for x in row} == {int}:
        with contextlib.suppress(orjson.JSONEncodeError):  # an integer outside 64 bits takes the rows' json calls
            return orjson.dumps(value, option=orjson.OPT_INDENT_2).decode().replace("\n", indent)
    if types <= JSON_NUMBER:
        body = json.dumps(value, separators=("," + inner, ": "), allow_nan=False)[1:-1]
    else:
        body = ("," + inner).join(_json_text(x, inner) for x in value)
    return "[" + inner + body + indent + "]"


def _non_finite_paths(value, path: str = ""):
    """The dotted key path of each NaN or infinity in ``value``, in the writer's order."""
    if isinstance(value, float) and not math.isfinite(value):
        yield path
    elif isinstance(value, (dict, list, tuple)):
        for key in sorted(value) if isinstance(value, dict) else range(len(value)):
            yield from _non_finite_paths(value[key], f"{path}.{key}" if path else str(key))


def _parse_betas(text: str, p: int) -> BiasModel:
    betas = [float(t) for t in text.split(",") if t.strip()]
    if len(betas) != p:
        raise ValueError(f"expected {p} bias factors, got {len(betas)}")
    return BiasModel(betas)


def _trials(args, d: dict, default: int) -> int:
    """``--trials`` if given, else the config's whole-number ``"trials"``, else ``default``."""
    return args.trials if args.trials is not None else read_number(d.get("trials", default), "trials", whole=True)


def _config_from_json(cls, d: dict, what: str, positions: tuple[str, ...], others: tuple[str, ...] = ()):
    """The ``cls`` config that ``d`` names, field by field in order: a distribution by :func:`distribution_from_json`,
    the discount (constant by default) by :meth:`DiscountVector.from_json_dict` for the sum of the ``positions``
    fields, and any other field by :func:`read_number`, whole for an ``int``, or its default where ``d`` lacks it.
    A key of ``d`` other than a field, ``"trials"`` and the ``others`` the command reads raises ValueError first."""
    if foreign := [key for key in d if key not in (*others, "trials") and key not in cls.__dataclass_fields__]:
        raise ValueError(f"{what} takes no key {foreign[0]!r}")
    values = {}
    for f in fields(cls):  # annotations are strings (postponed evaluation)
        value = d.get(f.name, {"kind": "constant"} if f.type == "DiscountVector" else f.default)
        if value is MISSING:
            raise ValueError(f"{what} missing key {f.name!r}")
        if f.type == "Distribution":
            value = distribution_from_json(value)
        elif f.type == "DiscountVector":
            value = DiscountVector.from_json_dict(value, sum(values[key] for key in positions))
        else:
            value = read_number(value, f.name, whole=f.type == "int")
        values[f.name] = value
    return cls(**values)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_solve(args) -> dict:
    inst = instance_from_json(_load_object(args.instance, "instance"))
    bias = _parse_betas(args.betas, inst.p) if args.betas else BiasModel(np.ones(inst.p))
    observed = observed_utilities(inst, bias)
    if args.constraints:
        L = ConstraintMatrix.from_json_dict(_load_object(args.constraints, "constraint"))
        try:
            ranking = rank_constrained_greedy(inst, observed, L)
        except NonDisjointGroupsError:
            ranking = rank_constrained_bruteforce(inst, observed, L)
    else:
        ranking = rank_unconstrained(inst, observed)
    return {
        "positions": list(ranking.positions),
        "latent_utility": ranking_utility(ranking, inst.v, inst.latent_utilities),
        "observed_utility": ranking_utility(ranking, inst.v, observed),
        "betas": [float(b) for b in bias.betas],
    }


def _cmd_derive_constraints(args) -> dict:
    inst = instance_from_json(_load_object(args.instance, "instance"))
    return derived_constraints(inst).to_json_dict()


def _cmd_simulate(args) -> dict:
    d = _load_object(args.config, "trial config")
    cfg = _config_from_json(TrialConfig, {"alpha": 0.0, **d}, "trial config", ("n",))
    seed = SeedSpec(args.seed)
    trials = _trials(args, d, 1)
    reports = run_trials(cfg, trials, seed)
    return {
        "seed": seed.master_seed,
        "trials": trials,
        "reports": [vars(r) for r in reports],
        "mean": {key: sum(getattr(r, key) for r in reports) / trials for key in ("u_cons", "u_uncons", "u_opt")},
    }


def _cmd_sweep(args) -> str:
    d = _load_object(args.config, "sweep config")
    alphas, betas = (read_numbers(read_list(d.get(key, []), key), key[:-1]).tolist() for key in ("alphas", "betas"))
    if not (alphas and betas):
        raise ValueError('sweep config needs nonempty "alphas" and "betas" lists')
    trials = _trials(args, d, 1000)
    # a trial config whose grid takes the place of its alpha and beta
    base = _config_from_json(
        TrialConfig, {**d, "alpha": alphas[0], "beta": betas[0]}, "sweep config", ("n",), ("alphas", "betas")
    )
    report = run_sweep(base, alphas, betas, trials, SeedSpec(args.seed))
    return report.to_csv()


def _cmd_orderstats(args) -> dict:
    dist = distribution_from_json(_load_object(args.dist, "distribution") if args.dist else {"kind": "uniform"})
    trials = args.trials if args.trials is not None else 10000
    seed = SeedSpec(args.seed)
    est = estimate_order_stats(args.k, args.l, args.ma, args.mb, dist, trials, seed)
    return {
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
        "monte_carlo": {key: getattr(est, key) for key in ("mean_Nkb", "se_Nkb", "mean_Pl", "se_Pl")},
    }


def _cmd_supernumerary(args) -> str:
    what = "supernumerary config"
    d = _load_object(args.config, what)
    alphas = read_list(d["alphas"], "alphas") if "alphas" in d else [d["alpha"]] if "alpha" in d else []
    if not alphas:
        raise ValueError(f'{what} needs "alpha" or a nonempty "alphas" list')
    trials = _trials(args, d, 1000)
    seed = SeedSpec(args.seed)
    configs = [
        _config_from_json(SupernumeraryConfig, {**d, "alpha": a}, what, ("m_a", "m_b"), ("alphas",)) for a in alphas
    ]
    reports = [supernumerary_compare(c, trials, seed) for c in configs]
    return supernumerary_csv(reports)


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


def _cmd_ingest(args) -> dict:
    dists, summary, order = ingest_scores(args.csv)
    return {
        "groups": {g: dists[g].to_json_dict() for g in order},
        "group_order": order,
        "summary": summary,
    }


# ---------------------------------------------------------------------------
# Parser


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built on the first ``main`` call and reused: a parse leaves no state in it."""
    output = _Parser(add_help=False)
    output.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    randomized = _Parser(add_help=False)
    randomized.add_argument("--seed", type=_master_seed, default=0, help="64-bit master seed in [0, 2**64) (default 0)")
    randomized.add_argument("--trials", type=int, default=None, help="number of Monte Carlo trials")
    randomized.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility; trials run sequentially and output never depends on it",
    )

    parser = _Parser(prog="biasrank", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("solve", parents=[output], help="rank an instance, optionally under constraints")
    p.add_argument("instance", help="instance JSON path")
    p.add_argument("--constraints", help="constraint JSON path")
    p.add_argument("--betas", help="comma-separated per-group bias factors (default all 1)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("derive-constraints", parents=[output], help="constraints from the latent-optimal ranking")
    p.add_argument("instance", help="instance JSON path")
    p.set_defaults(func=_cmd_derive_constraints)

    p = sub.add_parser("simulate", parents=[randomized, output], help="run trials for one configuration")
    p.add_argument("config", help="trial-config JSON path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", parents=[randomized, output], help="grid of trial means over alphas and betas")
    p.add_argument("config", help="sweep-config JSON path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("orderstats", parents=[randomized, output], help="analytic vs Monte Carlo ranking composition")
    p.add_argument("--k", type=int, required=True, help="prefix length")
    p.add_argument("--l", type=int, required=True, help="target-item index")
    p.add_argument("--ma", type=int, required=True, help="privileged group size")
    p.add_argument("--mb", type=int, required=True, help="target group size")
    p.add_argument("--dist", help="distribution JSON path (default uniform on [0,1])")
    p.set_defaults(func=_cmd_orderstats)

    p = sub.add_parser("supernumerary", parents=[randomized, output], help="seat-expansion scheme comparison")
    p.add_argument("config", help="supernumerary config JSON path")
    p.set_defaults(func=_cmd_supernumerary)

    p = sub.add_parser("ingest", parents=[output], help="score CSV to empirical distributions")
    p.add_argument("csv", help='CSV path with header "score,group"')
    p.set_defaults(func=_cmd_ingest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    # The JSON readers build acyclic trees that reference counting frees: pause the cyclic collector.
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result fails a check or the writer
            result = args.func(args)  # a JSON document, or CSV text
            try:
                text = result if isinstance(result, str) else _json_text(result) + "\n"
            except ValueError:  # allow_nan=False refused a NaN or an infinity
                raise ValueError(f"{next(_non_finite_paths(result))} is not a finite number") from None
            if args.out is None:
                sys.stdout.write(text)
            else:
                Path(args.out).write_text(text, encoding="utf-8")
        return EXIT_OK
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except InfeasibleConstraintsError as exc:
        sys.stderr.write(f"infeasible: {exc}\n")
        return EXIT_INFEASIBLE
    except (OSError, ValueError, RecursionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_IO
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return EXIT_IO
    finally:
        if collecting:
            gc.enable()


def entry() -> None:
    raise SystemExit(main())
