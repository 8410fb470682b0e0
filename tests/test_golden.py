"""Golden bytes: sha256 of sweep CSVs, simulate JSON, seat-expansion CSVs
and ``orderstats`` JSON for fixed seeds.

The digests were taken from the per-trial implementation (one ``run_trial``
per grid cell and trial), so any faster engine must reproduce its output
byte for byte.  The cases cover the benchmark-shaped grid, the C11 config,
beta = 0, alpha = 1 with a target group at least n strong, target group 0,
empirical samples full of ties, negative utilities, constant, zipf and
custom discounts, and a single trial.  The sweep cases for the top-n
candidate engine (one group smaller than n, n = m, betas that can round
two utilities into a tie, ties across a group's n-th candidate, and two
engine blocks plus one trial) were taken from the engine that fully
sorted every row.  The ``orderstats`` digests were
taken from the per-trial order-statistics loop, each trial seeded by its
own ``default_rng``; they cover uniform, lognormal, tie-heavy empirical
and negatively scaled normal utilities, k = 1 with l = m_b, one trial, and
the largest master seed.  Two more were taken from the engine that sorted
every row, before it counted by selection: an empirical sample of -0.0,
0.0 and 1.0 whose ties straddle both the k-th value and the l-th target
value in most trials, and a lognormal whose every draw is infinite.  The
n = 1 and wide-magnitude sweeps and the wide-magnitude ``simulate`` run
were taken from the engine that scored each ranking with its own 1-D
dot, before it scored a block with one stacked ``matmul``.  The
seat-expansion cases with no added seat and with alpha close to 1, and the
three seat-error messages (one from the first of two failing trials in a
block), were taken from the loop that ran one trial at a time, before
``supernumerary_compare`` ran on blocks.  The
digests were taken with numpy 2.4 and its bundled OpenBLAS on x86-64;
another BLAS build may round the discounted sums differently.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from biasrank import (
    DiscountVector,
    Empirical,
    LogNormal,
    Normal,
    SeedSpec,
    ShiftedScaled,
    SupernumeraryConfig,
    TrialConfig,
    Uniform,
    run_sweep,
    supernumerary_compare,
)
from biasrank.cli import main
from biasrank.experiments import supernumerary_csv

TIES_A = Empirical([0.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0])
TIES_B = Empirical([1.0, 1.0, 2.0, 3.0, 3.0])
WIDE_A = Normal(0, 1e12)
WIDE_B = ShiftedScaled(Normal(0, 1), 1e-6, -3.0)
BENCH_ALPHAS = [round(0.05 * i, 2) for i in range(11)]


def trial_config(m_a, m_b, n, discount=None, dist_a=None, dist_b=None, target_group=1):
    return TrialConfig(
        m_a=m_a,
        m_b=m_b,
        n=n,
        beta=1.0,
        alpha=0.0,
        dist_a=dist_a or Uniform(0, 1),
        dist_b=dist_b or Uniform(0, 1),
        discount=discount or DiscountVector.dcg(n),
        target_group=target_group,
    )


# name -> (base config, alphas, betas, trials, master seed)
SWEEPS = {
    "bench-mb250": (trial_config(750, 250, 100), BENCH_ALPHAS, [0.25, 0.5], 30, 7),
    "bench-mb500": (trial_config(500, 500, 100), BENCH_ALPHAS, [0.25, 0.5], 30, 7),
    "beta0": (trial_config(30, 30, 20, DiscountVector.constant(20)), [0.0, 0.3, 0.5], [0.0, 1.0], 40, 11),
    "alpha1": (trial_config(10, 40, 25, DiscountVector.zipf(25)), [0.5, 1.0], [0.3], 25, 12),
    "target0": (
        trial_config(20, 60, 15, DiscountVector.dcg(15, log_base=2.0), target_group=0),
        [0.0, 0.2, 0.6],
        [0.4, 0.9],
        30,
        13,
    ),
    "empirical-ties": (
        trial_config(25, 25, 20, DiscountVector.constant(20), TIES_A, TIES_B),
        [0.0, 0.25, 0.5, 0.75],
        [0.5, 1.0],
        50,
        14,
    ),
    "normal-zipf": (
        trial_config(40, 20, 30, DiscountVector.zipf(30), Normal(0, 1), Normal(0.2, 1.5)),
        [0.1, 0.33, 0.5],
        [0.0, 0.7],
        20,
        15,
    ),
    "custom-discount": (
        trial_config(
            5, 5, 6, DiscountVector([3.0, 2.0, 2.0, 1.0, 0.0, 0.0]),
            LogNormal(0, 0.5), ShiftedScaled(LogNormal(0, 0.5), 0.5, 0.1),
        ),
        [0.0, 0.5, 0.8],
        [0.2, 0.8],
        10,
        16,
    ),
    "one-trial": (trial_config(15, 15, 10, DiscountVector.constant(10)), [0.0, 0.5, 1.0], [0.5], 1, 17),
    # One group smaller than n, so all of it is a candidate for the top n.
    "ma-lt-n-lt-mb": (trial_config(30, 200, 60), [0.0, 0.25, 0.5], [0.4, 0.9], 20, 31),
    "mb-lt-n-lt-ma": (trial_config(200, 30, 60), [0.0, 0.2, 0.5], [0.3, 0.8], 20, 32),
    "ma-lt-n-lt-mb-target0": (trial_config(30, 200, 60, target_group=0), [0.0, 0.5], [0.3, 0.8], 20, 33),
    "n-equals-m": (trial_config(25, 15, 40, DiscountVector.zipf(40)), [0.0, 0.25, 0.375], [0.2, 1.0], 20, 34),
    # Scaling by 0.3 or 0.7 can round two distinct utilities into a tie.
    "uniform-beta-rounding": (trial_config(750, 250, 100), BENCH_ALPHAS, [0.3, 0.7], 30, 35),
    # Few distinct values, so ties straddle every group's n-th candidate.
    "empirical-ties-m200": (
        trial_config(120, 80, 50, DiscountVector.dcg(50), TIES_A, TIES_B), [0.0, 0.3, 0.5], [0.5, 1.0], 40, 36
    ),
    # 2 * 16 + 1 trials: two full blocks and one more trial of the sweep
    # engine's 16-trial blocks, before blocks were sized by BLOCK_ELEMENTS.
    "block-edge": (trial_config(300, 200, 50), [0.0, 0.4], [0.5], 33, 37),
    # One position, so every ranking's utility is a one-term sum.
    "n1": (trial_config(6, 5, 1), [0.0, 1.0], [0.2, 1.0], 40, 38),
    # Utilities of both signs near 1e12 mixed with target utilities near -3
    # that differ by 1e-6, summed over 257 positions.  The CSV's 12 digits
    # hide the last bit of each sum; the simulate case of the same
    # distributions below prints every bit.
    "wide-magnitude": (trial_config(300, 200, 257, dist_a=WIDE_A, dist_b=WIDE_B), [0.0, 0.25, 0.5], [0.5, 1.0], 20, 39),
}

SWEEP_DIGESTS = {
    "bench-mb250": "e30750adeaa212a18f18a326ce6f8855caa748774a93facfed19aca3a079dfa0",
    "bench-mb500": "5d52a8cdd3a8c6c70bddd4b4259414fe7bbfd6206240c5a72ceae7b4dca6944d",
    "beta0": "d8df43e34c7ff31e232a7478b13dd65606f9dd1aa6a7710a48b61f70de0393e3",
    "alpha1": "f875b3c84e7f8dfa05b5d3cecbde7379ef3abcb51b193e6d252110f7aa1415a1",
    "target0": "c7b25374850a8b35b8ff079146e83c80d161f89e0b8ba6e6a52fdfc9e6a87c01",
    "empirical-ties": "25f8c416a142a464597bd6b4b92ecfa0d63b99fc209df5e944bbb22b1f8ddceb",
    "normal-zipf": "42010d4c02eaab183e9b2e40e018289606500bfe58b1f6308f2e17e454449d49",
    "custom-discount": "b0c6348a3660a8a7065bef51e17b13f7a4c82d6ea3c9b962db1cebde344257a3",
    "one-trial": "a34caab0b9d705223d7347f7d6c20ce6d355591f6e885c6301cd240d2f1d3a88",
    "ma-lt-n-lt-mb": "fae3aa874a7f76406df564376f874f81e6e54e75306ad34288e37e7f05349dbf",
    "mb-lt-n-lt-ma": "0fd32620c7de646de2f56c6d338c8164d6a33e4f6a13bf67723597a6561034fe",
    "ma-lt-n-lt-mb-target0": "cb865dd88dd0b04fa19e159589d3a8e7a16b2e9f65db5ae9ce3bcd0b911453ea",
    "n-equals-m": "759a14495aa0770bae91768e0e98805fb5ed4d5926f135ac1d40db2cb35d9512",
    "uniform-beta-rounding": "9b9393336521466f0f180965b642eb0967b6fe39d28e4123418f37f83f313e89",
    "empirical-ties-m200": "2a004fba4babf12b123b57de7c4b51d48d38a34ba7b5c3cbbf3541784fcc5622",
    "block-edge": "d653e39ae51901120947d235f5814869fd40ef7618c049e69b4dff6baa58361b",
    "n1": "f159089632cc40519c455052d6c334802ac0952f79f9e2b72b880c77c0c27a65",
    "wide-magnitude": "4c0f9ae8f8c21c710fe04567df0ade27948beeb94c02549a122eb17fe30a16dd",
}

C11_CONFIG = {
    "m_a": 150,
    "m_b": 50,
    "n": 20,
    "beta": 0.5,
    "alpha": 0.0,
    "alphas": [0.0, 0.1, 0.25],
    "betas": [0.5],
    "trials": 100,
    "dist_a": {"kind": "uniform"},
    "dist_b": {"kind": "uniform"},
    "discount": {"kind": "dcg"},
}
TIES_JSON = {"kind": "empirical", "sample": [0.0, 1.0, 1.0, 2.0, 3.0, 3.0]}

# name -> (subcommand, config JSON, extra argv)
CLI_RUNS = {
    "sweep-c11": ("sweep", C11_CONFIG, ["--seed", "42"]),
    "simulate-dcg": (
        "simulate",
        {
            "m_a": 12, "m_b": 12, "n": 8, "beta": 0.5, "alpha": 0.25,
            "dist_a": {"kind": "uniform"}, "dist_b": {"kind": "uniform"}, "discount": {"kind": "dcg"},
        },
        ["--seed", "3", "--trials", "20"],
    ),
    "simulate-target0-ties": (
        "simulate",
        {
            "m_a": 20, "m_b": 10, "n": 12, "beta": 0.0, "alpha": 0.5, "target_group": 0,
            "dist_a": TIES_JSON, "dist_b": TIES_JSON, "discount": {"kind": "constant"},
        },
        ["--seed", "4", "--trials", "15"],
    ),
    "simulate-alpha1": (
        "simulate",
        {
            "m_a": 5, "m_b": 30, "n": 20, "beta": 0.2, "alpha": 1.0,
            "dist_a": {"kind": "lognormal"}, "dist_b": {"kind": "normal"}, "discount": {"kind": "zipf"},
        },
        ["--seed", "5", "--trials", "5"],
    ),
    "simulate-default-trials": (
        "simulate",
        {
            "m_a": 30, "m_b": 10, "n": 10, "beta": 0.6, "alpha": 0.3,
            "dist_a": {"kind": "uniform"}, "dist_b": {"kind": "uniform"},
        },
        ["--seed", "6"],
    ),
    "simulate-wide-magnitude": (
        "simulate",
        {
            "m_a": 300, "m_b": 200, "n": 257, "beta": 0.5, "alpha": 0.4,
            "dist_a": {"kind": "normal", "sigma": 1e12},
            "dist_b": {"kind": "shifted_scaled", "base": {"kind": "normal"}, "scale": 1e-6, "shift": -3.0},
            "discount": {"kind": "dcg"},
        },
        ["--seed", "8", "--trials", "20"],
    ),
}

CLI_DIGESTS = {
    "sweep-c11": "cccd62154fa9c796098beb7b21351be73af8ff491266d94dae0b216da6472dcf",
    "simulate-dcg": "a56eb6e740c6acceaefacb439f80f84a326da6e1ff2d62291d8291a7b970458e",
    "simulate-target0-ties": "d7398a321227c0262324c1f48fac8d95992874b75040a095f8b249f2f1810f66",
    "simulate-alpha1": "82f6ba24abef66eac84154ffe78a1c8a066fead3629cdadf8a9298909a669b65",
    "simulate-default-trials": "35e25f7aef30c90fd1ff67a504edf88d12b8e619cce07abd0aef7e624b5bda2c",
    "simulate-wide-magnitude": "d3b70f45ee518ee0a46bced0b172b7048432e1ea5a6f5ab362c9593d4e4a659d",
}


# name -> (distribution JSON or None for the default uniform, argv)
ORDERSTATS_RUNS = {
    "uniform-default": (None, ["--k", "10", "--l", "2", "--ma", "50", "--mb", "50"]),
    "lognormal": (
        {"kind": "lognormal", "mu": 0.5, "sigma": 2.0},
        ["--k", "5", "--l", "3", "--ma", "30", "--mb", "40", "--trials", "2000", "--seed", "9"],
    ),
    "empirical-ties": (
        {"kind": "empirical", "sample": [0.0, 1.0, 1.0, 1.0, 2.0, 3.0, 3.0]},
        ["--k", "6", "--l", "4", "--ma", "12", "--mb", "15", "--trials", "1500", "--seed", "10"],
    ),
    "shifted-normal": (
        {"kind": "shifted_scaled", "base": {"kind": "normal", "mu": 1.0, "sigma": 0.5}, "scale": -3.0, "shift": 2.0},
        ["--k", "7", "--l", "5", "--ma", "20", "--mb", "9", "--trials", "1500", "--seed", "11"],
    ),
    "k1-last-target": (None, ["--k", "1", "--l", "20", "--ma", "25", "--mb", "20", "--trials", "1000", "--seed", "12"]),
    "one-trial": (None, ["--k", "3", "--l", "1", "--ma", "8", "--mb", "6", "--trials", "1", "--seed", "13"]),
    "max-seed": (
        None,
        ["--k", "10", "--l", "2", "--ma", "50", "--mb", "50", "--trials", "1000", "--seed", str(2**64 - 1)],
    ),
    "empirical-signed-zero": (
        {"kind": "empirical", "sample": [-0.0, 0.0, 0.0, 1.0]},
        ["--k", "5", "--l", "5", "--ma", "12", "--mb", "14", "--trials", "1500", "--seed", "14"],
    ),
    "lognormal-all-inf": (
        {"kind": "lognormal", "mu": 800.0, "sigma": 1.0},
        ["--k", "4", "--l", "3", "--ma", "10", "--mb", "12", "--trials", "300", "--seed", "15"],
    ),
}

ORDERSTATS_DIGESTS = {
    "uniform-default": "22558a1c1b1bee71697fcb7f6687ff960a8f34ad91b4fef2d15f034d4ee26864",
    "lognormal": "9c486b3ce9aca70514888a582fa5a1369c528bbb002e204cc096dfc50b6fdea3",
    "empirical-ties": "e08f05f94f06729d29ebf85d800374f2e1524ef9c4aa4431ef5aebb46ee6d888",
    "shifted-normal": "6474a6111e1fcc8be11fdc537a57e57fdaee7733351da562e4c53a9832c56e65",
    "k1-last-target": "462df63c66c67bcfeff441fe476183d8618cb9aeaaa1fe2b44dc4844514252ab",
    "one-trial": "9cf84e4663b81208cf8079efaab4872494b2d7638852f3b4cf52f803b919fb42",
    "max-seed": "379500b33e665cfaf86f45e30083b899ae8795c4fd5be6380b454ee2f59b7712",
    "empirical-signed-zero": "664df6bf08fc70c4c6cd0ced99686772237476441b1a6d8693c938fed410882f",
    "lognormal-all-inf": "771216575a8b522155185ecb65e6e43bd691941979c9c18d794122d0a3f67d53",
}


def sup_config(**kw):
    base = dict(
        n=10, m_a=20, m_b=8, alpha=0.2, gamma=1.05,
        dist_a=Uniform(0, 100), dist_b=Uniform(0, 100), score_offset=10.0,
    )
    base.update(kw)
    return SupernumeraryConfig(**base)


# name -> (configs, one per alpha, trials, master seed)
SUPERNUMERARY = {
    "constant": ([sup_config(alpha=a) for a in (0.0, 0.2, 0.4)], 40, 21),
    "dcg-shifted": (
        [
            sup_config(
                n=20, m_a=60, m_b=60, alpha=a, gamma=3.0, dist_a=Uniform(0, 100), dist_b=Uniform(0, 40),
                score_offset=0.0, discount_kind="dcg",
            )
            for a in (0.35, 0.5)
        ],
        30,
        22,
    ),
    "zipf-ties": (
        [sup_config(n=12, m_a=20, m_b=20, alpha=0.45, gamma=1.6, dist_a=TIES_A, dist_b=TIES_B, discount_kind="zipf")],
        25,
        23,
    ),
    # The seat equation adds no seat in any trial.
    "x0": (
        [
            sup_config(
                n=20, m_a=40, m_b=30, alpha=a, gamma=1.3, dist_a=Normal(30.0, 50.0), dist_b=Normal(20.0, 40.0),
                discount_kind="dcg",
            )
            for a in (0.0, 0.1)
        ],
        40,
        24,
    ),
    # alpha close to 1: from 0 to hundreds of added seats, many seat counts
    # per block, over more than one block.
    "alpha-near-1": ([sup_config(n=5, m_a=20, m_b=400, alpha=a, gamma=1.5, discount_kind="dcg") for a in (0.95, 0.99)], 130, 25),
}

SUPERNUMERARY_DIGESTS = {
    "constant": "04fd3b64e3ebd241627ba5e9a0cdb1c63c4d6e64d4846d55572662024f3685b9",
    "dcg-shifted": "78d16621677fda0b8d658844efdc3e7178670716bab8b9ad17eb0e72f83c1d1a",
    "zipf-ties": "429183954fba1ba1048417a89a164707b92fda1875cf5e7faaa569e05166a7a4",
    "x0": "053605c46366f69a599814483cb6a8876f86728eb5f56d5ba9353434ca68ca11",
    "alpha-near-1": "cc4d21f55b567d5b1f6cb90f0de613e919af8a0e347bd08304619491978c0f19",
}

# name -> (config, trials, master seed, the error message)
SUPERNUMERARY_ERRORS = {
    "seats-exceed-candidates": (sup_config(n=10, m_a=5, m_b=10, alpha=0.9), 5, 26, "50 seats but only 15 candidates"),
    "reserved-exceed-targets": (
        sup_config(n=10, m_a=100, m_b=5, alpha=0.5), 5, 27, "10 reserved seats but only 5 target candidates"
    ),
    # Trial 1 has too many reserved seats; trial 3, in the same block, too
    # many seats, the check that comes first within a trial.
    "first-failing-trial": (
        sup_config(n=10, m_a=8, m_b=6, alpha=0.5, gamma=1.2, dist_b=Uniform(0, 70), discount_kind="dcg"),
        8,
        30,
        "7 reserved seats but only 6 target candidates",
    ),
}


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def sweep_csv(name: str) -> str:
    base, alphas, betas, trials, seed = SWEEPS[name]
    return run_sweep(base, alphas, betas, trials, SeedSpec(seed)).to_csv()


def cli_output(name: str, tmp_path) -> bytes:
    command, config, extra = CLI_RUNS[name]
    cfg, out = tmp_path / "config.json", tmp_path / "out"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    assert main([command, str(cfg), "--out", str(out), *extra]) == 0
    return out.read_bytes()


def orderstats_output(name: str, tmp_path) -> bytes:
    dist, argv = ORDERSTATS_RUNS[name]
    out = tmp_path / "out"
    extra = []
    if dist is not None:
        path = tmp_path / "dist.json"
        path.write_text(json.dumps(dist), encoding="utf-8")
        extra = ["--dist", str(path)]
    assert main(["orderstats", *argv, *extra, "--out", str(out)]) == 0
    return out.read_bytes()


def supernumerary_output(name: str) -> str:
    configs, trials, seed = SUPERNUMERARY[name]
    return supernumerary_csv([supernumerary_compare(c, trials, SeedSpec(seed)) for c in configs])


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_csv_bytes(name):
    assert sha256(sweep_csv(name)) == SWEEP_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_output_bytes(name, tmp_path):
    assert sha256(cli_output(name, tmp_path)) == CLI_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SUPERNUMERARY))
def test_supernumerary_csv_bytes(name):
    assert sha256(supernumerary_output(name)) == SUPERNUMERARY_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SUPERNUMERARY_ERRORS))
def test_supernumerary_error_message(name):
    config, trials, seed, message = SUPERNUMERARY_ERRORS[name]
    with pytest.raises(ValueError) as exc:
        supernumerary_compare(config, trials, SeedSpec(seed))
    assert str(exc.value) == message


@pytest.mark.parametrize("name", sorted(ORDERSTATS_RUNS))
def test_orderstats_json_bytes(name, tmp_path):
    assert sha256(orderstats_output(name, tmp_path)) == ORDERSTATS_DIGESTS[name]
