"""The paper's headline claim, checked over a grid of corruption levels.

Robust aggregation is meant to be agnostic to the level of corruption: it
should beat the mean when corruption is high and stay competitive when it
is low (Pillutla, Kakade and Harchaoui, arXiv 1912.13445). The grid runs
the default config for 100 rounds at seeds 0-2, through the same config
path as ``fedgm simulate``: the three attack kinds at rho 0.25 and 0.4,
plus the clean run at rho 0, each under ``mean`` and ``rfa``, 42 runs in
all. A cell's ratio is the median over seeds of its final train loss
divided by the clean ``mean`` run's at the same seed.

Measured at ``gamma0`` 18 (the default) and 9, every bound holds at both:
rfa's ratio is at most 1.11 and 1.09, and ``mean``'s under omniscient
rho >= 0.25 is 17.0-18.8. README's grid table gives all five seeds and
``median_of_means`` too.
"""

from __future__ import annotations

import statistics

import pytest

from fedgm.cli import merge_config, run_one_seed, validate_config

SEEDS = (0, 1, 2)
KINDS = ("static_data", "adaptive_data", "omniscient")
CELLS = [("none", 0.0)] + [(kind, rho) for kind in KINDS for rho in (0.25, 0.4)]


def _final_train_loss(kind: str, rho: float, aggregator: str, seed: int) -> float:
    config = merge_config(
        {"corruption": {"kind": kind, "rho": rho}, "algorithm": {"aggregator": aggregator}}
    )
    traces, _ = run_one_seed(validate_config(config), seed)
    return traces[-1].train_loss


@pytest.fixture(scope="module")
def ratios() -> dict:
    """(kind, rho, aggregator) -> the median ratio to the clean mean run."""
    runs = [(kind, rho, aggregator) for kind, rho in CELLS for aggregator in ("mean", "rfa")]
    final = {(*run, seed): _final_train_loss(*run, seed) for run in runs for seed in SEEDS}
    clean = {seed: final[("none", 0.0, "mean", seed)] for seed in SEEDS}
    return {run: statistics.median(final[(*run, s)] / clean[s] for s in SEEDS) for run in runs}


def test_rfa_stays_near_the_clean_mean_at_every_level(ratios):
    rfa = {cell: ratios[(*cell, "rfa")] for cell in CELLS}
    assert all(ratio <= 1.3 for ratio in rfa.values()), rfa


def test_rfa_is_no_worse_than_the_mean_under_heavy_corruption(ratios):
    pairs = {
        (kind, rho): (ratios[(kind, rho, "rfa")], ratios[(kind, rho, "mean")])
        for kind, rho in CELLS
        if rho >= 0.25
    }
    assert all(rfa <= mean for rfa, mean in pairs.values()), pairs


def test_the_omniscient_attack_breaks_the_mean(ratios):
    means = {rho: ratios[("omniscient", rho, "mean")] for rho in (0.25, 0.4)}
    assert all(ratio >= 10.0 for ratio in means.values()), means
