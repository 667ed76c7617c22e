"""Every scalar input rule of the library, in one table per rule.

Each real-valued input goes through ``secure_avg._real`` and each count
through ``secure_avg._count``. A site below is one call that takes the
input. A spec stores what the rule returns; a function uses it, so its
output must be the one its Python float (or int) gives.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from fedgm.corruption import CorruptionSpec, realize
from fedgm.fl_core import (
    AggregatorSpec,
    LocalSGD,
    LrSchedule,
    RoundConfig,
    TailAveragedSGD,
    local_update_sgd,
    local_update_tail_avg_sgd,
    run_federated,
    sample_devices,
)
from fedgm.geomed import WeightedPointSet, smoothed_weiszfeld
from fedgm.tasks import generate_ls_task

TASK, PARTITION = generate_ls_task(3, 10, 20, 0.1, seed=0, test_samples=50)
SELECTED = np.array([1, 4, 7])
POINTS = WeightedPointSet(np.random.default_rng(0).standard_normal((6, 3)), np.ones(6))

BELOW_ZERO = -math.ulp(0.0)
ABOVE_ONE = math.nextafter(1.0, 2.0)
# None of these is a finite real: a bool, a str, None, NaN and the two infinities.
NOT_REAL = (True, "0.1", None, math.nan, math.inf, -math.inf)
RATE_RULE = "need finite gamma0 >= 0 and decay in (0, 1]"


def sgd(gamma, batch_size=5, steps=4):
    rng = np.random.default_rng(1)
    x, y = PARTITION.device_features, PARTITION.device_labels
    return local_update_sgd(TASK, x, SELECTED, y, rng, np.zeros(3), gamma, batch_size, steps)


def tail_avg_sgd(gamma, steps=8):
    rng = np.random.default_rng(1)
    x, y = PARTITION.device_features, PARTITION.device_labels
    return local_update_tail_avg_sgd(x, SELECTED, y, rng, np.zeros(3), gamma, steps)


def solve(**kwargs):
    return smoothed_weiszfeld(POINTS, budget=5, **kwargs).z


# Site: (call, its message, values just outside its interval, an int inside
# it, and the field the call stores, or None where the call uses the value).
# A float32 just outside is in the table because compared as a float32, 0 is
# at least the least subnormal and 1 is at most the float just below 1.
REAL_SITES = {
    "LrSchedule.gamma0": (LrSchedule, RATE_RULE, (BELOW_ZERO,), 2, "gamma0"),
    "LrSchedule.decay": (
        lambda v: LrSchedule(1.0, v),
        RATE_RULE,
        (0.0, np.float32(0.0), ABOVE_ONE),
        1,
        "decay",
    ),
    "AggregatorSpec.rel_tol": (
        lambda v: AggregatorSpec("rfa", rel_tol=v),
        "rel_tol must be finite and nonnegative",
        (BELOW_ZERO,),
        0,
        "rel_tol",
    ),
    "smoothed_weiszfeld.rel_tol": (
        lambda v: solve(rel_tol=v),
        "rel_tol must be finite and nonnegative",
        (BELOW_ZERO,),
        0,
        None,
    ),
    "smoothed_weiszfeld.nu": (
        lambda v: solve(nu=v),
        "nu must be finite and positive",
        (0.0, np.float32(0.0), BELOW_ZERO),
        1,
        None,
    ),
    "local_update_sgd.gamma": (
        sgd, "gamma must be finite and nonnegative", (BELOW_ZERO,), 1, None
    ),
    "local_update_tail_avg_sgd.gamma": (
        tail_avg_sgd, "gamma must be finite and nonnegative", (BELOW_ZERO,), 1, None
    ),
    "generate_ls_task.noise_std": (
        lambda v: generate_ls_task(2, 4, 3, v)[0].train_labels,
        "noise_std must be finite and nonnegative",
        (BELOW_ZERO,),
        1,
        None,
    ),
    "CorruptionSpec.rho": (
        lambda v: CorruptionSpec("omniscient", v),
        "rho must lie in [0, 1)",
        (BELOW_ZERO, 1.0, np.float32(1.0)),
        0,
        "rho",
    ),
}


@pytest.mark.parametrize(
    "site, value",
    [(site, value) for site, row in REAL_SITES.items() for value in NOT_REAL + row[2]],
)
def test_each_real_site_rejects_what_is_not_a_real_in_its_interval(site, value):
    # Before the one rule, a bool, a str and None passed or raised TypeError at
    # each site: LrSchedule(True) stored True, and gamma="0.1" ran SGD.
    call, message = REAL_SITES[site][:2]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("site", REAL_SITES)
def test_each_real_site_takes_an_int_and_numpy_floats_as_python_floats(site):
    # A float32 gamma0 was stored as itself, and its schedule's rates were float32.
    call, _, _, integer, field = REAL_SITES[site]
    for value in (integer, np.float32(0.1), np.float64(0.1)):
        got = call(value)
        if field is None:
            assert np.asarray(got).tobytes() == np.asarray(call(float(value))).tobytes()
        else:
            assert type(getattr(got, field)) is float and getattr(got, field) == float(value)


def ls_task(**sizes):
    """The test rows of a small task, with ``sizes`` in place of its defaults."""
    args = {"d": 2, "devices": 4, "samples_per_device": 3, "seed": 0, "test_samples": 5}
    return generate_ls_task(noise_std=0.1, **{**args, **sizes})[0].test_features


def run(**kwargs):
    config = RoundConfig(3, LocalSGD(5), LrSchedule(0.1))
    args = {"rounds": 2, "seed": 0, **kwargs}
    traces = run_federated(TASK, PARTITION, CorruptionSpec(), config, **args)
    return np.array([trace.csv_row() for trace in traces])


# Site: (call, its message, the nearest integers outside its interval, an int
# inside it, and the field the call stores, or None where the call uses the
# value). PARTITION has 10 devices of 20 rows, and sample_devices' total is 10.
COUNT_SITES = {
    "LrSchedule.decay_every": (
        lambda v: LrSchedule(1.0, 0.5, v),
        "decay_every must be an integer >= 1",
        (0,),
        3,
        "decay_every",
    ),
    "LrSchedule.gamma_at": (
        lambda v: np.float64(LrSchedule(1.0, 0.5, 2).gamma_at(v)),
        "round t must be a nonnegative integer",
        (-1,),
        5,
        None,
    ),
    "LocalSGD.batch_size": (
        LocalSGD, "batch_size and epochs must be integers >= 1", (0,), 5, "batch_size"
    ),
    "LocalSGD.epochs": (
        lambda v: LocalSGD(5, v), "batch_size and epochs must be integers >= 1", (0,), 2, "epochs"
    ),
    "TailAveragedSGD.steps": (
        TailAveragedSGD, "steps must be an integer >= 2", (1,), 4, "steps"
    ),
    "TailAveragedSGD.steps_at": (
        lambda v: np.int64(TailAveragedSGD(2, "doubling").steps_at(v)),
        "round t must be a nonnegative integer",
        (-1,),
        5,
        None,
    ),
    "AggregatorSpec.budget": (
        lambda v: AggregatorSpec("rfa", v),
        "need integer budget and groups >= 1",
        (0,),
        3,
        "budget",
    ),
    "AggregatorSpec.groups": (
        lambda v: AggregatorSpec("rfa", groups=v),
        "need integer budget and groups >= 1",
        (0,),
        3,
        "groups",
    ),
    "RoundConfig.devices_per_round": (
        lambda v: RoundConfig(v, LocalSGD(5), LrSchedule(0.1)),
        "devices_per_round must be an integer >= 1",
        (0,),
        3,
        "devices_per_round",
    ),
    "CorruptionSpec.seed": (
        lambda v: CorruptionSpec("omniscient", 0.25, seed=v),
        "seed must be a nonnegative integer",
        (-1,),
        3,
        "seed",
    ),
    "CorruptionSpec.seed under kind none": (
        lambda v: CorruptionSpec(seed=v), "seed must be a nonnegative integer", (-1,), 3, "seed"
    ),
    "sample_devices.total": (
        lambda v: sample_devices(v, 3, np.random.default_rng(0)),
        "total must be a positive integer",
        (0, -1),
        10,
        None,
    ),
    "sample_devices.per_round": (
        lambda v: sample_devices(10, v, np.random.default_rng(0)),
        "per_round must be an integer in [1, total]",
        (0, 11),
        3,
        None,
    ),
    "local_update_sgd.batch_size": (
        lambda v: sgd(0.1, batch_size=v),
        "batch_size must be an integer in [1, n]",
        (0, 21),
        5,
        None,
    ),
    "local_update_sgd.steps": (
        lambda v: sgd(0.1, steps=v), "steps must be a positive integer", (0,), 4, None
    ),
    "local_update_tail_avg_sgd.steps": (
        lambda v: tail_avg_sgd(0.1, steps=v), "steps must be an integer >= 2", (1,), 8, None
    ),
    "run_federated.rounds": (
        lambda v: run(rounds=v), "rounds must be a nonnegative integer", (-1,), 2, None
    ),
    "run_federated.seed": (
        lambda v: run(seed=v), "seed must be a nonnegative integer", (-1,), 3, None
    ),
    "smoothed_weiszfeld.budget": (
        lambda v: smoothed_weiszfeld(POINTS, budget=v).z,
        "budget must be an integer >= 1",
        (0,),
        5,
        None,
    ),
    "realize.devices": (
        lambda v: realize(CorruptionSpec("omniscient", 0.25, seed=1), v),
        "devices must be a positive integer",
        (0, -1),
        10,
        None,
    ),
    "realize.devices under kind none": (
        lambda v: realize(CorruptionSpec(), v),
        "devices must be a positive integer",
        (0, -1),
        10,
        None,
    ),
    "realize.fallback_seed": (
        lambda v: realize(CorruptionSpec("omniscient", 0.25), 10, fallback_seed=v),
        "seed must be a nonnegative integer",
        (-1,),
        3,
        None,
    ),
    "realize.fallback_seed under kind none": (
        lambda v: realize(CorruptionSpec(), 10, fallback_seed=v),
        "seed must be a nonnegative integer",
        (-1,),
        3,
        None,
    ),
    **{
        f"generate_ls_task.{name}": (
            lambda v, name=name: ls_task(**{name: v}),
            "d, devices, samples_per_device and test_samples must be positive integers",
            (0,),
            2,
            None,
        )
        for name in ("d", "devices", "samples_per_device", "test_samples")
    },
    "generate_ls_task.seed": (
        lambda v: ls_task(seed=v), "seed must be a nonnegative integer", (-1,), 3, None
    ),
}
# A spec's unset seed is None, so None passes there; 10.0 and 2.5 are floats.
NOT_COUNT = (True, "3", math.nan, math.inf, 10.0, 2.5)
UNSET_IS_NONE = ("CorruptionSpec.seed", "CorruptionSpec.seed under kind none")


@pytest.mark.parametrize(
    "site, value",
    [
        (site, value)
        for site, row in COUNT_SITES.items()
        for value in NOT_COUNT + row[2] + (() if site in UNSET_IS_NONE else (None,))
    ],
)
def test_each_count_site_rejects_what_is_not_a_count_in_its_interval(site, value):
    # Unchecked, sample_devices(True, 1, rng) returned [0], realize raised
    # ZeroDivisionError at 0 devices and TypeError at 10.0, a seed of -1 or
    # 2.5 was accepted until realize ran, and never under kind "none", and
    # realize's fallback seed was checked only under an attack kind.
    call, message = COUNT_SITES[site][:2]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("site", COUNT_SITES)
def test_each_count_site_takes_numpy_integers_as_ints(site):
    call, _, _, integer, field = COUNT_SITES[site]
    for value in (np.uint8(integer), np.int64(integer)):
        got = call(value)
        if field is None:
            assert got.tobytes() == call(integer).tobytes()
        else:
            assert type(getattr(got, field)) is int and getattr(got, field) == integer


def test_an_unset_corruption_seed_stays_none():
    assert CorruptionSpec("omniscient", 0.25).seed is None
    assert CorruptionSpec().seed is None
