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
    LrSchedule,
    local_update_sgd,
    local_update_tail_avg_sgd,
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


def sgd(gamma):
    rng = np.random.default_rng(1)
    x, y = PARTITION.device_features, PARTITION.device_labels
    return local_update_sgd(TASK, x, SELECTED, y, rng, np.zeros(3), gamma, 5, 4)


def tail_avg_sgd(gamma):
    rng = np.random.default_rng(1)
    x, y = PARTITION.device_features, PARTITION.device_labels
    return local_update_tail_avg_sgd(x, SELECTED, y, rng, np.zeros(3), gamma, 8)


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


COUNT_SITES = {
    "sample_devices.total": (
        lambda v: sample_devices(v, 1, np.random.default_rng(0)),
        "total must be a positive integer",
        (0, -1),
    ),
    "realize.devices": (
        lambda v: realize(CorruptionSpec("omniscient", 0.25, seed=1), v),
        "devices must be a positive integer",
        (0, -1),
    ),
    "realize.devices under kind none": (
        lambda v: realize(CorruptionSpec(), v),
        "devices must be a positive integer",
        (0, -1),
    ),
    "CorruptionSpec.seed": (
        lambda v: CorruptionSpec("omniscient", 0.25, seed=v),
        "seed must be a nonnegative integer",
        (-1,),
    ),
    "CorruptionSpec.seed under kind none": (
        lambda v: CorruptionSpec(seed=v),
        "seed must be a nonnegative integer",
        (-1,),
    ),
}
# None is no count, but an unset seed is None; 10.0 and 2.5 are floats.
NOT_COUNT = (True, "3", math.nan, math.inf, 10.0, 2.5)


@pytest.mark.parametrize(
    "site, value",
    [
        (site, value)
        for site, (_, _, outside) in COUNT_SITES.items()
        for value in NOT_COUNT + outside + (() if "seed" in site else (None,))
    ],
)
def test_each_count_gap_follows_the_count_rule(site, value):
    # Unchecked, sample_devices(True, 1, rng) returned [0], realize raised
    # ZeroDivisionError at 0 devices and TypeError at 10.0, and a seed of -1 or
    # 2.5 was accepted until realize ran, and never under kind "none".
    call, message, _ = COUNT_SITES[site]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


def test_each_count_gap_takes_numpy_integers_as_ints():
    rng, replay = np.random.default_rng(0), np.random.default_rng(0)
    assert np.array_equal(sample_devices(np.uint8(10), 3, rng), sample_devices(10, 3, replay))
    spec = CorruptionSpec("omniscient", 0.25, seed=np.uint8(3))
    assert type(spec.seed) is int and spec.seed == 3
    assert CorruptionSpec("omniscient", 0.25).seed is None
    assert np.array_equal(realize(spec, np.uint8(10)), realize(spec, 10))
