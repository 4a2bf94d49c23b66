"""Qualitative 1-5 scorecard comparing factorization methods.

Each metric maps a raw measurement onto a five-level rubric.  The top
level of a numeric rubric requires strictly exceeding its cut; interior
cuts include their lower bound.  A raw value sitting exactly on the top
cut therefore lands one level below, while one sitting on an interior
cut belongs to the level whose range starts there.
"""

from __future__ import annotations

import time

import numpy as np

from . import explore
from .costs import (applicable_methods, compression_ratio, cost_original,
                    default_input_shape, default_plan)
from .decompose import decompose_layer
from .errors import RankError
from .ir import LayerDesc

FLEXIBILITY_CLASSES = {
    "t3f": "shape_and_ranks",
    "tucker2": "per_dim_ranks",
    "tt": "multiple_ranks",
    "cp": "fixed_rank",
    "svd": "rigid",
    "qr": "rigid",
}

_FLEXIBILITY_LEVELS = {
    "shape_and_ranks": 5,
    "per_dim_ranks": 4,
    "multiple_ranks": 3,
    "fixed_rank": 2,
    "rigid": 1,
}


def _descending(raw, cuts, levels, floor, top_strict=True):
    """Level for a higher-is-better raw value; cuts are lower bounds.

    The highest cut is exclusive when ``top_strict``: the top level is
    reserved for values strictly beyond it.
    """
    for i, (cut, level) in enumerate(zip(cuts, levels)):
        if raw > cut or (raw == cut and not (top_strict and i == 0)):
            return level
    return floor


def level_rank_configurations(raw: float) -> int:
    # "5 or more" independent ranks earns the top level outright
    return _descending(raw, (5, 4, 2, 1), (5, 4, 3, 2), 1, top_strict=False)


def level_best_reduction(raw: float) -> int:
    """Best achievable reduction, percent of the original count."""
    return _descending(raw, (98, 94, 90, 80), (5, 4, 3, 2), 1)


def level_worst_reduction(raw: float) -> int:
    """Smallest reduction still on offer, percent of the original."""
    return _descending(raw, (20, 10, 6, 2), (5, 4, 3, 2), 1)


def level_best_memory(raw: float) -> int:
    """Best overall-memory improvement, percent; <= 0 means increase."""
    if raw <= 0:
        return 1
    return _descending(raw, (90, 60, 30), (5, 4, 3), 2)


def level_worst_memory(raw: float) -> int:
    """Worst-case overall-memory increase, percent; <= 0 means none."""
    if raw <= 0:
        return 5
    if raw > 150:
        return 1
    if raw > 75:
        return 2
    if raw >= 25:
        return 3
    return 4


def level_space_size(raw: float) -> int:
    return _descending(raw, (10**6, 10**4, 10**3, 10**2), (5, 4, 3, 2), 1)


def level_coverage(raw: float) -> int:
    """Spread between best and worst reduction, percentage points."""
    return _descending(raw, (98, 93, 85, 70), (5, 4, 3, 2), 1)


def level_flexibility(raw: str) -> int:
    try:
        return _FLEXIBILITY_LEVELS[raw]
    except KeyError:
        raise RankError(f"unknown flexibility class {raw!r}") from None


def level_decomposition_time(raw: float) -> int:
    """Seconds to factorize one weight tensor."""
    if raw > 300:
        return 1
    if raw >= 60:
        return 2
    if raw >= 30:
        return 3
    if raw >= 5:
        return 4
    return 5


METRIC_LEVELS = {
    "rank_configurations": level_rank_configurations,
    "best_param_reduction": level_best_reduction,
    "worst_param_reduction": level_worst_reduction,
    "best_flops_reduction": level_best_reduction,
    "worst_flops_reduction": level_worst_reduction,
    "best_memory_improvement": level_best_memory,
    "worst_memory_increase": level_worst_memory,
    "exploration_space": level_space_size,
    "param_coverage": level_coverage,
    "flops_coverage": level_coverage,
    "flexibility": level_flexibility,
    "decomposition_time": level_decomposition_time,
}


def qualitative_score(measurements: dict) -> dict:
    """Levels for raw measurements; keys must match METRIC_LEVELS."""
    out = {}
    for name, raw in measurements.items():
        try:
            fn = METRIC_LEVELS[name]
        except KeyError:
            raise RankError(f"unknown metric {name!r}") from None
        out[name] = {"raw": raw, "level": fn(raw)}
    return out


def rank_slot_count(layer: LayerDesc, method: str) -> int:
    """Independently tunable rank choices the method exposes.

    These are the slots of the rank box of the deepest plan (the last
    of ``t3f_plans``), plus the choice of plan when there are several.
    """
    plans = explore.t3f_plans(layer) if method == "t3f" else [None]
    deepest = plans[-1] if plans else default_plan(layer, method)  # RankError
    slots = len(explore.rank_bounds(layer, method, deepest))
    return slots + (1 if len(plans) > 1 else 0)


def _representative_ranks(layer: LayerDesc, method: str):
    """Midpoint of every rank bound; used to time one decomposition."""
    plan = default_plan(layer, method)
    bounds = explore.rank_bounds(layer, method, plan)
    ranks = tuple((lo + hi) // 2 or lo for lo, hi in bounds)
    return ranks, plan


def measure_method(layer: LayerDesc, method: str, input_shape=None,
                   seed: int = 0, time_decomposition: bool = True) -> dict:
    """Raw scorecard measurements of one method on one layer."""
    if input_shape is None:
        input_shape = default_input_shape(layer)
    original = cost_original(layer, input_shape)
    spans = explore.valid_extremes(layer, method, input_shape)

    def reduction(metric, value):
        return 100.0 * compression_ratio(original.get(metric), value)

    best_p = reduction("params", spans["params"][0])
    worst_p = reduction("params", spans["params"][1])
    best_f = reduction("flops", spans["flops"][0])
    worst_f = reduction("flops", spans["flops"][1])
    raw = {
        "rank_configurations": rank_slot_count(layer, method),
        "best_param_reduction": best_p,
        "worst_param_reduction": worst_p,
        "best_flops_reduction": best_f,
        "worst_flops_reduction": worst_f,
        "best_memory_improvement":
            reduction("overall_mem", spans["overall_mem"][0]),
        "worst_memory_increase":
            -reduction("overall_mem", spans["overall_mem"][1]),
        "exploration_space": spans["valid_count"],
        "param_coverage": best_p - worst_p,
        "flops_coverage": best_f - worst_f,
        "flexibility": FLEXIBILITY_CLASSES[method],
    }
    if time_decomposition:
        ranks, plan = _representative_ranks(layer, method)
        rng = np.random.default_rng(seed)
        weight = rng.standard_normal(layer.weight_shape()).astype(np.float32)
        start = time.perf_counter()
        decompose_layer(layer, weight, method, ranks, plan=plan, seed=seed)
        raw["decomposition_time"] = time.perf_counter() - start
    return raw


def method_table(layer: LayerDesc, methods=None, input_shape=None,
                 seed: int = 0, time_decomposition: bool = True) -> dict:
    """Scorecards for every applicable method on one layer."""
    if methods is None:
        methods = applicable_methods(layer)
    out = {}
    for method in methods:
        raw = measure_method(layer, method, input_shape, seed,
                             time_decomposition)
        out[method] = qualitative_score(raw)
    return out
