"""Qualitative 1-5 scorecard comparing factorization methods.

The flexibility class maps to its level by name.  Every numeric metric
has one ``RUBRICS`` entry, the one statement of its boundary rules: each
rung says whether a raw exactly on its cut reaches it, and the rules
differ between metrics and rungs.  A numeric raw must be a finite real.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import explore
from .costs import (applicable_methods, check_real, compression_ratio,
                    cost_original, default_input_shape, default_plan,
                    rank_bounds, t3f_plans)
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

_FLEXIBILITY_LEVELS = {"shape_and_ranks": 5, "per_dim_ranks": 4,
                       "multiple_ranks": 3, "fixed_rank": 2, "rigid": 1}

# metric: (higher raw is better, rungs from best to worst as (cut, level,
# whether a raw exactly on the cut reaches the rung), floor level)
_REDUCTION_BEST = (True, ((98, 5, False), (94, 4, True), (90, 3, True),
                          (80, 2, True)), 1)
_REDUCTION_WORST = (True, ((20, 5, False), (10, 4, True), (6, 3, True),
                           (2, 2, True)), 1)
_COVERAGE = (True, ((98, 5, False), (93, 4, True), (85, 3, True),
                    (70, 2, True)), 1)
RUBRICS = {
    # independent rank choices; "5 or more" earns the top level
    "rank_configurations": (True, ((5, 5, True), (4, 4, True), (2, 3, True),
                                   (1, 2, True)), 1),
    # reductions, percent of the original count
    "best_param_reduction": _REDUCTION_BEST,
    "worst_param_reduction": _REDUCTION_WORST,
    "best_flops_reduction": _REDUCTION_BEST,
    "worst_flops_reduction": _REDUCTION_WORST,
    # overall-memory improvement and increase, percent; <= 0 means none
    "best_memory_improvement": (True, ((90, 5, False), (60, 4, True),
                                       (30, 3, True), (0, 2, False)), 1),
    "worst_memory_increase": (False, ((0, 5, True), (25, 4, False),
                                      (75, 3, True), (150, 2, True)), 1),
    # valid rank points
    "exploration_space": (True, ((10**6, 5, False), (10**4, 4, True),
                                 (10**3, 3, True), (10**2, 2, True)), 1),
    # spread between best and worst reduction, percentage points
    "param_coverage": _COVERAGE,
    "flops_coverage": _COVERAGE,
    # seconds to factorize one weight tensor
    "decomposition_time": (False, ((5, 5, False), (30, 4, False),
                                   (60, 3, False), (300, 2, True)), 1),
}


def _level(name: str, raw) -> int:
    """Level of one raw measurement under its metric's rubric."""
    if name == "flexibility":
        try:
            return _FLEXIBILITY_LEVELS[raw]
        except KeyError:
            raise RankError(f"unknown flexibility class {raw!r}") from None
    try:
        higher, rungs, floor = RUBRICS[name]
    except KeyError:
        raise RankError(f"unknown metric {name!r}") from None
    # a comparison, not math.isfinite: that overflows on an int past 1e308
    if not -math.inf < check_real(raw, name) < math.inf:
        raise RankError(f"{name} must be finite, got {raw!r}")
    for cut, level, on_cut in rungs:
        if (raw > cut if higher else raw < cut) or (on_cut and raw == cut):
            return level
    return floor


def qualitative_score(measurements: dict) -> dict:
    """Levels for raw measurements keyed by ``RUBRICS`` names or
    ``flexibility``; RankError for another name, or for a numeric raw
    that is a bool or not a finite real number."""
    return {name: {"raw": raw, "level": _level(name, raw)}
            for name, raw in measurements.items()}


def rank_slot_count(layer: LayerDesc, method: str) -> int:
    """Independently tunable rank choices the method exposes.

    These are the slots of the rank box of the deepest plan (the last
    of ``t3f_plans``), plus the choice of plan when there are several;
    none for t3f on a layer with no plan.
    """
    plans = t3f_plans(layer) if method == "t3f" else [None]
    if not plans:
        return 0
    slots = len(rank_bounds(layer, method, plans[-1]))
    return slots + (1 if len(plans) > 1 else 0)


def _representative_ranks(layer: LayerDesc, method: str):
    """Midpoint of every rank bound; used to time one decomposition."""
    plan = default_plan(layer, method)
    bounds = rank_bounds(layer, method, plan)
    ranks = tuple((lo + hi) // 2 for lo, hi in bounds)
    return ranks, plan


def measure_method(layer: LayerDesc, method: str, input_shape=None,
                   seed: int = 0, time_decomposition: bool = True) -> dict:
    """Raw scorecard measurements of one method on one layer; with no
    valid rank, only those that need no valid span, so no reduction or
    coverage, and with no rank slot no decomposition time."""
    if input_shape is None:
        input_shape = default_input_shape(layer)
    original = cost_original(layer, input_shape)
    spans = explore.valid_extremes(layer, method, input_shape)
    count = spans["valid_count"]
    raw = {"rank_configurations": rank_slot_count(layer, method)}
    if count:
        # percent reductions at the low and the high end of each span
        best_p, worst_p, best_f, worst_f, best_m, worst_m = (
            100.0 * compression_ratio(original.get(metric), value)
            for metric in ("params", "flops", "overall_mem")
            for value in spans[metric])
        raw.update(best_param_reduction=best_p, worst_param_reduction=worst_p,
                   best_flops_reduction=best_f, worst_flops_reduction=worst_f,
                   best_memory_improvement=best_m,
                   worst_memory_increase=-worst_m, exploration_space=count,
                   param_coverage=best_p - worst_p,
                   flops_coverage=best_f - worst_f)
    else:
        raw["exploration_space"] = count
    raw["flexibility"] = FLEXIBILITY_CLASSES[method]
    if time_decomposition and raw["rank_configurations"]:
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
