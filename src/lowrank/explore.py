"""Exploration-space enumeration, counting, and census queries.

The space of a method on a layer is every admissible rank assignment
(for TT-matrix factorizations, every shape plan times its rank
assignments).  Spaces run to hundreds of millions of points, so all
counting works arithmetically on rank grids: each chain stage joins at
most two ranks, so costs are affine in any one rank once the others are
fixed, which turns validity counting and nearest-target queries into
integer range arithmetic per grid cell.  Nothing is materialized unless
a caller asks for concrete solutions.

A method's cells form one family; t3f has one family per depth, whose
flat cells run through all plans of that depth, each cell with its own
plan and affine rank bound, so thousands of plans cost a few array
operations rather than one family each.  A family is built from its rank
box (``_boxes``), whose volume ``count_all`` sums.  The affine
coefficients are not written down here: each family walks the chain
stages of ``costs.closed_form`` once over its cells (a t3f family over
its plans, ``_plan_cells``), with the affine rank an ``_Affine`` value
whose base and slope ride through ``+`` and ``*``, so that walk remains
the only cost formula of a factorized layer and yields each metric as
its base and slope.  A whole-space family
(counting, census, ``valid_extremes`` and the ``solutions_at_ratio``
memo) is affine in the rank slot that leaves it the fewest cells
(``_affine_slot``): tt's longest link, often a middle one, makes its
whole families 1.5-3 times smaller than the innermost link would.
Enumeration builds each family affine in its last slot, in slabs along
its leading axis, in enumeration order (``_families`` with a finite
``slab``); each slab holds twice the cells of the one before, from
about ``_FIRST_SLAB``, so a limited enumeration builds at most about
twice the cells it reads, plus one slab, and a whole one only
O(log cells) slabs.  One bulk reader, ``_AffineFamily.solutions``,
turns cells into solutions, for enumeration, bucket members and a
census's best member alike, each costed as ``base + slope * r`` in
Python ints, with no rank check or chain walk per point, and built as
immutable NamedTuples directly with ``tuple.__new__``.

A census buckets the valid solutions at target reductions of an
objective (say 60% fewer parameters).  ``_bucket`` gives the bucket
value at ``percent``: the valid objective value closest to
t = (1 - percent/100) * original, the smaller on a tie, or none if it
misses t by more than tol * original; the bucket holds every valid
solution achieving it.  ``census`` summarizes it, re-costing only its
``best`` member through the checked ``cost_factorized`` (of the members
with the fewest flops, the first in enumeration order: by plan, then by
the ranks in slot order, ``_AffineFamily.earliest``), and
``solutions_at_ratio`` materializes it, costed from the cells as
enumeration costs them.  Both read one table of valid cells per family
(``_valid_cells``), built once per call and dropped with it.

In a cell with objective ``value(r) = a + b * r`` (integers, b >= 1)
and valid ranks 1..top, the values nearest t sit at ranks
``near = (floor(t) - a) // b`` and ``near + 1``: floor(x / b) =
floor(floor(x) / b) for every real x, so the integer division is exact,
with no float rounding.  ``_bucket`` keeps each cell's
``r = clip(near, 0, top)`` and value(r); v is the nearer to t of the
largest value(r) with r >= 1 and the smallest value(r + 1) with
r < top.  The members come off the same arrays, with no second
division.  If v <= floor(t), they are the cells with value(r) == v and
r >= 1, at rank r: a member's rank is at most r, as its value is at
most floor(t), and value(r) <= v by the max.  If v > floor(t), they are
the cells with value(r + 1) == v and r < top, at rank r + 1: a member's
rank is more than r, and value(r + 1) >= v by the min.

A search asks for one layer's buckets at many percents, so
``solutions_at_ratio`` keeps the families in the caller's ``memo``, a
dict that holds only the rank families of one layer at one input
shape, under the method's name.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .costs import (OBJECTIVES, CostReport, check_integer, check_real,
                    closed_form, compression_ratio, cost_factorized,
                    cost_original, cp_max_rank, default_input_shape,
                    rank_bounds, require_method, t3f_plans, tt_link_bounds)
from .errors import RankError
from .ir import LayerDesc

DEFAULT_TOL = 0.005
# above every cost value a rank grid holds: ``_families`` raises
# RankError for a space whose costs reach it, so its int64 cells never wrap
_VALUE_CAP = 2 ** 62


class Solution(NamedTuple):
    """One point of a method's exploration space: an immutable
    NamedTuple, so it compares, hashes and unpacks as a tuple."""

    method: str
    ranks: tuple
    cost: CostReport
    plan: tuple | None = None

    def key(self) -> tuple:
        return (self.method, self.plan or (), self.ranks)


@dataclass
class BucketReport:
    """Census result at one target reduction."""

    percent: float
    value: int | None          # achieved objective value closest to target
    count: int                 # valid solutions achieving exactly that value
    flops_reduction_min: float | None = None
    flops_reduction_max: float | None = None
    best: Solution | None = None   # bucket member with the fewest flops

    def to_dict(self) -> dict:
        out = {"percent": self.percent, "value": self.value, "count": self.count,
               "flops_reduction_min": self.flops_reduction_min,
               "flops_reduction_max": self.flops_reduction_max}
        if self.best is not None:
            out["best"] = {"method": self.best.method,
                           "ranks": list(self.best.ranks),
                           "plan": [list(p) for p in self.best.plan]
                                   if self.best.plan else None,
                           "cost": self.best.cost.to_dict()}
        else:
            out["best"] = None
        return out


@dataclass
class SpaceCensus:
    """Counting summary of one method's space on one layer."""

    method: str
    all_count: int
    valid_count: int
    original: CostReport
    buckets: list = field(default_factory=list)
    generation_time: float = 0.0

    def to_dict(self) -> dict:
        return {"method": self.method, "all": self.all_count,
                "valid": self.valid_count,
                "original": self.original.to_dict(),
                "buckets": [b.to_dict() for b in self.buckets],
                "generation_time": self.generation_time}


# -- admissible ranks ---------------------------------------------------------
# The rank box lives in ``costs``, which checks every point against it.


def min_ranks(layer: LayerDesc, method: str, plan: tuple = None) -> tuple:
    return tuple(1 for _ in rank_bounds(layer, method, plan))


# -- affine cost grids --------------------------------------------------------


class _AffineFamily:
    """Costs of one rank family, affine in the rank slot ``axis``.

    Built from ``box``, the upper rank bounds of ``plans`` (a row each,
    from ``_boxes``, with the plans' ``modes``); a cell fixes every rank
    but the one in slot ``axis``, the affine rank.  Without plans a
    method has one family over the open grid of its other ranks, the
    first of them from ``first`` on (a slab of the whole grid when
    ``first`` > 1 or ``box`` is cut; one cell when there are no other
    ranks); t3f has one per depth, with flat, plan-major cells
    (``_plan_cells``) and ``plan_index`` naming each cell's plan.
    ``outer`` holds the cells' other ranks, one array per slot in slot
    order.  One ``closed_form`` walk over all cells (t3f's over its
    plans), with an ``_Affine`` affine rank, gives each metric's ``base``
    (its cost at rank 0) and ``slope`` (its increase per rank): int64
    CostReports spanning all cells, so a flat cell index addresses them
    and a metric at affine rank r is ``base + slope * r``.  ``bound`` is
    each cell's affine rank bound and ``valid_hi`` the largest affine
    rank keeping params and flops below ``original`` (none if below 1).
    """

    def __init__(self, layer, method, input_shape, original, axis, box,
                 modes, plans, first=1):
        self.method, self.plans, self.axis = method, plans, axis
        if method == "t3f":
            index, outer, bound, parts = _plan_cells(layer, input_shape, axis,
                                                     box, modes)
            self.shape = index.shape
        else:
            index, bound = 0, box[0, axis]
            lows = (first,) + (1,) * (box.shape[1] - 1)
            outer = np.ix_(*(np.arange(lo, hi + 1, dtype=np.int64)
                             for slot, (lo, hi) in enumerate(zip(lows, box[0]))
                             if slot != axis))
            self.shape = tuple(ranks.size for ranks in outer) or (1,)
            parts = itertools.chain(*zip(*closed_form(
                layer, method, _in_slots(outer, axis, _Affine(0, 1)),
                input_shape)))
        self.plan_index = np.broadcast_to(index, self.shape)
        self.outer = [np.broadcast_to(ranks, self.shape) for ranks in outer]
        self.bound = np.broadcast_to(bound, self.shape)
        parts = [np.broadcast_to(part, self.shape) for part in parts]
        self.base, self.slope = CostReport(*parts[:3]), CostReport(*parts[3:])
        hi = (original.params - 1 - self.base.params) // self.slope.params
        hi_f = (original.flops - 1 - self.base.flops) // self.slope.flops
        self.valid_hi = np.minimum(np.minimum(hi, hi_f, out=hi), self.bound,
                                   out=hi)

    def solutions(self, flat: np.ndarray, lows, highs):
        """Lazily the solutions of the cells at the flat indices ``flat``,
        each at the affine ranks from its entry of ``lows`` to its entry
        of ``highs``, costed as ``base + slope * r`` in Python ints.
        The one place a cell becomes solutions: each per-cell array is
        read once, by one fancy index and one ``tolist``.  A family
        affine in the last slot (every enumeration slab) may read a cell
        at many ranks; any other is read at one rank per cell
        (``lows == highs``)."""
        idx = np.unravel_index(flat, self.shape)
        plans = map(self.plans.__getitem__, self.plan_index[idx].tolist())
        method, new = self.method, tuple.__new__
        if self.axis < len(self.outer):
            # the one rank goes into its rank row and the costs up front
            rank = np.asarray(lows, dtype=np.int64)
            rows = _in_slots([ranks[idx] for ranks in self.outer], self.axis,
                             rank)
            costs = zip(*((base[idx] + slope[idx] * rank).tolist()
                          for base, slope in zip(self.base, self.slope)))
            for plan, ranks, cost in zip(
                    plans, zip(*(row.tolist() for row in rows)), costs):
                yield new(Solution, (method, ranks, new(CostReport, cost),
                                     plan))
            return
        outer = (zip(*(ranks[idx].tolist() for ranks in self.outer))
                 if self.outer else itertools.repeat(()))
        coefficients = zip(*(values[idx].tolist()
                             for values in (*self.base, *self.slope)))
        for plan, ranks, (p0, f0, m0, dp, df, dm), lo, hi in zip(
                plans, outer, coefficients, lows, highs):
            for r in range(lo, hi + 1):
                # what the NamedTuples' own __new__ does, minus a call frame
                cost = new(CostReport, (p0 + dp * r, f0 + df * r, m0 + dm * r))
                yield new(Solution, (method, ranks + (r,), cost, plan))

    def earliest(self, flat: np.ndarray, ranks: np.ndarray) -> int:
        """The position in ``flat`` of the cell, read at its affine rank
        in ``ranks``, that comes first in enumeration order: by plan,
        then by the ranks in slot order."""
        idx = np.unravel_index(flat, self.shape)
        rows = _in_slots([outer[idx] for outer in self.outer], self.axis,
                         ranks)
        return int(np.lexsort((*rows[::-1], self.plan_index[idx]))[0])


class _Affine(NamedTuple):
    """``base + slope * r`` in the affine rank r, which is ``_Affine(0,
    1)``; ints or int64 arrays.  ``+`` and ``*`` keep it affine, numpy
    operators defer to them, and a product of two affine values raises."""

    base: object
    slope: object
    __array_ufunc__ = None

    def __add__(self, other):
        if isinstance(other, _Affine):
            return _Affine(self.base + other.base, self.slope + other.slope)
        return _Affine(self.base + other, self.slope)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, _Affine):
            raise TypeError("a product of two affine values is not affine")
        return _Affine(self.base * other, self.slope * other)

    __rmul__ = __mul__


def _in_slots(outer, axis: int, affine) -> tuple:
    """The ranks of every slot, in slot order: ``outer`` with the affine
    ranks ``affine`` put into slot ``axis``."""
    return (*outer[:axis], affine, *outer[axis:])


def _plan_cells(layer, input_shape, axis, box, modes) -> tuple:
    """Flat, plan-major cells of the t3f plans of one depth, affine in
    slot ``axis``, from their rank box ``box`` and (m.. n..) mode sizes
    ``modes``: each cell's plan index, outer ranks (one slot at depth 3,
    none at depth 2), affine rank bound, and metrics' base and slope.
    ``closed_form`` walks each plan, not each cell, at outer rank 0 and
    1; costs are affine in each rank, so a cell adds the step times its
    outer rank to its plan's coefficient at 0."""
    sizes = np.delete(box, axis, axis=1).prod(axis=1)
    ranks = np.arange(1, sizes.sum() + 1)
    ranks -= np.repeat(np.cumsum(sizes) - sizes, sizes)
    outer = [ranks] * (box.shape[1] - 1)
    cost = closed_form(layer, "t3f", _in_slots(
        [np.arange(2)[:, None]] * len(outer), axis, _Affine(0, 1)),
        input_shape, np.split(modes.T, 2))  # the m and the n mode sizes
    # (metrics, outer rank 0 and 1, plans); the two rows agree at depth 2
    coefficients = np.stack([np.broadcast_to(part, (2, len(box)))
                             for part in itertools.chain(*zip(*cost))])
    parts = np.repeat(coefficients[:, 1] - coefficients[:, 0], sizes, axis=1)
    parts *= ranks
    parts += np.repeat(coefficients[:, 0], sizes, axis=1)
    index, bound = (np.repeat(per_plan, sizes)
                    for per_plan in (np.arange(len(box)), box[:, axis]))
    return index, outer, bound, parts


def _boxes(layer: LayerDesc, method: str):
    """Lazily yield each family's plans, the upper bounds of their rank
    boxes as an int64 (plans, slots) array (every lower bound is 1) and
    the plans' (m.. n..) mode sizes as an int64 (plans, 2 * depth) array:
    ``[None]``, the one row of ``rank_bounds`` and no modes for a method
    without plans, one ``tt_link_bounds`` call over m*n per t3f depth."""
    require_method(layer, method)
    if method != "t3f":
        yield ([None], np.array([[hi for _, hi in rank_bounds(layer, method)]]),
               None)
        return
    # t3f_plans lists its plans depth by depth
    for depth, group in itertools.groupby(t3f_plans(layer),
                                          key=lambda plan: len(plan[0])):
        plans = list(group)
        modes = np.array([ms + ns for ms, ns in plans], dtype=np.int64)
        yield plans, np.stack(tt_link_bounds(
            tuple((modes[:, :depth] * modes[:, depth:]).T)), axis=1), modes


def _check_exact(layer: LayerDesc, method: str, input_shape, original,
                 box: np.ndarray, modes) -> None:
    """RankError naming the layer, method and input shape unless every
    cost of the rank box, and of the original layer, lies below
    ``_VALUE_CAP``.  Every cost grows with every rank, so the box's top
    corners (one per t3f plan), costed in Python ints, bound them all."""
    plan = np.split(modes.T.astype(object), 2) if method == "t3f" else None
    top = closed_form(layer, method, tuple(box.T.astype(object)), input_shape,
                      plan)
    worst = max(max(np.ravel(report.get(objective)))
                for report in (top, original) for objective in OBJECTIVES)
    if worst >= _VALUE_CAP:
        raise RankError(f"{layer.name}: {method} costs at input shape "
                        f"{tuple(input_shape or default_input_shape(layer))} "
                        f"reach 2**62, past exact integer costing")


def _affine_slot(box: np.ndarray) -> int:
    """The rank slot of ``box`` whose family has the fewest cells: the
    box volume over that slot's bound, summed over the plans (the last
    slot on a tie), counted in Python ints, exact past int64."""
    exact = box.astype(object)
    volume = exact.prod(axis=1)
    cells = [sum(volume // exact[:, slot]) for slot in range(box.shape[1])]
    return min(range(len(cells)), key=lambda slot: (cells[slot], -slot))


def _families(layer: LayerDesc, method: str, input_shape=None,
              slab: float = math.inf):
    """Lazily yield the affine families covering the whole space of
    ``method``: one per t3f depth, one for every other method.  A whole
    family is affine in the slot that leaves it the fewest cells
    (``_affine_slot``).  A finite ``slab`` cuts each, affine in its last
    slot, into slabs along its leading axis, yielded in enumeration
    order: runs of consecutive plans for t3f, ranges of the first outer
    rank otherwise (a family without outer ranks is one cell).  A slab
    takes whole steps of that axis, the first until it holds ``slab``
    cells, each later one until it holds twice the cells of the largest
    slab before it."""
    original = cost_original(layer, input_shape or default_input_shape(layer))
    want = slab
    for plans, box, modes in _boxes(layer, method):
        _check_exact(layer, method, input_shape, original, box, modes)
        axis = _affine_slot(box) if slab == math.inf else box.shape[1] - 1
        if method == "t3f":
            sizes = box[:, :-1].prod(axis=1)
        else:  # one step per first outer rank, one in all without any
            sizes = np.full(box[0, 0] if box.shape[1] > 1 else 1,
                            box[0, 1:-1].prod())
        ends = np.concatenate(([0], np.cumsum(sizes)))  # cells before a step
        start, steps = 0, len(sizes)
        while start < steps:
            stop = min(steps, int(np.searchsorted(ends, ends[start] + want)))
            want = max(want, 2 * int(ends[stop] - ends[start]))
            if method == "t3f":
                yield _AffineFamily(layer, method, input_shape, original,
                                    axis, box[start:stop], modes[start:stop],
                                    plans[start:stop])
            else:
                cut = box.copy()
                cut[0, :-1][:1] = stop  # the first outer rank's bound, if any
                yield _AffineFamily(layer, method, input_shape, original,
                                    axis, cut, modes, plans, start + 1)
            start = stop


_FIRST_SLAB = 64  # cells of the first slab an enumeration builds


class _Cells(NamedTuple):
    """The valid cells of one family (``valid_hi >= 1``) for one
    objective: their flat indices into the family, ``top`` (their
    ``valid_hi``) and the objective's ``base`` and ``slope`` over them.
    Every metric grows with the family's affine rank, so each slope is
    at least 1."""

    family: _AffineFamily
    flat: np.ndarray
    top: np.ndarray
    base: np.ndarray
    slope: np.ndarray


def _valid_cells(fam: _AffineFamily, objective: str) -> _Cells:
    flat = np.flatnonzero(fam.valid_hi >= 1)
    # every cell valid: views of the family's arrays, not gathered copies
    cells = slice(None) if flat.size == fam.valid_hi.size else flat
    return _Cells(fam, flat, *(np.ravel(values)[cells] for values in (
        fam.valid_hi, fam.base.get(objective), fam.slope.get(objective))))


# -- public counting API ------------------------------------------------------


def count_all(layer: LayerDesc, method: str) -> int:
    """Exploration-space size: the exact rank-box volume over all plans."""
    return sum(box.astype(object).prod(axis=1).sum()
               for _, box, _ in _boxes(layer, method))


def count_valid(layer: LayerDesc, method: str, input_shape=None) -> int:
    """Solutions with strictly fewer params and fewer flops than the
    original layer."""
    return sum(int(np.maximum(fam.valid_hi, 0).sum())
               for fam in _families(layer, method, input_shape))


def valid_extremes(layer: LayerDesc, method: str, input_shape=None) -> dict:
    """Min and max of each cost metric over the valid region.

    Returns ``{"params": (lo, hi), "flops": ..., "overall_mem": ...,
    "valid_count": n}``, or ``{"valid_count": 0}`` when no rank is valid.
    """
    spans, total = {}, 0
    for fam in _families(layer, method, input_shape):
        for metric in OBJECTIVES:
            _, flat, top, base, slope = _valid_cells(fam, metric)
            lo, hi = spans.get(metric, (math.inf, -math.inf))
            if flat.size:
                spans[metric] = (min(lo, int((base + slope).min())),
                                 max(hi, int((base + slope * top).max())))
        total += int(top.sum())
    spans["valid_count"] = total
    return spans


def check_query(objective: str, tol: float, percents=()) -> list:
    """``percents`` as a list; RankError unless ``objective`` is one of
    ``OBJECTIVES``, and the bucket tolerance ``tol`` (non-negative) and
    every percent are finite real numbers (NaN fails)."""
    if objective not in OBJECTIVES:
        raise RankError(f"objective must be one of {OBJECTIVES}, "
                        f"got {objective!r}")
    if not 0 <= check_real(tol, "tol") < math.inf:
        raise RankError(f"tol must be non-negative and finite, got {tol}")
    percents = list(percents)
    for percent in percents:
        if not math.isfinite(check_real(percent, "percent")):
            raise RankError(f"percent must be a number and finite, "
                            f"got {percent}")
    return percents


def _bucket(tables, original: CostReport, objective: str, percent: float,
            tol: float) -> tuple:
    """The census bucket at ``percent`` over the valid-cell ``tables`` of
    ``objective`` (see the module docstring): its value, None if empty,
    and per table its members' flat indices and affine ranks."""
    scale = original.get(objective)
    target, reach = (1.0 - percent / 100.0) * scale, tol * scale
    # valid values are positive, and below the original for params and
    # flops; a valid point's overall memory may exceed the original's
    ceiling = math.inf if objective == "overall_mem" else scale
    if not -reach <= target <= ceiling + reach:
        return None, []
    floor = math.floor(min(max(target, -1.0), _VALUE_CAP))
    below, above = 0, _VALUE_CAP  # the nearest values <= and > target
    nearest = []  # per table: the nearest ranks, the values there and one up
    for cells in tables:
        r = np.clip((floor - cells.base) // cells.slope, 0, cells.top)
        at = cells.base + cells.slope * r
        up = at + cells.slope
        below = max(below, int(np.max(at, where=r >= 1, initial=0)))
        above = min(above, int(np.min(up, where=r < cells.top,
                                      initial=_VALUE_CAP)))
        nearest.append((r, at, up))
    candidates = [(target - below, below)] if below else []
    if above < _VALUE_CAP:
        candidates.append((above - target, above))
    if not candidates or min(candidates)[0] > reach:
        return None, []
    value = min(candidates)[1]
    step = int(value > floor)  # members sit at the nearest rank or one up
    members = []
    for cells, (r, at, up) in zip(tables, nearest):
        hit = np.flatnonzero((up == value) & (r < cells.top) if step
                             else (at == value) & (r >= 1))
        members.append((cells.flat[hit], r[hit] + step))
    return value, members


def census(layer: LayerDesc, method: str, percents, objective: str = "params",
           tol: float = DEFAULT_TOL, input_shape=None) -> SpaceCensus:
    """Count the space and bucket it at each target reduction percent.

    Each bucket reports its member count, the span of its members' flops
    reductions and its member with the fewest flops (the first in
    enumeration order on a tie).
    """
    t0 = time.perf_counter()
    percents = check_query(objective, tol, percents)
    tables = [_valid_cells(fam, objective)
              for fam in _families(layer, method, input_shape)]
    original = cost_original(layer, input_shape or default_input_shape(layer))
    report = SpaceCensus(method, count_all(layer, method),
                         sum(int(cells.top.sum()) for cells in tables),
                         original)
    for percent in percents:
        value, members = _bucket(tables, original, objective, percent, tol)
        bucket = BucketReport(percent=percent, value=value, count=0)
        report.buckets.append(bucket)
        if value is None:
            continue
        flops = [np.ravel(cells.family.base.flops)[flat]
                 + np.ravel(cells.family.slope.flops)[flat] * ranks
                 for cells, (flat, ranks) in zip(tables, members)]
        every = np.concatenate(flops)
        bucket.count = every.size
        lo, hi = int(every.min()), int(every.max())
        bucket.flops_reduction_min = compression_ratio(original.flops, hi)
        bucket.flops_reduction_max = compression_ratio(original.flops, lo)
        i = next(i for i, part in enumerate(flops) if lo in part)
        (flat, ranks), family = members[i], tables[i].family
        tied = np.flatnonzero(flops[i] == lo)
        pick = tied[family.earliest(flat[tied], ranks[tied])]
        rank = [int(ranks[pick])]
        (best,) = family.solutions(flat[pick:pick + 1], rank, rank)
        bucket.best = best._replace(cost=cost_factorized(
            layer, method, best.ranks, input_shape, plan=best.plan))
    report.generation_time = time.perf_counter() - t0
    return report


def solutions_at_ratio(layer: LayerDesc, method: str, percent: float,
                       objective: str = "params", tol: float = DEFAULT_TOL,
                       input_shape=None, memo: dict = None) -> list:
    """Materialize the census bucket at one target reduction.

    ``memo``, a dict for this layer at ``input_shape``, keeps the rank
    families for later calls at other percents (see the module docstring).
    """
    check_query(objective, tol, (percent,))
    memo = {} if memo is None else memo
    if method not in memo:
        memo[method] = list(_families(layer, method, input_shape))
    tables = [_valid_cells(fam, objective) for fam in memo[method]]
    original = cost_original(layer, input_shape or default_input_shape(layer))
    _, members = _bucket(tables, original, objective, percent, tol)
    out = []
    for cells, (flat, ranks) in zip(tables, members):
        ranks = ranks.tolist()
        out.extend(cells.family.solutions(flat, ranks, ranks))
    out.sort(key=lambda s: s.key())
    return out


def iter_solutions(layer: LayerDesc, method: str, input_shape=None,
                   valid_only: bool = False, limit: int = None):
    """Lazily yield at most ``limit`` solutions (all when None) in
    deterministic order: plan, then outer ranks, then innermost rank."""
    if limit is not None:
        check_integer(limit, 0, "limit")
    require_method(layer, method)
    return itertools.islice(itertools.chain.from_iterable(
        _slab_solutions(layer, method, input_shape, valid_only)), limit)


def _slab_solutions(layer, method, input_shape, valid_only):
    """Lazily, for each slab of the families, a generator of the
    solutions of its cells, or of its valid cells."""
    for fam in _families(layer, method, input_shape, _FIRST_SLAB):
        tops = np.ravel(fam.valid_hi if valid_only else fam.bound)
        flat = np.flatnonzero(tops >= 1)
        yield fam.solutions(flat, itertools.repeat(1), tops[flat].tolist())


def select_candidates(solutions: list, max_sol: int, seed: int = 0) -> list:
    """Deterministic shortlist of a bucket.

    Always starts with the fewest-flops member; with room adds the
    most-flops member, then the member with the most nearly equal
    ranks, then seeded random distinct extras.  Order is stable for a
    fixed seed.
    """
    if not solutions or max_sol < 1:
        return []
    pool = sorted(solutions, key=lambda s: (s.cost.flops, s.key()))
    chosen = [pool[0]]
    if max_sol >= 2 and len(pool) > 1:
        chosen.append(pool[-1])
    if max_sol >= 3:
        def spread(s):
            return (max(s.ranks) - min(s.ranks), s.key())
        for cand in sorted(pool, key=spread):
            if cand not in chosen:
                chosen.append(cand)
                break
    if max_sol > len(chosen):
        remaining = [s for s in pool if s not in chosen]
        rng = np.random.default_rng(seed)
        rng.shuffle(remaining)
        chosen.extend(remaining[:max_sol - len(chosen)])
    return chosen[:max_sol]
