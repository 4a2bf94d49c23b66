"""Analytical cost model: parameters, FLOPs, and feature-map elements.

Costs follow the usual conventions for compression work: a multiply
plus its accumulate counts as 2 FLOPs, biases are ignored, and the
feature-map (fm) column counts the elements a layer materializes, so
reshape and flatten views contribute nothing.  All three quantities
are exact integers, which lets enumeration and census code compare
configurations without floating-point noise.

``method_applies`` is the one rule for which layers a method factors:
the conv methods take an ungrouped conv, the fc methods an fc layer,
t3f one with a plan; ``default_plan`` picks one when a caller names none.

The rank box of ``rank_bounds`` decides which ranks a method admits
on a layer.  ``chain_stages`` states once what a method factors a
layer into: the weighted stages of its chain, each given by its
channel links (a conv or fc stage also by its layer kind and the axis
its window covers, a t3f core by its mode sizes).  ``decompose.chain_descs``
names those stages as layers, and ``closed_form`` walks them, costing
each stage as ``cost_original`` costs its layer kind; that walk is the
only cost formula of a factorized layer.  ``cost_factorized`` checks
its ranks against the box and walks them; it agrees exactly, integer
for integer, with ``cost_chain`` over ``chain_descs``, which sums the
independent per-kind rule ``cost_original``.  ``closed_form`` also
walks integer rank arrays that broadcast, which is how ``explore``
derives the affine rank families it counts on.  The t3f walk also
broadcasts over plan mode sizes: the entries of ``ms`` and ``ns`` may
be int64 arrays, one value per plan, so one walk covers all plans of
the same depth.  So does ``tt_link_bounds``, the one TT link rule: it
bounds one plan for ``rank_bounds`` or every plan of a depth for
``explore``.  Integer factors are multiplied before rank arrays and
sums are rebound, so an array walk costs few array operations and
broadcasts freely.
"""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple

from .errors import RankError, ShapeError
from .ir import CONV_KINDS, LayerDesc, ModelDesc

CONV_METHODS = ("tucker2", "cp", "tt")
FC_METHODS = ("svd", "qr", "t3f")
METHODS = CONV_METHODS + FC_METHODS

OBJECTIVES = ("params", "flops", "overall_mem")
T3F_DEPTHS = (2, 3)  # the TT-matrix depths ``t3f_plans`` offers


class CostReport(NamedTuple):
    """Exact integer cost triple for a layer or a group of layers: an
    immutable NamedTuple (it compares, hashes and unpacks as a tuple)
    whose ``+`` adds element-wise."""

    params: int
    flops: int
    fm: int

    @property
    def overall_mem(self) -> int:
        return self.params + self.fm

    def get(self, objective: str) -> int:
        if objective == "params":
            return self.params
        if objective == "flops":
            return self.flops
        if objective == "overall_mem":
            return self.overall_mem
        raise RankError(f"unknown objective {objective!r}")

    def __add__(self, other: "CostReport") -> "CostReport":
        return CostReport(self.params + other.params, self.flops + other.flops,
                          self.fm + other.fm)

    def to_dict(self) -> dict:
        return {"params": self.params, "flops": self.flops, "fm": self.fm,
                "overall_mem": self.overall_mem}


ZERO_COST = CostReport(0, 0, 0)


def compression_ratio(original: int, factorized: int) -> float:
    """Fractional reduction, 1 - factorized/original.  Negative when
    the factorized form is larger."""
    if original <= 0:
        raise RankError("original cost must be positive")
    return 1.0 - factorized / original


def default_input_shape(layer: LayerDesc) -> tuple:
    """Smallest per-sample input producing one output position.

    Used when no real input is given: costs then count one output
    position per spatial axis, which keeps ratios and validity
    comparisons exact for stride-divisible inputs of any size.
    """
    if layer.kind == "fc":
        return (layer.in_channels,)
    if layer.kind in CONV_KINDS or layer.kind == "depthwise_conv":
        if layer.padding == "valid":
            spatial = tuple(layer.kernel)
        else:
            spatial = tuple(layer.stride)
        return spatial + (layer.in_channels,)
    raise ShapeError(f"{layer.name}: no default input for kind {layer.kind!r}")


def cost_original(layer: LayerDesc, input_shape: tuple,
                  out_shape: tuple = None) -> CostReport:
    """Exact cost of running one sample through ``layer`` as-is.

    ``out_shape`` may be supplied for layers with several inputs,
    where it cannot be inferred from ``input_shape`` alone.
    """
    k = layer.kind
    out = out_shape if out_shape is not None else layer.out_shape([tuple(input_shape)])
    out_elems = int(math.prod(out))

    if k in CONV_KINDS:
        window = math.prod(layer.kernel) * (layer.in_channels // layer.groups)
        params = window * layer.out_channels
        return CostReport(params, 2 * out_elems * window, out_elems)
    if k == "depthwise_conv":
        window = math.prod(layer.kernel)
        return CostReport(window * layer.in_channels, 2 * out_elems * window,
                          out_elems)
    if k == "fc":
        params = layer.in_channels * layer.out_channels
        return CostReport(params, 2 * params, out_elems)
    if k == "tt_core":
        params = layer.rank_in * layer.m * layer.n * layer.rank_out
        return CostReport(params, 2 * layer.rank_in * layer.m * out_elems,
                          out_elems)
    if k == "batchnorm":
        channels = input_shape[-1]
        return CostReport(4 * channels, 2 * out_elems, out_elems)
    if k == "activation":
        return CostReport(0, out_elems, out_elems)
    if k == "pool":
        return CostReport(0, out_elems * math.prod(layer.kernel), out_elems)
    if k in ("add", "concat"):
        return CostReport(0, out_elems if k == "add" else 0, out_elems)
    if k in ("reshape", "flatten"):
        return ZERO_COST
    raise ShapeError(f"{layer.name}: no cost rule for kind {k!r}")


def cost_chain(layers: list, input_shape: tuple) -> CostReport:
    """Sum of per-sublayer costs along a linear chain of layers."""
    total = ZERO_COST
    shape = tuple(input_shape)
    for layer in layers:
        total = total + cost_original(layer, shape)
        shape = layer.out_shape([shape])
    return total


# -- admissible ranks ---------------------------------------------------------


def _takes_kind(layer: LayerDesc, method: str) -> bool:
    """The conv methods take an ungrouped conv, the fc methods an fc layer."""
    if method in CONV_METHODS:
        return layer.kind in CONV_KINDS and layer.groups == 1
    if method in FC_METHODS:
        return layer.kind == "fc"
    raise RankError(f"unknown method {method!r}")


def method_applies(layer: LayerDesc, method: str) -> bool:
    """Whether ``method`` factors ``layer``: it takes the layer's kind,
    and t3f has a plan, so both widths split into two factors."""
    return _takes_kind(layer, method) and (method != "t3f" or all(
        _ordered_factorizations(width, 2)
        for width in (layer.in_channels, layer.out_channels)))


def applicable_methods(layer: LayerDesc) -> list:
    """The methods that factor ``layer``, in ``METHODS`` order."""
    return [m for m in METHODS if method_applies(layer, m)]


def require_method(layer: LayerDesc, method: str) -> None:
    """RankError unless ``method`` takes ``layer``'s kind."""
    if not _takes_kind(layer, method):
        grouped = f" with groups={layer.groups}" if layer.groups not in (
            None, 1) else ""
        raise RankError(f"method {method!r} does not apply to "
                        f"{layer.kind} layers{grouped}")


def tt_link_bounds(dims: tuple) -> list:
    """Box bound per internal link of a tensor train over ``dims``,
    min(prod left, prod right).  Dims may be int64 arrays that broadcast
    (one value per plan); only operators run, so ints give Python ints."""
    bounds = []
    for cut in range(1, len(dims)):
        left, right = math.prod(dims[:cut]), math.prod(dims[cut:])
        bounds.append((left + right - abs(left - right)) // 2)
    return bounds


def cp_max_rank(layer: LayerDesc) -> int:
    dims = tuple(layer.kernel) + (layer.in_channels, layer.out_channels)
    return math.prod(dims) // max(dims)


def rank_bounds(layer: LayerDesc, method: str, plan: tuple = None) -> list:
    """Inclusive (1, hi) bound per rank slot of ``method`` on ``layer``.

    This rank box is the admissibility rule of the package: counting,
    costing and decomposing accept exactly its points.  Raises
    RankError when the method does not apply to the layer, when a t3f
    plan is missing or does not factor the layer, or when another
    method is given a plan.
    """
    require_method(layer, method)
    if plan is not None and method != "t3f":
        raise RankError(f"{method} takes no plan")
    if method == "tucker2":
        return [(1, layer.in_channels), (1, layer.out_channels)]
    if method == "cp":
        return [(1, cp_max_rank(layer))]
    if method == "tt":
        dims = (layer.in_channels,) + tuple(layer.kernel) + (layer.out_channels,)
        return [(1, b) for b in tt_link_bounds(dims)]
    if method == "t3f":
        if plan is None:
            raise RankError("t3f rank bounds need a plan")
        ms, ns = plan
        if (len(ms) != len(ns) or math.prod(ms) != layer.in_channels
                or math.prod(ns) != layer.out_channels):
            raise RankError(f"plan {plan} does not factor layer {layer.name}")
        return [(1, b) for b in tt_link_bounds(
            tuple(m * n for m, n in zip(ms, ns)))]
    return [(1, min(layer.in_channels, layer.out_channels))]


def check_integer(value, least: int, name: str) -> int:
    """``value`` as a Python int; RankError unless it is a Python or
    numpy integer, not a bool, of at least ``least``.  The one integer
    rule for ranks, enumeration limits and search counts."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least):
        raise RankError(f"{name} must be an integer of at least {least}, "
                        f"got {value!r}")
    return int(value)


def check_real(value, name: str):
    """``value`` itself; RankError unless it is a Python or numpy real
    number, not a bool.  The one real-number rule for tolerances,
    percents and search settings; each caller then checks its range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise RankError(f"{name} must be a real number, got {value!r}")
    return value


def check_ranks(layer: LayerDesc, method: str, ranks: tuple,
                plan: tuple = None) -> tuple:
    """``ranks`` as ints; RankError unless they are a point of the box."""
    bounds = rank_bounds(layer, method, plan)
    ranks = tuple(check_integer(r, 1, f"{method} rank") for r in ranks)
    if len(ranks) != len(bounds) or not all(
            lo <= r <= hi for r, (lo, hi) in zip(ranks, bounds)):
        raise RankError(f"{method} ranks {ranks} outside the rank box "
                        f"{bounds} of {layer.name}")
    return ranks


def _ordered_factorizations(value: int, length: int, smallest: int = 2):
    """Ordered tuples of ``length`` factors >= smallest with given product."""
    if length == 1:
        return [(value,)] if value >= smallest else []
    out = []
    for head in range(smallest, value // smallest + 1):
        if value % head == 0:
            for tail in _ordered_factorizations(value // head, length - 1,
                                                smallest):
                out.append((head,) + tail)
    return out


def t3f_plans(layer: LayerDesc) -> list:
    """Shape plans: paired ordered factorizations of both dimensions.

    Each plan splits the input width into d factors and the output
    width into d factors, every factor at least 2, for d in
    ``T3F_DEPTHS``.
    """
    plans = []
    for d in T3F_DEPTHS:
        ms_options = _ordered_factorizations(layer.in_channels, d)
        ns_options = _ordered_factorizations(layer.out_channels, d)
        for ms in ms_options:
            for ns in ns_options:
                plans.append((ms, ns))
    return plans


def default_plan(layer: LayerDesc, method: str):
    """The plan ``method`` uses on ``layer`` when none is chosen: the
    first of ``t3f_plans`` for t3f (RankError if none), else None."""
    if method != "t3f":
        return None
    plans = t3f_plans(layer)
    if not plans:
        raise RankError(f"{layer.name}: no factorization plan for "
                        f"({layer.in_channels}, {layer.out_channels})")
    return plans[0]


# -- the factorized chains ---------------------------------------------------

WHOLE_KERNEL = "whole kernel"  # the axis of a stage with the layer's window


def chain_stages(layer: LayerDesc, method: str, ranks: tuple,
                 plan: tuple = None) -> list:
    """The weighted stages ``method`` factors ``layer`` into at ``ranks``,
    in chain order: the one statement of every factorized chain.

    A conv method gives ``(kind, axis, c_in, c_out)`` per stage: a
    pointwise reduce (axis None), the middle stages, a pointwise expand.
    Tucker-2 has one middle stage, a dense core with the layer's whole
    window (axis ``WHOLE_KERNEL``); CP and TT have one stage per spatial
    axis, with that axis's kernel and stride alone.  Every stage has the
    layer's kind but CP's per-axis ones, which are ``depthwise_conv``
    (c_in and c_out both the rank).  svd and qr give their two fc
    stages the same way, both pointwise; t3f gives ``(m, n, r_in,
    r_out)`` per core of the TT-matrix over ``plan``.  Ranks and mode
    sizes may be int64 arrays that broadcast.
    """
    c, f, kind = layer.in_channels, layer.out_channels, layer.kind
    if method == "tucker2":
        r1, r2 = ranks
        return [(kind, None, c, r1), (kind, WHOLE_KERNEL, r1, r2),
                (kind, None, r2, f)]
    if method == "cp":
        (r,) = ranks
        return [(kind, None, c, r),
                *[("depthwise_conv", axis, r, r)
                  for axis in range(len(layer.kernel))],
                (kind, None, r, f)]
    if method == "tt":
        links = (c, *ranks, f)
        return [(kind, axis, c_in, c_out) for axis, c_in, c_out in zip(
            (None, *range(len(layer.kernel)), None), links, links[1:])]
    if method in ("svd", "qr"):
        (r,) = ranks
        return [(kind, None, c, r), (kind, None, r, f)]
    if method == "t3f":
        ms, ns = plan
        full = (1, *ranks, 1)
        return list(zip(ms, ns, full, full[1:]))
    raise RankError(f"unknown method {method!r}")


def closed_form(layer: LayerDesc, method: str, ranks: tuple,
                input_shape: tuple = None, plan: tuple = None) -> CostReport:
    """Cost of ``method`` at ``ranks``, walking ``chain_stages`` without
    rank checks.

    The ranks (and t3f's mode sizes) may be integer numpy arrays that
    broadcast against each other; every field of the report then has
    their broadcast shape.  One rank may be an affine value of
    ``explore`` (a base and a slope that ``+`` and ``*`` carry), and
    every field is then such a value.
    """
    stages = chain_stages(layer, method, ranks, plan)
    params = flops = fm = 0
    if method == "t3f":
        rows = layer.in_channels  # rows of the partial product
        for m, n, r_in, r_out in stages:
            rows = rows // m * n
            links = r_in * r_out
            params = params + m * n * links
            flops = flops + 2 * m * rows * links
            fm = fm + rows * r_out
    else:
        # the extents shrink to the output ones as the stages of their
        # axes apply, and the pointwise stages keep them (an fc layer has
        # none: one position)
        shape = tuple(default_input_shape(layer) if input_shape is None
                      else input_shape)
        spatial_out = layer.out_shape([shape])[:-1]
        extents = list(shape[:-1])
        pos = math.prod(extents)
        for kind, axis, c_in, c_out in stages:
            if axis is None:
                window = 1
            else:
                if axis == WHOLE_KERNEL:
                    window, extents = math.prod(layer.kernel), spatial_out
                else:
                    window = layer.kernel[axis]
                    extents[axis] = spatial_out[axis]
                pos = math.prod(extents)
            links = c_in if kind == "depthwise_conv" else c_in * c_out
            params = params + window * links
            flops = flops + 2 * pos * window * links
            fm = fm + pos * c_out
    return CostReport(params, flops, fm)


def cost_factorized(layer: LayerDesc, method: str, ranks: tuple,
                    input_shape: tuple = None, plan: tuple = None) -> CostReport:
    """Closed-form cost of ``layer`` factorized by ``method`` at ``ranks``,
    which must lie in the rank box."""
    ranks = check_ranks(layer, method, ranks, plan)
    return closed_form(layer, method, ranks, input_shape, plan)


# -- whole-model accounting -------------------------------------------------


def model_breakdown(model: ModelDesc, input_shape: tuple) -> dict:
    """Aggregate costs by layer family.

    Returns conv, fc, other, and total CostReports plus a per-layer
    map, using one sample of the given input shape.
    """
    shapes = model.infer_shapes(input_shape)
    in_shapes = model.input_shapes(input_shape)
    per_layer = {}
    buckets = {"conv": ZERO_COST, "fc": ZERO_COST, "other": ZERO_COST}
    for layer in model.layers:
        cost = cost_original(layer, in_shapes[layer.name],
                             out_shape=shapes[layer.name])
        per_layer[layer.name] = cost
        if layer.kind in CONV_KINDS or layer.kind == "depthwise_conv":
            buckets["conv"] = buckets["conv"] + cost
        elif layer.kind in ("fc", "tt_core"):
            buckets["fc"] = buckets["fc"] + cost
        else:
            buckets["other"] = buckets["other"] + cost
    total = buckets["conv"] + buckets["fc"] + buckets["other"]
    return {"conv": buckets["conv"], "fc": buckets["fc"],
            "other": buckets["other"], "total": total, "layers": per_layer}
