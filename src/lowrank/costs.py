"""Analytical cost model: parameters, FLOPs, and feature-map elements.

Costs follow the usual conventions for compression work: a multiply
plus its accumulate counts as 2 FLOPs, biases are ignored, and the
feature-map (fm) column counts the elements a layer materializes, so
reshape and flatten views contribute nothing.  All three quantities
are exact integers, which lets enumeration and census code compare
configurations without floating-point noise.

``method_applies`` is the one rule for which layers a method factors:
the conv methods take an ungrouped conv, the fc methods an fc layer.
``default_plan`` is the t3f plan used when a caller names none.

The rank box of ``rank_bounds`` decides which ranks a method admits
on a layer.  The closed forms per factorization method are the only
cost formulas of the package.  ``cost_factorized`` checks its ranks
against the box and evaluates them; they agree exactly, integer for
integer, with summing ``cost_original`` over the factorized sub-layer
chain that ``decompose.chain_descs`` constructs.  ``closed_form``
evaluates them unchecked on integer rank arrays that broadcast, which
is how ``explore`` derives the affine rank families it counts on.
The t3f closed form also broadcasts over per-cell plan mode sizes:
the entries of ``ms`` and ``ns`` may be int64 arrays, one value per
cell, so one evaluation covers many plans of the same depth.  So does
``tt_link_bounds``, the one TT link rule: it bounds one plan for
``rank_bounds`` or every plan of a depth for ``explore``.
Integer factors are multiplied before rank arrays and sums are
rebound, so an array evaluation costs few array operations and
broadcasts freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import RankError, ShapeError
from .ir import CONV_KINDS, LayerDesc, ModelDesc

CONV_METHODS = ("tucker2", "cp", "tt")
FC_METHODS = ("svd", "qr", "t3f")
METHODS = CONV_METHODS + FC_METHODS

OBJECTIVES = ("params", "flops", "overall_mem")
T3F_DEPTHS = (2, 3)  # the TT-matrix depths ``t3f_plans`` offers


@dataclass(frozen=True)
class CostReport:
    """Exact integer cost triple for a layer or a group of layers."""

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


def method_applies(layer: LayerDesc, method: str) -> bool:
    """Whether ``method`` factors ``layer``: the conv methods take an
    ungrouped conv, the fc methods an fc layer."""
    if method in CONV_METHODS:
        return layer.kind in CONV_KINDS and layer.groups == 1
    if method in FC_METHODS:
        return layer.kind == "fc"
    raise RankError(f"unknown method {method!r}")


def applicable_methods(layer: LayerDesc) -> list:
    """The methods that factor ``layer``, in ``METHODS`` order."""
    return [m for m in METHODS if method_applies(layer, m)]


def require_method(layer: LayerDesc, method: str) -> None:
    """RankError unless ``method`` factors ``layer``."""
    if not method_applies(layer, method):
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


def check_ranks(layer: LayerDesc, method: str, ranks: tuple,
                plan: tuple = None) -> tuple:
    """``ranks`` as ints; RankError unless they are a point of the box."""
    bounds = rank_bounds(layer, method, plan)
    ranks = tuple(int(r) for r in ranks)
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


# -- closed forms per method -----------------------------------------------


def _conv_geometry(layer: LayerDesc, input_shape: tuple):
    """Per-axis input and output extents for a conv layer."""
    if input_shape is None:
        input_shape = default_input_shape(layer)
    input_shape = tuple(input_shape)
    return input_shape[:-1], layer.out_shape([input_shape])[:-1]


def _stagewise_conv_cost(channel_pairs, kernels, positions):
    """Cost of a chain of dense conv stages.

    ``channel_pairs`` is a list of (c_in, c_out), ``kernels`` the window
    size of each stage, ``positions`` the output-position count of each
    stage.  Depthwise stages pass c_in = 1 with c_out = channel count.
    """
    params = flops = fm = 0
    for (cin, cout), window, pos in zip(channel_pairs, kernels, positions):
        links = cin * cout
        params = params + window * links
        flops = flops + 2 * pos * window * links
        fm = fm + pos * cout
    return CostReport(params, flops, fm)


def cost_tucker2(layer: LayerDesc, ranks: tuple, input_shape: tuple = None) -> CostReport:
    """Pointwise reduce, spatial core conv, pointwise expand."""
    (r1, r2) = ranks
    spatial_in, spatial_out = _conv_geometry(layer, input_shape)
    c, f = layer.in_channels, layer.out_channels
    pos_in, pos_out = math.prod(spatial_in), math.prod(spatial_out)
    return _stagewise_conv_cost(
        [(c, r1), (r1, r2), (r2, f)],
        [1, math.prod(layer.kernel), 1],
        [pos_in, pos_out, pos_out])


def _axiswise_conv_cost(layer: LayerDesc, channel_pairs,
                        input_shape: tuple = None) -> CostReport:
    """Pointwise reduce, one single-axis stage per spatial axis, pointwise
    expand; ``channel_pairs`` gives the (c_in, c_out) of each stage."""
    spatial_in, spatial_out = _conv_geometry(layer, input_shape)
    # Spatial extents shrink axis by axis as the single-axis stages apply;
    # the expand stage runs at the output positions.
    extents = list(spatial_in)
    positions = [math.prod(extents)]
    for axis, extent in enumerate(spatial_out):
        extents[axis] = extent
        positions.append(math.prod(extents))
    positions.append(positions[-1])
    return _stagewise_conv_cost(channel_pairs, (1, *layer.kernel, 1),
                                positions)


def cost_cp(layer: LayerDesc, ranks: tuple, input_shape: tuple = None) -> CostReport:
    """Pointwise reduce, one depthwise stage per spatial axis, expand."""
    (r,) = ranks
    pairs = [(layer.in_channels, r), *[(1, r)] * len(layer.kernel),
             (r, layer.out_channels)]
    return _axiswise_conv_cost(layer, pairs, input_shape)


def cost_tt_conv(layer: LayerDesc, ranks: tuple, input_shape: tuple = None) -> CostReport:
    """Pointwise reduce, one dense single-axis stage per spatial axis,
    pointwise expand; ranks has one entry per internal link."""
    links = (layer.in_channels, *ranks, layer.out_channels)
    return _axiswise_conv_cost(layer, zip(links, links[1:]), input_shape)


def cost_svd(layer: LayerDesc, ranks: tuple, input_shape: tuple = None) -> CostReport:
    (r,) = ranks
    m, n = layer.in_channels, layer.out_channels
    return CostReport((m + n) * r, 2 * (m + n) * r, r + n)


cost_qr = cost_svd  # identical factor shapes, different construction


def cost_t3f(layer: LayerDesc, ranks: tuple, input_shape: tuple = None,
             plan: tuple = None) -> CostReport:
    """TT-matrix chain over a factorization plan.

    ``plan`` is ``(ms, ns)`` with ``prod(ms) == M`` and ``prod(ns) ==
    N``; ``ranks`` are the d-1 internal link ranks (the outer two are
    fixed to 1).  Mode sizes may be int64 arrays that broadcast with
    the ranks.
    """
    ms, ns = plan
    d = len(ms)
    full = (1,) + tuple(ranks) + (1,)
    params = flops = fm = 0
    for t in range(1, d + 1):
        z_cols = math.prod(ms[t:]) * math.prod(ns[:t])  # z elements per rank
        links = full[t - 1] * full[t]
        params = params + ms[t - 1] * ns[t - 1] * links
        flops = flops + 2 * ms[t - 1] * z_cols * links
        fm = fm + z_cols * full[t]
    return CostReport(params, flops, fm)


_COST_FUNCS = {
    "tucker2": cost_tucker2,
    "cp": cost_cp,
    "tt": cost_tt_conv,
    "svd": cost_svd,
    "qr": cost_qr,
}


def closed_form(layer: LayerDesc, method: str, ranks: tuple,
                input_shape: tuple = None, plan: tuple = None) -> CostReport:
    """Closed-form cost of ``method`` at ``ranks``, without rank checks.

    The ranks may be integer numpy arrays that broadcast against each
    other; every field of the report then has their broadcast shape.
    """
    if method == "t3f":
        return cost_t3f(layer, ranks, input_shape, plan)
    return _COST_FUNCS[method](layer, ranks, input_shape)


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
