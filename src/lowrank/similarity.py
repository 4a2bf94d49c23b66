"""Forward execution and feature-map cosine scoring.

Runs original and factorized layers on sample batches so the search
loop can measure how much a candidate factorization perturbs each
layer's output.  Every candidate and every search iteration runs here,
so each layer kind has a fast kernel, and ``tests/test_similarity.py``
checks each one against a reference:

* convolution: im2col, then one matrix product per channel group.  A
  unit kernel's columns are a strided slice of the input; a kernel with
  one non-unit axis (the 3x1 / 1x3 stages of TT chains) gathers them
  with one strided copy per offset; a dense kernel copies the
  sliding-window view.  The columns keep the (C, K..) order of
  ``np.tensordot`` over the window view, so the output bytes equal that
  formula's, per group for grouped convs (``TestKernelBytes``); a loop
  nest checks the semantics (``TestConvOracle``).
* depthwise convolution (the per-axis stages of CP chains), max and
  average pooling: one running fold over the shifted strided views, one
  view per kernel offset: weighted views summed, a running
  ``np.maximum``, and the window sum over the count of in-bounds
  elements.  The sums add in offset order for any channel count; with
  two or more channels that is numpy's order for the window view's
  ``sum``, so the bytes equal those formulas' (``TestKernelBytes``);
  loop nests check the semantics (``TestConvOracle``,
  ``TestPoolOracle``).
* ``tt_core``: one ``np.tensordot`` over the (m, rank_in) modes, checked
  against a float64 loop nest (``TestTtCoreOracle``).
* fc: one matrix product.

``LayerDesc.out_shape``, called once per ``forward_layer`` call, checks
every input and gives the windowed kinds their output extents, so a
mismatched input raises ``ShapeError`` (``GraphError`` for a wrong
number of inputs).  Weighted kinds check the weight array against
``weight_shape()``, and batchnorm its four records against the input's
channel axis, so a mis-shaped weight raises ``ShapeError`` instead of
yielding a wrong product or a broadcast error.  ``forward_layer`` is
the only dispatch point: the model, factorized-chain, capture and
similarity passes all call it through this module's attribute
(``tests/test_trace_sites.py``).

The engine reuses the buffers it owns.  ``forward_model`` drops each
layer's output after its last consumer runs, and hands an output with
one consumer to it with ``consume``, so a relu or tanh runs in place;
``layer_similarity`` does the same along a candidate's post-ops.  The
caller's arrays, view outputs (reshape, flatten) and the model output
are never written, and ``keep_all`` turns reuse off (see
``forward_model`` for the rule).  The same ufuncs run on the same
values, so no output byte depends on it.

Similarity of a factorized layer is the batch mean of the cosine
between its flattened output and the original layer's output, both
taken after the layer's post-ops (activation, pooling, normalization)
so the comparison happens at the boundary the rest of the network
actually sees.  Candidates are scored on the float32 weights that ship
(``FactorizedLayer.shipped``); decomposition, ``reconstruct`` and the
relative errors stay float64.
"""

from __future__ import annotations

import collections
import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .costs import applicable_methods
from .errors import ShapeError
from .ir import (CONV_KINDS, DATASET_INPUTS, DATASET_LABELS, LayerDesc,
                 ModelDesc, WeightStore)


def _pad_input(x: np.ndarray, kernel, stride, lengths, fill=0.0):
    """Pad the spatial axes so a window sweep yields ``lengths`` outputs.

    Each axis gets the shortfall ``(n - 1) * s + k - X``, half before and
    the odd element after; a ``valid`` sweep has none.
    """
    pads = [(0, 0)]
    for size, k, s, n in zip(x.shape[1:-1], kernel, stride, lengths):
        total = max((n - 1) * s + k - size, 0)
        pads.append((total // 2, total - total // 2))
    pads.append((0, 0))
    if all(p == (0, 0) for p in pads):
        return x
    return np.pad(x, pads, constant_values=fill)


def _windows(x: np.ndarray, kernel, stride):
    """Sliding windows over the spatial axes, stride applied.

    Input (B, X1..Xd, C) gives (B, X1'..Xd', C, K1..Kd).
    """
    axes = tuple(range(1, 1 + len(kernel)))
    view = np.lib.stride_tricks.sliding_window_view(x, kernel, axis=axes)
    slicer = (slice(None),) + tuple(slice(None, None, s) for s in stride)
    return view[slicer]


def _shifted(x: np.ndarray, kernel, stride, lengths):
    """One strided (B, X1'..Xd', C) view per kernel offset, offsets in C order.

    View k is ``_windows(x, kernel, stride)[..., *offset_k]`` without
    building the window view.
    """
    for offset in itertools.product(*(range(k) for k in kernel)):
        yield x[(slice(None),) + tuple(
            slice(o, o + (n - 1) * s + 1, s)
            for o, n, s in zip(offset, lengths, stride))]


def _window_fold(layer: LayerDesc, x, lengths, op, fill=0.0, w=None):
    """Fold ``op`` over the shifted views of ``x`` padded with ``fill``,
    in offset order, into the first term; with a (K.., C) weight ``w``,
    view k is first scaled by ``w[offset_k]``.  The first weighted term
    is a new array and is the accumulator itself; an unweighted first
    term is a view of the input and is copied.

    For two or more channels this is the order in which numpy sums the
    window view's K axes, so the bytes equal that reduction's.
    """
    terms = _shifted(_pad_input(x, layer.kernel, layer.stride, lengths, fill),
                     layer.kernel, layer.stride, lengths)
    if w is None:
        out = np.array(next(terms))
    else:
        terms = map(np.multiply, terms, w.reshape(-1, w.shape[-1]))
        out = next(terms)
    for term in terms:
        op(out, term, out=out)
    return out


def _columns(x: np.ndarray, kernel, stride, lengths) -> np.ndarray:
    """im2col: a (B*X1'..Xd', C*K1..Kd) matrix, columns in (C, K..) order.

    That is the matrix ``np.tensordot`` builds from the window view, so
    a product with it gives the same bytes.  A kernel with at most one
    non-unit axis is gathered with one strided copy per offset (none
    for a unit kernel at stride 1); a dense kernel copies the window
    view, which is faster there.
    """
    c = x.shape[-1]
    if sum(k > 1 for k in kernel) > 1:
        return _windows(x, kernel, stride).reshape(-1, c * math.prod(kernel))
    views = list(_shifted(x, kernel, stride, lengths))
    if len(views) == 1:
        return views[0].reshape(-1, c)
    cols = np.empty(views[0].shape + (len(views),), dtype=x.dtype)
    for k, view in enumerate(views):
        cols[..., k] = view
    return cols.reshape(-1, c * len(views))


def _conv_nd(layer: LayerDesc, x, w, lengths):
    """im2col and one matrix product per channel group."""
    dim, groups = len(layer.kernel), layer.groups
    x = _pad_input(x, layer.kernel, layer.stride, lengths)
    c_per, f_per = x.shape[-1] // groups, w.shape[-1] // groups
    outs = [np.dot(_columns(x[..., g * c_per:(g + 1) * c_per], layer.kernel,
                            layer.stride, lengths),
                   np.moveaxis(w[..., g * f_per:(g + 1) * f_per], dim, 0)
                   .reshape(-1, f_per))  # (C*K.., F) per group
            for g in range(groups)]
    out = outs[0] if groups == 1 else np.concatenate(outs, axis=-1)
    return out.reshape(x.shape[:1] + lengths + (w.shape[-1],))


def _pool_nd(layer: LayerDesc, x, lengths):
    if layer.mode == "max":
        return _window_fold(layer, x, lengths, np.maximum, fill=-np.inf)
    # Average over the window, excluding any padding.
    ones = np.ones((1,) + x.shape[1:-1] + (1,), dtype=x.dtype)
    return (_window_fold(layer, x, lengths, np.add)
            / _window_fold(layer, ones, lengths, np.add))


def _activation(x, fn, out=None):
    """``fn`` on ``x``; relu and tanh write into ``out`` when given."""
    if fn == "relu":
        return np.maximum(x, 0, out=out)
    if fn == "tanh":
        return np.tanh(x, out=out)
    if fn == "sigmoid":
        return 1.0 / (1.0 + np.exp(-x))
    if fn == "softmax":
        shifted = x - x.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=-1, keepdims=True)
    raise ShapeError(f"unknown activation {fn!r}")


def _weight(layer: LayerDesc, weights) -> np.ndarray:
    w = np.asarray(weights[layer.name])
    if w.shape != layer.weight_shape():
        raise ShapeError(f"{layer.name}: weight {w.shape} does not match "
                         f"{layer.weight_shape()}")
    return w


def forward_layer(layer: LayerDesc, weights, inputs, *, consume=False):
    """Run one layer on a batch.

    ``inputs`` is a single (batch, ...) array, or a list of them for
    layers with several predecessors.  ``weights`` is any mapping from
    record name to array (a WeightStore works).  With ``consume`` the
    caller hands its input arrays over: a relu or tanh activation then
    writes its result over its input and returns that array.  Every
    other kind ignores the flag.  The same ufunc runs on the same
    values either way, so the output bytes do not change.
    """
    xs = inputs if isinstance(inputs, (list, tuple)) else [inputs]
    # checks the inputs; the per-sample output shape
    shape = layer.out_shape([a.shape[1:] for a in xs])
    x = xs[0]

    k = layer.kind
    if k in CONV_KINDS:
        return _conv_nd(layer, x, _weight(layer, weights), shape[:-1])
    if k == "depthwise_conv":
        return _window_fold(layer, x, shape[:-1], np.add,
                            w=_weight(layer, weights))
    if k == "fc":
        return x @ _weight(layer, weights)
    if k == "activation":
        return _activation(x, layer.fn, out=x if consume else None)
    if k == "pool":
        return _pool_nd(layer, x, shape[:-1])
    if k == "batchnorm":
        params = [np.asarray(weights[key]) for key in layer.weight_keys()]
        if any(p.shape != x.shape[-1:] for p in params):
            raise ShapeError(f"{layer.name}: batchnorm records "
                             f"{[p.shape for p in params]} do not match "
                             f"{x.shape[-1]} channels")
        scale, shift, mean, var = params
        return scale * (x - mean) / np.sqrt(var + layer.eps) + shift
    if k in ("reshape", "flatten"):
        return x.reshape(x.shape[:1] + shape)
    if k == "tt_core":
        w = _weight(layer, weights)
        batch, q, r_in = x.shape
        xv = x.reshape(batch, layer.m, q // layer.m, r_in)
        out = np.tensordot(xv, w, axes=([1, 3], [1, 0]))  # (b, q, n, s)
        return out.reshape(batch, q // layer.m * layer.n, layer.rank_out)
    if k == "add":
        out = xs[0]
        for extra in xs[1:]:
            out = out + extra
        return out
    if k == "concat":
        return np.concatenate(xs, axis=-1)
    raise ShapeError(f"{layer.name}: unsupported kind {k!r}")


# Kinds whose output is a view of their input, never an array of its own.
_VIEW_KINDS = ("reshape", "flatten")


def forward_model(model: ModelDesc, weights, x: np.ndarray,
                  keep_all: bool = False):
    """Run the whole model; optionally return every layer's output.

    Without ``keep_all`` the pass reuses the arrays it owns: it drops
    each layer's output right after that output's last consumer runs,
    and a layer that is the only consumer of an owned output in the
    graph gets it with ``consume`` (``forward_layer``), so a relu or
    tanh writes over it.  The handover is read from the graph, not from
    the consumers still to run: a view's consumers read its input's
    array after the view layer has run, so an output with a view among
    its consumers is never handed over.  The outputs are the same bytes
    either way; only the peak memory of a pass falls to the arrays
    still in use.

    * Never owned: the caller's arrays (``x``, and so whatever the
      input layer reads) and the outputs of ``reshape`` and
      ``flatten``, which are views of their input.
    * Owned: the output of every other kind, a new array (``add`` and
      ``concat`` take at least 2 inputs; conv, fc, pool, ``tt_core``,
      batchnorm and depthwise allocate their output).
    * ``model.output`` is never released or overwritten, and with
      ``keep_all`` nothing is: the returned dict holds each layer's own
      output, each conv's before its activation.
    """
    outputs = {}
    fanout = collections.Counter(src for src, _ in model.edges)
    # owned outputs with one consumer and no other use, handed to it
    handover = set() if keep_all else {
        l.name for l in model.layers if l.kind not in _VIEW_KINDS
        and fanout[l.name] == 1 and l.name != model.output}
    # consumers still to run per output; the caller is the last one of
    # the model output
    pending = fanout.copy()
    pending[model.output] += 1
    for layer in model.layers:
        preds = model.predecessors(layer.name)   # none for the input layer
        ins = [outputs[p] for p in preds] or [x]
        consume = len(preds) == 1 and preds[0] in handover
        outputs[layer.name] = forward_layer(layer, weights, ins,
                                            consume=consume)
        if not keep_all:
            for p in preds:
                pending[p] -= 1
                if not pending[p]:
                    del outputs[p]
    if keep_all:
        return outputs[model.output], outputs
    return outputs[model.output]


def forward_factorized(fact, inputs):
    """Chain a factorized layer's sub-layers over a batch, on the float32
    weights that ship (``fact.shipped``)."""
    x = inputs
    for sub in fact.sub_layers:
        x = forward_layer(sub, fact.shipped, x)
    return x


def _row_cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine of each sample of ``a`` with the same sample of ``b``.

    Each dot and norm is a stacked (1, n) @ (n, 1) product in float64,
    so a sample scores the same bytes alone as in a batch.  A zero-norm
    sample scores 0 (with a warning): a dead output is treated as
    maximally dissimilar rather than undefined, so it can never satisfy
    a freeze threshold by accident.
    """
    rows = len(a)
    a = np.asarray(a, dtype=np.float64).reshape(rows, 1, -1)
    b = np.asarray(b, dtype=np.float64).reshape(rows, 1, -1)
    dots = np.matmul(a, b.reshape(rows, -1, 1)).ravel()
    na = np.sqrt(np.matmul(a, a.reshape(rows, -1, 1)).ravel())
    nb = np.sqrt(np.matmul(b, b.reshape(rows, -1, 1)).ravel())
    dead = (na == 0.0) | (nb == 0.0)
    if dead.any():
        warnings.warn("cosine of a zero vector scored as 0", RuntimeWarning,
                      stacklevel=3)
    return np.divide(dots, na * nb, out=np.zeros(rows), where=~dead)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two flattened vectors; a zero-norm side
    scores 0 (see ``_row_cosines``)."""
    av = np.asarray(a, dtype=np.float64).ravel()
    bv = np.asarray(b, dtype=np.float64).ravel()
    if av.shape != bv.shape:
        raise ShapeError(f"cosine on unequal lengths {av.size} != {bv.size}")
    return float(_row_cosines(av[None], bv[None])[0])


@dataclass
class FeatureMapCapture:
    """Per-layer reference activations from one pass of the original model.

    For every target layer: the batch that entered it and the batch
    that left its post-op chain.  Keeps the model and weights around
    so factorized candidates can replay the same post-ops.
    """

    model: ModelDesc
    weights: WeightStore
    inputs: dict = field(default_factory=dict)
    references: dict = field(default_factory=dict)

    def reference_point(self, layer: LayerDesc) -> str:
        return layer.post_ops[-1] if layer.post_ops else layer.name


def capture_feature_maps(model: ModelDesc, weights: WeightStore,
                         samples: np.ndarray, targets=None) -> FeatureMapCapture:
    """Record each target layer's input and post-op output batches.

    The targets default to every layer that some method factors.
    """
    if targets is None:
        targets = [l.name for l in model.layers if applicable_methods(l)]
    capture = FeatureMapCapture(model, weights)
    _, outputs = forward_model(model, weights, samples, keep_all=True)
    for name in targets:
        layer = model.layer(name)
        if name == model.input:
            capture.inputs[name] = samples
        else:
            preds = model.predecessors(name)
            capture.inputs[name] = outputs[preds[0]]
        capture.references[name] = outputs[capture.reference_point(layer)]
    return capture


def layer_similarity(fact, capture: FeatureMapCapture) -> float:
    """Batch-mean cosine between a factorized layer and its reference.

    The chain runs on its float32 ``shipped`` weights, and its output
    passes through the same post-ops as the original before comparison.
    """
    name = fact.source
    if name not in capture.inputs:
        raise ShapeError(f"capture has no entry for layer {name!r}")
    layer = capture.model.layer(name)
    # every chain ends in a weighted stage (then a reshape view of it,
    # for t3f), so ``out`` never aliases the capture and the post-ops
    # may write over it
    out = forward_factorized(fact, capture.inputs[name])
    for op_name in layer.post_ops:
        op = capture.model.layer(op_name)
        out = forward_layer(op, capture.weights, out, consume=True)
    ref = capture.references[name]
    if out.shape != ref.shape:
        raise ShapeError(f"{name}: factorized output {out.shape} does not "
                         f"match reference {ref.shape}")
    return float(np.mean(_row_cosines(out, ref)))


def sample_dataset(dataset: WeightStore, count: int, seed: int):
    """Seeded subset of the container's inputs (and labels when present)."""
    if DATASET_INPUTS not in dataset:
        raise ShapeError(f"dataset has no {DATASET_INPUTS!r} record")
    inputs = dataset[DATASET_INPUTS]
    total = inputs.shape[0]
    if not total:
        raise ShapeError("dataset has no inputs")
    take = min(count, total)
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(total, size=take, replace=False))
    labels = dataset[DATASET_LABELS][idx] if DATASET_LABELS in dataset else None
    return inputs[idx], labels
