"""Seeded inputs for the three benchmark workloads.

Everything here is a pure function of the workload seed (and a size
scale used only by the benchmark's own tests), so the same seed always
gives byte-identical inputs.  The library never sees the seed: it only
receives the generated models, weights, datasets and layer shapes.
"""

from __future__ import annotations

import numpy as np

from lowrank.ir import (DATASET_INPUTS, DATASET_LABELS, LayerDesc, ModelDesc,
                        WeightStore)
from lowrank.similarity import forward_model

NOISE = 0.02
# The search net's trained-like structure (Tucker cores, factors and the
# classifier) is one fixed net; the workload seed draws its 2% noise and
# the dataset.  Every seed then searches the same kind of net, so runs on
# different seeds measure the same work, not a different search each.
NET_SEED = 0
# The search dataset: this many seeded inputs, of which the KEPT_INPUTS
# with the largest top-1 margin survive.
DRAWN_INPUTS = 1024
KEPT_INPUTS = 256

# Acceptance layers, shapes as in the repository's acceptance tests.
SPACE_CONV = (
    LayerDesc(name="L1", kind="conv1d", kernel=(3,), in_channels=512,
              out_channels=1024),
    LayerDesc(name="L2", kind="conv2d", kernel=(3, 3), in_channels=256,
              out_channels=512, stride=(2, 2)),
    LayerDesc(name="L3", kind="conv2d", kernel=(3, 3), in_channels=512,
              out_channels=512),
    LayerDesc(name="L4", kind="conv2d", kernel=(5, 5), in_channels=96,
              out_channels=256),
    LayerDesc(name="L5", kind="conv2d", kernel=(3, 3), in_channels=384,
              out_channels=256),
    LayerDesc(name="L6", kind="conv3d", kernel=(3, 3, 3), in_channels=32,
              out_channels=32),
)
SPACE_FC = (
    LayerDesc(name="F1", kind="fc", in_channels=400, out_channels=120),
    LayerDesc(name="F2", kind="fc", in_channels=512, out_channels=512),
    LayerDesc(name="F3", kind="fc", in_channels=512, out_channels=256),
)


def _he(w):
    """``w`` scaled to He variance for its fan-in."""
    fan_in = int(np.prod(w.shape[:-1]))
    return w * (np.sqrt(2.0 / fan_in) / w.std())


def tucker_conv_weight(rng, kernel, c, f):
    """(K.., C, F) conv weight: a Tucker core with channel ranks C/4, F/4."""
    r1, r2 = max(1, c // 4), max(1, f // 4)
    core = rng.standard_normal(tuple(kernel) + (r1, r2))
    a = rng.standard_normal((c, r1))
    b = rng.standard_normal((r2, f))
    return _he(np.einsum("...ij,ci,jf->...cf", core, a, b, optimize=True))


def low_rank_fc_weight(rng, m, n):
    """(M, N) dense weight: a rank min(M, N)/4 product."""
    r = max(1, min(m, n) // 4)
    return _he(rng.standard_normal((m, r)) @ rng.standard_normal((r, n)))


def search_net(seed: int, width: int = 1):
    """The search workload's net and its noisy weights for ``seed``.

    16x16x3 input; conv 3->32, 32->64 (each same, relu, maxpool 2);
    conv 64->128 (same, relu); flatten; fc 2048->256 (relu); fc 256->10.
    ``width`` divides every hidden width (the tests use a narrow net).
    """
    rng = np.random.default_rng([NET_SEED, 1])
    c1, c2, c3, h = 32 // width, 64 // width, 128 // width, 256 // width
    layers = [
        LayerDesc(name="c1", kind="conv2d", kernel=(3, 3), in_channels=3,
                  out_channels=c1, post_ops=("a1", "p1")),
        LayerDesc(name="a1", kind="activation", fn="relu"),
        LayerDesc(name="p1", kind="pool", mode="max", kernel=(2, 2)),
        LayerDesc(name="c2", kind="conv2d", kernel=(3, 3), in_channels=c1,
                  out_channels=c2, post_ops=("a2", "p2")),
        LayerDesc(name="a2", kind="activation", fn="relu"),
        LayerDesc(name="p2", kind="pool", mode="max", kernel=(2, 2)),
        LayerDesc(name="c3", kind="conv2d", kernel=(3, 3), in_channels=c2,
                  out_channels=c3, post_ops=("a3",)),
        LayerDesc(name="a3", kind="activation", fn="relu"),
        LayerDesc(name="fl", kind="flatten"),
        LayerDesc(name="f1", kind="fc", in_channels=4 * 4 * c3,
                  out_channels=h, post_ops=("a4",)),
        LayerDesc(name="a4", kind="activation", fn="relu"),
        LayerDesc(name="f2", kind="fc", in_channels=h, out_channels=10),
    ]
    names = [l.name for l in layers]
    model = ModelDesc(layers=layers, edges=list(zip(names, names[1:])),
                      input="c1", output="f2",
                      metadata={"input_shape": [16, 16, 3]})
    weights = {}
    for layer in layers:
        if layer.kind == "conv2d":
            weights[layer.name] = tucker_conv_weight(
                rng, layer.kernel, layer.in_channels, layer.out_channels)
        elif layer.kind == "fc":
            weights[layer.name] = low_rank_fc_weight(
                rng, layer.in_channels, layer.out_channels)
    noise = np.random.default_rng([seed, 1])
    for name, w in weights.items():
        weights[name] = w + NOISE * w.std() * noise.standard_normal(w.shape)
    # Post-relu features share a large positive mean, which would vote
    # for one class on every input.  Project it out of the classifier, as
    # training would, so that the labels spread over several classes.
    probe = np.random.default_rng([NET_SEED, 4]).standard_normal(
        (256, 16, 16, 3))
    _, acts = forward_model(model, WeightStore(weights),
                            probe.astype(np.float32), keep_all=True)
    mean = acts[model.predecessors(model.output)[0]].mean(axis=0)
    out = weights[model.output]
    weights[model.output] = out - np.outer(mean, mean @ out) / (mean @ mean)
    return model, WeightStore(weights)


def search_dataset(model, weights, seed: int) -> WeightStore:
    """DRAWN_INPUTS seeded inputs labelled by the net's argmax; the
    KEPT_INPUTS with the largest top-1 margin survive."""
    rng = np.random.default_rng([seed, 2])
    x = rng.standard_normal((DRAWN_INPUTS, 16, 16, 3)).astype(np.float32)
    logits = forward_model(model, weights, x)
    top2 = np.sort(logits, axis=1)[:, -2:]
    order = np.argsort(top2[:, 0] - top2[:, 1], kind="stable")[:KEPT_INPUTS]
    idx = np.sort(order)
    labels = logits[idx].argmax(axis=1).astype(np.float32)
    return WeightStore({DATASET_INPUTS: x[idx], DATASET_LABELS: labels})


def _decaying(rng, shape_2d, decay):
    """Matrix with random orthonormal bases and singular values decay**i."""
    m, n = shape_2d
    k = min(m, n)
    u, _ = np.linalg.qr(rng.standard_normal((m, k)))
    v, _ = np.linalg.qr(rng.standard_normal((n, k)))
    s = decay ** np.arange(k)
    return (u * s) @ v.T


def decompose_inputs(seed: int, scale: int = 1):
    """A 3x3x64x128 conv and a 512x256 fc, both with decaying spectra.

    The conv's channel and filter unfoldings both decay (it is built as
    a Tucker core with decaying mode factors); the fc decays in its
    singular values.  ``scale`` divides every channel width.
    """
    rng = np.random.default_rng([seed, 3])
    c, f = 64 // scale, 128 // scale
    m, n = 512 // scale, 256 // scale
    conv = LayerDesc(name="conv", kind="conv2d", kernel=(3, 3),
                     in_channels=c, out_channels=f)
    fc = LayerDesc(name="fc", kind="fc", in_channels=m, out_channels=n)
    core = rng.standard_normal((3, 3, c, f))
    w_conv = np.einsum("xycf,ic,jf->xyij", core,
                       _decaying(rng, (c, c), 0.95),
                       _decaying(rng, (f, f), 0.97), optimize=True)
    w_conv /= np.linalg.norm(w_conv)
    w_fc = _decaying(rng, (m, n), 0.97)
    w_fc /= np.linalg.norm(w_fc)
    return (conv, np.asarray(w_conv, dtype=np.float32)), \
        (fc, np.asarray(w_fc, dtype=np.float32))
