"""Rank-selection search and per-layer hybrid combination.

The toy net plants a different kind of low-rank structure in each layer:
the first conv factors across the channel pair (Tucker-friendly), the second
is a sum of two pure outer products (CP-friendly), and the fc matrix has
exact rank 2. The search loop runs twice, once with Tucker-2 + SVD and once
with CP + pivoted QR; each starts every layer at rank one and backs off until
the accuracy bound holds, freezing layers whose feature maps already match.
The hybrid step then picks, layer by layer, the cheaper of the two runs and
ends up smaller than either.
"""

import numpy as np

from lowrank import (BuiltinEvaluator, DseConfig, LayerDesc, ModelDesc,
                     WeightStore, forward_model, hybrid_combine,
                     model_breakdown, run_dse)
from lowrank.ir import DATASET_INPUTS, DATASET_LABELS


def toy_net(seed=7, side=8):
    rng = np.random.default_rng(seed)
    layers = [
        LayerDesc(name="c1", kind="conv2d", kernel=(3, 3), in_channels=3,
                  out_channels=8, padding="same", post_ops=("a1",)),
        LayerDesc(name="a1", kind="activation", fn="relu"),
        LayerDesc(name="p1", kind="pool", mode="max", kernel=(2, 2)),
        LayerDesc(name="c2", kind="conv2d", kernel=(3, 3), in_channels=8,
                  out_channels=12, padding="same", post_ops=("a2",)),
        LayerDesc(name="a2", kind="activation", fn="relu"),
        LayerDesc(name="fl", kind="flatten"),
        LayerDesc(name="f1", kind="fc", in_channels=(side // 2) ** 2 * 12,
                  out_channels=10),
    ]
    edges = [("c1", "a1"), ("a1", "p1"), ("p1", "c2"), ("c2", "a2"),
             ("a2", "fl"), ("fl", "f1")]
    model = ModelDesc(layers=layers, edges=edges, input="c1", output="f1",
                      metadata={"input_shape": [side, side, 3]})
    # c1: dense kernel pattern times a rank-one channel map
    c1 = np.einsum("ij,c,f->ijcf", rng.standard_normal((3, 3)),
                   rng.standard_normal(3), rng.standard_normal(8)) * 0.4
    # c2: sum of two pure outer products across all four modes
    c2 = sum(np.einsum("i,j,c,f->ijcf", rng.standard_normal(3),
                       rng.standard_normal(3), rng.standard_normal(8),
                       rng.standard_normal(12)) for _ in range(2)) * 0.2
    # f1: exactly rank 2
    f1 = (rng.standard_normal(((side // 2) ** 2 * 12, 2))
          @ rng.standard_normal((2, 10))) * 0.1
    return model, WeightStore({"c1": c1, "c2": c2, "f1": f1})


model, weights = toy_net()
shape = tuple(model.metadata["input_shape"])

# label random inputs with the model itself, so the baseline accuracy is 1.0
rng = np.random.default_rng(3)
x = rng.standard_normal((48,) + shape).astype(np.float32)
labels = np.argmax(forward_model(model, weights, x), axis=1)
dataset = WeightStore({DATASET_INPUTS: x,
                       DATASET_LABELS: labels.astype(np.float32)})

# coarse census tolerance: tiny layers have coarse rank grids, and the
# strict freeze thresholds only lock a layer when its map is reproduced
config = DseConfig(objective="params", accuracy_drop_limit=0.02,
                   step_size=25.0, sample_count=16, seed=0, tol=0.05,
                   sim_threshold_sequential=0.9999,
                   sim_threshold_nonsequential=0.9999)
# one evaluator for every run: it scores each distinct model once, the
# original included
evaluator = BuiltinEvaluator(dataset)
base = model_breakdown(model, shape)["total"].params

runs = {}
for conv_m, fc_m in [("tucker2", "svd"), ("cp", "qr")]:
    res = run_dse(model, weights, dataset, config, evaluator,
                  conv_method=conv_m, fc_method=fc_m)
    runs[f"{conv_m}+{fc_m}"] = res
    total = model_breakdown(res.model, shape)["total"].params
    print(f"{conv_m}+{fc_m}: success={res.success} "
          f"accuracy {res.baseline_accuracy:.3f} -> {res.final_accuracy:.3f} "
          f"params {base} -> {total}")
    for entry in res.audit:
        cells = ", ".join(
            f"{n} r={d['ranks']} p={d['objective_value']}"
            for n, d in entry["layers"].items())
        print(f"  iteration {entry['iteration']}: "
              f"accuracy {entry['accuracy']:.3f}  {cells}")

combined = hybrid_combine(runs, objective="params")
total = model_breakdown(combined.model, shape)["total"].params
acc = evaluator(combined.model, combined.weights)
sources = combined.audit[0]["hybrid"]
picks = ", ".join(f"{n}<-{info['source']}" for n, info in sources.items())
print(f"\nhybrid: params {base} -> {total}, accuracy {acc:.3f}")
print(f"per-layer sources: {picks}")
