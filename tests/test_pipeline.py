"""Property test of the whole pipeline on seeded random small nets.

Each seed draws a net: a 1-, 2- or 3-d conv with stride 1 or 2, same or
valid padding, an optional batchnorm and a relu or tanh, an optional max
or average pool, then an add branch, a concat branch or a plain conv,
and two fc layers.  Every conv:fc method pair runs ``run_dse`` on it,
and ``hybrid_combine`` joins the runs that finish.  Only invariants are
checked, no bytes, so a change that moves digits keeps this test.
"""

import itertools

import numpy as np
import pytest

from lowrank.costs import (CONV_METHODS, FC_METHODS, check_ranks,
                           cost_factorized, method_applies, model_breakdown)
from lowrank.dse import (BuiltinEvaluator, DseConfig, hybrid_combine,
                         iteration_bound, run_dse, select_target_layers)
from lowrank.errors import ConstraintUnreachableError, RankError
from lowrank.ir import (DATASET_INPUTS, DATASET_LABELS, LayerDesc, ModelDesc,
                        WeightStore, check_weights)
from lowrank.similarity import (forward_factorized, forward_layer,
                                forward_model)

SEEDS = range(10)   # 2 and 4 draw the residual add, 9 the plain chain
CONFIG = dict(step_size=20.0, max_sol=2, sample_count=8,
              accuracy_drop_limit=0.35)


def random_net(seed: int):
    """A seeded small net, its weights and a dataset labeled by it."""
    rng = np.random.default_rng(seed)
    layers, edges, records = [], [], {}
    shapes = {}

    def add(layer, *preds, weight_scale=0.5):
        layers.append(layer)
        edges.extend((pred, layer.name) for pred in preds)
        shapes[layer.name] = layer.out_shape([shapes[p] for p in preds]
                                             or [input_shape])
        if layer.kind == "batchnorm":
            width = shapes[layer.name][-1]
            for part, values in (("scale", rng.uniform(0.5, 1.5, width)),
                                 ("shift", rng.standard_normal(width)),
                                 ("mean", rng.standard_normal(width) * 0.1),
                                 ("var", rng.uniform(0.5, 1.5, width))):
                records[f"{layer.name}/{part}"] = values.astype(np.float32)
        elif layer.weight_shape() is not None:
            records[layer.name] = (rng.standard_normal(layer.weight_shape())
                                   * weight_scale).astype(np.float32)
        return layer.name

    def choice(options):
        return options[int(rng.integers(len(options)))]

    dims = int(rng.integers(1, 4))
    kind = f"conv{dims}d"
    input_shape = (choice({1: (12, 16), 2: (7, 8), 3: (4, 5)}[dims]),) \
        * dims + (int(rng.integers(2, 5)),)
    post = ("b1", "a1") if rng.random() < 0.5 else ("a1",)
    last = add(LayerDesc(name="c1", kind=kind,
                         kernel=(choice((2, 3)),) * dims,
                         stride=(choice((1, 2)),) * dims,
                         padding=choice(("same", "valid")),
                         in_channels=input_shape[-1],
                         out_channels=int(rng.integers(4, 9)),
                         post_ops=post))
    if "b1" in post:
        last = add(LayerDesc(name="b1", kind="batchnorm"), last)
    last = add(LayerDesc(name="a1", kind="activation",
                         fn=choice(("relu", "tanh"))), last)
    if min(shapes[last][:-1]) >= 2 and rng.random() < 0.5:
        last = add(LayerDesc(name="p1", kind="pool", mode=choice(("max",
                                                                  "avg")),
                             kernel=(2,) * dims), last)
    width = shapes[last][-1]
    branch = choice(("add", "concat", "plain"))
    if branch == "plain" and rng.random() < 0.5:
        branch = "residual"   # the plain chain with a residual add
    outs = []
    for name in ("c2", "c3") if branch in ("add", "concat") else ("c2",):
        channels = width if branch == "add" or not outs else \
            int(rng.integers(3, 7))
        conv = add(LayerDesc(name=name, kind=kind,
                             kernel=(choice((1, 3)),) * dims,
                             in_channels=width, out_channels=channels,
                             post_ops=(f"r{name[1]}",)), last)
        outs.append(add(LayerDesc(name=f"r{name[1]}", kind="activation",
                                  fn=choice(("relu", "tanh"))), conv))
    if branch == "residual":
        # the add reads c2 beside its activation r2: an activation's
        # input with a second consumer
        outs = [add(LayerDesc(name="m", kind="add"), *outs, "c2")]
    elif branch != "plain":
        outs = [add(LayerDesc(name="m", kind=branch), *outs)]
    last = add(LayerDesc(name="fl", kind="flatten"), *outs)
    hidden = choice((6, 8, 9, 10, 12))
    last = add(LayerDesc(name="f1", kind="fc",
                         in_channels=int(np.prod(shapes[last])),
                         out_channels=hidden, post_ops=("a3",)), last,
               weight_scale=0.2)
    last = add(LayerDesc(name="a3", kind="activation", fn="relu"), last)
    add(LayerDesc(name="f2", kind="fc", in_channels=hidden,
                  out_channels=choice((4, 6, 7))), last)
    model = ModelDesc(layers=layers, edges=edges, input="c1", output="f2",
                      metadata={"input_shape": list(input_shape)})
    weights = WeightStore(records)
    x = rng.standard_normal((16,) + input_shape).astype(np.float32)
    labels = forward_model(model, weights, x).argmax(axis=1)
    dataset = WeightStore({DATASET_INPUTS: x,
                           DATASET_LABELS: labels.astype(np.float32)})
    return model, weights, dataset


class Counting(BuiltinEvaluator):
    """The builtin evaluator, counting its calls."""

    calls = 0

    def __call__(self, model, weights):
        self.calls += 1
        return super().__call__(model, weights)


def check_result(result, model, weights, dataset, evaluator):
    """The invariants of one finished run or hybrid."""
    input_shape = tuple(model.metadata["input_shape"])
    in_shapes = model.input_shapes(input_shape)
    check_weights(result.model, result.weights)
    assert evaluator(result.model, result.weights) == result.final_accuracy

    before = model_breakdown(model, input_shape)
    after = model_breakdown(result.model, input_shape)
    _, inputs = forward_model(model, weights, dataset[DATASET_INPUTS],
                              keep_all=True)
    for metric in ("params", "flops"):
        assert after["total"].get(metric) == before["total"].get(metric) - sum(
            before["layers"][name].get(metric) - result.layer_costs[name]
            .get(metric) for name in result.targets)
    for name in result.targets:
        layer, fact = model.layer(name), result.solutions[name]
        original = before["layers"][name]
        if fact is None:
            assert result.layer_costs[name] == original
            continue
        check_ranks(layer, fact.method, fact.ranks, fact.plan)
        assert cost_factorized(layer, fact.method, fact.ranks,
                               in_shapes[name], plan=fact.plan) \
            == result.layer_costs[name]
        assert result.layer_costs[name].params < original.params
        assert result.layer_costs[name].flops < original.flops
        x = inputs[model.predecessors(name)[0]] if model.predecessors(name) \
            else dataset[DATASET_INPUTS]
        dense = forward_layer(layer, {name: fact.reconstruct()}, x)
        chain = forward_factorized(fact, x)
        assert chain.shape == dense.shape
        scale = max(1.0, float(np.abs(dense).max()))
        assert float(np.abs(chain - dense).max()) <= 1e-4 * scale, name
        # the scored chain is the shipped chain
        shipped = x
        for sub in fact.sub_layers:
            shipped = forward_layer(result.model.layer(sub.name),
                                    result.weights, shipped)
        assert chain.tobytes() == shipped.tobytes(), name

    loaded = (ModelDesc.from_json(result.model.to_json()),
              WeightStore.from_bytes(result.weights.to_bytes()))
    x = dataset[DATASET_INPUTS]
    assert forward_model(*loaded, x).tobytes() == \
        forward_model(result.model, result.weights, x).tobytes()


# a relu that kills every output of a rank-one chain scores 0, with a warning
@pytest.mark.filterwarnings("ignore:cosine of a zero vector")
@pytest.mark.parametrize("seed", SEEDS)
def test_every_method_pair_keeps_the_pipeline_invariants(seed):
    model, weights, dataset = random_net(seed)
    config = DseConfig(seed=seed, **CONFIG)
    input_shape = tuple(model.metadata["input_shape"])
    targets = select_target_layers(model, input_shape, config.objective,
                                   config.target_fraction)
    bound = iteration_bound(config.step_size, len(targets))
    runs = {}
    for conv_method, fc_method in itertools.product(CONV_METHODS, FC_METHODS):
        evaluator = Counting(dataset)
        planless = [name for name in targets
                    if model.layer(name).kind == "fc"
                    and not method_applies(model.layer(name), fc_method)]
        try:
            result = run_dse(model, weights, dataset, config, evaluator,
                             conv_method=conv_method, fc_method=fc_method)
        except RankError as exc:
            # t3f on a target fc whose widths do not both split
            assert planless and "no factorization plan" in str(exc)
            continue
        except ConstraintUnreachableError as exc:
            assert not planless
            assert 1 < evaluator.calls <= 1 + bound
            assert len(exc.best[2]) <= bound
            continue
        assert not planless
        assert 1 < evaluator.calls <= 1 + bound  # the baseline, then each model
        assert len(result.audit) <= bound
        assert result.success and result.targets == targets
        check_result(result, model, weights, dataset, evaluator)
        runs[f"{conv_method}+{fc_method}"] = result
    if len(runs) >= 2:
        hybrid = hybrid_combine(runs, config.objective)
        evaluator = BuiltinEvaluator(dataset)
        hybrid.final_accuracy = evaluator(hybrid.model, hybrid.weights)
        check_result(hybrid, model, weights, dataset, evaluator)
        for name in targets:
            assert hybrid.layer_costs[name].params == min(
                run.layer_costs[name].params for run in runs.values())


@pytest.mark.parametrize("seed", SEEDS)
def test_forward_reuses_only_the_buffers_it_owns(seed):
    # add and concat branches, a flatten view, a layer feeding two convs
    # and a residual add that reads c2 beside its activation r2: the pass
    # that releases and writes over its own outputs gives the bytes of
    # the pass that keeps them all, and never writes ``x``.
    model, weights, dataset = random_net(seed)
    x = np.array(dataset[DATASET_INPUTS])   # writable, unlike the store's
    before = x.tobytes()
    kept, outputs = forward_model(model, weights, x, keep_all=True)
    assert forward_model(model, weights, x).tobytes() == kept.tobytes()
    assert x.tobytes() == before
    for layer in model.layers:
        ins = [outputs[p] for p in model.predecessors(layer.name)] or [x]
        assert outputs[layer.name].tobytes() == \
            forward_layer(layer, weights, ins).tobytes(), layer.name
