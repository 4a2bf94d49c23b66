"""The benchmark's trace sites still name library functions.

``perfbench/spans.py`` wraps library functions at the module attributes
where the library looks them up at call time.  A site whose attribute
is renamed away, or that the library stops calling through, drops out
of the traced per-layer metrics without any error.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from lowrank import explore, similarity
from lowrank.dse import DseConfig, run_dse
from lowrank.costs import t3f_plans
from lowrank.decompose import decompose_layer
from lowrank.ir import LayerDesc

from conftest import labeled_dataset, small_conv_net

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _sites():
    return [(module, attribute) for module, attribute, _ in _spans().SITES]


@pytest.mark.parametrize("module, attribute", _sites())
def test_site_resolves_to_a_callable(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute, None))


def test_explore_costs_only_census_best_members_through_its_site(monkeypatch):
    # enumeration and bucket members read their costs from the rank
    # families; a census costs one solution, its best member, per
    # non-empty bucket through the checked site
    calls = []
    original = explore.cost_factorized

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(explore, "cost_factorized", counted)
    conv = LayerDesc(name="c", kind="conv2d", kernel=(3, 3), in_channels=4,
                     out_channels=6)
    fc = LayerDesc(name="f", kind="fc", in_channels=400, out_channels=120)
    for layer, method in ((conv, "tt"), (fc, "t3f")):
        calls.clear()
        assert len(list(explore.iter_solutions(layer, method, limit=5))) == 5
        assert explore.solutions_at_ratio(layer, method, 60)
        assert calls == []
        result = explore.census(layer, method, (0, 25, 60, 85, 99))
        filled = sum(bucket.count > 0 for bucket in result.buckets)
        assert calls == [method] * filled and filled


def test_every_forward_path_calls_the_forward_site(monkeypatch):
    # the per-kind similarity.forward_layer.* metrics read 0 if a path
    # runs a kernel without going through the wrapped attribute
    calls = []
    original = similarity.forward_layer

    def counted(layer, *args, **kwargs):
        calls.append(layer.name)
        return original(layer, *args, **kwargs)

    monkeypatch.setattr(similarity, "forward_layer", counted)
    model, weights = small_conv_net()
    x = np.random.default_rng(0).standard_normal((2, 8, 8, 3)) \
        .astype(np.float32)
    layer_names = [layer.name for layer in model.layers]
    similarity.forward_model(model, weights, x)
    assert calls == layer_names
    calls.clear()
    capture = similarity.capture_feature_maps(model, weights, x)
    assert calls == layer_names
    for name, method, ranks, plan in (
            ("c2", "tt", (2, 3, 4), None),
            ("f1", "t3f", (2,), t3f_plans(model.layer("f1"))[0])):
        layer = model.layer(name)
        fact = decompose_layer(layer, np.asarray(weights[name]), method,
                               ranks, plan=plan)
        sub_names = [sub.name for sub in fact.sub_layers]
        calls.clear()
        similarity.forward_factorized(fact, capture.inputs[name])
        assert calls == sub_names
        calls.clear()
        similarity.layer_similarity(fact, capture)
        assert calls == sub_names + list(layer.post_ops)


def test_the_search_span_names_each_bucket_call_by_its_method(monkeypatch):
    # the per-layer explore.solutions_at_ratio.<method> metrics name each
    # call by its (layer, method) arguments: a search that called through
    # another name or signature would read 0 there
    (name_of,) = [name for module, attribute, name in _spans().SITES
                  if (module, attribute) == ("lowrank.explore",
                                             "solutions_at_ratio")]
    calls, built = [], []
    original, build = explore.solutions_at_ratio, explore._families

    def recorded(*args, **kwargs):
        calls.append((args[0].kind, name_of(args, kwargs)))
        return original(*args, **kwargs)

    def families(layer, method, *args, **kwargs):
        built.append((layer.name, method))
        return build(layer, method, *args, **kwargs)

    monkeypatch.setattr(explore, "solutions_at_ratio", recorded)
    monkeypatch.setattr(explore, "_families", families)
    model, weights = small_conv_net()
    accuracies = iter([1.0, 0.0, 0.0])  # the baseline, then two misses

    def evaluator(model, weights):
        return next(accuracies, 1.0)

    config = DseConfig(target_fraction=1.0, sample_count=8, step_size=20.0,
                       sim_threshold_sequential=1.0,
                       sim_threshold_nonsequential=1.0)
    run_dse(model, weights, labeled_dataset(model, weights, count=8), config,
            evaluator, conv_method="tt", fc_method="t3f")
    assert {kind for kind, _ in calls} == {"conv2d", "fc"}
    for kind, name in calls:
        method = "t3f" if kind == "fc" else "tt"
        assert name == f"explore.solutions_at_ratio.{method}"
    # one family build per target, however many steps it takes
    assert sorted(built) == [("c1", "tt"), ("c2", "tt"), ("f1", "t3f")]
    assert len(calls) > len(built)
