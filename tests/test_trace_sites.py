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
from lowrank.costs import t3f_plans
from lowrank.decompose import decompose_layer
from lowrank.ir import LayerDesc

from conftest import small_conv_net

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _sites():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attribute) for module, attribute, _ in spans.SITES]


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
