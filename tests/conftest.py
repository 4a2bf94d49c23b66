import numpy as np
import pytest

from lowrank.ir import (DATASET_INPUTS, DATASET_LABELS, LayerDesc, ModelDesc,
                        WeightStore)
from lowrank.similarity import forward_model

# one line per acceptance criterion, echoed after the run ends
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


def small_conv_net(seed=7, height=8, width=8, channels=3):
    """conv -> relu -> pool -> conv -> relu -> flatten -> fc toy net."""
    rng = np.random.default_rng(seed)
    layers = [
        LayerDesc(name="c1", kind="conv2d", kernel=(3, 3), in_channels=channels,
                  out_channels=8, padding="same", post_ops=("a1",)),
        LayerDesc(name="a1", kind="activation", fn="relu"),
        LayerDesc(name="p1", kind="pool", mode="max", kernel=(2, 2)),
        LayerDesc(name="c2", kind="conv2d", kernel=(3, 3), in_channels=8,
                  out_channels=12, padding="same", post_ops=("a2",)),
        LayerDesc(name="a2", kind="activation", fn="relu"),
        LayerDesc(name="fl", kind="flatten"),
        LayerDesc(name="f1", kind="fc",
                  in_channels=(height // 2) * (width // 2) * 12,
                  out_channels=10),
    ]
    edges = [("c1", "a1"), ("a1", "p1"), ("p1", "c2"), ("c2", "a2"),
             ("a2", "fl"), ("fl", "f1")]
    model = ModelDesc(layers=layers, edges=edges, input="c1", output="f1",
                      metadata={"input_shape": [height, width, channels]})
    weights = WeightStore({
        "c1": rng.standard_normal((3, 3, channels, 8)).astype(np.float32) * 0.3,
        "c2": rng.standard_normal((3, 3, 8, 12)).astype(np.float32) * 0.2,
        "f1": rng.standard_normal(((height // 2) * (width // 2) * 12, 10))
              .astype(np.float32) * 0.1,
    })
    return model, weights


def fc_into_batchnorm(**shapes):
    """An fc 4->6 into a batchnorm, with its weights; ``shapes`` maps a
    batchnorm record ("scale", "shift", "mean", "var") to a shape other
    than the channel count (6,)."""
    model = ModelDesc(layers=[
        LayerDesc(name="f", kind="fc", in_channels=4, out_channels=6),
        LayerDesc(name="b", kind="batchnorm")],
        edges=[("f", "b")], input="f", output="b")
    records = {"f": np.ones((4, 6), np.float32)}
    for part in ("scale", "shift", "mean", "var"):
        records[f"b/{part}"] = np.ones(shapes.get(part, (6,)), np.float32)
    return model, WeightStore(records)


def labeled_dataset(model, weights, count=64, seed=7):
    """Random inputs labeled by the model itself, so baseline accuracy is 1."""
    rng = np.random.default_rng(seed)
    shape = tuple(model.metadata["input_shape"])
    x = rng.standard_normal((count,) + shape).astype(np.float32)
    labels = np.argmax(forward_model(model, weights, x), axis=1)
    return WeightStore({DATASET_INPUTS: x,
                        DATASET_LABELS: labels.astype(np.float32)})


@pytest.fixture
def toy_net():
    return small_conv_net()


@pytest.fixture
def toy_dataset(toy_net):
    model, weights = toy_net
    return labeled_dataset(model, weights)
