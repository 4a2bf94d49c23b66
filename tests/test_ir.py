import json
import warnings

import numpy as np
import pytest

from lowrank.costs import cost_factorized, cost_original, model_breakdown
from lowrank.errors import FormatError, GraphError, ShapeError
from lowrank.explore import count_valid
from lowrank.ir import (LayerDesc, ModelDesc, WeightStore, check_weights,
                        conv_out_length)
from lowrank.similarity import forward_model

from conftest import fc_into_batchnorm, small_conv_net

rng = np.random.default_rng(3)


class TestConvOutLength:
    def test_same_padding_ceil(self):
        assert conv_out_length(16, 3, 1, "same") == 16
        assert conv_out_length(16, 3, 2, "same") == 8
        assert conv_out_length(15, 3, 2, "same") == 8
        assert conv_out_length(5, 2, 2, "same") == 3

    def test_valid_padding_floor(self):
        assert conv_out_length(16, 3, 1, "valid") == 14
        assert conv_out_length(16, 3, 2, "valid") == 7
        assert conv_out_length(5, 5, 1, "valid") == 1

    def test_hand_checked_grid(self):
        # (x, k, s) -> output positions counted by sliding a window by hand
        cases = {(7, 3, 1): (7, 5), (7, 3, 3): (3, 2), (9, 2, 2): (5, 4)}
        for (x, k, s), (same, valid) in cases.items():
            assert conv_out_length(x, k, s, "same") == same
            assert conv_out_length(x, k, s, "valid") == valid

    @pytest.mark.parametrize("x", [0, -2])
    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_extent_below_one_raises(self, x, padding):
        with pytest.raises(ShapeError):
            conv_out_length(x, 3, 1, padding)

    @pytest.mark.parametrize("x", [8.5, 8.0, "8", None])
    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_extent_not_an_integer_raises(self, x, padding):
        with pytest.raises(ShapeError, match="is not an integer"):
            conv_out_length(x, 3, 1, padding)

    def test_numpy_integer_extent(self):
        assert conv_out_length(np.int64(15), 3, 2, "same") == 8

    @pytest.mark.parametrize("x", [True, False])
    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_bool_extent_raises(self, x, padding):
        # a bool is an int to Python, but not an extent
        with pytest.raises(ShapeError,
                           match=f"^input extent {x} is not an integer$"):
            conv_out_length(x, 1, 1, padding)
        layer = LayerDesc(name="c1", kind="conv2d", kernel=(1, 1),
                          padding=padding, in_channels=8, out_channels=16)
        with pytest.raises(ShapeError,
                           match=f"^c1: input extent {x} is not an integer$"):
            layer.out_shape([(x, x, 8)])


class TestInputExtents:
    """``out_shape`` is the one input check: an input extent below 1
    raises ShapeError wherever a conv is costed, counted or run."""

    CONV = LayerDesc(name="c", kind="conv2d", kernel=(3, 3), in_channels=8,
                     out_channels=16)
    SHAPES = pytest.mark.parametrize("shape", [(0, 0, 8), (-2, 4, 8)])

    @SHAPES
    def test_out_shape(self, shape):
        with pytest.raises(ShapeError):
            self.CONV.out_shape([shape])

    @pytest.mark.parametrize("padding, shape, message", [
        ("same", (0, 4, 8), "c1: input extent 0 below 1"),
        ("valid", (2, 4, 8), "c1: window 3 larger than input extent 2"),
        ("same", (8.5, 4, 8), "c1: input extent 8.5 is not an integer")])
    def test_extent_errors_name_the_layer(self, padding, shape, message):
        layer = LayerDesc(name="c1", kind="conv2d", kernel=(3, 3),
                          padding=padding, in_channels=8, out_channels=16)
        with pytest.raises(ShapeError) as err:
            layer.out_shape([shape])
        assert str(err.value) == message

    @SHAPES
    def test_cost_original(self, shape):
        with pytest.raises(ShapeError):
            cost_original(self.CONV, shape)

    @SHAPES
    @pytest.mark.parametrize("method, ranks", [
        ("tucker2", (2, 2)), ("cp", (2,)), ("tt", (2, 2, 2))])
    def test_cost_factorized(self, shape, method, ranks):
        with pytest.raises(ShapeError):
            cost_factorized(self.CONV, method, ranks, shape)

    @SHAPES
    @pytest.mark.parametrize("method", ["tucker2", "cp", "tt"])
    def test_count_valid(self, shape, method):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeError):
                count_valid(self.CONV, method, shape)

    @pytest.mark.parametrize("shape", [(8.5, 8, 8), ("8", 8, 8)])
    def test_non_integer_extent(self, shape):
        with pytest.raises(ShapeError, match="is not an integer"):
            self.CONV.out_shape([shape])
        with pytest.raises(ShapeError, match="is not an integer"):
            cost_original(self.CONV, shape)
        with pytest.raises(ShapeError, match="is not an integer"):
            model_breakdown(small_conv_net()[0], shape[:2] + (3,))

    @pytest.mark.parametrize("extents", [(0, 0), (0, 4)])
    def test_forward_model(self, extents):
        model = ModelDesc(layers=[self.CONV], edges=[], input="c",
                          output="c")
        weights = WeightStore({"c": np.ones((3, 3, 8, 16), np.float32)})
        with pytest.raises(ShapeError):
            forward_model(model, weights,
                          np.ones((2, *extents, 8), np.float32))


class TestLayerDesc:
    def test_conv_defaults(self):
        layer = LayerDesc(name="c", kind="conv2d", kernel=(3, 3),
                          in_channels=4, out_channels=8)
        assert layer.stride == (1, 1)
        assert layer.padding == "same"
        assert layer.groups == 1
        assert layer.weight_shape() == (3, 3, 4, 8)

    def test_conv_kernel_rank_checked(self):
        with pytest.raises(ShapeError):
            LayerDesc(name="c", kind="conv2d", kernel=(3,),
                      in_channels=4, out_channels=8)

    @pytest.mark.parametrize("kind, extra", [
        ("conv2d", {"in_channels": 4, "out_channels": 8}),
        ("depthwise_conv", {"in_channels": 4}),
        ("pool", {"mode": "max"})])
    def test_stride_rank_checked(self, kind, extra):
        with pytest.raises(ShapeError, match="stride rank"):
            LayerDesc(name="l", kind=kind, kernel=(3, 3), stride=(2,), **extra)

    @pytest.mark.parametrize("kind, fields, bad", [
        ("conv2d", {"kernel": (3, 3), "stride": (1, 0), "in_channels": 4,
                    "out_channels": 8}, "stride"),
        ("pool", {"kernel": (2, 2), "stride": (0, 0), "mode": "max"},
         "stride"),
        ("depthwise_conv", {"kernel": (3, 3), "stride": (0, 1),
                            "in_channels": 4}, "stride"),
        ("conv2d", {"kernel": (3, 0), "in_channels": 4, "out_channels": 8},
         "kernel"),
        ("conv1d", {"kernel": (3,), "in_channels": -4, "out_channels": -8},
         "in_channels"),
        ("conv2d", {"kernel": (3, 3), "in_channels": 4, "out_channels": 0},
         "out_channels"),
        ("fc", {"in_channels": 18, "out_channels": -3}, "out_channels"),
        ("pool", {"kernel": (-2, 2), "mode": "avg"}, "kernel"),
        ("depthwise_conv", {"kernel": (3, 3), "in_channels": 0},
         "in_channels"),
        ("tt_core", {"m": 0, "n": 3, "rank_in": 1, "rank_out": 2}, "m"),
        ("tt_core", {"m": 2, "n": -3, "rank_in": 1, "rank_out": 2}, "n"),
        ("tt_core", {"m": 2, "n": 3, "rank_in": 0, "rank_out": 2},
         "rank_in"),
        ("tt_core", {"m": 2, "n": 3, "rank_in": 1, "rank_out": -1},
         "rank_out"),
    ])
    def test_extents_below_one_rejected(self, kind, fields, bad):
        with pytest.raises(ShapeError, match=f"{bad} .* below 1"):
            LayerDesc(name="l", kind=kind, **fields)

    def test_depthwise_preserves_channels(self):
        layer = LayerDesc(name="d", kind="depthwise_conv", kernel=(3, 3),
                          in_channels=6)
        assert layer.out_channels == 6
        assert layer.weight_shape() == (3, 3, 6)
        with pytest.raises(ShapeError):
            LayerDesc(name="d", kind="depthwise_conv", kernel=(3, 3),
                      in_channels=6, out_channels=7)

    def test_group_divisibility(self):
        with pytest.raises(ShapeError):
            LayerDesc(name="c", kind="conv2d", kernel=(3, 3), in_channels=4,
                      out_channels=8, groups=3)

    def test_unknown_kind(self):
        with pytest.raises(ShapeError):
            LayerDesc(name="x", kind="transformer")

    def test_out_shape_conv(self):
        layer = LayerDesc(name="c", kind="conv2d", kernel=(3, 3), stride=(2, 2),
                          in_channels=4, out_channels=8, padding="same")
        assert layer.out_shape([(13, 16, 4)]) == (7, 8, 8)

    def test_out_shape_fc_needs_match(self):
        layer = LayerDesc(name="f", kind="fc", in_channels=10, out_channels=3)
        assert layer.out_shape([(10,)]) == (3,)
        with pytest.raises(ShapeError):
            layer.out_shape([(9,)])

    def test_roundtrip_dict(self):
        layer = LayerDesc(name="c", kind="conv2d", kernel=(5, 5), stride=(2, 2),
                          in_channels=3, out_channels=16, padding="valid",
                          post_ops=("a",))
        again = LayerDesc.from_dict(layer.to_dict())
        assert again == layer

    def test_from_dict_rejects_unknown_field(self):
        with pytest.raises(FormatError):
            LayerDesc.from_dict({"name": "c", "kind": "fc", "in_channels": 2,
                                 "out_channels": 2, "wat": 1})


class TestModelDesc:
    def test_validate_and_shapes(self):
        model, _ = small_conv_net()
        model.validate()
        shapes = model.infer_shapes((8, 8, 3))
        assert shapes["c1"] == (8, 8, 8)
        assert shapes["p1"] == (4, 4, 8)
        assert shapes["fl"] == (192,)
        assert shapes["f1"] == (10,)

    def test_duplicate_names_rejected(self):
        layer = LayerDesc(name="f", kind="fc", in_channels=2, out_channels=2)
        with pytest.raises(GraphError):
            ModelDesc(layers=[layer, layer], edges=[], input="f",
                      output="f").validate()

    def test_edge_order_must_follow_layer_order(self):
        a = LayerDesc(name="a", kind="fc", in_channels=2, out_channels=2)
        b = LayerDesc(name="b", kind="fc", in_channels=2, out_channels=2)
        with pytest.raises(GraphError):
            ModelDesc(layers=[a, b], edges=[("b", "a")], input="b",
                      output="a").validate()

    def test_unreachable_layer_rejected(self):
        a = LayerDesc(name="a", kind="fc", in_channels=2, out_channels=2)
        b = LayerDesc(name="b", kind="fc", in_channels=2, out_channels=2)
        with pytest.raises(GraphError):
            ModelDesc(layers=[a, b], edges=[], input="a",
                      output="a").validate()

    def test_json_roundtrip_bit_exact(self, tmp_path):
        model, _ = small_conv_net()
        path = tmp_path / "m.json"
        model.save(path)
        again = ModelDesc.load(path)
        assert again == model
        assert again.to_json() == model.to_json()

    @pytest.mark.parametrize("breaks,named", [
        (lambda d: d["layers"][0].update(kernel=3), "'c1'"),
        (lambda d: d["layers"][3].update(in_channels="x"), "'c2'"),
        (lambda d: d["layers"][3].update(groups=0), "c2"),
        (lambda d: d["layers"][0].update(stride=[0, 1]), "c1"),
        (lambda d: d["layers"][6].update(out_channels=-3), "f1"),
        (lambda d: d["layers"][6].update(out_channels=True), "'f1'"),
        (lambda d: d["layers"][1].update(post_ops="p1"), "'a1'"),
        (lambda d: d["layers"].append(7), "7"),
        (lambda d: d.update(layers=5), "'layers'"),
        (lambda d: d.update(input=["c1"]), "'input'"),
        (lambda d: d["edges"].append(["c1"]), "['c1']"),
        (lambda d: d["edges"].append("ab"), "'ab'"),
        (lambda d: d["edges"].append(["c1", 2]), "['c1', 2]"),
        (lambda d: d.update(metadata=[1]), "'metadata'"),
        (lambda d: d.update(metadata="abc"), "'metadata'"),
        (lambda d: d.update(metadata=None), "'metadata'"),
    ], ids=["int kernel", "str channels", "zero groups", "zero stride",
            "negative channels", "bool channels",
            "str post_ops", "layer not an object", "layers not a list",
            "input not a name", "edge of one", "edge a string",
            "edge to a number", "metadata a list", "metadata a string",
            "metadata null"])
    def test_from_json_rejects_malformed_fields(self, breaks, named):
        doc = json.loads(small_conv_net()[0].to_json())
        breaks(doc)
        with pytest.raises((FormatError, ShapeError)) as err:
            ModelDesc.from_json(json.dumps(doc))
        assert named in str(err.value)

    def test_metadata_object_is_kept(self):
        doc = json.loads(small_conv_net()[0].to_json())
        doc["metadata"] = {"input_shape": [8, 8, 3], "note": "x"}
        model = ModelDesc.from_json(json.dumps(doc))
        assert model.metadata == doc["metadata"]
        assert ModelDesc.from_json(model.to_json()) == model

    def test_from_json_rejects_a_document_that_is_not_an_object(self):
        with pytest.raises(FormatError):
            ModelDesc.from_json("[1, 2]")

    def test_branching_shapes(self):
        layers = [
            LayerDesc(name="c", kind="conv2d", kernel=(1, 1), in_channels=3,
                      out_channels=4),
            LayerDesc(name="l", kind="conv2d", kernel=(3, 3), in_channels=4,
                      out_channels=4),
            LayerDesc(name="s", kind="add"),
        ]
        model = ModelDesc(layers=layers,
                          edges=[("c", "l"), ("c", "s"), ("l", "s")],
                          input="c", output="s")
        model.validate()
        assert model.infer_shapes((6, 6, 3))["s"] == (6, 6, 4)

    def test_input_shapes(self):
        model, _ = small_conv_net()
        ins = model.input_shapes([8, 8, 3])
        assert ins["c1"] == (8, 8, 3)  # the model input, as a tuple
        assert ins["c2"] == (4, 4, 8)
        assert ins["f1"] == (192,)
        assert list(ins) == [l.name for l in model.layers]


class TestWeightStore:
    def test_arrays_float32_readonly(self):
        store = WeightStore({"w": np.ones((2, 2), dtype=np.float64)})
        assert store["w"].dtype == np.float32
        with pytest.raises(ValueError):
            store["w"][0, 0] = 5

    def test_bytes_roundtrip_bit_exact(self):
        arrays = {"a": rng.standard_normal((3, 4)).astype(np.float32),
                  "zz/b": rng.standard_normal((2, 2, 2)).astype(np.float32)}
        store = WeightStore(arrays)
        again = WeightStore.from_bytes(store.to_bytes())
        assert set(again.names()) == set(arrays)
        for name, arr in arrays.items():
            assert np.array_equal(again[name], arr)
        assert again.to_bytes() == store.to_bytes()

    def test_file_roundtrip(self, tmp_path):
        store = WeightStore({"w": np.arange(6, dtype=np.float32).reshape(2, 3)})
        path = tmp_path / "w.lrfw"
        store.save(path)
        assert np.array_equal(WeightStore.load(path)["w"], store["w"])

    def test_replace_and_drop(self):
        store = WeightStore({"a": np.zeros(2, np.float32),
                             "b": np.ones(2, np.float32)})
        out = store.replace({"c": np.full(2, 2.0, np.float32)}, drop=["a"])
        assert set(out.names()) == {"b", "c"}

    def test_rejects_corrupt_magic(self):
        blob = bytearray(WeightStore({"w": np.zeros(1, np.float32)}).to_bytes())
        blob[:4] = b"XXXX"
        with pytest.raises(FormatError):
            WeightStore.from_bytes(bytes(blob))

    def test_every_cut_inside_a_record_is_a_format_error(self):
        store = WeightStore({"a": np.ones((2, 3), np.float32),
                             "bé": np.zeros(0, np.float32),
                             "c": np.full((), 2.0, np.float32)})
        blob = store.to_bytes()
        ends, at = {8: 0}, 8
        for count, (name, arr) in enumerate(store.items(), 1):
            at += 4 + len(name.encode()) + 4 + 8 * arr.ndim + 4 * arr.size
            ends[at] = count
        assert at == len(blob)
        for cut in range(len(blob)):
            if cut in ends:
                assert len(WeightStore.from_bytes(blob[:cut])) == ends[cut]
            else:
                with pytest.raises(FormatError):
                    WeightStore.from_bytes(blob[:cut])

    def test_rejects_a_name_that_is_not_utf8(self):
        blob = WeightStore({"ab": np.zeros(1, np.float32)}).to_bytes()
        with pytest.raises(FormatError):
            WeightStore.from_bytes(blob.replace(b"ab", b"a\xff"))

    def test_check_weights_flags_shape_mismatch(self):
        model, weights = small_conv_net()
        check_weights(model, weights)
        bad = weights.replace({"c1": np.zeros((3, 3, 3, 9), np.float32)})
        with pytest.raises(ShapeError):
            check_weights(model, bad)
        with pytest.raises(FormatError):
            check_weights(model, weights.replace({}, drop=["f1"]))


class TestBatchnormRecords:
    @pytest.mark.parametrize("shapes", [
        {},
        # one length, but not the input's 6 channels: only a forward pass
        # knows the input
        {part: (3,) for part in ("scale", "shift", "mean", "var")}])
    def test_one_length_1d_records_pass(self, shapes):
        check_weights(*fc_into_batchnorm(**shapes))

    @pytest.mark.parametrize("shapes", [
        {"scale": (1,)}, {"shift": (3,)}, {"var": (6, 1)}, {"mean": ()}])
    def test_other_shapes_are_rejected(self, shapes):
        with pytest.raises(ShapeError, match="batchnorm records"):
            check_weights(*fc_into_batchnorm(**shapes))
