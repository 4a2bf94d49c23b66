import itertools
import warnings
import weakref

import numpy as np
import pytest

from lowrank import similarity
from lowrank.costs import default_plan
from lowrank.decompose import decompose_layer
from lowrank.errors import GraphError, ShapeError
from lowrank.ir import DATASET_INPUTS, DATASET_LABELS, LayerDesc, ModelDesc, \
    WeightStore
from lowrank.similarity import (_pad_input, _windows, capture_feature_maps,
                                cosine, forward_factorized, forward_layer,
                                forward_model, layer_similarity,
                                sample_dataset)

from conftest import fc_into_batchnorm, small_conv_net

rng = np.random.default_rng(21)


def pad_extents(x, k, s, padding):
    """Padding before/after one axis, matching ceil-mode same padding."""
    if padding == "valid":
        return 0, 0
    out = -(-x // s)
    total = max((out - 1) * s + k - x, 0)
    return total // 2, total - total // 2


def naive_conv2d(x, w, stride, padding, groups=1):
    """Direct six-deep loop convolution; the reference semantics."""
    b, hh, ww, cin = x.shape
    k1, k2, cg, f = w.shape
    p1 = pad_extents(hh, k1, stride[0], padding)
    p2 = pad_extents(ww, k2, stride[1], padding)
    xp = np.pad(x, ((0, 0), p1, p2, (0, 0)))
    oh = (xp.shape[1] - k1) // stride[0] + 1
    ow = (xp.shape[2] - k2) // stride[1] + 1
    out = np.zeros((b, oh, ow, f), dtype=np.float64)
    fpg = f // groups
    for bi in range(b):
        for i in range(oh):
            for j in range(ow):
                for fi in range(f):
                    g = fi // fpg
                    patch = xp[bi, i * stride[0]: i * stride[0] + k1,
                               j * stride[1]: j * stride[1] + k2,
                               g * cg: (g + 1) * cg]
                    out[bi, i, j, fi] = np.sum(patch * w[:, :, :, fi])
    return out


def naive_pool2d(x, k, s, mode):
    b, hh, ww, c = x.shape
    oh = (hh - k[0]) // s[0] + 1
    ow = (ww - k[1]) // s[1] + 1
    out = np.zeros((b, oh, ow, c))
    for bi, i, j, ci in itertools.product(range(b), range(oh), range(ow),
                                          range(c)):
        patch = x[bi, i * s[0]: i * s[0] + k[0],
                  j * s[1]: j * s[1] + k[1], ci]
        out[bi, i, j, ci] = patch.max() if mode == "max" else patch.mean()
    return out


def naive_tt_core(x, w):
    """Float64 loop over (b, m, q, n, r, s) of one TT-matrix core."""
    batch, rows, _ = x.shape
    r_in, m, n, r_out = w.shape
    q = rows // m
    out = np.zeros((batch, q, n, r_out))
    for b, mi, qi, ni, r, s in itertools.product(
            range(batch), range(m), range(q), range(n), range(r_in),
            range(r_out)):
        out[b, qi, ni, s] += (float(x[b, mi * q + qi, r])
                              * float(w[r, mi, ni, s]))
    return out.reshape(batch, q * n, r_out)


def padded(x, layer, fill=0.0):
    """``x`` padded for ``layer``'s window sweep."""
    lengths = layer.out_shape([x.shape[1:]])[:-1]
    return _pad_input(x, layer.kernel, layer.stride, lengths, fill=fill)


def window_conv(x, w, layer):
    """The window-view kernel: tensordot over the (C, K..) window axes."""
    dim = len(layer.kernel)
    win = _windows(padded(x, layer), layer.kernel, layer.stride)
    return np.tensordot(win, w, axes=(list(range(1 + dim, 2 + 2 * dim)),
                                      [dim] + list(range(dim))))


def window_grouped_conv(x, w, layer):
    """The window-view grouped conv: one tensordot per channel group."""
    dim = len(layer.kernel)
    win = _windows(padded(x, layer), layer.kernel, layer.stride)
    c_per = x.shape[-1] // layer.groups
    f_per = w.shape[-1] // layer.groups
    head = (slice(None),) * (1 + dim)
    return np.concatenate([
        np.tensordot(win[head + (slice(g * c_per, (g + 1) * c_per),)],
                     w[..., g * f_per:(g + 1) * f_per],
                     axes=(list(range(1 + dim, 2 + 2 * dim)),
                           [dim] + list(range(dim))))
        for g in range(layer.groups)], axis=-1)


def window_depthwise(x, w, layer):
    """The window-view depthwise conv: weighted windows summed over K.."""
    dim = len(layer.kernel)
    win = _windows(padded(x, layer), layer.kernel, layer.stride)
    return (win * np.moveaxis(w, -1, 0)).sum(
        axis=tuple(range(2 + dim, 2 + 2 * dim)))


def window_max_pool(x, layer):
    """The window-view max pool: reduce the K.. window axes."""
    dim = len(layer.kernel)
    return _windows(padded(x, layer, fill=-np.inf), layer.kernel,
                    layer.stride).max(axis=tuple(range(2 + dim, 2 + 2 * dim)))


def window_avg_pool(x, layer):
    """The window-view average pool: window sum over the window's count
    of in-bounds ones."""
    dim = len(layer.kernel)
    k_axes = tuple(range(2 + dim, 2 + 2 * dim))
    total = _windows(padded(x, layer), layer.kernel,
                     layer.stride).sum(axis=k_axes)
    ones = np.ones((1,) + x.shape[1:-1] + (1,), dtype=x.dtype)
    counts = _windows(padded(ones, layer), layer.kernel,
                      layer.stride).sum(axis=k_axes)
    return total / counts


class TestConvOracle:
    @pytest.mark.parametrize("stride", [(1, 1), (2, 2), (2, 1)])
    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_against_loop_nest(self, stride, padding):
        layer = LayerDesc(name="c", kind="conv2d", kernel=(3, 2),
                          in_channels=3, out_channels=4, stride=stride,
                          padding=padding)
        w = rng.standard_normal((3, 2, 3, 4)).astype(np.float32)
        x = rng.standard_normal((2, 7, 6, 3)).astype(np.float32)
        got = forward_layer(layer, WeightStore({"c": w}), [x])
        want = naive_conv2d(x, w, stride, padding)
        assert got.shape == want.shape
        assert np.allclose(got, want, atol=1e-4)

    def test_grouped(self):
        layer = LayerDesc(name="c", kind="conv2d", kernel=(3, 3),
                          in_channels=4, out_channels=6, groups=2)
        w = rng.standard_normal((3, 3, 2, 6)).astype(np.float32)
        x = rng.standard_normal((2, 5, 5, 4)).astype(np.float32)
        got = forward_layer(layer, WeightStore({"c": w}), [x])
        want = naive_conv2d(x, w, (1, 1), "same", groups=2)
        assert np.allclose(got, want, atol=1e-4)

    def test_depthwise_equals_grouped_diag(self):
        layer = LayerDesc(name="d", kind="depthwise_conv", kernel=(3, 3),
                          in_channels=3)
        w = rng.standard_normal((3, 3, 3)).astype(np.float32)
        x = rng.standard_normal((1, 6, 6, 3)).astype(np.float32)
        got = forward_layer(layer, WeightStore({"d": w}), [x])
        dense = np.zeros((3, 3, 3, 3), dtype=np.float32)
        for c in range(3):
            dense[:, :, c, c] = w[:, :, c]
        full = LayerDesc(name="c", kind="conv2d", kernel=(3, 3),
                         in_channels=3, out_channels=3)
        want = forward_layer(full, WeightStore({"c": dense}), [x])
        assert np.allclose(got, want, atol=1e-5)

    def test_hand_example(self):
        # 3x3 input, 2x2 kernel of ones, valid: plain window sums
        layer = LayerDesc(name="c", kind="conv2d", kernel=(2, 2),
                          in_channels=1, out_channels=1, padding="valid")
        x = np.arange(1.0, 10.0, dtype=np.float32).reshape(1, 3, 3, 1)
        w = np.ones((2, 2, 1, 1), dtype=np.float32)
        got = forward_layer(layer, WeightStore({"c": w}), [x])
        assert np.allclose(got[0, :, :, 0], [[12, 16], [24, 28]])

    def test_conv1d_and_conv3d(self):
        l1 = LayerDesc(name="c", kind="conv1d", kernel=(3,), in_channels=2,
                       out_channels=3, padding="valid")
        w1 = rng.standard_normal((3, 2, 3)).astype(np.float32)
        x1 = rng.standard_normal((2, 8, 2)).astype(np.float32)
        got = forward_layer(l1, WeightStore({"c": w1}), [x1])
        want = np.stack(
            [sum(x1[:, i + t, :] @ w1[t] for t in range(3))
             for i in range(6)], axis=1)
        assert np.allclose(got, want, atol=1e-4)

        l3 = LayerDesc(name="c", kind="conv3d", kernel=(2, 2, 2),
                       in_channels=2, out_channels=2, padding="valid")
        w3 = rng.standard_normal((2, 2, 2, 2, 2)).astype(np.float32)
        x3 = rng.standard_normal((1, 3, 3, 3, 2)).astype(np.float32)
        got = forward_layer(l3, WeightStore({"c": w3}), [x3])
        want = np.einsum("bijkc,ijkcf->bf", x3[:, :2, :2, :2], w3)
        assert np.allclose(got[0, 0, 0, 0], want[0], atol=1e-4)


class TestPoolOracle:
    @pytest.mark.parametrize("mode", ["max", "avg"])
    @pytest.mark.parametrize("kernel,stride", [((2, 2), (2, 2)),
                                               ((3, 3), (1, 1))])
    def test_valid_pool(self, mode, kernel, stride):
        layer = LayerDesc(name="p", kind="pool", mode=mode, kernel=kernel,
                          stride=stride, padding="valid")
        x = rng.standard_normal((2, 6, 6, 3)).astype(np.float32)
        got = forward_layer(layer, WeightStore({}), [x])
        want = naive_pool2d(x, kernel, stride, mode)
        assert np.allclose(got, want, atol=1e-5)

    def test_avg_same_padding_ignores_pad(self):
        layer = LayerDesc(name="p", kind="pool", mode="avg", kernel=(2, 2),
                          stride=(2, 2), padding="same")
        x = np.ones((1, 3, 3, 1), dtype=np.float32)
        got = forward_layer(layer, WeightStore({}), [x])
        # averages must stay 1 even where the window hangs off the edge
        assert np.allclose(got, 1.0, atol=1e-6)


class TestKernelBytes:
    """Every windowed kernel gives its window-view formula's bytes."""

    @pytest.mark.parametrize("kind, kernel, stride", [
        ("conv2d", (1, 1), (1, 1)), ("conv2d", (1, 1), (2, 2)),
        ("conv2d", (3, 1), (1, 1)), ("conv2d", (3, 1), (2, 1)),
        ("conv2d", (1, 3), (1, 1)), ("conv2d", (1, 3), (1, 2)),
        ("conv2d", (3, 3), (1, 1)), ("conv2d", (3, 3), (2, 2)),
        ("conv1d", (1,), (2,)), ("conv1d", (3,), (1,)),
        ("conv3d", (1, 1, 1), (1, 1, 1)), ("conv3d", (1, 3, 1), (1, 1, 1)),
        ("conv3d", (2, 2, 2), (1, 1, 1))])
    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("w_dtype", [np.float32, np.float64])
    def test_conv(self, kind, kernel, stride, padding, w_dtype):
        layer = LayerDesc(name="c", kind=kind, kernel=kernel, stride=stride,
                          padding=padding, in_channels=5, out_channels=4)
        x = rng.standard_normal((3,) + (7,) * len(kernel) + (5,)) \
            .astype(np.float32)
        w = rng.standard_normal(kernel + (5, 4)).astype(w_dtype)
        got = forward_layer(layer, {"c": w}, [x])
        want = window_conv(x, w, layer)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kernel, stride", [((2, 2), (2, 2)),
                                                ((3, 3), (1, 1))])
    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_max_pool(self, kernel, stride, padding):
        layer = LayerDesc(name="p", kind="pool", mode="max", kernel=kernel,
                          stride=stride, padding=padding)
        # mostly negative, so a zero fill would show at the padded edges
        x = (rng.standard_normal((2, 7, 7, 3)) - 2.0).astype(np.float32)
        got = forward_layer(layer, WeightStore({}), [x])
        want = window_max_pool(x, layer)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


    @pytest.mark.parametrize("kind, kernel, stride", [
        ("conv2d", (1, 1), (1, 1)), ("conv2d", (1, 1), (2, 2)),
        ("conv2d", (3, 1), (1, 1)), ("conv2d", (3, 1), (2, 1)),
        ("conv2d", (1, 3), (1, 2)), ("conv2d", (3, 3), (1, 1)),
        ("conv2d", (3, 3), (2, 2)), ("conv1d", (3,), (2,)),
        ("conv3d", (1, 3, 1), (1, 2, 1)), ("conv3d", (2, 2, 2), (1, 1, 1))])
    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("w_dtype", [np.float32, np.float64])
    def test_grouped_conv(self, kind, kernel, stride, padding, w_dtype):
        layer = LayerDesc(name="c", kind=kind, kernel=kernel, stride=stride,
                          padding=padding, in_channels=6, out_channels=4,
                          groups=2)
        x = rng.standard_normal((3,) + (7,) * len(kernel) + (6,)) \
            .astype(np.float32)
        w = rng.standard_normal(kernel + (3, 4)).astype(w_dtype)
        got = forward_layer(layer, {"c": w}, [x])
        want = window_grouped_conv(x, w, layer)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kernel, stride", [
        ((3, 1), (1, 1)), ((3, 1), (2, 1)), ((1, 3), (1, 1)),
        ((1, 3), (1, 2)), ((3, 3), (1, 1)), ((3, 3), (2, 2)),
        ((3,), (1,)), ((3,), (2,)), ((1, 1, 3), (1, 1, 2)),
        ((2, 2, 2), (1, 1, 1)), ((3, 3, 3), (2, 2, 2))])
    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("w_dtype", [np.float32, np.float64])
    def test_depthwise_conv(self, kernel, stride, padding, w_dtype):
        layer = LayerDesc(name="d", kind="depthwise_conv", kernel=kernel,
                          stride=stride, padding=padding, in_channels=5)
        x = rng.standard_normal((3,) + (7,) * len(kernel) + (5,)) \
            .astype(np.float32)
        w = rng.standard_normal(kernel + (5,)).astype(w_dtype)
        got = forward_layer(layer, {"d": w}, [x])
        want = window_depthwise(x, w, layer)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kernel, stride", [
        ((2, 2), (2, 2)), ((3, 3), (1, 1)), ((3, 3), (2, 2)),
        ((3, 1), (2, 1)), ((1, 3), (1, 1)), ((3,), (1,)), ((2,), (2,)),
        ((2, 2, 2), (1, 1, 1)), ((3, 1, 3), (2, 1, 2))])
    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("x_dtype", [np.float32, np.float64])
    def test_avg_pool(self, kernel, stride, padding, x_dtype):
        layer = LayerDesc(name="p", kind="pool", mode="avg", kernel=kernel,
                          stride=stride, padding=padding)
        x = rng.standard_normal((3,) + (7,) * len(kernel) + (4,)) \
            .astype(x_dtype)
        got = forward_layer(layer, WeightStore({}), [x])
        want = window_avg_pool(x, layer)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


    @pytest.mark.parametrize("kind", ["depthwise_conv", "pool"])
    @pytest.mark.parametrize("kernel, stride", [
        ((3, 3), (1, 1)), ((2, 2), (2, 2)), ((3, 1), (2, 1)),
        ((2, 2, 2), (1, 1, 1))])
    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_channel_alone_gives_its_bytes(self, kind, kernel, stride,
                                           padding):
        # the window sum adds in offset order whatever the channel count
        x = rng.standard_normal((2,) + (7,) * len(kernel) + (3,)) \
            .astype(np.float32)
        w = rng.standard_normal(kernel + (3,)).astype(np.float32)

        def run(channels):
            layer = LayerDesc(name="l", kind=kind, kernel=kernel,
                              stride=stride, padding=padding, mode="avg",
                              in_channels=len(channels))
            return forward_layer(layer, {"l": w[..., channels]},
                                 [x[..., channels]])

        every = run([0, 1, 2])
        for c in range(3):
            assert run([c]).tobytes() == every[..., [c]].tobytes()


class TestTtCoreOracle:
    @pytest.mark.parametrize("r_in, m, n, r_out", [
        (1, 2, 3, 2), (3, 2, 2, 1), (2, 3, 2, 4), (1, 4, 1, 1)])
    def test_against_loop_nest(self, r_in, m, n, r_out):
        layer = LayerDesc(name="t", kind="tt_core", m=m, n=n, rank_in=r_in,
                          rank_out=r_out)
        w = rng.standard_normal((r_in, m, n, r_out))
        x = rng.standard_normal((2, 3 * m, r_in))
        got = forward_layer(layer, {"t": w}, [x])
        assert got.shape == (2, 3 * n, r_out)
        assert np.allclose(got, naive_tt_core(x, w), rtol=1e-12, atol=1e-12)

    def test_dtypes(self):
        layer = LayerDesc(name="t", kind="tt_core", m=4, n=3, rank_in=2,
                          rank_out=3)
        x = rng.standard_normal((5, 8, 2)).astype(np.float32)
        w = rng.standard_normal((2, 4, 3, 3))
        want = naive_tt_core(x, w.astype(np.float32))
        got = forward_layer(layer, {"t": w.astype(np.float32)}, [x])
        assert got.dtype == np.float32
        assert np.allclose(got, want, rtol=1e-5, atol=1e-5)
        got = forward_layer(layer, {"t": w}, [x])
        assert got.dtype == np.float64
        assert np.allclose(got, naive_tt_core(x, w), rtol=1e-12, atol=1e-12)


class TestOtherKinds:
    def test_fc_batchnorm_reshape(self):
        fc = LayerDesc(name="f", kind="fc", in_channels=4, out_channels=2)
        w = rng.standard_normal((4, 2)).astype(np.float32)
        x = rng.standard_normal((3, 4)).astype(np.float32)
        assert np.allclose(forward_layer(fc, WeightStore({"f": w}), [x]),
                           x @ w, atol=1e-6)

        bn = LayerDesc(name="b", kind="batchnorm")
        stats = WeightStore({
            "b/scale": np.full(2, 2.0, np.float32),
            "b/shift": np.full(2, 1.0, np.float32),
            "b/mean": np.full(2, 0.5, np.float32),
            "b/var": np.full(2, 4.0, np.float32)})
        y = forward_layer(bn, stats, [np.full((1, 2), 2.5, np.float32)])
        assert np.allclose(y, 2.0 * (2.5 - 0.5) / np.sqrt(4.0 + 1e-5) + 1.0,
                           atol=1e-5)

        rs = LayerDesc(name="r", kind="reshape", shape=(2, 2))
        out = forward_layer(rs, WeightStore({}), [x])
        assert out.shape == (3, 2, 2)

    @pytest.mark.parametrize("shapes", [
        {"scale": (1,)}, {"shift": (3,)},
        {part: (3,) for part in ("scale", "shift", "mean", "var")}])
    def test_batchnorm_records_must_match_the_channels(self, shapes):
        # fc 4->6 into a batchnorm: a (1,) scale used to broadcast
        # silently and a (3,) shift to die in numpy's broadcast
        model, weights = fc_into_batchnorm(**shapes)
        x = rng.standard_normal((3, 4)).astype(np.float32)
        with pytest.raises(ShapeError, match="do not match 6 channels"):
            forward_model(model, weights, x)
        forward_model(*fc_into_batchnorm(), x)

    def test_activations(self):
        x = np.array([[-1.0, 0.0, 2.0]], dtype=np.float32)
        relu = LayerDesc(name="a", kind="activation", fn="relu")
        assert np.allclose(forward_layer(relu, WeightStore({}), [x]),
                           [[0, 0, 2]])
        soft = LayerDesc(name="s", kind="activation", fn="softmax")
        y = forward_layer(soft, WeightStore({}), [x])
        assert np.allclose(y.sum(axis=-1), 1.0, atol=1e-6)
        big = np.array([[1000.0, 1000.0]], dtype=np.float32)
        assert np.all(np.isfinite(forward_layer(soft, WeightStore({}), [big])))

    def test_add_concat(self):
        a = rng.standard_normal((2, 3)).astype(np.float32)
        b = rng.standard_normal((2, 3)).astype(np.float32)
        add = LayerDesc(name="+", kind="add")
        assert np.allclose(forward_layer(add, WeightStore({}), [a, b]), a + b)
        cat = LayerDesc(name="|", kind="concat")
        got = forward_layer(cat, WeightStore({}), [a, b])
        assert got.shape == (2, 6)

    def test_zero_row_flatten_and_reshape(self):
        x = np.zeros((0, 2, 3, 4), np.float32)
        flat = LayerDesc(name="fl", kind="flatten")
        assert forward_layer(flat, WeightStore({}), [x]).shape == (0, 24)
        back = LayerDesc(name="r", kind="reshape", shape=(6, 4))
        assert forward_layer(back, WeightStore({}), [x]).shape == (0, 6, 4)

    def test_shape_mismatch_raises(self):
        fc = LayerDesc(name="f", kind="fc", in_channels=4, out_channels=2)
        w = rng.standard_normal((4, 2)).astype(np.float32)
        with pytest.raises(ShapeError):
            forward_layer(fc, WeightStore({"f": w}),
                          [np.zeros((3, 5), np.float32)])

    @pytest.mark.parametrize("mode", ["max", "avg"])
    def test_pool_rejects_input_without_channel_axis(self, mode):
        # a 2-d pool given (batch, 6, 3) must not pool over the channels
        layer = LayerDesc(name="p", kind="pool", mode=mode, kernel=(2, 2))
        with pytest.raises(ShapeError, match="does not match"):
            forward_layer(layer, WeightStore({}),
                          [np.ones((2, 6, 3), np.float32)])

    def test_add_needs_two_inputs(self):
        add = LayerDesc(name="+", kind="add")
        x = np.ones((2, 3), np.float32)
        for inputs in ([x], x):
            with pytest.raises(GraphError, match="at least 2 inputs"):
                forward_layer(add, WeightStore({}), inputs)

    def test_valid_window_larger_than_input_raises(self):
        layer = LayerDesc(name="c", kind="conv2d", kernel=(3, 3),
                          in_channels=2, out_channels=2, padding="valid")
        with pytest.raises(ShapeError, match="larger than input"):
            forward_layer(layer, WeightStore({"c": np.ones((3, 3, 2, 2))}),
                          [np.ones((1, 2, 5, 2), np.float32)])

    @pytest.mark.parametrize("layer, w_shape, x_shape", [
        (LayerDesc(name="l", kind="conv2d", kernel=(1, 1), in_channels=4,
                   out_channels=6), (1, 1, 4, 5), (2, 5, 5, 4)),
        (LayerDesc(name="l", kind="conv2d", kernel=(1, 1), in_channels=4,
                   out_channels=6), (3, 3, 4, 6), (2, 5, 5, 4)),
        (LayerDesc(name="l", kind="conv2d", kernel=(3, 1), in_channels=4,
                   out_channels=6), (1, 3, 4, 6), (2, 5, 5, 4)),
        (LayerDesc(name="l", kind="depthwise_conv", kernel=(3, 3),
                   in_channels=3), (3, 3, 4), (2, 5, 5, 3)),
        (LayerDesc(name="l", kind="fc", in_channels=4, out_channels=2),
         (4, 3), (3, 4)),
        (LayerDesc(name="l", kind="tt_core", m=2, n=3, rank_in=1,
                   rank_out=2), (1, 2, 4, 2), (2, 4, 1))])
    def test_weight_shape_mismatch_raises(self, layer, w_shape, x_shape):
        w = np.ones(w_shape, np.float32)
        with pytest.raises(ShapeError, match="weight"):
            forward_layer(layer, WeightStore({"l": w}),
                          [np.ones(x_shape, np.float32)])


class TestCosine:
    def test_identities(self):
        v = rng.standard_normal(64)
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-6)
        assert cosine(v, -v) == pytest.approx(-1.0, abs=1e-6)
        a = np.array([1.0, 0.0]); b = np.array([0.0, 1.0])
        assert cosine(a, b) == pytest.approx(0.0, abs=1e-6)

    def test_scale_invariance(self):
        v = rng.standard_normal(32)
        u = rng.standard_normal(32)
        base = cosine(v, u)
        for s in (1e-3, 7.0, 1e4):
            assert cosine(s * v, u) == pytest.approx(base, abs=1e-6)

    def test_zero_vector_warns_and_returns_zero(self):
        v = rng.standard_normal(8)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = cosine(np.zeros(8), v)
        assert got == 0.0
        assert any("zero" in str(w.message).lower() for w in caught)


class TestCapture:
    def test_reference_includes_post_ops(self, toy_net):
        model, weights = toy_net
        x = rng.standard_normal((5, 8, 8, 3)).astype(np.float32)
        cap = capture_feature_maps(model, weights, x)
        _, acts = forward_model(model, weights, x, keep_all=True)
        # conv reference passes through its attached relu
        assert np.array_equal(cap.references["c1"], acts["a1"])
        assert np.array_equal(cap.references["f1"], acts["f1"])
        # the input feeding c2 is the pool output, not the raw conv
        assert np.array_equal(cap.inputs["c2"], acts["p1"])
        assert np.array_equal(cap.inputs["c1"], x)

    def test_full_rank_similarity_is_one(self, toy_net):
        model, weights = toy_net
        x = rng.standard_normal((4, 8, 8, 3)).astype(np.float32)
        cap = capture_feature_maps(model, weights, x)
        fact = decompose_layer(model.layer("c2"), np.asarray(weights["c2"]),
                               "tucker2", (8, 12))
        assert layer_similarity(fact, cap) == pytest.approx(1.0, abs=1e-5)

    def test_rank_one_similarity_below_one(self, toy_net):
        model, weights = toy_net
        x = rng.standard_normal((4, 8, 8, 3)).astype(np.float32)
        cap = capture_feature_maps(model, weights, x)
        fact = decompose_layer(model.layer("c2"), np.asarray(weights["c2"]),
                               "tucker2", (1, 1))
        assert layer_similarity(fact, cap) < 0.999


    @pytest.mark.parametrize("ranks", [(1, 1), (8, 12)])
    def test_batch_score_is_the_mean_of_row_cosines(self, toy_net, ranks):
        model, weights = toy_net
        x = rng.standard_normal((6, 8, 8, 3)).astype(np.float32)
        cap = capture_feature_maps(model, weights, x)
        cap.references["c2"] = cap.references["c2"].copy()
        cap.references["c2"][2] = 0.0
        layer = model.layer("c2")
        fact = decompose_layer(layer, np.asarray(weights["c2"]), "tucker2",
                               ranks)
        out = forward_factorized(fact, cap.inputs["c2"])
        for op_name in layer.post_ops:
            out = forward_layer(model.layer(op_name), weights, out)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = float(np.mean([cosine(o, r) for o, r in
                                  zip(out, cap.references["c2"])]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = layer_similarity(fact, cap)
        assert got == want
        assert [w.category for w in caught] == [RuntimeWarning]


class TestForwardFactorized:
    def test_matches_dense_reconstruction(self):
        layer = LayerDesc(name="c", kind="conv2d", kernel=(3, 3),
                          in_channels=6, out_channels=8, stride=(2, 2))
        w = rng.standard_normal((3, 3, 6, 8)).astype(np.float64)
        x = rng.standard_normal((2, 9, 9, 6)).astype(np.float32)
        for method, ranks in (("tucker2", (4, 5)), ("cp", (10,)),
                              ("tt", (4, 9, 6))):
            fact = decompose_layer(layer, w, method, ranks, seed=0)
            dense = forward_layer(
                layer,
                WeightStore({"c": fact.reconstruct().astype(np.float32)}),
                [x])
            got = forward_factorized(fact, [x])
            scale = max(float(np.abs(dense).max()), 1e-12)
            assert float(np.abs(got - dense).max()) / scale <= 1e-4, method


class TestShippedScoring:
    """Candidates are scored on the float32 weights that ship."""

    CASES = {"tucker2": ("c2", (4, 6)), "cp": ("c2", (6,)),
             "tt": ("c2", (4, 8, 6)), "svd": ("f1", (5,)),
             "qr": ("f1", (5,)), "t3f": ("f1", (4,))}

    @pytest.fixture(params=sorted(CASES))
    def scored(self, request, toy_net):
        """The toy net's capture and one chain of a target layer."""
        model, weights = toy_net
        name, ranks = self.CASES[request.param]
        layer = model.layer(name)
        x = rng.standard_normal((4, 8, 8, 3)).astype(np.float32)
        fact = decompose_layer(layer, np.asarray(weights[name]),
                               request.param, ranks,
                               plan=default_plan(layer, request.param))
        return capture_feature_maps(model, weights, x), fact

    def test_a_float32_batch_stays_float32(self, scored):
        cap, fact = scored
        assert forward_factorized(fact, cap.inputs[fact.source]).dtype \
            == np.float32

    def test_within_1e6_of_float64_scoring(self, scored):
        cap, fact = scored
        layer = cap.model.layer(fact.source)
        out = cap.inputs[fact.source].astype(np.float64)
        for sub in fact.sub_layers:
            out = forward_layer(sub, fact.weights, out)
        assert out.dtype == np.float64
        for op_name in layer.post_ops:
            out = forward_layer(cap.model.layer(op_name), cap.weights, out)
        want = float(np.mean([cosine(o, r) for o, r in
                              zip(out, cap.references[fact.source])]))
        assert abs(layer_similarity(fact, cap) - want) <= 1e-6


def post_op_net(seed=5):
    """small_conv_net with a tanh after c2 and a relu after f1, then f2,
    so every target's post-ops run in place under ``layer_similarity``."""
    r = np.random.default_rng(seed)
    layers = [
        LayerDesc(name="c1", kind="conv2d", kernel=(3, 3), in_channels=3,
                  out_channels=8, post_ops=("a1",)),
        LayerDesc(name="a1", kind="activation", fn="relu"),
        LayerDesc(name="p1", kind="pool", mode="max", kernel=(2, 2)),
        LayerDesc(name="c2", kind="conv2d", kernel=(3, 3), in_channels=8,
                  out_channels=12, post_ops=("a2",)),
        LayerDesc(name="a2", kind="activation", fn="tanh"),
        LayerDesc(name="fl", kind="flatten"),
        LayerDesc(name="f1", kind="fc", in_channels=192, out_channels=10,
                  post_ops=("a3",)),
        LayerDesc(name="a3", kind="activation", fn="relu"),
        LayerDesc(name="f2", kind="fc", in_channels=10, out_channels=4)]
    names = [l.name for l in layers]
    model = ModelDesc(layers=layers, edges=list(zip(names, names[1:])),
                      input="c1", output="f2")
    weights = WeightStore({l.name: r.standard_normal(l.weight_shape()) * 0.3
                           for l in layers if l.weight_shape() is not None})
    return model, weights


class TestBufferOwnership:
    """The engine writes over and releases only the arrays it owns."""

    @pytest.mark.parametrize("fn", ["relu", "tanh"])
    def test_consume_writes_over_the_input(self, fn):
        layer = LayerDesc(name="a", kind="activation", fn=fn)
        x = rng.standard_normal((3, 5)).astype(np.float32)
        want = forward_layer(layer, WeightStore({}), x)
        assert x.tobytes() != want.tobytes()
        got = forward_layer(layer, WeightStore({}), [x], consume=True)
        assert got is x and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("layer", [
        LayerDesc(name="a", kind="activation", fn="sigmoid"),
        LayerDesc(name="a", kind="activation", fn="softmax"),
        LayerDesc(name="p", kind="pool", mode="max", kernel=(2,)),
        LayerDesc(name="fl", kind="flatten")])
    def test_other_kinds_ignore_consume(self, layer):
        x = rng.standard_normal((3, 4, 2)).astype(np.float32)
        before = x.tobytes()
        out = forward_layer(layer, WeightStore({}), [x], consume=True)
        assert x.tobytes() == before
        assert out.tobytes() == forward_layer(layer, WeightStore({}),
                                              [x]).tobytes()

    def test_flatten_then_relu_never_writes_x(self):
        model = ModelDesc(layers=[
            LayerDesc(name="fl", kind="flatten"),
            LayerDesc(name="a", kind="activation", fn="relu")],
            edges=[("fl", "a")], input="fl", output="a")
        x = rng.standard_normal((4, 3, 2)).astype(np.float32)
        before = x.tobytes()
        out = forward_model(model, WeightStore({}), x)
        assert x.tobytes() == before
        assert out.tobytes() == np.maximum(x, 0).reshape(4, 6).tobytes()

    def test_an_output_with_two_consumers_is_never_written(self):
        # f feeds its relu and the residual add, which must see f itself
        model = ModelDesc(layers=[
            LayerDesc(name="f", kind="fc", in_channels=4, out_channels=6),
            LayerDesc(name="a", kind="activation", fn="relu"),
            LayerDesc(name="m", kind="add")],
            edges=[("f", "a"), ("f", "m"), ("a", "m")], input="f",
            output="m")
        weights = WeightStore({"f": rng.standard_normal((4, 6))})
        x = rng.standard_normal((3, 4)).astype(np.float32)
        f = x @ weights["f"]
        assert (f < 0).any()
        assert forward_model(model, weights, x).tobytes() == \
            (f + np.maximum(f, 0)).tobytes()

    def test_the_model_output_is_never_written(self):
        # the output fc also feeds a relu, its only consumer in the graph
        model = ModelDesc(layers=[
            LayerDesc(name="f", kind="fc", in_channels=4, out_channels=6),
            LayerDesc(name="a", kind="activation", fn="relu")],
            edges=[("f", "a")], input="f", output="f")
        weights = WeightStore({"f": rng.standard_normal((4, 6))})
        x = rng.standard_normal((3, 4)).astype(np.float32)
        out = forward_model(model, weights, x)
        assert out.tobytes() == (x @ weights["f"]).tobytes()
        assert (out < 0).any()

    @pytest.mark.parametrize("order, edges, output", [
        # a view of f and f's relu meet in an add, in either order
        ("f v a m", "f-v f-a v-m a-m", "m"),
        ("f a v m", "f-v f-a v-m a-m", "m"),
        # a chain of views, reshape then flatten
        ("f r v a m", "f-r r-v f-a v-m a-m", "m"),
        # a view as the model output, its relu sibling run after it
        ("f v a", "f-v f-a", "v"),
        ("f r v a", "f-r r-v f-a", "v")])
    def test_a_view_keeps_the_array_it_reads(self, order, edges, output):
        # the relu runs after the view layer, once f has one consumer
        # still to run; the view's consumers read f after that
        layers = {
            "f": LayerDesc(name="f", kind="fc", in_channels=4,
                           out_channels=6),
            "r": LayerDesc(name="r", kind="reshape", shape=(2, 3)),
            "v": LayerDesc(name="v", kind="flatten"),
            "a": LayerDesc(name="a", kind="activation", fn="relu"),
            "m": LayerDesc(name="m", kind="add")}
        model = ModelDesc(layers=[layers[n] for n in order.split()],
                          edges=[tuple(e.split("-")) for e in edges.split()],
                          input="f", output=output)
        weights = WeightStore({"f": rng.standard_normal((4, 6))})
        x = rng.standard_normal((3, 4)).astype(np.float32)
        f = x @ weights["f"]
        assert (f < 0).any()
        want = f + np.maximum(f, 0) if output == "m" else f
        kept, _ = forward_model(model, weights, x, keep_all=True)
        assert kept.tobytes() == want.tobytes()
        assert forward_model(model, weights, x).tobytes() == want.tobytes()

    def test_outputs_live_until_their_last_consumer(self, monkeypatch):
        # c1 -> a1 -> p1 -> c2 -> a2 -> fl -> f1: each relu runs over the
        # conv before it, an output's memory is freed once its consumer
        # has run, and the flatten view keeps a2's until f1
        model, weights = small_conv_net()
        original = similarity.forward_layer
        refs, live, consumed = {}, {}, {}

        def recording(layer, weights, inputs, *, consume=False):
            live[layer.name] = {name for name, ref in refs.items()
                                if ref() is not None}
            consumed[layer.name] = consume
            out = original(layer, weights, inputs, consume=consume)
            # the array that owns the memory: numpy points every view at it
            refs[layer.name] = weakref.ref(out if out.base is None
                                           else out.base)
            return out

        monkeypatch.setattr(similarity, "forward_layer", recording)
        x = rng.standard_normal((2, 8, 8, 3)).astype(np.float32)
        out = forward_model(model, weights, x)
        assert refs["a1"]() is None and refs["f1"]() is out
        assert live == {"c1": set(), "a1": {"c1"}, "p1": {"c1", "a1"},
                        "c2": {"p1"}, "a2": {"c2"}, "fl": {"c2", "a2"},
                        "f1": {"c2", "a2", "fl"}}
        assert consumed == {"c1": False, "a1": True, "p1": True, "c2": True,
                            "a2": True, "fl": True, "f1": False}

        refs.clear()
        live.clear()
        forward_model(model, weights, x, keep_all=True)
        assert not any(consumed.values())
        assert live["f1"] == {"c1", "a1", "p1", "c2", "a2", "fl"}

    def test_keep_all_holds_each_layers_own_output(self):
        model, weights = post_op_net()
        x = rng.standard_normal((3, 8, 8, 3)).astype(np.float32)
        out, outputs = forward_model(model, weights, x, keep_all=True)
        assert out.tobytes() == forward_model(model, weights, x).tobytes()
        for layer in model.layers:
            ins = [outputs[p] for p in model.predecessors(layer.name)] or [x]
            want = forward_layer(layer, weights, ins)
            assert outputs[layer.name].tobytes() == want.tobytes(), layer.name
        # the pre-activation conv outputs are there, negatives and all
        assert (outputs["c1"] < 0).any() and (outputs["a1"] >= 0).all()
        assert not np.array_equal(outputs["c2"], outputs["a2"])

    @pytest.mark.parametrize("method, target, ranks", [
        ("tucker2", "c1", (2, 3)), ("cp", "c1", (4,)), ("tt", "c1", (2, 3, 4)),
        ("tucker2", "c2", (4, 6)), ("cp", "c2", (6,)), ("tt", "c2", (4, 8, 6)),
        ("svd", "f1", (5,)), ("qr", "f1", (5,)), ("t3f", "f1", (4,))])
    def test_layer_similarity_leaves_the_capture_intact(self, method, target,
                                                        ranks):
        # c1 reads the caller's samples; f1 a flatten view, which t3f's
        # first stage reshapes again
        model, weights = post_op_net()
        x = rng.standard_normal((3, 8, 8, 3)).astype(np.float32)
        cap = capture_feature_maps(model, weights, x)
        layer = model.layer(target)
        fact = decompose_layer(layer, np.asarray(weights[target]), method,
                               ranks, plan=default_plan(layer, method))

        def snapshot():   # the capture's inputs hold the samples ``x``
            return {(part, name): a.tobytes()
                    for part in ("inputs", "references")
                    for name, a in getattr(cap, part).items()}

        before = snapshot()
        want = forward_factorized(fact, cap.inputs[target])
        for op_name in layer.post_ops:
            want = forward_layer(model.layer(op_name), weights, want)
        score = layer_similarity(fact, cap)
        assert snapshot() == before
        assert score == float(np.mean(
            similarity._row_cosines(want, cap.references[target])))


class TestSampleDataset:
    def test_seeded_and_sorted(self):
        data = WeightStore({
            DATASET_INPUTS: np.arange(40, dtype=np.float32).reshape(10, 4),
            DATASET_LABELS: np.arange(10, dtype=np.float32)})
        xa, la = sample_dataset(data, 4, seed=1)
        xb, lb = sample_dataset(data, 4, seed=1)
        assert np.array_equal(xa, xb) and np.array_equal(la, lb)
        # row order preserved relative to the source
        idx = (xa[:, 0] / 4).astype(int)
        assert np.all(np.diff(idx) > 0)

    def test_count_clamped(self):
        data = WeightStore({DATASET_INPUTS: np.zeros((3, 2), np.float32)})
        x, labels = sample_dataset(data, 100, seed=0)
        assert len(x) == 3 and labels is None

    def test_no_inputs_raises(self):
        data = WeightStore({DATASET_INPUTS: np.zeros((0, 2), np.float32)})
        with pytest.raises(ShapeError, match="dataset has no inputs"):
            sample_dataset(data, 4, seed=0)
