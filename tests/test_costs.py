import fractions
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowrank.costs import (CONV_METHODS, CostReport, applicable_methods,
                           check_real, closed_form, compression_ratio,
                           cost_chain, cost_factorized, cost_original,
                           default_input_shape, method_applies,
                           model_breakdown, require_method)
from lowrank.decompose import chain_descs
from lowrank.errors import RankError
from lowrank.explore import rank_bounds, t3f_plans
from lowrank.ir import LayerDesc

from conftest import small_conv_net


def conv(kernel, cin, cout, stride=None, padding="same", kind=None):
    kind = kind or f"conv{len(kernel)}d"
    return LayerDesc(name="L", kind=kind, kernel=kernel, in_channels=cin,
                     out_channels=cout, stride=stride, padding=padding)


FC = LayerDesc(name="F", kind="fc", in_channels=400, out_channels=120)
BIG = conv((3, 3), 256, 512)


class TestOriginalCosts:
    def test_reference_conv(self):
        # 3x3x256x512 on a 16x16 input: every count done by hand
        got = cost_original(BIG, (16, 16, 256))
        assert got.params == 1_179_648
        assert got.fm == 131_072
        assert got.flops == 603_979_776
        assert got.overall_mem == 1_310_720

    def test_reference_fc(self):
        got = cost_original(FC, (400,))
        assert got.params == 48_000
        assert got.flops == 96_000
        assert got.fm == 120

    def test_strided_valid_conv(self):
        # 5x5 input, 3x3 kernel, stride 2, valid: 2x2 output positions
        layer = conv((3, 3), 4, 6, stride=(2, 2), padding="valid")
        got = cost_original(layer, (5, 5, 4))
        assert got.fm == 2 * 2 * 6
        assert got.params == 3 * 3 * 4 * 6
        assert got.flops == 2 * 4 * 6 * (3 * 3 * 4)

    def test_grouped_conv(self):
        layer = LayerDesc(name="g", kind="conv2d", kernel=(3, 3),
                          in_channels=8, out_channels=8, groups=4)
        got = cost_original(layer, (4, 4, 8))
        assert got.params == 3 * 3 * 2 * 8
        assert got.flops == 2 * 16 * 8 * (9 * 2)

    def test_depthwise(self):
        layer = LayerDesc(name="d", kind="depthwise_conv", kernel=(3, 3),
                          in_channels=5)
        got = cost_original(layer, (4, 4, 5))
        assert got.params == 45
        assert got.flops == 2 * 16 * 5 * 9
        assert got.fm == 80

    def test_pool_activation_batchnorm(self):
        pool = LayerDesc(name="p", kind="pool", mode="max", kernel=(2, 2))
        got = cost_original(pool, (4, 4, 3))
        assert got.params == 0 and got.fm == 2 * 2 * 3
        act = LayerDesc(name="a", kind="activation", fn="relu")
        got = cost_original(act, (7, 7, 2))
        assert got.flops == 98 and got.fm == 98
        bn = LayerDesc(name="b", kind="batchnorm")
        got = cost_original(bn, (7, 7, 2))
        assert got.params == 8 and got.flops == 2 * 98

    def test_default_input_shape(self):
        assert default_input_shape(conv((3, 3), 4, 6)) == (1, 1, 4)
        strided = conv((3, 3), 4, 6, stride=(2, 2))
        assert default_input_shape(strided) == (2, 2, 4)
        valid = conv((3, 3), 4, 6, padding="valid")
        assert default_input_shape(valid) == (3, 3, 4)
        assert default_input_shape(FC) == (400,)


class TestFactorizedCosts:
    def test_tucker2_rank_one_reference(self):
        got = cost_factorized(BIG, "tucker2", (1, 1), (16, 16, 256))
        assert got.params == 777

    def test_svd_rank_one_reference(self):
        got = cost_factorized(FC, "svd", (1,), (400,))
        assert got.params == 520

    def test_tucker2_hand_example(self):
        layer = conv((3, 3), 4, 6)
        got = cost_factorized(layer, "tucker2", (2, 3), (5, 5, 4))
        assert (got.params, got.flops, got.fm) == (80, 4000, 275)

    def test_cp_hand_example(self):
        layer = conv((3, 3), 4, 6)
        got = cost_factorized(layer, "cp", (2,), (5, 5, 4))
        assert (got.params, got.flops, got.fm) == (32, 1600, 300)

    def test_tt_hand_example(self):
        layer = conv((3, 3), 4, 6)
        got = cost_factorized(layer, "tt", (2, 3, 2), (5, 5, 4))
        assert (got.params, got.flops, got.fm) == (56, 2800, 325)

    def test_svd_hand_example(self):
        got = cost_factorized(FC, "svd", (30,), (400,))
        assert (got.params, got.flops, got.fm) == (15_600, 31_200, 150)
        assert cost_factorized(FC, "qr", (30,), (400,)).params == 15_600

    def test_t3f_hand_example(self):
        plan = ((20, 20), (10, 12))
        got = cost_factorized(FC, "t3f", (4,), (400,), plan=plan)
        assert (got.params, got.flops, got.fm) == (1760, 51_200, 920)

    def test_zero_rank_rejected(self):
        with pytest.raises(RankError):
            cost_factorized(BIG, "tucker2", (0, 5), (16, 16, 256))


class TestChainAgreement:
    """Closed-form costs must equal the cost of the constructed chain."""

    def check(self, layer, method, ranks, shape, plan=None):
        formula = cost_factorized(layer, method, ranks, shape, plan=plan)
        chain = cost_chain(chain_descs(layer, method, ranks, plan=plan), shape)
        assert formula == chain, (method, ranks, formula, chain)

    def test_hand_cases(self):
        layer = conv((3, 3), 4, 6)
        self.check(layer, "tucker2", (2, 3), (5, 5, 4))
        self.check(layer, "cp", (2,), (5, 5, 4))
        self.check(layer, "tt", (2, 3, 2), (5, 5, 4))
        self.check(FC, "svd", (30,), (400,))
        self.check(FC, "qr", (17,), (400,))
        self.check(FC, "t3f", (4,), (400,), plan=((20, 20), (10, 12)))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_randomized(self, data):
        dim = data.draw(st.integers(1, 3))
        kernel = tuple(data.draw(st.integers(1, 4)) for _ in range(dim))
        cin = data.draw(st.integers(1, 9))
        cout = data.draw(st.integers(1, 9))
        stride = tuple(data.draw(st.integers(1, 2)) for _ in range(dim))
        padding = data.draw(st.sampled_from(["same", "valid"]))
        layer = conv(kernel, cin, cout, stride=stride, padding=padding)
        spatial = tuple(max(k, data.draw(st.integers(3, 8))) for k in kernel)
        shape = spatial + (cin,)
        method = data.draw(st.sampled_from(["tucker2", "cp", "tt"]))
        bounds = rank_bounds(layer, method)
        ranks = tuple(data.draw(st.integers(lo, hi)) for lo, hi in bounds)
        self.check(layer, method, ranks, shape)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_randomized_fc(self, data):
        m = data.draw(st.integers(2, 240))
        n = data.draw(st.integers(2, 240))
        fc = LayerDesc(name="F", kind="fc", in_channels=m, out_channels=n)
        method = data.draw(st.sampled_from(["svd", "qr", "t3f"]))
        plan = None
        if method == "t3f":
            plans = t3f_plans(fc)
            if not plans:
                return
            plan = data.draw(st.sampled_from(plans))
        bounds = rank_bounds(fc, method, plan)
        ranks = tuple(data.draw(st.integers(lo, hi)) for lo, hi in bounds)
        self.check(fc, method, ranks, (m,), plan=plan)


class TestWholeBox:
    """The walk of ``closed_form`` on broadcast rank grids, one array per
    rank slot as ``explore`` builds them, equals the cost of the built
    chain at every point of the rank box."""

    def check_box(self, layer, method, shape, plan=None):
        bounds = rank_bounds(layer, method, plan)
        grids = np.ix_(*(np.arange(1, hi + 1, dtype=np.int64)
                         for _, hi in bounds))
        walk = closed_form(layer, method, grids, shape, plan)
        box = tuple(hi for _, hi in bounds)
        fields = [np.broadcast_to(v, box)
                  for v in (walk.params, walk.flops, walk.fm)]
        for point in itertools.product(*(range(1, hi + 1) for hi in box)):
            chain = cost_chain(chain_descs(layer, method, point, plan=plan),
                               shape)
            at = tuple(r - 1 for r in point)
            assert [int(v[at]) for v in fields] == [
                chain.params, chain.flops, chain.fm], (method, plan, point)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_conv_boxes(self, data):
        dim = data.draw(st.integers(1, 3))
        kernel = tuple(data.draw(st.integers(1, 3)) for _ in range(dim))
        stride = tuple(data.draw(st.integers(1, 2)) for _ in range(dim))
        padding = data.draw(st.sampled_from(["same", "valid"]))
        layer = conv(kernel, data.draw(st.integers(1, 5)),
                     data.draw(st.integers(1, 5)), stride=stride,
                     padding=padding)
        spatial = tuple(max(k, data.draw(st.integers(3, 6))) for k in kernel)
        for method in CONV_METHODS:
            self.check_box(layer, method, spatial + (layer.in_channels,))

    @given(st.integers(2, 64), st.integers(2, 64))
    @settings(max_examples=20, deadline=None)
    def test_fc_boxes_over_every_plan(self, m, n):
        fc = LayerDesc(name="F", kind="fc", in_channels=m, out_channels=n)
        self.check_box(fc, "svd", (m,))
        self.check_box(fc, "qr", (m,))
        for plan in t3f_plans(fc):
            self.check_box(fc, "t3f", (m,), plan=plan)


class TestReports:
    def test_add_and_ratio(self):
        a = CostReport(params=10, flops=20, fm=5)
        b = CostReport(params=1, flops=2, fm=3)
        total = a + b
        assert (total.params, total.flops, total.fm) == (11, 22, 8)
        assert total.overall_mem == 19
        assert compression_ratio(10, 4) == pytest.approx(0.6)
        with pytest.raises(RankError):
            compression_ratio(0, 4)

    def test_model_breakdown_buckets(self):
        model, _ = small_conv_net()
        report = model_breakdown(model, (8, 8, 3))
        conv_p = 3 * 3 * 3 * 8 + 3 * 3 * 8 * 12
        assert report["conv"].params == conv_p
        assert report["fc"].params == 192 * 10
        assert report["other"].params == 0
        assert report["total"].params == conv_p + 1920
        assert set(report["layers"]) == {"c1", "a1", "p1", "c2", "a2",
                                         "fl", "f1"}
        summed = sum((c for c in report["layers"].values()),
                     CostReport(0, 0, 0))
        assert summed == report["total"]


class TestRealRule:
    @pytest.mark.parametrize("good", [0, -3, 2.5, float("nan"), float("inf"),
                                      np.float32(0.5), np.int64(7),
                                      fractions.Fraction(1, 3)], ids=repr)
    def test_reals_pass_unchanged(self, good):
        # the range, NaN included, is each caller's own check
        assert check_real(good, "x") is good

    @pytest.mark.parametrize("bad", [True, False, np.bool_(True), "0.5",
                                     None, 1j, [1.0]], ids=repr)
    def test_everything_else_raises(self, bad):
        with pytest.raises(RankError, match="x must be a real number, got"):
            check_real(bad, "x")


class TestApplicability:
    """t3f factors an fc layer exactly when ``t3f_plans`` has a plan for
    it; the kind rule alone still admits an explicit request."""

    def test_t3f_applies_exactly_when_a_plan_exists(self):
        widths = range(1, 130)
        for m, n in itertools.chain(
                itertools.product(widths, (1, 2, 4, 7, 12, 49, 97)),
                itertools.product((1, 2, 4, 7, 12, 49, 97), widths),
                itertools.product(range(1, 40), range(1, 40))):
            layer = LayerDesc(name="F", kind="fc", in_channels=m,
                              out_channels=n)
            assert method_applies(layer, "t3f") == bool(t3f_plans(layer)), \
                (m, n)

    @pytest.mark.parametrize("m, n", [(256, 7), (7, 11), (101, 64), (2, 2)])
    def test_an_fc_without_plans_is_offered_svd_and_qr(self, m, n):
        layer = LayerDesc(name="F", kind="fc", in_channels=m, out_channels=n)
        assert applicable_methods(layer) == ["svd", "qr"]
        require_method(layer, "t3f")  # the kind fits: explicit use is kept

    def test_an_fc_with_plans_is_offered_t3f(self):
        assert applicable_methods(FC) == ["svd", "qr", "t3f"]
        assert applicable_methods(BIG) == ["tucker2", "cp", "tt"]
