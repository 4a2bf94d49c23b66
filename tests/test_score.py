import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowrank.cli import main, parse_layer_spec
from lowrank.costs import applicable_methods
from lowrank.errors import RankError
from lowrank.ir import LayerDesc
from lowrank.score import method_table, qualitative_score, rank_slot_count


def fc(m, n):
    return LayerDesc(name="F", kind="fc", in_channels=m, out_channels=n)


def level(metric, raw):
    return qualitative_score({metric: raw})[metric]["level"]


# Each numeric metric's rubric cuts, mapped to its levels at cut - 0.5,
# cut - 1e-9, cut, cut + 1e-9 and cut + 0.5, then its levels at 0, -1 and
# 1e9.  Generated once from the hand-written rubric this table replaced.
OFFSETS = (-0.5, -1e-9, 0, 1e-9, 0.5)
RUBRIC_PINS = {
    "rank_configurations": (
        {5: (4, 4, 5, 5, 5), 4: (3, 3, 4, 4, 4), 2: (2, 2, 3, 3, 3),
         1: (1, 1, 2, 2, 2)}, (1, 1, 5)),
    "best_param_reduction": (
        {98: (4, 4, 4, 5, 5), 94: (3, 3, 4, 4, 4), 90: (2, 2, 3, 3, 3),
         80: (1, 1, 2, 2, 2)}, (1, 1, 5)),
    "worst_param_reduction": (
        {20: (4, 4, 4, 5, 5), 10: (3, 3, 4, 4, 4), 6: (2, 2, 3, 3, 3),
         2: (1, 1, 2, 2, 2)}, (1, 1, 5)),
    "best_flops_reduction": (
        {98: (4, 4, 4, 5, 5), 94: (3, 3, 4, 4, 4), 90: (2, 2, 3, 3, 3),
         80: (1, 1, 2, 2, 2)}, (1, 1, 5)),
    "worst_flops_reduction": (
        {20: (4, 4, 4, 5, 5), 10: (3, 3, 4, 4, 4), 6: (2, 2, 3, 3, 3),
         2: (1, 1, 2, 2, 2)}, (1, 1, 5)),
    "best_memory_improvement": (
        {90: (4, 4, 4, 5, 5), 60: (3, 3, 4, 4, 4), 30: (2, 2, 3, 3, 3),
         0: (1, 1, 1, 2, 2)}, (1, 1, 5)),
    "worst_memory_increase": (
        {150: (2, 2, 2, 1, 1), 75: (3, 3, 3, 2, 2), 25: (4, 4, 3, 3, 3),
         0: (5, 5, 5, 4, 4)}, (5, 5, 1)),
    "exploration_space": (
        {10**6: (4, 4, 4, 5, 5), 10**4: (3, 3, 4, 4, 4),
         10**3: (2, 2, 3, 3, 3), 10**2: (1, 1, 2, 2, 2)}, (1, 1, 5)),
    "param_coverage": (
        {98: (4, 4, 4, 5, 5), 93: (3, 3, 4, 4, 4), 85: (2, 2, 3, 3, 3),
         70: (1, 1, 2, 2, 2)}, (1, 1, 5)),
    "flops_coverage": (
        {98: (4, 4, 4, 5, 5), 93: (3, 3, 4, 4, 4), 85: (2, 2, 3, 3, 3),
         70: (1, 1, 2, 2, 2)}, (1, 1, 5)),
    "decomposition_time": (
        {300: (2, 2, 2, 1, 1), 60: (3, 3, 2, 2, 2), 30: (4, 4, 3, 3, 3),
         5: (5, 5, 4, 4, 4)}, (5, 5, 1)),
}
LOWER_IS_BETTER = {"worst_memory_increase", "decomposition_time"}

# sha256 of ``lowrank score --layer <spec>`` stdout (no timings)
SCORE_PINS = {
    ("3,3,64,64",):
        "3e6dfeaf62bc0d9f3f8fd6b621d1ef911358da4c21a01dc894045de5894c5514",
    ("400,120",):
        "a61ab199fbdb5404124fd12a4bc72701dd90d4a99747fb527315653190a7840b",
    ("3,3,32,48", "--stride", "2"):
        "3c2e77c0b803a42567f4c6226ca5fcaf01c03a1a00c29e45de0db4acca48f9f5",
    ("5,5,3,16",):
        "5e379468efa4fc23a3a608d3fe3bfa7ffce1c1d2f0aa2ec22ff7f2950c4fc270",
    ("512,256",):
        "eeab7a6d963fc496e60c74a8f89d60db9231a3640a49277cbee86708b7756ed5",
    ("3,3,3,8,12",):
        "b77f7a3481a6ec68064bebe733bfe8e5e41548d3c716974f5fd5960ae32bcb17",
    # offered methods with no valid rank: t3f; svd and qr; cp and tt
    ("4,4",):
        "f4f9deaf0cd3ac55fe5451800d441c754727458b577d3334bd65323db54bfd40",
    ("2,2",):
        "e9def31b5c37c29446b6061f1f49798d63f57d893bbfe701934216d9e7bc9765",
    ("1,1,2,4",):
        "5def707eb717b81cc2fb7a4b02177f641c7a2f7400cdc1da6bf83ef045bce580",
}


class TestRubric:
    @pytest.mark.parametrize("metric", sorted(RUBRIC_PINS))
    def test_levels_around_every_cut(self, metric):
        rows, ends = RUBRIC_PINS[metric]
        for cut, levels in rows.items():
            assert tuple(level(metric, cut + d) for d in OFFSETS) == levels, \
                cut
        assert tuple(level(metric, x) for x in (0, -1, 1e9)) == ends

    def test_flexibility_classes(self):
        classes = {"shape_and_ranks": 5, "per_dim_ranks": 4,
                   "multiple_ranks": 3, "fixed_rank": 2, "rigid": 1}
        assert {c: level("flexibility", c) for c in classes} == classes
        assert qualitative_score({"flexibility": "rigid", "exploration_space":
                                  10**4}) == {
            "flexibility": {"raw": "rigid", "level": 1},
            "exploration_space": {"raw": 10**4, "level": 4}}
        with pytest.raises(RankError, match="unknown flexibility class 'x'"):
            level("flexibility", "x")

    def test_unknown_metric(self):
        with pytest.raises(RankError, match="unknown metric 'speed'"):
            qualitative_score({"speed": 1.0})

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(RUBRIC_PINS)),
           st.floats(-1e12, 1e12), st.floats(-1e12, 1e12))
    def test_levels_are_monotone_in_the_better_direction(self, metric, a, b):
        lo, hi = sorted((a, b))
        worse, better = (hi, lo) if metric in LOWER_IS_BETTER else (lo, hi)
        assert 1 <= level(metric, worse) <= level(metric, better) <= 5


class TestRawChecks:
    @pytest.mark.parametrize("metric", sorted(RUBRIC_PINS))
    def test_nan_and_infinity_are_rejected(self, metric):
        for raw in (math.nan, math.inf, -math.inf, np.float64("nan"),
                    np.float32("inf")):
            with pytest.raises(RankError, match=f"^{metric} must be finite"):
                level(metric, raw)

    @pytest.mark.parametrize("raw", ["98", True, False, None, 1 + 0j],
                             ids=repr)
    def test_non_reals_and_bools_are_rejected(self, raw):
        with pytest.raises(RankError,
                           match="^best_param_reduction must be a real"):
            level("best_param_reduction", raw)

    def test_huge_exact_ints_and_numpy_reals_score(self):
        assert level("exploration_space", 10**400) == 5
        assert level("decomposition_time", 10**400) == 1
        assert level("exploration_space", np.int64(10**4)) == 4
        assert level("best_param_reduction", np.float32(99.0)) == 5


class TestScoreCli:
    @pytest.mark.parametrize("layer", sorted(SCORE_PINS), ids=" ".join)
    def test_score_output_bytes(self, layer, capsys):
        assert main(["score", "--layer", *layer]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == SCORE_PINS[layer]

    @pytest.mark.parametrize("dims, empty", [
        ((4, 4), {"t3f"}), ((2, 2), {"svd", "qr"}),
        ((1, 1, 2, 4), {"cp", "tt"})])
    def test_a_method_without_valid_rank_scores_what_exists(
            self, dims, empty, capsys, tmp_path):
        path = tmp_path / "score.json"
        assert main(["score", "--layer", ",".join(map(str, dims)), "--out",
                     str(path), "--timings"]) == 0
        methods = applicable_methods(parse_layer_spec(dims))
        summary = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in summary] == methods
        table = json.loads(path.read_text())
        assert sorted(table) == sorted(methods)
        for method in empty:
            assert set(table[method]) == {
                "rank_configurations", "exploration_space", "flexibility",
                "decomposition_time"}
            assert table[method]["exploration_space"] == {"raw": 0,
                                                          "level": 1}
        for method in set(methods) - empty:
            assert table[method]["exploration_space"]["raw"] >= 1
            assert len(table[method]) == 12


class TestRankSlotCount:
    @pytest.mark.parametrize("dims, slots", [((400, 120), 3), ((512, 512), 3),
                                             ((12, 10), 2)])
    def test_t3f_counts_the_deepest_box_and_the_plan(self, dims, slots):
        # depth-3 plans have two link ranks, depth-2 plans one; several
        # plans add the plan choice
        assert rank_slot_count(fc(*dims), "t3f") == slots

    def test_fc_methods_and_conv_methods(self):
        conv = LayerDesc(name="L", kind="conv2d", kernel=(3, 3), in_channels=4,
                         out_channels=6)
        assert rank_slot_count(fc(12, 10), "svd") == 1
        assert [rank_slot_count(conv, m) for m in ("tucker2", "cp", "tt")] \
            == [2, 1, 3]

    def test_fc_without_t3f_plan(self):
        # no plan, so no rank to choose
        assert rank_slot_count(fc(7, 11), "t3f") == 0


class TestMethodTable:
    def test_an_fc_without_t3f_plan_scores_svd_and_qr(self, capsys):
        assert list(method_table(fc(256, 7), time_decomposition=False)) == \
            ["svd", "qr"]
        assert main(["score", "--layer", "256,7"]) == 0
        assert sorted(json.loads(capsys.readouterr().out)) == ["qr", "svd"]
