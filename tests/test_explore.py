import functools
import hashlib
import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from lowrank import explore
from lowrank.costs import (CONV_METHODS, METHODS, OBJECTIVES, T3F_DEPTHS,
                           CostReport, closed_form,
                           cost_factorized, cost_original,
                           default_input_shape, default_plan, method_applies)
from lowrank.decompose import decompose_layer
from lowrank.dse import LayerSearchState
from lowrank.errors import RankError
from lowrank.explore import (DEFAULT_TOL, Solution, census, count_all,
                             count_valid, cp_max_rank, iter_solutions,
                             min_ranks, rank_bounds, select_candidates,
                             solutions_at_ratio, t3f_plans, tt_link_bounds,
                             valid_extremes)
from lowrank.ir import LayerDesc


def conv(kernel, cin, cout, stride=None, kind=None, padding="same"):
    kind = kind or f"conv{len(kernel)}d"
    return LayerDesc(name="L", kind=kind, kernel=kernel, in_channels=cin,
                     out_channels=cout, stride=stride, padding=padding)


def fc(m, n):
    return LayerDesc(name="F", kind="fc", in_channels=m, out_channels=n)


# benchmark layers: five conv shapes plus one 1d and one 3d variant
BENCH = {
    "L1": conv((3,), 512, 1024),
    "L2": conv((3, 3), 256, 512, stride=(2, 2)),
    "L3": conv((3, 3), 512, 512),
    "L4": conv((5, 5), 96, 256),
    "L5": conv((3, 3), 384, 256),
    "L6": conv((3, 3, 3), 32, 32),
    "F1": fc(400, 120),
    "F2": fc(512, 512),
    "F3": fc(512, 256),
}

ALL_COUNTS = {
    "tucker2": {"L1": 524_288, "L2": 131_072, "L3": 262_144, "L4": 24_576,
                "L5": 98_304, "L6": 1_024},
    "cp": {"L1": 1_536, "L2": 2_304, "L3": 4_608, "L4": 2_400, "L5": 2_304,
           "L6": 864},
    "tt": {"L1": 524_288, "L2": 100_663_296, "L3": 402_653_184,
           "L4": 11_796_480, "L5": 75_497_472, "L6": 9_437_184},
    "svd": {"F1": 120, "F2": 512, "F3": 256},
    "qr": {"F1": 120, "F2": 512, "F3": 256},
    "t3f": {"F1": 4_098_364, "F2": 5_866_648, "F3": 2_402_456},
}

VALID_COUNTS = {
    "tucker2": {"L1": 412_935, "L2": 121_246, "L3": 256_448, "L4": 24_387,
                "L5": 95_798, "L6": 1_018},
    "cp": {"L1": 1_022, "L2": 763, "L3": 2_290, "L4": 1_697, "L5": 1_369,
           "L6": 378},
    "tt": {"L1": 412_935, "L2": 75_804_694, "L3": 331_860_398,
           "L4": 11_295_643, "L5": 66_716_962, "L6": 8_794_525},
    "svd": {"F1": 92, "F2": 255, "F3": 170},
    "qr": {"F1": 92, "F2": 255, "F3": 170},
    "t3f": {"F1": 210_574, "F2": 297_414, "F3": 135_293},
}

CENSUS_COUNTS = {  # bucket sizes at 85 / 60 / 25 percent parameter cuts
    "tucker2": {"L1": (1, 1, 1), "L2": (2, 1, 1), "L3": (2, 2, 2),
                "L4": (1, 1, 1), "L5": (1, 3, 1), "L6": (2, 2, 2)},
    "cp": {"L1": (1, 1, 1), "L2": (1, 1, 0), "L3": (1, 1, 1),
           "L4": (1, 1, 1), "L5": (1, 1, 1), "L6": (1, 1, 1)},
    "tt": {"L1": (1, 1, 1), "L2": (30, 45, 130), "L3": (138, 306, 161),
           "L4": (116, 75, 34), "L5": (90, 79, 282), "L6": (420, 372, 360)},
    "svd": {"F1": (1, 1, 1), "F2": (1, 1, 1), "F3": (1, 1, 1)},
    "qr": {"F1": (1, 1, 1), "F2": (1, 1, 1), "F3": (1, 1, 1)},
    "t3f": {"F1": (34, 3, 0), "F2": (12, 2, 0), "F3": (9, 1, 0)},
}

# sha256 of the sorted-key JSON of the t3f census report at 25 / 60 / 85
# percent, without its generation time, per layer and objective
T3F_CENSUS_PINS = {
    ("F1", "params"):
        "8b6fe3f7c25aa9289d489b13c62356c3424096c22b5105ce6fd27fa7edf87f5c",
    ("F1", "flops"):
        "32618202d668cf65cc751a258f5783ae54ed33939197bde1472fa6039b9c05c4",
    ("F2", "params"):
        "9d828c503a6b617ed8b9eb6f399745b75c9103c23f352f10d3a94d2df12d70ef",
    ("F2", "flops"):
        "374698317ead9b7f2c0c7589a77652db876711ed5f3e04c2a0a31f6cedd28441",
    ("F3", "params"):
        "b332663f19cc391570180c281be0d4b9de4b8fb3c36345b04d124a6ebc2a6d3a",
    ("F3", "flops"):
        "25b7eb9cbb24f9607ab4208031e6f44ecdd54c0024f02e70789cd2a07be5e877",
}

# the same digest for the conv methods on the benchmark conv layers, per
# method, layer and objective
CONV_CENSUS_PINS = {
    ("tucker2", "L1", "params"):
        "c5c736ef7ad324d20e3a9d2d0f854945d443c5d63ca6b56cc81a2a15cc190589",
    ("tucker2", "L1", "flops"):
        "2055f938da26c4a86ce713372247e74b86137b83f1c3c0084398814a640aefea",
    ("tucker2", "L2", "params"):
        "279d38979093f0cec64b73f5dc9225741dc2951d58e85b0425aad903aa6884e6",
    ("tucker2", "L2", "flops"):
        "10013ee3c41157e74270daf830c1dea844ad8f285ea50b2501e9cb4232f56d1f",
    ("tucker2", "L3", "params"):
        "d93e87dbca1af3fc8ef733a0f8763768615bef0810121c01a3e451e4cec0d7d1",
    ("tucker2", "L3", "flops"):
        "32b9395999bbc35062d544170cf45f96ec17718b0facaed3cec83f7d7c1395c4",
    ("tucker2", "L4", "params"):
        "490ce6b5e8a09fffe9ce662214cee3da3f6878c318eae94c7512a0e3894e938e",
    ("tucker2", "L4", "flops"):
        "0018409b228f3ec8f8dc217f3facce0fa7a4cff85ebce5d1a09b736e72f46228",
    ("tucker2", "L5", "params"):
        "34f5bbe7ac3c0302a388a76f97da05efab61cba7fa185fa9aa2ed6498b3e102f",
    ("tucker2", "L5", "flops"):
        "412dabf99090adcd8f233800ecaf2e6e186937724c0dd1a9a5210f8a155af8c1",
    ("tucker2", "L6", "params"):
        "5e59997a5b839c27fd7ae4a6a2520404a833d251ca9dab98c0b207930cc7f345",
    ("tucker2", "L6", "flops"):
        "e190e68cab04caf436614123fd1868aadcace310576c4c411393334173068a32",
    ("cp", "L1", "params"):
        "41a4d7857235d3622ab8252e7cd36d642a020a3478b21cec71b5b41f42de5385",
    ("cp", "L1", "flops"):
        "337585c9afc93bc9180558f8410b06cfe50f3bfc75e08e1bba23c44acb916181",
    ("cp", "L2", "params"):
        "67d20ef6c4e8b67c7e1897b688dd6a5b3d5a5e5b0377a9b2e1af027ddedf507e",
    ("cp", "L2", "flops"):
        "0effc9729f921a7970a48174575215318444e8e9defb8dc0433ea6bb2e54e5d1",
    ("cp", "L3", "params"):
        "f47e8b4f1aaf8f92b1ee2ed39afcf6a0061fe0378a6ebd112e3a97f710510439",
    ("cp", "L3", "flops"):
        "355d5627d1f877adfcd9ab8e31ce3c51705102bbec4e9432ca48c36683c30711",
    ("cp", "L4", "params"):
        "df3f8996fa124967cac4da49d0fe51c9469f563c2d5b3e9e9e95080b15b9df24",
    ("cp", "L4", "flops"):
        "4d084a9935ecc6725ce0cf1a9f51c53a0075901239dd6b07146ffd0c406506f8",
    ("cp", "L5", "params"):
        "73ddac4c36499e2738a8961422126b7aa516d3dcdc91f374ce8b5a5c2f9e9e80",
    ("cp", "L5", "flops"):
        "122ce17feb96921faaaf489af7d15e2c45ab055982e07e6b59cccca9ce667eb9",
    ("cp", "L6", "params"):
        "21d121932ce5318378924f09e39bf5929aa0fd38eb162c316179278351491060",
    ("cp", "L6", "flops"):
        "5049d62a834b3f3505a1d18f11c9acaf3831a96c4cda925c732d5ae403998789",
    ("tt", "L1", "params"):
        "312b35b11e5a9aad9211a0b98bc7f5a7b35da46e568a4975fc07933732ce9f35",
    ("tt", "L1", "flops"):
        "8fa5d642274db7bea0fb3bc1f0aed55fe42c4e4e6b1e02c28b7376697e9b550e",
    ("tt", "L2", "params"):
        "dad83f3c45e9523c2ae3d108989d03ebb4b7e756deb7be533bb6fb8384881304",
    ("tt", "L2", "flops"):
        "ac78e145551acf46fe72b027fe704238031120bd40882ed3e4af8f071b90f80a",
    ("tt", "L3", "params"):
        "ccbb77e6bff0558d2c792344e72e45c3ec00b32367192a5da292a6b20d929390",
    ("tt", "L3", "flops"):
        "4e9668d43cdeca4e5246f54cf95f92d94b1509a6403875b38985985a350bb84f",
    ("tt", "L4", "params"):
        "a1d5ab230d2d778010197dd94cf856c35d5e4787cf34745e7987d229be7733fe",
    ("tt", "L4", "flops"):
        "9a06ab8dbd2d551b392b80f7126c09752f2f1c643d0f05b88a0b28f5afd9623c",
    ("tt", "L5", "params"):
        "176d1183499208694da8760c8f5a597d9ed439b5756941e4c1227af5454ec94e",
    ("tt", "L5", "flops"):
        "f049e1558919fc960a25fac7dcd99ab27f4aa66f99797b5c5f8f3904e3bacad0",
    ("tt", "L6", "params"):
        "782e433593765f2621cdb42d1cc155eac98e368ad68295ed7a76ea899feeb3bb",
    ("tt", "L6", "flops"):
        "861c04f967bda8d9117b45454bc6b3f258a55facadbe48f002c762c82da37d9c",
}

# small fc layers for brute-force t3f checks: depth-2 and depth-3 plans,
# depth-2 plans only, and no plan at all (7 is prime)
SMALL_FCS = {"12x8": fc(12, 8), "4x6": fc(4, 6), "7x5": fc(7, 5)}


# small conv geometries for brute-force checks: (layer, input shape)
SMALL_CONVS = {
    "conv2d": (conv((3, 3), 4, 6), None),
    "conv2d-valid-s2": (conv((3, 3), 4, 6, stride=(2, 2), padding="valid"),
                        (9, 9, 4)),
    "conv1d": (conv((5,), 6, 10), None),
    "conv3d": (conv((3, 2, 3), 3, 5), None),
}


def brute_force_points(layer, method, shape=None):
    """(plan, ranks, cost, valid) for every point of every plan's rank
    box, in plan order, then rank order."""
    shape = shape or default_input_shape(layer)
    orig = cost_original(layer, shape)
    points = []
    for plan in t3f_plans(layer) if method == "t3f" else [None]:
        for ranks in itertools.product(
                *(range(lo, hi + 1)
                  for lo, hi in rank_bounds(layer, method, plan))):
            got = cost_factorized(layer, method, ranks, shape, plan=plan)
            points.append((plan, ranks, got, got.params < orig.params
                           and got.flops < orig.flops))
    return points


def brute_force_bucket(layer, points, percent, objective, tol, shape=None):
    """Census bucket by definition: the valid value nearest the target
    (ties toward the smaller), its members as (plan, ranks, cost) in
    enumeration order, the first of them with the fewest flops, and
    the span of their flops reductions."""
    original = cost_original(layer, shape or default_input_shape(layer))
    orig_value = original.get(objective)
    target = (1.0 - percent / 100.0) * orig_value
    valid = [(plan, ranks, cost) for plan, ranks, cost, ok in points if ok]
    if not valid:
        return None, [], None, None
    dist, value = min((abs(c.get(objective) - target), c.get(objective))
                      for _, _, c in valid)
    if dist > tol * orig_value:
        return None, [], None, None
    members = [m for m in valid if m[2].get(objective) == value]
    flops = [c.flops for _, _, c in members]
    best = members[flops.index(min(flops))]
    span = (1.0 - max(flops) / original.flops,
            1.0 - min(flops) / original.flops)
    return value, members, best, span


def census_digest(layer, method, objective):
    """sha256 of the sorted-key JSON of the census report at 25 / 60 / 85
    percent, without its generation time."""
    report = census(layer, method, (25, 60, 85),
                    objective=objective).to_dict()
    del report["generation_time"]
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()) \
        .hexdigest()


def check_census_against_brute_force(layer, method, shape, objective,
                                     points=None,
                                     percents=tuple(range(0, 100, 5)) + (99,),
                                     tols=(DEFAULT_TOL, 0.05)):
    """``census`` and ``solutions_at_ratio`` agree with
    ``brute_force_bucket`` at ``percents`` (every fifth percent and 99 by
    default) and ``tols``; ``points`` are the space's brute-force points."""
    if points is None:
        points = brute_force_points(layer, method, shape)
    for tol in tols:
        result = census(layer, method, percents, objective=objective,
                        tol=tol, input_shape=shape)
        assert result.all_count == len(points)
        assert result.valid_count == sum(ok for *_, ok in points)
        for percent, bucket in zip(percents, result.buckets):
            value, members, best, span = brute_force_bucket(
                layer, points, percent, objective, tol, shape)
            where = (objective, tol, percent)
            assert (bucket.value, bucket.count) == (value, len(members)), \
                where
            got = solutions_at_ratio(layer, method, percent, objective, tol,
                                     input_shape=shape)
            assert sorted((s.plan or (), s.ranks, s.cost) for s in got) == \
                sorted((plan or (), ranks, cost)
                       for plan, ranks, cost in members), where
            if best is None:
                assert bucket.best is None, where
                assert bucket.flops_reduction_min is None, where
                continue
            assert (bucket.best.plan, bucket.best.ranks,
                    bucket.best.cost) == best, where
            assert (bucket.flops_reduction_min,
                    bucket.flops_reduction_max) == span, where


def percent_hitting(original, target):
    """A percent whose census target ``(1 - percent/100) * original`` is
    exactly ``target`` in floating point, or None."""
    percent = 100.0 * (1.0 - target / original)
    for _ in range(16):
        got = (1.0 - percent / 100.0) * original
        if got == target:
            return percent
        # a larger percent means a smaller target
        percent = math.nextafter(percent, math.inf if got > target
                                 else -math.inf)
    return None


def tie_percents(layer, points, objective, shape=None):
    """Percents whose target is exactly a valid value, and exactly
    midway between two consecutive valid values, with the value the
    census must pick at each: the value itself, the smaller one on the
    tie.  At most about a dozen of each, spread over the values."""
    original = cost_original(layer, shape or default_input_shape(layer))
    orig_value = original.get(objective)
    values = sorted({cost.get(objective) for *_, cost, ok in points if ok})
    every = max(1, len(values) // 12)
    targets = [(value, value) for value in values[::every]]
    targets += [((lo + hi) / 2, lo)
                for lo, hi in zip(values[::every], values[1::every])]
    return [(percent, value) for percent, value in
            ((percent_hitting(orig_value, target), value)
             for target, value in targets) if percent is not None]


class TestCounts:
    @pytest.mark.parametrize("method", sorted(ALL_COUNTS))
    def test_all_counts_frozen(self, method):
        for key, expect in ALL_COUNTS[method].items():
            assert count_all(BENCH[key], method) == expect, key

    @pytest.mark.parametrize("method", sorted(VALID_COUNTS))
    def test_valid_counts_frozen(self, method):
        for key, expect in VALID_COUNTS[method].items():
            assert count_valid(BENCH[key], method) == expect, key

    @pytest.mark.parametrize("geometry", sorted(SMALL_CONVS))
    @pytest.mark.parametrize("method", ["tucker2", "cp", "tt"])
    def test_brute_force_valid_small_conv(self, method, geometry):
        layer, shape = SMALL_CONVS[geometry]
        points = brute_force_points(layer, method, shape)
        assert count_all(layer, method) == len(points)
        assert count_valid(layer, method, shape) == sum(
            ok for *_, ok in points)

    def test_brute_force_valid_small_t3f(self):
        for name, layer in SMALL_FCS.items():
            points = brute_force_points(layer, "t3f")
            assert count_all(layer, "t3f") == len(points), name
            assert count_valid(layer, "t3f") == sum(
                ok for *_, ok in points), name

    @staticmethod
    def check_affine_growth(name, slab):
        # the integer nearest rank of a census divides by the slope
        layer, shape = SMALL_CONVS.get(name) or (
            BENCH.get(name) or SMALL_FCS[name], None)
        for method in (m for m in ALL_COUNTS if method_applies(layer, m)):
            for fam in explore._families(layer, method, shape, slab):
                for metric in ("params", "flops", "overall_mem"):
                    assert fam.base.get(metric).min(initial=0) >= 0
                    assert fam.slope.get(metric).min(initial=1) >= 1

    @pytest.mark.parametrize("name", [*sorted(BENCH), *sorted(SMALL_CONVS),
                                      *sorted(SMALL_FCS)])
    def test_every_metric_grows_with_the_innermost_rank(self, name):
        # enumeration slabs are affine in the last rank slot
        self.check_affine_growth(name, explore._FIRST_SLAB)

    @pytest.mark.parametrize("name", [*sorted(BENCH), *sorted(SMALL_CONVS),
                                      *sorted(SMALL_FCS)])
    def test_every_metric_grows_with_the_affine_rank(self, name):
        # whole-space families are affine in the slot leaving fewest cells
        self.check_affine_growth(name, math.inf)

    def test_tt_counts_along_its_longest_link(self):
        layer = conv((3, 3), 16, 16)
        assert [hi for _, hi in rank_bounds(layer, "tt")] == [16, 48, 16]
        (fam,) = explore._families(layer, "tt")
        assert (fam.axis, fam.plan_index.size) == (1, 16 * 16)
        # so the brute-force census tests reach the enumeration-order
        # tie-break of a family not affine in its last slot
        for geometry in ("conv2d", "conv2d-valid-s2", "conv3d"):
            layer, shape = SMALL_CONVS[geometry]
            (fam,) = explore._families(layer, "tt", shape)
            assert fam.axis < len(fam.outer), geometry

    def test_all_count_is_exact_past_int64(self):
        layer = conv((3, 3, 3), 65536, 65536)
        bounds = [hi for _, hi in rank_bounds(layer, "tt")]
        assert bounds == [65536, 196608, 196608, 65536]
        assert count_all(layer, "tt") == 65536 ** 2 * 196608 ** 2 > 2 ** 63

    def test_t3f_layer_without_plans(self):
        layer = SMALL_FCS["7x5"]
        assert count_all(layer, "t3f") == count_valid(layer, "t3f") == 0
        result = census(layer, "t3f", (25, 60, 85))
        assert (result.all_count, result.valid_count) == (0, 0)
        assert all(b.value is None and b.count == 0 and b.best is None
                   for b in result.buckets)
        assert solutions_at_ratio(layer, "t3f", 60) == []
        assert list(iter_solutions(layer, "t3f")) == []
        assert valid_extremes(layer, "t3f") == {"valid_count": 0}


class TestBounds:
    def test_tucker_bounds(self):
        assert list(rank_bounds(BENCH["L2"], "tucker2")) == [(1, 256), (1, 512)]

    def test_cp_max_rank_rule(self):
        # product of dims over the largest one
        assert cp_max_rank(BENCH["L2"]) == 3 * 3 * 256 * 512 // 512
        assert cp_max_rank(conv((3, 3), 4, 6)) == 36

    def test_tt_link_bounds_hand(self):
        # dims (C, K1, K2, F): each link min(prod left, prod right)
        assert list(tt_link_bounds((8, 3, 3, 12))) == [8, 24, 12]
        assert list(tt_link_bounds((512, 3, 1024))) == [512, 1024]
        # a (plans, modes) array: one call bounds every row
        rows = np.array([[8, 3, 3, 12], [512, 3, 1, 1024], [6, 20, 20, 6],
                         [2, 2, 2, 2]], dtype=np.int64)
        got = np.stack(tt_link_bounds(tuple(rows.T)), axis=1)
        assert got.tolist() == [tt_link_bounds(tuple(int(d) for d in row))
                                for row in rows]

    @pytest.mark.parametrize("name", ["F1", "F2", "F3", *sorted(SMALL_FCS)])
    def test_box_rows_are_plan_rank_bounds(self, name):
        layer = BENCH.get(name) or SMALL_FCS.get(name)
        boxes = list(explore._boxes(layer, "t3f"))
        assert [p for plans, *_ in boxes for p in plans] == t3f_plans(layer)
        for plans, box, modes in boxes:
            assert box.dtype == np.int64 and box.shape[0] == len(plans)
            assert box.tolist() == [
                [hi for _, hi in rank_bounds(layer, "t3f", plan)]
                for plan in plans]
            assert modes.dtype == np.int64
            assert modes.tolist() == [list(ms + ns) for ms, ns in plans]

    def test_rank_bounds_are_python_ints(self):
        for layer, method, plan in (
                (BENCH["L2"], "tt", None), (BENCH["L6"], "tt", None),
                (BENCH["F1"], "t3f", t3f_plans(BENCH["F1"])[0]),
                (BENCH["F1"], "t3f", t3f_plans(BENCH["F1"])[-1])):
            bounds = rank_bounds(layer, method, plan)
            assert all(type(lo) is int and type(hi) is int
                       for lo, hi in bounds), (method, bounds)

    def test_t3f_plans_small(self):
        plans = t3f_plans(fc(12, 10))
        assert len(plans) == 8  # four orderings of 12, two of 10, depth 2
        for ms, ns in plans:
            assert np.prod(ms) == 12 and np.prod(ns) == 10
            assert all(f >= 2 for f in ms + ns)
            assert len(ms) == len(ns) == 2

    def test_t3f_plans_include_depth3(self):
        plans = t3f_plans(fc(400, 120))
        depths = {len(ms) for ms, _ in plans}
        assert depths == {2, 3}

    def test_inapplicable_method_raises(self):
        conv2d, dense = conv((3, 3), 4, 6), fc(12, 8)
        for layer, method in ((conv2d, "svd"), (conv2d, "t3f"),
                              (dense, "tt"), (dense, "tucker2")):
            with pytest.raises(RankError):
                rank_bounds(layer, method, ((3, 4), (2, 4)))
            with pytest.raises(RankError):
                count_all(layer, method)
            with pytest.raises(RankError):
                count_valid(layer, method)
            with pytest.raises(RankError):
                valid_extremes(layer, method)

    @pytest.mark.parametrize("method", CONV_METHODS)
    def test_grouped_conv_raises_one_error_everywhere(self, method):
        grouped = LayerDesc(name="g", kind="conv2d", kernel=(3, 3),
                            in_channels=8, out_channels=8, groups=4)
        ranks = {"tucker2": (1, 1), "cp": (1,), "tt": (1, 1, 1)}[method]
        weight = np.ones(grouped.weight_shape())
        assert not method_applies(grouped, method)
        calls = [lambda: rank_bounds(grouped, method),
                 lambda: count_all(grouped, method),
                 lambda: count_valid(grouped, method),
                 lambda: valid_extremes(grouped, method),
                 lambda: census(grouped, method, (50,)),
                 lambda: iter_solutions(grouped, method),
                 lambda: decompose_layer(grouped, weight, method, ranks)]
        messages = set()
        for call in calls:
            with pytest.raises(RankError, match="groups=4") as err:
                call()
            messages.add(str(err.value))
        assert messages == {f"method {method!r} does not apply to conv2d "
                            "layers with groups=4"}

    def test_min_ranks(self):
        assert min_ranks(BENCH["L2"], "tucker2") == (1, 1)
        assert min_ranks(BENCH["L2"], "tt") == (1, 1, 1)
        assert min_ranks(BENCH["F1"], "svd") == (1,)


class TestCensus:
    @pytest.mark.parametrize("method", sorted(CENSUS_COUNTS))
    def test_bucket_counts_frozen(self, method):
        for key, expect in CENSUS_COUNTS[method].items():
            result = census(BENCH[key], method, (85, 60, 25))
            got = tuple(b.count for b in result.buckets)
            assert got == expect, (key, got)

    def test_bucket_members_share_value(self):
        layer = BENCH["L2"]
        result = census(layer, "tucker2", (60,))
        bucket = result.buckets[0]
        sols = solutions_at_ratio(layer, "tucker2", 60, "params")
        assert len(sols) == bucket.count == 1
        shape = default_input_shape(layer)
        orig = cost_original(layer, shape)
        for sol in sols:
            assert sol.cost.params == bucket.value
            assert sol.cost.params < orig.params
            assert sol.cost.flops < orig.flops

    def test_empty_bucket_when_unreachable(self):
        result = census(BENCH["L2"], "cp", (25,))
        assert result.buckets[0].count == 0
        assert result.buckets[0].best is None
        assert solutions_at_ratio(BENCH["L2"], "cp", 25, "params") == []

    def test_best_member_minimizes_flops(self):
        result = census(BENCH["L2"], "tt", (60,))
        bucket = result.buckets[0]
        sols = solutions_at_ratio(BENCH["L2"], "tt", 60, "params")
        assert bucket.best.cost.flops == min(s.cost.flops for s in sols)

    @pytest.mark.parametrize("method, key", [("tt", "L2"), ("t3f", "F1")])
    def test_best_keeps_both_types(self, method, key):
        # the best member is re-costed by ``_replace`` on a reader-built one
        (bucket,) = census(BENCH[key], method, (60,)).buckets
        assert_checked_costs(BENCH[key], method, [bucket.best])

    def test_flops_reduction_range(self):
        result = census(BENCH["L2"], "tt", (60,))
        bucket = result.buckets[0]
        assert 0.0 <= bucket.flops_reduction_min <= bucket.flops_reduction_max

    def test_objective_variants(self):
        for objective in ("params", "flops", "overall_mem"):
            result = census(BENCH["L4"], "tucker2", (60,), objective=objective)
            bucket = result.buckets[0]
            if bucket.count:
                assert bucket.best.cost.get(objective) == bucket.value

    @pytest.mark.parametrize("key", ["F1", "F2", "F3"])
    @pytest.mark.parametrize("objective", ["params", "flops"])
    def test_t3f_reports_pinned(self, key, objective):
        assert census_digest(BENCH[key], "t3f", objective) == \
            T3F_CENSUS_PINS[key, objective]

    @pytest.mark.parametrize("method, key, objective", sorted(CONV_CENSUS_PINS))
    def test_conv_reports_pinned(self, method, key, objective):
        assert census_digest(BENCH[key], method, objective) == \
            CONV_CENSUS_PINS[method, key, objective]

    @pytest.mark.parametrize("name", sorted(SMALL_FCS))
    @pytest.mark.parametrize("objective", ["params", "flops", "overall_mem"])
    def test_t3f_against_brute_force(self, name, objective):
        check_census_against_brute_force(SMALL_FCS[name], "t3f", None,
                                         objective)

    @pytest.mark.parametrize("geometry", sorted(SMALL_CONVS))
    @pytest.mark.parametrize("method", ["tucker2", "cp", "tt"])
    def test_conv_box_against_brute_force(self, method, geometry):
        layer, shape = SMALL_CONVS[geometry]
        for objective in ("params", "flops", "overall_mem"):
            check_census_against_brute_force(layer, method, shape, objective)

    @pytest.mark.parametrize("geometry", sorted(SMALL_CONVS))
    @pytest.mark.parametrize("method", ["tucker2", "cp", "tt"])
    def test_targets_above_the_original_against_brute_force(self, method,
                                                            geometry):
        # a valid point may hold more overall memory than the original
        # layer, so a negative percent can fill an overall_mem bucket
        layer, shape = SMALL_CONVS[geometry]
        points = brute_force_points(layer, method, shape)
        for objective in ("params", "flops", "overall_mem"):
            check_census_against_brute_force(
                layer, method, shape, objective, points,
                (-170, -100, -50, -10, -5, -1, -0.5))

    @pytest.mark.parametrize("space", [
        *(f"{method}:{geometry}" for method in ("tucker2", "cp", "tt")
          for geometry in sorted(SMALL_CONVS)),
        *(f"t3f:{name}" for name in sorted(SMALL_FCS))])
    def test_exact_and_midway_targets_against_brute_force(self, space):
        # a target on a valid value picks it; a target midway between two
        # consecutive valid values picks the smaller one
        method, name = space.split(":")
        layer, shape = SMALL_CONVS.get(name) or (SMALL_FCS[name], None)
        points = brute_force_points(layer, method, shape)
        for objective in ("params", "flops", "overall_mem"):
            picks = tie_percents(layer, points, objective, shape)
            if not any(ok for *_, ok in points):
                assert picks == []
                continue
            assert picks, objective
            percents = [percent for percent, _ in picks]
            # a tolerance wide enough that every bucket is filled
            tols = (1.0,)
            check_census_against_brute_force(layer, method, shape, objective,
                                             points, percents, tols)
            got = census(layer, method, percents, objective=objective,
                         tol=1.0, input_shape=shape)
            assert [b.value for b in got.buckets] == \
                [value for _, value in picks], objective

    def test_t3f_best_breaks_ties_in_plan_order(self):
        # three members share the fewest flops: two depth-2 plans and a
        # depth-3 one; the first plan in enumeration order wins
        layer = fc(12, 8)
        bucket = census(layer, "t3f", (25,), objective="flops").buckets[0]
        assert bucket.count == 3
        assert (bucket.best.plan, bucket.best.ranks) == (((2, 6), (2, 4)),
                                                         (1,))

    def test_tight_tolerance_empties_buckets(self):
        wide = census(BENCH["L2"], "tucker2", (60,), tol=0.005)
        narrow = census(BENCH["L2"], "tucker2", (60,), tol=1e-9)
        assert wide.buckets[0].count == 1
        assert narrow.buckets[0].count == 0

    @pytest.mark.parametrize("tol", [float("nan"), -0.01])
    def test_bad_tolerance_raises(self, tol):
        layer = BENCH["L2"]
        with pytest.raises(RankError, match="tol must be non-negative"):
            census(layer, "tucker2", (60,), tol=tol)
        with pytest.raises(RankError, match="tol must be non-negative"):
            solutions_at_ratio(layer, "tucker2", 60, tol=tol)
        # zero keeps only exact hits of the target
        assert census(layer, "tucker2", (60,), tol=0.0).buckets[0].count == 0

    def test_nan_percent_raises(self):
        with pytest.raises(RankError, match="percent must be a number"):
            census(BENCH["L2"], "tucker2", (60, float("nan")))

    @pytest.mark.parametrize("percent", [math.inf, -math.inf, math.nan])
    def test_non_finite_percent_raises(self, percent):
        for layer, method in ((BENCH["L2"], "tt"), (BENCH["F1"], "t3f")):
            with pytest.raises(RankError, match="percent must be a number "
                                                "and finite"):
                census(layer, method, (60, percent))
            with pytest.raises(RankError, match="percent must be a number "
                                                "and finite"):
                solutions_at_ratio(layer, method, percent)

    @pytest.mark.parametrize("bad", ["50", None, True, np.bool_(False)],
                             ids=repr)
    def test_a_percent_must_be_a_real_number(self, bad):
        for layer, method in ((fc(8, 6), "svd"), (BENCH["F1"], "t3f")):
            with pytest.raises(RankError, match="percent must be a real "
                                                "number"):
                census(layer, method, (60, bad))
            with pytest.raises(RankError, match="percent must be a real "
                                                "number"):
                solutions_at_ratio(layer, method, bad)

    @pytest.mark.parametrize("bad", ["0.1", None, True], ids=repr)
    def test_a_tolerance_must_be_a_real_number(self, bad):
        with pytest.raises(RankError, match="tol must be a real number"):
            census(fc(8, 6), "svd", (60,), tol=bad)
        with pytest.raises(RankError, match="tol must be a real number"):
            solutions_at_ratio(fc(8, 6), "svd", 60, tol=bad)

    def test_infinite_tolerance_raises(self):
        for layer, method in ((BENCH["L2"], "tt"), (BENCH["F1"], "t3f")):
            with pytest.raises(RankError, match="tol must be non-negative "
                                                "and finite"):
                census(layer, method, (60,), tol=math.inf)
            with pytest.raises(RankError, match="tol must be non-negative "
                                                "and finite"):
                solutions_at_ratio(layer, method, 60, tol=math.inf)

    @pytest.mark.parametrize("query, match", [
        ({"percents": (50, math.nan)}, "percent must be a number and finite"),
        ({"percents": (50, "60")}, "percent must be a real number"),
        ({"tol": -0.01}, "tol must be non-negative"),
        ({"tol": math.nan}, "tol must be non-negative"),
        ({"objective": "latency"}, "objective must be one of"),
    ], ids=["nan-percent", "text-percent", "negative-tol", "nan-tol",
            "unknown-objective"])
    def test_a_bad_query_raises_before_any_family_is_built(self, monkeypatch,
                                                           query, match):
        def families(*args, **kwargs):
            raise AssertionError("a family was built")

        monkeypatch.setattr(explore, "_families", families)
        query = {"percents": (50,), "objective": "params",
                 "tol": DEFAULT_TOL, **query}
        for layer, method in ((BENCH["L3"], "tt"), (BENCH["F1"], "t3f")):
            with pytest.raises(RankError, match=match):
                census(layer, method, query["percents"], query["objective"],
                       query["tol"])
            memo = {}
            with pytest.raises(RankError, match=match):
                solutions_at_ratio(layer, method, query["percents"][-1],
                                   query["objective"], query["tol"],
                                   memo=memo)
            assert memo == {}

    @pytest.mark.parametrize("percent", [1e300, -1e300, 1e6, -1e6, 201])
    @pytest.mark.parametrize("objective", ["params", "flops", "overall_mem"])
    def test_far_percent_gives_an_empty_bucket(self, percent, objective):
        # the target lies farther than tol * original from every valid value
        for layer, method in ((BENCH["L2"], "tt"), (BENCH["F1"], "t3f"),
                              (BENCH["L6"], "cp")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                bucket, = census(layer, method, (percent,),
                                 objective=objective).buckets
                members = solutions_at_ratio(layer, method, percent,
                                             objective)
            assert (bucket.value, bucket.count, bucket.best) == \
                (None, 0, None)
            assert members == []

    def test_wide_tolerance_reaches_the_extremes(self):
        # with tol finite but huge, a far target still takes the nearest
        # valid value: the smallest one below, the largest one above
        layer = BENCH["L6"]
        spans = valid_extremes(layer, "tt")
        for percent, value in ((1e300, spans["params"][0]),
                               (-1e300, spans["params"][1])):
            bucket, = census(layer, "tt", (percent,), tol=1e303).buckets
            assert bucket.value == value and bucket.count >= 1


class TestIterSolutions:
    def test_matches_brute_force(self):
        layer = conv((3, 3), 4, 6)
        shape = default_input_shape(layer)
        seen = {(s.method, s.plan, s.ranks)
                for s in iter_solutions(layer, "tucker2", shape)}
        expect = {("tucker2", None, (r1, r2))
                  for r1 in range(1, 5) for r2 in range(1, 7)}
        assert seen == expect

    def test_valid_only_filter(self):
        layer = conv((3, 3), 4, 6)
        shape = default_input_shape(layer)
        orig = cost_original(layer, shape)
        sols = list(iter_solutions(layer, "tucker2", shape, valid_only=True))
        assert len(sols) == count_valid(layer, "tucker2")
        assert all(s.cost.params < orig.params and s.cost.flops < orig.flops
                   for s in sols)

    def test_limit(self):
        layer = conv((3, 3), 8, 8)
        sols = list(iter_solutions(layer, "tt", limit=10))
        assert len(sols) == 10

    def test_zero_limit_yields_nothing(self):
        layer = conv((3, 3), 8, 8)
        assert list(iter_solutions(layer, "tt", limit=0)) == []
        assert list(iter_solutions(fc(12, 8), "t3f", limit=0)) == []

    def test_negative_limit_raises(self):
        with pytest.raises(RankError):
            iter_solutions(conv((3, 3), 8, 8), "tt", limit=-1)

    @pytest.mark.parametrize("bad", [2.5, 2.0, "3", True, float("nan"),
                                     float("inf")], ids=repr)
    def test_a_limit_must_be_an_integer(self, bad):
        # 2.5 used to raise islice's ValueError, and True to mean 1
        with pytest.raises(RankError, match="limit must be an integer of "
                                            "at least 0"):
            iter_solutions(conv((3, 3), 8, 8), "tt", limit=bad)

    def test_a_numpy_integer_limit_is_accepted(self):
        layer = conv((3, 3), 8, 8)
        assert (list(iter_solutions(layer, "tt", limit=np.int64(7)))
                == list(iter_solutions(layer, "tt", limit=7)))

    def test_limit_builds_only_the_depths_it_reaches(self, monkeypatch):
        built = []
        family = explore._AffineFamily

        def counted(*args):
            built.append(len(args[-1][0][0]))
            return family(*args)

        monkeypatch.setattr(explore, "_AffineFamily", counted)
        assert len(list(iter_solutions(fc(400, 120), "t3f", limit=5))) == 5
        assert built == [2]

    @pytest.mark.parametrize("name", sorted(SMALL_FCS))
    def test_t3f_order_matches_brute_force(self, name):
        layer = SMALL_FCS[name]
        points = brute_force_points(layer, "t3f")
        got = [(s.plan, s.ranks, s.cost) for s in iter_solutions(layer, "t3f")]
        assert got == [(plan, ranks, cost) for plan, ranks, cost, _ in points]
        got = [(s.plan, s.ranks)
               for s in iter_solutions(layer, "t3f", valid_only=True)]
        assert got == [(plan, ranks) for plan, ranks, _, ok in points if ok]

    def test_deterministic_order(self):
        layer = conv((3, 3), 6, 6)
        a = [s.ranks for s in iter_solutions(layer, "tt", limit=50)]
        b = [s.ranks for s in iter_solutions(layer, "tt", limit=50)]
        assert a == b


def assert_checked_costs(layer, method, solutions, shape=None):
    """Each solution is a ``Solution`` holding a ``CostReport`` (a plain
    tuple of the same values would compare equal), equal and equal in
    hash to the one built on the checked ``cost_factorized`` at its
    point, in Python ints (the enumerate CSV prints them)."""
    for s in solutions:
        assert type(s) is Solution and type(s.cost) is CostReport
        checked = Solution(method, s.ranks, cost_factorized(
            layer, method, s.ranks, shape, plan=s.plan), s.plan)
        assert s == checked and hash(s) == hash(checked)
        assert all(type(v) is int
                   for v in (s.cost.params, s.cost.flops, s.cost.fm))


# every method on small layers, with t3f at both depths and convs with
# non-default input shapes, strides and padding
CELL_CASES = [
    *(pytest.param(method, SMALL_CONVS[name], id=f"{method}-{name}")
      for method in CONV_METHODS for name in sorted(SMALL_CONVS)),
    *(pytest.param(method, (conv((3, 3), 4, 6, stride=(2, 2)), (7, 5, 4)),
                   id=f"{method}-conv2d-same-s2") for method in CONV_METHODS),
    *(pytest.param(method, (SMALL_FCS[name], None), id=f"{method}-{name}")
      for method in ("svd", "qr", "t3f") for name in sorted(SMALL_FCS)),
]


class TestCellCosts:
    """Enumeration and bucket members read their costs from the rank
    families' cells; the checked scalar path must agree everywhere."""

    @pytest.mark.parametrize("method, case", CELL_CASES)
    def test_whole_box_matches_the_checked_cost(self, method, case):
        layer, shape = case
        sols = list(iter_solutions(layer, method, shape))
        assert len(sols) == count_all(layer, method)
        assert_checked_costs(layer, method, sols, shape)

    @pytest.mark.parametrize("method, name", [
        ("tucker2", "L6"), ("cp", "L4"), ("tt", "L6"),
        ("svd", "F3"), ("qr", "F1"), ("t3f", "F1")])
    @pytest.mark.parametrize("objective", ["params", "flops"])
    def test_bucket_members_match_the_checked_cost(self, method, name,
                                                   objective):
        layer = BENCH[name]
        filled = 0
        for percent in (25, 60, 85):
            members = solutions_at_ratio(layer, method, percent, objective)
            assert_checked_costs(layer, method, members)
            filled += bool(members)
        assert filled

    def test_fields_are_read_only(self):
        (s,) = iter_solutions(BENCH["F1"], "t3f", limit=1)
        for obj, name in ((s, "ranks"), (s.cost, "params")):
            with pytest.raises(AttributeError):
                setattr(obj, name, getattr(obj, name))


def t3f_families_at(layer, axes) -> list:
    """The whole t3f families of ``layer``, one per depth and per rank
    slot that ``axes(box)`` names as the affine slot."""
    original = cost_original(layer, default_input_shape(layer))
    return [explore._AffineFamily(layer, "t3f", None, original, axis, box,
                                  modes, plans)
            for plans, box, modes in explore._boxes(layer, "t3f")
            for axis in axes(box)]


class TestT3fCells:
    """A t3f family walks ``closed_form`` once per plan and spreads each
    plan's coefficients over its cells; every cell, at every rank of
    its affine slot, must cost what the checked scalar path costs."""

    @pytest.mark.parametrize("name", ["12x8", "24x30"])
    @pytest.mark.parametrize("slots", ["fewest cells", "each slot"])
    def test_every_cell_at_every_rank_matches_the_checked_cost(self, name,
                                                               slots):
        layer = fc(12, 8) if name == "12x8" else fc(24, 30)
        original = cost_original(layer, default_input_shape(layer))
        axes = ((lambda box: [explore._affine_slot(box)])
                if slots == "fewest cells" else
                (lambda box: range(box.shape[1])))
        families = t3f_families_at(layer, axes)
        assert {len(fam.plans[0][0]) for fam in families} == {2, 3}
        for fam in families:
            points = []
            for cell in range(fam.plan_index.size):
                plan = fam.plans[int(fam.plan_index[cell])]
                outer = [int(ranks[cell]) for ranks in fam.outer]
                base, slope = ([int(part[cell]) for part in report]
                               for report in (fam.base, fam.slope))
                valid = 0
                for r in range(1, int(fam.bound[cell]) + 1):
                    ranks = tuple(outer[:fam.axis] + [r] + outer[fam.axis:])
                    want = cost_factorized(layer, "t3f", ranks, plan=plan)
                    assert [b + s * r for b, s in zip(base, slope)] == \
                        list(want), (plan, ranks)
                    points.append((plan, ranks))
                    if want.params < original.params and \
                            want.flops < original.flops:
                        valid = r
                assert max(int(fam.valid_hi[cell]), 0) == valid
            # the cells cover the plans' rank boxes once each
            boxes = [(plan, ranks) for plan in fam.plans
                     for ranks in itertools.product(*(
                         range(lo, hi + 1) for lo, hi in
                         rank_bounds(layer, "t3f", plan)))]
            assert sorted(points) == sorted(boxes)
        if slots == "each slot":  # depth 3 at both of its slots
            assert sorted(fam.axis for fam in families
                          if fam.outer) == [0, 1]

    def test_the_walk_takes_one_value_per_plan(self, monkeypatch):
        # the per-plan walk: no array closed_form sees, rank or mode
        # size, is longer than the plans of the depth being built
        seen = []
        walk = explore.closed_form

        def recording(layer, method, ranks, input_shape=None, plan=None):
            arrays = (*ranks, *itertools.chain(*(plan or ())))
            seen.append(max(np.size(part) for part in arrays))
            return walk(layer, method, ranks, input_shape, plan)

        monkeypatch.setattr(explore, "closed_form", recording)
        families = explore._families(BENCH["F1"], "t3f")
        plans = {2: 182, 3: 2160}
        for fam in families:
            depth = len(fam.plans[0][0])
            assert len(fam.plans) == plans.pop(depth)
            assert seen and max(seen) <= len(fam.plans)
            if depth == 3:
                assert fam.plan_index.size > 50 * len(fam.plans)
            seen.clear()
        assert not plans

    def test_t3f_cells_have_at_most_one_outer_rank(self):
        # a family spreads a plan's walk over its cells along one outer
        # rank; a depth past 3 would give its cells two
        assert set(T3F_DEPTHS) <= {2, 3}


def largest_exact_side(layer, method) -> int:
    """The largest side of a square input at which ``count_valid`` costs
    ``method`` on ``layer`` without a RankError."""
    lo, hi = 1, 2 ** 40
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            count_valid(layer, method, (mid, mid, layer.in_channels))
            lo = mid
        except RankError:
            hi = mid
    return lo


class TestExactRange:
    """The rank cells hold int64 costs: a space whose costs reach 2**62
    raises RankError instead of wrapping, and one just below is exact."""

    @pytest.mark.parametrize("side", [11_000_000, 15_000_000])
    def test_a_wrapping_space_raises(self, side):
        layer, shape = conv((3, 3), 64, 64), (side, side, 64)
        message = rf"L: tt costs at input shape \({side}, {side}, 64\)"
        with pytest.raises(RankError, match=message):
            next(iter_solutions(layer, "tt", shape))
        with pytest.raises(RankError, match=message):
            count_valid(layer, "tt", shape)
        with pytest.raises(RankError, match=message):
            valid_extremes(layer, "tt", shape)

    @pytest.mark.parametrize("method", CONV_METHODS)
    @pytest.mark.parametrize("stride", [None, (2, 2)])
    def test_just_below_the_cap_is_exact(self, method, stride):
        layer = conv((3, 3), 2, 3, stride=stride)
        side = largest_exact_side(layer, method)
        shape = (side, side, 2)
        with pytest.raises(RankError):
            census(layer, method, [50], input_shape=(side + 1, side + 1, 2))
        sols = list(iter_solutions(layer, method, shape))
        assert len(sols) == count_all(layer, method)
        assert_checked_costs(layer, method, sols, shape)
        original = cost_original(layer, shape)
        assert max(max(c.flops, c.overall_mem)
                   for c in (original, *(s.cost for s in sols))) > 2 ** 61
        boxes = itertools.product(*(range(lo, hi + 1) for lo, hi
                                    in rank_bounds(layer, method)))
        costs = [cost_factorized(layer, method, ranks, shape)
                 for ranks in boxes]
        brute = sum(c.params < original.params and c.flops < original.flops
                    for c in costs)
        assert count_valid(layer, method, shape) == brute
        assert len(list(iter_solutions(layer, method, shape,
                                       valid_only=True))) == brute


def families_built(monkeypatch, run):
    """What ``run()`` returns, and the rank families it built, in order."""
    built = []
    family = explore._AffineFamily

    def recorded(*args):
        built.append(family(*args))
        return built[-1]

    with monkeypatch.context() as patch:
        patch.setattr(explore, "_AffineFamily", recorded)
        return run(), built


def family_cells(layer, method) -> list:
    """The cells of each family of ``method`` on ``layer`` affine in its
    last rank slot, as enumeration slabs cut them."""
    return [int(box[:, :-1].prod(axis=1).sum())
            for _, box, _ in explore._boxes(layer, method)]


def whole_family_cells(layer, method) -> list:
    """The cells of each whole-space family of ``method`` on ``layer``:
    the fewest any one affine rank slot leaves, the box volume over that
    slot's bound summed over the family's plans."""
    return [min(int((box.prod(axis=1) // box[:, slot]).sum())
                for slot in range(box.shape[1]))
            for _, box, _ in explore._boxes(layer, method)]


# spaces of at least three slabs at the default slab sizes: (method,
# layer, input shape)
MULTI_SLAB_CASES = [
    pytest.param("tt", conv((3, 3), 16, 16), None, id="tt-conv2d"),
    pytest.param("tt", conv((3, 3), 12, 16, stride=(2, 2), padding="valid"),
                 (9, 7, 12), id="tt-conv2d-valid-s2"),
    pytest.param("tucker2", conv((3,), 512, 8), None, id="tucker2-conv1d"),
    pytest.param("t3f", fc(24, 30), None, id="t3f-24x30"),
]


class TestSlabs:
    """Enumeration builds each family in slabs along its leading axis;
    no seam between slabs may show in what it yields."""

    def check_slab_seams(self, monkeypatch, layer, method, shape):
        """Returns the most slabs one enumeration built."""
        points = brute_force_points(layer, method, shape)
        slabs = 0
        for valid_only in (False, True):
            got, built = families_built(monkeypatch, lambda: list(
                iter_solutions(layer, method, shape, valid_only)))
            assert [(s.plan, s.ranks, s.cost) for s in got] == [
                (plan, ranks, cost) for plan, ranks, cost, ok in points
                if ok or not valid_only]
            sizes = [int(np.maximum(fam.valid_hi if valid_only
                                    else fam.bound, 0).sum())
                     for fam in built]
            assert sum(sizes) == len(got)
            slabs = max(slabs, len(sizes))
            # every limit from 0 to a few past each seam yields that prefix
            for seam in itertools.accumulate(sizes, initial=0):
                for limit in range(max(0, seam - 2), seam + 3):
                    assert list(iter_solutions(layer, method, shape,
                                               valid_only, limit)) == \
                        got[:limit], (valid_only, limit)
        return slabs

    @pytest.mark.parametrize("first_slab", [1, 5])
    @pytest.mark.parametrize("method, case", CELL_CASES)
    def test_small_slabs_keep_the_brute_force_order(self, monkeypatch, method,
                                                    case, first_slab):
        layer, shape = case
        monkeypatch.setattr(explore, "_FIRST_SLAB", first_slab)
        self.check_slab_seams(monkeypatch, layer, method, shape)

    @pytest.mark.parametrize("method, layer, shape", MULTI_SLAB_CASES)
    def test_default_slabs_keep_the_brute_force_order(self, monkeypatch,
                                                      method, layer, shape):
        assert self.check_slab_seams(monkeypatch, layer, method, shape) >= 3

    @pytest.mark.parametrize("method, name", [("tt", "L6"), ("t3f", "F2")])
    def test_whole_space_callers_build_whole_families(self, monkeypatch,
                                                      method, name):
        layer = BENCH[name]
        _, built = families_built(monkeypatch, lambda: (
            count_valid(layer, method), census(layer, method, (60,)),
            valid_extremes(layer, method),
            solutions_at_ratio(layer, method, 60)))
        assert [fam.plan_index.size for fam in built] == \
            whole_family_cells(layer, method) * 4

    def test_whole_tt_families_shrink_threefold(self):
        assert family_cells(BENCH["L6"], "tt") == [294_912]
        assert whole_family_cells(BENCH["L6"], "tt") == [98_304]

    def test_a_limit_builds_under_a_hundredth_of_a_big_family(self,
                                                              monkeypatch):
        layer = BENCH["L3"]
        assert family_cells(layer, "tt") == [786_432]
        got, built = families_built(monkeypatch, lambda: list(iter_solutions(
            layer, "tt", valid_only=True, limit=10_000)))
        assert len(got) == 10_000
        assert sum(fam.plan_index.size for fam in built) < 786_432 // 100

    @pytest.mark.parametrize("limit", [1, 100, 5_000, 60_000])
    def test_a_t3f_limit_builds_about_twice_the_cells_it_reads(self,
                                                               monkeypatch,
                                                               limit):
        # without valid_only every cell yields a solution, so the cells
        # read are the distinct (plan, outer ranks) yielded
        layer = BENCH["F2"]
        got, built = families_built(monkeypatch, lambda: list(iter_solutions(
            layer, "t3f", limit=limit)))
        assert len(got) == limit
        read = len({(s.plan, s.ranks[:-1]) for s in got})
        cells = [fam.plan_index.size for fam in built]
        assert sum(cells) <= 2 * read + max(cells)
        assert sum(cells) < sum(family_cells(layer, "t3f"))


def layout_answers(layer, method, shape, slab, percents) -> dict:
    """What the families of one layout answer: whole-space families at
    an infinite ``slab``, enumeration slabs otherwise.  The valid count,
    each metric's valid (min, max), and each objective's bucket value and
    members, sorted, at its ``percents`` (a tolerance of 1 fills them)."""
    fams = list(explore._families(layer, method, shape, slab))
    original = cost_original(layer, shape or default_input_shape(layer))
    answers = {"valid": sum(int(np.maximum(fam.valid_hi, 0).sum())
                            for fam in fams)}
    for objective in ("params", "flops", "overall_mem"):
        tables = [explore._valid_cells(fam, objective) for fam in fams]
        filled = [cells for cells in tables if cells.flat.size]
        answers[objective] = (
            min((int((c.base + c.slope).min()) for c in filled), default=None),
            max((int((c.base + c.slope * c.top).max()) for c in filled),
                default=None))
        for percent in percents[objective]:
            value, found = explore._bucket(tables, original, objective,
                                           percent, 1.0)
            members = []
            for cells, (flat, ranks) in zip(tables, found):
                members += cells.family.solutions(flat, ranks.tolist(),
                                                  ranks.tolist())
            answers[objective, percent] = (value,
                                           sorted(members, key=Solution.key))
    return answers


# small spaces whose whole families are affine in their first slot (the
# tt ones of CELL_CASES are affine in a middle slot)
FIRST_SLOT_CASES = [
    pytest.param("tt", (conv((3,), 8, 2), None), id="tt-conv1d-8x2"),
    pytest.param("tucker2", (conv((3, 3), 6, 4), None),
                 id="tucker2-conv2d-6x4"),
]


class TestLayouts:
    """Whole-space families are affine in the slot leaving the fewest
    cells, enumeration slabs in the last slot; both must give the same
    answers."""

    @pytest.mark.parametrize("method, case", CELL_CASES + FIRST_SLOT_CASES)
    def test_whole_families_answer_as_the_slabs(self, method, case):
        layer, shape = case
        points = brute_force_points(layer, method, shape)
        percents = {objective: [percent for percent, _ in
                                tie_percents(layer, points, objective, shape)]
                    for objective in ("params", "flops", "overall_mem")}
        whole = layout_answers(layer, method, shape, math.inf, percents)
        assert whole == layout_answers(layer, method, shape, 1, percents)
        assert whole["valid"] == sum(ok for *_, ok in points)

    @pytest.mark.parametrize("method, case", FIRST_SLOT_CASES)
    def test_a_first_slot_census_against_brute_force(self, method, case):
        layer, shape = case
        (fam,) = explore._families(layer, method, shape)
        assert fam.axis == 0 < len(fam.outer)
        check_census_against_brute_force(layer, method, shape, "flops")


class TestAffineWalk:
    """A family walks ``closed_form`` once with an affine rank; its base
    and slope must be the walk at affine rank 0 and the increase from 0
    to 1, on the family's own cells."""

    @pytest.mark.parametrize("method, case", CELL_CASES)
    def test_base_and_slope_match_the_walk_at_ranks_0_and_1(self, method,
                                                            case):
        layer, shape = case
        depths = set()
        for fam in explore._families(layer, method, shape):
            plan = None
            if method == "t3f":
                modes = np.array([ms + ns for ms, ns in fam.plans])
                cells = modes[fam.plan_index].T
                depth = len(cells) // 2
                plan = (tuple(cells[:depth]), tuple(cells[depth:]))
                depths.add(depth)
            rank0, rank1 = (closed_form(
                layer, method, (*fam.outer[:fam.axis], r,
                                *fam.outer[fam.axis:]), shape, plan)
                for r in (0, 1))
            want = (*rank0, *(b - a for a, b in zip(rank0, rank1)))
            for got, field in zip((*fam.base, *fam.slope), want):
                assert got.dtype == np.int64
                assert got.tolist() == \
                    np.broadcast_to(field, fam.shape).tolist()
        assert depths == {len(ms) for ms, _ in t3f_plans(layer)} \
            if method == "t3f" else not depths

    def test_cases_hold_t3f_plans_of_depths_2_and_3(self):
        assert {len(ms) for ms, _ in t3f_plans(SMALL_FCS["12x8"])} == {2, 3}

    def test_numpy_defers_to_an_affine_value(self):
        rank = explore._Affine(0, 1)
        got = 5 + 2 * (np.arange(3) * rank + np.int64(2) * rank)
        assert isinstance(got, explore._Affine)
        assert np.broadcast_to(got.base, 3).tolist() == [5, 5, 5]
        assert got.slope.tolist() == [4, 6, 8]

    def test_a_product_of_two_affine_values_raises(self):
        rank = explore._Affine(0, 1)
        with pytest.raises(TypeError, match="not affine"):
            rank * rank
        with pytest.raises(TypeError, match="not affine"):
            (np.arange(3) * rank + 1) * (rank + 1)


# small spaces for the member rule's edges: each method on a 1-D, a
# strided 2-D and a 3-D conv, or on two fc layers (12x8 has t3f plans of
# depths 2 and 3)
EDGE_CASES = [
    *((method, layer, shape) for method in CONV_METHODS
      for layer, shape in ((conv((3,), 3, 5), None),
                           (conv((3, 3), 3, 4, stride=(2, 2),
                                 padding="valid"), (7, 7, 3)),
                           (conv((2, 2, 2), 2, 3), None))),
    *((method, fc(m, n), None) for method in ("svd", "qr", "t3f")
      for m, n in ((12, 8), (6, 4))),
]
TARGETS = ("a value", "between values", "a cell's edge",
           "above the original", "far below the original")


@functools.lru_cache(maxsize=None)
def enumerated_points(case: int) -> list:
    """(plan, ranks, cost, valid) for every point of an ``EDGE_CASES``
    space, in enumeration order, as ``iter_solutions`` yields them."""
    method, layer, shape = EDGE_CASES[case]
    original = cost_original(layer, shape or default_input_shape(layer))
    return [(s.plan, s.ranks, s.cost, s.cost.params < original.params
             and s.cost.flops < original.flops)
            for s in iter_solutions(layer, method, shape)]


def nearest_rank_ends(layer, method, shape, objective, percent) -> set:
    """Which ends the valid cells' nearest ranks clip to at ``percent``:
    0 for a cell whose every valid value lies above the target, "top"
    for one whose every valid value lies at or below it."""
    original = cost_original(layer, shape or default_input_shape(layer))
    floor = math.floor((1.0 - percent / 100.0) * original.get(objective))
    ends = set()
    for fam in explore._families(layer, method, shape):
        cells = explore._valid_cells(fam, objective)
        near = (floor - cells.base) // cells.slope
        ends |= {0} if (near < 1).any() else set()
        ends |= {"top"} if (near >= cells.top).any() else set()
    return ends


@functools.lru_cache(maxsize=None)
def cell_edge_targets(case: int, objective: str) -> tuple:
    """Targets where a valid value is also a valid cell's value just past
    its valid ranks: a quarter below each value that a cell reaches one
    rank above its top (its nearest rank clips to the top), a quarter
    above each value that a cell has at rank 0 (its nearest rank is 0)."""
    method, layer, shape = EDGE_CASES[case]
    values = {cost.get(objective)
              for *_, cost, ok in enumerated_points(case) if ok}
    targets = set()
    for fam in explore._families(layer, method, shape):
        cells = explore._valid_cells(fam, objective)
        past = cells.base + cells.slope * (cells.top + 1)
        targets |= {value - 0.25 for value in values & set(past.tolist())}
        targets |= {value + 0.25
                    for value in values & set(cells.base.tolist())}
    return tuple(sorted(targets))


def edged_spaces() -> list:
    """The (case, objective) pairs with cell edge targets."""
    return [(case, objective) for case in range(len(EDGE_CASES))
            for objective in OBJECTIVES if cell_edge_targets(case, objective)]


def edge_percent(data, kind, orig_value, values, edges):
    """A percent whose census target is ``kind`` of ``TARGETS`` against
    the sorted valid ``values`` and the cell ``edges``."""
    if kind == "a cell's edge":
        return 100.0 * (1.0 - data.draw(st.sampled_from(edges)) / orig_value)
    if kind == "a value":
        assume(values)
        percent = percent_hitting(orig_value, data.draw(st.sampled_from(
            values)))
        assume(percent is not None)
        return percent
    if kind == "between values":
        assume(len(values) > 1)
        i = data.draw(st.integers(0, len(values) - 2))
        share = data.draw(st.sampled_from([0.5]) | st.floats(0.01, 0.99))
        target = values[i] + share * (values[i + 1] - values[i])
        return 100.0 * (1.0 - target / orig_value)
    if kind == "above the original":
        return data.draw(st.floats(-100.0, -1e-9))
    return data.draw(st.floats(95.0, 100.0))


class TestMemberRule:
    """Bucket members are read off the nearest-value pass, at the nearest
    rank below the target or one above it; at every edge of that rule the
    buckets must equal a brute force over ``iter_solutions``."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_buckets_match_brute_force_at_the_edges(self, data):
        kind = data.draw(st.sampled_from(TARGETS))
        if kind == "a cell's edge":
            case, objective = data.draw(st.sampled_from(edged_spaces()))
        else:
            case = data.draw(st.integers(0, len(EDGE_CASES) - 1))
            objective = data.draw(st.sampled_from(OBJECTIVES))
        method, layer, shape = EDGE_CASES[case]
        tol = data.draw(st.sampled_from([0.0, DEFAULT_TOL, 0.05, 1.0]))
        points = enumerated_points(case)
        original = cost_original(layer, shape or default_input_shape(layer))
        values = sorted({cost.get(objective) for *_, cost, ok in points if ok})
        percent = edge_percent(data, kind, original.get(objective), values,
                               cell_edge_targets(case, objective))
        event(kind)
        for end in nearest_rank_ends(layer, method, shape, objective,
                                     percent):
            event(f"a nearest rank clips to {end}")
        check_census_against_brute_force(layer, method, shape, objective,
                                         points, (percent,), (tol,))

    @pytest.mark.parametrize("case", range(len(EDGE_CASES)))
    def test_the_far_targets_clip_the_nearest_ranks(self, case):
        # a valid point's overall memory may pass 1.5 times the
        # original's, so only params and flops clip to the top there
        method, layer, shape = EDGE_CASES[case]
        filled = any(ok for *_, ok in enumerated_points(case))
        for objective in ("params", "flops"):
            below = nearest_rank_ends(layer, method, shape, objective, 99.9)
            above = nearest_rank_ends(layer, method, shape, objective, -50.0)
            assert (below, above) == (({0}, {"top"}) if filled
                                      else (set(), set()))


def weight_bytes(fact) -> dict:
    return {name: w.tobytes() for name, w in fact.weights.items()}


class TestSharedMemo:
    """A search's state for one layer hands ``decompose_layer`` its memo
    and ``solutions_at_ratio`` its families, two dicts: each keeps only
    its own callee's work, and neither changes a byte of a result."""

    @pytest.mark.parametrize("method", METHODS)
    def test_one_memo_serves_both_callees(self, method, monkeypatch):
        layer = (conv((3, 3), 16, 16) if method in CONV_METHODS
                 else fc(400, 120))
        weight = np.random.default_rng(5).standard_normal(
            layer.weight_shape())
        plan = default_plan(layer, method)
        bounds = rank_bounds(layer, method, plan)
        ladder = sorted({tuple(min(r, hi) for _, hi in bounds)
                         for r in (1, 2, 3, 5)})
        asks = [(percent, objective) for percent in (25, 60, 85)
                for objective in ("params", "flops")]
        built = []
        build = explore._families

        def families(layer, method, input_shape=None):
            built.append(method)
            return build(layer, method, input_shape)

        monkeypatch.setattr(explore, "_families", families)
        state = LayerSearchState(layer, method, default_input_shape(layer),
                                 threshold=1.0)
        # interleaved as a search interleaves them
        shared = [(decompose_layer(layer, weight, method, ranks, plan=plan,
                                   memo=state.memo),
                   [solutions_at_ratio(layer, method, percent, objective,
                                       memo=state.families)
                    for percent, objective in asks])
                  for ranks in ladder]
        assert built == [method]
        assert list(state.families) == [method]
        # every factorization key starts with the method's name
        assert state.memo and all(key[0] == method for key in state.memo)
        assert any(members for _, buckets in shared for members in buckets)
        for ranks, (fact, buckets) in zip(ladder, shared):
            fresh = decompose_layer(layer, weight, method, ranks, plan=plan)
            assert weight_bytes(fact) == weight_bytes(fresh)
            assert buckets == [solutions_at_ratio(layer, method, percent,
                                                  objective)
                               for percent, objective in asks]


class TestSelectCandidates:
    def bucket(self):
        return solutions_at_ratio(BENCH["L2"], "tt", 60, "params")

    def test_cap_and_dedup(self):
        sols = self.bucket()
        picked = select_candidates(sols, 3, seed=0)
        assert len(picked) == 3
        assert len({s.key() for s in picked}) == 3

    def test_contains_flops_extremes(self):
        sols = self.bucket()
        picked = select_candidates(sols, 3, seed=0)
        flops = sorted(s.cost.flops for s in sols)
        got = {s.cost.flops for s in picked}
        assert flops[0] in got and flops[-1] in got

    def test_seed_determinism(self):
        sols = self.bucket()
        a = [s.key() for s in select_candidates(sols, 5, seed=3)]
        b = [s.key() for s in select_candidates(sols, 5, seed=3)]
        c = [s.key() for s in select_candidates(sols, 5, seed=4)]
        assert a == b
        assert len(c) == len(a)

    def test_small_pool_passthrough(self):
        sols = self.bucket()[:2]
        assert select_candidates(sols, 5, seed=0) == sols


def brute_force_extremes(layer, method, shape=None):
    """``valid_extremes`` by definition: each metric's min and max over
    the valid points, none when there is no valid point, and their
    count."""
    valid = [cost for *_, cost, ok in brute_force_points(layer, method,
                                                          shape) if ok]
    spans = {m: (min(c.get(m) for c in valid), max(c.get(m) for c in valid))
             for m in OBJECTIVES if valid}
    return {**spans, "valid_count": len(valid)}


class TestValidExtremes:
    @pytest.mark.parametrize("geometry", sorted(SMALL_CONVS))
    @pytest.mark.parametrize("method", ["tucker2", "cp", "tt"])
    def test_against_brute_force(self, method, geometry):
        layer, shape = SMALL_CONVS[geometry]
        assert valid_extremes(layer, method, shape) == brute_force_extremes(
            layer, method, shape)

    @pytest.mark.parametrize("name", sorted(SMALL_FCS))
    def test_t3f_against_brute_force(self, name):
        # 7x5 has no plan: no point, so no spans and a count of 0
        layer = SMALL_FCS[name]
        assert valid_extremes(layer, "t3f") == brute_force_extremes(layer,
                                                                    "t3f")

    def test_empty_when_nothing_valid(self):
        # a 1x1 conv mapping 1->1 channel cannot be beaten by two factors
        layer = conv((1, 1), 1, 1)
        assert brute_force_extremes(layer, "tucker2") == {"valid_count": 0}
        assert valid_extremes(layer, "tucker2") == {"valid_count": 0}


# an offered method that no rank makes cheaper, and t3f on an fc layer
# without a plan: (layer, method)
EMPTY_SPACES = {
    "fc2x2-svd": (fc(2, 2), "svd"), "fc2x2-qr": (fc(2, 2), "qr"),
    "fc4x4-t3f": (fc(4, 4), "t3f"),
    "conv1x1-2to4-cp": (conv((1, 1), 2, 4), "cp"),
    "conv1x1-2to4-tt": (conv((1, 1), 2, 4), "tt"),
    "fc7x5-t3f": (fc(7, 5), "t3f"),
}


@pytest.mark.parametrize("space", sorted(EMPTY_SPACES))
def test_every_query_answers_an_empty_valid_space(space):
    layer, method = EMPTY_SPACES[space]
    assert not any(ok for *_, ok in brute_force_points(layer, method))
    assert count_valid(layer, method) == 0
    assert valid_extremes(layer, method) == {"valid_count": 0}
    for objective in OBJECTIVES:
        result = census(layer, method, (0, 25, 60, 85, 99), objective)
        assert result.valid_count == 0
        assert all((b.value, b.count, b.best) == (None, 0, None)
                   for b in result.buckets)
        for percent in (-50, 0, 25, 60, 85, 99):
            assert solutions_at_ratio(layer, method, percent, objective) == []
    assert list(iter_solutions(layer, method, valid_only=True)) == []
