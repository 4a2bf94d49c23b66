import hashlib
import itertools
import json

import numpy as np
import pytest

from lowrank import explore
from lowrank.costs import (CONV_METHODS, cost_factorized, cost_original,
                           default_input_shape, method_applies)
from lowrank.decompose import decompose_layer
from lowrank.errors import RankError
from lowrank.explore import (DEFAULT_TOL, census, count_all, count_valid,
                             cp_max_rank, iter_solutions, min_ranks,
                             rank_bounds, select_candidates,
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


def check_census_against_brute_force(layer, method, shape, objective):
    """``census`` and ``solutions_at_ratio`` agree with
    ``brute_force_bucket`` at every fifth percent and 99, at two
    tolerances."""
    points = brute_force_points(layer, method, shape)
    percents = tuple(range(0, 100, 5)) + (99,)
    for tol in (DEFAULT_TOL, 0.05):
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
        with pytest.raises(RankError):
            valid_extremes(layer, "t3f")


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
        assert [p for plans, _ in boxes for p in plans] == t3f_plans(layer)
        for plans, box in boxes:
            assert box.dtype == np.int64 and box.shape[0] == len(plans)
            assert box.tolist() == [
                [hi for _, hi in rank_bounds(layer, "t3f", plan)]
                for plan in plans]

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
        report = census(BENCH[key], "t3f", (25, 60, 85),
                        objective=objective).to_dict()
        del report["generation_time"]
        digest = hashlib.sha256(
            json.dumps(report, sort_keys=True).encode()).hexdigest()
        assert digest == T3F_CENSUS_PINS[key, objective]

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


class TestValidExtremes:
    @pytest.mark.parametrize("geometry", sorted(SMALL_CONVS))
    @pytest.mark.parametrize("method", ["tucker2", "cp", "tt"])
    def test_against_brute_force(self, method, geometry):
        layer, shape = SMALL_CONVS[geometry]
        valid = [cost for *_, cost, ok in brute_force_points(layer, method,
                                                              shape) if ok]
        spans = valid_extremes(layer, method, shape)
        for m in ("params", "flops", "overall_mem"):
            values = [c.get(m) for c in valid]
            assert spans[m] == (min(values), max(values))
        assert spans["valid_count"] == len(valid)

    @pytest.mark.parametrize("name", sorted(SMALL_FCS))
    def test_t3f_against_brute_force(self, name):
        layer = SMALL_FCS[name]
        valid = [cost for *_, cost, ok in brute_force_points(layer, "t3f")
                 if ok]
        if not valid:
            with pytest.raises(RankError):
                valid_extremes(layer, "t3f")
            return
        spans = valid_extremes(layer, "t3f")
        for m in ("params", "flops", "overall_mem"):
            values = [c.get(m) for c in valid]
            assert spans[m] == (min(values), max(values))
        assert spans["valid_count"] == len(valid)

    def test_raises_when_nothing_valid(self):
        # a 1x1 conv mapping 1->1 channel cannot be beaten by two factors
        layer = conv((1, 1), 1, 1)
        with pytest.raises(RankError):
            valid_extremes(layer, "tucker2")
