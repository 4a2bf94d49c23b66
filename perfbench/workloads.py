"""The benchmark's three workloads: search, decompose and space.

Each workload builds its inputs from the workload seed once, then runs
one closed-loop *operation* per :meth:`run_once` call: the next call
starts when the previous one returns, as in batch use of the toolkit.
An operation times the work a user waits for, then checks the outputs'
invariants outside the timed region.  In a traced run the checks run
inside one opaque ``check`` span, so their calls into the library stay
out of the per-layer totals of the layers they use.

The library is always reached through module attributes
(``dse.run_dse``, ``explore.census``, ...) so that a traced run, which
swaps those attributes for wrappers, sees every call.

Why these workloads:

* search runs the forward engine, SVD/QR and the t3f census on its
  blocking path and never runs CP, so forward/SVD/census changes show
  here and CP changes must not;
* decompose is dominated by CP-ALS, which search bypasses, and keeps
  every other decomposer's cost and fit in view on fixed weights;
* space is pure explore/costs integer work with no BLAS, decomposition
  or forward pass, so changes to those layers predict no change here.
"""

from __future__ import annotations

import hashlib
import json
import signal
import statistics
import time
from contextlib import contextmanager, nullcontext

import numpy as np

from lowrank import costs, decompose, dse, explore, ir, linalg, similarity
from lowrank.errors import ConstraintUnreachableError, LowRankError, RankError
from lowrank.ir import DATASET_INPUTS

import inputs

SEARCH_FC_METHODS = ("svd", "qr", "t3f")
SEARCH_CONFIG = dict(objective="params", accuracy_drop_limit=0.05,
                     step_size=10, sample_count=64, tol=0.02,
                     sim_threshold_sequential=0.99,
                     sim_threshold_nonsequential=0.99, max_sol=3)
INFER_REPEATS = 20
SAMPLE_INTERVAL_S = 0.1   # reference samples inside a timed part
FWD_TOL = 1e-4          # forward agreement, scaled max error
LADDER = (1 / 32, 1 / 16, 1 / 8, 1 / 4)   # share of each rank bound
CP_LADDER = (0.01, 0.02, 0.04, 0.08)      # share of the maximal CP rank
UNIFORM_POINTS = 40
CENSUS_PERCENTS = (25, 60, 85)
CENSUS_OBJECTIVES = ("params", "flops")
ENUM_LIMIT = 10000
# criterion 01's exact space sizes
COUNT_ALL_PINS = {
    ("tucker2", "L1"): 524288, ("tucker2", "L2"): 131072,
    ("tucker2", "L6"): 1024,
    ("cp", "L1"): 1536, ("cp", "L2"): 2304, ("cp", "L3"): 4608,
    ("cp", "L4"): 2400, ("cp", "L5"): 2304, ("cp", "L6"): 864,
    ("tt", "L1"): 524288, ("tt", "L6"): 9437184,
}
# spaces small enough to check against a brute-force loop
BRUTE_METHODS = ("cp", "svd", "qr")


# A fixed computation timed around and inside every timed part:
# interpreter work, a BLAS product and a numpy sort, 1.5-2.5 ms on a
# 2-vCPU Xeon VM.  A shared host changes speed by 1.3-1.5x, in phases of
# a second to minutes; dividing each part's time by the reference times
# taken around and during it cancels most of that, while the library's
# own speed still shows in full (this code never changes with the
# library).
_REF_MATRIX = np.random.default_rng(0).standard_normal((128, 128))
_REF_VECTOR = np.random.default_rng(1).standard_normal(20000)


def reference_sample() -> float:
    """Seconds taken by the fixed reference computation, once."""
    t0 = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i
    for _ in range(10):
        _REF_MATRIX @ _REF_MATRIX
    np.sort(_REF_VECTOR)
    return time.perf_counter() - t0


def digest(payload) -> str:
    """sha256 of the sorted-key JSON of ``payload``."""
    text = json.dumps(payload, sort_keys=True, default=_jsonable)
    return hashlib.sha256(text.encode()).hexdigest()


def _jsonable(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


class Op:
    """Outcome of one operation: timings, values, counts and problems.

    Timings are kept per part (one search run, one rank point, one
    layer's census, ...), in seconds and scaled: divided by the mean of
    the reference samples taken around and during the part.
    A run sums the per-part medians over its operations: on a shared VM
    the machine slows down in bursts of a second or two, and a burst
    then moves a part's median only if it hits most repetitions of that
    part.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.parts = {}    # timed quantity -> part -> seconds
        self.scaled = {}   # timed quantity -> part -> seconds / reference
        self.reference = []   # reference_sample() around every part
        self.values = {}
        self.counts = {}
        self.digests = {}

    @contextmanager
    def timed(self, quantity: str, part):
        """Time the block, in seconds and in reference times.

        A reference sample is taken before and after the block and, from
        a SIGALRM handler, SAMPLE_INTERVAL_S after the previous one inside
        it (the handler re-arms a one-shot timer, so it never interrupts
        itself); the handler's own time is taken off the block's.  The
        scaled time is the block's seconds over the mean of these
        samples, so that a change of the host's speed inside a long
        block cancels too.
        """
        samples, spent = [reference_sample()], [0.0]

        def sample(signum, frame):
            t0 = time.perf_counter()
            samples.append(reference_sample())
            spent[0] += time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S)

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            # no handler runs after SIG_IGN, so the two reads agree
            signal.signal(signal.SIGALRM, signal.SIG_IGN)
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - t0 - spent[0]
            signal.signal(signal.SIGALRM, previous)
            samples.append(reference_sample())
            self.reference += samples
            self.parts.setdefault(quantity, {})[part] = elapsed
            self.scaled.setdefault(quantity, {})[part] = \
                elapsed / statistics.fmean(samples)

    def attempt(self, ok: bool = True):
        self.attempted += 1
        self.failed += not ok

    def check(self, ok, what: str):
        if not ok:
            self.problems.append(what)

    def count(self, name: str, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount


def _checking(tracer):
    """The block of an operation that only checks its outputs."""
    return tracer.opaque("check") if tracer is not None else nullcontext()


def _params(model) -> int:
    shape = tuple(model.metadata["input_shape"])
    return costs.model_breakdown(model, shape)["total"].params


def seconds(ops, scaled: bool = False) -> dict:
    """Per timed quantity, the sum over parts of the median over ops, in
    seconds or (``scaled``) in reference times."""
    def table(op):
        return op.scaled if scaled else op.parts
    return {q: sum(statistics.median(table(op)[q][p] for op in ops)
                   for p in parts)
            for q, parts in table(ops[0]).items()}


def reference(ops) -> float:
    """Median reference sample over the operations of a run."""
    return statistics.median(r for op in ops for r in op.reference)


class Search:
    """Similarity-guided search with tt+{svd,qr,t3f}, then the hybrid."""

    name = "search"

    def __init__(self, seed: int, tiny: bool = False):
        self.model, self.weights = inputs.search_net(seed, width=4 if tiny else 1)
        self.dataset = inputs.search_dataset(self.model, self.weights, seed)
        self.config = dse.DseConfig(**SEARCH_CONFIG)

    def warm_up(self):
        dse.BuiltinEvaluator(self.dataset)(self.model, self.weights)

    def run_once(self, tracer=None) -> Op:
        op = Op()
        evaluator = dse.BuiltinEvaluator(self.dataset)
        if tracer is not None:
            evaluator = tracer.wrap(evaluator, "dse.evaluate")
        runs, partial = {}, None
        for fc in SEARCH_FC_METHODS:
            label = f"tt+{fc}"
            try:
                with op.timed("search_s", label):
                    run = dse.run_dse(self.model, self.weights, self.dataset,
                                      self.config, evaluator,
                                      conv_method="tt", fc_method=fc)
            except ConstraintUnreachableError as exc:
                # The search's documented answer that the accuracy bound
                # cannot be met, with the best model it found: a result of
                # the search, counted in dse.unreachable, not a failure.
                op.attempt()
                op.count("dse.unreachable")
                best_model, best_weights, audit = exc.best
                partial = partial or (best_model, best_weights)
                op.count("dse.iterations", len(audit))
                op.digests[label] = digest({"unreachable": audit})
                continue
            op.attempt()
            runs[label] = run
            op.count("dse.iterations", len(run.audit))
            op.digests[label] = digest(_audit_report(run))
        hybrid = None
        if len(runs) >= 2:   # hybrid_combine's precondition
            try:
                with op.timed("search_s", "hybrid"):
                    hybrid = dse.hybrid_combine(runs, objective="params")
                op.attempt()
                op.digests["hybrid"] = digest(hybrid.audit)
            except LowRankError:
                op.attempt(ok=False)
        if hybrid is not None:
            final = (hybrid.model, hybrid.weights)
        else:   # report the best model found
            final = next(((r.model, r.weights) for r in runs.values()), partial)

        model, weights = final
        x = self.dataset[DATASET_INPUTS]
        for i in range(INFER_REPEATS):
            with op.timed("infer_s", i):
                similarity.forward_model(model, weights, x)
        with _checking(tracer):
            original = _params(self.model)
            op.values["params_frac"] = _params(model) / original
            op.values["accuracy"] = dse.BuiltinEvaluator(self.dataset)(
                model, weights)
            self._check(op, runs, hybrid, tracer)
        return op

    def rates(self, ops: list) -> dict:
        """Timed values of a run, from per-part medians over its ops."""
        secs, refs = seconds(ops), seconds(ops, scaled=True)
        n = len(self.dataset[DATASET_INPUTS])
        return {"search_s": secs["search_s"],
                "infer_sps": INFER_REPEATS * n / secs["infer_s"],
                "search_ref": refs["search_s"],
                "infer_per_ref": INFER_REPEATS * n / refs["infer_s"]}

    def _check(self, op, runs, hybrid, tracer):
        limit = self.config.accuracy_drop_limit
        for label, run in runs.items():
            acc = dse.BuiltinEvaluator(self.dataset)(run.model, run.weights)
            op.check(acc >= run.baseline_accuracy - limit,
                     f"{label}: re-measured accuracy {acc:.4f} below "
                     f"{run.baseline_accuracy:.4f} - {limit}")
        if hybrid is None:
            return
        hybrid_params = _params(hybrid.model)
        for label, run in runs.items():
            op.check(hybrid_params <= _params(run.model),
                     f"hybrid params {hybrid_params} exceed {label}'s")
        span = tracer.span("ir.roundtrip") if tracer else nullcontext()
        with span:
            text = hybrid.model.to_json()
            blob = hybrid.weights.to_bytes()
            model = ir.ModelDesc.from_json(text)
            weights = ir.WeightStore.from_bytes(blob)
            same = model.to_json() == text and weights.to_bytes() == blob
        op.check(same, "hybrid does not survive a JSON/LRFW round trip")
        x = self.dataset[DATASET_INPUTS]
        a = similarity.forward_model(hybrid.model, hybrid.weights, x)
        b = similarity.forward_model(model, weights, x)
        op.check(a.dtype == b.dtype and a.tobytes() == b.tobytes(),
                 "round-tripped hybrid gives different logits")


def _audit_report(run) -> dict:
    return {"baseline_accuracy": run.baseline_accuracy,
            "final_accuracy": run.final_accuracy, "success": run.success,
            "targets": list(run.targets), "iterations": run.audit}


def _ladder(bounds, shares):
    return [tuple(max(lo, round(hi * s)) for lo, hi in bounds) for s in shares]


def _tucker2_core_full(layer, ranks) -> bool:
    """Whether neither tucker2 rank exceeds the other times the kernel
    size, the most a (r1, kernel, r2) core's unfoldings can hold."""
    r1, r2 = ranks
    k = int(np.prod(layer.kernel))
    return r1 <= r2 * k and r2 <= r1 * k


class Decompose:
    """Every decomposer on a 3x3x64x128 conv and a 512x256 fc.

    Each method walks an ascending rank ladder (the order the search
    walks), then, except for cp, seeded uniform points of the rank box
    from ``rank_bounds``.  Uniform tucker2 draws whose core cannot be
    full are not timed: ``decompose_layer`` rejects them today although
    ``rank_bounds`` admits them (ROADMAP 4a).  Every operation retries
    them outside the timed parts and counts the rejections, so the
    defect stays in view without failing operations, and the timed work
    stays the same once it is fixed.
    """

    name = "decompose"

    def __init__(self, seed: int, tiny: bool = False):
        scale = 8 if tiny else 1
        (self.conv, self.w_conv), (self.fc, self.w_fc) = \
            inputs.decompose_inputs(seed, scale)
        rng = np.random.default_rng([seed, 5])
        count = 4 if tiny else UNIFORM_POINTS
        self.rejects = []   # tucker2 draws the library rejects (ROADMAP 4a)
        per_method = []   # [(layer, weight, method, ranks, plan, on_ladder)]
        for method in costs.CONV_METHODS + costs.FC_METHODS:
            layer, weight = ((self.conv, self.w_conv)
                             if method in costs.CONV_METHODS
                             else (self.fc, self.w_fc))
            plans = explore.t3f_plans(layer) if method == "t3f" else [None]
            bounds = explore.rank_bounds(layer, method, plans[0])
            shares = CP_LADDER if method == "cp" else LADDER
            points = [(layer, weight, method, ranks, plans[0], True)
                      for ranks in _ladder(bounds, shares)]
            # each cp point costs ~0.1 s per unit of rank: ladder only
            drawn = 0
            while drawn < (0 if method == "cp" else count):
                plan = plans[rng.integers(len(plans))]
                bounds = explore.rank_bounds(layer, method, plan)
                ranks = tuple(int(rng.integers(lo, hi + 1)) for lo, hi in bounds)
                if method == "tucker2" and not _tucker2_core_full(layer, ranks):
                    self.rejects.append((layer, weight, method, ranks, plan))
                    continue
                points.append((layer, weight, method, ranks, plan, False))
                drawn += 1
            per_method.append(points)
        # Interleave the methods, each keeping its own order, so that every
        # method's points spread over the whole operation: a burst of
        # machine slowness then hits all methods alike.
        order = sorted((i / len(points), m, i)
                       for m, points in enumerate(per_method)
                       for i in range(len(points)))
        self.points = [per_method[m][i] for _, m, i in order]
        rng_x = np.random.default_rng([seed, 6])
        self.x = {
            "conv": rng_x.standard_normal((2, 8, 8, self.conv.in_channels)),
            "fc": rng_x.standard_normal((4, self.fc.in_channels)),
        }
        self.shape = {"conv": (8, 8, self.conv.in_channels),
                      "fc": (self.fc.in_channels,)}

    def warm_up(self):
        decompose.decompose_layer(self.fc, self.w_fc, "svd", (1,))

    def run_once(self, tracer=None) -> Op:
        op = Op()
        errors, ladders = [], {}
        for i, (layer, weight, method, ranks, plan, on_ladder) in \
                enumerate(self.points):
            try:
                with op.timed("cp_s" if method == "cp" else "other_s", i):
                    fact = decompose.decompose_layer(layer, weight, method,
                                                     ranks, plan=plan)
            except LowRankError:
                op.attempt(ok=False)
                op.count(f"decompose.{method}.failed")
                continue
            op.attempt()
            with _checking(tracer):
                err = self._check_point(op, layer, weight, fact)
            if on_ladder:
                errors.append(err)
                ladders.setdefault(method, []).append(err)
        with _checking(tracer):
            for layer, weight, method, ranks, plan in self.rejects:
                try:
                    decompose.decompose_layer(layer, weight, method, ranks,
                                              plan=plan)
                except RankError:
                    op.count("decompose.tucker2.rejected")
        for method in ("svd", "tt", "t3f"):
            errs = ladders.get(method, [])
            op.check(all(b <= a * (1 + 1e-9) for a, b in zip(errs, errs[1:])),
                     f"{method} error rises along the ladder: {errs}")
        op.values["rel_err_mean"] = float(np.mean(errors))
        op.values["fit"] = 1.0 - op.values["rel_err_mean"]
        op.values["params_frac"] = float(np.mean([
            costs.cost_factorized(l, m, r, plan=p).params
            / costs.cost_original(l, costs.default_input_shape(l)).params
            for l, _, m, r, p, ladder in self.points if ladder]))
        op.digests["rel_err"] = digest([round(e, 12) for e in errors])
        return op

    def rates(self, ops: list) -> dict:
        secs, refs = seconds(ops), seconds(ops, scaled=True)
        others = sum(m != "cp" for _, _, m, _, _, _ in self.points)
        return {"decompose_s": secs["cp_s"] + secs["other_s"],
                "points_per_s": others / secs["other_s"],
                "decompose_ref": refs["cp_s"] + refs["other_s"],
                "points_per_ref": others / refs["other_s"]}

    def _check_point(self, op, layer, weight, fact) -> float:
        what = f"{fact.method}{fact.ranks}"
        shape = self.shape[layer.name]
        chain = costs.cost_chain(fact.sub_layers, shape)
        closed = costs.cost_factorized(layer, fact.method, fact.ranks, shape,
                                       plan=fact.plan)
        op.check(chain == closed, f"{what}: chain cost {chain} != {closed}")
        dense = fact.reconstruct()
        x = self.x[layer.name]
        got = similarity.forward_factorized(fact, x)
        want = similarity.forward_layer(layer, {layer.name: dense}, x)
        scale = max(float(np.abs(want).max()), 1e-30)
        gap = float(np.abs(got - want).max()) / scale
        op.check(gap <= FWD_TOL, f"{what}: forward gap {gap:.2e}")
        return linalg.relative_error(dense, weight)


class Space:
    """Counting, census and bounded enumeration on the acceptance layers."""

    name = "space"

    def __init__(self, seed: int, tiny: bool = False):
        conv = [l for l in inputs.SPACE_CONV if not tiny or l.name == "L6"]
        fc = [l for l in inputs.SPACE_FC if not tiny or l.name == "F1"]
        pairs = [(l, m) for l in conv for m in costs.CONV_METHODS] + \
                [(l, m) for l in fc for m in costs.FC_METHODS]
        # the seed only orders the work; the spaces themselves are fixed
        order = np.random.default_rng([seed, 7]).permutation(len(pairs))
        self.pairs = [pairs[i] for i in order]
        self.limit = 500 if tiny else ENUM_LIMIT

    def warm_up(self):
        layer, method = self.pairs[0]
        explore.count_valid(layer, method)

    def run_once(self, tracer=None) -> Op:
        op = Op()
        reports = {}
        for layer, method in self.pairs:
            key = f"{method}:{layer.name}"
            with op.timed("census_s", key):
                reports[key] = {
                    "all": explore.count_all(layer, method),
                    "valid": explore.count_valid(layer, method),
                    "census": {obj: explore.census(layer, method,
                                                   CENSUS_PERCENTS,
                                                   objective=obj)
                               for obj in CENSUS_OBJECTIVES}}

        yielded = 0
        for layer, method in self.pairs:
            key = f"{method}:{layer.name}"
            span = tracer.span("explore.iter_solutions") if tracer \
                else nullcontext()
            with op.timed("enum_s", key), span:
                n = sum(1 for _ in explore.iter_solutions(
                    layer, method, valid_only=True, limit=self.limit))
            yielded += n
            op.attempt()
            op.check(n == min(self.limit, reports[key]["valid"]),
                     f"{key}: enumeration yielded {n}")
        op.count("explore.iter_solutions.yielded", yielded)

        misses, fracs = [], []
        for layer, method in self.pairs:
            op.attempt()
            report = reports[f"{method}:{layer.name}"]
            with _checking(tracer):
                self._check_pair(op, layer, method, report)
            original = costs.cost_original(layer,
                                           costs.default_input_shape(layer))
            for obj, result in report["census"].items():
                base = original.get(obj)
                for bucket in result.buckets:
                    if bucket.value is None:
                        continue
                    target = (1 - bucket.percent / 100) * base
                    misses.append(abs(bucket.value - target) / base)
                    fracs.append(bucket.value / base)
        op.values["census_miss"] = float(np.mean(misses))
        op.values["fit"] = 1.0 - op.values["census_miss"]
        op.values["value_frac"] = float(np.mean(fracs))
        op.digests["census"] = digest({
            key: {"all": r["all"], "valid": r["valid"],
                  "census": {o: _census_dict(c) for o, c in r["census"].items()}}
            for key, r in sorted(reports.items())})
        return op

    def rates(self, ops: list) -> dict:
        secs, refs = seconds(ops), seconds(ops, scaled=True)
        yielded = ops[0].counts["explore.iter_solutions.yielded"]
        return {"census_s": secs["census_s"],
                "enum_per_s": yielded / secs["enum_s"],
                "census_ref": refs["census_s"],
                "enum_per_ref": yielded / refs["enum_s"]}

    def _check_pair(self, op, layer, method, report):
        key = f"{method}:{layer.name}"
        pin = COUNT_ALL_PINS.get((method, layer.name))
        if pin is not None:
            op.check(report["all"] == pin, f"{key}: count_all "
                     f"{report['all']} != {pin}")
        for obj, result in report["census"].items():
            op.check(result.all_count == report["all"]
                     and result.valid_count == report["valid"],
                     f"{key}: census {obj} totals disagree with the counters")
        if method not in BRUTE_METHODS:
            return
        brute = brute_force(layer, method)
        op.check(report["valid"] == brute["valid"],
                 f"{key}: count_valid {report['valid']} != {brute['valid']}")
        for obj, result in report["census"].items():
            for bucket in result.buckets:
                want = brute[obj][bucket.percent]
                got = (bucket.value, bucket.count)
                op.check(got == want, f"{key} {obj}@{bucket.percent}: "
                         f"census {got} != brute force {want}")


def _census_dict(result) -> dict:
    out = result.to_dict()
    out.pop("generation_time")
    return out


def brute_force(layer, method) -> dict:
    """count_valid and census buckets by looping over every solution."""
    original = costs.cost_original(layer, costs.default_input_shape(layer))
    valid = [s.cost for s in explore.iter_solutions(layer, method)
             if s.cost.params < original.params
             and s.cost.flops < original.flops]
    out = {"valid": len(valid)}
    for obj in CENSUS_OBJECTIVES:
        base = original.get(obj)
        values = [c.get(obj) for c in valid]
        out[obj] = {}
        for percent in CENSUS_PERCENTS:
            target = (1 - percent / 100) * base
            best = min(((abs(v - target), v) for v in values), default=None)
            if best is None or best[0] > explore.DEFAULT_TOL * base:
                out[obj][percent] = (None, 0)
            else:
                out[obj][percent] = (best[1], values.count(best[1]))
    return out


WORKLOADS = {w.name: w for w in (Search, Decompose, Space)}
