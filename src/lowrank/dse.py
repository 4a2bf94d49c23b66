"""Similarity-guided per-layer rank search and hybrid combination.

The search starts every target layer at rank one (maximum compression),
then repeatedly: evaluates the factorized model against the accuracy
bound, freezes layers whose feature maps already track the original
closely enough, and relaxes the remaining layers' target compression
step by step, re-decomposing at each layer's new target and keeping
the candidate whose feature map stays most similar.  Layers that run
out of steps revert to their original weights.  Sensitive layers thus
end up less compressed than robust ones.

``search`` yields one DseResult per evaluated model, whose ``success``
says whether that model meets the bound.  It ends at the first that
does, or once no layer can move.  ``run_dse`` drives it to its end and
returns the last result, or raises ConstraintUnreachableError.

A hybrid model combines several finished single-method runs by taking,
for every layer, the solution from the run that minimizes the chosen
objective on that layer.

A search keeps one ``LayerSearchState`` per target layer, whose dicts
keep the layer's full factorizations and its rank families, so each is
computed once per search; separate searches share nothing.
"""

from __future__ import annotations

import math
import subprocess
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import explore
from .costs import (CONV_METHODS, FC_METHODS, CostReport,
                    applicable_methods, check_integer, check_real,
                    compression_ratio, cost_original, default_plan,
                    method_applies)
from .decompose import FactorizedLayer, decompose_layer
from .errors import (ConstraintUnreachableError, EvaluatorError, GraphError,
                     RankError)
from .ir import (DATASET_INPUTS, DATASET_LABELS, LayerDesc, ModelDesc,
                 WeightStore)
from .similarity import capture_feature_maps, forward_model, layer_similarity, \
    sample_dataset

SEQUENTIAL_THRESHOLD = 0.92
NONSEQUENTIAL_THRESHOLD = 0.96


@dataclass
class DseConfig:
    objective: str = "params"
    accuracy_drop_limit: float = 0.015
    step_size: float = 5.0
    max_sol: int = 3
    sim_threshold_sequential: float = SEQUENTIAL_THRESHOLD
    sim_threshold_nonsequential: float = NONSEQUENTIAL_THRESHOLD
    target_fraction: float = 0.9
    sample_count: int = 1000
    seed: int = 0
    tol: float = explore.DEFAULT_TOL

    def __post_init__(self):
        explore.check_query(self.objective, self.tol)
        for name in ("accuracy_drop_limit", "step_size", "target_fraction",
                     "sim_threshold_sequential", "sim_threshold_nonsequential"):
            check_real(getattr(self, name), name)
        # written so that NaN fails too
        if not self.accuracy_drop_limit >= 0:
            raise RankError("accuracy_drop_limit must be non-negative")
        if not 0 < self.step_size < 100:
            raise RankError("step_size must lie in (0, 100)")
        for name, least in (("max_sol", 1), ("sample_count", 1), ("seed", 0)):
            check_integer(getattr(self, name), least, name)
        if not 0 < self.target_fraction <= 1:
            raise RankError("target_fraction must lie in (0, 1]")
        for thr in (self.sim_threshold_sequential,
                    self.sim_threshold_nonsequential):
            if not 0 < thr <= 1:
                raise RankError("similarity thresholds must lie in (0, 1]")


@dataclass
class LayerSearchState:
    """One target layer of a search.

    Fixed once: the layer, the method that factors it, its input shape,
    its similarity threshold, ``memo`` (``decompose_layer``'s) and
    ``families`` (``explore.solutions_at_ratio``'s).  Moved by the
    search: the step, the frozen flag, and the current solution with its
    similarity and its cost, set together whenever the solution is
    chosen.  A reverted layer has no solution, no similarity and its
    original cost."""

    layer: LayerDesc
    method: str
    input_shape: tuple
    threshold: float
    memo: dict = field(default_factory=dict)
    families: dict = field(default_factory=dict)
    step: float = 0.0
    frozen: bool = False
    solution: FactorizedLayer | None = None
    similarity: float | None = None
    cost: CostReport | None = None

    @property
    def exhausted(self) -> bool:
        return self.solution is None


@dataclass
class DseResult:
    """One evaluated model of a search with the audit up to its entry, or
    a hybrid (a success, with no accuracy until its caller measures one).
    ``success`` says whether ``final_accuracy`` meets the bound."""

    model: ModelDesc
    weights: WeightStore
    audit: list
    baseline_accuracy: float
    final_accuracy: float
    success: bool
    solutions: dict
    targets: list
    original_model: ModelDesc
    original_weights: WeightStore
    layer_costs: dict = field(default_factory=dict)


# -- evaluators ---------------------------------------------------------------


def builtin_eval_accuracy(model: ModelDesc, weights: WeightStore,
                          inputs: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy of the model's argmax output over a labeled batch."""
    out = forward_model(model, weights, inputs)
    if out.ndim != 2:
        raise EvaluatorError(f"model output has shape {out.shape}, expected "
                             "(batch, classes)")
    pred = out.argmax(axis=1)
    truth = np.asarray(labels).ravel()
    if truth.shape != pred.shape:
        raise EvaluatorError("label count does not match batch size")
    # nan fails the floor test, and an infinite label the range
    if not np.all((truth == np.floor(truth)) & (truth >= 0)
                  & (truth < out.shape[1])):
        raise EvaluatorError("labels must be whole class indices in "
                             f"[0, {out.shape[1]})")
    return float((pred == truth.astype(np.int64)).mean())


class BuiltinEvaluator:
    """Evaluator measuring raw forward accuracy on a labeled dataset."""

    def __init__(self, dataset: WeightStore):
        for name in (DATASET_INPUTS, DATASET_LABELS):
            if name not in dataset:
                raise EvaluatorError(f"dataset has no {name!r} record")
        self.inputs = dataset[DATASET_INPUTS]
        self.labels = dataset[DATASET_LABELS]
        if not len(self.inputs):
            raise EvaluatorError("dataset has no inputs")

    def __call__(self, model: ModelDesc, weights: WeightStore) -> float:
        return builtin_eval_accuracy(model, weights, self.inputs, self.labels)


class ExternalEvaluator:
    """Evaluator shelling out to ``cmd model.json weights.lrfw``.

    The command must print one decimal accuracy in [0, 1] on stdout;
    a nonzero exit is an evaluator failure.  This is the seam where a
    framework-based fine-tune-and-validate step plugs in.
    """

    def __init__(self, cmd):
        self.cmd = list(cmd) if isinstance(cmd, (list, tuple)) else [cmd]

    def __call__(self, model: ModelDesc, weights: WeightStore) -> float:
        with tempfile.TemporaryDirectory(prefix="lrf-eval-") as tmp:
            model_path = Path(tmp) / "model.json"
            weight_path = Path(tmp) / "weights.lrfw"
            model.save(model_path)
            weights.save(weight_path)
            proc = subprocess.run(
                self.cmd + [str(model_path), str(weight_path)],
                capture_output=True, text=True)
        if proc.returncode != 0:
            raise EvaluatorError(
                f"evaluator exited {proc.returncode}: {proc.stderr.strip()}")
        try:
            acc = float(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError) as exc:
            raise EvaluatorError(
                f"evaluator printed no accuracy: {proc.stdout!r}") from exc
        if not 0.0 <= acc <= 1.0:
            raise EvaluatorError(f"accuracy {acc} outside [0, 1]")
        return acc


# -- model surgery ------------------------------------------------------------


def install_solutions(model: ModelDesc, weights: WeightStore,
                      solutions: dict) -> tuple:
    """Model and weights with each named layer replaced by its chain.

    ``solutions`` maps layer name to a FactorizedLayer or None; None
    keeps the original layer.  An edge into a replaced layer enters its
    first sub-layer and an edge out of it leaves its last; the chains'
    own edges follow the model's, in layer order.
    """
    new_layers, chain_edges, updates = [], [], {}
    first, last = {}, {}  # replaced layer -> its first, last sub-layer
    for layer in model.layers:
        fact = solutions.get(layer.name)
        if fact is None:
            new_layers.append(layer)
            continue
        subs = fact.sub_layers
        new_layers.extend(subs)
        chain_edges.extend((a.name, b.name) for a, b in zip(subs, subs[1:]))
        first[layer.name], last[layer.name] = subs[0].name, subs[-1].name
        updates.update(fact.weights)
    edges = [(last.get(src, src), first.get(dst, dst))
             for src, dst in model.edges]
    new_model = ModelDesc(layers=new_layers, edges=edges + chain_edges,
                          input=first.get(model.input, model.input),
                          output=last.get(model.output, model.output),
                          metadata=dict(model.metadata))
    return new_model, weights.replace(updates, drop=first)


# -- target selection ---------------------------------------------------------


def select_target_layers(model: ModelDesc, input_shape: tuple,
                         objective: str = "params",
                         fraction: float = 0.9) -> list:
    """The ceil(fraction * L) decomposable layers largest by objective.

    Ties break toward earlier layers; the result keeps layer order.
    """
    names = [layer.name for layer in model.layers if applicable_methods(layer)]
    if not names:
        raise GraphError("model has no decomposable layer")
    in_shapes = model.input_shapes(input_shape)
    ranked = sorted(names, key=lambda name: -cost_original(
        model.layer(name), in_shapes[name]).get(objective))
    chosen = set(ranked[:math.ceil(fraction * len(names))])
    return [name for name in names if name in chosen]


# -- the search loop -----------------------------------------------------------


def _decompose_target(state: LayerSearchState, weights: WeightStore,
                      ranks: tuple, plan, seed: int) -> FactorizedLayer:
    """``decompose_layer`` on a target layer of a search, in its memo; an
    error names the layer it came from and keeps its payload."""
    layer = state.layer
    try:
        return decompose_layer(layer, np.asarray(weights[layer.name]),
                               state.method, ranks, plan=plan, seed=seed,
                               memo=state.memo)
    except Exception as exc:
        exc.args = (f"{layer.name}: {exc}",)
        raise


def iteration_bound(step_size: float, n_targets: int) -> int:
    """The most models a search evaluates."""
    return 1 + math.ceil(100.0 / step_size) * n_targets


def search(model: ModelDesc, weights: WeightStore, dataset: WeightStore,
           config: DseConfig, evaluator, conv_method: str = "tucker2",
           fc_method: str = "svd"):
    """Lazily the rank search: one DseResult per evaluated model, yielded
    once the decision step that its evaluation caused has run.  It ends
    after the first result that meets the accuracy bound, or after a
    step in which no target layer moved (each is then frozen or reverted).
    """
    if conv_method not in CONV_METHODS or fc_method not in FC_METHODS:
        raise RankError(f"bad method pair {conv_method!r}, {fc_method!r}")
    samples, _ = sample_dataset(dataset, config.sample_count, config.seed)
    in_shapes = model.input_shapes(samples.shape[1:])
    targets = select_target_layers(model, samples.shape[1:], config.objective,
                                   config.target_fraction)
    capture = capture_feature_maps(model, weights, samples, targets)
    baseline = evaluator(model, weights)

    states = {}
    for name in targets:
        layer = model.layer(name)
        branching = (len(model.predecessors(name)) > 1
                     or len(model.successors(name)) > 1)
        state = states[name] = LayerSearchState(
            layer,
            conv_method if method_applies(layer, conv_method) else fc_method,
            in_shapes[name],
            config.sim_threshold_nonsequential if branching
            else config.sim_threshold_sequential)
        plan = default_plan(layer, state.method)
        fact = _decompose_target(
            state, weights, explore.min_ranks(layer, state.method, plan),
            plan, config.seed)
        cost = fact.cost(state.input_shape)
        original = cost_original(layer, state.input_shape)
        state.step = 100.0 * compression_ratio(original.get(config.objective),
                                               cost.get(config.objective))
        state.solution, state.similarity, state.cost = (
            fact, layer_similarity(fact, capture), cost)

    audit = []
    while True:
        solutions = {name: state.solution for name, state in states.items()}
        new_model, new_weights = install_solutions(model, weights, solutions)
        accuracy = evaluator(new_model, new_weights)
        audit.append({
            "iteration": len(audit),
            "accuracy": accuracy,
            "layers": {
                name: {
                    "step": state.step,
                    "frozen": state.frozen,
                    "exhausted": state.exhausted,
                    "similarity": state.similarity,
                    "method": (state.solution.method
                               if state.solution else None),
                    "ranks": (list(state.solution.ranks)
                              if state.solution else None),
                    "objective_value": state.cost.get(config.objective),
                } for name, state in states.items()},
        })
        result = DseResult(
            model=new_model, weights=new_weights, audit=list(audit),
            baseline_accuracy=baseline, final_accuracy=accuracy,
            success=accuracy >= baseline - config.accuracy_drop_limit,
            solutions=solutions, targets=list(targets), original_model=model,
            original_weights=weights,
            layer_costs={n: s.cost for n, s in states.items()})

        live = [] if result.success else [
            s for s in states.values() if not (s.exhausted or s.frozen)]
        for state in live:
            state.frozen = state.similarity >= state.threshold
        moving = [state for state in live if not state.frozen]
        for state in moving:
            state.step -= config.step_size
            if state.step <= 0:
                state.solution, state.similarity = None, None
                state.cost = cost_original(state.layer, state.input_shape)
                continue
            bucket = explore.solutions_at_ratio(
                state.layer, state.method, state.step, config.objective,
                config.tol, state.input_shape, memo=state.families)
            candidates = explore.select_candidates(bucket, config.max_sol,
                                                   seed=config.seed)
            if not candidates:
                continue
            scored = []
            for cand in candidates:
                fact = _decompose_target(state, weights, cand.ranks,
                                         cand.plan, config.seed)
                scored.append((-layer_similarity(fact, capture),
                               cand.cost.flops, cand.key(), fact, cand.cost))
            neg_sim, _, _, fact, cost = min(scored, key=lambda t: t[:3])
            state.solution, state.similarity, state.cost = fact, -neg_sim, cost
        yield result
        if not moving:
            return


def run_dse(model: ModelDesc, weights: WeightStore, dataset: WeightStore,
            config: DseConfig, evaluator, conv_method: str = "tucker2",
            fc_method: str = "svd") -> DseResult:
    """Run ``search`` to its end and return its last result.

    Raises ConstraintUnreachableError (carrying the most accurate model
    found, and naming the frozen and the reverted layers) when the last
    result misses the accuracy bound.
    """
    best = None
    for last in search(model, weights, dataset, config, evaluator,
                       conv_method, fc_method):
        if best is None or last.final_accuracy > best.final_accuracy:
            best = last
    if last.success:
        return last
    reverted = [n for n, fact in last.solutions.items() if fact is None]
    frozen = [n for n in last.targets if n not in reverted]
    raise ConstraintUnreachableError(
        f"accuracy {last.final_accuracy:.4f} never reached baseline "
        f"{last.baseline_accuracy:.4f} - {config.accuracy_drop_limit}; "
        f"frozen: {', '.join(frozen) or 'none'}; reverted: "
        f"{', '.join(reverted) or 'none'}",
        best=(best.model, best.weights, last.audit))


# -- hybrid combination --------------------------------------------------------


def hybrid_combine(runs: dict, objective: str = "params") -> DseResult:
    """Per-layer best-of across finished runs.

    ``runs`` maps a label to a DseResult over the same original model.
    For every target layer the solution with the smallest objective
    cost wins, from the first such run on a tie (the original layer
    counts at its original cost when a run reverted it).  The hybrid
    total is therefore no larger than any single run's total.
    """
    if len(runs) < 2:
        raise RankError("hybrid combination needs at least two finished runs")
    items = list(runs.items())
    first = items[0][1]
    targets = first.targets
    for label, run in items[1:]:
        if run.targets != targets:
            raise GraphError(f"run {label!r} searched different layers")

    model, weights = first.original_model, first.original_weights
    chosen, layer_costs, sources = {}, {}, {}
    for name in targets:
        label, run = min(items, key=lambda item:
                         item[1].layer_costs[name].get(objective))
        sources[name], chosen[name] = label, run.solutions[name]
        layer_costs[name] = run.layer_costs[name]

    hybrid_model, hybrid_weights = install_solutions(model, weights, chosen)
    audit = [{
        "iteration": 0,
        "hybrid": {name: {"source": sources[name],
                          "objective_value": layer_costs[name].get(objective)}
                   for name in targets},
    }]
    return DseResult(model=hybrid_model, weights=hybrid_weights, audit=audit,
                     baseline_accuracy=first.baseline_accuracy,
                     final_accuracy=None, success=True,
                     solutions=chosen, targets=list(targets),
                     original_model=model, original_weights=weights,
                     layer_costs=layer_costs)
