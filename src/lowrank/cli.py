"""Command line interface.

Subcommands cover the whole workflow: ``analyze`` summarizes a layer's
factorization options, ``enumerate`` exports the valid solution space
as CSV, ``census`` buckets it at compression ratios, ``decompose``
factorizes a single layer, ``dse`` runs the accuracy-guided rank
search, ``hybrid`` combines several searches per layer, ``score``
prints the qualitative method scorecard and ``breakdown`` reports
model-level costs.

Machine-readable output goes to ``--out`` when given, otherwise to
stdout.  Timing values are never included unless ``--timings`` is
passed, so two runs with the same seed write identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import explore, score as score_mod
from .costs import (CONV_METHODS, FC_METHODS, OBJECTIVES,
                    applicable_methods, compression_ratio, cost_factorized,
                    cost_original, default_input_shape, default_plan,
                    model_breakdown, require_method)
from .decompose import decompose_layer
from .dse import (BuiltinEvaluator, DseConfig, ExternalEvaluator,
                  hybrid_combine, install_solutions, run_dse)
from .errors import ConstraintUnreachableError, LowRankError
from .ir import CONV_KINDS, LayerDesc, ModelDesc, WeightStore, check_weights
from .linalg import relative_error

METHOD_ALIASES = {
    "tucker": "tucker2", "tucker-2": "tucker2", "tucker2": "tucker2",
    "cp": "cp", "tt": "tt", "svd": "svd", "qr": "qr", "t3f": "t3f",
    "tt-matrix": "t3f",
}


def _method(name: str) -> str:
    try:
        return METHOD_ALIASES[name.lower()]
    except KeyError:
        raise argparse.ArgumentTypeError(f"unknown method {name!r}") from None


def _numbers(text: str, number=int) -> tuple:
    """A list of at least one number, split at commas or ``x``
    (``3x3x8x16``), each parsed by ``number``."""
    try:
        values = tuple(number(p) for p in text.replace("x", ",").split(",")
                       if p)
    except ValueError:
        values = ()
    if not values:
        raise argparse.ArgumentTypeError(f"not a number list: {text!r}")
    return values


def _percent(part: str):
    """An int if ``part`` is one, so reports echo it as given; else a float."""
    try:
        return int(part)
    except ValueError:
        return float(part)


def _count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"negative count: {text!r}")
    return value


def parse_layer_spec(dims: tuple, stride: tuple | None = None,
                     padding: str | None = None) -> LayerDesc:
    """Layer from a flat dimension list.

    Two numbers mean a dense (in, out) layer; three to five mean a
    1-3 d convolution written kernel-first, then channels and filters.
    """
    if len(dims) == 2:
        if stride is not None or padding is not None:
            raise LowRankError("fc layers take no --stride or --padding")
        return LayerDesc(name="layer", kind="fc", in_channels=dims[0],
                         out_channels=dims[1])
    if not 3 <= len(dims) <= 5:
        raise LowRankError(f"cannot infer layer kind from {len(dims)} "
                           "dimensions")
    spatial = len(dims) - 2
    if stride is not None and len(stride) == 1:
        stride = stride * spatial
    return LayerDesc(name="layer", kind=CONV_KINDS[spatial - 1],
                     kernel=dims[:spatial], in_channels=dims[spatial],
                     out_channels=dims[spatial + 1], stride=stride,
                     padding=padding or "same")


def _input_shape(args, layer: LayerDesc):
    """``--input-size`` or the layer's default input, checked by the layer."""
    shape = args.input_size or default_input_shape(layer)
    layer.out_shape([shape])
    return shape


def _layer_query(args) -> tuple:
    """The layer, input shape and methods of a layer command: every
    method the layer is offered, or each requested one once, in order."""
    layer = parse_layer_spec(args.layer, stride=args.stride,
                             padding=args.padding)
    shape = _input_shape(args, layer)
    if not args.method:
        return layer, shape, applicable_methods(layer)
    methods = list(dict.fromkeys(args.method))  # aliases resolved by _method
    for method in methods:
        require_method(layer, method)
    return layer, shape, methods


def render_json(payload) -> str:
    """A report as sorted, indented JSON; reports hold Python scalars
    only, so equal reports give equal bytes."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(args, text: str, summary: str | None = None) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        if summary:
            sys.stdout.write(summary)
    else:
        sys.stdout.write(text)


# -- solution space export -----------------------------------------------------

CSV_COLUMNS = ("method", "ranks", "params", "fm", "overall_mem", "flops",
               "ratio_params", "ratio_flops")


def _ranks_text(solution: explore.Solution) -> str:
    ranks = "x".join(str(r) for r in solution.ranks)
    if solution.plan:
        ms, ns = solution.plan
        plan = "m" + "x".join(map(str, ms)) + ",n" + "x".join(map(str, ns))
        return plan + ":" + ranks
    return ranks


def export_solution_space(layer: LayerDesc, methods, out, limit,
                          input_shape) -> int:
    """Write one CSV row per valid solution, at most ``limit`` (None for
    all); returns the row count."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    original = cost_original(layer, input_shape)
    rows = 0
    for method in methods:
        for sol in explore.iter_solutions(
                layer, method, input_shape, valid_only=True,
                limit=None if limit is None else limit - rows):
            cost = sol.cost
            writer.writerow((
                method, _ranks_text(sol), cost.params, cost.fm,
                cost.overall_mem, cost.flops,
                f"{cost.params / original.params:.6f}",
                f"{cost.flops / original.flops:.6f}"))
            rows += 1
    return rows


# -- subcommand bodies -----------------------------------------------------------


def cmd_analyze(args) -> int:
    layer, shape, methods = _layer_query(args)
    original = cost_original(layer, shape)
    report = {"layer": layer.to_dict(), "input_shape": list(shape),
              "original": original.to_dict(), "methods": {}}
    for method in methods:
        spans = explore.valid_extremes(layer, method, shape)
        entry = {"all": explore.count_all(layer, method),
                 "valid": spans["valid_count"]}
        for metric in OBJECTIVES if entry["valid"] else ():
            lo, hi = spans[metric]
            entry[metric] = {
                "min": lo, "max": hi,
                "best_reduction_percent":
                    100.0 * compression_ratio(original.get(metric), lo),
                "worst_reduction_percent":
                    100.0 * compression_ratio(original.get(metric), hi)}
        report["methods"][method] = entry
    lines = [f"original params={report['original']['params']} "
             f"flops={report['original']['flops']}"]
    for method, entry in sorted(report["methods"].items()):
        lines.append(f"{method}: space={entry['all']} valid={entry['valid']}"
                     + (f" best params -"
                        f"{entry['params']['best_reduction_percent']:.1f}%"
                        if entry["valid"] else ""))
    _emit(args, render_json(report), "\n".join(lines) + "\n")
    return 0


def cmd_enumerate(args) -> int:
    layer, shape, methods = _layer_query(args)
    buf = io.StringIO()
    rows = export_solution_space(layer, methods, buf, args.limit, shape)
    _emit(args, buf.getvalue(), f"{rows} solutions\n")
    return 0


def cmd_census(args) -> int:
    layer, shape, methods = _layer_query(args)
    report = {}
    for method in methods:
        result = explore.census(layer, method, args.ratios,
                                objective=args.objective, tol=args.tol,
                                input_shape=shape)
        entry = result.to_dict()
        if not args.timings:
            entry.pop("generation_time", None)
        report[method] = entry
    summary = []
    for method, entry in sorted(report.items()):
        counts = ", ".join(f"{b['percent']:g}%:{b['count']}"
                           for b in entry["buckets"])
        summary.append(f"{method}: all={entry['all']} "
                       f"valid={entry['valid']} [{counts}]")
    _emit(args, render_json(report), "\n".join(summary) + "\n")
    return 0


def cmd_decompose(args) -> int:
    if args.plan_index is not None and args.method != "t3f":
        raise LowRankError("--plan-index applies only to t3f")
    if (args.out_model is None) != (args.out_weights is None):
        raise LowRankError("--out-model and --out-weights go together")
    if args.model is not None:
        if not (args.weights and args.target):
            raise LowRankError("--model needs --weights and --target, the "
                               "layer to factorize")
        if args.stride or args.padding:
            raise LowRankError("--stride and --padding apply only to "
                               "--layer")
        model = ModelDesc.load(args.model)
        weights = WeightStore.load(args.weights)
        check_weights(model, weights)
        layer = model.layer(args.target)
        weight = np.asarray(weights[args.target])
    else:
        if args.weights or args.target or args.out_model:
            raise LowRankError("--weights, --target, --out-model and "
                               "--out-weights need --model")
        layer = parse_layer_spec(args.layer, stride=args.stride,
                                 padding=args.padding)
        rng = np.random.default_rng(args.seed)
        weight = rng.standard_normal(layer.weight_shape()).astype(np.float32)
    method = args.method
    plan = default_plan(layer, method)
    if args.plan_index is not None:
        plans = explore.t3f_plans(layer)
        if not 0 <= args.plan_index < len(plans):
            raise LowRankError(f"plan index {args.plan_index} out of range "
                               f"(0..{len(plans) - 1})")
        plan = plans[args.plan_index]
    shape = _input_shape(args, layer)
    fact = decompose_layer(layer, weight, method, args.rank, plan=plan,
                           seed=args.seed)
    new_cost = cost_factorized(layer, method, fact.ranks, shape, plan)
    original = cost_original(layer, shape)
    err = relative_error(fact.reconstruct(), weight)
    report = {"layer": layer.name, "method": method,
              "ranks": list(fact.ranks),
              "plan": [list(p) for p in plan] if plan else None,
              "original": original.to_dict(),
              "factorized": new_cost.to_dict(),
              "reduction": {
                  metric: compression_ratio(original.get(metric),
                                            new_cost.get(metric))
                  for metric in ("params", "flops", "overall_mem")},
              "relative_error": err,
              "sub_layers": [d.to_dict() for d in fact.sub_layers]}
    if args.out_model:
        new_model, new_weights = install_solutions(model, weights,
                                                   {layer.name: fact})
        new_model.save(args.out_model)
        new_weights.save(args.out_weights)
    _emit(args, render_json(report),
          f"{method} ranks={list(fact.ranks)} params "
          f"{original.params}->{new_cost.params} err={err:.3e}\n")
    return 0


def _evaluator(args, dataset: WeightStore):
    if args.evaluator:
        return ExternalEvaluator(args.evaluator)
    return BuiltinEvaluator(dataset)


def _search_inputs(args) -> tuple:
    """The model, weights, dataset, config and evaluator of a search."""
    model = ModelDesc.load(args.model)
    weights = WeightStore.load(args.weights)
    check_weights(model, weights)
    dataset = WeightStore.load(args.dataset)
    config = DseConfig(objective=args.objective,
                       accuracy_drop_limit=args.drop_limit,
                       step_size=args.step_size, max_sol=args.max_sol,
                       target_fraction=args.target_fraction,
                       sample_count=args.samples, seed=args.seed, tol=args.tol)
    return model, weights, dataset, config, _evaluator(args, dataset)


def _objective_total(result, objective: str):
    """The objective summed over a result's target layers."""
    return sum(result.layer_costs[name].get(objective)
               for name in result.targets)


def _audit_report(result) -> dict:
    return {"baseline_accuracy": result.baseline_accuracy,
            "final_accuracy": result.final_accuracy,
            "success": result.success,
            "targets": list(result.targets),
            "iterations": result.audit}


def _write_dse_outputs(args, model, weights, report: dict) -> None:
    if args.out_model:
        model.save(args.out_model)
    if args.out_weights:
        weights.save(args.out_weights)
    if args.out_audit:
        with open(args.out_audit, "w", encoding="utf-8") as fh:
            fh.write(render_json(report))


def cmd_dse(args) -> int:
    model, weights, dataset, config, evaluator = _search_inputs(args)
    try:
        result = run_dse(model, weights, dataset, config, evaluator,
                         conv_method=args.conv_method,
                         fc_method=args.fc_method)
    except ConstraintUnreachableError as exc:
        best_model, best_weights, audit = exc.best
        _write_dse_outputs(args, best_model, best_weights,
                           {"success": False, "iterations": audit})
        raise
    _write_dse_outputs(args, result.model, result.weights,
                       _audit_report(result))
    summary = (f"success={result.success} baseline="
               f"{result.baseline_accuracy:.4f} final="
               f"{result.final_accuracy:.4f} iterations="
               f"{len(result.audit)}\n")
    _emit(args, render_json(_audit_report(result)), summary)
    return 0


def _parse_pairs(text: str) -> list:
    """``--pairs``: at least two conv:fc method pairs."""
    pairs = []
    for part in text.split(","):
        conv, _, fc = part.partition(":")
        conv, fc = _method(conv), _method(fc)
        if conv not in CONV_METHODS or fc not in FC_METHODS:
            raise argparse.ArgumentTypeError(f"bad method pair {part!r}")
        pairs.append((conv, fc))
    if len(pairs) < 2:
        raise argparse.ArgumentTypeError(
            "hybrid needs at least two method pairs")
    return pairs


def cmd_hybrid(args) -> int:
    model, weights, dataset, config, evaluator = _search_inputs(args)
    runs, unreachable = {}, {}
    for conv, fc in args.pairs:
        label = f"{conv}+{fc}"
        try:
            runs[label] = run_dse(model, weights, dataset, config, evaluator,
                                  conv_method=conv, fc_method=fc)
        except ConstraintUnreachableError as exc:
            unreachable[label] = str(exc)
    if len(runs) < 2:
        raise LowRankError(
            f"hybrid needs at least two finished pairs, {len(runs)} "
            "finished; " + "; ".join(f"{label}: {message}" for label, message
                                     in unreachable.items()))
    combined = hybrid_combine(runs, objective=config.objective)
    combined.final_accuracy = evaluator(combined.model, combined.weights)
    bound = combined.baseline_accuracy - config.accuracy_drop_limit
    combined.success = combined.final_accuracy >= bound
    _write_dse_outputs(args, combined.model, combined.weights,
                       _audit_report(combined))
    report = {
        "objective": config.objective,
        "runs": {label: {
            "success": run.success,
            "final_accuracy": run.final_accuracy,
            "objective_total": _objective_total(run, config.objective)}
            for label, run in runs.items()},
        "unreachable": unreachable,
        "hybrid": {
            "accuracy": combined.final_accuracy,
            "bound": bound,
            "within_bound": combined.success,
            "sources": combined.audit[0]["hybrid"],
            "objective_total": _objective_total(combined,
                                                config.objective)},
    }
    _emit(args, render_json(report),
          f"hybrid total {report['hybrid']['objective_total']} accuracy "
          f"{combined.final_accuracy:.4f} bound {bound:.4f} within_bound="
          f"{report['hybrid']['within_bound']}\n")
    return 0


def cmd_score(args) -> int:
    layer, shape, methods = _layer_query(args)
    table = score_mod.method_table(layer, methods, input_shape=shape,
                                   seed=args.seed,
                                   time_decomposition=args.timings)
    summary = []
    for method in methods:
        levels = " ".join(f"{k}={v['level']}"
                          for k, v in sorted(table[method].items()))
        summary.append(f"{method}: {levels}")
    _emit(args, render_json(table), "\n".join(summary) + "\n")
    return 0


def cmd_breakdown(args) -> int:
    model = ModelDesc.load(args.model)
    if args.input_size is not None:
        shape = tuple(args.input_size)
    elif "input_shape" in model.metadata:
        shape = model.metadata["input_shape"]
        if not (isinstance(shape, list)
                and all(type(d) is int for d in shape)):
            raise LowRankError(f"model metadata input_shape {shape!r} is "
                               "not a list of integers")
        shape = tuple(shape)
    else:
        raise LowRankError("model metadata lacks input_shape; "
                           "pass --input-size")
    report = model_breakdown(model, shape)
    payload = {group: cost.to_dict()
               for group, cost in report.items() if group != "layers"}
    payload["layers"] = {name: cost.to_dict()
                         for name, cost in report["layers"].items()}
    summary = (f"total params={payload['total']['params']} "
               f"flops={payload['total']['flops']}\n")
    _emit(args, render_json(payload), summary)
    return 0


# -- parser -----------------------------------------------------------------------


_FLAGS = {
    "--seed": dict(type=int, default=0,
                   help="seed for every randomized choice"),
    "--limit": dict(type=_count, default=None, help="cap on exported rows"),
    "--tol": dict(type=float, default=explore.DEFAULT_TOL,
                  help="relative tolerance for ratio buckets"),
    "--timings": dict(action="store_true",
                      help="include wall-clock timings (not reproducible)"),
}


def _add_common(parser: argparse.ArgumentParser, *flags: str) -> None:
    """``--out`` plus the named ``_FLAGS`` the subcommand reads."""
    parser.add_argument("--out", default=None,
                        help="write machine-readable output here")
    for flag in flags:
        parser.add_argument(flag, **_FLAGS[flag])


def _add_shape_flags(parser: argparse.ArgumentParser) -> None:
    """The flags that shape a ``--layer`` and give its input."""
    parser.add_argument("--stride", type=_numbers, default=None)
    parser.add_argument("--padding", choices=("same", "valid"), default=None)
    parser.add_argument("--input-size", type=_numbers, default=None,
                        help="input shape, e.g. 16,16,256")


def _add_layer_flags(parser: argparse.ArgumentParser) -> None:
    """The flags of the layer commands, which ``_layer_query`` reads."""
    parser.add_argument("--layer", type=_numbers, required=True,
                        help="dimensions, e.g. 3,3,256,512 or 400,120")
    _add_shape_flags(parser)
    parser.add_argument("--method", type=_method, action="append",
                        default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lowrank",
        description="Low-rank factorization toolkit for neural layers")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="summarize factorization options")
    _add_layer_flags(p)
    _add_common(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("enumerate", help="export valid solutions as CSV")
    _add_layer_flags(p)
    _add_common(p, "--limit")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("census", help="bucket solutions at target ratios")
    _add_layer_flags(p)
    p.add_argument("--ratios", type=lambda text: _numbers(text, _percent),
                   default=(25, 60, 85),
                   help="compression percentages, e.g. 25,60,85")
    p.add_argument("--objective", choices=OBJECTIVES, default="params")
    _add_common(p, "--tol", "--timings")
    p.set_defaults(fn=cmd_census)

    p = sub.add_parser("decompose", help="factorize one layer")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", default=None, help="model JSON path")
    source.add_argument("--layer", type=_numbers, default=None,
                        help="synthetic layer dimensions")
    p.add_argument("--weights", default=None, help="weight archive path")
    p.add_argument("--target", default=None, help="layer name in the model")
    _add_shape_flags(p)
    p.add_argument("--method", type=_method, required=True)
    p.add_argument("--rank", type=_numbers, required=True,
                   help="rank vector, e.g. 60 or 30,60,40")
    p.add_argument("--plan-index", type=int, default=None,
                   help="reshape plan index for tt-matrix layers")
    p.add_argument("--out-model", default=None)
    p.add_argument("--out-weights", default=None)
    _add_common(p, "--seed")
    p.set_defaults(fn=cmd_decompose)

    for name, fn in (("dse", cmd_dse), ("hybrid", cmd_hybrid)):
        p = sub.add_parser(name, help="accuracy-guided rank search"
                           if name == "dse" else
                           "combine several searches per layer")
        p.add_argument("--model", required=True)
        p.add_argument("--weights", required=True)
        p.add_argument("--dataset", required=True,
                       help="archive with inputs and labels records")
        p.add_argument("--evaluator", nargs="+", default=None,
                       help="external command: cmd model.json weights.lrfw")
        p.add_argument("--objective", choices=OBJECTIVES,
                       default=DseConfig.objective)
        p.add_argument("--drop-limit", type=float,
                       default=DseConfig.accuracy_drop_limit,
                       help="largest acceptable accuracy drop")
        p.add_argument("--step-size", type=float, default=DseConfig.step_size)
        p.add_argument("--max-sol", type=int, default=DseConfig.max_sol)
        p.add_argument("--target-fraction", type=float,
                       default=DseConfig.target_fraction)
        p.add_argument("--samples", type=int, default=DseConfig.sample_count,
                       help="feature-map sample count")
        if name == "dse":
            p.add_argument("--conv-method", type=_method, default="tucker2")
            p.add_argument("--fc-method", type=_method, default="svd")
        else:
            p.add_argument("--pairs", type=_parse_pairs, required=True,
                           help="conv:fc method pairs, e.g. tucker2:svd,cp:qr")
        p.add_argument("--out-model", default=None)
        p.add_argument("--out-weights", default=None)
        p.add_argument("--out-audit", default=None)
        _add_common(p, "--seed", "--tol")
        p.set_defaults(fn=fn)

    p = sub.add_parser("score", help="qualitative method scorecard")
    _add_layer_flags(p)
    _add_common(p, "--seed", "--timings")
    p.set_defaults(fn=cmd_score)

    p = sub.add_parser("breakdown", help="model-level cost report")
    p.add_argument("--model", required=True)
    p.add_argument("--input-size", type=_numbers, default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_breakdown)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (LowRankError, ValueError, KeyError, OSError) as exc:
        detail = exc.args[0] if exc.args else exc
        if isinstance(exc, OSError) and exc.strerror:
            # args[0] of an OSError is its errno
            detail = exc.strerror if exc.filename is None \
                else f"{exc.strerror}: {exc.filename}"
        sys.stderr.write(f"error: {detail}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
