"""Tests of the benchmark's own code.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import importlib
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import per_layer  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _tree(tracer, rows):
    """Load (name, start, end, parent) rows straight into the tracer."""
    for name, start, end, parent in rows:
        tracer.name_id.append(tracer._id(name))
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)


def test_self_time_subtracts_direct_children_only():
    tracer = spans.Tracer()
    _tree(tracer, [("op", 0.0, 10.0, -1),      # 0
                   ("a", 1.0, 4.0, 0),         # 1
                   ("b", 2.0, 3.0, 1),         # 2: grandchild of op
                   ("a", 5.0, 9.0, 0),         # 3
                   ("b", 6.0, 6.5, 3)])        # 4
    assert tracer.self_times().tolist() == [3.0, 2.0, 1.0, 3.5, 0.5]
    totals = tracer.totals()
    assert totals["a"] == (2, 5.5, 0)
    assert totals["b"] == (2, 1.5, 0)
    assert tracer.children("b", "a") == [1, 1]
    assert tracer.mask("op").tolist() == [True, False, False, False, False]


def test_spans_record_nesting_and_failures():
    tracer = spans.Tracer()
    boom = tracer.wrap(lambda: 1 / 0, "boom")
    with tracer.span("op"):
        with pytest.raises(ZeroDivisionError):
            boom()
    assert list(tracer.parent) == [-1, 0]
    assert tracer.totals()["boom"][2] == 1
    assert tracer.self_times().min() >= 0.0


def test_opaque_block_records_one_span():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: None, "inner")
    with tracer.opaque("check"):
        inner()
        with tracer.span("own"):
            inner()
    inner()
    assert [tracer.names[i] for i in tracer.name_id] == \
        ["check", "own", "inner"]
    assert list(tracer.parent) == [-1, 0, -1]


def _python_work():
    total = 0
    for i in range(4_000_000):
        total += i
    return total


def test_timed_part_samples_the_reference_inside_it():
    t0 = time.perf_counter()
    _python_work()
    alone = time.perf_counter() - t0
    op = workloads.Op()
    handler = signal.getsignal(signal.SIGALRM)
    with op.timed("q", "p"):
        _python_work()
    # before, at least one sample inside, after; their time is taken off
    assert len(op.reference) >= 3
    assert 0.5 * alone < op.parts["q"]["p"] < 2 * alone
    assert op.scaled["q"]["p"] == \
        op.parts["q"]["p"] / statistics.fmean(op.reference)
    assert signal.getsignal(signal.SIGALRM) == handler


def test_run_value_sums_per_part_medians():
    ops = []
    for times in ({"a": 1.0, "b": 5.0}, {"a": 9.0, "b": 1.0},
                  {"a": 2.0, "b": 2.0}):
        op = workloads.Op()
        op.parts["x"] = dict(times)
        ops.append(op)
    # median of a is 2, median of b is 2; the median op total would be 6
    assert workloads.seconds(ops) == {"x": 4.0}


def _site_values():
    return {(m, a): getattr(importlib.import_module(m), a)
            for m, a, _ in spans.SITES}


def test_untraced_run_leaves_library_untouched():
    before = _site_values()
    workloads.Space(0, tiny=True).run_once()
    tracer = spans.Tracer()
    with spans.installed(tracer):
        during = _site_values()
        workloads.Space(0, tiny=True).run_once(tracer)
    after = _site_values()
    assert all(after[k] is before[k] for k in before)
    assert all(during[k] is not before[k] for k in before)
    assert len(tracer) > 0


def _check_tiny(workload):
    op = workload.run_once()
    assert op.problems == []
    assert op.attempted > 0
    assert op.failed == 0
    return op


def test_tiny_search_passes_its_checks():
    op = _check_tiny(workloads.Search(0, tiny=True))
    assert set(op.digests) == {"tt+svd", "tt+qr", "tt+t3f", "hybrid"}


def test_tiny_decompose_passes_its_checks():
    workload = workloads.Decompose(0, tiny=True)
    op = _check_tiny(workload)
    assert op.counts.get("decompose.tucker2.rejected", 0) == \
        len(workload.rejects)
    assert 0 < op.values["rel_err_mean"] < 1


def test_tucker2_draws_split_on_a_full_core():
    workload = workloads.Decompose(1)
    timed = [r for _, _, m, r, _, ladder in workload.points
             if m == "tucker2" and not ladder]
    assert len(timed) == workloads.UNIFORM_POINTS
    assert workload.rejects
    for layer, _, _, ranks, _ in workload.rejects:
        assert not workloads._tucker2_core_full(layer, ranks)


def test_tiny_space_passes_its_checks():
    op = _check_tiny(workloads.Space(0, tiny=True))
    assert op.counts["explore.iter_solutions.yielded"] > 0


def test_brute_force_matches_census_on_a_small_space():
    layer = next(l for l in workloads.inputs.SPACE_FC if l.name == "F1")
    brute = workloads.brute_force(layer, "svd")
    census = workloads.explore.census(layer, "svd", workloads.CENSUS_PERCENTS)
    assert brute["valid"] == census.valid_count
    for bucket in census.buckets:
        assert brute["params"][bucket.percent] == (bucket.value, bucket.count)


def test_traced_metrics_cover_the_spec():
    workload = workloads.Decompose(0, tiny=True)
    untraced = workload.run_once()
    untraced.wall = 1.0
    tracer = spans.Tracer()
    with spans.installed(tracer):
        with tracer.span("op"):
            op = workload.run_once(tracer)
    op.wall = 1.0
    got = per_layer.metrics(tracer, [op], untraced.wall)
    assert [name for name, _ in per_layer.SPEC] == list(got)
    assert got["decompose.cp.calls"][0] == 4
    assert got["decompose.cp.als_sweeps"][0] >= 1
    assert 0 < got["trace.coverage"][0] <= 1
    # the only forward passes are the checks', which stay out of the totals
    assert got["check.self_s"][0] > 0
    assert all(v == 0 for k, (v, _) in got.items()
               if k.startswith("similarity.forward_layer."))


def test_run_refuses_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "space",
         "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_final_line_has_the_contract_keys():
    import run
    result = {"workload": "space", "setup_s": 0.5, "attempted": 3,
              "failed": 1, "problems": [],
              "values": {"census_ref": 2.0, "enum_per_ref": 1.0,
                         "value_frac": 0.5, "fit": 0.9}}
    line = run.final_line([result], trace=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"]["op_ref"]["value"] == 2.0
    assert line["metrics"]["throughput_ref"]["value"] == 1.0
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(line["metrics"]) == {m["name"] for m in spec["end_to_end"]}
