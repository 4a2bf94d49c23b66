"""The benchmark's workloads still run on the library.

``perfbench/workloads.py`` calls the library the way a user does and
reads what it returns: ``DseResult.success``, the ``(model, weights,
audit)`` triple of ``ConstraintUnreachableError.best``, census and
enumeration results.  A library change that breaks one of these makes
benchmark operations fail or report problems; one tiny operation of
each library-bound workload shows that here first, and the tiny space
operation's census digest pins every answer it reads from ``explore``.
The full space operation's census digest pins all 27 layer/method pairs
the benchmark counts and buckets.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as patch:
        # workloads.py imports its sibling inputs.py as a top-level module
        patch.setitem(sys.modules, "inputs", _load("inputs"))
        return _load("workloads")


# sha256 of the tiny seed-0 space operation's counts and census reports
TINY_SPACE_CENSUS = \
    "33451fe08ac2d135a6280ca5e33cebe5680999e6844673eb600f74ab8bece110"

# the same for the full space operation, all 27 pairs; the seed only
# orders the pairs, so every seed gives it
SPACE_CENSUS = \
    "fb024814e25c47c2916917beb3c70741913d47a4a7401bcc2a44b75a56942060"


def _check(op):
    assert op.problems == []
    assert op.attempted > 0
    assert op.failed == 0


@pytest.mark.parametrize("name", ["search", "decompose", "space"])
def test_a_tiny_operation_passes_its_checks(workloads, name):
    _check(workloads.WORKLOADS[name](0, tiny=True).run_once())


def test_a_tiny_space_operation_keeps_its_census_digest(workloads):
    op = workloads.WORKLOADS["space"](0, tiny=True).run_once()
    assert op.digests["census"] == TINY_SPACE_CENSUS


def test_the_full_space_operation_keeps_its_census_digest(workloads):
    op = workloads.WORKLOADS["space"](0).run_once()
    _check(op)
    assert op.digests["census"] == SPACE_CENSUS


def test_a_tiny_unreachable_search_passes_its_checks(workloads):
    # every layer freezes at rank one and no factorized model meets a
    # zero drop limit, so each run ends in ConstraintUnreachableError
    workload = workloads.Search(0, tiny=True)
    workload.config = workloads.dse.DseConfig(**{
        **workloads.SEARCH_CONFIG, "accuracy_drop_limit": 0.0,
        "sim_threshold_sequential": 0.01,
        "sim_threshold_nonsequential": 0.01})
    op = workload.run_once()
    _check(op)
    assert op.counts["dse.unreachable"] == len(workloads.SEARCH_FC_METHODS)


# The tiny search's decisions, printed by a fresh interpreter: each
# tt+fc run's audit without its similarities, the form of
# tests/test_dse.py's AUDIT_DECISION_PINS.  argv: the source and
# benchmark directories.
DECISIONS = """
import json, sys
sys.path[:0] = sys.argv[1:]
import workloads
from workloads import dse
search = workloads.Search(0, tiny=True)
decisions = {}
for fc in workloads.SEARCH_FC_METHODS:
    try:
        audit = dse.run_dse(search.model, search.weights, search.dataset,
                            search.config, dse.BuiltinEvaluator(search.dataset),
                            conv_method="tt", fc_method=fc).audit
    except workloads.ConstraintUnreachableError as exc:
        audit = exc.best[2]
    decisions[fc] = [{**entry, "layers": {
        name: {k: v for k, v in layer.items() if k != "similarity"}
        for name, layer in entry["layers"].items()}} for entry in audit]
print(json.dumps(decisions, sort_keys=True))
"""


def test_search_decisions_hold_across_blas_thread_counts():
    # bytes are fixed per BLAS build and thread count; the decisions
    # hold across thread counts, which set before numpy loads
    def decisions(threads):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        done = subprocess.run(
            [sys.executable, "-c", DECISIONS, str(ROOT / "src"), str(BENCH)],
            env=env, capture_output=True, text=True, check=True, timeout=300)
        return json.loads(done.stdout)

    one = decisions("1")
    assert sorted(one) == ["qr", "svd", "t3f"] and all(one.values())
    assert decisions("2") == one
