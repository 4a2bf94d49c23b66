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
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
