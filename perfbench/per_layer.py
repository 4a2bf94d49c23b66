"""Per-layer metrics of a traced run, per operation.

Every metric is a total over the traced operations divided by their
number, so counts repeat exactly for a given seed and times are
comparable across runs of different length.  ``trace.coverage`` is the
share of the traced wall time that the recorded self times explain;
``trace.overhead_frac`` is how much slower a traced operation ran than
the untraced one measured in the same process.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

# BENCHMARK.json is the one list of per-layer metrics and their units.
SPEC = [(m["name"], m["unit"]) for m in json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text()
)["per_layer"]]
SEARCH_METHODS = ("tt", "svd", "qr", "t3f")
# A 2-d conv tensor has four modes; one ALS sweep updates each mode with
# a Khatri-Rao product of the other three, which is two khatri_rao calls.
CP_MODES = 4
KHATRI_RAO_PER_SWEEP = CP_MODES * (CP_MODES - 2)

_FIELD = {"calls": 0, "self_s": 1, "failed": 2}
# metrics counted by the workloads rather than by spans
_OP_COUNTS = ("dse.iterations", "dse.unreachable",
              "decompose.tucker2.rejected", "explore.iter_solutions.yielded")


def als_sweeps(tracer) -> list:
    """ALS sweeps of every traced cp decomposition, in call order."""
    calls = tracer.children("decompose.khatri_rao", "decompose.cp")
    return [n / KHATRI_RAO_PER_SWEEP for n in calls]


def metrics(tracer, ops, untraced_wall: float) -> dict:
    """``name -> (value, unit)`` for every metric in SPEC, in its order.

    A name ``<span>.calls``, ``<span>.self_s`` or ``<span>.failed`` is
    read from the span totals; the others are computed here."""
    n = len(ops)
    totals = tracer.totals()
    is_op = tracer.mask("op")
    wall = float(tracer.durations()[is_op].sum())
    sweeps = als_sweeps(tracer)
    special = {
        "explore.solutions_at_ratio.calls": sum(
            totals.get(f"explore.solutions_at_ratio.{m}", (0,))[0]
            for m in SEARCH_METHODS) / n,
        "decompose.cp.als_sweeps": sum(sweeps) / len(sweeps) if sweeps else 0.0,
        "trace.wall_s": wall / n,
        "trace.coverage": float(tracer.self_times()[~is_op].sum()) / wall,
        "trace.overhead_frac":
            statistics.median(op.wall for op in ops) / untraced_wall - 1.0,
    }
    for name in _OP_COUNTS:
        special[name] = sum(op.counts.get(name, 0) for op in ops) / n
    out = {}
    for name, unit in SPEC:
        if name in special:
            out[name] = (special[name], unit)
        else:
            base, _, field = name.rpartition(".")
            out[name] = (totals.get(base, (0, 0.0, 0))[_FIELD[field]] / n, unit)
    return out

