"""In-memory span tracing of the library from outside it.

A :class:`Tracer` records one span per call at each layer boundary:
its name, start, end, and the span that was open when it began (its
parent).  :func:`installed` swaps the traced functions for wrappers at
the module attributes where the library looks them up, and puts the
originals back on exit, so an untraced run calls the library exactly
as a user would.  Nothing in the library changes.  Inside
:meth:`Tracer.opaque` the wrappers record nothing, so that work done
only to check outputs stays out of the per-layer totals.

Self time is a span's duration minus the durations of its children.
Calls nest strictly on one thread, so the children of a span never
overlap and their durations simply add.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

ROOT = -1


def forward_kind(layer) -> str:
    """Per-layer-kind bucket of a ``forward_layer`` call."""
    if layer.kind.startswith("conv"):
        return "conv_1x1" if all(k == 1 for k in layer.kernel) else "conv_kxk"
    if layer.kind in ("depthwise_conv", "fc", "tt_core", "pool", "activation"):
        return layer.kind
    return "other"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# (module, attribute, span name or function of the call's arguments).
# Each attribute is where the library (or the benchmark) looks the name
# up at call time: dse imports its helpers by name, so they are wrapped
# in dse's namespace rather than where they are defined.
SITES = (
    ("lowrank.dse", "run_dse", "dse.run_dse"),
    ("lowrank.dse", "hybrid_combine", "dse.hybrid_combine"),
    ("lowrank.dse", "install_solutions", "dse.install_solutions"),
    ("lowrank.dse", "capture_feature_maps", "similarity.capture_feature_maps"),
    ("lowrank.dse", "layer_similarity", "similarity.layer_similarity"),
    ("lowrank.dse", "decompose_layer",
     lambda a, k: "decompose." + _arg(a, k, 2, "method")),
    ("lowrank.decompose", "decompose_layer",
     lambda a, k: "decompose." + _arg(a, k, 2, "method")),
    ("lowrank.decompose", "khatri_rao", "decompose.khatri_rao"),
    ("lowrank.explore", "solutions_at_ratio",
     lambda a, k: "explore.solutions_at_ratio." + _arg(a, k, 1, "method")),
    ("lowrank.explore", "census", "explore.census"),
    ("lowrank.explore", "count_valid", "explore.count_valid"),
    ("lowrank.explore", "select_candidates", "explore.select_candidates"),
    ("lowrank.explore", "cost_factorized", "costs.cost_factorized"),
    ("lowrank.similarity", "forward_layer",
     lambda a, k: "similarity.forward_layer." + forward_kind(_arg(a, k, 0, "layer"))),
    ("lowrank.similarity", "cosine", "similarity.cosine"),
    ("lowrank.linalg", "svd", "linalg.svd"),
    ("lowrank.linalg", "qr_pivoted", "linalg.qr_pivoted"),
    ("lowrank.linalg", "mode_n_product", "linalg.mode_n_product"),
)


class Tracer:
    """Spans kept in flat arrays: name id, start, end, parent index."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.reset()

    def reset(self):
        """Drop every recorded span; keep the name table."""
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = set()
        self._stack = []
        self._opaque = 0

    def __len__(self):
        return len(self.name_id)

    def _id(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
        return sid

    def begin(self, name: str) -> int:
        index = len(self.name_id)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else ROOT)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def finish(self, index: int):
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield index
        except BaseException:
            self.failed.add(index)
            raise
        finally:
            self.finish(index)

    @contextmanager
    def opaque(self, name: str):
        """One span for the block; wrapped calls inside it record nothing
        (spans the block opens itself with :meth:`span` still do)."""
        with self.span(name):
            self._opaque += 1
            try:
                yield
            finally:
                self._opaque -= 1

    def wrap(self, fn, name):
        """``fn`` recording one span per call; ``name`` is a string or a
        function of the call's positional and keyword arguments."""
        name_of = name if callable(name) else (lambda a, k: name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._opaque:
                return fn(*args, **kwargs)
            index = tracer.begin(name_of(args, kwargs))
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.failed.add(index)
                raise
            finally:
                tracer.finish(index)
        return traced

    # -- analysis -----------------------------------------------------

    def durations(self) -> np.ndarray:
        return np.frombuffer(self.end, dtype=np.float64) - \
            np.frombuffer(self.start, dtype=np.float64)

    def self_times(self) -> np.ndarray:
        """Duration minus the summed durations of direct children."""
        dur = self.durations()
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=len(dur))
        return dur - child

    def totals(self) -> dict:
        """``name -> (calls, self seconds, failed calls)``."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        own = self.self_times()
        calls = np.bincount(ids, minlength=len(self.names))
        secs = np.bincount(ids, weights=own, minlength=len(self.names))
        bad = np.bincount(ids[sorted(self.failed)].astype(np.intp),
                          minlength=len(self.names))
        return {name: (int(calls[i]), float(secs[i]), int(bad[i]))
                for i, name in enumerate(self.names) if calls[i]}

    def mask(self, name: str) -> np.ndarray:
        """Boolean mask of the spans called ``name``."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        return ids == self._ids.get(name, -1)

    def children(self, name: str, parent_prefix: str) -> list:
        """For each span whose name starts with ``parent_prefix``, in call
        order, how many direct children called ``name`` it has."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        parents = [i for i, sid in enumerate(ids)
                   if self.names[sid].startswith(parent_prefix)]
        kids = parent[self.mask(name)]
        counts = np.bincount(kids[kids >= 0], minlength=len(ids))
        return [int(counts[i]) for i in parents]

    def save(self, path):
        """Write every span (and the name table) as a numpy archive."""
        np.savez(path, names=np.array(self.names, dtype=str),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 failed=np.array(sorted(self.failed), dtype=np.int64))


@contextmanager
def installed(tracer: Tracer):
    """Wrap every site for the duration of the block, then restore it."""
    saved = []
    try:
        for module_name, attr, name in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
