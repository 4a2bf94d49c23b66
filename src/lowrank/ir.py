"""Framework-neutral model description and weight containers.

A model is a directed acyclic graph of layer descriptions plus a flat
``name -> array`` weight store.  The two halves serialize separately:
the graph goes to JSON so it stays inspectable with a text editor, the
weights go to a compact binary container (see :class:`WeightStore`).

Conventions used throughout the package:

* convolution weights are stored as ``(K1, ..., Kd, C, F)`` with the
  spatial axes first, then input channels, then output channels;
* dense (fc) weights are ``(M, N)`` and act as ``y = x @ W``;
* activations and feature maps are channels-last, ``(batch, X1, ..,
  Xd, C)`` for convolutions and ``(batch, M)`` for dense layers;
* ``same`` padding produces ``ceil(X / stride)`` outputs per spatial
  axis, ``valid`` produces ``floor((X - K) / stride) + 1``.
"""

from __future__ import annotations

import io
import json
import math
import struct
from dataclasses import dataclass, field, fields
from itertools import repeat

import numpy as np

from .errors import FormatError, GraphError, ShapeError

CONV_KINDS = ("conv1d", "conv2d", "conv3d")
WINDOW_KINDS = CONV_KINDS + ("depthwise_conv", "pool")
ACTIVATIONS = ("relu", "tanh", "sigmoid", "softmax")
POOL_MODES = ("max", "avg")

LRFW_MAGIC = b"LRFW"
LRFW_VERSION = 1

# Reserved record names when a WeightStore carries a labeled dataset.
DATASET_INPUTS = "inputs"
DATASET_LABELS = "labels"


def conv_out_length(x: int, k: int, stride: int, padding: str) -> int:
    """Output extent of one spatial axis for a conv or pool window;
    ShapeError for an input extent ``x`` that is not an integer (a bool
    is not) or is below 1 (below ``k`` if valid)."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ShapeError(f"input extent {x!r} is not an integer")
    if padding == "same":
        if x < 1:
            raise ShapeError(f"input extent {x} below 1")
        return -(-x // stride)  # ceil(x / stride)
    if padding == "valid":
        if x < k:
            raise ShapeError(f"window {k} larger than input extent {x}")
        return (x - k) // stride + 1
    raise ShapeError(f"unknown padding {padding!r}")


# LayerDesc fields that count something, so every entry is at least 1.
_EXTENT_FIELDS = ("kernel", "stride", "in_channels", "out_channels", "m",
                  "n", "rank_in", "rank_out")

# The JSON type of each LayerDesc field; a tuple names a list's items.
_JSON_FIELD_TYPES = {
    "name": str, "kind": str, "kernel": (int,), "stride": (int,),
    "padding": str, "in_channels": int, "out_channels": int, "groups": int,
    "fn": str, "mode": str, "shape": (int,), "eps": float, "m": int,
    "n": int, "rank_in": int, "rank_out": int, "post_ops": (str,),
}


def _json_is(value, want) -> bool:
    if isinstance(want, tuple):
        return isinstance(value, list) and all(_json_is(v, want[0])
                                               for v in value)
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if want is float else want)


@dataclass
class LayerDesc:
    """Description of a single layer, independent of its weights.

    Only the fields relevant to ``kind`` are set; the rest stay None.
    ``post_ops`` names the layers (activation, pooling, normalization)
    whose output represents this layer for feature-map comparison.
    """

    name: str
    kind: str
    kernel: tuple | None = None
    stride: tuple | None = None
    padding: str | None = None
    in_channels: int | None = None
    out_channels: int | None = None
    groups: int | None = None
    fn: str | None = None
    mode: str | None = None
    shape: tuple | None = None
    eps: float | None = None
    m: int | None = None
    n: int | None = None
    rank_in: int | None = None
    rank_out: int | None = None
    post_ops: tuple = ()

    def __post_init__(self):
        for name in ("kernel", "stride", "shape", "post_ops"):
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, tuple(value))
        self._check()

    # -- validation ---------------------------------------------------

    def _check(self):
        k = self.kind
        if k in CONV_KINDS:
            dim = CONV_KINDS.index(k) + 1
            self._need("kernel", "in_channels", "out_channels")
            if len(self.kernel) != dim:
                raise ShapeError(f"{self.name}: {k} needs a {dim}-d kernel")
            if self.stride is None:
                self.stride = (1,) * dim
            if self.padding is None:
                self.padding = "same"
            if self.groups is None:
                self.groups = 1
            if self.groups < 1:
                raise ShapeError(f"{self.name}: groups {self.groups} below 1")
            if self.in_channels % self.groups or self.out_channels % self.groups:
                raise ShapeError(f"{self.name}: channels not divisible by groups")
        elif k == "depthwise_conv":
            self._need("kernel", "in_channels")
            dim = len(self.kernel)
            if self.out_channels is None:
                self.out_channels = self.in_channels
            if self.out_channels != self.in_channels:
                raise ShapeError(f"{self.name}: depthwise must preserve channels")
            if self.stride is None:
                self.stride = (1,) * dim
            if self.padding is None:
                self.padding = "same"
        elif k == "fc":
            self._need("in_channels", "out_channels")
        elif k == "activation":
            self._need("fn")
            if self.fn not in ACTIVATIONS:
                raise ShapeError(f"{self.name}: unknown activation {self.fn!r}")
        elif k == "pool":
            self._need("kernel", "mode")
            if self.mode not in POOL_MODES:
                raise ShapeError(f"{self.name}: unknown pool mode {self.mode!r}")
            if self.stride is None:
                self.stride = self.kernel
            if self.padding is None:
                self.padding = "valid"
        elif k == "batchnorm":
            if self.eps is None:
                self.eps = 1e-5
        elif k == "reshape":
            self._need("shape")
        elif k in ("flatten", "add", "concat"):
            pass
        elif k == "tt_core":
            self._need("m", "n", "rank_in", "rank_out")
        else:
            raise ShapeError(f"{self.name}: unknown layer kind {k!r}")
        if k in WINDOW_KINDS and len(self.stride) != len(self.kernel):
            raise ShapeError(f"{self.name}: stride rank != kernel rank")
        for name in _EXTENT_FIELDS:
            value = getattr(self, name)
            entries = value if isinstance(value, tuple) else (value,)
            if any(v is not None and v < 1 for v in entries):
                raise ShapeError(f"{self.name}: {name} {value} below 1")

    def _need(self, *names):
        for name in names:
            if getattr(self, name) is None:
                raise ShapeError(f"{self.name}: kind {self.kind!r} requires {name}")

    # -- weights ------------------------------------------------------

    def weight_keys(self) -> tuple:
        """Names of the weight-store records this layer owns."""
        if self.kind == "batchnorm":
            return tuple(f"{self.name}/{p}" for p in ("scale", "shift", "mean", "var"))
        return () if self.weight_shape() is None else (self.name,)

    def weight_shape(self) -> tuple | None:
        """Expected shape of the layer's main weight array, if any."""
        if self.kind in CONV_KINDS:
            return self.kernel + (self.in_channels // self.groups, self.out_channels)
        if self.kind == "depthwise_conv":
            return self.kernel + (self.in_channels,)
        if self.kind == "fc":
            return (self.in_channels, self.out_channels)
        if self.kind == "tt_core":
            return (self.rank_in, self.m, self.n, self.rank_out)
        return None

    # -- shape inference ----------------------------------------------

    def out_shape(self, in_shapes: list) -> tuple:
        """Per-sample output shape given per-sample predecessor shapes.

        The one input check (extents via ``conv_out_length``, whose
        errors get the layer name in front, as every other error here)
        and output extents of a layer: the engine, costs, explore and CLI
        use it.
        """
        k = self.kind
        if k in ("add", "concat"):
            if len(in_shapes) < 2:
                raise GraphError(f"{self.name}: {k} needs at least 2 inputs")
        elif len(in_shapes) != 1:
            raise GraphError(f"{self.name}: expected exactly 1 input")
        x = in_shapes[0]

        if k in WINDOW_KINDS:
            pool = k == "pool"
            if len(x) != len(self.kernel) + 1 or (
                    not pool and x[-1] != self.in_channels):
                raise ShapeError(f"{self.name}: input {x} does not match layer")
            try:
                spatial = tuple(map(conv_out_length, x, self.kernel,
                                    self.stride, repeat(self.padding)))
            except ShapeError as err:
                raise ShapeError(f"{self.name}: {err}") from None
            return spatial + (x[-1] if pool else self.out_channels,)
        if k == "fc":
            if len(x) != 1 or x[0] != self.in_channels:
                raise ShapeError(f"{self.name}: input {x} does not match layer")
            return (self.out_channels,)
        if k in ("activation", "batchnorm"):
            return x
        if k == "reshape":
            if math.prod(x) != math.prod(self.shape):
                raise ShapeError(f"{self.name}: cannot reshape {x} to {self.shape}")
            return self.shape
        if k == "flatten":
            return (math.prod(x),)
        if k == "tt_core":
            if len(x) != 2 or x[1] != self.rank_in or x[0] % self.m:
                raise ShapeError(f"{self.name}: input {x} does not match core")
            return (x[0] // self.m * self.n, self.rank_out)
        if k == "add":
            if any(s != x for s in in_shapes):
                raise ShapeError(f"{self.name}: add inputs differ: {in_shapes}")
            return x
        if k == "concat":
            if any(s[:-1] != x[:-1] for s in in_shapes):
                raise ShapeError(f"{self.name}: concat inputs differ: {in_shapes}")
            return x[:-1] + (sum(s[-1] for s in in_shapes),)
        raise ShapeError(f"{self.name}: unknown layer kind {k!r}")

    # -- serialization ------------------------------------------------

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None or (f.name == "post_ops" and not value):
                continue
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "LayerDesc":
        """A layer from its parsed JSON object, whose field types are
        checked first (null means unset)."""
        if not isinstance(data, dict):
            raise FormatError(f"layer entry {data!r} is not an object")
        unknown = set(data) - set(_JSON_FIELD_TYPES)
        if unknown:
            raise FormatError(f"unknown layer fields: {sorted(unknown)}")
        for key, value in data.items():
            if value is not None and not _json_is(value, _JSON_FIELD_TYPES[key]):
                raise FormatError(
                    f"layer {data.get('name')!r}: bad {key} {value!r}")
        return cls(**data)


@dataclass
class ModelDesc:
    """A DAG of layers with a designated input and output layer.

    The ``layers`` list must be topologically ordered: every edge goes
    from an earlier layer to a later one.  That order doubles as the
    deterministic execution order of the forward pass.
    """

    layers: list
    edges: list
    input: str
    output: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.edges = [tuple(e) for e in self.edges]
        self.validate()

    def validate(self):
        names = [l.name for l in self.layers]
        if len(set(names)) != len(names):
            raise GraphError("duplicate layer names")
        index = {name: i for i, name in enumerate(names)}
        for name in (self.input, self.output):
            if name not in index:
                raise GraphError(f"model references missing layer {name!r}")
        for src, dst in self.edges:
            if src not in index or dst not in index:
                raise GraphError(f"edge ({src!r}, {dst!r}) references missing layer")
            if index[src] >= index[dst]:
                raise GraphError(
                    f"edge ({src!r}, {dst!r}) violates topological layer order")
        preds = {name: 0 for name in names}
        for _, dst in self.edges:
            preds[dst] += 1
        if preds[self.input]:
            raise GraphError("input layer must not have predecessors")
        for name, count in preds.items():
            if name != self.input and count == 0:
                raise GraphError(f"layer {name!r} is unreachable")
        for layer in self.layers:
            for op in layer.post_ops:
                if op not in index:
                    raise GraphError(
                        f"{layer.name}: post_op {op!r} is not a model layer")

    # -- graph queries ------------------------------------------------

    def layer(self, name: str) -> LayerDesc:
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise GraphError(f"no layer named {name!r}")

    def predecessors(self, name: str) -> list:
        return [src for src, dst in self.edges if dst == name]

    def successors(self, name: str) -> list:
        return [dst for src, dst in self.edges if src == name]

    def infer_shapes(self, input_shape: tuple) -> dict:
        """Per-sample output shape of every layer, keyed by name."""
        shapes = {}
        for layer in self.layers:
            if layer.name == self.input:
                ins = [tuple(input_shape)]
            else:
                ins = [shapes[p] for p in self.predecessors(layer.name)]
            shapes[layer.name] = layer.out_shape(ins)
        return shapes

    def input_shapes(self, input_shape: tuple) -> dict:
        """Per-sample shape entering every layer, keyed by name: the
        model input for the entry layer, else its first predecessor's
        output."""
        shapes = self.infer_shapes(input_shape)
        return {l.name: (tuple(input_shape) if l.name == self.input
                         else shapes[self.predecessors(l.name)[0]])
                for l in self.layers}

    # -- serialization ------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "layers": [l.to_dict() for l in self.layers],
            "edges": [list(e) for e in self.edges],
            "input": self.input,
            "output": self.output,
        }
        if self.metadata:
            doc["metadata"] = self.metadata
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ModelDesc":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid model JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise FormatError("model JSON is not an object")
        for key in ("layers", "edges", "input", "output"):
            if key not in doc:
                raise FormatError(f"model JSON missing {key!r}")
        for key in ("layers", "edges"):
            if not isinstance(doc[key], list):
                raise FormatError(f"model JSON {key!r} is not a list")
        for key in ("input", "output"):
            if not isinstance(doc[key], str):
                raise FormatError(f"model JSON {key!r} is not a layer name")
        if not isinstance(doc.get("metadata", {}), dict):
            raise FormatError("model JSON 'metadata' is not an object")
        for edge in doc["edges"]:
            if not (isinstance(edge, list) and len(edge) == 2
                    and all(isinstance(end, str) for end in edge)):
                raise FormatError(f"edge {edge!r} is not a pair of layer names")
        layers = [LayerDesc.from_dict(d) for d in doc["layers"]]
        return cls(layers=layers, edges=doc["edges"], input=doc["input"],
                   output=doc["output"], metadata=doc.get("metadata", {}))

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "ModelDesc":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


class WeightStore:
    """Immutable name -> float32 array mapping with a binary container.

    Container layout (little-endian): the magic bytes ``LRFW``, a u32
    format version, then one record per array until end of file.  Each
    record is ``u32 name_len, name bytes (utf-8), u32 ndim, u64 dims
    [ndim], float32 payload (row-major)``.  Records are written sorted
    by name so identical stores serialize to identical bytes.
    """

    def __init__(self, arrays: dict):
        store = {}
        for name, arr in arrays.items():
            a = np.ascontiguousarray(arr, dtype=np.float32)
            a.flags.writeable = False
            store[str(name)] = a
        self._arrays = store

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._arrays[name]
        except KeyError:
            raise KeyError(f"no weight record named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def __len__(self) -> int:
        return len(self._arrays)

    def names(self) -> list:
        return sorted(self._arrays)

    def items(self):
        return ((name, self._arrays[name]) for name in self.names())

    def replace(self, updates: dict, drop=()) -> "WeightStore":
        """A new store with ``updates`` merged in and ``drop`` removed."""
        drop = set(drop)
        merged = {k: v for k, v in self._arrays.items() if k not in drop}
        merged.update(updates)
        return WeightStore(merged)

    def to_bytes(self) -> bytes:
        buf = io.BytesIO()
        buf.write(LRFW_MAGIC)
        buf.write(struct.pack("<I", LRFW_VERSION))
        for name, arr in self.items():
            raw = name.encode("utf-8")
            buf.write(struct.pack("<I", len(raw)))
            buf.write(raw)
            buf.write(struct.pack("<I", arr.ndim))
            buf.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            buf.write(arr.astype("<f4").tobytes(order="C"))
        return buf.getvalue()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "WeightStore":
        buf = io.BytesIO(blob)

        def read(size: int, what: str) -> bytes:
            data = buf.read(size)
            if len(data) < size:
                raise FormatError(f"truncated weight container: {what}")
            return data

        if buf.read(4) != LRFW_MAGIC:
            raise FormatError("not a weight container (bad magic)")
        (version,) = struct.unpack("<I", read(4, "version"))
        if version != LRFW_VERSION:
            raise FormatError(f"unsupported container version {version}")
        arrays = {}
        while buf.tell() < len(blob):
            (name_len,) = struct.unpack("<I", read(4, "record header"))
            try:
                name = read(name_len, "record name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"record name is not UTF-8: {exc}") from None
            (ndim,) = struct.unpack("<I", read(4, f"ndim of {name!r}"))
            dims = struct.unpack(f"<{ndim}Q", read(8 * ndim, f"dims of {name!r}"))
            payload = read(4 * math.prod(dims), f"payload of {name!r}")
            arrays[name] = np.frombuffer(payload, dtype="<f4").reshape(dims)
        return cls(arrays)

    def save(self, path):
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path) -> "WeightStore":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


def check_weights(model: ModelDesc, weights: WeightStore):
    """Verify that every layer's weight records exist with the right shape.

    A batchnorm's four records must be 1-D and of one length; that the
    length is the input's channel count is checked where the input is
    known, by the forward engine.
    """
    for layer in model.layers:
        for key in layer.weight_keys():
            if key not in weights:
                raise FormatError(f"missing weight record {key!r}")
        if layer.kind == "batchnorm":
            shapes = [weights[key].shape for key in layer.weight_keys()]
            if len(set(shapes)) != 1 or len(shapes[0]) != 1:
                raise ShapeError(f"{layer.name}: batchnorm records {shapes} "
                                 "are not 1-D of one length")
        expect = layer.weight_shape()
        if expect is not None and tuple(weights[layer.name].shape) != expect:
            raise ShapeError(
                f"{layer.name}: weight shape {weights[layer.name].shape} "
                f"!= expected {expect}")
