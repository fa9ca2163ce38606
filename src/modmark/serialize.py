"""JSON formats for instances and verification reports.

Schemas (version "1"):

    complex  = [re, im]        (a bare number is accepted on read as re + 0j)
    matrix   = row-major nested lists of complex entries
    algebra  = {"blocks": [n1, ...]}
    element  = [matrix, ...]   (one square matrix per block)
    state    = {"density": element}
    endpoint = {"algebra": algebra, "state": state}
    channel  = {"source": endpoint, "target": endpoint, "superop": matrix}
               or the same with "kraus": [matrix, ...] instead of "superop"
    instance = {"version": "1", "channel": channel, "metadata": {...}}
               (metadata optional; its optional "flags" a list of strings)
    genspec  = {"kind": str, "dims": [...], "seed": int, "params": {...}}

Floats are written with Python's repr (shortest round trip), so files reload
bit-identically and identical runs produce byte-identical reports.  Parse
problems raise MalformedInstance; structurally valid files whose matrices do
not fit together raise ShapeMismatch.

Both directions run at C speed on matrices without changing a byte or a bit.
`dumps_canonical` writes exactly the text of `json.dumps(obj, sort_keys=True,
indent=2)`.  It formats each rectangular nested list of at least two levels
whose leaves are all finite exact floats one outer row at a time, through a
`%r` template built from the list's shape and indent depth (`%r` is the float
repr json writes).  Other lists, dicts with str keys, strings, ints, finite
floats, bools and None it lays out itself by json's rules, so that ints and
mixed int/float lists keep their text; anything else (NaN/inf, float or
container subclasses, tuples, empty containers, non-str keys) goes to `json`
whole.  `matrix_from_json` converts with one `np.asarray` to float64 and views
the (r, c, 2) result as complex128, after one C-level pass over the leaf types
(exact int or float only, so a bool among floats is still refused) and a
finiteness check on the whole array; only a matrix that fails them takes the
per-entry route, which names the error.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .algebra import AlgebraElement, BlockAlgebra, FaithfulState
from .errors import MalformedInstance, ModmarkError, ShapeMismatch
from .generators import GenSpec
from .markov import Channel, System, channel_from_kraus

if TYPE_CHECKING:
    from .verify import SuiteResult, VerificationReport

SCHEMA_VERSION = "1"


def _entry_from_json(obj) -> complex:
    try:
        if isinstance(obj, (int, float)) and not isinstance(obj, bool):
            return complex(float(obj), 0.0)
        if (isinstance(obj, (list, tuple)) and len(obj) == 2
                and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                        for v in obj)):
            return complex(float(obj[0]), float(obj[1]))
    except OverflowError as exc:
        raise MalformedInstance("complex entry does not fit in a float") from exc
    raise MalformedInstance(f"complex entry must be [re, im] or a number, got {obj!r}")


def matrix_to_json(m) -> list:
    """Row-major nested lists of [re, im] pairs of Python floats."""
    arr = np.asarray(m, dtype=np.complex128)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def _matrix_from_array(rows: list) -> np.ndarray | None:
    """The matrix of equally long `rows` through one float64 array, or None
    when an entry is not a pair or a bare number of exact type int or float,
    or is not finite (the per-entry route then names the problem)."""
    try:
        arr = np.asarray(rows, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return None
    if arr.ndim == 3 and arr.shape[2] == 2:
        pairs = list(chain.from_iterable(rows))
        if not set(map(type, pairs)) <= {list, tuple}:
            return None
        leaves = chain.from_iterable(pairs)
    elif arr.ndim == 2:
        leaves = chain.from_iterable(rows)
    else:
        return None
    if not set(map(type, leaves)) <= {int, float} or not np.isfinite(arr).all():
        return None
    if arr.ndim == 2:
        return arr.astype(np.complex128)
    return arr.view(np.complex128).reshape(arr.shape[:2])


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise MalformedInstance("matrix must be a nonempty list of rows")
    width = len(obj[0])
    if width < 1 or any(len(r) != width for r in obj):
        raise MalformedInstance("matrix rows must be nonempty and equally long")
    fast = _matrix_from_array(obj)
    if fast is not None:
        return fast
    out = np.empty((len(obj), width), dtype=np.complex128)
    for i, row in enumerate(obj):
        for j, entry in enumerate(row):
            out[i, j] = _entry_from_json(entry)
    if not (np.all(np.isfinite(out.real)) and np.all(np.isfinite(out.imag))):
        raise MalformedInstance("matrix entries must be finite")
    return out


def algebra_to_json(alg: BlockAlgebra) -> dict:
    return {"blocks": list(alg.block_dims)}


def algebra_from_json(obj) -> BlockAlgebra:
    try:
        blocks = obj["blocks"]
    except (TypeError, KeyError) as exc:
        raise MalformedInstance("algebra must be {'blocks': [...]}") from exc
    if (not isinstance(blocks, list) or not blocks
            or not all(isinstance(n, int) and not isinstance(n, bool) and n >= 1
                       for n in blocks)):
        raise MalformedInstance(f"algebra blocks must be positive integers, got {blocks!r}")
    return BlockAlgebra(tuple(blocks))


def element_to_json(x: AlgebraElement) -> list:
    return [matrix_to_json(b) for b in x.blocks]


def element_from_json(alg: BlockAlgebra, obj) -> AlgebraElement:
    if not isinstance(obj, list):
        raise MalformedInstance("element must be a list of matrices")
    return AlgebraElement(alg, [matrix_from_json(m) for m in obj])


def state_to_json(s: FaithfulState) -> dict:
    return {"density": element_to_json(s.density)}


def state_from_json(alg: BlockAlgebra, obj) -> FaithfulState:
    try:
        density = obj["density"]
    except (TypeError, KeyError) as exc:
        raise MalformedInstance("state must be {'density': element}") from exc
    element = element_from_json(alg, density)
    try:
        return FaithfulState(element)
    except ShapeMismatch:
        raise
    except (ModmarkError, ValueError) as exc:
        raise MalformedInstance(f"density is not a faithful state: {exc}") from exc


def system_to_json(sys: System) -> dict:
    return {"algebra": algebra_to_json(sys.algebra), "state": state_to_json(sys.state)}


def system_from_json(obj) -> System:
    if not isinstance(obj, dict):
        raise MalformedInstance("endpoint must be {'algebra': ..., 'state': ...}")
    alg = algebra_from_json(obj.get("algebra"))
    return System(state_from_json(alg, obj.get("state")))


def channel_to_json(ch: Channel) -> dict:
    return {
        "source": system_to_json(ch.source),
        "target": system_to_json(ch.target),
        "superop": matrix_to_json(ch.superop),
    }


def channel_from_json(obj) -> Channel:
    if not isinstance(obj, dict):
        raise MalformedInstance("channel must be an object")
    source = system_from_json(obj.get("source"))
    target = system_from_json(obj.get("target"))
    if "superop" in obj:
        return Channel(source, target, matrix_from_json(obj["superop"]))
    if "kraus" in obj:
        ops = obj["kraus"]
        if not isinstance(ops, list) or not ops:
            raise MalformedInstance("kraus must be a nonempty list of matrices")
        return channel_from_kraus([matrix_from_json(k) for k in ops], source, target)
    raise MalformedInstance("channel needs either 'superop' or 'kraus'")


def genspec_to_json(spec: GenSpec) -> dict:
    return {"kind": spec.kind, "dims": list(spec.dims), "seed": spec.seed,
            "params": dict(spec.params)}


def genspec_from_json(obj) -> GenSpec:
    try:
        return GenSpec(kind=obj["kind"], dims=tuple(obj["dims"]),
                       seed=int(obj.get("seed", 0)),
                       params=dict(obj.get("params", {})))
    except (TypeError, KeyError, ValueError) as exc:
        raise MalformedInstance(f"bad genspec: {exc}") from exc


def instance_to_json(ch: Channel, metadata: dict | None = None) -> dict:
    doc = {"version": SCHEMA_VERSION, "channel": channel_to_json(ch)}
    if metadata:
        doc["metadata"] = metadata
    return doc


def instance_from_json(obj) -> tuple[Channel, dict]:
    if not isinstance(obj, dict):
        raise MalformedInstance("instance must be an object")
    if obj.get("version") != SCHEMA_VERSION:
        raise MalformedInstance(
            f"unsupported instance version {obj.get('version')!r}")
    if "channel" not in obj:
        raise MalformedInstance("instance needs a 'channel'")
    metadata = obj.get("metadata", {})
    if not isinstance(metadata, dict):
        raise MalformedInstance(f"metadata must be an object, got {type(metadata).__name__}")
    flags = metadata.get("flags", [])
    if not (isinstance(flags, list) and all(isinstance(f, str) for f in flags)):
        raise MalformedInstance(f"metadata flags must be a list of strings, got {flags!r}")
    return channel_from_json(obj["channel"]), dict(metadata)


def _float_array_shape(obj: list) -> tuple[tuple[int, ...], list] | None:
    """Shape and row-major leaves of a rectangular nested list of at least
    two levels whose leaves are all finite exact floats, else None."""
    shape = [len(obj)]
    level = obj
    while True:
        kinds = set(map(type, level))
        if kinds == {float}:
            break
        if kinds != {list}:
            return None
        widths = set(map(len, level))
        if len(widths) != 1 or 0 in widths:
            return None
        shape.append(widths.pop())
        level = list(chain.from_iterable(level))
    if len(shape) < 2 or not all(map(math.isfinite, level)):
        return None
    return tuple(shape), level


def _nested_template(shape: tuple[int, ...], depth: int) -> str:
    """Indented json layout of a nested list of this shape with `%r` leaves,
    its opening bracket at indent level `depth`."""
    if not shape:
        return "%r"
    inner = "\n" + "  " * (depth + 1)
    item = _nested_template(shape[1:], depth + 1)
    return "[" + inner + ("," + inner).join([item] * shape[0]) + "\n" + "  " * depth + "]"


_LITERALS = {None: "null", True: "true", False: "false"}


def _encode(obj, depth: int, out: list) -> None:
    """Append the `json.dumps(obj, sort_keys=True, indent=2)` text of `obj`,
    nested at indent level `depth`, to `out`.  Float arrays take the template
    route; other lists, dicts with str keys, strings, ints, finite floats,
    bools and None are laid out here; everything else is handed to `json`."""
    kind = type(obj)
    if kind is str:
        out.append(encode_basestring_ascii(obj))
        return
    if kind is int or (kind is float and math.isfinite(obj)):
        out.append(repr(obj))
        return
    if kind is bool or obj is None:
        out.append(_LITERALS[obj])
        return
    inner = "\n" + "  " * (depth + 1)
    close = "\n" + "  " * depth
    if kind is list and obj:
        array = _float_array_shape(obj)
        if array is not None:
            shape, leaves = array
            row = _nested_template(shape[1:], depth + 1)
            size = len(leaves) // shape[0]
            out.append("[")
            for i in range(shape[0]):
                out.append(("," if i else "") + inner
                           + row % tuple(leaves[i * size:(i + 1) * size]))
            out.append(close + "]")
            return
        out.append("[")
        for i, item in enumerate(obj):
            out.append(("," if i else "") + inner)
            _encode(item, depth + 1, out)
        out.append(close + "]")
        return
    if kind is dict and obj and all(type(k) is str for k in obj):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            out.append(("," if i else "") + inner + encode_basestring_ascii(key) + ": ")
            _encode(obj[key], depth + 1, out)
        out.append(close + "}")
        return
    out.append(json.dumps(obj, sort_keys=True, indent=2).replace("\n", close))


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, repr floats, trailing newline.

    Byte for byte `json.dumps(obj, sort_keys=True, indent=2) + "\\n"`."""
    out: list = []
    _encode(obj, 0, out)
    out.append("\n")
    return "".join(out)


def write_instance(path, ch: Channel, metadata: dict | None = None) -> None:
    Path(path).write_text(dumps_canonical(instance_to_json(ch, metadata)))


def read_instance(path) -> tuple[Channel, dict]:
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # JSONDecodeError, bad UTF-8, >4300-digit ints
        raise MalformedInstance(f"cannot read instance file: {exc}") from exc
    return instance_from_json(obj)


def report_to_json(report: VerificationReport) -> dict:
    """Report document; timing is intentionally left out so identical runs
    serialize byte-identically."""
    instance: dict = {
        "id": report.instance_id,
        "kind": report.kind,
        "seed": report.seed,
        "dims": list(report.dims),
        "flags": list(report.flags),
    }
    if report.genspec is not None:
        instance["genspec"] = report.genspec
    return {
        "instance": instance,
        "residuals": dict(sorted(report.residuals.items())),
        "tolerances": dict(sorted(report.tolerances.items())),
        "verdicts": dict(sorted(report.verdicts.items())),
        "expected_failures": list(report.expected_failures),
        "unexpected_failures": list(report.unexpected_failures),
    }


def suite_result_to_json(result: SuiteResult) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "suite_summary": result.summary,
        "reports": [report_to_json(r) for r in result.reports],
    }


__all__ = [
    "SCHEMA_VERSION",
    "matrix_to_json",
    "matrix_from_json",
    "algebra_to_json",
    "algebra_from_json",
    "element_to_json",
    "element_from_json",
    "state_to_json",
    "state_from_json",
    "system_to_json",
    "system_from_json",
    "channel_to_json",
    "channel_from_json",
    "genspec_to_json",
    "genspec_from_json",
    "instance_to_json",
    "instance_from_json",
    "dumps_canonical",
    "write_instance",
    "read_instance",
    "report_to_json",
    "suite_result_to_json",
]
