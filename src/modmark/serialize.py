"""JSON formats for instances and verification reports.

Instance schema (version "2"; version "1" is still read):

    complex  = [re, im]        (a bare number is accepted on read as re + 0j)
    matrix   = {"dtype": "<c16", "shape": [r, c], "data": base64}
               (version "2": the row-major little-endian complex128 bytes);
               or, as read from version "1" files and hand-written Kraus
               operators, row-major nested lists of complex entries
    algebra  = {"blocks": [n1, ...]}
    element  = [matrix, ...]   (one square matrix per block)
    state    = {"density": element}
    endpoint = {"algebra": algebra, "state": state}
    channel  = {"source": endpoint, "target": endpoint, "superop": matrix}
               or the same with "kraus": [matrix, ...] instead of "superop"
    instance = {"version": "2", "channel": channel, "metadata": {...}}
               (metadata optional; its optional "flags" a list of strings)
    genspec  = {"kind": str, "dims": [...], "seed": int, "params": {...}}

Suite and report documents hold no matrices and stay version "1".  Every
document is written as `json.dumps(doc, sort_keys=True, indent=2)` plus a
newline, so identical runs produce byte-identical files and reports.
`dumps_canonical` keeps that text byte for byte without running the json
module's character-by-character escaper over the base64 payloads, which
never need escaping: it dumps the document with each long string of that
kind replaced by a placeholder, and splices the strings back in.  Binary
matrices reload bit-identically; nested-list matrices do too, because Python
writes floats with repr (shortest round trip).

`matrix_from_json` picks the decoder by the matrix's JSON type.  A binary
object decodes to a writeable C-contiguous complex128 copy once its dtype,
shape, strict base64, byte length and finiteness are checked.  A nested list
converts entry by entry (exact int or float only, so a bool is refused), and
the first bad entry is named in the error.  Parse problems raise
MalformedInstance; structurally valid files whose matrices do not fit
together raise ShapeMismatch.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .algebra import AlgebraElement, BlockAlgebra, FaithfulState
from .errors import MalformedInstance, ModmarkError, ShapeMismatch
from .generators import GenSpec
from .markov import Channel, System, channel_from_kraus

if TYPE_CHECKING:
    from .verify import SuiteResult, VerificationReport

INSTANCE_VERSION = "2"
SUITE_VERSION = "1"
MATRIX_DTYPE = "<c16"


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


def matrix_to_binary(m) -> dict:
    """Version "2" matrix: its row-major little-endian complex128 bytes in base64."""
    arr = np.ascontiguousarray(m, dtype=MATRIX_DTYPE)
    return {"dtype": MATRIX_DTYPE, "shape": list(arr.shape),
            "data": base64.b64encode(arr.tobytes()).decode("ascii")}


def _matrix_from_binary(obj: dict) -> np.ndarray:
    if obj.get("dtype") != MATRIX_DTYPE:
        raise MalformedInstance(
            f"matrix dtype must be {MATRIX_DTYPE!r}, got {obj.get('dtype')!r}")
    shape = obj.get("shape")
    if not (isinstance(shape, list) and len(shape) == 2
            and all(type(n) is int and n >= 1 for n in shape)):
        raise MalformedInstance(f"matrix shape must be two positive integers, got {shape!r}")
    data = obj.get("data")
    if not isinstance(data, str):
        raise MalformedInstance("matrix data must be a base64 string")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError as exc:  # binascii.Error, or non-ASCII text
        raise MalformedInstance(f"matrix data is not base64: {exc}") from exc
    rows, cols = shape
    if len(raw) != rows * cols * 16:
        raise MalformedInstance(
            f"matrix data holds {len(raw)} bytes, shape {shape} needs {rows * cols * 16}")
    out = np.frombuffer(raw, dtype=MATRIX_DTYPE).reshape(rows, cols).astype(np.complex128)
    if not np.isfinite(out).all():
        raise MalformedInstance("matrix entries must be finite")
    return out


def matrix_from_json(obj) -> np.ndarray:
    """A matrix of either version: an object is binary, a list nested rows."""
    if isinstance(obj, dict):
        return _matrix_from_binary(obj)
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise MalformedInstance("matrix must be a nonempty list of rows")
    width = len(obj[0])
    if width < 1 or any(len(r) != width for r in obj):
        raise MalformedInstance("matrix rows must be nonempty and equally long")
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
    return [matrix_to_binary(b) for b in x.blocks]


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
        "superop": matrix_to_binary(ch.superop),
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
    doc = {"version": INSTANCE_VERSION, "channel": channel_to_json(ch)}
    if metadata:
        doc["metadata"] = metadata
    return doc


def instance_from_json(obj) -> tuple[Channel, dict]:
    if not isinstance(obj, dict):
        raise MalformedInstance("instance must be an object")
    if obj.get("version") not in ("1", INSTANCE_VERSION):
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


# A string at least this long that JSON writes unescaped is spliced into the
# text, not passed through the json module's escaper.
_SPLICE_MIN = 256
_PLACEHOLDER = "\x00"
_PLACEHOLDER_TEXT = json.dumps(_PLACEHOLDER)


def _needs_no_escape(text: str) -> bool:
    """Whether JSON writes `text` as it is between its quotes: ASCII, no `"`
    or `\\`, and no character below 0x20 or equal to 0x7f."""
    if not text.isascii() or '"' in text or "\\" in text:
        return False
    codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    return bool(codes.min() >= 0x20 and codes.max() < 0x7F)


def _skeleton(obj, payloads: list):
    """`obj` with each long string that needs no escaping replaced by the
    placeholder, those strings appended to `payloads` in the order
    `json.dumps(sort_keys=True)` writes them.  A module-level function that
    takes the list: a recursive nested closure would be a reference cycle
    that keeps every payload alive until the cyclic GC runs."""
    if isinstance(obj, str):
        if len(obj) >= _SPLICE_MIN and _needs_no_escape(obj):
            payloads.append(obj)
            return _PLACEHOLDER
        return obj
    if isinstance(obj, dict):
        return {k: _skeleton(v, payloads) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_skeleton(v, payloads) for v in obj]
    return obj


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: byte for byte
    `json.dumps(obj, sort_keys=True, indent=2)` plus a newline (sorted keys,
    repr floats, ASCII escapes).

    The json module's escaper scans a string character by character, and an
    instance's base64 payloads (1.4 MB at n = 16) never need escaping.  So
    the document is dumped with each such long string replaced by a
    placeholder, and the payloads are spliced back between their quotes.
    A document the walk cannot sort, or whose text holds the placeholder
    anywhere else (a short "\\x00" value or key), is dumped plainly, and so
    raises what `json.dumps` raises."""
    payloads: list = []
    try:
        skeleton = _skeleton(obj, payloads)
    except (TypeError, RecursionError):  # keys that do not sort, a cycle
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    parts = json.dumps(skeleton, sort_keys=True, indent=2).split(_PLACEHOLDER_TEXT)
    if len(parts) != len(payloads) + 1:
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    out = [parts[0]]
    for payload, part in zip(payloads, parts[1:]):
        out += ('"', payload, '"', part)
    out.append("\n")
    return "".join(out)


def write_instance(path, ch: Channel, metadata: dict | None = None) -> None:
    Path(path).write_text(dumps_canonical(instance_to_json(ch, metadata)))


def read_document(path):
    """The parsed JSON of an instance file, not yet checked as an instance."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # JSONDecodeError, bad UTF-8, >4300-digit ints
        raise MalformedInstance(f"cannot read instance file: {exc}") from exc


def read_instance(path) -> tuple[Channel, dict]:
    return instance_from_json(read_document(path))


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
        "version": SUITE_VERSION,
        "suite_summary": result.summary,
        "reports": [report_to_json(r) for r in result.reports],
    }


__all__ = [
    "INSTANCE_VERSION",
    "SUITE_VERSION",
    "MATRIX_DTYPE",
    "matrix_to_binary",
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
    "read_document",
    "read_instance",
    "report_to_json",
    "suite_result_to_json",
]
