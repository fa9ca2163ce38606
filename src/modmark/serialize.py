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
    genspec  = {"kind": str, "dims": [...], "seed": int, "params": {...}}

Floats are written with Python's repr (shortest round trip), so files reload
bit-identically and identical runs produce byte-identical reports.  Parse
problems raise MalformedInstance; structurally valid files whose matrices do
not fit together raise ShapeMismatch.
"""

from __future__ import annotations

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

SCHEMA_VERSION = "1"


def _entry_from_json(obj) -> complex:
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return complex(float(obj), 0.0)
    if (isinstance(obj, (list, tuple)) and len(obj) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj)):
        return complex(float(obj[0]), float(obj[1]))
    raise MalformedInstance(f"complex entry must be [re, im] or a number, got {obj!r}")


def matrix_to_json(m) -> list:
    """Row-major nested lists of [re, im] pairs of Python floats."""
    arr = np.asarray(m, dtype=np.complex128)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def matrix_from_json(obj) -> np.ndarray:
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
    return channel_from_json(obj["channel"]), dict(obj.get("metadata", {}))


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, repr floats, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_instance(path, ch: Channel, metadata: dict | None = None) -> None:
    Path(path).write_text(dumps_canonical(instance_to_json(ch, metadata)))


def read_instance(path) -> tuple[Channel, dict]:
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
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
