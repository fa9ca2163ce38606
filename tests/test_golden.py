"""Golden residuals: a dozen pinned instances and their full reports.

The oracle tests compare each kernel with its slow route on the same input;
this file pins how `verify_channel` wires samples, weights and tolerances
together.  The instances cover every positive kind, `sp_ucp` negatives and
multi-block algebras.  Each is `build_channel(GenSpec(kind, dims, seed,
params))` under `verify_channel`'s default samples and the default
tolerance (MODMARK_TOL unset).  What is pinned:

- every verdict, exactly;
- every tolerance, to 1e-12 relative;
- every residual the fixture records above 1e-8, to 1e-9 relative (a flow
  key of `sp_ucp`, say);
- every other residual is roundoff, which varies with the BLAS build and
  moves with any change of summation order.  The fixture records a snapshot
  of it, the values of the run that last wrote the file, but holds it only
  to at or below 1e-8: those leaves are not expected to equal the file.

Rewriting the fixture is a declared change; it is written by

    PYTHONPATH=src python3 tests/test_golden.py --write
"""

import json
import os
import sys
from pathlib import Path

import pytest

from modmark.generators import GenSpec, build_channel
from modmark.verify import verify_channel

FIXTURE = Path(__file__).with_name("golden_residuals.json")
PINNED_ABOVE = 1e-8
RESIDUAL_RTOL = 1e-9
TOLERANCE_RTOL = 1e-12

# (kind, dims, seed, params)
INSTANCES = [
    ("identity", (3,), 1, {}),
    ("schur", (4,), 2, {}),
    ("pinch", (2, 2), 3, {}),
    ("block_expectation", (3, 1), 4, {}),
    ("block_expectation", (2, 2, 2), 5, {}),
    ("state_to_scalar", (2,), 6, {"target_dims": [3]}),
    ("automorphism", (4,), 7, {}),
    ("automorphism", (2, 2), 8, {}),
    ("twirl", (3,), 9, {}),
    ("convex", (3, 1), 10, {}),
    ("sp_ucp", (3,), 11, {}),
    ("sp_ucp", (2, 2), 12, {}),
]


def _instance_id(kind, dims, seed):
    return f"{kind}-{'x'.join(map(str, dims))}-{seed}"


def _report(kind, dims, seed, params):
    ch = build_channel(GenSpec(kind, dims, seed, dict(params))).channel
    return verify_channel(ch, kind=kind, seed=seed)


def _load():
    return {entry["id"]: entry for entry in json.loads(FIXTURE.read_text())}


@pytest.mark.parametrize("kind,dims,seed,params", INSTANCES,
                         ids=[_instance_id(*case[:3]) for case in INSTANCES])
def test_report_matches_the_golden_fixture(monkeypatch, kind, dims, seed, params):
    monkeypatch.delenv("MODMARK_TOL", raising=False)
    pinned = _load()[_instance_id(kind, dims, seed)]
    report = _report(kind, dims, seed, params)
    assert report.verdicts == pinned["verdicts"]
    assert report.tolerances.keys() == pinned["tolerances"].keys()
    for key, want in pinned["tolerances"].items():
        assert report.tolerances[key] == pytest.approx(want, rel=TOLERANCE_RTOL, abs=0.0), key
    assert report.residuals.keys() == pinned["residuals"].keys()
    for key, want in pinned["residuals"].items():
        got = report.residuals[key]
        if want > PINNED_ABOVE:
            assert got == pytest.approx(want, rel=RESIDUAL_RTOL, abs=0.0), key
        else:
            assert got <= PINNED_ABOVE, (key, got)


def test_fixture_covers_every_kind_and_a_negative():
    entries = _load().values()
    kinds = {entry["kind"] for entry in entries}
    assert kinds == {case[0] for case in INSTANCES}
    assert len(kinds) == 9
    assert sum(len(entry["dims"]) > 1 for entry in entries) >= 5
    assert any(not all(entry["verdicts"].values())
               for entry in entries if entry["kind"] == "sp_ucp")


def write_fixture():
    entries = []
    for kind, dims, seed, params in INSTANCES:
        report = _report(kind, dims, seed, params)
        entries.append({"id": _instance_id(kind, dims, seed), "kind": kind,
                        "dims": list(dims), "seed": seed, "params": params,
                        "verdicts": report.verdicts,
                        "tolerances": report.tolerances,
                        "residuals": report.residuals})
    FIXTURE.write_text(json.dumps(entries, sort_keys=True, indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden.py --write")
    os.environ.pop("MODMARK_TOL", None)
    write_fixture()
