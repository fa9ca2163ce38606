"""One benchmark instance: build, optional JSON round trip, verify, check.

`run_instance` calls only public modmark functions, from outside, and adds
the time of each call to a `Spans` accumulator.  Untraced, that is the coarse
split: generators, serialize, verify.  Traced, it also sets up the endpoint
modular data on its own first and, after `verify_channel` has produced the
checked report, calls again the public pieces `verify_channel` is made of,
one per layer metric, so that their times split `verify_channel`'s.

Import this module only once `src` is on `sys.path`: it imports modmark.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

from modmark import markov, verify
from modmark.generators import GenSpec, build_channel
from modmark.serialize import (
    dumps_canonical,
    genspec_to_json,
    instance_from_json,
    instance_to_json,
    report_to_json,
)

from workloads import Slot, derive

MIN_GAP = 0.05
# verify_channel's sample grids, fixed here so that the inputs do not move
# with the library's defaults
T_SAMPLES = (1.0, -1.0, 0.37, -0.37, 5.0, -5.0)
S_VALUES = (1.0, -1.0, 0.5, -0.5)
Z_COUNT = 16

# Layer metrics whose calls together make up verify_channel: verify.other_ms
# is verify_channel's time minus theirs.  markov.l2_ms is not among them
# because each verify.* wrapper builds the L2 matrix again by itself.
VERIFY_PARTS = ("markov.unital_ms", "markov.cp_ms", "markov.state_ms",
                "markov.modular_ms", "verify.eq32_t_ms", "verify.commute_ms",
                "verify.symmetry_ms", "verify.adjoint_ms", "verify.gns_ms")


class Spans:
    """Busy time (ms) per layer metric and counts, summed over instances."""

    def __init__(self):
        self.ms: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: set[str] = set()

    def call(self, names, fn, *args, **kwargs):
        """fn(*args, **kwargs), its time added to every metric in names."""
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        dt = (time.perf_counter() - t0) * 1e3
        for name in names:
            self.ms[name] += dt
        return out

    def probe(self, name: str, module, attr: str, *args, **kwargs) -> None:
        """Time module.attr; a missing entry point leaves the metric absent
        instead of failing the run, so one benchmark serves old and new
        versions of the library."""
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.add(name)
            return
        self.call((name,), fn, *args, **kwargs)


class InstanceFailed(Exception):
    """The correctness gate rejected an instance's outputs."""


def z_samples(seed: int) -> list[complex]:
    """Complex exponents with |Re z| <= 1 and |Im z| <= 5, as the suite draws."""
    rng = np.random.default_rng(seed)
    re = rng.uniform(-1.0, 1.0, size=Z_COUNT)
    im = rng.uniform(-5.0, 5.0, size=Z_COUNT)
    return [complex(a, b) for a, b in zip(re, im)]


def _modular_data(ch):
    return ch.source.modular, ch.target.modular


def run_instance(slot: Slot, serialize: bool, spans: Spans,
                 trace: bool = False) -> None:
    """Run one instance end to end; raise InstanceFailed if an output is wrong."""
    spec = GenSpec(slot.kind, slot.dims, seed=slot.seed,
                   params={"min_gap": MIN_GAP})
    build_names = ["generators.build_ms"]
    if slot.kind in ("sp_ucp", "twirl"):
        build_names.append(f"generators.build_{slot.kind}_ms")
    built = spans.call(build_names, build_channel, spec)
    spans.counts["generators.calls"] += 1
    spans.counts["generators.flagged"] += bool(built.flags)
    genspec = genspec_to_json(spec)
    ch, kind, flags = built.channel, slot.kind, tuple(built.flags)
    if serialize:
        # the path of `modmark gen` + `modmark verify --json`, kept in memory
        metadata = {"seed": slot.seed, "genspec": genspec, "flags": list(flags)}
        text = spans.call(("serialize.instance_write_ms",),
                          lambda: dumps_canonical(instance_to_json(ch, metadata)))
        ch, metadata = spans.call(("serialize.instance_read_ms",),
                                  lambda: instance_from_json(json.loads(text)))
        spans.counts["serialize.bytes"] += len(text)
        kind, flags = metadata["genspec"]["kind"], tuple(metadata["flags"])
    zs = z_samples(derive(slot.seed, "z"))
    gns_seed = derive(slot.seed, "gns")
    if trace:
        # ModularData is set up lazily; without this its cost would land in
        # whichever residual touches it first
        md_s, md_t = spans.call(("gns.modular_data_ms",), _modular_data, ch)
    report = spans.call(
        ("verify.verify_channel_ms",), verify.verify_channel, ch, kind=kind,
        instance_id=f"{slot.kind}-{slot.seed}", seed=slot.seed, flags=flags,
        t_samples=T_SAMPLES, s_values=S_VALUES, z_samples=zs,
        gns_seed=gns_seed)
    report.genspec = genspec
    if serialize:
        report_text = spans.call(("serialize.report_ms",),
                                 lambda: dumps_canonical(report_to_json(report)))
        spans.counts["serialize.bytes"] += len(report_text)
    spans.counts["verify.unexpected_failures"] += len(report.unexpected_failures)
    spans.counts["verify.expected_failures"] += len(report.expected_failures)
    if trace:
        _probe_layers(spans, ch, md_s, md_t, zs, gns_seed)
    _gate(slot, report, built, ch if serialize else None)


def _probe_layers(spans: Spans, ch, md_s, md_t, zs, gns_seed: int) -> None:
    flow_t = [t for t in T_SAMPLES if t != 0]
    spans.probe("markov.unital_ms", markov, "unitality_residual", ch)
    spans.probe("markov.cp_ms", markov, "cp_min_eigenvalue", ch)
    spans.probe("markov.state_ms", markov, "state_residual", ch)
    spans.probe("markov.modular_ms", markov, "modular_commutation_residual",
                ch, flow_t)
    spans.probe("markov.l2_ms", markov, "l2_extension", ch)
    spans.probe("verify.eq32_t_ms", verify, "verify_crucial", ch, T_SAMPLES,
                require_markov=False)
    spans.probe("verify.commute_ms", verify, "verify_commute", ch, zs,
                S_VALUES, require_markov=False)
    spans.probe("verify.symmetry_ms", verify, "verify_modular_symmetry", ch,
                require_markov=False)
    spans.probe("verify.adjoint_ms", verify, "verify_adjoint", ch,
                require_markov=False)
    spans.probe("verify.gns_ms", verify, "modular_invariants", md_s,
                seed=gns_seed)
    spans.probe("verify.gns_ms", verify, "modular_invariants", md_t,
                seed=gns_seed + 1)


def _gate(slot: Slot, report, built, reloaded) -> None:
    """Correctness gate.  Positive kinds pass every verdict; sp_ucp is
    acceptable and fails markov_modular (a generator that silently turned
    flow-compatible is caught); a reloaded channel equals the built one bit
    for bit; no generator flag."""
    if built.flags:
        raise InstanceFailed(f"generator flagged {built.flags}")
    if slot.kind == "sp_ucp":
        if not report.acceptable:
            raise InstanceFailed(f"unexpected failures {report.unexpected_failures}")
        if report.verdicts["markov_modular"]:
            raise InstanceFailed("sp_ucp channel passes markov_modular")
    elif not report.passed:
        raise InstanceFailed(f"failed checks {report.failed_keys}")
    if reloaded is not None:
        ch = built.channel
        same = (np.array_equal(ch.superop, reloaded.superop)
                and all(np.array_equal(a, b) for a, b in zip(
                    ch.source.state.density.blocks + ch.target.state.density.blocks,
                    reloaded.source.state.density.blocks
                    + reloaded.target.state.density.blocks)))
        if not same:
            raise InstanceFailed("reloaded instance differs from the built one")
