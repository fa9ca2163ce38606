"""Seeded instance mixes for the modmark benchmark.

A workload is a fixed *round*: an ordered list of (kind, dims) slots that a
run repeats, with fresh instance seeds each time, until its time is up.  Runs
end on whole rounds, so the mix of kinds and sizes is the same however many
instances fit in a run, and throughput and percentiles compare across commits.

Slots follow `modmark suite`'s order: kinds round-robin, the dims advancing
once per pass over the kinds, and a kind that cannot take a dims group (schur
needs a single block) moving on to the next group that fits.

This module imports nothing from modmark or numpy, so the benchmark can load
it before it starts timing set-up.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

# `modmark suite`'s default mix, copied so that the benchmark's inputs stay
# fixed when the library's defaults change.
SUITE_KINDS = ("identity", "schur", "pinch", "block_expectation",
               "state_to_scalar", "automorphism", "twirl", "convex")
SUITE_DIMS = ((2,), (3,), (4,), (2, 2), (3, 1))


@dataclass(frozen=True)
class Slot:
    kind: str
    dims: tuple[int, ...]
    seed: int


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: tuple[str, ...]
    dims: tuple[tuple[int, ...], ...]
    # instance -> JSON text -> instance before verifying, report -> JSON text after
    serialize: bool
    # percentile reported as instance_tail_ms, chosen inside the band of one
    # slot class (each slot is a fixed share of a round), not on a boundary
    # between classes, where it would jump with the seed; a timed run keeps
    # going until at least ten samples lie beyond it
    tail_pct: float

    def round_slots(self, seed: int, round_index: int) -> list[Slot]:
        out = []
        for i in range(len(self.kinds) * len(self.dims)):
            kind = self.kinds[i % len(self.kinds)]
            out.append(Slot(kind, self._pick_dims(kind, i),
                            derive(self.name, seed, round_index, i)))
        return out

    def _pick_dims(self, kind: str, i: int) -> tuple[int, ...]:
        start = i // len(self.kinds)
        for step in range(len(self.dims)):
            dims = self.dims[(start + step) % len(self.dims)]
            if kind != "schur" or len(dims) == 1:
                return dims
        raise ValueError(f"no dims group of {self.name} fits kind {kind!r}")

    @property
    def min_instances(self) -> int:
        """Smallest sample with at least ten values beyond `tail_pct`."""
        n = 10
        while n - nearest_rank(self.tail_pct, n) < 10:
            n += 1
        return n

    @property
    def warmup(self) -> Slot:
        """Tiny instance of the workload's first kind, run during set-up."""
        return Slot(self.kinds[0], (2,), derive(self.name, "warmup"))


WORKLOADS = {
    w.name: w for w in (
        Workload("suite-default", SUITE_KINDS, SUITE_DIMS,
                 serialize=False, tail_pct=96.25),
        Workload("nonflow-gen", ("sp_ucp", "twirl"),
                 ((3,), (4,), (5,), (6,), (2, 2, 2), (3, 3)),
                 serialize=False, tail_pct=87.5),
        Workload("verify-large",
                 ("schur", "pinch", "block_expectation", "automorphism",
                  "convex", "state_to_scalar"),
                 ((8,), (12,), (16,), (8, 8), (6, 4, 2)),
                 serialize=True, tail_pct=70.0),
    )
}


def derive(*parts) -> int:
    """Platform-independent 32-bit seed from any printable parts."""
    text = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=4).digest(), "big")


def nearest_rank(pct: float, n: int) -> int:
    """1-based rank of the pct-th percentile of n sorted samples."""
    rank = -(-pct * n // 100)
    return max(1, min(n, int(rank)))
