"""Host-speed reference for the modmark benchmark.

On a shared host the same instances run up to 40% faster or slower from one
minute to the next, because other tenants contend for the same cores.  CPU
time moves with wall time, so preemption is not the cause and cannot be
subtracted.  A run therefore times this fixed kernel every half second or so
between instances, and the benchmark scales its times by

    host_factor = mean(kernel time in this run) / NOMINAL_S

so that a time reads as it would on the host at its nominal speed.  The
kernel uses no modmark code: a change to the library cannot move it.  It
mixes what the library spends its time on: Python-level loops over small
numpy calls (eigh, kron, matmul) and one dense SVD.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel time, in seconds, on the 2-CPU host where the benchmark was defined
# (Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31, one BLAS thread).  It only
# sets the scale of the reported times; parent and child share it.
NOMINAL_S = 0.025
EVERY_S = 0.5

_RNG_SEED = 20190516


def kernel() -> float:
    rng = np.random.default_rng(_RNG_SEED)
    acc = 0.0
    for _ in range(250):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        w, v = np.linalg.eigh(a @ a.conj().T)
        k = np.kron(v, v.conj())
        acc += float(np.linalg.norm(k @ k.conj().T - np.eye(36))) + float(w[0])
        acc += sum({j: j * 0.5 for j in range(16)}.values())
    m = rng.standard_normal((128, 128))
    acc += float(np.linalg.svd(m, compute_uv=False)[0])
    return acc


class HostSpeed:
    """Kernel samples taken through a run, at most one per EVERY_S."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._last = -float("inf")

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)
        self.spent_s += self._last - t0

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    @property
    def factor(self) -> float:
        # the mean, not the median: the measured body is a sum over time, so
        # slow spells count in it as they do in the mean
        return statistics.fmean(self.samples) / NOMINAL_S
