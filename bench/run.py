"""modmark benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the repository root; the library is imported from ./src.  One run
sets up (imports modmark and verifies a tiny warm-up instance), then runs
whole rounds of the workload's instance mix until S seconds have passed and
enough instances support the tail percentile (S = 0: exactly one round).
Every instance is checked; a failed one counts in `failed`, not in the
latencies.  The last line of output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1.  The traced run runs every instance twice, untraced then traced,
and reports layer times per round (the busy time summed over one round's
instances, averaged over the rounds run).  --smoke runs every workload for
one round in both modes and checks the printed metrics against
BENCHMARK.json.  Workloads, metrics and baselines: bench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads: the benchmark is one process
# with no worker pool, and BLAS threads only add noise on a shared host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, nearest_rank

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7          # this process plus six fresh interpreters
MAX_MEASURE_S = 120.0      # no new round after this, whatever the floor says
TAIL_FALLBACK = (99.0, 95.0, 90.0, 75.0, 50.0)

LAYER_UNITS = {
    "gns.modular_data_ms": "ms",
    "generators.build_ms": "ms",
    "generators.build_sp_ucp_ms": "ms",
    "generators.build_twirl_ms": "ms",
    "generators.calls": "count",
    "generators.flagged": "count",
    "markov.unital_ms": "ms",
    "markov.cp_ms": "ms",
    "markov.state_ms": "ms",
    "markov.modular_ms": "ms",
    "markov.l2_ms": "ms",
    "verify.eq32_t_ms": "ms",
    "verify.commute_ms": "ms",
    "verify.symmetry_ms": "ms",
    "verify.adjoint_ms": "ms",
    "verify.gns_ms": "ms",
    "verify.verify_channel_ms": "ms",
    "verify.other_ms": "ms",
    "verify.unexpected_failures": "count",
    "verify.expected_failures": "count",
    "serialize.instance_write_ms": "ms",
    "serialize.instance_read_ms": "ms",
    "serialize.report_ms": "ms",
    "serialize.bytes": "bytes",
    "trace.overhead_frac": "ratio",
}
# Counts reported as totals over the run; every other layer metric is per round.
RUN_TOTALS = ("generators.calls", "generators.flagged",
              "verify.unexpected_failures", "verify.expected_failures")
# Layer metrics that together cover one traced instance's production calls.
ACCOUNTED = ("gns.modular_data_ms", "generators.build_ms",
             "serialize.instance_write_ms", "serialize.instance_read_ms",
             "serialize.report_ms", "verify.verify_channel_ms")


def import_pipeline():
    """Import the benchmark pipeline, and with it modmark, from ./src."""
    if not (SRC / "modmark" / "__init__.py").is_file():
        sys.exit(f"error: no modmark sources under {SRC}; "
                 "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import pipeline
    return pipeline


def set_up(workload):
    """Import modmark and run the warm-up instance; (pipeline, seconds)."""
    t0 = time.perf_counter()
    pipeline = import_pipeline()
    pipeline.run_instance(workload.warmup, workload.serialize, pipeline.Spans())
    return pipeline, time.perf_counter() - t0


def setup_in_fresh_interpreter(workload) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload.name, "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def blas_libraries() -> list[tuple[str, int | None, str | None]]:
    """(library, threads, config) for each OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower()
                            and line.split()[-1].startswith("/")})
    except OSError:
        return []
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        threads = config = None
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if fn is not None and threads is None:
                    fn.restype = ctypes.c_int
                    threads = int(fn())
                fn = getattr(lib, f"{prefix}get_config{suffix}", None)
                if fn is not None and config is None:
                    fn.restype = ctypes.c_char_p
                    config = fn().decode()
        out.append((Path(path).name, threads, config))
    return out


def print_environment() -> None:
    import numpy
    import scipy
    print(f"env nproc={os.cpu_count()} "
          f"affinity={len(os.sched_getaffinity(0))} "
          f"python={platform.python_version()} numpy={numpy.__version__} "
          f"scipy={scipy.__version__}")
    for name, threads, config in blas_libraries():
        print(f"env blas {name} threads={threads} config={config!r}")


def timed_instance(pipeline, slot, serialize, spans, trace):
    """(ok, ms) for one instance; a failure is logged and the run goes on."""
    t0 = time.perf_counter()
    try:
        pipeline.run_instance(slot, serialize, spans, trace=trace)
    except Exception as exc:  # the instance counts as failed
        detail = (str(exc) if isinstance(exc, pipeline.InstanceFailed)
                  else traceback.format_exc())
        print(f"FAILED {slot}: {detail}", file=sys.stderr)
        return False, (time.perf_counter() - t0) * 1e3
    return True, (time.perf_counter() - t0) * 1e3


def measure(pipeline, workload, seed: int, seconds: float, trace: bool) -> dict:
    """Whole rounds until `seconds` have passed and, untraced, the sample
    supports the tail percentile.  The host-speed kernel runs between
    instances; its time is not part of the measured body."""
    import reference  # loads numpy, so only once set-up has been timed
    host = reference.HostSpeed()
    spans = pipeline.Spans()
    latencies = []
    untraced_ms = traced_ms = 0.0
    attempted = failed = rounds = 0
    t0 = time.perf_counter()
    while True:
        for slot in workload.round_slots(seed, rounds):
            attempted += 1
            if trace:
                ok_u, ms_u = timed_instance(pipeline, slot, workload.serialize,
                                            pipeline.Spans(), False)
                ok_t, ms_t = timed_instance(pipeline, slot, workload.serialize,
                                            spans, True)
                untraced_ms += ms_u
                traced_ms += ms_t
                ok = ok_u and ok_t
            else:
                ok, ms = timed_instance(pipeline, slot, workload.serialize,
                                        spans, False)
                if ok:
                    latencies.append(ms)
            failed += not ok
            host.maybe_sample()
        rounds += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds and (
                seconds == 0 or trace or attempted >= workload.min_instances
                or elapsed >= MAX_MEASURE_S):
            break
    print(f"host factor {host.factor!r} (kernel mean over "
          f"{len(host.samples)} samples / nominal {reference.NOMINAL_S} s)")
    return {"spans": spans, "latencies": latencies, "attempted": attempted,
            "failed": failed, "rounds": rounds,
            # read before the statistics below load more of scipy
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            "body_s": elapsed - host.spent_s, "untraced_ms": untraced_ms,
            "traced_ms": traced_ms, "host_factor": host.factor}


def quantile(values: list[float], pct: float) -> float:
    """Harrell-Davis estimate of the pct-th percentile: a beta-weighted mean
    of all order statistics.  A single order statistic jumps whenever the
    percentile falls between two slot classes of a mix (the median does at
    every whole round); this estimate moves smoothly instead."""
    import numpy as np
    from scipy.special import betainc
    x = np.sort(np.asarray(values, dtype=float))
    n, p = len(x), pct / 100.0
    weights = np.diff(betainc(p * (n + 1), (1.0 - p) * (n + 1),
                              np.arange(n + 1) / n))
    return float(weights @ x)


def tail(latencies: list[float], pct: float) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it): `pct` if at least ten samples
    lie beyond it, else the highest fallback percentile that has ten."""
    n = len(latencies)
    for p in (pct,) + tuple(q for q in TAIL_FALLBACK if q < pct):
        beyond = n - nearest_rank(p, n)
        if beyond >= 10:
            return quantile(latencies, p), p, beyond
    return max(latencies), 100.0, 0


def end_to_end(run: dict, workload, setup_s: float, setup_factor: float) -> dict:
    """Times scaled to the nominal host speed; raw values printed too."""
    lat, f = run["latencies"], run["host_factor"]
    print(f"rounds {run['rounds']} instances {run['attempted']} "
          f"measured {run['body_s']:.2f} s")
    ms = run["spans"].ms
    serialize_ms = sum(v for k, v in ms.items() if k.startswith("serialize."))
    print(f"split generators {ms['generators.build_ms'] / 1e3:.3f} s  "
          f"serialize {serialize_ms / 1e3:.3f} s  "
          f"verify {ms['verify.verify_channel_ms'] / 1e3:.3f} s  (raw)")
    if lat:
        tail_ms, pct, beyond = tail(lat, workload.tail_pct)
        p50 = quantile(lat, 50.0)
    else:
        tail_ms, pct, beyond, p50 = 0.0, workload.tail_pct, 0, 0.0
    raw = {
        "setup_s": (setup_s, "s"),
        "instances_per_s": (len(lat) / run["body_s"], "1/s"),
        "instance_p50_ms": (p50, "ms"),
        "instance_tail_ms": (tail_ms, "ms"),
    }
    metrics = {name: (value * f if unit == "1/s" else value / f, unit)
               for name, (value, unit) in raw.items()}
    metrics["setup_s"] = (setup_s / setup_factor, "s")
    metrics["peak_rss_mb"] = (run["peak_rss_mb"], "MB")
    for name, (value, unit) in metrics.items():
        note = f"  (raw {raw[name][0]!r})" if name in raw else ""
        if name == "instance_tail_ms":
            note += f"  p{pct:g} of {len(lat)}, {beyond} samples beyond"
        print(f"{name} {value!r} {unit}{note}")
    print(f"failed_frac {run['failed'] / run['attempted']!r} frac "
          f"({run['failed']}/{run['attempted']}; not in BENCHMARK.json "
          "because it is 0 when nothing fails)")
    return metrics


def per_layer(run: dict, verify_parts) -> dict:
    """Busy times per round, scaled to the nominal host speed like the
    end-to-end times; counts and ratios as counted."""
    spans, rounds, f = run["spans"], run["rounds"], run["host_factor"]
    values = {}
    for name in LAYER_UNITS:
        if name in spans.absent:
            continue
        if name in RUN_TOTALS:
            values[name] = float(spans.counts[name])
        elif name == "serialize.bytes":
            values[name] = spans.counts[name] / rounds
        else:
            values[name] = spans.ms[name] / rounds / f
    parts = [n for n in verify_parts if n not in spans.absent]
    values["verify.other_ms"] = (spans.ms["verify.verify_channel_ms"]
                                 - sum(spans.ms[n] for n in parts)) / rounds / f
    values["trace.overhead_frac"] = run["traced_ms"] / run["untraced_ms"] - 1.0
    accounted = sum(spans.ms[n] for n in ACCOUNTED)
    print(f"rounds {rounds} instances {run['attempted']} "
          f"measured {run['body_s']:.2f} s")
    for name, value in values.items():
        print(f"{name} {value!r} {LAYER_UNITS[name]}")
    for name in sorted(spans.absent):
        print(f"{name} absent: the library has no such entry point")
    print(f"layers account for {accounted / rounds / f:.1f} ms of "
          f"{run['untraced_ms'] / rounds / f:.1f} ms untraced per round "
          f"({accounted / run['untraced_ms']:.3f})")
    return {name: (value, LAYER_UNITS[name]) for name, value in values.items()}


def result_line(run: dict, metrics: dict) -> str:
    return json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def smoke() -> int:
    """One round of every workload in both modes; check names, units and
    that nothing failed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
                   w["name"], "--seed", "1", "--seconds", "0",
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=170, check=False)
            where = f"{w['name']} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(lines[-1])
            expected = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                problems.append(f"{where}: metrics {got} != {expected}")
            if not all(isinstance(v["value"], (int, float))
                       and math.isfinite(v["value"])
                       for v in result["metrics"].values()):
                problems.append(f"{where}: non-finite metric value")
            if result["failed"] or not result["correct"]:
                problems.append(f"{where}: failed_frac "
                                f"{result['failed'] / result['attempted']}")
            if trace == 0 and not any(l.startswith("failed_frac 0.0 ")
                                      for l in lines):
                problems.append(f"{where}: no failed_frac 0.0 line")
            print(f"smoke {where}: {result['attempted']} instances, "
                  f"{result['failed']} failed")
    for p in problems:
        print(f"SMOKE FAILURE {p}", file=sys.stderr)
    print("smoke", "failed" if problems else "ok")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one round of every workload, output checked")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    workload = WORKLOADS[args.workload]
    pipeline, setup_s = set_up(workload)
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    import reference
    setup_host = reference.HostSpeed()  # host speed while setting up
    samples = [setup_s]
    for _ in range(SETUP_SAMPLES - 1):
        setup_host.sample()
        samples.append(setup_in_fresh_interpreter(workload))
    setup_host.sample()
    print_environment()
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    print(f"setup samples {', '.join(f'{s:.4f}' for s in samples)} s, "
          f"host factor {setup_host.factor!r}")
    run = measure(pipeline, workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        metrics = per_layer(run, pipeline.VERIFY_PARTS)
    else:
        metrics = end_to_end(run, workload, statistics.median(samples),
                             setup_host.factor)
    print(result_line(run, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
