"""Command-line front end: generate instances, verify files, run suites.

Commands: gen | verify | suite | show.  Exit codes are stable: 0 success /
all pass, 1 verification failure (for `suite`, only failures that were not
expected), 2 bad flags or malformed file, 3 generator non-convergence (the
instance file is still written, flagged in metadata), 4 shape inconsistencies
in an instance file.  The MODMARK_TOL environment variable overrides the base
residual tolerance used for every verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import MalformedInstance, ShapeMismatch
from .generators import KINDS, GenSpec, build_channel, derive_seed
from .markov import check_markov
from .serialize import (
    dumps_canonical,
    genspec_from_json,
    genspec_to_json,
    read_instance,
    report_to_json,
    suite_result_to_json,
    write_instance,
)
from .verify import (
    DEFAULT_EQ32_T,
    SuiteConfig,
    run_suite,
    sample_z,
    verify_channel,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NOCONV = 3
EXIT_SHAPE = 4

KIND_ALIASES = {
    "scalar": "state_to_scalar",
    "auto": "automorphism",
    "blockexp": "block_expectation",
}


def _canonical_kind(name: str) -> str:
    kind = KIND_ALIASES.get(name.strip(), name.strip())
    if kind not in KINDS:
        raise argparse.ArgumentTypeError(
            f"unknown kind {name!r}; known: {', '.join(KINDS)}")
    return kind


def _dims_group(text: str) -> tuple[int, ...]:
    """Block dims of one algebra: '2' -> (2,), '2x2' or '2,2' -> (2, 2)."""
    sep = "x" if "x" in text else ","
    try:
        dims = tuple(int(p) for p in text.split(sep))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dims {text!r}")
    if not dims or any(n < 1 for n in dims):
        raise argparse.ArgumentTypeError(f"dims must be positive, got {text!r}")
    return dims


def _dims_list(text: str) -> tuple[tuple[int, ...], ...]:
    """Comma list of dims groups: '2,3,2x2' -> ((2,), (3,), (2, 2))."""
    groups = tuple(_dims_group(part) for part in text.split(",") if part)
    if not groups:
        raise argparse.ArgumentTypeError(f"no dims in {text!r}")
    return groups


def _s_range(text: str) -> tuple[float, ...]:
    try:
        lo, hi = (float(p) for p in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"s range must be 'a:b', got {text!r}")
    if hi < lo:
        lo, hi = hi, lo
    return tuple(float(s) for s in np.linspace(lo, hi, 5))


def _positive_int(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return count


def _t_samples(count: int, seed: int) -> tuple[float, ...]:
    base = list(DEFAULT_EQ32_T[:count])
    rng = np.random.default_rng(derive_seed(seed, 7001))
    while len(base) < count:
        base.append(float(rng.uniform(-5.0, 5.0)))
    return tuple(base)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modmark",
        description="Generate and verify modular-symmetry instances.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate an instance file")
    p_gen.add_argument("--kind", required=True, type=_canonical_kind)
    p_gen.add_argument("--dims", required=True, type=_dims_group,
                       help="block dims, e.g. 2 or 2,2 or 2x2")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--params", default="{}",
                       help="kind-specific parameters as JSON")
    p_gen.add_argument("-o", "--output", required=True, metavar="PATH")

    p_ver = sub.add_parser("verify", help="verify an instance file")
    p_ver.add_argument("file")
    p_ver.add_argument("--t-samples", type=_positive_int, default=8)
    p_ver.add_argument("--z-samples", type=_positive_int, default=16)
    p_ver.add_argument("--s-range", type=_s_range, default="-1:1")
    p_ver.add_argument("--json", action="store_true")

    p_suite = sub.add_parser("suite", help="generate and verify a batch")
    p_suite.add_argument("--trials", type=int, default=10)
    p_suite.add_argument("--dims", type=_dims_list, default="2,3,4,2x2,3x1",
                         help="comma list of dims groups, e.g. 2,3,2x2")
    p_suite.add_argument("--seed", type=int, default=0)
    p_suite.add_argument("--kinds", default=None,
                         help="comma list of kinds (aliases: scalar, auto, blockexp)")
    p_suite.add_argument("--min-gap", type=float, default=0.05)
    p_suite.add_argument("--json", action="store_true")
    p_suite.add_argument("--out", metavar="DIR",
                         help="persist per-instance files into DIR")

    p_show = sub.add_parser("show", help="pretty-print an instance file")
    p_show.add_argument("file")
    return parser


def cmd_gen(args) -> int:
    try:
        params = json.loads(args.params)
        if not isinstance(params, dict):
            raise ValueError("params must be a JSON object")
    except (json.JSONDecodeError, ValueError) as exc:
        print(f"error: bad --params: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        spec = GenSpec(args.kind, args.dims, seed=args.seed, params=params)
    except (ValueError, ShapeMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    built = build_channel(spec)
    metadata = {
        "seed": args.seed,
        "genspec": genspec_to_json(spec),
        "flags": list(built.flags),
    }
    write_instance(args.output, built.channel, metadata)
    mc = check_markov(built.channel)
    dims = "x".join(map(str, spec.dims))
    print(f"instance kind={spec.kind} dims={dims} seed={args.seed} -> {args.output}")
    for name, value in mc.residuals.items():
        print(f"  markov {name:8s} {value:.3e}  "
              f"({'pass' if mc.verdicts[name] else 'FAIL'})")
    if built.flags:
        print(f"  flagged: {', '.join(built.flags)}")
        return EXIT_NOCONV
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        ch, metadata = read_instance(args.file)
    except MalformedInstance as exc:
        print(f"error: malformed instance: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ShapeMismatch as exc:
        print(f"error: shape inconsistency: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    kind = None
    genspec = metadata.get("genspec")
    if isinstance(genspec, dict):
        try:
            kind = genspec_from_json(genspec).kind
        except MalformedInstance:
            kind = None
    seed = metadata.get("seed")
    sample_seed = seed if isinstance(seed, int) else 0
    report = verify_channel(
        ch,
        kind=kind,
        instance_id=Path(args.file).name,
        seed=seed if isinstance(seed, int) else None,
        flags=tuple(metadata.get("flags", ())),
        t_samples=_t_samples(args.t_samples, sample_seed),
        z_samples=sample_z(derive_seed(sample_seed, 7002), args.z_samples),
        s_values=args.s_range,
        gns_seed=derive_seed(sample_seed, 7003),
    )
    report.genspec = genspec if isinstance(genspec, dict) else None
    if args.json:
        print(dumps_canonical(report_to_json(report)), end="")
    else:
        print(f"instance {report.instance_id} "
              f"(kind={report.kind or 'unknown'}, dims={report.dims})")
        for key in sorted(report.residuals):
            mark = "pass" if report.verdicts[key] else "FAIL"
            extra = " (expected)" if key in report.expected_fail and not report.verdicts[key] else ""
            print(f"  {key:22s} {report.residuals[key]:.3e}  "
                  f"tol {report.tolerances[key]:.1e}  {mark}{extra}")
        print("verdict:", "pass" if report.passed else "fail")
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_suite(args) -> int:
    kinds = None
    if args.kinds:
        try:
            kinds = tuple(_canonical_kind(k) for k in args.kinds.split(","))
        except argparse.ArgumentTypeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    if args.trials < 1:
        print("error: --trials must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    config_kwargs = dict(
        trials=args.trials,
        seed=args.seed,
        dims_list=args.dims,
        min_gap=args.min_gap,
    )
    if kinds:
        config_kwargs["kinds"] = kinds
    config = SuiteConfig(**config_kwargs)
    result = run_suite(config)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for report in result.reports:
            if not report.genspec:
                continue
            spec = genspec_from_json(report.genspec)
            built = build_channel(spec)
            write_instance(
                out_dir / f"{report.instance_id}.json", built.channel,
                {"seed": spec.seed, "genspec": report.genspec,
                 "flags": list(built.flags)})
    if args.json:
        print(dumps_canonical(suite_result_to_json(result)), end="")
    else:
        summary = result.summary
        print(f"suite: {summary['instances']} instances, "
              f"{len(summary['unexpected_failures'])} unexpected failures, "
              f"{len(summary['expected_failures'])} expected failures")
        print(f"{'check':24s} {'max residual':>13s}")
        for key, value in sorted(summary["max_residuals"].items()):
            print(f"{key:24s} {value:13.3e}")
        if summary["expected_failures"]:
            print("expected failures (flow-dependent checks on sp_ucp instances):")
            for item in summary["expected_failures"]:
                print(f"  {item['instance']} {item['check']} "
                      f"residual {item['residual']:.3e}")
        if summary["unexpected_failures"]:
            print("UNEXPECTED failures:")
            for item in summary["unexpected_failures"]:
                print(f"  {item['instance']} {item['check']} "
                      f"residual {item['residual']:.3e} tol {item['tolerance']:.1e}")
        if summary["flagged"]:
            print(f"flagged (generator non-convergence): {summary['flagged']}")
    return EXIT_OK if result.exit_ok else EXIT_FAIL


def cmd_show(args) -> int:
    try:
        ch, metadata = read_instance(args.file)
    except MalformedInstance as exc:
        print(f"error: malformed instance: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ShapeMismatch as exc:
        print(f"error: shape inconsistency: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    print(f"instance file {args.file} (version 1)")
    print(f"  source: dims={ch.source.algebra.block_dims} "
          f"kappa={ch.source.state.kappa:.4g}")
    print(f"  target: dims={ch.target.algebra.block_dims} "
          f"kappa={ch.target.state.kappa:.4g}")
    print(f"  superop: {ch.superop.shape[0]}x{ch.superop.shape[1]}, "
          f"norm {np.linalg.norm(ch.superop, 2):.6g}")
    if metadata:
        print(f"  metadata: {json.dumps(metadata, sort_keys=True)}")
    mc = check_markov(ch)
    for name, value in mc.residuals.items():
        print(f"  markov {name:8s} {value:.3e}  "
              f"({'pass' if mc.verdicts[name] else 'FAIL'})")
    return EXIT_OK


def _merge_range_flag(argv: list[str]) -> list[str]:
    """Join '--s-range -1:1' into one token; argparse otherwise reads the
    value, which starts with a dash, as an option name."""
    out, i = [], 0
    while i < len(argv):
        if argv[i] == "--s-range" and i + 1 < len(argv):
            out.append(f"--s-range={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_range_flag(list(argv)))
    if args.command == "gen":
        return cmd_gen(args)
    if args.command == "verify":
        return cmd_verify(args)
    if args.command == "suite":
        return cmd_suite(args)
    if args.command == "show":
        return cmd_show(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return EXIT_USAGE  # pragma: no cover


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
