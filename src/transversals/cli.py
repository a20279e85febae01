"""Batch command-line interface.

Subcommands: gen, metrics, certify, verify, solve, count, export, sequence.
Exit codes: 0 success, 1 usage error, 2 validation failure, 3 certification
inconclusive.  All data output is deterministic; wall-clock timings go to
stderr only.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from fractions import Fraction
from pathlib import Path

from .builders import _RECIPE_READS, BuildRecipe, build, pad_blocks
from .certificate import (
    check_certificate,
    read_certificate,
    serialize_certificate,
    write_certificate,
)
from .errors import (
    BuildSizeError,
    CertificateError,
    InstanceError,
    ParameterError,
    ParseError,
    SequenceError,
)
from .model import compute_metrics
from .sequences import (
    forest_grade_sequence,
    haxell_threshold,
    hypergraph_grade_sequence,
    mobius_orbit,
    simple_sequence,
)
from .serialization import (
    _atomic_write,
    export_dot,
    read_instance,
    serialize_instance,
    write_instance,
)
from .solving import count_transversals, find_transversal, propagate_certificate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_INCONCLUSIVE = 3


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _sequence_arg(text: str) -> tuple[int, ...] | str:
    if text == "simple":
        return "simple"
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected 'simple' or comma-separated integers, got {text!r}"
        ) from exc


# ``sequence``'s flags with their defaults, and the flags each of its modes
# reads.  The mode is --mobius if given, else --haxell, else --simple or
# grade generation from --t; every flag its mode does not read must keep
# its default.
_SEQUENCE_DEFAULTS = {
    "t": None,
    "epsilon": None,
    "r": 2,
    "simple": False,
    "mobius": None,
    "start": Fraction(0),
    "max_steps": 10**4,
    "haxell": None,
}
_SEQUENCE_READS = {
    "mobius": {"mobius", "start", "max_steps"},
    "haxell": {"haxell", "t"},
    "simple": {"simple", "t"},
    "grades": {"t", "epsilon", "r"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transversals",
        description="Construct, measure, certify and solve partitioned instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="build an instance and write it as JSON")
    gen.add_argument("--kind", required=True, choices=_RECIPE_READS)
    gen.add_argument("--t", type=int)
    gen.add_argument("--r", type=int, default=2)
    gen.add_argument("--epsilon", type=_fraction)
    gen.add_argument("--alpha", type=_fraction)
    gen.add_argument("--k", type=int, help="number of leaves per star")
    gen.add_argument(
        "--seq",
        type=_sequence_arg,
        help="explicit grade sequence '0,8,13,20' or 'simple'",
    )
    gen.add_argument("--pad", type=int, help="pad to this many blocks")
    gen.add_argument("--out", type=Path, help="output path (default: stdout)")
    gen.set_defaults(func=_cmd_gen)

    metrics = sub.add_parser("metrics", help="print degree metrics of an instance")
    metrics.add_argument("instance", type=Path)
    metrics.add_argument("--format", choices=("csv", "json"), default="csv")
    metrics.set_defaults(func=_cmd_metrics)

    certify = sub.add_parser(
        "certify", help="run propagation and write a non-existence certificate"
    )
    certify.add_argument("instance", type=Path)
    certify.add_argument("--out", type=Path, help="certificate path (default: stdout)")
    certify.add_argument(
        "--expect-none",
        action="store_true",
        help="on inconclusive propagation, fall back to the exact solver",
    )
    certify.set_defaults(func=_cmd_certify)

    verify = sub.add_parser("verify", help="replay a certificate against an instance")
    verify.add_argument("instance", type=Path)
    verify.add_argument("certificate", type=Path)
    verify.set_defaults(func=_cmd_verify)

    solve = sub.add_parser("solve", help="exact search for one transversal")
    solve.add_argument("instance", type=Path)
    solve.add_argument(
        "--max-nodes",
        type=int,
        help="stop after this many search nodes with the outcome 'aborted'",
    )
    solve.set_defaults(func=_cmd_solve)

    count = sub.add_parser("count", help="exhaustively count transversals")
    count.add_argument("instance", type=Path)
    count.add_argument("--cap", type=int)
    count.add_argument(
        "--max-nodes",
        type=int,
        help="stop after this many search nodes with the outcome 'aborted'",
    )
    count.set_defaults(func=_cmd_count)

    export = sub.add_parser("export", help="export an instance as Graphviz DOT")
    export.add_argument("instance", type=Path)
    export.add_argument("--out", type=Path)
    export.set_defaults(func=_cmd_export)

    sequence = sub.add_parser(
        "sequence", help="print grade sequences, orbits and thresholds"
    )
    sequence.add_argument("--t", type=int)
    sequence.add_argument("--epsilon", type=_fraction)
    sequence.add_argument("--r", type=int)
    sequence.add_argument("--simple", action="store_true")
    sequence.add_argument("--mobius", type=_fraction, metavar="ALPHA")
    sequence.add_argument("--start", type=_fraction)
    sequence.add_argument("--max-steps", type=int)
    sequence.add_argument("--haxell", type=int, metavar="N")
    sequence.set_defaults(func=_cmd_sequence, **_SEQUENCE_DEFAULTS)

    return parser


# -- subcommand implementations --------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.seq == "simple":
        if args.t is None:
            raise ParameterError("--seq simple needs --t")
        override = simple_sequence(args.t).values
    else:
        override = args.seq
    recipe = BuildRecipe(
        kind=args.kind,
        t=args.t,
        r=args.r,
        epsilon=args.epsilon,
        alpha=args.alpha,
        k_stars=args.k,
        sequence_override=override,
    )
    instance = build(recipe)
    if args.pad is not None:
        instance = pad_blocks(instance, args.pad)
    if args.out is None:
        sys.stdout.write(serialize_instance(instance).decode("utf-8"))
    else:
        write_instance(instance, args.out)
        print(
            f"wrote {instance.num_blocks} blocks, {instance.num_vertices} vertices, "
            f"{len(instance.edges)} edges to {args.out}",
            file=sys.stderr,
        )
    return EXIT_OK


def _cmd_metrics(args: argparse.Namespace) -> int:
    instance = read_instance(args.instance)
    metrics = compute_metrics(instance)
    if args.format == "csv":
        print("block_id,size,degree,avg_degree")
        for b in instance.blocks:
            degree = metrics.per_block_degree[b.id]
            avg = degree / b.size if b.size else 0.0
            print(f"{b.id},{b.size},{degree},{avg!r}")
    else:
        obj = {
            "per_block_degree": {str(k): v for k, v in metrics.per_block_degree.items()},
            "max_block_avg_degree": str(metrics.max_block_avg_degree),
            "max_degree": metrics.max_degree,
            "local_degree": metrics.local_degree,
            "thickness": metrics.thickness,
            "stretched_edges": metrics.stretched_edges,
        }
        print(json.dumps(obj, sort_keys=True))
    return EXIT_OK


def _cmd_certify(args: argparse.Namespace) -> int:
    instance = read_instance(args.instance)
    cert = propagate_certificate(instance)
    if cert is not None:
        if args.out is None:
            sys.stdout.write(serialize_certificate(cert).decode("utf-8"))
        else:
            write_certificate(cert, args.out)
            print(
                f"certificate with {len(cert.steps)} steps, emptied block "
                f"{cert.conclusion}, written to {args.out}",
                file=sys.stderr,
            )
        return EXIT_OK
    if not args.expect_none:
        print("propagation inconclusive", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    report = find_transversal(instance)
    if report.outcome == "none_exhaustive":
        print(
            "propagation inconclusive, but exhaustive search confirms no transversal",
            file=sys.stderr,
        )
        return EXIT_OK
    print(
        f"expected no transversal, but the solver found one: {report.assignment}",
        file=sys.stderr,
    )
    return EXIT_VALIDATION


def _cmd_verify(args: argparse.Namespace) -> int:
    instance = read_instance(args.instance)
    cert = read_certificate(args.certificate)
    if not check_certificate(instance, cert):
        print("error: the certificate does not replay on this instance", file=sys.stderr)
        return EXIT_VALIDATION
    out = {"conclusion": cert.conclusion, "steps": len(cert.steps), "valid": True}
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = read_instance(args.instance)
    report = find_transversal(instance, max_nodes=args.max_nodes)
    out = {
        "outcome": report.outcome,
        "assignment": None
        if report.assignment is None
        else {str(k): v for k, v in sorted(report.assignment.items())},
        "nodes_explored": report.nodes_explored,
    }
    print(json.dumps(out, sort_keys=True))
    print(f"wall_time={report.wall_time:.6f}s", file=sys.stderr)
    return EXIT_OK


def _cmd_count(args: argparse.Namespace) -> int:
    instance = read_instance(args.instance)
    report = count_transversals(instance, cap=args.cap, max_nodes=args.max_nodes)
    out = {
        "outcome": report.outcome,
        "count": report.count,
        "cap": report.cap,
        "nodes_explored": report.nodes_explored,
    }
    print(json.dumps(out, sort_keys=True))
    print(f"wall_time={report.wall_time:.6f}s", file=sys.stderr)
    return EXIT_OK


def _cmd_export(args: argparse.Namespace) -> int:
    instance = read_instance(args.instance)
    text = export_dot(instance)
    if args.out is None:
        sys.stdout.write(text)
    else:
        _atomic_write(args.out, text.encode())
    return EXIT_OK


def _cmd_sequence(args: argparse.Namespace) -> int:
    if args.mobius is not None:
        mode = "mobius"
    elif args.haxell is not None:
        mode = "haxell"
    elif args.t is None:
        raise ParameterError("nothing to do: pass --t, --mobius or --haxell")
    else:
        mode = "simple" if args.simple else "grades"
    unread = [
        f"--{name.replace('_', '-')}" + ("" if value is True else f" {value}")
        for name, default in _SEQUENCE_DEFAULTS.items()
        if name not in _SEQUENCE_READS[mode] and (value := getattr(args, name)) != default
    ]
    if unread:
        raise ParameterError(f"sequence mode {mode!r} does not read {', '.join(unread)}")
    if mode == "mobius":
        orbit = mobius_orbit(args.mobius, args.start, args.max_steps)
        head = ", ".join(f"{float(z):.6f}" for z in orbit.points[:8])
        print(f"orbit alpha={args.mobius} start={args.start}: {head}, ...")
        oc = orbit.outcome
        if oc.kind == "escaped":
            print(f"outcome: escaped at step {oc.step}")
        elif oc.kind == "converged":
            print(f"outcome: converged to {oc.limit} (~{float(oc.limit):.9f})")
        else:
            print("outcome: undecided")
        return EXIT_OK
    if mode == "haxell":
        if args.t is None:
            raise ParameterError("--haxell needs --t")
        print(haxell_threshold(args.haxell, args.t))
        return EXIT_OK
    if mode == "simple":
        seq = simple_sequence(args.t)
    elif args.r < 2:
        raise ParameterError(f"--r must be at least 2, got {args.r}")
    elif args.epsilon is None:
        raise ParameterError("sequence generation needs --epsilon (or --simple)")
    elif args.r > 2:
        seq = hypergraph_grade_sequence(args.t, args.r, args.epsilon)
    else:
        seq = forest_grade_sequence(args.t, args.epsilon)
    print(",".join(str(v) for v in seq.values))
    print(f"epsilon={seq.epsilon}", file=sys.stderr)
    return EXIT_OK


# -- entry point ------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    # The commands build large acyclic trees (a parsed instance, its tables)
    # that the cyclic GC would walk again and again; pause it while they run.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except BrokenPipeError:
        try:
            sys.stdout.close()
        except OSError:
            pass
        return EXIT_OK
    except (
        ParameterError,
        SequenceError,
        ParseError,
        InstanceError,
        CertificateError,
        BuildSizeError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
