"""Benchmark for the transversals package: end-to-end and per-layer timings.

    python3 benchmarks/run.py --workload ladder-r2 --seed 20261017 --seconds 35 --trace 0

Run from the root of a checkout.  The harness imports the package from
``src/`` (never from an installed copy), sets up the workload several times,
runs the workload's small items once as a warm-up that it discards, then
runs the workload's items cycle after cycle for about ``--seconds`` (at
least one full pass).  With ``--trace 1`` cycles alternate untraced and traced,
and it reports per-layer metrics instead.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A readable report goes to stderr, and the full
record (quartiles, sample counts, failures, environment and, when traced,
every span) to ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from recorder import Recorder, Tally, self_times
from workloads import WORKLOADS, Context

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
DEFAULT_SEED = 20261017
SETUP_REPEATS = 5
LAYERS = ("builders", "model", "sequences", "solving", "serialization", "cli", "harness")


def import_package():
    """A fresh import of the package from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "transversals" / "__init__.py").is_file():
        raise ImportError(f"no transversals package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "transversals" or m.startswith("transversals.")]:
        del sys.modules[name]
    tx = importlib.import_module("transversals")
    cli = importlib.import_module("transversals.cli")
    if Path(tx.__file__).resolve().parent != src / "transversals":
        raise ImportError(f"transversals imported from {tx.__file__}, not {src}")
    return tx, cli


def setup(workload, seed: int, workdir: Path) -> tuple[Context, list[float]]:
    """Import the package and generate the inputs, SETUP_REPEATS times."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        tx, cli = import_package()
        inputs = workload.prepare(seed)
        samples.append(time.perf_counter() - start)
    workdir.mkdir(parents=True, exist_ok=True)
    return Context(tx=tx, cli=cli, workdir=workdir, inputs=inputs), samples


def run_item(rec: Recorder, ctx: Context, name: str, fn) -> None:
    with rec.item_scope(name):
        fn(rec, ctx)
    gc.collect()


def measure(rec: Recorder, ctx: Context, items, seconds: float, trace: bool) -> list[float]:
    """Run the items in order, cycle after cycle, and return the duration of
    each full pass.  The first cycle (two when tracing: cycles alternate
    untraced and traced) runs every item.  After that an item is skipped when
    its last duration would take the run past ``seconds``, so the small items
    fill the end of the run; the run stops when no item fits any more."""
    needed = 2 if trace else 1
    last: dict[str, float] = {}
    passes: list[float] = []
    start = time.perf_counter()
    for cycle in itertools.count():
        rec.tracing = trace and cycle % 2 == 1
        elapsed, ran = 0.0, 0
        for name, fn in items:
            if cycle >= needed and time.perf_counter() - start + last[name] > seconds:
                continue
            run_item(rec, ctx, name, fn)
            last[name] = rec.tally.elapsed
            elapsed += rec.tally.elapsed
            ran += 1
        if ran == len(items):
            passes.append(elapsed)
        elif ran == 0:
            return passes


# -- metrics ---------------------------------------------------------------------
#
# On a shared host the same code runs at one of two speeds, the slower up to
# 1.85x the faster, switching every few seconds; how much of a run falls in
# the slow state varies from run to run.  An item's mean over its executions
# moves smoothly with that share.  Its median or its fastest execution jumps
# between the two speeds instead: on a 2-vCPU KVM guest their spreads over
# identical runs reached 0.47-0.58 and 0.49 (quartile distance over median),
# the mean's 0.32.  So an item's cost in a run is the mean over its
# executions, and a pass's worth of a quantity is the sum of those over the
# items of one pass.


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def by_item(pairs) -> dict[str, list[float]]:
    """(item, value) pairs -> item -> its values."""
    out: dict[str, list[float]] = {}
    for item, value in pairs:
        out.setdefault(item, []).append(value)
    return out


def pass_total(names: list[str], pairs) -> float:
    """One pass's worth of a quantity given as (item, value) pairs, one per
    execution: each item's mean, summed over the pass (an item listed twice
    counts twice)."""
    means = {k: statistics.fmean(v) for k, v in by_item(pairs).items()}
    return sum(means[name] for name in names)


def latencies(tallies: list[Tally], call: str) -> list[float]:
    """One latency per item that makes the call: the mean of its calls in
    the run."""
    pooled = by_item((t.item, d) for t in tallies for d in t.samples(call))
    return [statistics.fmean(v) for v in pooled.values()]


def time_in(tally: Tally, pred) -> float:
    """Total duration of the item's calls whose name satisfies pred."""
    return sum(sum(d) for name, d in tally.durations.items() if pred(name))


PROOF_CALLS = (
    "solving.propagate_certificate",
    "solving.check_certificate",
    "solving.find_transversal",
)


def proof_time(tally: Tally) -> float:
    return time_in(tally, lambda k: k.startswith("builders.build") or k in PROOF_CALLS)


def end_to_end(names: list[str], tallies: list[Tally], setup_samples: list[float]) -> dict:
    """name -> {value, n, unit}; n is the number of samples behind it."""
    n = len(tallies)
    pipeline = pass_total(names, [(t.item, t.elapsed) for t in tallies])
    verdicts = pass_total(names, [(t.item, t.counts.get("verdicts", 0)) for t in tallies])
    out = {
        "setup_s": dict(quartiles(setup_samples), unit="s"),
        "pipeline_s": {"value": pipeline, "n": n, "unit": "s"},
        "proof_s": {
            "value": pass_total(names, [(t.item, proof_time(t)) for t in tallies]),
            "n": n,
            "unit": "s",
        },
        "verdicts_per_s": {"value": verdicts / pipeline, "n": n, "unit": "1/s"},
    }
    for short, call in (("solve", "solving.find_transversal"), ("count", "solving.count_transversals")):
        samples = [1000 * d for d in latencies(tallies, call)]
        if not samples:  # every call failed, as on the defects workload
            continue
        for pct in (50, 90):
            out[f"{short}_p{pct}_ms"] = {
                "value": percentile(samples, pct),
                "n": len(samples),
                "unit": "ms",
            }
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    out["peak_rss_mb"] = {"value": rss, "n": 1, "unit": "MB"}
    return out


NUMEROLOGY = {
    "builders.bounded_degree_profile",
    "builders.local_degree_profile",
    "sequences.hypergraph_grade_sequence",
    "sequences.minimal_hypergraph_t",
    "sequences.mobius_orbit",
    "sequences.haxell_threshold",
}
COUNTS = (
    "builders.vertices",
    "builders.edges",
    "solving.cert_steps",
    "solving.certify_attempts",
    "solving.certify_decided",
    "solving.solve_nodes",
    "solving.count_nodes",
    "serialization.instance_bytes",
) + tuple(
    f"solving.steps.{kind}"
    for kind in ("forced_set", "forbidden", "join_forced", "forbidden_via_forced")
)
CALL_TIMES = {
    "model.validate_s": "model.PartitionedInstance",
    "model.metrics_s": "model.compute_metrics",
    "model.adjacency_s": "model.adjacency",
    "solving.certify_s": "solving.propagate_certificate",
    "solving.check_s": "solving.check_certificate",
    "solving.solve_s": "solving.find_transversal",
    "solving.count_s": "solving.count_transversals",
    "serialization.serialize_s": "serialization.serialize_instance",
    "serialization.parse_s": "serialization.parse_instance",
    "serialization.cert_serialize_s": "serialization.serialize_certificate",
    "serialization.cert_parse_s": "serialization.parse_certificate",
    "cli.run_s": "cli.main",
}

DERIVED_UNITS = {
    "builders.cells_per_s": "1/s",
    "solving.certify_decided_ratio": "ratio",
    "solving.solve_ms_per_node": "ms",
    "solving.count_us_per_node": "us",
    "serialization.parse_mb_per_s": "MB/s",
    "trace.self_coverage": "ratio",
    "trace.overhead_ratio": "ratio",
}


def layer_values(tally: Tally, own: dict[str, float]) -> dict[str, float]:
    """The additive per-layer quantities of one traced item execution."""
    v = {name: tally.counts.get(name, 0) for name in COUNTS}
    for name, call in CALL_TIMES.items():
        v[name] = sum(tally.samples(call))
    v["builders.build_s"] = time_in(tally, lambda k: k.startswith("builders.build"))
    v["sequences.numerology_s"] = time_in(tally, lambda k: k in NUMEROLOGY)
    for layer in LAYERS:
        v[f"self.{layer}_s"] = own.get(layer, 0.0)
    v["trace.pipeline_s"] = tally.elapsed
    return v


def per_layer(names: list[str], traced: list[Tally], untraced: list[Tally], spans) -> dict:
    own = self_times(spans)
    values = [(t.item, layer_values(t, own[t.root])) for t in traced]
    m = {k: pass_total(names, [(item, v[k]) for item, v in values]) for k in values[0][1]}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m["builders.cells_per_s"] = ratio(m["builders.vertices"] + m["builders.edges"], m["builders.build_s"])
    m["solving.certify_decided_ratio"] = ratio(
        m.pop("solving.certify_decided"), m.pop("solving.certify_attempts")
    )
    m["solving.solve_ms_per_node"] = ratio(1000 * m.pop("solving.solve_s"), m["solving.solve_nodes"])
    m["solving.count_us_per_node"] = ratio(1e6 * m.pop("solving.count_s"), m["solving.count_nodes"])
    m["serialization.parse_mb_per_s"] = ratio(
        m["serialization.instance_bytes"] / 1e6, m["serialization.parse_s"]
    )
    m["trace.self_coverage"] = ratio(
        sum(m[f"self.{layer}_s"] for layer in LAYERS), m["trace.pipeline_s"]
    )
    m["trace.untraced_pipeline_s"] = pass_total(names, [(t.item, t.elapsed) for t in untraced])
    m["trace.overhead_ratio"] = m["trace.pipeline_s"] / m["trace.untraced_pipeline_s"] - 1
    out = {}
    for name, value in m.items():
        unit = "count" if name in COUNTS else DERIVED_UNITS.get(name, "s")
        out[name] = {"value": value, "n": len(traced), "unit": unit}
    return out


# -- entry point -------------------------------------------------------------------


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    try:
        ctx, setup_samples = setup(workload, args.seed, workdir)
    except ImportError as exc:
        print(f"error: cannot import the package: {exc}", file=sys.stderr)
        return 2
    try:
        items = workload.items(ctx)
        rec = Recorder(tracing=False, expected_errors=workload.known_defects)
        gc.collect()
        gc.disable()  # collected between items instead, never inside a timed call
        for name, fn in workload.warmup(items):
            run_item(rec, ctx, name, fn)
        rec.tallies.clear()  # the warm-up is not measured
        passes = measure(rec, ctx, items, args.seconds, bool(args.trace))
        gc.enable()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    names = [name for name, _ in items]
    untraced = [t for t in rec.tallies if not t.traced]
    if args.trace:
        traced = [t for t in rec.tallies if t.traced]
        rows = per_layer(names, traced, untraced, rec.spans)
    else:
        rows = end_to_end(names, untraced, setup_samples)
    result = {
        "correct": rec.correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in rows.items()},
    }

    print(f"{args.workload} seed={args.seed} trace={args.trace}", file=sys.stderr)
    for name, row in rows.items():
        spread = f" [q1 {row['q1']:.6g}, q3 {row['q3']:.6g}]" if "q1" in row else ""
        print(f"  {name:34s} {row['value']:.6g} {row['unit']}{spread} n={row['n']}", file=sys.stderr)
    full = quartiles(passes)
    print(
        f"  full passes: median {full['value']:.6g} s [q1 {full['q1']:.6g}, q3 {full['q3']:.6g}]"
        f" n={full['n']}",
        file=sys.stderr,
    )
    print(
        f"  failed_ratio {rec.failed}/{rec.attempted} = {rec.failed / rec.attempted:.3g}",
        file=sys.stderr,
    )
    for failure in rec.failures[:20]:
        print(f"  failed: {failure}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "setup_samples_s": setup_samples,
        "full_pass_seconds": passes,
        "item_seconds": by_item((t.item, t.elapsed) for t in untraced),
        "item_call_seconds": {
            item: by_item(
                (call, sum(d)) for t in untraced if t.item == item for call, d in t.durations.items()
            )
            for item in dict.fromkeys(names)
        },
        "summary": rows,
        "failed_ratio": rec.failed / rec.attempted,
        "failures": rec.failures,
        **result,
    }
    if args.trace:
        t0 = rec.spans[0].start if rec.spans else 0.0
        record["spans"] = [
            [s.id, s.name, s.start - t0, s.end - t0, s.parent, s.item] for s in rec.spans
        ]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
