"""What one pass of each workload does, and the checks on every answer.

A workload is a list of items.  Each item is a function ``(rec, ctx)`` that
calls the package through ``rec.call`` (which times and traces the call) and
checks each answer through ``rec.check``.  Items run one after another; the
runner collects garbage between them, never inside a timed call.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import ModuleType
from typing import Callable

import generate
from recorder import OpFailed, Recorder

EPS = Fraction(3, 10)
COUNT_CAP = 1  # the counter decides existence: 0, or "more than zero"


@dataclass
class Context:
    """What set-up hands to the passes."""

    tx: ModuleType  # the transversals package
    cli: ModuleType  # transversals.cli
    workdir: Path  # scratch files for the in-process CLI item
    inputs: list = field(default_factory=list)  # generated RawInstances
    ref: dict = field(default_factory=dict)  # answers the CLI item must reproduce


Item = tuple[str, Callable[[Recorder, Context], None]]


# -- shared checks -------------------------------------------------------------


def independent(inst, assignment) -> bool:
    """The harness's own check that an assignment is an independent transversal."""
    if not isinstance(assignment, dict) or sorted(assignment) != list(range(inst.num_blocks)):
        return False
    chosen = set()
    for b, v in assignment.items():
        if v not in inst.blocks[b].members:
            return False
        chosen.add(v)
    return not any(all(u in chosen for u in e) for e in inst.edges)


def round_trip_instance(rec: Recorder, tx, inst) -> bytes:
    data = rec.call("serialization.serialize_instance", tx.serialize_instance, inst)
    rec.tally.add("serialization.instance_bytes", len(data))
    back = rec.call("serialization.parse_instance", tx.parse_instance, data)
    rec.check(back == inst, "parsed instance differs from the original")
    again = rec.call("serialization.serialize_instance", tx.serialize_instance, back)
    rec.check(again == data, "instance round trip is not byte-identical")
    return data


def round_trip_certificate(rec: Recorder, tx, cert) -> bytes:
    data = rec.call("serialization.serialize_certificate", tx.serialize_certificate, cert)
    back = rec.call("serialization.parse_certificate", tx.parse_certificate, data)
    rec.check(back == cert, "parsed certificate differs from the original")
    again = rec.call("serialization.serialize_certificate", tx.serialize_certificate, back)
    rec.check(again == data, "certificate round trip is not byte-identical")
    return data


STEP_KINDS = {
    "ForcedSetStep": "forced_set",
    "ForbiddenStep": "forbidden",
    "JoinForcedStep": "join_forced",
    "ForbiddenViaForcedStep": "forbidden_via_forced",
}


def certify(rec: Recorder, tx, inst):
    """Propagate and replay; returns the certificate or None."""
    cert = rec.call("solving.propagate_certificate", tx.propagate_certificate, inst)
    rec.tally.add("solving.certify_attempts")
    if cert is None:
        return None
    rec.tally.add("solving.certify_decided")
    rec.tally.add("solving.cert_steps", len(cert.steps))
    for step in cert.steps:
        rec.tally.add("solving.steps." + STEP_KINDS.get(type(step).__name__, "other"))
    replayed = rec.call("solving.check_certificate", tx.check_certificate, inst, cert)
    rec.check(replayed is True, "certificate does not replay")
    return cert


def solve(rec: Recorder, tx, inst):
    """The exact solver's report, or None if it raised."""
    try:
        report = rec.call("solving.find_transversal", tx.find_transversal, inst)
    except OpFailed:
        return None
    rec.tally.add("solving.solve_nodes", report.nodes_explored)
    return report


def verdict(
    rec: Recorder, tx, inst, solve_it: bool, count: bool, known_count: int | None = None
):
    """Certificate, exact search and independent count on one instance, each
    checked against the others.  A failing solver or counter does not stop
    the other one from running.  Returns the certificate, its bytes and the
    solver's report."""
    cert = certify(rec, tx, inst)
    cert_data = round_trip_certificate(rec, tx, cert) if cert is not None else None
    report = solve(rec, tx, inst) if solve_it else None
    counted = None
    if count:
        try:
            counted = rec.call(
                "solving.count_transversals", tx.count_transversals, inst, cap=COUNT_CAP
            )
        except OpFailed:
            pass
    if report is not None:
        if report.outcome == "found":
            rec.check(independent(inst, report.assignment), "found assignment is not independent")
            rec.check(cert is None, "solver found a transversal for a certified instance")
        else:
            rec.check(report.outcome == "none_exhaustive", f"solver outcome {report.outcome}")
    if counted is not None:
        rec.tally.add("solving.count_nodes", counted.nodes_explored)
        has_some = counted.outcome == "aborted" or (counted.count or 0) >= 1
        rec.check(counted.outcome in ("aborted", "count"), f"counter outcome {counted.outcome}")
        if cert is not None:
            rec.check(not has_some, "counter finds transversals of a certified instance")
        if report is not None:
            rec.check(has_some == (report.outcome == "found"), "counter and solver disagree")
        if known_count is not None:
            rec.check(
                counted.outcome == "aborted"
                if known_count > COUNT_CAP
                else counted.count == known_count,
                f"count differs from the known {known_count}",
            )
    if (report is not None or not solve_it) and (counted is not None or not count):
        rec.tally.add("verdicts")
    return cert, cert_data, report


def run_cli(rec: Recorder, cli, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = rec.call("cli.main", cli.main, argv)
    rec.check(code == 0, f"cli {argv[0]} exited {code}: {err.getvalue()[-200:]}")
    return out.getvalue()


def metrics_as_cli_json(metrics) -> dict:
    return {
        "per_block_degree": {str(k): v for k, v in metrics.per_block_degree.items()},
        "max_block_avg_degree": str(metrics.max_block_avg_degree),
        "max_degree": metrics.max_degree,
        "local_degree": metrics.local_degree,
        "thickness": metrics.thickness,
        "stretched_edges": metrics.stretched_edges,
    }


# -- ladders: build, validate, measure, certify, check, round-trip -----------


@dataclass(frozen=True)
class Build:
    """One construction: its builder and the exact numbers it must meet."""

    name: str
    builder: str  # build_forest | build_hypergraph | build_bounded_degree | ...
    t: int
    r: int = 2
    values: tuple[int, ...] | None = None  # explicit grade sequence
    simple: bool = False  # forest with simple_sequence(t)
    keep: bool = False  # keep its files for the CLI item
    # Keep the instance for the solve items.  Only join-free recursions:
    # propagation alone refutes them at the root node, while on the join
    # builds the solver has no budget and gives no answer in minutes.
    solve: bool = False


def tally_build(rec: Recorder, inst):
    rec.tally.add("builders.vertices", inst.num_vertices)
    rec.tally.add("builders.edges", len(inst.edges))
    return inst


def build(rec: Recorder, tx, spec: Build):
    """Build the instance and return it with its exact predictions:
    (sequence values, epsilon, profile or None)."""
    name = f"builders.{spec.builder}"
    if spec.builder == "build_forest":
        if spec.simple:
            seq = rec.call("sequences.simple_sequence", tx.simple_sequence, spec.t)
        else:
            seq = rec.call(
                "sequences.GradeSequence.from_values",
                tx.GradeSequence.from_values,
                spec.t,
                spec.values,
            )
        inst = tally_build(rec, rec.call(name, tx.build_forest, spec.t, seq))
        return inst, seq.values, seq.epsilon, None
    if spec.builder == "build_hypergraph":
        inst = tally_build(
            rec,
            rec.call(
                name, tx.build_hypergraph, spec.t, spec.r, sequence_override=list(spec.values)
            ),
        )
        return inst, spec.values, Fraction(inst.meta["epsilon"]), None
    if spec.builder == "build_hypergraph_bounded_degree":
        profile = rec.call(
            "builders.hypergraph_bounded_profile",
            tx.hypergraph_bounded_profile,
            spec.t,
            spec.r,
            sequence_override=list(spec.values),
        )
        inst = tally_build(
            rec,
            rec.call(
                name,
                tx.build_hypergraph_bounded_degree,
                spec.t,
                spec.r,
                sequence_override=list(spec.values),
            ),
        )
        return inst, profile.grade_values, profile.epsilon, profile
    profile_fn = {
        "build_bounded_degree": "bounded_degree_profile",
        "build_local_degree": "local_degree_profile",
    }[spec.builder]
    profile = rec.call(f"builders.{profile_fn}", getattr(tx, profile_fn), spec.t, EPS)
    inst = tally_build(rec, rec.call(name, getattr(tx, spec.builder), spec.t, EPS))
    return inst, profile.grade_values, profile.epsilon, profile


def expected_block_degrees(spec: Build, values, profile) -> dict[int, tuple[int, ...]]:
    """Grade -> the block degrees its blocks may have (exact, per grade)."""
    t, r = spec.t, spec.r
    if profile is None:  # plain recursion: own heavy edges plus the parent's
        out = {}
        for j in range(len(values)):
            own = values[j] * (t - values[j - 1]) ** (r - 1) if j >= 1 else 0
            incoming = (t - values[j]) ** (r - 1) if j < len(values) - 1 else 0
            out[j + 1] = (own + incoming,)
        return out
    # gadget blocks first (one degree per gadget part), then grades 2..k
    degrees = profile.block_degrees
    out = {1: tuple(degrees[:r])}
    for j in range(2, len(values) + 1):
        out[j] = (degrees[r + j - 2],)
    return out


def check_build(rec: Recorder, tx, spec: Build, inst, metrics, values, eps, profile) -> None:
    if profile is not None:
        pred = profile.prediction
        gadget = profile.part_sizes
    else:
        pred = rec.call("builders.predict_size", tx.predict_size, spec.t, spec.r, values)
        gadget = None
    rec.check(
        (inst.num_blocks, inst.num_vertices, len(inst.edges))
        == (pred.blocks, pred.vertices, pred.edges),
        f"size {inst} differs from the prediction {pred}",
    )
    allowed = expected_block_degrees(spec, values, profile)
    per_grade: dict[int, dict[int, int]] = {}
    for blk in inst.blocks:
        seen = per_grade.setdefault(blk.grade, {})
        d = metrics.per_block_degree[blk.id]
        seen[d] = seen.get(d, 0) + 1
    ok = set(per_grade) == set(allowed)
    for grade, seen in per_grade.items():
        want = allowed.get(grade, ())
        ok = ok and set(seen) == set(want)
        if gadget is not None and grade == 1:  # every gadget part equally often
            ok = ok and len(set(seen.values())) == 1
    rec.check(ok, f"block degrees {per_grade} differ from the prediction {allowed}")
    if profile is not None:
        rec.check(
            metrics.max_degree == profile.max_degree
            and metrics.local_degree == profile.local_degree,
            f"max/local degree {metrics.max_degree}/{metrics.local_degree} differ from "
            f"the profile's {profile.max_degree}/{profile.local_degree}",
        )
        bounded = metrics.local_degree if spec.builder == "build_local_degree" else metrics.max_degree
        rec.check(
            bounded <= profile.max_degree_bound,
            f"degree {bounded} exceeds the target bound {profile.max_degree_bound}",
        )
    bound = (tx.threshold_constant(spec.r) + eps) * spec.t ** (spec.r - 1)
    rec.check(
        metrics.max_block_avg_degree <= bound,
        f"max block average degree {metrics.max_block_avg_degree} exceeds {bound}",
    )


def ladder_item(spec: Build) -> Item:
    def run(rec: Recorder, ctx: Context) -> None:
        tx = ctx.tx
        inst, values, eps, profile = build(rec, tx, spec)
        fresh = rec.call(
            "model.PartitionedInstance",
            tx.PartitionedInstance,
            inst.r,
            inst.blocks,
            inst.edges,
            roles=inst.roles,
            meta=inst.meta,
        )
        rec.check(fresh == inst, "re-validated instance differs from the build")
        rec.call("model.adjacency", fresh.adjacency if inst.r == 2 else fresh.incident_edges)
        metrics = rec.call("model.compute_metrics", tx.compute_metrics, inst)
        check_build(rec, tx, spec, inst, metrics, values, eps, profile)
        cert, cert_data, _ = verdict(rec, tx, inst, solve_it=False, count=False)
        rec.check(cert is not None, "propagation did not refute the construction")
        data = round_trip_instance(rec, tx, inst)
        if spec.solve:
            ctx.ref["solve"] = inst
        if spec.keep:
            ctx.ref.update(
                instance=data, certificate=cert_data, metrics=metrics_as_cli_json(metrics)
            )

    return spec.name, run


def desk_item(spec: Build) -> Item:
    """Ground truth at desk scale: a small member of the same family, where
    the independent counter finishes and must agree with the certificate."""

    def run(rec: Recorder, ctx: Context) -> None:
        inst = build(rec, ctx.tx, spec)[0]
        cert = verdict(rec, ctx.tx, inst, solve_it=False, count=True, known_count=0)[0]
        rec.check(cert is not None, "propagation did not refute the construction")

    return spec.name, run


def solve_item(name: str) -> Item:
    """The exact solver on the kept root-refuted ladder instance."""

    def run(rec: Recorder, ctx: Context) -> None:
        report = solve(rec, ctx.tx, ctx.ref["solve"])
        if report is not None:
            rec.check(
                (report.outcome, report.nodes_explored) == ("none_exhaustive", 1),
                f"solver on a refuted construction: {report.outcome}, "
                f"{report.nodes_explored} nodes",
            )
            rec.tally.add("verdicts")

    return name, run


def cli_item(gen_args: list[str]) -> Item:
    """gen, certify and metrics through ``cli.main`` on the kept ladder item;
    each output must equal what the library produced for it."""

    def run(rec: Recorder, ctx: Context) -> None:
        inst_path = ctx.workdir / "instance.json"
        cert_path = ctx.workdir / "instance.cert.json"
        run_cli(rec, ctx.cli, ["gen", *gen_args, "--out", str(inst_path)])
        rec.check(inst_path.read_bytes() == ctx.ref["instance"], "cli gen output differs")
        run_cli(rec, ctx.cli, ["certify", str(inst_path), "--out", str(cert_path)])
        rec.check(cert_path.read_bytes() == ctx.ref["certificate"], "cli certificate differs")
        out = run_cli(rec, ctx.cli, ["metrics", str(inst_path), "--format", "json"])
        rec.check(json.loads(out) == ctx.ref["metrics"], "cli metrics differ")

    return "cli", run


def numerology_r2(rec: Recorder, ctx: Context) -> None:
    """The t = 1000 numerology: exact values the paper's bounds rest on."""
    tx, eps = ctx.tx, Fraction(1, 20)
    p = rec.call("builders.bounded_degree_profile", tx.bounded_degree_profile, 1000, eps)
    rec.check(
        (p.part_sizes, p.forced_size, p.max_degree) == ((854, 293), 853, 854)
        and all(Fraction(d, 1000) <= (Fraction(1, 4) + eps) * 1000 for d in p.block_degrees),
        f"bounded profile {p.part_sizes} {p.forced_size} {p.max_degree}",
    )
    q = rec.call("builders.local_degree_profile", tx.local_degree_profile, 1000, eps)
    rec.check(
        (q.grade_values[1], q.local_degree) == (270, 731),
        f"local profile n2={q.grade_values[1]} local={q.local_degree}",
    )
    hypergraph_numerology(rec, tx)
    orbit = rec.call(
        "sequences.mobius_orbit", tx.mobius_orbit, Fraction(1, 4), Fraction(0), 10**4
    )
    rec.check(
        orbit.outcome.kind == "converged"
        and orbit.outcome.limit == Fraction(1, 2)
        and all(z == Fraction(n, 2 * n + 2) for n, z in enumerate(orbit.points[:51])),
        f"Moebius orbit at 1/4: {orbit.outcome}",
    )


def hypergraph_numerology(rec: Recorder, tx) -> None:
    """r = 3 at t = 579, the smallest t admitting epsilon = 7/100."""
    eps = Fraction(7, 100)
    seq = rec.call(
        "sequences.hypergraph_grade_sequence", tx.hypergraph_grade_sequence, 579, 3, eps
    )
    budget = (tx.threshold_constant(3) + eps) * 579**3
    v = seq.values
    rec.check(
        seq.terminal
        and (v[0], v[-1]) == (0, 579)
        and all(
            v[j + 1] * (579 - v[j]) ** 2 + (579 - v[j + 1]) ** 2 <= budget
            for j in range(len(v) - 1)
        ),
        f"hypergraph grade sequence {v}",
    )


def numerology_r3(rec: Recorder, ctx: Context) -> None:
    tx = ctx.tx
    t = rec.call(
        "sequences.minimal_hypergraph_t", tx.minimal_hypergraph_t, 3, Fraction(7, 100)
    )
    rec.check(t == 579, f"minimal hypergraph t is {t}")
    hypergraph_numerology(rec, tx)


def desk_round(solve_name: str, family: str, r: int, members) -> list[Item]:
    """One solve of the kept ladder instance and one count of each desk-scale
    member.  A pass runs several rounds spread between the large items, and
    an item's latency is the median over its rounds: the host's speed drifts
    over seconds, so back-to-back repeats would all see the same state."""
    return [solve_item(solve_name)] + [
        desk_item(Build(f"desk-{family}-t{t}-{'.'.join(map(str, v))}", f"build_{family}", t, r, v))
        for t, v in members
    ]


# counts of 50-170 ms: counts of a few ms swung by 2x from run to run
DESK_R2 = desk_round(
    "forest-t7-solve",
    "forest",
    2,
    ((5, (0, 1, 2, 5)), (5, (0, 1, 3, 5)), (5, (0, 2, 3, 5)), (6, (0, 1, 2, 6)), (4, (0, 1, 2, 3, 4))),
)
# no other small r = 3 member counts in under a second
DESK_R3 = desk_round("hypergraph-t6-solve", "hypergraph", 3, ((2, (0, 2)), (2, (0, 1, 2)), (3, (0, 3))))

LADDER_R2: list[Item] = [
    ladder_item(Build("forest-t7", "build_forest", 7, simple=True, solve=True)),
    *DESK_R2,
    ladder_item(Build("bounded-t14", "build_bounded_degree", 14, keep=True)),
    *DESK_R2,
    ladder_item(Build("local-t14", "build_local_degree", 14)),
    *DESK_R2,
    ("numerology-t1000", numerology_r2),
    cli_item(["--kind", "bounded_degree", "--t", "14", "--epsilon", "3/10"]),
    *DESK_R2,
]

LADDER_R3: list[Item] = [
    ladder_item(
        Build("hypergraph-t6", "build_hypergraph", 6, 3, (0, 1, 2, 4, 6), keep=True, solve=True)
    ),
    *DESK_R3,
    ladder_item(Build("hbounded-t21", "build_hypergraph_bounded_degree", 21, 3, (0, 3, 21))),
    *DESK_R3,
    ("numerology-t579", numerology_r3),
    cli_item(["--kind", "hypergraph", "--t", "6", "--r", "3", "--seq", "0,1,2,4,6"]),
    *DESK_R3,
]


# -- search: seeded random batch, stars and a chain --------------------------


def make_instance(tx, raw: generate.RawInstance):
    blocks = [tx.Block(id=i, members=m) for i, m in enumerate(raw.blocks)]
    return tx.PartitionedInstance(2, blocks, raw.edges)


def search_item(raw: generate.RawInstance) -> Item:
    def run(rec: Recorder, ctx: Context) -> None:
        tx = ctx.tx
        inst = rec.call("model.PartitionedInstance", make_instance, tx, raw)
        rec.call("model.adjacency", inst.adjacency)
        metrics = rec.call("model.compute_metrics", tx.compute_metrics, inst)
        t = len(raw.blocks[0])
        rec.check(
            metrics.thickness == t and metrics.max_degree <= generate.MAX_DEGREE,
            f"generated thickness {metrics.thickness}, max degree {metrics.max_degree}",
        )
        haxell = rec.call("sequences.haxell_threshold", tx.haxell_threshold, inst.num_blocks, t)
        data = round_trip_instance(rec, tx, inst)
        report = verdict(rec, tx, inst, solve_it=True, count=True, known_count=raw.known_count)[2]
        if report is not None and metrics.max_degree <= haxell:
            rec.check(report.outcome == "found", "Haxell's bound guarantees a transversal")
        if "instance" not in ctx.ref and report is not None:
            ctx.ref.update(instance=data, report=report)

    return raw.name, run


def star_item(k: int) -> Item:
    def run(rec: Recorder, ctx: Context) -> None:
        tx = ctx.tx
        inst = tally_build(
            rec, rec.call("builders.build_star_counterexample", tx.build_star_counterexample, k)
        )
        round_trip_instance(rec, tx, inst)
        # The counter is exponential on stars beyond k = 3; k = 4 is solved only.
        cert = verdict(rec, tx, inst, solve_it=True, count=k <= 3, known_count=0)[0]
        rec.check(cert is not None, f"stars k={k} not refuted by propagation")

    return f"stars-k{k}", run


def search_cli(rec: Recorder, ctx: Context) -> None:
    """solve and count through ``cli.main`` on the batch's first instance."""
    path = ctx.workdir / "search.json"
    path.write_bytes(ctx.ref["instance"])
    report = ctx.ref["report"]
    solved = json.loads(run_cli(rec, ctx.cli, ["solve", str(path)]))
    rec.check(
        (solved["outcome"], solved["nodes_explored"]) == (report.outcome, report.nodes_explored),
        f"cli solve {solved['outcome']} differs from the library",
    )
    counted = json.loads(run_cli(rec, ctx.cli, ["count", str(path), "--cap", str(COUNT_CAP)]))
    rec.check(
        (counted["outcome"] == "aborted" or counted["count"] > 0) == (report.outcome == "found"),
        "cli count disagrees with the solver",
    )


WARMUP_SEARCH = 16  # random instances run once before timing


def search_items(ctx: Context) -> list[Item]:
    return (
        [search_item(raw) for raw in ctx.inputs]
        + [star_item(k) for k in (2, 3, 4)]
        + [search_item(generate.chain(300)), ("cli", search_cli)]
    )


# -- workloads -------------------------------------------------------------------


def desk_warmup(items: list[Item]) -> list[Item]:
    """Each desk-scale item once: the ladders' code paths at a small size."""
    return list({name: (name, fn) for name, fn in items if name.startswith("desk-")}.values())


@dataclass(frozen=True)
class Workload:
    prepare: Callable[[int], list]  # seed -> generated inputs (plain data)
    items: Callable[[Context], list[Item]]
    # The items run once, unmeasured, before timing starts.  Only small ones:
    # a discarded pass of the large ladder items would take most of the run.
    warmup: Callable[[list[Item]], list[Item]]
    # (item, call) -> exception type that is a recorded known defect
    known_defects: dict[tuple[str, str], str] = field(default_factory=dict)


WORKLOADS = {
    "ladder-r2": Workload(lambda seed: [], lambda ctx: LADDER_R2, desk_warmup),
    "ladder-r3": Workload(lambda seed: [], lambda ctx: LADDER_R3, desk_warmup),
    "search-r2": Workload(generate.random_batch, search_items, lambda items: items[:WARMUP_SEARCH]),
    # Not in BENCHMARK.json: the exact solver and the counter recurse once per
    # block, so a 1200-block chain overflows the interpreter stack.  Run it to
    # see whether the defect is still there.
    "defects": Workload(
        lambda seed: [generate.chain(1200)],
        lambda ctx: [search_item(raw) for raw in ctx.inputs],
        lambda items: [],
        {
            ("chain-1200", "solving.find_transversal"): "RecursionError",
            ("chain-1200", "solving.count_transversals"): "RecursionError",
        },
    ),
}
