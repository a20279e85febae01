"""Acceptance suite: one test per headline guarantee, each ending with a
single PASS/FAIL line (run with -s to see them).

Two checks (a05, a06) target the degree-bounded variants at t = 1000 with a
materialized, certified instance.  Their complete numerology is verified
exactly, but the recursive construction multiplies its block count by every
grade value, so the t = 1000 instances would need ~1.6e22 blocks; no machine
can materialize them, and those two tests fail honestly after verifying
everything that is checkable.  See build_bounded_degree's size guard and the
profile assertions for the full arithmetic.
"""

import math
import random
import time
from fractions import Fraction

import pytest
from conftest import random_block_capped_instance, random_capped_degree_instance

from transversals import (
    BuildSizeError,
    GradeSequence,
    block_degree,
    bounded_degree_profile,
    build_bounded_degree,
    build_forest,
    build_hypergraph,
    build_local_degree,
    build_star_counterexample,
    check_certificate,
    check_ww_bound,
    count_transversals,
    find_transversal,
    forest_grade_sequence,
    hypergraph_grade_sequence,
    is_forest,
    local_degree_profile,
    max_block_average_degree,
    max_degree,
    minimal_hypergraph_t,
    minimal_t,
    mobius_orbit,
    propagate_certificate,
    read_instance,
    serialize_instance,
    simple_sequence,
    thickness,
    threshold_constant,
    validate_sequence,
)
from transversals.cli import main as cli_main


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")


def test_a01_forest_mechanics_desk_scale():
    start = time.perf_counter()
    seq = simple_sequence(6)
    assert seq.epsilon == Fraction(1, 6)
    inst = build_forest(6, seq)
    assert inst.num_vertices == 11742
    assert is_forest(inst)
    assert thickness(inst) == 6
    mbad = max_block_average_degree(inst)
    assert mbad <= (Fraction(1, 4) + Fraction(1, 6)) * 6
    cert = propagate_certificate(inst)
    assert cert is not None
    assert check_certificate(inst, cert)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report("a01 forest mechanics t=6", True, f"{elapsed:.2f}s, mbad={mbad}")


def test_a02_ground_truth_cross_check():
    cases = [(2, [0, 1, 2]), (2, [0, 2]), (3, [0, 3])]
    for t, values in cases:
        inst = build_forest(t, GradeSequence.from_values(t, values))
        cert = propagate_certificate(inst)
        assert cert is not None and check_certificate(inst, cert)
        result = count_transversals(inst)
        assert result.outcome == "count" and result.count == 0
    report("a02 counts agree with certifier at t<=3", True, f"{len(cases)} cases")


def test_a03_grade_sequence_generator():
    seq = forest_grade_sequence(20, Fraction(3, 10))
    assert seq.values == (0, 8, 13, 20)
    assert validate_sequence(seq) == []
    rng = random.Random(11)
    for _ in range(100):
        eps = Fraction(rng.randint(4, 80), 100)
        t = minimal_t(eps) + rng.randint(0, 200)
        generated = forest_grade_sequence(t, eps)
        assert generated.values[0] == 0 and generated.values[-1] == t
        assert all(b > a for a, b in zip(generated.values, generated.values[1:]))
        assert validate_sequence(generated) == []
    report("a03 grade sequence generator", True, "reference + 100 random pairs")


def test_a04_mobius_threshold():
    orbit = mobius_orbit(Fraction(1, 4), Fraction(0), max_steps=10**4)
    for n, z in enumerate(orbit.points[:51]):
        assert z == Fraction(n, 2 * n + 2)
    assert orbit.outcome.kind == "converged"
    assert orbit.outcome.limit == Fraction(1, 2)
    above = mobius_orbit(Fraction(1, 4) + Fraction(1, 1000), Fraction(0))
    assert above.outcome.kind == "escaped"
    assert above.outcome.step == 48  # frozen regression constant
    report("a04 Moebius threshold at 1/4", True, "escape step 48 at alpha=0.251")


def test_a05_bounded_degree_t1000():
    t, eps = 1000, Fraction(1, 20)
    profile = bounded_degree_profile(t, eps)
    # Exact geometry checks: join part sizes, forced-set size, peak degree.
    assert profile.part_sizes == (854, 293)
    assert profile.forced_size == 853
    assert profile.max_degree == 854
    assert profile.max_degree <= math.ceil(Fraction(854, 1000) * t)
    assert all(
        Fraction(d, t) <= (Fraction(1, 4) + eps) * t for d in profile.block_degrees
    )
    # Certification of the same geometry at a materializable scale.
    small = build_bounded_degree(14, Fraction(3, 10))
    small_cert = propagate_certificate(small)
    assert small_cert is not None and check_certificate(small, small_cert)

    start = time.perf_counter()
    try:
        inst = build_bounded_degree(t, eps)
    except BuildSizeError as exc:
        elapsed = time.perf_counter() - start
        detail = (
            f"geometry verified exactly (degree 854, block averages <= 300), but a "
            f"materialized certified instance needs {exc.predicted_blocks:.3e} blocks "
            f"(grade values {profile.grade_values}); no machine holds it, "
            f"refused after {elapsed:.2f}s"
        )
        report("a05 degree-bounded build t=1000", False, detail)
        pytest.fail(f"t=1000 degree-bounded instance cannot be materialized: {detail}")
    cert = propagate_certificate(inst)
    assert max_degree(inst) == 854
    assert max_block_average_degree(inst) <= (Fraction(1, 4) + eps) * t
    assert cert is not None and check_certificate(inst, cert)
    assert time.perf_counter() - start < 60.0
    report("a05 degree-bounded build t=1000", True)


def test_a06_local_degree_t1000():
    t, eps = 1000, Fraction(1, 20)
    profile = local_degree_profile(t, eps)
    assert profile.grade_values[1] == 270
    assert t - profile.grade_values[1] == 730 <= 731
    assert profile.local_degree == 731 <= 731
    # Certification of the same geometry at a materializable scale.
    small = build_local_degree(14, Fraction(3, 10))
    small_cert = propagate_certificate(small)
    assert small_cert is not None and check_certificate(small, small_cert)

    try:
        inst = build_local_degree(t, eps)
    except BuildSizeError as exc:
        detail = (
            f"local-degree profile verified exactly (n2=270, t-n2=730, local 731), "
            f"but the full instance needs {exc.predicted_blocks:.3e} blocks "
            f"(grade values {profile.grade_values}); cannot be materialized"
        )
        report("a06 local-degree build t=1000", False, detail)
        pytest.fail(f"t=1000 local-degree instance cannot be materialized: {detail}")
    from transversals import local_degree as local_degree_metric

    assert local_degree_metric(inst) <= 731
    cert = propagate_certificate(inst)
    assert cert is not None and check_certificate(inst, cert)
    report("a06 local-degree build t=1000", True)


def test_a07_hypergraph_mechanics():
    t, r, values = 3, 3, (0, 1, 3)
    inst = build_hypergraph(t, r, sequence_override=list(values))
    assert inst.num_blocks == 19
    assert inst.num_vertices == 57
    assert len(inst.edges) == 66
    for e in inst.edges:
        assert len({inst.block_of[v] for v in e}) == r
    cert = propagate_certificate(inst)
    top = max(inst.blocks, key=lambda b: b.grade)
    assert cert is not None and cert.conclusion == top.id
    assert check_certificate(inst, cert)
    for blk in inst.blocks:
        j = blk.grade - 1  # zero-based grade index
        own = values[j] * (t - values[j - 1]) ** (r - 1) if j >= 1 else 0
        incoming = (t - values[j]) ** (r - 1) if j < len(values) - 1 else 0
        assert block_degree(inst, blk.id) == own + incoming

    # Parameterized run at the smallest admissible t for epsilon = 0.07:
    # the per-grade block-degree formula must fit (c_3 + eps) t^3.  The
    # instance itself is out of reach (the block count multiplies per grade),
    # so the check runs on the exact per-grade counts.
    eps = Fraction(7, 100)
    assert eps < threshold_constant(3) / 2
    t_big = minimal_hypergraph_t(3, eps)
    assert t_big == 579
    seq = hypergraph_grade_sequence(t_big, 3, eps)
    assert seq.terminal
    budget = (threshold_constant(3) + eps) * t_big**3
    for j in range(len(seq.values) - 1):
        count = seq.values[j + 1] * (t_big - seq.values[j]) ** 2 + (
            t_big - seq.values[j + 1]
        ) ** 2
        assert count <= budget
    report(
        "a07 hypergraph mechanics",
        True,
        f"r=3 t=3 exact counts; t={t_big} per-grade degrees within budget",
    )


def test_a08_star_family():
    for k in range(1, 7):
        inst = build_star_counterexample(k)
        if k <= 3:
            assert count_transversals(inst).count == 0
        result = find_transversal(inst)
        assert result.outcome == "none_exhaustive"
        for blk in inst.blocks:
            d = block_degree(inst, blk.id)
            assert d * k == blk.size**2
            assert d == blk.size**2 // k
    report("a08 star family k=1..6", True, "no transversal, |B|^2/k met exactly")


def test_a09_ww_count_bound():
    rng = random.Random(9)
    violations = 0
    worst = None
    trials = 110
    for _ in range(trials):
        inst = random_block_capped_instance(4, 5, rng, block_cap=4)
        result = check_ww_bound(inst)
        assert result.status != "hypothesis_not_met"
        if result.status == "bound_violated":
            violations += 1
        worst = result.count if worst is None else min(worst, result.count)
    assert violations == 0
    assert worst is not None and worst >= 32
    report("a09 count lower bound", True, f"{trials} instances, worst count {worst}")


def test_a10_haxell_sanity():
    rng = random.Random(10)
    failures = 0
    trials = 0
    for t in (4, 6, 8):
        for _ in range(35):
            inst = random_capped_degree_instance(t, 4, rng, cap=t // 2)
            trials += 1
            if find_transversal(inst).outcome != "found":
                failures += 1
    assert trials >= 100
    assert failures == 0
    report("a10 existence under degree cap", True, f"{trials} instances, 0 failures")


def test_a11_determinism_and_round_trip(tmp_path):
    from pathlib import Path

    from transversals import parse_instance

    args = ["gen", "--kind", "forest", "--t", "6", "--epsilon", "0.2", "--seq", "simple"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    golden = Path(__file__).parent / "golden"
    for path in sorted(golden.glob("*.json")):
        if path.name.endswith(".cert.json"):
            continue
        data = path.read_bytes()
        assert serialize_instance(parse_instance(data)) == data

    inst = read_instance(a)
    first = find_transversal(inst)
    second = find_transversal(inst)
    assert first.outcome == second.outcome == "none_exhaustive"
    assert first.nodes_explored == second.nodes_explored
    report("a11 determinism and round trip", True)
