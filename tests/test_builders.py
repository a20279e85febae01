import math
import random
import re
from fractions import Fraction

import pytest

from transversals import (
    HEAVY,
    LIGHT,
    BuildRecipe,
    BuildSizeError,
    DegreeBoundedProfile,
    GradeSequence,
    ParameterError,
    SequenceError,
    SizePrediction,
    block_degree,
    bounded_degree_profile,
    build,
    build_bounded_degree,
    build_forest,
    build_hypergraph,
    build_hypergraph_bounded_degree,
    build_local_degree,
    build_star_counterexample,
    check_certificate,
    compute_metrics,
    forest_grade_sequence,
    hypergraph_bounded_parts,
    hypergraph_bounded_profile,
    is_forest,
    local_degree,
    local_degree_profile,
    max_block_average_degree,
    max_degree,
    pad_blocks,
    predict_size,
    propagate_certificate,
    serialize_instance,
    simple_sequence,
    thickness,
    threshold_constant,
)
from transversals.builders import (
    DEFAULT_BOUNDED_ALPHA,
    DEFAULT_MAX_CELLS,
    LOCAL_ALPHA,
    LOCAL_DEGREE_RATIO,
)
from transversals.builders import _hypergraph_values
from transversals.sequences import _run_floor_recurrence, grade_block_degree


def seq_of(t, values):
    return GradeSequence.from_values(t, values)


class TestBuildForest:
    def test_two_grades_t3(self):
        inst = build_forest(3, seq_of(3, [0, 3]))
        assert inst.num_blocks == 4
        assert inst.num_vertices == 12
        assert len(inst.edges) == 9
        top = max(inst.blocks, key=lambda b: b.grade)
        assert all(inst.roles[v] == HEAVY for v in top.members)

    def test_three_grades_t2(self):
        inst = build_forest(2, seq_of(2, [0, 1, 2]))
        # block recurrence N_1 = 1, N_{j+1} = 1 + n_{j+1} N_j gives 1, 2, 5
        assert inst.num_blocks == 5
        assert len(inst.edges) == 6

    def test_block_count_recurrence_simple_t6(self):
        inst = build_forest(6, simple_sequence(6))
        counts = [1]
        for n in simple_sequence(6).values[1:]:
            counts.append(1 + n * counts[-1])
        assert counts == [1, 2, 5, 16, 65, 326, 1957]
        assert inst.num_blocks == counts[-1]
        assert inst.num_vertices == counts[-1] * 6

    def test_edge_count_recurrence(self):
        # independent oracle: E_1 = 0, E_{j+1} = n_{j+1} (E_j + (t - n_j))
        t, values = 6, simple_sequence(6).values
        expected = 0
        for j in range(1, len(values)):
            expected = values[j] * (expected + (t - values[j - 1]))
        inst = build_forest(t, simple_sequence(t))
        assert len(inst.edges) == expected == 9786

    def test_structural_properties(self):
        inst = build_forest(6, simple_sequence(6))
        assert is_forest(inst)
        assert thickness(inst) == 6
        adjacency = inst.adjacency()
        for blk in inst.blocks:
            lights = [v for v in blk.members if inst.roles[v] == LIGHT]
            heavies = [v for v in blk.members if inst.roles[v] == HEAVY]
            assert len(heavies) == (0 if blk.grade == 1 else simple_sequence(6).values[blk.grade - 1])
            for v in lights:
                assert len(adjacency[v]) <= 1
        # no intra-block edges
        for u, v in inst.edges:
            assert inst.block_of[u] != inst.block_of[v]

    def test_heavy_degrees_match_grades(self):
        t, seq = 6, simple_sequence(6)
        inst = build_forest(t, seq)
        adjacency = inst.adjacency()
        for blk in inst.blocks:
            if blk.grade == 1:
                continue
            heavies = [v for v in blk.members if inst.roles[v] == HEAVY]
            expected = t - seq.values[blk.grade - 2]
            assert all(len(adjacency[v]) == expected for v in heavies)

    def test_heavy_degree_monotone_in_grade(self):
        t, seq = 6, simple_sequence(6)
        inst = build_forest(t, seq)
        adjacency = inst.adjacency()
        by_grade = {}
        for blk in inst.blocks:
            heavies = [v for v in blk.members if inst.roles[v] == HEAVY]
            if heavies:
                by_grade[blk.grade] = len(adjacency[heavies[0]])
        grades = sorted(by_grade)
        assert all(by_grade[a] >= by_grade[b] for a, b in zip(grades, grades[1:]))

    def test_average_degree_bound(self):
        seq = simple_sequence(6)
        inst = build_forest(6, seq)
        assert max_block_average_degree(inst) == Fraction(5, 2)
        assert max_block_average_degree(inst) <= (Fraction(1, 4) + seq.epsilon) * 6

    def test_rejects_mismatched_or_invalid_sequences(self):
        with pytest.raises(SequenceError):
            build_forest(5, seq_of(3, [0, 3]))
        with pytest.raises(ParameterError):
            build_forest(3, seq_of(3, [0, 2]))  # does not end at t

    def test_deterministic_bytes(self):
        a = build_forest(4, seq_of(4, [0, 2, 4]))
        b = build_forest(4, seq_of(4, [0, 2, 4]))
        assert serialize_instance(a) == serialize_instance(b)


class TestBuildHypergraph:
    def test_r2_matches_forest_edges(self):
        seq = seq_of(4, [0, 2, 4])
        forest = build_forest(4, seq)
        hyper = build_hypergraph(4, 2, sequence_override=[0, 2, 4])
        assert forest.edges == hyper.edges
        assert [b.members for b in forest.blocks] == [b.members for b in hyper.blocks]
        assert forest.roles == hyper.roles

    def test_r3_reference_instance(self):
        inst = build_hypergraph(3, 3, sequence_override=[0, 1, 3])
        assert inst.num_blocks == 19
        assert inst.num_vertices == 57
        assert len(inst.edges) == 66

    def test_r3_every_edge_stretched(self):
        inst = build_hypergraph(3, 3, sequence_override=[0, 1, 3])
        for e in inst.edges:
            assert len({inst.block_of[v] for v in e}) == 3

    def test_r3_per_block_degree_formula(self):
        # grade-(j+1) blocks meet n_{j+1} (t-n_j)^{r-1} + (t-n_{j+1})^{r-1} edges
        t, values = 3, (0, 1, 3)
        inst = build_hypergraph(t, 3, sequence_override=values)
        expected = {1: 9, 2: 13, 3: 12}
        for blk in inst.blocks:
            assert block_degree(inst, blk.id) == expected[blk.grade]
        for j in range(1, len(values)):
            own = values[j] * (t - values[j - 1]) ** 2
            incoming = (t - values[j]) ** 2 if j < len(values) - 1 else 0
            assert expected[j + 1] == own + incoming

    def test_light_vertex_degree_formula(self):
        # a light vertex of an attached grade-j root lies in (t-n_j)^(r-2) edges
        inst = build_hypergraph(3, 3, sequence_override=[0, 1, 3])
        incident = inst.incident_edges()
        top = max(b.grade for b in inst.blocks)
        for blk in inst.blocks:
            if blk.grade == top:
                continue
            lights = [v for v in blk.members if inst.roles[v] == LIGHT]
            expected = (3 - (0, 1, 3)[blk.grade - 1]) ** 1
            got = sorted(len(incident[v]) for v in lights)
            # roots of the top unit are consumed once; all are attached here
            assert got == [expected] * len(lights)

    def test_override_blocks_meet_recorded_budget(self):
        inst = build_hypergraph(6, 2, sequence_override=[0, 2, 4, 6])
        eps = Fraction(inst.meta["epsilon"])
        budget = (Fraction(1, 4) + eps) * 6**2
        for blk in inst.blocks:
            assert block_degree(inst, blk.id) <= budget
        # the implied epsilon is tight: some block attains the budget
        assert any(block_degree(inst, b.id) == budget for b in inst.blocks)

    @pytest.mark.parametrize("bad", ["a", 2.5, True, None], ids=repr)
    def test_override_value_that_is_not_an_int_is_refused(self, bad):
        with pytest.raises(SequenceError, match=f"n_2 must be an int, got {bad!r}$"):
            build_hypergraph(3, 3, sequence_override=[0, bad, 3])

    def test_size_guard(self):
        with pytest.raises(BuildSizeError) as err:
            build_hypergraph(579, 3, epsilon=Fraction(7, 100))
        assert err.value.predicted_blocks > 10**20

    @pytest.mark.parametrize(
        "t, r, values",
        [(6, 3, (0, 1, 2, 4, 6)), (4, 4, (0, 1, 2, 3, 4)), (3, 5, (0, 1, 3))],
    )
    def test_block_count_at_most_r_minus_one_t_to_the_k(self, t, r, values):
        assert predict_size(t, r, values).blocks <= ((r - 1) * t) ** len(values)


class TestBoundedDegreeBuild:
    def test_profile_t1000(self):
        p = bounded_degree_profile(1000, Fraction(1, 20))
        assert p.part_sizes == (854, 293)
        assert p.forced_size == 853
        assert p.grade_values == (147, 322, 405, 462, 511, 562, 627, 737, 1000)
        assert p.max_degree == 854
        assert p.max_degree_bound == 854
        assert max(p.block_degrees) <= (Fraction(1, 4) + Fraction(1, 20)) * 1000**2
        assert p.prediction.blocks == 16015873279513212909001

    def test_alpha_half_degenerates_to_full_join(self):
        p = bounded_degree_profile(40, Fraction(3, 10), alpha=Fraction(1, 2))
        assert p.part_sizes == (20, 20)
        assert p.forced_size == 40
        assert p.max_degree == 40

    def test_alpha_range(self):
        with pytest.raises(ParameterError):
            bounded_degree_profile(100, Fraction(1, 10), alpha=Fraction(1, 4))
        with pytest.raises(ParameterError):
            bounded_degree_profile(100, Fraction(1, 10), alpha=Fraction(1))

    def test_materialized_small_instance(self):
        inst = build_bounded_degree(14, Fraction(3, 10))
        p = bounded_degree_profile(14, Fraction(3, 10))
        assert p.part_sizes == (12, 5)
        assert p.grade_values == (3, 7, 11, 14)
        assert inst.num_blocks == p.prediction.blocks == 2325
        assert len(inst.edges) == p.prediction.edges == 77658
        assert max_degree(inst) == p.max_degree == 12
        assert max_degree(inst) <= -(-854 * 14 // 1000)
        assert not is_forest(inst)  # the bipartite join contains 4-cycles
        assert thickness(inst) == 14
        assert max_block_average_degree(inst) <= (Fraction(1, 4) + Fraction(3, 10)) * 14

    def test_t1000_build_refused_as_too_large(self):
        with pytest.raises(BuildSizeError) as err:
            build_bounded_degree(1000, Fraction(1, 20))
        assert err.value.predicted_blocks == 16015873279513212909001


class TestLocalDegreeBuild:
    def test_profile_t1000(self):
        p = local_degree_profile(1000, Fraction(1, 20))
        assert p.part_sizes == (731, 342)
        assert p.grade_values[1] == 270
        assert 1000 - p.grade_values[1] == 730
        assert p.local_degree == 731
        assert p.max_degree_bound == 731
        # max edges from a grade-2 heavy vertex into one block is t - |B|
        assert 1000 - p.part_sizes[1] == 658

    def test_materialized_small_instance(self):
        inst = build_local_degree(14, Fraction(3, 10))
        p = local_degree_profile(14, Fraction(3, 10))
        assert p.grade_values == (2, 4, 7, 11, 14)
        assert inst.num_blocks == p.prediction.blocks == 9871
        assert local_degree(inst) == p.local_degree
        assert local_degree(inst) <= -(-731 * 14 // 1000)

    def test_t1000_build_refused_as_too_large(self):
        with pytest.raises(BuildSizeError):
            build_local_degree(1000, Fraction(1, 20))

    def test_refusal_for_edges_carries_the_edge_count(self):
        # t = 24 is refused for its edges alone: blocks and vertices fit
        with pytest.raises(BuildSizeError) as err:
            build_local_degree(24, Fraction(3, 10))
        e = err.value
        assert (e.predicted_blocks, e.predicted_vertices, e.predicted_edges) == (
            94_105,
            2_258_520,
            8_104_896,
        )


@pytest.mark.parametrize("builder", [build_bounded_degree, build_local_degree])
@pytest.mark.parametrize(
    "t, epsilon", [(12, Fraction(2, 5)), (14, Fraction(3, 10))], ids=["t12", "t14"]
)
def test_pair_builds_are_refuted_by_replayable_certificates(builder, t, epsilon):
    # The builders do not certify themselves; this is the proof that they
    # build what the paper claims: no independent transversal.
    inst = builder(t, epsilon)
    cert = propagate_certificate(inst)
    assert cert is not None
    assert check_certificate(inst, cert)


def _ladder_build(name):
    """One build of the benchmark ladder: the instance, its exact degree
    profile (None if the builder has none) and its block-average bound."""
    eps = Fraction(3, 10)
    if name == "forest-t7":
        seq = simple_sequence(7)
        return build_forest(7, seq), None, (Fraction(1, 4) + seq.epsilon) * 7
    if name == "hypergraph-t6":
        inst = build_hypergraph(6, 3, sequence_override=(0, 1, 2, 4, 6))
        return inst, None, (threshold_constant(3) + Fraction(inst.meta["epsilon"])) * 6**2
    if name == "bounded-t12":  # not on the benchmark ladder
        e = Fraction(2, 5)
        return build_bounded_degree(12, e), bounded_degree_profile(12, e), (Fraction(1, 4) + e) * 12
    if name == "bounded-t14":
        p = bounded_degree_profile(14, eps)
        return build_bounded_degree(14, eps), p, (Fraction(1, 4) + eps) * 14
    if name == "local-t14":
        p = local_degree_profile(14, eps)
        return build_local_degree(14, eps), p, (Fraction(1, 4) + eps) * 14
    if name == "hbounded-t21":
        p = hypergraph_bounded_profile(21, 3, sequence_override=(0, 3, 21))
        inst = build_hypergraph_bounded_degree(21, 3, sequence_override=(0, 3, 21))
        return inst, p, (threshold_constant(3) + p.epsilon) * 21**2
    # every block of the stars meets |B|^2 / k edges, so its average is |B| / k <= k
    return build_star_counterexample(4), None, 4


@pytest.mark.parametrize(
    "name",
    [
        "forest-t7",
        "hypergraph-t6",
        "bounded-t12",
        "bounded-t14",
        "local-t14",
        "hbounded-t21",
        "stars-k4",
    ],
)
def test_ladder_builds_meet_their_guarantees(name):
    # The builders do not measure what they build; this is the check that
    # every edge is stretched, that the degree the construction bounds is
    # the one its profile predicts, that every block has the degree its
    # profile predicts, and that block averages stay in budget.
    inst, profile, average_bound = _ladder_build(name)
    metrics = compute_metrics(inst)
    assert metrics.stretched_edges == len(inst.edges)
    assert metrics.max_block_avg_degree <= average_bound
    if name == "local-t14":
        assert metrics.local_degree == profile.local_degree <= profile.max_degree_bound
    elif profile is not None:
        assert metrics.max_degree == profile.max_degree <= profile.max_degree_bound
    if profile is not None:  # block_degrees: the gadget's r blocks, then grades 2..k
        by_grade = {}
        for blk in inst.blocks:
            by_grade.setdefault(blk.grade, set()).add(metrics.per_block_degree[blk.id])
        r, k = profile.r, len(profile.grade_values)
        assert by_grade.pop(1) == set(profile.block_degrees[:r])
        assert by_grade == {g: {profile.block_degrees[r + g - 2]} for g in range(2, k + 1)}


# -- the pair and r-uniform formulas as they were derived separately ----------


def reference_pair_profile(t, epsilon, alpha, n2, bound, bound_is_local):
    """The r = 2 numerology, derived for a pair of join blocks."""
    a_size = math.ceil(alpha * t)
    b_size = math.ceil(t / (4 * alpha))
    if a_size >= t or b_size >= t or a_size < 1 or b_size < 1:
        raise ParameterError("join parts")
    forced = 2 * t - a_size - b_size
    start = a_size + b_size - t
    if start < 0:
        raise ParameterError("negative start")
    delta = epsilon / 2
    if delta * t <= 2:
        raise ParameterError("t too small")
    if n2 is None:
        values = tuple(_run_floor_recurrence(t, delta, start=start))
    else:
        if n2 <= start:
            raise ParameterError("n2 below start")
        values = (start,) + tuple(_run_floor_recurrence(t, delta, start=n2))
    degrees = [a_size * b_size + (t - a_size), a_size * b_size + (t - b_size)]
    degrees += [grade_block_degree(t, 2, values[j - 1], values[j]) for j in range(1, len(values))]
    if any(d > (Fraction(1, 4) + epsilon) * t * t for d in degrees):
        raise ParameterError("block degree")
    max_deg = max(a_size, b_size, forced)
    local = max(a_size, b_size, t - a_size, t - b_size, t - values[1])
    if (local if bound_is_local else max_deg) > bound:
        raise ParameterError("bound")
    return DegreeBoundedProfile(
        t, 2, epsilon, alpha, (a_size, b_size), forced, values, max_deg, bound, local,
        tuple(degrees), predict_size(t, 2, values, gadget_parts=(a_size, b_size)),
    )


def reference_bounded_profile(t, epsilon, alpha=None):
    alpha = DEFAULT_BOUNDED_ALPHA if alpha is None else alpha
    if not Fraction(1, 2) <= alpha < 1:
        raise ParameterError("alpha")
    ratio = max(alpha, 2 - alpha - 1 / (4 * alpha))
    return reference_pair_profile(t, epsilon, alpha, None, math.ceil(ratio * t), False)


def reference_local_profile(t, epsilon):
    alpha = LOCAL_ALPHA
    n2 = math.ceil(1 / (2 - alpha - 1 / (4 * alpha)) * Fraction(t, 4))
    return reference_pair_profile(t, epsilon, alpha, n2, math.ceil(LOCAL_DEGREE_RATIO * t), True)


def reference_hypergraph_profile(t, r, epsilon=None, sequence_override=None):
    """The r-uniform numerology, derived for an r-block join gadget."""
    parts = hypergraph_bounded_parts(t, r)
    c_r = threshold_constant(r)
    forced = r * t - sum(parts)
    values = _hypergraph_values(t, r, epsilon, sequence_override)
    part_degrees = []
    for i in range(r):
        d = math.prod(parts[:i] + parts[i + 1 :])
        if i < r - 2:
            d += forced * t ** (r - 3)
        part_degrees.append(d)
    grade2_heavy = forced * t ** (r - 2)
    tail = [(t - values[j - 1]) ** (r - 1) for j in range(2, len(values))]
    max_deg = max(part_degrees + [grade2_heavy] + tail + [t ** (r - 2)])
    bound = math.ceil((1 - c_r / 3) * t ** (r - 1)) + r
    prod_all = math.prod(parts)
    degrees = []
    for i in range(r):
        if i < r - 2:
            degrees.append(prod_all + forced * t ** (r - 2))
        else:
            degrees.append(prod_all + (t - parts[i]) * t ** (r - 2))
    degrees.append(values[1] * grade2_heavy + (t - values[1]) ** (r - 1))
    degrees += [grade_block_degree(t, r, values[j - 1], values[j]) for j in range(2, len(values))]
    if sequence_override is not None:
        eps = max(Fraction(max(degrees), t**r) - c_r, Fraction(0))
    else:
        eps = Fraction(epsilon)
        if max(degrees) > (c_r + eps) * t**r:
            raise ParameterError("block degree")
    if max_deg > bound:
        raise ParameterError("bound")
    return DegreeBoundedProfile(
        t, r, eps, None, parts, forced, values, max_deg, bound, None,
        tuple(degrees), predict_size(t, r, values, gadget_parts=parts),
    )


def _profile_grid():
    eps = [Fraction(1, 20), Fraction(1, 10), Fraction(1, 5), Fraction(3, 10), Fraction(2, 5)]
    for t in range(2, 90):
        for e in eps:
            for alpha in (None, Fraction(1, 2), Fraction(3, 4), Fraction(9, 10)):
                yield bounded_degree_profile, reference_bounded_profile, (t, e, alpha)
            yield local_degree_profile, reference_local_profile, (t, e)
            yield hypergraph_bounded_profile, reference_hypergraph_profile, (t, 2, e)
        for r in (2, 3, 4):
            for values in [(0, 1, t), (0, 3, t), (0, t // 3, t // 2, t), (0, 2, 1, t)]:
                yield hypergraph_bounded_profile, reference_hypergraph_profile, (t, r, None, values)
    # r = 4 admits its degree bound only where (1 - c_4/3) t is an integer
    for t in (256, 512, 768):
        for values in [(0, 3, t), (0, t // 3, t // 2, t)]:
            yield hypergraph_bounded_profile, reference_hypergraph_profile, (t, 4, None, values)
    for r, e, ts in [
        (3, Fraction(1, 20), range(560, 1300, 41)),
        (3, Fraction(7, 100), range(560, 1300, 41)),
        (4, Fraction(1, 20), (1138, 1280, 1536)),
    ]:
        for t in ts:
            yield hypergraph_bounded_profile, reference_hypergraph_profile, (t, r, e)


def _outcome(fn, args):
    try:
        return fn(*args)
    except (ParameterError, SequenceError) as exc:
        return type(exc)


def test_one_gadget_numerology_matches_the_pair_and_hypergraph_references():
    cases = list(_profile_grid())
    outcomes = [(_outcome(fn, args), _outcome(ref, args)) for fn, ref, args in cases]
    assert [args for (got, want), (_, _, args) in zip(outcomes, cases) if got != want] == []
    profiles = sum(isinstance(got, DegreeBoundedProfile) for got, _ in outcomes)
    assert profiles > len(cases) // 4  # the grid reaches past the refusals
    assert {got.r for got, _ in outcomes if isinstance(got, DegreeBoundedProfile)} == {2, 3, 4}


def reference_predict_size(t, r, values, gadget_parts=None):
    """The size prediction as first written, with a grade-2 step of its own
    for plain and for gadget builds."""
    k = len(values)
    if gadget_parts is None:
        unit_blocks = r - 1  # grade-2 consumable: (r-1) plain grade-1 blocks
        unit_edges = 0
        grade2_heavy_degree = (t - values[0]) ** (r - 1)
    else:
        unit_blocks = r
        unit_edges = math.prod(gadget_parts)
        forced = r * t - sum(gadget_parts)
        grade2_heavy_degree = forced * t ** (r - 2)
    blocks = unit_blocks
    edges = unit_edges
    for j in range(1, k):
        n = values[j]
        if j == 1:
            blocks = 1 + n * blocks
            edges = n * (edges + grade2_heavy_degree)
        else:
            edges = n * ((r - 1) * edges + (t - values[j - 1]) ** (r - 1))
            blocks = 1 + n * (r - 1) * blocks
    return SizePrediction(blocks=blocks, vertices=blocks * t, edges=edges)


def _prediction_grid():
    """Plain and gadget predictions for t = 2..39, r = 2..4 and 2..5 grades:
    seeded draws of increasing values ending at t, and of join parts."""
    rng = random.Random(20261019)
    for t in range(2, 40):
        for r in (2, 3, 4):
            for k in range(2, min(t + 1, 5) + 1):
                for _ in range(12):
                    values = (0, *sorted(rng.sample(range(1, t), k - 2)), t)
                    yield t, r, values, None
                    parts = (t,) * (r - 2) + (rng.randint(1, t), rng.randint(1, t))
                    yield t, r, (rng.randint(0, t - 1), *values[1:]), parts
    for profile in (bounded_degree_profile(1000, Fraction(1, 20)),
                    local_degree_profile(1000, Fraction(1, 20))):
        yield 1000, 2, profile.grade_values, profile.part_sizes


def test_predict_size_matches_the_grade_two_reference():
    cases = list(_prediction_grid())
    assert len(cases) > 10_000
    assert [c for c in cases if predict_size(*c) != reference_predict_size(*c)] == []


class TestHypergraphBoundedDegree:
    def test_parts_r2_reduction(self):
        # with c_2 = 1/4: m_1 = ceil(11t/12), m_2 = floor(t^2/4 / m_1)
        assert hypergraph_bounded_parts(12, 2) == (11, 3)
        assert hypergraph_bounded_parts(24, 2) == (22, 6)

    def test_parts_r3(self):
        assert hypergraph_bounded_parts(21, 3) == (21, 20, 3)
        with pytest.raises(ParameterError) as err:
            hypergraph_bounded_parts(20, 3)
        assert err.value.minimal_t == 21

    def test_profile_degrees(self):
        p = hypergraph_bounded_profile(21, 3, sequence_override=[0, 3, 21])
        assert p.part_sizes == (21, 20, 3)
        assert p.forced_size == 3 * 21 - 44 == 19
        # minimal-part vertices meet all tuples over the other parts
        assert p.max_degree == 21 * 20
        assert p.max_degree_bound == math.ceil((1 - Fraction(4, 81)) * 441) + 3
        assert p.max_degree <= p.max_degree_bound

    def test_materialized_instance(self):
        inst = build_hypergraph_bounded_degree(21, 3, sequence_override=[0, 3, 21])
        p = hypergraph_bounded_profile(21, 3, sequence_override=[0, 3, 21])
        assert inst.num_blocks == p.prediction.blocks
        assert len(inst.edges) == p.prediction.edges
        assert max_degree(inst) == p.max_degree == 420
        # grade-2 heavy degree is forced_size * t^(r-2)
        incident = inst.incident_edges()
        grade2 = [b for b in inst.blocks if b.grade == 2]
        heavies = [v for b in grade2 for v in b.members if inst.roles[v] == HEAVY]
        assert {len(incident[v]) for v in heavies} == {19 * 21}


class TestStars:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_shape(self, k):
        inst = build_star_counterexample(k)
        assert inst.num_blocks == k * k + 1
        assert inst.num_vertices == k * k * (k + 1)
        assert len(inst.edges) == k**3

    def test_block_incidence_equals_size_squared_over_k(self):
        for k in (2, 3, 4, 5):
            inst = build_star_counterexample(k)
            for blk in inst.blocks:
                d = block_degree(inst, blk.id)
                assert d == blk.size**2 // k
                assert d * k == blk.size**2  # exact, no rounding

    def test_k4_reference(self):
        inst = build_star_counterexample(4)
        assert inst.num_blocks == 17
        assert block_degree(inst, 0) == 64

    def test_k2_reference(self):
        inst = build_star_counterexample(2)
        assert inst.num_blocks == 5
        assert inst.num_vertices == 12
        assert len(inst.edges) == 8

    def test_thickness_is_leaf_block_size(self):
        assert thickness(build_star_counterexample(4)) == 4

    @pytest.mark.parametrize("bad", ["a", 2.5, True, None], ids=repr)
    def test_k_that_is_not_an_int_is_refused(self, bad):
        with pytest.raises(ParameterError, match=f"^k must be an int, got {bad!r}$"):
            build_star_counterexample(bad)

    def test_budget(self):
        # k = 200 would be 40,001 blocks, 8,040,000 vertices and 8M edges
        with pytest.raises(BuildSizeError) as err:
            build_star_counterexample(200)
        e = err.value
        assert (e.predicted_blocks, e.predicted_vertices, e.predicted_edges) == (
            40_001,
            8_040_000,
            8_000_000,
        )
        with pytest.raises(BuildSizeError):
            build(BuildRecipe(kind="stars", k_stars=3), max_cells=35)
        assert build(BuildRecipe(kind="stars", k_stars=3), max_cells=36).num_vertices == 36


class TestPadBlocks:
    def test_padding_preserves_metrics(self):
        inst = build_forest(3, seq_of(3, [0, 3]))
        padded = pad_blocks(inst, 10)
        assert padded.num_blocks == 10
        assert all(b.padding for b in padded.blocks[4:])
        assert max_block_average_degree(padded) == max_block_average_degree(inst)
        assert thickness(padded) == 3

    def test_pad_to_current_is_identity(self):
        inst = build_forest(3, seq_of(3, [0, 3]))
        assert pad_blocks(inst, inst.num_blocks) == inst

    def test_pad_below_current_rejected(self):
        inst = build_forest(3, seq_of(3, [0, 3]))
        with pytest.raises(ParameterError):
            pad_blocks(inst, 2)

    @pytest.mark.parametrize("bad", ["a", 2.5, True, None], ids=repr)
    def test_target_that_is_not_an_int_is_refused(self, bad):
        inst = build_forest(3, seq_of(3, [0, 3]))
        with pytest.raises(ParameterError, match=f"^target_n must be an int, got {bad!r}$"):
            pad_blocks(inst, bad)

    def test_budget(self):
        inst = build_forest(3, seq_of(3, [0, 3]))  # 4 blocks of 3 vertices
        with pytest.raises(BuildSizeError) as err:
            pad_blocks(inst, 2_000_000)
        e = err.value
        assert (e.predicted_blocks, e.predicted_vertices, e.predicted_edges) == (
            2_000_000,
            6_000_000,
            9,
        )
        with pytest.raises(BuildSizeError):
            pad_blocks(inst, 10, max_cells=29)
        assert pad_blocks(inst, 10, max_cells=30).num_vertices == 30


class TestRecipes:
    def test_forest_recipe_with_simple_sequence(self):
        inst = build(
            BuildRecipe(kind="forest", t=6, sequence_override=simple_sequence(6).values)
        )
        assert inst.num_blocks == 1957

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            build(BuildRecipe(kind="mystery", t=3))

    def test_forest_recipe_with_epsilon(self):
        eps = Fraction(3, 10)
        inst = build(BuildRecipe(kind="forest", t=14, epsilon=eps))
        assert inst == build_forest(14, forest_grade_sequence(14, eps))

    def test_forest_recipe_needs_epsilon_or_a_sequence(self):
        with pytest.raises(ParameterError, match="^forest needs epsilon or an explicit sequence$"):
            build(BuildRecipe(kind="forest", t=14))

    @pytest.mark.parametrize(
        "recipe",
        [
            BuildRecipe(kind="forest", t=7, r=3, epsilon=Fraction(1, 3)),
            BuildRecipe(kind="bounded_degree", t=14, epsilon=Fraction(3, 10),
                        sequence_override=(0, 1, 14)),
            BuildRecipe(kind="local_degree", t=14, epsilon=Fraction(3, 10), alpha=Fraction(1, 2)),
            BuildRecipe(kind="stars", k_stars=2, t=9, epsilon=Fraction(1)),
            BuildRecipe(kind="hypergraph_bounded_degree", t=21, r=3, alpha=Fraction(1, 2),
                        sequence_override=(0, 3, 21)),
        ],
        ids=["forest-r", "bounded-seq", "local-alpha", "stars-t-epsilon", "hbounded-alpha"],
    )
    def test_fields_the_kind_does_not_read_are_refused(self, recipe):
        with pytest.raises(ParameterError, match=f"kind '{recipe.kind}' does not read"):
            build(recipe, max_cells=None)

    def test_epsilon_beside_a_sequence_is_accepted(self):
        # the sequence wins, as in the README's forest example
        values = simple_sequence(6).values
        for kind in ("forest", "hypergraph"):
            both = build(BuildRecipe(kind=kind, t=6, epsilon=Fraction(1, 5), sequence_override=values))
            assert both.meta["sequence"] == ",".join(map(str, values))

    def test_predict_matches_build(self):
        values = (0, 2, 4)
        pred = predict_size(4, 2, values)
        inst = build_forest(4, seq_of(4, list(values)))
        assert (inst.num_blocks, inst.num_vertices, len(inst.edges)) == (
            pred.blocks,
            pred.vertices,
            pred.edges,
        )


# Every public function that takes ``max_cells``, with a valid call around it.
_BUDGET_TAKERS = {
    "build_forest": lambda m: build_forest(3, simple_sequence(3), max_cells=m),
    "build_hypergraph": lambda m: build_hypergraph(3, 3, sequence_override=(0, 1, 3), max_cells=m),
    "build_bounded_degree": lambda m: build_bounded_degree(14, Fraction(3, 10), max_cells=m),
    "build_local_degree": lambda m: build_local_degree(14, Fraction(3, 10), max_cells=m),
    "build_hypergraph_bounded_degree": lambda m: build_hypergraph_bounded_degree(
        21, 3, sequence_override=(0, 3, 21), max_cells=m
    ),
    "build_star_counterexample": lambda m: build_star_counterexample(2, max_cells=m),
    "pad_blocks": lambda m: pad_blocks(build_star_counterexample(2), 6, max_cells=m),
    "pad_blocks-to-current": lambda m: pad_blocks(build_star_counterexample(2), 5, max_cells=m),
    "build": lambda m: build(BuildRecipe(kind="stars", k_stars=2), max_cells=m),
}


@pytest.mark.parametrize("bad", ["a", -1, True, 2.5], ids=repr)
@pytest.mark.parametrize("call", _BUDGET_TAKERS.values(), ids=_BUDGET_TAKERS.keys())
def test_a_max_cells_that_is_not_a_budget_is_refused(call, bad):
    message = f"max_cells must be None or an int of at least 0, got {bad!r}"
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        call(bad)


def test_max_cells_none_builds_without_a_budget():
    for name in ("build_forest", "build_star_counterexample", "pad_blocks", "build"):
        call = _BUDGET_TAKERS[name]
        assert call(None) == call(DEFAULT_MAX_CELLS)


# -- the lemmas that replaced checks which could not fire ------------------------


def test_the_effective_first_value_is_never_negative():
    # ceil(alpha t) + ceil(t / (4 alpha)) >= t, as alpha + 1/(4 alpha) >= 1
    alphas = [Fraction(1, 2), Fraction(3, 5), Fraction(2, 3), LOCAL_ALPHA, Fraction(4, 5),
              DEFAULT_BOUNDED_ALPHA, Fraction(99, 100)]
    for t in range(1, 2001):
        for alpha in alphas:
            assert math.ceil(alpha * t) + math.ceil(t / (4 * alpha)) - t >= 0


def test_an_admitted_gadget_has_a_nonempty_last_part():
    # m_{r-1} < t forces c_r t >= 3, and m_r >= floor(c_r t)
    admitted = 0
    for r in range(2, 7):
        for t in range(1, 3001):
            try:
                parts = hypergraph_bounded_parts(t, r)
            except ParameterError:
                continue
            admitted += 1
            assert parts[-1] >= math.floor(threshold_constant(r) * t) >= 3
    assert admitted == 14_861
