import itertools
import random
from fractions import Fraction

import pytest

from transversals import (
    GradeSequence,
    HypergraphGradeSequence,
    ParameterError,
    forest_grade_sequence,
    haxell_threshold,
    hypergraph_grade_sequence,
    minimal_epsilon,
    minimal_hypergraph_t,
    minimal_t,
    mobius_orbit,
    simple_sequence,
    threshold_constant,
    validate_sequence,
)
from transversals.sequences import _implied_epsilon, grade_block_degree, structure_violations


def lhs(t, values, j):
    """Defining inequality left side at step j, as an exact rational."""
    return Fraction(values[j + 1] * (t - values[j]) + (t - values[j + 1]), t)


class TestForestGradeSequence:
    def test_reference_point(self):
        seq = forest_grade_sequence(20, Fraction(3, 10))
        assert seq.values == (0, 8, 13, 20)
        assert seq.delta == Fraction(3, 20)
        assert validate_sequence(seq) == []

    def test_endpoints(self):
        for t, eps in [(14, Fraction(3, 10)), (100, Fraction(1, 10))]:
            seq = forest_grade_sequence(t, eps)
            assert seq.values[0] == 0
            assert seq.values[-1] == t

    def test_t_below_threshold_reports_minimal_t(self):
        with pytest.raises(ParameterError) as err:
            forest_grade_sequence(10, Fraction(3, 10))
        assert err.value.minimal_t == 14
        forest_grade_sequence(err.value.minimal_t, Fraction(3, 10))

    def test_minimal_t_formula(self):
        # max(ceil(2/eps), floor(4/eps)+1) with delta = eps/2
        assert minimal_t(Fraction(3, 10)) == 14
        assert minimal_t(Fraction(1, 20)) == 81
        assert minimal_t(Fraction(1, 10)) == 41

    def test_last_step_bound(self):
        # with n_k = t the inequality reduces to t - n_{k-1} <= (1/4+eps)t
        seq = forest_grade_sequence(40, Fraction(1, 5))
        t, values = seq.t, seq.values
        assert lhs(t, values, len(values) - 2) == t - values[-2]
        assert t - values[-2] <= (Fraction(1, 4) + seq.epsilon) * t

    def test_random_admissible_pairs_all_validate(self):
        rng = random.Random(7)
        checked = 0
        while checked < 100:
            eps = Fraction(rng.randint(5, 60), 100)
            t = minimal_t(eps) + rng.randint(0, 120)
            seq = forest_grade_sequence(t, eps)
            assert validate_sequence(seq) == []
            assert all(b > a for a, b in zip(seq.values, seq.values[1:]))
            for j in range(len(seq.values) - 1):
                assert lhs(t, seq.values, j) <= (Fraction(1, 4) + eps) * t
            checked += 1


class TestSimpleSequence:
    def test_unit_steps(self):
        assert simple_sequence(2).values == (0, 1, 2)
        assert simple_sequence(6).values == tuple(range(7))

    def test_minimal_epsilon_t6(self):
        # max of (j(7-j) + 6-j)/6 over j is 15/6 at j=3, minus t/4, over t;
        # at any t the step's max is j(t-j)/t + 1, peaking at j = t/2
        assert simple_sequence(6).epsilon == Fraction(1, 6)
        for t in range(2, 200):
            odd = Fraction(1, 4 * t * t) if t % 2 else 0
            assert simple_sequence(t).epsilon == Fraction(1, t) - odd, t

    def test_validates_with_its_own_epsilon(self):
        for t in (2, 6, 17, 100):
            assert validate_sequence(simple_sequence(t)) == []

    def test_validates_with_quarter_for_large_t(self):
        # the step bound is at most t/4 + 2, within (1/4 + 1/4)t once t >= 32
        for t in range(32, 70):
            seq = simple_sequence(t)
            assert seq.epsilon <= Fraction(1, 4)
            relaxed = GradeSequence(t=t, epsilon=Fraction(1, 4), values=seq.values)
            assert validate_sequence(relaxed) == []
            worst = max(lhs(t, seq.values, j) for j in range(t))
            assert worst <= Fraction(t, 4) + 2

    def test_simple_100_validates_at_tenth(self):
        relaxed = GradeSequence(
            t=100, epsilon=Fraction(1, 10), values=simple_sequence(100).values
        )
        assert validate_sequence(relaxed) == []


class TestValidateSequence:
    def test_zero_epsilon_two_jump_fails(self):
        bad = GradeSequence(t=4, epsilon=Fraction(1, 10**9), values=(0, 4))
        violations = validate_sequence(bad)
        assert len(violations) == 1
        assert violations[0].index == 0

    def test_structure_violations_are_named(self):
        bad = GradeSequence(t=5, epsilon=Fraction(1), values=(1, 3, 3, 4))
        messages = " ".join(v.message for v in validate_sequence(bad))
        assert "n_1" in messages
        assert "increasing" in messages
        assert "n_k" in messages

    def test_minimal_epsilon_requires_structure(self):
        with pytest.raises(ParameterError):
            minimal_epsilon(5, (0, 3))


class TestHypergraphSequence:
    def test_r2_reduces_to_graph_regime(self):
        seq = hypergraph_grade_sequence(400, 2, Fraction(1, 10))
        assert threshold_constant(2) == Fraction(1, 4)
        # n_2 = floor((1+delta) t / 4) with delta = 5 eps/6
        assert seq.values[1] == int((1 + Fraction(1, 12)) * 100)
        as_graph = GradeSequence(t=400, epsilon=Fraction(1, 10), values=seq.values)
        assert validate_sequence(as_graph) == []

    def test_minimal_t(self):
        assert minimal_hypergraph_t(3, Fraction(7, 100)) == 579

    def test_reference_r3(self):
        seq = hypergraph_grade_sequence(579, 3, Fraction(7, 100))
        assert seq.values == (
            0, 90, 127, 148, 163, 175, 186, 197, 208, 221, 237, 260, 299, 388, 579,
        )
        assert seq.terminal
        assert validate_sequence(seq) == []

    def test_n2_floor_formula_and_lower_bound(self):
        eps = Fraction(7, 100)
        seq = hypergraph_grade_sequence(600, 3, eps)
        c3 = threshold_constant(3)
        assert seq.values[1] == int((1 + 5 * eps / 6) * c3 * 600)
        assert seq.values[1] >= eps * 600 / 2

    def test_growth_ratio(self):
        seq = hypergraph_grade_sequence(579, 3, Fraction(7, 100))
        delta = seq.delta
        for a, b in zip(seq.values[1:], seq.values[2:]):
            if b < seq.t:
                assert Fraction(b, seq.t) >= (1 + delta / 2) * Fraction(a, seq.t)

    def test_terminal_rule(self):
        seq = hypergraph_grade_sequence(579, 3, Fraction(7, 100))
        t, r = seq.t, seq.r
        c_r = threshold_constant(r)
        assert (t - seq.values[-2]) ** (r - 1) <= c_r * t ** (r - 1)

    def test_epsilon_range_enforced(self):
        with pytest.raises(ParameterError):
            hypergraph_grade_sequence(600, 3, Fraction(1, 2))

    def test_t_too_small_reports_minimum(self):
        with pytest.raises(ParameterError) as err:
            hypergraph_grade_sequence(100, 3, Fraction(7, 100))
        assert err.value.minimal_t == 579

    def test_threshold_constant_is_max_of_map(self):
        # x (1-x)^(r-1) peaks at x = 1/r with value c_r (AM-GM)
        for r in range(2, 9):
            c_r = threshold_constant(r)
            assert Fraction(1, r) * (1 - Fraction(1, r)) ** (r - 1) == c_r
            for i in range(101):
                x = Fraction(i, 100)
                assert x * (1 - x) ** (r - 1) <= c_r

    def test_grade_count_stays_bounded(self):
        import math

        for r, eps in [(2, Fraction(1, 10)), (3, Fraction(7, 100)), (4, Fraction(1, 50))]:
            t = minimal_hypergraph_t(r, eps)
            seq = hypergraph_grade_sequence(t, r, eps)
            cap = math.ceil(math.log(2 / float(eps) + 2, 1 + float(eps) / 3)) + 2
            assert len(seq.values) <= cap

    @pytest.mark.parametrize(
        "eps, bound",
        [
            (Fraction(1, 2), 14),
            (Fraction(1, 4), 31),
            (Fraction(1, 10), 97),
            (Fraction(1, 20), 229),
            (Fraction(1, 100), 1598),
        ],
    )
    def test_grade_count_bound_exact(self, eps, bound):
        from transversals.sequences import grade_count_bound

        assert grade_count_bound(eps) == bound
        # least k with (1 + eps/3)^k >= 2/eps + 2, plus 2
        k = bound - 2
        assert (1 + eps / 3) ** k >= 2 / eps + 2 > (1 + eps / 3) ** (k - 1)

    def test_grade_count_bound_needs_positive_epsilon(self):
        from transversals.sequences import grade_count_bound

        with pytest.raises(ParameterError):
            grade_count_bound(Fraction(0))


class TestMobiusOrbit:
    def test_quarter_follows_closed_form(self):
        # z_n = n / (2n + 2), exactly, for 50 steps
        orbit = mobius_orbit(Fraction(1, 4), Fraction(0), max_steps=50)
        for n, z in enumerate(orbit.points):
            assert z == Fraction(n, 2 * n + 2)
        assert orbit.outcome.kind == "converged"
        assert orbit.outcome.limit == Fraction(1, 2)

    def test_quarter_never_escapes_and_distance_decreases(self):
        orbit = mobius_orbit(Fraction(1, 4), Fraction(0), max_steps=10**4)
        assert orbit.outcome.kind == "converged"
        dists = [abs(z - Fraction(1, 2)) for z in orbit.points]
        assert all(b < a for a, b in zip(dists, dists[1:]))

    def test_half_escapes_in_two_steps(self):
        orbit = mobius_orbit(Fraction(1, 2), Fraction(0))
        assert orbit.points[:3] == (Fraction(0), Fraction(1, 2), Fraction(1))
        assert orbit.outcome.kind == "escaped"
        assert orbit.outcome.step == 2

    def test_just_above_quarter_escapes(self):
        # frozen regression step counts for two reference slopes
        assert mobius_orbit(Fraction(251, 1000)).outcome.step == 48
        assert mobius_orbit(Fraction(26, 100)).outcome.step == 14

    def test_pole_hit_counts_as_escape(self):
        orbit = mobius_orbit(Fraction(1, 2), Fraction(0), max_steps=5)
        assert orbit.outcome.kind == "escaped"

    def test_start_must_differ_from_one(self):
        with pytest.raises(ParameterError):
            mobius_orbit(Fraction(1, 4), Fraction(1))


class TestHaxellThreshold:
    def test_reference_values(self):
        assert haxell_threshold(5, 4) == 3
        assert haxell_threshold(2, 10) == 10
        assert haxell_threshold(1000, 10) == 6

    def test_rejects_single_block(self):
        with pytest.raises(ParameterError):
            haxell_threshold(1, 5)


def reference_validate_sequence(seq):
    """validate_sequence as it was with one budget loop per sequence type:
    average degree against (1/4 + eps) t for graphs, block degree against
    (1 + eps) c_r t^r and the terminal rule for hypergraphs."""
    values, t = seq.values, seq.t
    out = [(v.index, v.message) for v in structure_violations(t, values)]
    if isinstance(seq, HypergraphGradeSequence):
        c_r = threshold_constant(seq.r)
        r = seq.r
        budget = (1 + seq.epsilon) * c_r * t**r
        for j in range(len(values) - 1):
            lhs = grade_block_degree(t, r, values[j], values[j + 1])
            if lhs > budget:
                out.append((j, f"block-degree bound failed at j={j + 1}: "
                            f"{lhs} > (1+eps)c_r t^r = {budget}"))
        if seq.terminal and len(values) >= 2:
            gap = t - values[-2]
            if gap ** (r - 1) > c_r * t ** (r - 1):
                out.append((len(values) - 1,
                            f"terminal rule fired although (t-n)^{{r-1}}={gap ** (r - 1)} "
                            f"exceeds c_r t^(r-1) = {c_r * t ** (r - 1)}"))
    else:
        budget = (Fraction(1, 4) + seq.epsilon) * t
        for j in range(len(values) - 1):
            lhs = Fraction(grade_block_degree(t, 2, values[j], values[j + 1]), t)
            if lhs > budget:
                out.append((j, f"average-degree bound failed at j={j + 1}"))
    return out


def reference_implied_epsilon(t, r, values):
    """The largest grade-block degree over t^r, minus c_r."""
    worst = max(
        Fraction(grade_block_degree(t, r, values[j], values[j + 1]), t**r)
        for j in range(len(values) - 1)
    )
    return worst - threshold_constant(r)


def all_sequences(max_t):
    """Every sequence 0 = n_1 < ... < n_k = t with 1 <= t <= max_t."""
    for t in range(1, max_t + 1):
        for k in range(t):
            for inner in itertools.combinations(range(1, t), k):
                yield t, (0, *inner, t)


class TestOneBudgetRule:
    EPSILONS = [Fraction(0), Fraction(1, 20), Fraction(1, 10), Fraction(3, 10), Fraction(1)]

    def test_violations_and_epsilons_match_the_per_type_loops(self):
        # 4,095 sequences, each at five epsilons as a graph sequence and as
        # r = 3 and r = 4 sequences (terminal on every other one): the
        # violation indices, and for hypergraphs the messages, are unchanged
        cases = 0
        for i, (t, values) in enumerate(all_sequences(12)):
            assert minimal_epsilon(t, values) == reference_implied_epsilon(t, 2, values)
            for r in (3, 4):
                assert _implied_epsilon(t, r, values) == reference_implied_epsilon(t, r, values)
            for eps in self.EPSILONS:
                seqs = [GradeSequence(t=t, epsilon=eps, values=values)] + [
                    HypergraphGradeSequence(t=t, r=r, epsilon=eps, values=values, terminal=i % 2 == 1)
                    for r in (3, 4)
                ]
                for seq in seqs:
                    got = [(v.index, v.message) for v in validate_sequence(seq)]
                    want = reference_validate_sequence(seq)
                    if isinstance(seq, GradeSequence):
                        got, want = [j for j, _ in got], [j for j, _ in want]
                    assert got == want, (seq, got, want)
                    cases += 1
        assert cases == 61_425

    def test_structurally_invalid_sequences_keep_their_violations(self):
        rng = random.Random(20261019)
        for _ in range(2000):
            t = rng.randrange(1, 13)
            values = tuple(rng.randrange(0, t + 1) for _ in range(rng.randrange(0, 6)))
            eps = rng.choice(self.EPSILONS)
            graph = GradeSequence(t=t, epsilon=eps, values=values)
            assert [v.index for v in validate_sequence(graph)] == [
                j for j, _ in reference_validate_sequence(graph)
            ]
            for r in (3, 4):
                seq = HypergraphGradeSequence(t=t, r=r, epsilon=eps, values=values, terminal=True)
                assert [(v.index, v.message) for v in validate_sequence(seq)] == (
                    reference_validate_sequence(seq)
                )
