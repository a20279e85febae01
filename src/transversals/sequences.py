"""Grade sequences driving the recursive constructions, plus orbit analysis.

A grade sequence 0 = n_1 < ... < n_k = t fixes, for every grade, how many
heavy vertices the grade block contains.  The defining inequality (checked
with exact rationals throughout) keeps every block's average degree at most
(1/4 + epsilon) t in the graph case, and its r-uniform analogue at most
(1 + epsilon) c_r t^r where c_r = (r-1)^(r-1) / r^r.

The growth recurrence n_{j+1} = floor((1/4 + delta) t / (1 - n_j / t)) is an
iteration of the real Moebius map z -> alpha / (1 - z); the map has an
attracting fixed point at 1/2 exactly when alpha = 1/4, which is why the
sequences exist for every epsilon > 0 but not for epsilon = 0.
:func:`mobius_orbit` exposes that dichotomy directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import ParameterError

# Classification constants for Moebius orbits (desk-scale defaults).
CONVERGENCE_TOLERANCE = Fraction(1, 10**9)
DEFAULT_MAX_STEPS = 10**4


def threshold_constant(r: int) -> Fraction:
    """c_r = (r-1)^(r-1) / r^r; equals 1/4 at r=2."""
    if r < 2:
        raise ParameterError(f"uniformity must be at least 2, got {r}")
    return Fraction((r - 1) ** (r - 1), r**r)


@dataclass(frozen=True)
class GradeSequence:
    """Sequence of heavy-vertex counts for the graph constructions."""

    t: int
    epsilon: Fraction
    values: tuple[int, ...]
    delta: Fraction | None = None

    @classmethod
    def from_values(cls, t: int, values: list[int] | tuple[int, ...]) -> "GradeSequence":
        """Wrap explicit values, computing the smallest admissible epsilon."""
        vals = tuple(values)
        eps = minimal_epsilon(t, vals)
        return cls(t=t, epsilon=eps, values=vals)


@dataclass(frozen=True)
class HypergraphGradeSequence:
    """Grade sequence for the r-uniform constructions.

    ``terminal`` records that the last grade was created by the termination
    rule (t - n_{k-1})^(r-1) <= c_r t^(r-1) rather than by the recurrence
    reaching t on its own.
    """

    t: int
    r: int
    epsilon: Fraction
    values: tuple[int, ...]
    delta: Fraction | None = None
    terminal: bool = False


AnySequence = Union[GradeSequence, HypergraphGradeSequence]


@dataclass(frozen=True)
class Violation:
    index: int
    message: str


@dataclass(frozen=True)
class OrbitOutcome:
    kind: str  # "escaped" | "converged" | "undecided"
    step: int | None = None
    limit: Fraction | None = None


@dataclass(frozen=True)
class MobiusOrbit:
    alpha: Fraction
    start: Fraction
    points: tuple[Fraction, ...]
    outcome: OrbitOutcome


# -- graph-case sequences -----------------------------------------------------


def minimal_t(epsilon: Fraction) -> int:
    """Smallest t admissible for :func:`forest_grade_sequence` at this epsilon.

    With delta fixed to epsilon/2 the two requirements are
    (1/4+delta)t + 1 <= (1/4+epsilon)t  (t >= 2/epsilon) and
    delta*t/2 > 1                        (t > 4/epsilon).
    """
    if epsilon <= 0:
        raise ParameterError("epsilon must be positive")
    from_slack = math.ceil(Fraction(2) / epsilon)
    from_width = math.floor(Fraction(4) / epsilon) + 1
    return max(from_slack, from_width)


def forest_grade_sequence(t: int, epsilon: Fraction) -> GradeSequence:
    """Generate the grade sequence by the tight floor recurrence.

    Starting from n_1 = 0, while n_j < 3t/4 set
    n_{j+1} = min(floor((1/4 + delta) t / (1 - n_j/t)), t) with delta =
    epsilon/2; once n_j >= 3t/4 the next value is t and the sequence ends.
    """
    epsilon = Fraction(epsilon)
    t0 = minimal_t(epsilon)
    if t < t0:
        raise ParameterError(
            f"t={t} is below the minimal admissible value {t0} for epsilon={epsilon}",
            minimal_t=t0,
        )
    delta = epsilon / 2
    values = _run_floor_recurrence(t, delta, start=0)
    seq = GradeSequence(t=t, epsilon=epsilon, values=tuple(values), delta=delta)
    violations = validate_sequence(seq)
    if violations:
        raise ParameterError(f"generated sequence failed validation: {violations}")
    return seq


def _run_floor_recurrence(t: int, delta: Fraction, start: int) -> list[int]:
    """Shared growth loop; also used with a nonzero start by the degree-bounded builds."""
    values = [start]
    rate = Fraction(1, 4) + delta
    while values[-1] < t:
        nj = values[-1]
        if Fraction(nj, t) >= Fraction(3, 4):
            values.append(t)
            break
        nxt = min(math.floor(rate * t / (1 - Fraction(nj, t))), t)
        if nxt <= nj:
            raise ParameterError(
                f"recurrence stalled at n_j={nj} (t={t}, delta={delta}); t is too small"
            )
        # Floor-loss guard from the width condition: the next ratio still
        # clears (1/4 + delta/2) / (1 - n_j/t) whenever the cap at t did not fire.
        if nxt < t and Fraction(nxt, t) < (Fraction(1, 4) + delta / 2) / (1 - Fraction(nj, t)):
            raise AssertionError(f"floor loss broke the width condition at n_j={nj}")
        values.append(nxt)
    return values


def simple_sequence(t: int) -> GradeSequence:
    """The unit-step sequence 0, 1, ..., t.

    The stored epsilon is the smallest value for which the defining
    inequality holds: exactly 1/t at even t and 1/t - 1/(4t^2) at odd t,
    since the step j(t - j) peaks at t^2/4, or (t^2 - 1)/4 at odd t.
    """
    if t < 2:
        raise ParameterError(f"t must be at least 2, got {t}")
    values = tuple(range(t + 1))
    return GradeSequence(t=t, epsilon=minimal_epsilon(t, values), values=values)


def minimal_epsilon(t: int, values: tuple[int, ...]) -> Fraction:
    """Smallest epsilon making a structurally valid sequence pass validation."""
    violations = structure_violations(t, values)
    if violations:
        raise ParameterError(
            f"invalid grade sequence {values}: "
            + "; ".join(v.message for v in violations)
        )
    return _implied_epsilon(t, 2, values)


def _implied_epsilon(t: int, r: int, values: tuple[int, ...]) -> Fraction:
    """The fitting epsilon of a structurally valid sequence's grade blocks."""
    return _fitting_epsilon(t, r, _grade_degrees(t, r, values))


def _fitting_epsilon(t: int, r: int, degrees: list[int]) -> Fraction:
    """Smallest epsilon >= 0 with every degree at most (c_r + epsilon) t^r.
    On a whole sequence the floor never binds: the step with n_j <= t/r <=
    n_{j+1} has degree at least (t/r)(t - t/r)^(r-1) = c_r t^r."""
    return max(Fraction(max(degrees), t**r) - threshold_constant(r), Fraction(0))


# -- hypergraph sequences -----------------------------------------------------


def minimal_hypergraph_t(r: int, epsilon: Fraction) -> int:
    """Smallest t with t^(r-1) + (1+delta) c_r t^r <= (1+epsilon) c_r t^r.

    With delta = 5 epsilon / 6 this reads t >= 6 / (epsilon c_r).
    """
    return math.ceil(Fraction(6) / (Fraction(epsilon) * threshold_constant(r)))


def hypergraph_grade_sequence(t: int, r: int, epsilon: Fraction) -> HypergraphGradeSequence:
    """Generate the r-uniform grade sequence.

    n_1 = 0 and n_{j+1} = min(floor((1+delta) c_r (t/(t-n_j))^(r-1) t), t)
    with delta = 5 epsilon / 6; once (t - n_j)^(r-1) <= c_r t^(r-1) a single
    terminal grade with n = t is appended.
    """
    epsilon = Fraction(epsilon)
    c_r = threshold_constant(r)
    if not 0 < epsilon < c_r / 2:
        raise ParameterError(
            f"epsilon must lie in (0, c_r/2) = (0, {c_r / 2}), got {epsilon}"
        )
    t0 = minimal_hypergraph_t(r, epsilon)
    if t < t0:
        raise ParameterError(
            f"t={t} is below the minimal admissible value {t0} for r={r}, epsilon={epsilon}",
            minimal_t=t0,
        )
    delta = 5 * epsilon / 6
    values = [0]
    terminal = False
    while values[-1] < t:
        nj = values[-1]
        if len(values) >= 2 and (t - nj) ** (r - 1) <= c_r * t ** (r - 1):
            values.append(t)
            terminal = True
            break
        nxt = min(
            math.floor((1 + delta) * c_r * Fraction(t, t - nj) ** (r - 1) * t), t
        )
        if nxt <= nj:
            raise ParameterError(
                f"recurrence stalled at n_j={nj} (t={t}, r={r}); t is too small"
            )
        if nxt < t and nj > 0:
            # Growth-rate guarantee used by the grade-count bound.
            if Fraction(nxt, t) < (1 + delta / 2) * Fraction(nj, t):
                raise AssertionError(f"grade growth too slow: n_j={nj}, n_j+1={nxt}")
        values.append(nxt)

    if values[1] * 2 < epsilon * t:
        raise ParameterError(f"n_2={values[1]} fell below epsilon*t/2; t too small")

    seq = HypergraphGradeSequence(
        t=t, r=r, epsilon=epsilon, values=tuple(values), delta=delta, terminal=terminal
    )
    violations = validate_sequence(seq)
    if violations:
        raise ParameterError(f"generated sequence failed validation: {violations}")
    bound = grade_count_bound(epsilon)
    if len(values) > bound:
        raise ParameterError(
            f"sequence has {len(values)} grades, above the bound {bound}"
        )
    return seq


def grade_count_bound(epsilon: Fraction) -> int:
    """ceil(log_{1+eps/3}(2/eps + 2)) + 2, the guaranteed grade-count cap:
    k + 2 for the least k with (1 + eps/3)^k >= 2/eps + 2, found exactly."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ParameterError(f"epsilon must be positive, got {epsilon}")
    base = 1 + epsilon / 3
    target = 2 / epsilon + 2  # > 1, so k = 0 falls short
    # Doubling, then bisection: O(log k) exact powers instead of k products.
    short, enough = 0, 1
    while base**enough < target:
        short, enough = enough, 2 * enough
    while enough - short > 1:
        mid = (short + enough) // 2
        if base**mid < target:
            short = mid
        else:
            enough = mid
    return enough + 2


# -- validation ---------------------------------------------------------------


def structure_violations(t: int, values: tuple[int, ...]) -> list[Violation]:
    """The structural invariants 0 = n_1 < ... < n_k = t with k >= 2."""
    if len(values) < 2:
        return [Violation(0, "a grade sequence needs at least two values")]
    out: list[Violation] = []
    if values[0] != 0:
        out.append(Violation(0, f"n_1 must be 0, got {values[0]}"))
    if values[-1] != t:
        out.append(Violation(len(values) - 1, f"n_k must equal t={t}, got {values[-1]}"))
    for j in range(len(values) - 1):
        if values[j + 1] <= values[j]:
            out.append(Violation(j, f"not strictly increasing at j={j + 1}"))
    return out


def grade_block_degree(t: int, r: int, n_j: int, n_next: int) -> int:
    """n_{j+1} (t - n_j)^(r-1) + (t - n_{j+1})^(r-1): the degree of a grade
    j+1 block, its heavy edges plus the edges from a parent's heavy vertex."""
    return n_next * (t - n_j) ** (r - 1) + (t - n_next) ** (r - 1)


def _grade_degrees(t: int, r: int, values: Sequence[int]) -> list[int]:
    """The block degree of each grade after the first, over consecutive values."""
    return [grade_block_degree(t, r, a, b) for a, b in zip(values, values[1:])]


def validate_sequence(seq: AnySequence) -> list[Violation]:
    """Check all sequence invariants under exact arithmetic.

    Every grade block's degree meets one budget per sequence type.  A
    :class:`GradeSequence` has the additive (c_2 + epsilon) t^2, that is
    average degree at most (1/4 + epsilon) t; r >= 3 overrides and the
    gadget profiles are fitted to the additive (c_r + epsilon) t^r too.  A
    generated :class:`HypergraphGradeSequence` has the multiplicative
    (1 + epsilon) c_r t^r and, if terminal, must meet the terminal rule.

    Returns an empty list iff the sequence is valid; each violation names the
    index j and the inequality that failed.
    """
    values, t = seq.values, seq.t
    out = structure_violations(t, values)
    hypergraph = isinstance(seq, HypergraphGradeSequence)
    r = seq.r if hypergraph else 2
    c_r = threshold_constant(r)
    if hypergraph:
        budget, shown = (1 + seq.epsilon) * c_r * t**r, "(1+eps)c_r t^r"
    else:
        budget, shown = (c_r + seq.epsilon) * t**r, "(c_r+eps)t^r"
    for j, degree in enumerate(_grade_degrees(t, r, values)):
        if degree > budget:
            message = f"block-degree bound failed at j={j + 1}: {degree} > {shown} = {budget}"
            out.append(Violation(j, message))
    if hypergraph and seq.terminal and len(values) >= 2:
        gap, cap = (t - values[-2]) ** (r - 1), c_r * t ** (r - 1)
        if gap > cap:
            message = f"terminal rule fired although (t-n)^{{r-1}}={gap} exceeds c_r t^(r-1)"
            out.append(Violation(len(values) - 1, f"{message} = {cap}"))
    return out


# -- Moebius orbit ------------------------------------------------------------


def mobius_orbit(
    alpha: Fraction,
    start: Fraction = Fraction(0),
    max_steps: int = DEFAULT_MAX_STEPS,
) -> MobiusOrbit:
    """Iterate z -> alpha / (1 - z) over the rationals and classify the orbit.

    * ``escaped(m)``: the first iterate z_m with z_m >= 1 (hitting the pole
      z = 1 exactly counts as escaped at that step);
    * ``converged(z*)``: the map has a real fixed point z* (alpha <= 1/4) and
      the orbit either gets within CONVERGENCE_TOLERANCE of it or approaches
      it monotonically for the whole run;
    * ``undecided`` otherwise.
    """
    alpha = Fraction(alpha)
    start = Fraction(start)
    if start == 1:
        raise ParameterError("start must differ from 1")
    if max_steps < 1:
        raise ParameterError("max_steps must be positive")

    points = [start]
    outcome: OrbitOutcome | None = None
    if start >= 1:
        outcome = OrbitOutcome(kind="escaped", step=0)

    z = start
    step = 0
    while outcome is None and step < max_steps:
        step += 1
        if z == 1:
            outcome = OrbitOutcome(kind="escaped", step=step - 1)
            break
        z = alpha / (1 - z)
        points.append(z)
        if z >= 1:
            outcome = OrbitOutcome(kind="escaped", step=step)

    if outcome is None:
        outcome = _classify_bounded_orbit(alpha, points)
    return MobiusOrbit(alpha=alpha, start=start, points=tuple(points), outcome=outcome)


def attracting_fixed_point(alpha: Fraction) -> Fraction | None:
    """The real attracting fixed point of z -> alpha/(1-z), if it exists.

    Solves z(1-z) = alpha; real solutions need alpha <= 1/4 and the smaller
    root is the attracting one.  Returns an exact value when the discriminant
    is a perfect rational square (covers alpha = 1/4 where z* = 1/2), else a
    high-precision rational approximation.
    """
    alpha = Fraction(alpha)
    disc = 1 - 4 * alpha
    if disc < 0:
        return None
    num, den = disc.numerator, disc.denominator
    sq_num, sq_den = math.isqrt(num), math.isqrt(den)
    if sq_num * sq_num == num and sq_den * sq_den == den:
        root = Fraction(sq_num, sq_den)
    else:
        scale = 10**24
        root = Fraction(math.isqrt(int(disc * scale * scale)), scale)
    return (1 - root) / 2


def _classify_bounded_orbit(alpha: Fraction, points: list[Fraction]) -> OrbitOutcome:
    fixed = attracting_fixed_point(alpha)
    if fixed is None:
        return OrbitOutcome(kind="undecided")
    dists = [abs(z - fixed) for z in points]
    if dists[-1] < CONVERGENCE_TOLERANCE:
        return OrbitOutcome(kind="converged", limit=fixed)
    monotone = all(dists[i + 1] <= dists[i] for i in range(len(dists) - 1))
    if monotone and dists[-1] < dists[0]:
        return OrbitOutcome(kind="converged", limit=fixed)
    return OrbitOutcome(kind="undecided")


# -- block-count threshold ----------------------------------------------------


def haxell_threshold(n: int, t: int) -> int:
    """ceil(n t / (2 (n-1))): the largest maximum degree that still forces an
    independent transversal for every t-thick partition into n blocks."""
    if n < 2:
        raise ParameterError(f"n must be at least 2, got {n}")
    if t < 1:
        raise ParameterError(f"t must be positive, got {t}")
    return math.ceil(Fraction(n * t, 2 * (n - 1)))
