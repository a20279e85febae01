"""Materialize the extremal constructions as concrete partitioned instances.

All builders share one recursion of units.  A grade-1 unit is one block of t
light vertices.  A unit of grade j+1 is a fresh block with n_{j+1} heavy and
t - n_{j+1} light vertices, built after a private consumable for each heavy
vertex: r - 1 fresh grade-j units or, at grade 2 of the degree-bounded
variants, a join gadget.  The consumable is data, the edge heads that its
heavy vertex completes into edges.  Ids are assigned depth-first over the
copies with the root block last, so rebuilding with the same recipe is
byte-identical.

The block count multiplies by roughly n_j (r-1) per grade, so full builds
blow up quickly; every builder first predicts its size with ``predict_size``,
which walks the same recursion, and refuses builds beyond ``max_cells`` with
the exact totals attached.  The ``*_profile`` functions compute the complete
exact numerology (part sizes, degree profile, per-grade block degrees,
predicted sizes) without materializing anything.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Sequence

from .errors import BuildSizeError, ParameterError, SequenceError
from .errors import _as_rational, _refuse_bad_budget, _refuse_non_int
from .model import HEAVY, LIGHT, Block, PartitionedInstance, _declared_t, thickness
from .sequences import (
    GradeSequence,
    forest_grade_sequence,
    hypergraph_grade_sequence,
    minimal_t,
    structure_violations,
    threshold_constant,
    validate_sequence,
    _fitting_epsilon,
    _grade_degrees,
    _implied_epsilon,
    _run_floor_recurrence,
)

# Rational stand-in (16 digits) for the optimal split 1/2 + 1/(2*sqrt(2)),
# which keeps both the join parts and the forced set just below 0.854 t.
DEFAULT_BOUNDED_ALPHA = Fraction("0.8535533905932738")
LOCAL_ALPHA = Fraction(731, 1000)
LOCAL_DEGREE_RATIO = Fraction(731, 1000)

# Refuse to materialize instances beyond this many vertices or edges.
DEFAULT_MAX_CELLS = 5_000_000


@dataclass(frozen=True)
class BuildRecipe:
    """Flag-level description of a build, used by the CLI."""

    kind: str  # a key of _RECIPE_READS
    t: int | None = None
    r: int = 2
    epsilon: Fraction | None = None
    alpha: Fraction | None = None
    k_stars: int | None = None
    sequence_override: tuple[int, ...] | None = None


@dataclass(frozen=True)
class SizePrediction:
    blocks: int
    vertices: int
    edges: int


@dataclass(frozen=True)
class DegreeBoundedProfile:
    """Exact numerology of a degree-bounded build, independent of its size.

    The pair variants (bounded and local degree) are the r-uniform join
    gadget build at r=2; one formula set gives every variant's degrees.
    ``block_degrees`` lists the gadget's r blocks, then grades 2..k.
    The grade-2 heavy degree is forced_size * t^(r-2), so ``grade_values[0]``
    is read by neither the numerology nor the build. The pair variants
    record the effective first value t - forced_size there, the r-uniform
    one the sequence's 0.
    """

    t: int
    r: int
    epsilon: Fraction
    alpha: Fraction | None
    part_sizes: tuple[int, ...]
    forced_size: int
    grade_values: tuple[int, ...]
    max_degree: int
    max_degree_bound: int
    local_degree: int | None
    block_degrees: tuple[int, ...]
    prediction: SizePrediction


# -- accumulator --------------------------------------------------------------


class _Accum:
    """Mutable construction state; light vertices precede heavy in a block.
    Ids are handed out in creation order and each edge lists its vertices
    in that order, so the instance keeps the edges as given; it would sort
    any edge that came unsorted."""

    def __init__(self, r: int):
        self.r = r
        self.blocks: list[Block] = []
        self.roles: list[str] = []
        self.edges: list[tuple[int, ...]] = []
        self._next = 0

    def add_block(
        self, grade: int | None, light: int, heavy: int
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        lights = tuple(range(self._next, self._next + light))
        self._next += light
        heavies = tuple(range(self._next, self._next + heavy))
        self._next += heavy
        self.blocks.append(Block(id=len(self.blocks), members=lights + heavies, grade=grade))
        self.roles.extend([LIGHT] * light + [HEAVY] * heavy)
        return lights, heavies

    def finish(self, meta: dict[str, str]) -> PartitionedInstance:
        return PartitionedInstance(self.r, self.blocks, self.edges, roles=self.roles, meta=meta)


# -- the unit recursion ---------------------------------------------------------


def _join_gadget(
    acc: _Accum, t: int, r: int, part_sizes: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """Grade-1 gadget: r blocks carrying a complete r-partite join.

    The join parts are the heavy tails of the blocks; the remaining light
    vertices form the forced set.  Returns the consuming heavy vertex's edge
    heads: every forced vertex combined with all tuples over the first r - 2
    blocks (which have full-size parts, hence no forced vertices).
    """
    parts: list[tuple[int, ...]] = []
    witness_blocks: list[tuple[int, ...]] = []
    forced: list[int] = []
    for i, m in enumerate(part_sizes):
        lights, heavies = acc.add_block(1, t - m, m)
        parts.append(heavies)
        if i < r - 2:
            witness_blocks.append(lights + heavies)
        else:
            forced.extend(lights)
    acc.edges.extend(itertools.product(*parts))
    return [(*xs, s) for s in forced for xs in itertools.product(*witness_blocks)]


def _build_tree(
    acc: _Accum,
    grade: int,
    t: int,
    values: Sequence[int],
    r: int,
    gadget_parts: tuple[int, ...] | None,
) -> tuple[int, ...]:
    """Build one unit of the given grade; return its light set.

    A grade-1 unit is one block of t light vertices.  Each heavy vertex of a
    higher unit completes the edge heads of its private consumable: every
    tuple across the light sets of r - 1 fresh lower units or, at grade 2
    with ``gadget_parts``, the heads of a fresh join gadget.
    """
    if grade == 1:
        return acc.add_block(1, t, 0)[0]
    n = values[grade - 1]
    consumables = [
        _join_gadget(acc, t, r, gadget_parts)
        if grade == 2 and gadget_parts is not None
        else itertools.product(
            *[_build_tree(acc, grade - 1, t, values, r, gadget_parts) for _ in range(r - 1)]
        )
        for _ in range(n)
    ]
    lights, heavies = acc.add_block(grade, t - n, n)
    for v, heads in zip(heavies, consumables):
        # head + (v,) through map, which holds no head, so product reuses its tuple
        acc.edges.extend(map(operator.add, heads, itertools.repeat((v,))))
    return lights


# -- size prediction ----------------------------------------------------------


def predict_size(
    t: int,
    r: int,
    values: Sequence[int],
    gadget_parts: tuple[int, ...] | None = None,
) -> SizePrediction:
    """Blocks, vertices and edges of the recursive build, without building it.

    Walks the build's recursion up from a grade-1 unit (one block, no
    edges), with the same one special case: grade 2 on join gadgets.
    """
    _refuse_non_int("t", t)
    _refuse_non_int("r", r)
    blocks, edges = 1, 0
    for j in range(1, len(values)):
        if j == 1 and gadget_parts is not None:
            forced = r * t - sum(gadget_parts)
            sub_blocks, sub_edges, heads = r, math.prod(gadget_parts), forced * t ** (r - 2)
        else:
            sub_blocks, sub_edges = (r - 1) * blocks, (r - 1) * edges
            heads = (t - values[j - 1]) ** (r - 1)
        blocks, edges = 1 + values[j] * sub_blocks, values[j] * (sub_edges + heads)
    return SizePrediction(blocks=blocks, vertices=blocks * t, edges=edges)


def _check_budget(pred: SizePrediction, max_cells: int | None, what: str) -> None:
    if max_cells is None:
        return
    if pred.vertices > max_cells or pred.edges > max_cells:
        raise BuildSizeError(
            f"{what} would materialize {pred.blocks} blocks, {pred.vertices} "
            f"vertices and {pred.edges} edges, beyond the budget of {max_cells}",
            predicted_blocks=pred.blocks,
            predicted_vertices=pred.vertices,
            predicted_edges=pred.edges,
        )


# -- plain builders -----------------------------------------------------------


def build_forest(
    t: int, seq: GradeSequence, max_cells: int | None = DEFAULT_MAX_CELLS
) -> PartitionedInstance:
    """The recursive forest: grade-1 blocks are independent sets of size t,
    each higher heavy vertex is fully joined to the light set of a private
    lower unit.  Light vertices have degree at most 1 and the result is
    always a forest."""
    _refuse_bad_budget("max_cells", max_cells)
    _refuse_non_int("t", t)
    if seq.t != t:
        raise SequenceError(f"sequence was generated for t={seq.t}, not t={t}")
    violations = validate_sequence(seq)
    if violations:
        raise SequenceError(f"invalid sequence: {violations}")
    return _build_recursive("forest", t, 2, seq.values, seq.epsilon, None, max_cells)


def build_hypergraph(
    t: int,
    r: int,
    epsilon: Fraction | None = None,
    sequence_override: Sequence[int] | None = None,
    max_cells: int | None = DEFAULT_MAX_CELLS,
) -> PartitionedInstance:
    """The r-uniform extension: each heavy vertex owns a private (r-1)-tuple
    of lower units and is joined to all light tuples across them.

    With ``sequence_override`` the values are only checked structurally and
    the implied epsilon (smallest making every per-grade block degree fit
    (c_r + eps) t^r) is recorded in the metadata.
    """
    _refuse_bad_budget("max_cells", max_cells)
    _refuse_non_int("t", t)
    threshold_constant(r)  # refuses r unless an int of at least 2
    if epsilon is not None:
        epsilon = _as_rational("epsilon", epsilon, positive=True)
    values = _hypergraph_values(t, r, epsilon, sequence_override)
    if sequence_override is not None:
        epsilon, source = _implied_epsilon(t, r, values), "override"
    else:
        source = "generated"
    extra_meta = {"r": str(r), "sequence_source": source}
    return _build_recursive("hypergraph", t, r, values, epsilon, None, max_cells, extra_meta)


def _hypergraph_values(
    t: int,
    r: int,
    epsilon: Fraction | None,
    sequence_override: Sequence[int] | None,
) -> tuple[int, ...]:
    """The override, checked for structure only, or the generated sequence."""
    if sequence_override is None:
        if epsilon is None:
            raise ParameterError("epsilon is required unless a sequence is given")
        return hypergraph_grade_sequence(t, r, epsilon).values
    values = tuple(sequence_override)
    violations = structure_violations(t, values)
    if violations:
        raise SequenceError(
            f"override {values} is not a grade sequence for t={t}: "
            + "; ".join(v.message for v in violations)
        )
    return values


def _build_recursive(
    builder: str,
    t: int,
    r: int,
    values: Sequence[int],
    epsilon: Fraction,
    gadget_parts: tuple[int, ...] | None,
    max_cells: int | None,
    extra_meta: dict[str, str] | None = None,
) -> PartitionedInstance:
    """Build the top unit on plain grade-1 units, or on join gadgets with
    ``gadget_parts``; refuse it first if the prediction exceeds the budget.
    The metadata of every recursive build is written here: the builder, t,
    epsilon and sequence, then the builder's own ``extra_meta``."""
    pred = predict_size(t, r, values, gadget_parts)
    _check_budget(pred, max_cells, builder)
    acc = _Accum(r)
    _build_tree(acc, len(values), t, values, r, gadget_parts)
    meta = {"builder": builder, "t": str(t), "epsilon": str(epsilon), "sequence": _seq_str(values)}
    inst = acc.finish({**meta, **(extra_meta or {})})
    if inst.num_blocks != pred.blocks or len(inst.edges) != pred.edges:
        raise AssertionError(
            f"size prediction mismatch: predicted {pred}, "
            f"built {inst.num_blocks} blocks / {len(inst.edges)} edges"
        )
    return inst


def _seq_str(values: Sequence[int]) -> str:
    return ",".join(str(v) for v in values)


# -- degree-bounded profiles and builders --------------------------------------


def _gadget_profile(
    t: int,
    r: int,
    parts: tuple[int, ...],
    values: tuple[int, ...],
    epsilon: Fraction | None,
    alpha: Fraction | None,
    bound: int,
    local: int | None = None,
    bound_is_local: bool = False,
) -> DegreeBoundedProfile:
    """The join-gadget numerology shared by every degree-bounded build.

    ``parts`` are the join parts of the grade-1 gadget (all but the last two
    of size t) and ``values`` the grade values; ``values[0]`` is not read.
    Fits the smallest epsilon to the block degrees under the additive budget
    (c_r + epsilon) t^r and refuses a given ``epsilon`` below it, then checks
    the maximum degree (or ``local``, if ``bound_is_local``) against ``bound``.
    """
    c_r = threshold_constant(r)
    forced = r * t - sum(parts)
    grade2_heavy = forced * t ** (r - 2)

    # Vertex degrees: join parts, heavy grades, forced and light vertices.
    part_degrees = [
        math.prod(parts[:i] + parts[i + 1 :]) + (forced * t ** (r - 3) if i < r - 2 else 0)
        for i in range(r)
    ]
    tail = [(t - values[j - 1]) ** (r - 1) for j in range(2, len(values))]
    max_deg = max(part_degrees + [grade2_heavy] + tail + [t ** (r - 2)])

    # Stretched-edge counts per block: gadget blocks then grades 2..k.
    prod_all = math.prod(parts)
    degrees = [
        prod_all + (forced if i < r - 2 else t - parts[i]) * t ** (r - 2) for i in range(r)
    ]
    degrees.append(values[1] * grade2_heavy + (t - values[1]) ** (r - 1))
    degrees += _grade_degrees(t, r, values[1:])

    fit = _fitting_epsilon(t, r, degrees)
    if epsilon is None:
        epsilon = fit
    if fit > epsilon:  # a given epsilon is positive, so the fit's floor at 0 is moot
        raise ParameterError(
            f"block degree {max(degrees)} exceeds (c_r+eps)t^r = {(c_r + epsilon) * t**r}; "
            f"epsilon={epsilon} is too small for this geometry"
        )

    checked = local if bound_is_local else max_deg
    if checked > bound:
        raise ParameterError(
            f"{'local degree' if bound_is_local else 'maximum degree'} {checked} "
            f"exceeds the target bound {bound}"
        )
    return DegreeBoundedProfile(
        t=t,
        r=r,
        epsilon=epsilon,
        alpha=alpha,
        part_sizes=parts,
        forced_size=forced,
        grade_values=values,
        max_degree=max_deg,
        max_degree_bound=bound,
        local_degree=local,
        block_degrees=tuple(degrees),
        prediction=predict_size(t, r, values, gadget_parts=parts),
    )


def bounded_degree_profile(
    t: int,
    epsilon: Fraction,
    alpha: Fraction | None = None,
) -> DegreeBoundedProfile:
    """Exact numerology of the maximum-degree-bounded graph build.

    The grade-1 gadget is a complete bipartite join between A and B inside a
    pair of blocks, |A| = ceil(alpha t), |B| = ceil(t / (4 alpha)); the
    forced set has size 2t - |A| - |B| and the grade recurrence continues
    from the effective value |A| + |B| - t.
    """
    _refuse_non_int("t", t)
    epsilon = _as_rational("epsilon", epsilon, positive=True)
    alpha = DEFAULT_BOUNDED_ALPHA if alpha is None else _as_rational("alpha", alpha)
    if not Fraction(1, 2) <= alpha < 1:
        raise ParameterError(f"alpha must lie in [1/2, 1), got {alpha}")
    # Degrees are governed by max(alpha, 2 - alpha - 1/(4 alpha)); the two
    # agree at the optimal alpha = 1/2 + 1/(2 sqrt 2), just below 0.854.
    ratio = max(alpha, 2 - alpha - 1 / (4 * alpha))
    return _pair_profile(t, epsilon, alpha, None, math.ceil(ratio * t))


def local_degree_profile(t: int, epsilon: Fraction) -> DegreeBoundedProfile:
    """Numerology of the local-degree-bounded build (alpha fixed at 0.731,
    grade-2 size set directly to ceil((2 - alpha - 1/(4 alpha))^-1 t/4))."""
    _refuse_non_int("t", t)
    epsilon = _as_rational("epsilon", epsilon, positive=True)
    alpha = LOCAL_ALPHA
    n2 = math.ceil(1 / (2 - alpha - 1 / (4 * alpha)) * Fraction(t, 4))
    return _pair_profile(t, epsilon, alpha, n2, math.ceil(LOCAL_DEGREE_RATIO * t))


def _pair_profile(
    t: int, epsilon: Fraction, alpha: Fraction, n2: int | None, bound: int
) -> DegreeBoundedProfile:
    """The r = 2 geometry: join parts from alpha, grade values from the
    effective first value |A| + |B| - t (or from ``n2``, bounding the local
    degree instead of the maximum degree).  That value is never negative,
    as alpha + 1/(4 alpha) >= 1."""
    a_size, b_size = parts = (math.ceil(alpha * t), math.ceil(t / (4 * alpha)))
    if a_size >= t or b_size >= t or a_size < 1 or b_size < 1:
        raise ParameterError(
            f"join parts |A|={a_size}, |B|={b_size} must be strictly between 0 and t={t}"
        )
    start = a_size + b_size - t
    delta = epsilon / 2
    if delta * t <= 2:
        raise ParameterError(
            f"t={t} too small for epsilon={epsilon} (need epsilon*t/2 > 2)",
            minimal_t=minimal_t(epsilon),
        )
    if n2 is None:
        values = tuple(_run_floor_recurrence(t, delta, start=start))
    else:
        if n2 <= start:
            raise ParameterError(f"grade-2 size {n2} must exceed the start {start}")
        values = (start,) + tuple(_run_floor_recurrence(t, delta, start=n2))
    local = max(a_size, b_size, t - a_size, t - b_size, t - values[1])
    return _gadget_profile(t, 2, parts, values, epsilon, alpha, bound, local, n2 is not None)


def build_bounded_degree(
    t: int,
    epsilon: Fraction,
    alpha: Fraction | None = None,
    max_cells: int | None = DEFAULT_MAX_CELLS,
) -> PartitionedInstance:
    """Materialize the maximum-degree-bounded variant.

    The build is not certified here; ``propagate_certificate`` (or
    ``transversals certify``) proves that it has no independent transversal.
    """
    _refuse_bad_budget("max_cells", max_cells)
    profile = bounded_degree_profile(t, epsilon, alpha)
    return _build_gadget(profile, "bounded_degree", max_cells, {"alpha": str(profile.alpha)})


def build_local_degree(
    t: int,
    epsilon: Fraction,
    max_cells: int | None = DEFAULT_MAX_CELLS,
) -> PartitionedInstance:
    """Materialize the local-degree-bounded variant.

    The build is not certified here; ``propagate_certificate`` (or
    ``transversals certify``) proves that it has no independent transversal.
    """
    _refuse_bad_budget("max_cells", max_cells)
    profile = local_degree_profile(t, epsilon)
    return _build_gadget(profile, "local_degree", max_cells, {"alpha": str(profile.alpha)})


def _build_gadget(
    profile: DegreeBoundedProfile, name: str, max_cells: int | None, extra_meta: dict[str, str]
) -> PartitionedInstance:
    """Materialize a degree-bounded profile: join gadgets at grade 1."""
    return _build_recursive(
        name,
        profile.t,
        profile.r,
        profile.grade_values,
        profile.epsilon,
        profile.part_sizes,
        max_cells,
        extra_meta,
    )


def hypergraph_bounded_parts(t: int, r: int) -> tuple[int, ...]:
    """Join part sizes for the degree-bounded r-uniform gadget.

    All parts have size t except the last two: m_{r-1} = ceil((1 - c_r/3) t)
    and m_r = floor(c_r t^2 / m_{r-1}), so the part product stays at most
    c_r t^r.  The last part is never empty: m_{r-1} < t forces c_r t >= 3,
    and m_r >= floor(c_r t).
    """
    _refuse_non_int("t", t)
    c_r = threshold_constant(r)
    m_second = math.ceil((1 - c_r / 3) * t)
    if m_second >= t:
        raise ParameterError(
            f"t={t} too small to separate the intermediate part (need t >= 3/c_r)",
            minimal_t=math.ceil(3 / c_r),
        )
    return (t,) * (r - 2) + (m_second, math.floor(c_r * t * t / m_second))


def hypergraph_bounded_profile(
    t: int,
    r: int,
    epsilon: Fraction | None = None,
    sequence_override: Sequence[int] | None = None,
) -> DegreeBoundedProfile:
    """Exact numerology of the degree-bounded r-uniform build."""
    parts = hypergraph_bounded_parts(t, r)
    if epsilon is not None:
        epsilon = _as_rational("epsilon", epsilon, positive=True)
    values = _hypergraph_values(t, r, epsilon, sequence_override)
    bound = math.ceil((1 - threshold_constant(r) / 3) * t ** (r - 1)) + r
    if sequence_override is not None:
        epsilon = None  # implied by the override
    return _gadget_profile(t, r, parts, values, epsilon, None, bound)


def build_hypergraph_bounded_degree(
    t: int,
    r: int,
    epsilon: Fraction | None = None,
    sequence_override: Sequence[int] | None = None,
    max_cells: int | None = DEFAULT_MAX_CELLS,
) -> PartitionedInstance:
    """Materialize the degree-bounded r-uniform variant.

    Grade-1 units are r-block gadgets carrying a complete r-partite join;
    each grade-2 heavy vertex is joined to every forced vertex of its private
    gadget combined with all tuples over the gadget's full-size blocks.
    """
    _refuse_bad_budget("max_cells", max_cells)
    profile = hypergraph_bounded_profile(t, r, epsilon, sequence_override)
    return _build_gadget(
        profile,
        "hypergraph_bounded_degree",
        max_cells,
        {
            "r": str(r),
            "parts": _seq_str(profile.part_sizes),
            "sequence_source": "override" if sequence_override is not None else "generated",
        },
    )


# -- stars ---------------------------------------------------------------------


def build_star_counterexample(
    k: int, max_cells: int | None = DEFAULT_MAX_CELLS
) -> PartitionedInstance:
    """k^2 disjoint stars with k+1 vertices each: one block holds all the
    centers and each star's leaves form their own block.  Every block meets
    exactly |B|^2 / k edges, yet no independent transversal exists.  Builds
    beyond ``max_cells`` vertices or edges (k^3 + k^2 and k^3) are refused."""
    _refuse_bad_budget("max_cells", max_cells)
    _refuse_non_int("k", k)
    if k < 1:
        raise ParameterError(f"k must be positive, got {k}")
    pred = SizePrediction(blocks=k * k + 1, vertices=k**3 + k * k, edges=k**3)
    _check_budget(pred, max_cells, "stars")
    acc = _Accum(2)
    _, centers = acc.add_block(None, 0, k * k)
    for center in centers:
        leaves, _ = acc.add_block(None, k, 0)
        acc.edges.extend((center, leaf) for leaf in leaves)
    return acc.finish({"builder": "stars", "k": str(k)})


# -- padding -------------------------------------------------------------------


def pad_blocks(
    instance: PartitionedInstance,
    target_n: int,
    max_cells: int | None = DEFAULT_MAX_CELLS,
) -> PartitionedInstance:
    """Append padding blocks of t isolated light vertices until the instance
    has ``target_n`` blocks.  Metrics and certificates remain valid.  A
    padded instance beyond ``max_cells`` vertices or edges is refused."""
    _refuse_bad_budget("max_cells", max_cells)
    _refuse_non_int("target_n", target_n)
    current = instance.num_blocks
    if target_n < current:
        raise ParameterError(
            f"target block count {target_n} is below the current count {current}"
        )
    if target_n == current:
        return instance
    t = _declared_t(instance) or thickness(instance)
    if t < 1:
        raise ParameterError("cannot infer a positive block size for padding")
    nxt = instance.num_vertices
    pred = SizePrediction(
        blocks=target_n, vertices=nxt + (target_n - current) * t, edges=len(instance.edges)
    )
    _check_budget(pred, max_cells, "padding")
    blocks = list(instance.blocks)
    roles = list(instance.roles)
    for b in range(current, target_n):
        members = tuple(range(nxt, nxt + t))
        nxt += t
        blocks.append(Block(id=b, members=members, grade=None, padding=True))
        roles.extend([LIGHT] * t)
    return PartitionedInstance(
        instance.r, blocks, instance.edges, roles=roles, meta=dict(instance.meta)
    )


# -- recipe dispatch -----------------------------------------------------------


# The recipe fields each kind reads besides ``kind``; the others must keep
# their defaults (r = 2 for the graph kinds).  An explicit sequence wins over
# epsilon, which stays accepted beside it.
_RECIPE_READS = {
    "forest": {"t", "epsilon", "sequence_override"},
    "bounded_degree": {"t", "epsilon", "alpha"},
    "local_degree": {"t", "epsilon"},
    "hypergraph": {"t", "r", "epsilon", "sequence_override"},
    "hypergraph_bounded_degree": {"t", "r", "epsilon", "sequence_override"},
    "stars": {"k_stars"},
}


def build(recipe: BuildRecipe, max_cells: int | None = DEFAULT_MAX_CELLS) -> PartitionedInstance:
    """Build from a flag-level recipe (the CLI entry point).  A field that
    the recipe's kind does not read raises :class:`ParameterError`; the
    builder checks the fields that it reads."""
    _refuse_bad_budget("max_cells", max_cells)
    kind = recipe.kind
    if kind not in _RECIPE_READS:
        raise ParameterError(f"unknown build kind {kind!r}")
    unread = [
        f"{f.name}={getattr(recipe, f.name)}"
        for f in fields(recipe)
        if f.name not in _RECIPE_READS[kind] | {"kind"} and getattr(recipe, f.name) != f.default
    ]
    if unread:
        raise ParameterError(f"kind {kind!r} does not read {', '.join(unread)}")
    if kind == "stars":
        return build_star_counterexample(recipe.k_stars, max_cells=max_cells)
    t = recipe.t
    if kind == "forest":
        if recipe.sequence_override is not None:
            seq = GradeSequence.from_values(t, recipe.sequence_override)
        elif recipe.epsilon is not None:
            seq = forest_grade_sequence(t, recipe.epsilon)
        else:
            raise ParameterError("forest needs epsilon or an explicit sequence")
        return build_forest(t, seq, max_cells=max_cells)
    if kind == "bounded_degree":
        return build_bounded_degree(t, recipe.epsilon, recipe.alpha, max_cells=max_cells)
    if kind == "local_degree":
        return build_local_degree(t, recipe.epsilon, max_cells=max_cells)
    if kind == "hypergraph":
        return build_hypergraph(
            t, recipe.r, recipe.epsilon, recipe.sequence_override, max_cells=max_cells
        )
    return build_hypergraph_bounded_degree(
        t, recipe.r, recipe.epsilon, recipe.sequence_override, max_cells=max_cells
    )
