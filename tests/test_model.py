import random
from collections import Counter, namedtuple
from fractions import Fraction

import pytest
from conftest import make_instance, small_hypergraphs
from hypothesis import given, settings
from hypothesis import strategies as st

from transversals import (
    HEAVY,
    LIGHT,
    Block,
    ForeignEdgeError,
    GradeSequence,
    InstanceError,
    PartitionedInstance,
    UniformityError,
    UnknownBlockError,
    block_degree,
    build_forest,
    build_star_counterexample,
    compute_metrics,
    is_forest,
    is_stretched,
    local_degree,
    max_block_average_degree,
    max_degree,
    relabel,
    thickness,
)
from transversals.model import _all_block_degrees


def test_partition_invariants_enforced():
    with pytest.raises(InstanceError, match="more than one block"):
        make_instance(2, [[0, 1], [1, 2]], [])
    with pytest.raises(InstanceError, match="dense"):
        make_instance(2, [[0, 5]], [])
    with pytest.raises(InstanceError, match="distinct"):
        make_instance(2, [[0, 1]], [(0, 0)])
    with pytest.raises(InstanceError, match="duplicate"):
        make_instance(2, [[0, 1], [2, 3]], [(0, 2), (2, 0)])
    with pytest.raises(InstanceError, match="empty"):
        PartitionedInstance(2, [Block(0, ())], [])


@pytest.mark.parametrize("padding", [1, 0, "false", None])
def test_padding_must_be_a_bool(padding):
    with pytest.raises(InstanceError, match="padding must be a bool") as err:
        PartitionedInstance(2, [Block(0, (0, 1)), Block(1, (2,), padding=padding)], [])
    assert err.value.location == "block 1"


@pytest.mark.parametrize("meta", [{"t": 2}, {2: "t"}, {"t": None}, [("t", "2")], "t"])
def test_meta_must_map_strings_to_strings(meta):
    # the readers of meta["t"] take it as a string, so the model refuses others
    with pytest.raises(InstanceError, match="meta must map strings to strings"):
        PartitionedInstance(2, [Block(0, (0, 1))], [], meta=meta)
    assert PartitionedInstance(2, [Block(0, (0, 1))], [], meta=None).meta == {}


def test_violations_name_their_location():
    with pytest.raises(InstanceError) as err:
        make_instance(2, [[0, 1], [1, 2]], [])
    assert err.value.location == "block 1"
    with pytest.raises(InstanceError) as err:
        make_instance(2, [[0, 1], [2, 3]], [(0, 2), (2, 0)])
    assert err.value.location == "edge 1"
    assert str(err.value) == "duplicate edge (0, 2) (at edge 1)"
    with pytest.raises(InstanceError) as err:
        make_instance(2, [[0, 1]], [], roles=["heavy"])
    assert err.value.location is None
    assert str(err.value) == "roles must cover every vertex"
    with pytest.raises(InstanceError) as err:
        make_instance(2, [[0], [1, 2]], [], roles=["heavy", None, "medium"])
    assert str(err.value) == "unknown role 'medium' (at block 1)"


def test_sorted_tuple_edges_are_kept_and_others_copied_sorted():
    inst = build_forest(3, GradeSequence.from_values(3, [0, 3]))
    again = PartitionedInstance(inst.r, inst.blocks, inst.edges)
    assert len(again.edges) == len(inst.edges) > 0
    assert all(e is f for e, f in zip(again.edges, inst.edges))
    Edge = namedtuple("Edge", "a b c")
    given = [(4, 0, 2), [1, 3, 5], Edge(0, 3, 4), (1, 2, 4)]
    inst = make_instance(3, [[0, 1], [2, 3], [4, 5]], given)
    assert inst.edges == ((0, 2, 4), (1, 3, 5), (0, 3, 4), (1, 2, 4))
    assert [type(e) for e in inst.edges] == [tuple] * 4
    assert [e is f for e, f in zip(inst.edges, given)] == [False, False, False, True]


@pytest.mark.parametrize("ids", [(1, 0), (0, 2)], ids=["out-of-order", "out-of-range"])
def test_block_ids_must_equal_positions(ids):
    blocks = [Block(id=ids[0], members=(0,)), Block(id=ids[1], members=(1,))]
    with pytest.raises(InstanceError, match="dense and ordered"):
        PartitionedInstance(2, blocks, [])


def test_block_degree_edgeless_is_zero():
    inst = make_instance(2, [[0, 1], [2, 3]], [])
    assert block_degree(inst, 0) == 0
    assert block_degree(inst, 1) == 0


def test_block_degree_counts_crossing_edges_only():
    # intra-block edges have two endpoints inside and do not count
    inst = make_instance(2, [[0, 1, 2], [3, 4, 5]], [(0, 1), (0, 3), (1, 4)])
    assert block_degree(inst, 0) == 2
    assert block_degree(inst, 1) == 2


def test_block_degree_unknown_block():
    # a bool is refused as an id, as everywhere else in the model
    inst = make_instance(2, [[0, 1], [2, 3]], [])
    for b in (7, -1, "a", None, 1.0, True):
        with pytest.raises(UnknownBlockError, match=f"no block with id {b!r}$"):
            inst.block(b)
        with pytest.raises(UnknownBlockError, match=f"no block with id {b!r}$"):
            block_degree(inst, b)


@pytest.mark.parametrize("v", [4, -1, "a", None, 1.0, True])
def test_vertex_info_unknown_vertex(v):
    inst = make_instance(2, [[0, 1], [2, 3]], [])
    with pytest.raises(IndexError, match=f"no vertex with id {v!r}$"):
        inst.vertex_info(v)


def test_block_degree_star_center_block():
    inst = build_star_counterexample(4)
    assert block_degree(inst, 0) == 64
    for leaf_block in range(1, 17):
        assert block_degree(inst, leaf_block) == 4


def test_block_degree_two_grade_forest():
    inst = build_forest(3, GradeSequence.from_values(3, [0, 3]))
    grade2 = next(b.id for b in inst.blocks if b.grade == 2)
    assert block_degree(inst, grade2) == 9


def test_block_degree_hypergraph_counts_stretched_only():
    # non-stretched edge (two endpoints in block 0) is excluded for r >= 3
    inst = make_instance(3, [[0, 1, 2], [3, 4], [5, 6]], [(0, 1, 3), (0, 3, 5)])
    assert block_degree(inst, 0) == 1
    assert block_degree(inst, 1) == 1


def test_max_block_average_degree():
    inst = make_instance(2, [[0, 1], [2, 3]], [(0, 2)])
    assert max_block_average_degree(inst) == Fraction(1, 2)
    edgeless = make_instance(2, [[0, 1, 2]], [])
    assert max_block_average_degree(edgeless) == 0
    f2 = build_forest(3, GradeSequence.from_values(3, [0, 3]))
    assert max_block_average_degree(f2) == 3
    with pytest.raises(InstanceError, match="^instance has no blocks$"):
        compute_metrics(PartitionedInstance(2, [], []))


def test_max_degree():
    assert max_degree(make_instance(2, [[0, 1, 2]], [])) == 0
    f2 = build_forest(3, GradeSequence.from_values(3, [0, 3]))
    assert max_degree(f2) == 3


def test_local_degree_complete_bipartite():
    # K_{3,2} between two blocks: every left vertex sends 2, right sends 3
    edges = [(u, v) for u in (0, 1, 2) for v in (3, 4)]
    inst = make_instance(2, [[0, 1, 2], [3, 4]], edges)
    assert local_degree(inst) == 3
    assert local_degree(make_instance(2, [[0], [1]], [])) == 0


def test_local_degree_rejects_hypergraphs():
    inst = make_instance(3, [[0], [1], [2]], [(0, 1, 2)])
    with pytest.raises(UniformityError):
        local_degree(inst)
    with pytest.raises(UniformityError):
        is_forest(inst)


def test_is_stretched():
    inst = make_instance(3, [[0, 1], [2, 3], [4, 5]], [(0, 2, 4), (0, 1, 2)])
    assert is_stretched(inst, (0, 2, 4))
    assert not is_stretched(inst, (0, 1, 2))
    assert is_stretched(inst, (4, 2, 0))
    # foreign: no such edge, an edge through a real edge's first vertex,
    # unknown or negative ids, no vertices at all, ids that are not ints
    for edge in [(1, 3, 5), (0, 2, 5), (5, 6, 7), (-1, 0, 2), (), ("a", 2, 4)]:
        with pytest.raises(ForeignEdgeError):
            is_stretched(inst, edge)


def test_is_forest():
    triangle = make_instance(2, [[0], [1], [2]], [(0, 1), (1, 2), (0, 2)])
    assert not is_forest(triangle)
    path = make_instance(2, [[0], [1], [2]], [(0, 1), (1, 2)])
    assert is_forest(path)


def cycle_rank(n, edges):
    """Edges minus (vertices - components), with the components counted by
    depth-first search: 0 exactly when the graph is a forest."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    components = 0
    for source in range(n):
        if seen[source]:
            continue
        components += 1
        seen[source] = True
        stack = [source]
        while stack:
            for w in adj[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return len(edges) - (n - components)


def test_is_forest_matches_a_component_count():
    # random forests on shuffled ids, some with extra edges closing cycles,
    # cut into random blocks; the kinds tallied below must all occur
    rng = random.Random(20261019)
    kinds = Counter()
    for _ in range(1500):
        n = rng.randrange(1, 30)
        perm = rng.sample(range(n), n)
        edges = {
            tuple(sorted((perm[rng.randrange(v)], perm[v])))
            for v in range(1, n)
            if rng.random() < 0.8
        }
        for _ in range(rng.choice((0, 0, 1, 2, 5)) if n > 1 else 0):
            edges.add(tuple(sorted(rng.sample(range(n), 2))))
        cuts = sorted(rng.sample(range(1, n), rng.randrange(n))) if n > 1 else []
        order = rng.sample(range(n), n)
        blocks = [order[a:b] for a, b in zip([0] + cuts, cuts + [n])]
        inst = make_instance(2, blocks, sorted(edges))
        cycles = cycle_rank(n, inst.edges)
        assert is_forest(inst) == (cycles == 0)
        degrees = Counter(v for e in inst.edges for v in e)
        kinds["forest" if cycles == 0 else "several cycles" if cycles > 1 else "one cycle"] += 1
        kinds["isolated vertex"] += any(degrees[v] == 0 for v in range(n))
        kinds["disconnected"] += len(inst.edges) - cycles < n - 1
    assert min(kinds.values()) >= 100 and len(kinds) == 5, kinds


def test_thickness():
    inst = make_instance(2, [[0, 1, 2, 3, 4]], [])
    assert thickness(inst) == 5
    star = build_star_counterexample(4)
    assert thickness(star) == 4


def test_block_degree_equals_sum_of_member_degrees_without_internal_edges(rng):
    # holds for builder outputs, which never produce intra-block edges
    inst = build_forest(3, GradeSequence.from_values(3, [0, 1, 3]))
    adjacency = inst.adjacency()
    for blk in inst.blocks:
        assert block_degree(inst, blk.id) == sum(len(adjacency[v]) for v in blk.members)


def test_block_of_is_the_partition_as_a_tuple():
    inst = make_instance(2, [[0, 3], [2], [1, 4]], [(0, 1)])
    assert inst.block_of == (0, 2, 1, 0, 2)
    assert type(inst.block_of) is tuple
    with pytest.raises(TypeError):
        inst.block_of[0] = 1


def test_partition_block_sizes_sum_to_vertex_count():
    inst = build_forest(2, GradeSequence.from_values(2, [0, 1, 2]))
    assert sum(b.size for b in inst.blocks) == inst.num_vertices


def test_metrics_invariant_under_relabeling(rng):
    inst = build_forest(3, GradeSequence.from_values(3, [0, 3]))
    perm = list(range(inst.num_vertices))
    rng.shuffle(perm)
    shuffled = relabel(inst, perm)
    a, b = compute_metrics(inst), compute_metrics(shuffled)
    assert a.max_block_avg_degree == b.max_block_avg_degree
    assert a.max_degree == b.max_degree
    assert a.local_degree == b.local_degree
    assert a.thickness == b.thickness
    assert sorted(a.per_block_degree.values()) == sorted(b.per_block_degree.values())


@settings(max_examples=250, derandomize=True, database=None, deadline=None)
@given(small_hypergraphs(), st.data())
def test_metrics_are_invariant_under_a_drawn_relabeling(inst, data):
    # relabel keeps block ids, so even the per-block degrees match exactly
    perm = data.draw(st.permutations(range(inst.num_vertices)))
    assert compute_metrics(relabel(inst, perm)) == compute_metrics(inst)


def test_relabel_refuses_a_permutation_entry_that_is_not_an_int():
    # 1.0 == 1, so a sorted comparison alone would let it through
    inst = make_instance(2, [[0], [1]], [(0, 1)])
    for perm in ([0, 1.0], [True, 0]):
        with pytest.raises(InstanceError, match="perm must be a permutation"):
            relabel(inst, perm)


def test_vertex_info_roles_and_grades():
    inst = build_forest(3, GradeSequence.from_values(3, [0, 3]))
    top = max(inst.blocks, key=lambda b: b.grade or 0)
    assert top.grade == 2
    assert all(inst.vertex_info(v).role == HEAVY for v in top.members)
    grade1 = next(b for b in inst.blocks if b.grade == 1)
    assert all(inst.vertex_info(v).role == LIGHT for v in grade1.members)


@pytest.mark.parametrize(
    "edge",
    [(True, 2), (1.0, 2), ("a", 2), (2, None), None, 5, "ab", [True, 2]],
    ids=["bool", "float", "str", "none-entry", "none", "int", "string", "bool-list"],
)
def test_edge_vertex_ids_must_be_ints(edge):
    # a bool or float id would serialize to a file the parser refuses
    with pytest.raises(InstanceError) as err:
        make_instance(2, [[0, 1], [2, 3]], [(0, 3), edge])
    assert err.value.location == "edge 1"


@pytest.mark.parametrize("r", [2.0, True, "2"], ids=["float", "bool", "str"])
def test_uniformity_must_be_an_int(r):
    with pytest.raises(InstanceError, match="uniformity must be"):
        make_instance(r, [[0, 1], [2, 3]], [(0, 2)])


@pytest.mark.parametrize("member", [True, 1.0, "a", None], ids=["bool", "float", "str", "none"])
def test_block_members_must_be_ints(member):
    with pytest.raises(InstanceError, match="not an int") as err:
        make_instance(2, [[0, 3], [2, member]], [])
    assert err.value.location == "block 1"


@pytest.mark.parametrize(
    "block, message",
    [
        (Block(id=True, members=(1,)), "dense and ordered"),
        (Block(id=1, members=(1,), grade=True), "invalid grade True"),
        (Block(id=1, members=(1,), grade=0), "invalid grade 0"),
        (Block(id=1, members=(1,), grade=1.0), "invalid grade 1.0"),
    ],
    ids=["bool-id", "bool-grade", "zero-grade", "float-grade"],
)
def test_block_ids_and_grades_must_be_ints(block, message):
    with pytest.raises(InstanceError, match=message) as err:
        PartitionedInstance(2, [Block(id=0, members=(0,)), block], [])
    assert err.value.location == "block 1"


def reference_edges(edges, r, n):
    """The edge rule applied one edge at a time: the accepted edges, or the
    message and location of the first bad one."""
    accepted, seen = [], set()
    for i, e in enumerate(edges):
        loc = f"edge {i}"
        try:
            ids = tuple(e)
        except TypeError:
            return f"edge {e!r} is not an array of {r} distinct vertices", loc
        if any(type(v) is not int for v in ids):
            return f"edge {ids} has a vertex id that is not an int", loc
        tup = tuple(sorted(ids))
        if len(tup) != r or len(set(tup)) != r:
            return f"edge {ids} is not an array of {r} distinct vertices", loc
        if tup[0] < 0 or tup[-1] >= n:
            return f"edge {tup} references an unknown vertex", loc
        if tup in seen:
            return f"duplicate edge {tup}", loc
        seen.add(tup)
        accepted.append(e if type(e) is tuple and e == tup else tup)
    return accepted


FAULTS = ["bool", "float", "str", "short", "long", "repeat", "range", "negative",
          "duplicate", "unsorted", "list", "none"]


@st.composite
def faulty_edge_lists(draw):
    """Valid sorted edges on a few blocks, with up to three injected faults."""
    r = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(r, 9))
    edges = draw(
        st.lists(
            st.lists(st.integers(0, n - 1), min_size=r, max_size=r, unique=True).map(
                lambda e: tuple(sorted(e))
            ),
            max_size=10,
            unique=True,
        )
    )
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=3)) if edges else ():
        i = draw(st.integers(0, len(edges) - 1))
        if not edges[i]:  # None, or emptied by "short"
            continue
        e, j = list(edges[i]), draw(st.integers(0, len(edges[i]) - 1))
        if fault in ("bool", "float", "str"):
            e[j] = {"bool": e[j] == 1, "float": float(e[j]), "str": str(e[j])}[fault]
        elif fault == "short":
            del e[j]
        elif fault == "long":
            e.append(n - 1)
        elif fault == "repeat":
            e[j] = e[j - 1]
        elif fault == "range":
            e[j] = n + j
        elif fault == "negative":
            e[j] = -1
        elif fault == "duplicate":
            edges.insert(draw(st.integers(0, len(edges))), tuple(e[::-1] if j else e))
        elif fault == "unsorted":
            e.reverse()
        edges[i] = None if fault == "none" else e if fault == "list" else tuple(e)
    return r, n, edges


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(faulty_edge_lists())
def test_edge_passes_agree_with_the_per_edge_rule(case):
    r, n, edges = case
    expected = reference_edges(edges, r, n)
    blocks = [[v] for v in range(n)]
    if isinstance(expected, list):
        inst = make_instance(r, blocks, edges)
        assert inst.edges == tuple(expected)
        # the same edges are kept as given
        given_ids = {id(e) for e in edges}
        assert [id(e) in given_ids for e in inst.edges] == [id(f) in given_ids for f in expected]
    else:
        with pytest.raises(InstanceError) as err:
            make_instance(r, blocks, edges)
        assert (err.value.message, err.value.location) == expected


def local_degree_per_pair(inst):
    """The local degree by its definition: edges per (vertex, other block)."""
    count = {}
    for e in inst.edges:
        for u in e:
            for v in e:
                if inst.block_of[u] != inst.block_of[v]:
                    key = (u, inst.block_of[v])
                    count[key] = count.get(key, 0) + 1
    return max(count.values(), default=0)


def test_local_degree_matches_its_definition(rng):
    from conftest import random_capped_degree_instance

    instances = [
        build_forest(3, GradeSequence.from_values(3, [0, 1, 3])),
        build_star_counterexample(3),
        make_instance(2, [[0, 1, 2], [3, 4]], [(0, 1), (0, 3), (0, 4), (1, 2)]),
    ] + [random_capped_degree_instance(3, 5, rng, cap) for cap in (1, 2, 4, 8)]
    for inst in instances:
        assert local_degree(inst) == local_degree_per_pair(inst)


def block_degrees_per_edge(inst):
    """Every block's degree and the stretched-edge count, one edge at a time:
    an edge over r distinct blocks counts once for each of them."""
    degrees = [0] * inst.num_blocks
    stretched = 0
    for e in inst.edges:
        blocks = {inst.block_of[v] for v in e}
        if len(blocks) == len(e):
            stretched += 1
            for b in blocks:
                degrees[b] += 1
    return dict(enumerate(degrees)), stretched


@pytest.mark.parametrize("r", [3, 4])
def test_block_degrees_match_a_per_edge_count(r, rng):
    # random edges over blocks of unequal sizes, so that some repeat a block,
    # and the same edges relabeled, so that a block tuple's edges interleave
    seen = Counter()
    for _ in range(30):
        sizes = [rng.randrange(1, 5) for _ in range(rng.randrange(r, r + 5))]
        starts = [sum(sizes[:b]) for b in range(len(sizes) + 1)]
        n = starts[-1]
        if n < r:
            continue
        blocks = [range(a, b) for a, b in zip(starts, starts[1:])]
        edges = {tuple(sorted(rng.sample(range(n), r))) for _ in range(rng.randrange(0, 60))}
        inst = make_instance(r, blocks, sorted(edges))
        perm = list(range(n))
        rng.shuffle(perm)
        for case in (inst, relabel(inst, perm)):
            assert _all_block_degrees(case) == block_degrees_per_edge(case)
        seen.update(len({inst.block_of[v] for v in e}) == r for e in edges)
    assert seen[True] and seen[False]  # stretched and block-repeating edges
