from collections import namedtuple
from fractions import Fraction

import pytest
from conftest import make_instance

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
    inst = make_instance(2, [[0, 1]], [])
    with pytest.raises(UnknownBlockError):
        block_degree(inst, 7)


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


def test_vertex_info_roles_and_grades():
    inst = build_forest(3, GradeSequence.from_values(3, [0, 3]))
    top = max(inst.blocks, key=lambda b: b.grade or 0)
    assert top.grade == 2
    assert all(inst.vertex_info(v).role == HEAVY for v in top.members)
    grade1 = next(b for b in inst.blocks if b.grade == 1)
    assert all(inst.vertex_info(v).role == LIGHT for v in grade1.members)
