import dataclasses
import functools
import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (
    make_instance,
    planted_join_instance,
    random_block_capped_instance,
    random_capped_degree_instance,
    small_hypergraphs,
)

from transversals import (
    Block,
    Certificate,
    CertificateError,
    ForbiddenStep,
    ForbiddenViaForcedStep,
    ForcedSetStep,
    GradeSequence,
    JoinForcedStep,
    ParameterError,
    ParseError,
    PartitionedInstance,
    WWReport,
    build_bounded_degree,
    build_forest,
    build_hypergraph,
    build_hypergraph_bounded_degree,
    build_local_degree,
    build_star_counterexample,
    check_certificate,
    check_ww_bound,
    count_transversals,
    find_transversal,
    pad_blocks,
    parse_certificate,
    propagate_certificate,
    read_instance,
    relabel,
    serialize_certificate,
    simple_sequence,
)
from transversals.solving import _GraphSearch, _Propagation, _search_index


def seq_of(t, values):
    return GradeSequence.from_values(t, values)


def chain(n):
    """n two-vertex blocks {2b, 2b+1} with an edge from 2b+1 to 2b+2: the
    independent transversals read low...low, high...high, so there are n+1."""
    blocks = [[2 * b, 2 * b + 1] for b in range(n)]
    return make_instance(2, blocks, [(2 * b + 1, 2 * b + 2) for b in range(n - 1)])


def is_independent_transversal(inst, assignment):
    """One member of every block, and no edge inside the chosen set."""
    if sorted(assignment) != list(range(inst.num_blocks)):
        return False
    if any(v not in inst.blocks[b].members for b, v in assignment.items()):
        return False
    chosen = set(assignment.values())
    return not any(all(u in chosen for u in e) for e in inst.edges)


def unequal_blocks_instance(rng):
    """40 to 59 blocks of 2 to 6 vertices, random edges between different
    blocks with every degree at most 5 or 6, and one padding block of two
    isolated vertices."""
    n = rng.randrange(40, 60)
    cap = rng.choice([5, 6])
    sizes = [rng.choice([2, 3, 3, 4, 4, 5, 6]) for _ in range(n)]
    starts = list(itertools.accumulate(sizes, initial=0))
    block_of = [b for b, size in enumerate(sizes) for _ in range(size)]
    deg = [0] * starts[-1]
    edges = set()
    for _ in range(20 * starts[-1]):
        u, v = rng.randrange(starts[-1]), rng.randrange(starts[-1])
        e = (min(u, v), max(u, v))
        if block_of[u] == block_of[v] or e in edges or deg[u] >= cap or deg[v] >= cap:
            continue
        edges.add(e)
        deg[u] += 1
        deg[v] += 1
    inst = make_instance(2, [range(a, b) for a, b in zip(starts, starts[1:])], sorted(edges))
    return pad_blocks(inst, n + 1)


def random_3_uniform(rng, num_edges):
    """Eight blocks of three vertices, num_edges random stretched triples."""
    blocks = [[3 * b, 3 * b + 1, 3 * b + 2] for b in range(8)]
    pool = [
        (u, v, w)
        for u in range(24)
        for v in range(u + 1, 24)
        for w in range(v + 1, 24)
        if len({u // 3, v // 3, w // 3}) == 3
    ]
    return make_instance(3, blocks, sorted(rng.sample(pool, num_edges)))


class TestPropagateCertificate:
    def test_two_grade_forest_trace(self):
        inst = build_forest(3, seq_of(3, [0, 3]))
        cert = propagate_certificate(inst)
        assert cert is not None
        forced = [s for s in cert.steps if isinstance(s, ForcedSetStep)]
        forbidden = [s for s in cert.steps if isinstance(s, ForbiddenStep)]
        assert len(forced) == 3 and len(forbidden) == 3
        top = max(inst.blocks, key=lambda b: b.grade)
        assert cert.conclusion == top.id

    def test_three_grade_forest_empties_top(self):
        inst = build_forest(2, seq_of(2, [0, 1, 2]))
        cert = propagate_certificate(inst)
        top = max(inst.blocks, key=lambda b: b.grade)
        assert cert is not None and cert.conclusion == top.id

    def test_edgeless_block_inconclusive(self):
        inst = make_instance(2, [[0, 1, 2]], [])
        assert propagate_certificate(inst) is None

    def test_stars_certified_by_whole_block_joins(self):
        # every center is joined to an entire leaf block, so propagation
        # empties the center block directly
        for k in (1, 2, 4):
            inst = build_star_counterexample(k)
            cert = propagate_certificate(inst)
            assert cert is not None and cert.conclusion == 0
            assert check_certificate(inst, cert)

    def test_instance_with_transversal_is_inconclusive(self):
        inst = make_instance(2, [[0, 1], [2, 3]], [(0, 2)])
        assert propagate_certificate(inst) is None

    def test_incompleteness_gap_is_permitted(self):
        # two vertex-disjoint triangles across three blocks: no transversal
        # exists, yet no vertex is ever joined to a full survivor set and no
        # surviving join is complete, so propagation stays inconclusive
        inst = make_instance(
            2, [[0, 1], [2, 3], [4, 5]],
            [(0, 2), (0, 5), (1, 3), (1, 4), (2, 5), (3, 4)],
        )
        assert propagate_certificate(inst) is None
        assert count_transversals(inst).count == 0
        assert find_transversal(inst).outcome == "none_exhaustive"

    def test_bounded_build_certified_via_join_rule(self):
        inst = build_bounded_degree(14, Fraction(3, 10))
        cert = propagate_certificate(inst)
        assert cert is not None
        kinds = {type(s).__name__ for s in cert.steps}
        assert "JoinForcedStep" in kinds
        assert "ForbiddenViaForcedStep" in kinds
        assert check_certificate(inst, cert)

    def test_local_build_certified(self):
        inst = build_local_degree(14, Fraction(3, 10))
        cert = propagate_certificate(inst)
        assert cert is not None and check_certificate(inst, cert)

    def test_hypergraph_certified(self):
        inst = build_hypergraph(3, 3, sequence_override=[0, 1, 3])
        cert = propagate_certificate(inst)
        top = max(inst.blocks, key=lambda b: b.grade)
        assert cert is not None and cert.conclusion == top.id
        assert check_certificate(inst, cert)

    def test_bounded_hypergraph_certified(self):
        inst = build_hypergraph_bounded_degree(21, 3, sequence_override=[0, 3, 21])
        cert = propagate_certificate(inst)
        assert cert is not None
        assert check_certificate(inst, cert)

    def test_padding_does_not_disturb_certification(self):
        inst = pad_blocks(build_forest(3, seq_of(3, [0, 3])), 10)
        cert = propagate_certificate(inst)
        assert cert is not None
        assert check_certificate(inst, cert)

    def test_empty_block_gives_a_zero_step_certificate(self):
        # no transversal meets an empty padding block; the certificate
        # concludes at the lowest-id one without a step
        blocks = [Block(0, (0, 1)), Block(1, (2,))]
        blocks += [Block(2, (), padding=True), Block(3, (), padding=True)]
        inst = PartitionedInstance(2, blocks, [(0, 2)])
        report = find_transversal(inst)
        assert (report.outcome, report.nodes_explored) == ("none_exhaustive", 1)
        assert count_transversals(inst).count == 0
        cert = propagate_certificate(inst)
        assert cert == Certificate(steps=(), conclusion=2)
        assert check_certificate(inst, cert)


def certificate_digest(cert):
    """The first 16 hex digits of the certificate file's sha256, or None."""
    if cert is None:
        return None
    return hashlib.sha256(serialize_certificate(cert)).hexdigest()[:16]


class TestPinnedCertificates:
    # Digests of the certificates produced by the engine whose join phase
    # regrouped every edge on each pass; reading the witness tables instead
    # must keep every step, and its order, byte for byte.

    @pytest.mark.parametrize(
        "build, digest",
        [
            (lambda: build_bounded_degree(12, Fraction(2, 5)), "9c8325fb9b447f6e"),
            (lambda: build_bounded_degree(14, Fraction(3, 10)), "3c5ed1a08e54d02a"),
            (lambda: build_local_degree(12, Fraction(2, 5)), "10d82579bc0cbccc"),
            (
                lambda: build_hypergraph(6, 3, sequence_override=(0, 1, 2, 4, 6)),
                "1d69ab2e37b3e202",
            ),
            (
                lambda: build_hypergraph_bounded_degree(21, 3, sequence_override=(0, 3, 21)),
                "7edcfa0a7b25a1a0",
            ),
        ],
        ids=["bounded-t12", "bounded-t14", "local-t12", "hypergraph-t6", "hbounded-t21"],
    )
    def test_builder_certificates(self, build, digest):
        inst = build()
        assert certificate_digest(propagate_certificate(inst)) == digest
        if inst.r > 2:
            # later engines read the witness index the first one built
            assert certificate_digest(propagate_certificate(inst)) == digest
            find_transversal(inst, max_nodes=5)
            assert certificate_digest(propagate_certificate(inst)) == digest

    PLANTED = {
        2: [
            None, None, "22ace7c7b3bbb089", None, "c5f3d37f474fef0c", "93107e66ff9f3933",
            "3c93b2251b1a5c87", None, "62f27ba0a7a84a9b", None, "2f4a51854f99f9fc", None,
        ],
        3: [
            "9f8c835b651e9d74", None, None, None, None, None,
            "4368036511d6a30e", None, None, None, "a27d914bc85c8d44", None,
        ],
        # taken from the engine that sorted each dying edge's blocks
        4: [
            None, None, None, "feff07fca3d37753", "ce05a5762c3759fb", "234bda87b9f1b980",
            None, None, "a14e9e40b278c184", "82ce869f73802d7a", None, "a54200532b0d5720",
        ],
    }

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_planted_join_certificates(self, r):
        rng = random.Random(20261021 + r)
        fired = set()
        for digest in self.PLANTED[r]:
            inst = planted_join_instance(rng, r)
            cert = propagate_certificate(inst)
            assert certificate_digest(cert) == digest
            if cert is not None:
                assert check_certificate(inst, cert)
                fired.update(type(step).__name__ for step in cert.steps)
        assert {"JoinForcedStep", "ForbiddenViaForcedStep"} <= fired


def search_engine(inst):
    """The engine that ``find_transversal`` prunes with at inst's arity."""
    return _GraphSearch(inst) if inst.r == 2 else _Propagation(inst, record=False)


def witness_state(prop):
    """A copy of the engine's witness counters: the r = 2 search's ``miss``
    table as sorted ((owner, block), miss) pairs, the r = 2 fixpoint's
    ``count`` dicts, or the r >= 3 fixpoint's ``live`` and ``edge_dead``."""
    if isinstance(prop, _GraphSearch):
        first = prop.first_slot
        return sorted(
            ((prop.owner[s], b), prop.miss[s])
            for b in range(len(first) - 1)
            for s in range(first[b], first[b + 1])
        )
    if prop.r == 2:
        return [dict(c) for c in prop.count]
    return list(prop.live), list(prop.edge_dead)


def witness_recount(prop, inst):
    """The witness counters recomputed from the edges.  For r = 2 there is
    one entry per vertex u and other block b where u has a neighbour: the
    search's ``miss`` counts b's surviving members that u is not adjacent
    to, and the fixpoint's ``count[u][b]`` u's surviving neighbours in b.
    For r >= 3 each slot counts the live edges through its vertex over its
    witness blocks, and an edge counts its forbidden vertices."""
    r = inst.r
    if r == 2:
        count = [{} for _ in range(inst.num_vertices)]
        for e in inst.edges:
            for u, w in (e, e[::-1]):
                b = inst.block_of(w)
                if b != inst.block_of(u):
                    count[u][b] = count[u].get(b, 0) + (not prop.forbidden[w])
        if isinstance(prop, _Propagation):
            return count
        adj = inst.adjacency()
        return sorted(
            ((u, b), sum(not prop.forbidden[w] and w not in adj[u] for w in inst.blocks[b].members))
            for u, cu in enumerate(count)
            for b in cu
        )
    live = [0] * len(prop.live)
    dead = []
    for e in inst.edges:
        dead.append(sum(prop.forbidden[u] for u in e))
        blocks = [inst.block_of(u) for u in e]
        if dead[-1] or len(set(blocks)) < r:
            continue
        for j, u in enumerate(e):
            live[prop.slot_of[u][tuple(sorted(blocks[:j] + blocks[j + 1 :]))]] += 1
    return live, dead


class TestPropagationState:
    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_marks_and_undo_keep_the_witness_counters_exact(self, r):
        rng = random.Random(20261026 + r)
        for _ in range(4):
            inst = planted_join_instance(rng, r)
            fresh = search_engine(inst)
            prop = search_engine(inst)
            order = rng.sample(range(inst.num_vertices), inst.num_vertices // 2)
            half = len(order) // 2
            for v in order[:half]:
                prop._mark(v)
            mark = len(prop.trail)
            after_half = witness_state(prop)
            assert after_half == witness_recount(prop, inst)
            for v in order[half:]:
                prop._mark(v)
            assert witness_state(prop) == witness_recount(prop, inst)
            prop.undo(mark)
            assert witness_state(prop) == after_half
            prop.undo(0)
            assert witness_state(prop) == witness_state(fresh)
            assert witness_state(prop) == witness_recount(prop, inst)
            assert (prop.forbidden, prop.surv_count) == (fresh.forbidden, fresh.surv_count)

    def test_certifier_marks_keep_the_r2_counts_exact(self):
        # the certifier keeps count dicts, the search its miss table; only
        # the search undoes
        rng = random.Random(20261029)
        for _ in range(4):
            inst = planted_join_instance(rng, 2)
            prop = _Propagation(inst, record=True)
            assert witness_state(prop) == witness_recount(prop, inst)
            order = rng.sample(range(inst.num_vertices), inst.num_vertices // 2)
            for i, v in enumerate(order):
                prop._mark(v, None)
                if i % 5 == 0:
                    assert witness_state(prop) == witness_recount(prop, inst)

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_engines_on_one_instance_share_only_the_static_tables(self, r):
        rng = random.Random(20261027 + r)
        for _ in range(4):
            inst = planted_join_instance(rng, r)
            first = search_engine(inst)
            for v in rng.sample(range(inst.num_vertices), inst.num_vertices // 3):
                first._mark(v)
            marked = witness_state(first)
            second = search_engine(inst)
            if r == 2:
                # one index, built by the first engine; only miss is copied
                index = inst._witness
                assert _search_index(inst) is index
                assert second.adj is first.adj and second.miss is not first.miss
                assert second.miss is not index[2]
                assert second.owner is first.owner is index[0]
                assert second.first_slot is first.first_slot is index[1]
                assert second.hit is first.hit is index[4]
                assert list(second.queue) == list(index[3])
            else:
                assert second.slot_of is first.slot_of and second.edge_slots is first.edge_slots
            assert witness_state(second) == witness_recount(second, inst)
            for v in rng.sample(range(inst.num_vertices), inst.num_vertices // 3):
                second._mark(v)
            assert witness_state(first) == marked
            second.undo(0)
            assert witness_state(first) == marked == witness_recount(first, inst)
            assert witness_state(second) == witness_recount(second, inst)

    @pytest.mark.parametrize("r", [2, 3])
    def test_each_engine_holds_only_its_own_tables(self, r):
        inst = planted_join_instance(random.Random(20261030 + r), r)
        engines = [_Propagation(inst, record=True), search_engine(inst)]
        for engine in engines:
            if isinstance(engine, _GraphSearch):
                absent = ("queued", "record", "steps", "emitted", "touchers", "count", "_find_witness")
            else:
                absent = ("miss", "hit", "first_slot")
            assert not [name for name in absent if hasattr(engine, name)]

    def test_r2_certification_builds_no_search_index(self):
        # the certifier counts in its own dicts, so a certified graph keeps
        # no search table alive with it
        inst = build_forest(3, seq_of(3, [0, 3]))
        assert propagate_certificate(inst) is not None
        assert inst._witness is None

    def test_r3_search_reads_the_index_certification_built(self, monkeypatch):
        from transversals import solving

        inst = build_hypergraph(3, 3, sequence_override=[0, 1, 3])
        assert propagate_certificate(inst) is not None
        index = inst._witness
        assert index is not None
        read = []
        build = solving._witness_index

        def spy(instance):
            read.append(build(instance))
            return read[-1]

        monkeypatch.setattr(solving, "_witness_index", spy)
        assert find_transversal(inst).outcome == "none_exhaustive"
        assert read and all(tables is index for tables in read)
        assert inst._witness is index


def assert_search_fixpoints_match_a_full_recheck(inst, rng, branches=8):
    """Walk down a random branch of the r = 2 search, which marks the
    vertices it queues without re-checking them.  At the root and after each
    branch (the picked block's other members forbidden), its fixpoint must
    equal the one a certifying engine reaches from the same marks when it
    re-checks every vertex, or both must empty a block; an emptied branch is
    undone, as the search does."""
    search = _GraphSearch(inst)
    full = _Propagation(inst, record=True)
    assert (search.run_basic() is None) == (full.run_basic() is None)
    if search.emptied is not None:
        return
    assert search.forbidden == full.forbidden
    for _ in range(branches):
        open_blocks = [b for b, c in enumerate(search.surv_count) if c > 1]
        if not open_blocks:
            return
        pick = rng.choice(open_blocks)
        keep = rng.choice(search._survivors(pick))
        others = [u for u in search._survivors(pick) if u != keep]
        mark = len(search.trail)
        recheck = _Propagation(inst, record=True)
        for u in search.trail + others:
            recheck._mark(u, None)
        for u in others:
            search._mark(u)
        assert (search.run_basic() is None) == (recheck.run_basic() is None)
        if search.emptied is None:
            assert search.forbidden == recheck.forbidden
        else:
            search.undo(mark)


def forced_set_hits_from_the_edges(prop, forced):
    """The forced-set rule recomputed from the edges: for each alive forced
    s, every live edge through s and no other alive forced vertex gives each
    of its other vertices u the sorted blocks of the rest (none for r = 2)."""
    alive = [s for s in forced if not prop.forbidden[s]]
    pairs = None
    for s in alive:
        met = {}
        for ei in prop.inst.incident_edges()[s]:
            e = prop.inst.edges[ei]
            if any(prop.forbidden[v] or (v != s and v in alive) for v in e):
                continue
            rest = [v for v in e if v != s]
            for u in rest:
                key = (u, tuple(sorted(prop.inst.block_of(v) for v in rest if v != u)))
                met[key] = met.get(key, 0) + 1
        pairs = {
            key
            for key, c in met.items()
            if (pairs is None or key in pairs)
            and len(set(key[1])) == prop.r - 2
            and c == prod(prop.surv_count[b] for b in key[1])
        }
    hits = []
    for u, wit_blocks in sorted(pairs or ()):
        if not hits or hits[-1][0] != u:
            hits.append((u, wit_blocks))
    return hits


def parts_are_separated(parts):
    """Whether the parts, ordered by their least vertex, each end below the
    next one's least vertex."""
    parts = sorted(parts, key=min)
    return all(max(a) < min(b) for a, b in zip(parts, parts[1:]))


def forced_set_hits_by_tally(prop, forced):
    """The r = 2 forced-set rule as a tally: every live neighbour of every
    alive forced vertex, kept if it neighbours all of them."""
    alive = [s for s in forced if not prop.forbidden[s]]
    tally = {}
    for s in alive:
        for u in prop.adj[s]:
            if not prop.forbidden[u]:
                tally[u] = tally.get(u, 0) + 1
    return [(u, ()) for u in sorted(tally) if tally[u] == len(alive)]


class TestEnginesAgree:
    @settings(max_examples=250, derandomize=True, database=None, deadline=None)
    @given(small_hypergraphs().filter(lambda inst: inst.r == 2), st.randoms(use_true_random=False))
    def test_search_marks_what_a_full_recheck_forbids(self, inst, rng):
        assert_search_fixpoints_match_a_full_recheck(inst, rng)

    def test_search_marks_what_a_full_recheck_forbids_on_capped_degree_instances(self):
        rng = random.Random(20261028)
        for _ in range(40):
            inst = random_capped_degree_instance(3, rng.randrange(6, 30), rng, cap=rng.choice([3, 4, 5]))
            assert_search_fixpoints_match_a_full_recheck(inst, rng, branches=30)

    @settings(max_examples=250, derandomize=True, database=None, deadline=None)
    @given(small_hypergraphs())
    def test_forced_set_hits_agree_with_a_recount_from_the_edges(self, inst):
        # every block's members and every vertex as the forced set, before
        # and after forbidding every third vertex, on the engine that owns the rule
        prop = _Propagation(inst, record=True)
        for marked in (False, True):
            if marked:
                for v in range(0, inst.num_vertices, 3):
                    prop._mark(v, None)
            for forced in [b.members for b in inst.blocks] + [(v,) for v in range(inst.num_vertices)]:
                assert prop._forced_set_hits(forced) == forced_set_hits_from_the_edges(prop, forced)

    def test_r2_forced_set_hits_agree_with_a_tally(self):
        # random and planted-join graphs; as forced sets every block's
        # members and random sets of one to five vertices, before and after
        # forbidding a random quarter of the vertices
        rng = random.Random(20261020)
        graphs = [random_capped_degree_instance(3, 30, rng, cap) for cap in (2, 4, 8)]
        graphs += [unequal_blocks_instance(rng) for _ in range(3)]
        graphs += [planted_join_instance(rng, 2) for _ in range(6)]
        nonempty = 0
        for inst in graphs:
            prop = _Propagation(inst, record=True)
            n = inst.num_vertices
            for marked in (False, True):
                if marked:
                    for v in rng.sample(range(n), n // 4):
                        prop._mark(v, None)
                sets = [b.members for b in inst.blocks]
                sets += [tuple(sorted(rng.sample(range(n), rng.randrange(1, 6)))) for _ in range(60)]
                for forced in sets:
                    hits = prop._forced_set_hits(forced)
                    assert hits == forced_set_hits_by_tally(prop, forced)
                    nonempty += bool(hits)
        assert nonempty > 100

    @settings(max_examples=250, derandomize=True, database=None, deadline=None)
    @given(small_hypergraphs(), st.data())
    def test_certificate_and_search_agree_with_the_count(self, inst, data):
        count = count_transversals(inst).count
        cert = propagate_certificate(inst)
        if cert is not None:
            assert check_certificate(inst, cert)
            assert count == 0
        moved = relabel(inst, data.draw(st.permutations(range(inst.num_vertices))))
        moved_cert = propagate_certificate(moved)
        assert (moved_cert is None) == (cert is None)
        if moved_cert is not None:
            assert check_certificate(moved, moved_cert)
        report = find_transversal(inst)
        assert (report.outcome == "found") == (count > 0)
        if report.outcome == "found":
            assert is_independent_transversal(inst, report.assignment)
        else:
            assert report.outcome == "none_exhaustive"


class TestCheckCertificate:
    def _forest_and_cert(self):
        inst = build_forest(3, seq_of(3, [0, 3]))
        cert = propagate_certificate(inst)
        assert cert is not None
        return inst, cert

    def test_round_trip(self):
        inst, cert = self._forest_and_cert()
        assert check_certificate(inst, cert)

    def test_missing_join_edge_fails(self):
        inst, cert = self._forest_and_cert()
        # same blocks, one heavy-to-light edge removed: a Forbidden step
        # loses its justification
        weaker = make_instance(
            2,
            [list(b.members) for b in inst.blocks],
            list(inst.edges)[:-1],
            roles=list(inst.roles),
        )
        assert not check_certificate(weaker, cert)

    def test_complete_joins_replay_on_separated_and_interleaved_labels(self):
        # In the build every join's parts lie in blocks of consecutive ids,
        # so the checker tests each product as it comes; a shuffled copy
        # interleaves the parts, so it sorts every tuple first.  Removing one
        # edge of a complete join must fail the replay on both.
        inst = build_hypergraph_bounded_degree(21, 3, sequence_override=(0, 3, 21))
        perm = list(range(inst.num_vertices))
        random.Random(20261020).shuffle(perm)
        moved = relabel(inst, perm)
        for case, separated in ((inst, True), (moved, False)):
            cert = propagate_certificate(case)
            assert cert is not None and check_certificate(case, cert)
            joins = [step.kept for step in cert.steps if isinstance(step, JoinForcedStep)]
            assert set(map(parts_are_separated, joins)) == {separated}
            cut = tuple(sorted(next(itertools.product(*joins[0]))))
            weaker = PartitionedInstance(
                case.r, case.blocks, [e for e in case.edges if e != cut], roles=case.roles
            )
            assert not check_certificate(weaker, cert)

    def test_empty_steps_nonempty_conclusion_fails(self):
        inst, _ = self._forest_and_cert()
        assert not check_certificate(inst, Certificate(steps=(), conclusion=0))

    def test_stale_forced_snapshot_fails(self):
        inst, cert = self._forest_and_cert()
        bad_steps = []
        for step in cert.steps:
            if isinstance(step, ForcedSetStep) and len(step.survivors) > 1:
                step = ForcedSetStep(block=step.block, survivors=step.survivors[:-1])
            bad_steps.append(step)
        assert not check_certificate(inst, Certificate(tuple(bad_steps), cert.conclusion))

    def test_malformed_references_raise(self):
        inst, cert = self._forest_and_cert()
        with pytest.raises(CertificateError):
            check_certificate(
                inst, Certificate(steps=(ForcedSetStep(99, ()),), conclusion=0)
            )
        with pytest.raises(CertificateError):
            check_certificate(inst, Certificate(steps=cert.steps, conclusion=999))

    def test_double_forbidden_fails(self):
        inst, cert = self._forest_and_cert()
        first_forbidden = next(s for s in cert.steps if isinstance(s, ForbiddenStep))
        doubled = cert.steps + (first_forbidden,)
        assert not check_certificate(inst, Certificate(doubled, cert.conclusion))

    def _gadget_cert(self):
        inst = build_bounded_degree(14, Fraction(3, 10))
        cert = propagate_certificate(inst)
        assert cert is not None
        return inst, cert

    def test_join_step_with_foreign_kept_vertex_fails(self):
        from transversals import JoinForcedStep

        inst, cert = self._gadget_cert()
        mutated = []
        done = False
        for step in cert.steps:
            if not done and isinstance(step, JoinForcedStep):
                # claim the join also covers a forced vertex: the cross
                # tuples through it are not edges
                extra = step.forced[0]
                kept = (tuple(step.kept[0]) + (extra,),) + tuple(step.kept[1:])
                forced = tuple(v for v in step.forced if v != extra)
                step = JoinForcedStep(blocks=step.blocks, kept=kept, forced=forced)
                done = True
            mutated.append(step)
        assert done
        assert not check_certificate(inst, Certificate(tuple(mutated), cert.conclusion))

    def test_join_step_with_wrong_forced_set_fails(self):
        from transversals import JoinForcedStep

        inst, cert = self._gadget_cert()
        mutated = []
        done = False
        for step in cert.steps:
            if not done and isinstance(step, JoinForcedStep):
                step = JoinForcedStep(
                    blocks=step.blocks, kept=step.kept, forced=step.forced[:-1]
                )
                done = True
            mutated.append(step)
        assert done
        assert not check_certificate(inst, Certificate(tuple(mutated), cert.conclusion))

    def test_forbidden_via_forced_needs_all_join_edges(self):
        from transversals import ForbiddenViaForcedStep

        inst, cert = self._gadget_cert()
        # retarget a forced-set deduction at a vertex that is not joined to
        # the whole forced set (a join vertex of the gadget itself)
        mutated = []
        done = False
        for step in cert.steps:
            if not done and isinstance(step, ForbiddenViaForcedStep):
                step = ForbiddenViaForcedStep(
                    vertex=0, forced_step=step.forced_step, witnesses=step.witnesses
                )
                done = True
            mutated.append(step)
        assert done
        assert not check_certificate(inst, Certificate(tuple(mutated), cert.conclusion))

    def test_forbidden_via_forced_bad_reference_raises(self):
        from transversals import ForbiddenViaForcedStep

        inst, cert = self._gadget_cert()
        step = ForbiddenViaForcedStep(vertex=0, forced_step=10**6, witnesses=())
        with pytest.raises(CertificateError):
            check_certificate(inst, Certificate(cert.steps + (step,), cert.conclusion))
        # referencing a non-join step is also malformed
        first = ForbiddenViaForcedStep(vertex=0, forced_step=0, witnesses=())
        with pytest.raises(CertificateError):
            check_certificate(inst, Certificate(cert.steps + (first,), cert.conclusion))


    # Each instance gets an empty padding block to conclude at, so that a
    # certificate replays True exactly when each of its steps is justified.
    GRAPH = (2, [[0, 1], [2, 3], [4, 5]], [(0, 2), (0, 3), (2, 4), (3, 4)])
    TRIPLES = (3, [[0, 1], [2], [3]], [(0, 2, 3), (1, 2, 3)])
    JOIN = JoinForcedStep((0, 1), ((0,), (2, 3)), (1,))
    JOIN3 = JoinForcedStep((0, 1, 2), ((0,), (2,), (3,)), (1,))

    @pytest.mark.parametrize(
        "instance, steps, verdict",
        [
            (GRAPH, [JOIN], True),
            (GRAPH, [JoinForcedStep((0, 1), ((0, 1), ()), (2, 3))], False),
            (GRAPH, [JoinForcedStep((0, 1), ((0, 4), (2, 3)), (1,))], False),
            (GRAPH, [ForcedSetStep(1, (2, 3)), ForbiddenStep(0, (1,))], True),
            (GRAPH, [ForcedSetStep(1, (2, 3)), ForbiddenStep(-1, (1,))], CertificateError),
            (GRAPH, [ForbiddenStep(0, (7,))], CertificateError),
            (GRAPH, [JOIN, ForbiddenViaForcedStep(-1, 0, ())], CertificateError),
            (TRIPLES, [JOIN3, ForbiddenViaForcedStep(2, 0, (2,))], True),
            (TRIPLES, [JOIN3, ForbiddenViaForcedStep(0, 0, (2,))], False),
            # no alive forced vertex is found before the unknown witness block
            (TRIPLES, [JOIN3, ForcedSetStep(1, (2,)), ForcedSetStep(2, (3,)),
                       ForbiddenStep(1, (1, 2)), ForbiddenViaForcedStep(0, 0, (99,))], False),
        ],
        ids=["join", "empty-kept-part", "kept-outside-block", "forbidden", "unknown-vertex",
             "unknown-witness", "unknown-via-vertex", "via-forced", "via-non-edge",
             "no-alive-forced"],
    )
    def test_hand_built_steps(self, instance, steps, verdict):
        r, blocks, edges = instance
        members = [Block(i, tuple(b)) for i, b in enumerate(blocks)]
        inst = PartitionedInstance(r, [*members, Block(len(blocks), (), padding=True)], edges)
        cert = Certificate(tuple(steps), len(blocks))
        if verdict is CertificateError:
            with pytest.raises(CertificateError):
                check_certificate(inst, cert)
        else:
            assert check_certificate(inst, cert) is verdict

    def test_fields_are_lists_or_tuples_of_ints(self):
        # any other iterable is refused, not converted
        inst, cert = self._forest_and_cert()
        i = next(i for i, step in enumerate(cert.steps) if isinstance(step, ForcedSetStep))

        def replay(container):
            steps = list(cert.steps)
            steps[i] = dataclasses.replace(steps[i], survivors=container(steps[i].survivors))
            return check_certificate(inst, Certificate(tuple(steps), cert.conclusion))

        assert replay(list) and replay(tuple)
        for container in (iter, set, dict.fromkeys):
            with pytest.raises(CertificateError, match="expected an array of integers"):
                replay(container)

    def test_parser_and_replay_refuse_a_field_alike(self):
        inst, cert = self._forest_and_cert()
        step = next(step for step in cert.steps if isinstance(step, ForcedSetStep))
        for field, bad in [("survivors", [True]), ("survivors", 5), ("block", "0"), ("block", 1.0)]:
            raw = {"kind": "forced", **vars(step), field: bad}
            with pytest.raises(ParseError) as parsed:
                parse_certificate(json.dumps({"version": 1, "steps": [raw], "conclusion": 0}))
            built = Certificate((dataclasses.replace(step, **{field: bad}),), 0)
            with pytest.raises(CertificateError) as replayed:
                check_certificate(inst, built)
            assert str(parsed.value) == str(replayed.value)
            assert str(replayed.value).endswith(" (at step 0)")

    def test_replay_errors_name_their_step(self):
        inst, cert = self._forest_and_cert()
        bad = ForcedSetStep(inst.num_blocks, ())
        for i in (0, 1):
            steps = (*cert.steps[:i], bad, *cert.steps[i:])
            with pytest.raises(CertificateError) as err:
                check_certificate(inst, Certificate(steps, cert.conclusion))
            assert str(err.value) == f"unknown block id {inst.num_blocks} (at step {i})"

    def test_unwritable_steps_raise_certificate_error(self):
        class Subclassed(ForcedSetStep):
            pass

        inst, cert = self._forest_and_cert()
        step = next(step for step in cert.steps if isinstance(step, ForcedSetStep))
        for bad, message in [
            (Subclassed(step.block, step.survivors), "unknown step type Subclassed (at step 1)"),
            (dataclasses.replace(step, survivors=set(step.survivors)),
             "Object of type set is not JSON serializable (at step 1)"),
            (object(), "unknown step type object (at step 1)"),
        ]:
            with pytest.raises(CertificateError) as err:
                serialize_certificate(Certificate((cert.steps[0], bad), cert.conclusion))
            assert str(err.value) == message
        with pytest.raises(CertificateError, match="conclusion"):
            serialize_certificate(Certificate(cert.steps, {0}))
        with pytest.raises(CertificateError, match="not a sequence"):
            serialize_certificate(Certificate(None, 0))

    def test_checker_imports_nothing_from_the_engine_or_the_search(self):
        # a certificate is replayed by code that shares nothing with the code
        # that wrote it, so the checker may not import the engine, the search,
        # the builders or the CLI; nor may serialization, which it imports
        import ast

        import transversals

        def imported(module):
            path = Path(transversals.__file__).parent / f"{module}.py"
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    yield from (node.module or "").split(".")
                    yield from (alias.name for alias in node.names)
                elif isinstance(node, ast.Import):
                    yield from (part for alias in node.names for part in alias.name.split("."))

        assert {"model", "errors", "serialization"} <= set(imported("certificate"))
        assert not {"solving", "builders", "sequences", "cli"} & set(imported("certificate"))
        assert "solving" not in set(imported("serialization"))
        # the builders' unit recursion stays free of the engine, the checker,
        # the file formats and the CLI
        package = {path.stem for path in Path(transversals.__file__).parent.glob("*.py")}
        assert set(imported("builders")) & package == {"errors", "model", "sequences"}


@functools.lru_cache(maxsize=None)
def planted_certificate(r):
    """The first planted join instance of arity r that the engine refutes."""
    rng = random.Random(20261021 + r)
    while True:
        inst = planted_join_instance(rng, r)
        cert = propagate_certificate(inst)
        if cert is not None:
            return inst, cert


STEP_KINDS = (ForcedSetStep, ForbiddenStep, JoinForcedStep, ForbiddenViaForcedStep)
_ID = st.integers(-2, 60)
_ATOM = st.one_of(
    _ID, st.none(), st.booleans(), st.floats(allow_nan=False, width=16), st.text(max_size=2)
)
_SEQ = st.one_of(st.lists(_ATOM, max_size=4), st.lists(_ID, max_size=4).map(tuple))
# anything a hand-built step field might hold: ids, wrong types, wrong nesting
FIELD_VALUES = st.one_of(
    _ATOM, _SEQ, st.lists(_SEQ, max_size=3).map(tuple), st.dictionaries(_ID, _ID, max_size=2)
)


@st.composite
def hand_built_certificates(draw, steps):
    """A real certificate with one step's field replaced, a made-up step
    inserted, a foreign object as a step, or a bad conclusion."""
    steps = list(steps)
    how = draw(st.sampled_from(["field", "insert", "foreign", "conclusion"]))
    conclusion = None
    if how == "field":
        i = draw(st.integers(0, len(steps) - 1))
        field = draw(st.sampled_from([f.name for f in dataclasses.fields(steps[i])]))
        steps[i] = dataclasses.replace(steps[i], **{field: draw(FIELD_VALUES)})
    elif how == "insert":
        kind = draw(st.sampled_from(STEP_KINDS))
        fields = {f.name: draw(FIELD_VALUES) for f in dataclasses.fields(kind)}
        steps.insert(draw(st.integers(0, len(steps))), kind(**fields))
    elif how == "foreign":
        steps.insert(draw(st.integers(0, len(steps))), draw(FIELD_VALUES))
    else:
        conclusion = draw(FIELD_VALUES)
    if draw(st.booleans()):
        steps = steps[: draw(st.integers(0, len(steps)))]
    return steps, conclusion


class TestCheckCertificateFuzz:
    @pytest.mark.parametrize("r", [2, 3])
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_hand_built_steps_give_a_verdict_or_certificate_error(self, r, data):
        inst, cert = planted_certificate(r)
        steps, conclusion = data.draw(hand_built_certificates(cert.steps))
        bad = Certificate(tuple(steps), cert.conclusion if conclusion is None else conclusion)
        try:
            verdict = check_certificate(inst, bad)
        except CertificateError:
            return
        assert type(verdict) is bool

    def test_wrongly_shaped_fields_raise_certificate_error(self):
        inst = build_bounded_degree(14, Fraction(3, 10))
        cert = propagate_certificate(inst)
        changes = [
            (JoinForcedStep, {"forced": (1, "a")}),
            (JoinForcedStep, {"blocks": ([0], 1)}),
            (JoinForcedStep, {"kept": (([0],), (1,))}),
            (ForbiddenStep, {"witnesses": None}),
            (ForcedSetStep, {"survivors": None}),
            (ForcedSetStep, {"block": True}),
            (ForbiddenViaForcedStep, {"forced_step": True}),
        ]
        for kind, change in changes:
            i = next(i for i, step in enumerate(cert.steps) if isinstance(step, kind))
            steps = list(cert.steps)
            steps[i] = dataclasses.replace(steps[i], **change)
            with pytest.raises(CertificateError):
                check_certificate(inst, Certificate(tuple(steps), cert.conclusion))
        with pytest.raises(CertificateError):
            check_certificate(inst, Certificate(None, cert.conclusion))


class TestFindTransversal:
    def test_single_isolated_block(self):
        inst = make_instance(2, [[0, 1, 2]], [])
        report = find_transversal(inst)
        assert report.outcome == "found"
        assert report.assignment == {0: 0}

    def test_builder_instances_have_none(self):
        for t, values in [(2, [0, 2]), (2, [0, 1, 2]), (3, [0, 3]), (3, [0, 1, 3])]:
            inst = build_forest(t, seq_of(t, values))
            assert find_transversal(inst).outcome == "none_exhaustive"

    def test_t6_simple_forest_refuted_without_search(self):
        inst = build_forest(6, simple_sequence(6))
        report = find_transversal(inst, max_nodes=2)
        assert report.outcome == "none_exhaustive"
        assert report.nodes_explored == 1

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_stars_pruned_quickly(self, k):
        report = find_transversal(build_star_counterexample(k), max_nodes=3)
        assert report.outcome == "none_exhaustive"
        assert report.nodes_explored <= 2

    def test_found_respects_independence_and_coverage(self):
        inst = make_instance(2, [[0, 1], [2, 3], [4, 5]], [(0, 2), (1, 4), (3, 5)])
        report = find_transversal(inst)
        assert report.outcome == "found"
        image = set(report.assignment.values())
        assert len(image) == 3
        assert not any(set(e) <= image for e in inst.edges)

    def test_deterministic_repeat_runs(self):
        inst = make_instance(2, [[0, 1], [2, 3], [4, 5]], [(0, 2), (1, 4)])
        a = find_transversal(inst)
        b = find_transversal(inst)
        assert a.assignment == b.assignment
        assert a.nodes_explored == b.nodes_explored

    def test_found_covers_padding_blocks(self):
        from transversals import pad_blocks

        inst = pad_blocks(make_instance(2, [[0, 1], [2, 3]], [(0, 2)]), 5)
        report = find_transversal(inst)
        assert report.outcome == "found"
        assert set(report.assignment) == {0, 1, 2, 3, 4}

    def test_long_chain_needs_no_recursion(self):
        # one search level per block: 1200 levels would overflow a
        # recursive search
        inst = chain(1200)
        report = find_transversal(inst, max_nodes=1202)
        assert report.outcome == "found"
        assert report.nodes_explored == 1201
        assert is_independent_transversal(inst, report.assignment)

    def test_node_budget_aborts_join_build(self):
        # without a budget the search gives no answer here in 30 s, though
        # propagation refutes the instance
        inst = build_bounded_degree(14, Fraction(3, 10))
        report = find_transversal(inst, max_nodes=50)
        assert (report.outcome, report.nodes_explored) == ("aborted", 50)
        assert report.assignment is None
        assert report.wall_time < 10

    def test_node_budget_is_inclusive(self):
        # chain(50) is solved in 51 nodes: a budget of 51 is enough
        inst = chain(50)
        report = find_transversal(inst, max_nodes=51)
        assert (report.outcome, report.nodes_explored) == ("found", 51)
        assert report.assignment == find_transversal(inst).assignment
        report = find_transversal(inst, max_nodes=50)
        assert (report.outcome, report.nodes_explored) == ("aborted", 50)
        # an exhaustive search that fits the budget exactly is not aborted
        inst = make_instance(
            2, [[0, 1], [2, 3], [4, 5]],
            [(0, 2), (0, 5), (1, 3), (1, 4), (2, 5), (3, 4)],
        )
        nodes = find_transversal(inst).nodes_explored
        assert nodes > 1
        report = find_transversal(inst, max_nodes=nodes)
        assert (report.outcome, report.nodes_explored) == ("none_exhaustive", nodes)
        assert find_transversal(inst, max_nodes=nodes - 1).outcome == "aborted"

    def test_negative_node_budget_rejected(self):
        with pytest.raises(ParameterError):
            find_transversal(chain(3), max_nodes=-1)

    # (outcome, nodes_explored, chosen vertex per block), as found by the
    # search that rebuilt the propagation at every node; the incremental
    # search must branch and prune exactly as it did.  Here and in the pins
    # below a node budget one above the pin makes a search that stops
    # pruning fail as "aborted" instead of running on.
    R2_PINNED = [
        ("none_exhaustive", 5, None),
        ("found", 17, [0, 3, 7, 9, 12, 15, 18, 21, 25, 28, 30, 33, 37, 40, 44, 45, 48, 51, 54, 57]),
        ("found", 24, [2, 3, 6, 10, 12, 17, 18, 21, 25, 28, 30, 35, 36, 39, 42, 45, 50, 51, 56, 57]),
        ("found", 14, [0, 3, 8, 10, 12, 16, 18, 22, 24, 27, 32, 33, 38, 40, 44, 47, 50, 52, 55, 57]),
        ("found", 16, [0, 4, 6, 9, 12, 15, 20, 21, 25, 27, 30, 35, 36, 39, 44, 45, 49, 51, 55, 57]),
        ("found", 13, [0, 3, 6, 9, 13, 15, 18, 21, 25, 29, 30, 34, 37, 39, 42, 46, 49, 53, 56, 57]),
        ("found", 12, [0, 4, 7, 9, 13, 15, 18, 23, 24, 27, 30, 34, 37, 41, 42, 46, 48, 51, 55, 57]),
        ("found", 15, [0, 3, 6, 10, 12, 15, 20, 21, 24, 27, 32, 33, 36, 39, 42, 46, 49, 52, 55, 59]),
        ("found", 18, [0, 4, 6, 9, 12, 15, 19, 23, 24, 27, 30, 33, 36, 39, 43, 46, 49, 52, 55, 57]),
        ("found", 15, [0, 4, 8, 10, 12, 16, 19, 21, 24, 29, 31, 33, 36, 40, 42, 45, 50, 51, 54, 57]),
    ]

    def test_pinned_r2_searches(self):
        rng = random.Random(20261018)
        for outcome, nodes, chosen in self.R2_PINNED:
            inst = random_capped_degree_instance(3, 20, rng, cap=6)
            for _ in range(2):  # the second search reads the index the first built
                report = find_transversal(inst, max_nodes=nodes + 1)
                assert (report.outcome, report.nodes_explored) == (outcome, nodes)
                if chosen is not None:
                    assert report.assignment == dict(enumerate(chosen))

    # (seed, outcome, nodes_explored, chosen vertex per block) on
    # unequal_blocks_instance(random.Random(seed)), as found by the search
    # that kept per-vertex neighbour-count dicts and filtered the touchers
    # of each marked block through them; each search explores at least 100
    # nodes
    UNEQUAL_R2_PINNED = [
        (34, "found", 245, [
            0, 5, 9, 12, 16, 17, 22, 24, 26, 32, 35, 37, 39, 45, 47, 54, 55, 58, 60, 63, 67, 70,
            76, 80, 86, 88, 92, 97, 98, 103, 106, 112, 114, 121, 125, 126, 133, 136, 142, 144,
            151, 156, 158, 161, 164, 167, 172, 174, 177, 182, 186, 188, 191, 199, 202, 205, 208
        ]),
        (264, "found", 450, [
            3, 5, 8, 12, 14, 17, 20, 25, 31, 34, 43, 47, 51, 53, 58, 61, 66, 70, 72, 78, 81, 86,
            92, 93, 98, 104, 108, 109, 113, 115, 118, 121, 125, 128, 132, 133, 138, 141, 144,
            148, 152, 156, 160, 162, 164, 169, 173, 178, 180, 185, 186, 188, 192, 199, 203, 207,
            209, 212, 219, 220
        ]),
        (444, "found", 276, [
            0, 2, 6, 10, 14, 18, 23, 27, 31, 36, 40, 44, 47, 50, 52, 58, 60, 64, 70, 74, 76, 82,
            88, 90, 91, 94, 99, 101, 106, 110, 111, 119, 120, 129, 132, 136, 137, 142, 143, 147,
            152, 154, 156, 162, 166, 170, 174, 176, 182, 183
        ]),
        (657, "found", 224, [
            1, 6, 11, 13, 19, 21, 25, 28, 33, 37, 41, 49, 54, 59, 60, 64, 72, 73, 75, 81, 84,
            86, 88, 90, 93, 99, 104, 105, 109, 113, 116, 121, 128, 129, 138, 140, 147, 152, 155,
            161, 163, 167, 171, 173, 177, 181, 184, 186, 191, 197, 198, 201, 203, 208, 211, 215,
            222, 225, 230, 232
        ]),
        (372, "none_exhaustive", 287, None),
        (409, "none_exhaustive", 431, None),
        (427, "none_exhaustive", 435, None),
        (540, "none_exhaustive", 697, None),
    ]

    def test_pinned_r2_searches_on_unequal_blocks(self):
        for seed, outcome, nodes, chosen in self.UNEQUAL_R2_PINNED:
            inst = unequal_blocks_instance(random.Random(seed))
            assert inst.blocks[-1].padding
            for _ in range(2):  # the second search reads the index the first built
                report = find_transversal(inst, max_nodes=nodes + 1)
                assert (report.outcome, report.nodes_explored) == (outcome, nodes)
                if chosen is not None:
                    assert report.assignment == dict(enumerate(chosen))

    def test_search_cut_short_leaves_a_later_search_unchanged(self):
        # a budget stops a search mid-branch, with hit rows filled for only
        # the vertices it marked; a full search of the same instance must
        # then match one of a fresh copy, whose index is built anew
        rng = random.Random(20261030)
        for i in range(12):
            if i % 2:
                inst = unequal_blocks_instance(rng)
            else:
                inst = random_capped_degree_instance(3, rng.randrange(10, 30), rng, cap=6)
            fresh = PartitionedInstance(inst.r, inst.blocks, inst.edges, roles=inst.roles)
            expected = find_transversal(fresh)
            cut = find_transversal(inst, max_nodes=rng.randrange(1, expected.nodes_explored + 1))
            assert cut.outcome == ("aborted" if cut.nodes_explored < expected.nodes_explored
                                   else expected.outcome)
            report = find_transversal(inst)
            assert (report.outcome, report.nodes_explored, report.assignment) == (
                expected.outcome, expected.nodes_explored, expected.assignment,
            )

    @pytest.mark.parametrize(
        "num_edges, outcome, nodes, chosen",
        [
            (150, "found", 18, [1, 4, 6, 9, 14, 16, 18, 23]),
            (250, "none_exhaustive", 15, None),
        ],
    )
    def test_pinned_r3_searches(self, num_edges, outcome, nodes, chosen):
        inst = random_3_uniform(random.Random(7), num_edges)
        for _ in range(2):  # the second search reads the witness index the first built
            report = find_transversal(inst, max_nodes=nodes + 1)
            assert (report.outcome, report.nodes_explored) == (outcome, nodes)
            if chosen is not None:
                assert report.assignment == dict(enumerate(chosen))

    # (outcome, nodes_explored, chosen vertex of each block) on planted-join
    # and random 3-uniform instances, as found by the engine that recomputed
    # every edge signature on each mark and undo
    PLANTED_R3_PINNED = [
        ("found", 15, [0, 4, 8, 12, 16, 20, 24, 28, 32, 37, 40, 47]),
        ("none_exhaustive", 61, None),
        ("none_exhaustive", 138, None),
        ("found", 15, [0, 4, 8, 12, 16, 20, 25, 29, 32, 36, 40, 47]),
        ("found", 13, [0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 41, 44]),
        ("found", 13, [0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 45]),
        ("found", 14, [0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 45]),
        ("found", 14, [0, 4, 8, 12, 16, 20, 24, 29, 33, 37, 41, 46]),
    ]
    RANDOM_R3_PINNED = [
        (270, "none_exhaustive", 12, None),
        (266, "none_exhaustive", 11, None),
        (192, "found", 10, [0, 3, 7, 10, 12, 17, 20, 21]),
        (217, "found", 8, [0, 5, 7, 9, 12, 16, 19, 22]),
        (154, "found", 8, [0, 3, 6, 9, 13, 17, 20, 22]),
        (244, "none_exhaustive", 22, None),
    ]

    def test_pinned_planted_r3_searches(self):
        rng = random.Random(20261023)
        for outcome, nodes, chosen in self.PLANTED_R3_PINNED:
            report = find_transversal(planted_join_instance(rng, 3), max_nodes=nodes + 1)
            assert (report.outcome, report.nodes_explored) == (outcome, nodes)
            if chosen is not None:
                assert report.assignment == dict(enumerate(chosen))

    # (outcome, nodes_explored, chosen vertex of each block) on planted-join
    # r = 4 instances under a 1000-node budget, as found by the engine that
    # sorted each dying edge's blocks; the fourth search needs 15,236 nodes
    PLANTED_R4_PINNED = [
        ("found", 16, [0, 4, 8, 12, 16, 20, 24, 28, 32, 37, 40, 44, 48, 52, 57]),
        ("found", 18, [0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 59]),
        ("found", 18, [0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 59]),
        ("aborted", 1000, None),
        ("none_exhaustive", 172, None),
        ("none_exhaustive", 14, None),
        ("found", 16, [0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 56]),
        ("found", 16, [0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 56]),
        ("none_exhaustive", 776, None),
        ("none_exhaustive", 577, None),
        ("found", 16, [0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 57]),
        ("none_exhaustive", 882, None),
    ]

    def test_pinned_planted_r4_searches(self):
        rng = random.Random(20261025)
        for outcome, nodes, chosen in self.PLANTED_R4_PINNED:
            report = find_transversal(planted_join_instance(rng, 4), max_nodes=1000)
            assert (report.outcome, report.nodes_explored) == (outcome, nodes)
            if chosen is not None:
                assert report.assignment == dict(enumerate(chosen))

    def test_pinned_random_r3_searches(self):
        rng = random.Random(20261024)
        for num_edges, outcome, nodes, chosen in self.RANDOM_R3_PINNED:
            inst = random_3_uniform(rng, rng.randrange(120, 280))
            report = find_transversal(inst, max_nodes=nodes + 1)
            assert (len(inst.edges), report.outcome, report.nodes_explored) == (
                num_edges, outcome, nodes,
            )
            if chosen is not None:
                assert report.assignment == dict(enumerate(chosen))

    def test_agrees_with_counter_on_deeper_searches(self):
        rng = random.Random(31)
        outcomes = set()
        for i in range(30):
            if i % 3:
                inst = random_capped_degree_instance(3, rng.randrange(6, 16), rng, cap=5)
            else:
                inst = random_3_uniform(rng, rng.randrange(120, 260))
            report = find_transversal(inst)
            exists = count_transversals(inst, cap=1).outcome == "aborted" or (
                count_transversals(inst).count > 0
            )
            assert (report.outcome == "found") == exists
            if report.outcome == "found":
                assert is_independent_transversal(inst, report.assignment)
            outcomes.add(report.outcome)
        assert outcomes == {"found", "none_exhaustive"}

    def test_haxell_regime_always_found(self, rng):
        # t-thick with maximum degree at most t/2: a transversal must exist
        failures = 0
        for t in (4, 6, 8):
            for _ in range(40):
                inst = random_capped_degree_instance(t, 4, rng, cap=t // 2)
                if find_transversal(inst).outcome != "found":
                    failures += 1
        assert failures == 0


class TestCountTransversals:
    def test_hand_counts(self):
        inst = make_instance(2, [[0, 1], [2, 3]], [(0, 2)])
        assert count_transversals(inst).count == 3

    def test_edgeless_product_rule(self):
        inst = make_instance(2, [[0, 1, 2], [3, 4, 5], [6, 7, 8]], [])
        assert count_transversals(inst).count == 27

    def test_builders_count_zero(self):
        for t, values in [(2, [0, 1, 2]), (3, [0, 3])]:
            inst = build_forest(t, seq_of(t, values))
            report = count_transversals(inst)
            assert report.outcome == "count" and report.count == 0

    def test_star_counts_zero(self):
        for k in (1, 2, 3):
            assert count_transversals(build_star_counterexample(k)).count == 0

    def test_cap_aborts(self):
        inst = make_instance(2, [[0, 1, 2], [3, 4, 5], [6, 7, 8]], [])
        report = count_transversals(inst, cap=5)
        assert report.outcome == "aborted"
        assert report.cap == 5

    def test_cap_not_exceeded_is_exact(self):
        inst = make_instance(2, [[0, 1], [2, 3]], [(0, 2)])
        report = count_transversals(inst, cap=100)
        assert report.outcome == "count" and report.count == 3

    def test_chain_count(self):
        assert count_transversals(chain(50)).count == 51

    def test_long_chain_cap_aborts_without_recursion(self):
        report = count_transversals(chain(1200), cap=1)
        assert report.outcome == "aborted"

    def test_r3_counting(self):
        inst = make_instance(3, [[0, 1], [2, 3], [4, 5]], [(0, 2, 4)])
        # 8 tuples, exactly one contains the full edge
        assert count_transversals(inst).count == 7

    def test_count_positive_iff_found(self, rng):
        for _ in range(60):
            inst = random_capped_degree_instance(4, 3, rng, cap=3)
            found = find_transversal(inst).outcome == "found"
            assert (count_transversals(inst).count > 0) == found

    def test_certifier_agrees_with_counts(self, rng):
        # soundness: a certificate implies an exact count of zero
        for _ in range(40):
            inst = random_capped_degree_instance(3, 3, rng, cap=3)
            cert = propagate_certificate(inst)
            if cert is not None:
                assert check_certificate(inst, cert)
                assert count_transversals(inst).count == 0

    def test_certifier_sound_on_random_3_uniform(self, rng):
        certified = 0
        for _ in range(80):
            blocks = [[0, 1], [2, 3], [4, 5], [6, 7]]
            pool = [
                (u, v, w)
                for u in (0, 1)
                for v in (2, 3)
                for w in (4, 5, 6, 7)
                if v // 2 != w // 2
            ]
            edges = sorted(rng.sample(pool, rng.randrange(1, len(pool))))
            inst = make_instance(3, blocks, edges)
            cert = propagate_certificate(inst)
            exact = count_transversals(inst).count
            if cert is not None:
                certified += 1
                assert check_certificate(inst, cert)
                assert exact == 0
            assert (find_transversal(inst).outcome == "found") == (exact > 0)
        assert certified > 0  # the sample must actually exercise the certifier

    def test_negative_cap_rejected(self):
        # a cap of -1 used to report "aborted" for any instance with a
        # transversal: a wrong answer, not a refusal
        with pytest.raises(ParameterError):
            count_transversals(make_instance(2, [[0, 1]], []), cap=-1)

    def test_node_budget_is_inclusive(self):
        # chain(50) is counted in 1326 nodes: a budget of 1326 is enough
        inst = chain(50)
        report = count_transversals(inst, max_nodes=1326)
        assert (report.outcome, report.count, report.nodes_explored) == ("count", 51, 1326)
        report = count_transversals(inst, max_nodes=1325)
        assert (report.outcome, report.count, report.nodes_explored) == ("aborted", None, 1325)
        assert count_transversals(inst, max_nodes=0).nodes_explored == 0
        # with a cap too, the budget counts nodes, not transversals
        report = count_transversals(inst, cap=60, max_nodes=1326)
        assert (report.outcome, report.count) == ("count", 51)

    def test_node_budget_stops_refutation_search(self):
        # without a budget, counting with cap 5 explores 10.9M nodes here,
        # because the instance has no transversal for the cap to stop at
        inst = read_instance(Path(__file__).parent / "golden" / "hypergraph_r3_t3.json")
        report = count_transversals(inst, cap=5, max_nodes=2000)
        assert (report.outcome, report.count, report.nodes_explored) == ("aborted", None, 2000)
        assert report.wall_time < 10

    def test_negative_node_budget_rejected(self):
        with pytest.raises(ParameterError):
            count_transversals(chain(3), max_nodes=-1)

    # (outcome, count, nodes_explored) for cap None, 1 and 3, as counted by
    # the counter that copied every block's survivors at each child; the
    # trail-based counter must branch and prune exactly as it did
    R2_PINNED = [
        (("count", 25, 56), ("aborted", None, 7), ("aborted", None, 10)),
        (("count", 4, 21), ("aborted", None, 9), ("aborted", None, 12)),
        (("count", 0, 7), ("count", 0, 7), ("count", 0, 7)),
        (("count", 0, 7), ("count", 0, 7), ("count", 0, 7)),
        (("count", 45, 112), ("aborted", None, 9), ("aborted", None, 16)),
        (("count", 206, 369), ("aborted", None, 10), ("aborted", None, 13)),
        (("count", 189, 398), ("aborted", None, 10), ("aborted", None, 21)),
        (("count", 0, 8), ("count", 0, 8), ("count", 0, 8)),
        (("count", 0, 3), ("count", 0, 3), ("count", 0, 3)),
        (("count", 0, 7), ("count", 0, 7), ("count", 0, 7)),
    ]
    R3_PINNED = [
        (("count", 1, 51), ("count", 1, 51), ("count", 1, 51)),
        (("count", 21, 197), ("aborted", None, 29), ("aborted", None, 32)),
        (("count", 186, 527), ("aborted", None, 12), ("aborted", None, 17)),
        (("count", 1, 41), ("count", 1, 41), ("count", 1, 41)),
    ]

    @staticmethod
    def _counts(inst, pinned):
        # each count gets a node budget one above its pin, so a counter that
        # stops pruning fails the comparison instead of running on
        reports = (
            count_transversals(inst, cap=cap, max_nodes=nodes + 1)
            for cap, (_, _, nodes) in zip((None, 1, 3), pinned)
        )
        return tuple((report.outcome, report.count, report.nodes_explored) for report in reports)

    def test_pinned_r2_counts(self):
        rng = random.Random(20261019)
        for pinned in self.R2_PINNED:
            t, n, cap = rng.choice((2, 3)), rng.randrange(5, 10), rng.randrange(2, 6)
            inst = random_capped_degree_instance(t, n, rng, cap=cap)
            assert self._counts(inst, pinned) == pinned

    def test_pinned_r3_counts(self):
        rng = random.Random(20261020)
        for pinned in self.R3_PINNED:
            inst = random_3_uniform(rng, rng.randrange(60, 260))
            assert self._counts(inst, pinned) == pinned

    @pytest.mark.parametrize(
        "build, count, nodes",
        [
            (lambda: build_forest(5, seq_of(5, [0, 1, 2, 5])), 0, 1326),
            (lambda: build_hypergraph(3, 3, sequence_override=[0, 3]), 0, 409),
            (lambda: chain(200), 201, 20301),
        ],
    )
    def test_pinned_uncapped_counts(self, build, count, nodes):
        report = count_transversals(build(), max_nodes=nodes + 1)
        assert (report.outcome, report.count, report.nodes_explored) == (
            "count", count, nodes,
        )

    def test_counter_shares_nothing_with_engine(self):
        # the counter is the independent oracle for the certifier and the
        # solver, so it may use nothing else from the solving module
        import inspect

        from transversals import solving

        def names(code):
            yield from code.co_names
            for const in code.co_consts:
                if inspect.iscode(const):
                    yield from names(const)

        own = {
            name
            for name, obj in vars(solving).items()
            if getattr(obj, "__module__", None) == solving.__name__
        }
        used = set(names(solving.count_transversals.__code__))
        engines = {"_Marks", "_GraphSearch", "_Propagation"}
        assert engines <= own
        assert used & own <= {"TransversalReport"}
        # nor the engines' index kept with the instance
        assert "_witness" not in used
        source = inspect.getsource(solving.count_transversals)
        assert not any(name in source for name in engines)

    def test_count_ignores_uncompletable_edges(self):
        # an edge with two vertices in one block can never be fully chosen
        inst = make_instance(3, [[0, 1, 2], [3, 4], [5, 6]], [(0, 1, 3)])
        assert count_transversals(inst).count == 3 * 2 * 2

    @pytest.mark.parametrize("r, draws_per_block", [(3, 10), (4, 40)])
    def test_agrees_with_solver_and_brute_force_on_non_stretched_edges(
        self, r, draws_per_block
    ):
        # Random r-sets over blocks of two, so many edges repeat a block.
        # Choosing a vertex never completes an edge, stretched or not: the
        # counts equal a brute-force count over all transversals.
        rng = random.Random(20261018 + r)
        outcomes = set()
        for _ in range(25):
            nb = rng.randrange(4, 7)
            blocks = [[2 * b, 2 * b + 1] for b in range(nb)]
            edges = {
                tuple(sorted(rng.sample(range(2 * nb), r)))
                for _ in range(rng.randrange(nb, draws_per_block * nb))
            }
            inst = make_instance(r, blocks, sorted(edges))
            assert any(len({v // 2 for v in e}) < r for e in inst.edges)
            brute = sum(
                not any(set(e) <= set(pick) for e in inst.edges)
                for pick in itertools.product(*blocks)
            )
            assert count_transversals(inst).count == brute
            outcome = find_transversal(inst).outcome
            assert (outcome == "found") == (brute > 0)
            outcomes.add(outcome)
        assert outcomes == {"found", "none_exhaustive"}


class TestWWBound:
    def test_edgeless_bound(self):
        inst = make_instance(2, [[0, 1, 2, 3], [4, 5, 6, 7]], [])
        report = check_ww_bound(inst)
        assert report.status == "bound_holds"
        assert report.count == 16 and report.bound == 4

    def test_builder_forest_misses_hypothesis(self):
        inst = build_forest(3, seq_of(3, [0, 3]))
        assert check_ww_bound(inst).status == "hypothesis_not_met"

    def test_block_below_the_thickness_misses_hypothesis(self):
        # the thickness skips a padding block smaller than the declared t,
        # whose emptiness would otherwise read as a count of 0 below bound 1
        blocks = [Block(0, (0, 1)), Block(1, (2, 3)), Block(2, (), padding=True)]
        inst = PartitionedInstance(2, blocks, [], meta={"t": "2"})
        assert check_ww_bound(inst) == WWReport(status="hypothesis_not_met", failing_block=2)

    def test_random_instances_meet_bound(self, rng):
        # t = 4, five blocks, every block meets at most t|B|/4 = 4 edges
        violations = 0
        worst = None
        for _ in range(110):
            inst = random_block_capped_instance(4, 5, rng, block_cap=4)
            report = check_ww_bound(inst)
            assert report.status != "hypothesis_not_met"
            if report.status == "bound_violated":
                violations += 1
            worst = report.count if worst is None else min(worst, report.count)
        assert violations == 0
        assert worst >= 32  # (t/2)^n = 2^5

    def test_node_budget_aborts_the_count(self):
        # three edgeless blocks of two: 8 transversals, counted in 15 nodes
        inst = make_instance(2, [[0, 1], [2, 3], [4, 5]], [])
        full = check_ww_bound(inst)
        assert (full.status, full.count) == ("bound_holds", 8)
        assert count_transversals(inst, max_nodes=16).nodes_explored == 15
        assert check_ww_bound(inst, max_nodes=15) == full
        assert check_ww_bound(inst, max_nodes=14) == WWReport(status="aborted", nodes_explored=14)

    def test_negative_node_budget_rejected(self):
        # refused before the hypothesis check, which would answer first here
        inst = build_forest(3, seq_of(3, [0, 3]))
        with pytest.raises(ParameterError):
            check_ww_bound(inst, max_nodes=-1)


# Each search budget, given as a function of the budget.
BUDGETS = {
    "find-max_nodes": lambda budget: find_transversal(chain(3), max_nodes=budget),
    "count-cap": lambda budget: count_transversals(chain(3), cap=budget),
    "count-max_nodes": lambda budget: count_transversals(chain(3), max_nodes=budget),
    "ww-max_nodes": lambda budget: check_ww_bound(chain(3), max_nodes=budget),
}


@pytest.mark.parametrize("budget", ["5", True, False, 2.5, Fraction(3), [3]])
@pytest.mark.parametrize("search", BUDGETS)
def test_budget_that_is_not_an_int_is_refused(search, budget):
    # "5" used to leak TypeError, True to run as a budget of 1, and 2.5 was
    # never met: the counter ran all 10 nodes of chain(3) under it
    with pytest.raises(ParameterError, match="must be None or an int of at least 0"):
        BUDGETS[search](budget)
