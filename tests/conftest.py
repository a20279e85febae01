import itertools
import random

import pytest
from hypothesis import strategies as st

from transversals import Block, PartitionedInstance


def make_instance(r, block_members, edges, roles=None, meta=None):
    blocks = [Block(id=i, members=tuple(ms)) for i, ms in enumerate(block_members)]
    return PartitionedInstance(r, blocks, edges, roles=roles, meta=meta)


def random_capped_degree_instance(t, n, rng, cap):
    """t-thick instance on n blocks with every vertex degree at most cap."""
    blocks = [list(range(b * t, (b + 1) * t)) for b in range(n)]
    deg = [0] * (n * t)
    edges = set()
    for _ in range(rng.randrange(n * t, 3 * n * t)):
        u = rng.randrange(n * t)
        v = rng.randrange(n * t)
        if u == v or u // t == v // t:
            continue
        e = (min(u, v), max(u, v))
        if e in edges or deg[u] >= cap or deg[v] >= cap:
            continue
        edges.add(e)
        deg[u] += 1
        deg[v] += 1
    return make_instance(2, blocks, sorted(edges))


def random_block_capped_instance(t, n, rng, block_cap):
    """t-thick instance on n blocks with every block degree at most block_cap."""
    blocks = [list(range(b * t, (b + 1) * t)) for b in range(n)]
    bdeg = [0] * n
    edges = set()
    for _ in range(rng.randrange(0, 8 * n)):
        u = rng.randrange(n * t)
        v = rng.randrange(n * t)
        if u == v or u // t == v // t:
            continue
        e = (min(u, v), max(u, v))
        if e in edges or bdeg[u // t] >= block_cap or bdeg[v // t] >= block_cap:
            continue
        edges.add(e)
        bdeg[u // t] += 1
        bdeg[v // t] += 1
    return make_instance(2, blocks, sorted(edges))


def planted_join_instance(rng, r):
    """Blocks of four vertices with random stretched edges and planted
    complete joins, so that the join rule fires.  Some vertices of the last
    block each get a private join: a complete r-partite join between random
    parts of r blocks, with the vertex joined to every vertex outside the
    parts (the forced set) combined with all tuples over r - 2 other blocks.
    """
    t, nb = 4, 3 * r + 3
    blocks = [list(range(b * t, (b + 1) * t)) for b in range(nb)]
    edges = set()
    for v in rng.sample(blocks[-1], rng.randrange(2, t + 1)):
        chosen = rng.sample(range(nb - 1), 2 * r - 2)
        join, witnesses = chosen[:r], chosen[r:]
        parts = [rng.sample(blocks[b], rng.randrange(1, t)) for b in join]
        edges.update(tuple(sorted(combo)) for combo in itertools.product(*parts))
        forced = [u for b, part in zip(join, parts) for u in blocks[b] if u not in part]
        for s in forced:
            for combo in itertools.product(*(blocks[b] for b in witnesses)):
                edges.add(tuple(sorted((v, s, *combo))))
    for _ in range(rng.randrange(0, 6 * nb)):
        e = rng.sample(range(nb * t), r)
        if len({u // t for u in e}) == r:
            edges.add(tuple(sorted(e)))
    return make_instance(r, blocks, sorted(edges))


@st.composite
def small_hypergraphs(draw):
    """r in {2, 3, 4}, r to r + 2 blocks of one to three vertices, and up to
    40 edges: mostly one vertex from each of r distinct blocks, the others
    any r vertices, which may repeat a block."""
    r = draw(st.sampled_from([2, 3, 4]))
    sizes = draw(st.lists(st.integers(1, 3), min_size=r, max_size=r + 2))
    starts = list(itertools.accumulate(sizes, initial=0))
    blocks = [list(range(a, b)) for a, b in zip(starts, starts[1:])]
    stretched = st.lists(st.sampled_from(range(len(blocks))), min_size=r, max_size=r, unique=True)
    stretched = stretched.flatmap(lambda bs: st.tuples(*(st.sampled_from(blocks[b]) for b in bs)))
    loose = st.sets(st.integers(0, starts[-1] - 1), min_size=r, max_size=r)
    edge = st.one_of(stretched, stretched, loose).map(lambda e: tuple(sorted(e)))
    return make_instance(r, blocks, draw(st.lists(edge, max_size=40, unique=True)))


@pytest.fixture
def rng():
    return random.Random(20260808)
