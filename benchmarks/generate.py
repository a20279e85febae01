"""Seeded inputs for the search workloads.

Instances are plain data (block member tuples and edge tuples); the harness
turns them into package objects inside a timed call, so the package only
ever sees the generated instances.  The same seed always gives the same
batch.

The random instances come from a fixed pool; the seed relabels each one
(block order, vertex ids) and shuffles the batch.  Relabeling changes the
solver's and the counter's branching order but not the answers.  Drawing a
fresh pool per seed instead spreads solve_p90_ms by about 16% (quartile
distance over median, bootstrap over 400 instances), more than the
benchmark's bound leaves room for.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

BLOCK_SIZE = 3
MAX_DEGREE = 4
BLOCK_RANGE = (40, 50)
RANDOM_INSTANCES = 96
POOL_SEED = 20260808
# Edge attempts per vertex; dense enough that most vertices reach MAX_DEGREE,
# which leaves most instances without an independent transversal.
ATTEMPTS_PER_VERTEX = 20


@dataclass(frozen=True)
class RawInstance:
    name: str
    blocks: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]
    known_count: int | None = None  # number of independent transversals, if known


def capped_degree_instance(name: str, rng: random.Random, n: int) -> RawInstance:
    """n blocks of BLOCK_SIZE vertices; random edges between different blocks,
    rejected when either end already has MAX_DEGREE neighbours."""
    t = BLOCK_SIZE
    size = n * t
    degree = [0] * size
    edges: set[tuple[int, int]] = set()
    for _ in range(ATTEMPTS_PER_VERTEX * size):
        u = rng.randrange(size)
        v = rng.randrange(size)
        if u // t == v // t:
            continue
        e = (min(u, v), max(u, v))
        if e in edges or degree[u] >= MAX_DEGREE or degree[v] >= MAX_DEGREE:
            continue
        edges.add(e)
        degree[u] += 1
        degree[v] += 1
    blocks = tuple(tuple(range(b * t, (b + 1) * t)) for b in range(n))
    return RawInstance(name, blocks, tuple(sorted(edges)))


def chain(n: int) -> RawInstance:
    """n two-vertex blocks {2b, 2b+1} with an edge from 2b+1 to 2b+2.

    A transversal is independent exactly when its picks read low...low,
    high...high along the chain, so there are n + 1 of them.
    """
    blocks = tuple((2 * b, 2 * b + 1) for b in range(n))
    edges = tuple((2 * b + 1, 2 * b + 2) for b in range(n - 1))
    return RawInstance(f"chain-{n}", blocks, edges, known_count=n + 1)


def relabel(raw: RawInstance, rng: random.Random) -> RawInstance:
    """An isomorphic copy: blocks in random order, vertex ids reassigned in
    that order, members shuffled within each block."""
    order = list(range(len(raw.blocks)))
    rng.shuffle(order)
    new_id: dict[int, int] = {}
    blocks = []
    for b in order:
        members = list(raw.blocks[b])
        rng.shuffle(members)
        for v in members:
            new_id[v] = len(new_id)
        blocks.append(tuple(new_id[v] for v in members))
    edges = sorted(tuple(sorted((new_id[u], new_id[v]))) for u, v in raw.edges)
    return RawInstance(raw.name, tuple(blocks), tuple(edges), raw.known_count)


def random_batch(seed: int) -> list[RawInstance]:
    pool_rng = random.Random(POOL_SEED)
    pool = [
        capped_degree_instance(f"random-{i:02d}", pool_rng, pool_rng.randint(*BLOCK_RANGE))
        for i in range(RANDOM_INSTANCES)
    ]
    rng = random.Random(seed)
    batch = [relabel(raw, rng) for raw in pool]
    rng.shuffle(batch)
    return batch
