"""Vertex-partitioned r-uniform hypergraphs and their degree metrics.

The central object is :class:`PartitionedInstance`: an r-uniform hypergraph
(r=2 means an ordinary graph) whose vertex set is partitioned into blocks.
Vertices optionally carry a construction role (heavy/light) and inherit a
grade from their block.  All average-degree metrics are exact rationals;
floats appear only in display code.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from operator import itemgetter, lt
from typing import Iterable, Mapping, Sequence

from .errors import (
    ForeignEdgeError,
    InstanceError,
    UniformityError,
    UnknownBlockError,
)

HEAVY = "heavy"
LIGHT = "light"


@dataclass(frozen=True)
class Block:
    """One part of the vertex partition.

    ``members`` is ordered; construction order is meaningful and serialized
    as-is.  ``grade`` is the recursion level for built instances and None for
    imported or ad-hoc ones.  ``padding`` marks blocks appended only to raise
    the block count; they carry no edges.
    """

    id: int
    members: tuple[int, ...]
    grade: int | None = None
    padding: bool = False

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class VertexInfo:
    block: int
    grade: int | None
    role: str | None


class PartitionedInstance:
    """An immutable r-uniform hypergraph with a block partition.

    Invariants enforced at construction (this is their only check; the
    parser defers to it):

    * each block's ``id`` equals its position, and only padding blocks are empty,
    * a block's ``grade``, if given, is at least 1,
    * blocks partition ``range(num_vertices)`` (dense ids, each exactly once),
    * every edge has exactly ``r`` distinct vertices, no duplicate edges,
    * for r=2 no loops (distinctness) and no parallel edges (no duplicates),
    * ``meta`` maps strings to strings.

    The uniformity, block ids, grades and vertex ids (block members and edge
    entries) must be of type ``int`` exactly: ``True`` or ``1.0`` is
    refused, as the file format could not write it back.

    Edges are stored as sorted tuples in construction order; an incoming
    edge that already is a sorted plain tuple is kept, not copied, so
    re-validating an instance shares its edge tuples.  When every edge is
    such a tuple, the edges are checked in whole-list passes; otherwise, or
    when a pass fails, edge by edge, which names the first bad edge.

    ``block_of[v]`` is vertex v's block id: a tuple, like ``blocks``,
    ``edges`` and ``roles``, and the one table the partition is read from.

    Instances are safe to share between threads once constructed.  Derived
    read-only tables are built on first use and cached: the adjacency and
    incidence lists here, and in ``_witness``, which only
    :mod:`transversals.solving` reads, the r >= 3 engine's witness index or
    the r = 2 search's slot index.  The search index's ``hit`` rows are
    filled one at a time as searches first need them.  Two threads that race
    on a cache only build it twice, or write equal rows.
    """

    __slots__ = (
        "r",
        "blocks",
        "edges",
        "meta",
        "roles",
        "block_of",
        "_adjacency",
        "_incident",
        "_witness",
    )

    def __init__(
        self,
        r: int,
        blocks: Sequence[Block],
        edges: Iterable[Sequence[int]],
        roles: Sequence[str | None] | None = None,
        meta: Mapping[str, str] | None = None,
    ):
        meta = {} if meta is None else meta
        if not isinstance(meta, Mapping) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in meta.items()
        ):
            raise InstanceError("meta must map strings to strings")
        if type(r) is not int:
            raise InstanceError(f"uniformity must be an int, got {r!r}")
        if r < 2:
            raise InstanceError(f"uniformity must be at least 2, got {r}")
        self.r = r
        self.blocks = tuple(blocks)

        n = sum(b.size for b in self.blocks)
        block_of = [-1] * n
        for i, b in enumerate(self.blocks):
            if type(b.id) is not int or b.id != i:
                raise InstanceError(
                    f"block ids must be dense and ordered, got {b.id!r}", f"block {i}"
                )
            if b.grade is not None and (type(b.grade) is not int or b.grade < 1):
                raise InstanceError(f"invalid grade {b.grade!r}", f"block {i}")
            if type(b.padding) is not bool:
                raise InstanceError(f"padding must be a bool, got {b.padding!r}", f"block {i}")
            if b.size == 0 and not b.padding:
                raise InstanceError(
                    f"block {i} is empty and not a padding block", f"block {i}"
                )
            for v in b.members:
                if type(v) is not int:
                    raise InstanceError(f"vertex id {v!r} is not an int", f"block {i}")
                if not 0 <= v < n:
                    raise InstanceError(
                        "vertex ids must be dense (0..num_vertices-1)", f"block {i}"
                    )
                if block_of[v] >= 0:
                    raise InstanceError(
                        f"partition violation: vertex {v} in more than one block", f"block {i}"
                    )
                block_of[v] = i
        self.block_of: tuple[int, ...] = tuple(block_of)

        edges = tuple(edges)
        if not _kept_as_given(edges, r, n):
            edges = _normalized_edges(edges, r, n)
        self.edges: tuple[tuple[int, ...], ...] = edges

        if roles is None:
            self.roles: tuple[str | None, ...] = (None,) * n
        else:
            if len(roles) != n:
                raise InstanceError("roles must cover every vertex")
            for v, role in enumerate(roles):
                if role not in (None, HEAVY, LIGHT):
                    raise InstanceError(f"unknown role {role!r}", f"block {block_of[v]}")
            self.roles = tuple(roles)

        self.meta: dict[str, str] = dict(meta)
        self._adjacency: list[list[int]] | None = None
        self._incident: list[list[int]] | None = None
        self._witness: tuple | None = None

    # -- basic accessors ----------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.block_of)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def block(self, b: int) -> Block:
        """The block with id b; an id that is not an ``int`` in range (a bool
        included) raises ``UnknownBlockError``."""
        if type(b) is not int or not 0 <= b < len(self.blocks):
            raise UnknownBlockError(f"no block with id {b!r}")
        return self.blocks[b]

    def vertex_info(self, v: int) -> VertexInfo:
        """Vertex v's block, grade and role; an id that is not an ``int`` in
        ``range(num_vertices)`` (a bool included) raises ``IndexError``."""
        if type(v) is not int or not 0 <= v < self.num_vertices:
            raise IndexError(f"no vertex with id {v!r}")
        b = self.blocks[self.block_of[v]]
        return VertexInfo(block=b.id, grade=b.grade, role=self.roles[v])

    def adjacency(self) -> list[list[int]]:
        """Neighbor lists; only meaningful for r=2."""
        if self.r != 2:
            raise UniformityError("adjacency lists are defined for r=2 only")
        if self._adjacency is None:
            adj: list[list[int]] = [[] for _ in range(self.num_vertices)]
            for u, v in self.edges:
                adj[u].append(v)
                adj[v].append(u)
            self._adjacency = adj
        return self._adjacency

    def incident_edges(self) -> list[list[int]]:
        """For each vertex, the indices of edges containing it."""
        if self._incident is None:
            inc: list[list[int]] = [[] for _ in range(self.num_vertices)]
            for i, e in enumerate(self.edges):
                for v in e:
                    inc[v].append(i)
            self._incident = inc
        return self._incident

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartitionedInstance):
            return NotImplemented
        return (
            self.r == other.r
            and self.blocks == other.blocks
            and self.edges == other.edges
            and self.roles == other.roles
            and self.meta == other.meta
        )

    def __repr__(self) -> str:
        return (
            f"PartitionedInstance(r={self.r}, blocks={self.num_blocks}, "
            f"vertices={self.num_vertices}, edges={len(self.edges)})"
        )


def _kept_as_given(edges: tuple, r: int, n: int) -> bool:
    """Whether ``_normalized_edges`` would accept every edge and keep it as
    given: plain tuples of r increasing int ids below n, none repeated.

    Each test is one streaming pass over the edges; none builds a column
    list, so the peak memory stays that of the edges themselves.
    """
    if not edges:
        return True
    if set(map(type, edges)) != {tuple} or set(map(len, edges)) != {r}:
        return False
    if set(map(type, chain.from_iterable(edges))) != {int}:
        return False
    for j in range(r - 1):
        if not all(map(lt, map(itemgetter(j), edges), map(itemgetter(j + 1), edges))):
            return False
    return (
        min(map(itemgetter(0), edges)) >= 0
        and max(map(itemgetter(r - 1), edges)) < n
        and len(set(edges)) == len(edges)
    )


def _normalized_edges(edges: tuple, r: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Each edge as a sorted tuple, checked one at a time; the first bad edge
    raises with its position.  A sorted plain tuple is kept, not copied."""
    norm_edges: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for i, e in enumerate(edges):
        try:
            ids = tuple(e)
        except TypeError:
            raise InstanceError(
                f"edge {e!r} is not an array of {r} distinct vertices", f"edge {i}"
            ) from None
        if not {int}.issuperset(map(type, ids)):
            raise InstanceError(f"edge {ids} has a vertex id that is not an int", f"edge {i}")
        tup = tuple(sorted(ids))
        if type(e) is tuple and e == tup:
            tup = e
        if len(tup) != r or len(set(tup)) != r:
            raise InstanceError(
                f"edge {ids} is not an array of {r} distinct vertices", f"edge {i}"
            )
        if tup[0] < 0 or tup[-1] >= n:
            raise InstanceError(f"edge {tup} references an unknown vertex", f"edge {i}")
        if tup in seen:
            raise InstanceError(f"duplicate edge {tup}", f"edge {i}")
        seen.add(tup)
        norm_edges.append(tup)
    return tuple(norm_edges)


@dataclass(frozen=True)
class InstanceMetrics:
    """All degree statistics used by the construction guarantees."""

    per_block_degree: dict[int, int]
    max_block_avg_degree: Fraction
    max_degree: int
    local_degree: int | None
    thickness: int
    stretched_edges: int = field(default=0)


# -- operations --------------------------------------------------------------


def is_stretched(instance: PartitionedInstance, edge: Sequence[int]) -> bool:
    """True iff the edge's endpoints lie in pairwise distinct blocks."""
    try:
        tup = tuple(sorted(edge))
    except TypeError:  # not a sequence of mutually comparable ids
        raise ForeignEdgeError(f"edge {edge!r} does not belong to this instance") from None
    incident = instance.incident_edges()
    first = tup[0] if tup else -1
    if not (
        isinstance(first, int)
        and 0 <= first < len(incident)
        and any(instance.edges[i] == tup for i in incident[first])
    ):
        raise ForeignEdgeError(f"edge {tup} does not belong to this instance")
    return len({instance.block_of[v] for v in tup}) == len(tup)


def block_degree(instance: PartitionedInstance, b: int) -> int:
    """Degree of block b.

    For graphs: edges with precisely one endvertex in the block.  For r>=3:
    stretched edges intersecting the block (non-stretched edges never occur
    in built instances, and are excluded here by definition).
    """
    return _all_block_degrees(instance)[0][instance.block(b).id]


def _all_block_degrees(instance: PartitionedInstance) -> tuple[dict[int, int], int]:
    """Every block's degree and the number of stretched edges, in one pass."""
    block_of = instance.block_of
    degrees = [0] * instance.num_blocks
    stretched = 0
    if instance.r == 2:
        for u, v in instance.edges:
            bu, bv = block_of[u], block_of[v]
            if bu != bv:
                degrees[bu] += 1
                degrees[bv] += 1
                stretched += 1
    else:  # count the edges per tuple of blocks, in the order of their vertices
        columns = (map(block_of.__getitem__, c) for c in zip(*instance.edges))
        for blocks, c in Counter(zip(*columns)).items():
            if len(set(blocks)) == instance.r:
                stretched += c
                for b in blocks:
                    degrees[b] += c
    return dict(enumerate(degrees)), stretched


def max_block_average_degree(instance: PartitionedInstance) -> Fraction:
    """Exact maximum of d(B)/|B| over blocks.  Empty padding blocks are skipped."""
    return _max_average(instance, _all_block_degrees(instance)[0])


def _max_average(instance: PartitionedInstance, degrees: dict[int, int]) -> Fraction:
    if instance.num_blocks == 0:
        raise InstanceError("instance has no blocks")
    return max(
        (Fraction(degrees[blk.id], blk.size) for blk in instance.blocks if blk.size),
        default=Fraction(0),
    )


def max_degree(instance: PartitionedInstance) -> int:
    counts = [0] * instance.num_vertices
    for e in instance.edges:
        for v in e:
            counts[v] += 1
    return max(counts, default=0)


def local_degree(instance: PartitionedInstance) -> int:
    """Maximum number of edges from one vertex into one other block (r=2 only)."""
    if instance.r != 2:
        raise UniformityError("local degree is defined for r=2 only")
    block_of = instance.block_of
    best = 0
    for u, nbrs in enumerate(instance.adjacency()):
        if len(nbrs) > best:  # a vertex of degree <= best cannot beat it
            counts = Counter(map(block_of.__getitem__, nbrs))
            counts.pop(block_of[u], None)
            best = max(best, max(counts.values(), default=0))
    return best


def is_forest(instance: PartitionedInstance) -> bool:
    """True iff the graph is acyclic (r=2 only): union-find with path
    halving, failing at the first edge inside one tree."""
    if instance.r != 2:
        raise UniformityError("forest check is defined for r=2 only")
    parent = list(range(instance.num_vertices))
    for u, v in instance.edges:
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u == v:
            return False
        parent[u] = v
    return True


def thickness(instance: PartitionedInstance) -> int:
    """Minimum block size.

    A declared target size in ``meta["t"]`` excludes only padding blocks
    smaller than it; built instances never produce such blocks, so this is a
    guard for imported files.
    """
    target = _declared_t(instance)
    sizes = [b.size for b in instance.blocks if not (b.padding and b.size < target)]
    return min(sizes, default=0)


def _declared_t(instance: PartitionedInstance) -> int:
    """The block size ``meta["t"]`` declares as a run of digits, or 0 where it
    declares none that ``int`` reads (such as "²", or 5000 digits)."""
    declared = instance.meta.get("t", "")
    try:
        return int(declared) if declared.isdigit() else 0
    except ValueError:
        return 0


def compute_metrics(instance: PartitionedInstance) -> InstanceMetrics:
    degrees, stretched = _all_block_degrees(instance)
    return InstanceMetrics(
        per_block_degree=degrees,
        max_block_avg_degree=_max_average(instance, degrees),
        max_degree=max_degree(instance),
        local_degree=local_degree(instance) if instance.r == 2 else None,
        thickness=thickness(instance),
        stretched_edges=stretched,
    )


def relabel(instance: PartitionedInstance, perm: Sequence[int]) -> PartitionedInstance:
    """Apply a vertex permutation: vertex v becomes perm[v].

    Used to check that metrics are invariant under relabeling.
    """
    n = instance.num_vertices
    if any(type(p) is not int for p in perm) or sorted(perm) != list(range(n)):
        raise InstanceError("perm must be a permutation of the vertex ids")
    blocks = [
        Block(
            id=b.id,
            members=tuple(perm[v] for v in b.members),
            grade=b.grade,
            padding=b.padding,
        )
        for b in instance.blocks
    ]
    roles: list[str | None] = [None] * n
    for v in range(n):
        roles[perm[v]] = instance.roles[v]
    edges = [tuple(perm[v] for v in e) for e in instance.edges]
    return PartitionedInstance(instance.r, blocks, edges, roles=roles, meta=dict(instance.meta))
