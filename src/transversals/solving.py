"""Decide and certify the existence of independent transversals.

Two engines share one marking core (forbidden flags, survivor counts, the
emptied block and a trail that the search rewinds):

* :func:`propagate_certificate` runs a polynomial forbidden/forced fixpoint.
  A vertex is forbidden when it is completely joined to the survivor tuples
  of r-1 witness blocks, or to a forced set derived from a complete join
  between survivor parts of a block tuple (the mechanism behind the
  degree-bounded gadgets).  Both rules read live-edge counts per vertex and
  witness block tuple (dicts for graphs; flat integer slots for hypergraphs,
  built once per instance, each engine copying only the counts), kept up to
  date as vertices are forbidden, so the join phase never rescans the edges
  (residual support counting, Lecoutre and Hemery, IJCAI 2007).  An emptied
  block ends the ordered log, a :class:`Certificate` for ``certificate`` to
  replay.  The same re-checking fixpoint, without steps, prunes the r >= 3
  search.

* :func:`find_transversal` is exact backtracking (fewest-survivors block
  first) pruned by the witness rule's fixpoint.  On graphs it runs its own
  engine, which counts from the other side: per vertex and other block,
  the block's survivors that the vertex is not adjacent to, in slots built
  once per instance, each search copying only the counts.  It marks what
  those counts prove forbidden without re-checking it.
  :func:`count_transversals` is a deliberately separate exhaustive counter
  that prunes only by forward checking, so counts can serve as an
  independent ground truth for the certifier and the stronger solver.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Iterator

from .certificate import (
    Certificate,
    ForbiddenStep,
    ForbiddenViaForcedStep,
    ForcedSetStep,
    JoinForcedStep,
    Step,
)
from .errors import _refuse_bad_budget
from .model import PartitionedInstance, _all_block_degrees, thickness
from .sequences import threshold_constant


@dataclass(frozen=True)
class TransversalReport:
    outcome: str  # found | none_exhaustive | count | aborted
    assignment: dict[int, int] | None = None
    count: int | None = None
    cap: int | None = None
    nodes_explored: int = 0
    wall_time: float = 0.0


@dataclass(frozen=True)
class WWReport:
    status: str  # hypothesis_not_met | bound_holds | bound_violated | aborted
    count: int | None = None
    bound: Fraction | None = None
    failing_block: int | None = None
    nodes_explored: int | None = None


# -- propagation engine ---------------------------------------------------------


def _witness_index(inst: PartitionedInstance) -> tuple:
    """The r >= 3 engine's static tables ``(slot_of, edge_slots, owner, live,
    touchers, tuples)``, built in one pass over the edges on first use and
    shared through the instance; engines copy only ``live``.  One slot per
    (vertex, witness blocks), the sorted blocks of an edge's other vertices:
    ``live[s]`` counts the live edges behind slot s, ``owner[s]`` is its
    pair, and ``slot_of[v]`` maps v's witness blocks to their slots in sorted
    order.  ``edge_slots[r*i + j]`` is the slot vertex j of edge i feeds, or
    -1 if edge i repeats a block (no witness rule can use it); ``live[-1]``
    is a zero that no edge feeds.  ``touchers[b]`` lists the vertices whose
    witness rule reads block b, and ``tuples`` the sorted tuples of r
    distinct blocks that edges span."""
    if inst._witness is None:
        r, block_of = inst.r, inst._block_of
        slot_of: list[dict[tuple[int, ...], int]] = [{} for _ in range(inst.num_vertices)]
        live: list[int] = []
        owner: list[tuple[int, tuple[int, ...]]] = []
        edge_slots: list[int] = []
        last = None
        # each edge's blocks, in the order of its vertices
        edge_blocks = zip(*(map(block_of.__getitem__, c) for c in zip(*inst.edges)))
        for e, bl in zip(inst.edges, edge_blocks):
            if bl != last:  # the edges of one block tuple come in runs
                last = bl
                sigs = [tuple(sorted(bl[:j] + bl[j + 1 :])) for j in range(r)]
                if len(set(bl)) < r:
                    sigs = None
                seen: list[dict[int, int]] = [{} for _ in range(r)]  # u -> slot
            if sigs is None:
                edge_slots += [-1] * r
                continue
            for j, u in enumerate(e):
                s = seen[j].get(u)
                if s is None:
                    s = seen[j][u] = slot_of[u].setdefault(sigs[j], len(live))
                    if s == len(live):
                        live.append(0)
                        owner.append((u, sigs[j]))
                live[s] += 1
                edge_slots.append(s)
        live.append(0)
        touchers: list[list[int]] = [[] for _ in range(inst.num_blocks)]
        for v, sv in enumerate(slot_of):
            for b in {b for sig in sv for b in sig}:
                touchers[b].append(v)
        tuples = sorted({(block_of[u], *sig) for u, sig in owner if block_of[u] < sig[0]})
        slot_of = [dict(sorted(sv.items())) for sv in slot_of]
        inst._witness = (slot_of, edge_slots, owner, live, touchers, tuples)
    return inst._witness


def _search_index(inst: PartitionedInstance) -> tuple:
    """The r = 2 search's static tables ``(owner, first_slot, miss, seed,
    hit)``, built on first use and kept in the instance's ``_witness`` slot,
    which never holds the r >= 3 index too since ``r`` is fixed per
    instance; engines copy only ``miss``, the root counts.  ``seed`` lists
    the owners of the slots whose root ``miss`` is 0: the root queue.
    ``hit`` starts all None, and the first search to mark a vertex fills its
    row, the one write the index takes after it is built (two threads that
    race write equal rows)."""
    if inst._witness is None:
        adj = inst.adjacency()
        owner: list[int] = []
        miss: list[int] = []
        first_slot = [0]
        met: Counter[int] = Counter()
        for blk in inst.blocks:
            met.clear()
            met.update(itertools.chain.from_iterable(map(adj.__getitem__, blk.members)))
            for w in blk.members:
                met.pop(w, None)
            owner += met
            size = blk.size
            miss += [size - c for c in met.values()]
            first_slot.append(len(owner))
        seed = tuple(u for u, m in zip(owner, miss) if m == 0)
        hit: list[list[int] | None] = [None] * inst.num_vertices
        inst._witness = (owner, first_slot, miss, seed, hit)
    return inst._witness


class _Marks:
    """The marking core of both engines: the forbidden flags, each block's
    survivor count, the first block to empty and the trail.

    Every vertex marked forbidden is pushed on ``trail``, and an engine's
    ``undo`` rewinds to an earlier trail length.  The exact search keeps
    one state this way instead of rebuilding it at every node (trailing, as
    in Schulte, *Comparing Trailing and Copying for Constraint Programming*,
    ICLP 1999).  Each engine adds its own counters and queue: its ``_mark``
    calls :meth:`_forbid` and moves them, its ``undo`` calls
    :meth:`_unforbid` and moves them back.
    """

    def __init__(self, inst: PartitionedInstance):
        self.inst = inst
        self.block_of = inst._block_of
        self.forbidden = bytearray(inst.num_vertices)
        self.surv_count = [b.size for b in inst.blocks]
        self.emptied: int | None = None
        self.trail: list[int] = []

    def _survivors(self, b: int) -> tuple[int, ...]:
        return tuple(
            v for v in self.inst.blocks[b].members if not self.forbidden[v]
        )

    def _forbid(self, v: int) -> int:
        """Mark v, not yet forbidden, forbidden and return its block."""
        self.forbidden[v] = 1
        self.trail.append(v)
        bv = self.block_of[v]
        left = self.surv_count[bv] - 1
        self.surv_count[bv] = left
        if left == 0 and self.emptied is None:
            self.emptied = bv
        return bv

    def _unforbid(self, mark: int) -> list[int]:
        """Lift every marking after the first ``mark`` trail entries and
        return those vertices, whose counts the engine then restores.

        The state at ``mark`` must have been a fixpoint with no emptied
        block, which is where the search branches.
        """
        revived = self.trail[mark:]
        del self.trail[mark:]
        forbidden, block_of, surv_count = self.forbidden, self.block_of, self.surv_count
        for v in revived:
            forbidden[v] = 0
            surv_count[block_of[v]] += 1
        self.emptied = None
        return revived


class _GraphSearch(_Marks):
    """The r = 2 search's pruning: the witness rule's fixpoint, reached
    without re-checks and without steps.

    Its table is built once per instance by :func:`_search_index`, each
    engine copying only ``miss``.  It has one slot per vertex u and block b
    other than u's where u has a neighbour; the slots into b run from
    ``first_slot[b]`` to ``first_slot[b + 1]``, and ``owner[s]`` is the
    slot's vertex.  ``miss[s]`` counts b's survivors that u is not adjacent
    to, so u is forbidden exactly when one of its slots reads 0 (the support
    counter of AC-4, Mohr and Henderson, 1986, counted from the other side).
    ``hit[w]`` lists the slots that w is a non-neighbour in, built at w's
    first marking by any search of the instance; a marking moves only those
    (see :meth:`_mark`).  The queue holds only vertices proved forbidden:
    the owners of slots that read 0 at the root, then of each slot a marking
    brings to 0.  :meth:`run_basic` marks each one it pops without a
    re-check, as on an event that proves a constraint fires
    (propagate-on-change, Mackworth's AC-3, 1977); a vertex queued twice is
    skipped as forbidden.  The basic rule's fixpoint is unique, so the
    outcomes, the assignments and the node counts are those of the
    re-checking order.
    """

    def __init__(self, inst: PartitionedInstance):
        super().__init__(inst)
        self.adj = inst.adjacency()
        self.owner, self.first_slot, miss, seed, self.hit = _search_index(inst)
        self.miss = list(miss)
        self.queue: deque[int] = deque(seed)

    def _mark(self, v: int) -> None:
        """Mark v forbidden and queue the owners of the slots in ``hit[v]``
        that reach miss 0.

        Only v's block bv lost a survivor.  A neighbour u of v keeps the
        miss of its slot into bv, since bv's survivors and u's neighbours
        among them both fall by one, so only the slots in ``hit[v]`` move.
        A slot at miss 0 has its owner joined to all of bv's survivors.
        Forbidding another survivor keeps it at 0, so the owner stays
        forbiddable until it is marked or bv empties, and an emptied block
        ends the fixpoint: queued means proved forbidden.
        """
        forbidden = self.forbidden
        if forbidden[v]:
            return
        bv = self._forbid(v)
        miss, owner, queue = self.miss, self.owner, self.queue
        hit = self.hit[v]
        if hit is None:  # built at v's first marking, kept with the instance
            near = set(self.adj[v])
            slots = range(self.first_slot[bv], self.first_slot[bv + 1])
            hit = self.hit[v] = [s for s in slots if owner[s] not in near]
        for s in hit:
            miss[s] -= 1
            if not miss[s] and not forbidden[owner[s]]:
                queue.append(owner[s])

    def undo(self, mark: int) -> None:
        """Rewind every marking after the first ``mark`` trail entries and
        empty the queue."""
        miss, hit = self.miss, self.hit
        for v in self._unforbid(mark):
            for s in hit[v]:
                miss[s] += 1
        self.queue.clear()

    def run_basic(self) -> int | None:
        """Fixpoint of the witness-block rule; returns the emptied block."""
        queue, mark = self.queue, self._mark
        while queue and self.emptied is None:
            mark(queue.popleft())
        return self.emptied


class _Propagation(_Marks):
    """The re-checking fixpoint: it certifies at every r (``record=True``)
    and prunes the r >= 3 search (``record=False``).

    It queues every vertex at the root, re-queues the touchers of each
    block that loses a survivor, and checks each vertex it pops, in FIFO
    order: the certificate's steps are that order.  The r = 2 counts are
    dicts, ``count[u][b]`` being u's surviving neighbours in block b; the
    r >= 3 counts are the slots of :func:`_witness_index`, each engine
    copying only ``live``.
    """

    def __init__(self, inst: PartitionedInstance, record: bool):
        super().__init__(inst)
        self.r = r = inst.r
        n = inst.num_vertices
        self.record = record
        self.steps: list[Step] = []
        self.emitted: dict[int, tuple[int, ...]] = {}
        self._tuples: list[tuple[int, ...]] | None = None
        # ``queued`` keeps a vertex from being queued twice
        self.queued = bytearray(b"\x01") * n
        self.queue: deque[int] = deque(range(n))
        if r == 2:
            block_of = self.block_of
            # for each block, the vertices whose witness rule reads it, in id order
            self.touchers: list[list[int]] = [[] for _ in range(inst.num_blocks)]
            self.adj = adj = inst.adjacency()
            self.count: list[dict[int, int]] = [{} for _ in range(n)]
            for v in range(n):
                bv = block_of[v]
                cv = self.count[v]
                for u in adj[v]:
                    bu = block_of[u]
                    if bu != bv:
                        cv[bu] = cv.get(bu, 0) + 1
                for b in cv:
                    self.touchers[b].append(v)
        else:
            self.incident = inst.incident_edges()
            self.edge_dead = [0] * len(inst.edges)
            (self.slot_of, self.edge_slots, self.owner, live, self.touchers,
             self._tuples) = _witness_index(inst)
            self.live = list(live)

    # .. helpers ..

    def _emit_forced(self, b: int) -> None:
        surv = self._survivors(b)
        if self.emitted.get(b) != surv:
            self.emitted[b] = surv
            self.steps.append(ForcedSetStep(block=b, survivors=surv))

    def _mark(self, v: int, step: Step | None = None) -> None:
        """Mark v forbidden, record ``step`` (given only when certifying),
        update the counts and queue the touchers of v's block."""
        forbidden = self.forbidden
        if forbidden[v]:
            return
        if step is not None:
            if isinstance(step, ForbiddenStep):
                for b in step.witnesses:
                    self._emit_forced(b)
            self.steps.append(step)
        bv = self._forbid(v)
        if self.r == 2:
            count, block_of = self.count, self.block_of
            for u in self.adj[v]:
                if block_of[u] != bv:
                    count[u][bv] -= 1
        else:
            self._recount(v, -1)
        queue, queued = self.queue, self.queued
        for u in self.touchers[bv]:
            if not forbidden[u] and not queued[u]:
                queued[u] = 1
                queue.append(u)

    def _recount(self, v: int, delta: int) -> None:
        """Add ``delta`` to the r >= 3 witness counts that v's edges give the
        other vertices: -1 when v is forbidden, +1 when it is restored.  A
        dying or reviving edge moves every slot it feeds, v's own too, which
        no rule reads while v is forbidden."""
        r = self.r
        edge_dead = self.edge_dead
        edge_slots = self.edge_slots
        live = self.live
        flip = 1 if delta < 0 else 0  # the dead count at which an edge dies or revives
        for ei in self.incident[v]:
            dead = edge_dead[ei] - delta
            edge_dead[ei] = dead
            if dead == flip:
                i = r * ei
                if edge_slots[i] >= 0:
                    for s in edge_slots[i : i + r]:
                        live[s] += delta

    def undo(self, mark: int) -> None:
        """Rewind every marking after the first ``mark`` trail entries and
        empty the queue.  Only the r >= 3 search undoes: recorded steps and
        the certifier's r = 2 ``count`` dicts are not rewound."""
        for v in self._unforbid(mark):
            self._recount(v, 1)
        for v in self.queue:
            self.queued[v] = 0
        self.queue.clear()

    def _find_witness(self, v: int) -> tuple[int, ...] | None:
        surv_count = self.surv_count
        if self.r == 2:
            count = self.count[v]
            for b in sorted(count):
                c = surv_count[b]
                if c > 0 and count[b] == c:
                    return (b,)
            return None
        live = self.live
        for sig, s in self.slot_of[v].items():
            c = live[s]
            if c and c == prod(map(surv_count.__getitem__, sig)):
                return sig
        return None

    def run_basic(self) -> int | None:
        """Fixpoint of the witness-block rule; returns the emptied block."""
        queue, queued, forbidden = self.queue, self.queued, self.forbidden
        while queue and self.emptied is None:
            v = queue.popleft()
            queued[v] = 0
            if not forbidden[v] and (wit := self._find_witness(v)) is not None:
                self._mark(v, ForbiddenStep(vertex=v, witnesses=wit) if self.record else None)
        return self.emptied

    # .. complete-join phase ..

    def run_join_phase(self) -> bool:
        """One pass of the complete-join rule; True if progress was made.

        The pass reads the witness tables, not the edges.  For every sorted
        tuple T of r distinct blocks that an edge spans (listed on the first
        pass for r=2) and every b in T, a surviving v in b lies on a live edge
        over T iff its entry for T minus b (``count[v][other block]`` for r=2,
        the ``live`` count of slot ``slot_of[v][T minus b]`` for r >= 3) is
        positive.  Those vertices are b's kept part, the entries summed over
        one part count T's live edges, and the join is complete when that
        count is the product of the part sizes.
        """
        progress = False
        r = self.r
        forbidden = self.forbidden
        if r == 2:
            count, block_of = self.count, self.block_of
            if self._tuples is None:
                self._tuples = sorted(
                    {(block_of[v], b) for v, cv in enumerate(count) for b in cv if block_of[v] < b}
                )
        else:
            slot_of, live = self.slot_of, self.live
        for sig in self._tuples:
            if self.emptied is not None:
                break
            kept: list[list[int]] = []
            forced: list[int] = []
            for i, b in enumerate(sig):
                key = sig[1 - i] if r == 2 else sig[:i] + sig[i + 1 :]
                part: list[int] = []
                total = 0
                for v in self.inst.blocks[b].members:
                    if not forbidden[v]:
                        c = count[v].get(key, 0) if r == 2 else live[slot_of[v].get(key, -1)]
                        if c:
                            part.append(v)
                            total += c
                        else:
                            forced.append(v)
                if not part:
                    break  # no live edge spans the tuple
                if i == 0:
                    live_edges = total
                kept.append(part)
            if len(kept) < r or live_edges != prod(len(part) for part in kept):
                continue  # the surviving join is not complete
            if not forced:
                continue  # would have been caught by the witness rule
            forced_t = tuple(sorted(forced))
            hits = self._forced_set_hits(forced_t)
            if not hits:
                continue
            if self.record:
                for b in sig:
                    self._emit_forced(b)
                self.steps.append(
                    JoinForcedStep(
                        blocks=sig,
                        kept=tuple(tuple(sorted(part)) for part in kept),
                        forced=forced_t,
                    )
                )
                forced_index = len(self.steps) - 1
            # Every hit stays valid while the others are marked: a hit is
            # never a forced vertex, marking forbids only the hit, and the
            # survivor sets it was found joined to only shrink.
            for v, witnesses in hits:
                step = None
                if self.record:
                    for b in witnesses:
                        self._emit_forced(b)
                    step = ForbiddenViaForcedStep(
                        vertex=v, forced_step=forced_index, witnesses=witnesses
                    )
                self._mark(v, step)
                progress = True
                if self.emptied is not None:
                    break
        return progress

    def _forced_set_hits(
        self, forced: tuple[int, ...]
    ) -> list[tuple[int, tuple[int, ...]]]:
        """Vertices joined to the whole forced set (plus witness blocks for
        r >= 3), in deterministic order.

        Degenerate combinations (a candidate inside the forced set, witness
        blocks overlapping other roles) rule themselves out: the required
        mega-join would need edges with repeated vertices, so the coverage
        counts cannot reach the survivor-tuple product.
        """
        alive = [s for s in forced if not self.forbidden[s]]
        if not alive:
            return []
        if self.r == 2:
            # the common neighbours of the alive forced vertices, none of
            # which is one of them (no loops), from the smallest list down
            adj, forbidden = self.adj, self.forbidden
            lists = sorted(map(adj.__getitem__, alive), key=len)
            common = set(lists[0])
            for nbrs in lists[1:]:
                if not common:
                    break
                common.intersection_update(nbrs)
            return [(u, ()) for u in sorted(common) if not forbidden[u]]

        # r >= 3: a (candidate, witness blocks) pair hits if, for every alive
        # s, it lies on as many live edges through s and no other forced
        # vertex as its witness blocks have survivor tuples; distinct edges
        # give distinct tuples, so that is all of them.  Filter the pairs one
        # s at a time, until none is left.  An edge over r distinct blocks
        # feeds u's slot, whose witness blocks are the pair's plus s's block;
        # a block-repeating edge has no slots, so its pairs are sorted here.
        block_of, surv_count, r = self.block_of, self.surv_count, self.r
        edges, edge_dead, incident = self.inst.edges, self.edge_dead, self.incident
        edge_slots, owner = self.edge_slots, self.owner
        alive_set = set(alive)
        pairs: set[tuple[int, tuple[int, ...]]] | None = None
        for s in alive:
            others = alive_set - {s}
            through = [
                r * ei for ei in incident[s] if not edge_dead[ei] and others.isdisjoint(edges[ei])
            ]
            tally = Counter(itertools.chain.from_iterable(edge_slots[i : i + r] for i in through))
            met: dict[tuple[int, tuple[int, ...]], int] = {}
            if tally.pop(-1, 0):
                for i in through:
                    if edge_slots[i] < 0:
                        rest = [v for v in edges[i // r] if v != s]
                        for u in rest:
                            key = (u, tuple(sorted(block_of[v] for v in rest if v != u)))
                            met[key] = met.get(key, 0) + 1
            for slot, c in tally.items():
                u, sig = owner[slot]
                if u != s:  # not s's own slot
                    k = sig.index(block_of[s])
                    met[u, sig[:k] + sig[k + 1 :]] = c
            pairs = {
                key
                for key, c in met.items()
                if (pairs is None or key in pairs)
                and len(set(key[1])) == r - 2
                and c == prod(map(surv_count.__getitem__, key[1]))
            }
            if not pairs:
                return []
        hits: list[tuple[int, tuple[int, ...]]] = []
        for u, wit_blocks in sorted(pairs):
            if not hits or hits[-1][0] != u:  # u's first witness tuple that works
                hits.append((u, wit_blocks))
        return hits


# -- certification ---------------------------------------------------------------


def propagate_certificate(instance: PartitionedInstance) -> Certificate | None:
    """Run the forbidden/forced fixpoint; a Certificate proves there is no
    independent transversal, None means the propagation is inconclusive.
    An empty (padding) block needs no step: the certificate then concludes
    at the lowest-id one."""
    for blk in instance.blocks:
        if not blk.members:
            return Certificate(steps=(), conclusion=blk.id)
    prop = _Propagation(instance, record=True)
    while True:
        emptied = prop.run_basic()
        if emptied is not None:
            return Certificate(steps=tuple(prop.steps), conclusion=emptied)
        if not prop.run_join_phase():
            return None
        if prop.emptied is not None:
            return Certificate(steps=tuple(prop.steps), conclusion=prop.emptied)


# -- exact search -----------------------------------------------------------------


def find_transversal(
    instance: PartitionedInstance, max_nodes: int | None = None
) -> TransversalReport:
    """Exact depth-first search pruned by the propagation fixpoint.

    One propagation state serves the whole search: a branch forbids the
    picked block's other members and runs the fixpoint, and backtracking
    undoes the trail back to the branch point.  Branches on the block with
    the fewest survivors (ties to the lowest id), trying its survivors in
    member order, so the search is deterministic.  The stack is explicit,
    so the depth is limited by memory, not by the recursion limit.

    ``max_nodes`` (at least 0) bounds the search: a search that would
    explore more nodes stops after that many with the outcome ``aborted``.
    """
    _refuse_bad_budget("max_nodes", max_nodes)
    start = time.perf_counter()
    prop = _GraphSearch(instance) if instance.r == 2 else _Propagation(instance, record=False)
    surv_count = prop.surv_count
    members = [b.members for b in instance.blocks]

    def branches(pick: int) -> Iterator[bool]:
        mark = len(prop.trail)
        for v in prop._survivors(pick):
            prop.undo(mark)
            for u in members[pick]:
                if u != v:
                    prop._mark(u)
            yield True
        prop.undo(mark)

    stack: list[Iterator[bool]] = []
    nodes = 0
    assignment = None
    aborted = False
    while True:
        if nodes == max_nodes:
            aborted = True
            break
        nodes += 1
        if prop.run_basic() is None:
            # The open block with the fewest survivors, lowest id first; a
            # block with none (an empty padding block) ends the branch.
            open_counts = set(surv_count) - {1}
            if not open_counts:
                leaf = {b: prop._survivors(b)[0] for b in range(instance.num_blocks)}
                if _assignment_independent(instance, leaf):
                    assignment = leaf
                    break
            elif (fewest := min(open_counts)) > 0:
                stack.append(branches(surv_count.index(fewest)))
        while stack and not next(stack[-1], False):
            stack.pop()
        if not stack:
            break

    wall = time.perf_counter() - start
    if aborted:
        return TransversalReport(outcome="aborted", nodes_explored=nodes, wall_time=wall)
    if assignment is None:
        return TransversalReport(
            outcome="none_exhaustive", nodes_explored=nodes, wall_time=wall
        )
    return TransversalReport(
        outcome="found", assignment=assignment, nodes_explored=nodes, wall_time=wall
    )


def _assignment_independent(
    instance: PartitionedInstance, assignment: dict[int, int]
) -> bool:
    image = set(assignment.values())
    if len(image) != instance.num_blocks:
        return False
    return not any(set(e) <= image for e in instance.edges)


def count_transversals(
    instance: PartitionedInstance, cap: int | None = None, max_nodes: int | None = None
) -> TransversalReport:
    """Exhaustively count independent transversals by plain backtracking.

    Pruning is forward checking only: for r=2 a chosen vertex bans its
    neighbours in the unchosen blocks, and for r >= 3 it bans the last
    unchosen vertex of each incident edge whose other vertices are all
    chosen.  It deliberately shares nothing with the propagation engine, so
    counts are an independent oracle.  One state serves the whole search:
    every ban goes on a trail, and backtracking lifts the bans back to the
    branch point instead of copying every block's survivors at each child.
    A vertex left among an unchosen block's survivors is never adjacent to
    a chosen vertex, because choosing that vertex banned it.  The search
    branches on the unchosen block with the fewest survivors (ties
    to the lowest id), trying its survivors in member order.  With ``cap``
    (at least 0) the search stops once the count exceeds it, and with
    ``max_nodes`` (at least 0) once it would explore more nodes than that,
    as in :func:`find_transversal`; either stop gives the outcome
    ``aborted``.  The stack is explicit, so the depth is limited by memory,
    not by the recursion limit.
    """
    _refuse_bad_budget("cap", cap)
    _refuse_bad_budget("max_nodes", max_nodes)
    start = time.perf_counter()
    r = instance.r
    num_blocks = instance.num_blocks
    block_of = instance._block_of
    members = [b.members for b in instance.blocks]
    if r == 2:
        adjacency = instance.adjacency()
    else:
        edges = instance.edges
        incident = instance.incident_edges()
    banned = bytearray(instance.num_vertices)
    survivors = [len(m) for m in members]
    emptied = survivors.count(0)  # unchosen blocks without survivors
    # Added to a chosen block's survivor count, so that the smallest count
    # (the first of equals, the lowest id) belongs to an unchosen block.
    closed = instance.num_vertices + 1
    chosen = [-1] * num_blocks  # the chosen vertex of each block, -1 if unchosen
    trail: list[int] = []  # banned vertices, in ban order

    def ban(u: int) -> None:
        nonlocal emptied
        banned[u] = 1
        trail.append(u)
        bu = block_of[u]
        survivors[bu] -= 1
        if survivors[bu] == 0:
            emptied += 1

    def choose(pick: int, v: int) -> None:
        """Choose v for block pick and ban what it excludes.

        v never completes an edge: once all of an edge's other vertices are
        chosen, the last of them has banned v, so v is no candidate.
        """
        chosen[pick] = v
        if r == 2:
            for u in adjacency[v]:
                if chosen[block_of[u]] < 0 and not banned[u]:
                    ban(u)
            return
        for ei in incident[v]:
            unchosen = [u for u in edges[ei] if chosen[block_of[u]] != u]
            if len(unchosen) == 1:
                u = unchosen[0]
                if chosen[block_of[u]] < 0 and not banned[u]:
                    ban(u)

    nodes = count = 0
    aborted = False
    # frames [pick, candidates, index of the next candidate, trail mark]
    stack: list[list] = []
    while True:
        # a new node: the root or a child
        if nodes == max_nodes:
            aborted = True
            break
        nodes += 1
        if not emptied:
            if len(stack) == num_blocks:
                count += 1
                if cap is not None and count > cap:
                    aborted = True
                    break
            else:
                pick = survivors.index(min(survivors))
                survivors[pick] += closed
                candidates = [u for u in members[pick] if not banned[u]]
                stack.append([pick, candidates, 0, len(trail)])
        # the next child, backtracking as needed
        while stack:
            frame = stack[-1]
            pick, candidates, i, mark = frame
            for u in trail[mark:]:
                banned[u] = 0
                bu = block_of[u]
                survivors[bu] += 1
                if survivors[bu] == 1:
                    emptied -= 1
            del trail[mark:]
            if i == len(candidates):
                chosen[pick] = -1
                survivors[pick] -= closed
                stack.pop()
                continue
            frame[2] = i + 1
            choose(pick, candidates[i])
            break
        else:
            break

    wall = time.perf_counter() - start
    if aborted:
        return TransversalReport(
            outcome="aborted", cap=cap, nodes_explored=nodes, wall_time=wall
        )
    return TransversalReport(
        outcome="count", count=count, nodes_explored=nodes, wall_time=wall
    )


# -- exponential count guarantee ---------------------------------------------------


def check_ww_bound(instance: PartitionedInstance, max_nodes: int | None = None) -> WWReport:
    """Compare the exact transversal count against the guarantee
    ((r-1) t / r)^n, where t is the thickness and n the number of blocks.

    The hypothesis asks every block to have at least t vertices and to meet
    at most c_r t^(r-1) |B| stretched edges (t|B|/4 for graphs); the report
    names the lowest block that fails it.  A padding block smaller than a
    declared ``meta["t"]`` is left out of the thickness, so it fails the
    hypothesis here.  A ``bound_violated`` outcome is therefore a genuine
    counterexample to the guarantee and should never occur.  The count is
    exponential: ``max_nodes`` (at least 0) bounds its search as in
    :func:`count_transversals`, and a count that would explore more nodes
    gives the status ``aborted`` with the nodes it explored.
    """
    _refuse_bad_budget("max_nodes", max_nodes)
    t = thickness(instance)
    r = instance.r
    c_r = threshold_constant(r)
    degrees = _all_block_degrees(instance)[0]
    for blk in instance.blocks:
        if blk.size < t or Fraction(degrees[blk.id]) > c_r * t ** (r - 1) * blk.size:
            return WWReport(status="hypothesis_not_met", failing_block=blk.id)
    report = count_transversals(instance, max_nodes=max_nodes)
    if report.count is None:
        return WWReport(status="aborted", nodes_explored=report.nodes_explored)
    bound = Fraction((r - 1) * t, r) ** instance.num_blocks
    if report.count >= bound:
        return WWReport(status="bound_holds", count=report.count, bound=bound)
    return WWReport(status="bound_violated", count=report.count, bound=bound)
