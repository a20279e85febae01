"""Decide and certify the existence of independent transversals.

Two independent engines:

* :func:`propagate_certificate` runs a polynomial forbidden/forced fixpoint.
  A vertex is forbidden when it is completely joined to the survivor tuples
  of r-1 witness blocks, or to a forced set derived from a complete join
  between survivor parts of a block tuple (the mechanism behind the
  degree-bounded gadgets).  Both rules read live-edge counts per vertex and
  witness block tuple (dicts for graphs; flat integer slots for hypergraphs,
  built once per instance, each engine copying only the counts), kept up to
  date as vertices are forbidden, so the join phase never rescans the edges
  (residual support counting, Lecoutre and Hemery, IJCAI 2007).  An emptied
  block ends the ordered log, a :class:`Certificate` for ``certificate`` to replay.
  The r = 2 search counts from the other side: per vertex and other block,
  the block's survivors that the vertex is not adjacent to.

* :func:`find_transversal` is exact backtracking (fewest-survivors block
  first) pruned by the same propagation; :func:`count_transversals` is a
  deliberately separate exhaustive counter that prunes only by forward
  checking, so counts can serve as an independent ground truth for the
  certifier and the stronger solver.
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
from .errors import _refuse_negative_budget
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


class _Propagation:
    """Shared fixpoint machinery for certification and solver pruning.

    Every vertex marked forbidden is pushed on ``trail``, and :meth:`undo`
    rewinds the counters to an earlier trail length.  The exact search keeps
    one state this way instead of rebuilding it at every node (trailing, as
    in Schulte, *Comparing Trailing and Copying for Constraint Programming*,
    ICLP 1999).

    Certification (``record=True``) and every r >= 3 engine queue every
    vertex, re-queue the touchers of each block that loses a survivor, and
    check each vertex they pop, in FIFO order: the certificate's steps are
    that order.  The certifier's r = 2 counts are dicts, ``count[u][b]``
    being u's surviving neighbours in block b.

    The r = 2 search (``record=False``) keeps one table instead, built per
    engine and not cached on the instance.  It has one slot per vertex u
    and block b other than u's where u has a neighbour; the slots into b
    run from ``first_slot[b]`` to ``first_slot[b + 1]``, and ``owner[s]``
    is the slot's vertex.  ``miss[s]`` counts b's survivors that u is not
    adjacent to, so u is forbidden exactly when one of its slots reads 0
    (the support counter of AC-4, Mohr and Henderson, 1986, counted from
    the other side).  ``hit[w]`` lists the slots that w is a non-neighbour
    in, built at w's first marking; a marking moves only those (see
    :meth:`_mark`).  The search queues only vertices proved forbidden: the
    owners of slots that read 0 at the root, then of each slot a marking
    brings to 0.  It marks each one it pops without a re-check, as on an
    event that proves a constraint fires (propagate-on-change, Mackworth's
    AC-3, 1977); a vertex queued twice is skipped as forbidden.  The basic
    rule's fixpoint is unique, so the outcomes, the assignments and the
    node counts are those of the re-checking order.
    """

    def __init__(self, inst: PartitionedInstance, record: bool):
        self.inst = inst
        self.r = r = inst.r
        self.block_of = block_of = inst._block_of
        n = inst.num_vertices
        self.forbidden = bytearray(n)
        self.surv_count = [b.size for b in inst.blocks]
        self.record = record
        self.steps: list[Step] = []
        self.emitted: dict[int, tuple[int, ...]] = {}
        self.emptied: int | None = None
        self.trail: list[int] = []
        self._tuples: list[tuple[int, ...]] | None = None

        # Every engine but the r = 2 search queues every vertex at the root,
        # and ``queued`` keeps a vertex from being queued twice.
        self.queued = bytearray(b"\x01") * n
        self.queue: deque[int] = deque(range(n))
        if r == 2 and not record:
            self.adj = adj = inst.adjacency()
            self.miss: list[int] = []
            self.owner: list[int] = []
            self.first_slot = [0]
            met: Counter[int] = Counter()
            for blk in inst.blocks:
                met.clear()
                met.update(itertools.chain.from_iterable(map(adj.__getitem__, blk.members)))
                for w in blk.members:
                    met.pop(w, None)
                self.owner += met
                self.miss += [blk.size - c for c in met.values()]
                self.first_slot.append(len(self.owner))
            self.hit: list[list[int] | None] = [None] * n
            # the root queue: the owners of slots with miss 0
            self.queue = deque(u for u, m in zip(self.owner, self.miss) if m == 0)
        elif r == 2:
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

    def _survivors(self, b: int) -> tuple[int, ...]:
        return tuple(
            v for v in self.inst.blocks[b].members if not self.forbidden[v]
        )

    def _emit_forced(self, b: int) -> None:
        surv = self._survivors(b)
        if self.emitted.get(b) != surv:
            self.emitted[b] = surv
            self.steps.append(ForcedSetStep(block=b, survivors=surv))

    def _mark(self, v: int, step: Step | None) -> None:
        """Mark v forbidden, update the counters and queue the vertices whose
        rule may now fire: for the r = 2 search, the owners of the slots in
        ``hit[v]`` that reach miss 0; for every other engine, the touchers
        of v's block."""
        forbidden = self.forbidden
        if forbidden[v]:
            return
        if step is not None and self.record:
            if isinstance(step, ForbiddenStep):
                for b in step.witnesses:
                    self._emit_forced(b)
            self.steps.append(step)
        forbidden[v] = 1
        self.trail.append(v)
        block_of = self.block_of
        bv = block_of[v]
        left = self.surv_count[bv] - 1
        self.surv_count[bv] = left
        if left == 0 and self.emptied is None:
            self.emptied = bv

        queue, queued = self.queue, self.queued
        if self.r == 2 and not self.record:
            # The search's rule: queued means provably forbidden.  Only bv
            # lost a survivor.  A neighbour u of v keeps the miss of its
            # slot into bv, since bv's survivors and u's neighbours among
            # them both fall by one, so only the slots in hit[v] move.  A
            # slot at miss 0 has its owner joined to all of bv's survivors.
            # Forbidding another survivor keeps it at 0, so the owner stays
            # forbiddable until it is marked or bv empties, and an emptied
            # block ends the fixpoint.  run_basic therefore marks it without
            # a re-check.  The basic rule's fixpoint is unique, so the order
            # does not move it, nor the search's nodes.  Certification
            # re-checks every toucher in FIFO order, because its step order
            # is the certificate.
            miss, owner = self.miss, self.owner
            hit = self.hit[v]
            if hit is None:  # built at v's first marking
                near = set(self.adj[v])
                slots = range(self.first_slot[bv], self.first_slot[bv + 1])
                hit = self.hit[v] = [s for s in slots if owner[s] not in near]
            for s in hit:
                miss[s] -= 1
                if not miss[s] and not forbidden[owner[s]]:
                    queue.append(owner[s])
            return
        if self.r == 2:
            count = self.count
            for u in self.adj[v]:
                if block_of[u] != bv:
                    count[u][bv] -= 1
        else:
            self._recount(v, -1)
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
        empty the queue.

        The state at ``mark`` must have been a fixpoint with no emptied
        block, which is where the search branches.  Only the search undoes:
        recorded steps and a certifier's r = 2 ``count`` dicts are not
        rewound.
        """
        trail = self.trail
        forbidden = self.forbidden
        block_of = self.block_of
        surv_count = self.surv_count
        miss, hit = (self.miss, self.hit) if self.r == 2 else (None, None)
        for v in trail[mark:]:
            forbidden[v] = 0
            surv_count[block_of[v]] += 1
            if hit is None:
                self._recount(v, 1)
                continue
            for s in hit[v]:
                miss[s] += 1
        del trail[mark:]
        for v in self.queue:
            self.queued[v] = 0
        self.queue.clear()
        self.emptied = None

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
            if c and c == prod(surv_count[b] for b in sig):
                return sig
        return None

    def run_basic(self) -> int | None:
        """Fixpoint of the witness-block rule; returns the emptied block.

        The r = 2 search marks each vertex it pops, since its queue holds
        only vertices proved forbidden (``_mark`` skips one queued twice);
        every other engine checks it first.
        """
        queue, queued, forbidden = self.queue, self.queued, self.forbidden
        recheck = self.record or self.r > 2
        mark = self._mark
        while queue and self.emptied is None:
            v = queue.popleft()
            queued[v] = 0
            if not recheck:
                mark(v, None)
            elif not forbidden[v] and (wit := self._find_witness(v)) is not None:
                mark(v, ForbiddenStep(vertex=v, witnesses=wit) if self.record else None)
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
        hits: list[tuple[int, tuple[int, ...]]] = []
        if self.r == 2:
            tally: dict[int, int] = {}
            for s in alive:
                for u in self.adj[s]:
                    if not self.forbidden[u]:
                        tally[u] = tally.get(u, 0) + 1
            for u in sorted(tally):
                if tally[u] == len(alive):
                    hits.append((u, ()))
            return hits

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
                and c == prod(surv_count[b] for b in key[1])
            }
            if not pairs:
                return []
        for u, wit_blocks in sorted(pairs):
            if not hits or hits[-1][0] != u:  # u's first witness tuple that works
                hits.append((u, wit_blocks))
        return hits


# -- certification ---------------------------------------------------------------


def propagate_certificate(instance: PartitionedInstance) -> Certificate | None:
    """Run the forbidden/forced fixpoint; a Certificate proves there is no
    independent transversal, None means the propagation is inconclusive."""
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
    _refuse_negative_budget("max_nodes", max_nodes)
    start = time.perf_counter()
    prop = _Propagation(instance, record=False)
    surv_count = prop.surv_count
    members = [b.members for b in instance.blocks]

    def branches(pick: int) -> Iterator[bool]:
        mark = len(prop.trail)
        for v in prop._survivors(pick):
            prop.undo(mark)
            for u in members[pick]:
                if u != v:
                    prop._mark(u, None)
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
    _refuse_negative_budget("cap", cap)
    _refuse_negative_budget("max_nodes", max_nodes)
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

    The hypothesis asks every block to meet at most c_r t^(r-1) |B| stretched
    edges (t|B|/4 for graphs).  A ``bound_violated`` outcome is a genuine
    counterexample to the guarantee and should never occur.  The count is
    exponential: ``max_nodes`` (at least 0) bounds its search as in
    :func:`count_transversals`, and a count that would explore more nodes
    gives the status ``aborted`` with the nodes it explored.
    """
    _refuse_negative_budget("max_nodes", max_nodes)
    t = thickness(instance)
    r = instance.r
    c_r = threshold_constant(r)
    degrees = _all_block_degrees(instance)[0]
    for blk in instance.blocks:
        if Fraction(degrees[blk.id]) > c_r * t ** (r - 1) * blk.size:
            return WWReport(status="hypothesis_not_met", failing_block=blk.id)
    report = count_transversals(instance, max_nodes=max_nodes)
    if report.count is None:
        return WWReport(status="aborted", nodes_explored=report.nodes_explored)
    bound = Fraction((r - 1) * t, r) ** instance.num_blocks
    if report.count >= bound:
        return WWReport(status="bound_holds", count=report.count, bound=bound)
    return WWReport(status="bound_violated", count=report.count, bound=bound)
