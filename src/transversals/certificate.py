"""Certificates of non-existence: their steps, JSON file format and replay.

The engine in ``solving`` writes certificates; this checker imports nothing
from the engine or the search, so a proof is replayed by code that shares
nothing with the code that found it (as DRAT-trim keeps its checker apart
from the SAT solver; Wetzler, Heule and Hunt, SAT 2014).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from itertools import chain, product
from pathlib import Path
from typing import Any, Iterable, Union

from .errors import CertificateError, ParseError
from .model import PartitionedInstance
from .serialization import _COMPACT, _atomic_write, _is_int, _load_json, _only

CERTIFICATE_VERSION = 1

# -- steps ---------------------------------------------------------------------


@dataclass(frozen=True)
class ForcedSetStep:
    """Snapshot: the surviving vertices of a block form a forced set."""

    block: int
    survivors: tuple[int, ...]


@dataclass(frozen=True)
class ForbiddenStep:
    """The vertex is joined to every survivor tuple of the witness blocks."""

    vertex: int
    witnesses: tuple[int, ...]


@dataclass(frozen=True)
class JoinForcedStep:
    """A complete join between survivor parts makes the rest forced.

    ``kept`` lists, per block, the surviving part of the join; every cross
    tuple over the kept parts is an edge, so a transversal cannot pick from
    all kept parts simultaneously and must hit ``forced``.
    """

    blocks: tuple[int, ...]
    kept: tuple[tuple[int, ...], ...]
    forced: tuple[int, ...]


@dataclass(frozen=True)
class ForbiddenViaForcedStep:
    """The vertex is joined to every survivor of a derived forced set,
    combined with all survivor tuples of the witness blocks (r-2 of them;
    none for graphs)."""

    vertex: int
    forced_step: int
    witnesses: tuple[int, ...]


Step = Union[ForcedSetStep, ForbiddenStep, JoinForcedStep, ForbiddenViaForcedStep]


@dataclass(frozen=True)
class Certificate:
    """An ordered deduction log ending in a block with no survivors."""

    steps: tuple[Step, ...]
    conclusion: int


# -- field shapes: one validator each, for parsed lists and built tuples alike ------


def _int(value: Any) -> int:
    if not _is_int(value):
        raise CertificateError(f"expected an integer, got {value!r}")
    return value


def _ints(value: Any) -> tuple[int, ...]:
    if type(value) not in (list, tuple) or not _only(value, int):
        raise CertificateError("expected an array of integers")
    return tuple(value)


def _kept(value: Any) -> tuple[tuple[int, ...], ...]:
    if type(value) not in (list, tuple):
        raise CertificateError("kept must be an array of arrays")
    return tuple(map(_ints, value))


# The step kinds: each JSON kind name, its class and a validator for each of
# the class's fields, in field order.  A step's JSON keys are "kind" and the
# field names.  Steps are built positionally, as parsing is hot.
_STEP_KINDS = {
    kind: (cls, tuple(zip((f.name for f in fields(cls)), checks, strict=True)))
    for kind, cls, checks in [
        ("forced", ForcedSetStep, (_int, _ints)),
        ("forbidden", ForbiddenStep, (_int, _ints)),
        ("join_forced", JoinForcedStep, (_ints, _kept, _ints)),
        ("forbidden_via_forced", ForbiddenViaForcedStep, (_int, _int, _ints)),
    ]
}
_KIND_OF = {cls: (kind, checks) for kind, (cls, checks) in _STEP_KINDS.items()}


# -- file format -------------------------------------------------------------------


def serialize_certificate(cert: Certificate) -> bytes:
    """The certificate as JSON.  Fields are written as they are, unchecked;
    a step that JSON cannot write raises :class:`CertificateError`."""
    try:
        steps = [{"kind": _KIND_OF[type(step)][0], **vars(step)} for step in cert.steps]
        obj = {"version": CERTIFICATE_VERSION, "steps": steps, "conclusion": cert.conclusion}
        return (json.dumps(obj, sort_keys=True, separators=_COMPACT) + "\n").encode()
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateError(_unwritable(cert)) from exc


def _unwritable(cert: Certificate) -> str:
    """Why ``serialize_certificate`` cannot write ``cert``, and where."""
    steps = cert.steps
    if type(steps) not in (list, tuple):
        return f"steps {steps!r} is not a sequence"
    for i, step in enumerate(steps):
        if type(step) not in _KIND_OF:
            return f"unknown step type {type(step).__name__} (at step {i})"
        try:
            json.dumps(vars(step))
        except (TypeError, ValueError) as exc:
            return f"{exc} (at step {i})"
    return f"conclusion {cert.conclusion!r} cannot be written as JSON"


def parse_certificate(data: bytes | str) -> Certificate:
    obj = _load_json(data)
    if not isinstance(obj, dict):
        raise ParseError("top-level value must be an object")
    if obj.get("version") != CERTIFICATE_VERSION:
        raise ParseError(f"unsupported certificate version {obj.get('version')!r}")
    raw_steps = obj.get("steps", [])
    if not isinstance(raw_steps, list):
        raise ParseError("steps must be an array")
    steps: list[Step] = []
    for i, raw in enumerate(raw_steps):
        if not isinstance(raw, dict):
            raise ParseError("step must be an object", location=f"step {i}")
        kind = raw.get("kind")
        entry = _STEP_KINDS.get(kind) if isinstance(kind, str) else None
        if entry is None:
            raise ParseError(f"unknown step kind {kind!r}", location=f"step {i}")
        cls, checks = entry
        try:
            steps.append(cls(*[check(raw[key]) for key, check in checks]))
        except KeyError as exc:
            raise ParseError(f"step missing field {exc}", location=f"step {i}") from exc
        except CertificateError as exc:  # a field of the wrong shape
            raise ParseError(str(exc), location=f"step {i}") from exc
    conclusion = obj.get("conclusion")
    if not _is_int(conclusion):
        raise ParseError(f"invalid conclusion {conclusion!r}")
    return Certificate(steps=tuple(steps), conclusion=conclusion)


def write_certificate(cert: Certificate, path: str | Path) -> None:
    _atomic_write(Path(path), serialize_certificate(cert))


def read_certificate(path: str | Path) -> Certificate:
    return parse_certificate(Path(path).read_bytes())


# -- replay --------------------------------------------------------------------------


def _complete(edge_set: set[tuple[int, ...]], sets: Iterable[tuple[int, ...]]) -> bool:
    """Whether every set is nonempty and every tuple across them is an edge
    (a tuple that repeats a vertex is not).  ``sets`` is read lazily, up to
    the first empty set.

    Edges are stored sorted, so each product tuple is sorted before the
    lookup.  When the sets, ordered by their least vertex, are separated
    (each set's largest vertex below the next set's least), every tuple of
    their product in that order is already sorted and free of repeats, and
    the product is tested as it comes.  Either way ``issuperset`` runs the
    whole test in C; from CPython 3.11 on it stops at the first tuple that
    is not an edge, where older versions collect the product into a set.
    """
    chosen = []
    for s in sets:
        if not s:
            return False
        chosen.append(s)
    chosen.sort(key=min)
    if all(max(a) < min(b) for a, b in zip(chosen, chosen[1:])):
        return edge_set.issuperset(product(*chosen))
    return edge_set.issuperset(map(tuple, map(sorted, product(*chosen))))


def check_certificate(instance: PartitionedInstance, cert: Certificate) -> bool:
    """Replay a certificate step by step without any search.

    Malformed steps (a field of the wrong type or shape, an id that is not
    an ``int``, or one out of range) raise :class:`CertificateError`, whose
    message ends in "(at step i)" as the parser's does; logically
    unjustified steps make the replay return False.  A field holds an
    ``int``, or a list or tuple of them (``kept``: of such lists).  A
    ``cert`` that is not a :class:`Certificate` raises it too.
    """
    if not isinstance(cert, Certificate):
        raise CertificateError(f"expected a Certificate, got {type(cert).__name__}")
    r = instance.r
    n = instance.num_vertices
    num_blocks = instance.num_blocks
    edge_set = set(instance.edges)
    forbidden = [False] * n
    last_forced: dict[int, tuple[int, ...]] = {}
    join_forced: dict[int, tuple[int, ...]] = {}  # step index -> forced set

    def check_block(b: int) -> None:
        if not 0 <= b < num_blocks:
            raise CertificateError(f"unknown block id {b!r}")

    def survivors(b: int) -> tuple[int, ...]:
        check_block(b)
        return tuple([v for v in instance.blocks[b].members if not forbidden[v]])

    steps = cert.steps
    if type(steps) not in (list, tuple):
        raise CertificateError(f"steps {steps!r} is not a sequence")
    try:
        for idx, step in enumerate(steps):
            entry = _KIND_OF.get(type(step))
            if entry is None:
                raise CertificateError(f"unknown step type {type(step).__name__}")
            values = [check(getattr(step, name)) for name, check in entry[1]]
            if isinstance(step, ForcedSetStep):
                b, surv = values
                if surv != survivors(b):
                    return False
                last_forced[b] = surv
            elif isinstance(step, JoinForcedStep):
                blocks, kept, forced = values
                if len(blocks) != r or len(set(blocks)) != len(blocks):
                    return False
                surv = [set(survivors(b)) for b in blocks]
                if len(kept) != r or not all(map(set.issuperset, surv, kept)):
                    return False
                rest = chain.from_iterable(map(set.difference, surv, kept))
                if sorted(rest) != sorted(forced) or not _complete(edge_set, kept):
                    return False
                join_forced[idx] = forced
            else:  # v is forbidden: joined to every tuple across the sets below
                v, wits = values[0], values[-1]
                if not 0 <= v < n:
                    raise CertificateError(f"unknown vertex id {v!r}")
                if isinstance(step, ForbiddenStep):
                    if len(wits) != r - 1 or len(set(wits)) != len(wits) or forbidden[v]:
                        return False
                    bv = instance.block_of[v]
                    for b in wits:
                        check_block(b)
                        if b == bv or b not in last_forced:
                            return False
                    sets = [(v,), *map(last_forced.get, wits)]
                else:
                    ref = values[1]
                    if not 0 <= ref < idx:
                        raise CertificateError(f"forced-step reference {ref!r} out of range")
                    if ref not in join_forced:
                        raise CertificateError(
                            f"step {ref} referenced as forced set is {type(steps[ref]).__name__}"
                        )
                    if len(wits) != r - 2 or len(set(wits)) != len(wits) or forbidden[v]:
                        return False
                    alive = tuple(s for s in join_forced[ref] if not forbidden[s])
                    # lazy, so that each witness block is range-checked only when reached
                    sets = chain([(v,), alive], map(survivors, wits))
                if not _complete(edge_set, sets):
                    return False
                forbidden[v] = True
    except CertificateError as exc:
        raise CertificateError(f"{exc} (at step {idx})") from exc

    return not survivors(_int(cert.conclusion))
