"""Canonical JSON interchange for instances and certificates, plus DOT export.

Both file formats are versioned and serialize byte-stably: keys are sorted,
arrays keep construction order and no timestamps or environment data are
embedded, so identical inputs always produce identical files.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from pathlib import Path
from typing import Any

from .errors import InstanceError, ParseError
from .model import HEAVY, LIGHT, Block, PartitionedInstance
from .solving import (
    Certificate,
    ForbiddenStep,
    ForbiddenViaForcedStep,
    ForcedSetStep,
    JoinForcedStep,
    Step,
)

INSTANCE_VERSION = 1
CERTIFICATE_VERSION = 1


# -- instances ------------------------------------------------------------------


def instance_to_obj(instance: PartitionedInstance) -> dict[str, Any]:
    blocks = []
    for b in instance.blocks:
        entry: dict[str, Any] = {
            "id": b.id,
            "vertices": [
                {"id": v}
                if instance.roles[v] is None
                else {"id": v, "role": instance.roles[v]}
                for v in b.members
            ],
        }
        if b.grade is not None:
            entry["grade"] = b.grade
        if b.padding:
            entry["padding"] = True
        blocks.append(entry)
    return {
        "version": INSTANCE_VERSION,
        "r": instance.r,
        "blocks": blocks,
        "edges": [list(e) for e in instance.edges],
        "meta": dict(sorted(instance.meta.items())),
    }


def serialize_instance(instance: PartitionedInstance) -> bytes:
    text = json.dumps(instance_to_obj(instance), sort_keys=True, separators=(",", ":"))
    return (text + "\n").encode("utf-8")


def parse_instance(data: bytes | str) -> PartitionedInstance:
    """Check the JSON shape and types here; the structural invariants
    (partition, dense ids, edge arity, duplicates) are the model's."""
    obj = _load_json(data)
    if not isinstance(obj, dict):
        raise ParseError("top-level value must be an object")
    version = obj.get("version")
    if version != INSTANCE_VERSION:
        raise ParseError(f"unsupported instance version {version!r}")
    r = obj.get("r")
    if not _is_int(r):
        raise ParseError(f"invalid uniformity {r!r}")

    raw_blocks = obj.get("blocks")
    if not isinstance(raw_blocks, list):
        raise ParseError("blocks must be an array")
    blocks: list[Block] = []
    ids: list[int] = []
    roles: list[Any] = []
    for i, raw in enumerate(raw_blocks):
        loc = f"block {i}"
        if not isinstance(raw, dict):
            raise ParseError("block entry must be an object", location=loc)
        block_id = raw.get("id")
        if not _is_int(block_id):
            raise ParseError(f"invalid block id {block_id!r}", location=loc)
        grade = raw.get("grade")
        if grade is not None and (not _is_int(grade) or grade < 1):
            raise ParseError(f"invalid grade {grade!r}", location=loc)
        entries = raw.get("vertices", [])
        if not isinstance(entries, list):
            raise ParseError("vertices must be an array", location=loc)
        start = len(ids)
        for entry in entries:
            if not isinstance(entry, dict) or type(entry.get("id")) is not int:
                raise ParseError("vertex entry must be an object with an id", location=loc)
            ids.append(entry["id"])
            roles.append(entry.get("role"))
        blocks.append(
            Block(
                id=block_id,
                members=tuple(ids[start:]),
                grade=grade,
                padding=bool(raw.get("padding", False)),
            )
        )

    raw_edges = obj.get("edges")
    if not isinstance(raw_edges, list):
        raise ParseError("edges must be an array")
    for i, raw in enumerate(raw_edges):
        if not isinstance(raw, list) or not all(type(v) is int for v in raw):
            raise ParseError("edge must be an array of vertex ids", location=f"edge {i}")

    meta = obj.get("meta", {})
    if not isinstance(meta, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in meta.items()
    ):
        raise ParseError("meta must map strings to strings")

    # Roles are listed per vertex entry; ids out of range or repeated are
    # left unplaced here, because the model rejects them.
    role_list: list[Any] = [None] * len(ids)
    for v, role in zip(ids, roles):
        if 0 <= v < len(ids):
            role_list[v] = role
    try:
        return PartitionedInstance(r, blocks, raw_edges, roles=role_list, meta=meta)
    except InstanceError as exc:
        raise ParseError(exc.message, location=exc.location) from exc


def write_instance(instance: PartitionedInstance, path: str | Path) -> None:
    _atomic_write(Path(path), serialize_instance(instance))


def read_instance(path: str | Path) -> PartitionedInstance:
    return parse_instance(Path(path).read_bytes())


# -- certificates ----------------------------------------------------------------


def certificate_to_obj(cert: Certificate) -> dict[str, Any]:
    """The certificate as JSON values; tuples stand for JSON arrays."""
    return {
        "version": CERTIFICATE_VERSION,
        "steps": [{"kind": _KIND_OF[type(step)], **vars(step)} for step in cert.steps],
        "conclusion": cert.conclusion,
    }


def serialize_certificate(cert: Certificate) -> bytes:
    text = json.dumps(certificate_to_obj(cert), sort_keys=True, separators=(",", ":"))
    return (text + "\n").encode("utf-8")


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
        loc = f"step {i}"
        if not isinstance(raw, dict):
            raise ParseError("step must be an object", location=loc)
        kind = raw.get("kind")
        entry = _STEP_KINDS.get(kind) if isinstance(kind, str) else None
        if entry is None:
            raise ParseError(f"unknown step kind {kind!r}", location=loc)
        cls, fields = entry
        try:
            steps.append(cls(*[parse(raw[key], loc) for key, parse in fields]))
        except KeyError as exc:
            raise ParseError(f"step missing field {exc}", location=loc) from exc
    conclusion = obj.get("conclusion")
    if not _is_int(conclusion):
        raise ParseError(f"invalid conclusion {conclusion!r}")
    return Certificate(steps=tuple(steps), conclusion=conclusion)


def _is_int(value: Any) -> bool:
    """JSON integers only.  ``true`` and ``false`` parse to ``bool``, an
    ``int`` subclass, hence ``type(...) is int`` here and in the loops."""
    return type(value) is int


def _int(value: Any, loc: str) -> int:
    if not _is_int(value):
        raise ParseError(f"expected an integer, got {value!r}", location=loc)
    return value


def _ints(value: Any, loc: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(type(x) is int for x in value):
        raise ParseError("expected an array of integers", location=loc)
    return tuple(value)


def _kept(value: Any, loc: str) -> tuple[tuple[int, ...], ...]:
    if not isinstance(value, list):
        raise ParseError("kept must be an array of arrays", location=loc)
    return tuple(_ints(part, loc) for part in value)


# The certificate step kinds: each JSON kind name, its class and a parser for
# each of the class's fields, in field order.  A step's JSON keys are "kind"
# and the field names.  Steps are built positionally, as parsing is hot.
_STEP_KINDS = {
    kind: (cls, tuple(zip((f.name for f in dataclasses.fields(cls)), parsers, strict=True)))
    for kind, cls, parsers in [
        ("forced", ForcedSetStep, (_int, _ints)),
        ("forbidden", ForbiddenStep, (_int, _ints)),
        ("join_forced", JoinForcedStep, (_ints, _kept, _ints)),
        ("forbidden_via_forced", ForbiddenViaForcedStep, (_int, _int, _ints)),
    ]
}
_KIND_OF = {cls: kind for kind, (cls, _) in _STEP_KINDS.items()}


def write_certificate(cert: Certificate, path: str | Path) -> None:
    _atomic_write(Path(path), serialize_certificate(cert))


def read_certificate(path: str | Path) -> Certificate:
    return parse_certificate(Path(path).read_bytes())


# -- DOT export ------------------------------------------------------------------


def export_dot(instance: PartitionedInstance) -> str:
    """Deterministic Graphviz text: blocks as clusters, heavy vertices as
    boxes, light ones as circles.  Hypergraphs render as a bipartite
    incidence graph with one point node per edge."""
    lines = ["graph G {"]
    for b in instance.blocks:
        label = f"block {b.id}"
        if b.grade is not None:
            label += f" (grade {b.grade})"
        if b.padding:
            label += " [padding]"
        lines.append(f"  subgraph cluster_{b.id} {{")
        lines.append(f'    label="{label}";')
        for v in b.members:
            shape = {HEAVY: "box", LIGHT: "circle", None: "ellipse"}[instance.roles[v]]
            lines.append(f"    v{v} [shape={shape}];")
        lines.append("  }")
    if instance.r == 2:
        for u, v in instance.edges:
            lines.append(f"  v{u} -- v{v};")
    else:
        for i, e in enumerate(instance.edges):
            lines.append(f"  e{i} [shape=point];")
            for v in e:
                lines.append(f"  e{i} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- helpers ---------------------------------------------------------------------


def _load_json(data: bytes | str) -> Any:
    try:
        return json.loads(data)
    except (ValueError, RecursionError) as exc:  # bad JSON or bad UTF-8, too deep
        raise ParseError(f"not valid JSON: {exc}") from exc


def _atomic_write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
