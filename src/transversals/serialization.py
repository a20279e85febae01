"""Canonical JSON interchange for instances, plus DOT export.

The instance format is versioned and serializes byte-stably: keys are
sorted, arrays keep construction order and no timestamps or environment
data are embedded, so identical inputs always produce identical files.
"""

from __future__ import annotations

import json
import os
import tempfile
from itertools import repeat
from pathlib import Path
from typing import Any, Iterable

from .errors import InstanceError, ParseError
from .model import HEAVY, LIGHT, Block, PartitionedInstance

INSTANCE_VERSION = 1

_COMPACT = (",", ":")  # json.dumps separators of the canonical text
_VERTEX_END = {None: "}", HEAVY: ',"role":"heavy"}', LIGHT: ',"role":"light"}'}


# -- instances ------------------------------------------------------------------


def serialize_instance(instance: PartitionedInstance) -> bytes:
    """The canonical text, written directly: what ``json.dumps(obj,
    sort_keys=True, separators=(",", ":"))`` gives for the instance's JSON
    object ``obj``, without building that object.  The model admits only
    ``int`` ids, grades and uniformity, whose text is the same in Python
    and JSON."""
    roles = instance.roles
    blocks = []
    for b in instance.blocks:
        grade = "" if b.grade is None else f'"grade":{b.grade},'
        padding = '"padding":true,' if b.padding else ""
        vertices = ",".join([f'{{"id":{v}{_VERTEX_END[roles[v]]}' for v in b.members])
        blocks.append(f'{{{grade}"id":{b.id},{padding}"vertices":[{vertices}]}}')
    edges = json.dumps(instance.edges, separators=_COMPACT)  # tuples encode as arrays
    meta = json.dumps(instance.meta, sort_keys=True, separators=_COMPACT)
    return (
        f'{{"blocks":[{",".join(blocks)}],"edges":{edges},"meta":{meta},'
        f'"r":{instance.r},"version":{INSTANCE_VERSION}}}\n'
    ).encode()


def parse_instance(data: bytes | str) -> PartitionedInstance:
    """Check the JSON shape here: the version, the top-level object, and
    that blocks, vertices and edges are arrays and vertex entries objects.
    Every value (uniformity, ids, grades, padding, roles, edge entries and
    meta) is the model's to check; its faults come out as ``ParseError``
    with the model's location."""
    obj = _load_json(data)
    if not isinstance(obj, dict):
        raise ParseError("top-level value must be an object")
    version = obj.get("version")
    if version != INSTANCE_VERSION:
        raise ParseError(f"unsupported instance version {version!r}")

    # popped, so that the block dicts are freed once the blocks are built
    blocks, roles = _parse_blocks(obj.pop("blocks", None))

    edges = obj.pop("edges", None)
    if not isinstance(edges, list):
        raise ParseError("edges must be an array")
    if not _only(edges, list):
        i = next(i for i, e in enumerate(edges) if type(e) is not list)
        raise ParseError("edge must be an array of vertex ids", location=f"edge {i}")
    for i, e in enumerate(edges):  # in place: each list is freed as its tuple replaces it
        edges[i] = tuple(e)

    try:
        return PartitionedInstance(
            obj.get("r"), blocks, edges, roles=roles, meta=obj.get("meta", {})
        )
    except InstanceError as exc:
        raise ParseError(exc.message, location=exc.location) from exc


def _parse_blocks(raw_blocks: Any) -> tuple[list[Block], list[Any]]:
    """The blocks and the per-vertex roles of the JSON block entries."""
    if not isinstance(raw_blocks, list):
        raise ParseError("blocks must be an array")
    blocks: list[Block] = []
    ids: list[Any] = []
    roles: list[Any] = []
    for i, raw in enumerate(raw_blocks):
        loc = f"block {i}"
        if not isinstance(raw, dict):
            raise ParseError("block entry must be an object", location=loc)
        entries = raw.get("vertices", [])
        if not isinstance(entries, list):
            raise ParseError("vertices must be an array", location=loc)
        if not _only(entries, dict):
            raise ParseError("vertex entry must be an object", location=loc)
        start = len(ids)
        ids.extend(map(dict.get, entries, repeat("id")))
        roles.extend(map(dict.get, entries, repeat("role")))
        blocks.append(
            Block(
                id=raw.get("id"),
                members=tuple(ids[start:]),
                grade=raw.get("grade"),
                padding=raw.get("padding", False),
            )
        )
    # Ids that are not ints, out of range or repeated are left unplaced
    # here: the model rejects them.
    role_list: list[Any] = [None] * len(ids)
    for v, role in zip(ids, roles):
        if type(v) is int and 0 <= v < len(ids):
            role_list[v] = role
    return blocks, role_list


def write_instance(instance: PartitionedInstance, path: str | Path) -> None:
    _atomic_write(Path(path), serialize_instance(instance))


def read_instance(path: str | Path) -> PartitionedInstance:
    return parse_instance(Path(path).read_bytes())


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


# -- helpers (the certificate format uses them too) -------------------------------


def _is_int(value: Any) -> bool:
    """JSON integers only.  ``true`` and ``false`` parse to ``bool``, an
    ``int`` subclass, hence ``type(...) is int`` here and in ``_only``."""
    return type(value) is int


def _only(values: Iterable[Any], cls: type) -> bool:
    """Whether every value is exactly of type ``cls``, in one pass."""
    return {cls}.issuperset(map(type, values))


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
