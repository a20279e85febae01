import dataclasses
import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import make_instance, small_hypergraphs
from hypothesis import given, settings
from hypothesis import strategies as st

from transversals import (
    HEAVY,
    LIGHT,
    Block,
    Certificate,
    ForbiddenStep,
    ForbiddenViaForcedStep,
    ForcedSetStep,
    GradeSequence,
    JoinForcedStep,
    ParseError,
    PartitionedInstance,
    build_bounded_degree,
    build_forest,
    build_hypergraph,
    build_hypergraph_bounded_degree,
    build_local_degree,
    build_star_counterexample,
    check_certificate,
    compute_metrics,
    export_dot,
    pad_blocks,
    parse_certificate,
    parse_instance,
    propagate_certificate,
    read_instance,
    relabel,
    serialize_certificate,
    serialize_instance,
    simple_sequence,
    write_instance,
)
from transversals.cli import main as cli_main

GOLDEN = Path(__file__).parent / "golden"
STEP_KINDS = {
    ForcedSetStep: "forced",
    ForbiddenStep: "forbidden",
    JoinForcedStep: "join_forced",
    ForbiddenViaForcedStep: "forbidden_via_forced",
}


def seq_of(t, values):
    return GradeSequence.from_values(t, values)


def canonical_json(obj):
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


def reference_instance_bytes(inst):
    """The canonical instance text by its definition: the file's JSON object
    as Python values, dumped with sorted keys and no spaces."""
    blocks = []
    for b in inst.blocks:
        entry = {
            "id": b.id,
            "vertices": [
                {"id": v} if inst.roles[v] is None else {"id": v, "role": inst.roles[v]}
                for v in b.members
            ],
        }
        if b.grade is not None:
            entry["grade"] = b.grade
        if b.padding:
            entry["padding"] = True
        blocks.append(entry)
    return canonical_json(
        {
            "version": 1,
            "r": inst.r,
            "blocks": blocks,
            "edges": [list(e) for e in inst.edges],
            "meta": inst.meta,
        }
    )


def reference_certificate_bytes(cert):
    steps = [{"kind": STEP_KINDS[type(step)], **vars(step)} for step in cert.steps]
    return canonical_json({"version": 1, "steps": steps, "conclusion": cert.conclusion})


class TestInstanceRoundTrip:
    def test_forest_round_trip(self):
        inst = build_forest(3, seq_of(3, [0, 3]))
        assert parse_instance(serialize_instance(inst)) == inst

    def test_hypergraph_round_trip_preserves_arity(self):
        inst = build_hypergraph(3, 3, sequence_override=[0, 1, 3])
        back = parse_instance(serialize_instance(inst))
        assert back == inst
        assert back.r == 3
        assert all(len(e) == 3 for e in back.edges)

    def test_round_trip_preserves_grades_roles_padding_meta(self):
        from transversals import pad_blocks

        inst = pad_blocks(build_forest(3, seq_of(3, [0, 3])), 6)
        back = parse_instance(serialize_instance(inst))
        assert [b.grade for b in back.blocks] == [b.grade for b in inst.blocks]
        assert [b.padding for b in back.blocks] == [b.padding for b in inst.blocks]
        assert back.roles == inst.roles
        assert back.meta == inst.meta

    def test_serialization_is_byte_stable(self):
        inst = build_star_counterexample(3)
        assert serialize_instance(inst) == serialize_instance(
            build_star_counterexample(3)
        )

    def test_write_read(self, tmp_path):
        inst = build_star_counterexample(2)
        path = tmp_path / "stars.json"
        write_instance(inst, path)
        assert read_instance(path) == inst


@st.composite
def decorated_instances(draw):
    """A small hypergraph with drawn block grades and padding flags, vertex
    roles, string meta, and perhaps an empty padding block at the end."""
    inst = draw(small_hypergraphs())
    blocks = [
        Block(b.id, b.members, draw(st.none() | st.integers(1, 10**6)), draw(st.booleans()))
        for b in inst.blocks
    ]
    if draw(st.booleans()):
        blocks.append(Block(len(blocks), (), draw(st.none() | st.integers(1, 9)), True))
    roles = draw(st.lists(st.sampled_from([None, HEAVY, LIGHT]),
                          min_size=inst.num_vertices, max_size=inst.num_vertices))
    meta = draw(st.dictionaries(st.text(max_size=8), st.text(max_size=8), max_size=4))
    return PartitionedInstance(inst.r, blocks, inst.edges, roles=roles, meta=meta)


@settings(max_examples=250, derandomize=True, database=None, deadline=None)
@given(decorated_instances())
def test_decorated_instances_round_trip_byte_for_byte(inst):
    data = serialize_instance(inst)
    back = parse_instance(data)
    assert back == inst
    assert serialize_instance(back) == data


class TestParseErrors:
    def _base_obj(self):
        inst = make_instance(2, [[0, 1], [2, 3]], [(0, 2)])
        return json.loads(serialize_instance(inst))

    def test_partition_violation(self):
        obj = self._base_obj()
        obj["blocks"][1]["vertices"][0]["id"] = 0
        with pytest.raises(ParseError, match="partition violation") as err:
            parse_instance(json.dumps(obj))
        assert err.value.location == "block 1"
        assert str(err.value).endswith("(at block 1)")

    def test_version_mismatch(self):
        obj = self._base_obj()
        obj["version"] = 7
        with pytest.raises(ParseError, match="version"):
            parse_instance(json.dumps(obj))

    def test_duplicate_edge(self):
        obj = self._base_obj()
        obj["edges"].append([2, 0])
        with pytest.raises(ParseError, match="duplicate edge") as err:
            parse_instance(json.dumps(obj))
        assert err.value.location == "edge 1"

    def test_edge_arity(self):
        obj = self._base_obj()
        obj["edges"].append([0])
        with pytest.raises(ParseError, match="array of 2") as err:
            parse_instance(json.dumps(obj))
        assert err.value.location == "edge 1"

    def test_unknown_edge_vertex(self):
        obj = self._base_obj()
        obj["edges"].insert(0, [1, 9])
        with pytest.raises(ParseError, match="unknown vertex") as err:
            parse_instance(json.dumps(obj))
        assert err.value.location == "edge 0"
        assert str(err.value).endswith("(at edge 0)")

    def test_sparse_vertex_ids(self):
        obj = self._base_obj()
        obj["blocks"][1]["vertices"][1]["id"] = 9
        obj["edges"] = []
        with pytest.raises(ParseError, match="dense") as err:
            parse_instance(json.dumps(obj))
        assert err.value.location == "block 1"

    def test_not_json(self):
        with pytest.raises(ParseError, match="JSON"):
            parse_instance(b"put that in your pipe")

    @pytest.mark.parametrize("parse", [parse_instance, parse_certificate])
    def test_not_utf8(self, parse):
        with pytest.raises(ParseError, match="JSON"):
            parse(b'{"version": 1, "meta": {"x": "\xff\xfe"}}')

    @pytest.mark.parametrize("parse", [parse_instance, parse_certificate])
    def test_nesting_too_deep(self, parse):
        with pytest.raises(ParseError, match="JSON"):
            parse(b"[" * 100_000)

    def test_vertices_not_an_array(self):
        obj = self._base_obj()
        obj["blocks"][0]["vertices"] = 3
        with pytest.raises(ParseError, match="vertices must be an array"):
            parse_instance(json.dumps(obj))

    @pytest.mark.parametrize("padding", ["false", "true", 1, None])
    def test_padding_that_is_not_a_boolean(self, padding):
        obj = self._base_obj()
        obj["blocks"][1]["padding"] = padding
        with pytest.raises(ParseError, match="padding must be a bool") as err:
            parse_instance(json.dumps(obj))
        assert err.value.location == "block 1"

    def test_empty_block_that_is_not_padding(self):
        obj = self._base_obj()
        obj["blocks"].append({"id": 2, "vertices": []})
        with pytest.raises(ParseError, match="empty") as err:
            parse_instance(json.dumps(obj))
        assert err.value.location == "block 2"

    def test_block_ids_out_of_order(self):
        obj = self._base_obj()
        obj["blocks"][0]["id"], obj["blocks"][1]["id"] = 1, 0
        with pytest.raises(ParseError, match="dense and ordered") as err:
            parse_instance(json.dumps(obj))
        assert err.value.location == "block 0"

    def test_certificate_top_level_not_an_object(self):
        with pytest.raises(ParseError, match="object"):
            parse_certificate(b"[1,2]")

    @pytest.mark.parametrize(
        "step",
        [
            {"kind": "forced", "block": 0, "survivors": 5},
            {"kind": "forbidden", "vertex": 0, "witnesses": 5},
            {"kind": "join_forced", "blocks": [0, 1], "kept": 5, "forced": [2]},
            {"kind": "join_forced", "blocks": [0, 1], "kept": [5], "forced": [2]},
            {"kind": "forbidden_via_forced", "vertex": 0, "forced_step": 0,
             "witnesses": [None]},
        ],
        ids=["survivors", "witnesses", "kept", "kept-part", "witness-type"],
    )
    def test_certificate_step_field_not_an_int_array(self, step):
        data = json.dumps({"version": 1, "steps": [step], "conclusion": 0})
        with pytest.raises(ParseError, match="array"):
            parse_certificate(data)

    @pytest.mark.parametrize(
        "where, message",
        [
            ("vertex-id", "not an int"),
            ("edge-entry", "not an int"),
            ("block-id", "dense and ordered"),
            ("grade", "invalid grade"),
            ("r", "uniformity must be an int"),
        ],
    )
    def test_boolean_is_not_an_int(self, where, message):
        # JSON true/false are ints to Python (True == 1): each would parse
        # to a different instance than the file shows
        obj = self._base_obj()
        if where == "vertex-id":
            obj["blocks"][0]["vertices"][1]["id"] = True
        elif where == "edge-entry":
            obj["edges"][0][0] = False
        elif where == "block-id":
            obj["blocks"][1]["id"] = True
        elif where == "grade":
            obj["blocks"][0]["grade"] = True
        else:
            obj["r"] = True
        with pytest.raises(ParseError, match=message) as err:
            parse_instance(json.dumps(obj))
        locations = {
            "vertex-id": "block 0",
            "edge-entry": "edge 0",
            "block-id": "block 1",
            "grade": "block 0",
            "r": None,
        }
        assert err.value.location == locations[where]

    @pytest.mark.parametrize(
        "step, conclusion",
        [
            ({"kind": "forced", "block": 0, "survivors": [True]}, 0),
            ({"kind": "forced", "block": False, "survivors": [1]}, 0),
            ({"kind": "forbidden", "vertex": True, "witnesses": [1]}, 0),
            ({"kind": "forbidden_via_forced", "vertex": 0, "forced_step": False,
              "witnesses": []}, 0),
            ({"kind": "forced", "block": 0, "survivors": [1]}, True),
        ],
        ids=["survivor", "block", "vertex", "forced-step", "conclusion"],
    )
    def test_certificate_boolean_is_not_an_int(self, step, conclusion):
        data = json.dumps({"version": 1, "steps": [step], "conclusion": conclusion})
        with pytest.raises(ParseError):
            parse_certificate(data)

    def test_certificate_steps_not_an_array(self):
        with pytest.raises(ParseError, match="steps must be an array"):
            parse_certificate(b'{"version": 1, "steps": 5, "conclusion": 0}')

    @pytest.mark.parametrize(
        "step, message",
        [
            ({"kind": "forced", "block": 0}, "step missing field 'survivors'"),
            ({"kind": "join_forced", "blocks": [0, 1], "forced": [2]}, "step missing field 'kept'"),
            ({"kind": "join_forced", "blocks": [0, 1], "kept": 5, "forced": [2]},
             "kept must be an array of arrays"),
            ({"kind": ["forced"], "block": 0, "survivors": []}, "unknown step kind"),
            ({"block": 0, "survivors": []}, "unknown step kind None"),
        ],
        ids=["missing", "missing-kept", "kept", "unhashable-kind", "no-kind"],
    )
    def test_certificate_step_messages(self, step, message):
        data = json.dumps({"version": 1, "steps": [step], "conclusion": 0})
        with pytest.raises(ParseError, match=message) as err:
            parse_certificate(data)
        assert err.value.location == "step 0"


class TestDeclaredT:
    """A meta "t" that int() cannot read is no declared t: it neither crashes
    nor excludes the small padding block that a declared t = 3 excludes."""

    def _data(self, t):
        # a t=3 forest and one padding block cut down to one vertex
        obj = json.loads(serialize_instance(pad_blocks(build_forest(3, seq_of(3, [0, 3])), 5)))
        del obj["blocks"][-1]["vertices"][1:]
        obj["meta"]["t"] = t
        return json.dumps(obj)

    @pytest.mark.parametrize(
        "t, size", [("3", 3), ("²", 1), ("9" * 5000, 1), ("-3", 1)], ids=["3", "sup2", "5000", "-3"]
    )
    def test_parse_metrics_pad_and_cli(self, t, size, tmp_path, capsys):
        inst = parse_instance(self._data(t))
        assert compute_metrics(inst).thickness == size
        assert pad_blocks(inst, 6).blocks[-1].size == size
        path = tmp_path / "inst.json"
        path.write_text(self._data(t))
        assert cli_main(["metrics", str(path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["thickness"] == size


# Every value position of an instance file: its path in the golden forest
# t=3 and the location the model names for a bad value there.  The
# uniformity and meta are checked as wholes, with no location.
VALUE_POSITIONS = {
    "r": (("r",), None),
    "block-id": (("blocks", 1, "id"), "block 1"),
    "vertex-id": (("blocks", 1, "vertices", 1, "id"), "block 1"),
    "grade": (("blocks", 1, "grade"), "block 1"),
    "padding": (("blocks", 1, "padding"), "block 1"),
    "role": (("blocks", 1, "vertices", 1, "role"), "block 1"),
    "edge-entry": (("edges", 1, 0), "edge 1"),
    "meta-value": (("meta", "t"), None),
}
BAD_VALUES = {
    "true": True, "1.5": 1.5, "str": "1", "null": None, "list": [1], "object": {},
    "-1": -1, "1e30": 10**30,
}


@pytest.mark.parametrize("value", BAD_VALUES.values(), ids=BAD_VALUES.keys())
@pytest.mark.parametrize("position", VALUE_POSITIONS)
def test_every_value_position_parses_or_names_its_location(position, value):
    """The parser checks only the JSON shape; the model checks each value
    and the parser passes its location on."""
    path, location = VALUE_POSITIONS[position]
    obj = json.loads((GOLDEN / "forest_t3.json").read_bytes())
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    if position == "r" and type(value) is int and value >= 2:
        location = "edge 0"  # a valid uniformity that the 2-vertex edges do not meet
    try:
        inst = parse_instance(json.dumps(obj))
    except ParseError as err:
        assert err.location == location
    else:
        assert parse_instance(serialize_instance(inst)) == inst


@pytest.mark.parametrize("meta", [{"t": 3}, {"t": ["3"]}, [], "t"])
def test_meta_that_is_not_strings_is_refused(meta):
    obj = json.loads(serialize_instance(build_forest(3, seq_of(3, [0, 3]))))
    obj["meta"] = meta
    with pytest.raises(ParseError) as err:
        parse_instance(json.dumps(obj))
    assert str(err.value) == "meta must map strings to strings"


class TestCertificateSerialization:
    def test_round_trip_and_replay(self):
        inst = build_forest(2, seq_of(2, [0, 1, 2]))
        cert = propagate_certificate(inst)
        back = parse_certificate(serialize_certificate(cert))
        assert back == cert
        assert check_certificate(inst, back)

    def test_join_steps_survive_round_trip(self):
        inst = build_bounded_degree(14, Fraction(3, 10))
        cert = propagate_certificate(inst)
        back = parse_certificate(serialize_certificate(cert))
        assert back == cert
        assert check_certificate(inst, back)

    def test_every_step_kind_round_trips_under_its_field_names(self):
        cert = propagate_certificate(build_bounded_degree(12, Fraction(2, 5)))
        data = serialize_certificate(cert)
        assert parse_certificate(data) == cert
        kinds = {
            "forced": ForcedSetStep,
            "forbidden": ForbiddenStep,
            "join_forced": JoinForcedStep,
            "forbidden_via_forced": ForbiddenViaForcedStep,
        }
        raw_steps = json.loads(data)["steps"]
        assert {raw["kind"] for raw in raw_steps} == set(kinds)
        for raw, step in zip(raw_steps, cert.steps):
            assert type(step) is kinds[raw["kind"]]
            assert set(raw) == {"kind"} | {f.name for f in dataclasses.fields(step)}

    def test_bad_version(self):
        with pytest.raises(ParseError, match="version"):
            parse_certificate(b'{"version": 3, "steps": [], "conclusion": 0}')

    def test_unknown_step_kind(self):
        data = '{"version": 1, "steps": [{"kind": "wat"}], "conclusion": 0}'
        with pytest.raises(ParseError, match="unknown step kind"):
            parse_certificate(data)


class TestExportDot:
    def test_forest_cluster_and_edge_counts(self):
        inst = build_forest(3, seq_of(3, [0, 3]))
        dot = export_dot(inst)
        assert dot.count("subgraph cluster_") == 4
        assert dot.count(" -- ") == 9

    def test_edgeless_single_block(self):
        inst = make_instance(2, [[0, 1, 2]], [])
        dot = export_dot(inst)
        assert dot.count("subgraph cluster_") == 1
        assert dot.count(" -- ") == 0

    def test_star_counts(self):
        dot = export_dot(build_star_counterexample(2))
        assert dot.count("subgraph cluster_") == 5
        assert dot.count(" -- ") == 8

    def test_hypergraph_incidence_rendering(self):
        inst = build_hypergraph(3, 3, sequence_override=[0, 1, 3])
        dot = export_dot(inst)
        assert dot.count("[shape=point]") == 66
        assert dot.count(" -- ") == 66 * 3

    def test_deterministic(self):
        inst = build_star_counterexample(2)
        assert export_dot(inst) == export_dot(build_star_counterexample(2))

    def test_heavy_light_shapes(self):
        inst = build_forest(3, seq_of(3, [0, 3]))
        dot = export_dot(inst)
        assert "[shape=box]" in dot
        assert "[shape=circle]" in dot


class TestGoldenFiles:
    @pytest.mark.parametrize(
        "name",
        ["forest_t3.json", "stars_k2.json", "hypergraph_r3_t3.json"],
    )
    def test_golden_instances_revalidate(self, name):
        inst = read_instance(GOLDEN / name)
        cert = propagate_certificate(inst)
        assert cert is not None
        assert check_certificate(inst, cert)

    def test_golden_bytes_match_regenerated(self):
        regenerated = {
            "forest_t3.json": build_forest(3, seq_of(3, [0, 3])),
            "stars_k2.json": build_star_counterexample(2),
            "hypergraph_r3_t3.json": build_hypergraph(3, 3, sequence_override=[0, 1, 3]),
        }
        for name, inst in regenerated.items():
            assert (GOLDEN / name).read_bytes() == serialize_instance(inst)

    def test_golden_certificate_replays(self):
        inst = read_instance(GOLDEN / "forest_t3.json")
        cert = parse_certificate((GOLDEN / "forest_t3.cert.json").read_bytes())
        assert check_certificate(inst, cert)


# Each ladder build and the first 16 hex digits of its bytes' sha256.
LADDER = {
    "forest-t7": (lambda: build_forest(7, simple_sequence(7)), "3aff7e358819be02"),
    "bounded-t14": (lambda: build_bounded_degree(14, Fraction(3, 10)), "b0c85d99ae5489cb"),
    "bounded-t12": (lambda: build_bounded_degree(12, Fraction(2, 5)), "b0697f2ff4d4c398"),
    "local-t14": (lambda: build_local_degree(14, Fraction(3, 10)), "a313c3305a7e5e87"),
    "hypergraph-t6": (
        lambda: build_hypergraph(6, 3, sequence_override=[0, 1, 2, 4, 6]),
        "da087b6d962dcf0a",
    ),
    "hbounded-t21": (
        lambda: build_hypergraph_bounded_degree(21, 3, sequence_override=[0, 3, 21]),
        "08fdae7dde8fc7a6",
    ),
}


class TestByteIdentity:
    """The emitters write the text directly; it must equal the text of the
    file's JSON object dumped with sorted keys.  The ladder builds' bytes are
    pinned by digest, so a change to a builder that moves them shows here."""

    @pytest.mark.parametrize("name", sorted(LADDER))
    def test_ladder_builds(self, name):
        build, digest = LADDER[name]
        inst = build()
        data = serialize_instance(inst)
        assert data == reference_instance_bytes(inst)
        assert hashlib.sha256(data).hexdigest()[:16] == digest

    @pytest.mark.parametrize(
        "inst",
        [
            pad_blocks(build_forest(3, seq_of(3, [0, 3])), 6),
            make_instance(3, [[0, 1], [2, 3], [4, 5]], [(4, 0, 2), [5, 3, 1]]),
            make_instance(2, [[0, 1, 2]], []),
            relabel(build_forest(3, seq_of(3, [0, 3])), [(5 * v + 3) % 12 for v in range(12)]),
            make_instance(
                2,
                [[0, 1], [2, 3]],
                [(0, 2)],
                roles=["heavy", None, "light", None],
                meta={"z": " ", "note": "größe ≤ ∞", "é": '"\\\\'},
            ),
        ],
        ids=["padded", "role-less-r3", "edgeless", "relabeled", "non-ascii-meta"],
    )
    def test_edge_cases(self, inst):
        data = serialize_instance(inst)
        assert data == reference_instance_bytes(inst)
        assert parse_instance(data) == inst

    def test_golden_files(self):
        for path in sorted(GOLDEN.glob("*.json")):
            data = path.read_bytes()
            if path.name.endswith(".cert.json"):
                cert = parse_certificate(data)
                assert serialize_certificate(cert) == reference_certificate_bytes(cert) == data
            else:
                inst = parse_instance(data)
                assert serialize_instance(inst) == reference_instance_bytes(inst) == data

    @pytest.mark.parametrize(
        "make",
        [lambda: propagate_certificate(build_bounded_degree(12, Fraction(2, 5))), lambda: EVERY_STEP_KIND],
        ids=["bounded-t12", "hand-made"],
    )
    def test_certificates_with_every_step_kind(self, make):
        cert = make()
        assert {type(step) for step in cert.steps} == set(STEP_KINDS)
        data = serialize_certificate(cert)
        assert data == reference_certificate_bytes(cert)
        assert parse_certificate(data) == cert

    def test_bool_step_field_is_written_as_json_and_refused(self):
        # Certificate steps are plain dataclasses that nothing validates: a
        # bool field must still give valid JSON, which the parser refuses.
        cert = Certificate(steps=(ForbiddenStep(vertex=True, witnesses=(0,)),), conclusion=0)
        data = serialize_certificate(cert)
        assert json.loads(data)["steps"][0]["vertex"] is True
        with pytest.raises(ParseError) as info:
            parse_certificate(data)
        assert info.value.location == "step 0"


def json_paths(value, path=()):
    """Every position in a JSON value, as the keys and indices leading there."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from json_paths(child, (*path, key))


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 40)
    | st.floats(allow_nan=False)
    | st.sampled_from(["", "a", "heavy", "light", "forced"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "vertices", "role", "kind", "block"]), children, max_size=3),
    max_leaves=6,
)


@st.composite
def mutated_files(draw, files):
    """A valid file with one JSON value replaced or removed, or its bytes cut
    and spliced."""
    data = draw(st.sampled_from(files))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 8)))
        return data[:i] + draw(st.binary(max_size=4)) + data[j:]
    obj = json.loads(data)
    path = draw(st.sampled_from(list(json_paths(obj))))
    if not path:
        return json.dumps(draw(json_values)).encode()
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(json_values)
    return json.dumps(obj).encode()


INSTANCE_FILES = [
    (GOLDEN / name).read_bytes()
    for name in ["forest_t3.json", "stars_k2.json", "hypergraph_r3_t3.json"]
]
EVERY_STEP_KIND = Certificate(
    steps=(
        ForcedSetStep(block=0, survivors=(0, 1)),
        ForbiddenStep(vertex=2, witnesses=(0,)),
        JoinForcedStep(blocks=(0, 1), kept=((0,), (2, 3)), forced=(1,)),
        ForbiddenViaForcedStep(vertex=4, forced_step=2, witnesses=(1, 5)),
    ),
    conclusion=1,
)
CERTIFICATE_FILES = [
    (GOLDEN / "forest_t3.cert.json").read_bytes(),
    serialize_certificate(EVERY_STEP_KIND),
]


class TestMutatedFiles:
    """A damaged file either parses or raises ParseError, nothing else."""

    @settings(max_examples=250, derandomize=True, database=None, deadline=None)
    @given(mutated_files(INSTANCE_FILES))
    def test_instances(self, data):
        try:
            inst = parse_instance(data)
        except ParseError:
            return
        assert parse_instance(serialize_instance(inst)) == inst

    @settings(max_examples=250, derandomize=True, database=None, deadline=None)
    @given(mutated_files(CERTIFICATE_FILES))
    def test_certificates(self, data):
        try:
            cert = parse_certificate(data)
        except ParseError:
            return
        assert parse_certificate(serialize_certificate(cert)) == cert
