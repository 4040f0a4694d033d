import json

import numpy as np
import pytest

from twirlab.catalog import build_world
from twirlab.errors import (
    BadOption,
    BadParam,
    DimensionError,
    NotAGroup,
    SchemaError,
    UnknownBuiltin,
)
from twirlab.model import (
    SCHEMA_TAG,
    canonical_bytes,
    canonical_json,
    digest,
    parse_builtin_ref,
    parse_model,
)
from twirlab.pipeline import Options


def minimal_model(**overrides):
    m = {
        "schema": SCHEMA_TAG,
        "name": "pair-of-bits",
        "systems": [
            {"id": "A", "dim": 2,
             "state_generators": [[1.0, 0.0], [0.0, 1.0]],
             "effect_generators": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
             "unit_effect": [1.0, 1.0]},
            {"id": "B", "dim": 2,
             "state_generators": [[1.0, 0.0], [0.0, 1.0]],
             "effect_generators": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
             "unit_effect": [1.0, 1.0]},
        ],
        "group": {
            "kind": "finite",
            "elements": [
                {"label": "e", "matrices": {"A": [[1.0, 0.0], [0.0, 1.0]],
                                            "B": [[1.0, 0.0], [0.0, 1.0]]}},
                {"label": "x", "matrices": {"A": [[0.0, 1.0], [1.0, 0.0]],
                                            "B": [[0.0, 1.0], [1.0, 0.0]]}},
            ],
        },
        "composites": [{"parts": ["A", "B"]}],
    }
    m.update(overrides)
    return m


# ------------------------------------------------------- canonical serializer


def test_canonical_json_sorts_and_formats():
    obj = {"b": 1, "a": [0.5, 2, True, None], "c": {}}
    text = canonical_json(obj)
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert "0.5" in text and "true" in text and "null" in text
    assert '"c": {}' in text


def test_canonical_json_is_insertion_order_independent():
    a = {"x": 1, "y": [1.25, {"q": 2, "p": 3}]}
    b = {"y": [1.25, {"p": 3, "q": 2}], "x": 1}
    assert canonical_bytes(a) == canonical_bytes(b)


def test_canonical_json_floats_and_arrays():
    assert canonical_json(0.1) == "0.10000000000000001"
    assert canonical_json(1.0) == "1"
    assert canonical_json(np.array([1.0, 0.25])) == "[\n  1,\n  0.25\n]"
    with pytest.raises(ValueError):
        canonical_json(float("nan"))
    with pytest.raises(TypeError):
        canonical_json(object())


def test_canonical_bytes_ascii_newline():
    b = canonical_bytes({"k": "vé"})
    assert b.endswith(b"\n")
    b.decode("ascii")


def test_digest_is_prefixed_and_content_sensitive():
    d1 = digest({"a": 1})
    d2 = digest({"a": 2})
    assert d1.startswith("sha256:") and len(d1) == 7 + 64
    assert d1 != d2
    assert d1 == digest({"a": 1})


# ------------------------------------------------------------------- parsing


def test_minimal_model_parses_and_round_trips():
    m = parse_model(minimal_model())
    assert m.name == "pair-of-bits"
    b = m.bundle
    assert b.bipartite and b.kind == "explicit"
    assert b.parts[0].n_states == 2
    # file rows are state vectors; the spec stores them as columns
    assert np.array_equal(b.parts[0].state_generators, np.eye(2))
    assert b.composite.dim == 4
    assert b.collective.order == 2
    reparsed = parse_model(json.loads(canonical_bytes(m.raw).decode()))
    assert canonical_bytes(reparsed.raw) == canonical_bytes(m.raw)
    assert reparsed.digest == m.digest


def test_parse_accepts_json_text():
    m = parse_model(json.dumps(minimal_model()))
    assert m.bundle.composite.n_states == 4


def test_parse_model_files_round_trip(repo_root):
    for fname in ("boxworld_reflection.json", "cbit_bitflip.json"):
        path = repo_root / "models" / fname
        m = parse_model(str(path))
        assert canonical_bytes(m.raw) == path.read_bytes()


def test_options_parsed_with_string_floats():
    m = parse_model(minimal_model(options={"tol": "1e-9", "rank_tol": 1e-7,
                                           "seed": 7, "trials": 50}))
    assert m.options == {"tol": 1e-9, "rank_tol": 1e-7, "seed": 7, "trials": 50}


OUT_OF_RANGE = [{"tol": "nan"}, {"tol": "inf"}, {"tol": -1e-9},
                {"rank_tol": -1}, {"rank_tol": 1.0}, {"rank_tol": "nan"},
                {"trials": 0}, {"trials": -3}, {"seed": -1}]


@pytest.mark.parametrize("options,path", [
    ({"tol": "abc"}, "$.options.tol"),
    ({"seed": 1.5}, "$.options.seed"),
    ({"trials": True}, "$.options.trials"),
    ({"verbosity": 2}, "$.options.verbosity"),
    ({"tol": True}, "$.options.tol"),
] + [(o, f"$.options.{next(iter(o))}") for o in OUT_OF_RANGE])
def test_bad_options_carry_their_path(options, path):
    with pytest.raises(SchemaError) as exc:
        parse_model(minimal_model(options=options))
    assert exc.value.path == path


@pytest.mark.parametrize("options", OUT_OF_RANGE, ids=str)
def test_out_of_range_options_are_named_errors_in_files_and_options(options):
    (key, value), = options.items()
    with pytest.raises(BadOption):
        parse_model(minimal_model(options=options))
    with pytest.raises(BadOption) as exc:
        Options(**{key: float(value) if key.endswith("tol") else value})
    assert exc.value.path == f"Options.{key}"


def test_option_bounds_are_inclusive_where_stated():
    m = parse_model(minimal_model(options={"tol": 0, "rank_tol": 0.0, "seed": 0,
                                           "trials": 1}))
    assert Options(**m.options).as_dict() == {"tol": 0.0, "rank_tol": 0.0,
                                              "seed": 0, "trials": 1}


@pytest.mark.parametrize("mutate,path", [
    (lambda m: m.update(schema="twirlab/0"), "$.schema"),
    (lambda m: m.pop("name"), "$.name"),
    (lambda m: m.pop("systems"), "$.systems"),
    (lambda m: m.update(systems=m["systems"] * 2), "$.systems"),
    (lambda m: m.pop("group"), "$.group"),
    (lambda m: m["systems"][0].pop("unit_effect"), "$.systems[0]"),
    (lambda m: m["systems"][1].update(id="A"), "$.systems[1].id"),
    (lambda m: m["group"].update(kind="lie"), "$.group.kind"),
    (lambda m: m["group"]["elements"][0].pop("matrices"),
     "$.group.elements[0].matrices"),
    (lambda m: m["group"]["elements"][1]["matrices"].pop("B"),
     "$.group.elements[1].matrices"),
    (lambda m: m["composites"].append({"parts": ["A", "B"]}), "$.composites"),
    (lambda m: m["composites"][0].update(parts=["A", "C"]),
     "$.composites[0].parts"),
    (lambda m: m["composites"][0].update(parts=["A"]), "$.composites[0].parts"),
    (lambda m: m["composites"][0].update(parts=["A", "A"]), "$.composites[0].parts"),
    (lambda m: m["composites"][0].update(parts=[["A"], "B"]), "$.composites[0].parts"),
    (lambda m: m["composites"][0].update(id=5), "$.composites[0].id"),
    (lambda m: m["composites"][0].update(id=""), "$.composites[0].id"),
    (lambda m: m["composites"][0].update(id=None), "$.composites[0].id"),
    (lambda m: m["composites"][0].update(id="A"), "$.composites[0].id"),
    (lambda m: m["composites"][0].update(id="B"), "$.composites[0].id"),
])
def test_schema_violations_carry_their_path(mutate, path):
    m = minimal_model()
    mutate(m)
    with pytest.raises(SchemaError) as exc:
        parse_model(m)
    assert exc.value.path == path


def test_composite_id_defaults_to_the_part_ids():
    assert parse_model(minimal_model()).bundle.composite.id == "AB"
    m = minimal_model()
    m["composites"][0].update(id="pair", parts=["B", "A"])
    bundle = parse_model(m).bundle
    assert bundle.composite.id == "pair"
    assert [s.id for s in bundle.parts] == ["B", "A"]


def test_dimension_errors_carry_their_path():
    m = minimal_model()
    m["systems"][0]["state_generators"] = [[1.0, 0.0], [0.0, 1.0, 0.0]]
    with pytest.raises(DimensionError) as exc:
        parse_model(m)
    assert exc.value.path == "$.systems[0].state_generators[1]"

    m = minimal_model()
    m["systems"][0]["unit_effect"] = [1.0, 1.0, 1.0]
    with pytest.raises(DimensionError) as exc:
        parse_model(m)
    assert exc.value.path == "$.systems[0].unit_effect"

    m = minimal_model()
    m["group"]["elements"][1]["matrices"]["A"] = [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]
    with pytest.raises(DimensionError) as exc:
        parse_model(m)
    assert exc.value.path == "$.group.elements[1].matrices.A"

    m = minimal_model()
    m["composites"][0]["extra_effect_generators"] = [[1.0, 0.0]]
    with pytest.raises(DimensionError) as exc:
        parse_model(m)
    assert exc.value.path == "$.composites[0].extra_effect_generators"


def test_group_must_actually_be_a_group():
    m = minimal_model()
    # drop the identity element
    m["group"]["elements"] = m["group"]["elements"][1:]
    with pytest.raises(NotAGroup):
        parse_model(m)


def test_invalid_json_text_rejected():
    with pytest.raises(SchemaError) as exc:
        parse_model("{not json")
    assert exc.value.path == "$"


def test_builtin_group_supplies_systems():
    m = {"schema": SCHEMA_TAG, "name": "from-recipe",
         "group": {"kind": "builtin", "name": "cbit_bitflip"}}
    parsed = parse_model(m)
    assert parsed.bundle.kind == "classical"
    assert parsed.bundle.composite is not None
    bad = dict(m, systems=[{"id": "A"}])
    with pytest.raises(SchemaError) as exc:
        parse_model(bad)
    assert exc.value.path == "$.systems"
    with pytest.raises(UnknownBuiltin):
        parse_model({"schema": SCHEMA_TAG, "name": "x",
                     "group": {"kind": "builtin", "name": "nope"}})


# -------------------------------------------------------------- builtin refs


def test_builtin_ref_parsing():
    assert parse_builtin_ref("builtin:cbit_bitflip") == ("cbit_bitflip", {})
    name, params = parse_builtin_ref("builtin:pointer_discrete?n=4")
    assert name == "pointer_discrete" and params == {"n": 4}
    _, params = parse_builtin_ref("builtin:bosonic_u1?N=2&modes=1")
    assert params == {"N": 2, "modes": 1}
    with pytest.raises(BadParam, match="pointer_discrete: parameter n given twice"):
        parse_builtin_ref("builtin:pointer_discrete?n=2&n=3")
    # names are checked where worlds are built
    assert parse_builtin_ref("builtin:warp_drive") == ("warp_drive", {})
    with pytest.raises(UnknownBuiltin):
        build_world(*parse_builtin_ref("builtin:warp_drive"))
