"""Model files: a JSON description of systems, a group, and composites.

A model either spells everything out (generator lists per system, one
matrix per system per group element) or points at a builtin recipe by
name.  Parsing produces the same WorldBundle the builtin catalog yields,
so the analysis pipeline does not care where a world came from.

Serialization is canonical: keys sorted, two-space indent, floats with
17 significant digits.  canonical_bytes(m.raw) of a parsed model m
reproduces the canonical file byte for byte, and report files are stable
across repeated runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass
from urllib.parse import parse_qsl

import numpy as np

from .catalog import WorldBundle, build_world
from .core import DEFAULT_TOL, CompositeSpec, SystemSpec, compose_systems
from .errors import BadOption, BadParam, DimensionError, NotAGroup, SchemaError
from .symmetry import build_finite_action

SCHEMA_TAG = "twirlab/1"


# ------------------------------------------------------------- canonical JSON


def _format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite float cannot be serialized")
    return format(x, ".17g")


def canonical_json(obj, indent: int = 0) -> str:
    """Deterministic JSON text: sorted keys, fixed float formatting."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, np.ndarray):
        return canonical_json(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [canonical_json(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(inner + s for s in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        keys = sorted(obj.keys())
        items = [f"{inner}{json.dumps(str(k), ensure_ascii=True)}: "
                 f"{canonical_json(obj[k], indent + 1)}" for k in keys]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_bytes(obj) -> bytes:
    return (canonical_json(obj) + "\n").encode("ascii")


def digest(obj) -> str:
    return "sha256:" + hashlib.sha256(canonical_bytes(obj)).hexdigest()


# ------------------------------------------------------------------- parsing


@dataclass
class ModelFile:
    name: str
    bundle: WorldBundle
    options: dict
    raw: dict
    digest: str


def _expect(cond: bool, path: str, msg: str):
    if not cond:
        raise SchemaError(path, msg)


def _float_entry(v, path: str) -> float:
    if isinstance(v, bool):
        raise SchemaError(path, "expected a number, got a boolean")
    if isinstance(v, (int, float)):
        return float(v)
    if isinstance(v, str):
        try:
            return float(v)
        except ValueError:
            raise SchemaError(path, f"not a number: {v!r}") from None
    raise SchemaError(path, f"expected a number, got {type(v).__name__}")


def _vector(v, path: str) -> np.ndarray:
    _expect(isinstance(v, list), path, "expected an array of numbers")
    return np.array([_float_entry(x, f"{path}[{i}]") for i, x in enumerate(v)])


def _matrix(v, path: str) -> np.ndarray:
    _expect(isinstance(v, list) and v, path, "expected a nonempty array of rows")
    rows = [_vector(r, f"{path}[{i}]") for i, r in enumerate(v)]
    width = rows[0].shape[0]
    for i, r in enumerate(rows):
        if r.shape[0] != width:
            raise DimensionError(f"{path}[{i}]", "ragged matrix rows")
    return np.array(rows)


def _parse_system(entry, path: str) -> SystemSpec:
    _expect(isinstance(entry, dict), path, "system entry must be an object")
    for key in ("id", "dim", "state_generators", "effect_generators", "unit_effect"):
        _expect(key in entry, path, f"missing field {key!r}")
    sid = entry["id"]
    _expect(isinstance(sid, str) and sid, f"{path}.id", "system id must be a string")
    dim = entry["dim"]
    _expect(isinstance(dim, int) and not isinstance(dim, bool) and dim >= 1,
            f"{path}.dim", "dim must be a positive integer")
    states = _matrix(entry["state_generators"], f"{path}.state_generators")
    if states.shape[1] != dim:
        raise DimensionError(f"{path}.state_generators",
                             f"vectors of length {states.shape[1]} for a dim-{dim} system")
    effects = _matrix(entry["effect_generators"], f"{path}.effect_generators")
    if effects.shape[1] != dim:
        raise DimensionError(f"{path}.effect_generators",
                             f"vectors of length {effects.shape[1]} for a dim-{dim} system")
    unit = _vector(entry["unit_effect"], f"{path}.unit_effect")
    if unit.shape[0] != dim:
        raise DimensionError(f"{path}.unit_effect",
                             f"vector of length {unit.shape[0]} for a dim-{dim} system")
    return SystemSpec(id=sid, dim=dim, state_generators=states.T,
                      effect_generators=effects, unit_effect=unit)


def _parse_group(entry, systems: dict, path: str, tol: float):
    _expect(isinstance(entry, dict), path, "group must be an object")
    kind = entry.get("kind")
    _expect(kind in ("finite", "builtin"), f"{path}.kind",
            "group kind must be 'finite' or 'builtin'")
    if kind == "builtin":
        return None
    elements = entry.get("elements")
    _expect(isinstance(elements, list) and elements, f"{path}.elements",
            "finite group needs a nonempty element list")
    labels = []
    per_system = {sid: [] for sid in systems}
    for i, el in enumerate(elements):
        epath = f"{path}.elements[{i}]"
        _expect(isinstance(el, dict), epath, "element must be an object")
        lab = el.get("label")
        _expect(isinstance(lab, str) and lab, f"{epath}.label",
                "element label must be a string")
        labels.append(lab)
        mats = el.get("matrices")
        _expect(isinstance(mats, dict), f"{epath}.matrices",
                "element needs a matrices object keyed by system id")
        for sid, spec in systems.items():
            _expect(sid in mats, f"{epath}.matrices", f"missing matrix for system {sid!r}")
            m = _matrix(mats[sid], f"{epath}.matrices.{sid}")
            if m.shape != (spec.dim, spec.dim):
                raise DimensionError(
                    f"{epath}.matrices.{sid}",
                    f"{m.shape[0]}x{m.shape[1]} matrix for a dim-{spec.dim} system")
            per_system[sid].append(m)
    actions = {}
    for sid in systems:
        try:
            actions[sid] = build_finite_action(labels, per_system[sid], tol)
        except NotAGroup as exc:
            raise NotAGroup(f"{path}: system {sid!r}: {exc}") from None
    return actions


def check_option(key: str, value, path: str) -> None:
    """Raise BadOption unless value is allowed for the analysis option key.

    tol: a finite number >= 0.  rank_tol: a finite number in [0, 1), a
    relative singular-value cutoff.  seed: an integer >= 0, as the probe
    generator takes.  trials: an integer >= 1.  Model files, command-line
    flags and Options all go through this one check.
    """
    if key in ("tol", "rank_tol"):
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            raise BadOption(path, f"expected a number, got {type(value).__name__}")
        top = math.inf if key == "tol" else 1.0
        if not (math.isfinite(value) and 0 <= value < top):
            rule = "finite and >= 0" if key == "tol" else "finite and in [0, 1)"
            raise BadOption(path, f"must be {rule}, got {value!r}")
    elif key in ("seed", "trials"):
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise BadOption(path, "must be an integer")
        low = 1 if key == "trials" else 0
        if value < low:
            raise BadOption(path, f"must be >= {low}, got {value!r}")
    else:
        raise BadOption(path, "unknown option")


def parse_builtin_ref(ref: str) -> tuple[str, dict]:
    """Parse 'builtin:name?key=value&...' into a builtin name and params.

    build_world checks the name and the values; a repeated key is a BadParam.
    """
    name, _, query = ref[len("builtin:"):].partition("?")
    params = {}
    for k, v in parse_qsl(query, keep_blank_values=True):
        if k in params:
            raise BadParam(f"{name}: parameter {k} given twice in {ref!r}")
        try:
            params[k] = int(v)
        except ValueError:
            try:
                params[k] = float(v)
            except ValueError:
                params[k] = v
    return name, params


def parse_model(source, tol: float | None = None) -> ModelFile:
    """Parse a model from a path, a JSON string, or a parsed dict.

    Schema errors carry the JSON path of the offending entry.  Whether
    the systems are valid worlds is left to the validation stage.  The
    group is closed at tol when it is given (a run's --tol), else at the
    file's options.tol.
    """
    if isinstance(source, dict):
        raw = source
    else:
        text = None
        s = str(source)
        if s.lstrip().startswith("{"):
            text = s
        else:
            with open(s, "r", encoding="utf-8") as fh:
                text = fh.read()
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError("$", f"not valid JSON: {exc}") from None

    _expect(isinstance(raw, dict), "$", "model must be a JSON object")
    _expect(raw.get("schema") == SCHEMA_TAG, "$.schema",
            f"schema must be {SCHEMA_TAG!r}")
    name = raw.get("name")
    _expect(isinstance(name, str) and name, "$.name", "model needs a name")

    options = raw.get("options", {})
    _expect(isinstance(options, dict), "$.options", "options must be an object")
    opts = {}
    for k, v in options.items():
        if k in ("tol", "rank_tol"):
            v = _float_entry(v, f"$.options.{k}")
        check_option(k, v, f"$.options.{k}")
        opts[k] = v

    group = raw.get("group")
    _expect(isinstance(group, dict), "$.group", "model needs a group object")

    if group.get("kind") == "builtin":
        _expect(not raw.get("systems"), "$.systems",
                "a builtin group supplies its own systems; leave the list empty")
        bname = group.get("name")
        _expect(isinstance(bname, str) and bname, "$.group.name",
                "builtin group needs a recipe name")
        params = group.get("params", {})
        _expect(isinstance(params, dict), "$.group.params", "params must be an object")
        bundle = build_world(bname, {k: _float_entry(v, f"$.group.params.{k}")
                                     for k, v in params.items()})
        return ModelFile(name=name, bundle=bundle, options=opts,
                         raw=raw, digest=digest(raw))

    systems_entry = raw.get("systems")
    _expect(isinstance(systems_entry, list) and systems_entry, "$.systems",
            "model needs a nonempty systems list")
    _expect(len(systems_entry) <= 2, "$.systems",
            "at most two systems are supported")
    systems = {}
    for i, entry in enumerate(systems_entry):
        spec = _parse_system(entry, f"$.systems[{i}]")
        _expect(spec.id not in systems, f"$.systems[{i}].id",
                f"duplicate system id {spec.id!r}")
        systems[spec.id] = spec

    if tol is None:
        tol = opts.get("tol", DEFAULT_TOL)
    actions = _parse_group(group, systems, "$.group", tol)

    composites = raw.get("composites", [])
    _expect(isinstance(composites, list), "$.composites", "composites must be a list")
    _expect(len(composites) <= 1, "$.composites", "at most one composite is supported")

    sys_list = list(systems.values())

    composite = None
    if composites:
        entry = composites[0]
        cpath = "$.composites[0]"
        _expect(isinstance(entry, dict), cpath, "composite must be an object")
        parts = entry.get("parts")
        _expect(isinstance(parts, list) and len(parts) == 2, f"{cpath}.parts",
                "composite needs exactly two part ids")
        for sid in parts:
            _expect(isinstance(sid, str) and sid in systems, f"{cpath}.parts",
                    f"unknown system id {sid!r}")
        _expect(parts[0] != parts[1], f"{cpath}.parts",
                "composite parts must be two different systems")
        pa, pb = systems[parts[0]], systems[parts[1]]
        dim_ab = pa.dim * pb.dim
        extras_s = entry.get("extra_state_generators", [])
        extras_e = entry.get("extra_effect_generators", [])
        es = _matrix(extras_s, f"{cpath}.extra_state_generators") if extras_s else np.zeros((0, 0))
        ee = _matrix(extras_e, f"{cpath}.extra_effect_generators") if extras_e else np.zeros((0, 0))
        if es.size and es.shape[1] != dim_ab:
            raise DimensionError(f"{cpath}.extra_state_generators",
                                 f"vectors of length {es.shape[1]} on a dim-{dim_ab} composite")
        if ee.size and ee.shape[1] != dim_ab:
            raise DimensionError(f"{cpath}.extra_effect_generators",
                                 f"vectors of length {ee.shape[1]} on a dim-{dim_ab} composite")
        cid = entry.get("id", pa.id + pb.id)
        _expect(isinstance(cid, str) and cid, f"{cpath}.id",
                "composite id must be a nonempty string")
        _expect(cid not in parts, f"{cpath}.id", f"composite id {cid!r} is a part id")
        composite = compose_systems(CompositeSpec(
            pa, pb, id=cid, extra_state_generators=es, extra_effect_generators=ee))
        sys_list = [pa, pb]

    bundle = WorldBundle(kind="explicit", parts=tuple(sys_list),
                         part_actions=tuple(actions[s.id] for s in sys_list),
                         composite=composite, name=name)
    return ModelFile(name=name, bundle=bundle, options=opts,
                     raw=raw, digest=digest(raw))
