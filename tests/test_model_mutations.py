"""Mutated shipped models at the model-file boundary.

Each mutation breaks one check of a part or of the composite, breaks one
rule of the composite entry, or stays within the file's tolerance.
Every command must end in a verdict or a named error: validate exits 0,
1 with a failing check, or 2 with an error line; analyze and witness
exit 0, or 2 with an error line.  An exception escaping main is a
traceback and fails the test.
"""

import json

import numpy as np
import pytest

from twirlab.cli import main


def _vec(entry, key):
    return np.array(entry[key], dtype=float)


def _joint_state(m, weights):
    """weights over A's first two states, times B's first state."""
    a, b = m["systems"]
    mix = np.asarray(weights) @ _vec(a, "state_generators")[:2]
    return np.kron(mix, _vec(b, "state_generators")[0])


def _unit_ab(m):
    a, b = m["systems"]
    return np.kron(_vec(a, "unit_effect"), _vec(b, "unit_effect"))


def _extra(m, key, vector):
    m["composites"][0].setdefault(key, []).append(vector.tolist())


def part_range(m):
    a = m["systems"][0]
    a["effect_generators"].append((1.2 * _vec(a, "unit_effect")).tolist())


def part_unit(m):
    a = m["systems"][0]
    a["state_generators"].append((1.1 * _vec(a, "state_generators")[0]).tolist())


def missing_complement(m):
    # in both models effect 2 is the one complement of another listed effect
    del m["systems"][0]["effect_generators"][2]


def missing_zero(m):
    del m["systems"][0]["effect_generators"][0]


def extra_effect_range(m):
    _extra(m, "extra_effect_generators", 1.2 * _unit_ab(m))


def extra_state_range(m):
    _extra(m, "extra_state_generators", _joint_state(m, [1.5, -0.5]))


def extra_state_unit(m):
    _extra(m, "extra_state_generators", _joint_state(m, [1.1, 0.0]))


def extra_within_tol(m):
    _extra(m, "extra_effect_generators", (1 + 1e-8) * _unit_ab(m))
    m.setdefault("options", {})["tol"] = 1e-6


def id_not_string(m):
    m["composites"][0]["id"] = 5


def id_is_part(m):
    m["composites"][0]["id"] = "A"


def parts_repeat(m):
    m["composites"][0]["parts"] = ["A", "A"]


MUTATIONS = [part_range, part_unit, missing_complement, missing_zero,
             extra_effect_range, extra_state_range, extra_state_unit,
             extra_within_tol, id_not_string, id_is_part, parts_repeat]
SCHEMA_MUTATIONS = {id_not_string, id_is_part, parts_repeat}


@pytest.mark.parametrize("mutate", MUTATIONS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("name", ["cbit_bitflip", "boxworld_reflection"])
def test_mutated_model_ends_in_a_verdict_or_a_named_error(capsys, repo_root, tmp_path,
                                                          name, mutate):
    model = json.loads((repo_root / "models" / f"{name}.json").read_text())
    mutate(model)
    path = tmp_path / f"{mutate.__name__}.json"
    path.write_text(json.dumps(model))
    codes = {}
    for command in ("validate", "analyze", "witness"):
        code = codes[command] = main([command, str(path)])
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err
        if code == 2:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            assert err == ""
        if code == 1:
            assert command == "validate" and "[FAIL]" in out
    assert codes["analyze"] in (0, 2) and codes["witness"] in (0, 2)
    if mutate in SCHEMA_MUTATIONS:
        assert set(codes.values()) == {2}
    elif mutate is extra_within_tol:
        assert set(codes.values()) == {0}
    else:
        # an invalid world fails a named check in validate and is refused by witness
        assert codes["validate"] == 1 and codes["witness"] == 2
