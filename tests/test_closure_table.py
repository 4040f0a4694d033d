"""The stacked closure table against the per-product scan it replaced.

symmetry._closure_table forms each row as one stacked product and matches
it by one distance reduction; oracles.closure_table is the old scan, one
product and one candidate at a time.  Tables and NotAGroup messages must
agree exactly, on the builtin groups and on sets that are not groups.
"""

import numpy as np
import pytest

import oracles
from twirlab import core
from twirlab.catalog import (
    BUILTINS,
    build_world,
    cyclic_shift_action,
    phase_action,
    reflection_action,
)
from twirlab.core import DEFAULT_TOL
from twirlab.errors import NotAGroup
from twirlab.model import parse_model
from twirlab.symmetry import (
    _closure_table,
    build_finite_action,
    collective_action,
    qubit_octahedral_action,
)

MODELS = ["cbit_bitflip.json", "boxworld_reflection.json"]


def _builtin_actions(repo_root):
    acts = {"octahedral": qubit_octahedral_action(), "reflection": reflection_action()}
    acts.update({f"cyclic{n}": cyclic_shift_action(n) for n in range(2, 7)})
    acts.update({f"phase{N}": phase_action(N) for N in range(1, 5)})
    for name in MODELS:
        bundle = parse_model(str(repo_root / "models" / name)).bundle
        for spec, act in zip(bundle.parts, bundle.part_actions):
            acts[f"{name}:{spec.id}"] = act
    return acts


def _outcome(labels, mats, tol=DEFAULT_TOL):
    """The NotAGroup message of build_finite_action, or None if it builds."""
    try:
        build_finite_action(labels, mats, tol)
    except NotAGroup as exc:
        return str(exc)
    return None


def _assert_as_oracle(labels, mats, tol=DEFAULT_TOL):
    mats = np.array(mats, dtype=float)
    assert np.array_equal(_closure_table(mats, tol), oracles.closure_table(mats, tol))
    message = _outcome(labels, mats, tol)
    assert message == oracles.group_error(labels, mats, tol)
    return message


def _near_duplicate():
    # elements 1 and 2 lie within tol of each other; -I matches index 1 first
    bump = np.zeros((2, 2))
    bump[0, 1] = 0.3 * DEFAULT_TOL
    return ["e", "m'", "m"], [np.eye(2), -np.eye(2) + bump, -np.eye(2)]


def _perturbed(scale):
    mats = [m.copy() for m in cyclic_shift_action(4).elements]
    mats[1][1, 0] += scale * DEFAULT_TOL
    return [f"s{k}" for k in range(4)], mats


def _dropped():
    act = cyclic_shift_action(5)
    keep = [0, 1, 3, 4]
    return [act.labels[k] for k in keep], act.elements[keep]


def test_builtin_tables_equal_the_scan(repo_root):
    for name, act in _builtin_actions(repo_root).items():
        table = _closure_table(act.elements, DEFAULT_TOL)
        assert np.array_equal(table, oracles.closure_table(act.elements, DEFAULT_TOL)), name
        assert table.min() >= 0, name


def test_lowest_index_wins_among_close_elements():
    labels, mats = _near_duplicate()
    assert _assert_as_oracle(labels, mats) is None
    table = _closure_table(np.array(mats), DEFAULT_TOL)
    assert table[0, 2] == 1 and table[2, 0] == 1
    assert table[1, 1] == 0 and table[2, 2] == 0


def test_perturbation_within_tol_is_accepted():
    assert _assert_as_oracle(*_perturbed(0.5)) is None


def test_perturbation_beyond_tol_is_rejected():
    message = _assert_as_oracle(*_perturbed(2.0))
    assert message == "product of 's1' and 's1' is not in the list"


def test_a_difference_of_exactly_tol_matches():
    # 1.5 - 1 is exactly 0.5, so the product s1' s3 sits at tol from s0
    labels, mats = _perturbed(0.0)
    mats[1][1, 0] = 1.5
    assert _assert_as_oracle(labels, mats, tol=0.5) is None
    assert _assert_as_oracle(labels, mats, tol=np.nextafter(0.5, 0.0)) is not None


def test_dropped_element_names_the_first_pair():
    labels, mats = _dropped()
    message = _assert_as_oracle(labels, mats)
    assert message == "product of 's1' and 's1' is not in the list"


def test_first_singular_element_is_named():
    flat = np.diag([1.0, 0.0])
    labels = ["e", "x", "z1", "z2"]
    mats = [np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]), flat, np.zeros((2, 2))]
    assert _assert_as_oracle(labels, mats) == "element 'z1' is singular"
    assert _assert_as_oracle(labels[::-1], mats[::-1]) == "element 'z2' is singular"


def test_missing_identity_matches_the_scan():
    act = cyclic_shift_action(3)
    assert _assert_as_oracle(act.labels[1:], act.elements[1:]) == \
        "no identity element in the list"


def test_random_subsets_of_the_octahedral_group():
    act = qubit_octahedral_action()
    rng = np.random.default_rng(7)
    for size in (1, 2, 5, 12, 23):
        keep = np.sort(rng.choice(act.order, size=size, replace=False))
        keep = np.union1d(keep, [0]) if size > 2 else keep  # identity in: closure fails
        _assert_as_oracle([act.labels[k] for k in keep], act.elements[keep])


@pytest.mark.parametrize("block_floats", [1, 48, 16 * 30, 16 * 60, 81 * 3])
def test_many_blocks_give_the_same_tables(monkeypatch, block_floats):
    monkeypatch.setattr(core, "_BLOCK_FLOATS", block_floats)
    for act in (qubit_octahedral_action(), phase_action(2), cyclic_shift_action(5)):
        assert np.array_equal(_closure_table(act.elements, DEFAULT_TOL),
                              oracles.closure_table(act.elements, DEFAULT_TOL))
    _assert_as_oracle(*_near_duplicate())
    _assert_as_oracle(*_perturbed(0.5))
    _assert_as_oracle(*_perturbed(2.0))
    _assert_as_oracle(*_dropped())


# ------------------------------------------------- collective Kronecker stack


def _kron_stack(parts):
    mats = parts[0].elements
    for p in parts[1:]:
        mats = np.stack([np.kron(a, b) for a, b in zip(mats, p.elements)])
    return mats


def test_collective_actions_equal_the_kron_stack(repo_root):
    bundles = [build_world(name) for name in BUILTINS]
    bundles += [build_world("pointer_discrete", {"n": n}) for n in range(2, 6)]
    bundles += [build_world("spinor_su2", {"n": 3})]
    bundles += [build_world("bosonic_u1", {"N": N}) for N in (2, 3)]
    bundles += [parse_model(str(repo_root / "models" / name)).bundle for name in MODELS]
    octa = qubit_octahedral_action()
    for bundle in bundles:
        if bundle.collective is None:
            continue
        assert np.array_equal(bundle.collective.elements, _kron_stack(bundle.part_actions))
        for act in bundle.part_actions:
            if act.n_factors == 2:  # the two-spin half of spinor_su2 n=3
                assert np.array_equal(act.elements, _kron_stack([octa, octa]))
    mixed = [phase_action(1, order=5), phase_action(2)]  # same labels, dims 4 and 9
    for parts in ([octa] * 3, [phase_action(4)] * 2, mixed, mixed[::-1]):
        assert np.array_equal(collective_action(parts).elements, _kron_stack(parts))
