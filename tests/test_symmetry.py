import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from twirlab.errors import (
    CertificationError,
    DimensionMismatch,
    LabelMismatch,
    NotAGroup,
    UnsupportedSize,
)
from twirlab.symmetry import (
    Certification,
    GroupAction,
    build_finite_action,
    collective_action,
    qubit_octahedral_action,
    twirl_projector,
    verify_twirl_laws,
)


def shift_matrices(n):
    s = np.zeros((n, n))
    for i in range(n):
        s[(i + 1) % n, i] = 1.0
    return [np.linalg.matrix_power(s, k) for k in range(n)]


def cyclic(n):
    return build_finite_action([f"s{k}" for k in range(n)], shift_matrices(n))


# ------------------------------------------------------------- group building


def test_build_finite_action_accepts_cyclic():
    a = cyclic(4)
    assert a.order == 4 and a.dim == 4


def test_rejects_missing_identity():
    s = shift_matrices(3)
    with pytest.raises(NotAGroup, match="identity"):
        build_finite_action(["a", "b"], [s[1], s[2]])


def test_rejects_unclosed_set():
    s = shift_matrices(4)
    with pytest.raises(NotAGroup, match="not in the list"):
        build_finite_action(["e", "g"], [s[0], s[1]])


def test_rejects_singular_element():
    m = np.zeros((2, 2))
    with pytest.raises(NotAGroup, match="singular"):
        build_finite_action(["e", "z"], [np.eye(2), m])


def test_rejects_label_mismatch():
    with pytest.raises(LabelMismatch):
        build_finite_action(["e"], [np.eye(2), np.eye(2)])
    with pytest.raises(LabelMismatch):
        GroupAction(labels=("e", "e"), elements=np.stack([np.eye(2), np.eye(2)]))


def test_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        build_finite_action(["e"], [np.ones((2, 3))])


@given(st.integers(2, 8))
@settings(max_examples=10, deadline=None)
def test_cyclic_groups_always_validate(n):
    a = cyclic(n)
    assert a.order == n


# ----------------------------------------------------------------- projectors


@given(st.integers(2, 6))
@settings(max_examples=10, deadline=None)
def test_projector_spectrum_and_rank_split(n):
    p = twirl_projector(cyclic(n)).matrix
    ev = np.linalg.eigvals(p)
    # spectrum sits on {0, 1}
    assert np.all((np.abs(ev) < 1e-9) | (np.abs(ev - 1.0) < 1e-9))
    k = int(np.sum(np.abs(ev - 1.0) < 1e-9))
    kc = int(np.round(np.trace(np.eye(n) - p)))
    assert k + kc == n


def test_projector_absorbs_elements_exactly():
    a = cyclic(5)
    p = twirl_projector(a)
    for m in a.elements:
        assert np.max(np.abs(m @ p.matrix - p.matrix)) < 1e-12
        assert np.max(np.abs(p.matrix @ m - p.matrix)) < 1e-12
    assert p.idempotence_residual < 1e-12


def test_projector_rejects_non_group():
    fake = GroupAction(labels=("e", "g"),
                       elements=np.stack([np.eye(2), 2.0 * np.eye(2)]))
    with pytest.raises(NotAGroup):
        twirl_projector(fake)


def test_projector_probe_branch_on_large_dimension():
    # above the exact-check cutoff the absorption test runs on probe vectors
    n = 401
    swap = np.eye(n)
    swap[[0, 1]] = swap[[1, 0]]
    a = build_finite_action(["e", "s"], [np.eye(n), swap])
    p = twirl_projector(a)
    assert p.commutation_residual < 1e-12
    v = np.zeros(n)
    v[0] = 1.0
    out = p.matrix @ v
    assert abs(out[0] - 0.5) < 1e-12 and abs(out[1] - 0.5) < 1e-12


def test_projector_averages_states_and_effects():
    # states are averaged as p.matrix @ v, effects as e @ p.matrix
    a = cyclic(3)
    p = twirl_projector(a)
    v = np.array([1.0, 0.0, 0.0])
    assert np.allclose(p.matrix @ v, np.full(3, 1.0 / 3.0))
    e = np.array([1.0, 0.0, 0.0])
    assert np.allclose(e @ p.matrix, np.full(3, 1.0 / 3.0))


# ----------------------------------------------------------- collective action


def test_collective_action_kron_and_factors():
    a = cyclic(3)
    j = collective_action([a, a])
    assert j.dim == 9 and j.order == 3
    assert j.n_factors == 2
    for k in range(3):
        assert np.array_equal(j.elements[k], np.kron(a.elements[k], a.elements[k]))


def test_collective_action_label_mismatch():
    a = cyclic(3)
    b = build_finite_action(["x0", "x1", "x2"], shift_matrices(3))
    with pytest.raises(LabelMismatch):
        collective_action([a, b])


def test_collective_action_certification_budget():
    local = qubit_octahedral_action()
    four = collective_action([local] * 4)
    assert four.n_factors == 4
    with pytest.raises(CertificationError):
        twirl_projector(four)


# ------------------------------------------------------------------- the laws


@given(st.integers(2, 5), st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_law_suite_single_part(n, seed):
    rep = verify_twirl_laws([twirl_projector(cyclic(n))], trials=40, seed=seed)
    assert rep.max_residual <= 1e-9
    assert rep.consistency == {}


@given(st.integers(2, 4), st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_law_suite_two_parts(n, seed):
    a = cyclic(n)
    p = twirl_projector(a)
    rep = verify_twirl_laws([p, p, twirl_projector(collective_action([a, a]))],
                            trials=30, seed=seed)
    assert rep.max_residual <= 1e-9
    assert set(rep.consistency) == {
        "second_local_after_joint", "joint_after_second_local",
        "first_local_after_joint", "joint_after_first_local",
        "both_locals_after_joint", "joint_after_both_locals",
    }


def test_law_suite_part_count_guard():
    a = cyclic(2)
    p = twirl_projector(a)
    pj = twirl_projector(collective_action([a, a]))
    with pytest.raises(LabelMismatch):
        verify_twirl_laws([])
    with pytest.raises(UnsupportedSize):
        verify_twirl_laws([p, p])
    with pytest.raises(UnsupportedSize):
        verify_twirl_laws([p, p, p, pj])
    with pytest.raises(DimensionMismatch, match="joint space"):
        verify_twirl_laws([p, p, p])


# -------------------------------------------------- the 24-element realization


def test_octahedral_action_matches_generated_group():
    act = qubit_octahedral_action()
    assert act.order == 24
    ours = {(np.asarray(m) + 0.0).tobytes() for m in act.elements}
    oracle = {m.tobytes() for m in oracles.qubit_symmetry_group_adjoint()}
    assert ours == oracle
    assert act.certification.realizes == "SU(2)"
    assert act.certification.max_factors == 3


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 5)])
def test_collective_rotation_average_matches_commutant(n, expected):
    # rank of the average projector equals the commutant dimension the
    # unitary picture predicts
    p = twirl_projector(collective_action([qubit_octahedral_action()] * n))
    rank = int(np.round(np.trace(p.matrix)))
    assert rank == expected
    unis = oracles.qubit_symmetry_group_unitaries()
    assert oracles.unitary_group_fixed_space_dim(unis, n) == expected


def test_certification_travels():
    c = Certification(realizes="U(1)", max_factors=2)
    a = build_finite_action(["e", "g"], [np.eye(2), -np.eye(2)], certification=c)
    assert a.certification.max_factors == 2
    j = collective_action([a, a])
    assert j.certification.max_factors == 2
    assert j.n_factors == 2
    three = collective_action([a, a, a])
    with pytest.raises(CertificationError):
        twirl_projector(three)
