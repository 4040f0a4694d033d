import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twirlab import hermitian as H


def random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2.0


@pytest.mark.parametrize("d", [2, 3, 4])
def test_basis_is_orthonormal_and_hermitian(d):
    basis = H.hermitian_basis(d)
    assert basis.shape == (d * d, d, d)
    for a in range(d * d):
        assert np.allclose(basis[a], basis[a].conj().T)
        for b in range(d * d):
            ip = np.trace(basis[a].conj().T @ basis[b])
            assert abs(ip - (1.0 if a == b else 0.0)) < 1e-12


def test_qubit_basis_is_scaled_pauli():
    basis = H.hermitian_basis(2)
    s2 = np.sqrt(2.0)
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]),
              np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]])]
    for b, p in zip(basis, paulis):
        assert np.allclose(b, np.asarray(p, dtype=complex) / s2)


@given(st.integers(2, 4), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_vectorize_round_trip(d, seed):
    rng = np.random.default_rng(seed)
    op = random_hermitian(rng, d)
    vec = H.vectorize_dims(op, (d,))
    assert vec.dtype == float
    back = H.unvectorize_dims(vec, (d,))
    assert np.max(np.abs(back - op)) < 1e-12


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_pairing_becomes_euclidean(seed):
    # Hilbert-Schmidt inner products survive the coordinate change
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, 3)
    b = random_hermitian(rng, 3)
    hs = np.trace(a @ b).real
    assert abs(float(H.vectorize_dims(a, (3,)) @ H.vectorize_dims(b, (3,))) - hs) < 1e-10


def test_vectorize_rejects_non_hermitian():
    with pytest.raises(ValueError):
        H.vectorize_dims(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), (2,))


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_conjugation_superoperator_orthogonal_and_correct(seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    u, _ = np.linalg.qr(g)
    m = H.conjugation_superoperator(u)
    assert np.max(np.abs(m @ m.T - np.eye(9))) < 1e-10
    op = random_hermitian(rng, 3)
    lhs = H.unvectorize_dims(m @ H.vectorize_dims(op, (3,)), (3,))
    assert np.max(np.abs(lhs - u @ op @ u.conj().T)) < 1e-10


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_composite_coordinates_factor_through_kron(seed):
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, 2)
    b = random_hermitian(rng, 3)
    vec = np.kron(H.vectorize_dims(a, (2,)), H.vectorize_dims(b, (3,)))
    op = H.unvectorize_dims(vec, (2, 3))
    assert np.max(np.abs(op - np.kron(a, b))) < 1e-10
    back = H.vectorize_dims(np.kron(a, b), (2, 3))
    assert np.max(np.abs(back - vec)) < 1e-10


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_vectorize_dims_round_trip_entangled(seed):
    # operators that are not products must survive the round trip too
    rng = np.random.default_rng(seed)
    op = random_hermitian(rng, 4)
    vec = H.vectorize_dims(op, (2, 2))
    back = H.unvectorize_dims(vec, (2, 2))
    assert np.max(np.abs(back - op)) < 1e-10


def test_min_eigenvalue_and_interval_residual():
    rng = np.random.default_rng(5)
    op = random_hermitian(rng, 3)
    vec = H.vectorize_dims(op, (3,))
    ev = np.linalg.eigvalsh(op)
    assert abs(H.min_eigenvalue(vec, (3,)) - ev[0]) < 1e-12

    proj = np.diag([1.0, 0.0, 0.0]).astype(complex)
    assert H.operator_interval_residual(H.vectorize_dims(proj, (3,)), (3,)) == 0.0
    stretched = np.diag([1.5, 0.0, -0.25]).astype(complex)
    res = H.operator_interval_residual(H.vectorize_dims(stretched, (3,)), (3,))
    assert abs(res - 0.5) < 1e-12
