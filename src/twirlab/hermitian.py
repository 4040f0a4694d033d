"""Hermitian operator bases and real vectorization of quantum systems.

A d-dimensional quantum system is embedded as a real vector space of
dimension d^2 by expanding Hermitian operators in an orthonormal Hermitian
basis (normalized identity, plus the symmetric, antisymmetric and diagonal
generalized Gell-Mann matrices).  Conjugation by a unitary then becomes a
real orthogonal matrix, and the Hilbert-Schmidt pairing becomes the plain
Euclidean one, so quantum systems slot into the same real-linear machinery
as classical and box-like systems.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=32)
def hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal Hermitian basis of d x d operators, shape (d^2, d, d).

    Order: identity/sqrt(d); then for each pair j<k (lexicographic) the
    symmetric and antisymmetric element; then the d-1 diagonal elements.
    For d=2 this is the Pauli basis {I, X, Y, Z}/sqrt(2).
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    mats = [np.eye(d, dtype=complex) / np.sqrt(d)]
    for j in range(d):
        for k in range(j + 1, d):
            s = np.zeros((d, d), dtype=complex)
            s[j, k] = 1.0
            s[k, j] = 1.0
            mats.append(s / np.sqrt(2.0))
            a = np.zeros((d, d), dtype=complex)
            a[j, k] = -1.0j
            a[k, j] = 1.0j
            mats.append(a / np.sqrt(2.0))
    for l in range(1, d):
        h = np.zeros((d, d), dtype=complex)
        for m in range(l):
            h[m, m] = 1.0
        h[l, l] = -float(l)
        mats.append(h / np.sqrt(l * (l + 1)))
    out = np.array(mats)
    out.setflags(write=False)
    return out


def vectorize(op: np.ndarray, d: int) -> np.ndarray:
    """Real coordinate vector of a Hermitian operator, length d^2."""
    return vectorize_dims(op, (d,))


def unvectorize(vec: np.ndarray, d: int) -> np.ndarray:
    """Inverse of vectorize: rebuild the d x d Hermitian operator."""
    return unvectorize_dims(vec, (d,))


def unvectorize_dims(vec: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """Rebuild operators on a tensor product of factors.

    vec is one coordinate vector, giving one (D, D) operator, or an
    (n, d^2) stack of them, giving an (n, D, D) stack.  The composite
    basis is the Kronecker product of the per-factor bases, indexed with
    the left factor major, matching np.kron on coordinates.  Each factor
    costs one einsum over the whole stack, innermost factor first.
    """
    vec = np.asarray(vec, dtype=float)
    out = np.einsum("na,aij->nij", vec.reshape(-1, dims[-1] ** 2), hermitian_basis(dims[-1]))
    for d in reversed(dims[:-1]):
        # sum_a kron(basis[a], tails[:, a]) without materializing each kron
        dr = out.shape[-1]
        tails = out.reshape(-1, d * d, dr, dr)
        out = np.einsum("aik,najl->nijkl", hermitian_basis(d), tails).reshape(
            -1, d * dr, d * dr)
    return out.reshape(vec.shape[:-1] + out.shape[-2:])


def vectorize_dims(op: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """Real coordinates of a Hermitian operator on a tensor product."""
    coeffs = _overlaps(np.asarray(op), dims)
    if np.max(np.abs(coeffs.imag)) > 1e-12:
        raise ValueError("operator is not Hermitian within tolerance")
    return np.ascontiguousarray(coeffs.real)


def _overlaps(op: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    # Hilbert-Schmidt overlaps with the Kronecker basis, first factor
    # contracted first; the partial contractions stay complex, so only the
    # assembled coefficients are checked and made real
    basis0 = hermitian_basis(dims[0])
    if len(dims) == 1:
        return np.einsum("aij,ji->a", basis0, op)
    dr = int(np.prod(dims[1:]))
    tails = np.einsum("aij,jrit->art", basis0, op.reshape(dims[0], dr, dims[0], dr))
    return np.concatenate([_overlaps(t, dims[1:]) for t in tails])


def conjugation_superoperator(u: np.ndarray) -> np.ndarray:
    """Real matrix of X -> U X U* in the Hermitian basis, shape (d^2, d^2)."""
    d = u.shape[0]
    basis = hermitian_basis(d)
    conj = np.einsum("rs,bst,ut->bru", u, basis, u.conj())
    mat = np.einsum("aij,bji->ab", basis, conj)
    if np.max(np.abs(mat.imag)) > 1e-10:
        raise ValueError("conjugation superoperator came out non-real")
    return np.ascontiguousarray(mat.real)


def min_eigenvalue(vec: np.ndarray, dims: tuple[int, ...]):
    """Smallest eigenvalue of the operator encoded by vec.

    A stack of vectors gets an array with one value per row, from one
    eigvalsh call.
    """
    return np.linalg.eigvalsh(unvectorize_dims(vec, dims))[..., 0]


def operator_interval_residual(vec: np.ndarray, dims: tuple[int, ...]):
    """How far the encoded operator sits outside 0 <= E <= 1 (0 if inside).

    A stack of vectors gets an array with one value per row, from one
    eigvalsh call.
    """
    ev = np.linalg.eigvalsh(unvectorize_dims(vec, dims))
    return np.maximum(np.maximum(0.0, -ev[..., 0]), ev[..., -1] - 1.0)
