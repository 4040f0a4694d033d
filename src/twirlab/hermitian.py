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

import math
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


@lru_cache(maxsize=64)
def _factor_plan(d: int, parts: int):
    """The sparse pass of one d x d factor, read off hermitian_basis(d).

    Inputs are indexed (part, element): one part for real coordinates,
    two (real, imaginary) for complex ones.  Outputs are indexed (entry,
    part), entries row-major.  Every nonzero basis entry is purely real or
    purely imaginary, so each element nonzero at an entry adds one product
    to each part there, the nonzero half of the complex product
    (b' + i b'')(x + i y) = (b' x - b'' y) + i (b' y + b'' x).  Terms keep
    ascending element order; an output with none (the imaginary diagonal
    of real input) gets one zero term.

    Outputs are ranked by their number of terms, so that the s-th terms of
    all outputs that have one form one block.  Returns the source index
    and coefficient of every term, block after block, the size of each
    block, and the permutation from ranked outputs back to (entry, part).
    """
    basis = hermitian_basis(d).reshape(d * d, d * d)  # [element, entry]
    terms = [[] for _ in range(2 * d * d)]
    for a, e in zip(*np.nonzero(basis)):
        b = basis[a, e]
        for src, part, c in ((0, 0, b.real), (1, 0, -b.imag), (1, 1, b.real), (0, 1, b.imag)):
            if c != 0 and src < parts:
                terms[2 * e + part].append((src * d * d + a, c))
    for t in terms:
        if not t:
            t.append((0, 0.0))
    ranked = sorted(range(len(terms)), key=lambda j: -len(terms[j]))
    blocks = [[terms[j][s] for j in ranked if len(terms[j]) > s]
              for s in range(len(terms[ranked[0]]))]
    flat = [term for block in blocks for term in block]
    return (np.array([i for i, _ in flat]), np.array([c for _, c in flat])[:, None],
            [len(block) for block in blocks], np.argsort(ranked))


def unvectorize_dims(vec: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """Rebuild operators on a tensor product of factors.

    vec is one coordinate vector, giving one (D, D) operator, or an
    (n, d^2) stack of them, giving an (n, D, D) stack.  The composite
    basis is the Kronecker product of the per-factor bases, indexed with
    the left factor major, matching np.kron on coordinates.

    Each factor is one sparse pass over the whole stack, innermost factor
    first: an entry of a factor takes the product of each basis element
    nonzero there with its coordinate, summed in ascending element order,
    one rounding per product and per sum.  That is the sequence a dense
    einsum over the basis accumulates, so the result equals it bit for
    bit, zeros included: every zero comes out as +0.0.
    """
    vec = np.asarray(vec, dtype=float)
    sizes = tuple(d * d for d in dims)
    length = math.prod(sizes)
    if vec.ndim == 0 or vec.shape[-1] != length:
        got = f"length {vec.shape[-1]}" if vec.ndim else "a scalar"
        raise ValueError(f"dims {tuple(dims)} take coordinate vectors of length "
                         f"{length}, got {got}")
    rows = vec.reshape((-1,) + sizes)
    n, k = rows.shape[0], len(dims)
    # factor axes innermost first and rows last, so that every gather and
    # sum runs over long stretches of contiguous memory
    t = np.ascontiguousarray(rows.transpose(tuple(range(k, 0, -1)) + (0,)))
    lead, parts = 1, 1
    for d in reversed(dims):
        src, coef, blocks, order = _factor_plan(d, parts)
        terms = t.reshape(lead, parts * d * d, -1).take(src, axis=1)
        terms *= coef
        start = blocks[0]
        for size in blocks[1:]:
            terms[:, :size] += terms[:, start:start + size]
            start += size
        t = terms.take(order, axis=1)
        lead *= d * d
        parts = 2
    # axes (i_k, j_k, ..., i_1, j_1, part, row) become
    # (row, i_1, ..., i_k, j_1, ..., j_k, part)
    grid = tuple(x for d in reversed(dims) for x in (d, d)) + (2, n)
    perm = ((2 * k + 1,) + tuple(range(2 * k - 2, -1, -2)) + tuple(range(2 * k - 1, 0, -2))
            + (2 * k,))
    dim = math.prod(dims)
    out = np.empty((n, dim, dim), dtype=complex)
    # + 0.0 turns the -0.0 a lone product can leave into the einsum's +0.0
    np.add(t.reshape(grid).transpose(perm), 0.0,
           out=out.view(float).reshape((n,) + tuple(dims) * 2 + (2,)))
    return out.reshape(vec.shape[:-1] + (dim, dim))


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
