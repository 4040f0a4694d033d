"""Independent oracles the tests check the library against.

Everything here is deliberately written without the library's own linear
algebra helpers: exact rational rank by Gaussian elimination, group
averages in the complex operator picture, and the 24-element qubit
subgroup generated from scratch by breadth-first closure.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def exact_rank(rows) -> int:
    """Rank over the rationals by Gaussian elimination, no tolerance anywhere.

    rows: iterable of vectors whose entries are Fractions or floats that
    are exact binary rationals (integers, halves, quarters).
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return 0
    rank = 0
    for col in range(len(mat[0])):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        mat[rank] = [x / pv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def brute_force_invariant_rank(state_columns: np.ndarray, elements) -> int:
    """Exact rank of the group-averaged state list.

    The averaging itself is redone here in Fraction arithmetic, so the
    result is untouched by floating point; requires exactly representable
    states and group elements.
    """
    mats = [[[Fraction(float(x)) for x in row] for row in np.asarray(m)]
            for m in elements]
    n = Fraction(len(mats))
    rows = []
    for i in range(state_columns.shape[1]):
        v = [Fraction(float(x)) for x in state_columns[:, i]]
        acc = [Fraction(0)] * len(v)
        for m in mats:
            for r in range(len(v)):
                acc[r] += sum(m[r][c] * v[c] for c in range(len(v)))
        rows.append([a / n for a in acc])
    return exact_rank(rows)


# --------------------------------------------------- qubit subgroup by BFS

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)

_PAULI = [np.array([[1, 0], [0, 1]], dtype=complex),
          np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex)]


def _adjoint(u: np.ndarray) -> np.ndarray:
    """4x4 real action of conjugation by u on the Pauli coordinates."""
    out = np.zeros((4, 4))
    for b in range(4):
        img = u @ _PAULI[b] @ u.conj().T
        for a in range(4):
            out[a, b] = (np.trace(_PAULI[a].conj().T @ img) / 2.0).real
    return out


def _phase_canonical(u: np.ndarray) -> np.ndarray:
    """Divide out the global phase: pivot entry made positive real.

    The pivot is the first entry within 1e-6 of the largest modulus, so
    modulus ties are broken by position, not by float noise.
    """
    flat = u.ravel()
    mods = np.abs(flat)
    piv = flat[int(np.argmax(mods >= mods.max() - 1e-6))]
    return u * (abs(piv) / piv)


def qubit_symmetry_group_unitaries() -> list[np.ndarray]:
    """The group generated by H and S, modulo global phase, by closure.

    Breadth-first search over words in the generators with phase-fixed
    representatives; closes at 24 elements.
    """
    gens = [_H, _S]
    eye = np.eye(2, dtype=complex)

    def key(u):
        # + 0.0 flushes negative zeros so byte keys are well defined
        return (np.round(u, 6) + 0.0).tobytes()

    seen = {key(eye): eye}
    frontier = [eye]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                c = _phase_canonical(g @ m)
                k = key(c)
                if k not in seen:
                    seen[k] = c
                    nxt.append(c)
        frontier = nxt
    out = list(seen.values())
    assert len(out) == 24, f"qubit subgroup closure found {len(out)} elements"
    return out


def qubit_symmetry_group_adjoint() -> list[np.ndarray]:
    """Adjoint (Pauli-coordinate) images of the H,S group: 24 rotations.

    Entries are snapped to exact integers; the snap residual is asserted
    tiny, so the returned matrices are exact signed permutations.
    """
    out = []
    for u in qubit_symmetry_group_unitaries():
        m = _adjoint(u)
        snapped = np.round(m) + 0.0
        assert np.max(np.abs(m - snapped)) < 1e-9
        out.append(snapped)
    return out


def unitary_group_fixed_space_dim(unitaries, n_factors: int) -> int:
    """Dimension of operators commuting with every u^(x n), by eigencount.

    Builds the operator-picture average T = avg kron(U, conj(U)) with
    U = u^(x n) and counts eigenvalues at 1.  T is a projector onto the
    commutant of the represented set, so the count is exact up to
    rounding.
    """
    terms = []
    for u in unitaries:
        big = u
        for _ in range(n_factors - 1):
            big = np.kron(big, u)
        terms.append(np.kron(big, big.conj()))
    t = sum(terms) / len(terms)
    ev = np.linalg.eigvals(t)
    return int(np.sum(np.abs(ev - 1.0) < 1e-8))


def phase_unitaries(N: int, order: int) -> list[np.ndarray]:
    d = N + 1
    return [np.diag(np.exp(-2.0j * np.pi * k * np.arange(d) / order))
            for k in range(order)]


def two_mode_phase_commutant_dim(N: int) -> int:
    """Eigencount oracle for the collective-phase commutant on two modes."""
    unis = phase_unitaries(N, 2 * N + 1)
    return unitary_group_fixed_space_dim(unis, 2)


def two_mode_phase_commutant_formula(N: int) -> int:
    """Count pairs |jk><lm| with j+k = l+m directly."""
    d = N + 1
    count = 0
    for j in range(d):
        for k in range(d):
            for l in range(d):
                for m in range(d):
                    if j + k == l + m:
                        count += 1
    return count


# ------------------------------------------------------ cyclic-orbit oracle


def cyclic_orbit_count(n: int) -> int:
    """Distinct orbits of simultaneous shift on pairs (i, j) mod n."""
    seen = set()
    for i in range(n):
        for j in range(n):
            orbit = frozenset(((i + k) % n, (j + k) % n) for k in range(n))
            seen.add(orbit)
    return len(seen)


def z2_reflection_projector_3() -> np.ndarray:
    """Analytic average of {identity, x-flip} on the square system."""
    return np.diag([0.0, 1.0, 1.0])


def z2_joint_reflection_projector_9() -> np.ndarray:
    r = np.diag([-1.0, 1.0, 1.0])
    return (np.eye(9) + np.kron(r, r)) / 2.0


# ------------------------------------------- naive per-pair membership loops
#
# The library decides each distinct steered vector (and each distinct
# complement) once; these reference loops decide every pair with its own
# membership call, exactly as the definitions read.


def naive_steering_closure(world, tol: float = 1e-9, invariance_projectors=None):
    """(n_state_checks, n_effect_checks, max_state_residual,
    max_effect_residual, passed), one membership call per pair."""
    a, b = world.parts
    proj_a = proj_b = None
    if invariance_projectors is not None:
        proj_a, proj_b = invariance_projectors
    n_s = n_e = 0
    max_s = max_e = 0.0
    for i in range(world.n_states):
        w = world.state_generators[:, i].reshape(a.dim, b.dim)
        for j in range(b.n_effects):
            n_s += 1
            ok, res = subnorm_state_check(a, w @ b.effect_generators[j], proj_a, tol)
            if not ok:
                max_s = max(max_s, res)
        for j in range(a.n_effects):
            n_s += 1
            ok, res = subnorm_state_check(b, a.effect_generators[j] @ w, proj_b, tol)
            if not ok:
                max_s = max(max_s, res)
    for i in range(world.n_effects):
        e = world.effect_generators[i].reshape(a.dim, b.dim)
        for j in range(b.n_states):
            n_e += 1
            ok, res = in_effect_set(a, e @ b.state_generators[:, j], tol)
            if not ok:
                max_e = max(max_e, res)
        for j in range(a.n_states):
            n_e += 1
            ok, res = in_effect_set(b, e.T @ a.state_generators[:, j], tol)
            if not ok:
                max_e = max(max_e, res)
    return n_s, n_e, max_s, max_e, (max_s <= tol and max_e <= tol)


def _rounded_key(v) -> bytes:
    return (np.round(np.asarray(v, dtype=float), 10) + 0.0).tobytes()


def naive_complement_closure(s, tol: float = 1e-9):
    """(passed, residual, detail) of complement closure, one call per effect.

    Complements within rounding of a listed effect pass without a test;
    the detail names the first effect index whose complement fails.
    """
    listed = {_rounded_key(e) for e in s.effect_generators}
    passed, res, detail = True, 0.0, ""
    for idx in range(s.n_effects):
        comp = s.unit_effect - s.effect_generators[idx]
        if _rounded_key(comp) in listed:
            continue
        ok, dist = in_effect_set(s, comp, tol)
        if not ok:
            passed = False
            res = max(res, dist)
            if not detail:
                detail = f"complement of effect generator {idx} is not a valid effect"
    return passed, res, detail


# ------------------------------------------------- per-row quantum formulas
#
# The library rebuilds and eigensolves quantum rows as stacks; these are
# the per-vector recursion and residual formulas it replaced, one operator
# and one eigvalsh call per vector.


def unvectorize_dims(vec: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """One operator from one coordinate vector, recursing over the factors."""
    from twirlab.hermitian import hermitian_basis

    if len(dims) == 1:
        return np.einsum("a,aij->ij", np.asarray(vec, dtype=float),
                         hermitian_basis(dims[0]))
    d0 = dims[0]
    rest = dims[1:]
    n0 = d0 * d0
    nrest = int(np.prod([d * d for d in rest]))
    v = np.asarray(vec, dtype=float).reshape(n0, nrest)
    basis0 = hermitian_basis(d0)
    tails = np.array([unvectorize_dims(v[a], rest) for a in range(n0)])
    # sum_a kron(basis0[a], tails[a]) without materializing each kron
    dr = tails.shape[1]
    out = np.einsum("aik,ajl->ijkl", basis0, tails).reshape(d0 * dr, d0 * dr)
    return out


def min_eigenvalue(vec: np.ndarray, dims: tuple[int, ...]) -> float:
    op = unvectorize_dims(vec, dims)
    return float(np.linalg.eigvalsh(op)[0])


def operator_interval_residual(vec: np.ndarray, dims: tuple[int, ...]) -> float:
    op = unvectorize_dims(vec, dims)
    ev = np.linalg.eigvalsh(op)
    return float(max(0.0, -ev[0], ev[-1] - 1.0))


def quantum_state_check(s, v, tol, subnormalized=False):
    """(Sub)normalized state test of one vector of a quantum system."""
    lam = min_eigenvalue(v, s.hilbert_dims)
    uval = float(s.unit_effect @ v)
    bad = max(0.0, -lam)
    if subnormalized:
        bad = max(bad, uval - 1.0 - 0.0, -uval)
    else:
        bad = max(bad, abs(uval - 1.0))
    return bad <= tol, bad


def subnorm_state_check(part, v, proj, tol):
    """Subnormalized state test of one steered vector."""
    if part.hilbert_dims is None:
        from twirlab.core import in_state_cone
        return in_state_cone(part, v, tol, subnormalized=True)
    lam = min_eigenvalue(v, part.hilbert_dims)
    uval = float(part.unit_effect @ v)
    bad = max(0.0, -lam, uval - 1.0, -uval)
    if proj is not None:
        bad = max(bad, float(np.max(np.abs(proj @ v - v))))
    return bad <= tol, bad


def in_effect_set(s, f, tol):
    """Effect test of one vector; hull systems use the library's test."""
    if s.hilbert_dims is None:
        from twirlab.core import in_effect_set as hull_test
        return hull_test(s, f, tol)
    bad = operator_interval_residual(f, s.hilbert_dims)
    return bad <= tol, bad


# --------------------------------------------------- sector block form
#
# The library reads number and identity sectors by index; this is the
# projector-product form it replaced, kept verbatim as the reference.


def sector_block_residual(ops: np.ndarray, projectors: list[np.ndarray],
                          scalar_sectors: list[bool] | None = None):
    """Deviation of operators from the known invariant block form.

    ops: one (D, D) operator, or an (n, D, D) stack that gets one residual
    per operator.  projectors: orthogonal projectors onto the symmetry
    sectors of the underlying Hilbert space.  Cross-sector blocks of an
    invariant operator must vanish; sectors flagged in scalar_sectors
    additionally force the within-sector block to be a multiple of the
    projector (irreducible sector with trivial multiplicity).  Each
    pi @ ops is formed once for the whole stack.
    """
    ops = np.asarray(ops)
    flags = list(scalar_sectors or ()) + [False] * len(projectors)
    res = np.zeros(ops.shape[:-2])
    for i, (pi, flag) in enumerate(zip(projectors, flags)):
        left = pi @ ops
        for j, pj in enumerate(projectors):
            if i != j:
                res = np.maximum(res, np.max(np.abs(left @ pj), axis=(-2, -1)))
        d = np.trace(pi).real
        if flag and d > 0:
            c = np.trace(left, axis1=-2, axis2=-1).real / d
            res = np.maximum(res, np.max(np.abs(left @ pi - c[..., None, None] * pi),
                                         axis=(-2, -1)))
    return res[()]


# ------------------------------------------------- per-product closure scan
#
# The library forms each row of a closure table as one stacked product and
# matches it against every element with one distance reduction; this is
# the per-product scan it replaced, kept verbatim as the reference.


def closure_table(mats: np.ndarray, tol: float) -> np.ndarray:
    """Index of mats[i] @ mats[j] in mats at [i, j], -1 where it is missing."""
    n = len(mats)

    def find(m: np.ndarray) -> int:
        for k in range(n):
            if np.max(np.abs(mats[k] - m)) <= tol:
                return k
        return -1

    table = np.empty((n, n), dtype=int)
    for i in range(n):
        for j in range(n):
            table[i, j] = find(mats[i] @ mats[j])
    return table


def group_error(labels, mats: np.ndarray, tol: float) -> str | None:
    """The NotAGroup message the per-product checks give, or None."""
    n, d = len(mats), mats.shape[1]
    for lab, m in zip(labels, mats):
        if abs(np.linalg.det(m)) < 1e-12:
            return f"element {lab!r} is singular"
    id_idx = -1
    for k in range(n):
        if np.max(np.abs(mats[k] - np.eye(d))) <= tol:
            id_idx = k
            break
    if id_idx < 0:
        return "no identity element in the list"
    table = closure_table(mats, tol)
    for i in range(n):
        for j in range(n):
            if table[i, j] < 0:
                return f"product of {labels[i]!r} and {labels[j]!r} is not in the list"
    for i in range(n):
        if not np.any(table[i] == id_idx):
            return f"element {labels[i]!r} has no inverse in the list"
    return None
