"""Finite group actions, group averaging, and the laws the average obeys.

A GroupAction is a finite list of labeled invertible real matrices acting
on one system, verified to be closed under multiplication.  The twirl of
the action is the uniform average of its elements; because the element
set is an honest finite group this average is an idempotent that absorbs
every element from either side, exactly, not just in a limit.

Compact groups enter through certified finite realizations: a finite
subgroup whose uniform average reproduces the compact group's invariant
average on a bounded number of collective tensor factors.  The bound
travels with the action and is enforced when a projector is requested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations, product

import numpy as np

from . import core
from .core import DEFAULT_TOL
from .errors import (
    CertificationError,
    DimensionMismatch,
    LabelMismatch,
    NotAGroup,
    UnsupportedSize,
)

# above this dimension, projector invariants are spot-checked on seeded
# probe vectors instead of full matrix products
_EXACT_CHECK_DIM = 400


@dataclass(frozen=True)
class Certification:
    """Validity certificate for a finite realization of a compact group.

    max_factors: largest number of collective tensor factors for which
    the finite average equals the compact one.  None means the action is
    an exact finite symmetry with no such limit.
    """

    realizes: str | None = None
    max_factors: int | None = None
    note: str = ""


@dataclass(frozen=True)
class GroupAction:
    """Labeled finite set of invertible matrices closed under product."""

    labels: tuple
    elements: np.ndarray  # (n, dim, dim)
    certification: Certification = field(default_factory=Certification)
    n_factors: int = 1

    def __post_init__(self):
        el = np.array(self.elements, dtype=float)
        if el.ndim != 3 or el.shape[1] != el.shape[2]:
            raise DimensionMismatch("elements must be a stack of square matrices")
        if len(self.labels) != el.shape[0]:
            raise LabelMismatch("one label per element required")
        if len(set(self.labels)) != len(self.labels):
            raise LabelMismatch("duplicate element labels")
        el.setflags(write=False)
        object.__setattr__(self, "elements", el)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    @property
    def order(self) -> int:
        return self.elements.shape[0]


def _first_matches(mats: np.ndarray, targets: np.ndarray, tol: float) -> np.ndarray:
    """Index of the first element of mats within tol of each target, or -1.

    A target matches element k when every entry differs by at most tol;
    the lowest such k wins.  The (target, element) differences are formed
    in blocks of about core._BLOCK_FLOATS floats, never fewer than one pair.
    """
    n, d, _ = mats.shape
    pairs = max(1, core._BLOCK_FLOATS // (d * d))
    step_k = min(n, pairs)
    step_t = max(1, pairs // step_k)
    out = np.full(len(targets), -1)
    for t0 in range(0, len(targets), step_t):
        found = out[t0:t0 + step_t]
        block = targets[t0:t0 + step_t]
        for k0 in range(0, n, step_k):
            hit = np.abs(mats[k0:k0 + step_k, None] - block).max(axis=(2, 3)) <= tol
            new = (found < 0) & hit.any(axis=0)
            found[new] = k0 + hit.argmax(axis=0)[new]
            if found.min() >= 0:
                break
    return out


def _closure_table(mats: np.ndarray, tol: float) -> np.ndarray:
    """(n, n) table whose [i, j] entry indexes mats[i] @ mats[j] in mats.

    The entry is the first element within tol of the product entrywise,
    or -1 when there is none.  Row i is one stacked product.
    """
    return np.stack([_first_matches(mats, np.matmul(m, mats), tol) for m in mats])


def build_finite_action(labels, matrices, tol: float = DEFAULT_TOL,
                        certification: Certification | None = None) -> GroupAction:
    """Validate a labeled matrix list as a finite group action.

    Checks invertibility of every element, closure of pairwise products
    within the list, presence of an identity, and an inverse for each
    element (read off the closure table).  A matrix is in the list when
    it equals an element entrywise within tol; a closure failure names
    the first pair in row-major order whose product is not.
    """
    mats = np.array(matrices, dtype=float)
    if mats.ndim != 3:
        raise DimensionMismatch("matrices must be a list of square matrices")
    n, d, d2 = mats.shape
    if d != d2:
        raise DimensionMismatch("matrices must be square")
    labels = tuple(labels)
    if len(labels) != n:
        raise LabelMismatch(f"{len(labels)} labels for {n} matrices")

    singular = np.flatnonzero(np.abs(np.linalg.det(mats)) < 1e-12)
    if singular.size:
        raise NotAGroup(f"element {labels[singular[0]]!r} is singular")

    id_idx = _first_matches(mats, np.eye(d)[None], tol)[0]
    if id_idx < 0:
        raise NotAGroup("no identity element in the list")

    table = _closure_table(mats, tol)
    missing = np.argwhere(table < 0)
    if missing.size:
        i, j = missing[0]
        raise NotAGroup(
            f"product of {labels[i]!r} and {labels[j]!r} is not in the list")

    no_inverse = np.flatnonzero(~np.any(table == id_idx, axis=1))
    if no_inverse.size:
        raise NotAGroup(f"element {labels[no_inverse[0]]!r} has no inverse in the list")

    return GroupAction(labels=labels, elements=mats,
                       certification=certification or Certification())


def collective_action(parts: list[GroupAction]) -> GroupAction:
    """Same group acting on a tensor product, element by element.

    Element g of the collective action is the Kronecker product of the
    parts' matrices for g; labels must agree across parts in order.
    Closure follows from the parts and is not re-tabulated.
    """
    if not parts:
        raise LabelMismatch("need at least one part")
    labels = parts[0].labels
    for p in parts[1:]:
        if p.labels != labels:
            raise LabelMismatch("element labels differ across parts")
    mats = parts[0].elements
    for p in parts[1:]:  # one product per entry, as np.kron forms them
        b = p.elements
        size = mats.shape[1] * b.shape[1]
        mats = (mats[:, :, None, :, None] * b[:, None, :, None, :]).reshape(-1, size, size)

    certs = [p.certification for p in parts]
    realizes = certs[0].realizes
    max_f = None
    lims = [c.max_factors for c in certs if c.max_factors is not None]
    if lims:
        max_f = min(lims)
    nf = sum(p.n_factors for p in parts)
    return GroupAction(labels=labels, elements=mats,
                       certification=Certification(realizes, max_f),
                       n_factors=nf)


@dataclass(frozen=True)
class TwirlProjector:
    """Uniform group average, verified idempotent and element-absorbing."""

    matrix: np.ndarray
    action: GroupAction
    idempotence_residual: float
    commutation_residual: float

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def twirl_projector(a: GroupAction, tol: float = DEFAULT_TOL) -> TwirlProjector:
    """Average of the element matrices in listed order.

    Raises CertificationError when a design-realized action is averaged
    over more collective factors than its certificate covers.
    """
    cert = a.certification
    if cert.max_factors is not None and a.n_factors > cert.max_factors:
        raise CertificationError(
            f"finite realization of {cert.realizes or 'a compact group'} is certified "
            f"for at most {cert.max_factors} collective factors, got {a.n_factors}")

    p = np.zeros((a.dim, a.dim))
    for m in a.elements:  # fixed summation order, then one division
        p = p + m
    p = p / a.order

    idem = float(np.max(np.abs(p @ p - p)))
    if a.dim <= _EXACT_CHECK_DIM:
        comm = 0.0
        for m in a.elements:
            comm = max(comm, float(np.max(np.abs(m @ p - p))),
                       float(np.max(np.abs(p @ m - p))))
    else:
        rng = np.random.default_rng(0)
        probes = rng.standard_normal((a.dim, 8))
        px = p @ probes
        comm = 0.0
        for m in a.elements:
            comm = max(comm, float(np.max(np.abs(m @ px - px))),
                       float(np.max(np.abs(p @ (m @ probes) - px))))
    if idem > tol or comm > tol:
        raise NotAGroup(
            f"group average failed projector checks (idempotence {idem:.3e}, "
            f"absorption {comm:.3e}); element list is not a group at this tolerance")
    p.setflags(write=False)
    return TwirlProjector(matrix=p, action=a, idempotence_residual=idem,
                          commutation_residual=comm)


@dataclass
class LawReport:
    """Max residuals of the averaging identities over random probes."""

    trials: int
    left_invariance: float
    right_invariance: float
    idempotence: float
    consistency: dict

    @property
    def max_residual(self) -> float:
        vals = [self.left_invariance, self.right_invariance, self.idempotence]
        vals += list(self.consistency.values())
        return max(vals)


def verify_twirl_laws(projectors: list[TwirlProjector], trials: int = 200,
                      seed: int = 42) -> LawReport:
    """Exercise the averaging identities on random vectors.

    projectors: the average G of one action, or the averages G1, G2 of two
    actions and then the average G of their collective action.  G must
    absorb its elements from both sides and be idempotent.  Two parts add
    the identities tying G1 (x) G2 to G, evaluated pointwise:

      (G1 (x) G2) G = G1 (x) G2 = G (G1 (x) G2)
      (1 (x) G2) G = G (1 (x) G2)   and the mirror image
      G2 G(partial) variants reduced to the joint space.
    """
    rng = np.random.default_rng(seed)
    if not projectors:
        raise LabelMismatch("need at least one action")
    if len(projectors) not in (1, 3):
        raise UnsupportedSize("law suite covers one or two parts")

    *local, joint = projectors
    pj = joint.matrix
    x = rng.standard_normal((joint.dim, trials))
    px = pj @ x

    li = ri = 0.0
    for m in joint.action.elements:
        li = max(li, float(np.max(np.abs(pj @ (m @ x) - px))))
        ri = max(ri, float(np.max(np.abs(m @ px - px))))
    idem = float(np.max(np.abs(pj @ px - px)))
    if not local:
        return LawReport(trials, li, ri, idem, {})

    pa, pb = local
    if joint.dim != pa.dim * pb.dim:
        raise DimensionMismatch("the collective average must act on the joint space")
    p12 = np.kron(pa.matrix, pb.matrix)
    one_p2 = np.kron(np.eye(pa.dim), pb.matrix)
    p1_one = np.kron(pa.matrix, np.eye(pb.dim))
    p12x = p12 @ x

    def gap(y):
        return float(np.max(np.abs(y - p12x)))

    # each expression below must coincide with the product of local averages
    cons = {
        "second_local_after_joint": gap(one_p2 @ px),
        "joint_after_second_local": gap(pj @ (one_p2 @ x)),
        "first_local_after_joint": gap(p1_one @ px),
        "joint_after_first_local": gap(pj @ (p1_one @ x)),
        "both_locals_after_joint": gap(p12 @ px),
        "joint_after_both_locals": gap(pj @ p12x),
    }
    return LawReport(trials, li, ri, idem, cons)


def _proper_signed_permutations() -> list[tuple[str, np.ndarray]]:
    """The 24 rotation matrices permuting signed coordinate axes."""
    out = []
    for perm in permutations(range(3)):
        pm = np.zeros((3, 3))
        for r, c in enumerate(perm):
            pm[r, c] = 1.0
        psign = np.linalg.det(pm)
        for signs in product((1.0, -1.0), repeat=3):
            if psign * signs[0] * signs[1] * signs[2] > 0:
                m = np.diag(signs) @ pm
                lab = "".join(str(c) for c in perm) + "".join(
                    "+" if s > 0 else "-" for s in signs)
                out.append((lab, m))
    return out


def qubit_octahedral_action() -> GroupAction:
    """The 24-element qubit symmetry group in Hermitian-basis form.

    Each element acts as the identity on the trace component and as a
    proper signed permutation on the three traceless components; this is
    exactly the adjoint form of the 24-element unitary subgroup whose
    uniform average matches the full-group invariant average on up to
    three collective factors (it is a unitary 3-design).
    """
    labs, mats = [], []
    for lab, r in _proper_signed_permutations():
        m = np.zeros((4, 4))
        m[0, 0] = 1.0
        m[1:, 1:] = r
        labs.append(lab)
        mats.append(m)
    order = np.argsort(labs)
    labs = [labs[i] for i in order]
    mats = [mats[i] for i in order]
    return build_finite_action(
        labs, mats,
        certification=Certification(realizes="SU(2)", max_factors=3,
                                    note="unitary 3-design subgroup"))
