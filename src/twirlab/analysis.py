"""Twirled worlds and the certification of tomographic-locality failure.

Restricting a world to its symmetric (group-averaged) states, effects and
transformations yields another valid world.  The analysis here counts the
parameters of the restricted worlds (numerical rank of the averaged
generator matrices) and compares K_AB with K_A * K_B: a strict excess
certifies that joint invariant states are not fixed by local invariant
statistics.  Alongside the counting criterion the definitional check is
run directly, and explicit witness pairs are produced: two invariant
joint states that agree on every product of invariant local effects yet
are separated by an invariant joint effect.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import linprog

from .core import (
    DEFAULT_RANK_TOL,
    DEFAULT_TOL,
    SystemSpec,
    ValidationReport,
    _decide_distinct,
    _row_keys,
    in_state_cone,
    numerical_rank,
    rank_of_singular_values,
    validate_system,
)
from .errors import (
    ActionNotPhysical,
    DimensionMismatch,
    InconsistentWorlds,
    NotSeparable,
    SolverFailure,
    TrivialAction,
)
from .symmetry import GroupAction, TwirlProjector


@dataclass(frozen=True)
class TwirledWorld:
    """A system restricted to its invariant states and effects.

    k_effects is the rank of the averaged effect generators.  Their
    orthonormal basis, invariant_effect_basis, is formed on first read
    and kept: the locality verdict reads it for the parts, and nothing in
    a run reads it for the composite, where it is the largest SVD.
    """

    base: SystemSpec
    projector: TwirlProjector  # its .action is the averaged action
    world: SystemSpec
    invariant_state_basis: np.ndarray   # (dim, K) orthonormal columns
    state_singular_values: np.ndarray   # of the averaged state generators, descending
    K: int
    k_effects: int
    fixed_point_residual: float
    validation: ValidationReport

    @cached_property
    def invariant_effect_basis(self) -> np.ndarray:
        """(k_effects, dim) orthonormal rows spanning the averaged effects."""
        u, _, _ = np.linalg.svd(self.world.effect_generators.T, full_matrices=False)
        return u[:, :self.k_effects].T


def build_twirled_world(s: SystemSpec, p: TwirlProjector, tol: float = DEFAULT_TOL,
                        rank_tol: float = DEFAULT_RANK_TOL) -> TwirledWorld:
    """Average every generator of s with the projector p and repackage.

    Each element of p.action must be a physical map of s, checked before p
    is used: it preserves the unit effect and maps every state generator
    back into the state cone.  The averaged generator lists are re-validated
    as a system in their own right; the unit effect is untouched by the
    average, so complements of averaged effects are averages of complements.
    """
    a = p.action
    if a.dim != s.dim:
        raise DimensionMismatch(
            f"action dimension {a.dim} does not match system {s.id} ({s.dim})")

    _check_physical(s, a, tol)

    tw_states = p.matrix @ s.state_generators
    tw_effects = s.effect_generators @ p.matrix

    fp = float(np.max(np.abs(p.matrix @ tw_states - tw_states))) if tw_states.size else 0.0

    world = SystemSpec(id=s.id + "~", dim=s.dim, state_generators=tw_states,
                       effect_generators=tw_effects, unit_effect=s.unit_effect,
                       hilbert_dims=s.hilbert_dims, parts=s.parts)
    rep = validate_system(world, tol)

    # one SVD of the state generators gives the basis and, through its
    # singular values, K at any rank tolerance; the effects need only
    # their rank here, so their singular vectors wait for a reader
    u, sv, _ = np.linalg.svd(tw_states, full_matrices=False)
    sbasis = u[:, :rank_of_singular_values(sv, rank_tol)]
    return TwirledWorld(base=s, projector=p, world=world,
                        invariant_state_basis=sbasis, state_singular_values=sv,
                        K=sbasis.shape[1], k_effects=numerical_rank(tw_effects, rank_tol),
                        fixed_point_residual=fp, validation=rep)


def _check_physical(s: SystemSpec, a: GroupAction, tol: float) -> None:
    """Raise ActionNotPhysical unless every element keeps the unit effect
    and maps every state generator into the state space."""
    for lab, m in zip(a.labels, a.elements):
        ur = float(np.max(np.abs(s.unit_effect @ m - s.unit_effect)))
        if ur > tol:
            raise ActionNotPhysical(
                f"element {lab!r} moves the unit effect (residual {ur:.3e})")
    # moved generators that are listed generators again need no test, and
    # each other distinct image is decided once across all elements
    gen_keys = set(_row_keys(s.state_generators.T))
    decided = set()
    for lab, m in zip(a.labels, a.elements):
        moved = (m @ s.state_generators).T
        todo = np.flatnonzero([k not in gen_keys for k in _row_keys(moved)])
        idx, ok, res = _decide_distinct(moved[todo], lambda v: in_state_cone(s, v, tol),
                                        decided)
        if not ok.all():
            j = np.flatnonzero(~ok)[0]
            raise ActionNotPhysical(
                f"element {lab!r} maps state generator {todo[idx[j]]} outside the state "
                f"space (residual {res[j]:.3e})")


def count_parameters(w: TwirledWorld, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of independent parameters of the invariant state family."""
    return rank_of_singular_values(w.state_singular_values, rank_tol)


def rank_stability(w: TwirledWorld, thresholds=(1e-10, 1e-9, 1e-8, 1e-7)) -> bool:
    """The parameter count is the same at every threshold."""
    counts = {count_parameters(w, t) for t in thresholds}
    return len(counts) == 1


@dataclass
class Witness:
    state_1: np.ndarray
    state_2: np.ndarray
    product_effect_discrepancy: float
    separating_effect: np.ndarray
    separating_gap: float
    separating_index: int


@dataclass
class LocalityVerdict:
    k_a: int
    k_b: int
    k_ab: int
    criterion_fails_locality: bool
    pairing_rank: int
    direct_check_fails: bool
    methods_agree: bool
    witness: Witness | None
    witness_error: str | None = None  # why no witness exists although the check fails


def locality_verdict(wa: TwirledWorld, wb: TwirledWorld, wab: TwirledWorld,
                     tol: float = DEFAULT_TOL,
                     rank_tol: float = DEFAULT_RANK_TOL) -> LocalityVerdict:
    """Parameter-counting criterion plus the direct definitional check.

    The direct check pairs the span of products of invariant local
    effects against the invariant joint states; a nontrivial null space
    means some invariant state difference is invisible to all local
    invariant statistics, and is turned into an explicit witness pair.
    When no pair can be built (no invariant effect separates it, the
    family is degenerate along the direction, or a step LP fails) the
    failed check stands and witness_error says why.
    """
    if wab.world.dim != wa.world.dim * wb.world.dim:
        raise InconsistentWorlds("joint world is not the composite of the parts")
    ka = count_parameters(wa, rank_tol)
    kb = count_parameters(wb, rank_tol)
    kab = count_parameters(wab, rank_tol)
    criterion = kab > ka * kb

    fa = wa.invariant_effect_basis
    fb = wb.invariant_effect_basis
    sab = wab.invariant_state_basis
    prod_effects = np.kron(fa, fb)  # rows span the invariant product effects
    pairing = prod_effects @ sab
    prank = numerical_rank(pairing, rank_tol)
    direct_fails = prank < kab

    witness = witness_error = None
    if direct_fails:
        try:
            witness = _build_witness(wa, wb, wab, pairing, tol)
        except (NotSeparable, SolverFailure) as exc:
            witness_error = str(exc)
    return LocalityVerdict(k_a=ka, k_b=kb, k_ab=kab,
                           criterion_fails_locality=criterion,
                           pairing_rank=prank, direct_check_fails=direct_fails,
                           methods_agree=(criterion == direct_fails),
                           witness=witness, witness_error=witness_error)


def _build_witness(wa: TwirledWorld, wb: TwirledWorld, wab: TwirledWorld,
                   pairing: np.ndarray, tol: float) -> Witness:
    # invisible direction: right singular vector of the pairing with the
    # smallest singular value, lifted back to the joint space
    _, _, vt = np.linalg.svd(pairing)
    direction = wab.invariant_state_basis @ vt[-1]
    direction = direction / np.max(np.abs(direction))

    gens = wab.world.state_generators
    center = gens.mean(axis=1)
    dplus = _max_step(center, direction, gens)
    dminus = _max_step(center, -direction, gens)
    delta = 0.5 * min(dplus, dminus)
    if delta <= tol:
        raise NotSeparable(
            "invariant state family is degenerate along the invisible direction")
    s1 = center + delta * direction
    s2 = center - delta * direction

    sep = find_separating_invariant_effect(s1, s2, wab.world.effect_generators, tol)
    return Witness(state_1=s1, state_2=s2,
                   product_effect_discrepancy=verify_local_indistinguishability(s1, s2, wa, wb),
                   separating_effect=sep[0], separating_gap=sep[1],
                   separating_index=sep[2])


def _max_step(center: np.ndarray, direction: np.ndarray, gens: np.ndarray) -> float:
    """Largest t with center + t * direction still in conv(columns of gens).

    Raises SolverFailure, with the solver's status and message, when the
    program does not solve.
    """
    d, n = gens.shape
    # variables: weights (n), t; maximize t subject to G w - t*dir = center
    c = np.zeros(n + 1)
    c[-1] = -1.0
    a_eq = np.hstack([gens, -direction[:, None]])
    a_eq = np.vstack([a_eq, np.concatenate([np.ones(n), [0.0]])])
    b_eq = np.concatenate([center, [1.0]])
    res = linprog(c, A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0, None)] * n + [(0, None)], method="highs")
    if not res.success:
        raise SolverFailure("witness step LP", res.status, res.message)
    return float(res.x[-1])


def verify_local_indistinguishability(s1: np.ndarray, s2: np.ndarray,
                                      wa: TwirledWorld, wb: TwirledWorld) -> float:
    """Max pairing of s1 - s2 against products of invariant local effects.

    Evaluated on orthonormal bases of the invariant local effect spans;
    by bilinearity a zero here is a zero on all products of invariant
    local effects.
    """
    fa = wa.invariant_effect_basis
    fb = wb.invariant_effect_basis
    delta = (np.asarray(s1, dtype=float) - np.asarray(s2, dtype=float)).reshape(
        wa.world.dim, wb.world.dim)
    table = fa @ delta @ fb.T
    return float(np.max(np.abs(table))) if table.size else 0.0


def find_separating_invariant_effect(s1: np.ndarray, s2: np.ndarray,
                                     invariant_effects: np.ndarray,
                                     tol: float = DEFAULT_TOL):
    """Invariant effect with the largest gap between two invariant states.

    invariant_effects are the averaged effect generators, as rows (the
    effect generators of a twirled world).  Scans their pairings with
    s1 - s2 and returns the first effect achieving the maximal absolute
    gap.  Raises NotSeparable when even the best gap is below tolerance.
    """
    inv = np.asarray(invariant_effects, dtype=float)
    gaps = inv @ (np.asarray(s1, dtype=float) - np.asarray(s2, dtype=float))
    idx = int(np.argmax(np.abs(gaps)))
    gap = float(gaps[idx])
    if abs(gap) <= tol:
        raise NotSeparable(f"no invariant effect separates the pair (best {gap:.3e})")
    return inv[idx], gap, idx


@dataclass
class UbiquityWitness:
    seed: np.ndarray
    moving_label: str
    product_state: np.ndarray     # local averages applied factor-wise
    correlated_state: np.ndarray  # collective average of the product seed
    separation: float             # sup-norm distance between the two


def ubiquity_witnesses(projectors: tuple[TwirlProjector, TwirlProjector, TwirlProjector],
                       seed: np.ndarray, tol: float = DEFAULT_TOL,
                       seed_b: np.ndarray | None = None) -> UbiquityWitness:
    """Build the canonical pair of distinct invariant joint states.

    projectors: the averages over A's action, B's action and their
    collective action.  With a seed moved by some element of A's action,
    the factor-wise average of seed (x) seed_b (default: seed) and the
    collective average of the same product differ: the first carries no
    correlation, the second remembers that both factors moved together.
    """
    pa, pb, pj = projectors
    seed = np.asarray(seed, dtype=float).ravel()
    if seed_b is None:
        seed_b = seed
    seed_b = np.asarray(seed_b, dtype=float).ravel()

    moving = None
    for lab, m in zip(pa.action.labels, pa.action.elements):
        if np.max(np.abs(m @ seed - seed)) > tol:
            moving = lab
            break
    if moving is None:
        raise TrivialAction("every element fixes the seed state")

    prod = np.kron(pa.matrix @ seed, pb.matrix @ seed_b)
    corr = pj.matrix @ np.kron(seed, seed_b)
    sep = float(np.max(np.abs(corr - prod)))
    return UbiquityWitness(seed=seed, moving_label=moving, product_state=prod,
                           correlated_state=corr, separation=sep)


@dataclass
class CompletenessReport:
    system_id: str
    K: int
    k_effects: int
    pairing_rank: int
    passed: bool


def check_tomographic_completeness(w: TwirledWorld,
                                   rank_tol: float = DEFAULT_RANK_TOL) -> CompletenessReport:
    """Invariant effects fix invariant states, and vice versa.

    The pairing of the averaged effect generators with the invariant
    state basis must have rank K and rank k_effects: no invariant state
    difference is invisible to invariant effects, and no invariant effect
    difference is invisible on invariant states.  The averaged effects
    are C F with F the invariant effect basis and C of full column rank,
    so this is the rank of F against the state basis without forming F.
    """
    r = numerical_rank(w.world.effect_generators @ w.invariant_state_basis, rank_tol)
    return CompletenessReport(system_id=w.world.id, K=w.K, k_effects=w.k_effects,
                              pairing_rank=r, passed=(r == w.K and r == w.k_effects))


@dataclass
class TransformationPairWitness:
    local_residual: float        # identity vs average on invariant local states
    global_gap: float            # the two maps disagree on the correlated state
    maps_to_product_residual: float


def transformation_pair_witness(wa: TwirledWorld, wb: TwirledWorld,
                                corr: np.ndarray, prod: np.ndarray) -> TransformationPairWitness:
    """Identity and local average agree locally yet differ on a joint state.

    On every invariant state of the first part the local average acts as
    the identity; applied to one side of the correlated invariant state
    it nevertheless produces the uncorrelated product state.
    """
    pa = wa.projector.matrix
    sb = wa.invariant_state_basis
    local = float(np.max(np.abs(pa @ sb - sb))) if sb.size else 0.0
    lifted = np.kron(pa, np.eye(wb.world.dim))
    mapped = lifted @ np.asarray(corr, dtype=float)
    gap = float(np.max(np.abs(mapped - np.asarray(corr, dtype=float))))
    to_prod = float(np.max(np.abs(mapped - np.asarray(prod, dtype=float))))
    return TransformationPairWitness(local_residual=local, global_gap=gap,
                                     maps_to_product_residual=to_prod)


def _sector_labels(projectors: list[np.ndarray]) -> np.ndarray | None:
    """Sector of each basis index, -1 for none, when the projectors are
    real 0/1 diagonal matrices with disjoint supports; None otherwise."""
    p = np.asarray(projectors)
    if np.iscomplexobj(p) or p.ndim != 3 or p.shape[1] != p.shape[2]:
        return None
    diag = np.diagonal(p, axis1=1, axis2=2)
    if (np.count_nonzero(p) != np.count_nonzero(diag)
            or not np.all((diag == 0) | (diag == 1)) or np.any(diag.sum(axis=0) > 1)):
        return None
    return np.where(diag.any(axis=0), diag.argmax(axis=0), -1)


def sector_block_residual(ops: np.ndarray, projectors: list[np.ndarray],
                          scalar_sectors: list[bool] | None = None):
    """Deviation of operators from the known invariant block form.

    ops: one (D, D) operator, or an (n, D, D) stack that gets one residual
    per operator.  projectors: orthogonal projectors onto the symmetry
    sectors of the underlying Hilbert space.  Cross-sector blocks of an
    invariant operator must vanish; sectors flagged in scalar_sectors
    additionally force the within-sector block to be a multiple of the
    projector (irreducible sector with trivial multiplicity).

    When every projector is a real 0/1 diagonal matrix and no index lies
    in two of them (number sectors, identity sectors), the blocks are read
    by index: the cross-sector residual is the largest |op[a, b]| with a
    and b in different sectors, and a scalar sector S gives
    max |op[S, S] - c I|.  For finite operators this equals the product
    form bit for bit: a 0/1 diagonal factor only copies entries or makes
    signed zeros, so every product is exact.  The one sum, the trace
    behind c, is taken by np.trace over the row-masked stack, the same
    reduction over the same positions as trace(pi @ ops).  Other
    projectors form each pi @ ops once for the whole stack.
    """
    ops = np.asarray(ops)
    flags = list(scalar_sectors or ()) + [False] * len(projectors)
    labels = _sector_labels(projectors)
    if labels is not None:
        inside = labels >= 0
        cross = inside[:, None] & inside[None, :] & (labels[:, None] != labels[None, :])
        res = np.max(np.abs(ops[..., cross]), axis=-1, initial=0.0)
        for k, flag in enumerate(flags[:len(projectors)]):
            members = labels == k
            idx = np.flatnonzero(members)
            if flag and idx.size:
                masked = np.where(members[:, None], ops, 0)
                c = np.trace(masked, axis1=-2, axis2=-1).real / float(idx.size)
                block = ops[..., idx[:, None], idx] - c[..., None, None] * np.eye(idx.size)
                res = np.maximum(res, np.max(np.abs(block), axis=(-2, -1)))
        return res[()]
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
