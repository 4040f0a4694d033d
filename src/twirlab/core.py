"""Finite-dimensional generalized probabilistic theories over real vector spaces.

Conventions, used everywhere downstream:

* states are column vectors, stored as the columns of a (dim, n) array;
* effects are row functionals, stored as the rows of an (m, dim) array;
* the pairing is the plain matrix product, so ``effects @ states`` is the
  full table of outcome probabilities;
* composites live on the Kronecker product with the left factor major:
  the product state of column i and column j sits at column i * n_b + j.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .errors import (
    DimensionMismatch,
    InconsistentWorlds,
    SolverFailure,
    ValidationFailure,
)
from . import hermitian

DEFAULT_TOL = 1e-9
DEFAULT_RANK_TOL = 1e-8    # relative singular-value cutoff of every rank

# decimal places of the key that looks a vector up among listed generators
_KEY_DECIMALS = 10

# row-wise work (keys, steered vectors) runs in blocks of about this many
# floats, which bounds its transient memory
_BLOCK_FLOATS = 1 << 14


def _row_blocks(n_rows: int, floats_per_row: int):
    """Slices of consecutive rows, each of about _BLOCK_FLOATS floats
    (at least one row), covering range(n_rows) in order."""
    step = max(1, _BLOCK_FLOATS // floats_per_row)
    for start in range(0, n_rows, step):
        yield slice(start, start + step)


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    if not np.all(np.isfinite(out)):
        raise ValidationFailure("non-finite entry in generator data")
    out.setflags(write=False)
    return out


def _row_keys(rows: np.ndarray, decimals: int | None = _KEY_DECIMALS):
    """Byte key of each row of a 2-D array, with -0.0 folded into 0.0.

    Rounded to `decimals` places the key looks a vector up among listed
    generators; with decimals=None it is the exact bytes, so two rows share
    a key only when they are the same vector.  Keys are yielded in row
    order and made one block at a time.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    for block in _row_blocks(*rows.shape):
        r = rows[block]
        r = np.ascontiguousarray(r if decimals is None else np.round(r, decimals)) + 0.0
        yield from r.view(np.dtype((np.void, r.itemsize * r.shape[1]))).ravel().tolist()


def _decide_distinct(rows: np.ndarray, decide, seen: set):
    """Decide each distinct row of a 2-D array once.

    Rows are compared by their exact bytes with -0.0 folded into 0.0, so
    rows that share a verdict are the same vector.  Rows whose key is in
    seen are skipped, and the keys of the others are added to it.  The new
    rows go to decide as stacks of about _BLOCK_FLOATS floats, and decide
    returns an array of verdicts and one of residuals per stack.  Returns
    (index, ok, residual) arrays with the index of the first occurrence of
    each new row, in row order.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    idx = []
    for i, key in enumerate(_row_keys(rows, decimals=None)):
        if key not in seen:
            seen.add(key)
            idx.append(i)
    idx = np.array(idx, dtype=int)
    ok = np.zeros(idx.size, dtype=bool)
    res = np.zeros(idx.size)
    for block in _row_blocks(idx.size, rows.shape[1]):
        ok[block], res[block] = decide(rows[idx[block]] + 0.0)
    return idx, ok, res


def _as_rows(v: np.ndarray) -> tuple[np.ndarray, bool]:
    """v as a stack of rows, and whether it was a single vector."""
    v = np.asarray(v, dtype=float)
    return np.atleast_2d(v), v.ndim == 1


def _verdicts(bad: np.ndarray, tol: float, single: bool):
    """(ok, residual) per row from residuals; plain values for one vector."""
    if single:
        return bool(bad[0] <= tol), float(bad[0])
    return bad <= tol, bad


def _unit_values(s: SystemSpec, rows: np.ndarray) -> np.ndarray:
    # one dot product per row, summed in the order of unit_effect @ row
    return np.matmul(rows[:, None, :], s.unit_effect[:, None])[:, 0, 0]


@dataclass(frozen=True)
class SystemSpec:
    """A single GPT system given by explicit generator lists.

    state_generators: (dim, n_states), columns are normalized states.
    effect_generators: (n_effects, dim), rows are effect functionals.
    unit_effect: (dim,) row functional with value 1 on every state.
    hilbert_dims: set for quantum systems; enables positive-semidefinite
        cone tests on the underlying operators (the listed generators then
        only span the state space linearly rather than generate its cone).
    parts: set by compose_systems; local structure used by steering checks.
    """

    id: str
    dim: int
    state_generators: np.ndarray
    effect_generators: np.ndarray
    unit_effect: np.ndarray
    hilbert_dims: tuple | None = None
    parts: tuple | None = None

    def __post_init__(self):
        s = _freeze(np.atleast_2d(self.state_generators))
        e = _freeze(np.atleast_2d(self.effect_generators))
        u = _freeze(np.asarray(self.unit_effect).ravel())
        if s.shape[0] != self.dim:
            raise DimensionMismatch(
                f"{self.id}: state generators have dim {s.shape[0]}, expected {self.dim}")
        if e.shape[1] != self.dim:
            raise DimensionMismatch(
                f"{self.id}: effect generators have dim {e.shape[1]}, expected {self.dim}")
        if u.shape[0] != self.dim:
            raise DimensionMismatch(f"{self.id}: unit effect has wrong dimension")
        if s.shape[1] == 0 or e.shape[0] == 0:
            raise ValidationFailure(f"{self.id}: empty generator list")
        if self.hilbert_dims is not None:
            hd = tuple(int(d) for d in self.hilbert_dims)
            if int(np.prod([d * d for d in hd])) != self.dim:
                raise DimensionMismatch(
                    f"{self.id}: hilbert_dims {hd} inconsistent with dim {self.dim}")
            object.__setattr__(self, "hilbert_dims", hd)
        object.__setattr__(self, "state_generators", s)
        object.__setattr__(self, "effect_generators", e)
        object.__setattr__(self, "unit_effect", u)

    @property
    def n_states(self) -> int:
        return self.state_generators.shape[1]

    @property
    def n_effects(self) -> int:
        return self.effect_generators.shape[0]


@dataclass(frozen=True)
class CompositeSpec:
    """Recipe for a bipartite composite.

    Extra generators live on the joint space and are appended after the
    products: extra states e.g. entangled/nonproduct states, extra effects
    e.g. coarse-grainings that are not products of local outcomes.
    """

    part_a: SystemSpec
    part_b: SystemSpec
    id: str = ""
    extra_state_generators: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    extra_effect_generators: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    def __post_init__(self):
        if not self.id:
            object.__setattr__(self, "id", self.part_a.id + self.part_b.id)


@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: float
    detail: str = ""


@dataclass
class ValidationReport:
    system_id: str
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def worst(self) -> float:
        return max((c.residual for c in self.checks), default=0.0)


@dataclass
class MembershipResult:
    """Outcome of a convex-hull membership test with certificate.

    On membership, weights is a nonnegative vector summing to one that
    reconstructs the point within tolerance.  Otherwise separator is a
    functional f with f(x) > max_i f(g_i) by at least margin.
    """

    member: bool
    distance: float
    weights: np.ndarray | None = None
    separator: np.ndarray | None = None
    margin: float = 0.0


def convex_membership(x: np.ndarray, generators: np.ndarray,
                      tol: float = DEFAULT_TOL) -> MembershipResult:
    """Test x in conv{rows of generators} by linear feasibility.

    Solved as min_t over the weight simplex of the sup-norm gap
    |G w - x|_inf <= t; membership iff the optimum is <= tol.  On failure
    a second program produces a separating functional (bounded in sup
    norm) with a strictly positive margin.  Raises SolverFailure, with the
    solver's status and message, when either program does not solve.
    """
    x = np.asarray(x, dtype=float).ravel()
    gens = np.atleast_2d(np.asarray(generators, dtype=float))
    if gens.shape[1] != x.shape[0]:
        raise DimensionMismatch("generator dimension does not match point")
    n, d = gens.shape
    g_cols = gens.T  # (d, n)

    # phase 1: distance program over the simplex
    c = np.zeros(n + 1)
    c[-1] = 1.0
    a_ub = np.block([[g_cols, -np.ones((d, 1))], [-g_cols, -np.ones((d, 1))]])
    b_ub = np.concatenate([x, -x])
    a_eq = np.concatenate([np.ones(n), [0.0]])[None, :]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0, None)] * n + [(0, None)], method="highs")
    if not res.success:
        raise SolverFailure("membership LP", res.status, res.message)
    dist = float(res.x[-1])
    if dist <= tol:
        w = np.clip(res.x[:n], 0.0, None)
        w = w / w.sum()
        return MembershipResult(member=True, distance=dist, weights=w)

    # phase 2: separating functional, sup-norm bounded
    c2 = np.concatenate([-x, [1.0]])
    a_ub2 = np.hstack([gens, -np.ones((n, 1))])
    res2 = linprog(c2, A_ub=a_ub2, b_ub=np.zeros(n),
                   bounds=[(-1, 1)] * d + [(None, None)], method="highs")
    if not res2.success:
        raise SolverFailure("separation LP", res2.status, res2.message)
    f = res2.x[:d]
    margin = float(f @ x - np.max(gens @ f))
    return MembershipResult(member=False, distance=dist,
                            separator=f, margin=margin)


def _scaled_matches(rows: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best scalar fit of v against each row: coefficients and sup-norm residuals."""
    rows = np.atleast_2d(rows)
    norms = np.einsum("ij,ij->i", rows, rows)
    coefs = np.zeros(rows.shape[0])
    nz = norms > 0.0
    coefs[nz] = (rows[nz] @ v) / norms[nz]
    resid = np.max(np.abs(v[None, :] - coefs[:, None] * rows), axis=1)
    return coefs, resid


def in_state_cone(s: SystemSpec, v: np.ndarray, tol: float = DEFAULT_TOL,
                  subnormalized: bool = False):
    """Is v a valid (sub)normalized state of s?  Returns (ok, residual).

    Hull systems: membership in conv(state generators), with the zero
    vector adjoined when subnormalized.  Quantum systems: positivity of
    the encoded operator plus the right unit value.  v may be an (n, dim)
    stack of rows, which gets arrays of verdicts and residuals; quantum
    rows are then decided with one eigensolve, hull rows one at a time.
    """
    rows, single = _as_rows(v)
    if s.hilbert_dims is None:
        bad = np.array([_hull_state_residual(s, r, tol, subnormalized) for r in rows])
        return _verdicts(bad, tol, single)
    lam = hermitian.min_eigenvalue(rows, s.hilbert_dims)
    uval = _unit_values(s, rows)
    if subnormalized:
        bad = np.maximum.reduce([np.zeros(len(rows)), -lam, uval - 1.0, -uval])
    else:
        bad = np.maximum(np.maximum(0.0, -lam), np.abs(uval - 1.0))
    return _verdicts(bad, tol, single)


def _hull_state_residual(s: SystemSpec, v: np.ndarray, tol: float,
                         subnormalized: bool) -> float:
    gens = s.state_generators.T
    if subnormalized:
        gens = np.vstack([gens, np.zeros(s.dim)])
    # cheap exit: exact multiple of a single listed generator
    coefs, resid = _scaled_matches(s.state_generators.T, v)
    hit = resid <= tol
    if subnormalized:
        hit &= (coefs >= -tol) & (coefs <= 1.0 + tol)
    else:
        hit &= np.abs(coefs - 1.0) <= tol
    if np.any(hit):
        return 0.0
    return convex_membership(v, gens, tol).distance


def in_effect_set(s: SystemSpec, f: np.ndarray, tol: float = DEFAULT_TOL):
    """Is f a valid effect of s (in the hull of its effect generators)?

    f may be an (n, dim) stack of rows, decided as in in_state_cone.
    """
    rows, single = _as_rows(f)
    if s.hilbert_dims is not None:
        bad = hermitian.operator_interval_residual(rows, s.hilbert_dims)
    else:
        bad = np.array([_hull_effect_residual(s, r, tol) for r in rows])
    return _verdicts(bad, tol, single)


def _hull_effect_residual(s: SystemSpec, f: np.ndarray, tol: float) -> float:
    coefs, resid = _scaled_matches(s.effect_generators, f)
    # a strict scaling c*g with c < 1 is a mixture of g with the zero
    # functional, so it is only conclusive when the list holds a zero row
    has_zero = bool(np.any(np.max(np.abs(s.effect_generators), axis=1) <= tol))
    hit = (resid <= tol) & (np.abs(coefs - 1.0) <= tol)
    if has_zero:
        hit |= (resid <= tol) & (coefs >= -tol) & (coefs <= 1.0 + tol)
    if np.any(hit):
        return 0.0
    return convex_membership(f, s.effect_generators, tol).distance


def validate_system(s: SystemSpec, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Structural checks: unit normalization, pairing range, complement
    closure of the effect list, and presence of the zero effect."""
    checks = []

    uvals = s.unit_effect @ s.state_generators
    res_u = float(np.max(np.abs(uvals - 1.0))) if uvals.size else 0.0
    checks.append(CheckResult("unit_normalization", res_u <= tol, res_u))

    table = s.effect_generators @ s.state_generators
    res_rng = float(max(0.0, -table.min(initial=0.0), table.max(initial=0.0) - 1.0))
    del table  # as large as the effect list; not kept through the closure checks
    checks.append(CheckResult("pairing_range", res_rng <= tol, res_rng,
                              detail="effect(state) within [0,1] for all generators"))

    keys = set(_row_keys(s.effect_generators))
    todo = np.flatnonzero([k not in keys for k in
                           _row_keys(s.unit_effect - s.effect_generators)])
    idx, ok, dist = _decide_distinct(s.unit_effect - s.effect_generators[todo],
                                     lambda f: in_effect_set(s, f, tol), set())
    comp_res = float(dist[~ok].max(initial=0.0))
    comp_detail = ""
    if not ok.all():
        comp_detail = (f"complement of effect generator {todo[idx[~ok][0]]} "
                       "is not a valid effect")
    checks.append(CheckResult("complement_closure", not comp_detail, comp_res, comp_detail))

    zero = np.zeros(s.dim)
    if next(_row_keys(zero)) in keys:
        checks.append(CheckResult("zero_effect", True, 0.0))
    else:
        ok, dist = in_effect_set(s, zero, tol)
        checks.append(CheckResult("zero_effect", ok, 0.0 if ok else dist,
                                  "" if ok else "zero functional missing from effect hull"))
    return ValidationReport(s.id, checks)


def _complement_complete(effects: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """Append u - e for every listed effect not already present."""
    effects = np.asarray(effects, dtype=float)
    seen = set(_row_keys(effects))
    new = []
    for i, k in enumerate(_row_keys(unit - effects)):
        if k not in seen:
            new.append(i)
            seen.add(k)
    return np.vstack([effects, unit - effects[new]])


def compose_systems(c: CompositeSpec) -> SystemSpec:
    """Build the bipartite composite from products plus declared extras.

    Product generators come first (left factor major), then extra states
    and extra effects, then complements of any effects still missing them.
    Only shapes are checked here; whether the composite is a valid world
    is for validate_system to judge, at the tolerance of the run.
    """
    a, b = c.part_a, c.part_b
    dim = a.dim * b.dim
    states = np.kron(a.state_generators, b.state_generators)
    effects = np.kron(a.effect_generators, b.effect_generators)
    unit = np.kron(a.unit_effect, b.unit_effect)

    es = np.asarray(c.extra_state_generators, dtype=float)
    if es.size:
        es = np.atleast_2d(es)
        if es.shape[1] != dim:
            raise DimensionMismatch(
                f"extra state generators have dim {es.shape[1]}, expected {dim}")
        states = np.hstack([states, es.T])

    ee = np.asarray(c.extra_effect_generators, dtype=float)
    if ee.size:
        ee = np.atleast_2d(ee)
        if ee.shape[1] != dim:
            raise DimensionMismatch(
                f"extra effect generators have dim {ee.shape[1]}, expected {dim}")
        effects = np.vstack([effects, ee])

    effects = _complement_complete(effects, unit)

    hd = None
    if a.hilbert_dims is not None and b.hilbert_dims is not None:
        hd = a.hilbert_dims + b.hilbert_dims

    return SystemSpec(id=c.id, dim=dim, state_generators=states,
                      effect_generators=effects, unit_effect=unit,
                      hilbert_dims=hd, parts=(a, b))


@dataclass
class SteeringReport:
    system_id: str
    n_state_checks: int
    n_effect_checks: int
    max_state_residual: float
    max_effect_residual: float
    passed: bool


def check_steering_closure(world: SystemSpec, tol: float = DEFAULT_TOL,
                           invariance_projectors: tuple | None = None) -> SteeringReport:
    """Steered marginals of joint states land in the local state hulls.

    For every joint state generator omega and local effect e the vector
    (id (x) e)(omega) must be a subnormalized local state, i.e. a member
    of conv[local states U {0}]; symmetrically for effects steered by
    local states.  For twirled quantum worlds membership in the invariant
    positive cone is tested as positivity plus invariance, with the
    projectors supplied by the caller.

    The check counts are per (joint generator, local generator) pair and
    the maximum residuals run over the failing pairs.  Each distinct
    steered vector is decided only once per part, though: twirling
    collapses generators onto orbit averages, so most pairs repeat a
    vector that has already been decided.
    """
    if world.parts is None:
        raise InconsistentWorlds("steering closure needs a composite with parts")
    a, b = world.parts
    if a.dim * b.dim != world.dim:
        raise InconsistentWorlds("parts do not multiply up to the composite dim")

    proj_a = proj_b = None
    if invariance_projectors is not None:
        proj_a, proj_b = invariance_projectors

    # joint generators as (n, dim_a, dim_b) stacks; each side maps a block
    # of them to its steered vectors, one (n_local, dim_part) slab per generator
    joint_states = world.state_generators.T.reshape(-1, a.dim, b.dim)
    max_sres = _worst_steered(joint_states, (
        (lambda w: (w @ b.effect_generators.T).transpose(0, 2, 1),
         lambda v: _subnorm_state_check(a, v, proj_a, tol), b.n_effects * a.dim),
        (lambda w: a.effect_generators @ w,
         lambda v: _subnorm_state_check(b, v, proj_b, tol), a.n_effects * b.dim)))
    joint_effects = world.effect_generators.reshape(-1, a.dim, b.dim)
    max_eres = _worst_steered(joint_effects, (
        (lambda e: (e @ b.state_generators).transpose(0, 2, 1),
         lambda f: in_effect_set(a, f, tol), b.n_states * a.dim),
        (lambda e: (e.transpose(0, 2, 1) @ a.state_generators).transpose(0, 2, 1),
         lambda f: in_effect_set(b, f, tol), a.n_states * b.dim)))

    n_schecks = world.n_states * (a.n_effects + b.n_effects)
    n_echecks = world.n_effects * (a.n_states + b.n_states)
    passed = max_sres <= tol and max_eres <= tol
    return SteeringReport(world.id, n_schecks, n_echecks, max_sres, max_eres, passed)


def _worst_steered(joint: np.ndarray, sides) -> float:
    """Largest residual over the failing steered vectors of every side.

    sides: (steer, decide, width) per part, where steer maps a block of
    joint generators to a (k, n_local, dim_part) stack of steered vectors
    and width is the number of floats it makes per generator.
    """
    worst = 0.0
    for steer, decide, width in sides:
        seen = set()
        for rows in _row_blocks(joint.shape[0], width):
            block = steer(joint[rows])
            _, ok, res = _decide_distinct(block.reshape(-1, block.shape[-1]), decide, seen)
            worst = max(worst, res[~ok].max(initial=0.0))
    return float(worst)


def _subnorm_state_check(part: SystemSpec, v: np.ndarray, proj: np.ndarray | None,
                         tol: float):
    """Subnormalized state test of in_state_cone, plus invariance under
    proj for quantum parts; v may be a stack of rows."""
    if proj is None or part.hilbert_dims is None:
        return in_state_cone(part, v, tol, subnormalized=True)
    rows, single = _as_rows(v)
    _, bad = in_state_cone(part, rows, tol, subnormalized=True)
    # proj applied to each row as proj @ row, not as rows @ proj.T,
    # whose sums can round differently
    moved = np.matmul(proj, rows[:, :, None])[:, :, 0]
    bad = np.maximum(bad, np.max(np.abs(moved - rows), axis=1))
    return _verdicts(bad, tol, single)


def numerical_rank(m: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Singular values above rank_tol times the largest one."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.size == 0:
        return 0
    return rank_of_singular_values(np.linalg.svd(m, compute_uv=False), rank_tol)


def rank_of_singular_values(sv: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """How many of the descending singular values sv exceed rank_tol * sv[0]."""
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > rank_tol * sv[0]))
