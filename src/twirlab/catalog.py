"""Built-in worlds: classical, quantum, and box-like systems with symmetries.

Every builtin world is a WorldBundle: the local systems with their group
actions, plus (for bipartite worlds) the composite carrying any
generators beyond the products.  BUILTINS lists the worlds, build_world
builds one; the system and action constructors are also usable directly.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import hermitian
from .core import DEFAULT_RANK_TOL, CompositeSpec, SystemSpec, compose_systems, numerical_rank
from .errors import BadParam, UnknownBuiltin, UnsupportedSize
from .symmetry import (
    Certification,
    GroupAction,
    build_finite_action,
    collective_action,
    qubit_octahedral_action,
    twirl_projector,
)


@dataclass
class SectorOracle:
    """Known invariant block structure of a quantum system's operators.

    projectors: orthogonal projectors onto symmetry sectors of the
    underlying Hilbert space.  scalar flags mark sectors on which an
    invariant operator must be a multiple of the projector.  Number
    sectors and identity sectors are real 0/1 diagonal projectors with
    disjoint supports; sector_block_residual reads their blocks by index,
    which is exact, and multiplies by the projectors only for other sets
    (the singlet and triplet projectors of spinor_su2).
    """

    projectors: list
    scalar_sectors: list
    hilbert_dims: tuple


@dataclass
class WorldBundle:
    kind: str                      # classical | quantum | boxworld | explicit
    parts: tuple                   # SystemSpec per part
    part_actions: tuple            # GroupAction per part
    composite: SystemSpec | None = None
    sectors: dict = field(default_factory=dict)   # system id -> SectorOracle
    notes: str = ""
    name: str = ""                 # builtin or model name
    params: dict = field(default_factory=dict)    # builtin parameters
    extra_counts: Callable[[float], dict] | None = None  # rank_tol -> more counts
    collective: GroupAction | None = field(init=False, default=None)  # of two parts

    def __post_init__(self):
        if len(self.part_actions) == 2:
            self.collective = collective_action(list(self.part_actions))

    @property
    def bipartite(self) -> bool:
        return self.composite is not None

    @property
    def system_actions(self) -> list:
        """(system, action) of each part, then of the composite."""
        pairs = list(zip(self.parts, self.part_actions))
        return pairs + [(self.composite, self.collective)] if self.bipartite else pairs


# ---------------------------------------------------------------- classical


def _subset_indicators(n: int) -> np.ndarray:
    """All 2^n indicator functionals on an n-point space, bitmask order."""
    rows = np.zeros((2 ** n, n))
    for mask in range(2 ** n):
        for i in range(n):
            if (mask >> i) & 1:
                rows[mask, i] = 1.0
    return rows


def classical_system(sys_id: str, n: int) -> SystemSpec:
    """n-point classical system: point masses and all subset indicators."""
    if n > 12:
        raise UnsupportedSize("full subset lattice kept only up to 12 points")
    return SystemSpec(id=sys_id, dim=n,
                      state_generators=np.eye(n),
                      effect_generators=_subset_indicators(n),
                      unit_effect=np.ones(n))


def cyclic_shift_action(n: int) -> GroupAction:
    shift = np.zeros((n, n))
    for i in range(n):
        shift[(i + 1) % n, i] = 1.0
    mats = [np.linalg.matrix_power(shift, a) for a in range(n)]
    return build_finite_action([f"s{a}" for a in range(n)], mats)


def _dial_pair(n: int, **extras) -> WorldBundle:
    """Two n-point classical systems under the simultaneous cyclic step."""
    a = classical_system("A", n)
    b = classical_system("B", n)
    act = cyclic_shift_action(n)
    comp = compose_systems(CompositeSpec(a, b, **extras))
    return WorldBundle(kind="classical", parts=(a, b), part_actions=(act, act),
                       composite=comp)


def _cbit_world() -> WorldBundle:
    """Two bits with the simultaneous bit flip.  The composite carries the
    two equal-parity indicator effects on top of the products
    (coarse-grainings of the joint outcome that are not products)."""
    parity = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0]])
    return _dial_pair(2, extra_effect_generators=parity)


def _pointer_world(n: int) -> WorldBundle:
    """Two n-position dials with the simultaneous step, a discretization
    of a continuous rotor pointing along a circle."""
    if n < 2:
        raise BadParam(f"needs n >= 2, got {n}")
    if n > 6:
        raise UnsupportedSize(f"supported up to n = 6, got {n}")
    return _dial_pair(n)


# ------------------------------------------------------------------ quantum


_TETRA = np.array([[1.0, 1.0, 1.0],
                   [1.0, -1.0, -1.0],
                   [-1.0, 1.0, -1.0],
                   [-1.0, -1.0, 1.0]]) / np.sqrt(3.0)


def qubit_system(sys_id: str) -> SystemSpec:
    """Spin-1/2 system over the 4-dim Hermitian coordinate space.

    State generators: the four tetrahedral pure states (a linear spanning
    set).  Effect generators: the matching projector effects, their
    complements, the unit and zero.  The positive cone is checked through
    the operator picture, not through the listed generators.
    """
    states = np.array([np.concatenate([[1.0], n]) for n in _TETRA]).T / np.sqrt(2.0)
    proj = np.array([np.concatenate([[1.0], n]) for n in _TETRA]) / np.sqrt(2.0)
    comp = np.array([np.concatenate([[1.0], -n]) for n in _TETRA]) / np.sqrt(2.0)
    unit = np.array([np.sqrt(2.0), 0.0, 0.0, 0.0])
    effects = np.vstack([proj, comp, unit, np.zeros(4)])
    return SystemSpec(id=sys_id, dim=4, state_generators=states,
                      effect_generators=effects, unit_effect=unit,
                      hilbert_dims=(2,))


def _swap_matrix() -> np.ndarray:
    s = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            s[i * 2 + j, j * 2 + i] = 1.0
    return s


def _symmetric_projector_3q() -> np.ndarray:
    """Projector onto the fully symmetric subspace of three spins."""
    import itertools
    d = 8
    p = np.zeros((d, d))
    for perm in itertools.permutations(range(3)):
        u = np.zeros((d, d))
        for idx in range(d):
            bits = [(idx >> (2 - k)) & 1 for k in range(3)]
            permuted = [bits[perm[k]] for k in range(3)]
            jdx = (permuted[0] << 2) | (permuted[1] << 1) | permuted[2]
            u[jdx, idx] = 1.0
        p += u
    return p / 6.0


def _spinor_world(n: int) -> WorldBundle:
    """n spin-1/2 systems under collective rotations, realized by the
    24-element 3-design subgroup; n = 3 is split 1|2 for the bipartite
    analysis."""
    if not 1 <= n <= 3:
        raise UnsupportedSize(f"certified for n in {{1, 2, 3}}, got {n}")
    act1 = qubit_octahedral_action()
    qa = qubit_system("A")
    swap = _swap_matrix()
    eye4 = np.eye(4)

    if n == 1:
        sectors = {"A": SectorOracle([np.eye(2)], [True], (2,))}
        return WorldBundle(kind="quantum", parts=(qa,), part_actions=(act1,),
                           sectors=sectors)

    if n == 2:
        qb = qubit_system("B")
        comp = compose_systems(CompositeSpec(qa, qb))
        sectors = {
            "A": SectorOracle([np.eye(2)], [True], (2,)),
            "B": SectorOracle([np.eye(2)], [True], (2,)),
            "AB": SectorOracle([(eye4 - swap) / 2.0, (eye4 + swap) / 2.0],
                               [True, True], (2, 2)),
        }
        return WorldBundle(kind="quantum", parts=(qa, qb), part_actions=(act1, act1),
                           composite=comp, sectors=sectors)

    # n = 3: single spin against a pair of spins
    qb1 = qubit_system("B1")
    qb2 = qubit_system("B2")
    bpair = compose_systems(CompositeSpec(qb1, qb2, id="B"))
    actb = collective_action([act1, act1])
    comp = compose_systems(CompositeSpec(qa, bpair, id="AB"))
    psym = _symmetric_projector_3q()
    sectors = {
        "A": SectorOracle([np.eye(2)], [True], (2,)),
        "B": SectorOracle([(eye4 - swap) / 2.0, (eye4 + swap) / 2.0],
                          [True, True], (2, 2)),
        "AB": SectorOracle([psym, np.eye(8) - psym], [True, False], (2, 2, 2)),
    }
    return WorldBundle(kind="quantum", parts=(qa, bpair), part_actions=(act1, actb),
                       composite=comp, sectors=sectors,
                       notes="bipartition one spin | two spins")


def fock_mode_generators(N: int) -> list:
    """Pure-state spanning set for a mode truncated at occupation N.

    Number states, then for each j < k the two equal-weight superposition
    projectors with relative phase 1 and i.  (N+1)^2 operators in all,
    linearly independent over the Hermitian operators.
    """
    d = N + 1
    ops = []
    for k in range(d):
        v = np.zeros(d, dtype=complex)
        v[k] = 1.0
        ops.append(np.outer(v, v.conj()))
    for j in range(d):
        for k in range(j + 1, d):
            for phase in (1.0, 1.0j):
                v = np.zeros(d, dtype=complex)
                v[j] = 1.0 / np.sqrt(2.0)
                v[k] = phase / np.sqrt(2.0)
                ops.append(np.outer(v, v.conj()))
    return ops


def fock_mode_system(sys_id: str, N: int) -> SystemSpec:
    d = N + 1
    ops = fock_mode_generators(N)
    vecs = np.array([hermitian.vectorize_dims(op, (d,)) for op in ops]).T
    unit = hermitian.vectorize_dims(np.eye(d, dtype=complex), (d,))
    effects = np.vstack([vecs.T, unit - vecs.T, unit, np.zeros(d * d)])
    return SystemSpec(id=sys_id, dim=d * d, state_generators=vecs,
                      effect_generators=effects, unit_effect=unit,
                      hilbert_dims=(d,))


def phase_action(N: int, order: int | None = None) -> GroupAction:
    """Cyclic phase-shift action on a cutoff-N mode, in coordinate form.

    order defaults to 2N+1, which reproduces the continuous phase average
    on up to two collective cutoff-N factors exactly; a custom order M
    certifies (M-1)//N factors.
    """
    d = N + 1
    m = order if order is not None else 2 * N + 1
    if m < N + 1:
        raise BadParam(f"cyclic order {m} cannot average a cutoff-{N} mode")
    mats, labels = [], []
    for k in range(m):
        u = np.diag(np.exp(-2.0j * np.pi * k * np.arange(d) / m))
        mats.append(hermitian.conjugation_superoperator(u))
        labels.append(f"p{k}")
    cert = Certification(realizes="U(1)", max_factors=(m - 1) // N,
                         note=f"cyclic order {m} on cutoff {N}")
    return build_finite_action(labels, mats, certification=cert)


def number_sector_projectors(N: int, modes: int) -> list:
    """Projectors onto total-occupation sectors of the truncated modes."""
    d = N + 1
    if modes == 1:
        occ = np.arange(d)
        top = N
    else:
        occ = (np.arange(d)[:, None] + np.arange(d)[None, :]).ravel()
        top = 2 * N
    out = []
    for n in range(top + 1):
        out.append(np.diag((occ == n).astype(float)))
    return out


def _bosonic_world(N: int, modes: int) -> WorldBundle:
    """One or two Fock spaces truncated at occupation N under a collective
    phase shift, realized by the cyclic group of order 2N+1 (large enough
    to kill every phase frequency two cutoff-N modes can carry)."""
    if N < 1:
        raise BadParam(f"needs a cutoff N >= 1, got {N}")
    if N > 5:
        raise UnsupportedSize(f"supported up to N = 5, got {N}")
    if modes not in (1, 2):
        raise UnsupportedSize(f"supports modes 1 or 2, got {modes}")
    act = phase_action(N)
    a = fock_mode_system("A", N)
    d = N + 1
    if modes == 1:
        sectors = {"A": SectorOracle(number_sector_projectors(N, 1),
                                     [True] * (N + 1), (d,))}
        return WorldBundle(kind="quantum", parts=(a,), part_actions=(act,),
                           sectors=sectors)
    b = fock_mode_system("B", N)
    comp = compose_systems(CompositeSpec(a, b))
    single = number_sector_projectors(N, 1)
    sectors = {
        "A": SectorOracle(single, [True] * (N + 1), (d,)),
        "B": SectorOracle(single, [True] * (N + 1), (d,)),
        "AB": SectorOracle(number_sector_projectors(N, 2),
                           [False] * (2 * N + 1), (d, d)),
    }

    # bosonic_parameter_counts is looked up when the hook runs, not bound here
    def occupation_sectors(rank_tol: float) -> dict:
        return {"occupation_sectors": bosonic_parameter_counts(N, rank_tol)}

    return WorldBundle(kind="quantum", parts=(a, b), part_actions=(act, act),
                       composite=comp, sectors=sectors, extra_counts=occupation_sectors)


def bosonic_sector_formula(N: int) -> tuple[int, int]:
    """(restricted, full) invariant parameter counts for two cutoff-N modes.

    Sectors of total occupation n hold N+1-|n-N| product levels; the full
    count sums the squared sector dimensions, the restricted count keeps
    only the sectors with total occupation within the single-mode cutoff.
    """
    restricted = sum((n + 1) ** 2 for n in range(N + 1))
    full = restricted + sum(j * j for j in range(1, N + 1))
    return restricted, full


def bosonic_parameter_counts(N: int, rank_tol: float = DEFAULT_RANK_TOL) -> dict:
    """Invariant parameter counts for the cutoff-N phase-averaged worlds.

    single_mode: rank of the single-mode generators under the twirl
    projector of the phase action.
    full: rank of the two-mode product generators, averaged here in the
    operator picture as a check independent of the coordinate projector.
    restricted: same, after compressing every averaged generator to the
    subspace of total occupation <= N (the physically motivated restriction
    of the doubled cutoff back to the single-mode one).
    """
    d = N + 1
    act = phase_action(N)
    local_gens = fock_mode_generators(N)
    svec = np.array([hermitian.vectorize_dims(op, (d,)) for op in local_gens]).T

    k_single = numerical_rank(twirl_projector(act).matrix @ svec, rank_tol)

    # two-mode averaged products, direct operator form; each phase unitary
    # u (x) u is diagonal, w its diagonal, so u2 X u2^dagger = X * w w^dagger
    m_ord = 2 * N + 1
    gens = np.array(local_gens)
    prods = (gens[:, None, :, None, :, None] * gens[None, :, None, :, None, :]).reshape(
        -1, d * d, d * d)  # np.kron of every ordered pair, first factor major
    acc = np.zeros(prods.shape, dtype=complex)
    for k in range(m_ord):
        phases = np.exp(-2.0j * np.pi * k * np.arange(d) / m_ord)
        w = np.kron(phases, phases)
        acc += prods * np.outer(w, w.conj())
    twirled = acc / m_ord

    flat = twirled.reshape(len(prods), -1)
    stacked = np.hstack([flat.real, flat.imag])
    k_full = numerical_rank(stacked, rank_tol)

    occ = (np.arange(d)[:, None] + np.arange(d)[None, :]).ravel()
    keep = occ <= N
    comp_flat = twirled[:, keep][:, :, keep].reshape(len(prods), -1)
    comp_stacked = np.hstack([comp_flat.real, comp_flat.imag])
    k_restricted = numerical_rank(comp_stacked, rank_tol)

    restricted_formula, full_formula = bosonic_sector_formula(N)
    return {
        "single_mode": k_single,
        "restricted": k_restricted,
        "full": k_full,
        "restricted_formula": restricted_formula,
        "full_formula": full_formula,
    }


# ----------------------------------------------------------------- boxworld


_GBIT_STATES = np.array([[1.0, 1.0, 1.0],
                         [1.0, -1.0, 1.0],
                         [-1.0, 1.0, 1.0],
                         [-1.0, -1.0, 1.0]]).T  # columns ++, +-, -+, --

_GBIT_EFFECTS = np.array([[0.0, 0.0, 0.0],      # zero
                          [0.0, 0.0, 1.0],      # unit
                          [0.5, 0.0, 0.5],      # +x
                          [-0.5, 0.0, 0.5],     # -x
                          [0.0, 0.5, 0.5],      # +y
                          [0.0, -0.5, 0.5]])    # -y

_PR_STATES = np.array([
    [1, 1, 0, 1, -1, 0, 0, 0, 1],
    [1, 1, 0, -1, 1, 0, 0, 0, 1],
    [1, -1, 0, 1, 1, 0, 0, 0, 1],
    [-1, 1, 0, 1, 1, 0, 0, 0, 1],
    [-1, -1, 0, -1, 1, 0, 0, 0, 1],
    [-1, -1, 0, 1, -1, 0, 0, 0, 1],
    [-1, 1, 0, -1, -1, 0, 0, 0, 1],
    [1, -1, 0, -1, -1, 0, 0, 0, 1],
], dtype=float)


def gbit_system(sys_id: str) -> SystemSpec:
    """Square-state system: four vertex states, six extremal effects."""
    return SystemSpec(id=sys_id, dim=3, state_generators=_GBIT_STATES,
                      effect_generators=_GBIT_EFFECTS,
                      unit_effect=np.array([0.0, 0.0, 1.0]))


def reflection_action() -> GroupAction:
    """Order-two reflection flipping the x component of a square system."""
    return build_finite_action(
        ["e", "r"], [np.eye(3), np.diag([-1.0, 1.0, 1.0])])


def _boxworld_world() -> WorldBundle:
    """Two square systems with the eight nonlocal extremal joint states,
    under the simultaneous x reflection."""
    a = gbit_system("A")
    b = gbit_system("B")
    act = reflection_action()
    comp = compose_systems(CompositeSpec(a, b, extra_state_generators=_PR_STATES))
    return WorldBundle(kind="boxworld", parts=(a, b), part_actions=(act, act),
                       composite=comp)


@dataclass
class BoxworldWitnessPair:
    state_plus: np.ndarray
    state_minus: np.ndarray
    effect_plus: np.ndarray
    effect_minus: np.ndarray


def boxworld_witness_pairs(s: float) -> BoxworldWitnessPair:
    """One-parameter family of invariant joint states distinguished only
    by the invariant two-outcome measurement that is not of product form.

    The states mix displaced vertex pairs symmetrically; every component
    except the first agrees, and the pair of effects e_pm (equal mixtures
    of aligned and anti-aligned x products, normalized to sum to the
    unit) distinguishes them with certainty.
    """
    if not 0.0 <= s <= 1.0:
        raise BadParam("mixing parameter s must lie in [0, 1]")
    t = 1.0 - 2.0 * s
    plus = np.array([1.0, 0, 0, 0, t * t, t, 0, t, 1.0])
    minus = np.array([-1.0, 0, 0, 0, t * t, t, 0, t, 1.0])
    e_plus = 0.5 * np.array([1.0, 0, 0, 0, 0, 0, 0, 0, 1.0])
    e_minus = 0.5 * np.array([-1.0, 0, 0, 0, 0, 0, 0, 0, 1.0])
    return BoxworldWitnessPair(plus, minus, e_plus, e_minus)


# ---------------------------------------------------------------- registry


@dataclass(frozen=True)
class Builtin:
    """A builtin world: what it is, its integer parameters with their
    defaults, and the builder that takes them as keyword arguments."""

    description: str
    defaults: dict
    builder: Callable[..., WorldBundle]


BUILTINS = {
    "cbit_bitflip": Builtin(
        "two classical bits, simultaneous bit flip", {}, _cbit_world),
    "pointer_discrete": Builtin(
        "two n-position dials, simultaneous step", {"n": 6}, _pointer_world),
    "spinor_su2": Builtin(
        "n spin-1/2 systems, collective rotations", {"n": 2}, _spinor_world),
    "bosonic_u1": Builtin(
        "cutoff-N modes, collective phase shift", {"N": 1, "modes": 2}, _bosonic_world),
    "boxworld_reflection": Builtin(
        "two square systems with nonlocal states, x flip", {}, _boxworld_world),
}


def build_world(name: str, params: dict | None = None) -> WorldBundle:
    """The builtin world name, its defaults overridden by params.

    Every parameter is an integer; a float with no fractional part counts
    as one.  Errors other than UnknownBuiltin start with the world's name.
    """
    entry = BUILTINS.get(name)
    if entry is None:
        raise UnknownBuiltin(f"no builtin world named {name!r}; "
                             f"known: {', '.join(sorted(BUILTINS))}")
    values = dict(entry.defaults)
    for key, value in (params or {}).items():
        if key not in entry.defaults:
            takes = ", ".join(entry.defaults) or "none"
            raise BadParam(f"{name}: unknown parameter {key}={value!r} (takes {takes})")
        integral = isinstance(value, numbers.Integral) or (
            isinstance(value, float) and value.is_integer())
        if isinstance(value, bool) or not integral:
            raise BadParam(f"{name}: parameter {key} must be an integer, got {value!r}")
        values[key] = int(value)
    try:
        bundle = entry.builder(**values)
    except (BadParam, UnsupportedSize) as exc:
        raise type(exc)(f"{name}: {exc}") from None
    bundle.name, bundle.params = name, values
    return bundle
