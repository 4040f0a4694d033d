"""Batched, deduplicated membership against the naive per-pair oracles.

Steering closure and complement closure decide each distinct vector once;
the reports must still be what one membership call per pair gives, field
for field, on the benchmark ladder of builtins and on worlds that fail.
"""

from dataclasses import replace

import numpy as np
import pytest

import oracles
from twirlab import hermitian, pipeline
from twirlab.catalog import build_world, classical_system
from twirlab.core import (
    CompositeSpec,
    SystemSpec,
    _decide_distinct,
    _subnorm_state_check,
    check_steering_closure,
    compose_systems,
    in_effect_set,
    in_state_cone,
    validate_system,
)

# the builtins of the benchmark's ladder workload
BIPARTITE = [
    ("cbit_bitflip", {}),
    ("boxworld_reflection", {}),
    ("pointer_discrete", {"n": 2}),
    ("pointer_discrete", {"n": 3}),
    ("pointer_discrete", {"n": 4}),
    ("spinor_su2", {"n": 2}),
    ("bosonic_u1", {"N": 1, "modes": 2}),
]
SINGLE_PART = [("spinor_su2", {"n": 1})] + [("bosonic_u1", {"N": n, "modes": 1})
                                            for n in (1, 2, 3)]


def _bit(sys_id, effects):
    return SystemSpec(id=sys_id, dim=2, state_generators=np.eye(2),
                      effect_generators=np.array(effects, dtype=float),
                      unit_effect=np.ones(2))


BIT_EFFECTS = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
# complements of rows 2, 3 and their repeat 4 lie outside the effect hull
LOSSY_EFFECTS = [[0.0, 0.0], [1.0, 1.0], [0.0, 0.7], [0.8, 0.0], [0.0, 0.7]]


def signed_joint_state_world():
    a, b = _bit("A", BIT_EFFECTS), _bit("B", BIT_EFFECTS)
    return SystemSpec(id="AB", dim=4, state_generators=np.array([[1.5, -0.5, 0.0, 0.0]]).T,
                      effect_generators=np.array([[1.0, 1.0, 1.0, 1.0],
                                                  [0.0, 0.0, 0.0, 0.0]]),
                      unit_effect=np.ones(4), parts=(a, b))


def lossy_world():
    # a full trit with a bit that misses complements: the two sides differ
    # in dimension and in their effect hulls, so a steered vector sent to
    # the wrong side cannot pass unnoticed
    a, b = classical_system("A", 3), _bit("B", LOSSY_EFFECTS)
    return compose_systems(CompositeSpec(a, b))


def _qubit(sys_id):
    kets = [[1, 0], [0, 1], [1, 1], [1, -1], [1, 1j], [1, -1j]]
    projs = [np.outer(k, np.conj(k)) / np.vdot(k, k) for k in np.array(kets, dtype=complex)]
    vec = [hermitian.vectorize_dims(p, (2,)) for p in projs]
    return SystemSpec(id=sys_id, dim=4, state_generators=np.array(vec).T,
                      effect_generators=np.array([np.zeros(4), hermitian.vectorize_dims(
                          np.eye(2), (2,))] + vec),
                      unit_effect=hermitian.vectorize_dims(np.eye(2), (2,)), hilbert_dims=(2,))


def non_positive_qubit_pair():
    """Qubit (x) qubit with a non-positive joint state and joint effect.

    The state (I + 2(XX + YY + ZZ)) / 4 steers to (I +- 2Z) / 4 and the
    effect (I + 2ZZ) / 2 to (I +- 2Z) / 2, so both residuals are nonzero.
    """
    a, b = _qubit("A"), _qubit("B")
    pauli = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
             np.diag([1.0, -1.0])]
    heis = np.eye(4) + 2 * sum(np.kron(p, p) for p in pauli[1:])
    states = [np.kron(u, v) for u in a.state_generators.T[:3] for v in b.state_generators.T[:3]]
    states.append(hermitian.vectorize_dims(heis / 4, (2, 2)))
    effects = [np.kron(e, f) for e in a.effect_generators[:4] for f in b.effect_generators[:4]]
    effects.append(hermitian.vectorize_dims((np.eye(4) + 2 * np.kron(pauli[3], pauli[3])) / 2,
                                            (2, 2)))
    return SystemSpec(id="AB", dim=16, state_generators=np.array(states).T,
                      effect_generators=np.array(effects), unit_effect=np.kron(
                          a.unit_effect, b.unit_effect), hilbert_dims=(2, 2), parts=(a, b))


# an orthogonal projector on qubit coordinates that removes one tilted
# traceless direction; its entries are not binary fractions, so its
# products round, and the steered states do not lie in its range
_TILT = np.array([0.0, 1.0, 2.0, 3.0]) / np.sqrt(14.0)
TILTED = np.eye(4) - np.outer(_TILT, _TILT)


def _twirl_stage(name, params):
    run = pipeline.start(build_world(name, params))
    pipeline.twirl(run)
    return run


def _ladder_composites(name, params):
    """The base composite and the twirled view the steering stage checks."""
    run = _twirl_stage(name, params)
    twa, twb, twab = run.split()
    view = replace(twab.world, parts=(twa.world, twb.world))
    projs = None
    if view.hilbert_dims is not None:
        projs = (twa.projector.matrix, twb.projector.matrix)
    return [(run.bundle.composite, None), (view, projs)]


def _ladder_systems(name, params):
    run = _twirl_stage(name, params)
    systems = [s for s, _ in run.bundle.system_actions]
    return systems + [tw.world for tw in run.twirled.values()]


def _assert_steering_matches(world, projs=None):
    rep = check_steering_closure(world, invariance_projectors=projs)
    want = oracles.naive_steering_closure(world, invariance_projectors=projs)
    got = (rep.n_state_checks, rep.n_effect_checks, rep.max_state_residual,
           rep.max_effect_residual, rep.passed)
    assert got == want
    return rep


def _assert_validation_matches(s):
    rep = validate_system(s)
    comp = next(c for c in rep.checks if c.name == "complement_closure")
    assert (comp.passed, comp.residual, comp.detail) == oracles.naive_complement_closure(s)
    return comp


@pytest.mark.parametrize("name, params", BIPARTITE, ids=lambda x: str(x))
def test_steering_matches_per_pair_oracle_on_ladder(name, params):
    for world, projs in _ladder_composites(name, params):
        assert _assert_steering_matches(world, projs).passed


@pytest.mark.parametrize("name, params", BIPARTITE + SINGLE_PART, ids=lambda x: str(x))
def test_complement_closure_matches_per_effect_oracle_on_ladder(name, params):
    for s in _ladder_systems(name, params):
        assert _assert_validation_matches(s).passed


def test_steering_matches_oracle_on_signed_joint_state():
    rep = _assert_steering_matches(signed_joint_state_world())
    assert not rep.passed and rep.max_state_residual > 0.1


def test_steering_matches_oracle_on_missing_complements():
    rep = _assert_steering_matches(lossy_world())
    assert not rep.passed and rep.max_effect_residual > 0.1


@pytest.mark.parametrize("projs", [None, (TILTED, TILTED)],
                         ids=["plain", "projected"])
@pytest.mark.parametrize("block_floats", [1 << 14, 20], ids=["one-block", "many-blocks"])
def test_steering_matches_oracle_on_non_positive_quantum_world(projs, block_floats,
                                                               monkeypatch):
    from twirlab import core

    monkeypatch.setattr(core, "_BLOCK_FLOATS", block_floats)
    world = non_positive_qubit_pair()
    rep = _assert_steering_matches(world, projs)
    assert not rep.passed
    assert rep.max_state_residual >= 0.25 - 1e-12
    assert rep.max_effect_residual >= 0.5 - 1e-12
    if projs is not None:
        assert rep.max_state_residual > check_steering_closure(world).max_state_residual


def test_stacked_quantum_tests_equal_the_per_vector_oracle():
    # random rows: most fail, so every residual formula is exercised
    world = non_positive_qubit_pair()
    rng = np.random.default_rng(11)
    # the unit of a Hermitian basis has one nonzero coordinate; a dense one
    # makes the unit values round like any other dot product
    dense = SystemSpec(id="D", dim=16, state_generators=world.state_generators,
                       effect_generators=world.effect_generators,
                       unit_effect=rng.normal(size=16), hilbert_dims=(2, 2))
    for s, proj in ((world, None), (dense, None), (world.parts[0], None),
                    (world.parts[0], TILTED)):
        rows = rng.normal(size=(300, s.dim)) / 2.0
        got = _subnorm_state_check(s, rows, proj, 1e-9)
        want = [oracles.subnorm_state_check(s, r, proj, 1e-9) for r in rows]
        assert np.array_equal(got, np.array(want).T)
        got = in_effect_set(s, rows)
        assert np.array_equal(got, np.array([oracles.in_effect_set(s, r, 1e-9)
                                             for r in rows]).T)
        for sub in (False, True):
            got = in_state_cone(s, rows, subnormalized=sub)
            want = [oracles.quantum_state_check(s, r, 1e-9, sub) for r in rows]
            assert np.array_equal(got, np.array(want).T)
        # one vector gets plain values, equal to its row of the stack
        assert in_state_cone(s, rows[3], subnormalized=True) == (bool(got[0][3]),
                                                                 float(got[1][3]))


def test_validation_matches_oracle_on_failing_worlds():
    for s in (signed_joint_state_world(), lossy_world(), non_positive_qubit_pair()):
        _assert_validation_matches(s)
    comp = _assert_validation_matches(_bit("A", LOSSY_EFFECTS))
    assert not comp.passed and comp.residual > 0.01
    assert "effect generator 2 " in comp.detail


def test_worst_residual_is_the_maximum_not_the_last():
    # the signed world of the steering tests, with a milder signed state
    # listed after it: the report keeps the worse one
    s = signed_joint_state_world()
    two = SystemSpec(id="AB", dim=4,
                     state_generators=np.array([[1.5, -0.5, 0.0, 0.0],
                                                [1.1, -0.1, 0.0, 0.0]]).T,
                     effect_generators=s.effect_generators, unit_effect=np.ones(4),
                     parts=s.parts)
    rep = _assert_steering_matches(two)
    assert rep.max_state_residual == check_steering_closure(s).max_state_residual


def test_rows_differing_in_a_zero_sign_are_decided_once():
    stacks = []

    def decide(rows):
        stacks.append(rows.copy())
        return rows[:, 0] < 0.4, rows[:, 1]

    rows = np.array([[0.0, 1.0], [-0.0, 1.0], [0.5, 0.5], [0.0, 1.0]])
    seen = set()
    idx, ok, res = _decide_distinct(rows, decide, seen)
    assert idx.tolist() == [0, 2] and ok.tolist() == [True, False]
    assert res.tolist() == [1.0, 0.5]
    # the new rows go to decide as one stack, with -0.0 folded into 0.0
    assert len(stacks) == 1 and stacks[0].shape == (2, 2)
    assert not np.signbit(stacks[0]).any()
    # rows already in seen are not decided again
    idx, ok, res = _decide_distinct(rows[::-1], decide, seen)
    assert idx.size == ok.size == res.size == 0 and len(stacks) == 1


def test_new_rows_are_decided_in_bounded_stacks(monkeypatch):
    from twirlab import core

    monkeypatch.setattr(core, "_BLOCK_FLOATS", 6)  # three rows of two per stack
    sizes = []

    def decide(rows):
        sizes.append(len(rows))
        return np.ones(len(rows), dtype=bool), rows[:, 0]

    rows = np.arange(16.0).reshape(8, 2)
    idx, ok, res = _decide_distinct(np.vstack([rows, rows]), decide, set())
    assert sizes == [3, 3, 2]
    assert idx.tolist() == list(range(8)) and res.tolist() == rows[:, 0].tolist()


def test_each_distinct_steered_effect_is_decided_once(monkeypatch):
    from twirlab import core

    (_, _), (view, _) = _ladder_composites("pointer_discrete", {"n": 3})
    decided = {}
    real = core.in_effect_set

    def counting(part, f, tol=core.DEFAULT_TOL):
        for row in np.atleast_2d(f):
            key = (part.id, (row + 0.0).tobytes())
            decided[key] = decided.get(key, 0) + 1
        return real(part, f, tol)

    monkeypatch.setattr(core, "in_effect_set", counting)
    monkeypatch.setattr(core, "_BLOCK_FLOATS", 7)  # many blocks per side
    rep = check_steering_closure(view)
    assert set(decided.values()) == {1}
    assert len(decided) < rep.n_effect_checks
    monkeypatch.setattr(core, "in_effect_set", real)
    _assert_steering_matches(view)
    _assert_steering_matches(lossy_world())
