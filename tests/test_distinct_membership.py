"""Batched, deduplicated membership against the naive per-pair oracles.

Steering closure and complement closure decide each distinct vector once;
the reports must still be what one membership call per pair gives, field
for field, on the benchmark ladder of builtins and on worlds that fail.
"""

import numpy as np
import pytest

import oracles
from twirlab.analysis import build_twirled_world
from twirlab.catalog import build_world, classical_system
from twirlab.core import (
    CompositeSpec,
    SystemSpec,
    _decide_distinct,
    check_steering_closure,
    compose_systems,
    validate_system,
)
from twirlab.pipeline import _twirled_composite_view

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
    return compose_systems(CompositeSpec(a, b), validate=False)


def _ladder_composites(name, params):
    """The base composite and the twirled view run_analysis checks."""
    bundle = build_world(name, params)
    twa, twb = (build_twirled_world(p, act) for p, act in
                zip(bundle.parts, bundle.part_actions))
    twab = build_twirled_world(bundle.composite, bundle.collective)
    view = _twirled_composite_view(twab, twa, twb)
    projs = None
    if view.hilbert_dims is not None:
        projs = (twa.projector.matrix, twb.projector.matrix)
    return [(bundle.composite, None), (view, projs)]


def _ladder_systems(name, params):
    bundle = build_world(name, params)
    systems = list(bundle.parts)
    if bundle.bipartite:
        systems.append(bundle.composite)
    return systems + [build_twirled_world(s, act).world for s, act in
                      zip(systems, list(bundle.part_actions) + [bundle.collective])]


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


def test_validation_matches_oracle_on_failing_worlds():
    for s in (signed_joint_state_world(), lossy_world()):
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
    calls = []

    def decide(v):
        calls.append(v.copy())
        return True, 0.0

    rows = np.array([[0.0, 1.0], [-0.0, 1.0], [0.5, 0.5], [0.0, 1.0]])
    seen = set()
    out = list(_decide_distinct(rows, decide, seen))
    assert [i for i, _, _ in out] == [0, 2]
    assert len(calls) == 2 and not np.signbit(calls[0]).any()
    # rows already in seen are not decided again
    assert list(_decide_distinct(rows[::-1], decide, seen)) == []


def test_each_distinct_steered_effect_is_decided_once(monkeypatch):
    from twirlab import core

    (_, _), (view, _) = _ladder_composites("pointer_discrete", {"n": 3})
    decided = {}
    real = core.in_effect_set

    def counting(part, f, tol=core.DEFAULT_TOL):
        key = (part.id, (np.asarray(f) + 0.0).tobytes())
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
