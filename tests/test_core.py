import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twirlab import (
    CompositeSpec,
    SystemSpec,
    compose_systems,
    convex_membership,
    in_effect_set,
    in_state_cone,
    numerical_rank,
    validate_system,
)
from twirlab import core
from twirlab.core import check_steering_closure, orthonormal_range
from twirlab.errors import (
    DimensionMismatch,
    InconsistentWorlds,
    SolverFailure,
    ValidationFailure,
)


def bit(sys_id="A"):
    return SystemSpec(id=sys_id, dim=2,
                      state_generators=np.eye(2),
                      effect_generators=np.array([[0.0, 0.0], [1.0, 0.0],
                                                  [0.0, 1.0], [1.0, 1.0]]),
                      unit_effect=np.array([1.0, 1.0]))


# ------------------------------------------------------------------ SystemSpec


def test_systemspec_shape_checks():
    with pytest.raises(DimensionMismatch):
        SystemSpec(id="X", dim=3, state_generators=np.eye(2),
                   effect_generators=np.ones((1, 3)), unit_effect=np.ones(3))
    with pytest.raises(DimensionMismatch):
        SystemSpec(id="X", dim=2, state_generators=np.eye(2),
                   effect_generators=np.ones((1, 3)), unit_effect=np.ones(2))
    with pytest.raises(ValidationFailure):
        SystemSpec(id="X", dim=2, state_generators=np.array([[np.nan], [0.0]]),
                   effect_generators=np.ones((1, 2)), unit_effect=np.ones(2))


def test_systemspec_arrays_frozen():
    s = bit()
    with pytest.raises(ValueError):
        s.state_generators[0, 0] = 5.0


def test_hilbert_dims_consistency():
    with pytest.raises(DimensionMismatch):
        SystemSpec(id="Q", dim=5, state_generators=np.eye(5),
                   effect_generators=np.eye(5), unit_effect=np.ones(5),
                   hilbert_dims=(2,))


def test_composite_column_ordering():
    # left factor major: product of column i and column j lands at i * n_b + j,
    # and likewise for effect rows; the unit is the product of the units
    a, b = bit("A"), bit("B")
    comp = compose_systems(CompositeSpec(a, b))
    for i in range(a.n_states):
        for j in range(b.n_states):
            want = np.kron(a.state_generators[:, i], b.state_generators[:, j])
            assert np.array_equal(comp.state_generators[:, i * b.n_states + j], want)
    for i in range(a.n_effects):
        for j in range(b.n_effects):
            want = np.kron(a.effect_generators[i], b.effect_generators[j])
            assert np.array_equal(comp.effect_generators[i * b.n_effects + j], want)
    assert np.array_equal(comp.unit_effect, np.kron(a.unit_effect, b.unit_effect))


# ------------------------------------------------------------------ membership


@given(st.integers(0, 10_000), st.integers(2, 5), st.integers(3, 7))
@settings(max_examples=40, deadline=None)
def test_convex_membership_certificates(seed, d, n):
    rng = np.random.default_rng(seed)
    gens = rng.standard_normal((n, d))
    w = rng.dirichlet(np.ones(n))
    inside = w @ gens
    r = convex_membership(inside, gens, tol=1e-9)
    assert r.member
    assert abs(r.weights.sum() - 1.0) < 1e-9
    assert np.all(r.weights >= 0.0)
    assert np.max(np.abs(r.weights @ gens - inside)) < 1e-7

    outside = gens[0] + 10.0 * (gens[0] - gens.mean(axis=0)) + 1.0
    r2 = convex_membership(outside, gens, tol=1e-9)
    if not r2.member:
        # separating functional must actually separate
        assert r2.margin > 0.0
        assert float(r2.separator @ outside) > float(np.max(gens @ r2.separator))


def test_membership_dimension_guard():
    with pytest.raises(DimensionMismatch):
        convex_membership(np.ones(3), np.ones((2, 2)))


class _FailedSolve:
    success = False
    status = 4
    message = "numerical difficulties"
    x = None


@pytest.mark.parametrize("what,good_solves", [("membership LP", 0), ("separation LP", 1)])
def test_failed_membership_solve_raises_solver_failure(monkeypatch, what, good_solves):
    solve = core.linprog
    calls = []

    def linprog(*args, **kwargs):
        calls.append(what)
        return solve(*args, **kwargs) if len(calls) <= good_solves else _FailedSolve()

    monkeypatch.setattr(core, "linprog", linprog)
    # outside the hull, so a good first solve goes on to the separation LP
    with pytest.raises(SolverFailure, match=what) as exc:
        convex_membership(np.array([2.0, 0.0]), np.eye(2))
    assert exc.value.status == 4
    assert exc.value.message == "numerical difficulties"
    assert len(calls) == good_solves + 1


def test_in_state_cone_paths():
    s = bit()
    ok, res = in_state_cone(s, np.array([0.25, 0.75]))
    assert ok and res <= 1e-9
    ok, _ = in_state_cone(s, np.array([0.5, 0.0]))
    assert not ok
    ok, res = in_state_cone(s, np.array([0.5, 0.0]), subnormalized=True)
    assert ok
    ok, _ = in_state_cone(s, np.array([1.2, -0.2]))
    assert not ok


def test_in_effect_set_paths():
    s = bit()
    assert in_effect_set(s, np.array([0.3, 0.3]))[0]      # 0.3 * unit
    assert in_effect_set(s, np.array([0.0, 0.0]))[0]
    assert in_effect_set(s, np.array([0.7, 0.2]))[0]      # mixture
    assert not in_effect_set(s, np.array([1.2, 0.0]))[0]
    assert not in_effect_set(s, np.array([-0.1, 0.5]))[0]


# ------------------------------------------------------------------ validation


def test_validate_system_passes_bit():
    rep = validate_system(bit())
    assert rep.passed and rep.worst() <= 1e-12
    names = {c.name for c in rep.checks}
    assert names == {"unit_normalization", "pairing_range",
                     "complement_closure", "zero_effect"}


def test_validate_catches_unnormalized_state():
    s = SystemSpec(id="X", dim=2, state_generators=np.array([[0.5], [0.2]]),
                   effect_generators=np.array([[0.0, 0.0], [1.0, 1.0]]),
                   unit_effect=np.array([1.0, 1.0]))
    rep = validate_system(s)
    bad = {c.name for c in rep.checks if not c.passed}
    assert "unit_normalization" in bad


def test_validate_catches_missing_complement():
    # effect 0.8*delta_0 has complement outside the hull spanned below
    s = SystemSpec(id="X", dim=2, state_generators=np.eye(2),
                   effect_generators=np.array([[0.0, 0.0], [1.0, 1.0],
                                               [0.8, 0.0]]),
                   unit_effect=np.array([1.0, 1.0]))
    rep = validate_system(s)
    bad = {c.name for c in rep.checks if not c.passed}
    assert "complement_closure" in bad


def test_pairing_range_guard():
    # the unit pairs to exactly 1 with each state of a valid world; an
    # effect that pairs to 2 (or to -1) fails the check by 1
    ok = {c.name: c for c in validate_system(bit()).checks}["pairing_range"]
    assert ok.passed and ok.residual == 0.0
    s = SystemSpec(id="X", dim=2, state_generators=np.eye(2),
                   effect_generators=np.array([[0.0, 0.0], [1.0, 1.0],
                                               [2.0, 0.0], [-1.0, 1.0]]),
                   unit_effect=np.array([1.0, 1.0]))
    bad = {c.name: c for c in validate_system(s).checks}["pairing_range"]
    assert not bad.passed and bad.residual == 1.0


def test_validate_catches_range_violation():
    s = SystemSpec(id="X", dim=2, state_generators=np.eye(2),
                   effect_generators=np.array([[0.0, 0.0], [1.0, 1.0],
                                               [1.4, 0.0]]),
                   unit_effect=np.array([1.0, 1.0]))
    rep = validate_system(s)
    bad = {c.name for c in rep.checks if not c.passed}
    assert "pairing_range" in bad


def test_validate_catches_missing_zero():
    s = SystemSpec(id="X", dim=2, state_generators=np.eye(2),
                   effect_generators=np.array([[1.0, 1.0], [0.5, 0.5]]),
                   unit_effect=np.array([1.0, 1.0]))
    rep = validate_system(s)
    bad = {c.name for c in rep.checks if not c.passed}
    assert "zero_effect" in bad


# ------------------------------------------------------------------ composites


def test_compose_completes_complements():
    a, b = bit("A"), bit("B")
    comp = compose_systems(CompositeSpec(a, b))
    rep = validate_system(comp)
    assert rep.passed
    # complement of delta_0 x delta_0 is not a product, must have been added
    d00 = np.kron(a.effect_generators[1], b.effect_generators[1])
    target = comp.unit_effect - d00
    found = any(np.max(np.abs(e - target)) < 1e-12 for e in comp.effect_generators)
    assert found


def _failed_checks(s):
    return {c.name for c in validate_system(s).checks if not c.passed}


def test_compose_rejects_bad_extra_state():
    a, b = bit("A"), bit("B")
    spec = CompositeSpec(a, b, extra_state_generators=np.array([[1.5, -0.5, 0.0, 0.0]]))
    assert "pairing_range" in _failed_checks(compose_systems(spec))


def test_compose_rejects_bad_extra_effect():
    a, b = bit("A"), bit("B")
    spec = CompositeSpec(a, b, extra_effect_generators=np.array([[2.0, 0.0, 0.0, 0.0]]))
    assert "pairing_range" in _failed_checks(compose_systems(spec))


def test_compose_extra_dim_guard():
    a, b = bit("A"), bit("B")
    with pytest.raises(DimensionMismatch):
        compose_systems(CompositeSpec(a, b, extra_state_generators=np.ones((1, 3))))


# -------------------------------------------------------------------- steering


def test_steering_needs_parts():
    with pytest.raises(InconsistentWorlds):
        check_steering_closure(bit())


def test_steering_closure_passes_for_product_world():
    a, b = bit("A"), bit("B")
    comp = compose_systems(CompositeSpec(a, b))
    rep = check_steering_closure(comp)
    assert rep.passed
    assert rep.n_state_checks == comp.n_states * (a.n_effects + b.n_effects)


def test_steering_closure_flags_signed_joint_state():
    a, b = bit("A"), bit("B")
    # unit-normalized but signed: steers to a marginal outside the simplex
    bad = np.array([[1.5, -0.5, 0.0, 0.0]]).T
    s = SystemSpec(id="AB", dim=4, state_generators=bad,
                   effect_generators=np.array([[1.0, 1.0, 1.0, 1.0],
                                               [0.0, 0.0, 0.0, 0.0]]),
                   unit_effect=np.ones(4), parts=(a, b))
    rep = check_steering_closure(s)
    assert not rep.passed
    assert rep.max_state_residual > 0.1


# ------------------------------------------------------------------ rank tools


def test_numerical_rank_known_cases():
    assert numerical_rank(np.zeros((3, 3))) == 0
    assert numerical_rank(np.eye(4)) == 4
    m = np.outer(np.arange(1.0, 4.0), np.ones(5))
    assert numerical_rank(m) == 1
    # tiny perturbation below the relative cutoff does not bump the rank
    m2 = m + 1e-12 * np.random.default_rng(0).standard_normal(m.shape)
    assert numerical_rank(m2) == 1


def test_orthonormal_range_spans():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 5))
    q = orthonormal_range(m)
    assert q.shape == (6, 2)
    assert np.max(np.abs(q.T @ q - np.eye(2))) < 1e-10
    # every column of m lies in the span of q
    proj = q @ q.T
    assert np.max(np.abs(proj @ m - m)) < 1e-9
