import numpy as np
import pytest

import oracles
from twirlab import analysis
from twirlab.analysis import (
    build_twirled_world,
    check_tomographic_completeness,
    count_parameters,
    find_separating_invariant_effect,
    locality_verdict,
    rank_stability,
    sector_block_residual,
    transformation_pair_witness,
    ubiquity_witnesses,
    verify_local_indistinguishability,
)
from twirlab.catalog import build_world, classical_system
from twirlab.core import CompositeSpec, compose_systems, numerical_rank, orthonormal_range
from twirlab.errors import (
    ActionNotPhysical,
    DimensionMismatch,
    InconsistentWorlds,
    NotSeparable,
    SolverFailure,
    TrivialAction,
)
from twirlab.pipeline import Options, run_analysis
from twirlab.symmetry import (
    GroupAction,
    TwirlProjector,
    build_finite_action,
    collective_action,
    twirl_projector,
)


def flip_action():
    return build_finite_action(["e", "x"], [np.eye(2), np.eye(2)[::-1].copy()])


def idle_action():
    # a faithful label set acting trivially: the image of the flip group
    # under the trivial representation
    return build_finite_action(["e", "x"], [np.eye(2), np.eye(2)])


def pair_projectors(act):
    """Averages over act on each of two sides and on both at once."""
    p = twirl_projector(act)
    return p, p, twirl_projector(collective_action([act, act]))


def unchecked_projector(bad: GroupAction) -> TwirlProjector:
    """Average over an element list that is not a group, built without the
    projector checks, so that only the physicality check can reject it."""
    return TwirlProjector(matrix=bad.elements.mean(axis=0), action=bad,
                          idempotence_residual=0.0, commutation_residual=0.0)


@pytest.fixture(scope="module")
def cbit():
    return build_world("cbit_bitflip", {})


@pytest.fixture(scope="module")
def cbit_twirled(cbit):
    twa = build_twirled_world(cbit.parts[0], twirl_projector(cbit.part_actions[0]))
    twb = build_twirled_world(cbit.parts[1], twirl_projector(cbit.part_actions[1]))
    twab = build_twirled_world(cbit.composite, twirl_projector(cbit.collective))
    return twa, twb, twab


# -------------------------------------------------------------- twirled world


def test_twirled_bit_collapses_to_uniform(cbit_twirled):
    twa, _, _ = cbit_twirled
    assert twa.K == 1
    uniform = np.full(2, 0.5)
    for i in range(twa.world.n_states):
        assert np.allclose(twa.world.state_generators[:, i], uniform)
    assert twa.fixed_point_residual <= 1e-15
    assert twa.validation.passed
    assert count_parameters(twa) == 1
    assert rank_stability(twa)


def test_twirled_world_keeps_unit_and_ids(cbit_twirled):
    twa, _, twab = cbit_twirled
    assert np.array_equal(twa.world.unit_effect, twa.base.unit_effect)
    assert twa.world.id.endswith("~")
    assert twab.world.dim == 4


def test_unit_moving_element_rejected():
    s = classical_system("A", 2)
    bad = GroupAction(labels=("e", "g"),
                      elements=np.stack([np.eye(2), np.diag([1.0, 2.0])]))
    with pytest.raises(ActionNotPhysical, match="unit effect"):
        build_twirled_world(s, unchecked_projector(bad))


def test_state_escaping_element_rejected():
    s = classical_system("A", 2)
    # columns sum to one, so the unit is preserved, but the signed entries
    # push a vertex outside the simplex
    m = np.array([[1.5, -0.5], [-0.5, 1.5]])
    bad = GroupAction(labels=("e", "g"), elements=np.stack([np.eye(2), m]))
    with pytest.raises(ActionNotPhysical, match="outside the state"):
        build_twirled_world(s, unchecked_projector(bad))


def test_state_escaping_element_names_the_generator():
    # generator 0 and 2 map onto listed generators; only 1 needs a test
    s = classical_system("A", 3)
    m = np.array([[1.0, 1.2, 0.0], [0.0, -0.2, 0.0], [0.0, 0.0, 1.0]])
    bad = GroupAction(labels=("e", "g"), elements=np.stack([np.eye(3), m]))
    with pytest.raises(ActionNotPhysical, match="element 'g' maps state generator 1 "):
        build_twirled_world(s, unchecked_projector(bad))


def test_action_dimension_guard():
    s = classical_system("A", 2)
    with pytest.raises(DimensionMismatch):
        build_twirled_world(s, twirl_projector(build_finite_action(["e"], [np.eye(3)])))


def test_completeness_of_twirled_bit(cbit_twirled):
    twa, _, twab = cbit_twirled
    rep = check_tomographic_completeness(twa)
    assert rep.passed and rep.K == 1 and rep.pairing_rank == 1
    rep2 = check_tomographic_completeness(twab)
    assert rep2.passed and rep2.K == 2


@pytest.mark.parametrize("name,params", [("bosonic_u1", {"N": 2, "modes": 2}),
                                         ("pointer_discrete", {"n": 3})])
def test_run_forms_the_effect_basis_of_the_parts_only(name, params):
    run = run_analysis(build_world(name, params), Options())
    twa, twb, twab = run.split()
    assert "invariant_effect_basis" not in vars(twab)
    # guard: the parts' bases, read by the verdict, are the full SVD's
    for tw in (twa, twb):
        assert "invariant_effect_basis" in vars(tw)
        f = tw.invariant_effect_basis
        expect = orthonormal_range(tw.world.effect_generators.T).T
        assert f.shape[0] == tw.k_effects
        assert f.shape == expect.shape
        assert np.array_equal(f.view(np.uint64), expect.view(np.uint64))


@pytest.mark.parametrize("name,params", [
    ("cbit_bitflip", {}), ("boxworld_reflection", {}),
    ("pointer_discrete", {"n": 2}), ("pointer_discrete", {"n": 3}),
    ("pointer_discrete", {"n": 4}), ("spinor_su2", {"n": 2}),
    ("bosonic_u1", {"N": 1, "modes": 2}), ("bosonic_u1", {"N": 2, "modes": 2}),
])
def test_completeness_ranks_match_the_effect_basis(name, params):
    # guard: the averaged effects span what their orthonormal basis F
    # spans, so both pair with the state basis at the same rank
    for s, action in build_world(name, params).system_actions:
        tw = build_twirled_world(s, twirl_projector(action))
        f = orthonormal_range(tw.world.effect_generators.T).T
        rep = check_tomographic_completeness(tw)
        assert rep.k_effects == tw.k_effects == f.shape[0]
        assert rep.pairing_rank == numerical_rank(f @ tw.invariant_state_basis)


# ------------------------------------------------------------ locality verdict


def test_cbit_fails_locality_with_witness(cbit_twirled):
    twa, twb, twab = cbit_twirled
    v = locality_verdict(twa, twb, twab)
    assert (v.k_a, v.k_b, v.k_ab) == (1, 1, 2)
    assert v.criterion_fails_locality and v.direct_check_fails and v.methods_agree
    assert v.pairing_rank == 1
    w = v.witness
    assert w is not None
    # the pair shares every product of invariant local effects ...
    assert verify_local_indistinguishability(w.state_1, w.state_2, twa, twb) <= 1e-12
    # ... yet an invariant joint effect tells them apart
    assert abs(w.separating_gap) > 1e-6
    gap = float(w.separating_effect @ (w.state_1 - w.state_2))
    assert abs(gap - w.separating_gap) <= 1e-12


def test_cbit_count_matches_exact_rational_rank(cbit, cbit_twirled):
    _, _, twab = cbit_twirled
    exact = oracles.brute_force_invariant_rank(
        cbit.composite.state_generators, cbit.collective.elements)
    assert count_parameters(twab) == exact == 2


def test_one_sided_symmetry_is_locally_tomographic():
    # negative control: only the first factor is averaged, the counting
    # and the direct pairing must both report locality intact
    a = classical_system("A", 2)
    b = classical_system("B", 2)
    comp = compose_systems(CompositeSpec(part_a=a, part_b=b))
    act_a, act_b = flip_action(), idle_action()
    twa = build_twirled_world(a, twirl_projector(act_a))
    twb = build_twirled_world(b, twirl_projector(act_b))
    twab = build_twirled_world(comp, twirl_projector(collective_action([act_a, act_b])))
    v = locality_verdict(twa, twb, twab)
    assert (v.k_a, v.k_b, v.k_ab) == (1, 2, 2)
    assert not v.criterion_fails_locality
    assert not v.direct_check_fails
    assert v.methods_agree
    assert v.witness is None


class _FailedSolve:
    success = False
    status = 4
    message = "numerical difficulties"
    x = None


def test_max_step_reports_a_failed_solve(monkeypatch):
    monkeypatch.setattr(analysis, "linprog", lambda *a, **k: _FailedSolve())
    with pytest.raises(SolverFailure, match="numerical difficulties") as exc:
        analysis._max_step(np.full(2, 0.5), np.array([1.0, -1.0]), np.eye(2))
    assert exc.value.status == 4
    assert exc.value.message == "numerical difficulties"


def test_failed_witness_solve_is_kept_in_the_verdict(cbit_twirled, monkeypatch):
    monkeypatch.setattr(analysis, "linprog", lambda *a, **k: _FailedSolve())
    v = locality_verdict(*cbit_twirled)
    assert v.direct_check_fails and v.witness is None
    assert "solver status 4" in v.witness_error


def test_locality_verdict_dimension_guard(cbit_twirled):
    twa, twb, _ = cbit_twirled
    with pytest.raises(InconsistentWorlds):
        locality_verdict(twa, twb, twa)


# ------------------------------------------------------- invariant state pairs


def test_ubiquity_pair_on_the_bit():
    seed = np.array([1.0, 0.0])
    uw = ubiquity_witnesses(pair_projectors(flip_action()), seed)
    assert uw.moving_label == "x"
    assert np.allclose(uw.product_state, np.full(4, 0.25))
    assert np.allclose(uw.correlated_state, [0.5, 0.0, 0.0, 0.5])
    assert abs(uw.separation - 0.25) <= 1e-15


def test_ubiquity_needs_a_moved_seed():
    with pytest.raises(TrivialAction):
        ubiquity_witnesses(pair_projectors(flip_action()), np.array([0.5, 0.5]))


def test_ubiquity_pair_is_locally_indistinguishable(cbit_twirled):
    twa, twb, twab = cbit_twirled
    uw = ubiquity_witnesses((twa.projector, twb.projector, twab.projector),
                            np.array([1.0, 0.0]))
    assert verify_local_indistinguishability(
        uw.correlated_state, uw.product_state, twa, twb) <= 1e-12
    eff, gap, idx = find_separating_invariant_effect(
        uw.correlated_state, uw.product_state, twab.world.effect_generators)
    assert abs(gap - 0.5) <= 1e-12
    assert idx == 16  # the first two-outcome parity row of the composite
    assert abs(float(eff @ (uw.correlated_state - uw.product_state)) - gap) <= 1e-12


def test_no_separator_for_equal_states(cbit_twirled):
    _, _, twab = cbit_twirled
    s = twab.world.state_generators[:, 0]
    with pytest.raises(NotSeparable):
        find_separating_invariant_effect(s, s, twab.world.effect_generators)


@pytest.mark.parametrize("name,params", [
    ("cbit_bitflip", {}), ("boxworld_reflection", {}),
    ("pointer_discrete", {"n": 2}), ("pointer_discrete", {"n": 3}),
    ("pointer_discrete", {"n": 4}), ("spinor_su2", {"n": 2}),
    ("bosonic_u1", {"N": 1, "modes": 2}), ("bosonic_u1", {"N": 2, "modes": 2}),
])
def test_twirled_effects_are_the_averaged_base_effects(name, params):
    # the separating-effect search takes the twirled world's effect list
    # as the average of the base effects; it must be that product, bit for bit
    b = build_world(name, params)
    twab = build_twirled_world(b.composite, twirl_projector(b.collective))
    averaged = twab.base.effect_generators @ twab.projector.matrix
    assert np.array_equal(twab.world.effect_generators.view(np.uint64),
                          averaged.view(np.uint64))


def test_transformation_pair_on_the_bit(cbit_twirled):
    uw = ubiquity_witnesses(tuple(tw.projector for tw in cbit_twirled),
                            np.array([1.0, 0.0]))
    twa, twb, _ = cbit_twirled
    tp = transformation_pair_witness(twa, twb, uw.correlated_state, uw.product_state)
    assert tp.local_residual <= 1e-12
    assert abs(tp.global_gap - 0.25) <= 1e-12
    assert tp.maps_to_product_residual <= 1e-12


# --------------------------------------------------------------- sector blocks


def test_sector_block_residual_flags_off_blocks():
    p1 = np.diag([1.0, 0.0])
    p2 = np.diag([0.0, 1.0])
    assert sector_block_residual(np.diag([2.0, 3.0]), [p1, p2]) == 0.0
    leaky = np.array([[2.0, 1.0], [0.0, 3.0]])
    assert sector_block_residual(leaky, [p1, p2]) == 1.0


def test_sector_block_residual_scalar_sector():
    eye = np.eye(2)
    op = np.diag([1.0, 2.0])
    assert sector_block_residual(op, [eye], [False]) == 0.0
    assert abs(sector_block_residual(op, [eye], [True]) - 0.5) <= 1e-15
