import numpy as np
import pytest

import oracles
from twirlab import hermitian
from twirlab.analysis import build_twirled_world, count_parameters, locality_verdict
from twirlab.catalog import (
    BUILTINS,
    bosonic_parameter_counts,
    bosonic_sector_formula,
    boxworld_witness_pairs,
    build_world,
    classical_system,
    cyclic_shift_action,
    fock_mode_generators,
    fock_mode_system,
    gbit_system,
    phase_action,
    qubit_system,
    reflection_action,
)
from twirlab.cli import main
from twirlab.core import in_state_cone, validate_system
from twirlab.errors import BadParam, UnknownBuiltin, UnsupportedSize
from twirlab.symmetry import collective_action, twirl_projector


# ---------------------------------------------------------------- classical


def test_classical_system_is_valid():
    s = classical_system("A", 3)
    assert validate_system(s).passed
    assert s.n_effects == 8


def test_classical_size_guards():
    with pytest.raises(UnsupportedSize):
        classical_system("A", 13)
    with pytest.raises(BadParam):
        build_world("pointer_discrete", {"n": 1})
    with pytest.raises(UnsupportedSize):
        build_world("pointer_discrete", {"n": 7})
    with pytest.raises(UnknownBuiltin):
        build_world("maxwell_demon")


def test_cbit_composite_carries_parity_rows():
    w = build_world("cbit_bitflip")
    eff = w.composite.effect_generators
    assert np.array_equal(eff[16], [1.0, 0.0, 0.0, 1.0])
    assert np.array_equal(eff[17], [0.0, 1.0, 1.0, 0.0])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_pointer_invariant_count_is_the_orbit_count(n):
    w = build_world("pointer_discrete", {"n": n})
    tw = build_twirled_world(w.composite, twirl_projector(w.collective))
    assert count_parameters(tw) == n == oracles.cyclic_orbit_count(n)


def test_cyclic_shift_action_order():
    a = cyclic_shift_action(5)
    assert a.order == 5
    assert np.array_equal(a.elements[0], np.eye(5))


# ------------------------------------------------------------------ quantum


def test_qubit_states_are_pure_projectors():
    s = qubit_system("A")
    assert validate_system(s).passed
    for i in range(s.n_states):
        op = hermitian.unvectorize_dims(s.state_generators[:, i], (2,))
        ev = np.linalg.eigvalsh(op)
        assert np.allclose(sorted(ev), [0.0, 1.0], atol=1e-12)


def test_spinor_guard_and_split():
    with pytest.raises(UnsupportedSize):
        build_world("spinor_su2", {"n": 4})
    w3 = build_world("spinor_su2", {"n": 3})
    assert w3.parts[0].id == "A" and w3.parts[1].id == "B"
    assert w3.parts[1].dim == 16
    assert w3.composite.dim == 64


def test_three_spin_split_counts_and_verdict():
    w = build_world("spinor_su2", {"n": 3})
    twa, twb, twab = (build_twirled_world(s, twirl_projector(act))
                      for s, act in w.system_actions)
    v = locality_verdict(twa, twb, twab)
    assert (v.k_a, v.k_b, v.k_ab) == (1, 2, 5)
    assert v.criterion_fails_locality and v.methods_agree
    unis = oracles.qubit_symmetry_group_unitaries()
    assert oracles.unitary_group_fixed_space_dim(unis, 3) == 5


def test_fock_generators_span():
    for N in (1, 2, 3):
        d = N + 1
        ops = fock_mode_generators(N)
        assert len(ops) == d * d
        vecs = np.array([hermitian.vectorize_dims(op, (d,)) for op in ops])
        assert np.linalg.matrix_rank(vecs) == d * d


def test_fock_system_is_valid():
    s = fock_mode_system("A", 2)
    assert validate_system(s).passed
    assert s.hilbert_dims == (3,)


def test_phase_action_certification():
    a = phase_action(1)
    assert a.order == 3
    assert a.certification.realizes == "U(1)"
    assert a.certification.max_factors == 2
    wide = phase_action(2, order=9)
    assert wide.certification.max_factors == 4
    with pytest.raises(BadParam):
        phase_action(2, order=2)


@pytest.mark.parametrize("N", [1, 2])
def test_finite_phase_realizations_agree_on_two_factors(N):
    # two different cyclic orders, both certified for two collective
    # factors, must produce the same joint average
    joint_a = collective_action([phase_action(N)] * 2)
    joint_b = collective_action([phase_action(N, order=4 * N + 3)] * 2)
    pa = twirl_projector(joint_a).matrix
    pb = twirl_projector(joint_b).matrix
    assert np.max(np.abs(pa - pb)) <= 1e-12


def test_bosonic_guards():
    with pytest.raises(BadParam):
        build_world("bosonic_u1", {"N": 0})
    with pytest.raises(UnsupportedSize):
        build_world("bosonic_u1", {"N": 1, "modes": 3})
    with pytest.raises(UnsupportedSize, match="bosonic_u1: supported up to N = 5, got 6"):
        build_world("bosonic_u1", {"N": 6})
    with pytest.raises(UnknownBuiltin):
        build_world("fermionic_su3")


def test_bosonic_counts_small():
    c = bosonic_parameter_counts(1)
    assert c["single_mode"] == 2
    assert c["restricted"] == 5 == c["restricted_formula"]
    assert c["full"] == 6 == c["full_formula"]
    assert bosonic_sector_formula(2) == (14, 19)


# ----------------------------------------------------------------- boxworld


def test_gbit_vertices_saturate_extremal_effects():
    s = gbit_system("A")
    assert validate_system(s).passed
    table = s.effect_generators @ s.state_generators
    # every extremal effect takes values 0 or 1 on vertices, unit is 1
    assert np.allclose(table[1], 1.0)
    assert np.all((np.abs(table) < 1e-12) | (np.abs(table - 0.5) < 1e-12)
                  | (np.abs(table - 1.0) < 1e-12))


def test_joint_states_form_nonlocal_boxes():
    w = build_world("boxworld_reflection")
    a, b = w.parts
    # measurement effects by direction: x -> rows 2,3 and y -> rows 4,5
    settings = {"x": (2, 3), "y": (4, 5)}
    for col in range(16, w.composite.n_states):
        omega = w.composite.state_generators[:, col]
        correl = {}
        for sa, (pa, ma) in settings.items():
            for sb, (pb, mb) in settings.items():
                probs = []
                for ia in (pa, ma):
                    for ib in (pb, mb):
                        e = np.kron(a.effect_generators[ia], b.effect_generators[ib])
                        probs.append(float(e @ omega))
                probs = np.array(probs)
                assert np.all(probs >= -1e-12)
                assert abs(probs.sum() - 1.0) <= 1e-12
                # uniform marginals on both sides
                assert abs(probs[0] + probs[1] - 0.5) <= 1e-12
                assert abs(probs[0] + probs[2] - 0.5) <= 1e-12
                correl[sa + sb] = probs[0] - probs[1] - probs[2] + probs[3]
        vals = np.array([correl["xx"], correl["xy"], correl["yx"], correl["yy"]])
        # perfect correlations with an odd number of anticorrelated settings
        assert np.allclose(np.abs(vals), 1.0, atol=1e-12)
        assert np.prod(vals) < 0


def test_reflection_projectors_match_known_form():
    p_local = twirl_projector(reflection_action()).matrix
    assert np.array_equal(p_local, oracles.z2_reflection_projector_3())
    w = build_world("boxworld_reflection")
    p_joint = twirl_projector(w.collective).matrix
    assert np.allclose(p_joint, oracles.z2_joint_reflection_projector_9(), atol=1e-15)


def test_twirled_nonlocal_states_pair_up():
    w = build_world("boxworld_reflection")
    p = twirl_projector(w.collective).matrix
    gens = w.composite.state_generators
    twirled = [p @ gens[:, c] for c in range(16, 24)]
    # orbit partners average to the same invariant state
    pairs = [(0, 7), (1, 2), (3, 4), (5, 6)]
    expected = {
        (0, 7): [1, 0, 0, 0, -1, 0, 0, 0, 1],
        (1, 2): [1, 0, 0, 0, 1, 0, 0, 0, 1],
        (3, 4): [-1, 0, 0, 0, 1, 0, 0, 0, 1],
        (5, 6): [-1, 0, 0, 0, -1, 0, 0, 0, 1],
    }
    for i, j in pairs:
        assert np.allclose(twirled[i], twirled[j], atol=1e-15)
        assert np.allclose(twirled[i], expected[(i, j)], atol=1e-15)


def test_boxworld_exact_invariant_ranks():
    w = build_world("boxworld_reflection")
    local = oracles.brute_force_invariant_rank(
        w.parts[0].state_generators, w.part_actions[0].elements)
    joint = oracles.brute_force_invariant_rank(
        w.composite.state_generators, w.collective.elements)
    assert local == 2 and joint == 5
    twab = build_twirled_world(w.composite, twirl_projector(w.collective))
    assert count_parameters(twab) == joint


@pytest.mark.parametrize("s", [0.0, 0.1, 0.25, 1.0 / 3.0, 0.5, 0.75, 1.0])
def test_witness_family_statistics(s):
    w = build_world("boxworld_reflection")
    p = twirl_projector(w.collective).matrix
    pair = boxworld_witness_pairs(s)
    for state in (pair.state_plus, pair.state_minus):
        ok, _ = in_state_cone(w.composite, state)
        assert ok
        assert np.max(np.abs(p @ state - state)) <= 1e-15
    # the two-outcome invariant measurement answers with certainty
    assert abs(pair.effect_plus @ pair.state_plus - 1.0) <= 1e-12
    assert abs(pair.effect_minus @ pair.state_plus) <= 1e-12
    assert abs(pair.effect_plus @ pair.state_minus) <= 1e-12
    assert abs(pair.effect_minus @ pair.state_minus - 1.0) <= 1e-12
    unit = np.kron(w.parts[0].unit_effect, w.parts[1].unit_effect)
    assert np.allclose(pair.effect_plus + pair.effect_minus, unit, atol=1e-15)


def test_witness_family_parameter_guard():
    with pytest.raises(BadParam):
        boxworld_witness_pairs(1.2)
    with pytest.raises(BadParam):
        boxworld_witness_pairs(-0.1)


# ---------------------------------------------------------------- registry


def test_builtins_list_every_world():
    assert set(BUILTINS) == {"cbit_bitflip", "pointer_discrete", "spinor_su2",
                             "bosonic_u1", "boxworld_reflection"}
    for entry in BUILTINS.values():
        assert isinstance(entry.description, str) and isinstance(entry.defaults, dict)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_builtin_defaults_build_and_list(name, capsys):
    entry = BUILTINS[name]
    w = build_world(name)
    assert w.name == name
    assert w.params == entry.defaults
    assert main(["list"]) == 0
    line = next(ln for ln in capsys.readouterr().out.splitlines()
                if ln.split()[0] == name)
    assert entry.description in line
    for key, value in entry.defaults.items():
        assert f"{key}={value}" in line


def test_unknown_world_rejected():
    with pytest.raises(UnknownBuiltin, match="known: bosonic_u1, boxworld_reflection"):
        build_world("heat_bath")


BAD_PARAMS = [
    ("pointer_discrete", "n", "abc"),
    ("pointer_discrete", "n", 4.7),
    ("pointer_discrete", "n", True),
    ("pointer_discrete", "n", [2]),
    ("pointer_discrete", "n", float("nan")),
    ("pointer_discrete", "m", 3),
    ("spinor_su2", "n", 2.5),
    ("bosonic_u1", "N", True),
    ("cbit_bitflip", "n", 9),
]


@pytest.mark.parametrize("name, key, value", BAD_PARAMS, ids=str)
def test_bad_params_name_world_key_and_value(name, key, value):
    with pytest.raises(BadParam) as exc:
        build_world(name, {key: value})
    msg = str(exc.value)
    assert msg.startswith(f"{name}: ")
    assert key in msg and repr(value) in msg


@pytest.mark.parametrize("value", [4, 4.0, np.int64(4), np.float64(4.0)], ids=repr)
def test_integral_params_accepted(value):
    w = build_world("pointer_discrete", {"n": value})
    assert w.params == {"n": 4} and type(w.params["n"]) is int
    assert w.composite.dim == 16
