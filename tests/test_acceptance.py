"""The acceptance gate: one test per criterion, at the stated tolerance.

Each test prints a single pass line when it survives its assertions, so
a verbose run reads as a checklist of the eight criteria.
"""

import json

import numpy as np
import pytest

import oracles
from twirlab.analysis import build_twirled_world, count_parameters, rank_stability
from twirlab.catalog import (
    bosonic_parameter_counts,
    bosonic_sector_formula,
    boxworld_witness_pairs,
    build_world,
)
from twirlab.cli import main
from twirlab.model import parse_model
from twirlab.pipeline import Options, run_analysis
from twirlab.symmetry import twirl_projector


def _ok(n: int, label: str):
    print(f"criterion {n} ({label}): PASS", flush=True)


def test_criterion_1_spinor_parameter_counts(analyses, capsys):
    d = analyses["spinor_su2"].data
    assert d["counts"]["K_A"] == 1
    assert d["counts"]["K_B"] == 1
    assert d["counts"]["K_AB"] == 2
    assert d["locality"]["criterion_fails_locality"]
    # integer ranks stable across rank thresholds 1e-10 .. 1e-7
    for tw in analyses["spinor_su2"].twirled.values():
        assert rank_stability(tw, thresholds=(1e-10, 1e-9, 1e-8, 1e-7))
    # and the same verdict through the command line
    assert main(["analyze", "builtin:spinor_su2?n=2", "--format", "json"]) == 0
    cli = json.loads(capsys.readouterr().out)
    assert cli["counts"] == {"K_A": 1, "K_B": 1, "K_AB": 2, "K_A_times_K_B": 1}
    assert cli["locality"]["criterion_fails_locality"]
    with capsys.disabled():
        _ok(1, "spinor parameter counts")


def test_criterion_2_bosonic_parameter_counts(capsys):
    expected_restricted = (5, 14, 30, 55, 91)
    for N in range(1, 6):
        c = bosonic_parameter_counts(N)
        assert c["single_mode"] == N + 1
        assert c["restricted"] == expected_restricted[N - 1]
        assert c["restricted"] == sum((n + 1) ** 2 for n in range(N + 1))
        rf, ff = bosonic_sector_formula(N)
        assert (c["restricted"], c["full"]) == (rf, ff)
        assert c["full"] == oracles.two_mode_phase_commutant_dim(N)
        assert c["full"] == oracles.two_mode_phase_commutant_formula(N)
    with capsys.disabled():
        _ok(2, "bosonic parameter counts")


def test_criterion_3_boxworld_reproduction(repo_root, capsys):
    mf = parse_model(str(repo_root / "models" / "boxworld_reflection.json"))
    reference = build_world("boxworld_reflection")
    # the shipped file reproduces every vector of the in-code world
    for shipped, built in zip(mf.bundle.parts, reference.parts):
        assert np.array_equal(shipped.state_generators, built.state_generators)
        assert np.array_equal(shipped.effect_generators, built.effect_generators)
        assert np.array_equal(shipped.unit_effect, built.unit_effect)
    assert np.array_equal(mf.bundle.composite.state_generators,
                          reference.composite.state_generators)

    twa, twb, twab = (build_twirled_world(s, twirl_projector(act))
                      for s, act in mf.bundle.system_actions)

    from twirlab.analysis import verify_local_indistinguishability

    for s in (0.0, 0.25, 0.5):
        pair = boxworld_witness_pairs(s)
        assert abs(pair.effect_plus @ pair.state_plus - 1.0) <= 1e-12
        assert abs(pair.effect_minus @ pair.state_plus - 0.0) <= 1e-12
        assert abs(pair.effect_plus @ pair.state_minus - 0.0) <= 1e-12
        assert abs(pair.effect_minus @ pair.state_minus - 1.0) <= 1e-12
        unit_ab = np.kron(mf.bundle.parts[0].unit_effect,
                          mf.bundle.parts[1].unit_effect)
        assert np.max(np.abs(pair.effect_plus + pair.effect_minus - unit_ab)) <= 1e-12
        assert verify_local_indistinguishability(
            pair.state_plus, pair.state_minus, twa, twb) <= 1e-12

    # parameter table (2, 2, 5), floating rank against the exact rational rank
    assert count_parameters(twa) == 2 == oracles.brute_force_invariant_rank(
        mf.bundle.parts[0].state_generators, mf.bundle.part_actions[0].elements)
    assert count_parameters(twb) == 2
    assert count_parameters(twab) == 5 == oracles.brute_force_invariant_rank(
        mf.bundle.composite.state_generators, mf.bundle.collective.elements)
    with capsys.disabled():
        _ok(3, "boxworld reproduction")


def test_criterion_4_twirl_law_suite(analyses, capsys):
    for name, rep in analyses.items():
        laws = rep.data["twirl_laws"]
        assert laws["trials"] == 200, name
        assert laws["max_residual"] <= 1e-9, name
    with capsys.disabled():
        _ok(4, "averaging-law suite on every catalog world")


def test_criterion_5_indistinguishable_pair_end_to_end(analyses, capsys):
    for name, rep in analyses.items():
        ub = rep.data["ubiquity"]
        assert not ub["trivial_action"], name
        assert ub["separation"] > 1e-6, name
        assert ub["local_indistinguishability"] <= 1e-9, name
        assert ub["separated"], name
        assert abs(ub["separating_gap"]) > 1e-6, name
    # the two-bit pair is the full vs half mixture of matched outcomes,
    # split by the parity effect with gap exactly one half
    cb = analyses["cbit_bitflip"].data["ubiquity"]
    assert np.max(np.abs(np.array(cb["correlated_state"])
                         - [0.5, 0.0, 0.0, 0.5])) <= 1e-12
    assert np.max(np.abs(np.array(cb["product_state"]) - 0.25)) <= 1e-12
    assert abs(cb["separating_gap"] - 0.5) <= 1e-12
    with capsys.disabled():
        _ok(5, "invariant pair on every catalog world")


def test_criterion_6_twirled_world_validity(analyses, capsys):
    for name, rep in analyses.items():
        for sid, sec in rep.data["twirled"].items():
            assert sec["validation"]["passed"], (name, sid)
            comp = sec["completeness"]
            assert comp["passed"], (name, sid)
            assert comp["pairing_rank"] == comp["K"] == sec["K"], (name, sid)
        assert rep.data["steering"]["twirled"]["passed"], name
    with capsys.disabled():
        _ok(6, "twirled-world validity and steering closure")


def test_criterion_7_sector_block_form(analyses, capsys):
    for name in ("spinor_su2", "bosonic_u1"):
        blocks = analyses[name].data["sector_blocks"]
        assert blocks, name
        assert max(blocks.values()) <= 1e-9, name
    with capsys.disabled():
        _ok(7, "invariants in sector-block form")


def test_criterion_8_deterministic_reports(repo_root, capsys):
    first = run_analysis(build_world("boxworld_reflection"), Options()).to_bytes()
    second = run_analysis(build_world("boxworld_reflection"), Options()).to_bytes()
    assert first == second
    path = str(repo_root / "models" / "cbit_bitflip.json")
    assert main(["analyze", path, "--format", "json"]) == 0
    out1 = capsys.readouterr().out
    assert main(["analyze", path, "--format", "json"]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    assert out1.encode("ascii") == (
        repo_root / "tests" / "golden" / "cbit_bitflip.report.json").read_bytes()
    with capsys.disabled():
        _ok(8, "byte-identical repeated reports")
