import copy
import json
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from twirlab import BUILTINS, core, pipeline, symmetry
from twirlab.catalog import WorldBundle, build_world, classical_system
from twirlab.core import CompositeSpec, compose_systems
from twirlab.model import parse_model
from twirlab.pipeline import Options, render_text, run_analysis
from twirlab.symmetry import build_finite_action

# the benchmark's ladder of builtins, spinor_su2 n=3 (two different part
# actions) and the two shipped models
LADDER = [("cbit_bitflip", {}), ("boxworld_reflection", {}),
          ("pointer_discrete", {"n": 2}), ("pointer_discrete", {"n": 3}),
          ("pointer_discrete", {"n": 4}), ("spinor_su2", {"n": 1}),
          ("spinor_su2", {"n": 2}), ("spinor_su2", {"n": 3}),
          ("bosonic_u1", {"N": 1, "modes": 2}), ("bosonic_u1", {"N": 1, "modes": 1}),
          ("bosonic_u1", {"N": 2, "modes": 1}), ("bosonic_u1", {"N": 3, "modes": 1}),
          ("models/cbit_bitflip.json", None), ("models/boxworld_reflection.json", None)]


def test_options_defaults():
    o = Options()
    assert o.as_dict() == {"tol": 1e-9, "rank_tol": 1e-8, "seed": 42, "trials": 200}


def test_report_structure_bipartite(analyses):
    d = analyses["cbit_bitflip"].data
    assert d["schema"] == "twirlab-report/1"
    assert d["model"]["name"] == "cbit_bitflip"
    assert set(d["systems"]) == {"A", "B", "AB"}
    for sec in d["systems"].values():
        assert sec["validation"]["passed"]
    assert d["twirl_laws"]["trials"] == 200
    assert set(d["twirled"]) == {"A", "B", "AB"}
    assert d["twirled"]["AB"]["K"] == 2
    assert d["twirled"]["AB"]["completeness"]["passed"]
    assert d["counts"] == {"K_A": 1, "K_B": 1, "K_AB": 2, "K_A_times_K_B": 1}
    assert d["locality"]["criterion_fails_locality"]
    assert d["locality"]["methods_agree"]
    w = d["locality"]["witness"]
    assert w["product_effect_discrepancy"] <= 1e-12
    assert abs(w["separating_gap"]) > 1e-6
    ub = d["ubiquity"]
    assert not ub["trivial_action"]
    assert ub["separation"] > 1e-6
    assert ub["separated"]
    assert d["steering"]["twirled"]["passed"]
    assert "sector_blocks" not in d


def test_report_exposes_live_objects(analyses):
    rep = analyses["cbit_bitflip"]
    assert rep.verdict is not None and rep.verdict.k_ab == 2
    assert rep.laws is not None
    assert set(rep.twirled) == {"A", "B", "AB"}


def test_report_structure_unipartite():
    rep = run_analysis(build_world("spinor_su2", {"n": 1}))
    d = rep.data
    assert set(d["systems"]) == {"A"}
    assert d["twirled"]["A"]["K"] == 1
    for key in ("counts", "locality", "ubiquity", "steering"):
        assert key not in d
    assert d["sector_blocks"]["A"] <= 1e-9


def test_digest_and_notes_passthrough():
    rep = run_analysis(build_world("spinor_su2", {"n": 3}),
                       model_digest="sha256:0123")
    assert rep.data["model"]["digest"] == "sha256:0123"
    assert rep.data["model"]["notes"]
    assert rep.data["model"]["params"] == {"n": 3}


def test_bosonic_report_carries_sector_counts(analyses):
    d = analyses["bosonic_u1"].data
    occ = d["counts"]["occupation_sectors"]
    assert occ["restricted"] == 5 == occ["restricted_formula"]
    assert occ["full"] == 6 == occ["full_formula"]
    assert occ["single_mode"] == 2
    assert max(d["sector_blocks"].values()) <= 1e-9


def test_report_bytes_round_trip(analyses):
    rep = analyses["boxworld_reflection"]
    payload = rep.to_bytes()
    assert payload.endswith(b"\n")
    assert json.loads(payload) == rep.data


def test_repeated_runs_are_byte_identical():
    b1 = run_analysis(build_world("cbit_bitflip", {}), Options()).to_bytes()
    b2 = run_analysis(build_world("cbit_bitflip", {}), Options()).to_bytes()
    assert b1 == b2


def trivial_world():
    a = classical_system("A", 2)
    b = classical_system("B", 2)
    eye = np.eye(2)
    act = build_finite_action(["e"], [eye])
    comp = compose_systems(CompositeSpec(a, b))
    return WorldBundle(name="idle-pair", params={}, kind="classical",
                       parts=(a, b), part_actions=(act, act), composite=comp)


def test_symmetry_free_world_stays_local():
    d = run_analysis(trivial_world()).data
    assert d["counts"] == {"K_A": 2, "K_B": 2, "K_AB": 4, "K_A_times_K_B": 4}
    assert not d["locality"]["criterion_fails_locality"]
    assert d["locality"]["methods_agree"]
    assert "witness" not in d["locality"]
    assert d["ubiquity"] == {"trivial_action": True}
    assert d["steering"]["twirled"]["passed"]


def test_render_text_bipartite(analyses):
    text = render_text(analyses["cbit_bitflip"].data)
    assert "world: cbit_bitflip" in text
    assert "[pass] system AB: valid world" in text
    assert "[pass] averaging laws on 200 probes" in text
    assert "K_AB = 2 vs K_A*K_B = 1" in text
    assert "FAILS tomographic locality" in text
    assert "witness pair" in text
    assert "steering closure of the twirled composite" in text
    assert "[FAIL]" not in text


def test_render_text_trivial_world():
    text = render_text(run_analysis(trivial_world()).data)
    assert "locally tomographic" in text
    assert "[skip] invariant-pair construction" in text
    assert "[FAIL]" not in text


def test_render_text_sector_line():
    text = render_text(run_analysis(build_world("spinor_su2", {"n": 1})).data)
    assert "sector blocks" in text
    assert "[FAIL]" not in text


@pytest.mark.parametrize("tol, residual, flag", [(1e-6, 1e-8, "pass"),
                                                 (1e-12, 1e-10, "FAIL")])
def test_render_text_sector_line_reads_report_tol(tol, residual, flag):
    data = copy.deepcopy(run_analysis(build_world("spinor_su2", {"n": 1})).data)
    data["options"]["tol"] = tol
    data["sector_blocks"] = {"A": residual}
    line = next(s for s in render_text(data).splitlines() if "sector blocks" in s)
    assert line.startswith(f"[{flag}]")


@pytest.mark.parametrize("name", ["cbit_bitflip", "boxworld_reflection"])
def test_reports_match_golden_files(name, repo_root):
    from twirlab.model import parse_model

    mf = parse_model(str(repo_root / "models" / f"{name}.json"))
    opt = Options()
    for k, v in mf.options.items():
        setattr(opt, k, v)
    payload = run_analysis(mf.bundle, opt, model_digest=mf.digest).to_bytes()
    golden = (repo_root / "tests" / "golden" / f"{name}.report.json").read_bytes()
    assert payload == golden


def _hash_table(text: str) -> dict:
    """`world params seed` -> sha256, from report_hashes.py lines."""
    return dict(line.rsplit(" ", 1) for line in text.splitlines())


def test_ladder_report_hashes_match_golden(repo_root):
    # the child alone runs at one BLAS thread; the ladder's worlds are
    # the table in scripts/report_hashes.py
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, str(repo_root / "scripts" / "report_hashes.py"),
                          "--seeds", "42"], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    got = _hash_table(out.stdout)
    want = _hash_table((repo_root / "tests" / "golden" / "ladder.sha256").read_text())
    moved = [w for w in sorted(want.keys() | got.keys()) if got.get(w) != want.get(w)]
    assert not moved, f"report hash moved for: {', '.join(moved)}"


def _record_calls(monkeypatch, real) -> list:
    """First argument of every call to the library function real, from
    whichever module makes it."""
    seen = []

    def recording(first, *args, **kwargs):
        seen.append(first)
        return real(first, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("twirlab") and getattr(module, real.__name__, None) is real:
            monkeypatch.setattr(module, real.__name__, recording)
    return seen


@pytest.mark.parametrize("name, params", LADDER, ids=lambda x: str(x))
def test_each_action_is_averaged_once_per_run(name, params, monkeypatch, repo_root):
    if params is None:
        mf = parse_model(str(repo_root / name))
        bundle, options = mf.bundle, Options(**mf.options)
    else:
        bundle, options = build_world(name, params), Options()
    actions = {id(a) for a in bundle.part_actions}
    if bundle.collective is not None:
        actions.add(id(bundle.collective))
    # the occupation-sector cross-check of two bosonic modes averages its own
    hook = 1 if bundle.extra_counts is not None else 0
    assert hook == (name == "bosonic_u1" and params["modes"] == 2)

    seen = _record_calls(monkeypatch, symmetry.twirl_projector)
    run_analysis(bundle, options)
    assert len(seen) == len(actions) + hook
    assert Counter(id(a) for a in seen if id(a) in actions) == dict.fromkeys(actions, 1)
    run_analysis(bundle, options)  # a second run averages afresh
    assert len(seen) == 2 * (len(actions) + hook)


def test_each_world_is_validated_once(monkeypatch, repo_root):
    seen = _record_calls(monkeypatch, core.validate_system)
    bundles = [build_world(name) for name in BUILTINS]
    bundles += [parse_model(str(repo_root / "models" / f"{name}.json")).bundle
                for name in ("cbit_bitflip", "boxworld_reflection")]
    assert seen == []  # building a world and reading a model only build
    for bundle in bundles:
        run_analysis(bundle)
        ids = [s.id for s, _ in bundle.system_actions]
        # the validation stage judges each base system, the twirl stage
        # each twirled world
        assert [s.id for s in seen] == ids + [sid + "~" for sid in ids]
        seen.clear()


def test_sector_blocks_follow_the_core_block_size(monkeypatch):
    # the sectors stage rebuilds generators in stacks sized by
    # core._BLOCK_FLOATS, read when the stage runs
    run = pipeline.start(build_world("spinor_su2", {"n": 2}))
    pipeline.twirl(run)
    seen = _record_calls(monkeypatch, pipeline.unvectorize_dims)
    pipeline.sectors(run)
    default_calls, want = len(seen), run.data.pop("sector_blocks")
    seen.clear()
    monkeypatch.setattr(core, "_BLOCK_FLOATS", 64)
    pipeline.sectors(run)
    assert len(seen) > default_calls
    assert run.data["sector_blocks"] == want
