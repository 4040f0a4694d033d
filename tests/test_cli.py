import io
import json
import shutil
import subprocess
import sys

import pytest

from twirlab import pipeline
from twirlab.cli import _paint, _use_color, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_list_shows_catalog(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    for name in ("cbit_bitflip", "pointer_discrete", "spinor_su2",
                 "bosonic_u1", "boxworld_reflection"):
        assert name in out
    assert "n=6" in out


def test_validate_builtin(capsys):
    code, out, _ = run_cli(capsys, "validate", "builtin:cbit_bitflip")
    assert code == 0
    assert "[pass] system A" in out
    assert "[pass] composite AB" in out
    assert "[pass] steering closure" in out


def test_validate_model_file(capsys, repo_root):
    path = str(repo_root / "models" / "boxworld_reflection.json")
    code, out, _ = run_cli(capsys, "validate", path)
    assert code == 0
    assert "[FAIL]" not in out


def test_lemmas_prints_every_identity(capsys):
    code, out, _ = run_cli(capsys, "lemmas", "builtin:cbit_bitflip",
                           "--trials", "50", "--seed", "7")
    assert code == 0
    for label in ("absorption from the left", "absorption from the right",
                  "idempotence", "joint after both locals",
                  "both locals after joint", "first local after joint"):
        assert label in out
    assert out.count("[pass]") == 9
    assert "50 probes" in out


def test_analyze_text(capsys):
    code, out, _ = run_cli(capsys, "analyze", "builtin:spinor_su2?n=2")
    assert code == 0
    assert "K_AB = 2 vs K_A*K_B = 1" in out
    assert "FAILS tomographic locality" in out


def test_analyze_json_is_canonical(capsys):
    code, out, _ = run_cli(capsys, "analyze", "builtin:cbit_bitflip",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "twirlab-report/1"
    assert data["counts"]["K_AB"] == 2
    assert "digest" not in data["model"]
    code2, out2, _ = run_cli(capsys, "analyze", "builtin:cbit_bitflip",
                             "--format", "json")
    assert out2 == out


def test_analyze_model_file_carries_digest(capsys, repo_root):
    path = str(repo_root / "models" / "cbit_bitflip.json")
    code, out, _ = run_cli(capsys, "analyze", path, "--format", "json")
    assert code == 0
    assert json.loads(out)["model"]["digest"].startswith("sha256:")


def test_analyze_report_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "analyze", "builtin:cbit_bitflip",
                             "--report", str(target), "--format", "json")
    assert code == 0
    assert f"report written to {target}" in err
    assert target.read_bytes() == out.encode("ascii")


def test_analyze_respects_file_options(capsys, repo_root):
    # the shipped model pins trials=200; the flag overrides the file
    path = str(repo_root / "models" / "cbit_bitflip.json")
    _, out, _ = run_cli(capsys, "analyze", path, "--format", "json")
    assert json.loads(out)["options"]["trials"] == 200
    _, out, _ = run_cli(capsys, "lemmas", path, "--trials", "17")
    assert "17 probes" in out


def test_witness_output(capsys):
    code, out, _ = run_cli(capsys, "witness", "builtin:boxworld_reflection")
    assert code == 0
    assert "locality witness" in out
    assert "state 1" in out
    assert "correlated/product invariant pair" in out
    assert "separable by invariant effect" in out


def _coarse_trits_model() -> dict:
    # two 3-point systems that only see {0, u, e1, u - e1}, trivial group,
    # product composite: invariant tomography is incomplete and no
    # invariant effect separates the invisible direction
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def trit(sys_id):
        return {"id": sys_id, "dim": 3, "state_generators": eye,
                "effect_generators": [[0, 0, 0], [1, 1, 1], [1, 0, 0], [0, 1, 1]],
                "unit_effect": [1, 1, 1]}

    return {"schema": "twirlab/1", "name": "coarse_trits",
            "systems": [trit("A"), trit("B")],
            "group": {"kind": "finite",
                      "elements": [{"label": "e", "matrices": {"A": eye, "B": eye}}]},
            "composites": [{"parts": ["A", "B"]}]}


def test_analyze_reports_a_missing_witness(capsys, tmp_path):
    path = tmp_path / "coarse_trits.json"
    path.write_text(json.dumps(_coarse_trits_model()))
    code, out, _ = run_cli(capsys, "analyze", str(path), "--format", "json")
    assert code == 0
    loc = json.loads(out)["locality"]
    assert loc["direct_check_fails"] is True
    assert loc["methods_agree"] is False
    assert "witness" not in loc
    assert loc["witness_error"].startswith("no invariant effect separates the pair")
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    assert "no witness pair: no invariant effect separates" in out
    code, out, _ = run_cli(capsys, "witness", str(path))
    assert code == 0
    assert "no locality witness: no invariant effect separates" in out


def test_witness_needs_two_parts(capsys):
    code, out, err = run_cli(capsys, "witness", "builtin:spinor_su2?n=1")
    assert code == 2 and out == ""
    assert err == "error: witness construction needs a bipartite world\n"
    # flags are checked before the world's shape
    code, out, err = run_cli(capsys, "witness", "builtin:spinor_su2?n=1", "--tol", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error: --tol: must be")


def test_witness_runs_only_the_stages_it_prints(capsys, monkeypatch, repo_root):
    refs = ["builtin:bosonic_u1", "builtin:spinor_su2",
            str(repo_root / "models" / "boxworld_reflection.json")]
    want = [run_cli(capsys, "witness", ref) for ref in refs]

    def refuse(*args, **kwargs):
        raise AssertionError("witness ran a stage whose output it does not print")

    for name in ("check_steering_closure", "_sector_residuals", "verify_twirl_laws"):
        monkeypatch.setattr(pipeline, name, refuse)
    assert [run_cli(capsys, "witness", ref) for ref in refs] == want
    assert all(code == 0 and "locality witness" in out for code, out, _ in want)


@pytest.mark.parametrize("command", ["validate", "lemmas", "witness"])
@pytest.mark.parametrize("name", ["cbit_bitflip", "boxworld_reflection"])
def test_command_text_matches_golden(capsys, repo_root, name, command):
    code, out, err = run_cli(capsys, command, str(repo_root / "models" / f"{name}.json"))
    assert code == 0 and err == ""
    assert out == (repo_root / "tests" / "golden" / f"{name}.{command}.txt").read_text()


def test_validate_shows_failing_composite_checks(capsys, repo_root, tmp_path):
    # the extra effect reaches 1 + 5e-10 on a product state: outside the
    # file's tol of 1e-10, so the validation stage fails the composite
    model = json.loads((repo_root / "models" / "cbit_bitflip.json").read_text())
    model["composites"][0]["extra_effect_generators"].append([1.0 + 5e-10, 0.0, 0.0, 1.0])
    model["options"]["tol"] = 1e-10
    path = tmp_path / "overfull_effect.json"
    path.write_text(json.dumps(model))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1 and err == ""
    assert out.splitlines() == [
        "[pass] system A: worst residual 0.00e+00",
        "[pass] system B: worst residual 0.00e+00",
        "[FAIL] composite AB: worst residual 5.00e-10",
        "  [FAIL] pairing_range: residual 5.00e-10 "
        "(effect(state) within [0,1] for all generators)",
        "[pass] steering closure: 32 marginal and 96 steered-effect checks",
    ]


def _cbit_model(repo_root, tmp_path, mutate):
    model = json.loads((repo_root / "models" / "cbit_bitflip.json").read_text())
    mutate(model)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(model))
    return str(path)


def _overfull_effect(tol=None):
    def mutate(model):
        model["composites"][0]["extra_effect_generators"].append([1.0 + 1e-8, 0.0, 0.0, 1.0])
        if tol is not None:
            model["options"]["tol"] = tol
    return mutate


@pytest.mark.parametrize("file_tol,flags", [(1e-6, ()), (None, ("--tol", "1e-6"))])
def test_composite_is_checked_at_the_run_tol(capsys, repo_root, tmp_path, file_tol, flags):
    # the extra effect reaches 1 + 1e-8 on a product state, within 1e-6
    path = _cbit_model(repo_root, tmp_path, _overfull_effect(file_tol))
    code, out, err = run_cli(capsys, "validate", path, *flags)
    assert code == 0 and err == ""
    assert "[pass] composite AB" in out and "[FAIL]" not in out


@pytest.mark.parametrize("key,vector,failing", [
    ("effect_generators", [1.2, 0.0], ["pairing_range", "complement_closure"]),
    ("state_generators", [0.5, 0.6], ["unit_normalization", "pairing_range"]),
])
def test_validate_names_the_failing_part_check(capsys, repo_root, tmp_path,
                                               key, vector, failing):
    path = _cbit_model(repo_root, tmp_path,
                       lambda m: m["systems"][0][key].append(vector))
    code, out, err = run_cli(capsys, "validate", path)
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("[FAIL] system A: ")
    assert [ln.split(":")[0] for ln in lines[1:1 + len(failing)]] == [
        f"  [FAIL] {name}" for name in failing]
    assert lines[1 + len(failing)].startswith("[pass] system B: ")

    code, out, err = run_cli(capsys, "witness", path)
    assert code == 2 and out == ""
    assert err == f"error: system A fails validation: {', '.join(failing)}\n"


def test_witness_refuses_an_invalid_composite(capsys, repo_root, tmp_path):
    path = _cbit_model(repo_root, tmp_path, _overfull_effect())
    code, out, err = run_cli(capsys, "witness", path)
    assert code == 2 and out == ""
    assert err == "error: system AB fails validation: pairing_range\n"
    code, out, err = run_cli(capsys, "witness", path, "--tol", "1e-6")
    assert code == 0 and err == "" and "locality witness" in out


def test_unknown_builtin_fails_cleanly(capsys):
    code, _, err = run_cli(capsys, "analyze", "builtin:does_not_exist")
    assert code == 2
    assert "error:" in err


BAD_REFS = ["pointer_discrete?n=abc", "pointer_discrete?n=4.7", "spinor_su2?n=2.5",
            "pointer_discrete?n=true", "pointer_discrete?m=3", "cbit_bitflip?n=9",
            "pointer_discrete?n=2&n=3"]


@pytest.mark.parametrize("ref", BAD_REFS)
def test_bad_builtin_params_exit_2(capsys, ref):
    code, out, err = run_cli(capsys, "analyze", "builtin:" + ref)
    assert code == 2
    assert err.startswith(f"error: {ref.split('?')[0]}: ")
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("N", [6, 20])
def test_oversized_bosonic_cutoff_exits_2_before_building(capsys, monkeypatch, N):
    from twirlab import catalog

    def refuse(*args, **kwargs):
        raise AssertionError("built a mode beyond the supported cutoff")

    monkeypatch.setattr(catalog, "phase_action", refuse)
    monkeypatch.setattr(catalog, "fock_mode_system", refuse)
    code, out, err = run_cli(capsys, "validate", f"builtin:bosonic_u1?N={N}")
    assert code == 2 and out == ""
    assert err == f"error: bosonic_u1: supported up to N = 5, got {N}\n"


BAD_FILE_PARAMS = [
    ("pointer_discrete", {"n": "abc"}, "$.group.params.n: not a number"),
    ("pointer_discrete", {"n": [2]}, "$.group.params.n: expected a number"),
    ("bosonic_u1", {"N": True}, "$.group.params.N: expected a number"),
    ("pointer_discrete", {"n": 4.7}, "pointer_discrete: parameter n"),
    ("spinor_su2", {"n": 2.5}, "spinor_su2: parameter n"),
    ("pointer_discrete", {"m": 3}, "pointer_discrete: unknown parameter m"),
    ("cbit_bitflip", {"n": 9}, "cbit_bitflip: unknown parameter n"),
]


def _builtin_model(tmp_path, name, params):
    path = tmp_path / "builtin_group.json"
    path.write_text(json.dumps({"schema": "twirlab/1", "name": "from-builtin",
                                "group": {"kind": "builtin", "name": name,
                                          "params": params}}))
    return str(path)


@pytest.mark.parametrize("name, params, message", BAD_FILE_PARAMS, ids=str)
def test_bad_builtin_params_in_model_file_exit_2(capsys, tmp_path, name, params, message):
    code, out, err = run_cli(capsys, "analyze", _builtin_model(tmp_path, name, params))
    assert code == 2
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err and out == ""


def test_integral_builtin_params_run(capsys, tmp_path):
    for ref in ("builtin:pointer_discrete?n=4.0",
                _builtin_model(tmp_path, "pointer_discrete", {"n": "4"})):
        code, out, _ = run_cli(capsys, "analyze", ref, "--format", "json")
        assert code == 0
        assert json.loads(out)["model"]["params"] == {"n": 4}


def test_missing_file_fails_cleanly(capsys, tmp_path):
    code, _, err = run_cli(capsys, "analyze", str(tmp_path / "nope.json"))
    assert code == 2
    assert "error:" in err


def test_invalid_model_file_fails_cleanly(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "other/9"}')
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2
    assert "$.schema" in err


BAD_OPTIONS = [("tol", "nan"), ("tol", "-1"), ("tol", "inf"), ("rank_tol", "-1"),
               ("rank_tol", "1"), ("trials", "0"), ("trials", "-3"), ("seed", "-1")]


@pytest.mark.parametrize("key, value", BAD_OPTIONS, ids=lambda x: str(x))
def test_out_of_range_flags_exit_2(capsys, key, value):
    flag = "--" + key.replace("_", "-")
    command = "lemmas" if key == "trials" else "analyze"
    code, out, err = run_cli(capsys, command, "builtin:cbit_bitflip", flag, value)
    assert code == 2
    assert err.startswith(f"error: {flag}: must be")
    assert out == ""


@pytest.mark.parametrize("key, value", BAD_OPTIONS, ids=lambda x: str(x))
def test_out_of_range_file_options_exit_2(capsys, repo_root, tmp_path, key, value):
    model = json.loads((repo_root / "models" / "cbit_bitflip.json").read_text())
    model["options"][key] = value if key.endswith("tol") else int(value)
    path = tmp_path / "bad_options.json"
    path.write_text(json.dumps(model))
    for command in ("analyze", "lemmas"):
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 2
        assert err.startswith(f"error: $.options.{key}: must be")
        assert out == ""


def test_model_group_is_checked_at_the_file_tol(capsys, repo_root, tmp_path):
    model = json.loads((repo_root / "models" / "cbit_bitflip.json").read_text())
    x = model["group"]["elements"][1]
    assert x["label"] == "x"
    x["matrices"]["A"] = [[0, 1 + 1e-7], [1, 0]]
    path = tmp_path / "perturbed.json"

    model["options"]["tol"] = 1e-6
    path.write_text(json.dumps(model))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 0 and err == ""
    assert "[pass] system A" in out

    del model["options"]["tol"]
    path.write_text(json.dumps(model))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 2 and out == ""
    assert err == ("error: $.group: system 'A': product of 'x' and 'x' "
                   "is not in the list\n")


def test_model_group_is_checked_at_the_flag_tol(capsys, repo_root, tmp_path):
    model = json.loads((repo_root / "models" / "cbit_bitflip.json").read_text())
    model["group"]["elements"][1]["matrices"]["A"] = [[0, 1 + 1e-7], [1, 0]]
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps(model))
    code, out, err = run_cli(capsys, "validate", str(path), "--tol", "1e-6")
    assert code == 0 and err == ""
    assert "[pass] system A" in out

    # the flag overrides the file's tol in both directions
    model["options"]["tol"] = 1e-6
    path.write_text(json.dumps(model))
    code, out, err = run_cli(capsys, "validate", str(path), "--tol", "1e-9")
    assert code == 2 and out == ""
    assert err == ("error: $.group: system 'A': product of 'x' and 'x' "
                   "is not in the list\n")


def test_bad_subcommand_exits_with_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_color_control(monkeypatch):
    class Tty(io.StringIO):
        def isatty(self):
            return True

    monkeypatch.delenv("TWIRLAB_NO_COLOR", raising=False)
    assert _use_color(Tty())
    assert not _use_color(io.StringIO())
    assert "\x1b[32m" in _paint("[pass] ok", Tty())
    monkeypatch.setenv("TWIRLAB_NO_COLOR", "1")
    assert not _use_color(Tty())
    assert _paint("[pass] ok", Tty()) == "[pass] ok"


def test_console_script_version():
    exe = shutil.which("twirlab")
    cmd = [exe, "--version"] if exe else [sys.executable, "-m", "twirlab.cli",
                                          "--version"]
    out = subprocess.run(cmd, capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.strip().startswith("twirlab ")
