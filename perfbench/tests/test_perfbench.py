"""The benchmark's own checks: tracing leaves reports and modules as they
were, exact counts repeat, every report passes the gate, and the output
follows BENCHMARK.json.

    python -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import harness
from tracer import Tracer, wrapped_names

import twirlab
from twirlab import analysis, core, hermitian, pipeline

BENCH = harness.HERE
SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def _traced_run(workload: str, seed: int):
    items = harness.world_order(workload, seed)
    tracer = Tracer()
    with tracer, tracer.setup():
        worlds = harness.set_up(items, seed)
    outcome = harness.Outcome()
    with tracer:
        harness.analysis_pass(worlds, harness.load_expected(),
                              harness.load_goldens(items), outcome, tracer)
    return outcome, tracer.summary(1)


@pytest.fixture(scope="module", params=["pointer6", "bosonic3", "ladder"])
def runs(request):
    """One untraced pass and two separately traced runs of a workload."""
    workload = request.param
    items = harness.world_order(workload, 5)
    untraced = harness.Outcome()
    harness.analysis_pass(harness.set_up(items, 5), harness.load_expected(),
                          harness.load_goldens(items), untraced)
    traced = [_traced_run(workload, 5) for _ in range(2)]
    return workload, untraced, traced


def test_failed_frac_is_zero(runs):
    _, untraced, traced = runs
    for outcome in [untraced] + [o for o, _ in traced]:
        assert outcome.attempted > 0
        assert outcome.failed == 0, outcome.problems


def test_traced_reports_match_untraced(runs):
    _, untraced, traced = runs
    for outcome, _ in traced:
        assert outcome.first_bytes == untraced.first_bytes


def test_exact_counts_repeat(runs):
    _, _, ((_, first), (_, second)) = runs
    counts = [k for k in first if k.endswith(".calls") or k == "core.lp_solves"]
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert all(isinstance(first[k], int) for k in counts)


def test_pointer6_counts():
    _, summary = _traced_run("pointer6", 11)
    assert summary["core.in_effect_set.calls"] == 95280
    assert summary["core.lp_solves"] == 2
    assert summary["hermitian.eig.calls"] == 0


def test_no_wrapper_survives(runs):
    assert wrapped_names() == []
    assert pipeline.validate_system is core.validate_system
    assert analysis.in_state_cone is core.in_state_cone
    assert twirlab.run_analysis is pipeline.run_analysis


def test_wrappers_reach_every_importing_module():
    from scipy.optimize import linprog

    with Tracer() as tracer:
        assert pipeline.validate_system is core.validate_system
        assert pipeline.validate_system.__wrapped__ is not None
        assert analysis.in_state_cone is core.in_state_cone
        assert hasattr(analysis.in_state_cone, "__wrapped__")
        assert core.linprog is analysis.linprog is not linprog
        assert tracer.missing == []
    assert core.linprog is linprog
    assert wrapped_names() == []


def test_recursive_unvectorize_counts_once():
    tracer = Tracer()
    with tracer, tracer.analysis("probe"):
        hermitian.unvectorize_dims(np.zeros(64), (2, 2, 2))
    assert tracer.summary(1)["hermitian.unvectorize_dims.calls"] == 1


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_follows_the_spec(trace, section):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "ladder", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, check=True)
    out = _last_json(proc.stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
