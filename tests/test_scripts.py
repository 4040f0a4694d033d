"""The example scripts run in-process to their closing line."""

import runpy
import sys

import pytest


@pytest.mark.parametrize("script, args, closing", [
    ("boxworld_family.py", ["--steps", "3"],
     "the invariant coin answers with certainty at every s; "
     "products of invariant local effects never notice"),
    ("bosonic_sweep.py", ["--nmax", "2"],
     "every computed rank matches its sector formula"),
], ids=["boxworld_family", "bosonic_sweep"])
def test_script_runs_to_its_closing_line(script, args, closing, repo_root, monkeypatch, capsys):
    path = repo_root / "scripts" / script
    monkeypatch.setattr(sys, "argv", [str(path), *args])
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src
    with pytest.raises(SystemExit) as exit_:
        runpy.run_path(str(path), run_name="__main__")
    assert exit_.value.code == 0
    assert capsys.readouterr().out.splitlines()[-1] == closing
