import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))  # for oracles.py

from twirlab import BUILTINS, build_world
from twirlab.pipeline import Options, run_analysis

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def repo_root() -> pathlib.Path:
    return ROOT


@pytest.fixture(scope="session")
def worlds():
    """All builtin worlds at their default parameters."""
    return {name: build_world(name) for name in BUILTINS}


@pytest.fixture(scope="session")
def analyses(worlds):
    """Full pipeline runs over the default catalog, shared by the suite."""
    return {name: run_analysis(bundle, Options()) for name, bundle in worlds.items()}
