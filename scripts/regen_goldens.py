"""Regenerate the shipped model files and the golden report fixtures.

The model files under models/ are canonical serializations of the two
explicit example worlds; the golden reports under tests/golden/ are the
canonical analysis reports for those files, and tests/golden/<model>.
{validate,lemmas,witness}.txt are the standard output of those commands
on them.  tests/golden/ladder.sha256 is the output of
scripts/report_hashes.py at seed 42: the report hash of every world of
its ladder, computed in a child process at one BLAS thread.  Run with
--check to verify the working tree matches what this script would write
(the byte-level regression the test suite also enforces).
"""

import argparse
import contextlib
import io
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from twirlab.catalog import classical_system, gbit_system  # noqa: E402
from twirlab.cli import main as cli_main  # noqa: E402
from twirlab.model import SCHEMA_TAG, canonical_bytes, parse_model  # noqa: E402
from twirlab.pipeline import Options, run_analysis  # noqa: E402

CLI_COMMANDS = ("validate", "lemmas", "witness")


def system_entry(spec) -> dict:
    return {
        "id": spec.id,
        "dim": spec.dim,
        "state_generators": spec.state_generators.T.tolist(),
        "effect_generators": spec.effect_generators.tolist(),
        "unit_effect": spec.unit_effect.tolist(),
    }


def cbit_model() -> dict:
    eye = [[1.0, 0.0], [0.0, 1.0]]
    flip = [[0.0, 1.0], [1.0, 0.0]]
    return {
        "schema": SCHEMA_TAG,
        "name": "cbit_bitflip",
        "options": {"seed": 42, "trials": 200},
        "systems": [system_entry(classical_system("A", 2)),
                    system_entry(classical_system("B", 2))],
        "group": {
            "kind": "finite",
            "elements": [
                {"label": "e", "matrices": {"A": eye, "B": eye}},
                {"label": "x", "matrices": {"A": flip, "B": flip}},
            ],
        },
        "composites": [{
            "id": "AB",
            "parts": ["A", "B"],
            "extra_effect_generators": [[1.0, 0.0, 0.0, 1.0],
                                        [0.0, 1.0, 1.0, 0.0]],
        }],
    }


def boxworld_model() -> dict:
    eye3 = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    reflect = [[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    nonlocal_states = [
        [1, 1, 0, 1, -1, 0, 0, 0, 1],
        [1, 1, 0, -1, 1, 0, 0, 0, 1],
        [1, -1, 0, 1, 1, 0, 0, 0, 1],
        [-1, 1, 0, 1, 1, 0, 0, 0, 1],
        [-1, -1, 0, -1, 1, 0, 0, 0, 1],
        [-1, -1, 0, 1, -1, 0, 0, 0, 1],
        [-1, 1, 0, -1, -1, 0, 0, 0, 1],
        [1, -1, 0, -1, -1, 0, 0, 0, 1],
    ]
    return {
        "schema": SCHEMA_TAG,
        "name": "boxworld_reflection",
        "systems": [system_entry(gbit_system("A")),
                    system_entry(gbit_system("B"))],
        "group": {
            "kind": "finite",
            "elements": [
                {"label": "e", "matrices": {"A": eye3, "B": eye3}},
                {"label": "r", "matrices": {"A": reflect, "B": reflect}},
            ],
        },
        "composites": [{
            "id": "AB",
            "parts": ["A", "B"],
            "extra_state_generators": [[float(x) for x in row]
                                       for row in nonlocal_states],
        }],
    }


def report_bytes(model: dict) -> bytes:
    mf = parse_model(model)
    return run_analysis(mf.bundle, Options(**mf.options),
                        model_digest=mf.digest).to_bytes()


def cli_text(command: str, path: Path) -> bytes:
    """Standard output of `twirlab <command> <path>`, uncolored."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli_main([command, str(path)])
    return out.getvalue().encode("ascii")


def ladder_hashes() -> bytes:
    """Standard output of `scripts/report_hashes.py --seeds 42`, which
    pins one BLAS thread before numpy loads."""
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "report_hashes.py"),
                          "--seeds", "42"], capture_output=True, check=True)
    return out.stdout


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="verify files instead of rewriting them")
    args = ap.parse_args()

    stale = []

    def emit(path: Path, payload: bytes) -> None:
        if args.check:
            if not path.exists() or path.read_bytes() != payload:
                stale.append(path)
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(payload)
            print(f"wrote {path.relative_to(ROOT)} ({len(payload)} bytes)")

    golden = ROOT / "tests" / "golden"
    for name, build in (("cbit_bitflip", cbit_model),
                        ("boxworld_reflection", boxworld_model)):
        model = build()
        model_path = ROOT / "models" / f"{name}.json"
        emit(model_path, canonical_bytes(model))
        emit(golden / f"{name}.report.json", report_bytes(model))
        # the commands read the model file just emitted
        for command in CLI_COMMANDS:
            emit(golden / f"{name}.{command}.txt", cli_text(command, model_path))
    emit(golden / "ladder.sha256", ladder_hashes())

    if args.check:
        if stale:
            for p in stale:
                print(f"stale: {p.relative_to(ROOT)}")
            return 1
        print("all model and golden files match")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
