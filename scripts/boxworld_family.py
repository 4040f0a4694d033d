"""Walk the one-parameter family of reflection-invariant box pairs.

Each mixing parameter s in [0, 1] gives two valid invariant joint states
that agree on every product of invariant local effects, yet the
invariant two-outcome measurement (not of product form) distinguishes
them with certainty.  The table shows the agreement and the separation
staying flat across the family.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from twirlab.analysis import build_twirled_world, verify_local_indistinguishability  # noqa: E402
from twirlab.catalog import boxworld_witness_pairs, build_world  # noqa: E402
from twirlab.core import in_state_cone  # noqa: E402
from twirlab.symmetry import twirl_projector  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=11,
                    help="number of s values across [0, 1] (default 11)")
    args = ap.parse_args()

    w = build_world("boxworld_reflection")
    twa, twb = (build_twirled_world(s, twirl_projector(act))
                for s, act in zip(w.parts, w.part_actions))

    print(f"{'s':>6} {'valid':>6} {'e+(w+)':>7} {'e-(w+)':>7} {'e+(w-)':>7} "
          f"{'e-(w-)':>7} {'product agreement':>18}")
    ok = True
    for s in np.linspace(0.0, 1.0, args.steps):
        pair = boxworld_witness_pairs(float(s))
        valid = all(in_state_cone(w.composite, st)[0]
                    for st in (pair.state_plus, pair.state_minus))
        probs = [pair.effect_plus @ pair.state_plus,
                 pair.effect_minus @ pair.state_plus,
                 pair.effect_plus @ pair.state_minus,
                 pair.effect_minus @ pair.state_minus]
        agree = verify_local_indistinguishability(
            pair.state_plus, pair.state_minus, twa, twb)
        ok &= valid and abs(probs[0] - 1) < 1e-12 and abs(probs[3] - 1) < 1e-12
        print(f"{s:>6.2f} {str(valid):>6} "
              + " ".join(f"{p:>7.4f}" for p in probs)
              + f" {agree:>18.2e}")
    if ok:
        print("the invariant coin answers with certainty at every s; "
              "products of invariant local effects never notice")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
