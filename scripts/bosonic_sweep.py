"""Sweep the occupation cutoff of the phase-averaged two-mode world.

For each cutoff N the invariant joint states are counted three ways: the
rank of the averaged two-mode products restricted back to total
occupation <= N, the unrestricted rank, and the closed-form sector sums
they must equal.  The restricted column grows like the sum of squared
sector dimensions 1^2 + ... + (N+1)^2 while a naive product count would
give (N+1)^2; the gap is the locality failure growing without bound.
"""

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from twirlab.catalog import bosonic_parameter_counts, bosonic_sector_formula  # noqa: E402
from twirlab.core import DEFAULT_RANK_TOL  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--nmax", type=int, default=5, help="largest cutoff (default 5)")
    ap.add_argument("--rank-tol", type=float, default=DEFAULT_RANK_TOL,
                    help=f"relative singular-value cutoff (default {DEFAULT_RANK_TOL:g})")
    args = ap.parse_args()

    print(f"{'N':>3} {'single':>7} {'restricted':>11} {'formula':>8} "
          f"{'full':>6} {'formula':>8} {'product':>8} {'time':>7}")
    ok = True
    for n in range(1, args.nmax + 1):
        t0 = time.time()
        c = bosonic_parameter_counts(n, args.rank_tol)
        rf, ff = bosonic_sector_formula(n)
        match = (c["restricted"] == rf and c["full"] == ff
                 and c["single_mode"] == n + 1)
        ok &= match
        local_product = (n + 1) ** 2  # what local tomography would allow
        flag = "" if match else "  MISMATCH"
        print(f"{n:>3} {c['single_mode']:>7} {c['restricted']:>11} {rf:>8} "
              f"{c['full']:>6} {ff:>8} {local_product:>8} "
              f"{time.time() - t0:>6.2f}s{flag}")
    if ok:
        print("every computed rank matches its sector formula")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
