"""Print the sha256 of the canonical report of each builtin world of the ladder.

One line per run on stdout, `world params seed sha256`, so the output of
two commits can be diffed to show that no report byte moved.  Seconds
per run go to stderr, split into building the world and analysing it
(`run_analysis` plus `to_bytes`); stderr ends with one line per seed that
totals both over all its worlds, so two commits compare at a glance.  The
ladder is cbit, boxworld, pointer_discrete n=2..6, spinor_su2 n=1..3 and
bosonic_u1 N=1..3 with one and two modes; `--with-n4` adds bosonic_u1
N=4 with two modes (several seconds a run).

The script runs with one BLAS thread, whatever the caller's environment
says: the bosonic_u1 N=4 report changes with the BLAS thread count, so
its hash is only comparable across runs at a fixed count.

    python3 scripts/report_hashes.py --seeds 1 42 > before.txt
"""

import os

# pinned before numpy loads: one BLAS thread per process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from twirlab.catalog import build_world  # noqa: E402
from twirlab.pipeline import Options, run_analysis  # noqa: E402

LADDER = ([("cbit_bitflip", {}), ("boxworld_reflection", {})]
          + [("pointer_discrete", {"n": n}) for n in range(2, 7)]
          + [("spinor_su2", {"n": n}) for n in (1, 2, 3)]
          + [("bosonic_u1", {"N": N, "modes": m}) for N in (1, 2, 3) for m in (1, 2)])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 42],
                    help="probe seeds to run every world at (default 1 42)")
    ap.add_argument("--with-n4", action="store_true",
                    help="also run bosonic_u1 N=4 with two modes")
    args = ap.parse_args()

    worlds = LADDER + ([("bosonic_u1", {"N": 4, "modes": 2})] if args.with_n4 else [])
    totals = {}
    for seed in args.seeds:
        build = analysis = 0.0
        for name, params in worlds:
            t0 = time.perf_counter()
            bundle = build_world(name, dict(params))
            t1 = time.perf_counter()
            payload = run_analysis(bundle, Options(seed=seed)).to_bytes()
            t2 = time.perf_counter()
            ptxt = ",".join(f"{k}={v}" for k, v in sorted(params.items())) or "-"
            print(f"{name} {ptxt} {seed} {hashlib.sha256(payload).hexdigest()}",
                  flush=True)
            print(f"{name} {ptxt} {seed}: build {t1 - t0:.3f} s, "
                  f"analysis {t2 - t1:.3f} s", file=sys.stderr)
            build += t1 - t0
            analysis += t2 - t1
        totals[seed] = build, analysis
    for seed, (build, analysis) in totals.items():
        print(f"seed {seed} total over {len(worlds)} worlds: build {build:.3f} s, "
              f"analysis {analysis:.3f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
