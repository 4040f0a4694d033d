"""twirlab benchmark: time to a verified report, end to end or layer by layer.

    python3 perfbench/run.py --workload {pointer6,bosonic3,ladder} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere; the program under test is ``src/twirlab`` next to this
directory, imported from source.  One process runs one workload with one
BLAS thread.  ``--trace 0`` measures set-up, analysis time and peak memory
untraced.  ``--trace 1`` alternates untraced passes with passes traced by
``tracer.py`` and reports per-layer counts and self times, writing the
spans to ``perfbench/out/<workload>.spans.npz``.  Every report is checked
for correctness either way.  All metrics are printed by name with their
units; the last line of standard output is one JSON object (correct,
attempted, failed, metrics) with the metrics ``BENCHMARK.json`` lists for
the mode.  See NOTES.md.
"""

import os

# pinned before numpy loads: one BLAS thread per process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("pointer6", "bosonic3", "ladder"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _unit(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith(".calls") or name == "core.lp_solves":
        return "count"
    if name.endswith("_frac"):
        return "ratio"
    return "s"


def main(argv=None) -> int:
    args = _args(argv)
    needed = [SRC / "twirlab" / "__init__.py", ROOT / "tests" / "golden",
              ROOT / "models", ROOT / "BENCHMARK.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"error: not a twirlab checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import harness
    from tracer import Tracer, wrapped_names

    env = harness.environment(args.seed)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    items = harness.world_order(args.workload, args.seed)
    expected = harness.load_expected()
    goldens = harness.load_goldens(items)

    scale = harness.SpeedScale()
    setup_times, setup_wall, worlds = harness.timed_set_up(items, args.seed, scale)
    setup_s = statistics.median(setup_times)
    tracer = None
    if args.trace:
        tracer = Tracer()
        with tracer, tracer.setup():
            worlds = harness.set_up(items, args.seed)

    outcome = harness.run_passes(worlds, args.seconds, expected, goldens, scale, tracer)

    for label, payload in outcome.first_bytes.items():
        print(f"report {label} sha256={hashlib.sha256(payload).hexdigest()}")
    for problem in outcome.problems[:20]:
        print(f"FAILED {problem}")

    analyze_s = statistics.median(outcome.pass_s)
    failed_frac = outcome.failed / outcome.attempted
    print(f"setup_s {setup_s:.6f} s at nominal speed (median of {len(setup_times)} "
          f"set-ups; {statistics.median(setup_wall):.6f} s as measured)")
    print(f"analyze_s {analyze_s:.6f} s at nominal speed (median of "
          f"{len(outcome.pass_s)} passes; {statistics.median(outcome.wall_pass_s):.6f} s "
          "as measured: " + " ".join(f"{t:.4f}" for t in outcome.wall_pass_s) + ")")
    upper = harness.upper_percentile(outcome.pass_s)
    if upper is not None:
        print(f"analyze_s.p{upper[0]} {upper[1]:.6f} s")
    print(f"peak_rss_mb {harness.peak_rss_mb():.3f} MB")
    print(f"failed_frac {failed_frac:.6g} ratio "
          f"({outcome.failed} of {outcome.attempted} analyses)")

    if tracer is None:
        metrics = {"setup_s": setup_s, "analyze_s": analyze_s,
                   "peak_rss_mb": harness.peak_rss_mb()}
    else:
        metrics = tracer.summary(len(outcome.traced_pass_s))
        metrics["trace.overhead_frac"] = (
            statistics.median(outcome.traced_pass_s) / analyze_s - 1.0)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"{args.workload}.spans.npz")
        if tracer.missing:
            print("trace: not found, left untraced: " + ", ".join(tracer.missing))
        leftover = wrapped_names()
        if leftover:
            print("error: tracer wrappers left in place: " + ", ".join(leftover),
                  file=sys.stderr)
            return 1
        for k, v in metrics.items():
            print(f"{k} {v:.6g} {_unit(k)}")

    # the result line carries the metrics BENCHMARK.json lists for this mode
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [m["name"] for m in spec["per_layer" if tracer else "end_to_end"]]
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": metrics[k], "unit": _unit(k)} for k in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
