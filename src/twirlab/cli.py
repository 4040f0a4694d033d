"""Command line front end.

Models are JSON files or builtin references like
``builtin:pointer_discrete?n=4``.  Subcommands, with the pipeline stages
each runs: validate (structural checks: the validation stage, plus
steering closure of the base composite), lemmas (averaging identities
on random probes: the laws stage), analyze (the full pipeline, every
stage), witness (the separating state pairs: the validation stage,
which refuses an invalid world, then the twirl, verdict and
invariant_pair stages), list (the builtin catalog).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import pipeline
from ._version import __version__
from .catalog import BUILTINS, build_world
from .core import check_steering_closure
from .errors import InconsistentWorlds, TwirlabError, ValidationFailure
from .model import check_option, parse_builtin_ref, parse_model

_GREEN = "\x1b[32m"
_RED = "\x1b[31m"
_DIM = "\x1b[2m"
_RESET = "\x1b[0m"


def _use_color(stream) -> bool:
    if os.environ.get("TWIRLAB_NO_COLOR"):
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def _paint(text: str, stream=None) -> str:
    stream = stream or sys.stdout
    if not _use_color(stream):
        return text
    out = text.replace("[pass]", f"[{_GREEN}pass{_RESET}]")
    out = out.replace("[FAIL]", f"[{_RED}FAIL{_RESET}]")
    return out.replace("[skip]", f"[{_DIM}skip{_RESET}]")


def _load(args):
    """Resolve the model reference to (bundle, options, digest); flags
    override the options the model file sets, its group closure's tol
    included."""
    flags = _flag_options(args)
    if args.model.startswith("builtin:"):
        name, params = parse_builtin_ref(args.model)
        return build_world(name, params), pipeline.Options(**flags), None
    mf = parse_model(args.model, tol=flags.get("tol"))
    return mf.bundle, pipeline.Options(**{**mf.options, **flags}), mf.digest


def _flag_options(args) -> dict:
    values = {}
    for key, flag in (("tol", "--tol"), ("rank_tol", "--rank-tol"),
                      ("seed", "--seed"), ("trials", "--trials")):
        value = getattr(args, key, None)
        if value is not None:
            check_option(key, value, flag)
            values[key] = value
    return values


def _cmd_list(args) -> int:
    width = max(len(n) for n in BUILTINS)
    for name, entry in sorted(BUILTINS.items()):
        dtxt = ", ".join(f"{k}={v}" for k, v in sorted(entry.defaults.items()))
        print(f"{name:<{width}}  {entry.description}" + (f"  [{dtxt}]" if dtxt else ""))
    return 0


def _cmd_validate(args) -> int:
    run = pipeline.start(*_load(args))
    pipeline.validation(run)
    bundle = run.bundle
    ok = True
    for sid, rep in run.validation.items():
        ok &= rep.passed
        kind = "composite" if bundle.bipartite and sid == bundle.composite.id else "system"
        print(_paint(f"[{'pass' if rep.passed else 'FAIL'}] {kind} {sid}: "
                     f"worst residual {rep.worst():.2e}"))
        for c in rep.checks:
            if not c.passed:
                print(_paint(f"  [FAIL] {c.name}: residual {c.residual:.2e}"
                             + (f" ({c.detail})" if c.detail else "")))
    if bundle.bipartite:
        steer = check_steering_closure(bundle.composite, run.options.tol)
        ok &= steer.passed
        print(_paint(f"[{'pass' if steer.passed else 'FAIL'}] steering closure: "
                     f"{steer.n_state_checks} marginal and {steer.n_effect_checks} "
                     f"steered-effect checks"))
    return 0 if ok else 1


def _cmd_lemmas(args) -> int:
    run = pipeline.start(*_load(args))
    pipeline.laws(run)
    rep, tol = run.laws, run.options.tol
    rows = [("absorption from the left", rep.left_invariance),
            ("absorption from the right", rep.right_invariance),
            ("idempotence", rep.idempotence)]
    rows += sorted(rep.consistency.items())
    ok = True
    for name, res in rows:
        good = res <= tol
        ok &= good
        print(_paint(f"[{'pass' if good else 'FAIL'}] {name.replace('_', ' ')}: "
                     f"max residual {res:.2e} over {rep.trials} probes"))
    return 0 if ok else 1


def _cmd_analyze(args) -> int:
    report = pipeline.run_analysis(*_load(args))
    payload = report.to_bytes()
    if args.report:
        with open(args.report, "wb") as fh:
            fh.write(payload)
        print(f"report written to {args.report}", file=sys.stderr)
    if args.format == "json":
        sys.stdout.write(payload.decode("ascii"))
    else:
        print(_paint(pipeline.render_text(report.data)))
    return 0


def _cmd_witness(args) -> int:
    run = pipeline.start(*_load(args))
    if not run.bundle.bipartite:
        raise InconsistentWorlds("witness construction needs a bipartite world")
    pipeline.validation(run)
    for sid, rep in run.validation.items():
        if not rep.passed:
            bad = ", ".join(c.name for c in rep.checks if not c.passed)
            raise ValidationFailure(f"system {sid} fails validation: {bad}")
    for stage in (pipeline.twirl, pipeline.verdict, pipeline.invariant_pair):
        stage(run)
    loc = run.data.get("locality", {})
    w = loc.get("witness")
    if w:
        print("locality witness: invariant joint states with identical product "
              "statistics")
        print(f"  state 1: {w['state_1']}")
        print(f"  state 2: {w['state_2']}")
        print(f"  agreement on products of invariant local effects: "
              f"{w['product_effect_discrepancy']:.2e}")
        print(f"  separating invariant effect index {w['separating_index']}, "
              f"gap {w['separating_gap']:.6g}")
    elif loc.get("witness_error"):
        print(f"no locality witness: {loc['witness_error']}")
    else:
        print("no locality witness: the twirled world is locally tomographic")
    ub = run.data.get("ubiquity", {})
    if ub and not ub.get("trivial_action"):
        print("correlated/product invariant pair:")
        print(f"  product state:    {ub['product_state']}")
        print(f"  correlated state: {ub['correlated_state']}")
        print(f"  separation {ub['separation']:.6g}, local statistics agree to "
              f"{ub['local_indistinguishability']:.2e}")
        if ub.get("separated"):
            print(f"  separable by invariant effect {ub['separating_index']} "
                  f"(gap {ub['separating_gap']:.6g})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="twirlab",
        description="symmetry-averaged worlds: construction, verification, "
                    "and locality analysis")
    ap.add_argument("--version", action="version", version=f"twirlab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    defaults = pipeline.Options()

    def add_model(p):
        p.add_argument("model", help="model file path or builtin:name?k=v")
        p.add_argument("--tol", type=float, default=None,
                       help=f"verification tolerance (default {defaults.tol:g})")
        p.add_argument("--rank-tol", dest="rank_tol", type=float, default=None,
                       help=f"relative singular-value cutoff (default {defaults.rank_tol:g})")
        p.add_argument("--seed", type=int, default=None,
                       help=f"probe RNG seed (default {defaults.seed})")

    p = sub.add_parser("validate", help="structural checks on the base world")
    add_model(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("lemmas", help="averaging identities on random probes")
    add_model(p)
    p.add_argument("--trials", type=int, default=None,
                   help=f"number of probe vectors (default {defaults.trials})")
    p.set_defaults(func=_cmd_lemmas)

    p = sub.add_parser("analyze", help="full verification and locality analysis")
    add_model(p)
    p.add_argument("--report", metavar="PATH", default=None,
                   help="also write the canonical JSON report to PATH")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="stdout format (default text)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("witness", help="print the separating state pairs")
    add_model(p)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("list", help="available builtin worlds")
    p.set_defaults(func=_cmd_list)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TwirlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
