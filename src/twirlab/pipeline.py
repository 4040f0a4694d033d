"""End-to-end analysis of a symmetric world, in named stages.

start() opens a run (an AnalysisReport) and each stage in STAGES fills in
its section: system validation, averaging laws, twirled worlds, locality
verdict and witness, invariant pair, steering closure and, for quantum
worlds with a known sector structure, the block form of the invariants.
verdict, invariant_pair and steering skip a one-part world.  run_analysis
runs every stage and averages each action once.  The report is a plain
dict with a canonical byte serialization, identical across repeated runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ._version import __version__
from .analysis import (
    LocalityVerdict,
    TwirledWorld,
    build_twirled_world,
    check_tomographic_completeness,
    find_separating_invariant_effect,
    locality_verdict,
    rank_stability,
    sector_block_residual,
    transformation_pair_witness,
    ubiquity_witnesses,
    verify_local_indistinguishability,
)
from .catalog import WorldBundle
from .core import (
    DEFAULT_RANK_TOL,
    DEFAULT_TOL,
    SteeringReport,
    SystemSpec,
    _row_blocks,
    check_steering_closure,
    validate_system,
)
from .errors import NotSeparable, TrivialAction
from .hermitian import unvectorize_dims
from .model import canonical_bytes, check_option
from .symmetry import GroupAction, LawReport, TwirlProjector, twirl_projector, verify_twirl_laws

REPORT_SCHEMA = "twirlab-report/1"


@dataclass
class Options:
    tol: float = DEFAULT_TOL
    rank_tol: float = DEFAULT_RANK_TOL
    seed: int = 42
    trials: int = 200

    def __post_init__(self):
        for key, value in self.as_dict().items():
            check_option(key, value, f"Options.{key}")

    def as_dict(self) -> dict:
        return {"tol": self.tol, "rank_tol": self.rank_tol,
                "seed": self.seed, "trials": self.trials}


@dataclass
class AnalysisReport:
    """One run over a world: the report dict and the objects behind it."""

    data: dict
    bundle: WorldBundle
    options: Options = field(default_factory=Options)
    validation: dict = field(default_factory=dict)  # system id -> base ValidationReport
    twirled: dict = field(default_factory=dict)  # system id -> TwirledWorld
    laws: LawReport | None = None
    verdict: LocalityVerdict | None = None
    _projectors: dict = field(default_factory=dict, init=False, repr=False)

    def projector(self, action: GroupAction) -> TwirlProjector:
        """The average over action, formed on first use in this run (keyed by
        id(action); the projector's .action keeps that id taken)."""
        p = self._projectors.get(id(action))
        if p is None:
            p = self._projectors[id(action)] = twirl_projector(action, self.options.tol)
        return p

    def split(self) -> list[TwirledWorld]:
        """Twirled worlds of part A, part B and the composite."""
        return [self.twirled[s.id] for s, _ in self.bundle.system_actions]

    def to_bytes(self) -> bytes:
        return canonical_bytes(self.data)


def _validation_dict(rep) -> dict:
    return {
        "passed": rep.passed,
        "worst_residual": float(rep.worst()),
        "checks": [{"name": c.name, "passed": c.passed,
                    "residual": float(c.residual)} for c in rep.checks],
    }


def _laws_dict(rep: LawReport) -> dict:
    return {
        "trials": rep.trials,
        "left_invariance": float(rep.left_invariance),
        "right_invariance": float(rep.right_invariance),
        "idempotence": float(rep.idempotence),
        "consistency": {k: float(v) for k, v in sorted(rep.consistency.items())},
        "max_residual": float(rep.max_residual),
    }


def _steering_dict(rep: SteeringReport) -> dict:
    return {
        "passed": rep.passed,
        "state_checks": rep.n_state_checks,
        "effect_checks": rep.n_effect_checks,
        "max_state_residual": float(rep.max_state_residual),
        "max_effect_residual": float(rep.max_effect_residual),
    }


def _first_moved_state(s: SystemSpec, action, tol: float):
    """First listed state generator displaced by some group element."""
    for i in range(s.n_states):
        v = s.state_generators[:, i]
        for m in action.elements:
            if float(np.max(np.abs(m @ v - v))) > tol:
                return v, i
    return None, -1


def _sector_residuals(bundle: WorldBundle, twirled: dict) -> dict:
    out = {}
    for sid, oracle in bundle.sectors.items():
        tw = twirled.get(sid)
        if tw is None:
            continue
        worst = 0.0
        # generators as rows, rebuilt and checked one bounded stack at a time
        for rows in (tw.world.state_generators.T, tw.world.effect_generators):
            for block in _row_blocks(*rows.shape):
                ops = unvectorize_dims(rows[block], oracle.hilbert_dims)
                worst = max(worst, np.max(sector_block_residual(
                    ops, oracle.projectors, oracle.scalar_sectors)))
        out[sid] = float(worst)
    return out


# ------------------------------------------------------------------- stages


def start(bundle: WorldBundle, options: Options | None = None,
          model_digest: str | None = None) -> AnalysisReport:
    """A run over bundle whose report holds only its header."""
    opt = options or Options()
    data = {
        "schema": REPORT_SCHEMA,
        "tool_version": __version__,
        "model": {"name": bundle.name, "kind": bundle.kind,
                  "params": dict(bundle.params)},
        "options": opt.as_dict(),
    }
    if model_digest is not None:
        data["model"]["digest"] = model_digest
    if bundle.notes:
        data["model"]["notes"] = bundle.notes
    return AnalysisReport(data=data, bundle=bundle, options=opt)


def validation(run: AnalysisReport) -> None:
    """The parts, then the composite, are valid worlds."""
    systems = {}
    for s, _ in run.bundle.system_actions:
        rep = run.validation[s.id] = validate_system(s, run.options.tol)
        systems[s.id] = {
            "dim": s.dim, "n_states": s.n_states, "n_effects": s.n_effects,
            "validation": _validation_dict(rep),
        }
    run.data["systems"] = systems


def laws(run: AnalysisReport) -> None:
    """The averaging identities hold on random probes."""
    b, opt = run.bundle, run.options
    actions = list(b.part_actions) + ([b.collective] if b.collective is not None else [])
    run.laws = verify_twirl_laws([run.projector(a) for a in actions],
                                 trials=opt.trials, seed=opt.seed)
    run.data["twirl_laws"] = _laws_dict(run.laws)


def twirl(run: AnalysisReport) -> None:
    """Each system averaged over its action, with its invariant tomography checked."""
    opt = run.options
    section = {}
    for s, action in run.bundle.system_actions:
        tw = run.twirled[s.id] = build_twirled_world(
            s, run.projector(action), opt.tol, opt.rank_tol)
        comp_rep = check_tomographic_completeness(tw, opt.rank_tol)
        section[s.id] = {
            "K": tw.K,
            "fixed_point_residual": float(tw.fixed_point_residual),
            "rank_stable": rank_stability(tw),
            "validation": _validation_dict(tw.validation),
            "completeness": {
                "K": comp_rep.K, "invariant_effect_rank": comp_rep.k_effects,
                "pairing_rank": comp_rep.pairing_rank, "passed": comp_rep.passed,
            },
        }
    run.data["twirled"] = section


def verdict(run: AnalysisReport) -> None:
    """Parameter counts and the locality verdict by both routes."""
    if not run.bundle.bipartite:
        return
    opt = run.options
    twa, twb, twab = run.split()
    v = run.verdict = locality_verdict(twa, twb, twab, opt.tol, opt.rank_tol)
    counts = {
        "K_A": v.k_a, "K_B": v.k_b, "K_AB": v.k_ab,
        "K_A_times_K_B": v.k_a * v.k_b,
    }
    if run.bundle.extra_counts is not None:
        counts.update(run.bundle.extra_counts(opt.rank_tol))
    run.data["counts"] = counts

    loc = {
        "criterion_fails_locality": v.criterion_fails_locality,
        "pairing_rank": v.pairing_rank,
        "direct_check_fails": v.direct_check_fails,
        "methods_agree": v.methods_agree,
    }
    if v.witness is not None:
        w = v.witness
        loc["witness"] = {
            "state_1": w.state_1.tolist(),
            "state_2": w.state_2.tolist(),
            "product_effect_discrepancy": float(w.product_effect_discrepancy),
            "separating_gap": float(w.separating_gap),
            "separating_index": w.separating_index,
            "separating_effect": w.separating_effect.tolist(),
        }
    if v.witness_error is not None:
        loc["witness_error"] = v.witness_error
    run.data["locality"] = loc


def invariant_pair(run: AnalysisReport) -> None:
    """The two canonical invariant states that share local statistics."""
    if run.bundle.bipartite:
        run.data["ubiquity"] = _ubiquity_section(run)


def steering(run: AnalysisReport) -> None:
    """Steering closure of the twirled composite, judged with the twirled
    locals as its parts: steered marginals of invariant joint states must
    be (subnormalized) invariant local states."""
    if not run.bundle.bipartite:
        return
    twa, twb, twab = run.split()
    view = replace(twab.world, parts=(twa.world, twb.world))
    projs = None
    if view.hilbert_dims is not None:
        projs = (twa.projector.matrix, twb.projector.matrix)
    run.data["steering"] = {"twirled": _steering_dict(
        check_steering_closure(view, run.options.tol, invariance_projectors=projs))}


def sectors(run: AnalysisReport) -> None:
    """Known sector structure, when the recipe ships one."""
    sec = _sector_residuals(run.bundle, run.twirled)
    if sec:
        run.data["sector_blocks"] = sec


STAGES = (validation, laws, twirl, verdict, invariant_pair, steering, sectors)


def run_analysis(bundle: WorldBundle, options: Options | None = None,
                 model_digest: str | None = None) -> AnalysisReport:
    """Full verification and analysis pass over one world: every stage in order."""
    run = start(bundle, options, model_digest)
    for stage in STAGES:
        stage(run)
    return run


def _ubiquity_section(run: AnalysisReport) -> dict:
    tol = run.options.tol
    part_a, part_b = run.bundle.parts
    act_a, act_b = run.bundle.part_actions
    seed_a, idx_a = _first_moved_state(part_a, act_a, tol)
    seed_b, idx_b = _first_moved_state(part_b, act_b, tol)
    if seed_a is None or seed_b is None:
        return {"trivial_action": True}

    twa, twb, twab = run.split()
    try:
        uw = ubiquity_witnesses((twa.projector, twb.projector, twab.projector),
                                seed_a, tol, seed_b=seed_b)
    except TrivialAction:
        return {"trivial_action": True}

    out = {
        "trivial_action": False,
        "seed_state_indices": [idx_a, idx_b],
        "moving_element": uw.moving_label,
        "separation": float(uw.separation),
        "local_indistinguishability": float(verify_local_indistinguishability(
            uw.correlated_state, uw.product_state, twa, twb)),
        "product_state": uw.product_state.tolist(),
        "correlated_state": uw.correlated_state.tolist(),
    }
    try:
        eff, gap, idx = find_separating_invariant_effect(
            uw.correlated_state, uw.product_state, twab.world.effect_generators, tol)
        out["separating_gap"] = float(gap)
        out["separating_index"] = idx
        out["separating_effect"] = eff.tolist()
        out["separated"] = True
    except NotSeparable:
        out["separated"] = False

    tp = transformation_pair_witness(twa, twb, uw.correlated_state, uw.product_state)
    out["transformation_pair"] = {
        "local_residual": float(tp.local_residual),
        "global_gap": float(tp.global_gap),
        "maps_to_product_residual": float(tp.maps_to_product_residual),
    }
    return out


# ------------------------------------------------------------ text rendering


def _flag(ok: bool) -> str:
    return "pass" if ok else "FAIL"


def render_text(data: dict) -> str:
    """Terminal summary of a report dict, one line per verified fact."""
    lines = []
    model = data.get("model", {})
    params = model.get("params") or {}
    ptxt = ", ".join(f"{k}={v}" for k, v in sorted(params.items()))
    head = f"world: {model.get('name', '?')}"
    if ptxt:
        head += f" ({ptxt})"
    lines.append(head)
    if model.get("notes"):
        lines.append(f"  note: {model['notes']}")
    if "digest" in model:
        lines.append(f"  model digest: {model['digest']}")

    for sid, sec in sorted(data.get("systems", {}).items()):
        v = sec["validation"]
        lines.append(f"[{_flag(v['passed'])}] system {sid}: valid world "
                     f"(dim {sec['dim']}, worst residual {v['worst_residual']:.2e})")

    laws = data.get("twirl_laws")
    if laws:
        lines.append(f"[{_flag(laws['max_residual'] <= data['options']['tol'])}] "
                     f"averaging laws on {laws['trials']} probes "
                     f"(max residual {laws['max_residual']:.2e})")

    for sid, sec in sorted(data.get("twirled", {}).items()):
        ok = sec["validation"]["passed"] and sec["completeness"]["passed"]
        lines.append(f"[{_flag(ok)}] twirled {sid}: valid world, K = {sec['K']}, "
                     f"invariant tomography "
                     f"{'complete' if sec['completeness']['passed'] else 'INCOMPLETE'}"
                     f"{'' if sec['rank_stable'] else ', RANK UNSTABLE'}")

    counts = data.get("counts")
    if counts:
        lines.append(f"  parameters: K_A = {counts['K_A']}, K_B = {counts['K_B']}, "
                     f"K_AB = {counts['K_AB']} vs K_A*K_B = {counts['K_A_times_K_B']}")
        occ = counts.get("occupation_sectors")
        if occ:
            lines.append(f"  occupation sectors: restricted {occ['restricted']} "
                         f"(formula {occ['restricted_formula']}), "
                         f"full {occ['full']} (formula {occ['full_formula']})")

    loc = data.get("locality")
    if loc:
        fails = loc["criterion_fails_locality"]
        lines.append(f"[{_flag(loc['methods_agree'])}] locality verdict: "
                     f"{'FAILS tomographic locality' if fails else 'locally tomographic'} "
                     f"(counting and direct pairing agree: {loc['methods_agree']})")
        w = loc.get("witness")
        if w:
            lines.append(f"  witness pair: agree on products of invariant local "
                         f"effects to {w['product_effect_discrepancy']:.2e}, "
                         f"separated by invariant effect {w['separating_index']} "
                         f"with gap {w['separating_gap']:.6g}")
        if loc.get("witness_error"):
            lines.append(f"  no witness pair: {loc['witness_error']}")

    ub = data.get("ubiquity")
    if ub:
        if ub.get("trivial_action"):
            lines.append("[skip] invariant-pair construction: the action fixes "
                         "every listed state")
        else:
            lines.append(f"  invariant pair from seed states {ub['seed_state_indices']} "
                         f"(moved by element {ub['moving_element']!r}): "
                         f"separation {ub['separation']:.6g}, local statistics agree "
                         f"to {ub['local_indistinguishability']:.2e}")
            if ub.get("separated"):
                lines.append(f"[pass] invariant effect {ub['separating_index']} "
                             f"separates the pair (gap {ub['separating_gap']:.6g})")
            tp = ub.get("transformation_pair")
            if tp:
                lines.append(f"  transformation pair: local action within "
                             f"{tp['local_residual']:.2e} of the identity, joint gap "
                             f"{tp['global_gap']:.6g}, lands on the product state "
                             f"to {tp['maps_to_product_residual']:.2e}")

    st = data.get("steering", {}).get("twirled")
    if st:
        lines.append(f"[{_flag(st['passed'])}] steering closure of the twirled "
                     f"composite ({st['state_checks']} marginal checks, "
                     f"{st['effect_checks']} steered-effect checks)")

    sec = data.get("sector_blocks")
    if sec:
        worst = max(sec.values())
        lines.append(f"[{_flag(worst <= data['options']['tol'])}] invariants respect "
                     f"the known sector blocks (worst off-block residual {worst:.2e})")
    return "\n".join(lines)
