"""Outside-in span tracer for the benchmark's traced run.

The tracer wraps public functions of twirlab's layers without touching the
package: each wrapper is bound in every loaded ``twirlab`` module that holds
the original under any name, so calls made inside and across modules pass
through it too (``pipeline.validate_system``, ``analysis.in_state_cone``,
``linprog`` in both ``core`` and ``analysis``).  ``restore`` puts every
original back.

A span is (name, start, end, parent span, analysis id).  Spans live in flat
arrays while the run lasts and are written out with ``save`` at its end.
Counters ride along at the same boundaries: distinct vector keys for the
membership and eigenvalue calls, and successful outcomes for the convex
membership programs.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

# vectors are keyed like the library's dedup key (core._vec_key): rounded
# to 10 decimals, -0.0 folded into 0.0, and nothing else, so the same vector
# tested against two systems of one analysis counts once
KEY_DECIMALS = 10

WRAPPED = "__perfbench_wrapped__"


def vec_key(v) -> int:
    r = np.round(np.asarray(v, dtype=float), KEY_DECIMALS)
    r[r == 0.0] = 0.0
    return hash(r.tobytes())


@dataclass(frozen=True)
class Target:
    """One function to wrap, named by the module that defines it."""

    module: str
    attr: str
    name: str = ""                     # span name; default "<layer>.<attr>"
    key_arg: int | None = None         # position of the vector keyed for distinct_frac
    key_group: str = ""                # keys pooled under this name
    outcome: Callable | None = None    # result -> bool, counted when true
    outermost: bool = False            # recursive calls join the outer span

    @property
    def span(self) -> str:
        return self.name or f"{self.module.rsplit('.', 1)[-1]}.{self.attr}"


TARGETS = (
    Target("twirlab.catalog", "build_world"),
    Target("twirlab.catalog", "bosonic_parameter_counts"),
    Target("twirlab.symmetry", "build_finite_action"),
    Target("twirlab.symmetry", "twirl_projector"),
    Target("twirlab.symmetry", "verify_twirl_laws"),
    Target("twirlab.model", "parse_model"),
    Target("twirlab.model", "canonical_bytes"),
    Target("twirlab.core", "validate_system"),
    Target("twirlab.core", "check_steering_closure"),
    Target("twirlab.core", "in_effect_set", key_arg=1),
    Target("twirlab.core", "in_state_cone", key_arg=1),
    Target("twirlab.core", "convex_membership", outcome=lambda r: r.member),
    Target("twirlab.core", "numerical_rank"),
    Target("scipy.optimize", "linprog", name="core.linprog"),
    Target("twirlab.hermitian", "min_eigenvalue", key_arg=0,
           key_group="hermitian.eig"),
    Target("twirlab.hermitian", "operator_interval_residual", key_arg=0,
           key_group="hermitian.eig"),
    Target("twirlab.hermitian", "unvectorize_dims", outermost=True),
    Target("twirlab.analysis", "build_twirled_world"),
    Target("twirlab.analysis", "check_tomographic_completeness"),
    Target("twirlab.analysis", "rank_stability"),
    Target("twirlab.analysis", "locality_verdict"),
    Target("twirlab.analysis", "verify_local_indistinguishability"),
    Target("twirlab.analysis", "sector_block_residual"),
    Target("twirlab.pipeline", "run_analysis"),
    Target("twirlab.pipeline", "_ubiquity_section"),
    Target("twirlab.pipeline", "_sector_residuals"),
)

# pipeline stages, read off the direct children of a run_analysis span
STAGES = {
    "core.validate_system": "validation",
    "symmetry.verify_twirl_laws": "laws",
    "analysis.build_twirled_world": "twirl",
    "analysis.check_tomographic_completeness": "twirl",
    "analysis.rank_stability": "twirl",
    "analysis.locality_verdict": "verdict",
    "analysis.verify_local_indistinguishability": "verdict",
    "catalog.bosonic_parameter_counts": "verdict",
    "pipeline._ubiquity_section": "invariant_pair",
    "core.check_steering_closure": "steering",
    "pipeline._sector_residuals": "sectors",
}
STAGE_NAMES = tuple(dict.fromkeys(STAGES.values()))


def _twirlab_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "twirlab" or n.startswith("twirlab."))]


class Tracer:
    """Spans and counters of one traced run.

    ``with tracer:`` installs the wrappers for one traced stretch of the run
    and restores the originals when it ends.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.aid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.analysis_id = -1
        self.analysis_labels: list[str] = []
        self._stack: list[int] = []
        self._keys: dict[str, set] = {}
        self.key_calls: Counter = Counter()
        self.distinct: Counter = Counter()
        self.successes: Counter = Counter()
        self._bindings: list[tuple] = []
        self.missing: list[str] = []

    # ------------------------------------------------------------ spans

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.aid.append(self.analysis_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    @contextmanager
    def setup(self):
        """Spans of building the inputs; traced once per run."""
        try:
            with self.span("bench.setup"):
                yield
        finally:
            self._fold_keys()

    @contextmanager
    def analysis(self, label: str):
        """Spans opened inside share a new analysis id; vector keys are
        counted distinct within one analysis."""
        self.analysis_id = len(self.analysis_labels)
        self.analysis_labels.append(label)
        try:
            with self.span("bench.analysis"):
                yield
        finally:
            self._fold_keys()
            self.analysis_id = -1

    def _fold_keys(self) -> None:
        for group, keys in self._keys.items():
            self.distinct[group, self.analysis_id < 0] += len(keys)
        self._keys.clear()

    # ------------------------------------------------------------ wrapping

    def _wrap(self, fn, t: Target):
        nid = self._id(t.span)
        group = t.key_group or t.span
        depth = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nonlocal depth
            if t.outermost and depth:
                return fn(*args, **kwargs)
            if t.key_arg is not None:
                self.key_calls[group, self.analysis_id < 0] += 1
                self._keys.setdefault(group, set()).add(vec_key(args[t.key_arg]))
            depth += 1
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
                depth -= 1
            if t.outcome is not None and t.outcome(result):
                self.successes[t.span, self.analysis_id < 0] += 1
            return result

        setattr(wrapper, WRAPPED, fn)
        return wrapper

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        modules = _twirlab_modules()
        self.missing = []
        for t in TARGETS:
            orig = getattr(sys.modules.get(t.module), t.attr, None)
            if orig is None:
                self.missing.append(f"{t.module}.{t.attr}")
                continue
            if hasattr(orig, WRAPPED):
                raise RuntimeError(f"{t.module}.{t.attr} is wrapped already")
            wrapper = self._wrap(orig, t)
            for m in modules:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        setattr(m, k, wrapper)
                        self._bindings.append((m, k, orig))

    def restore(self) -> None:
        while self._bindings:
            m, k, orig = self._bindings.pop()
            setattr(m, k, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # ------------------------------------------------------------ output

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=np.asarray(self.name),
            parent=np.asarray(self.parent), aid=np.asarray(self.aid),
            start=np.asarray(self.start), end=np.asarray(self.end),
            analysis_labels=np.array(self.analysis_labels))

    def summary(self, passes: int) -> dict:
        """Per-layer metrics of one set-up plus one analysis pass.

        Set-up spans (analysis id -1) are traced once; analysis spans are
        summed over `passes` traced passes and divided by it.  Counts stay
        whole numbers when every pass made the same calls, and each ratio
        is taken over the same set-up plus one pass.
        """
        name = np.asarray(self.name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        in_setup = np.asarray(self.aid, dtype=np.int64) < 0
        dur = np.asarray(self.end) - np.asarray(self.start)
        n_names = len(self.names)
        has_parent = parent >= 0
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        weight = np.where(in_setup, 1.0, 1.0 / passes)
        self_s = np.bincount(name, weights=weight * (dur - child), minlength=n_names)

        def per_run(setup: int, total: int):
            """Set-up count plus the count of one pass."""
            whole, rem = divmod(total, passes)
            return setup + (total / passes if rem else whole)

        def spans(mask):
            return per_run(int(np.sum(mask & in_setup)), int(np.sum(mask & ~in_setup)))

        def counted(counter: Counter, key: str):
            return per_run(counter[key, True], counter[key, False])

        def nid(span):
            return self._ids.get(span, -1)

        def calls(span):
            return spans(name == nid(span))

        def secs(span):
            i = nid(span)
            return float(self_s[i]) if i >= 0 else 0.0

        def ratio(num, den):
            return float(num) / float(den) if den else 0.0

        def distinct_frac(group):
            return ratio(counted(self.distinct, group), counted(self.key_calls, group))

        # stages: direct children of run_analysis spans
        stage_s = dict.fromkeys(STAGE_NAMES, 0.0)
        for i in np.flatnonzero(parent_name == nid("pipeline.run_analysis")):
            stage = STAGES.get(self.names[name[i]])
            if stage is not None:
                stage_s[stage] += float(weight[i] * dur[i])

        # in_effect_set calls that fell through to a membership program
        eff = name == nid("core.in_effect_set")
        cm = name == nid("core.convex_membership")
        went_to_lp = np.zeros(len(dur), dtype=bool)
        went_to_lp[parent[cm & (parent_name == nid("core.in_effect_set"))]] = True

        eig = ("hermitian.min_eigenvalue", "hermitian.operator_interval_residual")
        out = {
            "catalog.build_world.s": secs("catalog.build_world"),
            "symmetry.build_finite_action.calls": calls("symmetry.build_finite_action"),
            "symmetry.build_finite_action.s": secs("symmetry.build_finite_action"),
            "symmetry.twirl_projector.calls": calls("symmetry.twirl_projector"),
            "symmetry.twirl_projector.s": secs("symmetry.twirl_projector"),
            "symmetry.verify_twirl_laws.s": secs("symmetry.verify_twirl_laws"),
            "model.parse_model.s": secs("model.parse_model"),
            "model.canonical_bytes.s": secs("model.canonical_bytes"),
            "core.check_steering_closure.s": secs("core.check_steering_closure"),
            "core.in_effect_set.calls": spans(eff),
            "core.in_effect_set.s": secs("core.in_effect_set"),
            "core.in_effect_set.distinct_frac": distinct_frac("core.in_effect_set"),
            "core.in_effect_set.lp_frac": ratio(spans(went_to_lp & eff), spans(eff)),
            "core.in_state_cone.calls": calls("core.in_state_cone"),
            "core.in_state_cone.s": secs("core.in_state_cone"),
            "core.in_state_cone.distinct_frac": distinct_frac("core.in_state_cone"),
            "core.convex_membership.calls": spans(cm),
            "core.convex_membership.s": secs("core.convex_membership"),
            "core.convex_membership.member_frac": ratio(
                counted(self.successes, "core.convex_membership"), spans(cm)),
            "core.lp_solves": calls("core.linprog"),
            "core.validate_system.calls": calls("core.validate_system"),
            "core.validate_system.s": secs("core.validate_system"),
            "core.numerical_rank.calls": calls("core.numerical_rank"),
            "hermitian.eig.calls": sum(calls(e) for e in eig),
            "hermitian.eig.s": sum(secs(e) for e in eig),
            "hermitian.eig.distinct_frac": distinct_frac("hermitian.eig"),
            "hermitian.unvectorize_dims.calls": calls("hermitian.unvectorize_dims"),
            "hermitian.unvectorize_dims.s": secs("hermitian.unvectorize_dims"),
            "analysis.build_twirled_world.s": secs("analysis.build_twirled_world"),
            "analysis.sector_block_residual.calls": calls("analysis.sector_block_residual"),
            "analysis.sector_block_residual.s": secs("analysis.sector_block_residual"),
            "analysis.locality_verdict.s": secs("analysis.locality_verdict"),
        }
        for stage in STAGE_NAMES:
            out[f"stage.{stage}.s"] = stage_s[stage]
        out["pipeline.run_analysis.self_s"] = secs("pipeline.run_analysis")
        return out


def wrapped_names() -> list[str]:
    """Names in loaded twirlab modules still bound to a tracer wrapper."""
    return [f"{m.__name__}.{k}" for m in _twirlab_modules()
            for k, v in vars(m).items() if hasattr(v, WRAPPED)]
