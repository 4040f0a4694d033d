"""Workloads, set-up, timed analysis passes and the correctness gate.

A workload is a list of worlds: builtin recipes, built with
``catalog.build_world``, and shipped model files, read with
``model.parse_model``.  One pass runs ``pipeline.run_analysis`` and
``AnalysisReport.to_bytes`` on every world.  Builtins get ``Options.seed``
from the run's seed, which picks the probes of the averaging laws; in
``ladder`` the seed also shuffles the world order.  Model files keep their
own options, so their report bytes must equal ``tests/golden``.

Every report is checked: builtins against the certified facts in
``expected.json``, models byte for byte against their goldens, and every
world against its own first report of the run.  A raise or a mismatch
counts as a failed analysis.

Timed units (one set-up, one pass) alternate with a fixed speed probe, and
each unit's seconds are also given at nominal machine speed: scaled by
PROBE_NOMINAL_S over the mean of the probes just before and after it.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import resource
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from twirlab import catalog, model, pipeline

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# set-up is short (0.06-0.2 s), so it is repeated for about SETUP_SECONDS,
# at least MIN_SETUPS times, and its median reported
SETUP_SECONDS = 1.5
MIN_SETUPS = 5
MIN_PASSES = 3

# On a shared host the same pass ran up to 1.7x slower for minutes at a
# time, in set-up and analysis alike.  A probe of fixed work, independent of
# twirlab, runs between timed units; it takes about PROBE_NOMINAL_S on a
# quiet 2-core x86-64 VM of the kind the benchmark was written on.
PROBE_ITERATIONS = 2500
PROBE_NOMINAL_S = 0.1

_LADDER_BUILTINS = (
    ("cbit_bitflip", {}),
    ("boxworld_reflection", {}),
    ("pointer_discrete", {"n": 2}),
    ("pointer_discrete", {"n": 3}),
    ("pointer_discrete", {"n": 4}),
    ("spinor_su2", {"n": 1}),
    ("spinor_su2", {"n": 2}),
    ("bosonic_u1", {"N": 1, "modes": 2}),
    ("bosonic_u1", {"N": 1, "modes": 1}),
    ("bosonic_u1", {"N": 2, "modes": 1}),
    ("bosonic_u1", {"N": 3, "modes": 1}),
)
_SHIPPED_MODELS = ("models/cbit_bitflip.json", "models/boxworld_reflection.json")

# a builtin is (recipe, params); a shipped model is its path from the root
WORKLOADS = {
    "pointer6": (("pointer_discrete", {"n": 6}),),
    "bosonic3": (("bosonic_u1", {"N": 3, "modes": 2}),),
    "ladder": _LADDER_BUILTINS + _SHIPPED_MODELS,
}


def builtin_ref(name: str, params: dict) -> str:
    query = "&".join(f"{k}={v}" for k, v in sorted(params.items()))
    return f"{name}?{query}" if query else name


@dataclass
class World:
    label: str
    bundle: object
    options: pipeline.Options
    digest: str | None = None


def probe() -> float:
    """Seconds taken by a fixed mix of the work twirlab's hot loops do:
    Python-level iteration, rounding and hashing of vectors, small products
    and reductions, and a small symmetric eigensolve."""
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((64, 36))
    v = rng.standard_normal(36)
    h = rng.standard_normal((8, 8))
    h = h + h.T
    m = rng.standard_normal((16, 16))
    seen = {}
    t0 = time.perf_counter()
    for i in range(PROBE_ITERATIONS):
        r = np.round(v + i, 10)
        r[r == 0.0] = 0.0
        seen[r.tobytes()] = i
        norms = np.einsum("ij,ij->i", rows, rows)
        coefs = (rows @ v) / norms
        float(np.max(np.abs(v[None, :] - coefs[:, None] * rows)))
        float(np.linalg.eigvalsh(h)[0])
        m @ m
    return time.perf_counter() - t0


class SpeedScale:
    """Seconds of a unit at nominal machine speed, from the probes run just
    before and just after it."""

    def __init__(self):
        probe()  # warm-up
        self._before = probe()

    def __call__(self, seconds: float) -> float:
        after = probe()
        scaled = seconds * 2.0 * PROBE_NOMINAL_S / (self._before + after)
        self._before = after
        return scaled


@dataclass
class Outcome:
    """Timed passes and checked reports of one run."""

    pass_s: list = field(default_factory=list)          # at nominal speed
    wall_pass_s: list = field(default_factory=list)     # as measured
    traced_pass_s: list = field(default_factory=list)   # at nominal speed
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    first_bytes: dict = field(default_factory=dict)   # label -> report bytes


def world_order(workload: str, seed: int) -> list:
    items = list(WORKLOADS[workload])
    if workload == "ladder":
        random.Random(seed).shuffle(items)
    return items


def set_up(items, seed: int) -> list[World]:
    """Build the inputs: one bundle per builtin, one parsed model per file."""
    worlds = []
    for item in items:
        if isinstance(item, str):
            mf = model.parse_model(str(ROOT / item))
            opt = pipeline.Options()
            for k, v in mf.options.items():
                setattr(opt, k, v)
            worlds.append(World(item, mf.bundle, opt, mf.digest))
        else:
            name, params = item
            worlds.append(World(builtin_ref(name, params),
                                catalog.build_world(name, dict(params)),
                                pipeline.Options(seed=seed)))
    return worlds


def timed_set_up(items, seed: int, scale: SpeedScale):
    """Set-up seconds of each repeat at nominal speed and as measured, and
    the last build."""
    scaled, wall = [], []
    while len(wall) < MIN_SETUPS or sum(wall) < SETUP_SECONDS:
        t0 = time.perf_counter()
        worlds = set_up(items, seed)
        wall.append(time.perf_counter() - t0)
        scaled.append(scale(wall[-1]))
    return scaled, wall, worlds


# ------------------------------------------------------------ correctness


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())


def load_goldens(items) -> dict:
    return {item: (ROOT / "tests" / "golden" / f"{Path(item).stem}.report.json").read_bytes()
            for item in items if isinstance(item, str)}


def _passed_flags(obj, path: str, out: dict) -> dict:
    if isinstance(obj, dict):
        for k, v in sorted(obj.items()):
            sub = f"{path}.{k}" if path else k
            if k == "passed":
                out[sub] = v
            else:
                _passed_flags(v, sub, out)
    return out


def certified_facts(data: dict) -> dict:
    """What a report certifies, as compared with the expected table."""
    facts = {
        "K": {sid: sec["K"] for sid, sec in data["twirled"].items()},
        "passed": _passed_flags(data, "", {}),
        "laws_within_tol": data["twirl_laws"]["max_residual"] <= data["options"]["tol"],
    }
    if "counts" in data:
        facts["counts"] = data["counts"]
    loc = data.get("locality")
    if loc is not None:
        facts["locality"] = {k: loc[k] for k in (
            "criterion_fails_locality", "direct_check_fails", "methods_agree",
            "pairing_rank")}
    st = data.get("steering", {}).get("twirled")
    if st is not None:
        facts["steering_checks"] = [st["state_checks"], st["effect_checks"]]
    if "sector_blocks" in data:
        facts["sector_blocks_within_1e-9"] = {
            sid: r <= 1e-9 for sid, r in data["sector_blocks"].items()}
    return facts


def _check(world: World, payload: bytes, data: dict, expected: dict,
           goldens: dict, outcome: Outcome) -> str | None:
    first = outcome.first_bytes.setdefault(world.label, payload)
    if payload != first:
        return "report bytes differ from this run's first report"
    if world.label in goldens:
        if payload != goldens[world.label]:
            return "report bytes differ from the golden file"
        return None
    want = expected.get(world.label)
    if want is None:
        return "no expected facts for this world"
    got = certified_facts(data)
    if got != want:
        diff = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        return f"certified facts differ from the expected table: {diff}"
    return None


# ------------------------------------------------------------ passes


def analysis_pass(worlds, expected, goldens, outcome: Outcome, tracer=None) -> float:
    """Analyze and serialize every world once; returns the timed seconds.

    Only run_analysis and to_bytes are timed; the checks run after.
    """
    total = 0.0
    for w in worlds:
        outcome.attempted += 1
        t0 = time.perf_counter()
        try:
            with tracer.analysis(w.label) if tracer else nullcontext():
                report = pipeline.run_analysis(w.bundle, w.options, model_digest=w.digest)
                payload = report.to_bytes()
        except Exception:  # a raising analysis is a counted failure, not the end
            total += time.perf_counter() - t0
            outcome.failed += 1
            outcome.problems.append(f"{w.label}: {traceback.format_exc(limit=3)}")
            continue
        total += time.perf_counter() - t0
        problem = _check(w, payload, report.data, expected, goldens, outcome)
        if problem is not None:
            outcome.failed += 1
            outcome.problems.append(f"{w.label}: {problem}")
    return total


def run_passes(worlds, seconds: float, expected, goldens, scale: SpeedScale,
               tracer=None) -> Outcome:
    """Passes until `seconds` would be exceeded, at least MIN_PASSES.

    With a tracer, untraced and traced passes alternate, so both sample the
    same stretch of machine time; the tracer is installed only around the
    traced ones.
    """
    outcome = Outcome()
    start = time.perf_counter()
    while True:
        wall = analysis_pass(worlds, expected, goldens, outcome)
        outcome.wall_pass_s.append(wall)
        outcome.pass_s.append(scale(wall))
        if tracer is not None:
            with tracer:
                wall = analysis_pass(worlds, expected, goldens, outcome, tracer)
            outcome.traced_pass_s.append(scale(wall))
        n = len(outcome.pass_s)
        elapsed = time.perf_counter() - start
        if n >= MIN_PASSES and elapsed * (n + 1) / n > seconds:
            return outcome


def upper_percentile(values) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it, when
    that lies above the median."""
    n = len(values)
    if n <= 20:
        return None
    p = int(100 * (n - 10) / n)
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------ environment


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _source_sha256() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "twirlab").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
