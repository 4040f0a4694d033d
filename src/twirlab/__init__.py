"""Symmetry-averaged worlds over generalized probability spaces.

Construct the invariant restriction of a world under a finite (or
finitely realized compact) symmetry group, verify that the restriction
is again a valid world, and decide whether its joint states are fixed by
local invariant statistics, with explicit witnesses when they are not.
"""

from ._version import __version__
from .analysis import (
    LocalityVerdict,
    TwirledWorld,
    UbiquityWitness,
    Witness,
    build_twirled_world,
    find_separating_invariant_effect,
    locality_verdict,
    sector_block_residual,
    transformation_pair_witness,
    ubiquity_witnesses,
    verify_local_indistinguishability,
)
from .catalog import (
    BUILTINS,
    WorldBundle,
    bosonic_parameter_counts,
    bosonic_sector_formula,
    boxworld_witness_pairs,
    build_world,
)
from .core import (
    CompositeSpec,
    MembershipResult,
    SteeringReport,
    SystemSpec,
    ValidationReport,
    check_steering_closure,
    compose_systems,
    convex_membership,
    in_effect_set,
    in_state_cone,
    numerical_rank,
    validate_system,
)
from .errors import TwirlabError
from .model import ModelFile, canonical_bytes, canonical_json, parse_model
from .pipeline import AnalysisReport, Options, render_text, run_analysis
from .symmetry import (
    Certification,
    GroupAction,
    LawReport,
    TwirlProjector,
    build_finite_action,
    collective_action,
    qubit_octahedral_action,
    twirl_projector,
    verify_twirl_laws,
)

__all__ = [
    "__version__",
    "AnalysisReport",
    "BUILTINS",
    "Certification",
    "CompositeSpec",
    "GroupAction",
    "LawReport",
    "LocalityVerdict",
    "MembershipResult",
    "ModelFile",
    "Options",
    "SteeringReport",
    "SystemSpec",
    "TwirlProjector",
    "TwirlabError",
    "TwirledWorld",
    "UbiquityWitness",
    "ValidationReport",
    "Witness",
    "WorldBundle",
    "bosonic_parameter_counts",
    "bosonic_sector_formula",
    "boxworld_witness_pairs",
    "build_finite_action",
    "build_twirled_world",
    "build_world",
    "canonical_bytes",
    "canonical_json",
    "check_steering_closure",
    "collective_action",
    "compose_systems",
    "convex_membership",
    "find_separating_invariant_effect",
    "in_effect_set",
    "in_state_cone",
    "locality_verdict",
    "numerical_rank",
    "parse_model",
    "qubit_octahedral_action",
    "render_text",
    "run_analysis",
    "sector_block_residual",
    "transformation_pair_witness",
    "twirl_projector",
    "ubiquity_witnesses",
    "validate_system",
    "verify_local_indistinguishability",
    "verify_twirl_laws",
]
