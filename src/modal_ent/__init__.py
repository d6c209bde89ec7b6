"""Mode entanglement toolkit for delocalized particles with spin.

The package models sectors of ``n`` modes holding ``m`` identical
particles with ``p + 1`` internal levels, at most one particle per mode,
under the superselection rule that forbids mixing occupied levels with the
vacancy. It computes the polynomial invariants of the two-particle
three-mode spin-1/2 sector, reduces states to canonical form, classifies
their locality profiles, verifies stabilizer elements and their phases,
constructs maximally entangled sequence states for general counts, and
runs seeded Monte-Carlo monotonicity checks. The ``modal-ent`` console
script exposes the same functionality on the command line.

The package root exports the names that the command line, the acceptance
tests and the README example use; everything else is imported from its
own module.
"""

from .states import (
    SHAPE_321,
    StateVector,
    SystemShape,
    is_maximally_entangled,
    random_state,
)
from .operators import (
    GroupElement,
    apply,
    element_from_matrices,
    occupation_scaling,
    random_element,
)
from .invariants import (
    InvariantReport,
    generator_relation_check,
    invariant_report,
    localized_scenario_check,
    trace_word,
)
from .classify import (
    bell_profile,
    canonical_form,
    chsh_value,
    family,
    membership_report,
    pair_projection,
)
from .stabilizers import (
    STABILIZER_NAMES,
    stabilizer,
    topological_phases,
    verify_stabilizes,
)
from .maxent import (
    build_psi_sigma,
    pattern_scan,
)
from .monte_carlo import (
    invariance_sweep,
    run_monotone_trials,
)

__version__ = "0.1.0"

__all__ = [
    "SHAPE_321",
    "StateVector",
    "SystemShape",
    "is_maximally_entangled",
    "random_state",
    "GroupElement",
    "apply",
    "element_from_matrices",
    "occupation_scaling",
    "random_element",
    "InvariantReport",
    "generator_relation_check",
    "invariant_report",
    "localized_scenario_check",
    "trace_word",
    "bell_profile",
    "canonical_form",
    "chsh_value",
    "family",
    "membership_report",
    "pair_projection",
    "STABILIZER_NAMES",
    "stabilizer",
    "topological_phases",
    "verify_stabilizes",
    "build_psi_sigma",
    "pattern_scan",
    "invariance_sweep",
    "run_monotone_trials",
]
