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
own module. Each root name is resolved from its module on first access
(PEP 562), so ``import modal_ent`` loads no submodule and a command line
call loads only the modules its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

#: each exported name and the module that defines it
_EXPORTS = {
    "SHAPE_321": "states",
    "StateVector": "states",
    "SystemShape": "states",
    "is_maximally_entangled": "states",
    "random_state": "states",
    "GroupElement": "operators",
    "apply": "operators",
    "occupation_scaling": "operators",
    "random_element": "operators",
    "generator_relation_check": "invariants",
    "invariant_report": "invariants",
    "localized_scenario_check": "invariants",
    "trace_word": "invariants",
    "bell_profile": "classify",
    "canonical_form": "classify",
    "chsh_value": "classify",
    "family": "families",
    "membership_report": "classify",
    "pair_projection": "classify",
    "STABILIZER_NAMES": "names",
    "stabilizer": "stabilizers",
    "topological_phases": "stabilizers",
    "verify_stabilizes": "stabilizers",
    "build_psi_sigma": "maxent",
    "pattern_scan": "maxent",
    "invariance_sweep": "monte_carlo",
    "run_monotone_trials": "monte_carlo",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value
