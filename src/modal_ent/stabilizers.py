"""Named symmetry elements that fix chosen states up to a declared phase.

Each constructor returns a mode-local special unitary together with the
scalar prefactor that the full symmetry operation carries. The element is
applied bare; a state is stabilized when the bare action reproduces it up
to a phase c and the declared prefactor cancels that phase, c * prefactor
= 1. Keeping the two factors separate is what lets the bare phase be read
out as a topological datum of the state.

The ray comparison is :func:`states.phase_fit`, re-exported here, and
:func:`_verdict` is the one place that applies a bare element and judges
the result; :func:`verify_stabilizes`, :func:`topological_phases` and the
command line read their answers from it.

Constructor names are treated as opaque identifiers by the command line
interface and the test harness; parameters are plain finite floats, with
the integer-valued ones validated to be integral.

Loading this module loads no numpy, and neither does building, applying
or judging a candidate: the elements are closed-form rows of Python complex
numbers, and the prefactors come from :func:`cmath.exp`, so
``modal-ent verify-stabilizer`` runs without numpy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .names import STABILIZER_NAMES
from .operators import GroupElement, apply, apply_on_mode, make_slocc_element
from .states import SHAPE_321, StateVector, phase_fit


@dataclass(frozen=True, eq=False)
class StabilizerElement:
    """A bare group element plus the scalar prefactor declared with it."""

    name: str
    params: Dict[str, float]
    element: GroupElement
    declared_prefactor: complex


def _pop_float(params: Dict[str, float], key: str, default: float = 0.0) -> float:
    raw = params.pop(key, default)
    try:
        val = float(raw)
    except ValueError:
        raise ValueError(f"parameter {key!r} must be a number, got {raw!r}") from None
    if not math.isfinite(val):
        raise ValueError(f"parameter {key!r} must be finite, got {val}")
    return val


def _pop_int(params: Dict[str, float], key: str, default: int = 0) -> int:
    raw = params.pop(key, default)
    try:
        val = float(raw)
    except ValueError:
        val = math.nan
    if not math.isfinite(val) or abs(val - round(val)) > 1e-9:
        raise ValueError(f"parameter {key!r} must be an integer, got {raw}")
    return int(round(val))


def stabilizer(name: str, params: Optional[Mapping[str, float]] = None) -> StabilizerElement:
    """Build a named stabilizer candidate from its parameter dictionary.

    Unknown names and leftover parameters raise ValueError. All parameters
    default to zero, which always yields the identity element with unit
    prefactor.
    """
    if name not in STABILIZER_NAMES:
        raise ValueError(f"unknown stabilizer {name!r}; choose from {STABILIZER_NAMES}")
    p: Dict[str, float] = dict(params or {})
    used: Dict[str, float] = {}

    if name == "generic_eq13":
        m = _pop_int(p, "m")
        alpha = _pop_float(p, "alpha")
        used = {"m": m, "alpha": alpha}
        coeffs = (
            (0, 0, 1j * math.pi * m, 1j * alpha),
            (0, 0, 0, 1j * (alpha + math.pi * m / 3.0)),
            (0, 0, 0, 1j * (alpha - math.pi * m / 3.0)),
        )
        prefactor = 1.0 + 0j
    elif name == "family16_eq20":
        alpha = _pop_float(p, "alpha")
        beta = _pop_float(p, "beta")
        gamma = _pop_float(p, "gamma")
        used = {"alpha": alpha, "beta": beta, "gamma": gamma}
        coeffs = (
            (0, 0, 1j * beta, 1j * gamma),
            (0, 0, 1.5j * alpha, 1j * (beta / 3.0 + gamma + alpha / 2.0)),
            (0, 0, 0, 1j * (-beta / 3.0 + gamma)),
        )
        prefactor = cmath.exp(1j * alpha)
    elif name == "psi1_eq23":
        variant = str(p.pop("variant", "a"))
        if variant == "a":
            k = _pop_int(p, "k")
            l = _pop_int(p, "l")
            m = _pop_int(p, "m")
            n = _pop_int(p, "n")
            q_p = _pop_int(p, "p")
            q = _pop_int(p, "q")
            alpha = _pop_float(p, "alpha")
            used = {"variant": variant, "k": k, "l": l, "m": m, "n": n, "p": q_p, "q": q, "alpha": alpha}
            half = math.pi / 2.0
            third = math.pi / 3.0
            coeffs = (
                (0, 0, 1j * half * (k - l - m + n + q_p + q), 1j * alpha),
                (
                    0,
                    0,
                    1j * half * (k - l + m - n - q_p + q),
                    1j * (alpha + third * (-m - n + q_p + q)),
                ),
                (
                    0,
                    0,
                    1j * half * (-k + l - m + n - q_p + q),
                    1j * (alpha + third * (-k - l + q_p + q)),
                ),
            )
            prefactor = cmath.exp(1j * third * (k + l + m + n + q_p + q))
        elif variant == "b":
            used = {"variant": variant}
            c = (0.5j * math.pi, 0, 0, 0)
            coeffs = (c, c, c)
            prefactor = cmath.exp(1j * math.pi)
        elif variant == "c":
            beta = _pop_float(p, "beta")
            used = {"variant": variant, "beta": beta}
            c = (0, 1j * beta, 0, 0)
            coeffs = (c, c, c)
            prefactor = 1.0 + 0j
        else:
            raise ValueError(f"psi1_eq23 variant must be a, b or c, got {variant!r}")
    else:
        alpha = _pop_float(p, "alpha")
        beta = _pop_float(p, "beta")
        gamma = _pop_float(p, "gamma")
        delta = _pop_float(p, "delta")
        used = {"alpha": alpha, "beta": beta, "gamma": gamma, "delta": delta}
        coeffs = (
            (0, 0, 1j * alpha, 1j * beta),
            (0, 0, 1j * gamma, 1j * (3.0 * beta - alpha + gamma - 2.0 * delta) / 3.0),
            (0, 0, 1j * delta, 1j * (3.0 * beta + alpha + 2.0 * gamma - delta) / 3.0),
        )
        prefactor = 1.0 + 0j

    if p:
        raise ValueError(f"unexpected parameters for {name}: {sorted(p)}")
    return StabilizerElement(
        name=name,
        params=used,
        element=make_slocc_element(coeffs),
        declared_prefactor=complex(prefactor),
    )


def _verdict(
    stab: StabilizerElement, state: StateVector, tol: float
) -> Tuple[bool, bool, complex]:
    """(stabilizes, ray preserved, bare phase) of one candidate on one (3, 2, 1) state."""
    if state.shape != SHAPE_321:
        raise ValueError(f"stabilizer elements act on shape (3, 2, 1), got {state.shape}")
    preserved, c = phase_fit(state, apply(stab.element, state), tol)
    return bool(preserved and abs(c * stab.declared_prefactor - 1.0) <= tol), preserved, c


def verify_stabilizes(
    stab: StabilizerElement, state: StateVector, tol: float = 1e-9
) -> Tuple[bool, complex]:
    """Check one stabilizer candidate against one state.

    Returns (ok, c) where c is the bare phase measured at the largest
    amplitude of the input. ok requires both that the bare element maps the
    state onto the same ray within tol and that c multiplied by the
    declared prefactor is 1 within tol. The phase c is returned even on
    failure, as the diagnostic of what the element actually did.
    """
    ok, _, c = _verdict(stab, state, tol)
    return ok, c


def topological_phases(
    state: StateVector,
    probes: Sequence[StabilizerElement] = (),
    tol: float = 1e-9,
) -> Tuple[complex, ...]:
    """Bare phases of the probes that fix the ray of the given state.

    Probes whose bare element does not return the state to its own ray are
    skipped; declared prefactors play no role here. A canonical probe, the
    scalar third-root-of-unity element on mode A, is always appended last.
    It fixes every ray and contributes the phase exp(2 pi i / 3), anchoring
    the discrete phase group that the others are measured against.
    """
    phases: List[complex] = []
    for stab in probes:
        _, preserved, c = _verdict(stab, state, tol)
        if preserved:
            phases.append(c)
    root = cmath.exp(2j * math.pi / 3.0)
    _, c = phase_fit(state, apply_on_mode([[root, 0, 0], [0, root, 0], [0, 0, root]], 0, state), tol)
    phases.append(c)
    return tuple(phases)
