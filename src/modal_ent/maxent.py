"""Maximally entangled sequence states beyond three modes.

A sector of ``n`` modes, ``m`` particles and ``p + 2`` local dimensions can
host a state whose every single-mode reduction is the maximally mixed
``I / (p + 2)`` only when ``m (p + 2) = n (p + 1)``, which forces ``n = r
(p + 2)`` and ``m = r (p + 1)`` for an integer repetition count ``r``. The
witness state is a uniform superposition of the cyclic shifts of the
repeated symbol sequence ``(0, 1, ..., p + 1)``; each mode then sees every
symbol exactly once across the ``p + 2`` branches, and distinct branches
disagree on every mode, killing all off-diagonal terms of the reduction.

The helpers here build those states, scan count combinations for
feasibility, and measure how the determinant-one contraction subgroup acts
across a product cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np

from .operators import apply_on_mode, level_contraction
from .states import (
    Occupation,
    StateVector,
    SystemShape,
    is_maximally_entangled,
    mode_matrix,
    phase_fit,
)

#: sector dimension past which explicit construction is refused
DIMENSION_CAP = 1_000_000


def _check_counts(n: int, m: int, p: int) -> None:
    if n < 1 or m < 1 or p < 1:
        raise ValueError(f"counts must be positive, got n={n}, m={m}, p={p}")


def feasible(n: int, m: int, p: int) -> bool:
    """Whether (n, m, p) admits a state with all reductions maximally mixed.

    The count identity alone decides it; it already forces ``m < n``.
    """
    _check_counts(n, m, p)
    return m * (p + 2) == n * (p + 1)


def build_psi_sigma(r: int, p: int) -> StateVector:
    """Uniform superposition of cyclic shifts of the repeated symbol sequence.

    Lives in the sector with ``n = r (p + 2)`` modes and ``m = r (p + 1)``
    particles. Raises ValueError when that sector exceeds DIMENSION_CAP.
    """
    if r < 1 or p < 1:
        raise ValueError(f"need r >= 1 and p >= 1, got r={r}, p={p}")
    period = p + 2
    shape = SystemShape(r * period, r * (p + 1), p)
    if shape.dimension > DIMENSION_CAP:
        raise ValueError(
            f"sector dimension {shape.dimension} exceeds the cap {DIMENSION_CAP}"
        )
    seq = tuple(range(period)) * r
    amp = 1.0 / np.sqrt(period)
    amplitudes: Dict[Occupation, complex] = {}
    for i in range(1, period + 1):
        amplitudes[seq[-i:] + seq[:-i]] = amp + 0j
    return StateVector(shape, amplitudes)


def single_mode_bipartition_local(
    state: StateVector, mode: int, tol: float = 1e-10
) -> bool:
    """True when the cut between one mode and the rest carries no entanglement.

    The cut is product exactly when the :func:`mode_matrix` of the state has
    rank at most one.
    """
    return int(np.linalg.matrix_rank(mode_matrix(state, mode), tol=tol)) <= 1


@dataclass(frozen=True)
class SequencePattern:
    """One row of a feasibility scan over count combinations."""

    n: int
    m: int
    p: int
    feasible: bool
    constructed: bool
    max_ent_verified: bool


def pattern_scan(
    n_values: Iterable[int], p_values: Iterable[int]
) -> List[SequencePattern]:
    """Scan (n, m, p) combinations with m <= n for maximal entanglement.

    Feasible rows whose sector fits under DIMENSION_CAP get the sequence
    state constructed and its reductions checked explicitly; the others are
    reported as not constructed.
    """
    rows: List[SequencePattern] = []
    for p in p_values:
        for n in n_values:
            for m in range(1, n + 1):
                ok = feasible(n, m, p)
                constructed = False
                verified = False
                if ok:
                    # m (p + 2) = n (p + 1) and gcd(p + 1, p + 2) = 1, so p + 2 divides n
                    r = n // (p + 2)
                    shape = SystemShape(n, m, p)
                    if shape.dimension <= DIMENSION_CAP:
                        psi = build_psi_sigma(r, p)
                        constructed = True
                        verified = is_maximally_entangled(psi)
                rows.append(
                    SequencePattern(
                        n=n,
                        m=m,
                        p=p,
                        feasible=ok,
                        constructed=constructed,
                        max_ent_verified=verified,
                    )
                )
    return rows


@dataclass(frozen=True)
class ContractionWitness:
    """Measured against predicted action of a level contraction on one mode.

    ``phase`` holds the measured scalar only when the contraction parameter
    is purely imaginary, where the action is a pure phase; it stays None
    otherwise. ``predicted_phase`` is the predicted scalar in either case.
    """

    norm_ratio: float
    predicted_norm_ratio: float
    phase: Optional[complex]
    predicted_phase: complex
    matches: bool


def contraction_witnesses(
    state: StateVector, mode: int, alpha: complex, tol: float = 1e-9
) -> ContractionWitness:
    """Apply the determinant-one contraction on one product-cut mode.

    The mode must only ever hold level one or the vacancy and must factor
    out of the state; then the contraction acts as the scalar
    ``e^{-(p+1) alpha}`` and the witness compares the measured norm ratio
    and phase against that prediction.
    """
    if not state.amplitudes:
        raise ValueError("contraction witness needs a nonzero state")
    if not single_mode_bipartition_local(state, mode):
        raise ValueError(f"mode {mode} does not factor out as a product cut")
    for occ in state.amplitudes:
        if occ[mode] not in (0, 1):
            raise ValueError(
                f"mode {mode} holds symbol {occ[mode]}; only level one and vacancy allowed"
            )
    a = complex(alpha)
    p = state.shape.spin_numerator
    moved = apply_on_mode(level_contraction(a, p=p), mode, state)

    before = state.norm()
    ratio = moved.norm() / before
    predicted_ratio = float(np.exp(-(p + 1) * a.real))
    predicted_scalar = complex(np.exp(-(p + 1) * a))

    phase: Optional[complex] = None
    ok = abs(ratio - predicted_ratio) <= tol * max(predicted_ratio, 1.0)
    if abs(a.real) <= 1e-12:
        _, phase = phase_fit(state, moved, tol)
        ok = ok and abs(phase - predicted_scalar) <= tol
    return ContractionWitness(
        norm_ratio=float(ratio),
        predicted_norm_ratio=predicted_ratio,
        phase=phase,
        predicted_phase=predicted_scalar,
        matches=ok,
    )
