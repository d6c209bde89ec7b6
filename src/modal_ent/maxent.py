"""Maximally entangled sequence states beyond three modes.

A sector of ``n`` modes, ``m`` particles and ``p + 2`` local dimensions can
host a state whose every single-mode reduction is the maximally mixed
``I / (p + 2)`` only when ``m (p + 2) = n (p + 1)``, which forces ``n = r
(p + 2)`` and ``m = r (p + 1)`` for an integer repetition count ``r``. The
witness state is a uniform superposition of the cyclic shifts of the
repeated symbol sequence ``(0, 1, ..., p + 1)``; each mode then sees every
symbol exactly once across the ``p + 2`` branches, and distinct branches
disagree on every mode, killing all off-diagonal terms of the reduction.

The helpers here build those states and scan count combinations for
feasibility.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, NamedTuple

from .states import Occupation, StateVector, SystemShape, is_maximally_entangled

#: sector dimension past which explicit construction is refused
DIMENSION_CAP = 1_000_000


def _check_counts(**counts: int) -> None:
    if min(counts.values()) < 1:
        raise ValueError("counts must be positive, got " + ", ".join(f"{k}={v}" for k, v in counts.items()))


def feasible(n: int, m: int, p: int) -> bool:
    """Whether (n, m, p) admits a state with all reductions maximally mixed.

    The count identity alone decides it; it already forces ``m < n``.
    """
    _check_counts(n=n, m=m, p=p)
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
    amp = 1.0 / math.sqrt(period)
    amplitudes: Dict[Occupation, complex] = {}
    for i in range(1, period + 1):
        amplitudes[seq[-i:] + seq[:-i]] = amp + 0j
    return StateVector(shape, amplitudes)


class SequencePattern(NamedTuple):
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
    reported as not constructed. Counts below one raise ValueError first.
    """
    n_values, p_values = list(n_values), list(p_values)
    _check_counts(n=min(n_values, default=1), p=min(p_values, default=1))
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
