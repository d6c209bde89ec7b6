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
feasibility. No size is refused: a witness holds p + 2 amplitudes whatever
the sector's dimension, and its check reads only those, at the cost that
:func:`pattern_scan` states.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, NamedTuple

from .states import Occupation, StateVector, SystemShape, _require_integer, is_maximally_entangled


def _check_counts(**counts: int) -> List[int]:
    """The counts as Python ints; a non-integer, or a count below one, raises ValueError."""
    values = [_require_integer(v, k) for k, v in counts.items()]
    if min(values) < 1:
        raise ValueError("counts must be positive, got " + ", ".join(f"{k}={v}" for k, v in zip(counts, values)))
    return values


def _balanced(n: int, m: int, p: int) -> bool:
    """The count identity ``m (p + 2) = n (p + 1)`` on counts already checked."""
    return m * (p + 2) == n * (p + 1)


def feasible(n: int, m: int, p: int) -> bool:
    """Whether (n, m, p) admits a state with all reductions maximally mixed.

    The count identity alone decides it; it already forces ``m < n``.
    Counts that are not integers or are below one raise ValueError.
    """
    return _balanced(*_check_counts(n=n, m=m, p=p))


def build_psi_sigma(r: int, p: int) -> StateVector:
    """Uniform superposition of cyclic shifts of the repeated symbol sequence.

    Lives in the sector with ``n = r (p + 2)`` modes and ``m = r (p + 1)``
    particles, with ``p + 2`` amplitudes at any ``r``. Counts that are not
    integers or are below one raise ValueError.
    """
    r, p = _check_counts(r=r, p=p)
    period = p + 2
    shape = SystemShape(r * period, r * (p + 1), p)
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

    Every feasible row gets its sequence state constructed and its
    reductions checked explicitly, so ``constructed`` equals ``feasible``.
    Counts that are not integers or are below one raise ValueError first.

    No size is refused. The scan lists n rows for each mode count n, so its
    work grows with the range asked for; a feasible row adds the check of
    :func:`is_maximally_entangled`, about ``n (p + 2) (n + p + 2)``
    operations: 0.2 s at (n, p) = (102, 100) and 5 s at (302, 300) on two
    cores under Python 3.11.
    """
    n_values, p_values = [_require_integer(n, "n") for n in n_values], [_require_integer(p, "p") for p in p_values]
    _check_counts(n=min(n_values, default=1), p=min(p_values, default=1))
    rows: List[SequencePattern] = []
    for p in p_values:
        for n in n_values:
            for m in range(1, n + 1):
                ok = _balanced(n, m, p)
                # m (p + 2) = n (p + 1) and gcd(p + 1, p + 2) = 1, so p + 2 divides n
                verified = ok and is_maximally_entangled(build_psi_sigma(n // (p + 2), p))
                rows.append(SequencePattern(n=n, m=m, p=p, feasible=ok, constructed=ok, max_ent_verified=verified))
    return rows
