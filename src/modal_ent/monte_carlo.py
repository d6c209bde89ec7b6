"""Randomized checks: monotonicity under local instruments and invariance sweeps.

The monotone checks draw random two-outcome instruments acting on a single
mode, each outcome a superselection-compliant Kraus operator, and measure
whether the outcome-averaged entanglement monotones ever exceed their input
value. Seeds form a splitmix64 tree so that any trial can be replayed in
isolation from the master seed and its index.

The invariance sweep batches states as dense columns and verifies that
determinant-one elements leave the polynomial invariants unchanged. The
comparison renormalizes the moved states first: the invariants are degree 6
and 3 in the amplitudes, so raw differences pick up the sixth power of the
amplitude growth and would drown the signal in conditioning noise for
strongly non-unitary elements. Ratios of renormalized values stay order one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from .invariants import dense_invariant_pair, invariant_report
from .operators import GroupElement, LocalOperator, apply_on_mode, sector_matrix
from .states import SHAPE_321, StateVector, random_state, require_normalized

#: margins above this are counted as monotonicity violations
MARGIN_TOL = 1e-9

_MASK64 = (1 << 64) - 1


def derive_seed(master: int, index: int) -> int:
    """Child seed from a master seed and an index, splitmix64 style.

    The stream for index i is independent of how many other indices are in
    use, so trials can be replayed individually.
    """
    z = (int(master) + (int(index) + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True, eq=False)
class LocalInstrument:
    """A two-outcome instrument on one mode with compliant Kraus operators."""

    mode: int
    outcomes: Tuple[LocalOperator, LocalOperator]
    seed: int

    def __post_init__(self) -> None:
        total = sum(
            op.entries.conj().T @ op.entries for op in self.outcomes
        )
        defect = np.max(np.abs(total - np.eye(self.outcomes[0].dim)))
        if defect > 1e-9:
            raise ValueError(f"instrument is not trace preserving (defect {defect:.3e})")
        for k, op in enumerate(self.outcomes):
            if not op.is_superselection_compliant():
                raise ValueError(f"outcome {k} violates the superselection rule")


def random_instrument(
    seed: int, mode: int, strength: float, p: int = 1
) -> LocalInstrument:
    """Random compliant instrument, a Ginibre perturbation of the identity.

    Outcome zero is ``(I + strength * G) / (sqrt(2) |I + strength * G|)``
    with G block Ginibre, spectral norm in the denominator; outcome one is
    the Hermitian square root completing the pair to a trace-preserving
    instrument. The root is taken block by block so compliance is exact. At
    strength zero both outcomes collapse to ``I / sqrt(2)``.
    """
    if strength < 0:
        raise ValueError(f"strength must be non-negative, got {strength}")
    rng = np.random.default_rng(seed)
    lv = p + 1
    d = p + 2
    g = np.zeros((d, d), dtype=complex)
    g[:lv, :lv] = strength * (
        rng.standard_normal((lv, lv)) + 1j * rng.standard_normal((lv, lv))
    )
    g[lv, lv] = strength * complex(rng.standard_normal() + 1j * rng.standard_normal())
    k = np.eye(d, dtype=complex) + g
    a0 = k / (np.sqrt(2.0) * np.linalg.norm(k, 2))
    m = np.eye(d, dtype=complex) - a0.conj().T @ a0
    w, u = np.linalg.eigh(m[:lv, :lv])
    a1 = np.zeros((d, d), dtype=complex)
    a1[:lv, :lv] = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T
    a1[lv, lv] = np.sqrt(max(m[lv, lv].real, 0.0))
    return LocalInstrument(
        mode=mode,
        outcomes=(LocalOperator(d, a0), LocalOperator(d, a1)),
        seed=seed,
    )


def monotonicity_trial(
    state: StateVector, instrument: LocalInstrument
) -> Tuple[float, float]:
    """Outcome-averaged monotones minus the input monotones.

    Returns the margins for the two monotones ``|I1|^(1/3)`` and
    ``|I2|^(2/3)``; non-positive margins (within tolerance) are what the
    monotone property demands. Outcomes with negligible probability are
    skipped. The state must be normalized and of shape (3, 2, 1).
    """
    require_normalized(state, "monotonicity trial")
    rep0 = invariant_report(state)
    avg1 = 0.0
    avg2 = 0.0
    for op in instrument.outcomes:
        out = apply_on_mode(op, instrument.mode, state)
        prob = out.norm() ** 2
        if prob < 1e-14:
            continue
        unit = StateVector(
            state.shape, {occ: a / np.sqrt(prob) for occ, a in out.amplitudes.items()}
        )
        rep = invariant_report(unit)
        avg1 += prob * rep.monotone1
        avg2 += prob * rep.monotone2
    return avg1 - rep0.monotone1, avg2 - rep0.monotone2


@dataclass(frozen=True)
class TrialRecord:
    """One monotonicity trial: seeds, margins, verdict."""

    index: int
    seed: int
    mode: int
    margin1: float
    margin2: float
    margin: float
    passed: bool


@dataclass(frozen=True)
class MonteCarloSummary:
    """Aggregate of a monotonicity run; failures counts margins above tolerance."""

    trials: int
    failures: int
    max_margin: float
    records: Tuple[TrialRecord, ...]


def run_monotone_trials(
    trials: int,
    master_seed: int,
    strength: float = 0.5,
    state: Optional[StateVector] = None,
) -> MonteCarloSummary:
    """Monotonicity margins over a tree of seeded random trials.

    Per trial, the child seed fans out into a state seed (ignored when a
    fixed state is supplied), an instrument seed and a mode choice. Records
    come back in index order. A fixed state must meet the preconditions of
    :func:`monotonicity_trial`; the first trial raises if it does not.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")

    def one(i: int) -> TrialRecord:
        s_i = derive_seed(master_seed, i)
        psi = state
        if psi is None:
            psi = random_state(SHAPE_321, np.random.default_rng(derive_seed(s_i, 0)))
        mode = derive_seed(s_i, 2) % 3
        inst = random_instrument(derive_seed(s_i, 1), mode, strength)
        m1, m2 = monotonicity_trial(psi, inst)
        margin = max(m1, m2)
        return TrialRecord(
            index=i,
            seed=s_i,
            mode=mode,
            margin1=m1,
            margin2=m2,
            margin=margin,
            passed=margin <= MARGIN_TOL,
        )

    records = [one(i) for i in range(trials)]
    failures = sum(1 for r in records if not r.passed)
    return MonteCarloSummary(
        trials=trials,
        failures=failures,
        max_margin=max(r.margin for r in records),
        records=tuple(records),
    )


def invariance_sweep(
    states: Union[np.ndarray, Sequence[StateVector]],
    elements: Iterable[GroupElement],
) -> Tuple[float, float]:
    """Worst relative drift of I1 and I2 under a batch of group elements.

    States enter as dense columns (or are converted); each element acts
    through its dense sector matrix on the whole batch at once. Moved
    states are renormalized and compared against the inputs' invariants
    rescaled by the predicted norm powers, 6 for I1 and 3 for I2. For
    determinant-one elements both drifts are pure roundoff; elements with
    other determinants show up at order one.
    """
    if isinstance(states, np.ndarray):
        psi = np.asarray(states, dtype=complex)
        if psi.ndim == 1:
            psi = psi[:, None]
    else:
        psi = np.column_stack([s.dense() for s in states])
    if psi.shape[0] != SHAPE_321.dimension:
        raise ValueError(f"state columns must have length {SHAPE_321.dimension}")
    i1_in, i2_in = dense_invariant_pair(psi)
    worst1 = 0.0
    worst2 = 0.0
    for g in elements:
        s = sector_matrix(g, SHAPE_321)
        moved = s @ psi
        norms = np.linalg.norm(moved, axis=0)
        if np.any(norms <= 0):
            raise ArithmeticError("group element annihilated a state")
        i1_out, i2_out = dense_invariant_pair(moved / norms)
        want1 = i1_in / norms**6
        want2 = i2_in / norms**3
        dev1 = np.abs(i1_out - want1) / np.maximum(1.0, np.abs(want1))
        dev2 = np.abs(i2_out - want2) / np.maximum(1.0, np.abs(want2))
        worst1 = max(worst1, float(dev1.max()))
        worst2 = max(worst2, float(dev2.max()))
    return worst1, worst2
