"""Randomized checks: monotonicity under local instruments and invariance sweeps.

The monotone checks draw random two-outcome instruments acting on a single
mode, each outcome a superselection-compliant Kraus operator, and measure
whether the outcome-averaged entanglement monotones ever exceed their input
value. Seeds form a splitmix64 tree so that any trial can be replayed in
isolation from the master seed and its index.

Each trial draws its state, instrument and mode from its own generators, one
trial after another; everything after the draws runs once over the whole run
as a ``(12, k)`` column batch in :func:`_margins`. That kernel completes the
instruments as a stack, acts through the index gather of
:func:`~modal_ent.operators.apply_on_mode_columns` and evaluates the
invariants with :func:`~modal_ent.invariants.dense_invariant_pair`.
:func:`monotonicity_trial` is its one-column call, so replaying a trial
from its seeds reproduces the record's margins bit for bit.

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

from .invariants import _amplitude_list, dense_invariant_pair, monotones
from .operators import (
    MEMBER_TOL,
    GroupElement,
    LocalOperator,
    SplitComplex,
    apply_on_mode_columns,
    sector_matrix,
    superselection_leak,
)
from .states import SHAPE_321, StateVector, random_amplitudes, require_normalized

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


def _check_instruments(kraus: np.ndarray) -> None:
    """Raise ValueError unless every instrument of a ``(k, outcomes, d, d)``
    Kraus stack is trace preserving and superselection compliant.

    Both tests are written so that NaN entries fail them.
    """
    d = kraus.shape[-1]
    total = (kraus.conj().swapaxes(-1, -2) @ kraus).sum(axis=1)
    defect = np.abs(total - np.eye(d)).max()
    if not defect <= 1e-9:
        raise ValueError(f"instrument is not trace preserving (defect {defect:.3e})")
    compliant = (superselection_leak(kraus) <= MEMBER_TOL).all(axis=0)
    if not compliant.all():
        raise ValueError(f"outcome {np.argmin(compliant)} violates the superselection rule")


@dataclass(frozen=True, eq=False)
class LocalInstrument:
    """A two-outcome instrument on one mode with compliant Kraus operators."""

    mode: int
    outcomes: Tuple[LocalOperator, LocalOperator]
    seed: int

    def __post_init__(self) -> None:
        _check_instruments(np.stack([op.entries for op in self.outcomes])[None])


def _instrument_kraus(seeds: Sequence[int], strength: float, p: int = 1) -> np.ndarray:
    """Kraus pairs of the random instruments with the given seeds, ``(k, 2, d, d)``.

    Each seed's generator draws the real and imaginary parts of the level
    block, then of the vacancy entry; everything after the draws runs once
    over the whole stack. See :func:`random_instrument` for the construction.
    """
    if not 0 <= strength < np.inf:
        raise ValueError(f"strength must be finite and non-negative, got {strength}")
    lv = p + 1
    d = p + 2
    z = np.array([np.random.default_rng(s).standard_normal(2 * lv * lv + 2) for s in seeds])
    k = np.zeros((len(seeds), d, d), dtype=complex)
    blocks = z[:, : 2 * lv * lv].reshape(-1, 2, lv, lv)
    with np.errstate(over="ignore"):
        k[:, :lv, :lv] = strength * (blocks[:, 0] + 1j * blocks[:, 1])
        k[:, lv, lv] = strength * (z[:, -2] + 1j * z[:, -1])
        k += np.eye(d)
        # LAPACK is handed finite entries only, and an overflowing norm would
        # silently zero the first outcome.
        finite = np.isfinite(k).all()
        scale = np.sqrt(2.0) * np.linalg.norm(k, 2, axis=(1, 2)) if finite else np.inf
    if not np.isfinite(scale).all():
        raise ValueError(f"strength {strength} overflows the instrument entries")
    a0 = k / scale[:, None, None]
    m = np.eye(d) - a0.conj().swapaxes(1, 2) @ a0
    w, u = np.linalg.eigh(m[:, :lv, :lv])
    a1 = np.zeros_like(a0)
    a1[:, :lv, :lv] = (u * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ u.conj().swapaxes(1, 2)
    a1[:, lv, lv] = np.sqrt(np.maximum(m[:, lv, lv].real, 0.0))
    kraus = np.stack([a0, a1], axis=1)
    _check_instruments(kraus)
    return kraus


def random_instrument(
    seed: int, mode: int, strength: float, p: int = 1
) -> LocalInstrument:
    """Random compliant instrument, a Ginibre perturbation of the identity.

    Outcome zero is ``(I + strength * G) / (sqrt(2) |I + strength * G|)``
    with G block Ginibre, spectral norm in the denominator; outcome one is
    the Hermitian square root completing the pair to a trace-preserving
    instrument. The root is taken block by block so compliance is exact. At
    strength zero both outcomes collapse to ``I / sqrt(2)``. A strength that
    is negative or not finite raises ValueError, and so does a finite one so
    large that the entries of ``I + strength * G`` or their scaled spectral
    norm overflow.
    """
    a0, a1 = _instrument_kraus([seed], strength, p)[0]
    return LocalInstrument(
        mode=mode,
        outcomes=(LocalOperator(p + 2, a0), LocalOperator(p + 2, a1)),
        seed=seed,
    )


def _state_column(state: StateVector) -> np.ndarray:
    """A normalized (3, 2, 1) state as a ``(12, 1)`` dense column."""
    require_normalized(state, "monotonicity trial")
    return np.array(_amplitude_list(state))[:, None]


def _margins(psi: np.ndarray, kraus: np.ndarray, modes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Monotone margins of a batch: column ``t`` of ``psi`` meets ``kraus[t]`` on ``modes[t]``.

    The columns are evaluated in :class:`SplitComplex` arithmetic, which
    rounds as the scalar path does, and every step acts column by column, so
    a one-column call reproduces its column of a larger batch bit for bit.
    An outcome is renormalized by the square root of its probability, the
    sum of squared moduli taken in basis order.
    """
    psi = SplitComplex(psi.real, psi.imag)
    before1, before2 = monotones(*dense_invariant_pair(psi))
    avg1 = avg2 = 0.0
    for ops in kraus.swapaxes(0, 1):
        out = apply_on_mode_columns(ops, modes, psi, SHAPE_321)
        # Python's sum adds the rows in basis order whatever the batch size;
        # np.sum may pair the terms of a single column differently.
        prob = sum(out.re * out.re + out.im * out.im)
        skip = prob < 1e-14
        norm = np.sqrt(np.where(skip, 1.0, prob))
        mono1, mono2 = monotones(*dense_invariant_pair(SplitComplex(out.re / norm, out.im / norm)))
        avg1 = avg1 + np.where(skip, 0.0, prob * mono1)
        avg2 = avg2 + np.where(skip, 0.0, prob * mono2)
    return avg1 - before1, avg2 - before2


def monotonicity_trial(
    state: StateVector, instrument: LocalInstrument
) -> Tuple[float, float]:
    """Outcome-averaged monotones minus the input monotones.

    Returns the margins for the two monotones ``|I1|^(1/3)`` and
    ``|I2|^(2/3)``; non-positive margins (within tolerance) are what the
    monotone property demands. Outcomes with negligible probability are
    skipped. The state must be normalized and of shape (3, 2, 1). This is
    the one-trial call of the kernel behind :func:`run_monotone_trials`, so
    it replays a recorded trial bit for bit.
    """
    kraus = np.stack([op.entries for op in instrument.outcomes])[None]
    m1, m2 = _margins(_state_column(state), kraus, np.array([instrument.mode]))
    return float(m1[0]), float(m2[0])


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
    fixed state is supplied), an instrument seed and a mode choice. Trials
    are drawn one by one and evaluated as one batch; records come back in
    index order. A fixed state must meet the preconditions of
    :func:`monotonicity_trial` and is checked before anything is drawn.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    seeds = [derive_seed(master_seed, i) for i in range(trials)]
    if state is None:
        rngs = (np.random.default_rng(derive_seed(s, 0)) for s in seeds)
        psi = random_amplitudes(SHAPE_321.dimension, rngs).T
    else:
        psi = np.repeat(_state_column(state), trials, axis=1)
    kraus = _instrument_kraus([derive_seed(s, 1) for s in seeds], strength)
    modes = [derive_seed(s, 2) % 3 for s in seeds]
    m1, m2 = _margins(psi, kraus, np.array(modes))
    margins = np.maximum(m1, m2)
    records = tuple(
        TrialRecord(index=i, seed=s, mode=mode, margin1=a, margin2=b, margin=m, passed=m <= MARGIN_TOL)
        for i, (s, mode, a, b, m) in enumerate(
            zip(seeds, modes, m1.tolist(), m2.tolist(), margins.tolist())
        )
    )
    return MonteCarloSummary(
        trials=trials,
        failures=sum(1 for r in records if not r.passed),
        max_margin=max(margins.tolist()),
        records=records,
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
