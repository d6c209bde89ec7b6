import math
import warnings

import numpy as np
import pytest

from modal_ent.classify import family
from modal_ent.invariants import invariant_report
from modal_ent.monte_carlo import (
    MARGIN_TOL,
    LocalInstrument,
    _margins,
    derive_seed,
    invariance_sweep,
    monotonicity_trial,
    random_instrument,
    run_monotone_trials,
)
from modal_ent.operators import (
    GroupElement,
    apply_on_mode,
    element_from_matrices,
    random_element,
)
from modal_ent.states import SHAPE_321, StateVector, SystemShape, random_state

rng = np.random.default_rng(2718)


def test_derive_seed_is_deterministic_and_wide():
    assert derive_seed(0, 0) == derive_seed(0, 0)
    seen = {derive_seed(12345, i) for i in range(2000)}
    assert len(seen) == 2000
    for s in list(seen)[:50]:
        assert 0 <= s < 2**64
    assert derive_seed(1, 7) != derive_seed(2, 7)


def test_random_instrument_is_complete_and_compliant():
    for seed in range(8):
        inst = random_instrument(seed, mode=seed % 3, strength=0.7)
        a0, a1 = inst.kraus
        total = a0.conj().T @ a0 + a1.conj().T @ a1
        assert np.abs(total - np.eye(3)).max() < 1e-9
        assert GroupElement(inst.kraus).is_superselection_compliant()
    for bad in (-0.1, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="strength must be finite and non-negative"):
            random_instrument(0, mode=0, strength=bad)
        with pytest.raises(ValueError, match="strength must be finite and non-negative"):
            run_monotone_trials(5, 1, strength=bad)


def test_zero_strength_instrument_is_trivial():
    inst = random_instrument(3, mode=1, strength=0.0)
    target = np.eye(3) / np.sqrt(2.0)
    assert np.abs(inst.kraus - target).max() < 1e-12
    m1, m2 = monotonicity_trial(random_state(SHAPE_321, rng), inst)
    assert abs(m1) < 1e-12
    assert abs(m2) < 1e-12


def test_instrument_validation():
    eye = np.eye(3, dtype=complex)
    with pytest.raises(ValueError):
        LocalInstrument(0, np.array([eye, eye]), seed=0)
    ok = eye / np.sqrt(2.0)
    leaky = ok.copy()
    leaky[0, 2] = 1e-3
    with pytest.raises(ValueError):
        LocalInstrument(0, np.array([ok, leaky]), seed=0)
    poisoned = ok.copy()
    poisoned[0, 1] = np.nan
    with pytest.raises(ValueError, match="not trace preserving"):
        LocalInstrument(0, np.array([ok, poisoned]), seed=0)


def test_monotonicity_trial_preconditions():
    inst = random_instrument(0, mode=0, strength=0.5)
    with pytest.raises(ValueError):
        monotonicity_trial(StateVector(SHAPE_321, {(1, 1, 0): 2.0}), inst)
    with pytest.raises(ValueError):
        monotonicity_trial(random_state(SystemShape(4, 2, 1), rng), inst)
    with pytest.raises(ValueError):
        monotonicity_trial(random_state(SHAPE_321, rng), random_instrument(0, mode=0, strength=0.5, p=2))
    for mode in (-1, 3):
        stray = LocalInstrument(mode, inst.kraus, seed=0)
        with pytest.raises(ValueError, match="out of range for 3 modes"):
            monotonicity_trial(random_state(SHAPE_321, rng), stray)


def test_margins_stay_non_positive():
    summary = run_monotone_trials(trials=300, master_seed=424242)
    assert summary.trials == 300
    assert summary.failures == 0
    assert summary.max_margin <= MARGIN_TOL
    assert len(summary.records) == 300
    assert [r.index for r in summary.records] == list(range(300))


def test_runs_are_reproducible():
    a = run_monotone_trials(trials=40, master_seed=9)
    b = run_monotone_trials(trials=40, master_seed=9)
    for x, y in zip(a.records, b.records):
        assert x == y
    c = run_monotone_trials(trials=40, master_seed=10)
    assert any(x.seed != y.seed for x, y in zip(a.records, c.records))


def test_fixed_state_run():
    summary = run_monotone_trials(trials=50, master_seed=5, state=family("psi1"))
    assert summary.failures == 0
    with pytest.raises(ValueError):
        run_monotone_trials(trials=50, master_seed=5, state=StateVector(SHAPE_321, {(1, 1, 0): 2.0}))
    with pytest.raises(ValueError):
        run_monotone_trials(trials=0, master_seed=5)
    nan_state = StateVector(SHAPE_321, {(1, 1, 0): 1.0, (0, 1, 1): complex(math.nan, 0.0)})
    with pytest.raises(ValueError, match="monotonicity trial expects a normalized state"):
        run_monotone_trials(trials=4, master_seed=1, state=nan_state)
    four_modes = random_state(SystemShape(4, 2, 1), rng)
    with pytest.raises(ValueError, match=r"pair-block invariants need shape \(3, 2, 1\)"):
        run_monotone_trials(trials=4, master_seed=1, state=four_modes)


def _scalar_margins(state, inst):
    """The per-trial algorithm of the sparse path, restated as the oracle.

    Each outcome acts through ``apply_on_mode``, is renormalized and read
    through ``invariant_report``. The probability is summed in basis order,
    as the batch sums it. Summing in the order of the amplitude map, as the
    per-trial path did, moves the roundoff of an invariant that vanishes on
    the input (I2 of psi1), and the 2/3 power turns that into about 3e-12.
    """
    rep0 = invariant_report(state)
    avg1 = avg2 = 0.0
    for op in inst.kraus:
        out = apply_on_mode(op, inst.mode, state)
        prob = sum(a.real * a.real + a.imag * a.imag for a in out.dense().tolist())
        if prob < 1e-14:
            continue
        scale = math.sqrt(prob)
        unit = StateVector(state.shape, {occ: complex(a) / scale for occ, a in out.amplitudes.items()})
        rep = invariant_report(unit)
        avg1 += prob * rep.monotone1
        avg2 += prob * rep.monotone2
    return avg1 - rep0.monotone1, avg2 - rep0.monotone2


@pytest.mark.parametrize(
    "master, trials, state",
    [(31, 1000, None), (32, 200, family("psi1")), (33, 200, family("S2", {"r": 0.3}))],
    ids=["random", "psi1", "S2"],
)
def test_batched_margins_match_scalar_oracle(master, trials, state):
    summary = run_monotone_trials(trials, master, state=state)
    for i, rec in enumerate(summary.records):
        seed = derive_seed(master, i)
        mode = derive_seed(seed, 2) % 3
        psi = state or random_state(SHAPE_321, np.random.default_rng(derive_seed(seed, 0)))
        m1, m2 = _scalar_margins(psi, random_instrument(derive_seed(seed, 1), mode, 0.5))
        assert (rec.index, rec.seed, rec.mode) == (i, seed, mode)
        assert abs(rec.margin1 - m1) <= 1e-15
        assert abs(rec.margin2 - m2) <= 1e-15
        assert rec.passed == (max(m1, m2) <= MARGIN_TOL)


@pytest.mark.parametrize("master", [404, 2_000_003])
def test_replayed_trials_equal_their_records(master):
    summary = run_monotone_trials(250, master)
    for rec in summary.records:
        psi = random_state(SHAPE_321, np.random.default_rng(derive_seed(rec.seed, 0)))
        inst = random_instrument(derive_seed(rec.seed, 1), rec.mode, 0.5)
        assert monotonicity_trial(psi, inst) == (rec.margin1, rec.margin2)


def test_zero_probability_outcome_is_skipped():
    keep = np.diag([1.0, 0.0, 1.0]).astype(complex)
    drop = np.diag([0.0, 1.0, 0.0]).astype(complex)
    inst = LocalInstrument(0, np.array([keep, drop]), seed=0)
    # Mode 0 never holds level 2, so the second outcome has probability zero
    # and the first leaves the state as it is.
    state = StateVector(SHAPE_321, {(1, 1, 0): 1.0})
    others = [family("psi1"), random_state(SHAPE_321, rng)]
    with np.errstate(all="raise"):
        single = monotonicity_trial(state, inst)
        psi = np.column_stack([s.dense() for s in [state] + others])
        kraus = np.stack([inst.kraus] * psi.shape[1])
        batch1, batch2 = _margins(psi, kraus, np.zeros(psi.shape[1], dtype=int))
        rest = [monotonicity_trial(s, inst) for s in others]
    assert single == (0.0, 0.0)
    assert (batch1[0], batch2[0]) == single
    assert list(zip(batch1[1:].tolist(), batch2[1:].tolist())) == rest
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        summary = run_monotone_trials(50, 17, strength=0.0)
        fixed = run_monotone_trials(20, 18, strength=0.0, state=state)
    assert summary.failures == 0 and abs(summary.max_margin) < 1e-12
    assert fixed.max_margin == 0.0


def test_invariance_sweep_accepts_unit_determinant_elements():
    states = [random_state(SHAPE_321, rng) for _ in range(20)]
    elements = [random_element("SLOCC", seed=k) for k in range(10)]
    elements += [random_element("SU", seed=k) for k in range(10, 15)]
    worst1, worst2 = invariance_sweep(states, elements)
    assert worst1 < 1e-10
    assert worst2 < 1e-10


def test_invariance_sweep_flags_determinant_drift():
    states = [family("psi1"), random_state(SHAPE_321, rng)]
    stretch = element_from_matrices(
        [2.0 * np.eye(3, dtype=complex), np.eye(3, dtype=complex), np.eye(3, dtype=complex)]
    )
    worst1, worst2 = invariance_sweep(states, [stretch])
    assert worst1 > 1e-3


def test_invariance_sweep_input_validation():
    with pytest.raises(ValueError):
        invariance_sweep(np.zeros((7, 3), dtype=complex), [random_element("SU", seed=0)])
    killer = element_from_matrices(
        [np.diag([0.0, 0.0, 1.0]).astype(complex), np.eye(3, dtype=complex), np.eye(3, dtype=complex)]
    )
    doomed = StateVector(SHAPE_321, {(1, 1, 0): 1.0})
    with pytest.raises(ArithmeticError):
        invariance_sweep([doomed], [killer])


def test_overflowing_strength_is_refused(capfd):
    # with these seeds, 1.7e308 overflows the entries and 6e307 the scaled
    # spectral norm, which used to zero the first outcome without an error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for strength in (6e307, 1.7e308):
            with pytest.raises(ValueError, match="overflows the instrument entries"):
                run_monotone_trials(5, 1, strength=strength)
        with pytest.raises(ValueError, match="overflows the instrument entries"):
            random_instrument(0, mode=0, strength=1.7e308)
    assert "DLASCL" not in capfd.readouterr().err
    summary = run_monotone_trials(5, 1, strength=1e307)
    assert summary.trials == 5 and math.isfinite(summary.max_margin)
