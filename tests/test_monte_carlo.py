import numpy as np
import pytest

from modal_ent.classify import family
from modal_ent.monte_carlo import (
    MARGIN_TOL,
    LocalInstrument,
    derive_seed,
    invariance_sweep,
    monotonicity_trial,
    random_instrument,
    run_monotone_trials,
)
from modal_ent.operators import LocalOperator, element_from_matrices, random_element
from modal_ent.states import SHAPE_321, StateVector, random_state

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
        a0, a1 = (op.entries for op in inst.outcomes)
        total = a0.conj().T @ a0 + a1.conj().T @ a1
        assert np.abs(total - np.eye(3)).max() < 1e-9
        for op in inst.outcomes:
            assert op.is_superselection_compliant()
    with pytest.raises(ValueError):
        random_instrument(0, mode=0, strength=-0.1)


def test_zero_strength_instrument_is_trivial():
    inst = random_instrument(3, mode=1, strength=0.0)
    target = np.eye(3) / np.sqrt(2.0)
    for op in inst.outcomes:
        assert np.abs(op.entries - target).max() < 1e-12
    m1, m2 = monotonicity_trial(random_state(SHAPE_321, rng), inst)
    assert abs(m1) < 1e-12
    assert abs(m2) < 1e-12


def test_instrument_validation():
    eye = np.eye(3, dtype=complex)
    with pytest.raises(ValueError):
        LocalInstrument(0, (LocalOperator(3, eye), LocalOperator(3, eye)), seed=0)
    ok = eye / np.sqrt(2.0)
    leaky = ok.copy()
    leaky[0, 2] = 1e-3
    with pytest.raises(ValueError):
        LocalInstrument(0, (LocalOperator(3, ok), LocalOperator(3, leaky)), seed=0)


def test_monotonicity_trial_preconditions():
    inst = random_instrument(0, mode=0, strength=0.5)
    with pytest.raises(ValueError):
        monotonicity_trial(StateVector(SHAPE_321, {(1, 1, 0): 2.0}), inst)
    from modal_ent.states import SystemShape

    with pytest.raises(ValueError):
        monotonicity_trial(random_state(SystemShape(4, 2, 1), rng), inst)


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
