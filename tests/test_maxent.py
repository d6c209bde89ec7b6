import math

import numpy as np
import pytest

from modal_ent.classify import family
from modal_ent.maxent import (
    DIMENSION_CAP,
    build_psi_sigma,
    contraction_witnesses,
    feasible,
    pattern_scan,
    single_mode_bipartition_local,
)
from modal_ent.operators import apply, element_from_matrices
from modal_ent.states import (
    SHAPE_321,
    StateVector,
    SystemShape,
    is_maximally_entangled,
    normalize,
)

rng = np.random.default_rng(55)

FEASIBLE_ROWS = {(3, 2, 1), (6, 4, 1), (4, 3, 2), (8, 6, 2), (5, 4, 3)}


def test_feasibility_identity():
    for n in range(1, 9):
        for m in range(1, n + 1):
            for p in range(1, 4):
                assert feasible(n, m, p) == (m * (p + 2) == n * (p + 1))
    for bad in [(0, 1, 1), (3, 0, 1), (3, 2, 0)]:
        with pytest.raises(ValueError):
            feasible(*bad)


def test_pattern_scan_finds_exactly_the_sequence_sectors():
    rows = pattern_scan(range(1, 9), range(1, 4))
    found = {(r.n, r.m, r.p) for r in rows if r.feasible}
    assert found == FEASIBLE_ROWS
    for r in rows:
        if r.feasible:
            assert r.constructed and r.max_ent_verified
        else:
            assert not r.constructed and not r.max_ent_verified


def test_minimal_sequence_state():
    psi = build_psi_sigma(1, 1)
    assert psi.shape == SHAPE_321
    amp = 1.0 / math.sqrt(3.0)
    assert set(psi.amplitudes) == {(2, 0, 1), (1, 2, 0), (0, 1, 2)}
    for v in psi.amplitudes.values():
        assert abs(v - amp) < 1e-15
    assert is_maximally_entangled(psi, tol=1e-12)


def test_sequence_states_in_cap():
    for r, p in [(2, 1), (3, 1), (1, 2), (2, 2), (1, 3)]:
        psi = build_psi_sigma(r, p)
        assert psi.shape.modes == r * (p + 2)
        assert psi.shape.particles == r * (p + 1)
        assert len(psi.amplitudes) == p + 2
        assert abs(psi.norm() - 1.0) < 1e-12
        assert is_maximally_entangled(psi, tol=1e-12)


def test_dimension_cap():
    assert SystemShape(12, 9, 2).dimension > DIMENSION_CAP
    with pytest.raises(ValueError):
        build_psi_sigma(3, 2)
    with pytest.raises(ValueError):
        build_psi_sigma(2, 3)
    with pytest.raises(ValueError):
        build_psi_sigma(0, 1)


def test_level_swap_carries_psi2_to_the_sequence_state():
    swap = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    eye = np.eye(3, dtype=complex)
    moved = apply(element_from_matrices([eye, swap, swap]), family("psi2"))
    assert np.abs(moved.dense() - build_psi_sigma(1, 1).dense()).max() < 1e-15


def test_single_mode_bipartition_local():
    pinned = StateVector(SHAPE_321, {(1, 1, 0): 0.6, (2, 2, 0): 0.8})
    assert single_mode_bipartition_local(pinned, 2)
    assert not single_mode_bipartition_local(pinned, 0)
    for mode in range(3):
        assert not single_mode_bipartition_local(family("psi1"), mode)
    assert single_mode_bipartition_local(StateVector(SHAPE_321, {}), 1)
    with pytest.raises(ValueError):
        single_mode_bipartition_local(pinned, 3)


def test_contraction_witness_real_parameter():
    psi = normalize(StateVector(SHAPE_321, {(1, 1, 0): 0.6, (2, 1, 0): 0.8}))
    wit = contraction_witnesses(psi, 1, 0.4)
    assert wit.matches
    assert abs(wit.norm_ratio - math.exp(-0.8)) < 1e-12
    assert wit.phase is None
    assert abs(wit.predicted_phase - np.exp(-0.8)) < 1e-12


def test_contraction_witness_imaginary_parameter():
    psi = normalize(StateVector(SHAPE_321, {(1, 1, 0): 0.6, (2, 1, 0): 0.8}))
    wit = contraction_witnesses(psi, 1, 0.3j)
    assert wit.matches
    assert abs(wit.norm_ratio - 1.0) < 1e-12
    assert wit.phase is not None
    assert abs(wit.phase - np.exp(-0.6j)) < 1e-12


def test_contraction_witness_beyond_spin_half():
    # vacancy-only mode in a p = 2 sector still picks up the same scalar
    shape = SystemShape(3, 2, 2)
    psi = normalize(StateVector(shape, {(1, 2, 0): 1.0, (3, 1, 0): 1.0}))
    wit = contraction_witnesses(psi, 2, 0.25)
    assert wit.matches
    assert abs(wit.norm_ratio - math.exp(-0.75)) < 1e-12


def test_contraction_witness_preconditions():
    psi = normalize(StateVector(SHAPE_321, {(1, 1, 0): 0.6, (2, 1, 0): 0.8}))
    with pytest.raises(ValueError):
        contraction_witnesses(psi, 0, 0.4)
    entangled = normalize(StateVector(SHAPE_321, {(1, 1, 0): 1.0, (0, 1, 1): 1.0}))
    with pytest.raises(ValueError):
        contraction_witnesses(entangled, 0, 0.4)
    with pytest.raises(ValueError):
        contraction_witnesses(StateVector(SHAPE_321, {}), 0, 0.4)
    with pytest.raises(ValueError):
        contraction_witnesses(psi, 5, 0.4)
