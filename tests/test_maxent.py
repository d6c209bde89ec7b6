import math

import numpy as np
import pytest

from modal_ent.classify import family
from modal_ent.maxent import DIMENSION_CAP, build_psi_sigma, feasible, pattern_scan
from modal_ent.operators import GroupElement, apply
from modal_ent.states import SHAPE_321, SystemShape, is_maximally_entangled

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
    moved = apply(GroupElement([eye, swap, swap]), family("psi2"))
    assert np.abs(moved.dense() - build_psi_sigma(1, 1).dense()).max() < 1e-15
