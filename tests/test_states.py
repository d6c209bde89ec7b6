import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modal_ent.states import (
    SHAPE_321,
    LISTED_DIMENSION,
    DensityMatrix,
    StateVector,
    SystemShape,
    basis_index,
    enumerate_basis,
    global_phase_between,
    inner_product,
    is_maximally_entangled,
    local_index,
    normalize,
    phase_fit,
    random_state,
    reduced_density_matrix,
    relabel_modes,
)

# the frozen basis order of the working sector, two particles over three modes
BASIS_321 = (
    (0, 1, 1), (0, 1, 2), (0, 2, 1), (0, 2, 2),
    (1, 0, 1), (1, 0, 2), (1, 1, 0), (1, 2, 0),
    (2, 0, 1), (2, 0, 2), (2, 1, 0), (2, 2, 0),
)


def test_basis_enumeration_321():
    basis = enumerate_basis(SHAPE_321)
    assert basis == BASIS_321
    assert SHAPE_321.dimension == 12
    idx = basis_index(SHAPE_321)
    for i, occ in enumerate(basis):
        assert idx[occ] == i


def test_basis_counts_match_formula():
    for n, m, p in [(3, 2, 1), (4, 2, 1), (4, 3, 2), (6, 4, 1), (5, 4, 3)]:
        shape = SystemShape(n, m, p)
        basis = enumerate_basis(shape)
        assert len(basis) == shape.dimension
        assert len(set(basis)) == len(basis)
        for occ in basis:
            assert sum(1 for s in occ if s) == m
            assert all(0 <= s <= p + 1 for s in occ)
        assert list(basis) == sorted(basis)


def test_local_index_level_major():
    # levels come first, vacancy sits at the last matrix index
    assert local_index(0, 1) == 2
    assert local_index(1, 1) == 0
    assert local_index(2, 1) == 1
    assert local_index(0, 3) == 4
    assert local_index(3, 3) == 2


def test_shape_validation():
    with pytest.raises(ValueError):
        SystemShape(0, 0, 1)
    with pytest.raises(ValueError):
        SystemShape(3, 4, 1)
    with pytest.raises(ValueError):
        SystemShape(3, 2, -1)


def test_state_rejects_bad_occupations():
    with pytest.raises(ValueError):
        StateVector(SHAPE_321, {(1, 1): 1.0})
    with pytest.raises(ValueError):
        StateVector(SHAPE_321, {(1, 1, 1): 1.0})
    with pytest.raises(ValueError):
        StateVector(SHAPE_321, {(3, 1, 0): 1.0})
    with pytest.raises(ValueError):
        StateVector(SHAPE_321, {(0, 0, 1): 1.0})


def test_dense_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(5):
        st0 = random_state(SHAPE_321, rng)
        vec = st0.dense()
        st1 = StateVector.from_dense(SHAPE_321, vec)
        assert np.max(np.abs(st1.dense() - vec)) == 0
        assert abs(st0.norm() - 1.0) < 1e-12
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12


def test_reduced_density_of_product_like_state():
    # both particles pinned to modes A and B, mode C always empty
    psi = StateVector(SHAPE_321, {(1, 1, 0): 0.6, (2, 2, 0): 0.8})
    rho_c = reduced_density_matrix(psi, 2)
    assert np.allclose(rho_c.entries, np.diag([0.0, 0.0, 1.0]), atol=1e-14)
    rho_a = reduced_density_matrix(psi, 0)
    assert np.allclose(rho_a.entries, np.diag([0.36, 0.64, 0.0]), atol=1e-14)
    assert abs(rho_a.trace() - 1.0) < 1e-14
    assert rho_a.hermiticity_defect() < 1e-14


def test_reduced_density_off_diagonals():
    # shared rest key (0, x, 1) produces coherence between levels of mode A
    a, b = 0.6, 0.8j
    psi = StateVector(SHAPE_321, {(1, 0, 1): a, (2, 0, 1): b})
    rho = reduced_density_matrix(psi, 0)
    assert abs(rho.entries[0, 1] - a * np.conj(b)) < 1e-14
    assert abs(rho.entries[1, 0] - b * np.conj(a)) < 1e-14
    assert abs(rho.purity() - 1.0) < 1e-12


def test_reduced_density_requires_normalization():
    psi = StateVector(SHAPE_321, {(1, 1, 0): 2.0})
    with pytest.raises(ValueError):
        reduced_density_matrix(psi, 0)


def test_maximally_mixed_reductions():
    amp = 1.0 / math.sqrt(6.0)
    psi = StateVector(
        SHAPE_321,
        {occ: amp for occ in [(1, 1, 0), (2, 2, 0), (2, 0, 2), (1, 0, 1), (0, 2, 2), (0, 1, 1)]},
    )
    assert is_maximally_entangled(psi, tol=1e-12)
    for mode in range(3):
        rho = reduced_density_matrix(psi, mode)
        assert np.max(np.abs(rho.entries - np.eye(3) / 3)) < 1e-15


def test_inner_product_and_phase():
    rng = np.random.default_rng(1)
    a = random_state(SHAPE_321, rng)
    b = random_state(SHAPE_321, rng)
    assert abs(inner_product(a, b) - np.conj(inner_product(b, a))) < 1e-14
    assert abs(inner_product(a, a) - 1.0) < 1e-12
    phase = np.exp(0.3j)
    rotated = StateVector(SHAPE_321, {k: phase * v for k, v in a.amplitudes.items()})
    c = global_phase_between(a, rotated)
    assert abs(c - phase) < 1e-12
    with pytest.raises(ValueError):
        global_phase_between(a, b)


def test_relabel_modes():
    psi = StateVector(SHAPE_321, {(1, 2, 0): 1.0})
    swapped = relabel_modes(psi, (1, 0, 2))
    assert swapped.amplitude((2, 1, 0)) == 1.0
    back = relabel_modes(swapped, (1, 0, 2))
    assert back.amplitude((1, 2, 0)) == 1.0
    with pytest.raises(ValueError):
        relabel_modes(psi, (0, 0, 2))


def test_normalize():
    psi = StateVector(SHAPE_321, {(1, 1, 0): 3.0, (2, 2, 0): 4.0j})
    unit = normalize(psi)
    assert abs(unit.norm() - 1.0) < 1e-14
    assert abs(unit.amplitude((1, 1, 0)) - 0.6) < 1e-14
    with pytest.raises(ValueError):
        normalize(StateVector(SHAPE_321, {}))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_norm_matches_dense_norm(seed):
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=12) + 1j * rng.normal(size=12)
    psi = StateVector.from_dense(SHAPE_321, vec)
    assert abs(psi.norm() - np.linalg.norm(vec)) < 1e-12 * max(1.0, np.linalg.norm(vec))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.permutations([0, 1, 2]),
)
def test_relabel_preserves_norm_and_inverts(seed, perm):
    rng = np.random.default_rng(seed)
    psi = random_state(SHAPE_321, rng)
    perm = tuple(perm)
    moved = relabel_modes(psi, perm)
    assert abs(moved.norm() - psi.norm()) < 1e-12
    inverse = tuple(np.argsort(perm))
    back = relabel_modes(moved, inverse)
    assert max(abs(back.amplitude(o) - psi.amplitude(o)) for o in enumerate_basis(SHAPE_321)) < 1e-14


def test_phase_fit_rule_on_a_subnormalised_pair():
    # the reference has norm 0.5, so both functions accept a residual up to
    # tol * 0.5 and reject anything above it
    a = StateVector(SHAPE_321, {(1, 1, 0): 0.3, (0, 1, 2): 0.4j})
    phase = np.exp(0.7j)
    tol = 1e-9
    for delta in (0.2e-9, 0.45e-9, 0.55e-9, 0.8e-9, 1.5e-9):
        amps = {occ: phase * v for occ, v in a.amplitudes.items()}
        amps[(2, 2, 0)] = delta
        b = StateVector(SHAPE_321, amps)
        fits, c = phase_fit(a, b, tol)
        assert fits == (delta <= 0.5 * tol)
        assert abs(c - phase) < 1e-15
        if fits:
            assert abs(global_phase_between(a, b, tol) - phase) < 1e-15
        else:
            with pytest.raises(ValueError):
                global_phase_between(a, b, tol)


@pytest.mark.parametrize(
    "occ, message",
    [
        ((1, 1), "has 2 modes, expected 3"),
        ((1, 1, 0, 0), "has 4 modes, expected 3"),
        ((3, 1, 0), "carries symbol 3 outside 0..2"),
        ((1, -1, 0), "carries symbol -1 outside 0..2"),
        ((np.int64(1), np.int64(3), 0), "carries symbol 3 outside 0..2"),
        ((1, 1, 1), "holds 3 particles, expected 2"),
        ((0, 0, 1), "holds 1 particles, expected 2"),
    ],
)
def test_state_rejection_messages(occ, message):
    with pytest.raises(ValueError, match=re.escape(f"occupation {occ!r} {message}")):
        StateVector(SHAPE_321, {(1, 1, 0): 0.6, occ: 0.8})


def test_state_accepts_numpy_integer_keys():
    keys = [(np.int64(1), np.int64(1), np.int64(0)), (np.int8(0), np.uint16(2), np.int32(1))]
    psi = StateVector(SHAPE_321, {keys[0]: 0.6, keys[1]: 0.8})
    assert psi.amplitude((1, 1, 0)) == 0.6 and psi.amplitude((0, 2, 1)) == 0.8
    assert np.array_equal(psi.dense(), StateVector(SHAPE_321, {(1, 1, 0): 0.6, (0, 2, 1): 0.8}).dense())


def test_large_sector_keys_are_checked_without_listing_the_basis():
    shape = SystemShape(11, 5, 1)
    assert shape.dimension > LISTED_DIMENSION
    listed = enumerate_basis.cache_info().currsize
    StateVector(shape, {(1, 2, 0, 1, 0, 2, 0, 1, 0, 0, 0): 1.0})
    with pytest.raises(ValueError, match="holds 4 particles, expected 5"):
        StateVector(shape, {(1, 2, 0, 1, 0, 2, 0, 0, 0, 0, 0): 1.0})
    with pytest.raises(ValueError, match="carries symbol 3 outside 0..2"):
        StateVector(shape, {(1, 2, 0, 1, 0, 3, 0, 1, 0, 0, 0): 1.0})
    assert enumerate_basis.cache_info().currsize == listed
