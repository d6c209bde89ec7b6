import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from modal_ent.classify import family
from modal_ent.invariants import invariant_report
from modal_ent.maxent import build_psi_sigma, feasible, pattern_scan
from modal_ent.operators import GroupElement, apply
from modal_ent.states import (
    SHAPE_321,
    StateVector,
    SystemShape,
    enumerate_basis,
    is_maximally_entangled,
    random_state,
    reduced_density_matrix,
)

rng = np.random.default_rng(55)
EPS = float(np.finfo(float).eps)

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


def test_sequence_states():
    # the last three sectors exceed 10^6 dimensions; (30, 5) has 210 modes
    # and a dimension of 177 digits
    for r, p in [(2, 1), (3, 1), (1, 2), (2, 2), (1, 3), (3, 2), (2, 3), (30, 5)]:
        psi = build_psi_sigma(r, p)
        assert psi.shape == SystemShape(r * (p + 2), r * (p + 1), p)
        assert len(psi.amplitudes) == p + 2
        assert abs(psi.norm() - 1.0) < 1e-12
        assert is_maximally_entangled(psi, tol=1e-12)
    assert len(str(build_psi_sigma(30, 5).shape.dimension)) == 177


def test_build_psi_sigma_refuses_counts_below_one():
    for r, p in [(0, 1), (1, 0), (-1, 2), (2, -1)]:
        with pytest.raises(ValueError, match=f"^counts must be positive, got r={r}, p={p}$"):
            build_psi_sigma(r, p)


def test_feasible_refuses_counts_that_are_not_integers():
    # 3.0 used to pass as the count it equals
    for counts, name, value in (((3.0, 2, 1), "n", 3.0), ((3, True, 1), "m", True), ((3, 2, np.False_), "p", np.False_)):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {re.escape(repr(value))}$"):
            feasible(*counts)
    assert feasible(np.int64(3), np.uint8(2), 1) is True


def test_build_psi_sigma_refuses_counts_that_are_not_integers():
    # True used to build the r = 1 state
    with pytest.raises(TypeError, match="^r must be an integer, got True$"):
        build_psi_sigma(True, 1)
    with pytest.raises(ValueError, match="^p must be an integer, got 1.0$"):
        build_psi_sigma(1, 1.0)
    assert build_psi_sigma(np.int64(1), 1).shape == SHAPE_321


def test_pattern_scan_refuses_counts_that_are_not_integers():
    # [True] used to give rows with n=True
    with pytest.raises(ValueError, match="^n must be an integer, got True$"):
        pattern_scan([True], [1])
    with pytest.raises(ValueError, match="^p must be an integer, got 1.5$"):
        pattern_scan([3], [1, 1.5])
    rows = pattern_scan([np.int64(3)], [np.uint8(1)])
    assert [(r.n, r.m, r.p) for r in rows] == [(3, 1, 1), (3, 2, 1), (3, 3, 1)]
    assert all(type(r.n) is int and type(r.p) is int for r in rows)


def test_pattern_scan_builds_every_feasible_row():
    rows = pattern_scan(range(1, 41), range(1, 6))
    built = [r for r in rows if r.feasible]
    # p + 2 divides n: 13, 10, 8, 6 and 5 mode counts for p = 1 .. 5
    assert len(built) == 42
    assert all(r.constructed and r.max_ent_verified for r in built)
    assert not any(r.constructed or r.max_ent_verified for r in rows if not r.feasible)


def _witness(shape, branches, phases):
    """The state whose branches are the rows of an array, each of modulus
    1/sqrt(p + 2) with the given phases."""
    scale = 1.0 / math.sqrt(shape.local_dim)
    return StateVector(shape, {occ: complex(z) * scale for occ, z in zip(branches, phases)})


def _random_array(local, r, p):
    """The rows of a random (p + 2) x r (p + 2) array: each column a
    permutation of 0 .. p + 1, each row holding exactly r vacancies."""
    columns = []
    for vacant in local.permutation(np.repeat(np.arange(p + 2), r)).tolist():
        column = (local.permutation(p + 1) + 1).tolist()
        column.insert(vacant, 0)
        columns.append(column)
    return list(zip(*columns))


def _phases(local, d):
    return np.exp(2j * np.pi * local.random(d)).tolist()


@pytest.mark.parametrize("n, m, p", [(6, 4, 1), (8, 6, 2), (9, 6, 1), (5, 4, 3), (16, 12, 2)])
def test_array_witnesses_beyond_cyclic_shifts_are_maximally_entangled(n, m, p):
    # the module docstring's argument needs only that each mode sees every
    # symbol once across the branches and that distinct branches differ on
    # every mode; any such array meets both, whatever the branch phases.
    # Whether the arrays of one sector lie on one local orbit is left open.
    local = np.random.default_rng(1300 + n)
    r = n // (p + 2)
    for _ in range(50):
        psi = _witness(SystemShape(n, m, p), _random_array(local, r, p), _phases(local, p + 2))
        assert len(psi.amplitudes) == p + 2
        assert is_maximally_entangled(psi, tol=1e-12)


def test_every_array_witness_in_the_321_sector_has_the_invariants_of_psi2():
    local = np.random.default_rng(1321)
    arrays = set()
    for columns in itertools.product(itertools.permutations(range(3)), repeat=3):
        if all(row.count(0) == 1 for row in zip(*columns)):
            arrays.add(frozenset(zip(*columns)))
    # a state is the set of its branches; the cyclic shifts are one of the 8
    assert len(arrays) == 8
    assert frozenset(build_psi_sigma(1, 1).amplitudes) in arrays
    for branches in sorted(map(sorted, arrays)):
        for _ in range(4):
            psi = _witness(SHAPE_321, branches, _phases(local, 3))
            assert is_maximally_entangled(psi, tol=1e-12)
            report = invariant_report(psi)
            assert abs(report.I1) == 0.0
            assert abs(abs(report.I2) - 3.0**-1.5) < 1e-15


def test_level_swap_carries_psi2_to_the_sequence_state():
    swap = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    eye = np.eye(3, dtype=complex)
    moved = apply(GroupElement([eye, swap, swap]), family("psi2"))
    assert np.abs(moved.dense() - build_psi_sigma(1, 1).dense()).max() < 1e-15


#: every sector of at most six modes and spin numerator at most three whose
#: basis is small enough to sweep, the four feasible ones among them
NECESSITY_SECTORS = [
    (n, m, p)
    for n in range(1, 7)
    for m in range(1, n + 1)
    for p in range(1, 4)
    if SystemShape(n, m, p).dimension <= 1300
]


def _vacancy_weights(state):
    """The vacancy weight v_k of each single-mode reduction, its last diagonal entry."""
    return [reduced_density_matrix(state, k)[-1][-1].real for k in range(state.shape.modes)]


def _necessity_states(shape, local):
    """Random states of a sector and its first and last basis states."""
    basis = enumerate_basis(shape)
    return [random_state(shape, local) for _ in range(3)] + [
        StateVector(shape, {basis[0]: 1.0}),
        StateVector(shape, {basis[-1]: 1.0}),
    ]


def _weights_tolerance(shape) -> float:
    """How far the computed vacancy weights may sum from (n - m) times the
    exact squared norm S of the stored amplitudes, for S near 1.

    Each v_k sums at most ``dim`` terms ``|a|^2``, each rounded twice, so it
    lies within ``(dim + 1) u v_k`` of its exact value, u = eps / 2; summing
    the n weights adds ``n u`` of the total, which is (n - m) S. So the sum
    is within ``(dim + n + 1) u (n - m) S``; the bound below doubles it.
    """
    n, m = shape.modes, shape.particles
    return (shape.dimension + n + 1) * EPS * (n - m) * 1.01


def test_vacancy_weights_sum_to_the_vacant_mode_count():
    # every basis state leaves exactly n - m modes vacant, so the vacancy
    # weights of the single-mode reductions sum to (n - m) times the squared
    # norm, in feasible and infeasible sectors alike
    local = np.random.default_rng(2020)
    assert {s for s in NECESSITY_SECTORS if feasible(*s)} == {(3, 2, 1), (4, 3, 2), (5, 4, 3), (6, 4, 1)}
    for n, m, p in NECESSITY_SECTORS:
        shape = SystemShape(n, m, p)
        for psi in _necessity_states(shape, local):
            exact = sum(Fraction(a.real) ** 2 + Fraction(a.imag) ** 2 for a in psi.amplitudes.values())
            total = sum(_vacancy_weights(psi))
            assert abs(Fraction(total) - (n - m) * exact) <= _weights_tolerance(shape)


def test_every_infeasible_sector_keeps_a_reduction_away_from_the_maximally_mixed_one():
    # the weights sum to (n - m) S, while I/(p+2) would give n/(p+2); so some
    # mode's weight misses 1/(p+2) by at least |(n - m) S - n/(p+2)| / n,
    # which is positive exactly when the sector is infeasible
    local = np.random.default_rng(2121)
    for n, m, p in NECESSITY_SECTORS:
        shape = SystemShape(n, m, p)
        gap = abs(Fraction(n - m) - Fraction(n, p + 2)) / n
        assert (gap == 0) == feasible(n, m, p)
        for psi in _necessity_states(shape, local):
            exact = sum(Fraction(a.real) ** 2 + Fraction(a.imag) ** 2 for a in psi.amplitudes.values())
            # the bound at the state's own squared norm, less the weights'
            # rounding and that of the float 1/(p+2) in each of the n terms
            slack = ((n - m) * abs(exact - 1) + Fraction(_weights_tolerance(shape)) + n * EPS) / n
            worst = max(abs(w - 1.0 / (p + 2)) for w in _vacancy_weights(psi))
            assert Fraction(worst) >= gap - slack
            if not feasible(n, m, p):
                assert not is_maximally_entangled(psi)
