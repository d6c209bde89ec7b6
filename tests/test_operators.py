import math

import numpy as np
import pytest
import scipy.linalg

from modal_ent.classify import family

from modal_ent.operators import (
    GroupElement,
    LocalOperator,
    apply,
    apply_on_mode,
    compose,
    element_from_matrices,
    gell_mann,
    identity_element,
    level_contraction,
    make_slocc_element,
    matrix_exp,
    occupation_scaling,
    random_element,
    sector_matrix,
)
from modal_ent.stabilizers import stabilizer
from modal_ent.states import SHAPE_321, StateVector, SystemShape, random_state

rng = np.random.default_rng(20240817)


def test_generator_matrices():
    assert np.array_equal(gell_mann(1).entries, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    assert np.array_equal(gell_mann(2).entries, [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]])
    assert np.array_equal(gell_mann(3).entries, np.diag([1, -1, 0]))
    assert np.array_equal(gell_mann(8).entries, np.diag([1, 1, -2]))
    for bad in (0, 4, 5, 6, 7, 9):
        with pytest.raises(ValueError):
            gell_mann(bad)


def test_superselection_compliance():
    ok = LocalOperator(3, np.diag([2.0, 0.5, 1.0]).astype(complex))
    assert ok.is_superselection_compliant()
    mixing = np.eye(3, dtype=complex)
    mixing[0, 2] = 1e-3
    assert not LocalOperator(3, mixing).is_superselection_compliant()
    mixing2 = np.eye(3, dtype=complex)
    mixing2[2, 1] = 1e-3
    assert not LocalOperator(3, mixing2).is_superselection_compliant()


def test_membership_tags():
    su = random_element("SU", seed=5)
    assert su.membership() == "SU"
    assert su.is_unitary() and su.is_special()
    slocc = random_element("SLOCC", seed=5)
    assert slocc.membership() == "SLOCC"
    assert not slocc.is_unitary()
    stretched = element_from_matrices([np.diag([2.0, 1.0, 1.0])] * 3)
    assert stretched.membership() == "neither"
    mix = np.eye(3, dtype=complex)
    mix[0, 2] = 0.1
    mix[2, 0] = -0.1
    leaky = element_from_matrices([mix, np.eye(3), np.eye(3)])
    assert leaky.membership() == "neither"


def test_make_slocc_element_is_special():
    for seed in range(6):
        local = np.random.default_rng(seed)
        coeffs = [local.normal(size=4) + 1j * local.normal(size=4) for _ in range(3)]
        el = make_slocc_element(coeffs)
        for op in el.per_mode:
            assert abs(op.det() - 1.0) < 1e-9
            assert op.is_superselection_compliant()
    with pytest.raises(ValueError):
        make_slocc_element([(np.inf, 0, 0, 0)] * 3)


def test_matrix_exp_matches_scipy():
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m[:2, 2] = 0
    m[2, :2] = 0
    got = matrix_exp(LocalOperator(3, m)).entries
    assert np.abs(got - scipy.linalg.expm(m)).max() < 1e-12
    with pytest.raises(ValueError):
        matrix_exp(LocalOperator(3, m * np.nan))


def test_matrix_exp_closed_form_edge_cases():
    # nilpotent level block: s = 0, where sinh(s)/s takes its limit 1
    nil = np.array([[2.0, 1.5, 0], [0, 2.0, 0], [0, 0, -4.0]], dtype=complex)
    want = np.exp(2.0) * np.array([[1.0, 1.5], [0.0, 1.0]])
    got = matrix_exp(LocalOperator(3, nil)).entries
    assert np.abs(got[:2, :2] - want).max() < 1e-12
    assert abs(got[2, 2] - np.exp(-4.0)) < 1e-15
    assert np.abs(got - scipy.linalg.expm(nil)).max() < 1e-12
    # purely imaginary s, the stabilizer case exp(i pi m L3)
    for m in (0.25, 0.5, 1, 2):
        gen = 1j * np.pi * m * gell_mann(3).entries
        got = matrix_exp(LocalOperator(3, gen)).entries
        assert np.abs(got - scipy.linalg.expm(gen)).max() < 1e-12
    # large real s: the small diagonal entry keeps its relative accuracy
    got = matrix_exp(LocalOperator(3, np.diag([12.0, -12.0, 0.0]).astype(complex))).entries
    assert abs(got[1, 1] / np.exp(-12.0) - 1.0) < 1e-14
    assert abs(make_slocc_element([(0, 0, 12.0, 0)] * 3).per_mode[0].det() - 1.0) < 1e-12
    # operators that mix levels with the vacancy, or are not 3x3, are refused
    leaky = np.zeros((3, 3), dtype=complex)
    leaky[0, 2] = 1e-3
    with pytest.raises(ValueError):
        matrix_exp(LocalOperator(3, leaky))
    with pytest.raises(ValueError):
        matrix_exp(LocalOperator(2, np.eye(2, dtype=complex)))


def test_apply_matches_sector_matrix():
    for seed, kind in [(0, "SU"), (1, "SU"), (2, "SLOCC"), (3, "SLOCC")]:
        el = random_element(kind, seed=seed)
        psi = random_state(SHAPE_321, rng)
        sparse = apply(el, psi).dense()
        dense = sector_matrix(el, SHAPE_321) @ psi.dense()
        assert np.abs(sparse - dense).max() < 1e-12


def test_apply_identity_and_scaling():
    psi = random_state(SHAPE_321, rng)
    same = apply(identity_element(3, 3), psi)
    assert np.abs(same.dense() - psi.dense()).max() == 0
    doubled = element_from_matrices([2 * np.eye(3), np.eye(3), np.eye(3)])
    grown = apply(doubled, psi)
    # no renormalization: the factor of two on mode A survives in the output
    assert np.abs(grown.dense() - 2 * psi.dense()).max() < 1e-12
    assert abs(grown.norm() - 2.0) < 1e-12


def test_apply_rejects_bad_elements():
    psi = random_state(SHAPE_321, rng)
    with pytest.raises(ValueError):
        apply(identity_element(2, 3), psi)
    with pytest.raises(ValueError):
        apply(identity_element(3, 4), psi)
    mix = np.eye(3, dtype=complex)
    mix[0, 2] = 0.5
    with pytest.raises(ValueError):
        apply(element_from_matrices([mix, np.eye(3), np.eye(3)]), psi)


def test_compose_order():
    g = random_element("SLOCC", seed=11)
    h = random_element("SLOCC", seed=12)
    psi = random_state(SHAPE_321, rng)
    lhs = apply(compose(g, h), psi).dense()
    rhs = apply(g, apply(h, psi)).dense()
    assert np.abs(lhs - rhs).max() < 1e-10
    gh = compose(g, h)
    hg = compose(h, g)
    assert np.abs(gh.per_mode[0].entries - hg.per_mode[0].entries).max() > 1e-6


def test_occupation_scaling_net_factor():
    # on the working sector the exponents cancel and nothing happens
    r, phi = 1.7, 0.4
    el = GroupElement(tuple(occupation_scaling(r, phi) for _ in range(3)))
    assert el.is_special()
    psi = random_state(SHAPE_321, rng)
    moved = apply(el, psi)
    assert np.abs(moved.dense() - psi.dense()).max() < 1e-12
    with pytest.raises(ValueError):
        occupation_scaling(0.0)
    with pytest.raises(ValueError):
        occupation_scaling(-1.0)


def test_occupation_scaling_unbalanced_sector():
    # four modes, two particles: every basis amplitude scales by r^-2 e^{-2 i phi}
    shape = SystemShape(4, 2, 1)
    r, phi = 1.3, 0.25
    el = GroupElement(tuple(occupation_scaling(r, phi) for _ in range(4)))
    psi = random_state(shape, rng)
    moved = apply(el, psi)
    factor = r**-2 * np.exp(-2j * phi)
    assert np.abs(moved.dense() - factor * psi.dense()).max() < 1e-12


def test_level_contraction_diagonal():
    a = 0.37
    for p in (1, 2, 3):
        op = level_contraction(a, p=p)
        diag = np.diag(op.entries)
        assert abs(diag[0] - np.exp(-(p + 1) * a)) < 1e-14
        assert abs(diag[1] - np.exp((p + 3) * a)) < 1e-14
        assert abs(diag[-1] - np.exp(-(p + 1) * a)) < 1e-14
        for mid in diag[2:-1]:
            assert abs(mid - np.exp(a)) < 1e-14
        assert abs(op.det() - 1.0) < 1e-12


def test_sector_matrix_refuses_large_sectors():
    shape = SystemShape(8, 6, 2)
    assert shape.dimension > 4096
    with pytest.raises(ValueError):
        sector_matrix(identity_element(8, 4), shape)


def test_random_element_reproducible():
    a = random_element("SU", seed=123)
    b = random_element("SU", seed=123)
    c = random_element("SU", seed=124)
    for x, y in zip(a.per_mode, b.per_mode):
        assert np.array_equal(x.entries, y.entries)
    assert np.abs(a.per_mode[0].entries - c.per_mode[0].entries).max() > 1e-8
    with pytest.raises(ValueError):
        random_element("unitary", seed=1)
    with pytest.raises(ValueError):
        random_element("SU", seed=1, spread=0.0)


def test_slocc_determinant_check_scales_with_the_factor():
    # spread-3 factors have entries of order e^|Re s| with |Re s| of several
    # units, so their determinants round far above an absolute 1e-9 while
    # the error stays tiny next to the product of the row norms
    for seed in range(300):
        element = random_element("SLOCC", seed, spread=3.0)
        for op in element.per_mode:
            scale = np.prod(np.linalg.norm(op.entries, axis=1))
            assert abs(op.det() - 1.0) <= 1e-12 * scale


def test_apply_on_mode_matches_the_full_element():
    psi = random_state(SHAPE_321, rng)
    op = random_element("SLOCC", 11).per_mode[0]
    for mode in range(3):
        mats = [np.eye(3, dtype=complex)] * 3
        mats[mode] = op.entries
        assert apply_on_mode(op, mode, psi).amplitudes == apply(element_from_matrices(mats), psi).amplitudes
    for bad in (-1, 3):
        with pytest.raises(ValueError):
            apply_on_mode(op, bad, psi)


def _apply_by_array_indexing(element, state):
    """apply restated with one array index per weight, its earlier formulation."""
    p = state.shape.spin_numerator
    vac = p + 1
    out = {}
    for occ, amp in state.amplitudes.items():
        partial = [((), amp)]
        for k, sym in enumerate(occ):
            mat = element.per_mode[k].entries
            grown = []
            if sym == 0:
                w = mat[vac, vac]
                if w != 0:
                    grown = [(pre + (0,), val * w) for pre, val in partial]
            else:
                for lev in range(1, p + 2):
                    w = mat[lev - 1, sym - 1]
                    if w != 0:
                        grown.extend((pre + (lev,), val * w) for pre, val in partial)
            partial = grown
        for new_occ, val in partial:
            out[new_occ] = out.get(new_occ, 0j) + val
    return out


def test_apply_equals_array_indexing_oracle():
    local = np.random.default_rng(8086)
    states = [random_state(SHAPE_321, local) for _ in range(30)]
    states += [family("psi1"), family("psi2"), family("S1", {"r": 0.2}), family("S2", {"r": 0.4, "theta": 0.9})]
    states += [family("Eq15", {"r1": 0.6, "r2": 0.48, "r3": 0.64})]
    elements = [random_element("SU", s) for s in range(6)]
    elements += [random_element("SLOCC", s, spread=1.5) for s in range(6)]
    elements += [
        stabilizer("generic_eq13", {"m": 1, "alpha": 0.4}).element,
        stabilizer("family16_eq20", {"alpha": 0.3, "beta": -1.2, "gamma": 0.5}).element,
        stabilizer("psi1_eq23", {"variant": "c", "beta": 0.7}).element,
        stabilizer("psi2_eq26", {"alpha": 0.2, "beta": 0.1, "gamma": -0.3, "delta": 0.8}).element,
    ]
    for psi in states:
        # a second pass feeds np.complex128 amplitudes back in
        for start in (psi, apply(elements[0], psi)):
            for element in elements:
                got = apply(element, start).amplitudes
                want = _apply_by_array_indexing(element, start)
                assert list(got) == list(want)
                for occ, val in want.items():
                    assert got[occ] == val
                    assert type(got[occ]) is np.complex128


@pytest.mark.parametrize("mode", [0, 1, 2])
@pytest.mark.parametrize("entry", [(0, 2), (1, 2), (2, 0), (2, 1)])
def test_nan_in_any_leak_entry_is_refused(mode, entry):
    mats = [np.eye(3, dtype=complex) for _ in range(3)]
    # the other leak entries hold small finite values that pass on their own
    for pos in ((0, 2), (1, 2), (2, 0), (2, 1)):
        mats[mode][pos] = 1e-12
    mats[mode][entry] = math.nan
    element = element_from_matrices(mats)
    assert not element.per_mode[mode].is_superselection_compliant()
    with pytest.raises(ValueError, match=f"operator on mode {mode} violates the superselection rule"):
        apply(element, random_state(SHAPE_321, rng))


def _slocc_coefficient_sets():
    """Seeded (c1, c2, c3, c8) sets of the kinds the package exponentiates."""
    local = np.random.default_rng(7150)
    zeros = (0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0), 0j, 0)
    for spread in (0.3, 1.0, 3.0):
        for _ in range(500):
            yield tuple(local.normal(scale=spread, size=4) + 1j * local.normal(scale=spread, size=4))
    for spread in (0.5, 1.0, 2.0):
        for _ in range(500):
            yield tuple(1j * local.normal(scale=spread, size=4))
    for _ in range(500):
        x3, x8 = local.uniform(-4.0, 4.0, size=2)
        yield (0, 0, 1j * x3, 1j * x8)
    for _ in range(500):
        x3, x8 = local.normal(size=2)
        yield (0, 0, x3, x8)
    for _ in range(1000):
        m = local.integers(-6, 7, size=4)
        scale = local.choice([1j * math.pi, 1j * math.pi / 2, 1j * math.pi / 3, math.pi / 4])
        yield tuple(scale * int(k) for k in m)
    for _ in range(1000):
        pick = local.integers(0, 2 * len(zeros), size=4)
        draw = local.normal(size=4) + 1j * local.normal(size=4)
        yield tuple(zeros[p] if p < len(zeros) else draw[j] for j, p in enumerate(pick))
    negative_zero = complex(-0.0, -0.0)
    for c8 in (-0.0, -1.5, complex(-1.5, 0.0), complex(-0.0, 0.7), negative_zero, 0, 2.0):
        yield (negative_zero, negative_zero, negative_zero, c8)
        yield (negative_zero, 0.0, negative_zero, c8)
        yield (-0.0, -0.0, -0.0, c8)


def test_slocc_closed_form_generator_equals_the_matrix_algebra():
    """The written-down generator exponentiates to the same bits as the sum
    of the four Gell-Mann matrices did, signs of zeros included."""
    gens = [gell_mann(i).entries for i in (1, 2, 3, 8)]
    count = 0
    for coeffs in _slocc_coefficient_sets():
        c1, c2, c3, c8 = (complex(c) for c in coeffs)
        want = matrix_exp(LocalOperator(3, c1 * gens[0] + c2 * gens[1] + c3 * gens[2] + c8 * gens[3]))
        got = make_slocc_element([coeffs]).per_mode[0]
        a, b = got.entries.view(np.float64), want.entries.view(np.float64)
        assert np.array_equal(a, b), coeffs
        assert np.array_equal(np.signbit(a), np.signbit(b)), coeffs
        count += 1
    assert count >= 5000
