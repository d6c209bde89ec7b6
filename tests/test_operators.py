import cmath
import itertools
import math
import re
import struct
import unittest.mock

import numpy as np
import pytest
import scipy.linalg

from group_checks import is_special, is_unitary, membership
from modal_ent.classify import canonical_form, family

from modal_ent.operators import (
    GroupElement,
    _EXPONENT_WEIGHTS,
    _exp_entries,
    _moved,
    apply,
    apply_on_mode,
    make_slocc_element,
    occupation_scaling,
    random_element,
    sector_matrix,
)
from modal_ent import stabilizers
from modal_ent.serialize import element_to_json
from modal_ent.stabilizers import stabilizer
from modal_ent.states import _PAIRS, SHAPE_321, StateVector, SystemShape, enumerate_basis, random_state

rng = np.random.default_rng(20240817)

# The four generators, the reference that make_slocc_element's written-out
# weights are pinned against.
_L1 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
_L2 = np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex)
_L3 = np.diag([1.0, -1.0, 0.0]).astype(complex)
_L8 = np.diag([1.0, 1.0, -2.0]).astype(complex)
_GELL_MANN = {1: _L1, 2: _L2, 3: _L3, 8: _L8}


def gell_mann(index: int) -> np.ndarray:
    """One of the four diagonal-block generators on a three-level mode.

    Indices 1, 2, 3 act on the two occupied levels in the Pauli pattern and
    index 8 is the diagonal charge-like generator diag(1, 1, -2).
    """
    if index not in _GELL_MANN:
        raise ValueError(f"unsupported generator index {index}; valid indices are 1, 2, 3, 8")
    return _GELL_MANN[index].copy()


def matrix_exp(op: np.ndarray) -> np.ndarray:
    """Matrix exponential of a compliant spin-1/2 operator, in the closed form
    of ``make_slocc_element``, for the reference tests below.

    Any other operator, including a 3x3 one with nonzero entries mixing
    levels and vacancy, raises ValueError.
    """
    if op.shape != (3, 3):
        raise ValueError(f"closed-form exponential needs a 3x3 operator, got shape {op.shape}")
    (a, b, x), (c, d, y), (p, q, v) = op.tolist()
    if not all(cmath.isfinite(z) for z in (a, b, c, d, v, x, y, p, q)):
        raise ValueError("matrix exponential of a non-finite matrix")
    if x or y or p or q:
        raise ValueError("closed-form exponential needs levels and vacancy kept apart")
    return np.array(_exp_entries(a, b, c, d, v), dtype=complex)


def test_generator_matrices():
    assert np.array_equal(gell_mann(1), [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    assert np.array_equal(gell_mann(2), [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]])
    assert np.array_equal(gell_mann(3), np.diag([1, -1, 0]))
    assert np.array_equal(gell_mann(8), np.diag([1, 1, -2]))
    for bad in (0, 4, 5, 6, 7, 9):
        with pytest.raises(ValueError):
            gell_mann(bad)


def test_superselection_compliance():
    ok = np.diag([2.0, 0.5, 1.0]).astype(complex)
    assert GroupElement([ok]).is_superselection_compliant()
    mixing = np.eye(3, dtype=complex)
    mixing[0, 2] = 1e-3
    assert not GroupElement([ok, mixing]).is_superselection_compliant()
    mixing2 = np.eye(3, dtype=complex)
    mixing2[2, 1] = 1e-3
    assert not GroupElement([mixing2, ok]).is_superselection_compliant()


def test_group_element_holds_one_validated_stack():
    el = GroupElement([np.eye(3), np.diag([1, 1j, -1j])])
    assert np.asarray(el.matrices).shape == (2, 3, 3)
    assert all(type(z) is complex for op in el.matrices for row in op for z in row)
    assert np.array_equal(GroupElement(el.matrices).matrices, el.matrices)
    with pytest.raises(ValueError, match="must share one dimension"):
        GroupElement([np.eye(3), np.eye(4)])
    for bad in ([], np.eye(3), np.zeros((3, 3, 2)), np.ones((2, 1, 1)), np.zeros((1, 2, 3, 3))):
        with pytest.raises(ValueError, match=r"expected a \(modes, d, d\) stack"):
            GroupElement(bad)


def _entry_bits(element):
    """Type and IEEE bytes of every entry, so 0 and 0j, or 0.0 and -0.0, differ."""
    return [(type(z), struct.pack("<2d", z.real, z.imag)) for op in element.matrices for row in op for z in row]


def test_handed_over_rows_are_what_the_public_constructor_makes():
    # make_slocc_element and canonical_form hand their rows to GroupElement
    # unchecked; the public constructor must find nothing to change in them
    local = np.random.default_rng(77)
    elements = [random_element(kind, seed) for kind in ("SU", "SLOCC") for seed in range(30)]

    def draw(*names):
        return {k: float(local.uniform(-2.0, 2.0)) for k in names}

    for _ in range(10):
        elements += [
            stabilizer("generic_eq13", {"m": int(local.integers(-3, 4)), **draw("alpha")}).element,
            stabilizer("family16_eq20", draw("alpha", "beta", "gamma")).element,
            stabilizer("psi1_eq23", {"variant": "a", **{k: int(local.integers(-3, 4)) for k in "klmnpq"},
                                     **draw("alpha")}).element,
            stabilizer("psi1_eq23", {"variant": "c", **draw("beta")}).element,
            stabilizer("psi2_eq26", draw("alpha", "beta", "gamma", "delta")).element,
        ]
    elements.append(stabilizer("psi1_eq23", {"variant": "b"}).element)
    named = [family("psi1"), family("psi2"), family("S1", {"r": 0.2}), family("S2", {"r": 0.3, "theta": 1.2}),
             family("Eq14", {"r1": 0.6, "r2": 0.8, "r3": 0.0})]
    elements += [canonical_form(psi).element for psi in named]
    elements += [canonical_form(random_state(SHAPE_321, local)).element for _ in range(30)]
    for el in elements:
        rebuilt = GroupElement(el.matrices)
        assert rebuilt.matrices == el.matrices
        assert _entry_bits(rebuilt) == _entry_bits(el)
        # element_to_json writes an int 0 as 0 but 0j as {"re": 0, "im": 0}
        assert element_to_json(rebuilt) == element_to_json(el)


def test_group_element_reads_arrays_and_nested_lists_alike():
    op = [[1, 2j, 0], [-0.5, 3.0, 0], [0, 0, 1 - 1j]]
    rows = ((1 + 0j, 2j, 0j), (-0.5 + 0j, 3 + 0j, 0j), (0j, 0j, 1 - 1j))
    assert GroupElement([op]).matrices == GroupElement(np.array([op])).matrices == (rows,)
    for bad in ([[["a", 0], [0, 1]]], [[[None, 0], [0, 1]]]):
        with pytest.raises(ValueError, match="the entries of a group element must be numbers"):
            GroupElement(bad)


def test_membership_tags():
    su = random_element("SU", seed=5)
    assert membership(su) == "SU"
    assert is_unitary(su) and is_special(su)
    slocc = random_element("SLOCC", seed=5)
    assert membership(slocc) == "SLOCC"
    assert not is_unitary(slocc)
    stretched = GroupElement([np.diag([2.0, 1.0, 1.0])] * 3)
    assert membership(stretched) == "neither"
    mix = np.eye(3, dtype=complex)
    mix[0, 2] = 0.1
    mix[2, 0] = -0.1
    leaky = GroupElement([mix, np.eye(3), np.eye(3)])
    assert membership(leaky) == "neither"
    # a NaN anywhere fails the stacked tests it reaches
    for entry in ((0, 0), (0, 1), (2, 2), (0, 2)):
        mats = [np.eye(3, dtype=complex) for _ in range(3)]
        mats[1][entry] = math.nan
        poisoned = GroupElement(mats)
        with np.errstate(invalid="ignore"):
            assert not is_special(poisoned)
            assert membership(poisoned) == "neither"
        assert not is_unitary(poisoned)
        assert poisoned.is_superselection_compliant() == (entry != (0, 2))


def test_make_slocc_element_is_special():
    for seed in range(6):
        local = np.random.default_rng(seed)
        coeffs = [local.normal(size=4) + 1j * local.normal(size=4) for _ in range(3)]
        el = make_slocc_element(coeffs)
        assert np.abs(np.linalg.det(el.matrices) - 1.0).max() < 1e-9
        assert el.is_superselection_compliant()
    with pytest.raises(ValueError, match="non-finite exponent coefficients on mode 0"):
        make_slocc_element([(np.inf, 0, 0, 0)] * 3)
    # finite exponents whose entries or exponentials leave the float range
    for bad in [(800, 0, 0, 0), (0, 0, 800, 0), (1e200j, 0, 0, 0), (1e308, 1e308, 0, 0), (0, 0, 0, 1e308j)]:
        with pytest.raises(ValueError, match="the exponential on mode 1 overflows"):
            make_slocc_element([(0, 0, 0, 0), bad, (0, 0, 0, 0)])
    # the vacancy entry underflows to zero, so the factor is singular
    with pytest.raises(ArithmeticError, match="factor on mode 0 drifted off determinant one"):
        make_slocc_element([(0, 0, 0, 400)])


def test_matrix_exp_matches_scipy():
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m[:2, 2] = 0
    m[2, :2] = 0
    got = matrix_exp(m)
    assert np.abs(got - scipy.linalg.expm(m)).max() < 1e-12
    with pytest.raises(ValueError):
        matrix_exp(m * np.nan)


def test_matrix_exp_closed_form_edge_cases():
    # nilpotent level block: s = 0, where sinh(s)/s takes its limit 1
    nil = np.array([[2.0, 1.5, 0], [0, 2.0, 0], [0, 0, -4.0]], dtype=complex)
    want = np.exp(2.0) * np.array([[1.0, 1.5], [0.0, 1.0]])
    got = matrix_exp(nil)
    assert np.abs(got[:2, :2] - want).max() < 1e-12
    assert abs(got[2, 2] - np.exp(-4.0)) < 1e-15
    assert np.abs(got - scipy.linalg.expm(nil)).max() < 1e-12
    # purely imaginary s, the stabilizer case exp(i pi m L3)
    for m in (0.25, 0.5, 1, 2):
        gen = 1j * np.pi * m * gell_mann(3)
        got = matrix_exp(gen)
        assert np.abs(got - scipy.linalg.expm(gen)).max() < 1e-12
    # large real s: the small diagonal entry keeps its relative accuracy
    got = matrix_exp(np.diag([12.0, -12.0, 0.0]).astype(complex))
    assert abs(got[1, 1] / np.exp(-12.0) - 1.0) < 1e-14
    assert abs(np.linalg.det(make_slocc_element([(0, 0, 12.0, 0)] * 3).matrices[0]) - 1.0) < 1e-12
    # operators that mix levels with the vacancy, or are not 3x3, are refused
    leaky = np.zeros((3, 3), dtype=complex)
    leaky[0, 2] = 1e-3
    with pytest.raises(ValueError):
        matrix_exp(leaky)
    with pytest.raises(ValueError):
        matrix_exp(np.eye(2, dtype=complex))


def test_apply_matches_sector_matrix():
    for seed, kind in [(0, "SU"), (1, "SU"), (2, "SLOCC"), (3, "SLOCC")]:
        el = random_element(kind, seed=seed)
        psi = random_state(SHAPE_321, rng)
        sparse = apply(el, psi).dense()
        dense = sector_matrix(el, SHAPE_321) @ psi.dense()
        assert np.abs(sparse - dense).max() < 1e-12


def test_apply_identity_and_scaling():
    psi = random_state(SHAPE_321, rng)
    same = apply(GroupElement([np.eye(3)] * 3), psi)
    assert np.abs(same.dense() - psi.dense()).max() == 0
    doubled = GroupElement([2 * np.eye(3), np.eye(3), np.eye(3)])
    grown = apply(doubled, psi)
    # no renormalization: the factor of two on mode A survives in the output
    assert np.abs(grown.dense() - 2 * psi.dense()).max() < 1e-12
    assert abs(grown.norm() - 2.0) < 1e-12


def test_apply_rejects_bad_elements():
    psi = random_state(SHAPE_321, rng)
    with pytest.raises(ValueError, match=r"element has shape \(2, 3, 3\), expected \(3, 3, 3\)"):
        apply(GroupElement([np.eye(3)] * 2), psi)
    with pytest.raises(ValueError, match=r"element has shape \(3, 4, 4\), expected \(3, 3, 3\)"):
        apply(GroupElement([np.eye(4)] * 3), psi)
    mix = np.eye(3, dtype=complex)
    mix[0, 2] = 0.5
    with pytest.raises(ValueError):
        apply(GroupElement([mix, np.eye(3), np.eye(3)]), psi)


def test_occupation_scaling_net_factor():
    # on the working sector the exponents cancel and nothing happens
    r, phi = 1.7, 0.4
    el = GroupElement([occupation_scaling(r, phi)] * 3)
    assert is_special(el)
    psi = random_state(SHAPE_321, rng)
    moved = apply(el, psi)
    assert np.abs(moved.dense() - psi.dense()).max() < 1e-12
    for bad in ({"r": 0.0}, {"r": -1.0}, {"r": math.nan}, {"r": math.inf}, {"r": 1.0, "phi": math.nan},
                {"r": 1.0, "phi": math.inf}, {"r": 1.0, "p": -1}, {"r": 1.0, "p": 1.5},
                {"r": 1.0, "p": True}, {"r": 1.0, "p": np.True_}, {"r": 1e200}, {"r": 1e-200},
                {"r": np.float64(1e-200)}, {"r": 1e100, "p": np.int64(3)}, {"r": 1e-100, "p": np.int64(3)}):
        with pytest.raises(ValueError):
            occupation_scaling(**bad)


def _numpy_scaling(r, phi, p):
    """occupation_scaling as it was written before it dropped numpy."""
    head = [r * np.exp(1j * phi)] * (p + 1)
    return np.diag(head + [float(r) ** -(p + 1) * np.exp(-1j * (p + 1) * phi)]).astype(complex)


def test_occupation_scaling_keeps_the_bits_of_the_numpy_form():
    local = np.random.default_rng(2718)
    extremes = (0.0, -0.0, 5e-324, -5e-324, 1e-308, math.pi, -math.pi, 1e6, -1e6, 1e300, -1e300)
    phases = [*local.uniform(-2 * math.pi, 2 * math.pi, 100), *local.uniform(-1e6, 1e6, 30), *extremes]
    checked = 0
    for r in (1.0, 0.3, 1.7, 1e-3, 1e3, np.float64(0.45), 2):
        for p in (0, 1, 2, 3):
            for phi in phases:
                got = occupation_scaling(r, float(phi), p)
                want = _numpy_scaling(r, float(phi), p)
                assert len(got) == len(want) == p + 2
                for got_row, want_row in zip(got, want):
                    assert all(type(z) is complex for z in got_row)
                    assert [_bits(z) for z in got_row] == [_bits(z) for z in want_row], (r, phi, p)
                checked += 1
    assert checked == 7 * 4 * (130 + len(extremes))


def test_occupation_scaling_unbalanced_sector():
    # four modes, two particles: every basis amplitude scales by r^-2 e^{-2 i phi}
    shape = SystemShape(4, 2, 1)
    r, phi = 1.3, 0.25
    el = GroupElement([occupation_scaling(r, phi)] * 4)
    psi = random_state(shape, rng)
    moved = apply(el, psi)
    factor = r**-2 * np.exp(-2j * phi)
    assert np.abs(moved.dense() - factor * psi.dense()).max() < 1e-12


def test_sector_matrix_refuses_large_sectors():
    shape = SystemShape(8, 6, 2)
    assert shape.dimension > 4096
    with pytest.raises(ValueError):
        sector_matrix(GroupElement([np.eye(4)] * 8), shape)


def test_sector_matrix_refuses_a_leaking_element():
    # swapping the first level with the vacancy breaks the superselection rule
    swap = np.eye(3)[[2, 1, 0]]
    with pytest.raises(ValueError, match="^element violates the superselection rule$"):
        sector_matrix(GroupElement([swap, np.eye(3), np.eye(3)]), SHAPE_321)


def test_random_element_reproducible():
    a = random_element("SU", seed=123)
    b = random_element("SU", seed=123)
    c = random_element("SU", seed=124)
    assert np.array_equal(a.matrices, b.matrices)
    assert np.abs(np.asarray(a.matrices[0]) - np.asarray(c.matrices[0])).max() > 1e-8
    with pytest.raises(ValueError):
        random_element("unitary", seed=1)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"spread must be finite and positive, got {bad}"):
            random_element("SU", seed=1, spread=bad)


def test_random_element_refuses_a_bool_seed():
    for seed in (True, False, np.bool_(True)):
        with pytest.raises(TypeError, match="^element seed must be an integer, not a bool$"):
            random_element("SU", seed)


@pytest.mark.parametrize("seed", [None, 1.5, "7"])
def test_random_element_refuses_a_seed_that_is_not_an_integer(seed):
    # None would seed from the operating system, so the element would not
    # be reproducible; the refusal comes before anything is drawn
    with unittest.mock.patch("numpy.random.default_rng") as draw:
        with pytest.raises(TypeError, match=rf"^element seed must be an integer, got {re.escape(repr(seed))}$"):
            random_element("SU", seed)
    draw.assert_not_called()


def test_random_element_refuses_a_negative_seed():
    for seed in (-1, np.int64(-3)):
        with unittest.mock.patch("numpy.random.default_rng") as draw:
            with pytest.raises(ValueError, match=f"^element seed must be non-negative, got {int(seed)}$"):
                random_element("SLOCC", seed)
        draw.assert_not_called()
    # numpy integers are seeds like any other
    for seed in (np.int64(5), np.uint32(5)):
        assert random_element("SLOCC", seed).matrices == random_element("SLOCC", 5).matrices


def _per_mode_draw_element(kind, seed, spread):
    """random_element as it once drew: one generator call per mode and part,
    with numpy's complex arithmetic building the coefficients."""
    draws = np.random.default_rng(seed)
    coeffs = []
    for _ in range(3):
        imag = 1j * draws.normal(scale=spread, size=4)
        coeffs.append(draws.normal(scale=spread, size=4) + imag if kind == "SLOCC" else imag)
    return make_slocc_element(coeffs)


def _hex_entries(element):
    return [(z.real.hex(), z.imag.hex()) for op in element.matrices for row in op for z in row]


@pytest.mark.parametrize("kind", ["SU", "SLOCC"])
@pytest.mark.parametrize("spread", [0.5, 2.0])
def test_one_draw_random_element_keeps_the_per_mode_bits(kind, spread):
    # float.hex tells 0.0 from -0.0, so signed zeros are compared too
    for seed in range(5000):
        want = _per_mode_draw_element(kind, seed, spread)
        assert _hex_entries(random_element(kind, seed, spread)) == _hex_entries(want), seed


def test_slocc_determinant_check_scales_with_the_factor():
    # spread-3 factors have entries of order e^|Re s| with |Re s| of several
    # units, so their determinants round far above an absolute 1e-9 while
    # the error stays tiny next to the product of the row norms
    for seed in range(300):
        element = random_element("SLOCC", seed, spread=3.0)
        for op in element.matrices:
            scale = np.prod(np.linalg.norm(op, axis=1))
            assert abs(np.linalg.det(op) - 1.0) <= 1e-12 * scale


def test_apply_on_mode_matches_the_full_element():
    psi = random_state(SHAPE_321, rng)
    op = random_element("SLOCC", 11).matrices[0]
    for mode in range(3):
        mats = [np.eye(3, dtype=complex)] * 3
        mats[mode] = op
        assert apply_on_mode(op, mode, psi).amplitudes == apply(GroupElement(mats), psi).amplitudes
    for bad in (-1, 3):
        with pytest.raises(ValueError, match=f"^mode {bad} out of range for 3 modes$"):
            apply_on_mode(op, bad, psi)


def _apply_by_array_indexing(element, state):
    """apply restated with one array index per weight, its earlier formulation."""
    p = state.shape.spin_numerator
    vac = p + 1
    out = {}
    for occ, amp in state.amplitudes.items():
        partial = [((), amp)]
        for k, sym in enumerate(occ):
            mat = np.asarray(element.matrices[k])
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


def _random_compliant_blocks(local, modes, d):
    """One random compliant ``d x d`` matrix per mode, a Ginibre level block
    and vacancy entry; a zero entry on the first leaves a level out of the fan-out."""
    blocks = []
    for _ in range(modes):
        op = np.zeros((d, d), dtype=complex)
        op[:-1, :-1] = local.normal(size=(d - 1, d - 1)) + 1j * local.normal(size=(d - 1, d - 1))
        op[-1, -1] = complex(local.normal(), local.normal())
        blocks.append(op)
    blocks[0][0, 1] = 0
    return blocks


#: how far, in units of eps times the sum of the moduli of its terms, an
#: entry of apply on a (3, 2, 1) state may lie from the fan-out sum of the
#: array-indexing oracle: each side rounds a product of four complex factors,
#: at most 3 sqrt(5) u, and a sum of four terms, 3 u, with u = eps / 2, so
#: the two differ by at most about 9.7 eps; seeded runs reach 2.6
PAIR_BLOCK_ULPS = 10


def _assert_pair_block_action(element, state, got, want):
    """apply on a (3, 2, 1) state: the nonzero entries of ``_moved`` on the
    state's basis amplitudes, bit for bit and in basis order, as Python
    complex numbers, each within PAIR_BLOCK_ULPS of the oracle ``want``."""
    moved = _moved(state._basis_amplitudes(), [((a[:2], b[:2]), c[2]) for a, b, c in element.matrices])
    pairs = [(occ, amp) for occ, amp in zip(enumerate_basis(SHAPE_321), moved) if amp]
    assert [(occ, _bits(amp)) for occ, amp in got.items()] == [(occ, _bits(amp)) for occ, amp in pairs]
    assert all(type(amp) is complex for amp in got.values())
    # the sum of the moduli of each entry's terms: the oracle on the moduli
    scale = _apply_by_array_indexing(
        GroupElement(np.abs(np.array(element.matrices))),
        StateVector(SHAPE_321, {occ: abs(amp) for occ, amp in state.amplitudes.items()}),
    )
    eps = np.finfo(float).eps
    for occ in set(got) | set(want):
        assert abs(got.get(occ, 0j) - want.get(occ, 0j)) <= PAIR_BLOCK_ULPS * eps * abs(scale.get(occ, 0j))


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
    # p = 2: three levels and the vacancy per mode, compliant 4x4 elements
    wide = SystemShape(3, 2, 2)
    wide_states = [random_state(wide, local) for _ in range(10)]
    blocks = _random_compliant_blocks(local, 3, 4)
    wide_elements = [
        GroupElement([occupation_scaling(1.3, 0.4, p=2)] * 3),
        GroupElement(blocks),
        GroupElement([occupation_scaling(0.7, -1.1, p=2), blocks[1], np.eye(4)]),
    ]
    batches = [(states, elements), (wide_states, wide_elements)]
    # every shape but (3, 2, 1) takes the partial-product loop
    for shape in (SystemShape(4, 2, 1), SystemShape(5, 3, 1)):
        acting = [
            GroupElement(_random_compliant_blocks(local, shape.modes, 3)),
            GroupElement((random_element("SLOCC", 9, spread=1.5).matrices * 2)[: shape.modes]),
            GroupElement((random_element("SU", 9).matrices * 2)[: shape.modes]),
        ]
        batches.append(([random_state(shape, local) for _ in range(10)], acting))
    for batch, acting in batches:
        for psi in batch:
            # a second pass feeds apply's own output back in
            for start in (psi, apply(acting[0], psi)):
                for element in acting:
                    got = apply(element, start).amplitudes
                    want = _apply_by_array_indexing(element, start)
                    if start.shape == SHAPE_321:
                        _assert_pair_block_action(element, start, got, want)
                        continue
                    # the keys come in basis order, whatever order the terms first reach them in
                    assert list(got) == [occ for occ in enumerate_basis(start.shape) if occ in want]
                    for occ, val in want.items():
                        assert got[occ] == val
                        assert type(got[occ]) is complex


@pytest.mark.parametrize("mode", [0, 1, 2])
@pytest.mark.parametrize("entry", [(0, 2), (1, 2), (2, 0), (2, 1)])
def test_nan_in_any_leak_entry_is_refused(mode, entry):
    mats = [np.eye(3, dtype=complex) for _ in range(3)]
    # the other leak entries hold small finite values that pass on their own
    for pos in ((0, 2), (1, 2), (2, 0), (2, 1)):
        mats[mode][pos] = 1e-12
    mats[mode][entry] = math.nan
    element = GroupElement(mats)
    assert not GroupElement([mats[mode]]).is_superselection_compliant()
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
    yield from _stabilizer_coefficients(local)


def _stabilizer_coefficients(local):
    """The per-mode coefficient tuples that ``stabilizer`` exponentiates, for
    all four names at seeded parameters."""
    def draw(*names):
        return {k: float(local.uniform(-4.0, 4.0)) for k in names}

    calls = [("psi1_eq23", {"variant": "b"})]
    for _ in range(40):
        calls += [
            ("generic_eq13", {"m": int(local.integers(-6, 7)), **draw("alpha")}),
            ("family16_eq20", draw("alpha", "beta", "gamma")),
            ("psi1_eq23", {"variant": "a", **{k: int(local.integers(-4, 5)) for k in "klmnpq"}, **draw("alpha")}),
            ("psi1_eq23", {"variant": "c", **draw("beta")}),
            ("psi2_eq26", draw("alpha", "beta", "gamma", "delta")),
        ]
    captured = []

    def record(coefficients):
        captured.extend(coefficients)
        return make_slocc_element(coefficients)

    with unittest.mock.patch.object(stabilizers, "make_slocc_element", record):
        for name, params in calls:
            stabilizer(name, params)
    assert len(captured) == 3 * len(calls)
    return captured


def test_slocc_closed_form_generator_equals_the_matrix_algebra():
    """The written-down generator exponentiates to the same bits as the sum
    of the four Gell-Mann matrices did, signs of zeros included."""
    gens = [gell_mann(i) for i in (1, 2, 3, 8)]
    count = 0
    for coeffs in _slocc_coefficient_sets():
        c1, c2, c3, c8 = (complex(c) for c in coeffs)
        want = matrix_exp(c1 * gens[0] + c2 * gens[1] + c3 * gens[2] + c8 * gens[3])
        got = np.asarray(make_slocc_element([coeffs]).matrices[0])
        a, b = got.view(np.float64), want.view(np.float64)
        assert np.array_equal(a, b), coeffs
        assert np.array_equal(np.signbit(a), np.signbit(b)), coeffs
        count += 1
    assert count >= 5000


def test_exponent_weights_are_the_generator_entries():
    # the written-out table holds the Gell-Mann entries, signs of zero parts included
    positions = ((0, 0), (0, 1), (1, 0), (1, 1), (2, 2))
    assert len(_EXPONENT_WEIGHTS) == len(positions)
    for (i, j), weights in zip(positions, _EXPONENT_WEIGHTS):
        assert len(weights) == 4
        for got, generator in zip(weights, (_L1, _L2, _L3, _L8)):
            want = complex(generator[i, j])
            assert type(got) is complex
            for part, ref in ((got.real, want.real), (got.imag, want.imag)):
                assert part == ref and math.copysign(1.0, part) == math.copysign(1.0, ref)


def _bits(z):
    return np.array([z], dtype=complex).view(np.uint64).tolist()


def test_apply_gives_python_complex_with_the_bits_of_numpy_scalar_products():
    local = np.random.default_rng(4411)
    states = [random_state(SHAPE_321, local) for _ in range(20)]
    states += [family("psi1"), family("psi2"), family("Eq16", {"r1": 0.5, "r2": 0.5, "r3": 0.5, "r4": 0.5})]
    states.append(StateVector(SHAPE_321, {(1, 2, 0): 0.6, (2, 1, 0): -0.8}))
    elements = [random_element(kind, seed, spread=1.5) for kind in ("SU", "SLOCC") for seed in range(6)]
    for element in elements:
        mats = [np.asarray(op) for op in element.matrices]
        for psi in states:
            want = {}
            for occ, amp in psi.amplitudes.items():
                # per mode, the (new symbol, weight) pairs with nonzero weight,
                # read as np.complex128 scalars; symbol 0 is local index 2
                fans = [
                    [(new, op[new - 1 if new else 2, old - 1 if old else 2]) for new in (0, 1, 2)]
                    for op, old in zip(mats, occ)
                ]
                fans = [[(new, w) for new, w in fan if w != 0] for fan in fans]
                for (a, w_a), (b, w_b), (c, w_c) in itertools.product(*fans):
                    term = np.complex128(amp) * w_a * w_b * w_c
                    want[(a, b, c)] = want.get((a, b, c), np.complex128(0j)) + term
            got = apply(element, psi).amplitudes
            _assert_pair_block_action(element, psi, got, want)
            # and _moved's terms, restated in np.complex128 scalars, give its bits
            blocks = [(op[:2, :2], op[2, 2]) for op in mats]
            v = [np.complex128(psi.amplitude(occ)) for occ in enumerate_basis(SHAPE_321)]
            for (uu, ud, du, dd), row, col, third in _PAIRS:
                ((a, b), (c, d)), ((e, f), (g, h)), s = blocks[row][0], blocks[col][0], blocks[third][1]
                p, q = (a * v[uu] + b * v[du]) * s, (a * v[ud] + b * v[dd]) * s
                r, w = (c * v[uu] + d * v[du]) * s, (c * v[ud] + d * v[dd]) * s
                entries = zip((uu, ud, du, dd), (p * e + q * f, p * g + q * h, r * e + w * f, r * g + w * h))
                for k, value in entries:
                    occ = enumerate_basis(SHAPE_321)[k]
                    assert _bits(got.get(occ, 0j)) == _bits(value if value != 0 else 0j)
