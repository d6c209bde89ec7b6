import math
import os
import subprocess
import sys

import numpy as np
import pytest
from exact import Gaussian, random_gaussians
from hypothesis import given, settings, strategies as st

import modal_ent
from modal_ent.classify import bell_profile, family, membership_report
from modal_ent.invariants import (
    InvariantReport,
    _amplitude_list,
    _invariant_polynomials,
    _rows,
    _trace_power,
    _word,
    generator_relation_check,
    invariant_report,
    localized_scenario_check,
    trace_word,
)
from modal_ent.monte_carlo import SplitComplex
from modal_ent.operators import _moved, apply, random_element, sector_matrix
from modal_ent.states import _AB, _AC, _BC, SHAPE_321, StateVector, SystemShape, enumerate_basis, random_state

rng = np.random.default_rng(7)


def test_reference_state_fingerprints():
    rep1 = invariant_report(family("psi1"))
    assert abs(rep1.I1 - 1.0 / 216.0) < 1e-15
    assert abs(rep1.I2) < 1e-15
    assert abs(rep1.monotone1 - 1.0 / 6.0) < 1e-12
    rep2 = invariant_report(family("psi2"))
    assert abs(rep2.I1) < 1e-15
    assert abs(rep2.I2 + 1.0 / (3.0 * math.sqrt(3.0))) < 1e-15


def test_i1_factors_exactly():
    for _ in range(20):
        rep = invariant_report(random_state(SHAPE_321, rng))
        assert rep.I1 == rep.I_AB * rep.I_BC * rep.I_AC


def test_pair_blocks_layout():
    psi = StateVector(
        SHAPE_321,
        {(1, 2, 0): 2.0, (0, 1, 2): 3.0, (2, 0, 1): 5.0},
    )
    v = _amplitude_list(psi)
    m_ab, m_bc, m_ac = (np.array(_rows(v, block)) for block in (_AB, _BC, _AC))
    assert m_ab[0, 1] == 2.0
    assert m_bc[0, 1] == 3.0
    assert m_ac[1, 0] == 5.0
    assert np.count_nonzero(m_ab) == 1
    with pytest.raises(ValueError, match=r"need shape \(3, 2, 1\)"):
        _amplitude_list(random_state(SystemShape(4, 2, 1), rng))


def _bits(values):
    """Each complex as the bit patterns of its two parts, so -0.0 and 0.0 differ."""
    return [(np.float64(z.real).tobytes(), np.float64(z.imag).tobytes()) for z in values]


_AMPLITUDE_TYPES = [
    3,
    -2,
    0.625,
    -0.0,
    complex(-0.0, -0.0),
    complex(0.5, -0.0),
    complex(-1.25, 0.75),
    np.float32(0.1),
    np.float64(-0.3),
    np.complex128(complex(-0.0, 0.2)),
]


@pytest.mark.parametrize("fill", ["dense", "sparse"])
def test_amplitude_list_keeps_the_bits_of_the_dense_vector(fill):
    # the list reads the amplitude map directly; it must agree with the
    # dense vector in value and in the sign of every zero part
    local = np.random.default_rng(91)
    basis = enumerate_basis(SHAPE_321)
    for amp in _AMPLITUDE_TYPES:
        for _ in range(5):
            picked = local.permutation(len(basis))[: len(basis) if fill == "dense" else 3]
            keys = [basis[k] for k in picked]
            amps = {occ: amp for occ in keys}
            amps[keys[0]] = complex(local.normal(), local.normal())
            psi = StateVector(SHAPE_321, amps)
            got = _amplitude_list(psi)
            assert all(type(z) is complex for z in got)
            assert _bits(got) == _bits(psi.dense().tolist())


def test_amplitude_list_refuses_a_none_amplitude():
    # None is not an amplitude; it must not enter a formula as NaN
    with pytest.raises(TypeError):
        _amplitude_list(StateVector(SHAPE_321, {(1, 1, 0): None}))


def test_scaling_degrees():
    psi = random_state(SHAPE_321, rng)
    rep = invariant_report(psi)
    c = 0.7 - 1.1j
    scaled = StateVector(SHAPE_321, {k: c * v for k, v in psi.amplitudes.items()})
    rep_c = invariant_report(scaled)
    assert abs(rep_c.I1 - c**6 * rep.I1) < 1e-12
    assert abs(rep_c.I2 - c**3 * rep.I2) < 1e-12
    assert abs(rep_c.I_A_BC - abs(c) ** 4 * rep.I_A_BC) < 1e-12
    assert abs(rep_c.I_B_AC - abs(c) ** 4 * rep.I_B_AC) < 1e-12


def test_unitary_invariance():
    for seed in range(8):
        psi = random_state(SHAPE_321, rng)
        rep = invariant_report(psi)
        moved = apply(random_element("SU", seed=seed), psi)
        rep_m = invariant_report(moved)
        assert abs(rep_m.I1 - rep.I1) < 1e-12
        assert abs(rep_m.I2 - rep.I2) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_word_matrix_identities(seed):
    # trace and determinant of W reduce to the two polynomial invariants
    psi = random_state(SHAPE_321, np.random.default_rng(seed))
    rep = invariant_report(psi)
    _, w = trace_word(psi, 1)
    assert abs(np.trace(w) - 1j * rep.I2) < 1e-12
    assert abs(np.linalg.det(w) + rep.I1) < 1e-12
    tr2, _ = trace_word(psi, 2)
    assert abs(tr2 - (-rep.I2**2 + 2.0 * rep.I1)) < 1e-12


def test_trace_word_bounds():
    psi = random_state(SHAPE_321, rng)
    tr1, w = trace_word(psi, 1)
    assert tr1 == np.trace(w)
    for n in (0, 9, -2):
        with pytest.raises(ValueError):
            trace_word(psi, n)


def test_generator_relation_residuals():
    for _ in range(30):
        psi = random_state(SHAPE_321, rng)
        assert generator_relation_check(psi, 4) < 1e-12
    assert generator_relation_check(family("psi1"), 8) < 1e-12


@pytest.mark.parametrize("seed", range(40))
def test_word_identities_hold_exactly_on_rational_states(seed):
    # Gaussian-rational amplitudes run through the same W and traces, and
    # the same 2x2 product, as Python complex numbers, so each ring
    # relation holds by ==
    v = random_gaussians(12, seed)
    i_ab, i_bc, i_ac, i1, i2 = _invariant_polynomials(v)
    w = _word(v)
    (f1, g1), (k1, l1) = w
    assert all(isinstance(x, Gaussian) for row in w for x in row)
    assert _trace_power(w, 1) == 1j * i2
    assert f1 * l1 - g1 * k1 == -i1
    assert g1 * k1 == i_ab * i_bc * i_ac + f1 * l1
    # Newton: trace(W^k) = trace(W) trace(W^(k-1)) - det(W) trace(W^(k-2))
    p_prev, p_cur = 2, 1j * i2
    for k in range(2, 9):
        p_prev, p_cur = p_cur, 1j * i2 * p_cur + i1 * p_prev
        assert _trace_power(w, k) == p_cur


def test_word_and_its_relations_run_without_numpy():
    probe = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from modal_ent.invariants import generator_relation_check, invariant_report, trace_word\n"
        "from modal_ent.states import SHAPE_321, StateVector, enumerate_basis, normalize\n"
        "amplitudes = [complex(k - 5.5, 7 * k % 5 - 2) for k in range(12)]\n"
        "psi = normalize(StateVector(SHAPE_321, dict(zip(enumerate_basis(SHAPE_321), amplitudes))))\n"
        "tr1, ((f1, _), (_, l1)) = trace_word(psi, 1)\n"
        "print(type(tr1).__name__, tr1 == f1 + l1, abs(tr1 - 1j * invariant_report(psi).I2) < 1e-15,\n"
        "      generator_relation_check(psi, 8) < 1e-12)"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(modal_ent.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "complex True True True\n", "")


def test_family_closed_forms():
    r1, r2, r5 = 0.4, 0.5, 0.3
    r3, r4 = 0.35, 0.25
    cross = r3 * r4 / r5
    scale = math.sqrt(r1**2 + r2**2 + r3**2 + r4**2 + r5**2 + cross**2)
    theta = 0.9
    psi = family(
        "Eq18",
        {
            "r1": r1 / scale,
            "r2": r2 / scale,
            "r3": r3 / scale,
            "r4": r4 / scale,
            "r5": r5 / scale,
            "theta": theta,
        },
    )
    rep = invariant_report(psi)
    want = (r1 / scale) * (r2 / scale) * (r5 / scale) * np.exp(1j * theta)
    assert abs(rep.I2 - want) < 1e-14

    raw = np.array([0.5, 0.6, 0.4, 0.3])
    raw /= np.linalg.norm(raw)
    q1, q2, q3, q4 = raw
    rep16 = invariant_report(
        family("Eq16", {"r1": q1, "r2": q2, "r3": q3, "r4": q4, "phi": 0.7})
    )
    assert abs(rep16.I_A_BC - q1**2 * q2**2) < 1e-14
    assert abs(rep16.I_C_AB - q2**2 * q3**2) < 1e-14
    assert rep16.I_B_AC < 1e-15


def test_localized_scenario_factors():
    psi = random_state(SHAPE_321, rng)
    alpha = 0.45
    f_ab, f_ac = localized_scenario_check(psi, alpha)
    assert abs(f_ab - np.exp(-2.0 * alpha)) < 1e-12
    assert abs(f_ac - np.exp(-2.0 * alpha)) < 1e-12
    # the element has determinant one on every mode, so the global
    # invariants do not move even though the pair quantities do
    rep = invariant_report(psi)
    from modal_ent.operators import GroupElement
    from scipy.linalg import expm

    scaled = expm(alpha * np.diag([1.0, 1.0, -2.0]).astype(complex))
    el = GroupElement([np.eye(3, dtype=complex), scaled, scaled])
    rep_m = invariant_report(apply(el, psi))
    assert abs(rep_m.I1 - rep.I1) < 1e-10
    assert abs(rep_m.I2 - rep.I2) < 1e-10


def test_localized_scenario_nan_on_degenerate_block():
    psi = StateVector(SHAPE_321, {(1, 1, 0): 0.6, (1, 0, 1): 0.48, (2, 0, 2): 0.64})
    f_ab, f_ac = localized_scenario_check(psi, 0.3)
    assert math.isnan(f_ab.real)
    assert abs(f_ac - np.exp(-0.6)) < 1e-12


def test_dense_batch_matches_reports():
    cols = np.column_stack([random_state(SHAPE_321, rng).dense() for _ in range(16)])
    i1, i2 = _invariant_polynomials(cols)[3:]
    for k in range(16):
        rep = invariant_report(StateVector.from_dense(SHAPE_321, cols[:, k]))
        assert abs(i1[k] - rep.I1) < 1e-14
        assert abs(i2[k] - rep.I2) < 1e-14
    eq16 = family("Eq16", {"r1": 0.5, "r2": 0.5, "r3": 0.5, "r4": 0.5})
    cols = np.column_stack([cols, family("psi1").dense(), eq16.dense()])
    split1, split2 = _invariant_polynomials(SplitComplex(cols.real, cols.imag))[3:]
    for k in range(cols.shape[1]):
        rep = invariant_report(StateVector.from_dense(SHAPE_321, cols[:, k]))
        assert complex(split1.re[k], split1.im[k]) == rep.I1
        assert complex(split2.re[k], split2.im[k]) == rep.I2
    one = random_state(SHAPE_321, rng)
    s1, s2 = _invariant_polynomials(one.dense())[3:]
    rep = invariant_report(one)
    assert abs(complex(s1) - rep.I1) < 1e-14
    assert abs(complex(s2) - rep.I2) < 1e-14


def test_pair_block_action_on_a_batch_matches_the_dense_matrix():
    # the dense sector matrix is the oracle for the pair-block action
    cols = np.column_stack([random_state(SHAPE_321, rng).dense() for _ in range(16)])
    for seed, kind in [(s, k) for s in range(6) for k in ("SU", "SLOCC")]:
        el = random_element(kind, seed=seed)
        moved = np.array(_moved(cols, [((a[:2], b[:2]), c[2]) for a, b, c in el.matrices]))
        want = sector_matrix(el, SHAPE_321) @ cols
        assert (np.abs(moved - want).max(axis=0) <= 1e-13 * np.linalg.norm(want, axis=0)).all()


def test_cached_invariants_equal_a_fresh_computation():
    local = np.random.default_rng(616)
    psis = [random_state(SHAPE_321, local) for _ in range(20)]
    psis += [family("psi1"), family("psi2"), family("S2", {"r": 0.3, "theta": 1.2})]
    psis += [StateVector(SHAPE_321, {(1, 1, 0): 1e200, (2, 2, 0): 1e200}), StateVector(SHAPE_321, {})]
    for psi in psis:

        def fresh():
            return StateVector(psi.shape, dict(psi.amplitudes))

        want = invariant_report(fresh())
        polynomials = _invariant_polynomials(_amplitude_list(fresh()))
        # the slot may be filled first by the report, the profile or the membership report
        for first in ("report", "profile", "membership"):
            state = fresh()
            before = repr(state)
            if first == "profile":
                bell_profile(state)
            elif first == "membership" and abs(state.norm() - 1.0) <= 1e-9:
                membership_report(state)
            got = invariant_report(state)
            assert got is invariant_report(state)
            assert bell_profile(state) == bell_profile(fresh())
            assert repr(state) == before
            for name in InvariantReport._fields:
                a, b = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
                assert a.tobytes() == b.tobytes(), name
            assert [np.asarray(x).tobytes() for x in got[:5]] == [np.asarray(x).tobytes() for x in polynomials]


def test_cross_minor_sums_overflow_to_inf():
    # unnormalized input is accepted; a finite cross minor of 1e200 squares
    # past the largest double, and its cut sum becomes inf rather than raising
    rep = invariant_report(StateVector(SHAPE_321, {(1, 1, 0): 1e100, (2, 0, 2): 1e100}))
    assert rep.I_A_BC == math.inf
    assert (rep.I_B_AC, rep.I_C_AB) == (0.0, 0.0)
    assert (rep.I_AB, rep.I_BC, rep.I_AC, rep.I1, rep.I2) == (0j, 0j, 0j, 0j, 0j)
    # the same formula keeps its bits below the overflow
    rep = invariant_report(StateVector(SHAPE_321, {(1, 1, 0): 3.0, (2, 0, 2): 2.0}))
    assert rep.I_A_BC == abs(6 + 0j) ** 2
    # a pair determinant that overflows is an infinite complex number
    rep = invariant_report(StateVector(SHAPE_321, {(1, 1, 0): 1e200, (2, 2, 0): 1e200}))
    assert rep.I_AB.real == math.inf
