"""The canonical form against a reduction written with :func:`apply`, to 1e-12.

``reference_canonical_form`` runs the same four stages and the gauge fold,
but every stage builds a group element and pushes the running state through
:func:`apply`, and stage 3 solves its phase fit with ``np.linalg.lstsq``.
The two round differently, so they are compared to 1e-12: moduli, phases
modulo 2 pi, the canonical state's amplitudes and the element entries.
Every case is also checked against the defining properties of a canonical
form, which need no reference.

Stage 1 takes the AB block's SVD from ``classify._svd2``, as the kernel
does. Its conventions are tested on their own in
``test_canonical_kernels.py``. On a block with equal singular values or rank
one, the branch that each side took would otherwise be decided by roundoff
near its 1e-12 threshold, so a second SVD could not give the same element.
"""

import math

import numpy as np
import pytest

from group_checks import is_unitary
from modal_ent.classify import (
    _FOLD_TOL,
    _G3,
    _G8,
    _NO_PHASE_SLOTS,
    CANONICAL_SLOTS,
    STRUCTURAL_ZEROS,
    _svd2,
    canonical_form,
    family,
)
from modal_ent.invariants import invariant_report
from modal_ent.operators import GroupElement, apply, random_element
from modal_ent.states import (
    SHAPE_321,
    StateVector,
    enumerate_basis,
    normalize,
    random_state,
    require_normalized,
)

TOL = 1e-12


def _embed_levels(block):
    """Extend a 2x2 level block to the 3x3 local space with unit determinant."""
    det = block[0, 0] * block[1, 1] - block[0, 1] * block[1, 0]
    out = np.zeros((3, 3), dtype=complex)
    out[:2, :2] = block
    out[2, 2] = 1.0 / det
    return out


def _pair_block(state, pair):
    """The amplitudes with both particles in modes ``pair``, rows indexed by
    the first mode's level and columns by the second's, up before down."""
    block = np.zeros((2, 2), dtype=complex)
    for row in range(2):
        for col in range(2):
            occ = [0, 0, 0]
            occ[pair[0]], occ[pair[1]] = row + 1, col + 1
            block[row, col] = state.amplitude(occ)
    return block


def reference_canonical_form(state):
    """``(r, phi, phi_prime, theta, element, state)`` by four ``apply`` pushes."""
    require_normalized(state, "canonical form")

    eye = np.eye(3, dtype=complex)
    total = [eye.copy(), eye.copy(), eye.copy()]
    work = state

    def push(mats) -> None:
        nonlocal work
        for k in range(3):
            total[k] = np.asarray(mats[k], dtype=complex) @ total[k]
        work = apply(GroupElement(mats), work)

    (u1, u2), _, (v1, v2) = _svd2(_pair_block(work, (0, 1)).tolist())
    push([_embed_levels(np.conj([u1, u2])), _embed_levels(np.array([v1, v2])), eye])

    m_ac = _pair_block(work, (0, 2))
    x = m_ac[1, 0]
    y = m_ac[1, 1]
    t = np.hypot(abs(x), abs(y))
    if t > 1e-14 and abs(x) > 1e-14:
        rct = np.array(
            [[y / t, np.conj(x) / t], [-x / t, np.conj(y) / t]], dtype=complex
        )
        push([eye, eye, _embed_levels(rct.T)])

    rows = []
    rhs = []
    for occ in _NO_PHASE_SLOTS:
        amp = work.amplitude(occ)
        if abs(amp) > 1e-12:
            row = []
            for sym in occ:
                row.extend((_G3[sym], _G8[sym]))
            rows.append(row)
            rhs.append(-np.angle(amp))
    if rows:
        sol, _, _, _ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    else:
        sol = np.zeros(6)
    phase_mats = []
    for k in range(3):
        x3, x8 = sol[2 * k], sol[2 * k + 1]
        phase_mats.append(
            np.diag(
                [
                    np.exp(1j * (x3 + x8)),
                    np.exp(1j * (-x3 + x8)),
                    np.exp(-2j * x8),
                ]
            )
        )
    push(phase_mats)

    anchor = max(_NO_PHASE_SLOTS, key=lambda occ: abs(work.amplitude(occ)))
    amp = work.amplitude(anchor)
    if abs(amp) > 1e-12:
        delta = float(np.angle(amp))
        if abs(delta) > 0.0:
            push([np.exp(-1j * delta) * eye, eye, eye])

    free = [work.amplitude(occ) for occ in ((1, 0, 2), (0, 2, 1), (0, 1, 2))]
    free = [amp for amp in free if abs(amp) > 1e-12]
    if free and not -_FOLD_TOL <= np.angle(free[0]) <= math.pi - _FOLD_TOL:
        push([np.diag([1.0, -1.0, 1.0])] * 3)

    for occ in STRUCTURAL_ZEROS:
        if abs(work.amplitude(occ)) > 1e-8:
            raise ArithmeticError(f"structural zero slot {occ} not cleared")

    def slot_phase(occ):
        amp = work.amplitude(occ)
        return float(np.angle(amp)) if abs(amp) > 1e-12 else 0.0

    moduli = tuple(abs(work.amplitude(occ)) for occ in CANONICAL_SLOTS)
    phases = (slot_phase((1, 0, 2)), slot_phase((0, 2, 1)), slot_phase((0, 1, 2)))
    return moduli, *phases, GroupElement(total), work


def assert_matches_reference(state) -> None:
    got = canonical_form(state)
    r, phi, phi_prime, theta, element, work = reference_canonical_form(state)
    assert np.abs(np.subtract(got.r, r)).max() <= TOL
    for mine, theirs in zip((got.phi, got.phi_prime, got.theta), (phi, phi_prime, theta)):
        assert abs(math.remainder(mine - theirs, 2.0 * math.pi)) <= TOL
    assert np.abs(got.state.dense() - work.dense()).max() <= TOL
    assert np.abs(np.asarray(got.element.matrices) - np.asarray(element.matrices)).max() <= TOL
    assert_defining_properties(state)


def assert_defining_properties(state) -> None:
    """What makes a canonical form one, with no reference to compare against."""
    got = canonical_form(state)
    out = got.state
    assert max(abs(out.amplitude(occ)) for occ in STRUCTURAL_ZEROS) < 1e-10
    for occ in _NO_PHASE_SLOTS:
        assert abs(out.amplitude(occ).imag) < 1e-10
        assert out.amplitude(occ).real > -1e-10
    assert got.r == tuple(abs(out.amplitude(occ)) for occ in CANONICAL_SLOTS)
    assert is_unitary(got.element, 1e-10)
    assert np.abs(apply(got.element, state).dense() - out.dense()).max() < 1e-10
    before, after = invariant_report(state), invariant_report(out)
    assert abs(abs(after.I1) - abs(before.I1)) < 1e-10
    assert abs(abs(after.I2) - abs(before.I2)) < 1e-10
    for cut in ("I_A_BC", "I_B_AC", "I_C_AB"):
        assert abs(getattr(after, cut) - getattr(before, cut)) < 1e-10


def _family_params(name, rng):
    """Random valid parameters of a named family; Eq amplitudes come normalized."""
    if name == "S1":
        return {"r": float(rng.uniform(0.0, 1.0 / math.sqrt(6.0)))}
    if name == "S2":
        return {"r": float(rng.uniform(0.0, 1.0 / math.sqrt(3.0))),
                "theta": float(rng.uniform(-math.pi, math.pi))}
    if name in ("psi1", "psi2"):
        return {}
    count = {"Eq14": 3, "Eq15": 3, "Eq16": 4, "Eq18": 5}[name]
    r = rng.uniform(0.2, 1.0, size=count)
    total = float(np.sum(r**2))
    if name == "Eq18":
        total += float((r[2] * r[3] / r[4]) ** 2)
    r /= math.sqrt(total)
    params = {f"r{i + 1}": float(v) for i, v in enumerate(r)}
    if name == "Eq16":
        params["phi"] = float(rng.uniform(-math.pi, math.pi))
    if name == "Eq18":
        params["theta"] = float(rng.uniform(-math.pi, math.pi))
    return params


FAMILIES = ("Eq14", "Eq15", "Eq16", "Eq18", "S1", "S2", "psi1", "psi2")


def test_random_states_match_the_reference():
    rng = np.random.default_rng(60)
    for _ in range(1000):
        assert_matches_reference(random_state(SHAPE_321, rng))


def test_su_moved_random_states_match_the_reference():
    rng = np.random.default_rng(61)
    for seed in range(200):
        psi = random_state(SHAPE_321, rng)
        assert_matches_reference(normalize(apply(random_element("SU", seed, spread=1.0), psi)))


@pytest.mark.parametrize("name", FAMILIES)
def test_families_match_the_reference(name):
    rng = np.random.default_rng(62)
    for seed in range(40):
        psi = family(name, _family_params(name, rng))
        assert_matches_reference(psi)
        assert_matches_reference(normalize(apply(random_element("SU", seed), psi)))


def _degenerate_states():
    yield "Eq14 r1=0", family("Eq14", {"r1": 0.0, "r2": 0.6, "r3": 0.8})
    yield "psi1", family("psi1")
    yield "psi2", family("psi2")
    yield "S1 r=0", family("S1", {"r": 0.0})
    for occ in enumerate_basis(SHAPE_321):
        for amp in (1, 1.0, -1.0, 1j, complex(-0.6, 0.8), np.complex128(-1j)):
            yield f"single slot {occ} = {amp!r}", StateVector(SHAPE_321, {occ: amp})
    off_ab = [occ for occ in enumerate_basis(SHAPE_321) if occ[2] != 0]
    rng = np.random.default_rng(63)
    for j in range(20):
        z = rng.standard_normal(len(off_ab)) + 1j * rng.standard_normal(len(off_ab))
        z /= np.linalg.norm(z)
        yield f"empty AB block {j}", StateVector(SHAPE_321, dict(zip(off_ab, z.tolist())))
    yield "AB block only", StateVector(SHAPE_321, {(1, 1, 0): 0.6, (2, 2, 0): -0.8j})
    yield "AC pair only", StateVector(SHAPE_321, {(1, 0, 1): 0.6, (2, 0, 1): 0.8})


def test_degenerate_states_match_the_reference():
    for seed, (label, state) in enumerate(_degenerate_states()):
        for psi in (state, normalize(apply(random_element("SU", seed), state))):
            try:
                assert_matches_reference(psi)
            except AssertionError as exc:
                raise AssertionError(f"{label}: {exc}") from exc
