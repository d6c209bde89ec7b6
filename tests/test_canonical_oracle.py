"""The canonical form against its earlier implementation, bit for bit.

``reference_canonical_form`` is the reduction as it was written before the
stages got their own block arithmetic: every stage builds a group element
and pushes the running state through :func:`apply`. The production code
must agree with it exactly, signs of zeros included, on every output:
moduli, phases, element entries, and the canonical state's amplitudes and
key order. The reduction is roundoff-chaotic (one changed rounding can flip
the representative it picks), so a tolerance would hide real changes.
"""

import math

import numpy as np
import pytest

from modal_ent.classify import (
    CANONICAL_SLOTS,
    STRUCTURAL_ZEROS,
    _G3,
    _G8,
    _NO_PHASE_SLOTS,
    _embed_levels,
    canonical_form,
    family,
)
from modal_ent.invariants import pair_blocks
from modal_ent.operators import GroupElement, apply, random_element
from modal_ent.states import (
    SHAPE_321,
    StateVector,
    enumerate_basis,
    normalize,
    random_state,
    require_normalized,
)


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

    blocks = pair_blocks(work)
    u, _, vh = np.linalg.svd(blocks.M_AB)
    push([_embed_levels(u.conj().T), _embed_levels(vh.conj()), eye])

    blocks = pair_blocks(work)
    x = blocks.M_AC[1, 0]
    y = blocks.M_AC[1, 1]
    t = np.hypot(abs(x), abs(y))
    if t > 1e-14 and abs(x) > 1e-14:
        rct = np.array(
            [[-y / t, np.conj(x) / t], [x / t, np.conj(y) / t]], dtype=complex
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

    for occ in STRUCTURAL_ZEROS:
        if abs(work.amplitude(occ)) > 1e-8:
            raise ArithmeticError(f"structural zero slot {occ} not cleared")

    def slot_phase(occ):
        amp = work.amplitude(occ)
        return float(np.angle(amp)) if abs(amp) > 1e-12 else 0.0

    moduli = tuple(abs(work.amplitude(occ)) for occ in CANONICAL_SLOTS)
    phases = (slot_phase((1, 0, 2)), slot_phase((0, 2, 1)), slot_phase((0, 1, 2)))
    return moduli, *phases, GroupElement(total), work


def _bits(values) -> np.ndarray:
    """Real and imaginary parts as floats, for ``==`` and ``np.signbit``."""
    return np.asarray(values, dtype=complex).view(np.float64)


def assert_same_bits(a, b) -> None:
    a, b = _bits(a), _bits(b)
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def assert_matches_reference(state) -> None:
    got = canonical_form(state)
    r, phi, phi_prime, theta, element, work = reference_canonical_form(state)
    assert_same_bits(got.r, r)
    assert_same_bits((got.phi, got.phi_prime, got.theta), (phi, phi_prime, theta))
    for mine, theirs in zip(got.element.matrices, element.matrices, strict=True):
        assert_same_bits(mine, theirs)
    assert list(got.state.amplitudes) == list(work.amplitudes)
    assert_same_bits(list(got.state.amplitudes.values()), list(work.amplitudes.values()))
    assert [type(a) for a in got.state.amplitudes.values()] == [
        type(a) for a in work.amplitudes.values()
    ]


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
