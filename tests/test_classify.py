import dataclasses
import math
import warnings

import numpy as np
import pytest

from modal_ent.classify import (
    CANONICAL_SLOTS,
    STRUCTURAL_ZEROS,
    bell_profile,
    canonical_form,
    chsh_value,
    family,
    membership_report,
    pair_projection,
)
from modal_ent.invariants import InvariantReport, invariant_report
from modal_ent.operators import apply, random_element
from modal_ent.states import SHAPE_321, StateVector, SystemShape, normalize, random_state

rng = np.random.default_rng(99)

ROOT2 = math.sqrt(2.0)


def normalized_eq16(seed, phi=0.0):
    local = np.random.default_rng(seed)
    raw = local.uniform(0.2, 1.0, size=4)
    raw /= np.linalg.norm(raw)
    return family("Eq16", {"r1": raw[0], "r2": raw[1], "r3": raw[2], "r4": raw[3], "phi": phi})


def test_canonical_form_of_random_states():
    for _ in range(12):
        psi = random_state(SHAPE_321, rng)
        params = canonical_form(psi)
        out = params.state
        for occ in STRUCTURAL_ZEROS:
            assert abs(out.amplitude(occ)) < 1e-10
        # non-negative moduli on the six phase-free slots
        for occ in CANONICAL_SLOTS[:4] + CANONICAL_SLOTS[5:7]:
            amp = out.amplitude(occ)
            assert abs(amp.imag) < 1e-9
            assert amp.real > -1e-9
        # singular values of the AB block come out ordered
        assert params.r[0] >= params.r[1] - 1e-12
        # the recorded element actually performs the reduction
        replay = apply(params.element, psi)
        assert np.abs(replay.dense() - out.dense()).max() < 1e-10
        for op in params.element.per_mode:
            assert op.is_unitary(1e-9)
        rep_in = invariant_report(psi)
        rep_out = invariant_report(out)
        assert abs(abs(rep_out.I1) - abs(rep_in.I1)) < 1e-10
        assert abs(abs(rep_out.I2) - abs(rep_in.I2)) < 1e-10
        assert abs(rep_out.I_A_BC - rep_in.I_A_BC) < 1e-10
        assert abs(rep_out.I_B_AC - rep_in.I_B_AC) < 1e-10
        assert abs(rep_out.I_C_AB - rep_in.I_C_AB) < 1e-10


def test_canonical_form_fixes_psi1():
    psi1 = family("psi1")
    params = canonical_form(psi1)
    assert np.abs(params.state.dense() - psi1.dense()).max() < 1e-12
    a = 1.0 / math.sqrt(6.0)
    assert np.abs(np.array(params.r[:4]) - a).max() < 1e-12
    assert np.abs(np.array(params.r[5:7]) - a).max() < 1e-12


def test_canonical_form_preconditions():
    with pytest.raises(ValueError):
        canonical_form(StateVector(SHAPE_321, {(1, 1, 0): 2.0}))
    with pytest.raises(ValueError):
        canonical_form(random_state(SystemShape(4, 2, 1), rng))


def test_bell_profiles_of_families():
    p14 = bell_profile(family("Eq14", {"r1": 0.6, "r2": 0.48, "r3": 0.64}))
    assert p14.tri_local
    assert not any(
        [p14.nonlocal_AB, p14.nonlocal_BC, p14.nonlocal_AC,
         p14.nonlocal_A_BC, p14.nonlocal_B_AC, p14.nonlocal_C_AB]
    )

    p15 = bell_profile(family("Eq15", {"r1": 0.6, "r2": 0.48, "r3": 0.64}))
    assert p15.tri_local
    assert (p15.nonlocal_A_BC, p15.nonlocal_B_AC, p15.nonlocal_C_AB) == (True, False, False)

    p16 = bell_profile(normalized_eq16(0, phi=0.8))
    assert p16.tri_local
    assert (p16.nonlocal_A_BC, p16.nonlocal_B_AC, p16.nonlocal_C_AB) == (True, False, True)

    bell_pair = normalize(StateVector(SHAPE_321, {(1, 2, 0): 1.0, (2, 1, 0): -1.0}))
    pb = bell_profile(bell_pair)
    assert pb.nonlocal_AB and not pb.tri_local
    assert not pb.nonlocal_BC and not pb.nonlocal_AC


def test_family_validation():
    with pytest.raises(ValueError):
        family("Eq99", {})
    with pytest.raises(ValueError):
        family("Eq14", {"r1": 0.6, "r2": 0.8})
    with pytest.raises(ValueError):
        family("Eq14", {"r1": -0.6, "r2": 0.48, "r3": 0.64})
    with pytest.raises(ValueError):
        family("Eq15", {"r1": 0.0, "r2": 0.6, "r3": 0.8})
    # squared amplitudes must sum to one for the explicit families
    with pytest.raises(ValueError):
        family("Eq14", {"r1": 0.9, "r2": 0.9, "r3": 0.9})
    with pytest.raises(ValueError):
        family("psi1", {"r1": 0.3})
    with pytest.raises(ValueError):
        family("S1", {"r": 0.9})
    with pytest.raises(ValueError):
        family("S2", {"r": 1.0 / math.sqrt(3.0)})
    with pytest.raises(ValueError):
        family("S1", {"r": 0.1, "extra": 1.0})


def test_family_eq18_dependent_amplitude():
    r1, r2, r3, r4, r5 = 0.4, 0.5, 0.35, 0.25, 0.3
    cross = r3 * r4 / r5
    scale = math.sqrt(r1**2 + r2**2 + r3**2 + r4**2 + r5**2 + cross**2)
    theta = 1.3
    psi = family(
        "Eq18",
        {"r1": r1 / scale, "r2": r2 / scale, "r3": r3 / scale,
         "r4": r4 / scale, "r5": r5 / scale, "theta": theta},
    )
    got = psi.amplitude((0, 2, 1))
    want = (cross / scale) * np.exp(-1j * theta)
    assert abs(got - want) < 1e-14
    assert abs(psi.norm() - 1.0) < 1e-12


def test_reference_families_are_normalized():
    for name, params in [
        ("psi1", {}),
        ("psi2", {}),
        ("S1", {"r": 0.0}),
        ("S1", {"r": 1.0 / math.sqrt(6.0)}),
        ("S2", {"r": 0.3, "theta": 2.1}),
    ]:
        assert abs(family(name, params).norm() - 1.0) < 1e-12


def test_pair_projection_weights():
    psi = random_state(SHAPE_321, rng)
    total = 0.0
    for pair in ("AB", "BC", "AC"):
        vec, weight = pair_projection(psi, pair)
        total += weight
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
    assert abs(total - 1.0) < 1e-12

    only_ab = normalize(StateVector(SHAPE_321, {(1, 2, 0): 1.0}))
    vec, weight = pair_projection(only_ab, "BC")
    assert vec is None and weight == 0.0
    with pytest.raises(ValueError):
        pair_projection(psi, "CA")


def test_chsh_reference_values():
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / ROOT2
    assert abs(chsh_value(singlet) - 2.0 * ROOT2) < 1e-12
    product = np.array([1.0, 0.0, 0.0, 0.0])
    assert abs(chsh_value(product) - 2.0) < 1e-12
    rho = np.outer(singlet, singlet)
    assert abs(chsh_value(rho) - 2.0 * ROOT2) < 1e-12
    with pytest.raises(ValueError):
        chsh_value(np.zeros(5))


def test_chsh_pure_state_concurrence_identity():
    for _ in range(10):
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        vec /= np.linalg.norm(vec)
        m = vec.reshape(2, 2)
        conc = 2.0 * abs(np.linalg.det(m))
        assert abs(chsh_value(vec) - 2.0 * math.sqrt(1.0 + conc**2)) < 1e-10


def test_s1_pair_projections_hit_tsirelson():
    for r in (0.0, 0.2, 1.0 / math.sqrt(6.0)):
        psi = family("S1", {"r": r})
        for pair in ("AB", "BC", "AC"):
            vec, weight = pair_projection(psi, pair)
            assert abs(weight - 1.0 / 3.0) < 1e-12
            assert abs(chsh_value(vec) - 2.0 * ROOT2) < 1e-9


def test_membership_reports():
    rep14 = membership_report(family("Eq14", {"r1": 0.6, "r2": 0.48, "r3": 0.64}))
    assert rep14.families == ("Eq14",)
    rep15 = membership_report(family("Eq15", {"r1": 0.6, "r2": 0.48, "r3": 0.64}))
    assert rep15.families == ("Eq15",)
    rep16 = membership_report(normalized_eq16(1, phi=0.4))
    assert rep16.families == ("Eq16",)

    r1, r2, r3, r4, r5 = 0.4, 0.5, 0.35, 0.25, 0.3
    cross = r3 * r4 / r5
    scale = math.sqrt(r1**2 + r2**2 + r3**2 + r4**2 + r5**2 + cross**2)
    rep18 = membership_report(
        family(
            "Eq18",
            {"r1": r1 / scale, "r2": r2 / scale, "r3": r3 / scale,
             "r4": r4 / scale, "r5": r5 / scale, "theta": 0.6},
        )
    )
    assert rep18.families == ("Eq18",)
    assert rep18.profile.tri_local

    psi1 = membership_report(family("psi1"))
    assert psi1.maximally_entangled and psi1.psi1_signature
    assert not psi1.psi2_signature
    assert psi1.families == ()

    psi2 = membership_report(family("psi2"))
    assert psi2.maximally_entangled and psi2.psi2_signature
    assert not psi2.psi1_signature
    assert psi2.profile.tri_local
    assert psi2.families == ("Eq18",)

    generic = membership_report(random_state(SHAPE_321, rng))
    assert generic.families == ()
    assert not generic.maximally_entangled


def test_membership_report_carries_the_reports_bit_for_bit():
    local = np.random.default_rng(4242)
    inputs = [family("psi1"), family("psi2"), family("S1", {"r": 0.0}), normalized_eq16(2, phi=0.3)]
    inputs += [random_state(SHAPE_321, local) for _ in range(300)]
    inputs += [normalize(apply(random_element("SU", s), psi)) for s, psi in enumerate(inputs[:40])]
    for psi in inputs:
        for tol in (1e-10, 1e-3):
            got = membership_report(psi, tol=tol)
            assert got.profile == bell_profile(psi, tol=tol)
        want = invariant_report(psi)
        for field in dataclasses.fields(InvariantReport):
            a, b = np.asarray(getattr(got.invariants, field.name)), np.asarray(getattr(want, field.name))
            assert a.tobytes() == b.tobytes(), field.name
            assert type(getattr(got.invariants, field.name)) is type(getattr(want, field.name))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_canonical_form_constant_on_su_orbits():
    """The canonical parameters of a state and of a unitarily moved copy agree.

    They do not yet: at seed 0, 93 of these 200 pairs differ, most of them
    by pi in all three free phases at once (the open gauge choice of ROADMAP
    item 1). When that lands this test passes, and the marker must go.
    """
    local = np.random.default_rng(0)
    differ = 0
    for seed in range(200):
        psi = random_state(SHAPE_321, local)
        a = canonical_form(psi)
        b = canonical_form(normalize(apply(random_element("SU", seed, spread=1.0), psi)))
        moduli = max(abs(x - y) for x, y in zip(a.r, b.r))
        phases = max(
            abs(math.remainder(x - y, 2.0 * math.pi))
            for x, y in ((a.phi, b.phi), (a.phi_prime, b.phi_prime), (a.theta, b.theta))
        )
        differ += moduli > 1e-9 or phases > 1e-9
    assert differ == 0


def _chsh_kron_loop(two_qubit):
    """chsh_value restated with one kron product, matmul and trace per entry of T."""
    paulis = (
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    )
    q = np.asarray(two_qubit, dtype=complex)
    rho = np.outer(q, q.conj()) if q.shape == (4,) else q
    t = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            t[i, j] = np.trace(rho @ np.kron(paulis[i], paulis[j])).real
    ev = np.linalg.eigvalsh(t.T @ t)
    return 2.0 * math.sqrt(max(ev[-1] + ev[-2], 0.0))


def test_chsh_equals_the_nine_kron_loop():
    local = np.random.default_rng(5150)
    inputs = [family("psi2"), family("S1", {"r": 0.3}), normalized_eq16(3, phi=1.1)]
    inputs += [random_state(SHAPE_321, local) for _ in range(1000)]
    checked = 0
    for psi in inputs:
        for pair in ("AB", "BC", "AC"):
            vec, _ = pair_projection(psi, pair)
            if vec is None:
                continue
            rho = np.outer(vec, vec.conj())
            assert chsh_value(vec) == _chsh_kron_loop(vec)
            assert chsh_value(rho) == _chsh_kron_loop(rho)
            checked += 1
    assert checked >= 3000


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
@pytest.mark.parametrize("form", ["vector", "matrix"])
def test_chsh_rejects_non_finite_entries(bad, form):
    vec = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / ROOT2
    q = vec if form == "vector" else np.outer(vec, vec.conj())
    q[(1,) if form == "vector" else (1, 2)] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            chsh_value(q)
