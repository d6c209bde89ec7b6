import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from group_checks import is_unitary
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
        assert is_unitary(params.element, 1e-9)
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
    with pytest.raises(ValueError, match=r"^Eq16 needs r1, r2, r3 > 0 and r4 >= 0$"):
        family("Eq16", {"r1": 0.5, "r2": 0.5, "r3": 0.0, "r4": 0.5})
    with pytest.raises(ValueError, match=r"^Eq18 needs r1, r2, r5 > 0 and r3, r4 >= 0$"):
        family("Eq18", {"r1": 0.5, "r2": 0.5, "r3": -0.1, "r4": 0.5, "r5": 0.5})
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


# r3 = r4 = r5 = 0.4 make the dependent amplitude 0.4 too, so the squared norm is 1
EQ18_NORMALIZED = {"r1": math.sqrt(0.18), "r2": math.sqrt(0.18), "r3": 0.4, "r4": 0.4, "r5": 0.4}


@pytest.mark.parametrize(
    "name, params, key",
    [
        ("Eq14", {"r1": math.nan, "r2": 0.0, "r3": 0.0}, "r1"),
        ("Eq15", {"r1": math.nan, "r2": 0.6, "r3": 0.8}, "r1"),
        ("S2", {"r": 0.3, "theta": math.nan}, "theta"),
        ("Eq16", {"r1": 0.5, "r2": 0.5, "r3": 0.5, "r4": 0.5, "phi": math.nan}, "phi"),
        ("Eq18", {**EQ18_NORMALIZED, "theta": math.inf}, "theta"),
        # an int beyond the float range reads as inf
        ("S1", {"r": 10**400}, "r"),
    ],
)
def test_family_refuses_non_finite_parameters(name, params, key):
    with pytest.raises(ValueError, match=f"family parameter '{key}' must be finite"):
        family(name, params)


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
    # only the 4-vector that pair_projection returns is taken, not a density matrix
    for bad in (np.zeros(5), np.outer(singlet, singlet), singlet.reshape(2, 2)):
        with pytest.raises(ValueError, match=r"expected a two-qubit 4-vector, got shape"):
            chsh_value(bad)
    # unnormalized input would read past Tsirelson's bound, or as 0 for a zero vector
    for vec in (2.0 * singlet, (1.0 + 2e-9) * singlet, np.zeros(4)):
        with pytest.raises(ValueError, match="4-vector of norm one"):
            chsh_value(vec)
    # within NORM_TOL the value is taken as given
    assert abs(chsh_value((1.0 + 1e-10) * singlet) - 2.0 * ROOT2) < 1e-9


def test_chsh_value_of_a_tuple_of_complex_numbers_is_that_of_any_4_vector():
    # pair_projection's tuple of four Python complex numbers skips the shape
    # walk; the same numbers as a list or an array give the same bits
    local = np.random.default_rng(1919)
    for psi in [random_state(SHAPE_321, local) for _ in range(20)] + [family("S1", {"r": 0.2})]:
        for pair in ("AB", "BC", "AC"):
            vec, _ = pair_projection(psi, pair)
            assert type(vec) is tuple and all(type(a) is complex for a in vec)
            assert chsh_value(vec) == chsh_value(list(vec)) == chsh_value(np.array(vec))
    # any other tuple takes the shape walk and its refusals
    assert chsh_value((1.0, 0j, 0j, 0j)) == 2.0
    for bad, shape in (((1j,) * 5, r"\(5,\)"), ((0j,) * 3, r"\(3,\)"), (((1j,) * 4,), r"\(1, 4\)")):
        with pytest.raises(ValueError, match=rf"^expected a two-qubit 4-vector, got shape {shape}$"):
            chsh_value(bad)
    with pytest.raises(ValueError, match="non-finite entries"):
        chsh_value((complex(math.nan), 0j, 0j, 0j))


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
        # a fresh copy of the state, so the reports are evaluated anew, not read from its cache
        fresh = StateVector(psi.shape, dict(psi.amplitudes))
        for tol in (1e-10, 1e-3):
            got = membership_report(psi, tol=tol)
            assert got.profile == bell_profile(fresh, tol=tol)
        want = invariant_report(fresh)
        for name in InvariantReport._fields:
            a, b = np.asarray(getattr(got.invariants, name)), np.asarray(getattr(want, name))
            assert a.tobytes() == b.tobytes(), name
            assert type(getattr(got.invariants, name)) is type(getattr(want, name))


def test_canonical_form_constant_on_su_orbits():
    """The canonical parameters of a state and of a unitarily moved copy agree."""
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


def orbit_pairs_differing(psi, pairs=50, tol=1e-9):
    """How many of ``pairs`` SU-moved copies of ``psi`` get other canonical parameters."""
    a = canonical_form(psi)
    differ = 0
    for seed in range(pairs):
        b = canonical_form(normalize(apply(random_element("SU", seed, spread=1.0), psi)))
        moduli = max(abs(x - y) for x, y in zip(a.r, b.r))
        phases = max(
            abs(math.remainder(x - y, 2.0 * math.pi))
            for x, y in ((a.phi, b.phi), (a.phi_prime, b.phi_prime), (a.theta, b.theta))
        )
        differ += moduli > tol or phases > tol
    return differ


@pytest.mark.parametrize(
    "name, params",
    [("S2", {"r": 0.3, "theta": 0.0}), ("S2", {"r": 0.3, "theta": 1.2}),
     ("S2", {"r": 0.3, "theta": math.pi}), ("psi2", {})],
    ids=["S2-theta0", "S2-theta1.2", "S2-thetapi", "psi2"],
)
def test_canonical_form_constant_on_orbits_with_phases_at_the_fold(name, params):
    # free phases at 0 or pi sit on the ends of the fold's range up to roundoff
    assert orbit_pairs_differing(family(name, params)) == 0


@pytest.mark.xfail(reason="degenerate classes have no gauge rule yet (ROADMAP item 1)")
@pytest.mark.parametrize(
    "name, params",
    [("psi1", {}), ("S1", {"r": 0.2}), ("S1", {"r": 0.0}),
     ("Eq14", {"r1": 0.6, "r2": 0.48, "r3": 0.64}), ("Eq15", {"r1": 0.6, "r2": 0.48, "r3": 0.64}),
     ("Eq16", {"r1": 0.5, "r2": 0.5, "r3": 0.5, "r4": 0.5})],
    ids=["psi1", "S1-r0.2", "S1-r0", "Eq14", "Eq15", "Eq16"],
)
def test_canonical_form_constant_on_orbits_of_degenerate_classes(name, params):
    assert orbit_pairs_differing(family(name, params)) == 0


def test_canonical_form_ignores_record_order():
    local = np.random.default_rng(3)
    for _ in range(300):
        psi = random_state(SHAPE_321, local)
        items = list(psi.amplitudes.items())
        shuffled = StateVector(SHAPE_321, dict(items[i] for i in local.permutation(len(items))))
        a, b = canonical_form(psi), canonical_form(shuffled)
        assert (a.r, a.phi, a.phi_prime, a.theta) == (b.r, b.phi, b.phi_prime, b.theta)
        assert np.array_equal(a.element.matrices, b.element.matrices)
        assert a.state.amplitudes == b.state.amplitudes


def test_canonical_form_folds_a_free_phase_just_below_pi():
    # a canonical slot pattern whose first free phase is 1e-10 short of pi
    r = np.random.default_rng(17).uniform(0.2, 1.0, size=9)
    r /= np.linalg.norm(r)
    phases = {(1, 0, 2): math.pi - 1e-10, (0, 2, 1): 0.3, (0, 1, 2): -1.1}
    amps = {occ: r[k] * np.exp(1j * phases.get(occ, 0.0)) for k, occ in enumerate(CANONICAL_SLOTS)}
    params = canonical_form(StateVector(SHAPE_321, amps))
    assert abs(params.phi) < 1e-9
    assert abs(params.phi_prime - (0.3 - math.pi)) < 1e-9
    assert abs(params.theta - (math.pi - 1.1)) < 1e-9
    assert np.abs(np.array(params.r) - r).max() < 1e-12


def _chsh_kron_loop(vec):
    """chsh_value restated with one kron product, matmul and trace per entry of T."""
    paulis = (
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    )
    q = np.asarray(vec, dtype=complex)
    rho = np.outer(q, q.conj())
    t = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            t[i, j] = np.trace(rho @ np.kron(paulis[i], paulis[j])).real
    ev = np.linalg.eigvalsh(t.T @ t)
    return 2.0 * math.sqrt(max(ev[-1] + ev[-2], 0.0))


def _chsh_exact(vec) -> Decimal:
    """2 sqrt(n^4 + 4 |d|^2) of the 4-vector ``vec`` at 50 digits: n^2 and the
    determinant d = q0 q3 - q1 q2 exact in rationals, then one decimal square root."""
    (a, b), (c, d), (e, f), (g, h) = ((Fraction(z.real), Fraction(z.imag)) for z in map(complex, vec))
    n2 = a * a + b * b + c * c + d * d + e * e + f * f + g * g + h * h
    det_re = a * g - b * h - (c * e - d * f)
    det_im = a * h + b * g - (c * f + d * e)
    square = 4 * (n2 * n2 + 4 * (det_re * det_re + det_im * det_im))
    with localcontext() as ctx:
        ctx.prec = 50
        return (Decimal(square.numerator) / Decimal(square.denominator)).sqrt()


def _ulps(value: float, exact: Decimal) -> float:
    with localcontext() as ctx:
        ctx.prec = 50
        return float(abs(Decimal(value) - exact) / Decimal(math.ulp(value)))


def test_chsh_equals_the_nine_kron_loop():
    # both chsh_value and the kron loop restatement of T^T T agree with the
    # exact value of the same input: the closed form within 2 ulp, the
    # eigenvalue solve within 3
    local = np.random.default_rng(5150)
    inputs = [family("psi2"), family("S1", {"r": 0.3}), normalized_eq16(3, phi=1.1)]
    inputs += [random_state(SHAPE_321, local) for _ in range(1000)]
    checked = 0
    for psi in inputs:
        for pair in ("AB", "BC", "AC"):
            vec, _ = pair_projection(psi, pair)
            if vec is None:
                continue
            exact = _chsh_exact(vec)
            assert _ulps(chsh_value(vec), exact) <= 2.0
            assert _ulps(_chsh_kron_loop(vec), exact) <= 3.0
            checked += 1
    assert checked >= 3000


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
@pytest.mark.parametrize("form", ["vector", "matrix"])
def test_chsh_rejects_non_finite_entries(bad, form):
    vec = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / ROOT2
    q = vec if form == "vector" else np.outer(vec, vec.conj())
    q[(1,) if form == "vector" else (1, 2)] = bad
    # a density matrix is refused by its shape, before its entries are read
    message = "non-finite" if form == "vector" else "expected a two-qubit 4-vector"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            chsh_value(q)
