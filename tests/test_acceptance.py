"""End-to-end checks of the headline guarantees, one test per claim.

Each test is self-contained and pins its own tolerances and sample sizes;
running the module with -v prints one pass or fail line per claim.
"""

import math

import numpy as np

from modal_ent.classify import (
    bell_profile,
    canonical_form,
    chsh_value,
    family,
    pair_projection,
)
from modal_ent.invariants import (
    generator_relation_check,
    invariant_report,
    localized_scenario_check,
    trace_word,
)
from modal_ent.maxent import build_psi_sigma, pattern_scan
from modal_ent.monte_carlo import invariance_sweep, run_monotone_trials
from modal_ent.operators import (
    GroupElement,
    apply,
    occupation_scaling,
    random_element,
)
from modal_ent.stabilizers import stabilizer, topological_phases, verify_stabilizes
from modal_ent.states import (
    SHAPE_321,
    SystemShape,
    is_maximally_entangled,
    random_state,
)

ROOT6 = math.sqrt(6.0)
ROOT3 = math.sqrt(3.0)

S1_GRID = np.linspace(0.0, 1.0 / ROOT6, 20)
S2_R_GRID = np.linspace(0.0, 1.0 / ROOT3, 20, endpoint=False)
S2_THETA_GRID = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)


def random_eq16_params(rng):
    raw = rng.uniform(0.05, 1.0, size=4)
    raw /= np.linalg.norm(raw)
    return {
        "r1": float(raw[0]),
        "r2": float(raw[1]),
        "r3": float(raw[2]),
        "r4": float(raw[3]),
        "phi": float(rng.uniform(0.0, 2.0 * math.pi)),
    }


def test_criterion_01():
    """S1 interpolation curve: I1 stays pinned while |I2| climbs linearly."""
    for r in S1_GRID:
        rep = invariant_report(family("S1", {"r": float(r)}))
        assert abs(rep.I1 - 6.0**-3) < 1e-10
        assert abs(abs(rep.I2) - r / 3.0) < 1e-10


def test_criterion_02():
    """S2 surface: both invariant moduli follow their closed forms."""
    for r in S2_R_GRID:
        w = math.sqrt(1.0 / 3.0 - r * r)
        for theta in S2_THETA_GRID:
            rep = invariant_report(family("S2", {"r": float(r), "theta": float(theta)}))
            assert abs(abs(rep.I1) - r**3 * w**3) < 1e-10
            want_i2 = abs(r**3 * np.exp(1j * theta) - w**3)
            assert abs(abs(rep.I2) - want_i2) < 1e-10


def test_criterion_03():
    """Eq16 family: bipartition cross-minor sums obey their closed forms."""
    rng = np.random.default_rng(160_001)
    for _ in range(1000):
        params = random_eq16_params(rng)
        rep = invariant_report(family("Eq16", params))
        assert abs(rep.I_A_BC - params["r1"] ** 2 * params["r2"] ** 2) < 1e-10
        assert abs(rep.I_C_AB - params["r2"] ** 2 * params["r3"] ** 2) < 1e-10
        assert rep.I_B_AC < 1e-12


def test_criterion_04():
    """Reference states and both curves keep every reduction maximally mixed."""
    assert is_maximally_entangled(family("psi1"), tol=1e-12)
    assert is_maximally_entangled(family("psi2"), tol=1e-12)
    for r in S1_GRID:
        assert is_maximally_entangled(family("S1", {"r": float(r)}), tol=1e-12)
    for r in S2_R_GRID:
        for theta in S2_THETA_GRID:
            psi = family("S2", {"r": float(r), "theta": float(theta)})
            assert is_maximally_entangled(psi, tol=1e-12)
    for reps, p in [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (1, 3)]:
        assert is_maximally_entangled(build_psi_sigma(reps, p), tol=1e-12)


def test_criterion_05():
    """Determinant-one elements leave I1 and I2 fixed; others are caught."""
    rng = np.random.default_rng(500_001)
    states = [random_state(SHAPE_321, rng) for _ in range(100)]
    elements = [random_element("SLOCC", seed=k) for k in range(1000)]
    worst1, worst2 = invariance_sweep(states, elements)
    assert worst1 < 1e-8
    assert worst2 < 1e-8

    eye = np.eye(3, dtype=complex)
    stretch = GroupElement([2.0 * eye, eye, eye])
    dev1, _ = invariance_sweep([family("psi1")], [stretch])
    assert dev1 > 1e-3


def test_criterion_06():
    """Ten thousand random local instruments never raise either monotone."""
    summary = run_monotone_trials(trials=10_000, master_seed=20_240_815)
    assert summary.failures == 0
    assert summary.max_margin <= 1e-9


def test_criterion_07():
    """Stabilizer suite: every named element fixes its target with net phase one."""
    rng = np.random.default_rng(700_001)

    canonical_states = [
        canonical_form(random_state(SHAPE_321, rng)).state for _ in range(100)
    ]
    generic = [
        stabilizer(
            "generic_eq13",
            {"m": int(rng.integers(-6, 7)), "alpha": float(rng.uniform(-math.pi, math.pi))},
        )
        for _ in range(100)
    ]
    for stab in generic:
        for state in canonical_states:
            ok, _ = verify_stabilizes(stab, state, tol=1e-9)
            assert ok

    for _ in range(100):
        state = family("Eq16", random_eq16_params(rng))
        stab = stabilizer(
            "family16_eq20",
            {k: float(rng.uniform(-math.pi, math.pi)) for k in ("alpha", "beta", "gamma")},
        )
        ok, _ = verify_stabilizes(stab, state, tol=1e-9)
        assert ok

    psi2 = family("psi2")
    for _ in range(100):
        stab = stabilizer(
            "psi2_eq26",
            {k: float(rng.uniform(-math.pi, math.pi)) for k in ("alpha", "beta", "gamma", "delta")},
        )
        ok, _ = verify_stabilizes(stab, psi2, tol=1e-9)
        assert ok

    psi1 = family("psi1")
    for _ in range(100):
        params = {k: int(rng.integers(-3, 4)) for k in ("k", "l", "m", "n", "p")}
        params["q"] = 2 * int(rng.integers(-2, 3))
        params["variant"] = "a"
        params["alpha"] = float(rng.uniform(-math.pi, math.pi))
        ok, _ = verify_stabilizes(stabilizer("psi1_eq23", params), psi1, tol=1e-9)
        assert ok
    ok, _ = verify_stabilizes(stabilizer("psi1_eq23", {"variant": "b"}), psi1, tol=1e-9)
    assert ok
    for beta in np.linspace(-math.pi, math.pi, 7):
        stab = stabilizer("psi1_eq23", {"variant": "c", "beta": float(beta)})
        ok, _ = verify_stabilizes(stab, psi1, tol=1e-9)
        assert ok

    root = np.exp(2j * math.pi / 3.0)
    for _ in range(20):
        phases = topological_phases(random_state(SHAPE_321, rng))
        assert abs(phases[-1] - root) < 1e-9
    probe = stabilizer("psi1_eq23", {"variant": "a", "m": -1})
    phases = topological_phases(psi1, probes=(probe,))
    assert len(phases) == 2
    assert abs(phases[0] - np.exp(1j * math.pi / 3.0)) < 1e-9
    assert abs(phases[1] - root) < 1e-9


def test_criterion_08():
    """Count scan matches the integer identity; the unbalanced sector scales."""
    rows = pattern_scan(range(1, 9), range(1, 4))
    feasible_rows = set()
    for row in rows:
        assert row.feasible == (row.m * (row.p + 2) == row.n * (row.p + 1))
        if row.feasible:
            feasible_rows.add((row.n, row.m, row.p))
            assert row.constructed
            assert row.max_ent_verified
    assert feasible_rows == {(3, 2, 1), (6, 4, 1), (4, 3, 2), (8, 6, 2), (5, 4, 3)}

    shape = SystemShape(4, 2, 1)
    rng = np.random.default_rng(800_001)
    psi = random_state(shape, rng)
    r, phi = 1.37, 0.83
    el = GroupElement(tuple(occupation_scaling(r, phi) for _ in range(4)))
    moved = apply(el, psi)
    factor = r**-2 * np.exp(-2j * phi)
    assert np.abs(moved.dense() - factor * psi.dense()).max() < 1e-10


def test_criterion_09():
    """Ring relations of the word matrix hold; pinned-mode factors match."""
    rng = np.random.default_rng(900_001)
    alpha = 0.3
    damp = math.exp(-2.0 * alpha)
    for _ in range(1000):
        psi = random_state(SHAPE_321, rng)
        assert generator_relation_check(psi, 4) < 1e-9
        rep = invariant_report(psi)
        tr2, _ = trace_word(psi, 2)
        assert abs(tr2 - (-rep.I2**2 + 2.0 * rep.I1)) < 1e-9
        f_ab, f_ac = localized_scenario_check(psi, alpha)
        assert abs(f_ab - damp) < 1e-10
        assert abs(f_ac - damp) < 1e-10


def test_criterion_10():
    """Nonzero monotones force every bipartition nonlocal; profiles and CHSH pin."""
    rng = np.random.default_rng(1_000_001)
    for _ in range(10_000):
        psi = random_state(SHAPE_321, rng)
        rep = invariant_report(psi)
        if rep.monotone1 > 1e-6 or rep.monotone2 > 1e-6:
            profile = bell_profile(psi)
            assert profile.nonlocal_A_BC
            assert profile.nonlocal_B_AC
            assert profile.nonlocal_C_AB

    def flags(profile):
        return (
            profile.nonlocal_AB,
            profile.nonlocal_BC,
            profile.nonlocal_AC,
            profile.nonlocal_A_BC,
            profile.nonlocal_B_AC,
            profile.nonlocal_C_AB,
        )

    for _ in range(25):
        raw = rng.uniform(0.05, 1.0, size=3)
        raw /= np.linalg.norm(raw)
        trips = {"r1": float(raw[0]), "r2": float(raw[1]), "r3": float(raw[2])}
        p14 = bell_profile(family("Eq14", trips))
        assert flags(p14) == (False, False, False, False, False, False)
        assert p14.tri_local
        p15 = bell_profile(family("Eq15", trips))
        assert flags(p15) == (False, False, False, True, False, False)
        p16 = bell_profile(family("Eq16", random_eq16_params(rng)))
        assert flags(p16) == (False, False, False, True, False, True)

    for r in S1_GRID:
        psi = family("S1", {"r": float(r)})
        for pair in ("AB", "BC", "AC"):
            vec, _ = pair_projection(psi, pair)
            assert abs(chsh_value(vec) - 2.0 * math.sqrt(2.0)) < 1e-9
