import math

import numpy as np
import pytest

from group_checks import membership
from modal_ent.classify import canonical_form, family
from modal_ent.operators import apply, sector_matrix
from modal_ent.stabilizers import (
    STABILIZER_NAMES,
    phase_fit,
    stabilizer,
    topological_phases,
    verify_stabilizes,
)
from modal_ent.states import SHAPE_321, StateVector, random_state

rng = np.random.default_rng(314)

PSI1 = family("psi1")
PSI2 = family("psi2")


def test_generic_element_is_sector_identity():
    # the generic symmetry acts trivially on every admissible basis vector,
    # so it stabilizes anything with bare phase one
    for m, alpha in [(0, 0.0), (1, 0.5), (2, -1.2), (5, 3.0)]:
        stab = stabilizer("generic_eq13", {"m": m, "alpha": alpha})
        mat = sector_matrix(stab.element, SHAPE_321)
        assert np.abs(mat - np.eye(12)).max() < 1e-12
        assert stab.declared_prefactor == 1.0


def test_generic_element_on_canonical_states():
    for k in range(10):
        state = canonical_form(random_state(SHAPE_321, rng)).state
        m = int(rng.integers(-4, 5))
        alpha = float(rng.uniform(-3.0, 3.0))
        stab = stabilizer("generic_eq13", {"m": m, "alpha": alpha})
        ok, c = verify_stabilizes(stab, state)
        assert ok
        assert abs(c - 1.0) < 1e-9


def test_family16_stabilizer():
    raw = rng.uniform(0.2, 1.0, size=4)
    raw /= np.linalg.norm(raw)
    state = family(
        "Eq16", {"r1": raw[0], "r2": raw[1], "r3": raw[2], "r4": raw[3], "phi": 0.9}
    )
    for alpha, beta, gamma in [(0.7, -0.4, 0.9), (2.2, 0.0, -1.3), (-1.0, 1.0, 0.0)]:
        stab = stabilizer("family16_eq20", {"alpha": alpha, "beta": beta, "gamma": gamma})
        ok, c = verify_stabilizes(stab, state)
        assert ok
        # the bare element undoes the declared scalar
        assert abs(c - np.exp(-1j * alpha)) < 1e-9
        assert abs(stab.declared_prefactor - np.exp(1j * alpha)) < 1e-15


def test_psi1_stabilizers_variant_a():
    for _ in range(10):
        ints = {k: int(rng.integers(-3, 4)) for k in ("k", "l", "m", "n", "p")}
        ints["q"] = 2 * int(rng.integers(-2, 3))
        ints["variant"] = "a"
        ints["alpha"] = float(rng.uniform(-2.0, 2.0))
        stab = stabilizer("psi1_eq23", ints)
        ok, _ = verify_stabilizes(stab, PSI1)
        assert ok


def test_psi1_variant_a_odd_q_breaks_the_ray():
    stab = stabilizer("psi1_eq23", {"variant": "a", "q": 1})
    ok, _ = verify_stabilizes(stab, PSI1)
    assert not ok
    moved = apply(stab.element, PSI1)
    proportional, _ = phase_fit(PSI1, moved, 1e-9)
    assert not proportional


def test_psi1_frozen_bare_phases():
    probe = stabilizer("psi1_eq23", {"variant": "a", "m": -1})
    ok, c = verify_stabilizes(probe, PSI1)
    assert ok
    assert abs(c - np.exp(1j * math.pi / 3.0)) < 1e-9

    flip = stabilizer("psi1_eq23", {"variant": "b"})
    ok, c = verify_stabilizes(flip, PSI1)
    assert ok
    assert abs(c + 1.0) < 1e-9
    assert abs(flip.declared_prefactor + 1.0) < 1e-15

    for beta in (0.0, 0.77, -2.4):
        rot = stabilizer("psi1_eq23", {"variant": "c", "beta": beta})
        ok, c = verify_stabilizes(rot, PSI1)
        assert ok
        assert abs(c - 1.0) < 1e-9


def test_psi2_stabilizer():
    for _ in range(8):
        params = {k: float(rng.uniform(-2.0, 2.0)) for k in ("alpha", "beta", "gamma", "delta")}
        stab = stabilizer("psi2_eq26", params)
        ok, c = verify_stabilizes(stab, PSI2)
        assert ok
        assert abs(c - 1.0) < 1e-9
    mismatch = stabilizer("psi2_eq26", {"alpha": 0.5, "beta": -0.3, "gamma": 1.2, "delta": 0.8})
    assert not verify_stabilizes(mismatch, PSI1)[0]


def test_stabilizer_elements_are_special_unitaries():
    candidates = [
        stabilizer("generic_eq13", {"m": 3, "alpha": 1.1}),
        stabilizer("family16_eq20", {"alpha": 0.4, "beta": 0.2, "gamma": -0.6}),
        stabilizer("psi1_eq23", {"variant": "a", "k": 1, "q": 2}),
        stabilizer("psi1_eq23", {"variant": "b"}),
        stabilizer("psi1_eq23", {"variant": "c", "beta": 1.5}),
        stabilizer("psi2_eq26", {"alpha": 0.1, "beta": 0.2, "gamma": 0.3, "delta": 0.4}),
    ]
    for stab in candidates:
        assert membership(stab.element) == "SU"
        assert abs(abs(stab.declared_prefactor) - 1.0) < 1e-12


def test_topological_phases():
    probe = stabilizer("psi1_eq23", {"variant": "a", "m": -1})
    phases = topological_phases(PSI1, probes=(probe,))
    assert len(phases) == 2
    assert abs(phases[0] - np.exp(1j * math.pi / 3.0)) < 1e-9
    assert abs(phases[1] - np.exp(2j * math.pi / 3.0)) < 1e-9

    # the canonical probe fixes every ray, probes that move the ray are skipped
    odd = stabilizer("psi1_eq23", {"variant": "a", "q": 1})
    generic = random_state(SHAPE_321, rng)
    phases = topological_phases(generic, probes=(odd,))
    assert len(phases) == 1
    assert abs(phases[0] - np.exp(2j * math.pi / 3.0)) < 1e-9


def _bits(z):
    return np.array([z], dtype=complex).view(np.uint64).tolist()


def _psi1_a_integers(total):
    """Integers k, l, m, n, p in -3..3 and an even q in -4..4 that sum to ``total``."""
    q = max(-4, min(4, 2 * int(total / 2)))
    rest, out = total - q, {}
    for key in ("k", "l", "m", "n", "p"):
        out[key] = max(-3, min(3, rest))
        rest -= out[key]
    assert rest == 0
    return {**out, "q": q}


def test_prefactors_equal_the_numpy_exponential_bit_for_bit():
    # over the parameter ranges the benchmark draws from, cmath.exp gives
    # the bits that np.exp gave
    local = np.random.default_rng(2718)
    for _ in range(2000):
        params = {k: float(local.uniform(-2.0, 2.0)) for k in ("alpha", "beta", "gamma")}
        got = stabilizer("family16_eq20", params).declared_prefactor
        assert _bits(got) == _bits(np.exp(1j * params["alpha"]))
    third = math.pi / 3.0
    for total in range(-19, 20):
        ints = _psi1_a_integers(total)
        for alpha in local.uniform(-2.0, 2.0, size=3):
            got = stabilizer("psi1_eq23", {"variant": "a", **ints, "alpha": float(alpha)}).declared_prefactor
            assert _bits(got) == _bits(np.exp(1j * third * total))
    assert _bits(stabilizer("psi1_eq23", {"variant": "b"}).declared_prefactor) == _bits(np.exp(1j * np.pi))
    for name, params in (("generic_eq13", {"m": 2, "alpha": 0.3}), ("psi1_eq23", {"variant": "c", "beta": 0.7}),
                         ("psi2_eq26", {"alpha": 0.1, "beta": -0.4})):
        assert _bits(stabilizer(name, params).declared_prefactor) == _bits(1.0 + 0j)
    # the canonical probe of topological_phases, a scalar e^{2 pi i / 3} on mode A
    probe = topological_phases(StateVector(SHAPE_321, {(1, 1, 0): 1.0}))[-1]
    assert _bits(probe) == _bits(np.exp(2j * np.pi / 3.0))


def test_parameter_validation():
    assert set(STABILIZER_NAMES) == {
        "generic_eq13", "family16_eq20", "psi1_eq23", "psi2_eq26"
    }
    with pytest.raises(ValueError):
        stabilizer("unknown", {})
    with pytest.raises(ValueError):
        stabilizer("generic_eq13", {"m": 0.5})
    for bad in ("inf", "nan"):
        with pytest.raises(ValueError, match=f"parameter 'm' must be an integer, got {bad}"):
            stabilizer("generic_eq13", {"m": float(bad)})
    for name, key in (("generic_eq13", "alpha"), ("family16_eq20", "beta"), ("psi2_eq26", "delta")):
        for bad in ("inf", "-inf", "nan"):
            with pytest.raises(ValueError, match=f"parameter '{key}' must be finite, got {bad}"):
                stabilizer(name, {key: float(bad)})
    with pytest.raises(ValueError, match="parameter 'beta' must be finite, got nan"):
        stabilizer("psi1_eq23", {"variant": "c", "beta": math.nan})
    with pytest.raises(ValueError, match="the exponential on mode 0 overflows"):
        stabilizer("psi2_eq26", {"alpha": 1e300})
    with pytest.raises(ValueError, match="the exponential on mode 1 overflows"):
        stabilizer("psi2_eq26", {"gamma": 1e300})
    with pytest.raises(ValueError, match="the exponential on mode 0 overflows"):
        stabilizer("psi1_eq23", {"variant": "c", "beta": 1e155})
    with pytest.raises(ValueError):
        stabilizer("generic_eq13", {"m": 1, "alpha": 0.0, "junk": 2.0})
    with pytest.raises(ValueError):
        stabilizer("psi1_eq23", {"variant": "z"})
    with pytest.raises(ValueError):
        stabilizer("psi1_eq23", {"variant": "b", "beta": 1.0})
    # defaults build the identity with unit prefactor
    stab = stabilizer("psi2_eq26")
    ok, c = verify_stabilizes(stab, random_state(SHAPE_321, rng))
    assert ok and abs(c - 1.0) < 1e-12
