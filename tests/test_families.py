import cmath
import math
import struct

import numpy as np
import pytest

from modal_ent.families import family

rng = np.random.default_rng(18)

#: the extreme phases of the pin, beside each family's own range
EXTREME_PHASES = (1e300, -1e300, -0.0, 0.0, 5e-324, -5e-324, 1e-308, math.pi, -math.pi, 1e6, -1e6)


def _bits(z):
    """The bit patterns of both parts, so -0.0 and 0.0 differ."""
    z = complex(z)
    return struct.pack("<dd", z.real, z.imag)


def _numpy_form(r, x):
    """A phase factor as the families wrote it before they dropped numpy."""
    return complex(r * np.exp(1j * x))


def _phased_cases():
    """(family, params, {occupation: expected amplitude}) over each phase range."""
    eq18_r2 = math.sqrt(0.1875)
    for x in [*rng.uniform(-2 * math.pi, 2 * math.pi, 200), *rng.uniform(-1e6, 1e6, 50), *EXTREME_PHASES]:
        x = float(x)
        yield "Eq16", {"r1": 0.5, "r2": 0.5, "r3": 0.5, "r4": 0.5, "phi": x}, {(0, 2, 1): _numpy_form(0.5, x)}
        params = {"r1": 0.5, "r2": eq18_r2, "r3": 0.3, "r4": 0.3, "r5": 0.6, "theta": x}
        expected = {(0, 1, 2): _numpy_form(0.6, x), (0, 2, 1): complex(0.3 * 0.3 / 0.6 * np.exp(-1j * x))}
        yield "Eq18", params, expected
        r = float(rng.uniform(0.0, 1.0 / math.sqrt(3.0)))
        yield "S2", {"r": r, "theta": x}, {(0, 2, 1): _numpy_form(r, x)}


def test_phase_factors_keep_the_bits_of_the_numpy_form():
    checked = 0
    for name, params, expected in _phased_cases():
        amplitudes = family(name, params).amplitudes
        for occ, want in expected.items():
            assert _bits(amplitudes[occ]) == _bits(want), (name, params, occ)
            checked += 1
    assert checked == 4 * (200 + 50 + len(EXTREME_PHASES))


@pytest.mark.parametrize("r", [0.3, 1e-300, 1e300, 0.0])
def test_cmath_exp_equals_numpy_exp_bit_for_bit(r):
    phases = [*rng.uniform(-10, 10, 2000), *rng.uniform(-1e6, 1e6, 500), *(10.0 ** rng.uniform(-320, 300, 500))]
    for x in [*phases, *EXTREME_PHASES]:
        x = float(x)
        for sign in (1j, -1j):
            assert _bits(r * cmath.exp(sign * x)) == _bits(r * np.exp(sign * x)), (r, x, sign)


def test_a_squared_norm_that_overflows_is_refused_as_infinite():
    with pytest.raises(ValueError, match=r"^Eq14 parameters give squared norm inf, expected 1$"):
        family("Eq14", {"r1": 1e200, "r2": 0.0, "r3": 0.0})
    # r3 * r4 / r5 overflows to inf, and inf times a phase gives a NaN part
    with pytest.raises(ValueError, match=r"^Eq18 parameters give squared norm inf, expected 1$"):
        family("Eq18", {"r1": 0.5, "r2": 0.5, "r3": 0.5, "r4": 0.5, "r5": 1e-320})
