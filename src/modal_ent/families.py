"""The named state families of the two-particle, three-mode, spin-1/2 sector.

:func:`family` builds the reference states that the paper names and the
test harness uses. This module loads no numpy, so ``modal-ent family``
runs without it: the amplitudes are Python numbers, and a phase factor is
``r * cmath.exp(1j * x)``, which gives the bits that ``r * np.exp(1j * x)``
gave.
"""

from __future__ import annotations

import cmath
import math
from typing import Dict, Mapping, Optional, Tuple

from .names import FAMILY_NAMES, parameter_reader
from .states import SHAPE_321, StateVector, _squared_norm

_U, _D = 1, 2


def family(name: str, params: Optional[Mapping[str, float]] = None) -> StateVector:
    """Build a named family member from its parameters.

    The Eq-named families take explicit amplitudes and insist that they are
    already normalized to unit length within 1e-10; amplitudes whose
    squares overflow give an infinite squared norm, and are refused. S1
    and S2 are single-parameter curves that normalize by construction, and
    psi1, psi2 are the two parameterless reference states.
    """
    if name not in FAMILY_NAMES:
        raise ValueError(f"unknown family {name!r}; choose from {FAMILY_NAMES}")
    p: Dict[str, float] = dict(params or {})
    take = parameter_reader(p, "family parameter")
    amps: Dict[Tuple[int, int, int], complex] = {}

    def put(occ: Tuple[int, int, int], value: complex) -> None:
        if value != 0:
            amps[occ] = complex(value)

    check_norm = True
    if name == "Eq14":
        r1, r2, r3 = (take(k) for k in ("r1", "r2", "r3"))
        if min(r1, r2, r3) < 0:
            raise ValueError("Eq14 parameters must be non-negative")
        put((_D, _D, 0), r1)
        put((_D, 0, _D), r2)
        put((0, _D, _D), r3)
    elif name == "Eq15":
        r1, r2, r3 = (take(k) for k in ("r1", "r2", "r3"))
        if r1 <= 0 or r2 <= 0 or r3 < 0:
            raise ValueError("Eq15 needs r1, r2 > 0 and r3 >= 0")
        put((_D, _D, 0), r1)
        put((_U, 0, _U), r2)
        put((0, _D, _U), r3)
    elif name == "Eq16":
        r1, r2, r3 = (take(k) for k in ("r1", "r2", "r3"))
        r4 = take("r4")
        phi = take("phi", 0.0)
        if r1 <= 0 or r2 <= 0 or r3 <= 0 or r4 < 0:
            raise ValueError("Eq16 needs r1, r2, r3 > 0 and r4 >= 0")
        put((_D, _D, 0), r1)
        put((_U, 0, _U), r2)
        put((0, _D, _D), r3)
        put((0, _D, _U), r4 * cmath.exp(1j * phi))
    elif name == "Eq18":
        r1, r2, r3, r4, r5 = (take(k) for k in ("r1", "r2", "r3", "r4", "r5"))
        theta = take("theta", 0.0)
        if r1 <= 0 or r2 <= 0 or r5 <= 0 or r3 < 0 or r4 < 0:
            raise ValueError("Eq18 needs r1, r2, r5 > 0 and r3, r4 >= 0")
        put((_D, _D, 0), r1)
        put((_U, 0, _U), r2)
        put((0, _D, _D), r3)
        put((0, _U, _U), r4)
        put((0, _U, _D), r5 * cmath.exp(1j * theta))
        put((0, _D, _U), (r3 * r4 / r5) * cmath.exp(-1j * theta))
    elif name == "S1":
        r = take("r")
        if not 0.0 <= r <= 1.0 / math.sqrt(6.0) + 1e-12:
            raise ValueError("S1 needs 0 <= r <= 1/sqrt(6)")
        a = 1.0 / math.sqrt(6.0)
        b = math.sqrt(max(1.0 / 6.0 - r * r, 0.0))
        for occ in ((_U, _U, 0), (_D, _D, 0), (_D, 0, _D), (_U, 0, _U)):
            put(occ, a)
        put((0, _D, _D), b)
        put((0, _U, _U), b)
        put((0, _D, _U), r)
        put((0, _U, _D), -r)
        check_norm = False
    elif name == "S2":
        r = take("r")
        theta = take("theta", 0.0)
        if not 0.0 <= r < 1.0 / math.sqrt(3.0):
            raise ValueError("S2 needs 0 <= r < 1/sqrt(3)")
        w = math.sqrt(1.0 / 3.0 - r * r)
        put((_U, _U, 0), r)
        put((_D, 0, _D), r)
        put((0, _D, _U), r * cmath.exp(1j * theta))
        put((_D, _D, 0), w)
        put((_U, 0, _U), w)
        put((0, _U, _D), w)
        check_norm = False
    elif name == "psi1":
        a = 1.0 / math.sqrt(6.0)
        for occ in (
            (_U, _U, 0),
            (_D, _D, 0),
            (_D, 0, _D),
            (_U, 0, _U),
            (0, _D, _D),
            (0, _U, _U),
        ):
            put(occ, a)
        check_norm = False
    else:
        a = 1.0 / math.sqrt(3.0)
        put((_U, _U, 0), a)
        put((_D, 0, _D), a)
        put((0, _D, _U), a)
        check_norm = False

    if p:
        raise ValueError(f"unexpected parameters for {name}: {sorted(p)}")
    if check_norm:
        total = _squared_norm(amps.values())
        if not abs(total - 1.0) <= 1e-10:
            raise ValueError(
                f"{name} parameters give squared norm {total:.12f}, expected 1"
            )
    return StateVector(shape=SHAPE_321, amplitudes=amps)
