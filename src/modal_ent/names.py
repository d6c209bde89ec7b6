"""The names of the state families and stabilizer elements, and the one
reader of their parameters.

The command line offers these as choices before it knows which subcommand
runs, so they live apart from the modules that build the states and
elements; this module imports nothing of the package, and a call that never
builds one never loads those modules.
"""

import math
from typing import Callable, Dict, Optional

#: the families :func:`families.family` builds
FAMILY_NAMES = ("Eq14", "Eq15", "Eq16", "Eq18", "S1", "S2", "psi1", "psi2")

#: the elements :func:`stabilizers.stabilizer` builds
STABILIZER_NAMES = ("generic_eq13", "family16_eq20", "psi1_eq23", "psi2_eq26")


def parameter_reader(params: Dict[str, object], what: str) -> Callable[..., float]:
    """``take(key, default=None, integer=False)``, popping one number from ``params`` per call.

    A missing key gives ``default``, or ValueError when there is none. A
    value that ``float`` refuses, of any type, and one that is not finite
    raise ValueError naming ``what`` and the key; an int beyond the float
    range counts as infinite. With ``integer``, so does a value more than
    1e-9 from an integer, and the nearest int is returned.
    """

    def take(key: str, default: Optional[float] = None, integer: bool = False) -> float:
        if key not in params:
            if default is None:
                raise ValueError(f"missing {what} {key!r}")
            return default
        raw = params.pop(key)
        try:
            value = float(raw)
        except OverflowError:
            value = math.inf
        except (TypeError, ValueError):
            value = None
        if integer:
            if value is None or not math.isfinite(value) or abs(value - round(value)) > 1e-9:
                raise ValueError(f"{what} {key!r} must be an integer, got {raw}")
            return int(round(value))
        if value is None:
            raise ValueError(f"{what} {key!r} must be a number, got {raw!r}")
        if not math.isfinite(value):
            raise ValueError(f"{what} {key!r} must be finite, got {value}")
        return value

    return take
