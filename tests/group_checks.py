"""Reference predicates on group elements, for the tests only.

An element is a determinant-one unitary ("SU"), a determinant-one compliant
element that is not unitary ("SLOCC"), or neither. Each test runs once on
the whole ``(modes, d, d)`` stack, so a NaN entry fails the tests it reaches.
"""

import numpy as np

from modal_ent.operators import MEMBER_TOL


def is_unitary(element, tol=MEMBER_TOL):
    mats = np.asarray(element.matrices)
    defect = mats @ mats.conj().swapaxes(-1, -2) - np.eye(mats.shape[-1])
    return bool(np.abs(defect).max() <= tol)


def is_special(element, tol=MEMBER_TOL):
    return bool((np.abs(np.linalg.det(np.asarray(element.matrices)) - 1.0) <= tol).all())


def membership(element):
    """Coarse tag: ``"SU"``, ``"SLOCC"`` or ``"neither"``."""
    if not element.is_superselection_compliant() or not is_special(element):
        return "neither"
    return "SU" if is_unitary(element) else "SLOCC"
