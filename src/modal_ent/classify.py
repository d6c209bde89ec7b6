"""Canonical forms, locality profiles and CHSH values.

A normalized sector state can be carried by mode-local unitaries to a
canonical representative supported on nine slots, with non-negative moduli
on six of them and free phases on the remaining three. The reduction runs
in four stages on the pair blocks of the twelve amplitudes: a singular
value decomposition diagonalizes the AB block, a Givens rotation on mode C
clears one AC entry, a least-squares phase fit over the diagonal subgroup
strips the removable phases, and a residual common phase is absorbed as a
scalar on mode A. That last stage is unitary but not special, so the
canonical state keeps |I1|, |I2| and the three cut sums of the input, to
roundoff, but not I1 and I2 themselves. A fold by diag(1, -1, 1) on every
mode then picks one of the two representatives that the stages leave, so
the canonical form is a function of the state, and constant on the
local-unitary orbit of a generic state.

The locality helpers reduce a state to its pattern of pair and bipartition
correlations. The named state families live in :mod:`modal_ent.families`,
which loads no numpy; ``classify.family`` is the same function.

Loading this module loads no numpy, and :func:`membership_report` and
:func:`bell_profile` compute in Python complex numbers, so
``modal-ent classify`` runs without it. numpy enters only inside
:func:`canonical_form` (an SVD and a least-squares fit),
:func:`pair_projection` and :func:`chsh_value` (an eigenvalue solve), which
import it when they run.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, List, Optional, Tuple

from .invariants import (
    _AB,
    _AC,
    _BC,
    _CUT_A_BC,
    _CUT_B_AC,
    _CUT_C_AB,
    _IDX,
    _PAIRS,
    InvariantReport,
    _amplitude_list,
    _cross_minors,
    _invariant_polynomials,
    _report,
)
from . import families
from .operators import GroupElement
from .states import (
    NORM_TOL,
    SHAPE_321,
    StateVector,
    is_maximally_entangled,
    require_normalized,
)

if TYPE_CHECKING:
    import numpy as np

CANONICAL_SLOTS: Tuple[Tuple[int, int, int], ...] = (
    (1, 1, 0),
    (2, 2, 0),
    (2, 0, 2),
    (1, 0, 1),
    (1, 0, 2),
    (0, 2, 2),
    (0, 1, 1),
    (0, 2, 1),
    (0, 1, 2),
)

_U, _D = 1, 2

STRUCTURAL_ZEROS: Tuple[Tuple[int, int, int], ...] = ((1, 2, 0), (2, 1, 0), (2, 0, 1))

# Slots whose canonical amplitude is a non-negative real, and slots 5, 8 and
# 9, whose phases phi, phi_prime and theta survive.
_NO_PHASE_SLOTS = CANONICAL_SLOTS[:4] + CANONICAL_SLOTS[5:7]
_FREE_SLOTS = CANONICAL_SLOTS[4:5] + CANONICAL_SLOTS[7:]

# Per-symbol gradients of the two diagonal phase generators. The first
# entry multiplies the traceless diagonal (up minus down), the second the
# diagonal that weights the vacancy by -2.
_G3 = {1: 1.0, 2: -1.0, 0: 0.0}
_G8 = {1: 1.0, 2: 1.0, 0: -2.0}

# Phases within this of the ends of [0, pi] count as inside, for the gauge fold.
_FOLD_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class CanonicalParams:
    """Canonical representative of a state and the element reaching it.

    ``r`` holds the nine slot moduli in CANONICAL_SLOTS order; ``phi``,
    ``phi_prime`` and ``theta`` are the surviving phases on slots 5, 8 and
    9, each 0.0 on an empty slot; the first on a nonempty slot lies in
    ``[-1e-9, pi - 1e-9]``, by the fold. ``element`` maps the input state to
    ``state``; it is unitary but not special, so ``state`` keeps |I1|, |I2|
    and the cut sums, to roundoff.
    """

    r: Tuple[float, ...]
    phi: float
    phi_prime: float
    theta: float
    element: GroupElement
    state: StateVector


def _block(v: List[complex], block: Tuple[int, ...]) -> np.ndarray:
    """One pair block of amplitudes ``v`` as a 2x2 matrix, given its basis positions."""
    import numpy as np

    uu, ud, du, dd = block
    return np.array([[v[uu], v[ud]], [v[du], v[dd]]], dtype=complex)


def _moved(v: List[complex], element) -> List[complex]:
    """Amplitudes ``v`` moved by an element given per mode as ``(level block,
    vacancy entry)``: each pair block ``M`` goes to ``L M L'^T s``, with the
    level blocks of its row and column modes and the third mode's vacancy."""
    out = [0j] * 12
    for (uu, ud, du, dd), row, col, third in _PAIRS:
        ((a, b), (c, d)), ((e, f), (g, h)), s = element[row][0], element[col][0], element[third][1]
        p, q = (a * v[uu] + b * v[du]) * s, (a * v[ud] + b * v[dd]) * s
        r, w = (c * v[uu] + d * v[du]) * s, (c * v[ud] + d * v[dd]) * s
        out[uu], out[ud], out[du], out[dd] = p * e + q * f, p * g + q * h, r * e + w * f, r * g + w * h
    return out


def _composed(stage, total) -> list:
    """The per-mode product ``stage @ total`` of two elements given as ``_moved`` takes them."""
    return [
        (((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h)), x * y)
        for (((a, b), (c, d)), x), (((e, f), (g, h)), y) in zip(stage, total)
    ]


def _diagonal(up: complex, down: complex, vacancy: complex) -> tuple:
    """A diagonal local matrix as ``_moved`` takes it."""
    return ((up, 0j), (0j, down)), vacancy


_IDENTITY = _diagonal(1.0, 1.0, 1.0)


def canonical_form(state: StateVector) -> CanonicalParams:
    """Reduce a normalized state to its canonical slot pattern.

    The stages move the twelve amplitudes, Python complex numbers in basis
    order, by ``_moved``; their elements are multiplied per mode and built
    as one :class:`GroupElement` at the end.

    Gauge rule. The diagonal elements that keep the six no-phase slots
    real and positive move (phi, phi_prime, theta) by 0 or by (pi, pi, pi)
    only, as the slot phases, integer combinations of the diagonal
    generators, show. Solving for slot signs (+, +, +, +, +, +) and
    (-, -, -) over diagonal elements with entries +-1 gives diag(1, -1, 1)
    on every mode. It acts when the first free slot with modulus above
    1e-12 has its phase outside ``[-_FOLD_TOL, pi - _FOLD_TOL]``, so a phase
    within ``_FOLD_TOL`` of pi folds to about 0. Generic states then give one
    output per local-unitary orbit. Equal AB singular values (psi1, S1) and
    rank-deficient stage 3 systems (Eq14 to Eq16) leave a continuous
    freedom that no rule fixes yet.

    Raises ValueError when the input is not normalized or not of shape
    (3, 2, 1), and ArithmeticError if the reduction fails to clear the
    structural zero slots, which would indicate a numerical breakdown rather
    than a property of the input.
    """
    import numpy as np

    require_normalized(state, "canonical form")
    v = _amplitude_list(state)
    total = [_IDENTITY] * 3

    def act(stage) -> None:
        nonlocal v, total
        v = _moved(v, stage)
        total = _composed(stage, total)

    def at(occ: Tuple[int, int, int]) -> complex:
        return v[_IDX[occ]]

    # Stage 1: singular value decomposition of the AB block. Left and right
    # factors become mode A and mode B rotations; singular values land on
    # the diagonal in decreasing order. u and vh are unitary, so the
    # vacancy entries det(u) and det(vh) give the rotations determinant one.
    u, _, vh = np.linalg.svd(_block(v, _AB))
    dets = complex(np.linalg.det(u)), complex(np.linalg.det(vh))
    act([(u.conj().T.tolist(), dets[0]), (vh.conj().tolist(), dets[1]), _IDENTITY])

    # Stage 2: a determinant-one Givens rotation on mode C zeroes the lower-left
    # AC entry; its vacancy entry is 1, so the AB slots keep phase 0.
    x, y = at((_D, 0, _U)), at((_D, 0, _D))
    t = math.hypot(abs(x), abs(y))
    if t > 1e-14 and abs(x) > 1e-14:
        rotation = ((y / t, -x / t), (x.conjugate() / t, y.conjugate() / t))
        act([_IDENTITY, _IDENTITY, (rotation, 1.0)])

    # Stage 3: strip phases from the six no-phase slots with the diagonal
    # subgroup. The linear system relates the six generator angles to the
    # slot phases through the per-symbol gradients; the least-squares
    # solution leaves at most a common phase, handled in stage 4.
    kept = [occ for occ in _NO_PHASE_SLOTS if abs(at(occ)) > 1e-12]
    sol = [0.0] * 6
    if kept:
        rows = [[g[sym] for sym in occ for g in (_G3, _G8)] for occ in kept]
        rhs = [-cmath.phase(at(occ)) for occ in kept]
        sol = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)[0].tolist()
    act([
        _diagonal(cmath.exp(1j * (x3 + x8)), cmath.exp(1j * (x8 - x3)), cmath.exp(-2j * x8))
        for x3, x8 in zip(sol[::2], sol[1::2])
    ])

    # Stage 4: the diagonal subgroup cannot shift all slots by a common
    # phase, so whatever uniform phase remains is absorbed as a scalar on
    # mode A. The result stays unitary, though no longer special.
    amp = max(map(at, _NO_PHASE_SLOTS), key=abs)
    if abs(amp) > 1e-12 and cmath.phase(amp) != 0.0:
        scale = cmath.exp(-1j * cmath.phase(amp))
        act([_diagonal(scale, scale, scale), _IDENTITY, _IDENTITY])

    # The gauge fold of the docstring, by diag(1, -1, 1) on every mode.
    free = [amp for amp in map(at, _FREE_SLOTS) if abs(amp) > 1e-12]
    if free and not -_FOLD_TOL <= cmath.phase(free[0]) <= math.pi - _FOLD_TOL:
        act([_diagonal(1.0, -1.0, 1.0)] * 3)

    for occ in STRUCTURAL_ZEROS:
        if abs(at(occ)) > 1e-8:
            raise ArithmeticError(f"canonical reduction left weight {abs(at(occ)):.3e} on structural zero slot {occ}")

    phi, phi_prime, theta = (cmath.phase(amp) if abs(amp) > 1e-12 else 0.0 for amp in map(at, _FREE_SLOTS))
    return CanonicalParams(
        r=tuple(abs(at(occ)) for occ in CANONICAL_SLOTS),
        phi=phi,
        phi_prime=phi_prime,
        theta=theta,
        element=GroupElement([[[a, b, 0], [c, d, 0], [0, 0, vac]] for ((a, b), (c, d)), vac in total]),
        state=StateVector.from_dense(SHAPE_321, v),
    )


@dataclass(frozen=True)
class BellProfile:
    """Which pairs and bipartitions of a state carry Bell correlations.

    Pair flags report a nonzero pair-block determinant; bipartition flags
    report any nonzero 2x2 minor of the stacked conditional blocks, the
    rank condition separating entangled cuts from product ones. tri_local
    is set when all three pair determinants vanish.
    """

    nonlocal_AB: bool
    nonlocal_BC: bool
    nonlocal_AC: bool
    nonlocal_A_BC: bool
    nonlocal_B_AC: bool
    nonlocal_C_AB: bool
    tri_local: bool


def bell_profile(state: StateVector, tol: float = 1e-10) -> BellProfile:
    """Locality pattern of a state; tolerances assume unit normalization."""
    v = _amplitude_list(state)
    return _profile(v, _invariant_polynomials(v), tol)


def _profile(v, polynomials, tol: float) -> BellProfile:
    """The locality pattern of amplitudes ``v`` whose five polynomials are given."""
    d_ab, d_bc, d_ac, _, _ = polynomials
    nl_ab, nl_bc, nl_ac = (abs(d) > tol for d in (d_ab, d_bc, d_ac))

    def cut_entangled(cut, dets) -> bool:
        return any(abs(m) > tol for m in (*dets, *_cross_minors(v, cut)))

    return BellProfile(
        nonlocal_AB=nl_ab,
        nonlocal_BC=nl_bc,
        nonlocal_AC=nl_ac,
        nonlocal_A_BC=cut_entangled(_CUT_A_BC, (d_ab, d_ac)),
        nonlocal_B_AC=cut_entangled(_CUT_B_AC, (d_ab, d_bc)),
        nonlocal_C_AB=cut_entangled(_CUT_C_AB, (d_ac, d_bc)),
        tri_local=not (nl_ab or nl_bc or nl_ac),
    )


# The families are built in their own module, which loads no numpy; this
# binding keeps the one implementation reachable as ``classify.family``.
family = families.family


def pair_projection(
    state: StateVector, pair: str
) -> Tuple[Optional[np.ndarray], float]:
    """Two-qubit vector conditioned on both particles sitting in one pair.

    Returns the normalized 4-vector in the basis (uu, ud, du, dd) along
    with the projection weight; the vector is None when the weight is
    numerically zero.
    """
    import numpy as np

    v = _amplitude_list(state)
    try:
        m = _block(v, {"AB": _AB, "BC": _BC, "AC": _AC}[pair])
    except KeyError:
        raise ValueError(f"pair must be one of AB, BC, AC, got {pair!r}") from None
    weight = float(np.sum(np.abs(m) ** 2))
    if weight <= 1e-14:
        return None, 0.0
    return (m / math.sqrt(weight)).reshape(4), weight


@lru_cache(maxsize=None)
def _pauli_pairs() -> np.ndarray:
    """The nine products sigma_i (x) sigma_j as one (9, 4, 4) stack, i-major.

    Their entries are exact products of 0, +-1 and +-i.
    """
    import numpy as np

    pauli = (
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    )
    stack = np.array([np.kron(a, b) for a in pauli for b in pauli])
    stack.flags.writeable = False
    return stack


def chsh_value(two_qubit: np.ndarray) -> float:
    """Maximal CHSH expectation of a pure two-qubit state (Horodecki criterion).

    Takes the 4-vector in the basis (uu, ud, du, dd) that
    :func:`pair_projection` returns, of norm one within ``NORM_TOL``. Any
    other shape, entries that are not finite, or a vector that is not
    normalized raise ValueError. The value is twice the square root of the
    two largest eigenvalues of T^T T, where T is the correlation matrix in
    the Pauli basis, ``T_ij = <q| sigma_i (x) sigma_j |q>``, all nine entries
    taken in one stacked product; 2 for product states, 2*sqrt(2) at the
    Tsirelson bound.
    """
    import numpy as np

    q = np.asarray(two_qubit, dtype=complex)
    if q.shape != (4,):
        raise ValueError(f"expected a two-qubit 4-vector, got shape {q.shape}")
    if not np.isfinite(q).all():
        raise ValueError("CHSH value of a state with non-finite entries")
    if not abs(np.linalg.norm(q) - 1.0) <= NORM_TOL:
        raise ValueError("CHSH value needs a 4-vector of norm one")
    rho = np.outer(q, q.conj())
    t = np.trace(rho @ _pauli_pairs(), axis1=1, axis2=2).real.reshape(3, 3)
    ev = np.linalg.eigvalsh(t.T @ t)
    return 2.0 * math.sqrt(max(ev[-1] + ev[-2], 0.0))


@dataclass(frozen=True)
class MembershipReport:
    """Family membership and signature flags derived from one state."""

    profile: BellProfile
    invariants: InvariantReport
    families: Tuple[str, ...]
    maximally_entangled: bool
    psi1_signature: bool
    psi2_signature: bool


def membership_report(state: StateVector, tol: float = 1e-10) -> MembershipReport:
    """Classify a normalized state by its locality profile and invariants.

    Family labels follow the correlation patterns: Eq14 for fully local
    states, Eq15 for a single entangled bipartition, Eq16 for exactly the
    two cuts that isolate modes A and C, Eq18 when every bipartition is
    entangled while all pairs stay local. The psi1 signature combines
    maximal entanglement with vanishing I2, the psi2 signature maximal
    entanglement with vanishing I1 on a tri-local state. The state must be
    normalized, since the tolerances assume unit norm.
    """
    require_normalized(state, "membership report")
    v = _amplitude_list(state)
    polynomials = _invariant_polynomials(v)
    profile = _profile(v, polynomials, tol)
    rep = _report(v, polynomials)
    max_ent = is_maximally_entangled(state)
    pairs_local = profile.tri_local
    families = []
    if pairs_local:
        cuts = (
            profile.nonlocal_A_BC,
            profile.nonlocal_B_AC,
            profile.nonlocal_C_AB,
        )
        if not any(cuts):
            families.append("Eq14")
        elif cuts == (True, False, False):
            families.append("Eq15")
        elif cuts == (True, False, True):
            families.append("Eq16")
        elif all(cuts):
            families.append("Eq18")
    return MembershipReport(
        profile=profile,
        invariants=rep,
        families=tuple(families),
        maximally_entangled=max_ent,
        psi1_signature=max_ent and abs(rep.I2) < 1e-9,
        psi2_signature=max_ent and abs(rep.I1) < 1e-9 and profile.tri_local,
    )
