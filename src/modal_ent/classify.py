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
correlations. The named state families live in :mod:`modal_ent.families`;
``classify.family`` is the same function, imported on first access.

Loading this module loads no numpy, and neither :mod:`modal_ent.operators`
nor :mod:`modal_ent.families`: :func:`membership_report`,
:func:`bell_profile`, :func:`pair_projection` and :func:`chsh_value`
compute in Python complex numbers, so ``modal-ent classify`` and
``modal-ent chsh`` load only this module, the invariants and the states.
numpy and :class:`~modal_ent.operators.GroupElement` enter only inside
:func:`canonical_form` (an SVD and a least-squares fit, and the element
it returns), which imports them when it runs.
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence, Tuple

from .invariants import (
    _AB,
    _AC,
    _BC,
    _CUT_A_BC,
    _CUT_B_AC,
    _CUT_C_AB,
    _IDX,
    InvariantReport,
    _amplitude_list,
    _cross_minors,
    _det2,
    _invariant_polynomials,
    _moved,
    _product,
    _report,
    _rows,
)
from .states import (
    NORM_TOL,
    SHAPE_321,
    StateVector,
    _nested_shape,
    _squared_norm,
    is_maximally_entangled,
    require_normalized,
)

if TYPE_CHECKING:
    from .operators import GroupElement

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


class CanonicalParams(NamedTuple):
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


def _composed(stage, total) -> list:
    """The per-mode product ``stage @ total`` of two elements given as ``_moved`` takes them."""
    return [(_product(m, n), x * y) for (m, x), (n, y) in zip(stage, total)]


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

    from .operators import GroupElement

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
    u, _, vh = np.linalg.svd(np.array(_rows(v, _AB), dtype=complex))
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
        element=GroupElement._from_rows(
            tuple(((a, b, 0j), (c, d, 0j), (0j, 0j, vac)) for ((a, b), (c, d)), vac in total)
        ),
        state=StateVector.from_dense(SHAPE_321, v),
    )


class BellProfile(NamedTuple):
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


def __getattr__(name: str):
    # ``classify.family`` is the one implementation in :mod:`modal_ent.families`,
    # imported on first access so that loading this module does not load it
    if name == "family":
        from .families import family

        return family
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def pair_projection(state: StateVector, pair: str) -> Tuple[Optional[Tuple[complex, ...]], float]:
    """Two-qubit vector conditioned on both particles sitting in one pair.

    Returns the normalized 4-vector in the basis (uu, ud, du, dd), a tuple
    of Python complex numbers, along with the projection weight; the vector
    is None when the weight is numerically zero.
    """
    v = _amplitude_list(state)
    try:
        block = {"AB": _AB, "BC": _BC, "AC": _AC}[pair]
    except KeyError:
        raise ValueError(f"pair must be one of AB, BC, AC, got {pair!r}") from None
    weight = _squared_norm(v[k] for k in block)
    if weight <= 1e-14:
        return None, 0.0
    scale = math.sqrt(weight)
    return tuple(v[k] / scale for k in block), weight


def chsh_value(two_qubit: Sequence[complex]) -> float:
    """Maximal CHSH expectation of a pure two-qubit state (Horodecki criterion).

    Takes the 4-vector q in the basis (uu, ud, du, dd) that
    :func:`pair_projection` returns, of norm one within ``NORM_TOL``. Any
    other shape, entries that are not finite, or a vector that is not
    normalized raise ValueError. The value is twice the square root of the
    sum of the two largest eigenvalues of T^T T, where T is the correlation
    matrix in the Pauli basis, ``T_ij = <q| sigma_i (x) sigma_j |q>``. For
    ``rho = q q^dagger`` that sum is ``n^4 + 4 |d|^2``, with ``n^2`` the
    squared norm of q and ``d = q_uu q_dd - q_ud q_du`` the pair determinant,
    so at n = 1 the value is ``2 sqrt(1 + C^2)`` in the concurrence
    ``C = 2 |d|``: 2 for product states, 2*sqrt(2) at the Tsirelson bound.
    """
    shape = _nested_shape(two_qubit)
    if shape != (4,):
        raise ValueError(f"expected a two-qubit 4-vector, got shape {shape}")
    q = [complex(a) for a in two_qubit]
    if not all(map(cmath.isfinite, q)):
        raise ValueError("CHSH value of a state with non-finite entries")
    n2 = sum(a.real * a.real + a.imag * a.imag for a in q)
    if not abs(math.sqrt(n2) - 1.0) <= NORM_TOL:
        raise ValueError("CHSH value needs a 4-vector of norm one")
    d = _det2(q, (0, 1, 2, 3))
    return 2.0 * math.sqrt(n2 * n2 + 4.0 * (d.real * d.real + d.imag * d.imag))


class MembershipReport(NamedTuple):
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
