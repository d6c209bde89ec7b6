"""Canonical forms, named state families, and locality profiles.

A normalized sector state can be carried by mode-local unitaries to a
canonical representative supported on nine slots, with non-negative moduli
on six of them and free phases on the remaining three. The reduction runs
in four stages: a singular value decomposition diagonalizes the AB block, a
Givens rotation on mode C clears one AC entry, a least-squares phase fit
over the diagonal subgroup strips the removable phases, and a residual
common phase is absorbed as a scalar on mode A. That last stage is unitary
but not special, so the canonical state keeps |I1|, |I2| and the three cut
sums of the input, to roundoff, but not I1 and I2 themselves.

The named families cover the states used throughout the test harness, and
the locality helpers reduce a state to its pattern of pair and bipartition
correlations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from .invariants import (
    _AB,
    _AC,
    _BC,
    _CUT_A_BC,
    _CUT_B_AC,
    _CUT_C_AB,
    InvariantReport,
    _amplitude_list,
    _block,
    _cross_minors,
    _invariant_polynomials,
    _report,
)
from .operators import GroupElement, _scalar_rows, _symbol_moves, element_from_matrices
from .states import (
    SHAPE_321,
    StateVector,
    is_maximally_entangled,
    require_normalized,
)

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

# Slots whose canonical amplitude is a non-negative real; phases survive
# only on slots 5, 8 and 9 of CANONICAL_SLOTS.
_NO_PHASE_SLOTS = (
    (1, 1, 0),
    (2, 2, 0),
    (2, 0, 2),
    (1, 0, 1),
    (0, 2, 2),
    (0, 1, 1),
)

# Per-symbol gradients of the two diagonal phase generators. The first
# entry multiplies the traceless diagonal (up minus down), the second the
# diagonal that weights the vacancy by -2.
_G3 = {1: 1.0, 2: -1.0, 0: 0.0}
_G8 = {1: 1.0, 2: 1.0, 0: -2.0}


@dataclass(frozen=True, eq=False)
class CanonicalParams:
    """Canonical representative of a state and the element reaching it.

    ``r`` holds the nine slot moduli in CANONICAL_SLOTS order; ``phi``,
    ``phi_prime`` and ``theta`` are the surviving phases on slots 5, 8 and
    9. ``element`` maps the input state to ``state``; it is unitary but not
    special, so ``state`` keeps |I1|, |I2| and the cut sums, to roundoff.
    """

    r: Tuple[float, ...]
    phi: float
    phi_prime: float
    theta: float
    element: GroupElement
    state: StateVector


def _embed_levels(block: np.ndarray) -> np.ndarray:
    """Extend a 2x2 level block to the 3x3 local space with unit determinant."""
    det = block[0, 0] * block[1, 1] - block[0, 1] * block[1, 0]
    out = np.zeros((3, 3), dtype=complex)
    out[:2, :2] = block
    out[2, 2] = 1.0 / det
    return out


# The canonical stages act on the amplitude map directly. Both actions below
# compute what :func:`apply` does, operation for operation: each term is
# ((amp * w_A) * w_B) * w_C in numpy complex scalars, terms are summed from
# 0j in the order of the input map, and keys appear in that order. The
# canonical form is roundoff-chaotic, so one changed rounding can change the
# representative it picks.


def _rotate(mats, amps: Dict[Tuple[int, int, int], complex]) -> Dict[Tuple[int, int, int], complex]:
    """The action of three compliant level rotations on an amplitude map."""
    move_a, move_b, move_c = (_symbol_moves(_scalar_rows(m)) for m in mats)
    out: Dict[Tuple[int, int, int], complex] = {}
    for (a, b, c), amp in amps.items():
        for c2, w_c in move_c[c]:
            for b2, w_b in move_b[b]:
                for a2, w_a in move_a[a]:
                    key = (a2, b2, c2)
                    out[key] = out.get(key, 0j) + amp * w_a * w_b * w_c
    return out


def _scale(mats, amps: Dict[Tuple[int, int, int], complex]) -> Dict[Tuple[int, int, int], complex]:
    """The action of three diagonal matrices: one product per slot, keys kept in order."""
    d_a, d_b, d_c = ((m[2, 2], m[0, 0], m[1, 1]) for m in mats)
    return {occ: 0j + amp * d_a[occ[0]] * d_b[occ[1]] * d_c[occ[2]] for occ, amp in amps.items()}


def canonical_form(state: StateVector) -> CanonicalParams:
    """Reduce a normalized state to its canonical slot pattern.

    Raises ValueError when the input is not normalized or not of shape
    (3, 2, 1), and ArithmeticError if the reduction fails to clear the
    structural zero slots, which would indicate a numerical breakdown rather
    than a property of the input.
    """
    require_normalized(state, "canonical form")
    v = _amplitude_list(state)

    eye = np.eye(3, dtype=complex)
    total = [eye, eye, eye]

    def accumulate(mats) -> None:
        for k in range(3):
            total[k] = mats[k] @ total[k]

    # Stage 1: singular value decomposition of the AB block. Left and right
    # factors become mode A and mode B rotations; singular values land on
    # the diagonal in decreasing order.
    u, _, vh = np.linalg.svd(_block(v, _AB))
    mats = [_embed_levels(u.conj().T), _embed_levels(vh.conj()), eye]
    accumulate(mats)
    amps = _rotate(mats, state.amplitudes)

    # Stage 2: a Givens rotation on mode C zeroes the lower-left AC entry.
    # The entries are numpy scalars, whose division rounds differently from
    # Python's complex type.
    x = np.complex128(amps.get((_D, 0, _U), 0j))
    y = np.complex128(amps.get((_D, 0, _D), 0j))
    t = np.hypot(abs(x), abs(y))
    if t > 1e-14 and abs(x) > 1e-14:
        rct = np.array(
            [[-y / t, np.conj(x) / t], [x / t, np.conj(y) / t]], dtype=complex
        )
        mats = [eye, eye, _embed_levels(rct.T)]
        accumulate(mats)
        amps = _rotate(mats, amps)

    # Stage 3: strip phases from the six no-phase slots with the diagonal
    # subgroup. The linear system relates the six generator angles to the
    # slot phases through the per-symbol gradients; the least-squares
    # solution leaves at most a common phase, handled in stage 4.
    rows = []
    rhs = []
    for occ in _NO_PHASE_SLOTS:
        amp = amps.get(occ, 0j)
        if abs(amp) > 1e-12:
            row = []
            for sym in occ:
                row.extend((_G3[sym], _G8[sym]))
            rows.append(row)
            rhs.append(-np.angle(amp))
    if rows:
        sol, _, _, _ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    else:
        sol = np.zeros(6)
    mats = []
    for k in range(3):
        x3, x8 = sol[2 * k], sol[2 * k + 1]
        mats.append(
            np.diag(
                [
                    np.exp(1j * (x3 + x8)),
                    np.exp(1j * (-x3 + x8)),
                    np.exp(-2j * x8),
                ]
            )
        )
    accumulate(mats)
    amps = _scale(mats, amps)

    # Stage 4: the diagonal subgroup cannot shift all slots by a common
    # phase, so whatever uniform phase remains is absorbed as a scalar on
    # mode A. The result stays unitary, though no longer special.
    anchor = max(_NO_PHASE_SLOTS, key=lambda occ: abs(amps.get(occ, 0j)))
    amp = amps.get(anchor, 0j)
    if abs(amp) > 1e-12:
        delta = float(np.angle(amp))
        if abs(delta) > 0.0:
            mats = [np.exp(-1j * delta) * eye, eye, eye]
            accumulate(mats)
            amps = _scale(mats, amps)

    work = StateVector(SHAPE_321, amps)
    for occ in STRUCTURAL_ZEROS:
        if abs(work.amplitude(occ)) > 1e-8:
            raise ArithmeticError(
                f"canonical reduction left weight {abs(work.amplitude(occ)):.3e} "
                f"on structural zero slot {occ}"
            )

    moduli = tuple(abs(work.amplitude(occ)) for occ in CANONICAL_SLOTS)

    def slot_phase(occ: Tuple[int, int, int]) -> float:
        amp = work.amplitude(occ)
        return float(np.angle(amp)) if abs(amp) > 1e-12 else 0.0

    return CanonicalParams(
        r=moduli,
        phi=slot_phase((1, 0, 2)),
        phi_prime=slot_phase((0, 2, 1)),
        theta=slot_phase((0, 1, 2)),
        element=element_from_matrices(total),
        state=work,
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


_FAMILY_NAMES = ("Eq14", "Eq15", "Eq16", "Eq18", "S1", "S2", "psi1", "psi2")


def _take(params: Dict[str, float], key: str, default: Optional[float] = None) -> float:
    if key in params:
        return float(params.pop(key))
    if default is None:
        raise ValueError(f"missing family parameter {key!r}")
    return default


def family(name: str, params: Optional[Mapping[str, float]] = None) -> StateVector:
    """Build a named family member from its parameters.

    The Eq-named families take explicit amplitudes and insist that they are
    already normalized to unit length within 1e-10. S1 and S2 are
    single-parameter curves that normalize by construction, and psi1, psi2
    are the two parameterless reference states.
    """
    if name not in _FAMILY_NAMES:
        raise ValueError(f"unknown family {name!r}; choose from {_FAMILY_NAMES}")
    p: Dict[str, float] = dict(params or {})
    amps: Dict[Tuple[int, int, int], complex] = {}

    def put(occ: Tuple[int, int, int], value: complex) -> None:
        if value != 0:
            amps[occ] = complex(value)

    check_norm = True
    if name == "Eq14":
        r1, r2, r3 = (_take(p, k) for k in ("r1", "r2", "r3"))
        if min(r1, r2, r3) < 0:
            raise ValueError("Eq14 parameters must be non-negative")
        put((_D, _D, 0), r1)
        put((_D, 0, _D), r2)
        put((0, _D, _D), r3)
    elif name == "Eq15":
        r1, r2, r3 = (_take(p, k) for k in ("r1", "r2", "r3"))
        if r1 <= 0 or r2 <= 0 or r3 < 0:
            raise ValueError("Eq15 needs r1, r2 > 0 and r3 >= 0")
        put((_D, _D, 0), r1)
        put((_U, 0, _U), r2)
        put((0, _D, _U), r3)
    elif name == "Eq16":
        r1, r2, r3 = (_take(p, k) for k in ("r1", "r2", "r3"))
        r4 = _take(p, "r4")
        phi = _take(p, "phi", 0.0)
        if r1 <= 0 or r2 <= 0 or r3 <= 0 or r4 < 0:
            raise ValueError("Eq16 needs r1, r2, r3 > 0 and r4 >= 0")
        put((_D, _D, 0), r1)
        put((_U, 0, _U), r2)
        put((0, _D, _D), r3)
        put((0, _D, _U), r4 * np.exp(1j * phi))
    elif name == "Eq18":
        r1, r2, r3, r4, r5 = (_take(p, k) for k in ("r1", "r2", "r3", "r4", "r5"))
        theta = _take(p, "theta", 0.0)
        if r1 <= 0 or r2 <= 0 or r5 <= 0 or r3 < 0 or r4 < 0:
            raise ValueError("Eq18 needs r1, r2, r5 > 0 and r3, r4 >= 0")
        put((_D, _D, 0), r1)
        put((_U, 0, _U), r2)
        put((0, _D, _D), r3)
        put((0, _U, _U), r4)
        put((0, _U, _D), r5 * np.exp(1j * theta))
        put((0, _D, _U), (r3 * r4 / r5) * np.exp(-1j * theta))
    elif name == "S1":
        r = _take(p, "r")
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
        r = _take(p, "r")
        theta = _take(p, "theta", 0.0)
        if not 0.0 <= r < 1.0 / math.sqrt(3.0):
            raise ValueError("S2 needs 0 <= r < 1/sqrt(3)")
        w = math.sqrt(1.0 / 3.0 - r * r)
        put((_U, _U, 0), r)
        put((_D, 0, _D), r)
        put((0, _D, _U), r * np.exp(1j * theta))
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
        total = sum(abs(v) ** 2 for v in amps.values())
        if abs(total - 1.0) > 1e-10:
            raise ValueError(
                f"{name} parameters give squared norm {total:.12f}, expected 1"
            )
    return StateVector(shape=SHAPE_321, amplitudes=amps)


def pair_projection(
    state: StateVector, pair: str
) -> Tuple[Optional[np.ndarray], float]:
    """Two-qubit vector conditioned on both particles sitting in one pair.

    Returns the normalized 4-vector in the basis (uu, ud, du, dd) along
    with the projection weight; the vector is None when the weight is
    numerically zero.
    """
    v = _amplitude_list(state)
    try:
        m = _block(v, {"AB": _AB, "BC": _BC, "AC": _AC}[pair])
    except KeyError:
        raise ValueError(f"pair must be one of AB, BC, AC, got {pair!r}") from None
    weight = float(np.sum(np.abs(m) ** 2))
    if weight <= 1e-14:
        return None, 0.0
    return (m / math.sqrt(weight)).reshape(4), weight


_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# The nine products sigma_i (x) sigma_j as one (9, 4, 4) stack, i-major.
# Their entries are exact products of 0, +-1 and +-i.
_PAULI_PAIRS = np.array([np.kron(a, b) for a in _PAULI for b in _PAULI])


def chsh_value(two_qubit: np.ndarray) -> float:
    """Maximal CHSH expectation of a two-qubit state (Horodecki criterion).

    Accepts a 4-vector or a 4x4 density matrix; entries that are not finite
    raise ValueError. The value is twice the square root of the two largest
    eigenvalues of T^T T, where T is the correlation matrix in the Pauli
    basis, ``T_ij = tr(rho sigma_i (x) sigma_j)``, all nine entries taken in
    one stacked product; 2 for product states, 2*sqrt(2) at the Tsirelson
    bound.
    """
    q = np.asarray(two_qubit, dtype=complex)
    if q.shape not in ((4,), (4, 4)):
        raise ValueError("expected a 4-vector or a 4x4 density matrix")
    if not np.isfinite(q).all():
        raise ValueError("CHSH value of a state with non-finite entries")
    rho = np.outer(q, q.conj()) if q.shape == (4,) else q
    t = np.trace(rho @ _PAULI_PAIRS, axis1=1, axis2=2).real.reshape(3, 3)
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
    entanglement with vanishing I1 on a tri-local state.
    """
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
