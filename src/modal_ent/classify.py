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
:func:`canonical_form` computes in Python numbers too: its SVD is the
closed form ``_svd2`` and its phase fit applies an exact pseudo-inverse
(``_pseudo_inverse``), so no part of this module imports numpy and its
output depends only on libm. It checks its input once, reads the slots by
position tables built at import, and hands the element it composes to
:class:`~modal_ent.operators.GroupElement`, imported when it runs, as
block rows that need no compliance check.
"""

from __future__ import annotations

import cmath
import math
import operator
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence, Tuple

from .invariants import (
    _CUT_A_BC,
    _CUT_B_AC,
    _CUT_C_AB,
    InvariantReport,
    _amplitude_list,
    _cross_minors,
    _det2,
    _polynomials,
    _product,
    _rows,
    invariant_report,
)
from .states import (
    _AB,
    _AC,
    _BC,
    _IDX,
    NORM_TOL,
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

# The amplitudes of those slots, and of all nine, read from the twelve in
# basis order by one call each.
_CANONICAL_AT, _NO_PHASE_AT, _FREE_AT = (
    operator.itemgetter(*[_IDX[occ] for occ in slots]) for slots in (CANONICAL_SLOTS, _NO_PHASE_SLOTS, _FREE_SLOTS)
)

# Per-symbol gradients of the two diagonal phase generators. The first
# entry multiplies the traceless diagonal (up minus down), the second the
# diagonal that weights the vacancy by -2.
_G3 = {1: 1, 2: -1, 0: 0}
_G8 = {1: 1, 2: 1, 0: -2}

# The integer gradient row of each no-phase slot over the six generator
# angles (x3, x8) of modes A, B and C.
_GRADIENTS = tuple(tuple(g[sym] for sym in occ for g in (_G3, _G8)) for occ in _NO_PHASE_SLOTS)

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


_IDENTITY = ((1.0, 0j), (0j, 1.0)), 1.0


def _svd2(m) -> tuple:
    """Closed-form SVD of a 2x2 complex block given as two rows.

    Returns ``((u1, u2), (s1, s2), (v1, v2))``, the columns of U and V and
    the singular values s1 >= s2 >= 0, with ``m = U diag(s1, s2) V^H``.
    For m = ((a, b), (c, d)), m^H m = ((p, x), (conj(x), q)), and
    s1^2 = (p + q + sqrt((p - q)^2 + 4 |x|^2)) / 2, s2 = |ad - bc| / s1.
    v1 spans the kernel of m^H m - s1^2 I, read from its second row when
    p >= q and from its first otherwise, so that s1^2 - q or s1^2 - p is a
    sum of non-negative terms; u1 = m v1 / |m v1|; v2 and u2 are the unitary
    completions. Each free choice is pinned:

    - each right singular vector's first nonzero component is real and
      positive;
    - u2's phase makes u2^H m v2 real and non-negative;
    - when |u2^H m v2| <= 1e-12 s1 (a rank-one block), u2's first nonzero
      component is real and positive instead;
    - when sqrt((p - q)^2 + 4 |x|^2) <= 1e-12 s1^2 (equal singular
      values, or a zero block), V = I; for a zero block, U = I too.
    """
    (a, b), (c, d) = m
    p = a.real * a.real + a.imag * a.imag + c.real * c.real + c.imag * c.imag
    q = b.real * b.real + b.imag * b.imag + d.real * d.real + d.imag * d.imag
    x = a.conjugate() * b + c.conjugate() * d
    gap = math.hypot(p - q, 2.0 * abs(x))
    s1 = math.sqrt(0.5 * (p + q + gap))
    if gap <= 1e-12 * s1 * s1:
        v1, v2 = (1.0 + 0j, 0j), (0j, 1.0 + 0j)
    else:
        # v1 = (alpha, beta e) with alpha, beta >= 0 and e the phase of conj(x)
        e = x.conjugate() / abs(x) if x else 1.0 + 0j
        alpha, beta = (p - q + gap, 2.0 * abs(x)) if p >= q else (2.0 * abs(x), q - p + gap)
        n = math.hypot(alpha, beta)
        alpha, beta = alpha / n, beta / n
        v1 = (complex(alpha), beta * e)
        v2 = (complex(beta), -alpha * e) if beta else (0j, 1.0 + 0j)
    y, z = a * v1[0] + b * v1[1], c * v1[0] + d * v1[1]
    n = math.hypot(abs(y), abs(z))
    u1 = (y / n, z / n) if n else (1.0 + 0j, 0j)
    t = -u1[1] * (a * v2[0] + b * v2[1]) + u1[0] * (c * v2[0] + d * v2[1])
    # u2 = w (-conj(u1[1]), conj(u1[0])) with |w| = 1, so u2^H m v2 = conj(w) t
    if abs(t) > 1e-12 * s1:
        w = t / abs(t)
    elif u1[1]:
        w = -u1[1] / abs(u1[1])
    else:
        w = u1[0] / abs(u1[0])
    u2 = (-u1[1].conjugate() * w, u1[0].conjugate() * w)
    s2 = min(abs(a * d - b * c) / s1, s1) if s1 else 0.0
    return (u1, u2), (s1, s2), (v1, v2)


def _exact_pseudo_inverse(kept: Tuple[int, ...]) -> tuple:
    """The pseudo-inverse A+ of the gradient rows of the no-phase slots at
    positions ``kept``, exactly, as ``(numerators, denominator)``: six rows
    of integers over one positive integer.

    With F a basis of the rows of A, A+ = F^T (F A^T A F^T)^-1 F A^T. F is
    picked by fraction-free elimination, and the inverse is applied by a
    fraction-free Gauss-Jordan elimination on [H H^T | H], with H = F A^T,
    all in Python integers.
    """
    rows = [_GRADIENTS[k] for k in kept]
    basis, echelon = [], []
    for row in rows:
        r = list(row)
        for col, e in echelon:
            if r[col]:
                r = [e[col] * s - r[col] * t for s, t in zip(r, e)]
        if any(r):
            echelon.append((next(j for j, s in enumerate(r) if s), r))
            basis.append(row)
    h = [[sum(map(operator.mul, f, row)) for row in rows] for f in basis]
    aug = [[sum(map(operator.mul, hi, hj)) for hj in h] + hi for hi in h]
    rank = len(aug)
    # H H^T is positive definite, so no pivot vanishes
    for k in range(rank):
        for i in range(rank):
            if i != k:
                r = [aug[k][k] * s - aug[i][k] * t for s, t in zip(aug[i], aug[k])]
                g = math.gcd(*r)
                aug[i] = [s // g for s in r]
    den = math.lcm(*(aug[i][i] for i in range(rank)))
    sol = [[s * (den // aug[i][i]) for s in aug[i][rank:]] for i in range(rank)]
    numerators = [[sum(f[j] * x[col] for f, x in zip(basis, sol)) for col in range(len(rows))] for j in range(6)]
    return numerators, den


@lru_cache(maxsize=None)
def _pseudo_inverse(kept: Tuple[int, ...]) -> Tuple[Tuple[float, ...], ...]:
    """``_exact_pseudo_inverse`` in floats, each entry rounded once; built on
    the first use of each pattern. A+ b is the minimum-norm least-squares
    solution of A x = b, the one ``lstsq`` returns."""
    numerators, den = _exact_pseudo_inverse(kept)
    return tuple(tuple(n / den for n in row) for row in numerators)


def canonical_form(state: StateVector) -> CanonicalParams:
    """Reduce a normalized state to its canonical slot pattern.

    The stages move the twelve amplitudes, Python complex numbers in basis
    order, by ``_moved``, and the canonical state is made from the last
    tuple. Their elements are multiplied per mode, the diagonal stages'
    entrywise, with no identity factor, and handed to :class:`GroupElement`
    as block rows. The ``0j`` products so left out only set the sign of a
    zero in the element, whose file keeps its bytes; the amplitudes keep
    them, since phases of 0 or pi read the signs of their zero parts. Every
    stage computes in Python numbers, so the output depends on libm only.

    Stage 1 is the closed-form SVD ``_svd2`` of the AB block, with its free
    choices pinned: each right singular vector's first nonzero component is
    real and positive; u2's phase makes u2^H M v2 real and non-negative, or,
    on a rank-one block (|u2^H M v2| <= 1e-12 s1), makes u2's first nonzero
    component real and positive; and equal singular values, or a zero block
    (sqrt((p - q)^2 + 4 |x|^2) <= 1e-12 s1^2), take V = I. Stage 3 applies
    the exact pseudo-inverse of the integer gradient matrix of the kept
    slots, one cached table per kept-slot pattern (``_pseudo_inverse``),
    which gives the minimum-norm least-squares solution.

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
    freedom that no rule fixes yet; its rules belong in ``_svd2``'s V = I
    branch and in the null space of each ``_exact_pseudo_inverse`` pattern.

    Raises ValueError when the input is not normalized or not of shape
    (3, 2, 1), and ArithmeticError if the reduction fails to clear the
    structural zero slots, which would indicate a numerical breakdown rather
    than a property of the input.
    """
    from .operators import GroupElement, _moved

    require_normalized(state, "canonical form")
    v = _amplitude_list(state)

    def scale(stage) -> None:
        # a diagonal stage, given per mode as (up, down, vacancy)
        nonlocal v, total
        v = _moved(v, [(((u, 0j), (0j, w)), x) for u, w, x in stage])
        total = [(((u * a, u * b), (w * c, w * d)), x * y) for (u, w, x), (((a, b), (c, d)), y) in zip(stage, total)]

    # Stage 1: singular value decomposition of the AB block. U^H on mode A
    # and V^T on mode B take it to diag(s1, s2); their vacancy entries det U
    # and conj(det V) give both rotations determinant one.
    (u1, u2), _, (v1, v2) = _svd2(_rows(v, _AB))
    det_u, det_v = u1[0] * u2[1] - u2[0] * u1[1], v1[0] * v2[1] - v2[0] * v1[1]
    stage_a = ((u1[0].conjugate(), u1[1].conjugate()), (u2[0].conjugate(), u2[1].conjugate()))
    total = [(stage_a, det_u), ((v1, v2), det_v.conjugate()), _IDENTITY]
    v = _moved(v, total)

    # Stage 2: a determinant-one Givens rotation on mode C zeroes the lower-left
    # AC entry; its vacancy entry is 1, so the AB slots keep phase 0.
    x, y = v[_IDX[_D, 0, _U]], v[_IDX[_D, 0, _D]]
    t = math.hypot(abs(x), abs(y))
    if t > 1e-14 and abs(x) > 1e-14:
        rotation = ((y / t, -x / t), (x.conjugate() / t, y.conjugate() / t))
        v = _moved(v, [_IDENTITY, _IDENTITY, (rotation, 1.0)])
        total[2] = _product(rotation, total[2][0]), total[2][1]

    # Stage 3: strip phases from the six no-phase slots with the diagonal
    # subgroup. The linear system relates the six generator angles to the
    # slot phases through the per-symbol gradients; its minimum-norm
    # least-squares solution, A+ b, leaves at most a common phase, handled
    # in stage 4.
    slots = _NO_PHASE_AT(v)
    kept = tuple([k for k, amp in enumerate(slots) if abs(amp) > 1e-12])
    rhs = [-cmath.phase(slots[k]) for k in kept]
    sol = [sum(map(operator.mul, row, rhs)) for row in _pseudo_inverse(kept)]
    scale([
        (cmath.exp(1j * (x3 + x8)), cmath.exp(1j * (x8 - x3)), cmath.exp(-2j * x8))
        for x3, x8 in zip(sol[::2], sol[1::2])
    ])

    # Stage 4: the diagonal subgroup cannot shift all slots by a common
    # phase, so whatever uniform phase remains is absorbed as a scalar on
    # mode A. The result stays unitary, though no longer special.
    amp = max(_NO_PHASE_AT(v), key=abs)
    if abs(amp) > 1e-12 and cmath.phase(amp) != 0.0:
        common = cmath.exp(-1j * cmath.phase(amp))
        scale([(common, common, common), (1.0, 1.0, 1.0), (1.0, 1.0, 1.0)])

    # The gauge fold of the docstring, by diag(1, -1, 1) on every mode.
    free = [amp for amp in _FREE_AT(v) if abs(amp) > 1e-12]
    if free and not -_FOLD_TOL <= cmath.phase(free[0]) <= math.pi - _FOLD_TOL:
        scale([(1.0, -1.0, 1.0)] * 3)

    for occ in STRUCTURAL_ZEROS:
        weight = abs(v[_IDX[occ]])
        if weight > 1e-8:
            raise ArithmeticError(f"canonical reduction left weight {weight:.3e} on structural zero slot {occ}")

    phi, phi_prime, theta = [cmath.phase(amp) if abs(amp) > 1e-12 else 0.0 for amp in _FREE_AT(v)]
    return CanonicalParams(
        r=tuple(map(abs, _CANONICAL_AT(v))),
        phi=phi,
        phi_prime=phi_prime,
        theta=theta,
        element=GroupElement._from_rows(tuple(total)),
        state=StateVector._from_amplitudes(state.shape, v),
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
    return _profile(_amplitude_list(state), _polynomials(state)[:3], tol)


def _profile(v, dets, tol: float) -> BellProfile:
    """The locality pattern of amplitudes ``v`` whose three pair determinants are given.

    A cut that holds a nonzero pair determinant is entangled without its
    cross minors, so they are formed only for a cut whose two determinants
    both vanish.
    """
    nl_ab, nl_bc, nl_ac = (abs(d) > tol for d in dets)

    def cut_entangled(cut, pair_nonlocal: bool) -> bool:
        return pair_nonlocal or any(abs(m) > tol for m in _cross_minors(v, cut))

    return BellProfile(
        nonlocal_AB=nl_ab,
        nonlocal_BC=nl_bc,
        nonlocal_AC=nl_ac,
        nonlocal_A_BC=cut_entangled(_CUT_A_BC, nl_ab or nl_ac),
        nonlocal_B_AC=cut_entangled(_CUT_B_AC, nl_ab or nl_bc),
        nonlocal_C_AB=cut_entangled(_CUT_C_AB, nl_ac or nl_bc),
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


_FOUR_COMPLEX = (complex,) * 4


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
    if two_qubit.__class__ is tuple and tuple(map(type, two_qubit)) == _FOUR_COMPLEX:
        # what pair_projection returns, already of shape (4,) and complex
        q = two_qubit
    else:
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
    rep = invariant_report(state)
    profile = _profile(_amplitude_list(state), rep[:3], tol)
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
