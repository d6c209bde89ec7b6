"""Polynomial invariants of the two-particle, three-mode, spin-1/2 sector.

The twelve amplitudes of a sector state split into three 2x2 pair blocks,
one per pair of modes that can jointly hold both particles. All quantities
here are built from those blocks: the pair determinants (concurrence
polynomials), their product I1, the degree-3 alternating polynomial I2, the
three non-negative cross-minor sums attached to the bipartitions, and the
sigma_y-sandwiched word matrix W whose traces generate the same ring.

Each of these formulas has one implementation, written over an indexable
vector of the twelve amplitudes in :func:`enumerate_basis` order: a list of
Python complex numbers for one state, or a ``(12, k)`` array for a batch,
complex or, for the Monte-Carlo trials, a
:class:`~modal_ent.monte_carlo.SplitComplex` pair of real arrays that
rounds as the one-state list does.
I2 is evaluated from its explicit degree-3 polynomial. The word matrix W is
the paper's transvectant contraction in matrix form: contracting two
copies of the state form over mode A, and the result with a third copy
over modes B and C, gives -trace(W), and trace(W) = i * I2 with the
conventions fixed below, which the test suite checks on random states,
and exactly on rational ones. That is why no separate transvection code
is kept. A :class:`StateVector` enters only through ``_amplitude_list``,
which reads its amplitude map in basis order and is the package's one
check that a state has shape (3, 2, 1); W, the canonical form and the
Monte-Carlo trials start from its list too.

The same blocks are the one layout by which (3, 2, 1) states move:
``_moved``, the pair-block action of a compliant element, serves the
canonical form and the invariance sweep, and the Monte-Carlo gather reads
each column in an order built from the cut tables below.

This module imports no numpy: :func:`invariant_report` computes in Python
complex numbers, and W and its powers in one 2x2 product over pairs of
rows, :func:`_product`, so they run on any number type with ``+``, ``-``
and ``*``, exact rationals included. :func:`localized_scenario_check`
imports the operators it acts with.
"""

from __future__ import annotations

import cmath
import math
from typing import List, NamedTuple, Sequence, Tuple

from .states import SHAPE_321, StateVector, basis_index, enumerate_basis

_U, _D = 1, 2
_BASIS = enumerate_basis(SHAPE_321)
_IDX = basis_index(SHAPE_321)

# Basis positions of the AB, BC and AC pair blocks, each read row-major as
# (uu, ud, du, dd): the row is the level of the block's first mode, the
# column the level of its second.
_AB, _BC, _AC = (
    tuple(_IDX[occ] for occ in block)
    for block in (
        ((_U, _U, 0), (_U, _D, 0), (_D, _U, 0), (_D, _D, 0)),
        ((0, _U, _U), (0, _U, _D), (0, _D, _U), (0, _D, _D)),
        ((_U, 0, _U), (_U, 0, _D), (_D, 0, _U), (_D, 0, _D)),
    )
)

# Each pair block with its row mode, its column mode and its vacant third mode.
_PAIRS = ((_AB, 0, 1, 2), (_BC, 1, 2, 0), (_AC, 0, 2, 1))


def _rows(v, block: Tuple[int, ...], transpose: bool = False):
    """The pair block of amplitudes ``v`` at ``block`` as a pair of rows, or its transpose."""
    uu, ud, du, dd = (v[k] for k in block)
    return ((uu, du), (ud, dd)) if transpose else ((uu, ud), (du, dd))


def _moved(v, element) -> list:
    """Amplitudes ``v``, one state's list or a ``(12, k)`` batch, moved by a
    compliant element given per mode as ``(level block, vacancy entry)``:
    each pair block ``M`` goes to ``L M L'^T s``, with the level blocks of
    its row and column modes and the third mode's vacancy. The leak entries
    move nothing within the sector and are not read."""
    out = [0j] * 12
    for (uu, ud, du, dd), row, col, third in _PAIRS:
        ((a, b), (c, d)), ((e, f), (g, h)), s = element[row][0], element[col][0], element[third][1]
        p, q = (a * v[uu] + b * v[du]) * s, (a * v[ud] + b * v[dd]) * s
        r, w = (c * v[uu] + d * v[du]) * s, (c * v[ud] + d * v[dd]) * s
        out[uu], out[ud], out[du], out[dd] = p * e + q * f, p * g + q * h, r * e + w * f, r * g + w * h
    return out


# For each single-mode cut, the two blocks that hold that mode, oriented with
# the cut mode on rows and given by their (top, bottom) column positions,
# which are the rows of the transposed block read over the positions 0..11.
_CUT_A_BC = (_rows(range(12), _AB, transpose=True), _rows(range(12), _AC, transpose=True))
_CUT_B_AC = (_rows(range(12), _AB), _rows(range(12), _BC, transpose=True))
_CUT_C_AB = (_rows(range(12), _AC), _rows(range(12), _BC))


def _amplitude_list(state: StateVector) -> List[complex]:
    """The twelve amplitudes as Python complex numbers, in basis order.

    This is the one check that a state has shape (3, 2, 1): every pair-block
    quantity of a :class:`StateVector` starts here. Scalar Python arithmetic
    keeps single-state results bitwise stable; numpy's vectorised complex
    products may round differently.
    """
    if state.shape != SHAPE_321:
        raise ValueError(f"pair-block invariants need shape (3, 2, 1), got {state.shape}")
    amplitudes = state.amplitudes
    return [complex(amplitudes.get(occ, 0j)) for occ in _BASIS]


def _det2(v, block: Tuple[int, ...]):
    uu, ud, du, dd = block
    return v[uu] * v[dd] - v[ud] * v[du]


def _invariant_polynomials(v):
    """``(I_AB, I_BC, I_AC, I1, I2)`` of amplitudes ``v`` in basis order.

    ``v`` is anything indexable by basis position: one state's twelve
    amplitudes, or a ``(12, k)`` array of state columns, which gives
    length-``k`` arrays.
    """
    det_ab, det_bc, det_ac = _det2(v, _AB), _det2(v, _BC), _det2(v, _AC)
    uu0, ud0, du0, dd0 = (v[k] for k in _AB)
    ouu, oud, odu, odd = (v[k] for k in _BC)
    u0u, u0d, d0u, d0d = (v[k] for k in _AC)
    i2 = (
        uu0 * (odd * d0u - odu * d0d)
        + ud0 * (ouu * d0d - oud * d0u)
        + du0 * (odu * u0d - odd * u0u)
        + dd0 * (oud * u0u - ouu * u0d)
    )
    return det_ab, det_bc, det_ac, det_ab * det_bc * det_ac, i2


def monotones(i1, i2):
    """The entanglement monotones ``(|I1|^(1/3), |I2|^(2/3))`` of scalar or array invariants."""
    return abs(i1) ** (1.0 / 3.0), abs(i2) ** (2.0 / 3.0)


def _cross_minors(v, cut) -> List[complex]:
    """The four 2x2 minors pairing a column of one block of ``cut`` with one of the other."""
    xs, ys = cut
    return [v[xt] * v[yb] - v[xb] * v[yt] for xt, xb in xs for yt, yb in ys]


def _cross_minor_sum(v, cut) -> float:
    """Sum of squared moduli of the four cross minors of ``cut``, or inf
    once a term overflows, as a finite minor above about 1.3e154 does."""
    try:
        return sum(abs(m) ** 2 for m in _cross_minors(v, cut))
    except OverflowError:
        return math.inf


def _product(x, y):
    """The 2x2 matrix product ``x @ y`` of two matrices given as pairs of rows."""
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return (a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h)


_SIGMA_Y = ((0, -1j), (1j, 0))


def _word(v: Sequence[complex]):
    """The word W = M_AB sy M_BC sy M_AC^T sy of amplitudes ``v``, as a pair of rows."""
    w = _rows(v, _AB)
    for m in (_SIGMA_Y, _rows(v, _BC), _SIGMA_Y, _rows(v, _AC, transpose=True), _SIGMA_Y):
        w = _product(w, m)
    return w


class InvariantReport(NamedTuple):
    """Every polynomial invariant of one state."""

    I_AB: complex
    I_BC: complex
    I_AC: complex
    I1: complex
    I2: complex
    monotone1: float
    monotone2: float
    I_A_BC: float
    I_B_AC: float
    I_C_AB: float


def invariant_report(state: StateVector) -> InvariantReport:
    """Evaluate all invariants; the input need not be normalized.

    The pair quantities are the block determinants, I1 is their product and
    I2 the explicit alternating polynomial. The bipartition quantities are
    the cross-minor sums, which vanish exactly when the conditional states
    seen from one mode are proportional.
    """
    v = _amplitude_list(state)
    return _report(v, _invariant_polynomials(v))


def _report(v: Sequence[complex], polynomials) -> InvariantReport:
    """The invariant report of amplitudes ``v`` whose five polynomials are given."""
    i_ab, i_bc, i_ac, i1, i2 = polynomials
    monotone1, monotone2 = monotones(i1, i2)
    return InvariantReport(
        I_AB=i_ab,
        I_BC=i_bc,
        I_AC=i_ac,
        I1=i1,
        I2=i2,
        monotone1=monotone1,
        monotone2=monotone2,
        I_A_BC=_cross_minor_sum(v, _CUT_A_BC),
        I_B_AC=_cross_minor_sum(v, _CUT_B_AC),
        I_C_AB=_cross_minor_sum(v, _CUT_C_AB),
    )


def _trace_power(w, n: int):
    """Trace of the n-th power of the 2x2 matrix ``w``, for n in 1..8, by repeated products."""
    if not 1 <= n <= 8:
        raise ValueError(f"word power must lie in 1..8, got {n}")
    power = w
    for _ in range(n - 1):
        power = _product(power, w)
    return power[0][0] + power[1][1]


def trace_word(state: StateVector, n: int) -> Tuple[complex, Tuple[Tuple[complex, complex], ...]]:
    """Trace of the n-th power of the word matrix, and W as a pair of rows of Python complex numbers."""
    w = _word(_amplitude_list(state))
    return _trace_power(w, n), w


def generator_relation_check(state: StateVector, n: int) -> float:
    """Residual of the ring relations tying W to the pair determinants.

    Two families are checked: the entry identity ``G1 K1 = I_AB I_BC I_AC +
    F1 L1`` on the word matrix ``W = [[F1, G1], [K1, L1]]``, and the Newton
    recursion for ``trace(W^k)``, ``k <= n``, seeded by ``trace(W)`` and
    ``det(W)``. Both hold identically, so the residual is pure roundoff.
    """
    v = _amplitude_list(state)
    w = _word(v)
    (f1, g1), (k1, l1) = w
    residual = abs(g1 * k1 - (_invariant_polynomials(v)[3] + f1 * l1))
    e1, e2 = f1 + l1, f1 * l1 - g1 * k1
    p_prev, p_cur = 2.0 + 0j, e1
    for k in range(2, n + 1):
        p_prev, p_cur = p_cur, e1 * p_cur - e2 * p_prev
        residual = max(residual, abs(_trace_power(w, k) - p_cur))
    return residual


def localized_scenario_check(
    state: StateVector, alpha: float
) -> Tuple[complex, complex]:
    """Empirical scale factors of I_AB and I_AC when one particle is pinned.

    Acts with identity on mode A and ``exp(alpha L8)`` on modes B and C, the
    subgroup available when mode A always holds a particle, and returns the
    multiplicative factors picked up by I_AB and I_AC. For generic states
    both equal ``e^{-2 alpha}``, witnessing that no invariant of the pinned
    scenario exists. Factors are NaN where the input determinant vanishes.
    """
    from .operators import apply, make_slocc_element

    before = _invariant_polynomials(_amplitude_list(state))
    pinned = make_slocc_element([(0, 0, 0, 0), (0, 0, 0, alpha), (0, 0, 0, alpha)])
    after = _invariant_polynomials(_amplitude_list(apply(pinned, state)))
    f_ab, f_ac = (
        after[k] / before[k] if abs(before[k]) > 0 else complex(cmath.nan) for k in (0, 2)
    )
    return f_ab, f_ac
