"""Polynomial invariants of the two-particle, three-mode, spin-1/2 sector.

The twelve amplitudes of a sector state split into three 2x2 pair blocks,
one per pair of modes that can jointly hold both particles. All quantities
here are built from those blocks: the pair determinants (concurrence
polynomials), their product I1, the degree-3 alternating polynomial I2, the
three non-negative cross-minor sums attached to the bipartitions, and the
sigma_y-sandwiched word matrix W whose traces generate the same ring.

Each of these formulas has one implementation, written over an indexable
vector of the twelve amplitudes in :func:`enumerate_basis` order: a list of
Python complex numbers for one state, or a ``(12, k)`` array for a batch.
I2 is evaluated from its explicit degree-3 polynomial; the equivalent trace
form satisfies trace(W) = i * I2 with the conventions fixed below, which the
test suite checks on random states. A :class:`StateVector` enters through
``_amplitude_list``, the package's one check that a state has shape
(3, 2, 1); the canonical form and the Monte-Carlo trials rely on it too.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from .operators import apply, make_slocc_element
from .states import SHAPE_321, StateVector, basis_index

SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)

_U, _D = 1, 2
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


def _columns(block: Tuple[int, ...], transpose: bool = False) -> Tuple[Tuple[int, int], ...]:
    uu, ud, du, dd = block
    return ((uu, ud), (du, dd)) if transpose else ((uu, du), (ud, dd))


# For each single-mode cut, the two blocks that hold that mode, oriented with
# the cut mode on rows and given by their (top, bottom) column positions.
_CUT_A_BC = (_columns(_AB), _columns(_AC))
_CUT_B_AC = (_columns(_AB, transpose=True), _columns(_BC))
_CUT_C_AB = (_columns(_AC, transpose=True), _columns(_BC, transpose=True))


def _amplitude_list(state: StateVector) -> List[complex]:
    """The twelve amplitudes as Python complex numbers, in basis order.

    This is the one check that a state has shape (3, 2, 1): every pair-block
    quantity of a :class:`StateVector` starts here. Scalar Python arithmetic
    keeps single-state results bitwise stable; numpy's vectorised complex
    products may round differently.
    """
    if state.shape != SHAPE_321:
        raise ValueError(f"pair-block invariants need shape (3, 2, 1), got {state.shape}")
    return state.dense().tolist()


@dataclass(frozen=True, eq=False)
class PairBlocks:
    """Amplitude blocks of the three two-mode subspaces, rows and columns
    ordered (up, down)."""

    M_AB: np.ndarray
    M_BC: np.ndarray
    M_AC: np.ndarray


def _block(v: Sequence[complex], block: Tuple[int, ...]) -> np.ndarray:
    """One pair block of amplitudes ``v`` as a 2x2 matrix, given its basis positions."""
    uu, ud, du, dd = block
    return np.array([[v[uu], v[ud]], [v[du], v[dd]]], dtype=complex)


def _blocks(v: Sequence[complex]) -> PairBlocks:
    return PairBlocks(M_AB=_block(v, _AB), M_BC=_block(v, _BC), M_AC=_block(v, _AC))


def pair_blocks(state: StateVector) -> PairBlocks:
    """Arrange the twelve amplitudes into the three pair-block matrices."""
    return _blocks(_amplitude_list(state))


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


def dense_invariant_pair(v):
    """(I1, I2) for a dense column batch, shape (12,) or (12, k).

    A :class:`~modal_ent.operators.SplitComplex` batch gives the values that
    :func:`invariant_report` computes for each column, bit for bit.
    """
    return _invariant_polynomials(v)[3:]


def monotones(i1, i2):
    """The entanglement monotones ``(|I1|^(1/3), |I2|^(2/3))`` of scalar or array invariants."""
    return abs(i1) ** (1.0 / 3.0), abs(i2) ** (2.0 / 3.0)


def _cross_minors(v, cut) -> List[complex]:
    """The four 2x2 minors pairing a column of one block of ``cut`` with one of the other."""
    xs, ys = cut
    return [v[xt] * v[yb] - v[xb] * v[yt] for xt, xb in xs for yt, yb in ys]


def _cross_minor_sum(v, cut) -> float:
    """Sum of squared moduli of the four cross minors of ``cut``."""
    return sum(abs(m) ** 2 for m in _cross_minors(v, cut))


def word_matrix(blocks: PairBlocks) -> np.ndarray:
    """The 2x2 word W = M_AB sy M_BC sy M_AC^T sy generating the trace invariants."""
    return blocks.M_AB @ SIGMA_Y @ blocks.M_BC @ SIGMA_Y @ blocks.M_AC.T @ SIGMA_Y


@dataclass(frozen=True, eq=False)
class InvariantReport:
    """Every polynomial invariant of one state, plus the word matrix W."""

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
    W: np.ndarray


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
        W=word_matrix(_blocks(v)),
    )


@dataclass(frozen=True, eq=False)
class BilinearForm:
    """A form in the three mode variables, stored as oriented blocks.

    Keys are ordered variable pairs; the block for ``(a, b)`` carries the
    ``a`` index on rows and the ``b`` index on columns. A sector state gives
    the three blocks ``(x, y)``, ``(y, z)``, ``(x, z)``; transvection results
    carry whatever pairs survive.
    """

    blocks: Dict[Tuple[str, str], np.ndarray]

    @classmethod
    def from_state(cls, state: StateVector) -> "BilinearForm":
        b = pair_blocks(state)
        return cls({("x", "y"): b.M_AB, ("y", "z"): b.M_BC, ("x", "z"): b.M_AC})


_VARS = ("x", "y", "z")


def _as_pair(pair: Union[str, Tuple[str, str]]) -> Tuple[str, str]:
    a, b = tuple(pair)
    if a not in _VARS or b not in _VARS or a == b:
        raise ValueError(f"invalid variable pair {pair!r}")
    return a, b


def _oriented(form: BilinearForm, a: str, b: str) -> np.ndarray:
    if (a, b) in form.blocks:
        return form.blocks[(a, b)]
    if (b, a) in form.blocks:
        return form.blocks[(b, a)].T
    raise ValueError(f"form has no block for variable pair ({a}, {b})")


def transvect_double(
    a: BilinearForm, b: BilinearForm, pair: Union[str, Tuple[str, str]]
) -> complex:
    """Fully contract two forms over one variable pair.

    The value is ``trace(A^T sy B sy)`` on the oriented blocks of the pair.
    Contracting a state form with itself over ``(x, y)`` yields twice the
    determinant of the corresponding pair block.
    """
    u, v = _as_pair(pair)
    blk_a = _oriented(a, u, v)
    blk_b = _oriented(b, u, v)
    return complex(np.trace(blk_a.T @ SIGMA_Y @ blk_b @ SIGMA_Y))


def transvect_single(a: BilinearForm, b: BilinearForm, variable: str) -> BilinearForm:
    """Contract two forms over a single variable, leaving a new bilinear form.

    With ``u, w`` the surviving variables (first index from ``a``, second
    from ``b``), the four result blocks are ``A_u^T sy B_w`` where ``A_u`` is
    ``a``'s block oriented with the contracted variable on rows.
    """
    if variable not in _VARS:
        raise ValueError(f"invalid variable {variable!r}")
    rest = tuple(v for v in _VARS if v != variable)
    out: Dict[Tuple[str, str], np.ndarray] = {}
    for u in rest:
        blk_a = _oriented(a, variable, u)
        for w in rest:
            blk_b = _oriented(b, variable, w)
            out[(u, w)] = blk_a.T @ SIGMA_Y @ blk_b
    return BilinearForm(out)


def _trace_power(w: np.ndarray, n: int) -> complex:
    if not 1 <= n <= 8:
        raise ValueError(f"word power must lie in 1..8, got {n}")
    return complex(np.trace(np.linalg.matrix_power(w, n)))


def trace_word(state: StateVector, n: int) -> Tuple[complex, np.ndarray]:
    """Trace of the n-th power of the word matrix, together with W itself."""
    w = word_matrix(pair_blocks(state))
    return _trace_power(w, n), w


def generator_relation_check(state: StateVector, n: int) -> float:
    """Residual of the ring relations tying W to the pair determinants.

    Two families are checked: the entry identity ``G1 K1 = I_AB I_BC I_AC +
    F1 L1`` on the word matrix ``W = [[F1, G1], [K1, L1]]``, and the Newton
    recursion for ``trace(W^k)``, ``k <= n``, seeded by ``trace(W)`` and
    ``det(W)``. Both hold identically, so the residual is pure roundoff.
    """
    rep = invariant_report(state)
    w = rep.W
    f1, g1 = w[0, 0], w[0, 1]
    k1, l1 = w[1, 0], w[1, 1]
    residual = abs(g1 * k1 - (rep.I1 + f1 * l1))
    e1 = complex(np.trace(w))
    e2 = complex(np.linalg.det(w))
    p_prev, p_cur = 2.0 + 0j, e1
    residual = max(residual, abs(_trace_power(w, 1) - p_cur))
    for k in range(2, max(n, 1) + 1):
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
    before = _invariant_polynomials(_amplitude_list(state))
    pinned = make_slocc_element([(0, 0, 0, 0), (0, 0, 0, alpha), (0, 0, 0, alpha)])
    after = _invariant_polynomials(_amplitude_list(apply(pinned, state)))
    f_ab, f_ac = (
        after[k] / before[k] if abs(before[k]) > 0 else complex(cmath.nan) for k in (0, 2)
    )
    return f_ab, f_ac
