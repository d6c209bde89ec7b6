"""Number-conserving local operators and their action on sector states.

Every operator here acts on a single mode in level-major order (levels first,
vacancy last). An operator is superselection compliant when it never mixes
occupied levels with the vacancy, which makes it block diagonal: a
``(p+1) x (p+1)`` block on the levels and a scalar on the vacancy. Group
elements are per-mode tuples of such operators, applied as a tensor product
restricted to the fixed-particle-number sector.

:func:`apply` is the one generic action of an element on a sparse state of
any shape (the canonical form's stages restate it for their own matrices),
and :func:`apply_on_mode` the one way to act on a single mode of a sparse
state with the identity on every other mode. :func:`apply_on_mode_columns`
does the same for a batch of dense state columns, each with its own operator
and mode, as an index gather rather than a sector matrix.

The entries that the superselection rule requires to vanish are listed
once, by ``_leak_positions``. :func:`superselection_leak` reads them from
stacks of matrices; single operators, which :func:`apply` and
:meth:`LocalOperator.is_superselection_compliant` test, read them from rows
of scalars, without the numpy call overhead of a stacked call.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Sequence, Tuple

import numpy as np

from .states import (
    StateVector,
    SystemShape,
    basis_index,
    enumerate_basis,
    local_index,
)

#: default tolerance for membership tests (unitarity, unit determinant)
MEMBER_TOL = 1e-10

_L1 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
_L2 = np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex)
_L3 = np.diag([1.0, -1.0, 0.0]).astype(complex)
_L8 = np.diag([1.0, 1.0, -2.0]).astype(complex)

_GELL_MANN = {1: _L1, 2: _L2, 3: _L3, 8: _L8}

# The weights of (c1, c2, c3, c8) in the five entries of
# c1 L1 + c2 L2 + c3 L3 + c8 L8 that compliance lets be nonzero: the level
# block, row by row, then the vacancy.
_EXPONENT_WEIGHTS = tuple(
    tuple(complex(m[i, j]) for m in (_L1, _L2, _L3, _L8))
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1), (2, 2))
)


@dataclass(frozen=True, eq=False)
class LocalOperator:
    """A complex matrix on one mode, vacancy indexed last."""

    dim: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        if self.entries.shape != (self.dim, self.dim):
            raise ValueError(f"entries must be {self.dim}x{self.dim}, got {self.entries.shape}")

    def det(self) -> complex:
        return complex(np.linalg.det(self.entries))

    def is_superselection_compliant(self, tol: float = MEMBER_TOL) -> bool:
        return _compliant_rows(_scalar_rows(self.entries), tol)

    def is_unitary(self, tol: float = MEMBER_TOL) -> bool:
        defect = self.entries @ self.entries.conj().T - np.eye(self.dim)
        return bool(np.max(np.abs(defect)) <= tol)


class SplitComplex:
    """Complex numbers or arrays held as separate real and imaginary parts.

    A product takes four real products and two sums, the way Python's
    complex type rounds it; numpy's complex loops may fuse a multiply with
    an add and round differently. Batches evaluated this way reproduce the
    scalar arithmetic of :func:`apply` and of the invariant report bit for
    bit. That matters where an invariant vanishes: its roundoff is then all
    there is, and the fractional powers of the monotones magnify it.
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im) -> None:
        self.re = re
        self.im = im

    def __getitem__(self, index) -> "SplitComplex":
        return SplitComplex(self.re[index], self.im[index])

    def __add__(self, other: "SplitComplex") -> "SplitComplex":
        return SplitComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "SplitComplex") -> "SplitComplex":
        return SplitComplex(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "SplitComplex") -> "SplitComplex":
        return SplitComplex(
            self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re
        )

    def __abs__(self):
        return np.hypot(self.re, self.im)


@lru_cache(maxsize=None)
def _leak_positions(d: int) -> Tuple[Tuple[int, int], ...]:
    """The ``(row, column)`` entries of a ``d x d`` local matrix that mix the
    levels with the vacancy; the superselection rule is that they vanish."""
    v = d - 1
    return tuple((i, v) for i in range(v)) + tuple((v, j) for j in range(v))


def superselection_leak(entries: np.ndarray) -> np.ndarray:
    """Largest modulus mixing levels and vacancy, per matrix of a ``(..., d, d)`` stack.

    NaN entries give NaN, which no tolerance accepts.
    """
    rows, cols = zip(*_leak_positions(entries.shape[-1]))
    return np.abs(entries[..., rows, cols]).max(axis=-1)


def _scalar_rows(entries: np.ndarray) -> list:
    """The rows of a square matrix as tuples of numpy scalars, read in one pass."""
    return list(zip(*[entries.flat] * len(entries)))


def _compliant_rows(rows: Sequence[Sequence[complex]], tol: float = MEMBER_TOL) -> bool:
    """The superselection test of one local matrix given as a list of rows.

    This is :func:`superselection_leak` at most ``tol`` without the numpy
    calls; each leak entry is compared on its own, so a NaN in any of them
    fails the test.
    """
    return all(abs(rows[i][j]) <= tol for i, j in _leak_positions(len(rows)))


def _symbol_moves(rows: Sequence[Sequence[complex]]) -> list:
    """Where a compliant local matrix, given as rows, sends each symbol.

    Entry ``sym`` lists the (new symbol, weight) pairs with nonzero weight:
    the vacancy, symbol 0, goes to itself, and level ``j`` to every level
    ``i`` with a nonzero entry ``(i, j)``.
    """
    vacancy = rows[-1][-1]
    levels = range(1, len(rows))
    return [[(0, vacancy)] if vacancy != 0 else []] + [
        [(i, rows[i - 1][j - 1]) for i in levels if rows[i - 1][j - 1] != 0] for j in levels
    ]


@dataclass(frozen=True, eq=False)
class GroupElement:
    """One local operator per mode; the exponent parameters used to build an
    element are construction inputs only and are not retained."""

    per_mode: Tuple[LocalOperator, ...]

    def is_superselection_compliant(self, tol: float = MEMBER_TOL) -> bool:
        return all(op.is_superselection_compliant(tol) for op in self.per_mode)

    def is_unitary(self, tol: float = MEMBER_TOL) -> bool:
        return all(op.is_unitary(tol) for op in self.per_mode)

    def is_special(self, tol: float = MEMBER_TOL) -> bool:
        return all(abs(op.det() - 1.0) <= tol for op in self.per_mode)

    def membership(self, tol: float = MEMBER_TOL) -> str:
        """Coarse tag: ``"SU"``, ``"SLOCC"`` or ``"neither"``."""
        if not self.is_superselection_compliant(tol) or not self.is_special(tol):
            return "neither"
        return "SU" if self.is_unitary(tol) else "SLOCC"


def gell_mann(index: int) -> LocalOperator:
    """One of the four diagonal-block generators on a three-level mode.

    Indices 1, 2, 3 act on the two occupied levels in the Pauli pattern and
    index 8 is the diagonal charge-like generator diag(1, 1, -2).
    """
    if index not in _GELL_MANN:
        raise ValueError(f"unsupported generator index {index}; valid indices are 1, 2, 3, 8")
    return LocalOperator(3, _GELL_MANN[index].copy())


def matrix_exp(op: LocalOperator) -> LocalOperator:
    """Matrix exponential of a compliant spin-1/2 operator, in closed form.

    The 2x2 level block ``A`` exponentiates as
    ``e^t (cosh s I + (sinh s / s) (A - t I))`` with ``t = tr(A) / 2`` and
    ``s^2 = -det(A - t I)``, taking ``sinh s / s = 1`` at ``s = 0``; the
    vacancy entry exponentiates as a scalar. For ``|s| > 1`` the same matrix
    is evaluated from the eigenvalues ``t +- s``, since ``cosh s - sinh s``
    would cancel. Any other operator, including a 3x3 one with nonzero
    entries mixing levels and vacancy, raises ValueError.
    """
    if op.dim != 3:
        raise ValueError(f"closed-form exponential needs a 3x3 operator, got dim {op.dim}")
    (a, b, x), (c, d, y), (p, q, v) = op.entries.tolist()
    if not all(cmath.isfinite(z) for z in (a, b, c, d, v, x, y, p, q)):
        raise ValueError("matrix exponential of a non-finite matrix")
    if x or y or p or q:
        raise ValueError("closed-form exponential needs levels and vacancy kept apart")
    return LocalOperator(3, np.array(_exp_entries(a, b, c, d, v), dtype=complex))


def _exp_entries(a: complex, b: complex, c: complex, d: complex, v: complex) -> list:
    """The rows of ``exp`` of the compliant matrix with level block
    ``[[a, b], [c, d]]`` and vacancy entry ``v``, as :func:`matrix_exp` forms it."""
    t, h = (a + d) / 2, (a - d) / 2
    s = cmath.sqrt(h * h + b * c)
    if abs(s) <= 1.0:
        et, ch = cmath.exp(t), cmath.cosh(s)
        sh = et * (cmath.sinh(s) / s if s else 1.0)
        top, bottom = et * ch + sh * h, et * ch - sh * h
    else:
        # s + h and s - h multiply to bc; the smaller one is derived from the
        # larger so that neither is formed by cancellation.
        up, down = cmath.exp(t + s), cmath.exp(t - s)
        plus, minus = s + h, s - h
        if abs(plus) < abs(minus):
            plus = b * c / minus
        else:
            minus = b * c / plus
        top, bottom = (up * plus + down * minus) / (2 * s), (up * minus + down * plus) / (2 * s)
        sh = (up - down) / (2 * s)
    return [[top, sh * b, 0], [sh * c, bottom, 0], [0, 0, cmath.exp(v)]]


def element_from_matrices(mats: Sequence[np.ndarray]) -> GroupElement:
    return GroupElement(tuple(LocalOperator(m.shape[0], np.asarray(m, dtype=complex)) for m in mats))


def identity_element(modes: int, dim: int) -> GroupElement:
    return element_from_matrices([np.eye(dim, dtype=complex)] * modes)


def make_slocc_element(coefficients: Sequence[Sequence[complex]]) -> GroupElement:
    """Exponentiate per-mode combinations of the four generators.

    ``coefficients`` holds one ``(c1, c2, c3, c8)`` tuple per mode; each mode
    contributes ``exp(c1 L1 + c2 L2 + c3 L3 + c8 L8)``. The exponent has
    level block ``[[c3 + c8, c1 - i c2], [c1 + i c2, c8 - c3]]`` and vacancy
    entry ``-2 c8``; each of these five entries is taken as the four-term
    sum the matrix algebra forms, one scalar product per generator, so that
    even the signs of its zero parts, which the exponential can carry into
    its output, are those of the matrices summed. The exponents are
    traceless, so every factor has determinant one. That is verified to
    ``1e-9`` relative to the product of the factor's row norms, which bounds
    both the determinant (Hadamard) and its rounding error; the determinant
    is ``(ad - bc) v`` for the factor's level block ``[[a, b], [c, d]]`` and
    vacancy entry ``v``.
    """
    factors = []
    for k, coeffs in enumerate(coefficients):
        c1, c2, c3, c8 = (complex(c) for c in coeffs)
        if not all(cmath.isfinite(c) for c in (c1, c2, c3, c8)):
            raise ValueError(f"non-finite exponent coefficients on mode {k}")
        generator = [c1 * w1 + c2 * w2 + c3 * w3 + c8 * w8 for w1, w2, w3, w8 in _EXPONENT_WEIGHTS]
        if not all(cmath.isfinite(z) for z in generator):
            raise ValueError("matrix exponential of a non-finite matrix")
        factors.append(_exp_entries(*generator))
    for k, rows in enumerate(factors):
        (a, b, _), (c, d, _), (_, _, v) = rows
        row_norms = (math.hypot(*map(abs, row)) for row in rows)
        if abs((a * d - b * c) * v - 1.0) > 1e-9 * math.prod(row_norms):
            raise ArithmeticError(f"factor on mode {k} drifted off determinant one")
    return GroupElement(tuple(LocalOperator(3, np.array(rows, dtype=complex)) for rows in factors))


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    """The element acting as h first, then g."""
    if len(g.per_mode) != len(h.per_mode):
        raise ValueError("cannot compose elements over different mode counts")
    return element_from_matrices(
        [a.entries @ b.entries for a, b in zip(g.per_mode, h.per_mode)]
    )


def apply(element: GroupElement, state: StateVector) -> StateVector:
    """Act with a compliant element on a state; the result is not renormalized.

    Compliance keeps the occupation pattern of every basis vector intact, so
    each amplitude fans out only over the level assignments of its occupied
    modes. That keeps the cost proportional to the sparse support.

    Each operator is read once into rows of numpy complex scalars. The
    compliance test reads those rows, and so does the per-mode table of
    where each symbol moves: the vacancy to itself, level ``j`` to every
    level ``i`` with a nonzero entry ``(i, j)``. The amplitudes stay
    ``np.complex128`` and round exactly as products of array entries would.
    """
    shape = state.shape
    if len(element.per_mode) != shape.modes:
        raise ValueError(
            f"element spans {len(element.per_mode)} modes, state has {shape.modes}"
        )
    # moves[k][sym]: the (new symbol, weight) pairs of symbol sym on mode k
    moves = []
    for k, op in enumerate(element.per_mode):
        if op.dim != shape.local_dim:
            raise ValueError(f"operator on mode {k} has dim {op.dim}, expected {shape.local_dim}")
        rows = _scalar_rows(op.entries)
        if not _compliant_rows(rows):
            raise ValueError(f"operator on mode {k} violates the superselection rule")
        moves.append(_symbol_moves(rows))
    out: Dict[Tuple[int, ...], complex] = {}
    for occ, amp in state.amplitudes.items():
        partial = [((), amp)]
        for move, sym in zip(moves, occ):
            partial = [(pre + (new,), val * w) for new, w in move[sym] for pre, val in partial]
        for new_occ, val in partial:
            out[new_occ] = out.get(new_occ, 0j) + val
    return StateVector(shape, out)


def apply_on_mode(op: LocalOperator, mode: int, state: StateVector) -> StateVector:
    """Act with ``op`` on one mode and the identity on the others; not renormalized."""
    modes = state.shape.modes
    if not 0 <= mode < modes:
        raise ValueError(f"mode {mode} out of range for {modes} modes")
    mats = [np.eye(op.dim, dtype=complex)] * modes
    mats[mode] = op.entries
    return apply(element_from_matrices(mats), state)


@lru_cache(maxsize=None)
def _index_columns(shape: SystemShape) -> Tuple[np.ndarray, ...]:
    basis = enumerate_basis(shape)
    p = shape.spin_numerator
    return tuple(
        np.array([local_index(occ[k], p) for occ in basis]) for k in range(shape.modes)
    )


@lru_cache(maxsize=None)
def _mode_sources(shape: SystemShape) -> np.ndarray:
    """``sources[m, j, c]``: the basis position of state ``j`` with mode ``m``
    set to local index ``c``, or ``dimension`` where that leaves the sector."""
    basis = enumerate_basis(shape)
    position = basis_index(shape)
    symbols = list(range(1, shape.levels + 1)) + [0]
    return np.array(
        [
            [[position.get(occ[:m] + (sym,) + occ[m + 1 :], len(basis)) for sym in symbols] for occ in basis]
            for m in range(shape.modes)
        ]
    )


def apply_on_mode_columns(
    ops: np.ndarray, modes: np.ndarray, columns: SplitComplex, shape: SystemShape
) -> SplitComplex:
    """Act on column ``t`` with ``ops[t]`` on mode ``modes[t]``; not renormalized.

    ``columns`` holds a ``(dimension, k)`` batch of dense states, ``ops`` a
    ``(k, d, d)`` stack of local matrices and ``modes`` ``k`` mode numbers.
    Each output amplitude gathers its ``d`` sources from the basis tables; a
    source outside the sector reads a zero, so entries mixing levels and the
    vacancy, which compliant operators do not have, are dropped. Products
    and sums round as in :func:`apply`, and a column's result does not
    depend on the rest of the batch.
    """
    d = shape.local_dim
    if ops.shape[1:] != (d, d):
        raise ValueError(f"operators have shape {ops.shape[1:]}, expected dim {d}")
    stray = modes[(modes < 0) | (modes >= shape.modes)]
    if stray.size:
        raise ValueError(f"mode {stray[0]} out of range for {shape.modes} modes")
    t = np.arange(len(modes))[:, None, None]
    src = _mode_sources(shape)[modes]
    rows = np.stack(_index_columns(shape))[modes]
    zero = np.zeros((1, len(modes)))
    values = SplitComplex(
        np.vstack([columns.re, zero])[src, t], np.vstack([columns.im, zero])[src, t]
    )
    coeff = ops[t, rows[:, :, None], np.arange(d)]
    terms = SplitComplex(coeff.real, coeff.imag) * values
    out = terms[..., 0]
    for c in range(1, d):
        out = out + terms[..., c]
    return SplitComplex(out.re.T, out.im.T)


def sector_matrix(element: GroupElement, shape: SystemShape) -> np.ndarray:
    """Dense matrix of a compliant element on the sector basis.

    Intended for batch sweeps on small sectors; refuses dimensions past 4096
    where the dense representation stops being reasonable.
    """
    dim = shape.dimension
    if dim > 4096:
        raise ValueError(f"sector dimension {dim} too large for a dense matrix")
    if len(element.per_mode) != shape.modes:
        raise ValueError("element mode count does not match the shape")
    for k, op in enumerate(element.per_mode):
        if not op.is_superselection_compliant():
            raise ValueError(f"operator on mode {k} violates the superselection rule")
    cols = _index_columns(shape)
    mat = np.ones((dim, dim), dtype=complex)
    for op, lk in zip(element.per_mode, cols):
        mat *= op.entries[np.ix_(lk, lk)]
    return mat


def occupation_scaling(r: float, phi: float = 0.0, p: int = 1) -> LocalOperator:
    """Diagonal determinant-one matrix scaling occupied levels against vacancy.

    Every occupied level is multiplied by ``r e^{i phi}`` and the vacancy by
    the compensating ``r^{-(p+1)} e^{-(p+1) i phi}``. Applied on all modes of
    an ``(n, m, p)`` sector state it rescales each amplitude by
    ``r^{(p+2)m - (p+1)n} e^{[(p+2)m - (p+1)n] i phi}``.
    """
    if r <= 0:
        raise ValueError(f"scale must be positive, got {r}")
    head = [r * np.exp(1j * phi)] * (p + 1)
    diag = head + [r ** (-(p + 1)) * np.exp(-1j * (p + 1) * phi)]
    return LocalOperator(p + 2, np.diag(diag).astype(complex))


def level_contraction(alpha: complex, p: int = 1) -> LocalOperator:
    """Diagonal determinant-one matrix that damps level one and the vacancy.

    The diagonal reads ``e^{-(p+1)a}`` on level one, ``e^{(p+3)a}`` on level
    two, ``e^{a}`` on the remaining levels and ``e^{-(p+1)a}`` on the
    vacancy. On states supported on level one and vacancy only it acts as the
    scalar ``e^{-(p+1)a}``, which is a norm change for real ``a`` and a pure
    phase for imaginary ``a``.
    """
    a = complex(alpha)
    diag = (
        [np.exp(-(p + 1) * a), np.exp((p + 3) * a)]
        + [np.exp(a)] * (p - 1)
        + [np.exp(-(p + 1) * a)]
    )
    return LocalOperator(p + 2, np.diag(diag).astype(complex))


def random_element(
    kind: str,
    seed: int,
    spread: float = 0.5,
    modes: int = 3,
) -> GroupElement:
    """Reproducible random group element on three-level modes.

    Generator coefficients are drawn i.i.d. normal with standard deviation
    ``spread`` per real component: fully complex for ``"SLOCC"``, purely
    imaginary for ``"SU"`` (anti-Hermitian exponents give unitaries). The
    distribution is an implementation choice, not a canonical measure.
    """
    if spread <= 0:
        raise ValueError(f"spread must be positive, got {spread}")
    if kind not in ("SLOCC", "SU"):
        raise ValueError(f"unknown element kind {kind!r}")
    rng = np.random.default_rng(seed)
    coeffs = []
    for _ in range(modes):
        imag = 1j * rng.normal(scale=spread, size=4)
        if kind == "SLOCC":
            coeffs.append(rng.normal(scale=spread, size=4) + imag)
        else:
            coeffs.append(imag)
    return make_slocc_element(coeffs)
