"""Number-conserving local operators and their action on sector states.

A local operator is a ``d x d`` complex matrix acting on a single mode in
level-major order (levels first, vacancy last). It is superselection
compliant when it never mixes occupied levels with the vacancy, which makes
it block diagonal: a ``(p+1) x (p+1)`` block on the levels and a scalar on
the vacancy. A :class:`GroupElement` holds one such operator per mode as
the rows of Python complex numbers of a ``(modes, d, d)`` nested tuple,
applied as a tensor product restricted to the fixed-particle-number sector.
Its constructor reads any sequence of matrices and coerces every entry;
code that already holds such a tuple, as :func:`make_slocc_element` and
``classify.canonical_form`` do, hands it over by ``GroupElement._from_rows``.

:func:`apply` is the one action of a compliant element on a state of any
shape, and :func:`apply_on_mode` the one way to act on a single mode with
the identity on every other mode. Both move a state's layout: in
(3, 2, 1) its twelve amplitudes by its pair blocks, ``_moved``, which also
moves the canonical form's stages and the invariance sweep's batches, and
elsewhere its amplitudes one by one, by partial products.
:func:`sector_matrix` is only the tests' reference for both, kept here
because the benchmark's tracer wraps it by name.

The entries that the superselection rule requires to vanish are listed
once, by ``_leak_positions``. ``_leaking_mode`` reads them from the rows of
an element, for :meth:`GroupElement.is_superselection_compliant` and
:func:`apply`; the Monte-Carlo instrument check reads them from its Kraus
stacks.

Loading this module loads no numpy, and neither do building, checking and
applying elements, or :func:`occupation_scaling`, so
``modal-ent verify-stabilizer`` and ``modal-ent canonical`` run without it.
numpy enters only inside the calls that make arrays: :func:`sector_matrix`,
with its index columns, and :func:`random_element`, which takes all its
coefficients from one normal draw, as a list of Python floats, and builds
them as Python complex numbers with the bits of numpy's complex arithmetic.
"""

from __future__ import annotations

import cmath
import math
import operator
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from .states import (
    _PAIRS,
    SHAPE_321,
    StateVector,
    SystemShape,
    _Frozen,
    _layout,
    _nested_shape,
    _require_integer,
    _require_mode,
    _set,
    enumerate_basis,
    local_index,
)

if TYPE_CHECKING:
    import numpy as np

#: tolerance of the superselection rule on the entries mixing levels and vacancy
MEMBER_TOL = 1e-10

# The weights of (c1, c2, c3, c8) in the five entries of
# c1 L1 + c2 L2 + c3 L3 + c8 L8 that compliance lets be nonzero: the level
# block, row by row, then the vacancy. The entries are those of the complex
# Gell-Mann matrices, signs of zero parts included, so -1j is (-0-1j).
_EXPONENT_WEIGHTS = (
    (0j, 0j, 1 + 0j, 1 + 0j),
    (1 + 0j, -1j, 0j, 0j),
    (1 + 0j, 1j, 0j, 0j),
    (0j, 0j, -1 + 0j, 1 + 0j),
    (0j, 0j, 0j, -2 + 0j),
)


@lru_cache(maxsize=None)
def _leak_positions(d: int) -> Tuple[Tuple[int, int], ...]:
    """The ``(row, column)`` entries of a ``d x d`` local matrix that mix the
    levels with the vacancy; the superselection rule is that they vanish."""
    v = d - 1
    return tuple((i, v) for i in range(v)) + tuple((v, j) for j in range(v))


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


# the rows of each operator of an element: a (modes, d, d) nested tuple
_Rows = Tuple[Tuple[Tuple[complex, ...], ...], ...]


class GroupElement(_Frozen):
    """One local operator per mode, read from any sequence of equally sized
    square matrices, nested sequences or arrays, into ``matrices``: the rows
    of each operator as a ``(modes, d, d)`` nested tuple of Python complex
    numbers.

    The compliance test reads the leak entries of the rows; NaN entries fail it.
    """

    __slots__ = ("matrices",)
    matrices: _Rows

    def __init__(self, matrices) -> None:
        source = matrices
        if hasattr(source, "tolist"):
            source = source.tolist()
        try:
            mats = tuple([tuple([tuple(map(complex, row)) for row in op]) for op in source])
            sizes = {len(op) for op in mats} | {len(row) for op in mats for row in op}
        except (TypeError, ValueError):
            mats, sizes = None, set()
        if len(sizes) != 1 or min(sizes) < 2:
            try:
                shape = _nested_shape(source)
            except ValueError:
                raise ValueError("the operators of a group element must share one dimension") from None
            if len(shape) == 3 and shape[1] == shape[2] >= 2:
                raise ValueError("the entries of a group element must be numbers")
            raise ValueError(f"expected a (modes, d, d) stack with d >= 2, got shape {shape}")
        _set(self, "matrices", mats)

    @classmethod
    def _from_rows(cls, rows: _Rows) -> "GroupElement":
        """The element whose ``matrices`` are ``rows``, taken as they are.

        The caller hands over a ``(modes, d, d)`` nested tuple of Python
        complex numbers, zeros included as ``0j``, which is what the
        constructor would make of them, so its coercion and checks are
        skipped.
        """
        element = object.__new__(cls)
        _set(element, "matrices", rows)
        return element

    def is_superselection_compliant(self) -> bool:
        return _leaking_mode(self.matrices) is None


def _leaking_mode(matrices: _Rows) -> Optional[int]:
    """The first mode whose rows break the superselection rule, or None.

    Each leak entry is compared on its own, so a NaN in any of them fails.
    """
    for k, rows in enumerate(matrices):
        if not all(abs(rows[i][j]) <= MEMBER_TOL for i, j in _leak_positions(len(rows))):
            return k
    return None


def _require_shape(element: GroupElement, shape: SystemShape) -> None:
    """Raise ValueError unless ``element`` has one ``d x d`` operator per mode of ``shape``."""
    mats = element.matrices
    have = (len(mats), len(mats[0]), len(mats[0]))
    want = (shape.modes, shape.local_dim, shape.local_dim)
    if have != want:
        raise ValueError(f"element has shape {have}, expected {want}")


def _exp_entries(a: complex, b: complex, c: complex, d: complex, v: complex) -> _Rows:
    """The rows of ``exp`` of the compliant matrix with level block
    ``[[a, b], [c, d]]`` and vacancy entry ``v``, in closed form, as a
    nested tuple of Python complex numbers with ``0j`` off the blocks.

    The level block ``A`` exponentiates as
    ``e^t (cosh s I + (sinh s / s) (A - t I))`` with ``t = tr(A) / 2`` and
    ``s^2 = -det(A - t I)``, taking ``sinh s / s = 1`` at ``s = 0``; the
    vacancy entry exponentiates as a scalar. For ``|s| > 1`` the same matrix
    is evaluated from the eigenvalues ``t +- s``, since ``cosh s - sinh s``
    would cancel.
    """
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
    return (top, sh * b, 0j), (sh * c, bottom, 0j), (0j, 0j, cmath.exp(v))


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
    vacancy entry ``v``. A factor whose exponent or exponential leaves the
    floating-point range raises ValueError naming its mode.
    """
    isfinite, hypot = cmath.isfinite, math.hypot
    factors = []
    for k, coeffs in enumerate(coefficients):
        c1, c2, c3, c8 = map(complex, coeffs)
        if not (isfinite(c1) and isfinite(c2) and isfinite(c3) and isfinite(c8)):
            raise ValueError(f"non-finite exponent coefficients on mode {k}")
        a, b, c, d, v = [c1 * w1 + c2 * w2 + c3 * w3 + c8 * w8 for w1, w2, w3, w8 in _EXPONENT_WEIGHTS]
        try:
            if not (isfinite(a) and isfinite(b) and isfinite(c) and isfinite(d) and isfinite(v)):
                raise OverflowError
            rows = _exp_entries(a, b, c, d, v)
            # the factor's level block [[a, b], [c, d]] and vacancy entry v
            (a, b, _), (c, d, _), (_, _, v) = rows
            if not (isfinite(a) and isfinite(b) and isfinite(c) and isfinite(d) and isfinite(v)):
                raise OverflowError
        except (OverflowError, ValueError):
            raise ValueError(f"the exponential on mode {k} overflows") from None
        if not abs((a * d - b * c) * v - 1.0) <= 1e-9 * hypot(abs(a), abs(b)) * hypot(abs(c), abs(d)) * abs(v):
            raise ArithmeticError(f"factor on mode {k} drifted off determinant one")
        factors.append(rows)
    return GroupElement._from_rows(tuple(factors))


def _moved(v, element) -> list:
    """Amplitudes ``v``, one (3, 2, 1) state's twelve in basis order or a
    ``(12, k)`` batch, moved by a compliant element given per mode as
    ``(level block, vacancy entry)``: each pair block ``M`` goes to
    ``L M L'^T s``, with the level blocks of its row and column modes and
    the third mode's vacancy. The leak entries move nothing within the
    sector and are not read. The entries may be Python numbers or arrays
    that broadcast against the amplitudes, one value per column."""
    out = [0j] * 12
    for (uu, ud, du, dd), row, col, third in _PAIRS:
        ((a, b), (c, d)), ((e, f), (g, h)), s = element[row][0], element[col][0], element[third][1]
        p, q = (a * v[uu] + b * v[du]) * s, (a * v[ud] + b * v[dd]) * s
        r, w = (c * v[uu] + d * v[du]) * s, (c * v[ud] + d * v[dd]) * s
        out[uu], out[ud], out[du], out[dd] = p * e + q * f, p * g + q * h, r * e + w * f, r * g + w * h
    return out


def apply(element: GroupElement, state: StateVector) -> StateVector:
    """Act with a compliant element on a state of any shape; not renormalized.

    An element of the wrong shape or with a matrix that is not compliant
    raises ValueError. Compliance keeps each occupation pattern intact, so
    an amplitude moves only over the levels of its occupied modes.

    A (3, 2, 1) state's twelve amplitudes move by ``_moved``, in Python
    complex numbers, with their bits; a zero is stored as ``0j``.

    Every other shape takes the partial-product loop over the state's
    support: the rows of each operator give a symbol-move table, terms are
    ``((amp * w_0) * w_1) * ...`` in Python complex numbers, which round
    products and sums as numpy's complex scalars do, summed from ``0j`` in
    basis order of the input, and the result's keys come in basis order.
    """
    shape = state.shape
    _require_shape(element, shape)
    leaking = _leaking_mode(element.matrices)
    if leaking is not None:
        raise ValueError(f"operator on mode {leaking} violates the superselection rule")
    support, amps = state._entries()
    if shape == SHAPE_321:
        block_rows = [((a[:2], b[:2]), c[2]) for a, b, c in element.matrices]
        return StateVector._from_amplitudes(shape, _moved(amps, block_rows), support)
    moves = [_symbol_moves(rows) for rows in element.matrices]
    out: Dict[Tuple[int, ...], complex] = {}
    for occ, amp in zip(support, amps):
        partial = [((), amp)]
        for move, sym in zip(moves, occ):
            partial = [(pre + (new,), val * w) for new, w in move[sym] for pre, val in partial]
        for new_occ, val in partial:
            out[new_occ] = out.get(new_occ, 0j) + val
    return StateVector._from_amplitudes(shape, *_layout(shape, out))


def apply_on_mode(op: Sequence[Sequence[complex]], mode: int, state: StateVector) -> StateVector:
    """Act with the matrix ``op`` on one mode and the identity on the others; not renormalized."""
    modes = state.shape.modes
    _require_mode(mode, modes)
    d = len(op)
    mats = [[[complex(i == j) for j in range(d)] for i in range(d)]] * modes
    mats[mode] = op
    return apply(GroupElement(mats), state)


@lru_cache(maxsize=None)
def _index_columns(shape: SystemShape) -> Tuple[np.ndarray, ...]:
    import numpy as np

    basis = enumerate_basis(shape)
    p = shape.spin_numerator
    return tuple(
        np.array([local_index(occ[k], p) for occ in basis]) for k in range(shape.modes)
    )


def sector_matrix(element: GroupElement, shape: SystemShape) -> np.ndarray:
    """Dense matrix of a compliant element on the sector basis.

    The tests' reference for the package's actions, which do not call it.
    Refuses dimensions past 4096, where a dense matrix stops being reasonable.
    """
    import numpy as np

    dim = shape.dimension
    if dim > 4096:
        raise ValueError(f"sector dimension {dim} too large for a dense matrix")
    _require_shape(element, shape)
    if not element.is_superselection_compliant():
        raise ValueError("element violates the superselection rule")
    cols = _index_columns(shape)
    mat = np.ones((dim, dim), dtype=complex)
    for op, lk in zip(np.asarray(element.matrices), cols):
        mat *= op[np.ix_(lk, lk)]
    return mat


def occupation_scaling(r: float, phi: float = 0.0, p: int = 1) -> _Rows:
    """Diagonal determinant-one matrix scaling occupied levels against vacancy.

    Every occupied level is multiplied by ``r e^{i phi}`` and the vacancy by
    the compensating ``r^{-(p+1)} e^{-(p+1) i phi}``. Applied on all modes of
    an ``(n, m, p)`` sector state it rescales each amplitude by
    ``r^{(p+2)m - (p+1)n} e^{[(p+2)m - (p+1)n] i phi}``. The matrix comes as
    rows of Python complex numbers, the bits that ``np.exp`` and ``np.diag``
    gave. A scale that is not finite and positive, or whose vacancy factor
    ``r^{-(p+1)}`` underflows to zero or overflows, a phase that is not
    finite, and a ``p`` that is a bool, not an integer or negative raise
    ValueError.
    """
    if not 0 < r < math.inf:
        raise ValueError(f"scale must be finite and positive, got {r}")
    p = _require_integer(p, "p")
    if not math.isfinite(phi) or p < 0:
        raise ValueError(f"need a finite phase and p >= 0, got phi={phi}, p={p}")
    try:
        vacancy = float(r) ** -(p + 1)
    except OverflowError:
        vacancy = math.inf
    if not 0 < vacancy < math.inf:
        raise ValueError(f"scale {r} leaves the vacancy factor r^-{p + 1} = {vacancy}, not finite and nonzero")
    diag = [float(r) * cmath.exp(1j * phi)] * (p + 1) + [vacancy * cmath.exp(-1j * (p + 1) * phi)]
    return tuple(tuple(z if i == j else 0j for j in range(p + 2)) for i, z in enumerate(diag))


def random_element(kind: str, seed: int, spread: float = 0.5) -> GroupElement:
    """Reproducible random group element on three three-level modes.

    Generator coefficients are drawn i.i.d. normal with standard deviation
    ``spread`` per real component: fully complex for ``"SLOCC"``, purely
    imaginary for ``"SU"`` (anti-Hermitian exponents give unitaries). The
    distribution is an implementation choice, not a canonical measure.

    The seed is checked before the draw: one that is not an integer, such
    as None, which would seed from the operating system, or a bool, raises
    TypeError, and a negative one ValueError.
    """
    if not 0 < spread < math.inf:
        raise ValueError(f"spread must be finite and positive, got {spread}")
    if kind not in ("SLOCC", "SU"):
        raise ValueError(f"unknown element kind {kind!r}")
    import numpy as np

    if isinstance(seed, (bool, np.bool_)):
        raise TypeError("element seed must be an integer, not a bool")
    try:
        seed = operator.index(seed)
    except TypeError:
        raise TypeError(f"element seed must be an integer, got {seed!r}") from None
    if seed < 0:
        raise ValueError(f"element seed must be non-negative, got {seed}")
    # One draw in the order of the per-mode draws it replaces: for each mode
    # four imaginary parts, then, for SLOCC, four real parts. The parts are
    # those numpy's complex arithmetic gives 1j * x, (0 x - 1 0, 0 0 + 1 x),
    # and r + 1j * x, written out so that they hold on any Python version.
    draws = np.random.default_rng(seed).normal(scale=spread, size=24 if kind == "SLOCC" else 12).tolist()
    if kind == "SU":
        coeffs = [[complex(0.0 * x, x + 0.0) for x in draws[i : i + 4]] for i in (0, 4, 8)]
    else:
        coeffs = [
            [complex(r + 0.0 * x, x + 0.0) for x, r in zip(draws[i : i + 4], draws[i + 4 : i + 8])]
            for i in (0, 8, 16)
        ]
    return make_slocc_element(coeffs)
