"""Number-conserving local operators and their action on sector states.

A local operator is a ``d x d`` complex matrix acting on a single mode in
level-major order (levels first, vacancy last). It is superselection
compliant when it never mixes occupied levels with the vacancy, which makes
it block diagonal: a ``(p+1) x (p+1)`` block on the levels and a scalar on
the vacancy. A :class:`GroupElement` holds one such operator per mode as
the rows of Python complex numbers of a ``(modes, d, d)`` nested tuple,
applied as a tensor product restricted to the fixed-particle-number sector.

:func:`apply` is the one sparse action of a compliant element on a state
of any shape, and :func:`apply_on_mode` the one way to act on a single mode
of a sparse state with the identity on every other mode.
:func:`apply_on_mode_columns` does the same for a batch of dense state
columns, each with its own mode and its own operators (the outcomes of an
instrument, say), as a flat index gather rather than a sector matrix.

The entries that the superselection rule requires to vanish are listed
once, by ``_leak_positions``. :func:`superselection_leak` reads them from
stacks of matrices, which is how instruments are tested;
``_leaking_mode`` reads them from the rows of an element, for
:meth:`GroupElement.is_superselection_compliant` and :func:`apply`.

Loading this module loads no numpy, and neither do building, checking and
applying elements, so ``modal-ent verify-stabilizer`` runs without it.
numpy enters only inside the calls that take or make arrays:
:func:`superselection_leak`, :func:`apply_on_mode_columns`,
:func:`sector_matrix`, :func:`occupation_scaling`, :func:`random_element`
and the modulus of a :class:`SplitComplex` batch.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from .states import (
    StateVector,
    SystemShape,
    basis_index,
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
        import numpy as np

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
    import numpy as np

    rows, cols = zip(*_leak_positions(entries.shape[-1]))
    return np.abs(entries[..., rows, cols]).max(axis=-1)


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


def _nested_shape(obj) -> Tuple[int, ...]:
    """The shape numpy gives the nested sequences or arrays ``obj``;
    ValueError when they are ragged."""
    if hasattr(obj, "tolist"):
        obj = obj.tolist()
    if not isinstance(obj, (list, tuple)):
        return ()
    inner = {_nested_shape(x) for x in obj}
    if len(inner) > 1:
        raise ValueError("ragged nested sequences")
    return (len(obj), *(inner.pop() if inner else ()))


# the rows of each operator of an element: a (modes, d, d) nested tuple
_Rows = Tuple[Tuple[Tuple[complex, ...], ...], ...]


@dataclass(frozen=True, eq=False)
class GroupElement:
    """One local operator per mode, read from any sequence of equally sized
    square matrices, nested sequences or arrays, into ``matrices``: the rows
    of each operator as a ``(modes, d, d)`` nested tuple of Python complex
    numbers.

    The compliance test reads the leak entries of the rows; NaN entries fail it.
    """

    matrices: _Rows

    def __post_init__(self) -> None:
        source = self.matrices
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
        object.__setattr__(self, "matrices", mats)

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


def _exp_entries(a: complex, b: complex, c: complex, d: complex, v: complex) -> list:
    """The rows of ``exp`` of the compliant matrix with level block
    ``[[a, b], [c, d]]`` and vacancy entry ``v``, in closed form.

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
    return [[top, sh * b, 0], [sh * c, bottom, 0], [0, 0, cmath.exp(v)]]


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
    factors = []
    for k, coeffs in enumerate(coefficients):
        c1, c2, c3, c8 = (complex(c) for c in coeffs)
        if not all(cmath.isfinite(c) for c in (c1, c2, c3, c8)):
            raise ValueError(f"non-finite exponent coefficients on mode {k}")
        generator = [c1 * w1 + c2 * w2 + c3 * w3 + c8 * w8 for w1, w2, w3, w8 in _EXPONENT_WEIGHTS]
        try:
            rows = _exp_entries(*generator) if all(map(cmath.isfinite, generator)) else None
        except (OverflowError, ValueError):
            rows = None
        if rows is None or not all(cmath.isfinite(z) for row in rows for z in row):
            raise ValueError(f"the exponential on mode {k} overflows")
        (a, b, _), (c, d, _), (_, _, v) = rows
        row_norms = (math.hypot(*map(abs, row)) for row in rows)
        if not abs((a * d - b * c) * v - 1.0) <= 1e-9 * math.prod(row_norms):
            raise ArithmeticError(f"factor on mode {k} drifted off determinant one")
        factors.append(rows)
    return GroupElement(factors)


def apply(element: GroupElement, state: StateVector) -> StateVector:
    """Act with a compliant element on a state of any shape; not renormalized.

    The rows of each operator give the compliance check and its symbol-move
    table. Compliance keeps each occupation pattern intact, so an amplitude
    fans out only over the levels of its occupied modes. Terms are
    ``((amp * w_0) * w_1) * ...`` in Python complex numbers, which round
    products and sums as numpy's complex scalars do, summed from ``0j`` in
    input order, and keys come in order of first appearance, the last mode
    outermost. Three modes take a faster nested loop, other counts a
    partial-product loop; both give these bits. An element of the wrong
    shape or with a matrix that is not compliant raises ValueError.
    """
    shape = state.shape
    _require_shape(element, shape)
    leaking = _leaking_mode(element.matrices)
    if leaking is not None:
        raise ValueError(f"operator on mode {leaking} violates the superselection rule")
    moves = [_symbol_moves(rows) for rows in element.matrices]
    out: Dict[Tuple[int, ...], complex] = {}
    if len(moves) == 3:
        move_a, move_b, move_c = moves
        for (a, b, c), amp in state.amplitudes.items():
            for c2, w_c in move_c[c]:
                for b2, w_b in move_b[b]:
                    for a2, w_a in move_a[a]:
                        key = (a2, b2, c2)
                        out[key] = out.get(key, 0j) + amp * w_a * w_b * w_c
        return StateVector(shape, out)
    for occ, amp in state.amplitudes.items():
        partial = [((), amp)]
        for move, sym in zip(moves, occ):
            partial = [(pre + (new,), val * w) for new, w in move[sym] for pre, val in partial]
        for new_occ, val in partial:
            out[new_occ] = out.get(new_occ, 0j) + val
    return StateVector(shape, out)


def apply_on_mode(op: Sequence[Sequence[complex]], mode: int, state: StateVector) -> StateVector:
    """Act with the matrix ``op`` on one mode and the identity on the others; not renormalized."""
    modes = state.shape.modes
    if not 0 <= mode < modes:
        raise ValueError(f"mode {mode} out of range for {modes} modes")
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


@lru_cache(maxsize=None)
def _gather_offsets(shape: SystemShape) -> Tuple[np.ndarray, np.ndarray]:
    """Float64 offsets of the column gather, two ``(d, dimension, modes)`` tables.

    For output amplitude ``j`` under an operator on mode ``m``, term ``c``
    multiplies entry ``(row, c)`` of the ``d x d`` operator, ``row`` being
    the local index of mode ``m`` in state ``j``, by the amplitude of state
    ``j`` with mode ``m`` set to local index ``c``. ``sources[c, j, m]`` is
    that amplitude's offset in a column padded with one zero amplitude, at
    position ``dimension``, which stands in where the state leaves the
    sector; ``entries[c, j, m]`` is the entry's offset in the matrix. Both
    count float64 words of complex data, so one more reads the imaginary
    part. Modes run along the last axis, so taking ``modes`` there gives
    contiguous ``(d, dimension, k)`` tables.
    """
    import numpy as np

    basis = enumerate_basis(shape)
    position = basis_index(shape)
    p = shape.spin_numerator
    d = shape.local_dim
    symbols = list(range(1, shape.levels + 1)) + [0]
    sources = [
        [[position.get(occ[:m] + (sym,) + occ[m + 1 :], len(basis)) for m in range(shape.modes)] for occ in basis]
        for sym in symbols
    ]
    entries = [
        [[local_index(occ[m], p) * d + c for m in range(shape.modes)] for occ in basis] for c in range(d)
    ]
    return 2 * np.array(sources), 2 * np.array(entries)


def apply_on_mode_columns(
    ops: np.ndarray,
    modes: np.ndarray,
    columns: np.ndarray,
    shape: SystemShape,
    out: SplitComplex,
) -> SplitComplex:
    """Act on column ``t`` with each operator of ``ops[t]`` on mode ``modes[t]``; not renormalized.

    ``columns`` holds a ``(dimension, k)`` complex batch of dense states,
    ``ops`` a ``(k, n, d, d)`` complex stack of ``n`` local matrices per
    column (the outcomes of an instrument, say) and ``modes`` ``k`` mode
    numbers. The result is written into and returned as ``out``, whose
    ``(dimension, n, k)`` parts may be views, such as slots of a larger
    batch: ``[:, o, t]`` is ``ops[t, o]`` acting on column ``t``.

    Each output amplitude sums ``d`` terms, an operator entry times a source
    amplitude. The source offsets and values are gathered once for the
    batch, one ``(dimension, k)`` slice per term, and shared by the ``n``
    operators, whose entries are read by flat ``np.take`` on the float64
    words of the stack; working a term at a time keeps the temporaries
    small. A source outside the sector reads a zero, so entries mixing
    levels and the vacancy, which compliant operators do not have, are
    dropped. Products and sums round as in :func:`apply`, and a column's
    result does not depend on the rest of the batch.
    """
    import numpy as np

    k, n = ops.shape[:2]
    d, dim = shape.local_dim, shape.dimension
    if ops.shape[2:] != (d, d):
        raise ValueError(f"operators have shape {ops.shape[2:]}, expected dim {d}")
    stray = modes[(modes < 0) | (modes >= shape.modes)]
    if stray.size:
        raise ValueError(f"mode {stray[0]} out of range for {shape.modes} modes")
    sources, entries = _gather_offsets(shape)
    step = np.arange(k)
    padded = np.zeros((k, dim + 1), dtype=complex)
    padded[:, :dim] = columns.T
    amplitudes = padded.reshape(-1).view(np.float64)
    source_at = np.take(sources, modes, axis=2)
    source_at += 2 * (dim + 1) * step
    matrices = np.ascontiguousarray(ops, dtype=complex).reshape(-1).view(np.float64)
    entry_at = np.take(entries, modes, axis=2)
    entry_at += 2 * n * d * d * step
    for c in range(d):
        value = SplitComplex(amplitudes.take(source_at[c]), amplitudes[1:].take(source_at[c]))
        for o in range(n):
            words = matrices[2 * o * d * d :]
            term = SplitComplex(words.take(entry_at[c]), words[1:].take(entry_at[c])) * value
            # the terms add in order of c; another order would move last bits
            if c:
                out.re[:, o] += term.re
                out.im[:, o] += term.im
            else:
                out.re[:, o], out.im[:, o] = term.re, term.im
    return out


def sector_matrix(element: GroupElement, shape: SystemShape) -> np.ndarray:
    """Dense matrix of a compliant element on the sector basis.

    Intended for batch sweeps on small sectors; refuses dimensions past 4096
    where the dense representation stops being reasonable.
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


def occupation_scaling(r: float, phi: float = 0.0, p: int = 1) -> np.ndarray:
    """Diagonal determinant-one matrix scaling occupied levels against vacancy.

    Every occupied level is multiplied by ``r e^{i phi}`` and the vacancy by
    the compensating ``r^{-(p+1)} e^{-(p+1) i phi}``. Applied on all modes of
    an ``(n, m, p)`` sector state it rescales each amplitude by
    ``r^{(p+2)m - (p+1)n} e^{[(p+2)m - (p+1)n] i phi}``. A scale that is not
    finite and positive, or whose vacancy factor ``r^{-(p+1)}`` underflows to
    zero or overflows, a phase that is not finite, and a ``p`` that is a
    bool, not an integer or negative raise ValueError.
    """
    import numpy as np

    if not 0 < r < math.inf:
        raise ValueError(f"scale must be finite and positive, got {r}")
    if isinstance(p, bool) or not isinstance(p, (int, np.integer)):
        raise ValueError(f"p must be an integer, got {p!r}")
    p = int(p)
    if not math.isfinite(phi) or p < 0:
        raise ValueError(f"need a finite phase and p >= 0, got phi={phi}, p={p}")
    try:
        vacancy = float(r) ** -(p + 1)
    except OverflowError:
        vacancy = math.inf
    if not 0 < vacancy < math.inf:
        raise ValueError(f"scale {r} leaves the vacancy factor r^-{p + 1} = {vacancy}, not finite and nonzero")
    head = [r * np.exp(1j * phi)] * (p + 1)
    diag = head + [vacancy * np.exp(-1j * (p + 1) * phi)]
    return np.diag(diag).astype(complex)


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
    if not 0 < spread < math.inf:
        raise ValueError(f"spread must be finite and positive, got {spread}")
    if kind not in ("SLOCC", "SU"):
        raise ValueError(f"unknown element kind {kind!r}")
    import numpy as np

    rng = np.random.default_rng(seed)
    coeffs = []
    for _ in range(modes):
        imag = 1j * rng.normal(scale=spread, size=4)
        if kind == "SLOCC":
            coeffs.append(rng.normal(scale=spread, size=4) + imag)
        else:
            coeffs.append(imag)
    return make_slocc_element(coeffs)
