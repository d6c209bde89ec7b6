"""Occupation-sequence basis and state vectors for hard-core mode systems.

A system here consists of ``n`` spatial modes holding ``m`` identical
particles, each particle carrying ``p + 1`` internal levels, with at most one
particle per mode. A mode is therefore a ``(p + 2)``-dimensional site: the
``p + 1`` occupied levels plus the vacancy. Basis vectors are length-``n``
symbol tuples with exactly ``m`` nonzero entries, symbol ``0`` marking an
empty mode and symbol ``k`` (``1 <= k <= p + 1``) the k-th internal level.
For ``p = 1`` the two levels are spin-up (``1``) and spin-down (``2``).

Local matrices act on a mode in level-major order: matrix index ``0 .. p``
is level ``1 .. p + 1`` and the last index is the vacancy.

This module owns three decisions that the other modules share:

* the layout every state computes on, which no other module reads: its
  support, occupations in basis order, beside its amplitudes there as
  Python complex numbers. The support is the whole basis in (3, 2, 1),
  whose pair-block kernels index by position, and the state's own
  occupations elsewhere (``_layout``), so the order of a map changes no
  result;
* the ray fit, :func:`phase_fit`, which reads the ratio of two states at the
  reference state's largest amplitude, the first in basis order on a tie,
  and checks the residual against it; the stabilizer verdicts and the
  topological phases both go through it;
* the normalised-input precondition, :func:`require_normalized`.

It also holds the base of the package's checked value classes,
``_Frozen``: :class:`StateVector`, ``operators.GroupElement`` and
``monte_carlo.LocalInstrument`` keep their fields in slots, set once when
the constructor has checked them, and refuse any later assignment.
:class:`SystemShape` is a named tuple whose constructor checks it, and the
records that the library returns are named tuples too. Neither kind of
class generates code when it is defined or needs ``inspect``, so a command
line call does not pay for either at start-up.

The (3, 2, 1) pair blocks, the 2x2 blocks of amplitudes that two modes
hold jointly, are listed here once: ``_AB``, ``_BC`` and ``_AC`` give their
basis positions, and ``_PAIRS`` adds each block's row, column and vacant
modes, for the element action of ``operators`` and for the invariants.

A state keeps its norm, its layout and, through :mod:`modal_ent.invariants`,
its pair polynomials or invariant report in private slots, filled on first
use and left out of its repr; the amplitudes must not change after
construction, so none of them goes stale.

Loading this module loads no numpy. States, norms and the single-mode
reductions are Python numbers; numpy enters only inside the calls that
make or read arrays, :meth:`StateVector.dense` and
:func:`unit_amplitudes`, and through the generator :func:`random_state`
draws from.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, NamedTuple, Tuple

if TYPE_CHECKING:
    import numpy as np

#: amplitudes below this modulus are treated as structurally zero
ZERO_TOL = 1e-12

#: tolerance on norm == 1 for preconditions that require normalized input
NORM_TOL = 1e-9

#: sectors up to this dimension check state keys against the listed basis
LISTED_DIMENSION = 4096

Occupation = Tuple[int, ...]


def _require_integer(value: int, what: str) -> int:
    """``value`` as a Python int; a bool, or anything else not an integer, raises ValueError."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


class _ShapeFields(NamedTuple):
    modes: int
    particles: int
    spin_numerator: int


_FIELD_LABELS = tuple(f"shape field {name!r}" for name in _ShapeFields._fields)


class SystemShape(_ShapeFields):
    """Mode count, particle count and spin numerator of a sector.

    A named triple of Python ints, checked when it is made. It equals only
    a SystemShape with the same fields, never a plain tuple, and hashes as
    the triple of its fields; the ``lru_cache`` keys of the basis tables
    rest on both.
    """

    __slots__ = ()

    def __new__(cls, modes: int, particles: int, spin_numerator: int) -> "SystemShape":
        modes, particles, spin_numerator = map(_require_integer, (modes, particles, spin_numerator), _FIELD_LABELS)
        if modes < 1:
            raise ValueError(f"need at least one mode, got {modes}")
        if not 0 <= particles <= modes:
            raise ValueError(f"particles must lie in 0..modes, got m={particles} for n={modes}")
        if spin_numerator < 0:
            raise ValueError(f"spin numerator must be non-negative, got {spin_numerator}")
        return tuple.__new__(cls, (modes, particles, spin_numerator))

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> "SystemShape":
        # namedtuple's own _make, which _replace calls, would skip the checks
        return cls(*iterable)

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return other.__class__ is not self.__class__ or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__

    @property
    def levels(self) -> int:
        """Number of occupied internal levels per mode, ``p + 1``."""
        return self.spin_numerator + 1

    @property
    def local_dim(self) -> int:
        """Local Hilbert dimension per mode, levels plus vacancy."""
        return self.spin_numerator + 2

    @property
    def dimension(self) -> int:
        """Sector dimension ``C(n, m) * (p + 1)**m``."""
        return math.comb(self.modes, self.particles) * self.levels**self.particles


#: the two-particle, three-mode, spin-1/2 sector used throughout
SHAPE_321 = SystemShape(3, 2, 1)


def local_index(symbol: int, spin_numerator: int) -> int:
    """Map an occupation symbol to its level-major local matrix index."""
    return spin_numerator + 1 if symbol == 0 else symbol - 1


@lru_cache(maxsize=None)
def enumerate_basis(shape: SystemShape) -> Tuple[Occupation, ...]:
    """All admissible occupation sequences of ``shape`` in lexicographic order."""
    n, m, levels = shape.modes, shape.particles, shape.levels
    out: list[Occupation] = []
    prefix: list[int] = []

    def extend(left: int, need: int) -> None:
        if left == 0:
            out.append(tuple(prefix))
            return
        if need < left:
            prefix.append(0)
            extend(left - 1, need)
            prefix.pop()
        if need > 0:
            for sym in range(1, levels + 1):
                prefix.append(sym)
                extend(left - 1, need - 1)
                prefix.pop()

    extend(n, m)
    return tuple(out)


@lru_cache(maxsize=None)
def basis_index(shape: SystemShape) -> Mapping[Occupation, int]:
    """Occupation sequence -> position in :func:`enumerate_basis`."""
    return {occ: i for i, occ in enumerate(enumerate_basis(shape))}


@lru_cache(maxsize=None)
def _listed_index(shape: SystemShape) -> Mapping[Occupation, int]:
    """:func:`basis_index` of a sector of at most LISTED_DIMENSION, and an
    empty map for a larger one, whose basis is never listed."""
    return basis_index(shape) if shape.dimension <= LISTED_DIMENSION else {}


_IDX = basis_index(SHAPE_321)

# Basis positions of the (3, 2, 1) pair blocks AB, BC and AC, each read
# row-major as (uu, ud, du, dd): the row is the level of the block's first
# mode, the column the level of its second.
_AB, _BC, _AC = (
    tuple(_IDX[occ] for occ in block)
    for block in (
        ((1, 1, 0), (1, 2, 0), (2, 1, 0), (2, 2, 0)),
        ((0, 1, 1), (0, 1, 2), (0, 2, 1), (0, 2, 2)),
        ((1, 0, 1), (1, 0, 2), (2, 0, 1), (2, 0, 2)),
    )
)

# Each pair block with its row mode, its column mode and its vacant third mode.
_PAIRS = ((_AB, 0, 1, 2), (_BC, 1, 2, 0), (_AC, 0, 2, 1))

# Each mode's split of the (3, 2, 1) basis positions: the four where it holds
# level up, in basis order, the four where it holds level down, each beside
# its up partner, then the four where it is vacant.
_SPLITS = tuple(tuple(j for sym in (1, 2, 0) for occ, j in _IDX.items() if occ[m] == sym) for m in range(3))


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


def _check_admissible(shape: SystemShape, occ: Occupation) -> None:
    if len(occ) != shape.modes:
        raise ValueError(f"occupation {occ!r} has {len(occ)} modes, expected {shape.modes}")
    occupied = 0
    for sym in occ:
        if not 0 <= sym <= shape.levels:
            raise ValueError(f"occupation {occ!r} carries symbol {sym} outside 0..{shape.levels}")
        if sym:
            occupied += 1
    if occupied != shape.particles:
        raise ValueError(
            f"occupation {occ!r} holds {occupied} particles, expected {shape.particles}"
        )


_set = object.__setattr__


class _Frozen:
    """Base of the checked value classes: each sets its slots once, in
    ``__init__``, and refuses every later assignment; a private cache slot
    starts as None there and is filled once, on first use. The repr shows
    the public slots only. Equality is identity."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name[0] != "_")
        return f"{type(self).__name__}({fields})"


class StateVector(_Frozen):
    """Complex amplitudes over the admissible occupation sequences.

    The amplitude map is owned by the instance after construction and must
    not be mutated by the caller; the state computes on its layout,
    :meth:`_entries`. Every key must be an admissible occupation sequence
    of ``shape``: the right mode count, symbols in ``0 .. p + 1`` and the
    right particle count, else ValueError names what is wrong. In sectors
    of at most LISTED_DIMENSION a key is accepted by one lookup in the
    cached :func:`basis_index`, which equal numpy integers also pass; only
    a miss, and every key of a larger sector, is checked field by field.
    """

    __slots__ = ("shape", "_map", "_support", "_amps", "_norm", "_invariants")
    shape: SystemShape

    def __init__(self, shape: SystemShape, amplitudes: Dict[Occupation, complex]) -> None:
        listed = _listed_index(shape)
        for occ in amplitudes:
            if occ not in listed:
                _check_admissible(shape, occ)
        _set(self, "shape", shape)
        _set(self, "_map", amplitudes)
        _set(self, "_support", None)
        _set(self, "_amps", None)
        _set(self, "_norm", None)
        _set(self, "_invariants", None)

    @classmethod
    def _from_amplitudes(cls, shape: SystemShape, amps: Iterable[complex], support=None) -> "StateVector":
        """The state of ``shape`` with amplitudes ``amps``, Python complex
        numbers with each zero stored as ``0j``, on ``support``: unchecked
        occupations in basis order, or the whole basis when None."""
        state = object.__new__(cls)
        _set(state, "shape", shape)
        _set(state, "_map", None)
        _set(state, "_support", enumerate_basis(shape) if support is None else support)
        _set(state, "_amps", tuple([a if a else 0j for a in amps]))
        _set(state, "_norm", None)
        _set(state, "_invariants", None)
        return state

    @property
    def amplitudes(self) -> Dict[Occupation, complex]:
        """Occupation -> amplitude: the map the state was built from, or
        the nonzero entries of its layout in basis order."""
        if self._map is None:
            _set(self, "_map", {occ: a for occ, a in zip(self._support, self._amps) if a})
        return self._map

    def __repr__(self) -> str:
        return f"StateVector(shape={self.shape!r}, amplitudes={self.amplitudes!r})"

    def amplitude(self, occ: Iterable[int]) -> complex:
        return self.amplitudes.get(tuple(occ), 0j)

    def norm(self) -> float:
        """The Euclidean norm, summed in basis order, computed on the first call and kept."""
        if self._norm is None:
            _set(self, "_norm", math.sqrt(_squared_norm(self._basis_amplitudes())))
        return self._norm

    def _entries(self) -> Tuple[Tuple[Occupation, ...], Tuple[complex, ...]]:
        """The support and the amplitudes on it; a map is laid out on the
        first call and kept as tuples, which no caller can change."""
        if self._amps is None:
            amps, support = _layout(self.shape, self._map)
            _set(self, "_amps", tuple(map(complex, amps)))
            _set(self, "_support", support)
        return self._support, self._amps

    def _basis_amplitudes(self) -> Tuple[complex, ...]:
        """The amplitudes of :meth:`_entries`; in (3, 2, 1) all twelve, in basis order."""
        return self._entries()[1]

    def dense(self) -> np.ndarray:
        """Dense vector in :func:`enumerate_basis` order."""
        import numpy as np

        vec = np.zeros(_dense_dimension(self.shape), dtype=complex)
        support, amps = self._entries()
        index = basis_index(self.shape)
        vec[[index[occ] for occ in support]] = amps
        return vec

    @classmethod
    def from_dense(cls, shape: SystemShape, vec: np.ndarray) -> "StateVector":
        dim = _dense_dimension(shape)
        if len(vec) != dim:
            raise ValueError(f"vector length {len(vec)} does not match dimension {dim}")
        return cls._from_amplitudes(shape, map(complex, vec))


def _layout(shape: SystemShape, mapping: Mapping[Occupation, complex]) -> Tuple[list, Tuple[Occupation, ...]]:
    """The values of a map on its support: the whole basis in (3, 2, 1),
    with ``0j`` where the map has no entry, else the map's occupations
    sorted, which is basis order."""
    support = enumerate_basis(shape) if shape == SHAPE_321 else tuple(sorted(mapping))
    get = mapping.get
    return [get(occ, 0j) for occ in support], support


def _dense_dimension(shape: SystemShape) -> int:
    """The dimension of ``shape``, refused before any listing past LISTED_DIMENSION."""
    dim = shape.dimension
    if dim > LISTED_DIMENSION:
        raise ValueError(f"sector dimension {dim} too large for a dense vector")
    return dim


def _squared_norm(amplitudes: Iterable[complex]) -> float:
    """Sum of ``abs(a) ** 2``, or inf once a term overflows, as a finite
    amplitude above about 1.3e154 does."""
    try:
        return sum([abs(a) ** 2 for a in amplitudes])
    except OverflowError:
        return math.inf


def require_normalized(state: StateVector, what: str) -> None:
    """Raise ValueError, naming ``what``, unless the state has unit norm.

    The test is written so that a NaN amplitude fails it.
    """
    if not abs(state.norm() - 1.0) <= NORM_TOL:
        raise ValueError(f"{what} expects a normalized state")


def _require_mode(mode: int, modes: int) -> None:
    """Raise ValueError unless ``mode`` is one of ``0 .. modes - 1``."""
    if not 0 <= mode < modes:
        raise ValueError(f"mode {mode} out of range for {modes} modes")


def reduced_density_matrix(state: StateVector, mode: int) -> List[List[complex]]:
    """Partial trace of ``|state><state|`` onto one mode, level-major indexed.

    Returns the ``d x d`` matrix, ``d = p + 2``, as nested lists of Python
    complex numbers: entry ``(i, j)`` sums ``a * conj(b)`` over the pairs of
    amplitudes whose other modes agree and whose own symbols have local
    indices i and j, levels first and vacancy last: for a (3, 2, 1) state
    the Gram matrix of the level rows of the mode's split, and the squared
    norm of its vacant positions. Other sectors group their support in
    basis order, so the cost follows the support rather than the sector
    dimension. The state must be normalized, and a mode outside
    ``0 .. n - 1`` raises ValueError.
    """
    shape = state.shape
    _require_mode(mode, shape.modes)
    require_normalized(state, "reduced_density_matrix")
    support, amps = state._entries()
    if shape == SHAPE_321:
        split = [amps[j] for j in _SPLITS[mode]]
        levels, vacant = (split[:4], split[4:8]), split[8:]
        rho = [[sum([a * b.conjugate() for a, b in zip(r, c)], 0j) for c in levels] + [0j] for r in levels]
        return rho + [[0j, 0j, sum([a * a.conjugate() for a in vacant], 0j)]]
    p = shape.spin_numerator
    columns: Dict[Occupation, List[Tuple[int, complex]]] = {}
    for occ, amp in zip(support, amps):
        columns.setdefault(occ[:mode] + occ[mode + 1 :], []).append((local_index(occ[mode], p), amp))
    rho = [[0j] * shape.local_dim for _ in range(shape.local_dim)]
    for entries in columns.values():
        for i, a in entries:
            for j, b in entries:
                rho[i][j] += a * b.conjugate()
    return rho


def is_maximally_entangled(state: StateVector, tol: float = 1e-12) -> bool:
    """True iff every single-mode reduction is within ``tol`` of I/(p+2)."""
    d = state.shape.local_dim
    for mode in range(state.shape.modes):
        rho = reduced_density_matrix(state, mode)
        for i, row in enumerate(rho):
            for j, entry in enumerate(row):
                if abs(entry - (1.0 / d if i == j else 0.0)) > tol:
                    return False
    return True


def normalize(state: StateVector) -> StateVector:
    """The state divided by its norm; a zero norm, and one that overflows
    or is NaN, raise ValueError."""
    nrm = state.norm()
    if nrm < ZERO_TOL:
        raise ValueError("cannot normalize a zero state vector")
    if not nrm < math.inf:
        raise ValueError(f"cannot normalize a state whose norm is {nrm}")
    support, amps = state._entries()
    return StateVector._from_amplitudes(state.shape, [a / nrm for a in amps], support)


def phase_fit(state: StateVector, moved: StateVector, tol: float) -> Tuple[bool, complex]:
    """Ratio c with ``moved ~= c * state``, and whether that fit holds within tol.

    c is read off the largest-modulus amplitude of ``state``, the first in
    basis order on a tie, and is not rescaled to unit modulus. The fit
    holds when the residual ``||moved - c state||``, summed in basis order,
    is at most ``tol * ||state||``; two states on different supports are
    compared on their union, with ``0j`` where a state has no entry. A zero
    reference state, or one whose norm overflows, raises ValueError.
    """
    if state.shape != moved.shape:
        raise ValueError(f"shape mismatch: {state.shape} vs {moved.shape}")
    norm = state.norm()
    if norm < ZERO_TOL:
        raise ValueError("cannot compare against the zero state")
    if norm == math.inf:
        raise ValueError("cannot compare against a state whose norm overflows")
    support, before = state._entries()
    other, after = moved._entries()
    if support != other:
        mine, theirs = dict(zip(support, before)), dict(zip(other, after))
        union = sorted(mine.keys() | theirs.keys())
        before, after = [mine.get(occ, 0j) for occ in union], [theirs.get(occ, 0j) for occ in union]
    anchor = max(range(len(before)), key=lambda k: abs(before[k]))
    c = after[anchor] / before[anchor]
    residual = math.sqrt(sum([abs(a - c * b) ** 2 for a, b in zip(after, before)]))
    return residual <= tol * norm, c


def unit_amplitudes(z: np.ndarray) -> np.ndarray:
    """Unit complex rows from a ``(k, 2 * dim)`` array of normal draws.

    Each row holds the real parts, then the imaginary parts, of its
    amplitudes. The squared norm is summed along the row, so a row does not
    depend on how many others are turned with it.
    """
    import numpy as np

    dim = z.shape[1] // 2
    return (z[:, :dim] + 1j * z[:, dim:]) / np.sqrt((z * z).sum(axis=1))[:, None]


def random_state(shape: SystemShape, rng: np.random.Generator) -> StateVector:
    """Normalized state with i.i.d. complex Gaussian amplitudes on every slot."""
    z = rng.standard_normal(2 * shape.dimension)[None]
    return StateVector.from_dense(shape, unit_amplitudes(z)[0])
