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

* the ray fit, :func:`phase_fit`, which reads the ratio of two states at the
  reference state's largest amplitude and checks the residual against it;
  the stabilizer verdicts, the topological phases and the contraction
  witnesses all go through it;
* the split of a state into one mode against the rest, :func:`mode_matrix`,
  from which the single-mode reduction and the single-mode product test are
  read;
* the normalised-input precondition, :func:`require_normalized`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Mapping, Tuple

import numpy as np

#: amplitudes below this modulus are treated as structurally zero
ZERO_TOL = 1e-12

#: tolerance on norm == 1 for preconditions that require normalized input
NORM_TOL = 1e-9

#: sectors up to this dimension check state keys against the listed basis
LISTED_DIMENSION = 4096

Occupation = Tuple[int, ...]


@dataclass(frozen=True)
class SystemShape:
    """Mode count, particle count and spin numerator of a sector."""

    modes: int
    particles: int
    spin_numerator: int

    def __post_init__(self) -> None:
        if self.modes < 1:
            raise ValueError(f"need at least one mode, got {self.modes}")
        if not 0 <= self.particles <= self.modes:
            raise ValueError(
                f"particles must lie in 0..modes, got m={self.particles} for n={self.modes}"
            )
        if self.spin_numerator < 0:
            raise ValueError(f"spin numerator must be non-negative, got {self.spin_numerator}")

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


@dataclass(frozen=True, eq=False)
class StateVector:
    """Sparse complex amplitudes over the admissible occupation sequences.

    The amplitude map is owned by the instance after construction and must
    not be mutated by the caller. Every key must be an admissible occupation
    sequence of ``shape``: the right mode count, symbols in ``0 .. p + 1``
    and the right particle count, else ValueError names what is wrong. In
    sectors of at most LISTED_DIMENSION a key is accepted by one lookup in
    the cached :func:`basis_index`, which equal numpy integers also pass;
    only a miss, and every key of a larger sector, is checked field by field.
    """

    shape: SystemShape
    amplitudes: Dict[Occupation, complex]

    def __post_init__(self) -> None:
        shape = self.shape
        listed = basis_index(shape) if shape.dimension <= LISTED_DIMENSION else {}
        for occ in self.amplitudes:
            if occ not in listed:
                _check_admissible(shape, occ)

    def amplitude(self, occ: Iterable[int]) -> complex:
        return self.amplitudes.get(tuple(occ), 0j)

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    def dense(self) -> np.ndarray:
        """Dense vector in :func:`enumerate_basis` order."""
        idx = basis_index(self.shape)
        vec = np.zeros(self.shape.dimension, dtype=complex)
        for occ, amp in self.amplitudes.items():
            vec[idx[occ]] = amp
        return vec

    @classmethod
    def from_dense(cls, shape: SystemShape, vec: np.ndarray) -> "StateVector":
        basis = enumerate_basis(shape)
        if len(vec) != len(basis):
            raise ValueError(f"vector length {len(vec)} does not match dimension {len(basis)}")
        return cls(shape, {occ: complex(v) for occ, v in zip(basis, vec) if v != 0})


def require_normalized(state: StateVector, what: str) -> None:
    """Raise ValueError, naming ``what``, unless the state has unit norm.

    The test is written so that a NaN amplitude fails it.
    """
    if not abs(state.norm() - 1.0) <= NORM_TOL:
        raise ValueError(f"{what} expects a normalized state")


def mode_matrix(state: StateVector, mode: int) -> np.ndarray:
    """The amplitudes as a matrix M of one mode against the rest of the system.

    Rows follow the mode's local index, levels first and vacancy last;
    columns are the occupations of the other modes, in order of first
    appearance. The single-mode reduction is ``M M^H``, and the mode factors
    out of the state exactly when M has rank at most one.
    """
    shape = state.shape
    if not 0 <= mode < shape.modes:
        raise ValueError(f"mode {mode} out of range for {shape.modes} modes")
    p = shape.spin_numerator
    columns: Dict[Occupation, int] = {}
    entries = []
    for occ, amp in state.amplitudes.items():
        col = columns.setdefault(occ[:mode] + occ[mode + 1 :], len(columns))
        entries.append((local_index(occ[mode], p), col, amp))
    mat = np.zeros((shape.local_dim, len(columns)), dtype=complex)
    for row, col, amp in entries:
        mat[row, col] = amp
    return mat


def reduced_density_matrix(state: StateVector, mode: int) -> np.ndarray:
    """Partial trace of ``|state><state|`` onto one mode, level-major indexed.

    Returns the ``d x d`` ndarray ``M M^H`` for the :func:`mode_matrix` M,
    with ``d = p + 2``, so the cost follows the sparse support rather than
    the sector dimension. The state must be normalized.
    """
    m = mode_matrix(state, mode)
    require_normalized(state, "reduced_density_matrix")
    return m @ m.conj().T


def is_maximally_entangled(state: StateVector, tol: float = 1e-12) -> bool:
    """True iff every single-mode reduction is within ``tol`` of I/(p+2)."""
    d = state.shape.local_dim
    target = np.eye(d) / d
    for mode in range(state.shape.modes):
        rho = reduced_density_matrix(state, mode)
        if np.max(np.abs(rho - target)) > tol:
            return False
    return True


def normalize(state: StateVector) -> StateVector:
    nrm = state.norm()
    if nrm < ZERO_TOL:
        raise ValueError("cannot normalize a zero state vector")
    return StateVector(state.shape, {occ: amp / nrm for occ, amp in state.amplitudes.items()})


def phase_fit(state: StateVector, moved: StateVector, tol: float) -> Tuple[bool, complex]:
    """Ratio c with ``moved ~= c * state``, and whether that fit holds within tol.

    c is read off the largest-modulus amplitude of ``state`` and is not
    rescaled to unit modulus. The fit holds when the residual
    ``||moved - c state||`` is at most ``tol * ||state||``. A zero reference
    state raises ValueError.
    """
    if state.shape != moved.shape:
        raise ValueError(f"shape mismatch: {state.shape} vs {moved.shape}")
    norm = state.norm()
    if norm < ZERO_TOL:
        raise ValueError("cannot compare against the zero state")
    anchor = max(state.amplitudes, key=lambda occ: abs(state.amplitudes[occ]))
    c = moved.amplitude(anchor) / state.amplitudes[anchor]
    keys = set(state.amplitudes) | set(moved.amplitudes)
    residual = math.sqrt(sum(abs(moved.amplitude(k) - c * state.amplitude(k)) ** 2 for k in keys))
    return residual <= tol * norm, c


def unit_amplitudes(z: np.ndarray) -> np.ndarray:
    """Unit complex rows from a ``(k, 2 * dim)`` array of normal draws.

    Each row holds the real parts, then the imaginary parts, of its
    amplitudes. The squared norm is summed along the row, so a row does not
    depend on how many others are turned with it.
    """
    dim = z.shape[1] // 2
    return (z[:, :dim] + 1j * z[:, dim:]) / np.sqrt((z * z).sum(axis=1))[:, None]


def random_state(shape: SystemShape, rng: np.random.Generator) -> StateVector:
    """Normalized state with i.i.d. complex Gaussian amplitudes on every slot."""
    z = rng.standard_normal(2 * shape.dimension)[None]
    return StateVector.from_dense(shape, unit_amplitudes(z)[0])
