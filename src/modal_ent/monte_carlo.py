"""Randomized checks: monotonicity under local instruments and invariance sweeps.

The monotone checks draw random two-outcome instruments acting on a single
mode, each outcome a superselection-compliant Kraus operator, and measure
whether the outcome-averaged entanglement monotones ever exceed their input
value. Seeds form a splitmix64 tree so that any trial can be replayed in
isolation from the master seed and its index.

Each trial draws its state and instrument from the streams of
``np.random.default_rng(seed)`` for its seeds, seeded as one batch:
:func:`_seeded_draws` runs numpy's SeedSequence hash once for every seed of
the run, and each PCG64 seeds itself from its four hashed words through
:class:`_SeedWords`. From the draws to the margins a run keeps one layout,
the block rows: the real and imaginary parts of each outcome's level
entries a, b, c, d and vacancy v, by outcome, entry and trial. The
closed-form completion writes them, one check reads them, and in
:func:`_margins` one gather, :func:`_outcomes`, acts with every outcome,
and one pass of the invariant polynomials reads inputs and renormalized
outcomes as a ``(12, 3k)`` batch in :class:`SplitComplex` arithmetic.
Every step rounds only through IEEE ``+``, ``-``, ``*``, ``/`` and square
roots, and the monotones take libm's ``pow``, so the margins do not depend
on the CPU features numpy dispatches to. The gather reads each (3, 2, 1)
column by the per-mode split ``states._SPLITS``. A :class:`LocalInstrument`
is one column of block rows, checked once when it is made;
:func:`monotonicity_trial` is the kernel's one-column call on those rows,
so replaying a trial from its seeds reproduces its margins bit for bit.

The invariance sweep batches states as dense columns, moves them by every
element in one pass of the pair-block action that ``operators.apply`` and
the canonical form use too, and verifies that determinant-one elements
leave the polynomial invariants unchanged. The comparison renormalizes the
moved states first: the invariants are degree 6 and 3 in the amplitudes,
so raw differences pick up the sixth power of the amplitude growth and
would drown the signal in conditioning noise for strongly non-unitary
elements. Ratios of renormalized values stay order one.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import chain, repeat
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .invariants import MONOTONE_POWERS, _amplitude_list, _invariant_polynomials
from .operators import MEMBER_TOL, GroupElement, _leak_positions, _moved, _require_compliant
from .states import (
    _SPLITS,
    SHAPE_321,
    StateVector,
    _Frozen,
    _require_integer,
    _require_mode,
    _set,
    require_normalized,
    unit_amplitudes,
)

#: margins above this are counted as monotonicity violations
MARGIN_TOL = 1e-9

_MASK64 = (1 << 64) - 1


def _seed_array(x: Union[int, np.ndarray]) -> np.ndarray:
    """x as a uint64 array, a scalar reduced mod 2^64 into one element: numpy
    warns when a scalar wraps around but never when an array does. A float
    or a bool, or an array whose dtype is not an integer type, raises TypeError."""
    if isinstance(x, np.ndarray) and x.ndim:
        if x.dtype.kind not in "iu":
            raise TypeError(f"seed arrays must have an integer dtype, not {x.dtype}")
        return x.astype(np.uint64, copy=False)
    return np.array([_require_integer(x, "a seed") & _MASK64], dtype=np.uint64)


def derive_seed(master: Union[int, np.ndarray], index: Union[int, np.ndarray]) -> Union[int, np.ndarray]:
    """Child seed from a master seed and an index, splitmix64 style.

    The stream for index i is independent of how many other indices are in
    use, so trials can be replayed individually. Either argument may be a
    uint64 array, which gives the broadcast uint64 array of children; two
    scalars give a Python int. Ints of any size and sign are reduced mod 2^64.
    """
    z = _seed_array(master) + (_seed_array(index) + 1) * 0x9E3779B97F4A7C15
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z if np.ndim(master) or np.ndim(index) else int(z[0])


def _hash_constants(init: int, mult: int, count: int) -> Tuple[np.ndarray, np.ndarray]:
    """The xor and multiply constants of ``count`` SeedSequence hash steps,
    as two ``(count, 1)`` uint32 columns: a step xors its word with the
    running constant, advances it by ``mult`` and multiplies by the result."""
    seq = [init]
    for _ in range(count):
        seq.append(seq[-1] * mult & 0xFFFFFFFF)
    col = np.array(seq, dtype=np.uint32)[:, None]
    return col[:-1], col[1:]


# numpy's SeedSequence with a pool of four uint32 words hashes sixteen times
# while mixing: four steps fill the pool, then each source word is hashed
# once for each of the other three, which it mixes into. Eight output
# hashes, cycling the pool twice, make the four uint64 words of a PCG64 seed.
_MIX_XOR, _MIX_MULT = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_OUT_XOR, _OUT_MULT = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
# each mixing round: its source word, its three destination words and their hash constants
_ROUNDS = list(zip(range(4), np.array([[i for i in range(4) if i != src] for src in range(4)]),
                   _MIX_XOR[4:].reshape(4, 3, 1), _MIX_MULT[4:].reshape(4, 3, 1)))


def _hashmix(words: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """SeedSequence hash steps, one per row of the ``(n, 1)`` constant
    columns, broadcast against ``words``, as a new array."""
    words = (words ^ xor) * mult
    words ^= words >> _SHIFT
    return words


def _pcg64_seed_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for each uint64 seed, ``(k, 4)``.

    The pool is a ``(4, k)`` array, one column per seed, so each hash step
    runs once for the batch. A seed enters as its low and high uint32
    words; one below 2^32 is entropy ``[lo]``, which hashes like ``[lo, 0]``
    because the pool is padded with zero words.
    """
    entropy = np.zeros((4, len(seeds)), dtype=np.uint32)
    entropy[:2] = seeds.astype("<u8", copy=False).view("<u4").reshape(-1, 2).T
    pool = _hashmix(entropy, _MIX_XOR[:4], _MIX_MULT[:4])
    for src, dst, xor, mult in _ROUNDS:
        mixed = _MIX_L * pool[dst]
        mixed -= _MIX_R * _hashmix(pool[src], xor, mult)
        mixed ^= mixed >> _SHIFT
        pool[dst] = mixed
    out = _hashmix(np.concatenate([pool, pool]), _OUT_XOR, _OUT_MULT)
    return np.ascontiguousarray(out.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


class _SeedWords(ISeedSequence):
    """A seed sequence that hands PCG64 one seed's precomputed hash words.

    ``generate_state(4, np.uint64)``, PCG64's one request, returns the
    contiguous ``(4,)`` uint64 row of :func:`_pcg64_seed_words`, which is
    what ``SeedSequence(seed)`` gives there. Any other request raises
    ValueError, so a numpy that seeded PCG64 otherwise would fail, not drift.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype: type = np.uint32) -> np.ndarray:
        # the identity test spares PCG64's own request a dtype construction
        if n_words != 4 or dtype is not np.uint64 and np.dtype(dtype) != np.uint64:
            raise ValueError(f"seed words come as 4 uint64, not {n_words} {np.dtype(dtype)}")
        return self.words


def _seeded_draws(seeds: np.ndarray, widths: Sequence[int]) -> List[np.ndarray]:
    """Standard normal draws from the streams of a ``(g, k)`` uint64 seed
    array, one ``(k, widths[i])`` array per row: row ``t`` of array ``i`` is
    bit for bit ``np.random.default_rng(seeds[i, t]).standard_normal(widths[i])``.

    The SeedSequence hashes of all ``g * k`` seeds run as one uint32 batch;
    each seed's PCG64 then seeds itself, in numpy's own code, from its four
    output words through :class:`_SeedWords`. Seeds lie in ``0 .. 2^64 - 1``.
    """
    words = _pcg64_seed_words(seeds.reshape(-1))
    draws = [np.empty((seeds.shape[1], width)) for width in widths]
    # one seed sequence serves every stream, its words set before each PCG64
    # reads them; the generators are dropped after their draw
    seq = _SeedWords(words[0])
    for row, seq.words in zip(chain.from_iterable(draws), words):
        np.random.Generator(np.random.PCG64(seq)).standard_normal(out=row)
    return draws


class SplitComplex:
    """Complex numbers or arrays held as separate real and imaginary parts.

    A product takes four real products and two sums, the way Python's
    complex type rounds it; numpy's complex loops may fuse a multiply with
    an add and round differently. Batches evaluated this way reproduce the
    scalar arithmetic of :func:`~modal_ent.operators.apply` and of the
    invariant report bit for bit. That matters where an invariant vanishes:
    its roundoff is then all there is, and the fractional powers of the
    monotones magnify it.
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
        # each second product is taken into the first in place: same rounding, one array fewer
        re = self.re * other.re
        re -= self.im * other.im
        im = self.re * other.im
        im += self.im * other.re
        return SplitComplex(re, im)

    def __abs__(self):
        return np.hypot(self.re, self.im)


# the rows and columns of the block entries a, b, c, d and v of a 3 x 3 matrix
_BLOCK_ROWS, _BLOCK_COLS = [0, 0, 1, 1, 2], [0, 1, 0, 1, 2]


def _block_rows(kraus: np.ndarray) -> SplitComplex:
    """The block rows of a ``(k, outcomes, 3, 3)`` complex Kraus stack: the
    ``(outcomes, 5, k)`` real and imaginary parts of each outcome's block
    entries a, b, c, d and v."""
    entries = kraus[..., _BLOCK_ROWS, _BLOCK_COLS].transpose(1, 2, 0)
    return SplitComplex(np.ascontiguousarray(entries.real), np.ascontiguousarray(entries.imag))


def _check_instruments(blocks: SplitComplex) -> None:
    """Raise ValueError unless every instrument given by the block rows
    ``blocks`` is trace preserving: the sum of ``K^dagger K`` over its
    outcomes K is the identity within 1e-9, NaN and overflowing entries
    failing without a warning. Block rows hold no leak entries, so their
    instruments are compliant. Each batch is checked once, when a
    :class:`LocalInstrument` is made or by :func:`run_monotone_trials`."""
    n, _, k = blocks.re.shape
    # entry (j, l) of the level block sums conj(K_o[i, j]) K_o[i, l] over outcomes o and rows i
    jr, ji = (part[:, :4].reshape(n, 2, 2, 1, k) for part in (blocks.re, blocks.im))
    lr, li = jr.swapaxes(2, 3), ji.swapaxes(2, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        total_re = (jr * lr + ji * li).sum(axis=(0, 1)) - np.eye(2)[..., None]
        total_im = (jr * li - ji * lr).sum(axis=(0, 1))
        vacancy = (blocks.re[:, 4] * blocks.re[:, 4] + blocks.im[:, 4] * blocks.im[:, 4]).sum(axis=0) - 1.0
        # np.maximum and max keep a NaN, which fails the test below
        defect = np.maximum(np.hypot(total_re, total_im).max(axis=(0, 1)), abs(vacancy)).max()
    if not defect <= 1e-9:
        raise ValueError(f"instrument is not trace preserving (defect {defect:.3e})")


class LocalInstrument(_Frozen):
    """A two-outcome instrument on one mode of the (3, 2, 1) sector, read
    from a ``(2, 3, 3)`` stack of compliant Kraus operators and kept as
    their block rows, which the trial kernel reads; ``kraus`` rebuilds the
    stack, with exact zeros at the leak entries.

    The mode is kept as a Python int: a bool, a float or a string raises
    TypeError, also a ValueError, and a mode outside ``0 .. 2`` ValueError,
    as do another shape, a leak entry above ``MEMBER_TOL`` and then block
    entries that are not trace preserving."""

    __slots__ = ("mode", "seed", "_blocks")
    _args = ("mode", "kraus", "seed")
    mode: int
    seed: int
    _blocks: SplitComplex

    def __new__(cls, mode: int, kraus: np.ndarray, seed: int) -> "LocalInstrument":
        try:
            kraus = np.asarray(kraus, dtype=complex)
        except ValueError:
            raise ValueError("the Kraus operators of an instrument must share one dimension") from None
        if kraus.shape != (2, 3, 3):
            raise ValueError(f"expected a (2, 3, 3) Kraus stack, got shape {kraus.shape}")
        rows, cols = zip(*_leak_positions(3))
        # the largest leak modulus of each outcome; NaN entries give NaN
        compliant = np.abs(kraus[:, rows, cols]).max(axis=-1) <= MEMBER_TOL
        if not compliant.all():
            raise ValueError(f"outcome {np.argmin(compliant)} violates the superselection rule")
        return cls._from_blocks(mode, _block_rows(kraus[None]), seed)

    @classmethod
    def _from_blocks(cls, mode: int, blocks: SplitComplex, seed: int) -> "LocalInstrument":
        """The instrument of ``(2, 5, 1)`` block rows, which hold no leak
        entries: the one place where a mode and its rows are checked."""
        mode = _require_integer(mode, "instrument mode")
        _require_mode(mode, 3)
        _check_instruments(blocks)
        instrument = object.__new__(cls)
        _set(instrument, "mode", mode)
        _set(instrument, "seed", seed)
        _set(instrument, "_blocks", blocks)
        return instrument

    @property
    def kraus(self) -> np.ndarray:
        """The ``(2, 3, 3)`` complex Kraus stack, a new array on each read."""
        kraus = np.zeros((2, 3, 3), dtype=complex)
        kraus.real[:, _BLOCK_ROWS, _BLOCK_COLS] = self._blocks.re[..., 0]
        kraus.imag[:, _BLOCK_ROWS, _BLOCK_COLS] = self._blocks.im[..., 0]
        return kraus


#: normal draws per instrument on a spin one-half mode: the real and
#: imaginary parts of the 2 x 2 level block, then of the vacancy entry
_INSTRUMENT_WIDTH = 2 * 2 * 2 + 2

# the draws in block-row order: the real parts of a, b, c, d and v, then their imaginary parts
_DRAW_ORDER = [0, 1, 2, 3, 8, 4, 5, 6, 7, 9]


def _conj_products(parts: np.ndarray, u: slice, w: slice) -> Tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of ``conj(e_u) e_w``, summed over the two
    entry pairs that ``u`` and ``w`` pick from the ``(2, 5, k)`` parts."""
    re = parts[:, u] * parts[:, w]
    re = re[0] + re[1]
    im = parts[0, u] * parts[1, w] - parts[1, u] * parts[0, w]
    return re[0] + re[1], im[0] + im[1]


def _kraus_from_normals(z: np.ndarray, strength: float) -> SplitComplex:
    """Block rows of the random instruments drawn as the rows of ``z``, two
    ``(2, 5, k)`` parts: outcome, entry a, b, c, d or v, and instrument.

    Each row of ``z`` holds the real and imaginary parts of the level block,
    then of the vacancy. See :func:`random_instrument` for the construction,
    which runs once over the batch in IEEE ``+``, ``-``, ``*``, ``/`` and
    square roots, entry by entry, so column ``t`` is bit for bit the one-row
    call on ``z[t]``, whatever CPU features numpy dispatches to.
    """
    if not 0 <= strength < np.inf:
        raise ValueError(f"strength must be finite and non-negative, got {strength}")
    k = len(z)
    blocks = np.empty((2, 2, 5, k))
    a0, a1 = blocks[:, 0], blocks[:, 1]
    # the entries of I + strength * G, scaled by their largest modulus so
    # that no square overflows; one that does overflow makes the norm NaN
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(strength, z.T[_DRAW_ORDER].reshape(2, 5, k), out=a0)
        a0[0, [0, 3, 4]] += 1.0
        largest = abs(a0).max(axis=(0, 1))
        a0 /= largest
        # the larger eigenvalue of the level block's Gram matrix [[p, x], [x*, q]]:
        # p = |a|^2 + |b|^2, q = |c|^2 + |d|^2 and |x| = |a* c + b* d|
        squares = a0 * a0
        moduli = squares[0] + squares[1]
        p, q = moduli[0:4:2] + moduli[1:4:2]
        xr, xi = _conj_products(a0, slice(0, 2), slice(2, 4))
        sigma_sq = (p + q + np.sqrt((p - q) * (p - q) + 4.0 * (xr * xr + xi * xi))) * 0.5
        scale = np.sqrt(2.0 * np.maximum(sigma_sq, moduli[4]))
        finite = np.isfinite(scale * largest).all()
    if not finite:
        raise ValueError(f"strength {strength} overflows the instrument entries")
    a0 /= scale
    # the level block of M = I - a0^dagger a0, whose eigenvalues lie in [1/2, 1]:
    # 1 - (|a|^2 + |c|^2), 1 - (|b|^2 + |d|^2) and -(a* b + c* d)
    squares = a0 * a0
    moduli = squares[0] + squares[1]
    m11, m22 = 1.0 - (moduli[0:2] + moduli[2:4])
    m12r, m12i = (-part for part in _conj_products(a0, slice(0, 4, 2), slice(1, 4, 2)))
    # sqrt(M) = (M + sqrt(det M) I) / sqrt(tr M + 2 sqrt(det M))
    root_det = np.sqrt(m11 * m22 - (m12r * m12r + m12i * m12i))
    den = np.sqrt(m11 + m22 + 2.0 * root_det)
    a1[0, :4] = m11 + root_det, m12r, m12r, m22 + root_det
    a1[0, :4] /= den
    a1[0, 4] = np.sqrt(np.maximum(1.0 - moduli[4], 0.0))
    a1[1] = 0.0
    a1[1, 1] = m12i / den
    a1[1, 2] = -a1[1, 1]
    return SplitComplex(blocks[0], blocks[1])


def random_instrument(seed: int, mode: int, strength: float) -> LocalInstrument:
    """Random compliant instrument, a Ginibre perturbation of the identity.

    Outcome zero is ``(I + strength * G) / (sqrt(2) |I + strength * G|)``
    with G block Ginibre, spectral norm in the denominator; outcome one is
    the Hermitian square root completing the pair to a trace-preserving
    instrument. Both are closed forms, taken block by block so compliance is
    exact: the norm is the larger of the vacancy's modulus and the level
    block's largest singular value, ``sqrt((p + q + sqrt((p - q)^2 +
    4|x|^2)) / 2)`` for its Gram matrix ``[[p, x], [x*, q]]``, and the level
    block M of the second outcome's square, whose eigenvalues lie in
    [1/2, 1], has the root ``(M + sqrt(det M) I) / sqrt(tr M + 2 sqrt(det M))``.
    At strength zero both outcomes collapse to ``I / sqrt(2)``. A strength that
    is negative or not finite raises ValueError, and so does a finite one so
    large that the entries of ``I + strength * G`` or their scaled spectral
    norm overflow. The seed seeds ``np.random.default_rng``; it must be an
    integer and not a bool, else TypeError, and lie in ``0 .. 2^64 - 1``.
    The block rows of the completion become the instrument as they are,
    and the mode is refused as :class:`LocalInstrument` refuses it.
    """
    if not 0 <= _require_integer(seed, "instrument seed") <= _MASK64:
        raise ValueError(f"instrument seed must lie in 0..2^64-1, got {seed}")
    z = np.random.default_rng(seed).standard_normal(_INSTRUMENT_WIDTH)
    return LocalInstrument._from_blocks(mode, _kraus_from_normals(z[None], strength), seed)


def _state_column(state: StateVector) -> np.ndarray:
    """A normalized (3, 2, 1) state as a ``(12, 1)`` dense column."""
    require_normalized(state, "monotonicity trial")
    return np.array(_amplitude_list(state))[:, None]


# _outcomes reads a column for mode m in the order of m's split,
# states._SPLITS[m]: the four basis positions where m holds level up, their
# partners where it holds level down, then the four where m is vacant.
# _PLACE[m] inverts it, giving each basis position its row in that order.
_SPLIT_ROWS = np.array(_SPLITS)
_PLACE = _SPLIT_ROWS.argsort(axis=1)


def _outcomes(blocks: SplitComplex, modes: np.ndarray, batch: SplitComplex) -> None:
    """Act on column ``t`` of ``batch[:, 0]`` with each outcome of the block
    rows ``blocks[..., t]`` on mode ``modes[t]``, writing outcome ``o``, not
    renormalized, into ``batch[:, 1 + o]``.

    ``batch`` holds ``(12, 1 + n, k)`` parts and ``modes`` lie in ``0 .. 2``.
    One flat ``take`` reads each column in its mode's split order, where a
    level row meets each (up, down) pair and the vacancy each vacant
    amplitude, and another puts the outcomes back in basis order, rounding
    as :func:`~modal_ent.operators.apply` does, column by column.
    """
    dim, slots, k = batch.re.shape
    n = slots - 1
    step = np.arange(k)
    split = _SPLIT_ROWS.take(modes, axis=0).T * (slots * k) + step
    state = SplitComplex(batch.re.take(split), batch.im.take(split))
    # entry (o, r, c) of each level block, (n, 2, 2, 1, k), meets pair member c, (2, 4, k)
    level = SplitComplex(*(part[:, :4].reshape(n, 2, 2, 1, k) for part in (blocks.re, blocks.im)))
    terms = level * SplitComplex(state.re[:8].reshape(2, 4, k), state.im[:8].reshape(2, 4, k))
    levels = terms[:, :, 0] + terms[:, :, 1]
    vacant = blocks[:, 4:] * state[8:]
    # row j, outcome o of column t sits at (o, _PLACE[modes[t], j], t) of the (n, 12, k) result
    back = _PLACE.take(modes, axis=0).T[:, None] * k + step + (12 * k) * np.arange(n)[:, None]
    for part, level_part, vacant_part in ((batch.re, levels.re, vacant.re), (batch.im, levels.im, vacant.im)):
        part[:, 1:] = np.concatenate([level_part.reshape(n, 8, k), vacant_part], axis=1).take(back)


def _margins(psi: np.ndarray, blocks: SplitComplex, modes: np.ndarray) -> np.ndarray:
    """Monotone margins of a batch, ``(2, k)``: column ``t`` of ``psi`` meets
    the instrument of block rows ``blocks[..., t]`` on mode ``modes[t]``.

    The inputs and the outcomes fill one ``(12, 1 + outcomes, k)`` batch,
    the outcomes renormalized in place by the root of their probability,
    summed in basis order, and one invariant pass reads it. Every step acts
    column by column, so a one-column call reproduces its column of a larger
    batch bit for bit. An outcome of negligible probability adds nothing.
    """
    dim, k = psi.shape
    slots = (dim, 1 + len(blocks.re), k)
    batch = SplitComplex(np.empty(slots), np.empty(slots))
    batch.re[:, 0], batch.im[:, 0] = psi.real, psi.imag
    _outcomes(blocks, modes, batch)
    out = batch[:, 1:]
    # Python's sum adds the rows in basis order whatever the batch size;
    # np.sum may pair the terms of a single column differently.
    prob = sum(out.re * out.re + out.im * out.im)
    skip = prob < 1e-14
    norm = np.sqrt(np.where(skip, 1.0, prob))
    out.re /= norm
    out.im /= norm
    columns = SplitComplex(batch.re.reshape(dim, -1), batch.im.reshape(dim, -1))
    # raise by MONOTONE_POWERS through libm's pow, as invariant_report's
    # Python floats do; np.power rounds by the CPU features numpy dispatches
    # to, so the margins would depend on the host
    mono = np.array([
        np.fromiter(map(math.pow, abs(i).tolist(), repeat(e)), float, i.re.size)
        for i, e in zip(_invariant_polynomials(columns)[3:], MONOTONE_POWERS)
    ]).reshape(2, -1, k)
    # sum adds the outcomes in order; the last bits of the margins depend on it
    return sum(np.where(skip, 0.0, prob * mono[:, 1:]).swapaxes(0, 1)) - mono[:, 0]


def monotonicity_trial(
    state: StateVector, instrument: LocalInstrument
) -> Tuple[float, float]:
    """Outcome-averaged monotones minus the input monotones.

    Returns the margins for the two monotones ``|I1|^(1/3)`` and
    ``|I2|^(2/3)``; non-positive margins (within tolerance) are what the
    monotone property demands. Outcomes with negligible probability are
    skipped. The state must be normalized and of shape (3, 2, 1), else
    ValueError. This is the one-trial call of the kernel behind
    :func:`run_monotone_trials` on the instrument's block rows, so it
    replays a recorded trial bit for bit.
    """
    m1, m2 = _margins(_state_column(state), instrument._blocks, np.array([instrument.mode]))
    return float(m1[0]), float(m2[0])


class TrialRecord(NamedTuple):
    """One monotonicity trial: seeds, margins, verdict."""

    index: int
    seed: int
    mode: int
    margin1: float
    margin2: float
    margin: float
    passed: bool


# TrialRecord._make less its length check; each record row has the seven fields
_record = partial(tuple.__new__, TrialRecord)


class MonteCarloSummary(NamedTuple):
    """Aggregate of a monotonicity run; failures counts margins above tolerance."""

    trials: int
    failures: int
    max_margin: float
    records: Tuple[TrialRecord, ...]


def run_monotone_trials(
    trials: int,
    master_seed: int,
    strength: float = 0.5,
    state: Optional[StateVector] = None,
) -> MonteCarloSummary:
    """Monotonicity margins over a tree of seeded random trials.

    Per trial, the child seed fans out into a state seed (ignored when a
    fixed state is supplied), an instrument seed and a mode choice. The
    seed tree, the streams and the evaluation each run as one batch;
    records come back in index order. A fixed state must meet the
    preconditions of :func:`monotonicity_trial` and is checked before
    anything is drawn. ``trials`` and ``master_seed`` must be integers,
    numpy integers included: a float or a bool for either raises TypeError.

    The state only scales the margins. A compliant matrix A on one mode
    multiplies I1 by det(A)^2 and I2 by det(A), and both monotones are
    homogeneous of degree 2 in the amplitudes, so for either monotone M a
    trial's margin is ``M(psi) * c``, with ``c = sum_i |det A_i|^(2/3) - 1``
    over the instrument's outcomes A_i. By AM-GM, ``c <= 0``, with equality
    exactly when every A_i is a multiple of a unitary. The trials still
    compute the invariants of the actual outcome states, so they check this
    identity rather than assume it.
    """
    trials = _require_integer(trials, "trials")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    seeds = derive_seed(master_seed, np.arange(trials, dtype=np.uint64))
    # the state, instrument and mode seeds of every trial, one row each
    children = derive_seed(seeds, np.arange(3, dtype=np.uint64)[:, None])
    if state is None:
        z, draws = _seeded_draws(children[:2], [2 * SHAPE_321.dimension, _INSTRUMENT_WIDTH])
        psi = unit_amplitudes(z).T
    else:
        psi = np.repeat(_state_column(state), trials, axis=1)
        (draws,) = _seeded_draws(children[1:2], [_INSTRUMENT_WIDTH])
    blocks = _kraus_from_normals(draws, strength)
    _check_instruments(blocks)
    modes = (children[2] % np.uint64(3)).astype(np.intp)
    m1, m2 = _margins(psi, blocks, modes)
    margins = np.maximum(m1, m2)
    worst = margins.tolist()
    passed = (margins <= MARGIN_TOL).tolist()
    records = zip(range(trials), seeds.tolist(), modes.tolist(), m1.tolist(), m2.tolist(), worst, passed)
    return MonteCarloSummary(
        trials=trials,
        failures=passed.count(False),
        max_margin=max(worst),
        records=tuple(map(_record, records)),
    )


def invariance_sweep(
    states: Iterable[StateVector],
    elements: Iterable[GroupElement],
) -> Tuple[float, float]:
    """Worst relative drift of I1 and I2 under a batch of group elements.

    The states, each of shape (3, 2, 1), are stacked as the dense columns
    of a ``(12, k)`` batch, one copy per element; one pass of the pair-block
    action ``operators._moved`` moves copy ``j`` by element ``j``. Moved
    states are renormalized, each column's squared moduli summed in basis
    order so that a state's drift does not depend on the states swept
    beside it, and compared against the inputs' invariants
    rescaled by the predicted norm powers, 6 for I1 and 3 for I2. For
    determinant-one elements both drifts are pure roundoff; elements with
    other determinants show up at order one. No states or no elements, a
    state that is zero or not finite, and an element of the wrong shape or
    not compliant raise ValueError; an element that overflows or
    annihilates a state, or a state whose predicted invariants leave the
    float range, raises ArithmeticError, checked element by element in the
    order given.
    """
    columns = [_amplitude_list(s) for s in states]
    if not columns:
        raise ValueError("invariance sweep needs at least one state column")
    psi = np.array(columns).T
    if not np.isfinite(psi).all():
        raise ValueError("state columns must be finite")
    zero = np.flatnonzero(~psi.any(axis=0))
    if zero.size:
        raise ValueError(f"state column {zero[0]} is zero")
    # with no elements the sweep would report a perfect (0.0, 0.0)
    elements = list(elements)
    if not elements:
        raise ValueError("invariance sweep needs at least one group element")
    blocks = [_require_compliant(g, SHAPE_321) for g in elements]
    n, k = len(elements), psi.shape[1]
    # the level entries a, b, c, d and the vacancy v of each mode, as
    # (5, 3, n k) arrays: each element's entries repeated over its k columns
    a, b, c, d, v = np.repeat(
        np.array([[(*top, *bottom, w) for (top, bottom), w in rows] for rows in blocks]).T, k, axis=2
    )
    with np.errstate(over="ignore", invalid="ignore"):
        i1_in, i2_in = _invariant_polynomials(psi)[3:]
    # max() below drops a NaN drift and would report a clean sweep, so an
    # overflowing product or a predicted invariant out of range is refused
    # rather than warned about
    with np.errstate(all="ignore"):
        moved = np.array(_moved(np.hstack([psi] * n), [(((a[m], b[m]), (c[m], d[m])), v[m]) for m in range(3)]))
        # Python's sum adds the rows in basis order whatever the batch size
        norms = np.sqrt(sum(moved.real * moved.real + moved.imag * moved.imag))
        i1_out, i2_out = _invariant_polynomials(moved / norms)[3:]
        # row j of each (n, k) array: the states as element j moved them
        norms = norms.reshape(n, k)
        want1, want2 = i1_in / norms**6, i2_in / norms**3
        dev1 = (np.abs(i1_out.reshape(n, k) - want1) / np.maximum(1.0, np.abs(want1))).max(axis=1)
        dev2 = (np.abs(i2_out.reshape(n, k) - want2) / np.maximum(1.0, np.abs(want2))).max(axis=1)
    for element_norms, d1, d2 in zip(norms, dev1.tolist(), dev2.tolist()):
        if not np.isfinite(element_norms).all():
            raise ArithmeticError("group element overflowed a state")
        if np.any(element_norms <= 0):
            raise ArithmeticError("group element annihilated a state")
        if not (math.isfinite(d1) and math.isfinite(d2)):
            raise ArithmeticError("the predicted invariants of a moved state are not finite")
    return max(0.0, *dev1.tolist()), max(0.0, *dev2.tolist())
