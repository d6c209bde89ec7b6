"""Randomized checks: monotonicity under local instruments and invariance sweeps.

The monotone checks draw random two-outcome instruments acting on a single
mode, each outcome a superselection-compliant Kraus operator, and measure
whether the outcome-averaged entanglement monotones ever exceed their input
value. Seeds form a splitmix64 tree so that any trial can be replayed in
isolation from the master seed and its index.

Each trial's state and instrument are drawn from their own streams, those of
``np.random.default_rng(seed)`` for the trial's seeds, but the streams are
seeded as one batch: :func:`_seeded_draws` runs numpy's SeedSequence hash
once for the state and instrument seeds of every trial, and each PCG64 seeds
itself from its seed's four hashed words through :class:`_SeedWords`, so
every draw is bit for bit the one ``default_rng`` gives;
:func:`random_instrument`, which replays a single instrument, draws from
``default_rng`` itself. The seed tree, too, runs as one uint64 batch,
the three child seeds of every trial in one broadcast. Everything after the
draws runs once over the whole run: the instruments are completed in
closed form as one ``(k, 2, 3, 3)`` Kraus stack, and in :func:`_margins`
one index gather, :func:`_outcomes`, acts with both outcomes, and one pass
of the invariant polynomials reads the inputs and both renormalized
outcomes as a ``(12, 3k)`` column batch in :class:`SplitComplex`
arithmetic. The completion and the gather round only through IEEE ``+``,
``-``, ``*``, ``/`` and square roots, and the monotones take libm's
``pow``, not numpy's array power, so the margins do not depend on the CPU
features numpy dispatches to. This batch layer lives here, beside its one
user, and is written for the (3, 2, 1) sector alone: the gather reads each
column by the per-mode split ``states._SPLITS``, which the single-mode
reductions read too, as one array built when the module loads.
:func:`monotonicity_trial` is its one-column call, so replaying a trial
from its seeds reproduces the record's margins bit for bit; it is also the
one public path by which a user-built instrument reaches the kernel, and
checks on the way in that the instrument's dimension and mode fit the
sector. :class:`LocalInstrument` has already checked, when it was built,
that its mode is a non-negative integer.

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
import operator
from itertools import chain, repeat
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .invariants import MONOTONE_POWERS, _amplitude_list, _invariant_polynomials
from .operators import MEMBER_TOL, GroupElement, _leak_positions, _moved, _require_shape
from .states import (
    _SPLITS,
    SHAPE_321,
    StateVector,
    _Frozen,
    _require_mode,
    _set,
    require_normalized,
    unit_amplitudes,
)

#: margins above this are counted as monotonicity violations
MARGIN_TOL = 1e-9

_MASK64 = (1 << 64) - 1


def _integer(x: int, what: str) -> int:
    """x as a Python int; a bool, numpy's included, a float or a string
    raises TypeError naming ``what``."""
    if isinstance(x, (bool, np.bool_)):
        raise TypeError(f"{what} must be an integer, not a bool")
    try:
        return operator.index(x)
    except TypeError:
        raise TypeError(f"{what} must be an integer, not {type(x).__name__}") from None


def _wrapping(x: Union[int, np.ndarray]) -> Union[int, np.ndarray]:
    """x as a uint64 array if it is a non-scalar array, else as a Python int.

    numpy warns when a scalar wraps around but never when an array does, so
    the seed arithmetic runs on arrays or on Python ints, never on numpy
    scalars. A scalar that is not an integer, such as a float or a bool, or
    an array whose dtype is not an integer type raises TypeError.
    """
    if isinstance(x, np.ndarray) and x.ndim:
        if x.dtype.kind not in "iu":
            raise TypeError(f"seed arrays must have an integer dtype, not {x.dtype}")
        return x.astype(np.uint64, copy=False)
    return _integer(x, "a seed")


def derive_seed(
    master: Union[int, np.ndarray], index: Union[int, np.ndarray]
) -> Union[int, np.ndarray]:
    """Child seed from a master seed and an index, splitmix64 style.

    The stream for index i is independent of how many other indices are in
    use, so trials can be replayed individually. Either argument may be a
    uint64 array, which gives the broadcast uint64 array of children; two
    ints give a Python int. Ints of any size and sign are reduced mod 2^64.
    The masks keep Python ints in 64 bits and leave uint64 arrays unchanged.
    """
    master, index = _wrapping(master), _wrapping(index)
    z = ((master & _MASK64) + ((index + 1) * 0x9E3779B97F4A7C15 & _MASK64)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _hash_constants(init: int, mult: int, count: int) -> Tuple[np.ndarray, np.ndarray]:
    """The xor and multiply constants of ``count`` SeedSequence hash steps,
    as two ``(count, 1)`` uint32 columns.

    A step xors its word with the running constant, advances the constant by
    ``mult`` and multiplies by the advanced value; the constants do not
    depend on the data, so the whole sequence is fixed.
    """
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


def _hashmix(words: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """SeedSequence hash steps, one per row of the ``(n, 1)`` constant
    columns, broadcast against ``words``."""
    words = (words ^ xor) * mult
    return words ^ (words >> np.uint32(16))


def _pcg64_seed_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for each uint64 seed, ``(k, 4)``.

    The pool is a ``(4, k)`` array, one column per seed, so each hash step
    runs once for the batch. A seed enters as its low and high uint32
    words; one below 2^32 is entropy ``[lo]``, which hashes like ``[lo, 0]``
    because the pool is padded with zero words.
    """
    entropy = np.zeros((4, len(seeds)), dtype=np.uint32)
    entropy[0] = seeds & np.uint64(0xFFFFFFFF)
    entropy[1] = seeds >> np.uint64(32)
    pool = _hashmix(entropy, _MIX_XOR[:4], _MIX_MULT[:4])
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        steps = slice(4 + 3 * src, 7 + 3 * src)
        mixed = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[src], _MIX_XOR[steps], _MIX_MULT[steps])
        pool[dst] = mixed ^ (mixed >> np.uint32(16))
    out = _hashmix(np.vstack([pool, pool]), _OUT_XOR, _OUT_MULT)
    return np.ascontiguousarray(out.T, dtype="<u4").view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """A seed sequence that hands PCG64 one seed's precomputed hash words.

    ``generate_state(4, np.uint64)`` returns the ``(4,)`` uint64 row of
    :func:`_pcg64_seed_words`, which is what ``SeedSequence(seed)`` gives
    there; PCG64 asks for exactly that, and reads the returned buffer
    directly, so the row must be a contiguous uint64 array, as those rows
    are. Any other request raises ValueError, so a numpy that seeded PCG64
    from other words would fail, not drift.
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

    The SeedSequence hashes of all ``g * k`` seeds run as one uint32 batch.
    Each seed's PCG64 then seeds itself, in numpy's own code, from that
    seed's four output words through :class:`_SeedWords`, and its Generator
    draws the row. Seeds must lie in ``0 .. 2^64 - 1``.
    """
    words = _pcg64_seed_words(seeds.reshape(-1))
    draws = [np.empty((seeds.shape[1], width)) for width in widths]
    for row, seed_words in zip(chain.from_iterable(draws), words):
        np.random.Generator(np.random.PCG64(_SeedWords(seed_words))).standard_normal(out=row)
    return draws


def _check_instruments(kraus: np.ndarray) -> None:
    """Raise ValueError unless every instrument of a ``(k, outcomes, d, d)``
    Kraus stack is trace preserving and superselection compliant.

    Both tests are written so that NaN entries fail them. Each stack is
    checked once: by :class:`LocalInstrument`, or by
    :func:`run_monotone_trials` on its whole batch.
    """
    d = kraus.shape[-1]
    # each instrument's outcomes stacked as one (outcomes * d, d) matrix A,
    # so that sum_o K_o^dagger K_o is the one product A^dagger A
    stacked = kraus.reshape(len(kraus), -1, d)
    total = stacked.conj().swapaxes(1, 2) @ stacked
    total -= np.eye(d)
    defect = np.abs(total).max()
    if not defect <= 1e-9:
        raise ValueError(f"instrument is not trace preserving (defect {defect:.3e})")
    rows, cols = zip(*_leak_positions(d))
    # the largest leak modulus of each matrix; NaN entries give NaN
    leak = np.abs(kraus[..., rows, cols]).max(axis=-1)
    compliant = (leak <= MEMBER_TOL).all(axis=0)
    if not compliant.all():
        raise ValueError(f"outcome {np.argmin(compliant)} violates the superselection rule")


class LocalInstrument(_Frozen):
    """A two-outcome instrument on one mode, its compliant Kraus operators
    stacked from any pair of equally sized square matrices into the
    ``(2, d, d)`` complex array ``kraus``, one instrument of the stack that
    :func:`_margins` reads.

    The mode must be a non-negative integer, numpy's included, and is kept
    as a Python int: a bool, a float or a string raises TypeError, and a
    negative mode ValueError.
    """

    __slots__ = ("mode", "kraus", "seed")
    mode: int
    kraus: np.ndarray
    seed: int

    def __init__(self, mode: int, kraus: np.ndarray, seed: int) -> None:
        mode = _integer(mode, "instrument mode")
        if mode < 0:
            raise ValueError(f"instrument mode must be non-negative, got {mode}")
        try:
            kraus = np.asarray(kraus, dtype=complex)
        except ValueError:
            raise ValueError("the Kraus operators of an instrument must share one dimension") from None
        if kraus.ndim != 3 or kraus.shape[0] != 2 or kraus.shape[1] != kraus.shape[2] or kraus.shape[2] < 2:
            raise ValueError(f"expected a (2, d, d) Kraus stack with d >= 2, got shape {kraus.shape}")
        _check_instruments(kraus[None])
        _set(self, "mode", mode)
        _set(self, "kraus", kraus)
        _set(self, "seed", seed)


#: normal draws per instrument on a spin one-half mode: the real and
#: imaginary parts of the 2 x 2 level block, then of the vacancy entry
_INSTRUMENT_WIDTH = 2 * 2 * 2 + 2


# positions of the level entries a, b, c, d and the vacancy v in a 3 x 3 matrix
_ENTRY_ROWS, _ENTRY_COLS = [0, 0, 1, 1, 2], [0, 1, 0, 1, 2]


def _kraus_from_normals(z: np.ndarray, strength: float) -> np.ndarray:
    """Kraus pairs of the random instruments drawn as the rows of ``z``, ``(k, 2, 3, 3)``.

    Each row holds the real and imaginary parts of the level block, then of
    the vacancy entry. See :func:`random_instrument` for the construction,
    which runs once over the whole stack in real arithmetic of ``+``, ``-``,
    ``*``, ``/`` and square roots, entry by entry. IEEE rounds each of those
    correctly, so the result depends neither on the CPU features numpy
    dispatches to nor on the rest of the batch: row ``t`` is bit for bit
    the one-row call on ``z[t]``.
    """
    if not 0 <= strength < np.inf:
        raise ValueError(f"strength must be finite and non-negative, got {strength}")
    # the real and imaginary parts of a, b, c, d and v in I + strength * G,
    # one row per entry, scaled by their largest modulus so that no square
    # overflows; an entry that does overflow turns the norm below into NaN
    with np.errstate(over="ignore", invalid="ignore"):
        re = strength * z.T[[0, 1, 2, 3, 8]]
        im = strength * z.T[[4, 5, 6, 7, 9]]
        re[[0, 3, 4]] += 1.0
        largest = np.maximum(abs(re).max(axis=0), abs(im).max(axis=0))
        re /= largest
        im /= largest
        (ar, br, cr, dr, vr), (ai, bi, ci, di, vi) = re, im
        # the larger eigenvalue of the level block's Gram matrix [[p, x], [x*, q]]
        p = ar * ar + ai * ai + (br * br + bi * bi)
        q = cr * cr + ci * ci + (dr * dr + di * di)
        xr = ar * cr + ai * ci + (br * dr + bi * di)
        xi = ai * cr - ar * ci + (bi * dr - br * di)
        sigma_sq = (p + q + np.sqrt((p - q) * (p - q) + 4.0 * (xr * xr + xi * xi))) * 0.5
        scale = np.sqrt(2.0 * np.maximum(sigma_sq, vr * vr + vi * vi))
        finite = np.isfinite(scale * largest).all()
    if not finite:
        raise ValueError(f"strength {strength} overflows the instrument entries")
    # a0 in place: ar .. vi are views of the rows of re and im
    re /= scale
    im /= scale
    # the level block of M = I - a0^dagger a0, whose eigenvalues lie in [1/2, 1]
    m11 = 1.0 - (ar * ar + ai * ai + (cr * cr + ci * ci))
    m22 = 1.0 - (br * br + bi * bi + (dr * dr + di * di))
    m12r = -(ar * br + ai * bi + (cr * dr + ci * di))
    m12i = -(ar * bi - ai * br + (cr * di - ci * dr))
    # sqrt(M) = (M + sqrt(det M) I) / sqrt(tr M + 2 sqrt(det M))
    root_det = np.sqrt(m11 * m22 - (m12r * m12r + m12i * m12i))
    den = np.sqrt(m11 + m22 + 2.0 * root_det)
    kraus = np.zeros((len(z), 2, 3, 3), dtype=complex)
    parts = kraus.view(np.float64).reshape(len(z), 2, 3, 3, 2)
    parts[:, 0, _ENTRY_ROWS, _ENTRY_COLS, 0] = re.T
    parts[:, 0, _ENTRY_ROWS, _ENTRY_COLS, 1] = im.T
    a1 = parts[:, 1]
    a1[:, 0, 0, 0] = (m11 + root_det) / den
    a1[:, 1, 1, 0] = (m22 + root_det) / den
    a1[:, 0, 1, 0] = a1[:, 1, 0, 0] = m12r / den
    a1[:, 0, 1, 1] = m12i / den
    a1[:, 1, 0, 1] = -a1[:, 0, 1, 1]
    a1[:, 2, 2, 0] = np.sqrt(np.maximum(1.0 - (vr * vr + vi * vi), 0.0))
    return kraus


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
    The instruments are ``3 x 3``, for the (3, 2, 1) sector, so the mode
    must lie in ``0 .. 2``, else ValueError, and is refused as
    :class:`LocalInstrument` refuses it when it is not an integer.
    """
    if not 0 <= _integer(seed, "instrument seed") <= _MASK64:
        raise ValueError(f"instrument seed must lie in 0..2^64-1, got {seed}")
    _require_mode(_integer(mode, "instrument mode"), 3)
    z = np.random.default_rng(seed).standard_normal(_INSTRUMENT_WIDTH)
    return LocalInstrument(mode=mode, kraus=_kraus_from_normals(z[None], strength)[0], seed=seed)


def _state_column(state: StateVector) -> np.ndarray:
    """A normalized (3, 2, 1) state as a ``(12, 1)`` dense column."""
    require_normalized(state, "monotonicity trial")
    return np.array(_amplitude_list(state))[:, None]


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
        return SplitComplex(
            self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re
        )

    def __abs__(self):
        return np.hypot(self.re, self.im)


# _outcomes reads a column for mode m in the order of m's split,
# states._SPLITS[m]: the four basis positions where m holds level up, their
# partners where it holds level down, then the four where m is vacant.
# _PLACE[m] inverts it, giving each basis position its row in that order.
_SPLIT_ROWS = np.array(_SPLITS)
_PLACE = _SPLIT_ROWS.argsort(axis=1)


def _outcomes(ops: np.ndarray, modes: np.ndarray, columns: np.ndarray, out: SplitComplex) -> SplitComplex:
    """Act on column ``t`` with each operator of ``ops[t]`` on mode ``modes[t]``; not renormalized.

    ``columns`` holds a ``(12, k)`` complex batch of (3, 2, 1) states,
    ``ops`` a ``(k, n, 3, 3)`` complex stack of ``n`` compliant local
    matrices per column (the outcomes of an instrument) and ``modes`` ``k``
    mode numbers in ``0 .. 2``, which the callers guarantee. The result is
    written into and returned as ``out``, whose ``(12, n, k)`` parts may be
    views, such as slots of a larger batch: ``[:, o, t]`` is ``ops[t, o]``
    acting on column ``t``.

    One flat ``np.take`` reads each column in its mode's order, another
    puts the results back in basis order, and only the level block and the
    vacancy entry are read: a level row of the block meets each (up, down)
    pair, the vacancy each vacant amplitude. Products and sums round as in
    :func:`~modal_ent.operators.apply`, and a column's result does not
    depend on the rest of the batch.
    """
    k, n = ops.shape[:2]
    step = np.arange(k)
    # contiguous real and imaginary parts: the products below run about
    # twice as fast on them as on the strided parts of complex arrays
    gathered = columns.T.ravel().take(_SPLIT_ROWS[modes].T + 12 * step)
    gathered = SplitComplex(gathered.real.copy(), gathered.imag.copy())
    up, down = gathered[:4], gathered[4:8]
    # the entries a, b, c, d and v of each outcome, as (n, 5, 1, k)
    entries = ops[:, :, _ENTRY_ROWS, _ENTRY_COLS].transpose(1, 2, 0)[:, :, None]
    entries = SplitComplex(np.ascontiguousarray(entries.real), np.ascontiguousarray(entries.imag))
    # (n, 2, 4, k): the rows where the mode holds level up, then level down
    levels = entries[:, 0:3:2] * up + entries[:, 1:4:2] * down
    vacant = entries[:, 4] * gathered[8:]
    # row j, outcome o of column t sits at (o, _PLACE[modes[t], j], t) of the (n, 12, k) result
    back = _PLACE[modes].T[:, None] * k + step + 12 * k * np.arange(n)[:, None]
    for part, level, vacancy in ((out.re, levels.re, vacant.re), (out.im, levels.im, vacant.im)):
        part[...] = np.concatenate([level.reshape(n, 8, k), vacancy], axis=1).take(back)
    return out


def _margins(psi: np.ndarray, kraus: np.ndarray, modes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Monotone margins of a batch: column ``t`` of ``psi`` meets ``kraus[t]`` on ``modes[t]``.

    The inputs and the outcomes of every instrument fill one ``(12, 1 +
    outcomes, k)`` batch in :class:`SplitComplex` arithmetic, which rounds as
    the scalar path does: the gather writes the outcomes into their slots,
    which are renormalized in place, and one invariant pass reads the whole
    batch. Every step acts column by column, so a one-column call reproduces
    its column of a larger batch bit for bit. An outcome is renormalized by
    the square root of its probability, the sum of squared moduli taken in
    basis order, and one of negligible probability adds nothing.
    """
    dim, k = psi.shape
    slots = (dim, 1 + kraus.shape[1], k)
    batch = SplitComplex(np.empty(slots), np.empty(slots))
    batch.re[:, 0], batch.im[:, 0] = psi.real, psi.imag
    out = _outcomes(kraus, modes, psi, batch[:, 1:])
    # Python's sum adds the rows in basis order whatever the batch size;
    # np.sum may pair the terms of a single column differently.
    prob = sum(out.re * out.re + out.im * out.im)
    skip = prob < 1e-14
    norm = np.sqrt(np.where(skip, 1.0, prob))
    out.re /= norm
    out.im /= norm
    columns = SplitComplex(batch.re.reshape(dim, -1), batch.im.reshape(dim, -1))
    i1, i2 = _invariant_polynomials(columns)[3:]
    # raise by MONOTONE_POWERS through libm's pow, as invariant_report's
    # Python floats do; np.power rounds by the CPU features numpy dispatches
    # to, so the margins would depend on the host
    mono1, mono2 = (
        np.fromiter(map(math.pow, abs(i).tolist(), repeat(e)), float, i.re.size).reshape(-1, k)
        for i, e in zip((i1, i2), MONOTONE_POWERS)
    )
    # sum adds the outcomes in order; the last bits of the margins depend on it
    margin1 = sum(np.where(skip, 0.0, prob * mono1[1:])) - mono1[0]
    margin2 = sum(np.where(skip, 0.0, prob * mono2[1:])) - mono2[0]
    return margin1, margin2


def monotonicity_trial(
    state: StateVector, instrument: LocalInstrument
) -> Tuple[float, float]:
    """Outcome-averaged monotones minus the input monotones.

    Returns the margins for the two monotones ``|I1|^(1/3)`` and
    ``|I2|^(2/3)``; non-positive margins (within tolerance) are what the
    monotone property demands. Outcomes with negligible probability are
    skipped. The state must be normalized and of shape (3, 2, 1), and the
    instrument must act with ``3 x 3`` operators on a mode in ``0 .. 2``,
    else ValueError. This is the one-trial call of the kernel behind
    :func:`run_monotone_trials`, so it replays a recorded trial bit for bit.
    """
    if instrument.kraus.shape[1:] != (3, 3):
        raise ValueError(f"operators have shape {instrument.kraus.shape[1:]}, expected dim 3")
    _require_mode(instrument.mode, 3)
    m1, m2 = _margins(_state_column(state), instrument.kraus[None], np.array([instrument.mode]))
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
    trials = _integer(trials, "trials")
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
    kraus = _kraus_from_normals(draws, strength)
    _check_instruments(kraus)
    modes = (children[2] % np.uint64(3)).astype(np.intp)
    m1, m2 = _margins(psi, kraus, modes)
    margins = np.maximum(m1, m2)
    worst = margins.tolist()
    passed = (margins <= MARGIN_TOL).tolist()
    records = zip(range(trials), seeds.tolist(), modes.tolist(), m1.tolist(), m2.tolist(), worst, passed)
    return MonteCarloSummary(
        trials=trials,
        failures=passed.count(False),
        max_margin=max(worst),
        records=tuple(map(TrialRecord._make, records)),
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
    for g in elements:
        _require_shape(g, SHAPE_321)
        if not g.is_superselection_compliant():
            raise ValueError("element violates the superselection rule")
    n, k = len(elements), psi.shape[1]
    # the level entries a, b, c, d and the vacancy v of each mode, as
    # (5, 3, n k) arrays: each element's entries repeated over its k columns
    a, b, c, d, v = np.repeat(
        np.array([[(x[0], x[1], y[0], y[1], z[2]) for x, y, z in g.matrices] for g in elements]).T, k, axis=2
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
