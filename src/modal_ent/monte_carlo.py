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
draws runs once over the whole run in :func:`_margins`: the instruments are
completed as one ``(k, 2, 3, 3)`` Kraus stack, one index gather,
:func:`_outcomes`, acts with both outcomes, and one pass of
:func:`~modal_ent.invariants.dense_invariant_pair` reads the inputs and both
renormalized outcomes as a ``(12, 3k)`` column batch in
:class:`SplitComplex` arithmetic. This batch layer lives here, beside its
one user, and is written for the (3, 2, 1) sector alone: the gather's
offset tables are built once, when the module loads.
:func:`monotonicity_trial` is its one-column call, so replaying a trial
from its seeds reproduces the record's margins bit for bit; it is also the
one public path by which a user-built instrument reaches the kernel, and
checks on the way in that the instrument's dimension and mode fit the
sector. :class:`LocalInstrument` has already checked, when it was built,
that its mode is a non-negative integer.

The invariance sweep batches states as dense columns and verifies that
determinant-one elements leave the polynomial invariants unchanged. The
comparison renormalizes the moved states first: the invariants are degree 6
and 3 in the amplitudes, so raw differences pick up the sixth power of the
amplitude growth and would drown the signal in conditioning noise for
strongly non-unitary elements. Ratios of renormalized values stay order one.
"""

from __future__ import annotations

import operator
from itertools import chain
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .invariants import _amplitude_list, dense_invariant_pair, monotones
from .operators import MEMBER_TOL, GroupElement, _leak_positions, sector_matrix
from .states import (
    SHAPE_321,
    StateVector,
    _Frozen,
    _require_mode,
    _set,
    basis_index,
    enumerate_basis,
    local_index,
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

    Both tests are written so that NaN entries fail them.
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


def _kraus_from_normals(z: np.ndarray, strength: float) -> np.ndarray:
    """Kraus pairs of the random instruments drawn as the rows of ``z``, ``(k, 2, 3, 3)``.

    Each row holds the real and imaginary parts of the level block, then of
    the vacancy entry; everything runs once over the whole stack. See
    :func:`random_instrument` for the construction.
    """
    if not 0 <= strength < np.inf:
        raise ValueError(f"strength must be finite and non-negative, got {strength}")
    lv, d = 2, 3
    k = np.zeros((len(z), d, d), dtype=complex)
    blocks = z[:, : 2 * lv * lv].reshape(-1, 2, lv, lv)
    with np.errstate(over="ignore"):
        k[:, :lv, :lv] = strength * (blocks[:, 0] + 1j * blocks[:, 1])
        k[:, lv, lv] = strength * (z[:, -2] + 1j * z[:, -1])
        k += np.eye(d)
        # LAPACK is handed finite entries only, and an overflowing norm would
        # silently zero the first outcome.
        finite = np.isfinite(k).all()
        scale = np.sqrt(2.0) * np.linalg.norm(k, 2, axis=(1, 2)) if finite else np.inf
    if not np.isfinite(scale).all():
        raise ValueError(f"strength {strength} overflows the instrument entries")
    a0 = k / scale[:, None, None]
    m = np.eye(d) - a0.conj().swapaxes(1, 2) @ a0
    w, u = np.linalg.eigh(m[:, :lv, :lv])
    a1 = np.zeros_like(a0)
    a1[:, :lv, :lv] = (u * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ u.conj().swapaxes(1, 2)
    a1[:, lv, lv] = np.sqrt(np.maximum(m[:, lv, lv].real, 0.0))
    kraus = np.stack([a0, a1], axis=1)
    _check_instruments(kraus)
    return kraus


def random_instrument(seed: int, mode: int, strength: float) -> LocalInstrument:
    """Random compliant instrument, a Ginibre perturbation of the identity.

    Outcome zero is ``(I + strength * G) / (sqrt(2) |I + strength * G|)``
    with G block Ginibre, spectral norm in the denominator; outcome one is
    the Hermitian square root completing the pair to a trace-preserving
    instrument. The root is taken block by block so compliance is exact. At
    strength zero both outcomes collapse to ``I / sqrt(2)``. A strength that
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


# The offsets of the column gather of :func:`_outcomes`, in float64 words
# of complex data, so one more reads the imaginary part. For output
# amplitude j under an operator on mode m, term c multiplies entry (row, c)
# of the 3 x 3 operator, row being the local index of mode m in state j, by
# the amplitude of state j with mode m set to local index c. _SOURCES[c, j, m]
# is that amplitude's offset in a column padded with one zero amplitude, at
# position 12, which stands in where the state leaves the sector, and
# _ENTRIES[c, j, m] the entry's offset in the matrix. Modes run along the
# last axis, so taking the batch's modes there gives contiguous (3, 12, k)
# tables. Local indices 0, 1, 2 hold the symbols 1, 2 and 0: the two levels,
# then the vacancy.
_BASIS = enumerate_basis(SHAPE_321)
_SOURCES = 2 * np.array(
    [
        [[basis_index(SHAPE_321).get(occ[:m] + (sym,) + occ[m + 1 :], 12) for m in range(3)] for occ in _BASIS]
        for sym in (1, 2, 0)
    ]
)
_ENTRIES = 2 * np.array([[[local_index(occ[m], 1) * 3 + c for m in range(3)] for occ in _BASIS] for c in range(3)])


def _outcomes(ops: np.ndarray, modes: np.ndarray, columns: np.ndarray, out: SplitComplex) -> SplitComplex:
    """Act on column ``t`` with each operator of ``ops[t]`` on mode ``modes[t]``; not renormalized.

    ``columns`` holds a ``(12, k)`` complex batch of (3, 2, 1) states,
    ``ops`` a ``(k, n, 3, 3)`` complex stack of ``n`` local matrices per
    column (the outcomes of an instrument) and ``modes`` ``k`` mode numbers
    in ``0 .. 2``, which the callers guarantee. The result is written into
    and returned as ``out``, whose ``(12, n, k)`` parts may be views, such
    as slots of a larger batch: ``[:, o, t]`` is ``ops[t, o]`` acting on
    column ``t``.

    Each output amplitude sums three terms, an operator entry times a source
    amplitude. The source offsets and values are gathered once for the
    batch, one ``(12, k)`` slice per term, and shared by the ``n``
    operators, whose entries are read by flat ``np.take`` on the float64
    words of the stack; working a term at a time keeps the temporaries
    small. A source outside the sector reads a zero, so entries mixing
    levels and the vacancy, which compliant operators do not have, are
    dropped. Products and sums round as in :func:`~modal_ent.operators.apply`,
    and a column's result does not depend on the rest of the batch.
    """
    k, n = ops.shape[:2]
    step = np.arange(k)
    padded = np.zeros((k, 13), dtype=complex)
    padded[:, :12] = columns.T
    amplitudes = padded.reshape(-1).view(np.float64)
    source_at = np.take(_SOURCES, modes, axis=2)
    source_at += 2 * 13 * step
    matrices = np.ascontiguousarray(ops, dtype=complex).reshape(-1).view(np.float64)
    entry_at = np.take(_ENTRIES, modes, axis=2)
    entry_at += 2 * n * 9 * step
    for c in range(3):
        value = SplitComplex(amplitudes.take(source_at[c]), amplitudes[1:].take(source_at[c]))
        for o in range(n):
            words = matrices[2 * o * 9 :]
            term = SplitComplex(words.take(entry_at[c]), words[1:].take(entry_at[c])) * value
            # the terms add in order of c; another order would move last bits
            if c:
                out.re[:, o] += term.re
                out.im[:, o] += term.im
            else:
                out.re[:, o], out.im[:, o] = term.re, term.im
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
    mono1, mono2 = (m.reshape(-1, k) for m in monotones(*dense_invariant_pair(columns)))
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
    of one ``(12, k)`` batch; each element acts through its dense sector
    matrix on the whole batch at once. Moved states are renormalized and
    compared against the inputs' invariants rescaled by the predicted norm
    powers, 6 for I1 and 3 for I2. For determinant-one elements both drifts
    are pure roundoff; elements with other determinants show up at order
    one. No states or no elements, and a state that is zero or not finite,
    raise ValueError; an element that overflows or annihilates a state
    raises ArithmeticError.
    """
    columns = [_amplitude_list(s) for s in states]
    if not columns:
        raise ValueError("invariance sweep needs at least one state column")
    psi = np.column_stack(columns)
    if not np.isfinite(psi).all():
        raise ValueError("state columns must be finite")
    zero = np.flatnonzero(~psi.any(axis=0))
    if zero.size:
        raise ValueError(f"state column {zero[0]} is zero")
    # with no elements the loop below would report a perfect (0.0, 0.0)
    elements = list(elements)
    if not elements:
        raise ValueError("invariance sweep needs at least one group element")
    i1_in, i2_in = dense_invariant_pair(psi)
    worst1 = 0.0
    worst2 = 0.0
    for g in elements:
        # max() below drops a NaN drift and would report a clean sweep, so
        # an overflowing product is refused here rather than warned about
        with np.errstate(over="ignore", invalid="ignore"):
            moved = sector_matrix(g, SHAPE_321) @ psi
            norms = np.linalg.norm(moved, axis=0)
        if not np.isfinite(norms).all():
            raise ArithmeticError("group element overflowed a state")
        if np.any(norms <= 0):
            raise ArithmeticError("group element annihilated a state")
        i1_out, i2_out = dense_invariant_pair(moved / norms)
        want1 = i1_in / norms**6
        want2 = i2_in / norms**3
        dev1 = np.abs(i1_out - want1) / np.maximum(1.0, np.abs(want1))
        dev2 = np.abs(i2_out - want2) / np.maximum(1.0, np.abs(want2))
        worst1 = max(worst1, float(dev1.max()))
        worst2 = max(worst2, float(dev2.max()))
    return worst1, worst2
