import ast
import inspect
import math
import re
import warnings

import numpy as np
import pytest

from modal_ent import monte_carlo
from modal_ent.classify import family
from modal_ent.invariants import invariant_report
from modal_ent.monte_carlo import (
    MARGIN_TOL,
    LocalInstrument,
    SplitComplex,
    _block_rows,
    _check_instruments,
    _conj_products,
    _INSTRUMENT_WIDTH,
    _kraus_from_normals,
    _margins,
    _outcomes,
    _SeedWords,
    _seeded_draws,
    _state_column,
    derive_seed,
    invariance_sweep,
    monotonicity_trial,
    random_instrument,
    run_monotone_trials,
)
from modal_ent.invariants import _amplitude_list, _invariant_polynomials
from modal_ent.operators import (
    GroupElement,
    _leak_positions,
    _moved,
    apply_on_mode,
    random_element,
)
from modal_ent.states import (
    SHAPE_321,
    StateVector,
    SystemShape,
    enumerate_basis,
    random_state,
    unit_amplitudes,
)

rng = np.random.default_rng(2718)


def test_derive_seed_is_deterministic_and_wide():
    assert derive_seed(0, 0) == derive_seed(0, 0)
    seen = {derive_seed(12345, i) for i in range(2000)}
    assert len(seen) == 2000
    for s in list(seen)[:50]:
        assert 0 <= s < 2**64
    assert derive_seed(1, 7) != derive_seed(2, 7)


def _splitmix_reference(master, index):
    """The splitmix64 seed tree in Python ints, the oracle for derive_seed."""
    mask = (1 << 64) - 1
    z = (int(master) + (int(index) + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def test_vectorised_seed_tree_equals_the_scalar_one():
    masters = [0, 1, 7, -1, -5, -(2**63), -(2**64) - 3, 2**63, 2**64 - 1, 2**64, 2**64 + 9, 2**130 + 17]
    masters += [int(m) for m in np.random.default_rng(4040).integers(0, 2**64, size=20, dtype=np.uint64)]
    index = np.arange(60, dtype=np.uint64)
    for master in masters:
        want = [_splitmix_reference(master, i) for i in range(60)]
        scalar = [derive_seed(master, i) for i in range(60)]
        assert all(type(s) is int for s in scalar)
        assert scalar == want
        batch = derive_seed(master, index)
        assert batch.dtype == np.uint64 and batch.tolist() == want
    children = np.array(want, dtype=np.uint64)
    for i in (0, 1, 2, 2**64 - 1):
        assert derive_seed(children, i).tolist() == [_splitmix_reference(c, i) for c in want]
    assert derive_seed(np.uint64(5), np.int64(3)) == _splitmix_reference(5, 3)
    # a float seed is refused, not truncated to the integer below it
    with pytest.raises(TypeError, match="integer dtype, not float64"):
        derive_seed(np.array([1.5, 2.0]), 0)
    with pytest.raises(TypeError):
        random_instrument(1.5, 0, 0.5)
    # a bool seed is refused, not run as seed 0 or 1, and so is a bool array
    for flag in (True, False, np.True_, np.False_):
        got = re.escape(repr(flag))
        with pytest.raises(TypeError, match=f"^a seed must be an integer, got {got}$"):
            derive_seed(flag, 0)
        with pytest.raises(TypeError, match=f"^a seed must be an integer, got {got}$"):
            derive_seed(5, flag)
        with pytest.raises(TypeError, match=f"^instrument seed must be an integer, got {got}$"):
            random_instrument(flag, 0, 0.5)
        with pytest.raises(TypeError, match=f"^a seed must be an integer, got {got}$"):
            run_monotone_trials(2, flag)
    with pytest.raises(TypeError, match="integer dtype, not bool"):
        derive_seed(np.array([True, False]), 0)


def test_batched_draws_equal_default_rng():
    seeds = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
    seeds += [int(s) for s in np.random.default_rng(8080).integers(0, 2**64, size=2000, dtype=np.uint64)]
    listed = np.array(seeds, dtype=np.uint64)
    # two rows of streams, as a run seeds its states and instruments
    grid = np.stack([listed, np.random.default_rng(8081).permutation(listed)])
    draws = _seeded_draws(grid, [10, 24])
    for row, width, got in zip(grid.tolist(), (10, 24), draws):
        want = np.array([np.random.default_rng(s).standard_normal(width) for s in row])
        assert got.shape == (len(seeds), width)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_seed_words_serve_only_pcg64s_request():
    words = np.arange(4, dtype=np.uint64)
    seq = _SeedWords(words)
    assert seq.generate_state(4, np.uint64) is words
    for n_words, dtype in ((8, np.uint32), (2, np.uint64), (4, np.uint32)):
        with pytest.raises(ValueError, match="4 uint64"):
            seq.generate_state(n_words, dtype)


def _default_rng_normals(seeds, width):
    return np.array([np.random.default_rng(int(s)).standard_normal(width) for s in seeds])


def _reference_run(trials, master, strength=0.5, state=None):
    """The per-trial run that the batched seeding replaced, as the oracle.

    A scalar seed tree in Python ints and one ``default_rng`` per stream;
    everything after the draws is the library's own.
    """
    seeds = [_splitmix_reference(master, i) for i in range(trials)]
    if state is None:
        z = _default_rng_normals([_splitmix_reference(s, 0) for s in seeds], 2 * SHAPE_321.dimension)
        psi = unit_amplitudes(z).T
    else:
        psi = np.repeat(_state_column(state), trials, axis=1)
    draws = _default_rng_normals([_splitmix_reference(s, 1) for s in seeds], _INSTRUMENT_WIDTH)
    blocks = _kraus_from_normals(draws, strength)
    modes = [_splitmix_reference(s, 2) % 3 for s in seeds]
    m1, m2 = _margins(psi, blocks, np.array(modes))
    margins = np.maximum(m1, m2)
    return [
        (i, s, mode, a, b, m, m <= MARGIN_TOL)
        for i, (s, mode, a, b, m) in enumerate(zip(seeds, modes, m1.tolist(), m2.tolist(), margins.tolist()))
    ]


@pytest.mark.parametrize(
    "master, strength, state",
    [
        (7, 0.5, None),
        (-3, 0.9, None),
        (2**64 + 11, 0.0, None),
        (41, 0.5, family("psi1")),
        (42, 0.5, family("Eq16", {"r1": 0.5, "r2": 0.5, "r3": 0.5, "r4": 0.5})),
    ],
    ids=["random", "negative-master", "zero-strength", "psi1", "Eq16"],
)
def test_batched_run_equals_the_per_trial_run(master, strength, state):
    summary = run_monotone_trials(400, master, strength=strength, state=state)
    want = _reference_run(400, master, strength=strength, state=state)
    assert [tuple(r) for r in summary.records] == want
    for rec, row in zip(summary.records, want):
        for got, ref in zip(rec, row):
            assert type(got) is type(ref)
    assert summary.failures == sum(1 for row in want if not row[-1])
    assert summary.max_margin == max(row[5] for row in want)


def test_random_instrument_is_complete_and_compliant():
    for seed in range(8):
        inst = random_instrument(seed, mode=seed % 3, strength=0.7)
        a0, a1 = inst.kraus
        total = a0.conj().T @ a0 + a1.conj().T @ a1
        assert np.abs(total - np.eye(3)).max() < 1e-9
        assert GroupElement(inst.kraus).is_superselection_compliant()
    for bad in (-0.1, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="strength must be finite and non-negative"):
            random_instrument(0, mode=0, strength=bad)
        with pytest.raises(ValueError, match="strength must be finite and non-negative"):
            run_monotone_trials(5, 1, strength=bad)


def test_zero_strength_instrument_is_trivial():
    inst = random_instrument(3, mode=1, strength=0.0)
    target = np.eye(3) / np.sqrt(2.0)
    assert np.abs(inst.kraus - target).max() < 1e-12
    m1, m2 = monotonicity_trial(random_state(SHAPE_321, rng), inst)
    assert abs(m1) < 1e-12
    assert abs(m2) < 1e-12


def test_instrument_validation():
    eye = np.eye(3, dtype=complex)
    with pytest.raises(ValueError):
        LocalInstrument(0, np.array([eye, eye]), seed=0)
    ok = eye / np.sqrt(2.0)
    leaky = ok.copy()
    leaky[0, 2] = 1e-3
    with pytest.raises(ValueError):
        LocalInstrument(0, np.array([ok, leaky]), seed=0)
    # trace preserving, but the first outcome swaps a level with the vacancy
    with pytest.raises(ValueError, match="^outcome 0 violates the superselection rule$"):
        LocalInstrument(0, np.array([eye[[2, 1, 0]], 0 * eye]), seed=0)
    poisoned = ok.copy()
    poisoned[0, 1] = np.nan
    with pytest.raises(ValueError, match="not trace preserving"):
        LocalInstrument(0, np.array([ok, poisoned]), seed=0)
    # an infinite or overflowing entry is refused, not warned about
    for huge in (np.inf, 1e200):
        with pytest.raises(ValueError, match="not trace preserving"):
            LocalInstrument(0, np.array([ok, np.diag([huge, 1.0, 1.0])]), seed=0)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="instrument seed must lie in"):
            random_instrument(seed, mode=0, strength=0.5)


def test_instrument_refuses_malformed_kraus_stacks():
    ok = np.eye(3) / np.sqrt(2.0)
    # trace preserving, but not on a mode of the (3, 2, 1) sector
    for d in (1, 2, 4):
        with pytest.raises(ValueError, match=rf"^expected a \(2, 3, 3\) Kraus stack, got shape \(2, {d}, {d}\)$"):
            LocalInstrument(0, [np.eye(d) / np.sqrt(2.0)] * 2, seed=0)
    for shape in ((3, 3, 3), (2, 3, 2), (2, 9), (1, 2, 3, 3)):
        with pytest.raises(ValueError, match=r"^expected a \(2, 3, 3\) Kraus stack"):
            LocalInstrument(0, np.zeros(shape), seed=0)
    with pytest.raises(ValueError, match="must share one dimension"):
        LocalInstrument(0, [ok, np.eye(2)], seed=0)
    listed = LocalInstrument(1, [ok, ok.tolist()], seed=0)
    assert listed.kraus.dtype == complex and listed.kraus.shape == (2, 3, 3)
    assert monotonicity_trial(family("psi1"), listed) == monotonicity_trial(
        family("psi1"), LocalInstrument(1, np.array([ok, ok]), seed=0)
    )


def test_monotonicity_trial_preconditions():
    inst = random_instrument(0, mode=0, strength=0.5)
    with pytest.raises(ValueError):
        monotonicity_trial(StateVector(SHAPE_321, {(1, 1, 0): 2.0}), inst)
    with pytest.raises(ValueError):
        monotonicity_trial(random_state(SystemShape(4, 2, 1), rng), inst)
    # an instrument that no (3, 2, 1) trial could read is refused when it is built
    with pytest.raises(ValueError, match=r"^expected a \(2, 3, 3\) Kraus stack, got shape \(2, 4, 4\)$"):
        LocalInstrument(0, [np.eye(4) / np.sqrt(2.0)] * 2, seed=0)
    with pytest.raises(ValueError, match="^mode 3 out of range for 3 modes$"):
        LocalInstrument(3, inst.kraus, seed=0)


def test_instrument_modes_are_checked_when_built():
    inst = random_instrument(0, mode=0, strength=0.5)
    # unchecked, a bool would run as mode 1, and a float or a string fail deep in numpy
    for mode in (True, np.False_, 1.0, 1.5, "1"):
        with pytest.raises(TypeError, match=f"^instrument mode must be an integer, got {re.escape(repr(mode))}$"):
            LocalInstrument(mode, inst.kraus, seed=0)
        with pytest.raises(TypeError, match=f"^instrument mode must be an integer, got {re.escape(repr(mode))}$"):
            random_instrument(0, mode, 0.5)
    # instruments are 3 x 3, for the three modes of the (3, 2, 1) sector
    for mode in (-1, 3, 7):
        with pytest.raises(ValueError, match=f"^mode {mode} out of range for 3 modes$"):
            LocalInstrument(mode, inst.kraus, seed=0)
        with pytest.raises(ValueError, match=f"^mode {mode} out of range for 3 modes$"):
            random_instrument(0, mode, 0.5)
    numbered = LocalInstrument(np.int64(2), inst.kraus, seed=0)
    assert type(numbered.mode) is int and numbered.mode == 2
    assert random_instrument(0, np.uint8(2), 0.5).mode == 2


#: the largest |margin - M(psi) c(A)| allowed; 6,000 trials at strengths
#: 0.05, 0.5 and 2 gave at most 1.0e-16
IDENTITY_TOL = 1e-15


def test_margins_factor_through_the_instrument_determinants():
    # I1 and I2 scale as det(A)^2 and det(A) under a compliant A on one mode,
    # and both monotones are homogeneous of degree 2, so each margin is
    # M(psi) c(A) with c(A) = sum_i |det A_i|^(2/3) - 1: the state only
    # scales the margins. The records are replayed from their seeds.
    master, strength = 31337, 0.5
    summary = run_monotone_trials(trials=400, master_seed=master, strength=strength)
    for rec in summary.records:
        s_i = derive_seed(master, rec.index)
        assert rec.mode == derive_seed(s_i, 2) % 3
        psi = random_state(SHAPE_321, np.random.default_rng(derive_seed(s_i, 0)))
        inst = random_instrument(derive_seed(s_i, 1), rec.mode, strength)
        c = sum(abs(np.linalg.det(k)) ** (2 / 3) for k in inst.kraus) - 1.0
        rep = invariant_report(psi)
        assert c < 0
        assert abs(rec.margin1 - rep.monotone1 * c) <= IDENTITY_TOL
        assert abs(rec.margin2 - rep.monotone2 * c) <= IDENTITY_TOL


def _equality_kraus(local, count, outcomes=2):
    """``count`` instruments ``K_i = sqrt(p_i) U_i``, each U_i a Haar unitary on
    the level block beside a vacancy entry of modulus one, ``(count, outcomes, 3, 3)``.

    The weights are the gaps between sorted uniform cuts of [0, 1], so two
    outcomes get ``p`` and ``1 - p`` for one uniform ``p``.
    """
    shape = (count, outcomes, 2, 2)
    z = (local.standard_normal(shape) + 1j * local.standard_normal(shape)) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    kraus = np.zeros((count, outcomes, 3, 3), dtype=complex)
    kraus[..., :2, :2] = q * (diag / abs(diag))[..., None, :]
    kraus[..., 2, 2] = np.exp(2j * math.pi * local.uniform(size=(count, outcomes)))
    cuts = np.sort(local.uniform(size=(count, outcomes - 1)), axis=1)
    weights = np.diff(cuts, prepend=0.0, append=1.0, axis=1)
    return kraus * np.sqrt(weights)[..., None, None]


def test_equality_instruments_meet_the_monotone_bound():
    # by AM-GM, |det K|^(2/3) <= tr(K^dagger K) / 3, with equality exactly when
    # K is a multiple of a unitary; then c(A) = 0, and every margin sits on
    # the bound that the random instruments never come near
    local = np.random.default_rng(8080)
    count = 200
    kraus = _equality_kraus(local, count)
    modes = local.integers(3, size=count)
    states = [random_state(SHAPE_321, local) for _ in range(count)]
    single = [monotonicity_trial(psi, LocalInstrument(mode, k, seed=0)) for psi, k, mode in zip(states, kraus, modes)]
    assert max(abs(m) for pair in single for m in pair) <= MARGIN_TOL
    columns = np.hstack([_state_column(psi) for psi in states])
    batched = _margins(columns, _block_rows(kraus), modes)
    assert [tuple(pair) for pair in zip(*(m.tolist() for m in batched))] == single


def _random_kraus(local, count, outcomes, strength):
    """``count`` random compliant instruments of ``outcomes`` outcomes, ``(count, outcomes, 3, 3)``.

    Block-diagonal Ginibre perturbations ``G_i`` of the identity are completed
    as ``A_i = G_i S^(-1/2)`` with ``S = sum_i G_i^dagger G_i``; S is block
    diagonal, so its root is, and the ``A_i`` stay compliant.
    """
    shape = (count, outcomes, 3, 3)
    g = strength * (local.standard_normal(shape) + 1j * local.standard_normal(shape)) + np.eye(3)
    g[..., :2, 2] = g[..., 2, :2] = 0.0
    w, u = np.linalg.eigh((g.conj().swapaxes(-1, -2) @ g).sum(axis=1))
    root = (u / np.sqrt(w)[:, None, :]) @ u.conj().swapaxes(-1, -2)
    return g @ root[:, None]


@pytest.mark.parametrize("outcomes", [3, 4])
def test_many_outcome_instruments_meet_the_identity_and_the_bound(outcomes):
    # LocalInstrument is two-outcome, but the batch kernel and the AM-GM
    # argument take any number K of outcomes: each margin is M(psi) c(A)
    # with c(A) = sum_i |det A_i|^(2/3) - 1 <= 0, and c = 0 on instruments
    # sqrt(p_i) U_i
    local = np.random.default_rng(5150 + outcomes)
    count = 200
    states = [random_state(SHAPE_321, local) for _ in range(count)]
    columns = np.hstack([_state_column(psi) for psi in states])
    modes = local.integers(3, size=count)
    reports = [invariant_report(psi) for psi in states]
    for strength in (0.1, 0.7):
        kraus = _random_kraus(local, count, outcomes, strength)
        _check_instruments(_block_rows(kraus))
        c = (abs(np.linalg.det(kraus)) ** (2 / 3)).sum(axis=1) - 1.0
        assert (c < 0).all()
        m1, m2 = _margins(columns, _block_rows(kraus), modes)
        for a, b, rep, c_i in zip(m1.tolist(), m2.tolist(), reports, c.tolist()):
            assert abs(a - rep.monotone1 * c_i) <= IDENTITY_TOL
            assert abs(b - rep.monotone2 * c_i) <= IDENTITY_TOL
    equality = _equality_kraus(local, count, outcomes)
    _check_instruments(_block_rows(equality))
    m1, m2 = _margins(columns, _block_rows(equality), modes)
    assert max(abs(m1).max(), abs(m2).max()) <= MARGIN_TOL


def test_batch_monotones_equal_the_scalar_report_bit_for_bit():
    # a single outcome of probability zero adds nothing, so the margins are
    # minus the input monotones, which the batch raises through libm's pow
    # as the scalar report does
    local = np.random.default_rng(6060)
    states = [random_state(SHAPE_321, local) for _ in range(400)] + [family("psi1"), family("psi2")]
    columns = np.hstack([_state_column(psi) for psi in states])
    silent = _block_rows(np.zeros((len(states), 1, 3, 3), dtype=complex))
    m1, m2 = _margins(columns, silent, local.integers(3, size=len(states)))
    reports = [invariant_report(psi) for psi in states]
    assert (-m1).tolist() == [rep.monotone1 for rep in reports]
    assert (-m2).tolist() == [rep.monotone2 for rep in reports]


def _matrix(blocks, o, t):
    """The complex 3 x 3 matrix of outcome ``o`` of instrument ``t`` in block rows."""
    m = np.zeros((3, 3), dtype=complex)
    m.real[[0, 0, 1, 1, 2], [0, 1, 0, 1, 2]] = blocks.re[o, :, t]
    m.imag[[0, 0, 1, 1, 2], [0, 1, 0, 1, 2]] = blocks.im[o, :, t]
    return m


@pytest.mark.parametrize("strength", [0.0, 0.5, 3.0])
def test_gather_equals_apply_on_mode_bit_for_bit(strength):
    # every state meets an instrument on each of the three modes
    local = np.random.default_rng(8080)
    cases = [(random_state(SHAPE_321, local), mode) for _ in range(20) for mode in range(3)]
    psi = np.column_stack([s.dense() for s, _ in cases])
    blocks = _kraus_from_normals(local.standard_normal((len(cases), _INSTRUMENT_WIDTH)), strength)
    slots = (12, 3, len(cases))
    batch = SplitComplex(np.empty(slots), np.empty(slots))
    batch.re[:, 0], batch.im[:, 0] = psi.real, psi.imag
    _outcomes(blocks, np.array([mode for _, mode in cases]), batch)
    for t, (state, mode) in enumerate(cases):
        for o in range(2):
            want = apply_on_mode(_matrix(blocks, o, t), mode, state).dense()
            assert batch.re[:, 1 + o, t].tobytes() == want.real.tobytes()
            assert batch.im[:, 1 + o, t].tobytes() == want.imag.tobytes()


def test_leak_entries_inside_the_tolerance_leave_the_margins_in_place():
    # block rows hold only the level blocks and the vacancies, so entries
    # that compliance lets through below MEMBER_TOL change no bit
    local = np.random.default_rng(9090)
    rows, cols = zip(*_leak_positions(3))
    states = [random_state(SHAPE_321, local) for _ in range(30)]
    clean = [random_instrument(t, t % 3, 0.5) for t in range(len(states))]
    # the leaky stacks are kept: an instrument's kraus view has exact zeros there
    leaky_stacks, leaky = [], []
    for inst in clean:
        kraus = inst.kraus
        signs = local.choice([-1.0, 1.0], size=(2, 2, 4))
        kraus[:, rows, cols] = 1e-11 * (signs[0] + 1j * signs[1])
        leaky_stacks.append(kraus)
        leaky.append(LocalInstrument(inst.mode, kraus, seed=inst.seed))
    for state, a, b in zip(states, clean, leaky):
        assert monotonicity_trial(state, b) == monotonicity_trial(state, a)
    psi = np.column_stack([s.dense() for s in states])
    modes = np.array([inst.mode for inst in clean])
    want = _margins(psi, _block_rows(np.stack([inst.kraus for inst in clean])), modes)
    got = _margins(psi, _block_rows(np.stack(leaky_stacks)), modes)
    assert got.tobytes() == want.tobytes()


def _lapack_kraus(z, strength):
    """The LAPACK completion that the closed form replaced, as the oracle.

    Outcome zero divides ``I + strength G`` by sqrt(2) times its spectral
    norm, a batched SVD; outcome one is the Hermitian square root of
    ``I - a0^dagger a0``, taken by ``eigh`` on the level block.
    """
    lv, d = 2, 3
    k = np.zeros((len(z), d, d), dtype=complex)
    blocks = z[:, : 2 * lv * lv].reshape(-1, 2, lv, lv)
    k[:, :lv, :lv] = strength * (blocks[:, 0] + 1j * blocks[:, 1])
    k[:, lv, lv] = strength * (z[:, -2] + 1j * z[:, -1])
    k += np.eye(d)
    a0 = k / (np.sqrt(2.0) * np.linalg.norm(k, 2, axis=(1, 2)))[:, None, None]
    m = np.eye(d) - a0.conj().swapaxes(1, 2) @ a0
    w, u = np.linalg.eigh(m[:, :lv, :lv])
    a1 = np.zeros_like(a0)
    a1[:, :lv, :lv] = (u * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ u.conj().swapaxes(1, 2)
    a1[:, lv, lv] = np.sqrt(np.maximum(m[:, lv, lv].real, 0.0))
    return np.stack([a0, a1], axis=1)


#: the largest entry difference allowed between the closed-form Kraus pairs
#: and the LAPACK oracle; 200,000 rows per strength gave at most 2.0e-15
KRAUS_TOL = 4e-15


@pytest.mark.parametrize("strength", [0.0, 1e-8, 0.5, 3.0, 1e3, 1e307])
def test_closed_form_kraus_matches_the_lapack_oracle(strength):
    z = np.random.default_rng(7070).standard_normal((20000, _INSTRUMENT_WIDTH))
    oracle = _lapack_kraus(z, strength)
    # the oracle is block diagonal too, so its block rows are all its entries
    rows, cols = zip(*_leak_positions(3))
    assert not oracle[..., rows, cols].any()
    got, want = _kraus_from_normals(z, strength), _block_rows(oracle)
    assert np.hypot(got.re - want.re, got.im - want.im).max() <= KRAUS_TOL


@pytest.mark.parametrize("strength", [0.0, 0.5, 0.9, 1e307])
def test_batch_rows_are_the_entries_of_the_replayed_instruments(monkeypatch, strength):
    # the rows a run checks and evaluates are, bit for bit, the level and
    # vacancy entries of the instruments random_instrument replays, whose
    # leak entries are exactly zero; master seed 1 is refused at 3e307
    seen = []
    check = monte_carlo._check_instruments
    monkeypatch.setattr(monte_carlo, "_check_instruments", lambda blocks: (seen.append(blocks), check(blocks)))
    summary = run_monotone_trials(100, 1, strength=strength)
    (blocks,) = seen
    rows, cols = [0, 0, 1, 1, 2], [0, 1, 0, 1, 2]
    leak_rows, leak_cols = zip(*_leak_positions(3))
    for t, rec in enumerate(summary.records):
        kraus = random_instrument(derive_seed(rec.seed, 1), rec.mode, strength).kraus
        assert not kraus[:, leak_rows, leak_cols].any()
        for got, want in ((blocks.re, kraus.real), (blocks.im, kraus.imag)):
            assert np.array_equal(got[..., t].view(np.uint64), want[:, rows, cols].view(np.uint64))


@pytest.mark.parametrize("strength", [0.0, 0.5, 0.9, 1e307])
def test_the_kraus_view_is_the_stack_random_instrument_built(strength):
    # the view is the completion's rows at their block entries and +0.0
    # everywhere else, bit for bit
    rows, cols = [0, 0, 1, 1, 2], [0, 1, 0, 1, 2]
    for seed in range(40):
        z = np.random.default_rng(seed).standard_normal(_INSTRUMENT_WIDTH)
        blocks = _kraus_from_normals(z[None], strength)
        built = np.zeros((2, 3, 3), dtype=complex)
        built.real[:, rows, cols], built.imag[:, rows, cols] = blocks.re[..., 0], blocks.im[..., 0]
        assert np.array_equal(random_instrument(seed, seed % 3, strength).kraus.view(np.uint64), built.view(np.uint64))


def test_an_instrument_keeps_its_block_entries_and_drops_its_leaks():
    inst = random_instrument(5, 2, 0.5)
    stack = inst.kraus
    stack[:, 0, 2] = 1e-11
    made = LocalInstrument(2, stack, seed=5)
    view = made.kraus
    assert view is not made.kraus
    assert np.array_equal(view.view(np.uint64), inst.kraus.view(np.uint64))
    # neither the stack it was read from nor a view it gave changes it
    stack[:] = view[:] = 0.0
    assert np.array_equal(made.kraus.view(np.uint64), inst.kraus.view(np.uint64))
    assert monotonicity_trial(family("psi2"), made) == monotonicity_trial(family("psi2"), inst)


def test_kraus_rows_equal_their_one_row_calls():
    z = np.random.default_rng(7171).standard_normal((300, _INSTRUMENT_WIDTH))
    for strength in (0.0, 0.5, 3.0, 1e307):
        batch = _kraus_from_normals(z, strength)
        for t, row in enumerate(z):
            one = _kraus_from_normals(row[None], strength)
            for got, want in ((one.re[..., 0], batch.re[..., t]), (one.im[..., 0], batch.im[..., t])):
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


#: the largest margin move allowed between runs with the closed form and with
#: the LAPACK oracle: 40,000 trials gave at most 2.8e-16 on random states and
#: on psi1's margin1; psi1's I2 vanishes, so its margin2 is roundoff raised
#: to the power 2/3, of order 1e-12, and moved by up to 3.4e-12
MOVE_TOL = 1e-15
VANISHING_MOVE_TOL = 1e-11


@pytest.mark.parametrize("state", [None, family("psi1")], ids=["random", "psi1"])
def test_lapack_completion_moves_only_the_last_bits(monkeypatch, state):
    summary = run_monotone_trials(2000, 7, state=state)
    monkeypatch.setattr(monte_carlo, "_kraus_from_normals", lambda z, strength: _block_rows(_lapack_kraus(z, strength)))
    oracle = run_monotone_trials(2000, 7, state=state)
    assert [(r.index, r.seed, r.mode, r.passed) for r in summary.records] == [
        (r.index, r.seed, r.mode, r.passed) for r in oracle.records
    ]
    assert summary.failures == oracle.failures == 0
    tol2 = MOVE_TOL if state is None else VANISHING_MOVE_TOL
    for got, want in zip(summary.records, oracle.records):
        assert abs(got.margin1 - want.margin1) <= MOVE_TOL
        assert abs(got.margin2 - want.margin2) <= tol2


def test_each_path_checks_its_kraus_stack_once(monkeypatch):
    shapes = []
    check = monte_carlo._check_instruments

    def counted(blocks):
        shapes.append((blocks.re.shape, blocks.im.shape))
        check(blocks)

    monkeypatch.setattr(monte_carlo, "_check_instruments", counted)
    random_instrument(seed=11, mode=1, strength=0.5)
    assert shapes == [((2, 5, 1), (2, 5, 1))]
    shapes.clear()
    run_monotone_trials(25, 3)
    assert shapes == [((2, 5, 25), (2, 5, 25))]
    shapes.clear()
    run_monotone_trials(25, 3, state=family("psi2"))
    assert shapes == [((2, 5, 25), (2, 5, 25))]


def test_instrument_path_calls_no_linear_algebra():
    # the completion is closed-form arithmetic whose IEEE results do not
    # depend on the CPU; LAPACK's kernels are chosen by it
    for code in (
        _kraus_from_normals, _conj_products, _check_instruments, _block_rows, random_instrument, LocalInstrument,
        _outcomes, _margins,
    ):
        tree = ast.parse(inspect.getsource(code))
        assert not [node for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "linalg"]


def test_margins_stay_non_positive():
    summary = run_monotone_trials(trials=300, master_seed=424242)
    assert summary.trials == 300
    assert summary.failures == 0
    assert summary.max_margin <= MARGIN_TOL
    assert len(summary.records) == 300
    assert [r.index for r in summary.records] == list(range(300))


def test_runs_are_reproducible():
    a = run_monotone_trials(trials=40, master_seed=9)
    b = run_monotone_trials(trials=40, master_seed=9)
    for x, y in zip(a.records, b.records):
        assert x == y
    c = run_monotone_trials(trials=40, master_seed=10)
    assert any(x.seed != y.seed for x, y in zip(a.records, c.records))


def test_fixed_state_run():
    summary = run_monotone_trials(trials=50, master_seed=5, state=family("psi1"))
    assert summary.failures == 0
    with pytest.raises(ValueError):
        run_monotone_trials(trials=50, master_seed=5, state=StateVector(SHAPE_321, {(1, 1, 0): 2.0}))
    with pytest.raises(ValueError):
        run_monotone_trials(trials=0, master_seed=5)
    # a float seed would run as its truncation, and trials=True as one trial
    with pytest.raises(TypeError):
        run_monotone_trials(3, 1.5)
    with pytest.raises(TypeError, match="^trials must be an integer, got True$"):
        run_monotone_trials(True, 1)
    assert run_monotone_trials(np.int64(3), np.uint64(5)) == run_monotone_trials(3, 5)
    nan_state = StateVector(SHAPE_321, {(1, 1, 0): 1.0, (0, 1, 1): complex(math.nan, 0.0)})
    with pytest.raises(ValueError, match="monotonicity trial expects a normalized state"):
        run_monotone_trials(trials=4, master_seed=1, state=nan_state)
    four_modes = random_state(SystemShape(4, 2, 1), rng)
    with pytest.raises(ValueError, match=r"pair-block invariants need shape \(3, 2, 1\)"):
        run_monotone_trials(trials=4, master_seed=1, state=four_modes)


def _scalar_margins(state, inst):
    """The per-trial algorithm of the sparse path, restated as the oracle.

    Each outcome acts through ``apply_on_mode``, is renormalized and read
    through ``invariant_report``. The probability is summed in basis order,
    as the batch sums it. Summing in the order of the amplitude map, as the
    per-trial path did, moves the roundoff of an invariant that vanishes on
    the input (I2 of psi1), and the 2/3 power turns that into about 3e-12.
    """
    rep0 = invariant_report(state)
    avg1 = avg2 = 0.0
    for op in inst.kraus:
        out = apply_on_mode(op, inst.mode, state)
        prob = sum(a.real * a.real + a.imag * a.imag for a in out.dense().tolist())
        if prob < 1e-14:
            continue
        scale = math.sqrt(prob)
        unit = StateVector(state.shape, {occ: complex(a) / scale for occ, a in out.amplitudes.items()})
        rep = invariant_report(unit)
        avg1 += prob * rep.monotone1
        avg2 += prob * rep.monotone2
    return avg1 - rep0.monotone1, avg2 - rep0.monotone2


@pytest.mark.parametrize(
    "master, trials, state",
    [(31, 1000, None), (32, 200, family("psi1")), (33, 200, family("S2", {"r": 0.3}))],
    ids=["random", "psi1", "S2"],
)
def test_batched_margins_match_scalar_oracle(master, trials, state):
    summary = run_monotone_trials(trials, master, state=state)
    for i, rec in enumerate(summary.records):
        seed = derive_seed(master, i)
        mode = derive_seed(seed, 2) % 3
        psi = state or random_state(SHAPE_321, np.random.default_rng(derive_seed(seed, 0)))
        m1, m2 = _scalar_margins(psi, random_instrument(derive_seed(seed, 1), mode, 0.5))
        assert (rec.index, rec.seed, rec.mode) == (i, seed, mode)
        assert abs(rec.margin1 - m1) <= 1e-15
        assert abs(rec.margin2 - m2) <= 1e-15
        assert rec.passed == (max(m1, m2) <= MARGIN_TOL)


@pytest.mark.parametrize("master", [404, 2_000_003])
def test_replayed_trials_equal_their_records(master):
    summary = run_monotone_trials(250, master)
    for rec in summary.records:
        psi = random_state(SHAPE_321, np.random.default_rng(derive_seed(rec.seed, 0)))
        inst = random_instrument(derive_seed(rec.seed, 1), rec.mode, 0.5)
        assert monotonicity_trial(psi, inst) == (rec.margin1, rec.margin2)


def test_zero_probability_outcome_is_skipped():
    keep = np.diag([1.0, 0.0, 1.0]).astype(complex)
    drop = np.diag([0.0, 1.0, 0.0]).astype(complex)
    # No mode of this state holds level 2, so on every mode the second
    # outcome has probability zero and the first leaves the state as it is.
    state = StateVector(SHAPE_321, {(1, 1, 0): 1.0})
    others = [family("psi1"), random_state(SHAPE_321, rng)]
    # modes cycle through 0, 1, 2 within the batch, so dropped and kept
    # outcomes share the gather's per-mode source positions
    cases = [(s, mode) for s in [state] + others for mode in (0, 1, 2)]
    with np.errstate(all="raise"):
        singles = [
            monotonicity_trial(s, LocalInstrument(mode, np.array([keep, drop]), seed=0)) for s, mode in cases
        ]
        psi = np.column_stack([s.dense() for s, _ in cases])
        kraus = np.stack([np.array([keep, drop])] * len(cases))
        batch1, batch2 = _margins(psi, _block_rows(kraus), np.array([mode for _, mode in cases]))
    assert singles[:3] == [(0.0, 0.0)] * 3
    assert list(zip(batch1.tolist(), batch2.tolist())) == singles
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        summary = run_monotone_trials(50, 17, strength=0.0)
        fixed = run_monotone_trials(20, 18, strength=0.0, state=state)
    assert summary.failures == 0 and abs(summary.max_margin) < 1e-12
    assert fixed.max_margin == 0.0


def test_invariance_sweep_accepts_unit_determinant_elements():
    states = [random_state(SHAPE_321, rng) for _ in range(20)]
    elements = [random_element("SLOCC", seed=k) for k in range(10)]
    elements += [random_element("SU", seed=k) for k in range(10, 15)]
    worst1, worst2 = invariance_sweep(states, elements)
    assert worst1 < 1e-10
    assert worst2 < 1e-10


def _sweep_per_element(states, elements):
    """invariance_sweep's drifts element by element: one _moved pass over
    the (12, k) batch per element, each column's norm summed over the rows
    in basis order, the worst drift kept as it goes."""
    psi = np.column_stack([_amplitude_list(s) for s in states])
    i1_in, i2_in = _invariant_polynomials(psi)[3:]
    worst1 = worst2 = 0.0
    for g in elements:
        moved = np.array(_moved(psi, [((a[:2], b[:2]), c[2]) for a, b, c in g.matrices]))
        norms = np.sqrt(sum(moved.real * moved.real + moved.imag * moved.imag))
        i1_out, i2_out = _invariant_polynomials(moved / norms)[3:]
        want1, want2 = i1_in / norms**6, i2_in / norms**3
        worst1 = max(worst1, float((np.abs(i1_out - want1) / np.maximum(1.0, np.abs(want1))).max()))
        worst2 = max(worst2, float((np.abs(i2_out - want2) / np.maximum(1.0, np.abs(want2))).max()))
    return worst1, worst2


def test_batched_invariance_sweep_equals_the_per_element_sweep():
    local = np.random.default_rng(3030)
    for _ in range(60):
        k, n = int(local.integers(1, 20)), int(local.integers(1, 6))
        states = [random_state(SHAPE_321, local) for _ in range(k)]
        states[0] = family(str(local.choice(["psi1", "psi2"])))
        elements = [
            random_element(str(local.choice(["SU", "SLOCC"])), int(local.integers(2**40)), spread=float(local.uniform(0.3, 2.0)))
            for _ in range(n)
        ]
        got, want = invariance_sweep(states, elements), _sweep_per_element(states, elements)
        assert got == want, (k, n)
    # the refusals keep the order of the elements
    doomed = [StateVector(SHAPE_321, {(1, 1, 0): 1.0})]
    killer = GroupElement([np.diag([0.0, 0.0, 1.0]), np.eye(3), np.eye(3)])
    blow_up = GroupElement([np.diag([1e200, 1e200, 1e-200])] * 3)
    with pytest.raises(ArithmeticError, match="annihilated"):
        invariance_sweep(doomed, [killer, blow_up])
    with pytest.raises(ArithmeticError, match="overflowed a state"):
        invariance_sweep(doomed, [blow_up, killer])


def test_invariance_sweep_flags_determinant_drift():
    states = [family("psi1"), random_state(SHAPE_321, rng)]
    stretch = GroupElement(
        [2.0 * np.eye(3, dtype=complex), np.eye(3, dtype=complex), np.eye(3, dtype=complex)]
    )
    worst1, worst2 = invariance_sweep(states, [stretch])
    assert worst1 > 1e-3


def test_invariance_sweep_input_validation():
    su = [random_element("SU", seed=0)]
    # a state of another shape fails the package's one shape check
    with pytest.raises(ValueError, match=r"need shape \(3, 2, 1\)"):
        invariance_sweep([StateVector(SystemShape(4, 2, 1), {(1, 1, 0, 0): 1.0})], su)
    killer = GroupElement(
        [np.diag([0.0, 0.0, 1.0]).astype(complex), np.eye(3, dtype=complex), np.eye(3, dtype=complex)]
    )
    doomed = StateVector(SHAPE_321, {(1, 1, 0): 1.0})
    with pytest.raises(ArithmeticError, match="annihilated"):
        invariance_sweep([doomed], [killer])
    for empty in ([], iter([])):
        with pytest.raises(ValueError, match="needs at least one state column"):
            invariance_sweep(empty, su)
    with pytest.raises(ValueError, match="needs at least one group element"):
        invariance_sweep([doomed], iter([]))
    # the pair-block action reads no leak entry, so the sweep refuses
    # leaking and misshapen elements by the check of every action
    swap = np.eye(3)[[2, 1, 0]]
    with pytest.raises(ValueError, match="^operator on mode 1 violates the superselection rule$"):
        invariance_sweep([doomed], su + [GroupElement([np.eye(3), swap, np.eye(3)])])
    with pytest.raises(ValueError, match=r"^element has shape \(3, 4, 4\), expected \(3, 3, 3\)$"):
        invariance_sweep([doomed], [GroupElement([np.eye(4)] * 3)])
    with pytest.raises(ValueError, match=r"^element has shape \(2, 3, 3\), expected \(3, 3, 3\)$"):
        invariance_sweep([doomed], [GroupElement([np.eye(3)] * 2)])
    # a zero input column is the caller's error, not the element's
    with pytest.raises(ValueError, match="state column 1 is zero"):
        invariance_sweep([doomed, StateVector(SHAPE_321, {})], su)
    with pytest.raises(ValueError, match="state column 2 is zero"):
        invariance_sweep(iter([family("psi1"), family("psi2"), StateVector(SHAPE_321, {})]), su)


def test_invariance_sweep_refuses_non_finite_columns():
    # max(0.0, nan) keeps 0.0, so these cases used to report a perfect (0.0, 0.0)
    states = [random_state(SHAPE_321, rng) for _ in range(3)]
    blow_up = GroupElement([np.diag([1e200, 1e200, 1e-200])] * 3)
    with pytest.raises(ArithmeticError, match="overflowed a state"):
        invariance_sweep(states, [blow_up])
    # shrinking a state by 1e-60 underflows its norm to the sixth power,
    # which made the predicted I1 infinite and its drift NaN
    shrink = GroupElement([np.diag([1e-20] * 3)] * 3)
    with pytest.raises(ArithmeticError, match="predicted invariants of a moved state are not finite"):
        invariance_sweep([random_state(SHAPE_321, np.random.default_rng(0))], [shrink])
    # and a state whose I1 overflows made it inf / inf under any element
    diagonals = [(1, 1, 0), (2, 2, 0), (0, 1, 1), (0, 2, 2), (1, 0, 1), (2, 0, 2)]
    huge = StateVector(SHAPE_321, dict.fromkeys(diagonals, 1e60))
    with pytest.raises(ArithmeticError, match="predicted invariants of a moved state are not finite"):
        invariance_sweep([huge], [GroupElement([np.eye(3)] * 3)])
    poisoned = dict(states[1].amplitudes)
    poisoned[enumerate_basis(SHAPE_321)[4]] = math.nan
    states[1] = StateVector(SHAPE_321, poisoned)
    with pytest.raises(ValueError, match="must be finite"):
        invariance_sweep(states, [random_element("SU", seed=0)])


def test_overflowing_strength_is_refused(capfd):
    # with these seeds, 1.7e308 overflows the entries and 6e307 the scaled
    # spectral norm, which used to zero the first outcome without an error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for strength in (6e307, 1.7e308):
            with pytest.raises(ValueError, match="overflows the instrument entries"):
                run_monotone_trials(5, 1, strength=strength)
        with pytest.raises(ValueError, match="overflows the instrument entries"):
            random_instrument(0, mode=0, strength=1.7e308)
    assert "DLASCL" not in capfd.readouterr().err
    summary = run_monotone_trials(5, 1, strength=1e307)
    assert summary.trials == 5 and math.isfinite(summary.max_margin)
