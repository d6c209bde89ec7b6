import copy
import math
import pickle
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modal_ent import states
from modal_ent.classify import canonical_form, family, membership_report
from modal_ent.invariants import _amplitude_list, invariant_report
from modal_ent.maxent import build_psi_sigma, pattern_scan
from modal_ent.monte_carlo import LocalInstrument, random_instrument, run_monotone_trials
from modal_ent.operators import GroupElement, apply, make_slocc_element, random_element
from modal_ent.serialize import state_to_json
from modal_ent.stabilizers import stabilizer
from modal_ent.states import (
    SHAPE_321,
    LISTED_DIMENSION,
    StateVector,
    SystemShape,
    basis_index,
    enumerate_basis,
    is_maximally_entangled,
    local_index,
    normalize,
    phase_fit,
    random_state,
    reduced_density_matrix,
)

# the frozen basis order of the working sector, two particles over three modes
BASIS_321 = (
    (0, 1, 1), (0, 1, 2), (0, 2, 1), (0, 2, 2),
    (1, 0, 1), (1, 0, 2), (1, 1, 0), (1, 2, 0),
    (2, 0, 1), (2, 0, 2), (2, 1, 0), (2, 2, 0),
)


def test_basis_enumeration_321():
    basis = enumerate_basis(SHAPE_321)
    assert basis == BASIS_321
    assert SHAPE_321.dimension == 12
    idx = basis_index(SHAPE_321)
    for i, occ in enumerate(basis):
        assert idx[occ] == i


def test_basis_counts_match_formula():
    for n, m, p in [(3, 2, 1), (4, 2, 1), (4, 3, 2), (6, 4, 1), (5, 4, 3)]:
        shape = SystemShape(n, m, p)
        basis = enumerate_basis(shape)
        assert len(basis) == shape.dimension
        assert len(set(basis)) == len(basis)
        for occ in basis:
            assert sum(1 for s in occ if s) == m
            assert all(0 <= s <= p + 1 for s in occ)
        assert list(basis) == sorted(basis)


def test_local_index_level_major():
    # levels come first, vacancy sits at the last matrix index
    assert local_index(0, 1) == 2
    assert local_index(1, 1) == 0
    assert local_index(2, 1) == 1
    assert local_index(0, 3) == 4
    assert local_index(3, 3) == 2


def test_shape_validation():
    with pytest.raises(ValueError):
        SystemShape(0, 0, 1)
    with pytest.raises(ValueError):
        SystemShape(3, 4, 1)
    with pytest.raises(ValueError):
        SystemShape(3, 2, -1)


@pytest.mark.parametrize(
    "fields, message",
    [
        ((3, 2, 1.0), "'spin_numerator' must be an integer, got 1.0"),
        ((True, True, False), "'modes' must be an integer, got True"),
        ((3.5, 2, 1), "'modes' must be an integer, got 3.5"),
        ((3, "2", 1), "'particles' must be an integer, got '2'"),
        ((0, 2, 1.5), "'spin_numerator' must be an integer, got 1.5"),
        ((3, np.bool_(True), 1), "'particles' must be an integer, got"),
    ],
)
def test_shape_fields_must_be_integers(fields, message):
    # every field is checked for its type before any range check
    with pytest.raises(ValueError, match=re.escape(f"shape field {message}")):
        SystemShape(*fields)


def test_shape_keeps_numpy_integers_as_python_ints():
    shape = SystemShape(np.int64(3), np.uint8(2), np.int32(1))
    assert shape == SHAPE_321 and all(type(field) is int for field in shape)
    assert type(shape.dimension) is int
    with pytest.raises(ValueError, match="shape field 'spin_numerator' must be an integer, got 1.0"):
        SHAPE_321._replace(spin_numerator=1.0)


def test_shape_is_a_named_triple_equal_only_to_shapes():
    shape = SystemShape(3, 2, 1)
    assert repr(shape) == "SystemShape(modes=3, particles=2, spin_numerator=1)"
    assert shape == SHAPE_321 and not shape != SHAPE_321
    assert hash(shape) == hash(SHAPE_321) == hash((3, 2, 1))
    assert shape != (3, 2, 1) and (3, 2, 1) != shape and not shape == (3, 2, 1)
    assert shape != SystemShape(3, 2, 2)
    assert SystemShape(modes=4, particles=2, spin_numerator=1).dimension == 24
    assert SHAPE_321._replace(modes=4) == SystemShape(4, 2, 1)
    with pytest.raises(ValueError, match="need at least one mode"):
        SHAPE_321._replace(modes=0)


def test_values_and_records_refuse_assignment():
    psi = family("psi2")
    summary = run_monotone_trials(2, 0)
    params = canonical_form(psi)
    report = membership_report(psi)
    objects = [SHAPE_321, psi, params.element, random_instrument(0, 1, 0.5), params, report, report.profile,
               invariant_report(psi), pattern_scan([3], [1])[0], stabilizer("psi2_eq26"), summary, summary.records[0]]
    for obj in objects:
        fields = obj._fields if isinstance(obj, tuple) else type(obj).__slots__
        for name in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)


def test_state_rejects_bad_occupations():
    with pytest.raises(ValueError):
        StateVector(SHAPE_321, {(1, 1): 1.0})
    with pytest.raises(ValueError):
        StateVector(SHAPE_321, {(1, 1, 1): 1.0})
    with pytest.raises(ValueError):
        StateVector(SHAPE_321, {(3, 1, 0): 1.0})
    with pytest.raises(ValueError):
        StateVector(SHAPE_321, {(0, 0, 1): 1.0})


def test_dense_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(5):
        st0 = random_state(SHAPE_321, rng)
        vec = st0.dense()
        st1 = StateVector.from_dense(SHAPE_321, vec)
        assert np.max(np.abs(st1.dense() - vec)) == 0
        assert abs(st0.norm() - 1.0) < 1e-12
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
    with pytest.raises(ValueError, match="^vector length 11 does not match dimension 12$"):
        StateVector.from_dense(SHAPE_321, np.ones(11))


def test_dense_and_from_dense_refuse_a_sector_past_the_listed_dimension(monkeypatch):
    # the closed-form dimension decides; a listing of the basis would raise here
    psi, wide = build_psi_sigma(30, 5), SystemShape(60, 30, 1)

    def listing(shape):
        raise AssertionError(f"the basis of {shape} was listed")

    monkeypatch.setattr(states, "enumerate_basis", listing)
    monkeypatch.setattr(states, "basis_index", listing)
    for shape, call in ((psi.shape, psi.dense), (wide, lambda: StateVector.from_dense(wide, np.ones(1)))):
        assert shape.dimension > LISTED_DIMENSION
        with pytest.raises(ValueError, match=f"^sector dimension {shape.dimension} too large for a dense vector$"):
            call()


def test_random_state_refuses_a_sector_past_the_listed_dimension_before_drawing():
    # the refusal used to come after 2 * 109,824 normal draws
    wide = SystemShape(13, 6, 1)
    assert wide.dimension == 109824
    rng = np.random.default_rng(6161)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="^sector dimension 109824 too large for a dense vector$"):
        random_state(wide, rng)
    assert rng.bit_generator.state == before


def _outcome(call):
    """``(None, None)`` if ``call()`` returns, else its error type and message."""
    try:
        call()
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return None, None


@pytest.mark.parametrize("shape, occ, other", [
    (SHAPE_321, (1, 1, 0), (0, 1, 2)),
    (SystemShape(4, 2, 1), (1, 1, 0, 0), (0, 0, 1, 2)),
], ids=["321", "421"])
def test_the_layout_and_the_saver_refuse_the_same_amplitudes(shape, occ, other):
    # the layout used to coerce with complex(), which parses numeric strings,
    # so norm() read '0.6' as 0.6 while state_to_json refused it
    readers = [lambda s: s.norm(), lambda s: s.dense(), state_to_json]
    if shape == SHAPE_321:
        readers.append(invariant_report)
    for bad in ("0.6", None, "x", [1.0], b"1"):
        state = lambda: StateVector(shape, {occ: bad, other: 0.8})
        outcomes = {_outcome(lambda: read(state())) for read in readers}
        assert len(outcomes) == 1
        ((kind, message),) = outcomes
        # a ValueError to state-file callers, a TypeError to arithmetic ones
        assert issubclass(kind, ValueError) and issubclass(kind, TypeError)
        assert message == f"amplitude of occupation {occ} is not a number: {bad!r}"
    # numbers of any Python or numpy type lay out as their complex values
    for good in (0.6, 3, True, np.float32(0.5), np.complex64(0.25j), Fraction(3, 5), Decimal("0.6")):
        state = StateVector(shape, {occ: good, other: 0.8})
        assert [_outcome(lambda: read(state)) for read in readers] == [(None, None)] * len(readers)
        assert state.dense()[basis_index(shape)[occ]] == complex(good)


def test_reduced_density_of_product_like_state():
    # both particles pinned to modes A and B, mode C always empty
    psi = StateVector(SHAPE_321, {(1, 1, 0): 0.6, (2, 2, 0): 0.8})
    rows = reduced_density_matrix(psi, 2)
    assert all(type(entry) is complex for row in rows for entry in row)
    rho_c = np.asarray(rows)
    assert rho_c.shape == (3, 3)
    assert np.allclose(rho_c, np.diag([0.0, 0.0, 1.0]), atol=1e-14)
    rho_a = np.asarray(reduced_density_matrix(psi, 0))
    assert np.allclose(rho_a, np.diag([0.36, 0.64, 0.0]), atol=1e-14)
    assert abs(np.trace(rho_a) - 1.0) < 1e-14
    assert np.max(np.abs(rho_a - rho_a.conj().T)) < 1e-14
    # a negative mode would otherwise index the modes from the end
    for mode in (-1, 3):
        with pytest.raises(ValueError, match=f"mode {mode} out of range for 3 modes"):
            reduced_density_matrix(psi, mode)


def test_reduced_density_off_diagonals():
    # shared rest key (0, x, 1) produces coherence between levels of mode A
    a, b = 0.6, 0.8j
    psi = StateVector(SHAPE_321, {(1, 0, 1): a, (2, 0, 1): b})
    rho = np.asarray(reduced_density_matrix(psi, 0))
    assert abs(rho[0, 1] - a * np.conj(b)) < 1e-14
    assert abs(rho[1, 0] - b * np.conj(a)) < 1e-14
    assert abs(np.real(np.trace(rho @ rho)) - 1.0) < 1e-12


def test_reduced_density_requires_normalization():
    psi = StateVector(SHAPE_321, {(1, 1, 0): 2.0})
    with pytest.raises(ValueError):
        reduced_density_matrix(psi, 0)


def test_maximally_mixed_reductions():
    amp = 1.0 / math.sqrt(6.0)
    psi = StateVector(
        SHAPE_321,
        {occ: amp for occ in [(1, 1, 0), (2, 2, 0), (2, 0, 2), (1, 0, 1), (0, 2, 2), (0, 1, 1)]},
    )
    assert is_maximally_entangled(psi, tol=1e-12)
    for mode in range(3):
        rho = reduced_density_matrix(psi, mode)
        assert np.max(np.abs(rho - np.eye(3) / 3)) < 1e-15


def test_a_norm_that_overflows_is_infinite():
    # abs(a) ** 2 raises OverflowError past about 1.3e154; the norm reads it as inf
    huge = StateVector(SHAPE_321, {(1, 1, 0): 1e200, (0, 1, 2): 1.0})
    assert huge.norm() == math.inf
    assert StateVector(SHAPE_321, {(1, 1, 0): 1e150}).norm() == 1e150
    with pytest.raises(ValueError, match="cannot compare against a state whose norm overflows"):
        phase_fit(huge, huge, 1e-9)


def test_normalize():
    psi = StateVector(SHAPE_321, {(1, 1, 0): 3.0, (2, 2, 0): 4.0j})
    unit = normalize(psi)
    assert abs(unit.norm() - 1.0) < 1e-14
    assert abs(unit.amplitude((1, 1, 0)) - 0.6) < 1e-14
    with pytest.raises(ValueError):
        normalize(StateVector(SHAPE_321, {}))


def test_normalize_refuses_a_norm_that_is_not_finite():
    # dividing by an overflowing norm would give the zero state, and by a NaN norm a NaN state
    huge = StateVector(SHAPE_321, {(1, 1, 0): 1e200, (2, 2, 0): 1e200})
    with pytest.raises(ValueError, match="^cannot normalize a state whose norm is inf$"):
        normalize(huge)
    with pytest.raises(ValueError, match="^cannot normalize a state whose norm is inf$"):
        normalize(StateVector(SHAPE_321, {(1, 1, 0): math.inf}))
    with pytest.raises(ValueError, match="^cannot normalize a state whose norm is nan$"):
        normalize(StateVector(SHAPE_321, {(1, 1, 0): 1.0, (2, 2, 0): complex(math.nan, 0.0)}))
    # amplitudes near the float range whose squares still add to a finite norm are normalized
    edge = normalize(StateVector(SHAPE_321, {(1, 1, 0): 1e154, (2, 2, 0): 1e153}))
    assert abs(edge.norm() - 1.0) < 1e-15


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_norm_matches_dense_norm(seed):
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=12) + 1j * rng.normal(size=12)
    psi = StateVector.from_dense(SHAPE_321, vec)
    assert abs(psi.norm() - np.linalg.norm(vec)) < 1e-12 * max(1.0, np.linalg.norm(vec))


def test_cached_norm_and_amplitudes_equal_a_fresh_computation():
    local = np.random.default_rng(515)
    psis = [random_state(SHAPE_321, local) for _ in range(20)]
    psis += [family("psi1"), family("S2", {"r": 0.3, "theta": 1.2}), StateVector(SHAPE_321, {})]
    for psi in psis:
        fresh = StateVector(psi.shape, dict(psi.amplitudes))
        for _ in range(2):
            assert psi.norm() == math.sqrt(sum(abs(a) ** 2 for a in fresh.amplitudes.values()))
            listed = _amplitude_list(psi)
            assert listed == tuple(complex(fresh.amplitudes.get(occ, 0j)) for occ in BASIS_321)
        assert _amplitude_list(psi) is listed


def test_state_repr_shows_no_cache():
    psi = StateVector(SHAPE_321, {(1, 1, 0): 0.6, (0, 1, 2): 0.8j})
    want = (
        "StateVector(shape=SystemShape(modes=3, particles=2, spin_numerator=1),"
        " amplitudes={(1, 1, 0): 0.6, (0, 1, 2): 0.8j})"
    )
    assert repr(psi) == want
    psi.norm()
    _amplitude_list(psi)
    assert repr(psi) == want


def test_cached_amplitudes_refuse_mutation():
    psi = family("psi2")
    listed = _amplitude_list(psi)
    with pytest.raises(TypeError):
        listed[0] = 1.0
    with pytest.raises(AttributeError):
        listed.append(1.0)
    assert _amplitude_list(psi) == listed


def test_phase_fit_refuses_a_shape_mismatch_and_a_zero_reference():
    psi = StateVector(SHAPE_321, {(1, 1, 0): 1.0})
    wide = StateVector(SystemShape(4, 2, 1), {(1, 1, 0, 0): 1.0})
    with pytest.raises(ValueError, match=re.escape(f"shape mismatch: {SHAPE_321} vs {wide.shape}")):
        phase_fit(psi, wide, 1e-9)
    with pytest.raises(ValueError, match="^cannot compare against the zero state$"):
        phase_fit(StateVector(SHAPE_321, {}), psi, 1e-9)


def test_phase_fit_rule_on_a_subnormalised_pair():
    # the reference has norm 0.5, so the fit accepts a residual up to
    # tol * 0.5 and rejects anything above it
    a = StateVector(SHAPE_321, {(1, 1, 0): 0.3, (0, 1, 2): 0.4j})
    phase = np.exp(0.7j)
    tol = 1e-9
    for delta in (0.2e-9, 0.45e-9, 0.55e-9, 0.8e-9, 1.5e-9):
        amps = {occ: phase * v for occ, v in a.amplitudes.items()}
        amps[(2, 2, 0)] = delta
        b = StateVector(SHAPE_321, amps)
        fits, c = phase_fit(a, b, tol)
        assert fits == (delta <= 0.5 * tol)
        assert abs(c - phase) < 1e-15


@pytest.mark.parametrize(
    "occ, message",
    [
        ((1, 1), "has 2 modes, expected 3"),
        ((1, 1, 0, 0), "has 4 modes, expected 3"),
        ((3, 1, 0), "carries symbol 3 outside 0..2"),
        ((1, -1, 0), "carries symbol -1 outside 0..2"),
        ((np.int64(1), np.int64(3), 0), "carries symbol 3 outside 0..2"),
        ((1, 1, 1), "holds 3 particles, expected 2"),
        ((0, 0, 1), "holds 1 particles, expected 2"),
    ],
)
def test_state_rejection_messages(occ, message):
    with pytest.raises(ValueError, match=re.escape(f"occupation {occ!r} {message}")):
        StateVector(SHAPE_321, {(1, 1, 0): 0.6, occ: 0.8})


def test_state_accepts_numpy_integer_keys():
    keys = [(np.int64(1), np.int64(1), np.int64(0)), (np.int8(0), np.uint16(2), np.int32(1))]
    psi = StateVector(SHAPE_321, {keys[0]: 0.6, keys[1]: 0.8})
    assert psi.amplitude((1, 1, 0)) == 0.6 and psi.amplitude((0, 2, 1)) == 0.8
    assert np.array_equal(psi.dense(), StateVector(SHAPE_321, {(1, 1, 0): 0.6, (0, 2, 1): 0.8}).dense())


def test_large_sector_keys_are_checked_without_listing_the_basis():
    shape = SystemShape(11, 5, 1)
    assert shape.dimension > LISTED_DIMENSION
    listed = enumerate_basis.cache_info().currsize
    StateVector(shape, {(1, 2, 0, 1, 0, 2, 0, 1, 0, 0, 0): 1.0})
    with pytest.raises(ValueError, match="holds 4 particles, expected 5"):
        StateVector(shape, {(1, 2, 0, 1, 0, 2, 0, 0, 0, 0, 0): 1.0})
    with pytest.raises(ValueError, match="carries symbol 3 outside 0..2"):
        StateVector(shape, {(1, 2, 0, 1, 0, 3, 0, 1, 0, 0, 0): 1.0})
    assert enumerate_basis.cache_info().currsize == listed


def _all_entries_verdict(state, tol):
    """Every entry of every single-mode reduction compared with I/(p+2), the
    zeros off the blocks included, each refusal written as the verdict's."""
    d = state.shape.local_dim
    return not any(
        abs(entry - (1.0 / d if i == j else 0.0)) > tol
        for mode in range(state.shape.modes)
        for i, row in enumerate(reduced_density_matrix(state, mode))
        for j, entry in enumerate(row)
    )


def test_maximal_entanglement_verdict_equals_the_all_entries_verdict():
    # the (3, 2, 1) verdict stops at the first entry that fails, and forms
    # no zero off the blocks; on every state and tolerance it must still be
    # the verdict of comparing every entry
    local = np.random.default_rng(4242)
    params = {
        "psi1": [{}], "psi2": [{}],
        "S1": [{"r": 0.0}, {"r": 0.2}], "S2": [{"r": 0.3, "theta": 1.2}, {"r": 0.0}],
        "Eq14": [{"r1": 0.6, "r2": 0.64, "r3": 0.48}], "Eq15": [{"r1": 0.6, "r2": 0.64, "r3": 0.48}],
        "Eq16": [{"r1": 0.5, "r2": 0.5, "r3": 0.5, "r4": 0.5, "phi": 0.7}],
        "Eq18": [{"r1": 0.5, "r2": math.sqrt(0.1875), "r3": 0.3, "r4": 0.3, "r5": 0.6, "theta": 1.1}],
    }
    psis = [family(name, p) for name, ps in params.items() for p in ps]
    psis += [random_state(SHAPE_321, local) for _ in range(40)]
    # the maximally entangled states moved by local unitaries stay so, to roundoff
    psis += [normalize(apply(random_element("SU", seed), family(name))) for seed in range(5) for name in ("psi1", "psi2")]
    scaled = [
        StateVector._from_amplitudes(SHAPE_321, [a * factor for a in psi._basis_amplitudes()])
        for psi in psis
        for factor in (1.0 + 5e-12, 1.0 - 5e-12)
    ]
    verdicts = set()
    for psi in psis + scaled:
        for tol in (1e-12, 1e-9, 1e-15, 0.0, -1.0, math.nan, math.inf):
            want = _all_entries_verdict(psi, tol)
            assert is_maximally_entangled(psi, tol) is want
            verdicts.add(want)
    assert verdicts == {True, False}
    assert is_maximally_entangled(family("psi1")) and is_maximally_entangled(family("psi2"))
    with pytest.raises(ValueError, match="expects a normalized state"):
        is_maximally_entangled(StateVector(SHAPE_321, {(1, 1, 0): 2.0}))


def _bits(x):
    """``x`` with every float spelled by ``float.hex``, through complex
    numbers, tuples and lists, so 0.0 and -0.0 differ."""
    if isinstance(x, complex):
        return x.real.hex(), x.imag.hex()
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (tuple, list)):
        return [_bits(y) for y in x]
    return x


def test_checked_value_classes_copy_and_pickle_through_their_constructors():
    local = np.random.default_rng(9001)
    psis = [family("psi1"), random_state(SHAPE_321, local), StateVector(SHAPE_321, {(1, 1, 0): 0.6, (0, 1, 2): 0.8j})]
    psis += [random_state(SystemShape(4, 2, 1), local), build_psi_sigma(2, 1)]
    elements = [random_element("SU", 1), make_slocc_element([(0.1, 0.2, 0.3, 0.4)] * 2), GroupElement(np.eye(4)[None] * 2)]
    elements.append(canonical_form(psis[1]).element)
    instruments = [random_instrument(5, 2, 0.5), LocalInstrument(1, np.array([np.eye(3), np.eye(3)]) / math.sqrt(2), 7)]
    for psi in psis:
        psi.norm()
        if psi.shape == SHAPE_321:
            invariant_report(psi)
        for twin in (pickle.loads(pickle.dumps(psi)), copy.deepcopy(psi), copy.copy(psi)):
            assert type(twin) is StateVector and twin is not psi
            assert twin.shape == psi.shape and _bits(twin._entries()) == _bits(psi._entries())
            # the caches are recomputed, never carried over
            assert twin._norm is None and twin._invariants is None
            assert twin.norm() == psi.norm() and repr(twin) == repr(psi)
    for element in elements:
        for twin in (pickle.loads(pickle.dumps(element)), copy.deepcopy(element), copy.copy(element)):
            assert type(twin) is GroupElement and twin._blocks is None
            assert _bits(twin.matrices) == _bits(element.matrices)
            if len(element.matrices) == 3 and len(element.matrices[0]) == 3:
                assert _bits(apply(twin, psis[1])._entries()) == _bits(apply(element, psis[1])._entries())
    for inst in instruments:
        for twin in (pickle.loads(pickle.dumps(inst)), copy.deepcopy(inst), copy.copy(inst)):
            assert type(twin) is LocalInstrument and (twin.mode, twin.seed) == (inst.mode, inst.seed)
            assert np.array_equal(twin._blocks.re, inst._blocks.re) and np.array_equal(twin._blocks.im, inst._blocks.im)
    # a pickle rebuilds through the checked constructor, so what it carries is judged again
    leaking = np.eye(3, dtype=complex)
    leaking[0, 2] = 0.5
    twin = pickle.loads(pickle.dumps(GroupElement([np.eye(3), leaking, np.eye(3)])))
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^operator on mode 1 violates the superselection rule$"):
            apply(twin, psis[0])

    class Forged:
        # pickles as a call of the class it names, on arguments that its constructor refuses
        def __init__(self, cls, *args):
            self.call = cls, args

        def __reduce__(self):
            return self.call

    with pytest.raises(ValueError, match="outcome 0 violates the superselection rule"):
        pickle.loads(pickle.dumps(Forged(LocalInstrument, 0, np.array([leaking, np.eye(3)]), 3)))
    with pytest.raises(ValueError, match="has 4 modes, expected 3"):
        pickle.loads(pickle.dumps(Forged(StateVector, SHAPE_321, {(1, 1, 0, 0): 1.0})))
    forged = pickle.loads(pickle.dumps(Forged(GroupElement, [leaking] * 3)))
    with pytest.raises(ValueError, match=r"^operator on mode 0 violates the superselection rule$"):
        apply(forged, psis[0])
