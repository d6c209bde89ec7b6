"""One layout for every state: the support in basis order beside its amplitudes.

A (3, 2, 1) state's support is the whole basis, its twelve amplitudes in
basis order. Each producer makes the tuple that the map route gives: keep
the nonzero entries in a map, then read the map back in basis order, with
``0j`` where an entry is missing (``_map_route``, the oracle). The
``amplitudes`` view is that map in basis order. In every sector, since
every result reads the layout, the order in which a map lists its entries
changes no result bit.
"""

import itertools
import json
import math

import numpy as np
from hypothesis import given, settings, strategies as st
from test_operators import _random_compliant_blocks

from modal_ent.classify import canonical_form, family, membership_report
from modal_ent.invariants import invariant_report
from modal_ent.maxent import build_psi_sigma
from modal_ent.operators import GroupElement, _moved, apply, random_element
from modal_ent.serialize import state_from_json, state_to_json
from modal_ent.states import (
    SHAPE_321,
    StateVector,
    SystemShape,
    enumerate_basis,
    is_maximally_entangled,
    local_index,
    normalize,
    phase_fit,
    random_state,
    reduced_density_matrix,
)

BASIS = enumerate_basis(SHAPE_321)

#: one member of each named family, at fixed parameters
FAMILIES = {
    "psi1": {},
    "psi2": {},
    "S1": {"r": 0.2},
    "S2": {"r": 0.3, "theta": 1.2},
    "Eq14": {"r1": 0.6, "r2": 0.64, "r3": 0.48},
    "Eq15": {"r1": 0.6, "r2": 0.64, "r3": 0.48},
    "Eq16": {"r1": 0.5, "r2": 0.5, "r3": 0.5, "r4": 0.5, "phi": 0.7},
    "Eq18": {"r1": 0.5, "r2": math.sqrt(0.1875), "r3": 0.3, "r4": 0.3, "r5": 0.6, "theta": 1.1},
}

#: how far, in units of eps, a (3, 2, 1) reduction read from the tuple may
#: lie from the map-grouping one: both sum the same products of at most four
#: groups, in two orders, which differ by at most 2 * 3 u = 3 eps times the
#: sum of the terms' moduli in each part, so by 3 sqrt(2) eps in modulus;
#: for a normalized state that sum is at most 1 (Cauchy-Schwarz)
REDUCTION_ULPS = 3 * math.sqrt(2)


def _hex(x):
    """``x`` with every float spelled by ``float.hex``, through complex
    numbers, tuples, lists, states (their tuples) and elements (their rows)."""
    if isinstance(x, StateVector):
        return _hex(x._basis_amplitudes())
    if isinstance(x, GroupElement):
        return _hex(x.matrices)
    if isinstance(x, complex):
        return (x.real.hex(), x.imag.hex())
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (tuple, list)):
        return [_hex(y) for y in x]
    return x


def _map_route(amps):
    """The tuple that a map of (3, 2, 1) amplitudes gives, read in basis
    order as Python complex numbers with ``0j`` for a missing entry."""
    return tuple(complex(amps.get(occ, 0j)) for occ in BASIS)


def _assert_tuple_contract(state, amps):
    """``state`` holds the tuple of the map route from ``amps``, every zero
    as ``+0j``, and its view is ``amps`` in basis order, with no zero entry."""
    got = state._basis_amplitudes()
    assert type(got) is tuple and all(type(z) is complex for z in got)
    assert _hex(got) == _hex(_map_route(amps))
    assert all(math.copysign(1.0, z.real) == math.copysign(1.0, z.imag) == 1.0 for z in got if not z)
    view = state.amplitudes
    assert list(view) == [occ for occ in BASIS if occ in amps]
    assert _hex(list(view.values())) == _hex([complex(amps[occ]) for occ in view])
    assert all(view.values())


def _inputs():
    """Random states, the families, S1 at r = 0, a state on the AB block
    alone, and SU and SLOCC moves of each."""
    local = np.random.default_rng(3210)
    states = [random_state(SHAPE_321, local) for _ in range(6)]
    states.append(StateVector(SHAPE_321, {(1, 1, 0): 0.6, (2, 2, 0): 0.8}))
    states += [family(name, params) for name, params in FAMILIES.items()] + [family("S1", {"r": 0.0})]
    moved = [apply(random_element(kind, s), psi) for s, psi in enumerate(states) for kind in ("SU", "SLOCC")]
    return states + [normalize(psi) for psi in moved]


# an element whose entries carry signed zero parts: it sends the empty pair
# blocks of a sparse state to zeros with a negative part
_SIGNED = GroupElement([
    [[1 - 1j, -1j, 0], [-1 - 1j, 1 + 0j, 0], [0, 0, -1 - 1j]],
    [[-1j, -1j, 0], [-1j, 1j, 0], [0, 0, -1 + 1j]],
    [[-1 - 1j, -1j, 0], [1 + 1j, 1j, 0], [0, 0, 1j]],
])


def test_apply_holds_the_map_route_of_the_moved_amplitudes():
    signed_zeros = 0
    for psi in _inputs():
        for element in (random_element("SLOCC", 7), _SIGNED):
            moved = _moved(psi._basis_amplitudes(), [((a[:2], b[:2]), c[2]) for a, b, c in element.matrices])
            signed_zeros += sum(math.copysign(1.0, z.real) < 0 or math.copysign(1.0, z.imag) < 0 for z in moved if not z)
            _assert_tuple_contract(apply(element, psi), {occ: a for occ, a in zip(BASIS, moved) if a})
    # the empty blocks reach the zero rule
    assert signed_zeros


def test_normalize_from_dense_and_the_loader_hold_the_map_route():
    for psi in _inputs():
        scaled = StateVector(SHAPE_321, {occ: 2.5 * a for occ, a in psi.amplitudes.items()})
        _assert_tuple_contract(normalize(scaled), {occ: a / scaled.norm() for occ, a in scaled.amplitudes.items()})
        vec = psi.dense()
        vec[vec == 0] = complex(-0.0, -0.0)
        _assert_tuple_contract(StateVector.from_dense(SHAPE_321, vec), {occ: complex(v) for occ, v in zip(BASIS, vec) if v != 0})
        # the records of the saved state, a zero record of each sign, and the lot in reverse
        doc = json.loads(state_to_json(psi))
        doc["amplitudes"] += [{"occ": list(occ), "re": -0.0, "im": 0.0} for occ in BASIS if occ not in psi.amplitudes]
        doc["amplitudes"].reverse()
        records = {tuple(r["occ"]): complex(r["re"], r["im"]) for r in doc["amplitudes"] if r["re"] or r["im"]}
        _assert_tuple_contract(state_from_json(json.dumps(doc)), records)


def test_canonical_state_holds_the_map_route_of_the_reduced_amplitudes(monkeypatch):
    seen = []
    made = StateVector._from_amplitudes.__func__

    def recording(cls, shape, amps, support=None):
        seen.append(list(amps))
        return made(cls, shape, seen[-1], support)

    monkeypatch.setattr(StateVector, "_from_amplitudes", classmethod(recording))
    for psi in _inputs():
        state = canonical_form(psi).state
        _assert_tuple_contract(state, {occ: a for occ, a in zip(BASIS, seen[-1]) if a})


def _grouped_reduction(state, mode):
    """The reduction by grouping the map's entries on the other modes' symbols."""
    columns = {}
    for occ, amp in state.amplitudes.items():
        columns.setdefault(occ[:mode] + occ[mode + 1 :], []).append((local_index(occ[mode], 1), complex(amp)))
    rho = [[0j] * 3 for _ in range(3)]
    for entries in columns.values():
        for i, a in entries:
            for j, b in entries:
                rho[i][j] += a * b.conjugate()
    return rho


def test_reductions_from_the_tuple_agree_with_the_map_grouping():
    eps = np.finfo(float).eps
    verdicts = {}
    for k, psi in enumerate(_inputs()):
        # a map-built copy out of basis order, read by both routes
        shuffled = StateVector(SHAPE_321, dict(reversed(list(psi.amplitudes.items()))))
        grouped = [_grouped_reduction(shuffled, mode) for mode in range(3)]
        for mode, want in enumerate(grouped):
            got = reduced_density_matrix(shuffled, mode)
            assert all(type(z) is complex for row in got for z in row)
            assert np.max(np.abs(np.array(got) - np.array(want))) <= REDUCTION_ULPS * eps
        # a map of all twelve entries in basis order groups in the split's order, bit for bit
        assert _hex([reduced_density_matrix(psi, mode) for mode in range(3)]) == _hex(
            [_grouped_reduction(StateVector(SHAPE_321, dict(zip(BASIS, psi._basis_amplitudes()))), mode) for mode in range(3)]
        )
        want = all(abs(z - (1.0 / 3.0 if i == j else 0.0)) <= 1e-12 for rho in grouped for i, row in enumerate(rho) for j, z in enumerate(row))
        verdicts[k] = (is_maximally_entangled(shuffled), want)
    assert all(got == want for got, want in verdicts.values())
    # psi1, psi2 and S1 at r = 0 are maximally entangled; Eq14 is not
    for name, params, want in (("psi1", {}, True), ("psi2", {}, True), ("S1", {"r": 0.0}, True), ("Eq14", FAMILIES["Eq14"], False)):
        psi = family(name, params)
        grouped = [_grouped_reduction(psi, mode) for mode in range(3)]
        assert is_maximally_entangled(psi) is want
        assert want == all(abs(z - (1.0 / 3.0 if i == j else 0.0)) <= 1e-12 for rho in grouped for i, row in enumerate(rho) for j, z in enumerate(row))


def _results(psi, element):
    """Every per-state result that the order of a map could reach."""
    return _hex([
        psi.norm(),
        normalize(psi),
        invariant_report(psi),
        canonical_form(psi),
        membership_report(psi),
        [reduced_density_matrix(psi, mode) for mode in range(3)],
        phase_fit(psi, apply(element, psi), 1e-9),
        state_to_json(psi),
    ])


@settings(max_examples=60, deadline=None)
@given(
    source=st.sampled_from(["random", *FAMILIES]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    su_moved=st.booleans(),
    order=st.randoms(use_true_random=False),
)
def test_record_order_changes_no_result_bit(source, seed, su_moved, order):
    psi = random_state(SHAPE_321, np.random.default_rng(seed)) if source == "random" else family(source, FAMILIES[source])
    if su_moved:
        psi = normalize(apply(random_element("SU", seed), psi))
    items = list(psi.amplitudes.items())
    order.shuffle(items)
    permuted = StateVector(SHAPE_321, dict(items))
    element = random_element("SU", seed + 1)
    assert _results(permuted, element) == _results(psi, element)


def test_phase_fit_anchors_on_the_first_tie_in_basis_order_on_the_map_path():
    # four tied moduli in a four-mode sector, which keeps its map; the moved
    # state is off the ray, so each anchor would give another ratio
    shape = SystemShape(4, 2, 1)
    tied = [((0, 0, 2, 1), 0.5), ((1, 2, 0, 0), -0.5), ((0, 1, 0, 1), 0.5j), ((2, 0, 0, 2), 0.5)]
    local = np.random.default_rng(42)
    ops = []
    for _ in range(4):
        op = np.zeros((3, 3), dtype=complex)
        op[:2, :2] = local.normal(size=(2, 2)) + 1j * local.normal(size=(2, 2))
        op[2, 2] = 1.0
        ops.append(op)
    element = GroupElement(ops)
    fits = set()
    for entries in itertools.permutations(tied):
        state = StateVector(shape, dict(entries))
        moved = apply(element, state)
        _, c = phase_fit(state, moved, 1e-9)
        fits.add(_hex(c))
        first = min(state.amplitudes)
        assert c == moved.amplitudes.get(first, 0j) / state.amplitudes[first]
    assert len(fits) == 1


#: sectors outside (3, 2, 1) whose states keep their occupations as their support
OTHER_SHAPES = (SystemShape(4, 2, 1), SystemShape(3, 2, 2), SystemShape(5, 3, 1))


def _compliant_element(local, shape):
    return GroupElement(_random_compliant_blocks(local, shape.modes, shape.local_dim))


def _items(state):
    """A state's amplitude map, in its order, with every float spelled by ``float.hex``."""
    return _hex([[occ, amp] for occ, amp in state.amplitudes.items()])


def _results_outside(psi, element):
    """Every per-state result of a sector outside (3, 2, 1) that the order of a map could reach."""
    unit = normalize(psi)
    moved = apply(element, psi)
    return [
        psi.norm().hex(),
        _items(unit),
        _hex([reduced_density_matrix(unit, mode) for mode in range(psi.shape.modes)]),
        _items(moved),
        _hex(phase_fit(psi, moved, 1e-9)),
        state_to_json(psi),
    ]


@settings(max_examples=60, deadline=None)
@given(
    source=st.sampled_from([*OTHER_SHAPES, "psi_sigma"]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    moved=st.booleans(),
    order=st.randoms(use_true_random=False),
)
def test_map_order_changes_no_result_bit_outside_321(source, seed, moved, order):
    local = np.random.default_rng(seed)
    if source == "psi_sigma":
        psi = build_psi_sigma(1, 2)
    else:
        basis = enumerate_basis(source)
        picked = local.choice(len(basis), size=8, replace=False)
        psi = StateVector(source, {basis[k]: complex(*local.normal(size=2)) for k in picked})
    if moved:
        psi = apply(_compliant_element(local, psi.shape), psi)
    items = list(psi.amplitudes.items())
    order.shuffle(items)
    element = _compliant_element(local, psi.shape)
    assert _results_outside(StateVector(psi.shape, dict(items)), element) == _results_outside(psi, element)
