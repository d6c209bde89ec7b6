import json
import math
import os
import re
import stat

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modal_ent.families import family
from modal_ent.maxent import build_psi_sigma
from modal_ent.operators import GroupElement, random_element
from modal_ent.serialize import (
    SCHEMA_VERSION,
    dumps_json,
    element_from_json,
    element_to_json,
    format_csv,
    read_text,
    state_from_json,
    state_to_json,
    write_text,
)
from modal_ent.states import LISTED_DIMENSION, SHAPE_321, StateVector, SystemShape, enumerate_basis, random_state

rng = np.random.default_rng(808)


def test_state_roundtrip_is_byte_stable():
    psi = random_state(SHAPE_321, rng)
    text = state_to_json(psi)
    again = state_to_json(state_from_json(text))
    assert again == text
    loaded = state_from_json(text)
    assert np.abs(loaded.dense() - psi.dense()).max() == 0


def test_state_symbol_spelling():
    psi = StateVector(SHAPE_321, {(1, 2, 0): 0.6, (0, 1, 2): 0.8j})
    text = state_to_json(psi, use_symbols=True)
    assert '"ud0"' in text
    assert '"0ud"' in text
    loaded = state_from_json(text)
    assert loaded.amplitude((1, 2, 0)) == 0.6
    assert loaded.amplitude((0, 1, 2)) == 0.8j
    # numeric and symbol spellings load to the same state
    assert np.abs(loaded.dense() - state_from_json(state_to_json(psi)).dense()).max() == 0
    with pytest.raises(ValueError):
        state_to_json(random_state(SystemShape(3, 2, 2), rng), use_symbols=True)


def test_state_json_drops_zero_amplitudes():
    psi = StateVector(SHAPE_321, {(1, 2, 0): 1.0, (2, 1, 0): 0.0})
    text = state_to_json(psi)
    doc = json.loads(text)
    assert len(doc["amplitudes"]) == 1
    loaded = state_from_json(
        '{"shape": {"modes": 3, "particles": 2, "spin_numerator": 1},'
        ' "amplitudes": [{"occ": [1, 2, 0], "re": 0.0, "im": 0.0}]}'
    )
    assert loaded.amplitudes == {}


def test_state_json_names_the_occupation_of_a_non_finite_amplitude():
    for bad in (math.nan, math.inf, complex(0.5, -math.inf)):
        psi = StateVector(SHAPE_321, {(0, 1, 2): 1.0, (1, 1, 0): bad})
        for use_symbols in (False, True):
            with pytest.raises(ValueError, match=rf"^amplitude of occupation \(1, 1, 0\) is not finite: {re.escape(repr(bad))}$"):
                state_to_json(psi, use_symbols=use_symbols)


def test_state_json_refuses_an_amplitude_that_is_not_a_number():
    for bad in (None, "x", [1.0]):
        psi = StateVector(SHAPE_321, {(1, 1, 0): bad, (0, 1, 2): 1.0})
        with pytest.raises(ValueError, match=r"amplitude of occupation \(1, 1, 0\) is not a number"):
            state_to_json(psi)
    # numpy numbers of any width still write through their real and imaginary parts
    narrow = StateVector(SHAPE_321, {(1, 1, 0): np.float32(0.5), (0, 1, 2): np.complex64(0.25j)})
    wide = StateVector(SHAPE_321, {(1, 1, 0): 0.5, (0, 1, 2): 0.25j})
    assert state_to_json(narrow) == state_to_json(wide)


def test_state_json_malformed_records():
    head = '{"shape": {"modes": 3, "particles": 2, "spin_numerator": 1}, "amplitudes": '
    cases = [
        '[{"occ": [1, 2, 0], "re": 1.0}]',
        '[{"occ": [1, 2, 0], "re": 1.0, "im": 0.0, "x": 1}]',
        '[{"occ": [1, 2], "re": 1.0, "im": 0.0}]',
        '[{"occ": [9, 2, 0], "re": 1.0, "im": 0.0}]',
        '[{"occ": "uq0", "re": 1.0, "im": 0.0}]',
        '[{"occ": [1, 2, 0], "re": "much", "im": 0.0}]',
        '[{"occ": [1, 2, 0], "re": 1.0, "im": true}]',
        '[{"occ": [1, 2, 0], "re": 1' + "0" * 400 + ', "im": 0.0}]',
    ]
    for body in cases:
        with pytest.raises(ValueError, match="amplitude record 0 is malformed"):
            state_from_json(head + body + "}")
    pinned = [
        ('[{"occ": [1, 2.0, 0], "re": 1.0, "im": 0.0}]', 0, "occupation entries must be integers, got [1, 2.0, 0]"),
        ('[{"occ": [1, true, 0], "re": 1.0, "im": 0.0}]', 0, "occupation entries must be integers, got [1, True, 0]"),
        ('[{"occ": [[1], 1, 0], "re": 1.0, "im": 0.0}]', 0, "occupation entries must be integers, got [[1], 1, 0]"),
        ('[{"occ": 120, "re": 1.0, "im": 0.0}]', 0, "occupation must be a list or symbol string, got 120"),
        ('[{"occ": [1, 2, 0], "re": 1e400, "im": 0.0}]', 0, "number is not finite"),
        ('[{"occ": [1, 2, 0], "re": 1.0, "im": -Infinity}]', 0, "number is not finite"),
        ('[{"occ": [1, 2, 0], "re": NaN, "im": 0.0}]', 0, "number is not finite"),
        (
            '[{"occ": [1, 2, 0], "re": 1.0, "im": 0.0}, {"occ": [1, 2, 0], "re": 0.5, "im": 0.0}]',
            1,
            "occupation (1, 2, 0) appears twice",
        ),
    ]
    for body, index, message in pinned:
        with pytest.raises(ValueError, match=re.escape(f"amplitude record {index} is malformed: {message}")):
            state_from_json(head + body + "}")
    spin_one = '{"shape": {"modes": 3, "particles": 2, "spin_numerator": 2}, "amplitudes": '
    with pytest.raises(ValueError, match="malformed: symbol strings are only defined for spin_numerator 1"):
        state_from_json(spin_one + '[{"occ": "ud0", "re": 1.0, "im": 0.0}]}')
    dup = (
        head
        + '[{"occ": [1, 2, 0], "re": 1.0, "im": 0.0},'
        + ' {"occ": "ud0", "re": 2.0, "im": 0.0}]}'
    )
    with pytest.raises(ValueError, match="amplitude record 1 is malformed"):
        state_from_json(dup)


def test_state_json_refuses_a_repeated_occupation_in_either_order():
    # a zero record counts: the repeat is refused whichever record comes first
    head = '{"shape": {"modes": 3, "particles": 2, "spin_numerator": 1}, "amplitudes": '
    records = [{"occ": [1, 2, 0], "re": 0.0, "im": 0.0}, {"occ": [1, 2, 0], "re": 1.0, "im": 0.0}]
    for order in (records, records[::-1]):
        with pytest.raises(ValueError, match=r"^amplitude record 1 is malformed: occupation \(1, 2, 0\) appears twice$"):
            state_from_json(head + json.dumps(order) + "}")


def test_state_json_accepts_integer_parts():
    head = '{"shape": {"modes": 3, "particles": 2, "spin_numerator": 1}, "amplitudes": '
    loaded = state_from_json(head + '[{"occ": [1, 2, 0], "re": 1, "im": 0}, {"occ": [0, 1, 1], "re": 0, "im": -2}]}')
    assert loaded.amplitudes == {(1, 2, 0): complex(1.0, 0.0), (0, 1, 1): complex(0.0, -2.0)}
    assert all(type(z) is complex for z in loaded.amplitudes.values())


_FAMILY_PARAMS = {
    "psi1": {},
    "psi2": {},
    "S1": {"r": 0.2},
    "S2": {"r": 0.3, "theta": 1.2},
    "Eq14": {"r1": 0.6, "r2": 0.48, "r3": 0.64},
    "Eq15": {"r1": 0.6, "r2": 0.48, "r3": 0.64},
    "Eq16": {"r1": 0.5, "r2": 0.5, "r3": 0.5, "r4": 0.5, "phi": 0.7},
    "Eq18": {**{f"r{k}": 6**-0.5 for k in range(1, 6)}, "theta": -2.1},
}


@pytest.mark.parametrize("symbols", [False, True])
def test_state_json_save_then_load_is_byte_identical(symbols):
    local = np.random.default_rng(4242)
    psis = [family(name, params) for name, params in _FAMILY_PARAMS.items()]
    psis += [random_state(SHAPE_321, local) for _ in range(50)]
    for psi in psis:
        text = state_to_json(psi, use_symbols=symbols)
        loaded = state_from_json(text)
        assert state_to_json(loaded, use_symbols=symbols) == text
        assert loaded.amplitudes == {occ: amp for occ, amp in psi.amplitudes.items() if amp != 0}


def test_state_json_round_trips_a_sector_above_the_listed_dimension():
    shape = SystemShape(40, 3, 1)
    assert shape.dimension > LISTED_DIMENSION
    occs = [(1,) + (0,) * 37 + (2, 1), (0, 2) + (0,) * 36 + (1, 1), (2, 0, 1, 2) + (0,) * 36]
    psi = StateVector(shape, {occ: complex(0.5 * k, -0.25 * k) for k, occ in enumerate(occs, 1)})
    text = state_to_json(psi)
    loaded = state_from_json(text)
    assert loaded.amplitudes == psi.amplitudes
    assert state_to_json(loaded) == text
    unbalanced = r"amplitude record \d is malformed: occupation .* holds 2 particles, expected 3"
    with pytest.raises(ValueError, match=unbalanced):
        state_from_json(text.replace("[1, 0, 0", "[0, 0, 0", 1))
    # records come in basis order, here read off a small unlisted sector's basis
    small = SystemShape(9, 6, 1)
    assert small.dimension > LISTED_DIMENSION
    basis = enumerate_basis(small)
    picked = np.random.default_rng(33).permutation(len(basis))[:40]
    psi = StateVector(small, {basis[k]: complex(k, -1.0) for k in picked})
    for symbols in (False, True):
        text = state_to_json(psi, use_symbols=symbols)
        assert state_to_json(state_from_json(text), use_symbols=symbols) == text
    records = json.loads(state_to_json(psi))["amplitudes"]
    assert [tuple(r["occ"]) for r in records] == [occ for occ in basis if occ in psi.amplitudes]
    # a 210-mode sequence state, whose 177-digit basis is never listed
    sigma = build_psi_sigma(30, 5)
    text = state_to_json(sigma)
    assert len(json.loads(text)["amplitudes"]) == 7
    assert state_to_json(state_from_json(text)) == text


def test_state_json_top_level_errors():
    with pytest.raises(ValueError, match="invalid JSON"):
        state_from_json("not json")
    with pytest.raises(ValueError):
        state_from_json('{"shape": {"modes": 3, "particles": 2, "spin_numerator": 1}}')
    with pytest.raises(ValueError):
        state_from_json('{"shape": {"modes": 3}, "amplitudes": []}')
    with pytest.raises(ValueError, match="^amplitudes must be a list$"):
        state_from_json('{"shape": {"modes": 3, "particles": 2, "spin_numerator": 1}, "amplitudes": {}}')
    with pytest.raises(ValueError, match="shape field 'modes' must be an integer, got 3.0"):
        state_from_json(
            '{"shape": {"modes": 3.0, "particles": 2, "spin_numerator": 1}, "amplitudes": []}'
        )


def test_element_roundtrip():
    el = random_element("SLOCC", seed=21)
    text = element_to_json(el)
    back = element_from_json(text)
    for a, b in zip(el.matrices, back.matrices):
        assert np.array_equal(a, b)
    assert element_to_json(back) == text


def test_element_json_errors():
    with pytest.raises(ValueError, match="invalid JSON"):
        element_from_json("[")
    with pytest.raises(ValueError, match="non-empty array"):
        element_from_json("[]")
    with pytest.raises(ValueError, match="operator 0"):
        element_from_json('[{"dim": 2}]')
    with pytest.raises(ValueError, match="operator 0 must have 2 rows"):
        element_from_json('[{"dim": 2, "rows": [[{"re": 1, "im": 0}, {"re": 0, "im": 0}]]}]')
    bad_cell = (
        '[{"dim": 1, "rows": [[{"re": "a", "im": 0}]]}]'
    )
    with pytest.raises(ValueError, match="row 0, entry 0 is malformed"):
        element_from_json(bad_cell)
    with pytest.raises(ValueError, match="row 0, entry 0 is malformed"):
        element_from_json('[{"dim": 1, "rows": [[{"re": "1e-3", "im": 0}]]}]')
    not_an_entry = 'row 0, entry 0 is malformed: matrix entries must be objects with keys "re" and "im"'
    with pytest.raises(ValueError, match=not_an_entry):
        element_from_json('[{"dim": 1, "rows": [[1.0]]}]')
    for text, shown in (("0", "0"), ("true", "True"), ("2.0", "2.0")):
        with pytest.raises(ValueError, match=f"^operator 0 has invalid dim {shown}$"):
            element_from_json('[{"dim": %s, "rows": []}]' % text)
    with pytest.raises(ValueError, match="^operator 0, row 1 must have 2 entries$"):
        element_from_json('[{"dim": 2, "rows": [[{"re": 1, "im": 0}, {"re": 0, "im": 0}], [{"re": 1, "im": 0}]]}]')
    three, four = (json.loads(element_to_json(GroupElement([np.eye(d)]))) for d in (3, 4))
    with pytest.raises(ValueError, match="operator 2 has dim 4, but operator 0 has dim 3"):
        element_from_json(json.dumps(three + three + four))


def test_dumps_json_scalars():
    assert dumps_json(True) == "true"
    with pytest.raises(TypeError, match="numpy.bool"):
        dumps_json(np.bool_(False))
    assert dumps_json(None) == "null"
    assert dumps_json(3) == "3"
    with pytest.raises(TypeError, match="numpy.int64"):
        dumps_json(np.int64(3))
    assert dumps_json(0.1) == "0.10000000000000001"
    assert dumps_json(1.0 + 2.0j) == '{"re": 1, "im": 2}'
    assert dumps_json([]) == "[]"
    assert dumps_json({}) == "{}"
    with pytest.raises(ValueError):
        dumps_json(float("nan"))
    with pytest.raises(TypeError):
        dumps_json({1, 2})


@pytest.mark.parametrize("value", [np.bool_(True), np.int64(3), np.float32(0.5)], ids=lambda v: type(v).__name__)
def test_numpy_scalars_other_than_float64_and_complex128_are_refused(value):
    # np.bool_.__name__ is "bool", so the message names the module too
    message = f"cannot serialize object of type numpy.{type(value).__name__}$"
    with pytest.raises(TypeError, match=message):
        dumps_json({"x": [value]})
    with pytest.raises(TypeError, match=message):
        format_csv(("x",), [{"x": value}])


def test_float64_and_complex128_write_as_python_scalars():
    assert dumps_json([np.float64(0.1), np.complex128(1 - 2j)]) == dumps_json([0.1, 1 - 2j])
    assert format_csv(("x",), [{"x": np.float64(0.1)}]) == format_csv(("x",), [{"x": 0.1}])


def test_dumps_json_nesting():
    doc = {"a": [1, {"b": 2.5}], "c": "text"}
    text = dumps_json(doc)
    assert json.loads(text) == {"a": [1, {"b": 2.5}], "c": "text"}
    assert text.startswith("{\n")


@settings(max_examples=60, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_seventeen_digit_floats_roundtrip(x):
    assert float(dumps_json(x)) == x


def test_write_text_atomic(tmp_path):
    path = tmp_path / "out.json"
    write_text(str(path), "first\n")
    assert read_text(str(path)) == "first\n"
    write_text(str(path), "second\n")
    assert read_text(str(path)) == "second\n"
    leftovers = [p for p in os.listdir(tmp_path) if p != "out.json"]
    assert leftovers == []


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_write_text_gives_a_new_file_the_mode_open_gives(tmp_path, umask):
    # 0o666 less the umask, as a shell's ``>`` or ``open(path, "w")`` gives
    old = os.umask(umask)
    try:
        write_text(str(tmp_path / "new.json"), "x\n")
        with open(tmp_path / "opened.json", "w") as fh:
            fh.write("x\n")
    finally:
        os.umask(old)
    mode = (tmp_path / "new.json").stat().st_mode & 0o7777
    assert mode == 0o666 & ~umask == (tmp_path / "opened.json").stat().st_mode & 0o7777


@pytest.mark.parametrize("mode", [0o640, 0o600, 0o664, 0o444])
def test_write_text_keeps_the_mode_of_a_replaced_file(tmp_path, mode):
    path = tmp_path / "out.json"
    path.write_text("first\n")
    path.chmod(mode)
    write_text(str(path), "second\n")
    assert path.read_text() == "second\n"
    assert path.stat().st_mode & 0o7777 == mode


def test_write_text_follows_a_symbolic_link(tmp_path):
    target = tmp_path / "target.json"
    target.write_text("old\n")
    target.chmod(0o640)
    link = tmp_path / "link.json"
    link.symlink_to("target.json")
    write_text(str(link), "new\n")
    assert link.is_symlink() and os.readlink(link) == "target.json"
    assert target.read_text() == "new\n"
    assert target.stat().st_mode & 0o7777 == 0o640
    assert sorted(os.listdir(tmp_path)) == ["link.json", "target.json"]


def test_write_text_writes_a_fifo_in_place(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    # the read end is open first, so opening the pipe to write does not block
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write_text(str(fifo), "through the pipe\n")
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert os.read(reader, 4096) == b"through the pipe\n"
    finally:
        os.close(reader)
    assert os.listdir(tmp_path) == ["pipe"]


def test_write_text_failure_cleans_up(tmp_path):
    path = tmp_path / "out.json"
    with pytest.raises(TypeError):
        write_text(str(path), 123)
    assert not path.exists()
    assert os.listdir(tmp_path) == []


def test_format_csv():
    rows = [
        {"a": 1, "b": 2.5, "c": True, "d": None, "e": "x"},
        {"a": 2, "b": 0.1, "c": False, "d": "y", "e": ""},
    ]
    text = format_csv(("a", "b", "c", "d", "e"), rows)
    lines = text.splitlines()
    assert lines[0] == "schema_version,a,b,c,d,e"
    assert lines[1] == f"{SCHEMA_VERSION},1,2.5,true,,x"
    assert lines[2] == f"{SCHEMA_VERSION},2,0.10000000000000001,false,y,"
    assert text.endswith("\n")
