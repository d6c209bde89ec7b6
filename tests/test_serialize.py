import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modal_ent.operators import random_element
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
from modal_ent.states import SHAPE_321, StateVector, SystemShape, random_state

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
    dup = (
        head
        + '[{"occ": [1, 2, 0], "re": 1.0, "im": 0.0},'
        + ' {"occ": "ud0", "re": 2.0, "im": 0.0}]}'
    )
    with pytest.raises(ValueError, match="amplitude record 1 is malformed"):
        state_from_json(dup)


def test_state_json_top_level_errors():
    with pytest.raises(ValueError, match="invalid JSON"):
        state_from_json("not json")
    with pytest.raises(ValueError):
        state_from_json('{"shape": {"modes": 3, "particles": 2, "spin_numerator": 1}}')
    with pytest.raises(ValueError):
        state_from_json('{"shape": {"modes": 3}, "amplitudes": []}')
    with pytest.raises(ValueError):
        state_from_json(
            '{"shape": {"modes": 3.0, "particles": 2, "spin_numerator": 1}, "amplitudes": []}'
        )


def test_element_roundtrip():
    el = random_element("SLOCC", seed=21)
    text = element_to_json(el)
    back = element_from_json(text)
    for a, b in zip(el.per_mode, back.per_mode):
        assert np.array_equal(a.entries, b.entries)
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


def test_dumps_json_scalars():
    assert dumps_json(True) == "true"
    assert dumps_json(np.bool_(False)) == "false"
    assert dumps_json(None) == "null"
    assert dumps_json(3) == "3"
    assert dumps_json(np.int64(3)) == "3"
    assert dumps_json(0.1) == "0.10000000000000001"
    assert dumps_json(1.0 + 2.0j) == '{"re": 1, "im": 2}'
    assert dumps_json([]) == "[]"
    assert dumps_json({}) == "{}"
    with pytest.raises(ValueError):
        dumps_json(float("nan"))
    with pytest.raises(TypeError):
        dumps_json({1, 2})


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
