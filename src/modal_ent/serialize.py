"""Text formats: state and operator JSON, report JSON, CSV tables.

Floating point numbers are always emitted through ``format(x, ".17g")``,
which preserves every double exactly across a save and load cycle, and
files are written to a temporary name in the target directory and moved
into place so readers never observe a partial file.

A state file holds exactly two keys, the sector shape and the amplitude
list; amplitudes are saved in canonical basis order, so saving what was
just loaded reproduces the bytes. For spin one-half sectors the occupation
may be written as a symbol string over ``u``, ``d`` and ``0`` instead of
the numeric tuple; both spellings are accepted on input.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from typing import Any, Dict, Iterable, List, Mapping, Sequence

import numpy as np

from .operators import GroupElement, element_from_matrices
from .states import Occupation, StateVector, SystemShape, _check_admissible, enumerate_basis

#: version stamp carried by CSV tables and report JSON
SCHEMA_VERSION = 1

_SYMBOL_TO_INT = {"0": 0, "u": 1, "d": 2}
_INT_TO_SYMBOL = {0: "0", 1: "u", 2: "d"}


def _fmt(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("cannot serialize a non-finite number")
    if x == 0.0:
        return "0"
    return format(x, ".17g")


def dumps_json(obj: Any, _level: int = 0) -> str:
    """Deterministic JSON with .17g floats; keys keep insertion order."""
    pad = "  " * (_level + 1)
    close = "  " * _level
    if isinstance(obj, Mapping):
        if not obj:
            return "{}"
        parts = [
            f'{pad}{json.dumps(str(k))}: {dumps_json(v, _level + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + f"\n{close}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{pad}{dumps_json(v, _level + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + f"\n{close}]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return f'{{"re": {_fmt(z.real)}, "im": {_fmt(z.imag)}}}'
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def write_text(path: str, text: str) -> None:
    """Atomic write: temp file in the same directory, then a rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_text(path: str) -> str:
    with open(path, "r") as fh:
        return fh.read()


def _occ_to_doc(occ: Occupation, use_symbols: bool) -> str:
    if use_symbols:
        return json.dumps("".join(_INT_TO_SYMBOL[s] for s in occ))
    return "[" + ", ".join(str(s) for s in occ) + "]"


def state_to_json(state: StateVector, use_symbols: bool = False) -> str:
    """Serialize a state; symbol strings are available for spin one-half."""
    if use_symbols and state.shape.spin_numerator != 1:
        raise ValueError("symbol strings are only defined for spin_numerator 1")
    sh = state.shape
    lines = [
        "{",
        '  "shape": {"modes": %d, "particles": %d, "spin_numerator": %d},'
        % (sh.modes, sh.particles, sh.spin_numerator),
        '  "amplitudes": [',
    ]
    recs = []
    for occ in enumerate_basis(sh):
        amp = state.amplitudes.get(occ)
        if amp is None or amp == 0:
            continue
        recs.append(
            '    {"occ": %s, "re": %s, "im": %s}'
            % (_occ_to_doc(occ, use_symbols), _fmt(amp.real), _fmt(amp.imag))
        )
    lines.append(",\n".join(recs))
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _parse_shape(doc: Any) -> SystemShape:
    if not isinstance(doc, dict) or set(doc) != {"modes", "particles", "spin_numerator"}:
        raise ValueError('shape must be an object with keys "modes", "particles", "spin_numerator"')
    vals = {}
    for key in ("modes", "particles", "spin_numerator"):
        v = doc[key]
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"shape field {key!r} must be an integer, got {v!r}")
        vals[key] = v
    return SystemShape(vals["modes"], vals["particles"], vals["spin_numerator"])


def _parse_occ(doc: Any, shape: SystemShape) -> Occupation:
    if isinstance(doc, str):
        if shape.spin_numerator != 1:
            raise ValueError("symbol strings are only defined for spin_numerator 1")
        try:
            occ = tuple(_SYMBOL_TO_INT[ch] for ch in doc)
        except KeyError as exc:
            raise ValueError(f"unknown occupation symbol {exc.args[0]!r}") from None
    elif isinstance(doc, list):
        if not all(isinstance(s, int) and not isinstance(s, bool) for s in doc):
            raise ValueError(f"occupation entries must be integers, got {doc!r}")
        occ = tuple(doc)
    else:
        raise ValueError(f"occupation must be a list or symbol string, got {doc!r}")
    _check_admissible(shape, occ)
    return occ


def _parse_number(doc: Any) -> float:
    """A finite float from a JSON number; booleans and strings are rejected."""
    if isinstance(doc, bool) or not isinstance(doc, (int, float)):
        raise ValueError(f"expected a JSON number, got {doc!r}")
    try:
        value = float(doc)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError("number is not finite")
    return value


def state_from_json(text: str) -> StateVector:
    """Parse a state file; malformed records are reported by index."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or set(doc) != {"shape", "amplitudes"}:
        raise ValueError('a state file must hold exactly the keys "shape" and "amplitudes"')
    shape = _parse_shape(doc["shape"])
    if not isinstance(doc["amplitudes"], list):
        raise ValueError("amplitudes must be a list")
    amps: Dict[Occupation, complex] = {}
    for i, rec in enumerate(doc["amplitudes"]):
        try:
            if not isinstance(rec, dict) or set(rec) != {"occ", "re", "im"}:
                raise ValueError('record must hold exactly the keys "occ", "re", "im"')
            occ = _parse_occ(rec["occ"], shape)
            re = _parse_number(rec["re"])
            im = _parse_number(rec["im"])
            if occ in amps:
                raise ValueError(f"occupation {occ} appears twice")
        except (TypeError, ValueError) as exc:
            raise ValueError(f"amplitude record {i} is malformed: {exc}") from None
        if re or im:
            amps[occ] = complex(re, im)
    return StateVector(shape, amps)


def _matrix_to_lines(mat: np.ndarray, pad: str) -> List[str]:
    lines = []
    for row in mat:
        cells = ", ".join(
            '{"re": %s, "im": %s}' % (_fmt(z.real), _fmt(z.imag)) for z in row
        )
        lines.append(f"{pad}[{cells}]")
    return lines


def element_to_json(element: GroupElement) -> str:
    """Serialize a group element as an array of per-mode operators."""
    out = ["["]
    blocks = []
    for op in element.per_mode:
        body = ['  {', f'    "dim": {op.dim},', '    "rows": [']
        body.append(",\n".join(_matrix_to_lines(op.entries, "      ")))
        body.append("    ]")
        body.append("  }")
        blocks.append("\n".join(body))
    out.append(",\n".join(blocks))
    out.append("]")
    return "\n".join(out) + "\n"


def _parse_entry(doc: Any) -> complex:
    if not isinstance(doc, dict) or set(doc) != {"re", "im"}:
        raise ValueError('matrix entries must be objects with keys "re" and "im"')
    return complex(_parse_number(doc["re"]), _parse_number(doc["im"]))


def element_from_json(text: str) -> GroupElement:
    """Parse a group element; malformed rows are reported by position."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, list) or not doc:
        raise ValueError("a group element file must hold a non-empty array of operators")
    mats = []
    for k, op in enumerate(doc):
        if not isinstance(op, dict) or set(op) != {"dim", "rows"}:
            raise ValueError(f'operator {k} must hold exactly the keys "dim" and "rows"')
        dim = op["dim"]
        rows = op["rows"]
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise ValueError(f"operator {k} has invalid dim {dim!r}")
        if not isinstance(rows, list) or len(rows) != dim:
            raise ValueError(f"operator {k} must have {dim} rows")
        mat = np.zeros((dim, dim), dtype=complex)
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != dim:
                raise ValueError(f"operator {k}, row {i} must have {dim} entries")
            for j, cell in enumerate(row):
                try:
                    mat[i, j] = _parse_entry(cell)
                except (TypeError, ValueError) as exc:
                    raise ValueError(
                        f"operator {k}, row {i}, entry {j} is malformed: {exc}"
                    ) from None
        mats.append(mat)
    return element_from_matrices(mats)


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt(value)
    return str(value)


def format_csv(fieldnames: Sequence[str], rows: Iterable[Mapping[str, Any]]) -> str:
    """CSV text with a schema_version column prepended to every row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["schema_version"] + list(fieldnames))
    for row in rows:
        writer.writerow([SCHEMA_VERSION] + [_csv_cell(row[f]) for f in fieldnames])
    return buf.getvalue()
