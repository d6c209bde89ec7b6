"""Text formats: state and operator JSON, report JSON, CSV tables.

One formatter writes the scalars of report JSON, CSV cells and group
element files: Python ``bool``, ``int``, ``float`` and ``complex`` only,
subclasses such as the entries of a complex array included; any other type
raises TypeError naming it with its module. Floats are always emitted
through ``format(x, ".17g")``, which preserves every double exactly across
a save and load cycle. A regular file is written to a temporary name in its
directory and moved into place, so readers never observe a partial file; a
symbolic link is followed to its target, and a FIFO or device is written in
place.

A state file holds exactly two keys, the sector shape and the amplitude
list; amplitudes are saved in canonical basis order, so saving what was
just loaded reproduces the bytes, and the order of the records read
changes no result. For spin one-half sectors the occupation may be
written as a symbol string over ``u``, ``d`` and ``0`` instead of the
numeric tuple; both spellings are accepted on input. The saver walks the
state's layout, amplitudes the state has read once as Python complex
numbers in basis order, and checks and writes each part once; in a listed
sector it reads the text of each record up to its real part from a table
built once per shape and spelling. The loader accepts a record in the form
the saver writes, a numeric occupation of a listed sector with finite float
parts, by one lookup in :func:`~modal_ent.states.basis_index`; every other
record goes through the field parsers, which word the refusals. An
occupation may appear in one record only, zero or not.

Loading this module loads no numpy: it reads and writes Python numbers,
and :func:`element_from_json` imports :class:`GroupElement` only when it
runs; :mod:`modal_ent.operators` loads no numpy at import either. So every
command that computes in Python numbers reads and writes its files without
numpy.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import stat
import tempfile
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Dict, Iterable, Mapping, Sequence

from .states import (
    LISTED_DIMENSION,
    Occupation,
    StateVector,
    SystemShape,
    _check_admissible,
    _layout,
    _listed_index,
    enumerate_basis,
)

if TYPE_CHECKING:
    from .operators import GroupElement

#: version stamp carried by CSV tables and report JSON
SCHEMA_VERSION = 1

_SYMBOL_TO_INT = {"0": 0, "u": 1, "d": 2}
_INT_TO_SYMBOL = {0: "0", 1: "u", 2: "d"}
_RECORD_KEYS = {"occ", "re", "im"}


def _fmt(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("cannot serialize a non-finite number")
    return _digits(x)


def _digits(x: float) -> str:
    # a finite float's text: 0 for either zero, else 17 significant digits
    return format(x, ".17g") if x else "0"


def _scalar(x: Any) -> str:
    """JSON text of a Python bool, int, float or complex; a complex number
    is written as ``{"re": ..., "im": ...}``."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(int(x))
    if isinstance(x, float):
        return _fmt(x)
    if isinstance(x, complex):
        return '{"re": %s, "im": %s}' % (_fmt(x.real), _fmt(x.imag))
    kind = type(x)
    raise TypeError(f"cannot serialize object of type {kind.__module__}.{kind.__qualname__}")


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
    if obj is None:
        return "null"
    return _scalar(obj)


def write_text(path: str, text: str) -> None:
    """Atomic write: temp file in the same directory, then a rename.

    A symbolic link is followed, so the link stays and its target gets the
    text, as a shell's ``>`` gives it. A path that exists and is not a
    regular file, such as a FIFO or a device, is written in place, never
    renamed over. A new file gets mode 0o666 less the umask, as ``open``
    would give it; a file that is replaced keeps its mode.
    """
    path = os.path.realpath(path)
    try:
        st = os.stat(path)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    else:
        if not stat.S_ISREG(st.st_mode):
            with open(path, "w") as fh:
                fh.write(text)
            return
        mode = st.st_mode & 0o7777
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), mode)
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


def _record_head(occ: Occupation, use_symbols: bool) -> str:
    """The text of the amplitude record of ``occ`` up to its real part."""
    return '    {"occ": %s, "re": ' % _occ_to_doc(occ, use_symbols)


@lru_cache(maxsize=16)
def _record_heads(shape: SystemShape, use_symbols: bool) -> Dict[Occupation, str]:
    """Each basis occupation of a listed sector with its :func:`_record_head`."""
    return {occ: _record_head(occ, use_symbols) for occ in enumerate_basis(shape)}


def state_to_json(state: StateVector, use_symbols: bool = False) -> str:
    """Serialize a state; symbol strings are available for spin one-half.

    The records are the nonzero entries of the state's layout, Python
    complex numbers in basis order; a listed sector reads the text of each
    up to its real part from its cached table. Each part is checked finite
    and written once, a refusal naming the value the state was given.
    """
    sh = state.shape
    if use_symbols and sh.spin_numerator != 1:
        raise ValueError("symbol strings are only defined for spin_numerator 1")
    heads = _record_heads(sh, use_symbols) if sh.dimension <= LISTED_DIMENSION else {}
    recs = []
    for occ, amp in zip(*state._entries()):
        if not amp:
            continue
        re, im = amp.real, amp.imag
        if not (-math.inf < re < math.inf and -math.inf < im < math.inf):
            raise ValueError(f"amplitude of occupation {occ} is not finite: {state.amplitudes.get(occ, amp)!r}")
        recs.append(f'{heads.get(occ) or _record_head(occ, use_symbols)}{_digits(re)}, "im": {_digits(im)}}}')
    return (
        '{\n  "shape": {"modes": %d, "particles": %d, "spin_numerator": %d},\n  "amplitudes": [\n%s\n  ]\n}\n'
        % (sh.modes, sh.particles, sh.spin_numerator, ",\n".join(recs))
    )


def _parse_shape(doc: Any) -> SystemShape:
    if not isinstance(doc, dict) or set(doc) != {"modes", "particles", "spin_numerator"}:
        raise ValueError('shape must be an object with keys "modes", "particles", "spin_numerator"')
    return SystemShape(doc["modes"], doc["particles"], doc["spin_numerator"])


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
    # A record as state_to_json writes it, a numeric occupation of the listed
    # basis with finite float parts, is accepted by one lookup; any other
    # goes through the field parsers, which give every refusal its message.
    listed, ints, inf = _listed_index(shape), (int,) * shape.modes, math.inf
    amps: Dict[Occupation, complex] = {}
    for i, rec in enumerate(doc["amplitudes"]):
        try:
            if type(rec) is not dict or rec.keys() != _RECORD_KEYS:
                raise ValueError('record must hold exactly the keys "occ", "re", "im"')
            occ, re, im = rec["occ"], rec["re"], rec["im"]
            if type(occ) is list and tuple(map(type, occ)) == ints and (key := tuple(occ)) in listed:
                occ = key
            else:
                occ = _parse_occ(occ, shape)
            if type(re) is not float or not -inf < re < inf:
                re = _parse_number(re)
            if type(im) is not float or not -inf < im < inf:
                im = _parse_number(im)
            # every record read is kept, zero or not, so a repeat is refused in either order
            if occ in amps:
                raise ValueError(f"occupation {occ} appears twice")
        except (TypeError, ValueError) as exc:
            raise ValueError(f"amplitude record {i} is malformed: {exc}") from None
        amps[occ] = complex(re, im)
    return StateVector._from_amplitudes(shape, *_layout(shape, amps))


def element_to_json(element: GroupElement) -> str:
    """Serialize a group element as an array of per-mode operators."""
    out = ["["]
    blocks = []
    for mat in element.matrices:
        body = ['  {', f'    "dim": {len(mat)},', '    "rows": [']
        body.append(",\n".join("      [" + ", ".join(map(_scalar, row)) + "]" for row in mat))
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
    """Parse a group element of equally sized operators; malformed rows are reported by position."""
    from .operators import GroupElement

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
        if mats and dim != len(mats[0]):
            raise ValueError(f"operator {k} has dim {dim}, but operator 0 has dim {len(mats[0])}")
        if not isinstance(rows, list) or len(rows) != dim:
            raise ValueError(f"operator {k} must have {dim} rows")
        mat = []
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != dim:
                raise ValueError(f"operator {k}, row {i} must have {dim} entries")
            mat.append([])
            for j, cell in enumerate(row):
                try:
                    mat[i].append(_parse_entry(cell))
                except (TypeError, ValueError) as exc:
                    raise ValueError(
                        f"operator {k}, row {i}, entry {j} is malformed: {exc}"
                    ) from None
        mats.append(mat)
    return GroupElement(mats)


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return _scalar(value)


def format_csv(fieldnames: Sequence[str], rows: Iterable[Mapping[str, Any]]) -> str:
    """CSV text with a schema_version column prepended to every row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["schema_version"] + list(fieldnames))
    for row in rows:
        writer.writerow([SCHEMA_VERSION] + [_csv_cell(row[f]) for f in fieldnames])
    return buf.getvalue()
