"""Canonical JSON forms for every object the CLI exchanges.

Rationals serialize as strings "p/q" (or "p" when the denominator is 1).
Emission is canonical: sorted keys, two-space indent, trailing newline,
so emit(load(x)) reproduces canonically formed input byte for byte.

emit is the package's one JSON writer: every report on stdout and every
file written goes through it.  Its text is json.dumps(obj, sort_keys=True,
indent=2) plus a newline for every value json accepts.  A Cochain is
handed to it as it is: the cochain format, an object of "coeffs",
"degree" and "value_dim", lives only in _cochain_text, which writes it
straight from the cochain's nonzero (index, value) pairs, naming each key
by key_unrank once per emit; so a report of basis cochains, each wrapped
by Cochain.from_pairs, builds no dict per basis vector.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Optional

from .catalog import catalog
from .cochains import Cochain, key_unrank
from .errors import InvariantViolation, JacobiError, ParseError, RepresentationError
from .extensions import FactorSystem
from .liealg import LieAlgebra, Representation
from .linalg import Matrix

# an index string: int() would also read "1_0" as 10, and " 3", "+3" and "３" as 3
INDEX_TEXT = re.compile(r"-?[0-9]+")


def scalar_to_str(x: Fraction) -> str:
    if type(x) is not Fraction:
        x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def scalar_from_str(s) -> Fraction:
    """s as a Fraction: an integer or a rational string.  A boolean, which Python
    counts as an int, or anything else is a ParseError."""
    if type(s) is int:
        return Fraction(s)
    if type(s) is not str:
        raise ParseError(f"expected a rational string, got {type(s).__name__}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"invalid rational {s!r}: {exc}") from exc


def json_int(value, field: str) -> int:
    """value as an int: an integer, a finite integral number or an INDEX_TEXT string.
    A boolean, a fraction, Infinity or anything else is a ParseError naming field."""
    if (type(value) is int or type(value) is float and value.is_integer()
            or type(value) is str and INDEX_TEXT.fullmatch(value)):
        return int(value)
    raise ParseError(f"{field} must be an integer, got {json.dumps(value)}")


def json_object(data, what: str) -> dict:
    """data if it is a JSON object; otherwise a ParseError saying what must be one."""
    if not isinstance(data, dict):
        raise ParseError(f"{what} must be an object")
    return data


def json_list(data, what: str) -> list:
    """data if it is a JSON list; otherwise a ParseError saying what must be one."""
    if not isinstance(data, list):
        raise ParseError(f"{what} must be a list")
    return data


def matrix_to_json(m: Matrix) -> list:
    # the format writes every entry of every row
    return [[scalar_to_str(x) for x in m.row(i)] for i in range(m.rows)]


def matrix_from_json(data, rows: Optional[int] = None,
                     cols: Optional[int] = None) -> Matrix:
    if not isinstance(data, list) or any(not isinstance(r, list) for r in data):
        raise ParseError("a matrix must be a list of rows")
    try:
        m = Matrix([[scalar_from_str(x) for x in row] for row in data],
                   cols=cols if not data else None)
    except ParseError:
        raise
    except Exception as exc:
        raise ParseError(f"invalid matrix: {exc}") from exc
    if rows is not None and m.rows != rows:
        raise ParseError(f"expected {rows} rows, found {m.rows}")
    if cols is not None and m.cols != cols:
        raise ParseError(f"expected {cols} columns, found {m.cols}")
    return m


def algebra_to_json(L: LieAlgebra) -> dict:
    brackets = []
    for (i, j), pairs in sorted(L.structure_table().items()):
        brackets.append({
            "i": i,
            "j": j,
            "value": {str(k): scalar_to_str(c) for k, c in pairs},
        })
    return {"dim": L.dim, "basis": list(L.labels), "brackets": brackets}


def algebra_from_json(data) -> LieAlgebra:
    if isinstance(data, str):
        obj = catalog(data)
        if not isinstance(obj, LieAlgebra):
            raise ParseError(f"catalog entry {data!r} is not an algebra")
        return obj
    if not isinstance(data, dict):
        raise ParseError("an algebra must be an object or a catalog name")
    dim = json_int(data.get("dim"), "dim")
    labels = data.get("basis")
    if labels is not None:
        json_list(labels, "the basis labels")
    table = {}
    for entry in json_list(data.get("brackets", []), "the bracket entries"):
        try:
            i, j = json_int(entry["i"], "bracket i"), json_int(entry["j"], "bracket j")
            value = {}
            for k_text, v in entry["value"].items():
                k = json_int(k_text, "bracket k")
                if k in value:
                    raise ParseError(f"bracket ({i},{j}) names value index {k} twice")
                value[k] = scalar_from_str(v)
        except ParseError:
            raise
        except Exception as exc:
            raise ParseError(f"invalid bracket entry {entry!r}: {exc}") from exc
        if (i, j) in table:
            raise ParseError(f"bracket ({i},{j}) is given twice")
        table[(i, j)] = value
    try:
        return LieAlgebra(dim, table, labels=labels)
    except JacobiError as exc:
        raise InvariantViolation(str(exc), [f"jacobi at triple {exc.triple}"]) from exc


def representation_to_json(rep: Representation) -> dict:
    return {
        "algebra": algebra_to_json(rep.algebra),
        "space_dim": rep.space_dim,
        "matrices": [matrix_to_json(m) for m in rep.matrices],
    }


def representation_from_json(data) -> Representation:
    json_object(data, "a representation")
    algebra = algebra_from_json(data.get("algebra"))
    space_dim = json_int(data.get("space_dim"), "space_dim")
    mats = [matrix_from_json(m, rows=space_dim, cols=space_dim)
            for m in json_list(data.get("matrices", []), "the representation matrices")]
    try:
        return Representation(algebra, space_dim, mats)
    except RepresentationError as exc:
        raise InvariantViolation(str(exc), [f"representation law at {exc.pair}"]) from exc


def cochain_to_json(c: Cochain) -> Cochain:
    """c for emit, which writes a Cochain in the cochain format."""
    return c


def cochain_from_json(data, algebra: LieAlgebra) -> Cochain:
    json_object(data, "a cochain")
    degree = json_int(data.get("degree"), "degree")
    value_dim = json_int(data.get("value_dim"), "value_dim")
    table, names = {}, {}
    for key_str, vec in json_object(data.get("coeffs", {}), "the cochain coeffs").items():
        indices = key_str.split(",") if key_str else []
        if not all(map(INDEX_TEXT.fullmatch, indices)):
            raise ParseError(f"invalid cochain key {key_str!r}")
        key = tuple(map(int, indices))
        if key in table:
            raise ParseError(f"cochain keys {names[key]!r} and {key_str!r} both read as {key}")
        names[key] = key_str
        table[key] = [scalar_from_str(x)
                      for x in json_list(vec, f"the cochain value at {key_str!r}")]
    try:
        return Cochain(algebra, degree, value_dim, table)
    except Exception as exc:
        raise ParseError(f"invalid cochain: {exc}") from exc


def factor_system_to_json(fs: FactorSystem) -> dict:
    return {
        "n": algebra_to_json(fs.n),
        "g": algebra_to_json(fs.g),
        "S": [matrix_to_json(m) for m in fs.S.matrices],
        "omega": fs.omega,
    }


def factor_system_parts_from_json(data):
    """(n, g, matrices, omega) without the validity check."""
    json_object(data, "an extension bundle")
    n_alg = algebra_from_json(data.get("n"))
    g_alg = algebra_from_json(data.get("g"))
    mats = [matrix_from_json(m, rows=n_alg.dim, cols=n_alg.dim)
            for m in json_list(data.get("S", []), "the S matrices")]
    if len(mats) != g_alg.dim:
        raise ParseError("one S matrix per basis element of g is required")
    omega_data = data.get("omega")
    if omega_data is None:
        omega = Cochain(g_alg, 2, n_alg.dim)
    else:
        omega = cochain_from_json(omega_data, g_alg)
    return n_alg, g_alg, mats, omega


def factor_system_from_json(data) -> FactorSystem:
    n_alg, g_alg, mats, omega = factor_system_parts_from_json(data)
    return FactorSystem(n_alg, g_alg, mats, omega)


def crossed_module_parts_from_json(data):
    json_object(data, "a crossed-module bundle")
    h = algebra_from_json(data.get("h"))
    ghat = algebra_from_json(data.get("ghat"))
    alpha = matrix_from_json(data.get("alpha"), rows=ghat.dim, cols=h.dim)
    mats = [matrix_from_json(m, rows=h.dim, cols=h.dim)
            for m in json_list(data.get("action", []), "the action matrices")]
    if len(mats) != ghat.dim:
        raise ParseError("one action matrix per basis element of ghat is required")
    try:
        action = Representation(ghat, h.dim, mats)
    except RepresentationError as exc:
        raise InvariantViolation(str(exc), [f"representation law at {exc.pair}"]) from exc
    return h, ghat, alpha, action


def crossed_module_to_json(cm) -> dict:
    return {
        "h": algebra_to_json(cm.h),
        "ghat": algebra_to_json(cm.ghat),
        "alpha": matrix_to_json(cm.alpha),
        "action": [matrix_to_json(m) for m in cm.action.matrices],
    }


def emit(obj) -> str:
    """Canonical JSON text: sorted keys, indent 2, trailing newline.

    The text is json.dumps(obj, sort_keys=True, indent=2) + "\n" for every
    value json accepts, and a TypeError where json raises one; a
    Cochain is written in the cochain format of _cochain_text.
    """
    out = []
    _write(obj, "\n", out, {})
    out.append("\n")
    return "".join(out)


def _write(obj, pad: str, out: list, key_names: dict) -> None:
    """Append the text of obj to out; pad is the newline and indent it sits at.
    key_names maps each (algebra dim, degree) to the quoted cochain keys named so
    far, by key index."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_float_text(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write(item, inner, out, key_names)
            sep = "," + inner
        out.append(pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            out.append(sep + encode_basestring_ascii(_key_text(key)) + ": ")
            _write(value, inner, out, key_names)
            sep = "," + inner
        out.append(pad + "}")
    elif isinstance(obj, Cochain):
        out.append(_cochain_text(obj, pad, key_names))
    else:
        raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == -float("inf"):
        return "-Infinity"
    return float.__repr__(x)


def _key_text(key) -> str:
    """A dict key as json writes it: str, float, bool, None or int."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _cochain_text(c: Cochain, pad: str, key_names: dict) -> str:
    """The text of c in the cochain format: an object of "coeffs" (the
    nonzero keys, each its indices joined by commas, in string order, so
    "0,1,10" comes before "0,1,2", each value in full with "0" for its zero
    entries), "degree" and "value_dim", as json.dumps writes it."""
    n, p, value_dim = c.algebra.dim, c.degree, c.value_dim
    names = key_names.setdefault((n, p), {})
    values = {}
    for i, x in c.pairs:
        r, slot = divmod(i, value_dim)
        vec = values.get(r)
        if vec is None:
            vec = values[r] = ['"0"'] * value_dim
            if r not in names:
                names[r] = '"' + ",".join(map(str, key_unrank(r, n, p))) + '"'
        vec[slot] = '"' + scalar_to_str(x) + '"'
    inner = pad + "  "
    if values:
        key_pad = inner + "  "
        entry_pad = key_pad + "  "
        entry_sep = "," + entry_pad
        coeffs = ("{" + ",".join(
            f"{key_pad}{name}: [{entry_pad}{entry_sep.join(vec)}{key_pad}]"
            for name, vec in sorted((names[r], vec) for r, vec in values.items()))
            + inner + "}")
    else:
        coeffs = "{}"
    return (f'{{{inner}"coeffs": {coeffs},{inner}"degree": {c.degree},'
            f'{inner}"value_dim": {value_dim}{pad}}}')


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict; a repeated key is a ParseError (json keeps the last)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        last = {key: i for i, (key, _) in enumerate(pairs)}
        key = next(key for i, (key, _) in enumerate(pairs) if last[key] != i)
        raise ParseError(f"invalid JSON: key {json.dumps(key)} is given twice in one object")
    return obj


def load_json_text(text: str):
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def write_file(path: str, obj) -> None:
    """Write obj as JSON text to path; an OSError names the path."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(emit(obj))
    except OSError as exc:
        exc.filename = exc.filename or path
        raise


def load_file(path: str, kind: str):
    """Parse and validate one JSON file of the given kind."""
    return parse_file_bytes(read_file_bytes(path), path, kind)


def read_file_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def parse_file_bytes(raw: bytes, path: str, kind: str):
    """Parse the bytes read from path, decoded as UTF-8, as a file of the given kind."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    data = load_json_text(text)
    if kind == "algebra":
        return algebra_from_json(data)
    if kind == "representation":
        return representation_from_json(data)
    if kind == "factor-system":
        return factor_system_from_json(data)
    if kind == "factor-system-parts":
        return factor_system_parts_from_json(data)
    if kind == "crossed-module-parts":
        return crossed_module_parts_from_json(data)
    if kind == "json":
        return data
    raise ParseError(f"unknown input kind {kind!r}")
