"""The JSON reader of every input file, and ``json.dumps(obj, indent=2)`` text built with the C encoder.

Python's ``json`` module drops to its pure-Python encoder whenever ``indent``
is set. Here the C encoder writes every flat container (a list or dict whose
values are all scalars) in one call, with an item separator that carries the
line break and the indentation, and the nested levels around them are joined
from those pieces. The writer finds every list of records that share one
shape (keys in order, nesting and list lengths) itself: such a list is
written from a %-template of that shape, filled with values the C encoder
writes in one call for the whole list; any other list is written item by
item. Reports reject NaN and infinities (``allow_nan=False``, a
``ValueError``); annotation files may carry NaN on hidden keypoints.
"""

from __future__ import annotations

import json
import re
from functools import cache
from itertools import chain, repeat
from operator import eq

from .errors import ParseError, SchemaError

_CONTAINERS = (dict, list, tuple)


def read_json(path, decode=lambda doc: doc, name=None):
    """The document in the JSON file ``path``, passed through ``decode``.

    Errors start with ``name``, the path by default: a malformed text raises :class:`ParseError` naming its line
    and column, and a :class:`SchemaError` from ``decode`` is raised again with the name in front.
    """
    name = path if name is None else name
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{name}: malformed document at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    try:
        return decode(doc)
    except SchemaError as exc:
        raise SchemaError(f"{name}: {exc}") from exc


def doc_field(doc, key: str, where: str = ""):
    """``doc[key]`` of a decoded object; a missing key, or a ``doc`` that is no object, raises :class:`SchemaError`."""
    if not isinstance(doc, dict) or key not in doc:
        raise SchemaError(f"{where}missing field {key!r}")
    return doc[key]


@cache
def _encoder(depth: int, allow_nan: bool):
    """C encoder whose item separator starts a new line indented to nesting ``depth``."""
    return json.JSONEncoder(separators=(",\n" + "  " * depth, ": "), allow_nan=allow_nan).encode


def _flat_text(obj, depth: int, allow_nan: bool) -> str:
    """Text of a list or dict of scalars whose opening bracket sits at nesting ``depth``."""
    text = _encoder(depth + 1, allow_nan)(obj)
    if len(obj) == 0:
        return text
    return f"{text[0]}\n{'  ' * (depth + 1)}{text[1:-1]}\n{'  ' * depth}{text[-1]}"


def _columns(objs, first):
    """Values of the containers ``objs`` position by position, inner containers spliced in, each check one C-level
    pass over ``objs``; None if one differs from ``first`` in its keys and their order, its nesting or a list length,
    or if ``first`` has a key that is no str (``1 == True``, but the two keys are written differently)."""
    if isinstance(first, dict):
        head = tuple(first)
        same = all(isinstance(k, str) for k in head) and all(map(isinstance, objs, repeat(dict)))
        same = same and all(map(eq, map(tuple, objs), repeat(head)))
        objs, first = map(dict.values, objs), list(first.values())
    else:
        same = all(map(isinstance, objs, repeat((list, tuple)))) and all(map(eq, map(len, objs), repeat(len(first))))
    if not same:
        return None
    width = len(first)
    values = list(chain.from_iterable(objs))
    columns = []
    for i, value in enumerate(first):
        inner = _columns(values[i::width], value) if isinstance(value, _CONTAINERS) else [values[i::width]]
        if inner is None:
            return None
        columns += inner
    return columns


def _blank(obj):
    if isinstance(obj, dict):
        return {k: _blank(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_blank(v) for v in obj]
    return "%s"


def _record_texts(items, depth: int, allow_nan: bool):
    """Texts of the records ``items`` at nesting ``depth`` if all have the first one's shape and it holds a scalar.

    The shape is the keys in order, the nesting and the list lengths. The
    scalars of all records are encoded by one C-encoder call and set, record
    by record, into a %-template of the shape. Other lists give None.
    """
    columns = _columns(items, items[0]) if isinstance(items[0], _CONTAINERS) else None
    if not columns:
        return None
    # record by record, as the template takes them, without the brackets
    text = _encoder(0, allow_nan)(list(chain.from_iterable(zip(*columns))))[1:-1]
    del columns  # the split and the fill below hold the texts of all values: keep nothing else alive there
    # a container where the first record holds a scalar would open a line with its bracket
    if "\n[" in text or "\n{" in text:
        return None
    # a raw line break occurs in the encoder's output only where the separator put it
    texts = text.split(",\n")
    del text
    # a blank is a value, never a key: the closing quote of a key is followed by ":"
    parts = re.split(r'"%s"(?!:)', _text(_blank(items[0]), depth, False))
    template, k = "%s".join(part.replace("%", "%%") for part in parts), len(parts) - 1
    return [template % tuple(texts[i:i + k]) for i in range(0, len(texts), k)]


def _text(obj, depth: int, allow_nan: bool) -> str:
    if isinstance(obj, dict):
        if not any(isinstance(v, _CONTAINERS) for v in obj.values()):
            return _flat_text(obj, depth, allow_nan)
        # the C encoder writes the keys, a non-str one included, as json.dumps does; a key has no raw line break
        keys = _encoder(0, allow_nan)(dict.fromkeys(obj, 0))[1:-4].split(": 0,\n")
        items = [f"{key}: {_text(v, depth + 1, allow_nan)}" for key, v in zip(keys, obj.values())]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        if not any(isinstance(v, _CONTAINERS) for v in obj):
            return _flat_text(obj, depth, allow_nan)
        items = _record_texts(obj, depth + 1, allow_nan) or [_text(v, depth + 1, allow_nan) for v in obj]
        brackets = "[]"
    else:
        return _encoder(0, allow_nan)(obj)
    pad = "  " * (depth + 1)
    sep = ",\n" + pad
    # one f-string: the long text is copied once, not once per concatenation
    return f"{brackets[0]}\n{pad}{sep.join(items)}\n{'  ' * depth}{brackets[1]}"


def dumps(obj, allow_nan: bool = False) -> str:
    """``json.dumps(obj, indent=2, allow_nan=allow_nan)``, byte for byte."""
    return _text(obj, 0, allow_nan)
