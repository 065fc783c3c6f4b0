"""The JSON reader of every input file, and ``json.dumps(obj, indent=2)`` text built with the C encoder.

Python's ``json`` module drops to its pure-Python encoder whenever ``indent``
is set. Here the C encoder writes every flat container (a list or dict whose
values are all scalars) in one call, with an item separator that carries the
line break and the indentation, and the nested levels around them are joined
from those pieces. A long list of records that share one shape is written
from a %-template of that shape, filled with values the C encoder writes in
one call for the whole list. Reports reject NaN and infinities
(``allow_nan=False``, a ``ValueError``); annotation files may carry NaN on
hidden keypoints.
"""

from __future__ import annotations

import json
from functools import cache

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


def _key(key, allow_nan: bool) -> str:
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
        key = _encoder(0, allow_nan)(key)
    return _encoder(0, allow_nan)(key)


def _text(obj, depth: int, writers: dict, path: tuple, allow_nan: bool) -> str:
    if isinstance(obj, dict):
        if not any(isinstance(v, _CONTAINERS) for v in obj.values()):
            return _flat_text(obj, depth, allow_nan)
        items = [
            f"{_key(k, allow_nan)}: {_text(v, depth + 1, writers, path + (k,), allow_nan)}" for k, v in obj.items()
        ]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        if path in writers:
            items = writers[path](obj, depth + 1)
        elif not any(isinstance(v, _CONTAINERS) for v in obj):
            return _flat_text(obj, depth, allow_nan)
        else:
            items = [_text(v, depth + 1, writers, path, allow_nan) for v in obj]
        brackets = "[]"
    else:
        return _encoder(0, allow_nan)(obj)
    if not items:
        return brackets
    pad = "  " * (depth + 1)
    sep = ",\n" + pad
    # one f-string: the long text is copied once, not once per concatenation
    return f"{brackets[0]}\n{pad}{sep.join(items)}\n{'  ' * depth}{brackets[1]}"


def dumps(obj, writers: dict | None = None, allow_nan: bool = False) -> str:
    """``json.dumps(obj, indent=2, allow_nan=allow_nan)``, byte for byte.

    ``writers`` maps the key path of a list, such as ``("per_image",)``, to
    ``write(items, depth)``, which returns the text of each item, starting
    at its opening bracket; see :func:`same_shape_texts`.
    """
    return _text(obj, 0, writers or {}, (), allow_nan)


def _blank(obj):
    if isinstance(obj, dict):
        return {k: _blank(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_blank(v) for v in obj]
    return "%s"


def same_shape_texts(items, depth: int, leaves, allow_nan: bool = False) -> list[str]:
    """Texts of records at nesting ``depth`` that all have the first one's shape.

    The shape is the keys, the nesting and the list lengths. ``leaves(item)``
    lists one item's scalars in document order; the scalars of all items are
    encoded by one C-encoder call and set into a %-template of the shape.
    """
    if not items:
        return []
    template = _text(_blank(items[0]), depth, {}, (), False).replace('"%s"', "%s")
    # a raw line break occurs in the encoder's output only where the separator put it
    texts = _encoder(0, allow_nan)([value for item in items for value in leaves(item)])[1:-1].split(",\n")
    k = len(texts) // len(items)
    return [template % tuple(texts[i:i + k]) for i in range(0, len(texts), k)]
