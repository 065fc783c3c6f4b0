"""The JSON reader of every input file, the writer of every output file, and ``json.dumps(obj, indent=2)`` text.

Python's ``json`` module drops to its pure-Python encoder whenever ``indent``
is set. Here the C encoder writes every flat container (a list or dict whose
values are all scalars) in one call, with an item separator that carries the
line break and the indentation, and the nested levels around them are joined
from those pieces. The writer finds every list of records that share one
shape (keys in order, nesting and list lengths) itself and fills a %-template
of that shape with one text per scalar and one per block, a list of at least
``_BLOCK_MIN`` scalars such as an annotation's 66 ``keypoints``. One C-encoder
call writes a position for all records, a block as a list of lists with the
separator of its depth, and the output is split into one text per record.
Any other list is written item by item. Reports reject NaN and infinities
(``allow_nan=False``, a ``ValueError``); annotation files may carry NaN on
hidden keypoints. :func:`dump` writes the pieces to a file instead of joining
them, and a list may come as a generator of record lists, written as their
concatenation, so the file writer holds one of them at a time.
"""

from __future__ import annotations

import json
import os
import re
import stat
import sys
from functools import cache
from itertools import chain, repeat
from operator import eq, itemgetter
from types import GeneratorType

from .errors import IntegrityError, ParseError, PhenokeyError, SchemaError, named

_CONTAINERS = (dict, list, tuple)
_NESTED = _CONTAINERS + (GeneratorType,)    # what :func:`_pieces` walks: a generator of record lists is one list


def read_json(path, decode=lambda doc: doc, name=None, cache=None):
    """The document in the JSON file ``path``, passed through ``decode``.

    Errors start with ``name``, the path by default: a text that is no UTF-8 raises :class:`ParseError`, as does a
    malformed one, naming its line and column, and any other ``ValueError`` or ``RecursionError`` of ``json``; a
    :class:`ParseError`, :class:`SchemaError` or :class:`IntegrityError` from ``decode`` is raised again as the same
    class with the name in front, so no message of ``decode`` carries the path. ``cache(data)`` of the file's bytes,
    if given, returns a value decoded from the same bytes before, or None, and a function that keeps a value decoded
    now.
    """
    name = path if name is None else name
    with open(path, "rb") as fh:
        content = fh.read()
    found, keep = cache(content) if cache else (None, lambda value: None)
    if found is not None:
        return found
    try:
        content = content.decode("utf-8")    # the file is held once at a time: as bytes, text, then a document
        content = content.replace("\r\n", "\n").replace("\r", "\n") if "\r" in content else content    # as open() reads
        doc = json.loads(content)
        del content
    except json.JSONDecodeError as exc:
        raise ParseError(f"{name}: malformed document at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:    # no UTF-8 text, or json's limits: 4,300-digit integers, deep nesting
        raise ParseError(f"{name}: {exc}") from exc
    with named(name, ParseError, SchemaError, IntegrityError):
        value = decode(doc)
    del doc    # so keeping the value costs no memory beyond the document's peak
    keep(value)
    return value


def write_whole(path, pieces, *more) -> None:
    """Write the text ``pieces`` to ``path`` whole or not at all, and each ``(path, pieces)`` pair of ``more`` with
    it: every file is written before any takes its place, so a refusal leaves every destination as it was. None or
    ``-`` is stdout, the pieces joined first. A new or regular file is written as ``<dest>.<pid>.part`` (the k-th of
    ``more`` as ``<dest>.<pid>.<k>.part``), which takes its place and an old file's mode after the last piece of the
    last file; every part is removed on any exception. A symlink is followed, a FIFO, device or directory opened in
    place."""
    written = []    # (part, dest, mode) of each file so far; (text, None, None) for stdout
    try:
        for k, (path, pieces) in enumerate(((path, pieces), *more)):
            if path is None or path == "-":
                written.append(("".join(pieces), None, None))    # so a refusal prints nothing
                continue
            dest = os.path.realpath(path)
            try:
                mode = os.stat(dest).st_mode if os.path.lexists(dest) else None
                suffix = f".{k}" if k else ""    # so two destinations that are one file get two parts
                part = dest if mode is not None and not stat.S_ISREG(mode) else f"{dest}.{os.getpid()}{suffix}.part"
                fh = open(part, "w", encoding="utf-8", newline="")
            except OSError as exc:
                exc.filename = os.fspath(path)    # the error names the destination, not its sibling
                raise
            written.append((part, dest, mode))
            with fh:
                fh.writelines(pieces)
        for part, dest, mode in written:
            if dest is None:
                sys.stdout.write(part)
            elif part != dest:
                if mode is not None:
                    os.chmod(part, stat.S_IMODE(mode))
                os.replace(part, dest)
    except BaseException:
        for part, dest, _ in written:
            if dest is not None and part != dest and os.path.lexists(part):
                os.remove(part)
        raise


def csv_field(value) -> str:
    """``value`` as a field of a ``csv.writer`` row: None empty, a comma, quote or line break quoted, quotes doubled."""
    text = "" if value is None else str(value)
    return f'"{text.replace(chr(34), chr(34) * 2)}"' if any(c in text for c in ',"\r\n') else text


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


_BLOCK_MIN = 8    # shorter lists cost more as one list per record than as scalars (crossover at 5k records: 5-8)


def _block(obj) -> bool:
    """A list of at least ``_BLOCK_MIN`` scalars, which a record list writes as one text per record."""
    flat = isinstance(obj, (list, tuple)) and not any(isinstance(v, _CONTAINERS) for v in obj)
    return flat and len(obj) >= _BLOCK_MIN


def _columns(objs, first, depth):
    """``(values, depth)`` of the containers ``objs`` position by position, inner containers spliced in, each check
    one C-level pass over ``objs``; None if one differs from ``first`` in its keys and their order, its nesting or a
    list length, or if ``first`` has a key that is no str (``1 == True``, but the two keys are written differently).
    A scalar of ``first`` gives the records' values there and depth None, a block their lists and its nesting."""
    if isinstance(first, dict):
        head = tuple(first)
        same = all(isinstance(k, str) for k in head) and all(map(isinstance, objs, repeat(dict)))
        same = same and all(map(eq, map(tuple, objs), repeat(head)))
        objs, first = map(dict.values, objs), list(first.values())
    else:
        same = all(map(isinstance, objs, repeat((list, tuple)))) and all(map(eq, map(len, objs), repeat(len(first))))
        if same and _block(first):
            return [(objs, depth)]
    if not same:
        return None
    width = len(first)
    values = list(chain.from_iterable(objs))
    columns = []
    for i, value in enumerate(first):
        column = values[i::width]
        inner = _columns(column, value, depth + 1) if isinstance(value, _CONTAINERS) else [(column, None)]
        if inner is None:
            return None
        columns += inner
    return columns


def _block_texts(lists, depth: int, allow_nan: bool):
    """The inner texts of ``lists``, opening at nesting ``depth``, from one C-encoder call split between the lists;
    None if one holds a container, which shows as a bracket after a separator or after the list's own bracket."""
    if any(map(isinstance, map(itemgetter(0), lists), repeat(_CONTAINERS))):
        return None
    sep = ",\n" + "  " * (depth + 1)
    text = _encoder(depth + 1, allow_nan)(lists)[2:-2]
    # the n - 1 boundaries between the lists hold every "[" that follows a separator
    if text.count(sep + "[") != len(lists) - 1 or sep + "{" in text:
        return None
    return text.split("]" + sep + "[")


def _blank(obj):
    if isinstance(obj, dict):
        return {k: _blank(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return ["%s"] if _block(obj) else [_blank(v) for v in obj]
    return "%s"


def _record_texts(items, depth: int, allow_nan: bool):
    """Texts of the records ``items`` at nesting ``depth`` if all have the first one's shape and it holds a scalar.

    The shape is the keys in order, the nesting and the list lengths. Each scalar or block position is encoded for
    all records by one C-encoder call, and each record fills a %-template of the shape. Other lists give None.
    """
    columns = _columns(items, items[0], depth) if isinstance(items[0], _CONTAINERS) else None
    if not columns:
        return None
    scalars = [values for values, block_depth in columns if block_depth is None]
    # every scalar in one call, record by record; a container there opens a line with its bracket (see _block_texts)
    text = _encoder(0, allow_nan)(list(chain.from_iterable(zip(*scalars))))[1:-1]
    if "\n[" in text or "\n{" in text:
        return None
    flat = text.split(",\n")
    dealt = iter([flat[j::len(scalars)] for j in range(len(scalars))])    # back into columns
    texts = [next(dealt) if d is None else _block_texts(values, d, allow_nan) for values, d in columns]
    if None in texts:
        return None
    # a blank is a value, never a key: the closing quote of a key is followed by ":"
    parts = re.split(r'"%s"(?!:)', "".join(_pieces(_blank(items[0]), depth, False)))
    template = "%s".join(part.replace("%", "%%") for part in parts)
    return [template % record for record in zip(*texts)]


def _pieces(obj, depth: int, allow_nan: bool):
    """The text of ``obj``, its opening bracket at nesting ``depth``, in pieces whose concatenation is the text, so no
    level copies the text of the levels inside it. A generator stands for a list: the concatenation of the record
    lists it yields, each encoded when it is taken, so only one of them need exist at a time."""
    is_dict, pad = isinstance(obj, dict), "  " * (depth + 1)
    values = obj.values() if is_dict else obj
    if not isinstance(obj, _NESTED):
        yield _encoder(0, allow_nan)(obj)
    elif not isinstance(obj, GeneratorType) and not any(isinstance(v, _NESTED) for v in values):
        yield _flat_text(obj, depth, allow_nan)
    elif is_dict:
        # the C encoder writes the keys, a non-str one included, as json.dumps does; a key has no raw line break
        keys = _encoder(0, allow_nan)(dict.fromkeys(obj, 0))[1:-4].split(": 0,\n")
        for k, (key, v) in enumerate(zip(keys, values)):
            yield f"{',' if k else '{'}\n{pad}{key}: "
            yield from _pieces(v, depth + 1, allow_nan)
        yield f"\n{'  ' * depth}}}"
    else:
        head = "[\n" + pad
        for chunk in obj if isinstance(obj, GeneratorType) else [obj]:
            texts = _record_texts(chunk, depth + 1, allow_nan) if chunk else None
            for k, v in enumerate(chunk):
                yield head
                yield from _pieces(v, depth + 1, allow_nan) if texts is None else (texts[k],)
                head = ",\n" + pad
        yield "[]" if head[0] == "[" else f"\n{'  ' * depth}]"


def dumps(obj, allow_nan: bool = False) -> str:
    """``json.dumps(obj, indent=2, allow_nan=allow_nan)``, byte for byte."""
    return "".join(_pieces(obj, 0, allow_nan))


def dump(obj, path, allow_nan: bool = False) -> None:
    """Write ``dumps(obj, allow_nan)`` and a newline to ``path`` with :func:`write_whole`, piece by piece; the encoder's
    refusal of NaN or infinity, after which no file is left, is a :class:`PhenokeyError` naming ``path``."""
    try:
        write_whole(path, chain(_pieces(obj, 0, allow_nan), "\n"))
    except ValueError as exc:
        raise PhenokeyError(f"{path or 'stdout'}: {exc}") from exc
