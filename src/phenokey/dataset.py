"""Keypoint dataset types and COCO-style annotation I/O.

A dataset holds single-fish images, each with the full 22-keypoint set, as
columns: (N, 22, 2) coordinates, (N, 22) visibility flags, image ids, image
widths and heights, and species codes, one row per image in canonical id
order. Every consumer (validation, serialization, metrics, the prior and
the ACR loss) reads the arrays. Parsing decodes each annotation's keypoint
list into its row as it checks it.

Files use the standard COCO keypoint layout (``images``,
``annotations`` with flat x,y,v triplets, ``categories``). The canonical
serialization emitted here sorts images and annotations by id, writes keys
in a fixed order, and stores the dataset role in the ``info`` block, so a
serialize/parse cycle is lossless and a second serialization is byte-equal.

The category block is this package's own convention (the annotation format
leaves it open): the five species tags as categories 1..5, each listing the
22 keypoint names and an empty skeleton. Skeleton edges are ignored on input.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import DatasetValidationError, IntegrityError, ParseError, PhenokeyWarning, SchemaError
from .jsontext import dump, json_line, read_json, read_json_line, write_whole
from .schema import KEYPOINT_COUNT, KEYPOINT_NAMES, SPECIES, normalize_species

TRIPLET_LEN = 3 * KEYPOINT_COUNT

_ROLES = ("train", "test")


def _freeze(arr):
    arr.setflags(write=False)
    return arr


def _integers(name, values) -> np.ndarray:
    """``values`` as an int64 copy; a column of another dtype must hold whole numbers, checked before any cast."""
    column = np.asarray(values)
    if column.dtype.kind not in "biu":
        column = column.astype(np.float64)
        rows = np.atleast_1d(column)
        bad = ~np.isfinite(rows) | (rows != np.floor(rows)) | (np.abs(rows) >= 2.0**63)    # 2**63 overflows int64
        if bad.any():
            first = tuple(np.argwhere(bad)[0].tolist())
            raise ValueError(f"column {name} has {rows[first]} in row {first[0]}, expected an integer")
    return column.astype(np.int64)


def _id_sort_key(image_id):
    # ints sort before strings; ids of one dataset are normally homogeneous
    if isinstance(image_id, bool) or not isinstance(image_id, (int, float)):
        return (1, 0, str(image_id))
    return (0, image_id, "")


_SPECIES_CODE = {name: code for code, name in enumerate(SPECIES)}


class Dataset:
    """Ordered, immutable collection of single-fish images, as columns.

    The data is held as columns, row n describing one image, in canonical
    order (sorted by image id, the order of the serialized form):

    * ``xy`` (N, 22, 2) float64 keypoint coordinates and ``v`` (N, 22) int64
      visibility flags;
    * ``image_ids``, a tuple of ids;
    * ``width`` and ``height``, (N,) float64 image dimensions;
    * ``species``, (N,) int64 positions in :data:`~phenokey.schema.SPECIES`.

    The columns may be given in any row order; a column of the wrong shape, a
    ``v`` or ``species`` value that is no whole number (a fraction, NaN or an
    infinity), or a species code outside ``0..4``, raises ``ValueError``. The
    arrays are read-only copies. An image id may repeat: :func:`validate`
    reports each repeat as ``unique_image_id``, and the metrics pair a
    ground-truth row with the last prediction row of its id.
    """

    __slots__ = ("xy", "v", "image_ids", "width", "height", "species", "role")

    def __init__(self, xy, v, image_ids, width, height, species, role: str = "train"):
        if role not in _ROLES:
            raise ValueError(f"role must be one of {_ROLES}, got {role!r}")
        image_ids = tuple(image_ids)
        n = len(image_ids)
        columns = {
            "xy": (np.array(xy, dtype=np.float64), (n, KEYPOINT_COUNT, 2)),
            "v": (_integers("v", v), (n, KEYPOINT_COUNT)),
            "width": (np.array(width, dtype=np.float64), (n,)),
            "height": (np.array(height, dtype=np.float64), (n,)),
            "species": (_integers("species", species), (n,)),
        }
        for name, (column, shape) in columns.items():
            if column.shape != shape:
                raise ValueError(f"column {name} has shape {column.shape}, expected {shape} for {n} image ids")
        codes = columns["species"][0]
        bad = np.flatnonzero((codes < 0) | (codes >= len(SPECIES)))
        if bad.size:
            raise ValueError(f"column species has {codes[bad[0]]} in row {bad[0]}, expected 0..{len(SPECIES) - 1}")
        order = sorted(range(n), key=lambda k: _id_sort_key(image_ids[k]))
        canonical = order == list(range(n))  # no gather needed: the columns above are already copies
        for name, (column, _) in columns.items():
            object.__setattr__(self, name, _freeze(column if canonical else column[order]))
        object.__setattr__(self, "image_ids", tuple(image_ids[k] for k in order))
        object.__setattr__(self, "role", role)

    def __setattr__(self, name, value):
        raise AttributeError(f"Dataset is immutable; cannot set {name!r}")

    def take(self, rows) -> Dataset:
        """Dataset of the given rows, kept in canonical order."""
        rows = np.asarray(rows, dtype=np.intp)
        return Dataset(
            self.xy[rows],
            self.v[rows],
            [self.image_ids[k] for k in rows.tolist()],
            self.width[rows],
            self.height[rows],
            self.species[rows],
            self.role,
        )

    def __len__(self):
        return len(self.image_ids)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.role == other.role
            and list(self.image_ids) == list(other.image_ids)
            and np.array_equal(self.width, other.width)
            and np.array_equal(self.height, other.height)
            and np.array_equal(self.species, other.species)
            and np.array_equal(self.xy, other.xy, equal_nan=True)
            and np.array_equal(self.v, other.v)
        )


@dataclass(frozen=True)
class Violation:
    """One invariant breach found by :func:`validate`."""

    image_id: object
    keypoint_index: int | None
    rule: str
    detail: str

    def __str__(self):
        where = f"image {self.image_id!r}"
        if self.keypoint_index is not None:
            where += f", keypoint {self.keypoint_index}"
        return f"[{self.rule}] {where}: {self.detail}"


def annotated_nonfinite(xy, v) -> np.ndarray:
    """(N, 22) mask of the annotated keypoints (``v > 0``) with a non-finite coordinate."""
    # x and y apart: ``np.isfinite(xy).all(axis=-1)`` reduces over a length-2 axis, about 15 times slower
    return (v > 0) & ~(np.isfinite(xy[..., 0]) & np.isfinite(xy[..., 1]))


# Keypoint rules in priority order: a keypoint reports only the first it breaks.
_KEYPOINT_RULES = ("visibility_flag", "visible_finite", "visible_nonnegative", "visible_within_bounds")


def validate(dataset: Dataset) -> list[Violation]:
    """Check every dataset invariant; violations are returned, never raised.

    Rules reported: visibility_flag, visible_finite, visible_nonnegative,
    positive_dimensions, visible_within_bounds, unique_image_id. Violations
    come in record order; within a record, the record rules come first, then
    the keypoints in index order, each with the first rule it breaks.
    """
    xy, v, width, height = dataset.xy, dataset.v, dataset.width, dataset.height
    duplicate = np.zeros(len(dataset), dtype=bool)
    seen_ids = set()
    for n, image_id in enumerate(dataset.image_ids):
        duplicate[n] = image_id in seen_ids
        seen_ids.add(image_id)
    sized = (width > 0) & (height > 0)

    # rule[n, i] is 1 + the index in _KEYPOINT_RULES of the first rule broken, else 0
    x, y = xy[..., 0], xy[..., 1]
    used = v != 0
    rule = np.select(
        [
            (v < 0) | (v > 2),
            annotated_nonfinite(xy, v),    # v < 0, which it does not count as annotated, breaks the rule above
            used & ((x < 0) | (y < 0)),
            used & sized[:, None] & ((x > width[:, None]) | (y > height[:, None])),
        ],
        [1, 2, 3, 4],
        0,
    )

    violations = []
    for n in np.flatnonzero(duplicate | ~sized | rule.any(axis=1)).tolist():
        image_id, w, h = dataset.image_ids[n], float(width[n]), float(height[n])
        if duplicate[n]:
            violations.append(Violation(image_id, None, "unique_image_id", "duplicate image id"))
        if not sized[n]:
            violations.append(Violation(image_id, None, "positive_dimensions", f"width={w}, height={h}"))
        for i in np.flatnonzero(rule[n]):
            code = rule[n, i]
            px, py = xy[n, i]
            if code == 1:
                detail = f"v={int(v[n, i])}"
            elif code == 4:
                detail = f"({px}, {py}) outside {w} x {h}"
            else:
                detail = f"({px}, {py})"
            violations.append(Violation(image_id, int(i) + 1, _KEYPOINT_RULES[code - 1], detail))
    return violations


def _id_error(where: str, key: str, value) -> ParseError:
    return ParseError(f"{where}: field {key!r} must be a number or a string, got {value!r}")


def _image_error(k: int, img) -> ParseError | SchemaError:
    """Why the ``k``-th entry of ``images`` is no image, naming the entry and the field that is missing or wrong."""
    where = f"images[{k}]"
    if not isinstance(img, dict):
        return ParseError(f"{where} must be an object, got {type(img).__name__}")
    for key in ("id", "width", "height"):
        if key not in img:
            return ParseError(f"{where}: missing field {key!r}")
    if isinstance(img["id"], (dict, list)):
        return _id_error(where, "id", img["id"])
    for key in ("width", "height"):
        if type(img[key]) not in (int, float):
            return ParseError(f"{where}: field {key!r} must be a number, got {img[key]!r}")
        try:
            float(img[key])
        except OverflowError:
            digits = len(str(abs(img[key])))
            return SchemaError(f"{where}: field {key!r} is an integer of {digits} digits, past the float range")


def _coco_dataset(doc) -> Dataset:
    """The :class:`Dataset` of a decoded annotation document; see :func:`parse_coco`."""
    if not isinstance(doc, dict):
        raise ParseError(f"top level must be an object, got {type(doc).__name__}")
    for key, default in (("images", None), ("annotations", None), ("categories", [])):    # categories are optional
        if not isinstance(doc.get(key, default), list):
            raise ParseError(f"missing or non-array field {key!r}")

    images = {}
    for k, img in enumerate(doc["images"]):
        try:
            img_id, w, h = img["id"], img["width"], img["height"]
            known, size = img_id in images, (float(w), float(h))
        except (TypeError, KeyError, ValueError, OverflowError):
            raise _image_error(k, img) from None
        if type(w) not in (int, float) or type(h) not in (int, float):    # a JSON number, and no bool
            raise _image_error(k, img)
        if known:
            raise IntegrityError(f"duplicate image id {img_id!r} in images array")
        images[img_id] = size

    categories = {}
    for k, cat in enumerate(doc.get("categories", [])):
        if isinstance(cat, dict) and "id" in cat:
            if isinstance(cat["id"], (dict, list)):
                raise _id_error(f"categories[{k}]", "id", cat["id"])
            categories[cat["id"]] = _SPECIES_CODE[normalize_species(str(cat.get("name", "other")))]
    other = _SPECIES_CODE["other"]

    annotations = doc["annotations"]
    # rows only for annotations that can pass (each takes an unused image): 16M `0`s must not make an 8 GB array
    triplets = np.empty((min(len(annotations), len(images)), TRIPLET_LEN))
    ann_ids, image_ids, sizes, species = [], [], [], []
    seen = set()
    for k, ann in enumerate(annotations):
        ann_id = ann.get("id", "<missing>") if isinstance(ann, dict) else "<missing>"
        if not isinstance(ann, dict) or "image_id" not in ann or "keypoints" not in ann:
            raise ParseError(f"annotation {ann_id!r} missing image_id or keypoints")
        img_id = ann["image_id"]
        try:
            known, code = img_id in images, categories.get(ann.get("category_id"), other)
        except TypeError:    # an array or an object as an id
            key = "image_id" if isinstance(img_id, (dict, list)) else "category_id"
            raise _id_error(f"annotation {ann_id!r}", key, ann[key]) from None
        if not known:
            raise IntegrityError(f"annotation {ann_id!r} references unknown image id {img_id!r}")
        if img_id in seen:
            raise IntegrityError(f"duplicate image id {img_id!r}: multiple annotations for one image")
        flat = ann["keypoints"]
        if not isinstance(flat, (list, tuple)) or len(flat) != TRIPLET_LEN:
            found = len(flat) if isinstance(flat, (list, tuple)) else type(flat).__name__
            raise SchemaError(f"annotation {ann_id!r}: keypoints list has {found} values, expected {TRIPLET_LEN}")
        try:
            triplets[k] = flat
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"annotation {ann_id!r}: non-numeric keypoints entry: {exc}") from exc
        seen.add(img_id)
        ann_ids.append(ann_id)
        image_ids.append(img_id)
        sizes.append(images[img_id])
        species.append(code)

    triplets = triplets.reshape(-1, KEYPOINT_COUNT, 3)
    flags = triplets[..., 2]
    bad = ~(np.abs(flags) < 2**63) | (flags != np.trunc(flags))    # NaN, infinity, past int64, or a fraction
    if bad.any():
        n, i = np.argwhere(bad)[0]
        flag = float(flags[n, i])
        kind = "fractional" if abs(flag) < 2**63 else "out-of-range"
        raise SchemaError(f"annotation {ann_ids[n]!r}: keypoint {i + 1} has {kind} visibility flag {flag!r}")

    info = doc.get("info", {})
    role = info.get("role", "train") if isinstance(info, dict) else "train"
    if role not in _ROLES:
        role = "train"
    width, height = np.array(sizes, dtype=np.float64).reshape(-1, 2).T
    return Dataset(
        triplets[..., :2], flags.astype(np.int64), image_ids, width, height, species, role
    )


_CACHE_ENTRIES = 8    # parsed annotation files kept; keeping one more removes the oldest written
_CACHED = (("xy", "<f8", (KEYPOINT_COUNT, 2)), ("v", "<i8", (KEYPOINT_COUNT,)), ("width", "<f8", ()),
           ("height", "<f8", ()), ("species", "<i8", ()))    # an entry's numeric columns, in the order it holds them


def _cached_dataset(data: bytes):
    """The :class:`Dataset` of a cache entry's bytes, or None if it is no parse's; a damaged header may raise."""
    (role, ids), start = read_json_line(data)
    if type(ids) is not list or len(set(ids)) != len(ids):
        return None
    columns = {}
    for name, dtype, shape in _CACHED:    # a column past the end of data is a ValueError
        columns[name] = np.frombuffer(data, dtype, len(ids) * math.prod(shape), start).reshape(len(ids), *shape)
        start += columns[name].nbytes
    return Dataset(image_ids=ids, role=role, **columns) if start == len(data) else None


def _parse_cache(data: bytes):
    """The :class:`Dataset` that annotation file bytes ``data`` parsed to before, or None, and a function keeping a
    new one. An entry is the JSON line ``[role, image ids]`` and the little-endian bytes of each ``_CACHED`` column,
    named by SHA-256 over the Python and numpy versions, this package's sources and ``data``; one that is unreadable,
    no parse's or of another length than its ids give is a miss."""
    import hashlib    # here, since its OpenSSL adds about 4 MB to every process that imports it
    try:
        key = hashlib.sha256(f"{sys.version}\0{np.__version__}".encode())
        for source in sorted(Path(__file__).parent.glob("*.py")):
            key.update(source.name.encode() + hashlib.sha256(source.read_bytes()).digest())
        key.update(data)
        base = os.environ.get("XDG_CACHE_HOME", "")
        entry = Path(base if os.path.isabs(base) else Path.home() / ".cache", "phenokey", key.hexdigest())
    except (OSError, RuntimeError):    # unreadable sources, or no home directory
        return None, lambda dataset: None

    def keep(dataset):
        head = json_line([dataset.role, list(dataset.image_ids)])    # an id may be inf
        columns = (np.asarray(getattr(dataset, name), dtype).tobytes() for name, dtype, _ in _CACHED)
        with suppress(OSError):
            entry.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
            write_whole(entry, chain([head], columns))
            for old in sorted(entry.parent.glob("[0-9a-f]" * 64), key=os.path.getmtime)[:-_CACHE_ENTRIES]:
                old.unlink(missing_ok=True)

    with suppress(OSError, ValueError, TypeError, RecursionError):
        return _cached_dataset(entry.read_bytes()), keep
    return None, keep


def parse_coco(path) -> Dataset:
    """Read a COCO keypoint annotation file into a :class:`Dataset`.

    One record per annotated image; the 66-value triplet list decodes into 22 (x, y, v) entries. Species comes from
    the annotation's category name when recognizable, else ``other``. The dataset role is read from ``info.role``
    when present (defaults to ``train``).

    Each annotation is checked and decoded in file order, so an error names the first offending annotation; the
    visibility flags are checked once every annotation has decoded. Every error starts with ``path``. A parse is
    kept by the file's bytes (:func:`_parse_cache`), so a file parsed before is not decoded again.
    """
    dataset = read_json(path, _coco_dataset, cache=_parse_cache)
    if not len(dataset):
        warnings.warn(f"{path}: annotations array is empty; dataset has no records", PhenokeyWarning, stacklevel=2)
    return dataset


_CHUNK = 500    # rows per record list that serialize_coco encodes and writes at once, which bounds its memory


def _annotations(dataset: Dataset, rows: slice) -> list:
    xy, v = dataset.xy[rows], dataset.v[rows]
    # x, y, v triplets as Python floats, with the flags swapped back to ints
    triplets = np.concatenate([xy, v[..., None].astype(np.float64)], axis=2).reshape(len(v), TRIPLET_LEN).tolist()
    for row, row_flags in zip(triplets, v.tolist()):
        row[2::3] = row_flags
    columns = zip(dataset.image_ids[rows], dataset.species[rows].tolist(), triplets, (v > 0).sum(axis=1).tolist())
    return [{"id": k, "image_id": image_id, "category_id": code + 1, "keypoints": row, "num_keypoints": num}
            for k, (image_id, code, row, num) in enumerate(columns, start=rows.start + 1)]


def _coco_doc(dataset: Dataset, chunks: list) -> dict:
    """:func:`dataset_to_coco_dict` with images and annotations as generators of record lists, one per row slice."""
    ids, width, height = dataset.image_ids, dataset.width, dataset.height
    images = (
        [{"id": i, "width": w, "height": h, "file_name": f"{i}.jpg"}
         for i, w, h in zip(ids[rows], width[rows].tolist(), height[rows].tolist())]
        for rows in chunks
    )
    names = [KEYPOINT_NAMES[i] for i in range(1, KEYPOINT_COUNT + 1)]
    categories = [{"id": code + 1, "name": sp, "supercategory": "fish", "keypoints": names.copy(), "skeleton": []}
                  for code, sp in enumerate(SPECIES)]
    return {
        "info": {"description": "fish keypoint annotations", "role": dataset.role},
        "licenses": [],
        "images": images,
        "annotations": (_annotations(dataset, rows) for rows in chunks),
        "categories": categories,
    }


def dataset_to_coco_dict(dataset: Dataset) -> dict:
    """Canonical document form of a dataset (fixed key order, sorted by id)."""
    doc = _coco_doc(dataset, [slice(0, len(dataset))])
    return doc | {"images": next(doc["images"]), "annotations": next(doc["annotations"])}


def serialize_coco(dataset: Dataset, path) -> None:
    """Write the canonical annotation document; fails fast on invalid data.

    The text is ``json.dumps(dataset_to_coco_dict(dataset), indent=2)`` byte for byte, written with the C encoder
    (see :mod:`phenokey.jsontext`) ``_CHUNK`` records at a time, so the writer's memory does not grow with the data.
    """
    violations = validate(dataset)
    if violations:
        raise DatasetValidationError(violations)
    doc = _coco_doc(dataset, [slice(k, k + _CHUNK) for k in range(0, len(dataset), _CHUNK)])
    dump(doc, path, allow_nan=True)    # NaN may stand on hidden keypoints
