"""Keypoint dataset types and COCO-style annotation I/O.

A dataset holds single-fish images, each with the full 22-keypoint set, as
columns: (N, 22, 2) coordinates, (N, 22) visibility flags, image ids, image
widths and heights, and species codes, one row per image in canonical id
order. Whole-file code (validation, serialization, metrics, the prior and
the ACR loss) reads the arrays; :class:`FishImageRecord` and
:class:`KeypointSet` are per-image views of one row, built on demand.
Parsing decodes all keypoint lists of a file into the columns in one call.

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

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DatasetValidationError, IntegrityError, ParseError, PhenokeyWarning, SchemaError
from .jsontext import dumps, read_json
from .schema import KEYPOINT_COUNT, KEYPOINT_NAMES, SPECIES, normalize_species

TRIPLET_LEN = 3 * KEYPOINT_COUNT

_ROLES = ("train", "test")


def _freeze(arr):
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class KeypointSet:
    """The 22 annotated points of one fish: pixel coordinates plus visibility."""

    xy: np.ndarray          # (22, 2) float64
    v: np.ndarray           # (22,) int64, values 0/1/2
    image_id: object
    species: str = "other"

    def __post_init__(self):
        xy = np.asarray(self.xy, dtype=np.float64)
        v = np.asarray(self.v, dtype=np.int64)
        if xy.shape != (KEYPOINT_COUNT, 2):
            raise ValueError(f"expected {KEYPOINT_COUNT} keypoints with 2 coordinates, got shape {xy.shape}")
        if v.shape != (KEYPOINT_COUNT,):
            raise ValueError(f"expected {KEYPOINT_COUNT} visibility flags, got shape {v.shape}")
        if self.species not in SPECIES:
            raise ValueError(f"unknown species tag {self.species!r}")
        object.__setattr__(self, "xy", _freeze(xy))
        object.__setattr__(self, "v", _freeze(v))

    @property
    def visible(self) -> np.ndarray:
        """Boolean mask over the 22 keypoints with v > 0."""
        return self.v > 0

    def __eq__(self, other):
        if not isinstance(other, KeypointSet):
            return NotImplemented
        return (
            self.image_id == other.image_id
            and self.species == other.species
            and np.array_equal(self.xy, other.xy, equal_nan=True)
            and np.array_equal(self.v, other.v)
        )


@dataclass(frozen=True)
class FishImageRecord:
    """One annotated image: dimensions plus its keypoint set."""

    image_id: object
    width: float
    height: float
    keypoints: KeypointSet


def _id_sort_key(image_id):
    # ints sort before strings; ids of one dataset are normally homogeneous
    if isinstance(image_id, bool) or not isinstance(image_id, (int, float)):
        return (1, 0, str(image_id))
    return (0, image_id, "")


_SPECIES_CODE = {name: code for code, name in enumerate(SPECIES)}


class Dataset:
    """Ordered, immutable collection of single-fish records with unique image ids.

    The data is held as columns, row n describing one image, in canonical
    order (sorted by image id, the order of the serialized form):

    * ``xy`` (N, 22, 2) float64 keypoint coordinates and ``v`` (N, 22) int64
      visibility flags;
    * ``image_ids``, a tuple of ids;
    * ``width`` and ``height``, (N,) float64 image dimensions;
    * ``species``, (N,) int64 positions in :data:`~phenokey.schema.SPECIES`.

    The arrays are read-only and are the only copy of the data. ``records``
    gives the rows as :class:`FishImageRecord` views over the columns, built
    on first use and then kept; a dataset built from records (each with its own
    image's keypoints) stacks them into columns and does not keep them.
    """

    __slots__ = ("xy", "v", "image_ids", "width", "height", "species", "role", "_records")

    def __init__(self, records=(), role: str = "train"):
        records = tuple(records)
        for r in records:
            if r.keypoints.image_id != r.image_id:
                raise ValueError(f"record {r.image_id!r} holds the keypoints of image {r.keypoints.image_id!r}")
        xy = np.reshape([r.keypoints.xy for r in records], (-1, KEYPOINT_COUNT, 2))
        v = np.reshape([r.keypoints.v for r in records], (-1, KEYPOINT_COUNT))
        ids = tuple(r.image_id for r in records)
        widths, heights = [r.width for r in records], [r.height for r in records]
        self._fill(xy, v, ids, widths, heights, [_SPECIES_CODE[r.keypoints.species] for r in records], role)

    @classmethod
    def from_columns(cls, xy, v, image_ids, width, height, species, role: str = "train") -> Dataset:
        """Dataset over columns given in any row order; rows are put in canonical order.

        ``species`` holds positions in :data:`~phenokey.schema.SPECIES`.
        """
        self = cls.__new__(cls)
        self._fill(xy, v, tuple(image_ids), width, height, species, role)
        return self

    def _fill(self, xy, v, image_ids, width, height, species, role):
        if role not in _ROLES:
            raise ValueError(f"role must be one of {_ROLES}, got {role!r}")
        n = len(image_ids)
        columns = {
            "xy": (np.array(xy, dtype=np.float64), (n, KEYPOINT_COUNT, 2)),
            "v": (np.array(v, dtype=np.int64), (n, KEYPOINT_COUNT)),
            "width": (np.array(width, dtype=np.float64), (n,)),
            "height": (np.array(height, dtype=np.float64), (n,)),
            "species": (np.array(species, dtype=np.int64), (n,)),
        }
        order = sorted(range(n), key=lambda k: _id_sort_key(image_ids[k]))
        canonical = order == list(range(n))  # no gather needed: the columns above are already copies
        for name, (column, shape) in columns.items():
            if column.shape != shape:
                raise ValueError(f"column {name} has shape {column.shape}, expected {shape} for {n} image ids")
            object.__setattr__(self, name, _freeze(column if canonical else column[order]))
        object.__setattr__(self, "image_ids", tuple(image_ids[k] for k in order))
        object.__setattr__(self, "role", role)
        object.__setattr__(self, "_records", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"Dataset is immutable; cannot set {name!r}")

    @property
    def records(self) -> tuple:
        """The rows as :class:`FishImageRecord` views over the columns."""
        if self._records is None:
            records = tuple(
                FishImageRecord(
                    image_id=image_id,
                    width=width,
                    height=height,
                    keypoints=KeypointSet(xy=xy, v=v, image_id=image_id, species=SPECIES[code]),
                )
                for image_id, width, height, code, xy, v in zip(
                    self.image_ids, self.width.tolist(), self.height.tolist(), self.species.tolist(), self.xy, self.v
                )
            )
            object.__setattr__(self, "_records", records)
        return self._records

    def take(self, rows) -> Dataset:
        """Dataset of the given rows, kept in canonical order."""
        rows = np.asarray(rows, dtype=np.intp)
        return Dataset.from_columns(
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

    def __iter__(self):
        return iter(self.records)

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
            used & ~(np.isfinite(x) & np.isfinite(y)),
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


def _decode(flats, ann_ids, path) -> np.ndarray:
    """(n, 22, 3) float64 triplets of the annotations' keypoint lists, decoded in one call.

    When that fails, the first annotation in file order whose list does not
    decode on its own is named.
    """
    try:
        return np.array(flats, dtype=np.float64).reshape(len(flats), KEYPOINT_COUNT, 3)
    except (TypeError, ValueError):
        for flat, ann_id in zip(flats, ann_ids):
            try:
                np.asarray(flat, dtype=np.float64).reshape(KEYPOINT_COUNT, 3)
            except (TypeError, ValueError) as exc:
                raise ParseError(f"{path}: annotation {ann_id!r}: non-numeric keypoints entry: {exc}") from exc
        raise


def _id_error(where: str, key: str, value) -> ParseError:
    return ParseError(f"{where}: field {key!r} must be a number or a string, got {value!r}")


def _image_error(path, k: int, img) -> ParseError | SchemaError:
    """Why the ``k``-th entry of ``images`` is no image, naming the entry and the field that is missing or wrong."""
    where = f"{path}: images[{k}]"
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


def parse_coco(path) -> Dataset:
    """Read a COCO keypoint annotation file into a :class:`Dataset`.

    One record per annotated image; the 66-value triplet list decodes into
    22 (x, y, v) entries. Species comes from the annotation's category name
    when recognizable, else ``other``. The dataset role is read from
    ``info.role`` when present (defaults to ``train``).

    Each annotation gets its structural checks in file order; the keypoint
    lists of all annotations are then decoded into the columns at once. An
    error names the first offending annotation in file order.
    """
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object, got {type(doc).__name__}")
    for key in ("images", "annotations"):
        if key not in doc or not isinstance(doc[key], list):
            raise ParseError(f"{path}: missing or non-array field {key!r}")

    images = {}
    for k, img in enumerate(doc["images"]):
        try:
            img_id, w, h = img["id"], img["width"], img["height"]
            known, size = img_id in images, (float(w), float(h))
        except (TypeError, KeyError, ValueError, OverflowError):
            raise _image_error(path, k, img) from None
        if type(w) not in (int, float) or type(h) not in (int, float):    # a JSON number, and no bool
            raise _image_error(path, k, img)
        if known:
            raise IntegrityError(f"duplicate image id {img_id!r} in images array")
        images[img_id] = size

    categories = {}
    for k, cat in enumerate(doc.get("categories", [])):
        if isinstance(cat, dict) and "id" in cat:
            if isinstance(cat["id"], (dict, list)):
                raise _id_error(f"{path}: categories[{k}]", "id", cat["id"])
            categories[cat["id"]] = _SPECIES_CODE[normalize_species(str(cat.get("name", "other")))]
    other = _SPECIES_CODE["other"]

    annotations = doc["annotations"]
    if not annotations:
        warnings.warn(f"{path}: annotations array is empty; dataset has no records", PhenokeyWarning, stacklevel=2)

    flats, ann_ids, image_ids, sizes, species = [], [], [], [], []
    seen = set()

    def after_earlier_entries(exc):
        # a non-numeric list in an earlier annotation is the first error in file order
        _decode(flats, ann_ids, path)
        return exc

    for ann in annotations:
        ann_id = ann.get("id", "<missing>") if isinstance(ann, dict) else "<missing>"
        if not isinstance(ann, dict) or "image_id" not in ann or "keypoints" not in ann:
            raise after_earlier_entries(ParseError(f"{path}: annotation {ann_id!r} missing image_id or keypoints"))
        img_id = ann["image_id"]
        try:
            known, code = img_id in images, categories.get(ann.get("category_id"), other)
        except TypeError:    # an array or an object as an id
            key = "image_id" if isinstance(img_id, (dict, list)) else "category_id"
            raise after_earlier_entries(_id_error(f"{path}: annotation {ann_id!r}", key, ann[key])) from None
        if not known:
            raise after_earlier_entries(IntegrityError(f"annotation {ann_id!r} references unknown image id {img_id!r}"))
        if img_id in seen:
            raise after_earlier_entries(
                IntegrityError(f"duplicate image id {img_id!r}: multiple annotations for one image")
            )
        flat = ann["keypoints"]
        if not isinstance(flat, (list, tuple)) or len(flat) != TRIPLET_LEN:
            found = len(flat) if isinstance(flat, (list, tuple)) else type(flat).__name__
            raise after_earlier_entries(
                SchemaError(f"annotation {ann_id!r}: keypoints list has {found} values, expected {TRIPLET_LEN}")
            )
        seen.add(img_id)
        flats.append(flat)
        ann_ids.append(ann_id)
        image_ids.append(img_id)
        sizes.append(images[img_id])
        species.append(code)

    triplets = _decode(flats, ann_ids, path)
    flags = triplets[..., 2]
    fractional = np.isfinite(flags) & (flags != np.trunc(flags))
    if fractional.any():
        n, i = np.argwhere(fractional)[0]
        raise SchemaError(
            f"annotation {ann_ids[n]!r}: keypoint {i + 1} has fractional visibility flag {float(flags[n, i])!r}"
        )

    info = doc.get("info", {})
    role = info.get("role", "train") if isinstance(info, dict) else "train"
    if role not in _ROLES:
        role = "train"
    width, height = np.array(sizes, dtype=np.float64).reshape(-1, 2).T
    return Dataset.from_columns(
        triplets[..., :2], flags.astype(np.int64), image_ids, width, height, species, role
    )


def dataset_to_coco_dict(dataset: Dataset) -> dict:
    """Canonical document form of a dataset (fixed key order, sorted by id)."""
    xy, v = dataset.xy, dataset.v
    n = len(dataset)
    # x, y, v triplets as Python floats, with the flags swapped back to ints
    rows = np.concatenate([xy, v[..., None].astype(np.float64)], axis=2).reshape(n, TRIPLET_LEN).tolist()
    for row, row_flags in zip(rows, v.tolist()):
        row[2::3] = row_flags
    images = [
        {"id": image_id, "width": width, "height": height, "file_name": f"{image_id}.jpg"}
        for image_id, width, height in zip(dataset.image_ids, dataset.width.tolist(), dataset.height.tolist())
    ]
    annotations = [
        {
            "id": k,
            "image_id": image_id,
            "category_id": code + 1,
            "keypoints": row,
            "num_keypoints": num,
        }
        for k, (image_id, code, row, num) in enumerate(
            zip(dataset.image_ids, dataset.species.tolist(), rows, (v > 0).sum(axis=1).tolist()), start=1
        )
    ]
    categories = [
        {
            "id": code + 1,
            "name": sp,
            "supercategory": "fish",
            "keypoints": [KEYPOINT_NAMES[i] for i in range(1, KEYPOINT_COUNT + 1)],
            "skeleton": [],
        }
        for code, sp in enumerate(SPECIES)
    ]
    return {
        "info": {"description": "fish keypoint annotations", "role": dataset.role},
        "licenses": [],
        "images": images,
        "annotations": annotations,
        "categories": categories,
    }


def serialize_coco(dataset: Dataset, path) -> None:
    """Write the canonical annotation document; fails fast on invalid data.

    The text is ``json.dumps(doc, indent=2)`` byte for byte, written with the
    C encoder (see :mod:`phenokey.jsontext`).
    """
    violations = validate(dataset)
    if violations:
        raise DatasetValidationError(violations)
    # NaN may stand on hidden keypoints
    text = dumps(dataset_to_coco_dict(dataset), allow_nan=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")
