"""Keypoint dataset types and COCO-style annotation I/O.

A dataset is a list of single-fish image records, each carrying the full
22-keypoint set. Files use the standard COCO keypoint layout (``images``,
``annotations`` with flat x,y,v triplets, ``categories``). The canonical
serialization emitted here sorts images and annotations by id, writes keys
in a fixed order, and stores the dataset role in the ``info`` block, so a
serialize/parse cycle is lossless and a second serialization is byte-equal.

The category block is this package's own convention (the annotation format
leaves it open): the five species tags as categories 1..5, each listing the
22 keypoint names and an empty skeleton. Skeleton edges are ignored on input.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DatasetValidationError,
    IntegrityError,
    ParseError,
    PhenokeyWarning,
    SchemaError,
)
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

    def point(self, index: int) -> tuple[float, float, int]:
        """(x, y, v) of the 1-based keypoint ``index``."""
        if not 1 <= index <= KEYPOINT_COUNT:
            raise KeyError(f"keypoint index must be in 1..{KEYPOINT_COUNT}, got {index}")
        x, y = self.xy[index - 1]
        return float(x), float(y), int(self.v[index - 1])

    def __eq__(self, other):
        if not isinstance(other, KeypointSet):
            return NotImplemented
        return (
            self.image_id == other.image_id
            and self.species == other.species
            and np.array_equal(self.xy, other.xy, equal_nan=True)
            and np.array_equal(self.v, other.v)
        )


@dataclass(frozen=True, eq=False)
class FishImageRecord:
    """One annotated image: dimensions plus its keypoint set."""

    image_id: object
    width: float
    height: float
    keypoints: KeypointSet

    def __eq__(self, other):
        if not isinstance(other, FishImageRecord):
            return NotImplemented
        return (
            self.image_id == other.image_id
            and self.width == other.width
            and self.height == other.height
            and self.keypoints == other.keypoints
        )


def _id_sort_key(image_id):
    # ints sort before strings; ids of one dataset are normally homogeneous
    if isinstance(image_id, bool) or not isinstance(image_id, (int, float)):
        return (1, 0, str(image_id))
    return (0, image_id, "")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Ordered, immutable collection of records with unique image ids.

    Records are kept in canonical order (sorted by image id), which makes the
    serialized form and the in-memory form agree on ordering.
    """

    records: tuple = field(default_factory=tuple)
    role: str = "train"

    def __post_init__(self):
        if self.role not in _ROLES:
            raise ValueError(f"role must be one of {_ROLES}, got {self.role!r}")
        ordered = tuple(sorted(self.records, key=lambda r: _id_sort_key(r.image_id)))
        object.__setattr__(self, "records", ordered)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.role == other.role and list(self.records) == list(other.records)


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


def stack_keypoints(sets) -> tuple[np.ndarray, np.ndarray]:
    """(n, 22, 2) coordinates and (n, 22) flags of a sequence of keypoint sets."""
    xy = np.stack([s.xy for s in sets]) if sets else np.zeros((0, KEYPOINT_COUNT, 2))
    v = np.stack([s.v for s in sets]) if sets else np.zeros((0, KEYPOINT_COUNT), dtype=np.int64)
    return xy, v


# Keypoint rules in priority order: a keypoint reports only the first it breaks.
_KEYPOINT_RULES = ("visibility_flag", "visible_finite", "visible_nonnegative", "visible_within_bounds")


def validate(dataset: Dataset) -> list[Violation]:
    """Check every dataset invariant; violations are returned, never raised.

    Rules reported: visibility_flag, visible_finite, visible_nonnegative,
    positive_dimensions, visible_within_bounds, unique_image_id. Violations
    come in record order; within a record, the record rules come first, then
    the keypoints in index order, each with the first rule it breaks.
    """
    records = dataset.records
    xy, v = stack_keypoints([rec.keypoints for rec in records])
    width = np.array([rec.width for rec in records], dtype=np.float64)
    height = np.array([rec.height for rec in records], dtype=np.float64)
    duplicate = np.zeros(len(records), dtype=bool)
    seen_ids = set()
    for n, rec in enumerate(records):
        duplicate[n] = rec.image_id in seen_ids
        seen_ids.add(rec.image_id)
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
    for n in np.flatnonzero(duplicate | ~sized | rule.any(axis=1)):
        rec = records[n]
        if duplicate[n]:
            violations.append(Violation(rec.image_id, None, "unique_image_id", "duplicate image id"))
        if not sized[n]:
            violations.append(
                Violation(rec.image_id, None, "positive_dimensions", f"width={rec.width}, height={rec.height}")
            )
        for i in np.flatnonzero(rule[n]):
            code = rule[n, i]
            px, py = xy[n, i]
            if code == 1:
                detail = f"v={int(v[n, i])}"
            elif code == 4:
                detail = f"({px}, {py}) outside {rec.width} x {rec.height}"
            else:
                detail = f"({px}, {py})"
            violations.append(Violation(rec.image_id, int(i) + 1, _KEYPOINT_RULES[code - 1], detail))
    return violations


def parse_coco(path) -> Dataset:
    """Read a COCO keypoint annotation file into a :class:`Dataset`.

    One record per annotated image; the 66-value triplet list decodes into
    22 (x, y, v) entries. Species comes from the annotation's category name
    when recognizable, else ``other``. The dataset role is read from
    ``info.role`` when present (defaults to ``train``).
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: malformed document at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc

    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object, got {type(doc).__name__}")
    for key in ("images", "annotations"):
        if key not in doc or not isinstance(doc[key], list):
            raise ParseError(f"{path}: missing or non-array field {key!r}")

    images = {}
    for img in doc["images"]:
        try:
            img_id = img["id"]
            width, height = img["width"], img["height"]
        except (TypeError, KeyError) as exc:
            raise ParseError(f"{path}: image entry missing field {exc}") from exc
        if img_id in images:
            raise IntegrityError(f"duplicate image id {img_id!r} in images array")
        images[img_id] = (float(width), float(height))

    categories = {}
    for cat in doc.get("categories", []):
        if isinstance(cat, dict) and "id" in cat:
            categories[cat["id"]] = normalize_species(str(cat.get("name", "other")))

    annotations = doc["annotations"]
    if not annotations:
        warnings.warn("annotations array is empty; dataset has no records", PhenokeyWarning, stacklevel=2)

    records = []
    ann_ids = []
    flags = []
    seen = set()
    for ann in annotations:
        ann_id = ann.get("id", "<missing>") if isinstance(ann, dict) else "<missing>"
        if not isinstance(ann, dict) or "image_id" not in ann or "keypoints" not in ann:
            raise ParseError(f"{path}: annotation {ann_id!r} missing image_id or keypoints")
        img_id = ann["image_id"]
        if img_id not in images:
            raise IntegrityError(f"annotation {ann_id!r} references unknown image id {img_id!r}")
        if img_id in seen:
            raise IntegrityError(f"duplicate image id {img_id!r}: multiple annotations for one image")
        seen.add(img_id)
        flat = ann["keypoints"]
        if not isinstance(flat, (list, tuple)) or len(flat) != TRIPLET_LEN:
            found = len(flat) if isinstance(flat, (list, tuple)) else type(flat).__name__
            raise SchemaError(
                f"annotation {ann_id!r}: keypoints list has {found} values, expected {TRIPLET_LEN}"
            )
        try:
            triplets = np.asarray(flat, dtype=np.float64).reshape(KEYPOINT_COUNT, 3)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{path}: annotation {ann_id!r}: non-numeric keypoints entry: {exc}") from exc
        species = categories.get(ann.get("category_id"), "other")
        width, height = images[img_id]
        kp = KeypointSet(
            xy=triplets[:, :2],
            v=triplets[:, 2].astype(np.int64),
            image_id=img_id,
            species=species,
        )
        records.append(FishImageRecord(image_id=img_id, width=width, height=height, keypoints=kp))
        ann_ids.append(ann_id)
        flags.append(triplets[:, 2])

    # The int64 cast above truncates a fractional flag; one check per file finds any.
    if flags:
        flags = np.stack(flags)
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
    return Dataset(records=tuple(records), role=role)


def _species_category_id(species: str) -> int:
    return SPECIES.index(species) + 1


def dataset_to_coco_dict(dataset: Dataset) -> dict:
    """Canonical document form of a dataset (fixed key order, sorted by id)."""
    records = dataset.records
    xy, v = stack_keypoints([rec.keypoints for rec in records])
    n = len(records)
    # x, y, v triplets as Python floats, with the flags swapped back to ints
    rows = np.concatenate([xy, v[..., None].astype(np.float64)], axis=2).reshape(n, TRIPLET_LEN).tolist()
    for row, row_flags in zip(rows, v.tolist()):
        row[2::3] = row_flags
    images = [
        {
            "id": rec.image_id,
            "width": rec.width,
            "height": rec.height,
            "file_name": f"{rec.image_id}.jpg",
        }
        for rec in records
    ]
    annotations = [
        {
            "id": k,
            "image_id": rec.image_id,
            "category_id": _species_category_id(rec.keypoints.species),
            "keypoints": row,
            "num_keypoints": num,
        }
        for k, (rec, row, num) in enumerate(zip(records, rows, (v > 0).sum(axis=1).tolist()), start=1)
    ]
    categories = [
        {
            "id": _species_category_id(sp),
            "name": sp,
            "supercategory": "fish",
            "keypoints": [KEYPOINT_NAMES[i] for i in range(1, KEYPOINT_COUNT + 1)],
            "skeleton": [],
        }
        for sp in SPECIES
    ]
    return {
        "info": {"description": "fish keypoint annotations", "role": dataset.role},
        "licenses": [],
        "images": images,
        "annotations": annotations,
        "categories": categories,
    }


# json.dumps(indent=2) runs the pure-Python encoder. The two long arrays are
# written here instead: the C encoder handles each image and each keypoint
# list, with item separators that carry the indent=2 line breaks.
_RECORD_FIELDS = json.JSONEncoder(separators=(",\n      ", ": ")).encode
_KEYPOINT_ITEMS = json.JSONEncoder(separators=(",\n        ", ": ")).encode
_ANNOTATION = '    {\n      %s,\n      "keypoints": [\n        %s\n      ],\n      "num_keypoints": %s\n    }'
# Stands in for a long array in the skeleton, whose other strings are all fixed.
_SLOT = "@slot@"


def _image_text(image: dict) -> str:
    return "    {\n      " + _RECORD_FIELDS(image)[1:-1] + "\n    }"


def _annotation_text(ann: dict) -> str:
    head = {"id": ann["id"], "image_id": ann["image_id"], "category_id": ann["category_id"]}
    return _ANNOTATION % (
        _RECORD_FIELDS(head)[1:-1],
        _KEYPOINT_ITEMS(ann["keypoints"])[1:-1],
        json.dumps(ann["num_keypoints"]),
    )


def _coco_text(doc: dict) -> str:
    """``json.dumps(doc, indent=2) + "\\n"`` for a document of :func:`dataset_to_coco_dict`."""
    skeleton = dict(doc)
    bodies = []
    for key, write in (("images", _image_text), ("annotations", _annotation_text)):
        if doc[key]:
            skeleton[key] = [_SLOT]
            bodies.append(",\n".join(map(write, doc[key])))
    parts = json.dumps(skeleton, indent=2).split(f'    "{_SLOT}"')
    return parts[0] + "".join(body + part for body, part in zip(bodies, parts[1:])) + "\n"


def serialize_coco(dataset: Dataset, path) -> None:
    """Write the canonical annotation document; fails fast on invalid data.

    The text is ``json.dumps(doc, indent=2)`` byte for byte; the images and
    annotations are encoded a whole record at a time rather than a value at
    a time.
    """
    violations = validate(dataset)
    if violations:
        raise DatasetValidationError(violations)
    text = _coco_text(dataset_to_coco_dict(dataset))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
