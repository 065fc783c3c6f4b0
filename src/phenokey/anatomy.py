"""Anatomical prior extraction and the box-constraint regularization loss.

Ground-truth keypoints are normalized by the fish body's bounding rectangle;
the per-keypoint extremes of those normalized coordinates over a training set
define where each keypoint may plausibly sit. Mapping the extremes back into
a target image's rectangle yields a per-keypoint box, and predictions outside
their box pay a hinge penalty (the ACR loss) proportional to the violation.

Hinges are evaluated in normalized units and scaled to pixels, so a training
ground truth scored against its own image's box incurs exactly zero loss:
its normalized coordinates are, by construction, within the fitted extremes.
The absolute-pixel box corners are exposed for inspection and reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, KeypointSet
from .errors import DegeneratePoseError, SchemaError
from .jsontext import doc_field
from .schema import KEYPOINT_COUNT, SPECIES


def visible_corners(xy, v) -> tuple[np.ndarray, np.ndarray]:
    """(N, 2) lower and upper corners of each sample's visible keypoints; +inf and -inf where none is visible."""
    vis = (v > 0)[..., None]
    return np.where(vis, xy, np.inf).min(axis=1), np.where(vis, xy, -np.inf).max(axis=1)


def body_frames(xy, v, image_ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, 2) lower corner, upper corner and extent of each sample's visible keypoints: the prior's frame.

    Raises :class:`DegeneratePoseError` for the first sample, in order, with
    fewer than 2 visible keypoints or with an x- or y-range that is not both
    positive and finite (a non-finite visible coordinate makes it so).
    """
    lo, hi = visible_corners(xy, v)
    with np.errstate(invalid="ignore"):
        extent = hi - lo
        bad = ~((extent > 0) & np.isfinite(extent))
    if bad.any():
        n = int(np.argmax(bad.any(axis=1)))
        image_id, count = image_ids[n], int((v[n] > 0).sum())
        if count < 2:
            reason = f"need at least 2 visible keypoints, got {count}"
        else:
            axis = int(np.argmax(bad[n]))
            reason = f"{'zero' if extent[n, axis] == 0 else 'non-finite'} {'xy'[axis]}-range across visible keypoints"
        raise DegeneratePoseError(f"image {image_id!r}: {reason}", image_id)
    return lo, hi, extent


def visible_bbox(keypoints: KeypointSet) -> tuple[float, float, float, float]:
    """(x_min, y_min, x_max, y_max) over the visible keypoints of a sample :func:`body_frames` accepts."""
    lo, hi, _ = body_frames(keypoints.xy[None], keypoints.v[None], [keypoints.image_id])
    return (*lo[0].tolist(), *hi[0].tolist())


def normalized_coords(dataset: Dataset) -> np.ndarray:
    """(N, 22, 2) coordinates scaled into each sample's body frame, the unit square; NaN where a keypoint is hidden."""
    lo, _, extent = body_frames(dataset.xy, dataset.v, dataset.image_ids)
    return np.where((dataset.v > 0)[..., None], (dataset.xy - lo[:, None]) / extent[:, None], np.nan)


@dataclass(frozen=True)
class AnatomicalPrior:
    """Per-keypoint extremes of normalized coordinates over a training set."""

    mins: np.ndarray   # (22, 2): x'_min, y'_min per keypoint
    maxs: np.ndarray   # (22, 2): x'_max, y'_max per keypoint
    training_set_size: int
    species: str = "other"

    def __post_init__(self):
        mins = np.asarray(self.mins, dtype=np.float64)
        maxs = np.asarray(self.maxs, dtype=np.float64)
        if mins.shape != (KEYPOINT_COUNT, 2) or maxs.shape != (KEYPOINT_COUNT, 2):
            raise ValueError("prior extremes must have shape (22, 2)")
        if np.any(mins > maxs):
            raise ValueError("prior has min > max for some keypoint")
        if np.any(mins < 0) or np.any(maxs > 1):
            raise ValueError("prior extremes must lie in [0, 1]")
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)


def fit_prior(train: Dataset, species: str = "other") -> AnatomicalPrior:
    """Extremes of normalized ground-truth coordinates over all training images.

    All images are normalized at once; an image that cannot be normalized
    is named, the first in canonical order.
    """
    if len(train) == 0:
        raise SchemaError("cannot fit a prior on an empty training set")
    try:
        cube = normalized_coords(train)
    except DegeneratePoseError as exc:
        raise DegeneratePoseError(f"record {exc.image_id!r} failed normalization: {exc}", exc.image_id) from exc
    never_seen = np.isnan(cube).all(axis=0).any(axis=1)
    if never_seen.any():
        missing = [f"K-{i + 1}" for i in np.flatnonzero(never_seen)]
        raise SchemaError(f"keypoints never visible in the training set: {missing}")
    with np.errstate(invalid="ignore"):
        mins = np.nanmin(cube, axis=0)
        maxs = np.nanmax(cube, axis=0)
    return AnatomicalPrior(mins=mins, maxs=maxs, training_set_size=len(train), species=species)


@dataclass(frozen=True)
class BoxConstraint:
    """Per-keypoint admissible boxes placed inside one image's rectangle, or N images' rectangles."""

    origin: np.ndarray   # (2,), (N, 1, 2) or (N, 22, 2) bbox minimum corner, pixels
    extent: np.ndarray   # (2,), (N, 1, 2) or (N, 22, 2) bbox width/height, pixels
    nmin: np.ndarray     # (22, 2) or (N, 22, 2) normalized lower extremes
    nmax: np.ndarray     # (22, 2) or (N, 22, 2) normalized upper extremes

    @property
    def k_min(self) -> np.ndarray:
        """(22, 2) or (N, 22, 2) absolute lower corners in pixels."""
        return self.origin + self.nmin * self.extent

    @property
    def k_max(self) -> np.ndarray:
        """(22, 2) or (N, 22, 2) absolute upper corners in pixels."""
        return self.origin + self.nmax * self.extent


def box_for_image(prior: AnatomicalPrior, bbox) -> BoxConstraint:
    """Place the prior's boxes inside ``bbox`` = (x_min, y_min, x_max, y_max)."""
    x_min, y_min, x_max, y_max = (float(v) for v in bbox)
    if not (x_max > x_min and y_max > y_min):
        raise ValueError(f"bbox must have positive extent, got {bbox}")
    return BoxConstraint(
        origin=np.array([x_min, y_min]),
        extent=np.array([x_max - x_min, y_max - y_min]),
        nmin=prior.mins,
        nmax=prior.maxs,
    )


def dataset_boxes(prior: AnatomicalPrior, dataset: Dataset) -> BoxConstraint:
    """:func:`box_for_image` of every record's own :func:`visible_bbox` at once, as (N, 1, 2) frames."""
    lo, _, extent = body_frames(dataset.xy, dataset.v, dataset.image_ids)
    return BoxConstraint(origin=lo[:, None], extent=extent[:, None], nmin=prior.mins, nmax=prior.maxs)


class HingeBuffers:
    """The arrays :func:`acr_hinge` works in and returns, for coordinates of one shape against one box.

    One (3, ...) array stacks the box's normalized lower extremes, the normalized coordinates and its
    upper extremes, so that a single subtraction gives the distances below and above the box. Every
    view the kernel writes through is made here, once.
    """

    __slots__ = ("norm", "lower", "upper", "gaps", "gap_below", "gap_above", "outside", "is_below", "is_above",
                 "hinge", "signs")

    def __init__(self, box: BoxConstraint, shape):
        bounds = np.empty((3, *shape))
        bounds[0], bounds[2] = box.nmin, box.nmax
        self.norm, self.lower, self.upper = bounds[1], bounds[:2], bounds[1:]
        self.gaps = np.empty((2, *shape))
        self.gap_below, self.gap_above = self.gaps
        self.outside = np.empty((2, *shape), bool)
        self.is_below, self.is_above = self.outside.view(np.int8)
        self.hinge = np.empty(shape)
        self.signs = np.empty(shape)


def acr_hinge(xy: np.ndarray, box: BoxConstraint, out: HingeBuffers | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Hinge magnitudes in pixels and subgradient signs of ``xy``, shape (..., 22, 2).

    Coordinates are normalized once by the box frame, which broadcasts: a (2,) frame for one
    image, (N, 1, 2) or full (N, 22, 2) frames for an (N, 22, 2) batch. The sign is -1 below
    the box, +1 above and +0.0 (never -0.0) inside or on it, or for a NaN coordinate.
    With ``out`` the two results are its ``hinge`` and ``signs``, which the next call overwrites.
    """
    if out is None:
        out = HingeBuffers(box, np.broadcast(xy, box.origin, box.extent, box.nmin).shape)
    np.divide(np.subtract(xy, box.origin, out=out.norm), box.extent, out=out.norm)
    np.subtract(out.lower, out.upper, out=out.gaps)           # nmin - norm, norm - nmax
    np.greater(out.gaps, 0.0, out=out.outside)                # norm < nmin, norm > nmax: no such difference rounds to 0
    np.subtract(out.is_above, out.is_below, out=out.signs)   # int8 into float64: bools need a slower buffered cast
    np.maximum(0.0, out.gaps, out=out.gaps)
    np.multiply(np.add(out.gap_below, out.gap_above, out=out.hinge), box.extent, out=out.hinge)
    return out.hinge, out.signs


def _coords(preds) -> np.ndarray:
    xy = preds.xy if isinstance(preds, KeypointSet) else np.asarray(preds, dtype=np.float64)
    if xy.shape != (KEYPOINT_COUNT, 2):
        raise ValueError(f"expected coordinates of shape (22, 2), got {xy.shape}")
    return xy


def acr_loss(preds, box: BoxConstraint) -> float:
    """Total box-violation penalty in pixels, summed over keypoints and axes."""
    return float(acr_hinge(_coords(preds), box)[0].sum())


def acr_gradient(preds, box: BoxConstraint) -> np.ndarray:
    """Per-coordinate hinge subgradient: -1 below the box, +1 above, 0 inside or on it."""
    return acr_hinge(_coords(preds), box)[1]


def prior_to_dict(prior: AnatomicalPrior) -> dict:
    """JSON-ready form: 22 x 4 extremes plus the training-set size."""
    extremes = [
        {
            "keypoint": i + 1,
            "x_min": float(prior.mins[i, 0]),
            "x_max": float(prior.maxs[i, 0]),
            "y_min": float(prior.mins[i, 1]),
            "y_max": float(prior.maxs[i, 1]),
        }
        for i in range(KEYPOINT_COUNT)
    ]
    return {
        "schema_version": 1,
        "species": prior.species,
        "training_set_size": prior.training_set_size,
        "extremes": extremes,
    }


def prior_from_dict(doc) -> AnatomicalPrior:
    """Inverse of :func:`prior_to_dict`; a malformed document raises :class:`SchemaError` naming the field.

    Entries are named as ``extremes[n]``. Keypoint numbers cover 1..22 once; extremes lie in [0, 1], min <= max.
    ``species``, ``other`` when absent, is one of :data:`~phenokey.schema.SPECIES`.
    """
    entries = doc_field(doc, "extremes")
    if not isinstance(entries, list) or len(entries) != KEYPOINT_COUNT:
        raise SchemaError(f"field 'extremes' must be a list of {KEYPOINT_COUNT} entries")
    extremes = np.full((KEYPOINT_COUNT, 4), np.nan)  # x_min, y_min, x_max, y_max; NaN until an entry sets them
    for n, entry in enumerate(entries):
        where = f"extremes[{n}]: "
        k = doc_field(entry, "keypoint", where)
        if type(k) is not int or not 1 <= k <= KEYPOINT_COUNT:
            raise SchemaError(f"{where}field 'keypoint' must be an integer in 1..{KEYPOINT_COUNT}, got {k!r}")
        if not np.isnan(extremes[k - 1, 0]):
            raise SchemaError(f"{where}field 'keypoint' repeats K-{k}")
        for c, key in enumerate(("x_min", "y_min", "x_max", "y_max")):
            x = doc_field(entry, key, where)
            if type(x) not in (int, float) or not 0 <= x <= 1:
                raise SchemaError(f"{where}field {key!r} must be a number in [0, 1], got {x!r}")
            extremes[k - 1, c] = x
        if (extremes[k - 1, :2] > extremes[k - 1, 2:]).any():
            raise SchemaError(f"{where}field 'x_min' or 'y_min' exceeds its 'x_max' or 'y_max'")
    size = doc_field(doc, "training_set_size")
    if type(size) is not int or size < 1:
        raise SchemaError(f"field 'training_set_size' must be a positive integer, got {size!r}")
    species = doc.get("species", "other")
    if species not in SPECIES:
        raise SchemaError(f"field 'species' must be one of {', '.join(SPECIES)}, got {species!r}")
    return AnatomicalPrior(extremes[:, :2], extremes[:, 2:], size, species)
