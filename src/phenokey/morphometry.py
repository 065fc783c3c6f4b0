"""Morphological phenotypes: 23 named body measurements over keypoint pairs, as plain data.

``PHENOTYPES`` holds one ``(abbrev, name, (a, b))`` row per phenotype, in report order: the phenotype is the
Euclidean distance between the 1-based keypoints K-a and K-b, e.g. eye diameter ED between the anterior (K-11) and
posterior (K-12) ends of the eye. Every keypoint is an endpoint of at least one row. Three read-only values are
derived from it once, at import: ``ABBREVS``, the abbreviations in table order; ``ENDPOINTS``, the (2, 23) 0-based
endpoint columns that the length kernel indexes; and ``RELATED``, whose ``RELATED[j - 1]`` lists the table positions
of the phenotypes that use K-j, in table order.
"""

from __future__ import annotations

import numpy as np

from .errors import SchemaError
from .schema import KEYPOINT_COUNT

PHENOTYPES = (
    ("TL", "total length", (1, 9)),
    ("SL", "standard length", (1, 10)),
    ("HL", "head length", (1, 2)),
    ("SnL", "snout length", (1, 11)),
    ("ED", "eye diameter", (11, 12)),
    ("PoL", "postorbital length", (12, 2)),
    ("BD", "body depth", (5, 6)),
    ("HD", "head depth", (3, 4)),
    ("PeAD", "pelvic-anal fin origin distance", (15, 17)),
    ("CPD", "caudal peduncle depth", (7, 8)),
    ("CPL", "caudal peduncle length", (18, 10)),
    ("DFL", "dorsal fin length", (20, 21)),
    ("DFH", "dorsal fin height", (20, 22)),
    ("PcL", "pectoral fin length", (13, 14)),
    ("PeL", "pelvic fin length", (15, 16)),
    ("AFL", "anal fin length", (17, 18)),
    ("AFH", "anal fin height", (17, 19)),
    ("TFL", "tail fin length", (10, 9)),
    ("PrDL", "predorsal length", (1, 20)),
    ("PoDL", "postdorsal length", (20, 10)),
    ("PcDD", "pectoral-dorsal fin origin distance", (13, 20)),
    ("PcPeD", "pectoral-pelvic fin origin distance", (13, 15)),
    ("PeDD", "pelvic-dorsal fin origin distance", (15, 20)),
)

ABBREVS = tuple(abbrev for abbrev, _, _ in PHENOTYPES)
ENDPOINTS = np.array([ends for _, _, ends in PHENOTYPES], dtype=np.intp).T - 1
RELATED = tuple(np.flatnonzero((ENDPOINTS == j).any(axis=0)) for j in range(KEYPOINT_COUNT))
for _column in (ENDPOINTS, *RELATED):
    _column.flags.writeable = False    # shared by every caller
del _column


def phenotype_lengths(xy, v, ends) -> np.ndarray:
    """(n_samples, n_pairs) distances between keypoint columns ``ends[0]`` and ``ends[1]``.

    ``ends`` holds 0-based columns of shape (2, n_pairs), usually ``ENDPOINTS``
    or some of its columns; a pair with an endpoint unannotated in ``v`` is NaN.
    """
    a, b = ends
    seg = xy[:, b] - xy[:, a]
    lengths = np.hypot(seg[..., 0], seg[..., 1])
    return np.where((v[:, a] > 0) & (v[:, b] > 0), lengths, np.nan)


def check_annotated_finite(xy, v, image_ids, what="image") -> None:
    """Raise :class:`SchemaError` naming the first ``what`` (by image id) and keypoint annotated at a non-finite xy."""
    bad = (v > 0) & ~np.isfinite(xy).all(axis=-1)
    for n, j in np.argwhere(bad)[:1].tolist():
        x, y = xy[n, j].tolist()
        raise SchemaError(f"{what} {image_ids[n]!r}: K-{j + 1} is annotated at non-finite ({x}, {y})")


def shortest_phenotype_lengths(gt_xy, gt_v) -> np.ndarray:
    """(n_samples, 22) length of each keypoint's shortest measurable phenotype.

    +inf marks keypoints with no measurable related phenotype on a sample.
    """
    lengths = phenotype_lengths(gt_xy, gt_v, ENDPOINTS)
    filled = np.where(np.isnan(lengths), np.inf, lengths)
    out = np.empty((gt_xy.shape[0], KEYPOINT_COUNT), dtype=np.float64)
    for j, related in enumerate(RELATED):
        out[:, j] = filled[:, related].min(axis=1)
    return out


# the status of a measured phenotype, and of one skipped for its hidden 1-based endpoint n at position n
_STATUS = np.array(["ok", *(f"skipped:K-{n}" for n in range(1, KEYPOINT_COUNT + 1))], dtype=object)


def measurement_rows(xy, v) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``measure`` CSV columns of every set (rows) and table phenotype (columns): the (n, 23) lengths, NaN
    where skipped; the (n, 23) status texts; and the (n, 23) first unannotated 1-based endpoint, 0 if none.

    The status is ``skipped:K-n`` for that endpoint K-n; ``degenerate`` when the endpoints coincide; ``ok``
    otherwise. Nothing is warned here: :func:`degenerate_messages` words the ``degenerate`` cells for a caller.
    """
    a, b = ENDPOINTS
    lengths = phenotype_lengths(xy, v, ENDPOINTS)
    hidden = np.where(v[:, a] <= 0, a + 1, np.where(v[:, b] <= 0, b + 1, 0))
    status = _STATUS[hidden]
    status[lengths == 0.0] = "degenerate"
    return lengths, status, hidden


def degenerate_messages(image_ids, status) -> list[str]:
    """The :class:`DegenerateMeasurementWarning` text of each ``degenerate`` cell of a status column, row by row."""
    cells = np.argwhere(status == "degenerate").tolist()
    return [f"{ABBREVS[t]} on image {image_ids[n]!r}: coincident endpoints, zero length" for n, t in cells]
