"""Morphological phenotypes: 23 named body measurements over keypoint pairs.

Each phenotype is the Euclidean distance between two of the 22 keypoints,
e.g. eye diameter ED between the anterior (K-11) and posterior (K-12) ends
of the eye. The table below covers every keypoint at least once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .schema import KEYPOINT_COUNT


@dataclass(frozen=True)
class PhenotypeDef:
    """One phenotype: abbreviation, full name, and its two keypoint endpoints (1-based)."""

    abbrev: str
    name: str
    endpoints: tuple[int, int]

    def __post_init__(self):
        a, b = self.endpoints
        if a == b:
            raise ValueError(f"{self.abbrev}: endpoints must be distinct, got ({a}, {b})")
        for e in (a, b):
            if not 1 <= e <= KEYPOINT_COUNT:
                raise ValueError(f"{self.abbrev}: endpoint {e} outside 1..{KEYPOINT_COUNT}")


_DEFS = (
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


class PhenotypeTable:
    """Ordered collection of phenotype definitions with index lookups."""

    def __init__(self, defs):
        defs = tuple(defs)
        abbrevs = [d.abbrev for d in defs]
        if len(set(abbrevs)) != len(abbrevs):
            raise ValueError("phenotype abbreviations must be unique")
        covered = {e for d in defs for e in d.endpoints}
        missing = set(range(1, KEYPOINT_COUNT + 1)) - covered
        if missing:
            raise ValueError(f"keypoints not covered by any phenotype: {sorted(missing)}")
        self.defs = defs
        self._by_abbrev = {d.abbrev: d for d in defs}
        # (2, n_phenotypes) 0-based endpoint columns, built once for the length kernel
        self.endpoint_index = np.array([d.endpoints for d in defs], dtype=np.intp).T - 1
        # 1-based keypoint -> positions of the defs containing it, preserving table order
        self._related = {
            i: np.flatnonzero((self.endpoint_index == i - 1).any(axis=0))
            for i in range(1, KEYPOINT_COUNT + 1)
        }
        # the default table is shared by every caller, so its arrays are read-only
        for arr in (self.endpoint_index, *self._related.values()):
            arr.flags.writeable = False

    def __len__(self):
        return len(self.defs)

    def __iter__(self):
        return iter(self.defs)

    def __getitem__(self, abbrev: str) -> PhenotypeDef:
        return self._by_abbrev[abbrev]

    def __contains__(self, abbrev: str) -> bool:
        return abbrev in self._by_abbrev

    def abbrevs(self) -> tuple[str, ...]:
        return tuple(d.abbrev for d in self.defs)

    def related_index(self, keypoint: int) -> np.ndarray:
        """Table positions of the phenotypes whose endpoint pair contains the 1-based ``keypoint``."""
        if keypoint not in self._related:
            raise KeyError(f"keypoint index must be in 1..{KEYPOINT_COUNT}, got {keypoint}")
        return self._related[keypoint]

    def related(self, keypoint: int) -> tuple[PhenotypeDef, ...]:
        """All phenotypes whose endpoint pair contains the 1-based ``keypoint``."""
        return tuple(self.defs[t] for t in self.related_index(keypoint))


@functools.cache
def default_table() -> PhenotypeTable:
    """The standard 23-phenotype table, built once; every metric and measurement uses it."""
    return PhenotypeTable(PhenotypeDef(a, n, e) for a, n, e in _DEFS)


def phenotype_lengths(xy, v, ends) -> np.ndarray:
    """(n_samples, n_pairs) distances between keypoint columns ``ends[0]`` and ``ends[1]``.

    ``ends`` holds 0-based columns of shape (2, n_pairs), usually a table's
    ``endpoint_index``; a pair with an endpoint unannotated in ``v`` is NaN.
    """
    a, b = ends
    seg = xy[:, b] - xy[:, a]
    lengths = np.hypot(seg[..., 0], seg[..., 1])
    return np.where((v[:, a] > 0) & (v[:, b] > 0), lengths, np.nan)


def shortest_phenotype_lengths(gt_xy, gt_v) -> np.ndarray:
    """(n_samples, 22) length of each keypoint's shortest measurable phenotype.

    +inf marks keypoints with no measurable related phenotype on a sample.
    """
    table = default_table()
    lengths = phenotype_lengths(gt_xy, gt_v, table.endpoint_index)
    filled = np.where(np.isnan(lengths), np.inf, lengths)
    out = np.empty((gt_xy.shape[0], KEYPOINT_COUNT), dtype=np.float64)
    for j in range(1, KEYPOINT_COUNT + 1):
        out[:, j - 1] = filled[:, table.related_index(j)].min(axis=1)
    return out


# the status of a measured phenotype, and of one skipped for its hidden 1-based endpoint n at position n
_STATUS = np.array(["ok", *(f"skipped:K-{n}" for n in range(1, KEYPOINT_COUNT + 1))], dtype=object)


def measurement_rows(xy, v) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``measure`` CSV columns of every set (rows) and table phenotype (columns): the (n, 23) lengths, NaN
    where skipped; the (n, 23) status texts; and the (n, 23) first unannotated 1-based endpoint, 0 if none.

    The status is ``skipped:K-n`` for that endpoint K-n; ``degenerate`` when the endpoints coincide; ``ok``
    otherwise. Nothing is warned here: :func:`degenerate_messages` words the ``degenerate`` cells for a caller.
    """
    table = default_table()
    a, b = table.endpoint_index
    lengths = phenotype_lengths(xy, v, table.endpoint_index)
    hidden = np.where(v[:, a] <= 0, a + 1, np.where(v[:, b] <= 0, b + 1, 0))
    status = _STATUS[hidden]
    status[lengths == 0.0] = "degenerate"
    return lengths, status, hidden


def degenerate_messages(image_ids, status) -> list[str]:
    """The :class:`DegenerateMeasurementWarning` text of each ``degenerate`` cell of a status column, row by row."""
    abbrevs = default_table().abbrevs()
    cells = np.argwhere(status == "degenerate").tolist()
    return [f"{abbrevs[t]} on image {image_ids[n]!r}: coincident endpoints, zero length" for n, t in cells]
