"""Seeded benchmark inputs, generated with numpy alone.

The benchmark never asks the program under test to make its own inputs: the
ground-truth and prediction files, and the prior that ``acr`` reads, are
written here from the arrays of :class:`FishArrays`, and the output checks
recompute every expected value from those same arrays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_KEYPOINTS = 22

# The 23 phenotypes as 1-based keypoint pairs, in the program's table order
# (the measure CSV lists them in this order). Independent copy: the checks
# must not read the program's own table.
PHENOTYPES = (
    ("TL", 1, 9), ("SL", 1, 10), ("HL", 1, 2), ("SnL", 1, 11), ("ED", 11, 12),
    ("PoL", 12, 2), ("BD", 5, 6), ("HD", 3, 4), ("PeAD", 15, 17), ("CPD", 7, 8),
    ("CPL", 18, 10), ("DFL", 20, 21), ("DFH", 20, 22), ("PcL", 13, 14),
    ("PeL", 15, 16), ("AFL", 17, 18), ("AFH", 17, 19), ("TFL", 10, 9),
    ("PrDL", 1, 20), ("PoDL", 20, 10), ("PcDD", 13, 20), ("PcPeD", 13, 15),
    ("PeDD", 15, 20),
)

# Mean normalized layouts of the two body plans, (x, y) per keypoint K-1..K-22.
_DEEP_BODIED = np.array([
    (0.02, 0.48), (0.26, 0.52), (0.17, 0.22), (0.20, 0.75), (0.42, 0.05),
    (0.44, 0.95), (0.82, 0.40), (0.81, 0.60), (0.98, 0.50), (0.86, 0.50),
    (0.07, 0.35), (0.12, 0.35), (0.28, 0.62), (0.40, 0.66), (0.44, 0.88),
    (0.54, 0.92), (0.66, 0.85), (0.76, 0.78), (0.72, 0.97), (0.45, 0.08),
    (0.68, 0.18), (0.52, 0.02),
])
_ELONGATE = np.array([
    (0.02, 0.50), (0.22, 0.52), (0.15, 0.28), (0.17, 0.72), (0.40, 0.10),
    (0.42, 0.90), (0.84, 0.40), (0.83, 0.60), (0.98, 0.52), (0.88, 0.50),
    (0.06, 0.40), (0.10, 0.40), (0.24, 0.60), (0.34, 0.64), (0.42, 0.82),
    (0.50, 0.86), (0.62, 0.82), (0.74, 0.76), (0.68, 0.96), (0.38, 0.12),
    (0.58, 0.16), (0.46, 0.04),
])
# (layout, body length range in px, height / length)
_BODY_PLANS = ((_DEEP_BODIED, (500.0, 900.0), 0.52), (_ELONGATE, (700.0, 1400.0), 0.30))

HIDDEN_SHARE = 0.04      # keypoints written with v = 0
OCCLUDED_SHARE = 0.05    # keypoints written with v = 1
# Snout, dorsal apex, ventral margin and tail tip are never hidden, so every
# fish keeps a body rectangle of positive extent on both axes.
_ALWAYS_VISIBLE = np.array([1, 5, 6, 9]) - 1
PRED_NOISE_PX = 5.0


@dataclass(frozen=True)
class FishArrays:
    """One ground-truth population and its uniform-noise predictions."""

    gt_xy: np.ndarray      # (n, 22, 2)
    v: np.ndarray          # (n, 22) int, shared by ground truth and predictions
    gt_wh: np.ndarray      # (n, 2) image width, height
    pred_xy: np.ndarray    # (n, 22, 2)
    pred_wh: np.ndarray    # (n, 2)

    @property
    def n(self) -> int:
        return self.gt_xy.shape[0]


def make_fish(n: int, seed: int) -> FishArrays:
    """Half deep-bodied, half elongate fish (alternating), with seeded hidden keypoints."""
    rng = np.random.default_rng([int(seed), 20240520])
    plan = np.arange(n) % 2
    layouts = np.stack([_BODY_PLANS[p][0] for p in (0, 1)])[plan]
    lo = np.array([_BODY_PLANS[p][1][0] for p in (0, 1)])[plan]
    hi = np.array([_BODY_PLANS[p][1][1] for p in (0, 1)])[plan]
    aspect = np.array([_BODY_PLANS[p][2] for p in (0, 1)])[plan]

    size = rng.uniform(lo, hi)
    off_x = rng.uniform(0.15, 0.50, n) * size
    off_y = rng.uniform(0.15, 0.50, n) * size * aspect
    margin = np.minimum(layouts, 1.0 - layouts).min(axis=2)
    spread = np.minimum(0.012, margin / 3.0 * 0.9)
    jitter = np.clip(rng.standard_normal((n, N_KEYPOINTS, 2)), -3.0, 3.0) * spread[..., None]
    pos = layouts + jitter
    gt_xy = np.empty((n, N_KEYPOINTS, 2))
    gt_xy[..., 0] = off_x[:, None] + pos[..., 0] * size[:, None]
    gt_xy[..., 1] = off_y[:, None] + pos[..., 1] * (size * aspect)[:, None]
    gt_wh = np.stack([np.ceil(2 * off_x + size), np.ceil(2 * off_y + size * aspect)], axis=1)

    u = rng.random((n, N_KEYPOINTS))
    v = np.where(u < HIDDEN_SHARE, 0, np.where(u < HIDDEN_SHARE + OCCLUDED_SHARE, 1, 2))
    v[:, _ALWAYS_VISIBLE] = 2

    noise = rng.uniform(-PRED_NOISE_PX, PRED_NOISE_PX, size=(n, N_KEYPOINTS, 2))
    pred_xy = np.maximum(gt_xy + noise, 0.0)
    pred_wh = np.maximum(gt_wh, np.ceil(pred_xy.max(axis=1)))
    return FishArrays(gt_xy, v.astype(np.int64), gt_wh, pred_xy, pred_wh)


def _rows(xy: np.ndarray, v: np.ndarray) -> list[list]:
    """Flat x, y, v keypoint lists, with the flags as ints."""
    n = xy.shape[0]
    rows = np.concatenate([xy, v[..., None].astype(np.float64)], axis=2).reshape(n, -1).tolist()
    for row, flags in zip(rows, v.tolist()):
        row[2::3] = flags
    return rows


def coco_document(xy: np.ndarray, v: np.ndarray, wh: np.ndarray, role: str) -> dict:
    """Annotation document in the layout the program writes (ids 1..n, species ``other``)."""
    rows = _rows(xy, v) if xy.shape[0] else []
    return {
        "info": {"description": "fish keypoint annotations", "role": role},
        "licenses": [],
        "images": [{"id": i + 1, "width": w, "height": h, "file_name": f"{i + 1}.jpg"}
                   for i, (w, h) in enumerate(wh.tolist())],
        "annotations": [{"id": i + 1, "image_id": i + 1, "category_id": 5, "keypoints": row,
                         "num_keypoints": sum(1 for f in row[2::3] if f > 0)}
                        for i, row in enumerate(rows)],
        "categories": [{
            "id": 5,
            "name": "other",
            "supercategory": "fish",
            "keypoints": [f"K-{k}" for k in range(1, N_KEYPOINTS + 1)],
            "skeleton": [],
        }],
    }


def coco_text(xy: np.ndarray, v: np.ndarray, wh: np.ndarray, role: str) -> str:
    """``json.dumps(coco_document(...), indent=2) + "\\n"``, built without the slow
    pure-Python indenting encoder (the self-test checks the two agree)."""
    rows = _rows(xy, v)
    images = [
        f'    {{\n      "id": {i + 1},\n      "width": {w!r},\n      "height": {h!r},\n'
        f'      "file_name": "{i + 1}.jpg"\n    }}'
        for i, (w, h) in enumerate(wh.tolist())
    ]
    sep = ",\n        "
    annotations = [
        f'    {{\n      "id": {i + 1},\n      "image_id": {i + 1},\n      "category_id": 5,\n'
        f'      "keypoints": [\n        {sep.join(map(repr, row))}\n      ],\n'
        f'      "num_keypoints": {sum(1 for f in row[2::3] if f > 0)}\n    }}'
        for i, row in enumerate(rows)
    ]
    skeleton = coco_document(xy[:0], v[:0], wh[:0], role)
    skeleton["images"] = ["@images@"]
    skeleton["annotations"] = ["@annotations@"]
    text = json.dumps(skeleton, indent=2) + "\n"
    text = text.replace('    "@images@"', ",\n".join(images), 1)
    return text.replace('    "@annotations@"', ",\n".join(annotations), 1)


def visible_frame(xy: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, 2) origin and extent of each fish's rectangle over its visible keypoints."""
    vis = (v > 0)[..., None]
    lo = np.where(vis, xy, np.inf).min(axis=1)
    hi = np.where(vis, xy, -np.inf).max(axis=1)
    return lo, hi - lo


def normalized(xy: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Body-normalized coordinates, NaN where the keypoint is hidden."""
    origin, extent = visible_frame(xy, v)
    norm = (xy - origin[:, None, :]) / extent[:, None, :]
    return np.where((v > 0)[..., None], norm, np.nan)


def fit_extremes(xy: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(22, 2) minimum and maximum normalized coordinates over a training set."""
    norm = normalized(xy, v)
    return np.nanmin(norm, axis=0), np.nanmax(norm, axis=0)


def prior_document(nmin: np.ndarray, nmax: np.ndarray, n_train: int) -> dict:
    return {
        "schema_version": 1,
        "species": "other",
        "training_set_size": n_train,
        "extremes": [
            {"keypoint": k + 1, "x_min": float(nmin[k, 0]), "x_max": float(nmax[k, 0]),
             "y_min": float(nmin[k, 1]), "y_max": float(nmax[k, 1])}
            for k in range(N_KEYPOINTS)
        ],
    }


@dataclass(frozen=True)
class ScoreFiles:
    gt: Path
    pred: Path
    prior: Path


def write_score_inputs(fish: FishArrays, workdir: Path) -> ScoreFiles:
    """Write the ground truth, the predictions and a prior fitted on the ground truth."""
    files = ScoreFiles(workdir / "gt.json", workdir / "pred.json", workdir / "prior_in.json")
    for path, xy, wh, role in ((files.gt, fish.gt_xy, fish.gt_wh, "test"),
                               (files.pred, fish.pred_xy, fish.pred_wh, "test")):
        path.write_text(coco_text(xy, fish.v, wh, role), encoding="utf-8")
    nmin, nmax = fit_extremes(fish.gt_xy, fish.v)
    files.prior.write_text(json.dumps(prior_document(nmin, nmax, fish.n), indent=2) + "\n",
                           encoding="utf-8")
    return files


def phenotype_lengths(xy: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(n, 23) Euclidean endpoint distances, NaN unless both endpoints are visible."""
    a = np.array([p[1] for p in PHENOTYPES]) - 1
    b = np.array([p[2] for p in PHENOTYPES]) - 1
    seg = xy[:, b] - xy[:, a]
    dist = np.hypot(seg[..., 0], seg[..., 1])
    return np.where((v[:, a] > 0) & (v[:, b] > 0), dist, np.nan)


def shortest_related(xy: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(n, 22) shortest measurable phenotype through each keypoint; +inf if none."""
    lengths = phenotype_lengths(xy, v)
    lengths = np.where(np.isnan(lengths), np.inf, lengths)
    out = np.full((xy.shape[0], N_KEYPOINTS), np.inf)
    for t, (_, a, b) in enumerate(PHENOTYPES):
        for k in (a - 1, b - 1):
            out[:, k] = np.minimum(out[:, k], lengths[:, t])
    return out
