"""Keypoint and phenotype evaluation metrics.

Implements the full battery used to score coordinate predictors:

* object keypoint similarity (exponential, object-scale normalized),
* percentage of correct keypoints and percentage of measured phenotype, one
  hit test ``deviation / scale < threshold`` (default 0.1) with two scales:
  PCK's per-sample box diagonal, head (HL) or standard (SL) length, and PMP's
  shortest ground-truth phenotype related to each keypoint. An annotated
  keypoint whose scale is missing, zero or non-finite is skipped and counted,
* MAPE / mMAPE of phenotype measurements, Pearson correlation, and the
  ordinary-least-squares R² between ground-truth and predicted measurements,
  over the pairs :func:`phenotype_value_pairs` gives (the scatter plot's).

All thresholds compare with strict ``<``. Undefined quantities (empty
denominators, a constant input to Pearson r or the fit) are ``None`` where
they are computed, never silently 0. A predicted keypoint with a non-finite
coordinate is a miss: its deviation is +inf, so its similarity is 0 and it
fails PCK and PMP; a phenotype whose predicted length is non-finite, or
whose ground-truth length is 0, is skipped and counted.

Every metric is computed on whole (N, 22, 2) arrays by one call,
:func:`evaluate_datasets` ``(gt, pred, cfg, metrics)``, which returns the
report ``evaluate`` writes, one block per name in ``metrics``. Every function
that pairs two datasets takes the ground truth first and pairs each
ground-truth row with the last prediction row of its image id. A ground-truth
id with no prediction raises ``IntegrityError``; predictions for ids the
ground truth lacks are ignored with one warning. The deviations, box diagonals
and shortest phenotypes are computed once for all metrics.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .anatomy import visible_corners
from .dataset import Dataset
from .errors import IntegrityError, PhenokeyWarning, SchemaError, check_number, positive_number
from .morphometry import (ABBREVS, ENDPOINTS, RELATED, check_annotated_finite, phenotype_lengths,
                          shortest_phenotype_lengths)
from .schema import KEYPOINT_COUNT

PCK_SCALE_MODES = ("head", "torso", "bbox_diagonal")

# Scale phenotypes: head = snout tip to operculum; torso, which fish lack in
# the human-pose sense, is read as the standard-length axis.
_SCALE_PHENOTYPES = {"head": "HL", "torso": "SL"}

# What evaluate_datasets computes by default, and `evaluate --metric all`.
METRICS = ("oks", "pck", "pmp", "phenotypes")

DEFAULT_OKS_K = 0.025


@dataclass(frozen=True)
class EvalConfig:
    """Metric parameters; defaults follow the evaluation protocol."""

    pmp_threshold: float = 0.1
    pck_threshold: float = 0.1
    pck_scale_mode: str = "bbox_diagonal"
    oks_scale: float | None = None    # None: per-sample gt bounding-box diagonal
    oks_k: tuple = tuple([DEFAULT_OKS_K] * KEYPOINT_COUNT)

    def __post_init__(self):
        for name in ("pmp_threshold", "pck_threshold", "oks_scale"):
            if name != "oks_scale" or self.oks_scale is not None:    # a config file's 1 and a flag's 1.0 read alike
                object.__setattr__(self, name, float(check_number(name, getattr(self, name))))
        if self.pck_scale_mode not in PCK_SCALE_MODES:
            modes = ", ".join(PCK_SCALE_MODES)
            raise SchemaError(f"pck_scale_mode must be one of {modes}, got {self.pck_scale_mode!r}")
        k = tuple(self.oks_k) if isinstance(self.oks_k, (list, tuple, np.ndarray)) else ()
        if len(k) != KEYPOINT_COUNT or not all(map(positive_number, k)):
            raise SchemaError(f"oks_k must hold {KEYPOINT_COUNT} finite positive numbers")
        object.__setattr__(self, "oks_k", tuple(map(float, k)))


def mape(gt_values, pred_values) -> float:
    """Mean absolute percentage error; ground-truth values must be positive."""
    gt_arr = np.asarray(gt_values, dtype=np.float64)
    pred_arr = np.asarray(pred_values, dtype=np.float64)
    if gt_arr.shape != pred_arr.shape or gt_arr.ndim != 1:
        raise ValueError(f"value lists must be 1-d and equal length, got {gt_arr.shape} vs {pred_arr.shape}")
    if gt_arr.size == 0:
        raise ValueError("cannot compute MAPE of empty lists")
    i = int(np.argmax(gt_arr <= 0))  # the first value that is not positive, else 0
    if gt_arr[i] == 0:
        raise ZeroDivisionError(f"ground-truth value at index {i} is 0")
    if gt_arr[i] < 0:
        raise ValueError(f"ground-truth value at index {i} is negative")
    return float(np.mean(np.abs(pred_arr - gt_arr) / gt_arr))


def mmape(keypoint: int, per_phenotype_mape: dict) -> float:
    """Unweighted mean MAPE over all phenotypes whose endpoints include ``keypoint``."""
    if keypoint not in range(1, KEYPOINT_COUNT + 1):    # RELATED[-1] would be K-22's
        raise KeyError(f"keypoint index must be in 1..{KEYPOINT_COUNT}, got {keypoint}")
    return float(np.mean([per_phenotype_mape[ABBREVS[t]] for t in RELATED[int(keypoint) - 1].tolist()]))


def pearson(x, y) -> float | None:
    """Sample Pearson correlation coefficient; None when either side is constant."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("inputs must be equal-length 1-d lists with at least 2 entries")
    if np.ptp(x) == 0 or np.ptp(y) == 0:    # all equal: the mean may round, leaving deviations that are not 0
        return None
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(np.dot(dx, dx))
    syy = float(np.dot(dy, dy))
    r = float(np.dot(dx, dy)) / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def ols_fit(gt, pred) -> tuple[float, float, float] | None:
    """Least-squares line pred ≈ slope·gt + intercept and its R²; None when the ground truth is constant.

    R² = 1 - SS_res / SS_tot. Two points interpolate exactly (R² = 1); with
    more points and zero prediction variance the fit explains nothing (R² = 0).
    """
    gt_arr = np.asarray(gt, dtype=np.float64)
    pred_arr = np.asarray(pred, dtype=np.float64)
    if gt_arr.shape != pred_arr.shape or gt_arr.ndim != 1 or gt_arr.size < 2:
        raise ValueError("inputs must be equal-length 1-d lists with at least 2 entries")
    if np.ptp(gt_arr) == 0:    # as in pearson
        return None
    if np.ptp(pred_arr) == 0:    # the flat line exactly: the sums below would leave a rounding residue
        return 0.0, float(pred_arr[0]), 1.0 if gt_arr.size == 2 else 0.0
    dx = gt_arr - gt_arr.mean()
    sxx = float(np.dot(dx, dx))
    slope = float(np.dot(dx, pred_arr)) / sxx
    intercept = float(pred_arr.mean() - slope * gt_arr.mean())
    resid = pred_arr - (slope * gt_arr + intercept)
    ss_res = float(np.dot(resid, resid))
    dy = pred_arr - pred_arr.mean()
    ss_tot = float(np.dot(dy, dy))
    r2 = 1.0 if gt_arr.size == 2 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2


# ---------------------------------------------------------------------------
# batched per-keypoint metrics


def _bbox_diagonals(xy, v) -> np.ndarray:
    """(N,) diagonal of each sample's rectangle over its annotated keypoints; NaN where none is."""
    lo, hi = visible_corners(xy, v)
    # math.hypot, not np.hypot, which differs in the last digit for some inputs: reports keep their scales
    diagonals = np.array([math.hypot(w, h) for w, h in (hi - lo).tolist()], dtype=np.float64)
    return np.where((v > 0).any(axis=1), diagonals, np.nan)


def _defined_mean(values) -> float | None:
    """Mean of the values that are neither NaN nor None; None when there are none."""
    arr = np.array(values, dtype=np.float64)
    defined = arr[~np.isnan(arr)]
    return float(defined.mean()) if defined.size else None


class _Pairs:
    """Row-paired prediction and ground-truth arrays; the terms metrics share are computed once, on first use."""

    def __init__(self, pred_xy, gt_xy, gt_v):
        self.pred_xy, self.gt_xy, self.gt_v = pred_xy, gt_xy, gt_v
        self.annotated = gt_v > 0
        self.n = gt_xy.shape[0]

    @cached_property
    def deviations(self) -> np.ndarray:
        return _deviations(self.pred_xy, self.gt_xy)

    @cached_property
    def diagonals(self) -> np.ndarray:
        return _bbox_diagonals(self.gt_xy, self.gt_v)

    @cached_property
    def shortest_phenotypes(self) -> np.ndarray:
        return shortest_phenotype_lengths(self.gt_xy, self.gt_v)


def _deviations(pred_xy, gt_xy) -> np.ndarray:
    """Euclidean keypoint deviations over the trailing coordinate axis; +inf where a prediction is non-finite."""
    diff = pred_xy - gt_xy
    d = np.hypot(diff[..., 0], diff[..., 1])
    return np.where(np.isfinite(pred_xy).all(axis=-1), d, np.inf)


def _similarity(d, s, k):
    """exp(-d² / (2 s² k²)), elementwise."""
    return np.exp(-(d**2) / (2.0 * s * s * k**2))


def _pck_scales(pairs: _Pairs, mode) -> np.ndarray:
    """(N, 1) PCK scale of each sample: its box diagonal, or its HL or SL length (NaN when an endpoint is hidden)."""
    if mode == "bbox_diagonal":
        return pairs.diagonals[:, None]
    t = ABBREVS.index(_SCALE_PHENOTYPES[mode])
    return phenotype_lengths(pairs.gt_xy, pairs.gt_v, ENDPOINTS[:, [t]])


def _hits(pairs: _Pairs, scale, threshold) -> dict:
    """The report's block of per-keypoint hit shares among the scored keypoints, with the sample and skip counts;
    ``scale`` is (N, 22), or (N, 1) for one per sample.

    An annotated keypoint is scored when its scale is finite and positive, and a hit when its deviation divided by
    the scale is below ``threshold``; one with a missing, zero or non-finite scale is skipped and counted. A keypoint
    with no scored sample is None.
    """
    scored = pairs.annotated & np.isfinite(scale) & (scale > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        hits = (scored & (pairs.deviations / scale < threshold)).sum(axis=0)
    counts = scored.sum(axis=0)
    values = np.divide(hits, counts, out=np.full(KEYPOINT_COUNT, np.nan), where=counts > 0)
    return {**_per_keypoint(values), "sample_counts": counts.tolist(),
            "skip_counts": (pairs.annotated & ~scored).sum(axis=0).tolist()}


def _oks(pairs: _Pairs, cfg: EvalConfig) -> list[float | None]:
    s = pairs.diagonals if cfg.oks_scale is None else np.full(pairs.n, float(cfg.oks_scale))
    defined = pairs.annotated.any(axis=1) & (s > 0)
    with np.errstate(all="ignore"):
        sim = np.where(pairs.annotated, _similarity(pairs.deviations, s[:, None], np.array(cfg.oks_k)), 0.0)
        values = sim.sum(axis=1) / pairs.annotated.sum(axis=1)
    return [v if ok else None for v, ok in zip(values.tolist(), defined.tolist())]


def _paired_datasets(gt: Dataset, pred: Dataset) -> _Pairs:
    """Each ground-truth row with the prediction row of the same image id (the last one, for a repeated id).

    A prediction for an image id the ground truth lacks is ignored, with one :class:`PhenokeyWarning` that counts
    those ids and names up to five. A ground truth with a non-finite annotated coordinate raises :class:`SchemaError`
    (:func:`~phenokey.morphometry.check_annotated_finite`).
    """
    row = {image_id: k for k, image_id in enumerate(pred.image_ids)}
    rows = np.array([row.get(image_id, -1) for image_id in gt.image_ids], dtype=np.intp)
    missing = [gt.image_ids[n] for n in np.flatnonzero(rows < 0)[:5].tolist()]
    if missing:
        raise IntegrityError(f"predictions missing for image ids {missing!r}")
    unknown = len(row) - len(set(gt.image_ids))    # every ground-truth id is a key of `row` by now
    if unknown:
        known = set(gt.image_ids)
        ids = [image_id for image_id in row if image_id not in known][:5]
        warnings.warn(f"{unknown} predicted image id(s) not in the ground truth, ignored: {ids!r}", PhenokeyWarning,
                      stacklevel=2)
    check_annotated_finite(gt.xy, gt.v, gt.image_ids, "ground truth image")
    return _Pairs(pred.xy[rows], gt.xy, gt.v)


def _phenotype_lengths(pairs: _Pairs, ends):
    """Ground-truth and predicted lengths of the phenotypes ``ends`` (gt visibility governs both); which are usable."""
    gt_len, pred_len = (phenotype_lengths(xy, pairs.gt_v, ends) for xy in (pairs.gt_xy, pairs.pred_xy))
    return gt_len, pred_len, np.isfinite(gt_len) & (gt_len > 0) & np.isfinite(pred_len)


def phenotype_value_pairs(gt: Dataset, pred: Dataset, abbrev: str):
    """Paired (gt, pred) lengths of one phenotype over the usable samples, those the report's statistics use."""
    if abbrev not in ABBREVS:
        raise KeyError(f"unknown phenotype {abbrev!r}")
    t = ABBREVS.index(abbrev)
    gt_len, pred_len, usable = _phenotype_lengths(_paired_datasets(gt, pred), ENDPOINTS[:, [t]])
    return gt_len[usable], pred_len[usable]


# ---------------------------------------------------------------------------
# full report


def _phenotype_stats(pairs: _Pairs) -> dict:
    """Each phenotype's statistics over its usable samples, in table order; None for one with no usable sample."""
    gt_len, pred_len, usable = _phenotype_lengths(pairs, ENDPOINTS)
    stats = {}
    for t, abbrev in enumerate(ABBREVS):
        n_usable = int(usable[:, t].sum())
        skipped = int(np.isfinite(gt_len[:, t]).sum()) - n_usable    # measurable, but not usable
        if n_usable == 0:
            stats[abbrev] = None
            continue
        g = gt_len[usable[:, t], t]
        p = pred_len[usable[:, t], t]
        corr, fit = (pearson(g, p), ols_fit(g, p)) if n_usable >= 2 else (None, None)
        slope, intercept, r2 = fit or (None, None, None)
        stats[abbrev] = {"mape": mape(g, p), "pearson": corr, "r2": r2, "slope": slope, "intercept": intercept,
                         "n_samples": n_usable, "n_skipped": skipped}
    return stats


def _per_keypoint(values: np.ndarray) -> dict:
    """``{"K-1": ..., "K-22": ...}`` block of one per-keypoint array, with the mean over its defined values."""
    return {
        "per_keypoint": {f"K-{j}": None if math.isnan(v) else v for j, v in enumerate(values.tolist(), start=1)},
        "mean": _defined_mean(values),
    }


def evaluate_datasets(gt: Dataset, pred: Dataset, cfg: EvalConfig | None = None, metrics: tuple = METRICS) -> dict:
    """The report `evaluate` writes, on the chosen metrics: a JSON-ready dict, None where a value is undefined, with
    ``mmape`` along with ``phenotypes``. An empty ground truth gives ``n_samples`` 0 and every requested block:
    ``oks`` with ``mean`` None and ``per_image`` ``[]``, the hit blocks with every value None and zero counts, every
    phenotype None. A name outside :data:`METRICS` in ``metrics``, or a bare string for it, raises
    :class:`SchemaError`."""
    if isinstance(metrics, str) or (unknown := [m for m in metrics if m not in METRICS]):
        got = f"the string {metrics!r}" if isinstance(metrics, str) else f"unknown {unknown!r}"
        raise SchemaError(f"metrics must be a sequence of names among {', '.join(METRICS)}, got {got}")
    cfg = cfg or EvalConfig()
    pairs = _paired_datasets(gt, pred)
    report = {"schema_version": 1, "config": asdict(cfg), "n_samples": pairs.n}
    if "oks" in metrics:
        oks = _oks(pairs, cfg)
        per_image = [{"image_id": i, "oks": v} for i, v in zip(gt.image_ids, oks)]
        report["oks"] = {"mean": _defined_mean(oks), "per_image": per_image}
    if "pck" in metrics:
        report["pck"] = _hits(pairs, _pck_scales(pairs, cfg.pck_scale_mode), cfg.pck_threshold)
    if "pmp" in metrics:
        report["pmp"] = _hits(pairs, pairs.shortest_phenotypes, cfg.pmp_threshold)
    if "phenotypes" in metrics:
        report["phenotypes"] = stats = _phenotype_stats(pairs)
        mapes = {abbrev: np.nan if s is None else s["mape"] for abbrev, s in stats.items()}
        report["mmape"] = _per_keypoint(np.array([mmape(j, mapes) for j in range(1, KEYPOINT_COUNT + 1)]))
    return report
