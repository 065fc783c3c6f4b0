"""Output checks: each command's output against a numpy recomputation.

Every check takes the output as text (or parsed JSON) plus the generated
arrays, and returns a list of problems; an empty list means the output is
correct. The recomputations follow the program's documented semantics:

* OKS: mean over ground-truth-visible keypoints of exp(-d^2 / (2 s^2 k^2)),
  s = diagonal of the visible ground-truth rectangle, k = 0.025;
* PCK: d / s < 0.1 over visible keypoints, no skips;
* PMP: d / shortest measurable related phenotype < 0.1, skipping visible
  keypoints that have no such phenotype;
* ACR: hinge of the normalized prediction outside the prior's box, mapped
  into the prediction's own visible rectangle and scaled back to pixels.
"""

from __future__ import annotations

import csv
import io
import json
import math
import xml.etree.ElementTree as ET

import numpy as np

from inputs import N_KEYPOINTS, PHENOTYPES, FishArrays, normalized, shortest_related, visible_frame

OKS_K = 0.025
THRESHOLD = 0.1
REL_TOL = 1e-9


def _close(a, b) -> np.ndarray:
    return np.isclose(a, b, rtol=REL_TOL, atol=1e-12)


def _deviations(fish: FishArrays) -> np.ndarray:
    diff = fish.pred_xy - fish.gt_xy
    return np.hypot(diff[..., 0], diff[..., 1])


def _nullable(values) -> np.ndarray:
    return np.array([np.nan if x is None else x for x in values], dtype=np.float64)


def _per_keypoint(problems: list, name: str, block: dict, correct, counted, skipped) -> None:
    counts = counted.sum(axis=0)
    expected = np.full(N_KEYPOINTS, np.nan)
    nonzero = counts > 0
    expected[nonzero] = correct.sum(axis=0)[nonzero] / counts[nonzero]
    got = _nullable(block["per_keypoint"][f"K-{k}"] for k in range(1, N_KEYPOINTS + 1))
    if not (np.array_equal(np.isnan(got), np.isnan(expected))
            and _close(got[nonzero], expected[nonzero]).all()):
        problems.append(f"{name}: per-keypoint values differ from the recomputation")
    if block["sample_counts"] != counts.tolist():
        problems.append(f"{name}: sample counts {block['sample_counts']} != {counts.tolist()}")
    if block["skip_counts"] != skipped.sum(axis=0).tolist():
        problems.append(f"{name}: skip counts {block['skip_counts']} != {skipped.sum(axis=0).tolist()}")


def check_evaluate(doc: dict, fish: FishArrays) -> list[str]:
    """``evaluate --metric all``: per-image OKS and per-keypoint PCK / PMP with counts."""
    problems = []
    if doc.get("n_samples") != fish.n:
        return [f"evaluate: n_samples {doc.get('n_samples')} != {fish.n}"]
    d = _deviations(fish)
    vis = fish.v > 0
    _, extent = visible_frame(fish.gt_xy, fish.v)
    diag = np.hypot(extent[:, 0], extent[:, 1])

    ks = np.exp(-(d**2) / (2.0 * diag[:, None] ** 2 * OKS_K**2))
    oks = np.where(vis, ks, 0.0).sum(axis=1) / vis.sum(axis=1)
    per_image = doc["oks"]["per_image"]
    if [e["image_id"] for e in per_image] != list(range(1, fish.n + 1)):
        problems.append("oks: image ids are not 1..n in order")
    elif not _close(_nullable(e["oks"] for e in per_image), oks).all():
        problems.append("oks: per-image values differ from the recomputation")
    if doc["oks"]["mean"] is None or not math.isclose(doc["oks"]["mean"], float(oks.mean()),
                                                      rel_tol=REL_TOL):
        problems.append("oks: mean differs from the recomputation")

    _per_keypoint(problems, "pck", doc["pck"], (d / diag[:, None] < THRESHOLD) & vis, vis,
                  np.zeros_like(vis))

    pheno = shortest_related(fish.gt_xy, fish.v)
    evaluable = vis & np.isfinite(pheno) & (pheno > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        correct = evaluable & (d / pheno < THRESHOLD)
    _per_keypoint(problems, "pmp", doc["pmp"], correct, evaluable, vis & ~evaluable)
    return problems


def check_measure(text: str, fish: FishArrays) -> list[str]:
    """``measure``: every phenotype length and every ``skipped:K-n`` status."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["image_id", "abbrev", "value_px", "status"]:
        return ["measure: missing or wrong header"]
    body = rows[1:]
    n_pheno = len(PHENOTYPES)
    if len(body) != fish.n * n_pheno:
        return [f"measure: {len(body)} rows, expected {fish.n * n_pheno}"]
    expected_ids = np.repeat(np.arange(1, fish.n + 1), n_pheno).astype(str).tolist()
    if [r[0] for r in body] != expected_ids:
        return ["measure: image ids out of order"]
    if [r[1] for r in body] != [p[0] for p in PHENOTYPES] * fish.n:
        return ["measure: phenotype abbreviations out of order"]

    a = np.array([p[1] for p in PHENOTYPES]) - 1
    b = np.array([p[2] for p in PHENOTYPES]) - 1
    seg = fish.gt_xy[:, b] - fish.gt_xy[:, a]
    length = np.hypot(seg[..., 0], seg[..., 1]).ravel()
    hidden_a = fish.v[:, a] <= 0
    hidden_b = fish.v[:, b] <= 0
    blocker = np.where(hidden_a, a + 1, np.where(hidden_b, b + 1, 0)).ravel()
    status = np.where(blocker > 0, np.char.add("skipped:K-", blocker.astype(str)),
                      np.where(length == 0.0, "degenerate", "ok"))
    problems = []
    if [r[3] for r in body] != status.tolist():
        problems.append("measure: statuses differ from the visibility flags")
    measured = blocker == 0
    values = [r[2] for r in body]
    if any(values[i] for i in np.flatnonzero(~measured)):
        problems.append("measure: a skipped phenotype carries a value")
    got = np.array([float(values[i]) for i in np.flatnonzero(measured)])
    if got.shape != length[measured].shape or not _close(got, length[measured]).all():
        problems.append("measure: lengths differ from the recomputation")
    return problems


def check_prior(doc: dict, fish: FishArrays) -> list[str]:
    """``prior``: extremes of the normalized ground truth, and zero ACR on that ground truth."""
    problems = []
    if doc.get("training_set_size") != fish.n:
        problems.append(f"prior: training_set_size {doc.get('training_set_size')} != {fish.n}")
    entries = sorted(doc["extremes"], key=lambda e: e["keypoint"])
    if [e["keypoint"] for e in entries] != list(range(1, N_KEYPOINTS + 1)):
        return problems + ["prior: extremes are not one per keypoint"]
    nmin = np.array([(e["x_min"], e["y_min"]) for e in entries])
    nmax = np.array([(e["x_max"], e["y_max"]) for e in entries])
    norm = normalized(fish.gt_xy, fish.v)
    if not (_close(nmin, np.nanmin(norm, axis=0)).all() and _close(nmax, np.nanmax(norm, axis=0)).all()):
        problems.append("prior: extremes differ from the recomputation")
    vis = fish.v > 0
    hinge = np.maximum(0.0, nmin - norm) + np.maximum(0.0, norm - nmax)
    worst = float(np.where(vis[..., None], hinge, 0.0).max())
    if worst > 1e-12:
        problems.append(f"prior: its own training fish pay ACR (worst hinge {worst:.3g})")
    return problems


def acr_reference(fish: FishArrays, nmin: np.ndarray, nmax: np.ndarray):
    """Per-image loss (n,) and subgradient (n, 22, 2) of the predictions."""
    origin, extent = visible_frame(fish.pred_xy, fish.v)
    norm = (fish.pred_xy - origin[:, None, :]) / extent[:, None, :]
    hinge = (np.maximum(0.0, nmin - norm) + np.maximum(0.0, norm - nmax)) * extent[:, None, :]
    grad = np.where(norm < nmin, -1.0, np.where(norm > nmax, 1.0, 0.0))
    return hinge.sum(axis=(1, 2)), grad


def check_acr(doc: dict, fish: FishArrays, prior_doc: dict) -> list[str]:
    """``acr``: per-image loss, gradient and outside count; total = sum of per-image losses."""
    entries = sorted(prior_doc["extremes"], key=lambda e: e["keypoint"])
    nmin = np.array([(e["x_min"], e["y_min"]) for e in entries])
    nmax = np.array([(e["x_max"], e["y_max"]) for e in entries])
    loss, grad = acr_reference(fish, nmin, nmax)
    per_image = doc["per_image"]
    if [e["image_id"] for e in per_image] != list(range(1, fish.n + 1)):
        return ["acr: image ids are not 1..n in order"]
    problems = []
    got_loss = np.array([e["loss"] for e in per_image])
    if not _close(got_loss, loss).all():
        problems.append("acr: per-image losses differ from the recomputation")
    if not np.array_equal(np.array([e["gradient"] for e in per_image]), grad):
        problems.append("acr: gradients differ from the recomputation")
    outside = (grad != 0).any(axis=2).sum(axis=1)
    if [e["keypoints_outside"] for e in per_image] != outside.tolist():
        problems.append("acr: keypoints_outside differs from the recomputation")
    if not math.isclose(doc["total_loss"], math.fsum(got_loss), rel_tol=1e-12, abs_tol=1e-9):
        problems.append("acr: total_loss is not the sum of the per-image losses")
    return problems


def check_plot(svg: str, quantile_csv: str, fish: FishArrays) -> list[str]:
    """``plot --kind deviation``: one box for the run and its deviation quantiles."""
    problems = []
    root = ET.fromstring(svg)
    groups = [g for g in root.iter("{http://www.w3.org/2000/svg}g") if g.get("class") == "box-group"]
    if [g.get("data-label") for g in groups] != ["model"]:
        problems.append("plot: expected exactly one box group labelled 'model'")
    rows = list(csv.reader(io.StringIO(quantile_csv)))
    if not rows or rows[0] != ["metric", "min", "q1", "median", "q3", "max"]:
        return problems + ["plot: missing or wrong quantile CSV header"]
    if len(rows) != 2 or rows[1][0] != "model":
        return problems + ["plot: expected one quantile row labelled 'model'"]
    d = _deviations(fish)[fish.v > 0]
    q1, med, q3 = np.percentile(d, [25, 50, 75])
    expected = np.array([d.min(), q1, med, q3, d.max()])
    if not _close(np.array([float(x) for x in rows[1][1:]]), expected).all():
        problems.append("plot: deviation quantiles differ from the recomputation")
    return problems


def check_synth(text: str, n: int, role: str) -> list[str]:
    """``synth``: the file re-parses to ``n`` valid records."""
    doc = json.loads(text)
    if doc.get("info", {}).get("role") != role:
        return [f"synth: role is not {role!r}"]
    images = {img["id"]: (img["width"], img["height"]) for img in doc["images"]}
    anns = doc["annotations"]
    ids = [a["image_id"] for a in anns]
    if len(images) != n or len(anns) != n or len(set(ids)) != n or set(ids) != set(images):
        return [f"synth: expected {n} records with unique ids, got {len(anns)} annotations "
                f"and {len(images)} images"]
    if any(len(a["keypoints"]) != 3 * N_KEYPOINTS for a in anns):
        return ["synth: a keypoint list does not hold 66 values"]
    triplets = np.array([a["keypoints"] for a in anns], dtype=np.float64).reshape(n, N_KEYPOINTS, 3)
    wh = np.array([images[i] for i in ids], dtype=np.float64)
    xy = triplets[..., :2]
    vis = triplets[..., 2] > 0
    problems = []
    if not np.isin(triplets[..., 2], (0, 1, 2)).all():
        problems.append("synth: visibility flag outside {0, 1, 2}")
    if not (wh > 0).all():
        problems.append("synth: non-positive image dimensions")
    inside = np.isfinite(xy).all(axis=2) & (xy >= 0).all(axis=2) & (xy <= wh[:, None, :]).all(axis=2)
    if not inside[vis].all():
        problems.append("synth: a visible keypoint is non-finite or off its canvas")
    return problems


def check_trace(text: str, steps: int) -> list[str]:
    """``train-toy``: steps + 1 finite rows, and the final MSE below the initial one."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0][:3] != ["step", "L_mse", "L_acr"]:
        return ["trace: missing or wrong header"]
    body = rows[1:]
    if len(body) != steps + 1:
        return [f"trace: {len(body)} rows, expected {steps + 1}"]
    if any(len(r) != len(rows[0]) for r in body):
        return ["trace: ragged rows"]
    values = np.array(body, dtype=np.float64)
    problems = []
    if not np.isfinite(values).all():
        problems.append("trace: non-finite entries")
    if values[:, 0].tolist() != list(range(steps + 1)):
        problems.append("trace: steps are not 0..steps")
    if not values[-1, 1] < values[0, 1]:
        problems.append(f"trace: final L_mse {values[-1, 1]} is not below initial {values[0, 1]}")
    return problems
