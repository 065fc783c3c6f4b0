import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from phenokey.dataset import Dataset
from phenokey.errors import DegenerateFitError, IntegrityError, PhenokeyWarning, SchemaError, UndefinedMetricError
from phenokey.metrics import (
    METRICS,
    PCK_SCALE_MODES,
    EvalConfig,
    evaluate_datasets,
    mape,
    mmape,
    ols_fit,
    pearson,
    phenotype_value_pairs,
)
from phenokey.schema import KEYPOINT_COUNT
from phenokey.synth import TEMPLATES, PerturbationModel, generate_population, perturb

from conftest import keypoint_values, make_dataset, make_keypoints, rows
from oracles import oracle_oks, oracle_pck, oracle_pmp

# gt spanning exactly [0,60] x [0,80]: bounding-box diagonal is the 60-80-100 triple
_BOX_XY = np.column_stack(
    [np.linspace(5.0, 55.0, KEYPOINT_COUNT), np.linspace(6.0, 74.0, KEYPOINT_COUNT)]
)
_BOX_XY[0] = (0.0, 0.0)
_BOX_XY[8] = (60.0, 80.0)


def _box_gt(image_id=1):
    return make_keypoints(xy=_BOX_XY.copy(), image_id=image_id)


def _shifted(kp, index, dx=0.0, dy=0.0):
    xy = kp.xy.copy()
    xy[index - 1, 0] += dx
    xy[index - 1, 1] += dy
    return make_keypoints(xy=xy, v=kp.v.copy(), image_id=kp.image_id)


def _block(metric, gt, pred, cfg=None) -> dict:
    """The report block of one metric, ``evaluate_datasets`` on that metric alone."""
    return evaluate_datasets(gt, pred, cfg, metrics=(metric,))[metric]


def _oks(gt, pred, cfg=None) -> list:
    """The OKS of each ground-truth row, in its order; None where undefined."""
    return [row["oks"] for row in _block("oks", gt, pred, cfg)["per_image"]]


def test_eval_config_rejects_invalid_values():
    with pytest.raises(ValueError):
        EvalConfig(pmp_threshold=0.0)
    with pytest.raises(ValueError):
        EvalConfig(pck_threshold=-0.1)
    with pytest.raises(ValueError):
        EvalConfig(pck_scale_mode="hip")
    with pytest.raises(ValueError):
        EvalConfig(oks_scale=0.0)
    with pytest.raises(ValueError):
        EvalConfig(oks_k=(0.025,) * 21)
    with pytest.raises(ValueError):
        EvalConfig(oks_k=(0.025,) * 21 + (-1.0,))


# ---------------------------------------------------------------------------
# keypoint similarity


def _ks(d, s, k):
    """The OKS of one visible keypoint predicted ``d`` px off along x, at scale ``s`` with constant ``k``."""
    v = np.zeros(KEYPOINT_COUNT, dtype=int)
    v[0] = 2
    gt = make_keypoints(v=v)
    cfg = EvalConfig(oks_scale=s, oks_k=[k] * KEYPOINT_COUNT)
    (value,) = _oks(make_dataset([gt]), make_dataset([_shifted(gt, 1, dx=d)]), cfg)
    return value


def test_ks_zero_distance_is_one():
    assert _ks(0.0, 100.0, 0.025) == 1.0


def test_ks_analytic_points():
    s, k = 100.0, 0.025
    assert _ks(s * k * math.sqrt(2), s, k) == pytest.approx(math.exp(-1), rel=1e-12)
    assert _ks(2 * s * k, s, k) == pytest.approx(math.exp(-2), rel=1e-12)


def test_ks_domain_errors():
    with pytest.raises(ValueError):
        _ks(1.0, 0.0, 0.025)
    with pytest.raises(ValueError):
        _ks(1.0, 10.0, -1.0)
    # a deviation is a distance: moving the prediction the other way gives the same similarity
    assert _ks(-1.0, 10.0, 0.025) == _ks(1.0, 10.0, 0.025)


def test_ks_monotonicity():
    for d1, d2 in [(0.0, 1.0), (1.0, 2.0), (2.0, 10.0)]:
        assert _ks(d2, 50.0, 0.05) < _ks(d1, 50.0, 0.05)
    assert _ks(5.0, 60.0, 0.05) > _ks(5.0, 50.0, 0.05)
    assert _ks(5.0, 50.0, 0.06) > _ks(5.0, 50.0, 0.05)


# ---------------------------------------------------------------------------
# OKS


def test_oks_exact_prediction_is_one():
    gt = _box_gt()
    assert _oks(make_dataset([gt]), make_dataset([gt])) == [1.0]


def test_oks_single_visible_keypoint():
    v = np.zeros(KEYPOINT_COUNT, dtype=int)
    v[4] = 2
    gt = make_keypoints(v=v)
    s, k = 200.0, 0.025
    pred = _shifted(gt, 5, dx=s * k * math.sqrt(2))
    cfg = EvalConfig(oks_scale=s)
    assert _oks(make_dataset([gt]), make_dataset([pred]), cfg)[0] == pytest.approx(math.exp(-1), rel=1e-12)


def test_oks_zero_visible_is_none():
    gt = make_keypoints(v=np.zeros(KEYPOINT_COUNT, dtype=int))
    assert _oks(make_dataset([gt]), make_dataset([gt])) == [None]
    assert _oks(make_dataset([gt]), make_dataset([gt]), EvalConfig(oks_scale=100.0)) == [None]


def test_metrics_without_phenotypes_never_build_the_phenotype_table(monkeypatch):
    import phenokey.metrics as metrics

    def no_phenotype(*args):
        raise AssertionError("a phenotype length computed by a metric that reads no phenotype")

    monkeypatch.setattr(metrics, "phenotype_lengths", no_phenotype)
    monkeypatch.setattr(metrics, "shortest_phenotype_lengths", no_phenotype)
    gt = _box_gt()
    pred = _shifted(gt, 3, dx=20.0)
    (value,) = _oks(make_dataset([gt]), make_dataset([pred]))
    assert 0.0 < value < 1.0
    assert _block("pck", make_dataset([gt]), make_dataset([pred]))["mean"] == pytest.approx(21 / 22)


@pytest.mark.parametrize("metric", ["pck", "pmp", "oks"])
def test_metrics_refuse_a_ground_truth_id_without_a_prediction(metric):
    gts = make_dataset([_box_gt(1), _box_gt(2)])
    with pytest.raises(IntegrityError, match=r"predictions missing for image ids \[2\]"):
        _block(metric, gts, gts.take([0]))
    with pytest.raises(IntegrityError, match=r"predictions missing for image ids \[1, 2\]"):
        _block(metric, gts, make_dataset([_box_gt(3)]))


# ---------------------------------------------------------------------------
# PCK


def test_pck_exact_predictions():
    gts = [_box_gt(i) for i in range(1, 5)]
    res = _block("pck", make_dataset(gts), make_dataset(gts))
    assert np.all(keypoint_values(res) == 1.0)
    assert res["sample_counts"] == [4] * KEYPOINT_COUNT


def test_pck_counts_two_of_four():
    gts = [_box_gt(i) for i in range(1, 5)]
    preds = [_shifted(g, 3, dx=d) for g, d in zip(gts, [5.0, 15.0, 9.0, 30.0])]
    res = _block("pck", make_dataset(gts), make_dataset(preds), EvalConfig(pck_threshold=0.1))["per_keypoint"]
    assert res["K-3"] == 0.5  # {0.05, 0.09} under, {0.15, 0.30} over
    assert res["K-1"] == 1.0


def test_pck_threshold_is_strict():
    gt = _box_gt()
    pred = _shifted(gt, 3, dx=10.0)  # normalized distance exactly 0.1
    res = _block("pck", make_dataset([gt]), make_dataset([pred]), EvalConfig(pck_threshold=0.1))
    assert res["per_keypoint"]["K-3"] == 0.0


def test_pck_head_mode_scale():
    gt = make_keypoints(overrides={1: (0.0, 0.0), 2: (30.0, 40.0)})  # head length 50
    pred = _shifted(gt, 7, dx=4.0)
    cfg = EvalConfig(pck_threshold=0.1, pck_scale_mode="head")
    assert _block("pck", make_dataset([gt]), make_dataset([pred]), cfg)["per_keypoint"]["K-7"] == 1.0  # 4/50 = 0.08
    pred = _shifted(gt, 7, dx=6.0)
    assert _block("pck", make_dataset([gt]), make_dataset([pred]), cfg)["per_keypoint"]["K-7"] == 0.0  # 6/50 = 0.12


def test_pck_skips_and_counts_samples_without_a_scale():
    gt = make_keypoints(xy=np.full((KEYPOINT_COUNT, 2), 7.0), image_id=1)  # zero box diagonal
    ok = _box_gt(image_id=2)
    res = _block("pck", make_dataset([gt, ok]), make_dataset([gt, ok]))
    assert res["skip_counts"] == [1] * KEYPOINT_COUNT
    assert res["sample_counts"] == [1] * KEYPOINT_COUNT
    assert keypoint_values(res).tolist() == [1.0] * KEYPOINT_COUNT
    assert np.isnan(keypoint_values(_block("pck", make_dataset([gt]), make_dataset([gt])))).all()
    v = np.full(KEYPOINT_COUNT, 2)
    v[1] = 0  # hide K-2: head scale not computable, K-2 itself is not annotated
    gt2 = make_keypoints(v=v, image_id=3)
    res = _block("pck", make_dataset([gt2, ok]), make_dataset([gt2, ok]), EvalConfig(pck_scale_mode="head"))
    assert res["skip_counts"] == [1] + [0] + [1] * (KEYPOINT_COUNT - 2)
    assert res["sample_counts"] == [1] * KEYPOINT_COUNT
    res = _block("pck", make_dataset([gt2, ok]), make_dataset([gt2, ok]), EvalConfig(pck_scale_mode="torso"))
    assert res["skip_counts"] == [0] * KEYPOINT_COUNT
    assert res["sample_counts"] == [2] + [1] + [2] * (KEYPOINT_COUNT - 2)


def test_metrics_reject_a_non_finite_annotated_ground_truth():
    xy = _BOX_XY.copy()
    xy[4] = (np.inf, 3.0)
    gt = make_keypoints(xy=xy, image_id="a")
    for metric in ("pck", "pmp", "oks"):
        with pytest.raises(SchemaError, match=r"ground truth image 'a': K-5 is annotated at non-finite \(inf, 3.0\)"):
            _block(metric, make_dataset([gt]), make_dataset([_box_gt("a")]))
    v = np.full(KEYPOINT_COUNT, 2)
    v[4] = 0
    hidden = make_keypoints(xy=xy, v=v, image_id="a")
    # a hidden keypoint's coordinate is not read
    assert _block("pck", make_dataset([hidden]), make_dataset([_box_gt("a")]))["sample_counts"][4] == 0


def test_pck_skips_unannotated_keypoints():
    v = np.full(KEYPOINT_COUNT, 2)
    v[12] = 0  # K-13 not annotated
    gt = make_keypoints(v=v)
    res = _block("pck", make_dataset([gt]), make_dataset([gt]))
    assert math.isnan(keypoint_values(res)[12])
    assert res["sample_counts"][12] == 0


# ---------------------------------------------------------------------------
# PMP


def test_pmp_eye_example_counts_correct():
    # SnL = 120, ED = 40; K-11 deviated 3 px -> 3/40 = 0.075 < 0.1
    gt = make_keypoints(overrides={1: (0.0, 0.0), 11: (120.0, 0.0), 12: (160.0, 0.0)})
    pred = _shifted(gt, 11, dy=3.0)
    assert _block("pmp", make_dataset([gt]), make_dataset([pred]))["per_keypoint"]["K-11"] == 1.0
    pred = _shifted(gt, 11, dy=5.0)  # 5/40 = 0.125 over threshold
    assert _block("pmp", make_dataset([gt]), make_dataset([pred]))["per_keypoint"]["K-11"] == 0.0


def test_pmp_nine_of_ten():
    gts = [_box_gt(i) for i in range(1, 11)]
    preds = []
    for n, g in enumerate(gts):
        pheno = float(np.hypot(*(g.xy[8] - g.xy[9])))  # TFL, shortest for K-9 here
        factor = 0.5 if n == 0 else 0.05
        preds.append(_shifted(g, 9, dy=factor * pheno))
    res = _block("pmp", make_dataset(gts), make_dataset(preds))
    assert res["per_keypoint"]["K-9"] == pytest.approx(0.9)


def test_pmp_zero_length_shortest_phenotype_skips_sample():
    gt = make_keypoints(overrides={11: (50.0, 50.0), 12: (50.0, 50.0)})  # ED = 0
    res = _block("pmp", make_dataset([gt]), make_dataset([gt]))
    values = keypoint_values(res)
    assert math.isnan(values[10]) and math.isnan(values[11])
    assert res["skip_counts"][10] == 1 and res["skip_counts"][11] == 1
    assert values[0] == 1.0  # other keypoints unaffected


def test_pmp_mean_ignores_undefined():
    gt = make_keypoints(overrides={11: (50.0, 50.0), 12: (50.0, 50.0)})
    assert _block("pmp", make_dataset([gt]), make_dataset([gt]))["mean"] == 1.0


# ---------------------------------------------------------------------------
# MAPE / mMAPE


def test_mape_identical_zero():
    assert mape([10.0, 20.0], [10.0, 20.0]) == 0.0


def test_mape_ten_percent():
    assert mape([100.0, 200.0], [110.0, 180.0]) == 0.1


def test_mape_zero_gt_errors():
    with pytest.raises(ZeroDivisionError, match="index 1"):
        mape([10.0, 0.0], [10.0, 5.0])


def test_mape_length_mismatch():
    with pytest.raises(ValueError):
        mape([1.0], [1.0, 2.0])


_TWO_LISTS = "inputs must be equal-length 1-d lists with at least 2 entries"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: mape([], []), ValueError, "cannot compute MAPE of empty lists"),
        (lambda: mape([10.0, -1.0], [10.0, 5.0]), ValueError, "ground-truth value at index 1 is negative"),
        (lambda: pearson([1.0, 2.0], [1.0, 2.0, 3.0]), ValueError, _TWO_LISTS),
        (lambda: pearson([[1.0, 2.0], [3.0, 5.0]], [[1.0, 2.0], [4.0, 3.0]]), ValueError, _TWO_LISTS),
        (lambda: pearson([1.0], [2.0]), ValueError, _TWO_LISTS),
        (lambda: ols_fit([1.0, 2.0], [1.0, 2.0, 3.0]), ValueError, _TWO_LISTS),
        (lambda: ols_fit([[1.0, 2.0], [3.0, 5.0]], [[1.0, 2.0], [4.0, 3.0]]), ValueError, _TWO_LISTS),
        (lambda: ols_fit([1.0], [2.0]), ValueError, _TWO_LISTS),
    ],
    ids=["mape-empty", "mape-negative-gt", "pearson-unequal", "pearson-2-d", "pearson-one-entry", "ols-unequal",
         "ols-2-d", "ols-one-entry"],
)
def test_statistical_kernels_refuse_bad_arguments_with_their_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_mmape_mean_of_related():
    mapes = {"SnL": 0.04, "ED": 0.06}
    assert mmape(11, mapes) == pytest.approx(0.05)


def test_mmape_singleton_keypoint():
    assert mmape(22, {"DFH": 0.07}) == pytest.approx(0.07)


def test_mmape_missing_entry_errors():
    with pytest.raises(KeyError, match="ED"):
        mmape(11, {"SnL": 0.04})


@pytest.mark.parametrize("keypoint", [0, -1, 23, 1.5, "1"])
def test_mmape_refuses_a_keypoint_outside_1_to_22(keypoint):
    # -1 would otherwise index K-22's phenotypes
    with pytest.raises(KeyError, match=r"keypoint index must be in 1\.\.22"):
        mmape(keypoint, {"DFH": 0.07})


def test_value_pairs_refuse_an_unknown_phenotype():
    gts = make_dataset([_box_gt()])
    with pytest.raises(KeyError, match="unknown phenotype 'XX'"):
        phenotype_value_pairs(gts, gts, "XX")
    gt_len, pred_len = phenotype_value_pairs(gts, gts, "TL")
    assert gt_len.tolist() == pred_len.tolist() and len(gt_len) == 1


# ---------------------------------------------------------------------------
# pearson / ols


def test_pearson_perfect_line():
    assert pearson([1.0, 2.0, 3.0], [3.0, 5.0, 7.0]) == 1.0


def test_pearson_anticorrelated():
    assert pearson([1.0, 2.0, 3.0], [-1.0, -2.0, -3.0]) == -1.0


def test_pearson_constant_errors():
    with pytest.raises(UndefinedMetricError):
        pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])


def test_ols_identity():
    slope, intercept, r2 = ols_fit([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert slope == 1.0 and intercept == 0.0 and r2 == 1.0


def test_ols_constant_predictions():
    slope, intercept, r2 = ols_fit([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
    assert slope == 0.0 and r2 == 0.0


def test_ols_two_points_interpolate():
    slope, intercept, r2 = ols_fit([10.0, 20.0], [13.0, 27.0])
    assert slope == pytest.approx(1.4, abs=1e-12)
    assert intercept == pytest.approx(-1.0, abs=1e-12)
    assert r2 == 1.0


def test_ols_constant_gt_errors():
    with pytest.raises(DegenerateFitError):
        ols_fit([5.0, 5.0, 5.0], [1.0, 2.0, 3.0])


HAND_DATASETS = [
    # (gt, pred, slope, intercept, r, r2) worked out by hand
    ([1.0, 2.0, 3.0], [3.0, 5.0, 7.0], 2.0, 1.0, 1.0, 1.0),
    ([1.0, 2.0, 3.0], [3.0, 2.0, 1.0], -1.0, 4.0, -1.0, 1.0),
    ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 1.0, 2.0], 0.6, 0.1, 3.0 / math.sqrt(10.0), 0.9),
    ([1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 4.0, 2.0], 0.0, 3.0, 0.0, 0.0),
    ([10.0, 20.0], [13.0, 27.0], 1.4, -1.0, 1.0, 1.0),
]


@pytest.mark.parametrize("gt,pred,slope,intercept,r,r2", HAND_DATASETS)
def test_statistical_kernels_hand_computed(gt, pred, slope, intercept, r, r2):
    got_slope, got_intercept, got_r2 = ols_fit(gt, pred)
    assert abs(got_slope - slope) < 1e-12
    assert abs(got_intercept - intercept) < 1e-12
    assert abs(got_r2 - r2) < 1e-12
    assert abs(pearson(gt, pred) - r) < 1e-12


# ---------------------------------------------------------------------------
# invariance and monotonicity properties


def _rigid(kp, theta, shift):
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    return make_keypoints(xy=kp.xy @ rot.T + shift, v=kp.v.copy(), image_id=kp.image_id)


def test_oks_rigid_invariance_with_fixed_scale():
    rng = np.random.default_rng(3)
    gt = _box_gt()
    pred = make_keypoints(xy=gt.xy + rng.normal(0, 2, size=(KEYPOINT_COUNT, 2)), image_id=1)
    cfg = EvalConfig(oks_scale=100.0)
    (base,) = _oks(make_dataset([gt]), make_dataset([pred]), cfg)
    for theta, shift in [(0.3, (50, -20)), (1.2, (0, 0)), (2.9, (-5, 400))]:
        moved_pred, moved_gt = (make_dataset([_rigid(kp, theta, np.array(shift))]) for kp in (pred, gt))
        (moved,) = _oks(moved_gt, moved_pred, cfg)
        assert abs(moved - base) < 1e-9


def test_pck_head_mode_rigid_invariance():
    rng = np.random.default_rng(4)
    gts = [_box_gt(i) for i in range(1, 6)]
    preds = [
        make_keypoints(xy=g.xy + rng.normal(0, 3, size=(KEYPOINT_COUNT, 2)), image_id=g.image_id)
        for g in gts
    ]
    cfg = EvalConfig(pck_scale_mode="head", pck_threshold=0.25)
    base = keypoint_values(_block("pck", make_dataset(gts), make_dataset(preds), cfg))
    theta, shift = 0.7, np.array([123.0, -45.0])
    moved_preds, moved_gts = (make_dataset([_rigid(kp, theta, shift) for kp in kps]) for kps in (preds, gts))
    moved = keypoint_values(_block("pck", moved_gts, moved_preds, cfg))
    assert np.allclose(moved, base, atol=1e-9)


def test_pck_and_pmp_joint_scaling_invariance():
    rng = np.random.default_rng(5)
    gts = [_box_gt(i) for i in range(1, 6)]
    preds = [
        make_keypoints(xy=g.xy + rng.normal(0, 1.5, size=(KEYPOINT_COUNT, 2)), image_id=g.image_id)
        for g in gts
    ]
    c = 7.5
    gts_s = make_dataset([make_keypoints(xy=g.xy * c, v=g.v.copy(), image_id=g.image_id) for g in gts])
    preds_s = make_dataset([make_keypoints(xy=p.xy * c, v=p.v.copy(), image_id=p.image_id) for p in preds])
    preds, gts = make_dataset(preds), make_dataset(gts)
    for metric in ("pck", "pmp"):
        scaled, base = (keypoint_values(_block(metric, g, p)) for g, p in ((gts_s, preds_s), (gts, preds)))
        assert np.allclose(scaled, base, atol=1e-9, equal_nan=True)


def test_pmp_rigid_invariance():
    rng = np.random.default_rng(6)
    gts = [_box_gt(i) for i in range(1, 6)]
    preds = [
        make_keypoints(xy=g.xy + rng.normal(0, 1.0, size=(KEYPOINT_COUNT, 2)), image_id=g.image_id)
        for g in gts
    ]
    base = keypoint_values(_block("pmp", make_dataset(gts), make_dataset(preds)))
    theta, shift = 1.9, np.array([-300.0, 77.0])
    moved_preds, moved_gts = (make_dataset([_rigid(kp, theta, shift) for kp in kps]) for kps in (preds, gts))
    moved = keypoint_values(_block("pmp", moved_gts, moved_preds))
    assert np.allclose(moved, base, atol=1e-9, equal_nan=True)


def test_metrics_monotone_in_deviation():
    gt = _box_gt()
    values_pmp, values_pck = [], []
    for d in [0.5, 2.0, 5.0, 9.0, 40.0]:
        pred = _shifted(gt, 9, dy=d)
        values_pmp.append(_block("pmp", make_dataset([gt]), make_dataset([pred]))["mean"])
        values_pck.append(_block("pck", make_dataset([gt]), make_dataset([pred]))["mean"])
    assert all(a >= b for a, b in zip(values_pmp, values_pmp[1:]))
    assert all(a >= b for a, b in zip(values_pck, values_pck[1:]))


# ---------------------------------------------------------------------------
# oracle equivalence (small; the full 1000-fish run lives in the acceptance suite)


def test_metrics_match_bruteforce_oracle_small():
    gt = generate_population(TEMPLATES["deep_bodied"], 60, seed=9, role="test")
    pred_ds = perturb(gt, PerturbationModel("uniform_px", 6.0, seed=10))
    preds = [r.keypoints for r in rows(pred_ds)]
    gts = [r.keypoints for r in rows(gt)]
    cfg = EvalConfig()

    lib = _oks(gt, pred_ds, cfg)
    orc, _ = oracle_oks(preds, gts, cfg)
    assert all(abs(a - b) < 1e-12 for a, b in zip(lib, orc))

    for metric, oracle in (("pck", oracle_pck), ("pmp", oracle_pmp)):
        lib = _block(metric, gt, pred_ds, cfg)
        values, counts, skips = oracle(preds, gts, cfg)
        for a, b in zip(keypoint_values(lib), values):
            assert (b is None and math.isnan(a)) or abs(a - b) < 1e-12
        assert lib["sample_counts"] == counts and lib["skip_counts"] == skips


@pytest.mark.parametrize("ids", [(5, 3), (4, 4)], ids=["descending", "repeated"])
def test_metrics_pair_rows_by_image_id_whatever_the_row_order(ids):
    # two fish of different size, the first predicted almost exactly and the second far off
    gts = [make_keypoints(xy=_BOX_XY * scale, image_id=i) for scale, i in zip((1.0, 2.0), ids)]
    preds = [make_keypoints(xy=g.xy + shift, image_id=g.image_id) for g, shift in zip(gts, (0.25, 30.0))]
    gt, pred = make_dataset(gts), make_dataset(preds[::-1])    # the predictions in the other row order
    # each ground-truth row, in canonical order, with the last prediction row of its id
    last = {p.image_id: p for p in rows(pred)}
    paired_gts = [r.keypoints for r in rows(gt)]
    paired_preds = [last[g.image_id].keypoints for g in rows(gt)]
    cfg = EvalConfig()
    with warnings.catch_warnings():
        warnings.simplefilter("error")    # every predicted id is a ground-truth id, repeated or not
        lib_oks = _oks(gt, pred, cfg)
        lib = {metric: _block(metric, gt, pred, cfg) for metric in ("pck", "pmp")}
    ref_oks, _ = oracle_oks(paired_preds, paired_gts, cfg)
    assert all(abs(a - b) < 1e-12 for a, b in zip(lib_oks, ref_oks, strict=True))
    if ids[0] != ids[1]:
        assert lib_oks == _oks(gt, make_dataset(preds), cfg)
        assert lib_oks[gt.image_ids.index(ids[0])] > 0.99 > lib_oks[gt.image_ids.index(ids[1])]
    else:    # both ground truths scored against the one prediction kept for the id: the near one, listed last
        assert min(lib_oks) < 0.99 < max(lib_oks)
    for metric, oracle in (("pck", oracle_pck), ("pmp", oracle_pmp)):
        values, counts, skips = oracle(paired_preds, paired_gts, cfg)
        assert [None if math.isnan(x) else x for x in keypoint_values(lib[metric]).tolist()] == values
        assert lib[metric]["sample_counts"] == counts and lib[metric]["skip_counts"] == skips


# Thresholds whose squares are no ratio of small integers: on the integer grid below no deviation / scale ratio
# lands on one, so a last-digit difference between two hypot implementations cannot flip a hit.
_THRESHOLDS = (0.1237, 0.3141, 0.0577)


@st.composite
def _scored_lists(draw):
    """(predictions, ground truths, config) on a small integer grid, with random visibility.

    Coincident points are common on the grid, a sample may collapse to one point (zero box diagonal), a head or
    torso endpoint is hidden in about a quarter of the samples, and a few predicted coordinates are infinite.
    """
    n = draw(st.integers(1, 6))
    gt_xy = draw(arrays(np.int64, (n, KEYPOINT_COUNT, 2), elements=st.integers(0, 12))).astype(np.float64)
    collapsed = draw(arrays(np.bool_, n, elements=st.sampled_from([False] * 4 + [True])))
    gt_xy[collapsed] = gt_xy[collapsed, :1]
    v = draw(arrays(np.int64, (n, KEYPOINT_COUNT), elements=st.sampled_from([0, 1, 2, 2, 2, 2, 2, 2])))
    pred_xy = gt_xy + draw(arrays(np.int64, (n, KEYPOINT_COUNT, 2), elements=st.integers(-3, 3)))
    pred_xy[draw(arrays(np.bool_, (n, KEYPOINT_COUNT), elements=st.sampled_from([False] * 19 + [True]))), 0] = np.inf
    cfg = EvalConfig(pck_threshold=draw(st.sampled_from(_THRESHOLDS)), pmp_threshold=draw(st.sampled_from(_THRESHOLDS)),
                     pck_scale_mode=draw(st.sampled_from(PCK_SCALE_MODES)), oks_k=[0.1] * KEYPOINT_COUNT)
    gts = [make_keypoints(xy=gt_xy[i], v=v[i], image_id=i) for i in range(n)]
    preds = [make_keypoints(xy=pred_xy[i], image_id=i) for i in range(n)]
    return preds, gts, cfg


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_scored_lists())
def test_pck_pmp_and_oks_equal_the_oracles_on_random_visibility(case):
    preds, gts, cfg = case
    pred, gt = make_dataset(preds), make_dataset(gts)    # ids 0..n-1: rows stay in list order
    for metric, oracle in (("pck", oracle_pck), ("pmp", oracle_pmp)):
        lib = _block(metric, gt, pred, cfg)
        values, counts, skips = oracle(preds, gts, cfg)
        assert lib["sample_counts"] == counts and lib["skip_counts"] == skips
        assert [None if math.isnan(x) else x for x in keypoint_values(lib).tolist()] == values
    lib_oks = _oks(gt, pred, cfg)
    ref_oks, _ = oracle_oks(preds, gts, cfg)
    assert [x is None for x in lib_oks] == [x is None for x in ref_oks]
    assert all(a is None or abs(a - b) < 1e-12 for a, b in zip(lib_oks, ref_oks))


# ---------------------------------------------------------------------------
# report assembly


def test_report_round_numbers():
    gt = generate_population(TEMPLATES["elongate"], 8, seed=2, role="test")
    pred = perturb(gt, PerturbationModel("uniform_px", 2.0, seed=3))
    doc = evaluate_datasets(gt, pred)
    assert doc["n_samples"] == 8
    assert len(doc["pmp"]["per_keypoint"]) == KEYPOINT_COUNT
    assert len(doc["pck"]["per_keypoint"]) == KEYPOINT_COUNT
    assert len(doc["phenotypes"]) == 23
    assert set(doc["config"]) == {"pmp_threshold", "pck_threshold", "pck_scale_mode", "oks_scale", "oks_k"}
    assert 0.0 <= doc["oks"]["mean"] <= 1.0


def test_report_undefined_entries_are_null():
    gt = make_keypoints(overrides={11: (50.0, 50.0), 12: (50.0, 50.0)}, image_id=1)
    ds = make_dataset([gt], role="test")
    doc = evaluate_datasets(ds, ds)
    assert doc["pmp"]["per_keypoint"]["K-11"] is None
    assert doc["phenotypes"]["ED"] is None  # zero-length ground truth: MAPE undefined
    assert doc["mmape"]["per_keypoint"]["K-11"] is None  # ED entry missing
    assert doc["pmp"]["per_keypoint"]["K-1"] == 1.0


def test_report_missing_prediction_errors():
    gt = generate_population(TEMPLATES["elongate"], 3, seed=2, role="test")
    pred = generate_population(TEMPLATES["elongate"], 2, seed=2, role="test")
    with pytest.raises(IntegrityError, match=r"predictions missing for image ids \[3\]"):
        evaluate_datasets(gt, pred)


def test_report_ignores_predictions_for_unknown_image_ids_with_one_warning():
    gt = generate_population(TEMPLATES["elongate"], 3, seed=2, role="test")
    pred = generate_population(TEMPLATES["elongate"], 10, seed=2, role="test")    # ids 1..10, of which 1..3 pair
    with pytest.warns(PhenokeyWarning) as record:
        report = evaluate_datasets(gt, pred)
    assert [str(w.message) for w in record] == [
        "7 predicted image id(s) not in the ground truth, ignored: [4, 5, 6, 7, 8]"
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")    # the same ids on both sides: nothing to warn of
        assert report == evaluate_datasets(gt, gt)


def test_two_evaluations_give_equal_reports():
    gt = generate_population(TEMPLATES["deep_bodied"], 600, seed=4, role="test")
    pred = perturb(gt, PerturbationModel("proportional_to_shortest_phenotype", 0.04, seed=5))
    assert evaluate_datasets(gt, pred) == evaluate_datasets(gt, pred)


@pytest.mark.parametrize("metrics,got", [(("pmpp",), "unknown ['pmpp']"), ("pmp", "the string 'pmp'"),
                                         (("oks", "PMP"), "unknown ['PMP']")], ids=["pmpp", "bare-string", "PMP"])
def test_evaluate_refuses_a_metric_name_outside_the_known_ones(metrics, got):
    ds = make_dataset([_box_gt()])
    message = f"metrics must be a sequence of names among oks, pck, pmp, phenotypes, got {got}"
    with pytest.raises(SchemaError, match=re.escape(message)):
        evaluate_datasets(ds, ds, metrics=metrics)


@pytest.fixture(scope="module")
def hidden_string_id_pair():
    """A ground truth with hidden keypoints and string ids; its prediction with one id repeated, so that the
    prediction rows sit in another order than the ground-truth rows they pair with; and that prediction's paired rows
    alone."""
    base = generate_population(TEMPLATES["deep_bodied"], 12, seed=21, role="test")
    v = base.v.copy()
    v[::3, [1, 10, 16]] = 0    # K-2 (an HL endpoint), K-11 and K-17 hidden in every third fish
    v[1::4, 12] = 0            # and K-13 in others
    ids = [f"fish-{k:02d}" for k in range(len(base))]
    gt = Dataset(np.where(v[..., None] > 0, base.xy, np.nan), v, ids, base.width, base.height, base.species, "test")
    moved = perturb(gt, PerturbationModel("uniform_px", 4.0, seed=22))
    stray = moved.take([5])    # listed first, so fish-05's perturbed row is the last and the one paired
    pred = Dataset(np.concatenate([stray.xy + 50.0, moved.xy]), np.concatenate([stray.v, moved.v]),
                   stray.image_ids + moved.image_ids, np.concatenate([stray.width, moved.width]),
                   np.concatenate([stray.height, moved.height]), np.concatenate([stray.species, moved.species]))
    return gt, pred, moved


@pytest.mark.parametrize("metric,cfg", [("oks", EvalConfig()), *(("pck", EvalConfig(pck_scale_mode=mode))
                                                                 for mode in PCK_SCALE_MODES),
                                        ("pmp", EvalConfig()), ("phenotypes", EvalConfig())],
                         ids=["oks", *(f"pck-{mode}" for mode in PCK_SCALE_MODES), "pmp", "phenotypes"])
def test_one_metric_alone_equals_its_block_in_the_full_report(hidden_string_id_pair, metric, cfg):
    gt, pred, paired = hidden_string_id_pair
    with warnings.catch_warnings():
        warnings.simplefilter("error")    # every predicted id is a ground-truth id
        alone = evaluate_datasets(gt, pred, cfg, metrics=(metric,))
        full = evaluate_datasets(gt, pred, cfg, metrics=METRICS)
    blocks = ("phenotypes", "mmape") if metric == "phenotypes" else (metric,)
    assert alone == {key: full[key] for key in ("schema_version", "config", "n_samples", *blocks)}
    assert sum(full["pmp"]["sample_counts"]) < KEYPOINT_COUNT * len(gt)    # the hidden keypoints are not scored
    assert len(pred) == len(gt) + 1 and full == evaluate_datasets(gt, paired, cfg)    # the stray row is not paired


@pytest.mark.parametrize("metric", ["pck", "pmp"])
def test_per_keypoint_metrics_refuse_an_empty_sample(metric):
    with pytest.raises(UndefinedMetricError, match="no samples to evaluate"):
        _block(metric, make_dataset([]), make_dataset([]))
