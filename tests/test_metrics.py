import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from phenokey.errors import DegenerateFitError, IntegrityError, PhenokeyWarning, SchemaError, UndefinedMetricError
from phenokey.metrics import (
    PCK_SCALE_MODES,
    EvalConfig,
    evaluate_datasets,
    mape,
    mmape,
    oks_per_image,
    ols_fit,
    pck,
    pearson,
    pmp,
    report_to_dict,
)
from phenokey.schema import KEYPOINT_COUNT
from phenokey.synth import TEMPLATES, PerturbationModel, generate_population, perturb

from conftest import make_keypoints
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
    (value,) = oks_per_image([_shifted(gt, 1, dx=d)], [gt], EvalConfig(oks_scale=s, oks_k=[k] * KEYPOINT_COUNT))
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
    assert oks_per_image([gt], [gt]) == [1.0]


def test_oks_single_visible_keypoint():
    v = np.zeros(KEYPOINT_COUNT, dtype=int)
    v[4] = 2
    gt = make_keypoints(v=v)
    s, k = 200.0, 0.025
    pred = _shifted(gt, 5, dx=s * k * math.sqrt(2))
    cfg = EvalConfig(oks_scale=s)
    assert oks_per_image([pred], [gt], cfg)[0] == pytest.approx(math.exp(-1), rel=1e-12)


def test_oks_zero_visible_is_none():
    gt = make_keypoints(v=np.zeros(KEYPOINT_COUNT, dtype=int))
    assert oks_per_image([gt], [gt]) == [None]
    assert oks_per_image([gt], [gt], EvalConfig(oks_scale=100.0)) == [None]


def test_metrics_without_phenotypes_never_build_the_phenotype_table(monkeypatch):
    import phenokey.metrics as metrics

    def no_table():
        raise AssertionError("default_table() called by a metric that reads no phenotype")

    monkeypatch.setattr(metrics, "default_table", no_table)
    gt = _box_gt()
    pred = _shifted(gt, 3, dx=20.0)
    (value,) = oks_per_image([pred], [gt])
    assert 0.0 < value < 1.0
    assert pck([pred], [gt]).mean() == pytest.approx(21 / 22)


@pytest.mark.parametrize("metric", [pck, pmp, oks_per_image])
def test_list_metrics_pair_by_position_and_reject_mismatched_lists(metric):
    gts = [_box_gt(1), _box_gt(2)]
    with pytest.raises(ValueError, match="got 1 predictions for 2 ground truths"):
        metric(gts[:1], gts)
    with pytest.raises(ValueError, match="id mismatch: 2 vs 1"):
        metric(gts[::-1], gts)


# ---------------------------------------------------------------------------
# PCK


def test_pck_exact_predictions():
    gts = [_box_gt(i) for i in range(1, 5)]
    res = pck(gts, gts)
    assert np.all(res.values == 1.0)
    assert np.all(res.sample_counts == 4)


def test_pck_counts_two_of_four():
    gts = [_box_gt(i) for i in range(1, 5)]
    preds = [_shifted(g, 3, dx=d) for g, d in zip(gts, [5.0, 15.0, 9.0, 30.0])]
    res = pck(preds, gts, EvalConfig(pck_threshold=0.1))
    assert res.values[2] == 0.5  # K-3: {0.05, 0.09} under, {0.15, 0.30} over
    assert res.values[0] == 1.0


def test_pck_threshold_is_strict():
    gt = _box_gt()
    pred = _shifted(gt, 3, dx=10.0)  # normalized distance exactly 0.1
    res = pck([pred], [gt], EvalConfig(pck_threshold=0.1))
    assert res.values[2] == 0.0


def test_pck_head_mode_scale():
    gt = make_keypoints(overrides={1: (0.0, 0.0), 2: (30.0, 40.0)})  # head length 50
    pred = _shifted(gt, 7, dx=4.0)
    res = pck([pred], [gt], EvalConfig(pck_threshold=0.1, pck_scale_mode="head"))
    assert res.values[6] == 1.0  # 4/50 = 0.08
    pred = _shifted(gt, 7, dx=6.0)
    res = pck([pred], [gt], EvalConfig(pck_threshold=0.1, pck_scale_mode="head"))
    assert res.values[6] == 0.0  # 6/50 = 0.12


def test_pck_skips_and_counts_samples_without_a_scale():
    gt = make_keypoints(xy=np.full((KEYPOINT_COUNT, 2), 7.0), image_id=1)  # zero box diagonal
    ok = _box_gt(image_id=2)
    res = pck([gt, ok], [gt, ok])
    assert res.skip_counts.tolist() == [1] * KEYPOINT_COUNT
    assert res.sample_counts.tolist() == [1] * KEYPOINT_COUNT
    assert res.values.tolist() == [1.0] * KEYPOINT_COUNT
    assert np.isnan(pck([gt], [gt]).values).all()
    v = np.full(KEYPOINT_COUNT, 2)
    v[1] = 0  # hide K-2: head scale not computable, K-2 itself is not annotated
    gt2 = make_keypoints(v=v, image_id=3)
    res = pck([gt2, ok], [gt2, ok], EvalConfig(pck_scale_mode="head"))
    assert res.skip_counts.tolist() == [1] + [0] + [1] * (KEYPOINT_COUNT - 2)
    assert res.sample_counts.tolist() == [1] * KEYPOINT_COUNT
    res = pck([gt2, ok], [gt2, ok], EvalConfig(pck_scale_mode="torso"))
    assert res.skip_counts.tolist() == [0] * KEYPOINT_COUNT
    assert res.sample_counts.tolist() == [2] + [1] + [2] * (KEYPOINT_COUNT - 2)


def test_metrics_reject_a_non_finite_annotated_ground_truth():
    xy = _BOX_XY.copy()
    xy[4] = (np.inf, 3.0)
    gt = make_keypoints(xy=xy, image_id="a")
    for metric in (pck, pmp, oks_per_image):
        with pytest.raises(SchemaError, match=r"ground truth image 'a': K-5 is annotated at non-finite \(inf, 3.0\)"):
            metric([_box_gt("a")], [gt])
    v = np.full(KEYPOINT_COUNT, 2)
    v[4] = 0
    hidden = make_keypoints(xy=xy, v=v, image_id="a")
    assert pck([_box_gt("a")], [hidden]).sample_counts[4] == 0    # a hidden keypoint's coordinate is not read


def test_pck_skips_unannotated_keypoints():
    v = np.full(KEYPOINT_COUNT, 2)
    v[12] = 0  # K-13 not annotated
    gt = make_keypoints(v=v)
    res = pck([gt], [gt])
    assert math.isnan(res.values[12])
    assert res.sample_counts[12] == 0


# ---------------------------------------------------------------------------
# PMP


def test_pmp_eye_example_counts_correct():
    # SnL = 120, ED = 40; K-11 deviated 3 px -> 3/40 = 0.075 < 0.1
    gt = make_keypoints(overrides={1: (0.0, 0.0), 11: (120.0, 0.0), 12: (160.0, 0.0)})
    pred = _shifted(gt, 11, dy=3.0)
    res = pmp([pred], [gt])
    assert res.values[10] == 1.0
    pred = _shifted(gt, 11, dy=5.0)  # 5/40 = 0.125 over threshold
    res = pmp([pred], [gt])
    assert res.values[10] == 0.0


def test_pmp_nine_of_ten():
    gts = [_box_gt(i) for i in range(1, 11)]
    preds = []
    for n, g in enumerate(gts):
        pheno = float(np.hypot(*(g.xy[8] - g.xy[9])))  # TFL, shortest for K-9 here
        factor = 0.5 if n == 0 else 0.05
        preds.append(_shifted(g, 9, dy=factor * pheno))
    res = pmp(preds, gts)
    assert res.values[8] == pytest.approx(0.9)


def test_pmp_zero_length_shortest_phenotype_skips_sample():
    gt = make_keypoints(overrides={11: (50.0, 50.0), 12: (50.0, 50.0)})  # ED = 0
    res = pmp([gt], [gt])
    assert math.isnan(res.values[10]) and math.isnan(res.values[11])
    assert res.skip_counts[10] == 1 and res.skip_counts[11] == 1
    assert res.values[0] == 1.0  # other keypoints unaffected


def test_pmp_mean_ignores_undefined():
    gt = make_keypoints(overrides={11: (50.0, 50.0), 12: (50.0, 50.0)})
    res = pmp([gt], [gt])
    assert res.mean() == 1.0


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


def test_mmape_mean_of_related():
    mapes = {"SnL": 0.04, "ED": 0.06}
    assert mmape(11, mapes) == pytest.approx(0.05)


def test_mmape_singleton_keypoint():
    assert mmape(22, {"DFH": 0.07}) == pytest.approx(0.07)


def test_mmape_missing_entry_errors():
    with pytest.raises(KeyError, match="ED"):
        mmape(11, {"SnL": 0.04})


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
    (base,) = oks_per_image([pred], [gt], cfg)
    for theta, shift in [(0.3, (50, -20)), (1.2, (0, 0)), (2.9, (-5, 400))]:
        (moved,) = oks_per_image([_rigid(pred, theta, np.array(shift))], [_rigid(gt, theta, np.array(shift))], cfg)
        assert abs(moved - base) < 1e-9


def test_pck_head_mode_rigid_invariance():
    rng = np.random.default_rng(4)
    gts = [_box_gt(i) for i in range(1, 6)]
    preds = [
        make_keypoints(xy=g.xy + rng.normal(0, 3, size=(KEYPOINT_COUNT, 2)), image_id=g.image_id)
        for g in gts
    ]
    cfg = EvalConfig(pck_scale_mode="head", pck_threshold=0.25)
    base = pck(preds, gts, cfg).values
    theta, shift = 0.7, np.array([123.0, -45.0])
    moved = pck(
        [_rigid(p, theta, shift) for p in preds], [_rigid(g, theta, shift) for g in gts], cfg
    ).values
    assert np.allclose(moved, base, atol=1e-9)


def test_pck_and_pmp_joint_scaling_invariance():
    rng = np.random.default_rng(5)
    gts = [_box_gt(i) for i in range(1, 6)]
    preds = [
        make_keypoints(xy=g.xy + rng.normal(0, 1.5, size=(KEYPOINT_COUNT, 2)), image_id=g.image_id)
        for g in gts
    ]
    c = 7.5
    gts_s = [make_keypoints(xy=g.xy * c, v=g.v.copy(), image_id=g.image_id) for g in gts]
    preds_s = [make_keypoints(xy=p.xy * c, v=p.v.copy(), image_id=p.image_id) for p in preds]
    assert np.allclose(pck(preds_s, gts_s).values, pck(preds, gts).values, atol=1e-9, equal_nan=True)
    assert np.allclose(pmp(preds_s, gts_s).values, pmp(preds, gts).values, atol=1e-9, equal_nan=True)


def test_pmp_rigid_invariance():
    rng = np.random.default_rng(6)
    gts = [_box_gt(i) for i in range(1, 6)]
    preds = [
        make_keypoints(xy=g.xy + rng.normal(0, 1.0, size=(KEYPOINT_COUNT, 2)), image_id=g.image_id)
        for g in gts
    ]
    base = pmp(preds, gts).values
    theta, shift = 1.9, np.array([-300.0, 77.0])
    moved = pmp(
        [_rigid(p, theta, shift) for p in preds], [_rigid(g, theta, shift) for g in gts]
    ).values
    assert np.allclose(moved, base, atol=1e-9, equal_nan=True)


def test_metrics_monotone_in_deviation():
    gt = _box_gt()
    values_pmp, values_pck = [], []
    for d in [0.5, 2.0, 5.0, 9.0, 40.0]:
        pred = _shifted(gt, 9, dy=d)
        values_pmp.append(pmp([pred], [gt]).mean())
        values_pck.append(pck([pred], [gt]).mean())
    assert all(a >= b for a, b in zip(values_pmp, values_pmp[1:]))
    assert all(a >= b for a, b in zip(values_pck, values_pck[1:]))


# ---------------------------------------------------------------------------
# oracle equivalence (small; the full 1000-fish run lives in the acceptance suite)


def test_metrics_match_bruteforce_oracle_small():
    gt = generate_population(TEMPLATES["deep_bodied"], 60, seed=9, role="test")
    pred_ds = perturb(gt, PerturbationModel("uniform_px", 6.0, seed=10))
    preds = [r.keypoints for r in pred_ds]
    gts = [r.keypoints for r in gt]
    cfg = EvalConfig()

    lib = oks_per_image(preds, gts, cfg)
    orc, _ = oracle_oks(preds, gts, cfg)
    assert all(abs(a - b) < 1e-12 for a, b in zip(lib, orc))

    for metric, oracle in ((pck, oracle_pck), (pmp, oracle_pmp)):
        lib = metric(preds, gts, cfg)
        values, counts, skips = oracle(preds, gts, cfg)
        for a, b in zip(lib.values, values):
            assert (b is None and math.isnan(a)) or abs(a - b) < 1e-12
        assert lib.sample_counts.tolist() == counts and lib.skip_counts.tolist() == skips


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
    for metric, oracle in ((pck, oracle_pck), (pmp, oracle_pmp)):
        lib = metric(preds, gts, cfg)
        values, counts, skips = oracle(preds, gts, cfg)
        assert lib.sample_counts.tolist() == counts and lib.skip_counts.tolist() == skips
        assert [None if math.isnan(x) else x for x in lib.values.tolist()] == values
    lib_oks = oks_per_image(preds, gts, cfg)
    ref_oks, _ = oracle_oks(preds, gts, cfg)
    assert [x is None for x in lib_oks] == [x is None for x in ref_oks]
    assert all(a is None or abs(a - b) < 1e-12 for a, b in zip(lib_oks, ref_oks))


# ---------------------------------------------------------------------------
# report assembly


def test_report_round_numbers():
    gt = generate_population(TEMPLATES["elongate"], 8, seed=2, role="test")
    pred = perturb(gt, PerturbationModel("uniform_px", 2.0, seed=3))
    report = evaluate_datasets(gt, pred)
    doc = report_to_dict(report)
    assert doc["n_samples"] == 8
    assert len(doc["pmp"]["per_keypoint"]) == KEYPOINT_COUNT
    assert len(doc["pck"]["per_keypoint"]) == KEYPOINT_COUNT
    assert len(doc["phenotypes"]) == 23
    assert set(doc["config"]) == {"pmp_threshold", "pck_threshold", "pck_scale_mode", "oks_scale", "oks_k"}
    assert 0.0 <= doc["oks"]["mean"] <= 1.0


def test_report_undefined_entries_are_null():
    gt = make_keypoints(overrides={11: (50.0, 50.0), 12: (50.0, 50.0)}, image_id=1)
    from conftest import make_dataset

    ds = make_dataset([gt], role="test")
    doc = report_to_dict(evaluate_datasets(ds, ds))
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
        report = report_to_dict(evaluate_datasets(gt, pred))
    assert [str(w.message) for w in record] == [
        "7 predicted image id(s) not in the ground truth, ignored: [4, 5, 6, 7, 8]"
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")    # the same ids on both sides: nothing to warn of
        assert report == report_to_dict(evaluate_datasets(gt, gt))


def test_thread_count_does_not_change_results():
    gt = generate_population(TEMPLATES["deep_bodied"], 600, seed=4, role="test")
    pred = perturb(gt, PerturbationModel("proportional_to_shortest_phenotype", 0.04, seed=5))
    one = report_to_dict(evaluate_datasets(gt, pred))
    four = report_to_dict(evaluate_datasets(gt, pred))
    assert one == four


@pytest.mark.parametrize("metric", [pck, pmp])
def test_per_keypoint_metrics_refuse_an_empty_sample(metric):
    with pytest.raises(UndefinedMetricError, match="no samples to evaluate"):
        metric([], [])
