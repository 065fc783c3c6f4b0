import numpy as np
import pytest

from phenokey.anatomy import (
    AnatomicalPrior,
    BoxConstraint,
    acr_hinge,
    body_frames,
    dataset_boxes,
    fit_prior,
    normalized_coords,
    prior_from_dict,
    prior_to_dict,
)
from phenokey.dataset import Dataset
from phenokey.errors import DegeneratePoseError, SchemaError
from phenokey.schema import KEYPOINT_COUNT
from phenokey.synth import TEMPLATES, generate_population

from conftest import make_dataset, make_keypoints


def _point_prior(nx_min=0.25, ny_min=0.5, nx_max=None, ny_max=None):
    """Prior with identical extremes for every keypoint."""
    nx_max = nx_min if nx_max is None else nx_max
    ny_max = ny_min if ny_max is None else ny_max
    mins = np.tile([nx_min, ny_min], (KEYPOINT_COUNT, 1))
    maxs = np.tile([nx_max, ny_max], (KEYPOINT_COUNT, 1))
    return AnatomicalPrior(mins=mins, maxs=maxs, training_set_size=1)


# ---------------------------------------------------------------------------
# normalization


def _normalized(kp):
    """(22, 2) normalized coordinates of one keypoint set."""
    return normalized_coords(make_dataset([kp]))[0]


def test_normalize_extremes_map_to_unit_corners():
    kp = make_keypoints()
    points = _normalized(kp)
    lo, hi, _ = body_frames(kp.xy[None], kp.v[None], [kp.image_id])
    assert (*lo[0], *hi[0]) == (10.0, 20.0, 850.0, 545.0)   # K-1 and K-22 of the diagonal layout
    assert points.min() == 0.0 and points.max() == 1.0
    assert tuple(points[0]) == (0.0, 0.0)     # K-1 sits at the bbox minimum
    assert tuple(points[-1]) == (1.0, 1.0)    # K-22 at the maximum


def test_normalize_attains_zero_and_one_each_axis():
    rng = np.random.default_rng(1)
    kps = [make_keypoints(xy=rng.uniform(50, 800, size=(KEYPOINT_COUNT, 2)), image_id=n) for n in range(5)]
    for pts in normalized_coords(make_dataset(kps)):
        for axis in (0, 1):
            assert pts[:, axis].min() == 0.0
            assert pts[:, axis].max() == 1.0
            assert np.all((pts[:, axis] >= 0.0) & (pts[:, axis] <= 1.0))


def test_normalize_uses_visible_points_only():
    v = np.full(KEYPOINT_COUNT, 2)
    v[0] = 0
    kp = make_keypoints(v=v, overrides={1: (-1e6, -1e6)})
    pts = _normalized(kp)
    assert np.isnan(pts[0]).all()
    assert np.nanmin(pts) == 0.0


def test_normalize_collinear_errors():
    xy = np.column_stack([np.full(KEYPOINT_COUNT, 5.0), np.linspace(0, 100, KEYPOINT_COUNT)])
    with pytest.raises(DegeneratePoseError, match="x-range"):
        _normalized(make_keypoints(xy=xy))


def test_normalize_needs_two_visible():
    v = np.zeros(KEYPOINT_COUNT, dtype=int)
    v[0] = 2
    with pytest.raises(DegeneratePoseError, match="2 visible"):
        _normalized(make_keypoints(v=v))


# ---------------------------------------------------------------------------
# prior fitting


def test_fit_prior_constant_keypoint_gives_point_box():
    ds = generate_population(TEMPLATES["deep_bodied"], 4, seed=3)
    zero_spread = TEMPLATES["deep_bodied"]
    pop = generate_population(
        type(zero_spread)(
            name="frozen",
            mean_layout=zero_spread.mean_layout,
            spread=np.zeros(KEYPOINT_COUNT),
            body_size_range=zero_spread.body_size_range,
            aspect=zero_spread.aspect,
        ),
        4,
        seed=3,
    )
    prior = fit_prior(pop)
    assert np.allclose(prior.mins, prior.maxs, atol=1e-12)
    assert fit_prior(ds).training_set_size == 4


def test_fit_prior_two_image_extremes():
    kp1 = make_keypoints(image_id=1, overrides={5: (10.0 + 0.2 * 840.0, 120.0)})
    kp2 = make_keypoints(image_id=2, overrides={5: (10.0 + 0.3 * 840.0, 120.0)})
    # default layout spans x in [10, 850]; K-5 placed at normalized x 0.2 and 0.3
    prior = fit_prior(make_dataset([kp1, kp2]))
    assert prior.mins[4, 0] == pytest.approx(0.2, abs=1e-12)
    assert prior.maxs[4, 0] == pytest.approx(0.3, abs=1e-12)


def test_fit_prior_deterministic():
    pop = generate_population(TEMPLATES["elongate"], 20, seed=8)
    a = fit_prior(pop)
    b = fit_prior(pop)
    assert np.array_equal(a.mins, b.mins) and np.array_equal(a.maxs, b.maxs)


def test_fit_prior_empty_errors():
    with pytest.raises(ValueError, match="empty"):
        fit_prior(make_dataset([]))


def test_fit_prior_names_degenerate_record():
    xy = np.column_stack([np.full(KEYPOINT_COUNT, 5.0), np.linspace(0, 100, KEYPOINT_COUNT)])
    bad = make_keypoints(xy=xy, image_id=77)
    with pytest.raises(DegeneratePoseError, match="77"):
        fit_prior(make_dataset([bad]))


def test_subset_never_enlarges_extremes():
    pop = generate_population(TEMPLATES["deep_bodied"], 30, seed=5)
    full = fit_prior(pop)
    sub = fit_prior(pop.take(range(10)))
    assert np.all(sub.mins >= full.mins)
    assert np.all(sub.maxs <= full.maxs)


def test_prior_dict_roundtrip():
    prior = fit_prior(generate_population(TEMPLATES["elongate"], 6, seed=1))
    again = prior_from_dict(prior_to_dict(prior))
    assert np.array_equal(again.mins, prior.mins)
    assert np.array_equal(again.maxs, prior.maxs)
    assert again.training_set_size == prior.training_set_size


@pytest.mark.parametrize("species, read", [(None, "other"), ("grouper", "grouper"), ("other", "other")])
def test_prior_from_dict_reads_species_and_an_absent_one_as_other(species, read):
    doc = prior_to_dict(fit_prior(generate_population(TEMPLATES["elongate"], 6, seed=1)))
    if species is None:
        del doc["species"]
    else:
        doc["species"] = species
    assert prior_from_dict(doc).species == read


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("x_min", float("nan"), "K-4: field 'x_min' must be a number in [0, 1], got nan"),
        ("y_max", 1.5, "K-4: field 'y_max' must be a number in [0, 1], got 1.5"),
        ("keypoint", True, "extremes[3]: field 'keypoint' must be an integer in 1..22, got True"),
        ("x_max", -1, "K-4: field 'x_max' must be a number in [0, 1], got -1"),
        ("x_min", "0.1", "K-4: field 'x_min' must be a number in [0, 1], got '0.1'"),
    ],
    ids=["nan", "above-1", "bool-keypoint", "negative", "string"],
)
def test_prior_from_dict_names_the_bad_entry_and_field(field, value, message):
    doc = prior_to_dict(fit_prior(generate_population(TEMPLATES["elongate"], 6, seed=1)))
    doc["extremes"][3][field] = value
    with pytest.raises(SchemaError) as info:
        prior_from_dict(doc)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda doc: doc["extremes"].pop(), "field 'extremes' must be a list of 22 entries"),
        (lambda doc: doc["extremes"][5].pop("y_min"), "extremes[5]: missing field 'y_min'"),
        (lambda doc: doc["extremes"].__setitem__(2, 7), "extremes[2]: missing field 'keypoint'"),
        (lambda doc: doc.pop("training_set_size"), "missing field 'training_set_size'"),
        (lambda doc: doc.update(training_set_size=0), "field 'training_set_size' must be a positive integer, got 0"),
        (lambda doc: doc["extremes"][4].update(y_min=1.0, y_max=0.0),
         "K-5: field 'y_min' exceeds its 'y_max'"),
    ],
    ids=["21-entries", "no-y_min", "entry-not-an-object", "no-size", "zero-size", "min-above-max"],
)
def test_prior_from_dict_rejects_malformed_documents(mutate, message):
    doc = prior_to_dict(fit_prior(generate_population(TEMPLATES["elongate"], 6, seed=1)))
    mutate(doc)
    with pytest.raises(SchemaError) as info:
        prior_from_dict(doc)
    assert str(info.value) == message


def _mins(j, axis, value):
    """Lower extremes of 0.2 for every keypoint, but ``value`` for K-(j + 1) on ``axis``."""
    mins = np.full((KEYPOINT_COUNT, 2), 0.2)
    mins[j, axis] = value
    return mins


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"mins": np.zeros((KEYPOINT_COUNT - 1, 2))}, "prior extremes must have shape (22, 2)"),
        ({"mins": _mins(2, 0, np.nan)}, "K-3: field 'x_min' must be a number in [0, 1], got nan"),
        ({"mins": _mins(6, 1, 0.9)}, "K-7: field 'y_min' exceeds its 'y_max'"),
        ({"training_set_size": 2.0}, "field 'training_set_size' must be a positive integer, got 2.0"),
        ({"species": "salmon"}, "field 'species' must be one of grouper, mottled_naked_carp, bighead_carp, "
                                "common_carp, other, got 'salmon'"),
    ],
    ids=["21-keypoints", "nan-min", "min-above-max", "float-size", "unknown-species"],
)
def test_a_prior_refuses_a_bad_field_at_construction(fields, message):
    good = {"mins": np.full((KEYPOINT_COUNT, 2), 0.2), "maxs": np.full((KEYPOINT_COUNT, 2), 0.8),
            "training_set_size": 5}
    with pytest.raises(SchemaError) as info:
        AnatomicalPrior(**good | fields)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# box construction


def _box(prior, x_min, y_min, x_max, y_max):
    """:func:`dataset_boxes` of one fish whose visible keypoints span exactly the given rectangle: (1, 1, 2) frames."""
    xy = np.linspace((x_min, y_min), (x_max, y_max), KEYPOINT_COUNT)
    return dataset_boxes(prior, make_dataset([make_keypoints(xy=xy)]))


def test_full_extremes_give_full_bbox():
    prior = _point_prior(0.0, 0.0, 1.0, 1.0)
    box = _box(prior, 10.0, 20.0, 110.0, 220.0)
    assert np.allclose(box.k_min, [10.0, 20.0])
    assert np.allclose(box.k_max, [110.0, 220.0])


def test_point_prior_box_direct_substitution():
    prior = _point_prior(0.25, 0.5)
    box = _box(prior, 0.0, 0.0, 100.0, 200.0)
    assert np.all(box.k_min == np.tile([25.0, 100.0], (KEYPOINT_COUNT, 1)))
    assert np.array_equal(box.k_min, box.k_max)


def test_box_translates_with_bbox():
    prior = _point_prior(0.25, 0.5)
    base = _box(prior, 0.0, 0.0, 100.0, 200.0)
    moved = _box(prior, 10.0, 20.0, 110.0, 220.0)
    assert np.allclose(moved.k_min, base.k_min + [10.0, 20.0])
    assert np.allclose(moved.k_max, base.k_max + [10.0, 20.0])


def test_box_scales_with_bbox_extent():
    prior = _point_prior(0.25, 0.5, 0.75, 0.75)
    small = _box(prior, 0.0, 0.0, 128.0, 64.0)
    large = _box(prior, 0.0, 0.0, 256.0, 128.0)
    assert np.allclose(large.k_min, 2.0 * small.k_min)
    assert np.allclose(large.k_max, 2.0 * small.k_max)


def test_box_rejects_empty_bbox():
    with pytest.raises(DegeneratePoseError, match="zero x-range"):
        _box(_point_prior(), 5.0, 5.0, 5.0, 10.0)


# ---------------------------------------------------------------------------
# ACR loss and gradient (dyadic extents keep the arithmetic exact)


def _dyadic_box():
    prior = _point_prior(0.25, 0.25, 0.75, 0.75)
    return _box(prior, 0.0, 0.0, 128.0, 128.0)  # boxes span [32, 96]^2


def _inside_preds():
    """One fish, (1, 22, 2), every keypoint inside its box."""
    return np.tile([64.0, 64.0], (1, KEYPOINT_COUNT, 1))


def _loss(preds, box) -> float:
    return float(acr_hinge(preds, box)[0].sum())


def test_acr_zero_inside():
    assert _loss(_inside_preds(), _dyadic_box()) == 0.0


def test_acr_single_active_hinge_is_five():
    preds = _inside_preds()
    preds[0, 3, 0] = 101.0  # k_max.x = 96, excess exactly 5
    assert _loss(preds, _dyadic_box()) == 5.0


def test_acr_below_both_axes_sums_components():
    preds = _inside_preds()
    preds[0, 7] = (30.0, 29.0)  # k_min = 32: violations 2 and 3
    assert _loss(preds, _dyadic_box()) == 5.0


def test_acr_is_componentwise_l1_violation():
    box = _dyadic_box()
    preds = _inside_preds()
    preds[0, 0] = (100.0, 20.0)
    preds[0, 9] = (16.0, 120.0)
    v = acr_hinge(preds, box)[0][0]
    assert v[0, 0] == 4.0 and v[0, 1] == 12.0
    assert v[9, 0] == 16.0 and v[9, 1] == 24.0
    assert _loss(preds, box) == v.sum()


def test_acr_doubling_violation_doubles_contribution():
    box = _dyadic_box()
    a = _inside_preds()
    a[0, 5, 0] = 96.0 + 7.0
    b = _inside_preds()
    b[0, 5, 0] = 96.0 + 14.0
    assert _loss(b, box) == 2.0 * _loss(a, box)


def test_acr_convexity_along_segments():
    rng = np.random.default_rng(12)
    box = _dyadic_box()
    for _ in range(25):
        a = rng.uniform(-50, 200, size=(1, KEYPOINT_COUNT, 2))
        b = rng.uniform(-50, 200, size=(1, KEYPOINT_COUNT, 2))
        lam = rng.uniform()
        mid = _loss(lam * a + (1 - lam) * b, box)
        assert mid <= lam * _loss(a, box) + (1 - lam) * _loss(b, box) + 1e-9


def test_acr_gradient_values():
    box = _dyadic_box()
    preds = _inside_preds()
    assert np.all(acr_hinge(preds, box)[1] == 0.0)
    preds[0, 2, 0] = 120.0   # above k_max.x
    preds[0, 4, 1] = 10.0    # below k_min.y
    preds[0, 6, 0] = 96.0    # exactly on the boundary
    g = acr_hinge(preds, box)[1][0]
    assert g[2, 0] == 1.0 and g[2, 1] == 0.0
    assert g[4, 1] == -1.0
    assert g[6, 0] == 0.0


def test_acr_gradient_matches_finite_differences():
    # 10,000 coordinate probes, all at least 1e-2 px from every hinge boundary
    rng = np.random.default_rng(99)
    prior = _point_prior(0.2, 0.3, 0.7, 0.85)
    box = _box(prior, 50.0, 80.0, 50.0 + 640.0, 80.0 + 320.0)
    edges_x = (box.k_min[0, 0, 0], box.k_max[0, 0, 0])
    edges_y = (box.k_min[0, 0, 1], box.k_max[0, 0, 1])
    step = 1e-4
    margin = 1e-2
    probes = 0
    worst = 0.0
    while probes < 10_000:
        pts = rng.uniform((-200.0, -200.0), (1000.0, 600.0), size=(KEYPOINT_COUNT, 2))
        clear_x = np.all(np.abs(pts[:, 0][:, None] - np.array(edges_x)) >= margin, axis=1)
        clear_y = np.all(np.abs(pts[:, 1][:, None] - np.array(edges_y)) >= margin, axis=1)
        keep = clear_x & clear_y
        if not keep.all():
            continue
        analytic = acr_hinge(pts[None], box)[1][0]
        for i in range(KEYPOINT_COUNT):
            for axis in (0, 1):
                plus = pts[None].copy()
                plus[0, i, axis] += step
                minus = pts[None].copy()
                minus[0, i, axis] -= step
                fd = (_loss(plus, box) - _loss(minus, box)) / (2 * step)
                err = abs(analytic[i, axis] - fd) / max(1.0, abs(analytic[i, axis]), abs(fd))
                worst = max(worst, err)
                probes += 1
    assert worst < 1e-5


def test_acr_zero_on_training_ground_truth():
    for size in (1, 2, 10, 120):
        pop = generate_population(TEMPLATES["deep_bodied"], size, seed=size)
        prior = fit_prior(pop)
        assert np.all(acr_hinge(pop.xy, dataset_boxes(prior, pop))[0] == 0.0)


def test_box_for_keypoints_uses_own_bbox():
    pop = generate_population(TEMPLATES["elongate"], 3, seed=0)
    prior = fit_prior(pop)
    first = pop.take([0])
    assert _loss(first.xy, dataset_boxes(prior, first)) == 0.0
    assert acr_hinge(pop.xy, dataset_boxes(prior, pop))[0].sum() == 0.0


def test_acr_hinge_batch_equals_single_sample_calls():
    # dyadic frames and extremes, so points placed on a box edge normalize exactly onto it
    prior = _point_prior(0.25, 0.25, 0.75, 0.75)
    rng = np.random.default_rng(11)
    n = 6
    origins = rng.integers(0, 400, size=(n, 1, 2)).astype(np.float64)
    extents = 2.0 ** rng.integers(6, 10, size=(n, 1, 2))
    norm = rng.choice([-0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5], size=(n, KEYPOINT_COUNT, 2))
    norm += rng.uniform(-0.01, 0.01, size=norm.shape) * (rng.random(norm.shape) < 0.5)
    xy = origins + norm * extents
    batch = BoxConstraint(origins, extents, prior.mins, prior.maxs)
    violations, signs = acr_hinge(xy, batch)
    assert violations.shape == signs.shape == (n, KEYPOINT_COUNT, 2)
    on_edge = ((xy - origins) / extents == 0.25) | ((xy - origins) / extents == 0.75)
    assert on_edge.any() and set(np.unique(signs)) == {-1.0, 0.0, 1.0}
    assert np.all(violations[on_edge] == 0.0) and np.all(signs[on_edge] == 0.0)
    for i in range(n):
        box = BoxConstraint(origins[i, 0], extents[i, 0], prior.mins, prior.maxs)    # one image's (2,) frame
        one_violations, one_signs = acr_hinge(xy[i], box)
        assert np.array_equal(violations[i], one_violations)
        assert np.array_equal(signs[i], one_signs)
        assert float(one_violations.sum()) == float(violations[i].sum())


def test_acr_hinge_signs_are_plus_zero_inside_on_edge_and_at_nan():
    """``acr`` writes the signs into its report, so a -0.0 would change the document's bytes."""
    box = _dyadic_box()  # boxes span [32, 96]^2
    preds = _inside_preds()
    preds[0, 1] = (32.0, 96.0)      # on the lower x edge and the upper y edge
    preds[0, 2] = (np.nan, 64.0)
    preds[0, 3] = (10.0, 120.0)     # below in x, above in y
    full = BoxConstraint(*(np.broadcast_to(a, (1, KEYPOINT_COUNT, 2)).copy()
                           for a in (box.origin, box.extent, box.nmin, box.nmax)))
    for signs in (acr_hinge(preds, box)[1][0], acr_hinge(preds, full)[1][0]):
        zero = np.ones(signs.shape, dtype=bool)
        zero[3] = False
        assert np.all(signs[zero] == 0.0) and not np.signbit(signs[zero]).any()
        assert signs[3].tolist() == [-1.0, 1.0]


# ---------------------------------------------------------------------------
# whole-file prior and boxes: the first bad record is named as one at a time


def _population_with_bad_records(kinds):
    """Nine generated fish; the fish with id k (from ``kinds``) made degenerate in the given way."""
    pop = generate_population(TEMPLATES["deep_bodied"], 9, seed=3)
    columns = pop.xy.copy(), pop.v.copy()
    for image_id, kind in kinds.items():
        xy, v = (column[image_id - 1] for column in columns)    # views: the edits below land in the columns
        if kind == "too_few":
            v[1:] = 0
        elif kind == "zero_x":
            xy[:, 0] = 123.25
        elif kind == "zero_y":
            xy[v > 0, 1] = 77.5
            v[3] = 0
            xy[3, 1] = 5.0        # a hidden keypoint never counts
        elif kind == "nan_x":
            xy[6, 0] = np.nan
    return Dataset(*columns, pop.image_ids, pop.width, pop.height, pop.species, "train")


def _first_error(call, dataset):
    """The type and text of the first error ``call`` raises on a one-row dataset of ``dataset``'s rows, in order."""
    for n in range(len(dataset)):
        try:
            call(dataset.take([n]))
        except (DegeneratePoseError, ValueError) as exc:
            return type(exc), str(exc)
    return None


_CASES = {
    "too_few": {5: "too_few"},
    "zero_x": {5: "zero_x"},
    "zero_y": {5: "zero_y"},
    "two_bad": {4: "zero_y", 7: "too_few"},
    "nan_x": {5: "nan_x"},
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_fit_prior_names_first_bad_record_like_per_record_path(case):
    train = _population_with_bad_records(_CASES[case])

    def one(row):
        try:
            body_frames(row.xy, row.v, row.image_ids)
        except DegeneratePoseError as exc:
            raise DegeneratePoseError(f"record {row.image_ids[0]!r} failed normalization: {exc}") from exc

    expected_type, expected = _first_error(one, train)
    with pytest.raises(DegeneratePoseError) as exc:
        fit_prior(train)
    assert expected_type is DegeneratePoseError and str(exc.value) == expected
    literal = {
        "too_few": "record 5 failed normalization: image 5: need at least 2 visible keypoints, got 1",
        "zero_x": "record 5 failed normalization: image 5: zero x-range across visible keypoints",
        "zero_y": "record 5 failed normalization: image 5: zero y-range across visible keypoints",
        "two_bad": "record 4 failed normalization: image 4: zero y-range across visible keypoints",
        "nan_x": "record 5 failed normalization: image 5: non-finite x-range across visible keypoints",
    }
    assert str(exc.value) == literal[case]


@pytest.mark.parametrize("case", sorted(_CASES))
def test_dataset_boxes_raise_like_box_for_keypoints(case):
    prior = fit_prior(generate_population(TEMPLATES["deep_bodied"], 20, seed=4))
    pred = _population_with_bad_records(_CASES[case])
    expected_type, expected = _first_error(lambda row: dataset_boxes(prior, row), pred)
    with pytest.raises(expected_type) as exc:
        dataset_boxes(prior, pred)
    assert type(exc.value) is expected_type and str(exc.value) == expected
    if case == "zero_x":
        assert expected_type is DegeneratePoseError and expected == "image 5: zero x-range across visible keypoints"
    elif case in ("zero_y", "two_bad"):   # record 4 of two_bad comes before record 7
        image_id = 4 if case == "two_bad" else 5
        assert expected_type is DegeneratePoseError
        assert expected == f"image {image_id}: zero y-range across visible keypoints"
    elif case == "nan_x":
        assert expected_type is DegeneratePoseError
        assert expected == "image 5: non-finite x-range across visible keypoints"
    else:
        assert expected == "image 5: need at least 2 visible keypoints, got 1"


def test_dataset_boxes_equal_per_record_boxes():
    prior = fit_prior(generate_population(TEMPLATES["elongate"], 20, seed=8))
    pred = generate_population(TEMPLATES["elongate"], 12, seed=9)
    boxes = dataset_boxes(prior, pred)
    hinge, signs = acr_hinge(pred.xy, boxes)
    for n in range(len(pred)):
        visible = pred.xy[n][pred.v[n] > 0]    # the record's own frame, restated
        lo, hi = visible.min(axis=0), visible.max(axis=0)
        one = BoxConstraint(lo, hi - lo, prior.mins, prior.maxs)
        assert np.array_equal(boxes.origin[n, 0], one.origin) and np.array_equal(boxes.extent[n, 0], one.extent)
        one_hinge, one_signs = acr_hinge(pred.xy[n], one)
        assert np.array_equal(hinge[n], one_hinge)
        assert np.array_equal(signs[n], one_signs)
