import math

import numpy as np
import pytest

from phenokey.anatomy import fit_prior, normalized_coords
from phenokey.dataset import Dataset, validate
from phenokey.metrics import evaluate_datasets, shortest_phenotype_lengths
from phenokey.schema import KEYPOINT_COUNT, SPECIES
from phenokey.synth import (
    TEMPLATES,
    PerturbationModel,
    SpeciesTemplate,
    _streams,
    generate_population,
    load_template,
    perturb,
    template_from_dict,
    template_to_dict,
)

from conftest import rows
from oracles import truncated_rayleigh_within


def test_builtin_templates_validate():
    for tpl in TEMPLATES.values():
        tpl.validate()


def test_template_dict_roundtrip():
    tpl = TEMPLATES["deep_bodied"]
    again = template_from_dict(template_to_dict(tpl))
    assert np.allclose(again.mean_layout, tpl.mean_layout)
    assert np.allclose(again.spread, tpl.spread)
    assert again.body_size_range == tpl.body_size_range


def test_template_invariant_rejected():
    bad = SpeciesTemplate(
        name="bad",
        mean_layout=TEMPLATES["deep_bodied"].mean_layout,
        spread=np.full(KEYPOINT_COUNT, 0.2),  # 3 sigma pokes out of [0, 1]
        body_size_range=(100.0, 200.0),
    )
    with pytest.raises(ValueError, match="3"):
        generate_population(bad, 3, seed=0)


def test_zero_spread_fish_are_scaled_copies():
    tpl = TEMPLATES["deep_bodied"]
    frozen = SpeciesTemplate(
        name="frozen",
        mean_layout=tpl.mean_layout,
        spread=np.zeros(KEYPOINT_COUNT),
        body_size_range=tpl.body_size_range,
        aspect=tpl.aspect,
    )
    pop = generate_population(frozen, 6, seed=5)
    shapes = normalized_coords(pop)
    for pts in shapes[1:]:
        assert np.allclose(pts, shapes[0], atol=1e-12)


def test_same_seed_same_population():
    a = generate_population(TEMPLATES["elongate"], 10, seed=123)
    b = generate_population(TEMPLATES["elongate"], 10, seed=123)
    assert a == b


def test_per_fish_seeding_gives_prefix_stability():
    small = generate_population(TEMPLATES["elongate"], 4, seed=9)
    large = generate_population(TEMPLATES["elongate"], 9, seed=9)
    assert large.take(range(4)) == small


def test_generated_population_validates():
    for name in TEMPLATES:
        pop = generate_population(TEMPLATES[name], 40, seed=3)
        assert validate(pop) == []


def test_prior_extremes_bracket_sample_means():
    pop = generate_population(TEMPLATES["deep_bodied"], 500, seed=7)
    prior = fit_prior(pop)
    normalized = normalized_coords(pop)
    means = normalized.mean(axis=0)
    assert np.all(prior.mins <= means + 1e-12)
    assert np.all(prior.maxs >= means - 1e-12)


def test_prior_contains_every_training_sample():
    pop = generate_population(TEMPLATES["elongate"], 120, seed=2)
    prior = fit_prior(pop)
    for pts in normalized_coords(pop):
        assert np.all(pts >= prior.mins - 0.0)
        assert np.all(pts <= prior.maxs + 0.0)


def test_population_size_validation():
    with pytest.raises(ValueError, match=">= 1"):
        generate_population(TEMPLATES["elongate"], 0, seed=0)
    # a fish index must stay one SeedSequence word
    with pytest.raises(ValueError, match=r"< 2\*\*32"):
        generate_population(TEMPLATES["elongate"], 2**32, seed=0)


@pytest.mark.parametrize("seed", [-1, 2.5, True, "7"])
def test_seed_must_be_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match=f"seed must be a nonnegative integer, got {seed!r}"):
        generate_population(TEMPLATES["elongate"], 3, seed=seed)
    with pytest.raises(ValueError, match=f"seed must be a nonnegative integer, got {seed!r}"):
        PerturbationModel("uniform_px", 1.0, seed=seed)


# make_toy_problem draws its prior population from seed (2 * s + 1) * 15485863; a seed past the float range is
# still a seed, and its 42 words take SeedSequence's mixing beyond the pool
_STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, *((2 * s + 1) * 15485863 for s in (0, 1, 4242, 2**31)),
                 pytest.param(10**400, id="10**400")]


@pytest.mark.parametrize("tail", [(), (7919,)])
@pytest.mark.parametrize("seed", _STREAM_SEEDS)
def test_streams_start_where_default_rng_starts(seed, tail):
    indices = [*range(1200), 2**16, 2**31 - 1, 2**31, 2**32 - 2, 2**32 - 1]
    starts = [(idx, rng.bit_generator.state) for idx, rng in _streams(seed, indices, tail)]
    assert [idx for idx, _ in starts] == indices
    for idx, state in starts:
        assert state == np.random.PCG64(np.random.SeedSequence([seed, idx, *tail])).state


def _truncated_normal(rng, shape):
    """Standard normals with rejection outside +/- 3, drawn as the per-fish loop drew them; also whether any was
    redrawn."""
    out = rng.standard_normal(shape)
    bad = np.abs(out) > 3.0
    redrawn = bool(bad.any())
    while bad.any():
        out[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(out) > 3.0
    return out, redrawn


def _generate_one_fish_at_a_time(template, n, seed):
    """Reference population: one ``default_rng([seed, idx])`` per fish; also the number of fish that redrew."""
    s_min, s_max = template.body_size_range
    xy, width, height, redrawn = np.empty((n, KEYPOINT_COUNT, 2)), np.empty(n), np.empty(n), 0
    for idx in range(n):
        rng = np.random.default_rng([int(seed), idx])
        size = float(rng.uniform(s_min, s_max))
        off_x = float(rng.uniform(0.15, 0.50)) * size
        off_y = float(rng.uniform(0.15, 0.50)) * size * template.aspect
        z, again = _truncated_normal(rng, (KEYPOINT_COUNT, 2))
        redrawn += again
        pos = template.mean_layout + z * template.spread[:, None]
        xy[idx, :, 0] = off_x + pos[:, 0] * size
        xy[idx, :, 1] = off_y + pos[:, 1] * size * template.aspect
        width[idx] = math.ceil(2 * off_x + size)
        height[idx] = math.ceil(2 * off_y + size * template.aspect)
    return xy, width, height, redrawn


@pytest.mark.parametrize("name", list(TEMPLATES))
@pytest.mark.parametrize("seed", [0, 31, 2**32 + 5, 2**64 + 3])
def test_generate_population_equals_per_fish_reference(name, seed):
    pop = generate_population(TEMPLATES[name], 150, seed=seed)
    xy, width, height, redrawn = _generate_one_fish_at_a_time(TEMPLATES[name], 150, seed)
    assert redrawn > 5    # the sample exercises the +/- 3 sigma redraw
    assert np.array_equal(pop.xy, xy)
    assert np.array_equal(pop.width, width) and np.array_equal(pop.height, height)


def test_load_template_by_name_and_file(tmp_path):
    assert load_template("deep_bodied") is TEMPLATES["deep_bodied"]
    path = tmp_path / "custom.json"
    import json

    path.write_text(json.dumps(template_to_dict(TEMPLATES["elongate"])))
    loaded = load_template(str(path))
    assert np.allclose(loaded.mean_layout, TEMPLATES["elongate"].mean_layout)


# ---------------------------------------------------------------------------
# perturbations


def test_perturb_zero_magnitude_is_identity():
    gt = generate_population(TEMPLATES["deep_bodied"], 8, seed=1)
    pred = perturb(gt, PerturbationModel("uniform_px", 0.0, seed=2))
    assert pred == gt


def test_perturb_uniform_componentwise_bound():
    gt = generate_population(TEMPLATES["deep_bodied"], 30, seed=4)
    pred = perturb(gt, PerturbationModel("uniform_px", 5.0, seed=5))
    d = np.hypot(*(pred.xy - gt.xy).T)
    assert np.all(d <= 5.0 * np.sqrt(2.0) + 1e-12)


def test_perturb_deterministic_per_seed():
    gt = generate_population(TEMPLATES["elongate"], 6, seed=0)
    a = perturb(gt, PerturbationModel("proportional_to_shortest_phenotype", 0.05, seed=9))
    b = perturb(gt, PerturbationModel("proportional_to_shortest_phenotype", 0.05, seed=9))
    assert a == b


def test_perturbed_dataset_serializes(tmp_path):
    from phenokey.dataset import parse_coco, serialize_coco

    gt = generate_population(TEMPLATES["deep_bodied"], 10, seed=6)
    pred = perturb(gt, PerturbationModel("uniform_px", 8.0, seed=7))
    out = tmp_path / "pred.json"
    serialize_coco(pred, out)
    assert parse_coco(out) == pred


def _perturb_one_fish_at_a_time(gt, model):
    """Reference perturbation: phenotype lengths computed for each fish on its own."""
    moved, sizes = [], []
    for idx, rec in enumerate(rows(gt)):
        rng = np.random.default_rng([int(model.seed), idx, 7919])
        kp = rec.keypoints
        if model.mode == "uniform_px":
            noise = rng.uniform(-model.magnitude, model.magnitude, size=(KEYPOINT_COUNT, 2))
        else:
            pheno = shortest_phenotype_lengths(kp.xy[None], kp.v[None])[0]
            sigma = np.where(np.isfinite(pheno), model.magnitude * pheno, 0.0)
            noise = _truncated_normal(rng, (KEYPOINT_COUNT, 2))[0] * sigma[:, None]
        xy = np.maximum(kp.xy + noise, 0.0)
        width = max(rec.width, float(np.ceil(xy[:, 0].max())))
        height = max(rec.height, float(np.ceil(xy[:, 1].max())))
        moved.append(xy)
        sizes.append((width, height))
    width, height = np.reshape(sizes, (-1, 2)).T
    return Dataset(np.reshape(moved, (-1, KEYPOINT_COUNT, 2)), gt.v, gt.image_ids, width, height, gt.species, gt.role)


@pytest.mark.parametrize("mode,magnitude", [("uniform_px", 6.0), ("proportional_to_shortest_phenotype", 0.08)])
def test_perturb_equals_per_fish_reference(mode, magnitude):
    gt = generate_population(TEMPLATES["elongate"], 40, seed=13, role="test")
    hidden = gt.v.copy()
    for k, v in enumerate(hidden):
        v[[k % KEYPOINT_COUNT, (5 * k + 3) % KEYPOINT_COUNT]] = 0
        if k % 7 == 0:
            v[[0, 11]] = 0    # keypoint 11 keeps no measurable related phenotype
            v[10] = 2
    gt = Dataset(gt.xy, hidden, gt.image_ids, gt.width, gt.height, gt.species, "test")
    for seed in (21, 2**32 + 5, 2**64 + 3):    # seeds of one, two and three SeedSequence words
        model = PerturbationModel(mode, magnitude, seed=seed)
        pred = perturb(gt, model)
        reference = _perturb_one_fish_at_a_time(gt, model)
        assert pred == reference
        assert pred.role == "test"
        assert pred.width.tolist() == reference.width.tolist() and pred.height.tolist() == reference.height.tolist()
        assert pred != gt
        if mode != "uniform_px":
            assert np.array_equal(pred.xy[::7, 10], gt.xy[::7, 10])


@pytest.mark.parametrize(
    "mode, magnitude", [("uniform_px", 6.0), ("proportional_to_shortest_phenotype", 0.08)]
)
def test_perturb_keeps_hidden_nan_coordinates(mode, magnitude):
    steps = np.arange(KEYPOINT_COUNT)
    xy = np.stack([100.0 + 30.0 * steps, 80.0 + 10.0 * steps], axis=1)
    v = np.full(KEYPOINT_COUNT, 2, dtype=np.int64)
    xy[[4, 17]] = np.nan
    v[[4, 17]] = 0
    width, height = float(np.ceil(np.nanmax(xy[:, 0]))), float(np.ceil(np.nanmax(xy[:, 1])))
    gt = Dataset(xy[None], v[None], [1], [width], [height], [SPECIES.index("other")])
    assert validate(gt) == []
    model = PerturbationModel(mode, magnitude, seed=3)
    out = perturb(gt, model)
    moved = out.xy[0]
    assert np.isnan(moved[[4, 17]]).all()
    assert np.isfinite(np.delete(moved, [4, 17], axis=0)).all()
    assert not np.array_equal(np.delete(moved, [4, 17], axis=0), np.delete(xy, [4, 17], axis=0))
    assert out.width[0] == max(width, float(np.ceil(np.nanmax(moved[:, 0]))))
    assert out.height[0] == max(height, float(np.ceil(np.nanmax(moved[:, 1]))))

    hidden = Dataset(np.full((1, KEYPOINT_COUNT, 2), np.nan), np.zeros((1, KEYPOINT_COUNT), dtype=np.int64), [2],
                     [640.0], [480.0], [SPECIES.index("other")])
    out = perturb(hidden, model)
    assert np.isnan(out.xy).all()
    assert (out.width[0], out.height[0]) == (640.0, 480.0)


def test_invalid_perturbation_model():
    with pytest.raises(ValueError, match="mode"):
        PerturbationModel("bogus", 1.0)
    for magnitude in (-1.0, math.nan, math.inf, True, 10**400):
        with pytest.raises(ValueError, match="magnitude must be a finite nonnegative number"):
            PerturbationModel("uniform_px", magnitude)


def test_proportional_noise_pmp_matches_analytic_probability():
    # sigma = 0.05 * shortest phenotype per axis, truncated at 3 sigma;
    # P(deviation / phenotype < 0.1) = P(sqrt(z1^2+z2^2) < 2) for truncated normals
    gt = generate_population(TEMPLATES["deep_bodied"], 1000, seed=11)
    pred = perturb(gt, PerturbationModel("proportional_to_shortest_phenotype", 0.05, seed=12))
    observed = evaluate_datasets(gt, pred, metrics=("pmp",))["pmp"]["mean"]    # over the defined keypoints
    expected = truncated_rayleigh_within(radius=2.0, cutoff=3.0)
    assert 0.8 < expected < 0.9  # sanity on the oracle itself
    assert observed == pytest.approx(expected, abs=0.012)
