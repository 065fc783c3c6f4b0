import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from phenokey import optim
from phenokey.anatomy import acr_hinge
from phenokey.errors import DivergenceError, GradNormFallbackWarning
from phenokey.metrics import evaluate_datasets
from phenokey.optim import (
    DIVERGENCE_LIMIT,
    VIOLATION_TOLERANCE_PX,
    StepKernel,
    ToyPredictor,
    TrainConfig,
    TraceRow,
    TrainTrace,
    _CORRUPT_KEYPOINTS,
    acr_benchmark_scenario,
    coords_to_dataset,
    grad_check,
    gradnorm_step,
    least_squares_solution,
    make_toy_problem,
    train,
)

from conftest import linear_problem


def _param_distance(a: ToyPredictor, b: ToyPredictor) -> float:
    return float(
        np.sqrt(np.sum((a.weights - b.weights) ** 2) + np.sum((a.bias - b.bias) ** 2))
    )


def _mean_pmp(predictor: ToyPredictor, problem) -> float:
    pred = coords_to_dataset(predictor.predict(problem.features), problem.population)
    return evaluate_datasets(problem.population, pred, metrics=("pmp",))["pmp"]["mean"]


# ---------------------------------------------------------------------------
# combined loss


def _sample_loss(pred_coords, gt_coords, box, weights=(1.0, 1.0)):
    """(total, L_mse, L_acr) of one sample from the trainer's step kernel: zero weights, the prediction as bias."""
    kernel = StepKernel(ToyPredictor(np.zeros((44, 1)), pred_coords), np.zeros((1, 1)), gt_coords[None], box)
    l_mse, l_acr = kernel.losses()
    return weights[0] * l_mse + weights[1] * l_acr, l_mse, l_acr


def test_combined_loss_zero_at_truth_inside_box():
    problem = make_toy_problem(n=4, feature_dim=5, seed=1)
    coords = problem.targets[0]
    boxes = problem.boxes()
    box = replace(boxes, origin=boxes.origin[0], extent=boxes.extent[0], nmin=boxes.nmin[0], nmax=boxes.nmax[0])
    total, l_mse, l_acr = _sample_loss(coords, coords, box)
    assert total == 0.0 and l_mse == 0.0 and l_acr == 0.0


def test_combined_loss_pure_mse_when_acr_weight_zero():
    problem = make_toy_problem(n=4, feature_dim=5, seed=1)
    gt = problem.targets[0]
    pred = gt + 1000.0  # far outside every box
    boxes = problem.boxes()
    box = replace(boxes, origin=boxes.origin[0], extent=boxes.extent[0], nmin=boxes.nmin[0], nmax=boxes.nmax[0])
    total, l_mse, l_acr = _sample_loss(pred, gt, box, (1.0, 0.0))
    assert l_acr > 0
    assert total == pytest.approx(l_mse)


def test_combined_loss_one_px_everywhere_inside_box():
    from phenokey.anatomy import AnatomicalPrior, dataset_boxes
    from phenokey.schema import KEYPOINT_COUNT

    problem = make_toy_problem(n=4, feature_dim=5, seed=1)
    gt = problem.targets[0]
    pts = gt.reshape(KEYPOINT_COUNT, 2)
    # box covering the whole bounding rectangle: any interior point is admissible
    prior = AnatomicalPrior(
        mins=np.zeros((KEYPOINT_COUNT, 2)), maxs=np.ones((KEYPOINT_COUNT, 2)), training_set_size=1
    )
    box = dataset_boxes(prior, coords_to_dataset(gt[None], problem.population.take([0])))    # gt's own frame
    center = np.tile((pts.min(axis=0) + pts.max(axis=0)) / 2.0, KEYPOINT_COUNT)
    direction = np.sign(center - gt)
    direction[direction == 0] = 1.0
    pred = gt + direction  # one pixel toward the interior on every coordinate
    total, l_mse, l_acr = _sample_loss(pred, gt, box)
    assert l_mse == pytest.approx(1.0)
    assert l_acr == 0.0
    assert total == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# gradient-norm balancing


def test_gradnorm_symmetric_fixed_point():
    assert gradnorm_step((1.0, 1.0), (3.0, 3.0), (0.4, 0.4), 1.5, lr_w=0.025) == (1.0, 1.0)


def test_gradnorm_zero_norm_task_gains_weight():
    w_mse, w_acr = gradnorm_step((1.0, 1.0), (0.0, 3.0), (0.4, 0.4), 1.5, lr_w=0.025)
    assert w_mse > 1.0  # the zero-gradient task ends up above its old share
    assert w_mse + w_acr == pytest.approx(2.0)


def test_gradnorm_weights_always_sum_to_two_and_stay_positive():
    rng = np.random.default_rng(0)
    w = (1.0, 1.0)
    for _ in range(200):
        norms = rng.uniform(0, 50, size=2)
        ratios = rng.uniform(0.01, 20, size=2) / (10.0, 5.0)
        w = gradnorm_step(w, norms, ratios, 1.5, lr_w=rng.uniform(0.001, 0.2))
        assert w[0] > 0 and w[1] > 0
        assert w[0] + w[1] == pytest.approx(2.0, abs=1e-12)


# the ids keep these cases' names from when the update took the losses rather than their ratios
@pytest.mark.parametrize("weights, norms, ratios, message", [
    ((1.0, 1.0), (1.0, 2.0, 3.0), (1.0, 1.0), "two entries"),
    ((1.0, 1.0), (1.0, 2.0), 4.0, "two entries"),
    ((1.0, 1.0), ([1.0], [2.0]), (1.0, 1.0), "two entries"),
    ((1.0, 1.0), (-1.0, 2.0), (1.0, 1.0), "norms must be nonnegative"),
    ((1.0, 1.0), (1.0, 2.0), (1.0, -1.0), "ratios must be nonnegative"),
    ((1.0, 1.0, 0.0), (1.0, 2.0), (1.0, 1.0), "two entries"),
], ids=[
    "norms0-losses0-two entries",
    "norms1-4.0-two entries",
    "norms2-losses2-two entries",
    "norms3-losses3-norms must be nonnegative",
    "norms4-losses4-losses must be nonnegative",
    "three-weights",
])
def test_gradnorm_rejects_malformed_inputs(weights, norms, ratios, message):
    with pytest.raises(ValueError, match=message):
        gradnorm_step(weights, norms, ratios, 1.5, 0.025)


def _numpy_gradnorm_step(weights, grad_norms, ratios, alpha: float, lr_w: float) -> tuple[float, float]:
    """The balancing update as the trainer ran it on length-2 numpy arrays: the reference for the float form."""
    norms = np.asarray(grad_norms, dtype=np.float64)
    ratios = np.asarray(ratios, dtype=np.float64)
    wv = np.array(weights, dtype=np.float64)
    weighted = wv * norms
    if np.mean(ratios) == 0.0:
        return weights
    rate = ratios / np.mean(ratios)
    target = weighted.mean() * rate**alpha
    grad_w = np.sign(weighted - target) * norms
    new = np.maximum(wv - lr_w * grad_w, 1e-6)
    new = 2.0 * new / new.sum()
    return float(new[0]), float(new[1])


def _gradnorm_draws(rng, count):
    """(weights, norms, ratios, alpha, lr) draws: random, zero norms, exact ties, zero and NaN norms and ratios.

    Each ratio is a loss over a step-0 loss, divided as the trainer divides them.
    """
    for i in range(count):
        kind = i % 8
        w_mse = rng.uniform(1e-6, 2.0)
        l0 = tuple(rng.uniform(0.01, 50.0, size=2).tolist())
        norms = rng.uniform(0.0, 50.0, size=2).tolist()
        losses = rng.uniform(0.0, 40.0, size=2).tolist()
        if kind == 1:    # one or both norms zero
            norms[i % 2] = 0.0
            if i % 3 == 0:
                norms[1 - i % 2] = 0.0
        elif kind == 2:  # exact tie: equal weights, norms and loss ratios give weighted == target
            w_mse, l0, norms[1], losses[1] = 1.0, (l0[0], l0[0]), norms[0], losses[0]
        elif kind == 3:  # a tie through zero: both weighted norms and one ratio are zero
            norms, losses[i % 2] = [0.0, 0.0], 0.0
        elif kind == 4:  # one task converged, or both
            losses[i % 2] = 0.0
            if i % 3 == 0:
                losses[1 - i % 2] = 0.0
        elif kind == 5:  # a NaN norm, or a NaN loss, which leaves every gap NaN
            (norms, losses)[i // 32 % 2][i // 64 % 2] = np.nan
        elif kind == 6:  # large steps drive a weight to the clamp
            norms = rng.uniform(0.0, 5e3, size=2).tolist()
        ratios = [losses[0] / l0[0], losses[1] / l0[1]]
        if kind == 7:    # numpy arrays in, as a caller holding arrays passes them
            norms, ratios = np.array(norms), np.array(ratios)
        alpha = (0.5, 1.0, 1.5, 2.0)[(i // 8) % 4]
        yield (w_mse, 2.0 - w_mse), norms, ratios, alpha, rng.uniform(0.0, 0.2)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def test_gradnorm_step_is_bit_equal_to_numpy_reference():
    rng = np.random.default_rng(2018)
    kinds = set()
    for w, norms, ratios, alpha, lr in _gradnorm_draws(rng, 12_000):
        got, want = gradnorm_step(w, norms, ratios, alpha, lr), _numpy_gradnorm_step(w, norms, ratios, alpha, lr)
        assert _bits(got) == _bits(want), (w, norms, ratios, alpha, lr)
        assert type(got) is tuple and [type(x) for x in got] == [float, float]
        kinds.add(("nan" if np.isnan(got[0]) else "clamped" if min(got) < 1e-5
                   else "kept" if got == w else "moved", alpha))
    assert {kind for kind, _ in kinds} == {"nan", "clamped", "kept", "moved"}
    assert {alpha for _, alpha in kinds} == {0.5, 1.0, 1.5, 2.0}


@pytest.mark.parametrize("alpha", [2000.0, -1.0])
def test_gradnorm_step_takes_numpy_inf_where_a_float_power_raises(alpha):
    """A converged task makes one loss ratio 0 and the other 2: 2.0 ** 2000 overflows and 0.0 ** -1 divides by zero."""
    with np.errstate(over="ignore", divide="ignore"):
        want = _numpy_gradnorm_step((0.7, 1.3), (3.0, 5.0), (0.6, 0.0), alpha, 0.05)
    got = gradnorm_step((0.7, 1.3), (3.0, 5.0), (0.6, 0.0), alpha, 0.05)
    assert _bits(got) == _bits(want)
    assert got != (0.7, 1.3)


# ---------------------------------------------------------------------------
# training


@pytest.mark.parametrize(
    "field, value, message",
    [
        # the id keeps this case's name from before the integer messages shared one wording
        pytest.param("steps", -1, "steps must be a nonnegative integer, got -1",
                     id="steps--1-steps must be nonnegative, got -1"),
        ("steps", 2.5, "steps must be a nonnegative integer, got 2.5"),
        ("steps", True, "steps must be a nonnegative integer, got True"),
        ("lr", float("nan"), "lr must be a finite nonnegative number, got nan"),
        ("lr_decay", -1.0, "lr_decay must be a finite nonnegative number, got -1.0"),
        ("init_w_mse", -0.5, "init_w_mse must be a finite nonnegative number, got -0.5"),
        ("init_w_acr", float("inf"), "init_w_acr must be a finite nonnegative number, got inf"),
        ("alpha", "1.5", "alpha must be a finite nonnegative number, got '1.5'"),
        ("lr", 10**400, f"lr must be a finite nonnegative number, got {10**400!r}"),
        ("lr_weights", True, "lr_weights must be a finite nonnegative number, got True"),
    ],
)
def test_train_config_checks_its_fields(field, value, message):
    with pytest.raises(ValueError) as info:
        TrainConfig(**{field: value})
    assert str(info.value) == message
    with pytest.raises(ValueError):
        replace(TrainConfig(), **{field: value})


@pytest.mark.parametrize("feature_dim", [-1, 2.5, True, 10**20])
def test_toy_problem_needs_a_nonnegative_integer_feature_dim(feature_dim):
    # 10**20 features per fish is more than numpy allocates; the bound refuses it before numpy is asked
    rule = "at most 4096" if feature_dim == 10**20 else "a nonnegative integer"
    with pytest.raises(ValueError, match=f"^feature_dim must be {rule}, got {feature_dim!r}$"):
        make_toy_problem(n=8, feature_dim=feature_dim)


def test_zero_learning_rate_keeps_everything_constant():
    problem = make_toy_problem(n=8, feature_dim=5, seed=2)
    init = ToyPredictor.mean_baseline(problem.targets, 5)
    cfg = TrainConfig(steps=20, lr=0.0, lr_weights=0.0)
    trained, trace = train(init, problem, cfg)
    assert np.array_equal(trained.weights, init.weights)
    assert np.array_equal(trained.bias, init.bias)
    first = trace[0]
    for row in trace:
        assert row.l_mse == first.l_mse and row.l_acr == first.l_acr
        assert row.w_mse == first.w_mse and row.w_acr == first.w_acr
        assert row.violation_count == first.violation_count


def test_pure_mse_reaches_least_squares_solution():
    problem = linear_problem(n=64, feature_dim=6, seed=0)
    cfg = TrainConfig(steps=2000, lr=20.0, init_w_acr=0.0, lr_weights=0.0)
    trained, trace = train(ToyPredictor(np.zeros((44, 6)), np.zeros(44)), problem, cfg)
    assert trace[-1].l_mse < 1e-6
    assert _param_distance(trained, least_squares_solution(problem)) < 1e-4


def test_training_is_bit_reproducible():
    def once():
        problem = make_toy_problem(n=16, feature_dim=5, seed=11)
        cfg = TrainConfig(steps=50, lr=2.0)
        return train(ToyPredictor.mean_baseline(problem.targets, 5), problem, cfg)

    (pred_a, trace_a), (pred_b, trace_b) = once(), once()
    assert np.array_equal(pred_a.weights, pred_b.weights)
    assert np.array_equal(pred_a.bias, pred_b.bias)
    assert trace_a == trace_b


def test_total_loss_nonincreasing_at_small_fixed_step():
    problem = make_toy_problem(n=16, feature_dim=5, seed=4)
    cfg = TrainConfig(steps=300, lr=0.05, lr_weights=0.0)
    _, trace = train(ToyPredictor.mean_baseline(problem.targets, 5), problem, cfg)
    totals = [r.w_mse * r.l_mse + r.w_acr * r.l_acr for r in trace]
    for a, b in zip(totals, totals[1:]):
        assert b <= a + 1e-9 * max(1.0, abs(a))


def test_divergence_aborts_with_trace():
    problem = make_toy_problem(n=8, feature_dim=5, seed=5)
    cfg = TrainConfig(steps=500, lr=1e9, lr_weights=0.0)
    with pytest.raises(DivergenceError) as err:
        train(ToyPredictor.mean_baseline(problem.targets, 5), problem, cfg)
    assert err.value.trace is not None and len(err.value.trace) >= 1


def test_gradnorm_run_keeps_weight_invariants():
    problem = make_toy_problem(n=16, feature_dim=5, seed=6)
    cfg = TrainConfig(steps=120, lr=2.0, lr_weights=0.025)
    _, trace = train(ToyPredictor.mean_baseline(problem.targets, 5), problem, cfg)
    for row in trace:
        assert row.w_mse > 0 and row.w_acr > 0
        assert row.w_mse + row.w_acr == pytest.approx(2.0, abs=1e-9)
    # balancing actually moved the weights at some point
    assert any(row.w_mse != 1.0 for row in trace)


def test_zero_initial_task_loss_disables_balancing():
    problem = make_toy_problem(n=1, feature_dim=5, seed=7)
    exact = ToyPredictor(np.zeros((44, 5)), problem.targets[0].copy())
    cfg = TrainConfig(steps=5, lr=0.01, lr_weights=0.025)
    with pytest.warns(GradNormFallbackWarning):
        _, trace = train(exact, problem, cfg)
    assert trace[0].l_mse == 0.0
    assert all(row.w_mse == 1.0 and row.w_acr == 1.0 for row in trace)


def test_zero_initial_task_loss_keeps_the_starting_weights():
    problem, exact = _exact_fit()
    cfg = TrainConfig(steps=5, lr=0.01, lr_weights=0.025, init_w_mse=0.4, init_w_acr=1.6)
    with warnings.catch_warnings(record=True) as issued:
        warnings.simplefilter("always")
        _, trace = train(exact, problem, cfg)
    assert [(w.category, str(w.message)) for w in issued] == [(GradNormFallbackWarning, _ZERO_LOSS)]
    assert len(trace) == 6 and all((row.w_mse, row.w_acr) == (0.4, 1.6) for row in trace)


def test_acr_scenario_drives_violations_to_zero_and_helps_pmp(acr_scenario):
    problem, acr_pred, acr_trace = acr_scenario.problem, acr_scenario.acr_pred, acr_scenario.acr_trace
    mse_pred, mse_trace = acr_scenario.mse_pred, acr_scenario.mse_trace

    assert acr_trace[0].violation_count >= 50
    assert acr_trace[-1].violation_count == 0
    assert mse_trace[-1].violation_count > 0

    tail = [row.violation_count for row in acr_trace][-(len(acr_trace) // 10):]
    assert all(a >= b for a, b in zip(tail, tail[1:]))

    assert _mean_pmp(acr_pred, problem) >= _mean_pmp(mse_pred, problem)


def test_acr_scenario_corrupts_its_keypoints_along_feature_4_and_nothing_else():
    problem = acr_benchmark_scenario(0)[0]
    clean = problem.population.xy.reshape(48, -1)
    corrupted = [2 * (kp - 1) + axis for kp, _ in _CORRUPT_KEYPOINTS for axis in (0, 1)]
    others = [column for column in range(44) if column not in corrupted]
    assert len(corrupted) == 14 and len(others) == 30
    assert np.array_equal(problem.targets[:, others], clean[:, others])
    for kp, direction in _CORRUPT_KEYPOINTS:
        for axis, u in enumerate(direction):
            column = 2 * (kp - 1) + axis
            moved = clean[:, column] + 11.0 * problem.features[:, 4] * u
            assert np.array_equal(problem.targets[:, column], moved)
            assert u == 0.0 or not np.array_equal(moved, clean[:, column])


def test_trace_csv_round_trip(tmp_path):
    problem = make_toy_problem(n=8, feature_dim=5, seed=8)
    cfg = TrainConfig(steps=10, lr=1.0)
    _, trace = train(ToyPredictor.mean_baseline(problem.targets, 5), problem, cfg)
    out = tmp_path / "trace.csv"
    trace.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "step,L_mse,L_acr,w_mse,w_acr,grad_norm_mse,grad_norm_acr,violation_count"
    assert len(lines) == len(trace) + 1
    first = lines[1].split(",")
    assert float(first[1]) == trace[0].l_mse  # repr round-trips exactly


_ZERO_LOSS = "initial task loss is zero; balancing disabled, keeping the starting weights"


def _reference_batch_terms(weights, bias, features, targets, boxes):
    """The trainer's batch terms as it computed them on fresh arrays: the reference for the step kernel."""
    n = features.shape[0]
    preds = features @ weights.T + bias
    err = preds - targets
    violations, signs = acr_hinge(preds.reshape(-1, 22, 2), boxes)
    l_mse, l_acr = float(np.mean(err * err)), float(violations.sum(axis=(1, 2)).mean())
    d_mse = 2.0 * err / err.size
    d_acr = signs.reshape(n, 44) / n
    outside = int((violations > VIOLATION_TOLERANCE_PX).any(axis=2).sum())
    return l_mse, l_acr, (d_mse.T @ features, d_mse.sum(axis=0)), (d_acr.T @ features, d_acr.sum(axis=0)), outside


def _reference_train(predictor, problem, cfg):
    """The training loop over :func:`_reference_batch_terms`, with separate weight and bias arrays."""
    boxes = problem.boxes()
    weights, bias = predictor.weights.copy(), predictor.bias.copy()
    w_mse, w_acr = cfg.init_w_mse, cfg.init_w_acr
    balancing = cfg.init_w_acr > 0 and cfg.lr_weights > 0
    trace = TrainTrace()
    for step in range(cfg.steps + 1):
        l_mse, l_acr, (g_w_mse, g_b_mse), (g_w_acr, g_b_acr), outside = _reference_batch_terms(
            weights, bias, problem.features, problem.targets, boxes
        )
        if step == 0 and balancing:
            l0_mse, l0_acr = l_mse, l_acr
            if l0_mse <= 0 or l0_acr <= 0:
                warnings.warn(_ZERO_LOSS, GradNormFallbackWarning)
                balancing = False
        n_mse = math.sqrt(g_w_mse.ravel() @ g_w_mse.ravel())
        n_acr = math.sqrt(g_w_acr.ravel() @ g_w_acr.ravel())
        total = w_mse * l_mse + (w_acr * l_acr if cfg.init_w_acr > 0 else 0.0)
        trace.append(TraceRow(step, l_mse, l_acr, w_mse, w_acr, n_mse, n_acr, outside))
        if not math.isfinite(total) or total > DIVERGENCE_LIMIT:
            raise DivergenceError(f"training diverged at step {step}: total loss {total}", trace=trace)
        if step == cfg.steps:
            break
        g_w = w_mse * g_w_mse
        g_b = w_mse * g_b_mse
        if cfg.init_w_acr > 0:    # a zero weight adds no ACR term: `train`'s `+ 0.0 * g` must move no bit
            g_w = g_w + w_acr * g_w_acr
            g_b = g_b + w_acr * g_b_acr
        lr_t = cfg.lr / (1.0 + cfg.lr_decay * step)
        weights = weights - lr_t * g_w
        bias = bias - lr_t * g_b
        if balancing:
            ratios = (l_mse / l0_mse, l_acr / l0_acr)
            w_mse, w_acr = gradnorm_step((w_mse, w_acr), (n_mse, n_acr), ratios, cfg.alpha, cfg.lr_weights)
    return ToyPredictor(weights, bias), trace


def _outcome(fn, predictor, problem, cfg):
    """Trace rows with each value's type and bits, the trained parameters' bits or the divergence, the warnings."""
    with warnings.catch_warnings(record=True) as issued:
        warnings.simplefilter("always")
        try:
            trained, trace = fn(predictor, problem, cfg)
            end = (trained.weights.shape, trained.weights.tobytes(), trained.bias.tobytes())
        except DivergenceError as exc:
            trace, end = exc.trace, str(exc)
    rows = [tuple((type(v), _bits(v) if isinstance(v, float) else v) for v in vars(row).values()) for row in trace]
    return rows, end, [(w.category, str(w.message)) for w in issued]


def _perfbench(seed):   # train-toy's defaults: 48 fish, 6 features, the mean baseline, balancing on
    problem = make_toy_problem(seed=seed)
    return problem, ToyPredictor.mean_baseline(problem.targets, 6)


def _small(n=16, feature_dim=6, seed=5):
    problem = make_toy_problem(n=n, feature_dim=feature_dim, seed=seed)
    return problem, ToyPredictor.mean_baseline(problem.targets, feature_dim)


def _exact_fit():  # one fish predicted exactly: both initial losses are zero
    problem = make_toy_problem(n=1, feature_dim=5, seed=7)
    return problem, ToyPredictor(np.zeros((44, 5)), problem.targets[0].copy())


@pytest.mark.parametrize("case, cfg", [
    pytest.param(lambda: _perfbench(611), TrainConfig(steps=4000), id="perfbench-seed-611"),
    pytest.param(lambda: _perfbench(9400), TrainConfig(steps=4000), id="perfbench-seed-9400"),
    pytest.param(_small, TrainConfig(steps=400, init_w_acr=0.0), id="acr-off"),
    pytest.param(_small, TrainConfig(steps=400, lr_weights=0.0), id="fixed-weights"),
    pytest.param(_small, TrainConfig(steps=400, lr_decay=0.006), id="lr-decay"),
    pytest.param(_small, TrainConfig(steps=400, alpha=2000.0), id="alpha-2000"),
    pytest.param(lambda: _small(n=1), TrainConfig(steps=200), id="one-fish"),
    pytest.param(lambda: _small(feature_dim=1), TrainConfig(steps=200), id="one-feature"),
    pytest.param(lambda: _small(n=200, feature_dim=9), TrainConfig(steps=100), id="200-fish-9-features"),
    pytest.param(_exact_fit, TrainConfig(steps=5, lr=0.01, lr_weights=0.025), id="zero-initial-loss"),
    pytest.param(_small, TrainConfig(steps=400, lr=200.0), id="divergence"),
])
def test_train_is_bit_equal_to_reference_loop(case, cfg):
    problem, init = case()
    got = _outcome(train, init, problem, cfg)
    assert got == _outcome(_reference_train, init, problem, cfg)
    rows, end, issued = got
    if cfg.lr == 200.0:
        assert isinstance(end, str) and len(rows) > 1
    if cfg.lr == 0.01:
        assert issued == [(GradNormFallbackWarning, _ZERO_LOSS)]
    if cfg.init_w_acr == 0.0:    # balancing never raises a zero ACR weight
        assert all(row[4] == (float, _bits(0.0)) for row in rows) and issued == []


@pytest.mark.parametrize("n, feature_dim", [(8, 5), (1, 1), (48, 6)])
def test_step_kernel_is_bit_equal_to_reference_terms(n, feature_dim):
    """Losses, gradients, violation count and combined gradient at scattered parameter points, a non-finite one too."""
    problem, init = _small(n, feature_dim, seed=n)
    boxes = problem.boxes()
    kernel = StepKernel(init, problem.features, problem.targets, boxes)
    base = kernel.theta.copy()
    rng = np.random.default_rng(feature_dim)
    for scale in (0.0, 1.0, 30.0, np.inf):
        with np.errstate(invalid="ignore", over="ignore"):
            kernel.theta[:] = base + scale * rng.standard_normal(base.size)
            weights, bias = kernel.theta[:-44].reshape(44, feature_dim), kernel.theta[-44:]
            l_mse, l_acr, g_mse, g_acr, outside = _reference_batch_terms(
                weights, bias, problem.features, problem.targets, boxes)
            assert _bits(kernel.losses()) == _bits((l_mse, l_acr))
            assert kernel.violation_count() == outside
            flat_mse, flat_acr = (np.concatenate([g.ravel(), b]) for g, b in (g_mse, g_acr))
            assert _bits(kernel.gradients()) == _bits([flat_mse, flat_acr])
            norms = [math.sqrt(g.ravel() @ g.ravel()) for g, _ in (g_mse, g_acr)]
            assert _bits(kernel.weight_grad_norms()) == _bits(norms)
            assert _bits(kernel.combined_gradient(0.3, 1.7)) == _bits(0.3 * flat_mse + 1.7 * flat_acr)
            assert _bits(kernel.combined_gradient(0.3, 0.0)) == _bits(0.3 * flat_mse + 0.0 * flat_acr)


# ---------------------------------------------------------------------------
# gradient verification


def _empty_batch():
    problem = make_toy_problem(n=4, feature_dim=3, seed=1)
    empty = replace(problem, features=problem.features[:0], targets=problem.targets[:0])
    return train(ToyPredictor.mean_baseline(problem.targets, 3), empty, TrainConfig(steps=1))


def _no_point_clear_of_the_hinges(monkeypatch):
    monkeypatch.setattr(optim, "BOUNDARY_MARGIN", math.inf)    # no predicted coordinate is that far from its box
    problem = make_toy_problem(n=4, feature_dim=3, seed=1)
    return grad_check(ToyPredictor.mean_baseline(problem.targets, 3), problem, probes=1)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda mp: ToyPredictor(np.zeros(44), np.zeros(44)), ValueError, "weights must be (44, F), got (44,)"),
        (lambda mp: ToyPredictor(np.zeros((44, 3)), np.zeros(43)), ValueError, "bias must be (44,), got (43,)"),
        (lambda mp: ToyPredictor(np.full((44, 3), np.nan), np.zeros(44)), ValueError, "parameters must be finite"),
        (lambda mp: _empty_batch(), ValueError, "training batch is empty"),
        (_no_point_clear_of_the_hinges, RuntimeError, "could not sample a parameter point clear of hinge boundaries"),
    ],
    ids=["1-d-weights", "short-bias", "nan-weights", "train-no-rows", "grad-check-no-clear-point"],
)
def test_trainer_guards_refuse_bad_arguments_with_their_message(monkeypatch, call, error, message):
    with pytest.raises(error) as info:
        call(monkeypatch)
    assert type(info.value) is error and str(info.value) == message


def test_grad_check_quadratic_only():
    problem = make_toy_problem(n=8, feature_dim=5, seed=3)
    ls = least_squares_solution(problem)
    err = grad_check(ls, problem, (1.0, 0.0), probes=2000, seed=5)
    assert err < 1e-7


def test_grad_check_combined_away_from_kinks():
    problem = make_toy_problem(n=8, feature_dim=5, seed=3)
    init = ToyPredictor.mean_baseline(problem.targets, 5)
    err = grad_check(init, problem, (1.0, 1.0), probes=2000, seed=6)
    assert err < 1e-5


def test_gradient_exactly_zero_at_zero_residual():
    problem = make_toy_problem(n=6, feature_dim=5, seed=9)
    # targets equal to one fish repeated: the bias alone interpolates exactly
    targets = np.tile(problem.targets[0], (6, 1))
    features = np.zeros((6, 5))
    boxes_problem = make_toy_problem(n=6, feature_dim=5, seed=9)
    bias = problem.targets[0].copy()
    kernel = StepKernel(ToyPredictor(np.zeros((44, 5)), bias), features, targets, boxes_problem.boxes())
    l_mse, l_acr = kernel.losses()
    grad_mse = kernel.gradients()[0]   # the weights' gradient and then the bias's
    assert l_mse == 0.0
    assert np.all(grad_mse[:-44] == 0.0) and np.all(grad_mse[-44:] == 0.0)


def test_population_coords_shape_and_order():
    problem = make_toy_problem(n=3, feature_dim=5, seed=10)
    coords = problem.targets
    assert coords.shape == (3, 44)
    assert coords[0, 0] == problem.population.xy[0, 0, 0]
    assert coords[0, 1] == problem.population.xy[0, 0, 1]
