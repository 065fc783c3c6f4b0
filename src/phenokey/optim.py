"""Desk-scale optimization testbed for the combined MSE + box-constraint loss.

The predictor is a plain affine map from per-image feature vectors to the 44
keypoint coordinates, trained by full-batch gradient descent. The two loss
terms are balanced by gradient-norm equalization: each task's weight moves
toward the point where its weighted gradient norm (measured on the shared
weight matrix) matches the mean norm scaled by the task's relative inverse
training rate raised to ``alpha``; weights are clamped positive and
renormalized to sum to 2 after every step.

Everything is deterministic: no randomness inside the loop, fixed evaluation
order, and analytic gradients that the finite-difference checker verifies.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .anatomy import AnatomicalPrior, BoxConstraint, HingeBuffers, acr_hinge, dataset_boxes, fit_prior
from .dataset import Dataset
from .errors import DivergenceError, GradNormFallbackWarning, SchemaError, check_number
from .jsontext import write_whole
from .schema import KEYPOINT_COUNT
from .synth import generate_population, load_template

N_COORDS = 2 * KEYPOINT_COUNT  # 44

# training stops with DivergenceError once the weighted total loss exceeds this
DIVERGENCE_LIMIT = 1e12
# A (sample, keypoint) pair counts as violating when a hinge exceeds this
# many pixels. Source coordinates live on an integer pixel grid, so
# sub-half-pixel excursions are below annotation resolution; keypoints
# that define an image's bounding rectangle sit exactly on a box edge and
# would otherwise flicker in and out of the count at float precision.
VIOLATION_TOLERANCE_PX = 0.5
# size of the separate sample the toy problem's prior is fitted on
PRIOR_POPULATION = 400
# grad_check: parameters probed per sampled point, central-difference step,
# and the least distance in pixels from every hinge boundary
PROBES_PER_POINT = 100
FD_STEP = 1e-5
BOUNDARY_MARGIN = 1e-2


@dataclass
class ToyPredictor:
    """Affine coordinate predictor: coords = weights @ features + bias."""

    weights: np.ndarray   # (44, F)
    bias: np.ndarray      # (44,)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.weights.shape[0] != N_COORDS:
            raise ValueError(f"weights must be (44, F), got {self.weights.shape}")
        if self.bias.shape != (N_COORDS,):
            raise ValueError(f"bias must be (44,), got {self.bias.shape}")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise ValueError("parameters must be finite")

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[1]

    @classmethod
    def zeros(cls, feature_dim: int) -> "ToyPredictor":
        return cls(np.zeros((N_COORDS, feature_dim)), np.zeros(N_COORDS))

    @classmethod
    def mean_baseline(cls, targets: np.ndarray, feature_dim: int) -> "ToyPredictor":
        """Predict the mean target coordinates regardless of features."""
        return cls(np.zeros((N_COORDS, feature_dim)), np.asarray(targets, dtype=np.float64).mean(axis=0))

    def predict(self, features: np.ndarray) -> np.ndarray:
        """(N, F) features -> (N, 44) coordinates."""
        return features @ self.weights.T + self.bias


@dataclass(frozen=True)
class LossWeights:
    """Task weights for the two-term objective plus balancing state."""

    w_mse: float = 1.0
    w_acr: float = 1.0
    alpha: float = 1.5
    initial_losses: tuple | None = None   # (L_mse at step 0, L_acr at step 0)


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 1000
    lr: float = 2.0
    # harmonic step decay, lr_t = lr / (1 + lr_decay * t): the hinge term is
    # nonsmooth, and subgradient descent needs diminishing steps to settle
    # onto a kink instead of hopping around it. 0 keeps the step constant.
    lr_decay: float = 0.0
    lr_weights: float = 0.025
    alpha: float = 1.5
    use_acr: bool = True
    # starting task weights; with lr_weights = 0 they stay fixed
    init_w_mse: float = 1.0
    init_w_acr: float = 1.0

    def __post_init__(self):
        check_number("steps", self.steps, integer=True)
        for name in ("lr", "lr_decay", "lr_weights", "alpha", "init_w_mse", "init_w_acr"):
            check_number(name, getattr(self, name), zero=True)


@dataclass(frozen=True)
class TraceRow:
    step: int
    l_mse: float
    l_acr: float
    w_mse: float
    w_acr: float
    grad_norm_mse: float
    grad_norm_acr: float
    violation_count: int


class TrainTrace(list):
    """The :class:`TraceRow` of each training step, in order."""

    def to_csv(self, path) -> None:
        header = "step,L_mse,L_acr,w_mse,w_acr,grad_norm_mse,grad_norm_acr,violation_count\r\n"
        # one template per row, written as it is filled: the text of a number holds nothing csv would quote
        write_whole(path, chain([header], ("%s,%r,%r,%r,%r,%r,%r,%s\r\n" % tuple(vars(row).values()) for row in self)))


@dataclass(frozen=True)
class ToyProblem:
    """One training scenario: features, target coordinates, fitted prior."""

    features: np.ndarray       # (N, F)
    targets: np.ndarray        # (N, 44)
    prior: AnatomicalPrior
    population: Dataset

    def boxes(self) -> BoxConstraint:
        """Each target's own body-frame boxes, every field copied out to (N, 22, 2) for contiguous hinge loops."""
        box = dataset_boxes(self.prior, coords_to_dataset(self.targets, self.population))
        shape = (len(self.targets), KEYPOINT_COUNT, 2)
        return BoxConstraint(*(np.broadcast_to(a, shape).copy() for a in (box.origin, box.extent, box.nmin, box.nmax)))


def population_coords(population: Dataset) -> np.ndarray:
    """(N, 44) coordinate matrix of a dataset, rows flattened x1,y1,...,x22,y22."""
    return population.xy.reshape(len(population), -1).copy()


def coords_to_dataset(coords: np.ndarray, like: Dataset) -> Dataset:
    """Wrap predicted coordinates as a dataset mirroring ``like``'s rows, every keypoint visible."""
    return Dataset(
        coords.reshape(len(like), KEYPOINT_COUNT, 2),
        np.full((len(like), KEYPOINT_COUNT), 2),
        like.image_ids,
        like.width,
        like.height,
        like.species,
        like.role,
    )


# Interior keypoints carrying systematic annotation corruption in the ACR
# demonstration scenario, with a fixed displacement direction each (head top,
# pectoral and pelvic fins, anal fin origin, dorsal posterior). None of them
# ever defines an image's bounding rectangle.
_CORRUPT_KEYPOINTS = (
    (3, (0.6, -0.8)),
    (13, (1.0, 0.0)),
    (14, (0.0, 1.0)),
    (15, (0.8, 0.6)),
    (16, (-0.8, 0.6)),
    (17, (-1.0, 0.0)),
    (21, (0.6, -0.8)),
)


def make_toy_problem(
    n: int = 48,
    feature_dim: int = 6,
    seed: int = 0,
    template: str = "deep_bodied",
    linear_targets: bool = False,
    corruption_px: float = 0.0,
    spread_scale: float = 1.0,
) -> ToyProblem:
    """Build a training scenario from a synthetic population.

    With ``linear_targets`` the targets are an exact affine function of pure
    noise features (so an exact least-squares solution with zero residual
    exists). Otherwise the targets are the population's ground-truth
    coordinates and the first four features carry each fish's bounding
    rectangle (standardized origin and extent); those make the per-image box
    positions learnable while the per-keypoint jitter stays as irreducible
    residual noise. Remaining feature dimensions are pure noise.

    The prior comes from a separate ``PRIOR_POPULATION``-sized sample of the
    same species template: the box constraint describes the species, not the
    particular training batch, and the wider extremes of a large sample leave
    the regression's own optimum strictly inside the boxes.

    ``corruption_px`` injects feature-correlated annotation corruption: a few
    interior keypoints' training targets are displaced by that many pixels per
    unit of a feature. The regression can and will chase the corruption (it is
    exactly realizable), while the box constraint blocks it at the anatomical
    boundary; the clean population coordinates stay available for scoring.
    """
    if check_number("feature_dim", feature_dim, integer=True) > 4096:    # far above any width in use (6)
        raise SchemaError(f"feature_dim must be at most 4096, got {feature_dim!r}")
    tpl = load_template(template)
    tpl = replace(tpl, spread=tpl.spread * spread_scale)
    population = generate_population(tpl, n, seed=seed)
    prior_pop = generate_population(tpl, PRIOR_POPULATION, seed=(int(seed) * 2 + 1) * 15485863)
    prior = fit_prior(prior_pop)
    rng = np.random.default_rng([int(seed), 104729])
    if linear_targets:
        features = rng.standard_normal((n, feature_dim))
        base = population_coords(population).mean(axis=0)
        true_w = rng.normal(0.0, 8.0, size=(N_COORDS, feature_dim))
        targets = features @ true_w.T + base
    else:
        targets = population_coords(population)
        pts = targets.reshape(n, KEYPOINT_COUNT, 2)
        mins = pts.min(axis=1)
        extents = pts.max(axis=1) - mins
        geometry = np.hstack([mins, extents])
        std = geometry.std(axis=0)
        std[std == 0] = 1.0
        geometry = (geometry - geometry.mean(axis=0)) / std
        # the two extents are nearly collinear (fixed aspect); orthonormalize
        # the block so gradient descent has no near-singular direction while
        # the spanned quantities stay exactly representable
        if n > geometry.shape[1]:
            q, _ = np.linalg.qr(geometry)
            geometry = q * math.sqrt(float(n))
        n_noise = max(0, feature_dim - geometry.shape[1])
        # first noise dimension is bounded uniform; it drives the corruption below
        noise = rng.standard_normal((n, n_noise))
        if n_noise > 0:
            noise[:, 0] = rng.uniform(-1.0, 1.0, size=n)
        features = np.hstack([geometry[:, :feature_dim], noise])
        if corruption_px > 0.0:
            if feature_dim < 5:
                raise ValueError("corruption needs at least one noise feature (feature_dim >= 5)")
            targets = targets.copy()
            driver = features[:, 4]
            for kp, (ux, uy) in _CORRUPT_KEYPOINTS:
                targets[:, 2 * (kp - 1)] += corruption_px * driver * ux
                targets[:, 2 * (kp - 1) + 1] += corruption_px * driver * uy
    return ToyProblem(features=features, targets=targets, prior=prior, population=population)


# the GradNormFallbackWarning of `gradnorm_step` and of `train`'s first step
_ZERO_LOSS = "initial task loss is zero; balancing disabled, keeping equal weights"


def gradnorm_step(w: LossWeights, grad_norms, losses, lr_w: float) -> LossWeights:
    """One balancing update on Python floats; returns weights clamped positive and summing to 2."""
    if w.initial_losses is None:
        raise ValueError("initial losses must be recorded before balancing")
    l0_mse, l0_acr = w.initial_losses
    if l0_mse <= 0 or l0_acr <= 0:
        warnings.warn(_ZERO_LOSS, GradNormFallbackWarning, stacklevel=2)
        return LossWeights(1.0, 1.0, w.alpha, w.initial_losses)
    try:
        (n_mse, n_acr), (l_mse, l_acr) = map(float, grad_norms), map(float, losses)
    except (TypeError, ValueError):
        raise ValueError("grad_norms and losses must each hold two entries") from None
    if n_mse < 0 or n_acr < 0:
        raise ValueError("gradient norms must be nonnegative")
    if l_mse < 0 or l_acr < 0:  # a negative loss ratio has no real power
        raise ValueError("losses must be nonnegative")
    r_mse, r_acr = l_mse / l0_mse, l_acr / l0_acr
    mean_ratio = (r_mse + r_acr) / 2
    if mean_ratio == 0.0:
        return w  # both tasks fully converged; nothing to balance
    mean_weighted = (w.w_mse * n_mse + w.w_acr * n_acr) / 2
    new = []
    for weight, norm, ratio in ((w.w_mse, n_mse, r_mse), (w.w_acr, n_acr, r_acr)):
        try:
            scaled = mean_weighted * (ratio / mean_ratio) ** w.alpha
        except (OverflowError, ZeroDivisionError):  # where numpy's power gives inf
            scaled = mean_weighted * math.inf
        gap = float(weight * norm - scaled)
        sign = (gap > 0) - (gap < 0) if gap == gap else gap  # np.sign: a NaN gap stays NaN
        new.append(max(weight - lr_w * (sign * norm), 1e-6))
    total = new[0] + new[1]
    return LossWeights(float(2.0 * new[0] / total), float(2.0 * new[1] / total), w.alpha, w.initial_losses)


class StepKernel:
    """Losses and gradients of the full batch at one flat parameter vector, in buffers held for one problem.

    ``theta`` = [weights.ravel(), bias] is the kernel's own parameter vector: callers write it in place and
    every method reads it. Each array a method returns is a buffer that the next call overwrites.
    """

    def __init__(self, predictor: ToyPredictor, features, targets, boxes: BoxConstraint):
        n, feature_dim = features.shape
        size = N_COORDS * feature_dim
        self.features, self.targets, self.boxes = features, targets, boxes
        self.theta = np.concatenate([predictor.weights.ravel(), predictor.bias])
        self._weights, self._bias = self.theta[:size].reshape(N_COORDS, feature_dim), self.theta[size:]
        self._weights_t = self._weights.T
        # forward pass: predictions, residuals, hinge terms, violating keypoints
        self._preds = np.empty((n, N_COORDS))
        self._xy = self._preds.reshape(n, KEYPOINT_COUNT, 2)
        self._resid, self._squares = np.empty((2, n, N_COORDS))
        self._hinge = HingeBuffers(boxes, self._xy.shape)
        self._hinge_rows = self._hinge.hinge.reshape(n, N_COORDS)
        self._signs_rows = self._hinge.signs.reshape(n, N_COORDS)
        self._per_sample = np.empty(n)
        self._far = np.empty((n, KEYPOINT_COUNT, 2), bool)
        self._far_keypoints = self._far.view(np.uint16)[..., 0]   # a keypoint's two flags as one number, 0 if neither
        # backward pass, one row per task (MSE, ACR): d loss / d preds, then the gradients in theta's layout
        self._dpreds = np.empty((2, n, N_COORDS))
        self._dpreds_mse, self._dpreds_acr = self._dpreds
        self._dpreds_t = self._dpreds.transpose(0, 2, 1)
        self.grads = np.empty((2, self.theta.size))
        self._grads_mse, self._grads_acr = self.grads
        self._grad_weights = self.grads[:, :size].reshape(2, N_COORDS, feature_dim)
        self._grad_bias = self.grads[:, size:]
        self._grad_weights_mse, self._grad_weights_acr = self.grads[:, :size]
        self._combined, self._scaled = np.empty((2, self.theta.size))

    def predictor(self) -> ToyPredictor:
        """The parameters in ``theta`` as a predictor of their own."""
        return ToyPredictor(self._weights.copy(), self._bias.copy())

    def predict(self) -> np.ndarray:
        """(N, 44) predicted coordinates."""
        return np.add(np.matmul(self.features, self._weights_t, out=self._preds), self._bias, out=self._preds)

    def losses(self) -> tuple[float, float]:
        """MSE and ACR loss of the batch; the residuals and hinge terms stay for the methods below."""
        np.subtract(self.predict(), self.targets, out=self._resid)
        acr_hinge(self._xy, self.boxes, self._hinge)
        # np.mean's sums: pairwise over all squares, and over each sample's 44 hinges, then over samples
        l_mse = np.add.reduce(np.multiply(self._resid, self._resid, out=self._squares), axis=None) / self._resid.size
        l_acr = np.add.reduce(np.add.reduce(self._hinge_rows, axis=1, out=self._per_sample)) / self._per_sample.size
        return float(l_mse), float(l_acr)

    def violation_count(self) -> int:
        """Keypoints of the last :meth:`losses` with a hinge above ``VIOLATION_TOLERANCE_PX`` on either axis."""
        np.greater(self._hinge.hinge, VIOLATION_TOLERANCE_PX, out=self._far)
        return int(np.count_nonzero(self._far_keypoints))

    def gradients(self) -> np.ndarray:
        """(2, len(theta)) gradients of the MSE and the ACR loss of the last :meth:`losses`."""
        np.divide(self._resid, self._resid.size / 2, out=self._dpreds_mse)   # 2 * resid / size, rounded once
        np.divide(self._signs_rows, self._per_sample.size, out=self._dpreds_acr)
        np.matmul(self._dpreds_t, self.features, out=self._grad_weights)
        np.add.reduce(self._dpreds, axis=1, out=self._grad_bias)
        return self.grads

    def weight_grad_norms(self) -> tuple[float, float]:
        """Frobenius norms of the MSE and ACR weight-matrix gradients of the last :meth:`gradients`."""
        mse, acr = self._grad_weights_mse, self._grad_weights_acr
        return math.sqrt(mse @ mse), math.sqrt(acr @ acr)   # np.linalg.norm's path, without its dispatch

    def combined_gradient(self, w_mse: float, w_acr: float | None) -> np.ndarray:
        """``w_mse`` times the MSE gradient, plus ``w_acr`` times the ACR gradient unless it is None."""
        np.multiply(self._grads_mse, w_mse, out=self._combined)
        if w_acr is not None:
            np.add(self._combined, np.multiply(self._grads_acr, w_acr, out=self._scaled), out=self._combined)
        return self._combined


def train(predictor: ToyPredictor, problem: ToyProblem, cfg: TrainConfig) -> tuple[ToyPredictor, TrainTrace]:
    """Gradient descent on the weighted two-term objective with balancing interleaved.

    The trace records one row per step plus a final row for the trained
    parameters. Raises :class:`DivergenceError` (carrying the partial trace)
    if the total loss exceeds the divergence limit or turns non-finite.
    """
    if len(problem.features) == 0:
        raise ValueError("training batch is empty")
    kernel = StepKernel(predictor, problem.features, problem.targets, problem.boxes())
    theta = kernel.theta
    w = LossWeights(cfg.init_w_mse, cfg.init_w_acr if cfg.use_acr else 0.0, alpha=cfg.alpha)
    balancing = cfg.use_acr and cfg.lr_weights > 0
    trace = TrainTrace()

    for step in range(cfg.steps + 1):
        l_mse, l_acr = kernel.losses()
        kernel.gradients()
        n_mse, n_acr = kernel.weight_grad_norms()
        if step == 0:
            w = replace(w, initial_losses=(l_mse, l_acr))
            if balancing and (l_mse <= 0 or l_acr <= 0):
                warnings.warn(_ZERO_LOSS, GradNormFallbackWarning, stacklevel=2)
                balancing = False
        total = w.w_mse * l_mse + (w.w_acr * l_acr if cfg.use_acr else 0.0)
        trace.append(TraceRow(step, l_mse, l_acr, w.w_mse, w.w_acr, n_mse, n_acr, kernel.violation_count()))
        if not math.isfinite(total) or total > DIVERGENCE_LIMIT:
            raise DivergenceError(f"training diverged at step {step}: total loss {total}", trace=trace)
        if step == cfg.steps:
            break
        update = kernel.combined_gradient(w.w_mse, w.w_acr if cfg.use_acr else None)
        np.subtract(theta, np.multiply(update, cfg.lr / (1.0 + cfg.lr_decay * step), out=update), out=theta)
        if balancing:
            w = gradnorm_step(w, (n_mse, n_acr), (l_mse, l_acr), cfg.lr_weights)
    return kernel.predictor(), trace


def least_squares_solution(problem: ToyProblem) -> ToyPredictor:
    """Normal-equations solution of the unconstrained regression."""
    n = problem.features.shape[0]
    design = np.hstack([problem.features, np.ones((n, 1))])
    coef, *_ = np.linalg.lstsq(design, problem.targets, rcond=None)
    return ToyPredictor(coef[:-1].T, coef[-1])


def acr_benchmark_scenario(seed: int = 0) -> tuple[ToyProblem, ToyPredictor, TrainConfig, TrainConfig]:
    """The frozen corruption scenario contrasting MSE+ACR against MSE alone.

    A tight-anatomy population whose training targets carry feature-correlated
    annotation corruption on several interior keypoints. Plain regression
    chases the corruption exactly; the box constraint pins those predictions
    at the anatomical boundary instead. Returns the problem, the shared
    mean-baseline initial predictor, and the two training configurations.

    Balancing is off here (fixed asymmetric weights): hinge gradient norms do
    not decay with progress, so norm balancing starves the constraint weight
    in this sustained-conflict regime. The decayed step schedule lets the
    subgradient iteration settle onto the box edges.
    """
    problem = make_toy_problem(
        n=48, feature_dim=6, seed=seed, corruption_px=11.0, spread_scale=0.15
    )
    init = ToyPredictor.mean_baseline(problem.targets, 6)
    with_acr = TrainConfig(
        steps=12_000, lr=4.0, lr_decay=0.006, lr_weights=0.0,
        use_acr=True, init_w_mse=0.4, init_w_acr=1.6,
    )
    mse_only = TrainConfig(steps=12_000, lr=4.0, lr_decay=0.006, lr_weights=0.0, use_acr=False)
    return problem, init, with_acr, mse_only


def grad_check(
    predictor: ToyPredictor,
    problem: ToyProblem,
    w: LossWeights | None = None,
    probes: int = 10_000,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Parameter points are drawn around the given predictor and resampled until
    every predicted coordinate sits at least ``BOUNDARY_MARGIN`` pixels from
    every hinge boundary, so the finite differences never straddle a kink.
    The relative error for one probed parameter uses a unit floor:
    |analytic - fd| / max(1, |analytic|, |fd|).
    """
    w = w or LossWeights()
    boxes = problem.boxes()
    k_min, k_max = boxes.k_min, boxes.k_max
    kernel = StepKernel(predictor, problem.features, problem.targets, boxes)
    theta = kernel.theta
    base = theta.copy()
    rng = np.random.default_rng(seed)
    # keep perturbed losses moderate: central-difference roundoff grows with
    # the loss magnitude (~eps * L / h), and 1% of the coordinate range still
    # swings predictions across hinge states
    coord_scale = 0.01 * (float(np.ptp(problem.targets)) or 1.0)

    def far_from_boundaries() -> bool:
        preds = kernel.predict().reshape(-1, KEYPOINT_COUNT, 2)
        dist = np.minimum(np.abs(preds - k_min), np.abs(preds - k_max))
        return bool((dist >= BOUNDARY_MARGIN).all())

    def loss() -> float:  # all a finite-difference probe needs: no gradient terms
        l_mse, l_acr = kernel.losses()
        return w.w_mse * l_mse + w.w_acr * l_acr

    worst = 0.0
    done = 0
    while done < probes:
        for _ in range(200):
            np.add(base, rng.normal(0.0, coord_scale, size=theta.size), out=theta)
            if far_from_boundaries():
                break
        else:
            raise RuntimeError("could not sample a parameter point clear of hinge boundaries")
        kernel.losses()
        kernel.gradients()
        analytic = kernel.combined_gradient(w.w_mse, w.w_acr).copy()
        todo = min(PROBES_PER_POINT, probes - done)
        idx = rng.choice(theta.size, size=todo, replace=False)
        for k in idx:
            saved = theta[k]
            theta[k] = saved + FD_STEP
            f_plus = loss()
            theta[k] = saved - FD_STEP
            f_minus = loss()
            theta[k] = saved
            fd = (f_plus - f_minus) / (2 * FD_STEP)
            err = abs(analytic[k] - fd) / max(1.0, abs(analytic[k]), abs(fd))
            worst = max(worst, err)
        done += todo
    return worst
