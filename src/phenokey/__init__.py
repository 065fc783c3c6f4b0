"""Fish morphometric keypoint evaluation toolkit.

Parses 22-keypoint annotation files, measures the 23 derived phenotypes,
scores predictions with OKS / PCK / the phenotype-normalized PMP metric,
fits anatomical box priors with the associated hinge regularization, and
ships a deterministic toy trainer plus synthetic data generators so every
numeric path can be checked against an independent oracle.
"""

__version__ = "0.1.0"

from .anatomy import (
    AnatomicalPrior,
    BoxConstraint,
    acr_hinge,
    dataset_boxes,
    fit_prior,
    normalized_coords,
)
from .dataset import (
    Dataset,
    Violation,
    parse_coco,
    serialize_coco,
    validate,
)
from .metrics import (
    EvalConfig,
    PerKeypointResult,
    evaluate_datasets,
    mape,
    mmape,
    oks_per_image,
    ols_fit,
    pck,
    pearson,
    pmp,
)
from .morphometry import PHENOTYPES, measurement_rows
from .optim import (
    LossWeights,
    ToyPredictor,
    TrainConfig,
    TrainTrace,
    grad_check,
    gradnorm_step,
    least_squares_solution,
    make_toy_problem,
    train,
)
from .plots import plot_deviation_summary, plot_scatter
from .synth import (
    TEMPLATES,
    PerturbationModel,
    SpeciesTemplate,
    generate_population,
    load_template,
    perturb,
)
