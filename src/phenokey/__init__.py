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
    acr_gradient,
    acr_loss,
    box_for_image,
    fit_prior,
    normalized_coords,
    visible_bbox,
)
from .dataset import (
    Dataset,
    FishImageRecord,
    KeypointSet,
    Violation,
    parse_coco,
    serialize_coco,
    validate,
)
from .metrics import (
    EvalConfig,
    MetricReport,
    PerKeypointResult,
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
from .morphometry import (
    PhenotypeDef,
    PhenotypeMeasurement,
    PhenotypeTable,
    default_table,
    measure_all,
)
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
