"""Which metric picks the better checkpoint for phenotype measurement?

Three candidate predictors with equal-looking pixel accuracy but different
error placement. Selecting by object-scale metrics (OKS, PCK) favors the
uniformly-noisy candidate; selecting by the phenotype-normalized PMP favors
the candidate whose errors respect small phenotypes, and that candidate
measures phenotypes more accurately (lower mMAPE).
"""

import math

import numpy as np

from phenokey import EvalConfig, evaluate_datasets, generate_population
from phenokey.dataset import Dataset
from phenokey.metrics import shortest_phenotype_lengths
from phenokey.schema import KEYPOINT_COUNT
from phenokey.synth import TEMPLATES, PerturbationModel, perturb

gt = generate_population(TEMPLATES["deep_bodied"], n=40, seed=1001, role="test")
diag = float(np.mean([math.hypot(*np.ptp(xy, axis=0)) for xy in gt.xy]))
base_sigma = 0.011 * diag

candidates = {
    "uniform": perturb(gt, PerturbationModel("uniform_px", base_sigma, seed=1)),
    "pheno_aware": perturb(
        gt, PerturbationModel("proportional_to_shortest_phenotype", 0.05, seed=2)
    ),
}

# heteroscedastic candidate: noise piled onto the small-phenotype keypoints
shortest = shortest_phenotype_lengths(gt.xy, gt.v)
small = shortest.mean(axis=0) < np.median(shortest.mean(axis=0))
rng = np.random.default_rng(3)
sigma = np.where(small, 3.0 * base_sigma, 0.9 * base_sigma)
noise = rng.uniform(-1.0, 1.0, size=(len(gt), KEYPOINT_COUNT, 2)) * sigma[:, None]   # fish by fish
candidates["small_pheno_heavy"] = Dataset(gt.xy + noise, gt.v, gt.image_ids, gt.width * 2, gt.height * 2,
                                          gt.species, role="test")

cfg = EvalConfig(pck_threshold=0.01)
print(f"{'candidate':<20}{'OKS':>8}{'PCK':>8}{'PMP':>8}{'mMAPE':>9}")
scores = {}
for name, pred_ds in candidates.items():
    report = evaluate_datasets(gt, pred_ds, cfg)
    scores[name] = {metric: report[metric]["mean"] for metric in ("oks", "pck", "pmp", "mmape")}
    s = scores[name]
    print(f"{name:<20}{s['oks']:>8.4f}{s['pck']:>8.4f}{s['pmp']:>8.4f}{s['mmape']:>9.2%}")

print()
for metric in ("oks", "pck", "pmp"):
    best = max(scores, key=lambda c: scores[c][metric])
    print(f"selected by {metric.upper():<4}: {best:<18} -> mMAPE {scores[best]['mmape']:.2%}")
