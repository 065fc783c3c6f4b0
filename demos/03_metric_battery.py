"""Compare OKS, PCK, and the phenotype-normalized PMP on two noise models.

The same pixel budget spent uniformly versus proportionally to each
keypoint's shortest related phenotype produces very different PMP scores:
object-scale metrics barely notice where the error lands, the
phenotype-normalized one does.
"""

from phenokey import EvalConfig, evaluate_datasets, generate_population
from phenokey.synth import TEMPLATES, PerturbationModel, perturb

gt = generate_population(TEMPLATES["deep_bodied"], n=200, seed=11, role="test")
cfg = EvalConfig(pck_threshold=0.01)

models = {
    "uniform 5 px": PerturbationModel("uniform_px", 5.0, seed=1),
    "proportional 5%": PerturbationModel("proportional_to_shortest_phenotype", 0.05, seed=2),
}

print(f"{'perturbation':<18}{'OKS':>8}{'PCK@0.01':>10}{'PMP@0.1':>9}{'mMAPE':>8}")
for name, model in models.items():
    report = evaluate_datasets(gt, perturb(gt, model), cfg)
    oks, pck, pmp, mmape = (report[metric]["mean"] for metric in ("oks", "pck", "pmp", "mmape"))
    print(f"{name:<18}{oks:>8.4f}{pck:>10.4f}{pmp:>9.4f}{mmape:>8.2%}")

print("\nper-keypoint PMP under uniform noise (eye keypoints suffer most):")
report = evaluate_datasets(gt, perturb(gt, models["uniform 5 px"]), cfg, metrics=("pmp",))
for j in (1, 9, 11, 12, 20):
    print(f"  K-{j:<3} PMP = {report['pmp']['per_keypoint'][f'K-{j}']:.3f}")
