"""Train the toy coordinate predictor with and without the box constraint.

The benchmark scenario corrupts a few training annotations in a way the
regression can chase exactly. Without the constraint the model reproduces
the corruption; with it, predictions are pinned at the anatomical boundary,
every box violation disappears, and the phenotype-normalized score improves.
"""

from phenokey import pmp, train
from phenokey.optim import acr_benchmark_scenario, coords_to_dataset

problem, init, with_acr, mse_only = acr_benchmark_scenario(seed=0)


def mean_pmp(predictor):
    pred_ds = coords_to_dataset(predictor.predict(problem.features), problem.population)
    return pmp(pred_ds, problem.population).mean()


for label, cfg in (("MSE + ACR", with_acr), ("MSE only ", mse_only)):
    predictor, trace = train(init, problem, cfg)
    rows = [trace[0], trace[len(trace) // 10], trace[len(trace) // 2], trace[-1]]
    print(f"--- {label}")
    print(f"{'step':>6}{'L_mse':>12}{'L_acr':>12}{'violations':>12}")
    for r in rows:
        print(f"{r.step:>6}{r.l_mse:>12.2f}{r.l_acr:>12.3f}{r.violation_count:>12}")
    print(f"final PMP(r=0.1) vs clean ground truth: {mean_pmp(predictor):.4f}\n")
