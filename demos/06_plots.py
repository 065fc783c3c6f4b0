"""Emit the SVG plots: measurement scatter with a fitted line, deviation boxes.

Outputs land in a temporary directory that is removed when the demo ends;
each file's name and size are printed first.
"""

import tempfile
from pathlib import Path

import numpy as np

from phenokey import generate_population, plot_deviation_summary, plot_scatter
from phenokey.metrics import phenotype_value_pairs
from phenokey.synth import TEMPLATES, PerturbationModel, perturb

with tempfile.TemporaryDirectory(prefix="phenokey_plots_") as tmp:
    out = Path(tmp)

    gt = generate_population(TEMPLATES["elongate"], n=120, seed=19, role="test")
    pred = perturb(gt, PerturbationModel("proportional_to_shortest_phenotype", 0.04, seed=20))

    # scatter of ground-truth vs predicted eye diameter, with equation and R²
    gt_vals, pred_vals = phenotype_value_pairs(gt, pred, "ED")
    plot_scatter(list(zip(gt_vals, pred_vals)), out / "eye_diameter.svg", title="ED")

    # per-model deviation distributions (here: two noise magnitudes)
    deviations = {}
    for label, mag in (("mild", 0.03), ("heavy", 0.10)):
        p = perturb(gt, PerturbationModel("proportional_to_shortest_phenotype", mag, seed=21))
        d = np.hypot(*(p.xy - gt.xy).transpose(2, 0, 1))   # (N, 22) px
        deviations[label] = d[gt.v > 0].tolist()            # fish by fish, visible keypoints only
    plot_deviation_summary(deviations, out / "deviations.svg", csv_path=out / "deviations.csv")

    print("wrote:")
    for f in sorted(out.iterdir()):
        print(f"  {f.name}: {f.stat().st_size} bytes")
