"""Fit the anatomical prior and evaluate the box-constraint loss.

The prior stores, per keypoint, the extremes of body-normalized coordinates
seen in training. Placed into a target image's bounding rectangle those
extremes become admissible boxes; predictions outside pay a hinge penalty.
Training ground truth scores exactly zero against its own image's box.
"""

import numpy as np

from phenokey import acr_hinge, dataset_boxes, fit_prior, generate_population
from phenokey.synth import TEMPLATES

train_set = generate_population(TEMPLATES["deep_bodied"], n=200, seed=5)
prior = fit_prior(train_set)

print(f"prior fitted on {prior.training_set_size} fish; normalized extents per keypoint:")
for j in (1, 5, 11, 22):
    w = prior.maxs[j - 1] - prior.mins[j - 1]
    print(f"  K-{j:<3} x' in [{prior.mins[j-1,0]:.3f}, {prior.maxs[j-1,0]:.3f}]"
          f"  y' in [{prior.mins[j-1,1]:.3f}, {prior.maxs[j-1,1]:.3f}]"
          f"  (box {w[0]:.3f} x {w[1]:.3f})")

# every fish against the boxes placed in its own frame: (N, 22, 2) hinges in px
hinge, _ = acr_hinge(train_set.xy, dataset_boxes(prior, train_set))
losses = hinge.sum(axis=(1, 2))
print("\nmax ACR loss over all training ground truths:", float(losses.max()), "(exactly 0)")

# push one keypoint of the first fish far outside its box and look at loss and gradient
fish = train_set.take([0])
displaced = fish.xy.copy()
displaced[0, 10] += (250.0, -120.0)  # K-11 anterior eye, way off
hinge, signs = acr_hinge(displaced, dataset_boxes(prior, fish))
print("loss after displacing K-11:", round(float(hinge.sum()), 2), "px")
print("gradient rows with active hinges:", np.flatnonzero((signs[0] != 0).any(axis=1)) + 1)
