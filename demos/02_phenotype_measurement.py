"""Measure the 23 morphological phenotypes of one synthetic fish.

Each phenotype is the Euclidean distance between two named keypoints; the
table prints the abbreviation, the defining keypoint pair, and the length.
"""

from phenokey import PHENOTYPES, generate_population, measurement_rows
from phenokey.synth import TEMPLATES

fish = generate_population(TEMPLATES["deep_bodied"], n=1, seed=3)

# one row per fish and one column per phenotype; hidden[0, t] names the missing endpoint, 0 if none
lengths, status, hidden = measurement_rows(fish.xy, fish.v)
print(f"fish {fish.image_ids[0]}: image {fish.width[0]:.0f} x {fish.height[0]:.0f} px\n")
print(f"{'abbrev':<7}{'keypoints':<14}{'length (px)':>12}   name")
for (abbrev, name, (a, b)), value, missing in zip(PHENOTYPES, lengths[0].tolist(), hidden[0].tolist()):
    if not missing:
        print(f"{abbrev:<7}{f'K-{a}, K-{b}':<14}{value:>12.2f}   {name}")
skipped = [abbrev for (abbrev, _, _), missing in zip(PHENOTYPES, hidden[0].tolist()) if missing]
if skipped:
    print("\nskipped:", ", ".join(skipped))
