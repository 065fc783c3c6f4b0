"""Measure the 23 morphological phenotypes of one synthetic fish.

Each phenotype is the Euclidean distance between two named keypoints; the
table prints the abbreviation, the defining keypoint pair, and the length.
"""

from phenokey import default_table, generate_population, measure_all
from phenokey.synth import TEMPLATES

population = generate_population(TEMPLATES["deep_bodied"], n=1, seed=3)
fish = population.records[0]
table = default_table()

measured, skipped = measure_all(fish.keypoints)
print(f"fish {fish.image_id}: image {fish.width:.0f} x {fish.height:.0f} px\n")
print(f"{'abbrev':<7}{'keypoints':<14}{'length (px)':>12}   name")
for m in measured:
    pdef = table[m.abbrev]
    pair = f"K-{pdef.endpoints[0]}, K-{pdef.endpoints[1]}"
    print(f"{m.abbrev:<7}{pair:<14}{m.value:>12.2f}   {pdef.name}")
if skipped:
    print("\nskipped:", ", ".join(s.abbrev for s in skipped))
