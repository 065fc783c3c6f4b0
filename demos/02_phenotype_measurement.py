"""Measure the 23 morphological phenotypes of one synthetic fish.

Each phenotype is the Euclidean distance between two named keypoints; the
table prints the abbreviation, the defining keypoint pair, and the length.
"""

from phenokey import default_table, generate_population, measurement_rows
from phenokey.synth import TEMPLATES

fish = generate_population(TEMPLATES["deep_bodied"], n=1, seed=3)
table = default_table()

# one row per fish and one column per phenotype; hidden[0, t] names the missing endpoint, 0 if none
lengths, status, hidden = measurement_rows(fish.xy, fish.v)
print(f"fish {fish.image_ids[0]}: image {fish.width[0]:.0f} x {fish.height[0]:.0f} px\n")
print(f"{'abbrev':<7}{'keypoints':<14}{'length (px)':>12}   name")
for pdef, value, missing in zip(table, lengths[0].tolist(), hidden[0].tolist()):
    if not missing:
        pair = f"K-{pdef.endpoints[0]}, K-{pdef.endpoints[1]}"
        print(f"{pdef.abbrev:<7}{pair:<14}{value:>12.2f}   {pdef.name}")
skipped = [pdef.abbrev for pdef, missing in zip(table, hidden[0].tolist()) if missing]
if skipped:
    print("\nskipped:", ", ".join(skipped))
