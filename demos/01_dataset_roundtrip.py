"""Round-trip a synthetic population through the annotation format.

Generates a small population, writes it as a COCO-style keypoint file,
parses it back, and shows what the validator reports for a seeded defect.
The files live in a temporary directory that is removed when the demo ends.
"""

import json
import tempfile
from pathlib import Path


from phenokey import generate_population, parse_coco, serialize_coco, validate
from phenokey.synth import TEMPLATES

with tempfile.TemporaryDirectory(prefix="phenokey_demo_") as tmp:
    workdir = Path(tmp)
    path = workdir / "population.json"

    population = generate_population(TEMPLATES["deep_bodied"], n=5, seed=7)
    serialize_coco(population, path)
    print(f"wrote {len(population)} fish to {path}")

    again = parse_coco(path)
    print("parse(serialize(ds)) == ds:", again == population)
    print("violations on the clean file:", validate(again))

    # corrupt one visible coordinate and re-validate
    doc = json.loads(path.read_text())
    doc["annotations"][0]["keypoints"][0] = -14
    bad_path = workdir / "corrupted.json"
    bad_path.write_text(json.dumps(doc))
    for violation in validate(parse_coco(bad_path)):
        print("found:", violation)
