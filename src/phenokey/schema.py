"""Static schema: the 22-keypoint layout and the species tags.

Keypoint indices are 1-based everywhere in the public API, matching the
annotation convention; array storage is 0-based internally.
"""

KEYPOINT_COUNT = 22

# Visibility flags follow the usual annotation convention:
# 0 = not labeled, 1 = labeled but occluded, 2 = labeled and visible.
# All metrics treat v > 0 as "annotated and usable".

# Index -> anatomical landmark name.
KEYPOINT_NAMES = {
    1: "snout tip",
    2: "posterior end of operculum",
    3: "top end of head",
    4: "isthmus",
    5: "dorsal apex",
    6: "bottom end of ventral margin",
    7: "top end of caudal peduncle",
    8: "bottom end of caudal peduncle",
    9: "posterior end of tail fin",
    10: "posterior end of caudal vertebrae",
    11: "anterior end of eye",
    12: "posterior end of eye",
    13: "anterior end of pectoral fin",
    14: "posterior end of pectoral fin",
    15: "anterior end of pelvic fin",
    16: "posterior end of pelvic fin",
    17: "anterior end of anal fin",
    18: "posterior end of anal fin",
    19: "outer margin of anal fin",
    20: "anterior end of dorsal fin",
    21: "posterior end of dorsal fin",
    22: "outer margin of dorsal fin",
}

# Canonical species tags; "other" absorbs anything unrecognized.
SPECIES = (
    "grouper",
    "mottled_naked_carp",
    "bighead_carp",
    "common_carp",
    "other",
)


def normalize_species(name: str) -> str:
    """Map a free-form category name onto the canonical species enum."""
    tag = name.strip().lower().replace(" ", "_").replace("-", "_")
    return tag if tag in SPECIES else "other"
