import re
from pathlib import Path

import numpy as np
import pytest

from phenokey.dataset import Dataset, FishImageRecord, KeypointSet
from phenokey.schema import KEYPOINT_COUNT

DATA_DIR = Path(__file__).parent / "data"
# the stderr lines a command may write: an error, a warning, or one of the three status lines
STDERR_LINE = re.compile(r"(error|warning): .+|wrote \d+ records to .+|finished \d+ steps: .+|.+: ok \(\d+ records\)")


@pytest.fixture
def fixture_path() -> Path:
    return DATA_DIR / "two_fish.json"


def make_keypoints(xy=None, v=None, image_id=1, species="other", overrides=None):
    """KeypointSet on a simple diagonal layout; overrides maps 1-based index -> (x, y)."""
    if xy is None:
        xy = np.stack(
            [10.0 + 40.0 * np.arange(KEYPOINT_COUNT), 20.0 + 25.0 * np.arange(KEYPOINT_COUNT)],
            axis=1,
        )
    xy = np.array(xy, dtype=np.float64)
    if overrides:
        for idx, point in overrides.items():
            xy[idx - 1] = point
    if v is None:
        v = np.full(KEYPOINT_COUNT, 2, dtype=np.int64)
    return KeypointSet(xy=xy, v=np.array(v, dtype=np.int64), image_id=image_id, species=species)


def make_record(kp: KeypointSet, width=2000.0, height=2000.0) -> FishImageRecord:
    return FishImageRecord(image_id=kp.image_id, width=width, height=height, keypoints=kp)


def make_dataset(kps, role="train", width=2000.0, height=2000.0) -> Dataset:
    return Dataset(records=tuple(make_record(kp, width, height) for kp in kps), role=role)
