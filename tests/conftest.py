import re
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from phenokey.dataset import Dataset
from phenokey.optim import acr_benchmark_scenario, make_toy_problem, train
from phenokey.schema import KEYPOINT_COUNT, SPECIES

DATA_DIR = Path(__file__).parent / "data"
# the stderr lines a command may write: an error, a warning, or one of the three status lines
STDERR_LINE = re.compile(r"(error|warning): .+|wrote \d+ records to .+|finished \d+ steps: .+|.+: ok \(\d+ records\)")


def _cache_home(base: Path):
    """``XDG_CACHE_HOME`` set to ``base`` until the fixture ends; a test's own ``monkeypatch.undo()`` keeps it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(base))
        yield base / "phenokey"


@pytest.fixture(scope="session", autouse=True)
def session_parse_cache(tmp_path_factory):
    """The parse cache of module- and session-scoped fixtures, which run before :func:`parse_cache`."""
    yield from _cache_home(tmp_path_factory.mktemp("session-cache"))


@pytest.fixture(autouse=True)
def parse_cache(tmp_path_factory) -> Path:
    """Each test's own parse cache directory, so no test writes under ``~/.cache`` or reads another's entries."""
    yield from _cache_home(tmp_path_factory.mktemp("cache"))


@pytest.fixture(scope="session")
def acr_scenario():
    """``acr_benchmark_scenario(seed=0)`` trained once with ACR and once MSE-only, shared by the tests that check it;
    ``seconds`` is the time the set-up and both trainings took."""
    start = time.perf_counter()
    problem, init, with_acr, mse_only = acr_benchmark_scenario(seed=0)
    acr_pred, acr_trace = train(init, problem, with_acr)
    mse_pred, mse_trace = train(init, problem, mse_only)
    return SimpleNamespace(problem=problem, acr_pred=acr_pred, acr_trace=acr_trace, mse_pred=mse_pred,
                           mse_trace=mse_trace, seconds=time.perf_counter() - start)


@pytest.fixture
def fixture_path() -> Path:
    return DATA_DIR / "two_fish.json"


def make_keypoints(xy=None, v=None, image_id=1, species="other", overrides=None):
    """One fish's keypoints on a simple diagonal layout, as ``xy``, ``v``, ``image_id`` and ``species``; overrides
    maps 1-based index -> (x, y)."""
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
    return SimpleNamespace(xy=xy, v=np.array(v, dtype=np.int64), image_id=image_id, species=species)


def make_dataset(kps, role="train", width=2000.0, height=2000.0) -> Dataset:
    """The dataset of :func:`make_keypoints` sets, one row each; ``width`` and ``height``: one size, or one per set."""
    n = len(kps)
    return Dataset(
        np.reshape([k.xy for k in kps], (n, KEYPOINT_COUNT, 2)),
        np.reshape([k.v for k in kps], (n, KEYPOINT_COUNT)),
        [k.image_id for k in kps],
        np.broadcast_to(width, n),
        np.broadcast_to(height, n),
        [SPECIES.index(k.species) for k in kps],
        role,
    )


def rows(dataset: Dataset):
    """Each row of ``dataset`` as ``image_id``, ``width``, ``height`` and ``keypoints`` (``xy``, ``v``, ``image_id``),
    the shape the oracles read."""
    columns = zip(dataset.image_ids, dataset.width.tolist(), dataset.height.tolist(), dataset.xy, dataset.v)
    for image_id, width, height, xy, v in columns:
        yield SimpleNamespace(image_id=image_id, width=width, height=height,
                              keypoints=SimpleNamespace(xy=xy, v=v, image_id=image_id))


def keypoint_values(block) -> np.ndarray:
    """A report block's ``per_keypoint`` values as a (22,) float array, NaN where a value is None."""
    return np.array(list(block["per_keypoint"].values()), dtype=np.float64)


def linear_problem(n: int, feature_dim: int, seed: int):
    """``make_toy_problem(n, feature_dim, seed)`` with pure-noise features and targets an exact affine function of
    them, so the least-squares solution has zero residual."""
    problem = make_toy_problem(n, feature_dim, seed)
    rng = np.random.default_rng([seed, 104729])
    features = rng.standard_normal((n, feature_dim))
    true_w = rng.normal(0.0, 8.0, size=(2 * KEYPOINT_COUNT, feature_dim))
    return replace(problem, features=features, targets=features @ true_w.T + problem.targets.mean(axis=0))
