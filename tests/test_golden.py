"""Byte pins on the file-scoring commands and on synth.

A seeded 300-fish pair with hidden and occluded keypoints and all five
species goes through ``evaluate --metric all``, ``prior``, ``acr``,
``measure``, ``plot --kind deviation`` and plain, proportional and
uniform-pixel ``synth``; the SHA-256 of every output must equal the digest
recorded from an earlier release, so a refactor of the read or write path
cannot move a byte unnoticed. Three ``train-toy`` trace CSVs are pinned the
same way, so a faster training step cannot move a loss, weight or norm digit.
"""

import hashlib
import json
from types import SimpleNamespace

import pytest

from phenokey.cli import main

from oracles import oracle_parse_coco, oracle_pck

N_FISH = 300
# Keypoints 1, 5, 6 and 9 span the body rectangle and are never hidden.
_ALWAYS_VISIBLE = (0, 4, 5, 8)

GOLDEN = {
    "evaluate.json": "d8379f6296118fb44d08b4a8bdb38797b2a41be181f8b2a1822172f1890e945b",
    "prior.json": "6889e323bbbc43684731c600ff05f8c0d61d8f9d93c7ba8fec631e8b68e761e0",
    "prior_grouper.json": "5799b161cf987765ad15647ba64c2185dde10fe04070de32250324f199fb8d2f",
    "acr.json": "05c77f7dd55f12e2c93cb3b11af2afb906fe37eaf050a50cc4d1bfbd2b78e203",
    "measures.csv": "67dac57358a820daf6e2449aba46cdee81b5c696a21585ff5df99ab972034857",
    "deviation.svg": "3731aab9ed1c60c8beb0fe152bffc9d8b721abb29e1deb1ffb24d8d09612ca33",
    "deviation.csv": "cee1d174f48c720fd2652bb285662371bbfabc8fb78c77b0bf2a0944bb688a83",
    "synth.json": "efdd1bd0aa911fd2a2e351e2c7a0f9ed2ce8d319480b6771462ae2e31b90e3d1",
    "synth_proportional.json": "bc4a09c3821782f1adc4ed001569ea1744dcb0d13e876f9b337279bc4a8eaaff",
    "synth_uniform.json": "8d7239d49cd04800449e7d4974b2563867c77e8efbf448a862ecd83769063989",
}

# train-toy arguments -> SHA-256 of the trace CSV: ACR with GradNorm balancing, MSE alone, fixed weights with decay
TRACE_GOLDEN = {
    ("--seed", "0", "--steps", "4000", "--acr", "on"):
        "41939f1f074ef4542ad38b83787d3d36b5d85fb9655dfc090d36aa6b4bc7c716",
    ("--seed", "3", "--acr", "off"):
        "30b804c164e7e4d27f62b841690fa81e604dd9dc6ab2450b5c2a57cb68450e7e",
    ("--seed", "7", "--lr-decay", "0.006", "--lr-weights", "0", "--alpha", "0.5"):
        "f5f8fc1968268125983767b78e441341c31ec1764260d7d4b742c33a6c8521a3",
}


def _hide(path, salt):
    """Rewrite a synth file with patterned hidden (v=0) and occluded (v=1) keypoints and mixed species."""
    doc = json.loads(path.read_text())
    for n, ann in enumerate(doc["annotations"]):
        ann["category_id"] = 1 + n % 5
        flat = ann["keypoints"]
        for k in range(22):
            if k in _ALWAYS_VISIBLE:
                continue
            h = (7 * n + 3 * k + salt) % 29
            if h == 0:
                flat[3 * k + 2] = 0
            elif h == 1:
                flat[3 * k:3 * k + 3] = [0.0, 0.0, 0]
            elif h in (2, 3):
                flat[3 * k + 2] = 1
    path.write_text(json.dumps(doc))


_SYNTH = ["synth", "--template", "elongate", "--n", str(N_FISH), "--seed", "29"]


def _golden_pair(tmp_path):
    """Paths of the seeded ground truth and its uniform-pixel predictions, both with hidden keypoints."""
    gt, pred = tmp_path / "gt.json", tmp_path / "pred.json"
    assert main(_SYNTH + ["--out", str(gt)]) == 0
    assert main(_SYNTH + ["--perturb", "uniform_px", "--magnitude", "6", "--out", str(pred)]) == 0
    _hide(gt, 0)
    _hide(pred, 11)
    return gt, pred


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def golden_outputs(tmp_path):
    """{output name: SHA-256} of every pinned command on the seeded pair."""
    out = {name: tmp_path / name for name in GOLDEN}
    runs = [
        _SYNTH + ["--out", str(out["synth.json"])],
        _SYNTH + ["--perturb", "proportional_to_shortest_phenotype", "--magnitude", "0.05",
                  "--out", str(out["synth_proportional.json"])],
        _SYNTH + ["--perturb", "uniform_px", "--magnitude", "6", "--out", str(out["synth_uniform.json"])],
    ]
    for argv in runs:
        assert main(argv) == 0
    gt, pred = _golden_pair(tmp_path)
    runs = [
        ["evaluate", "--gt", str(gt), "--pred", str(pred), "--metric", "all", "--out", str(out["evaluate.json"])],
        ["prior", "--train", str(gt), "--out", str(out["prior.json"])],
        ["prior", "--train", str(gt), "--species", "grouper", "--out", str(out["prior_grouper.json"])],
        ["acr", "--pred", str(pred), "--prior", str(out["prior.json"]), "--out", str(out["acr.json"])],
        ["measure", "--input", str(gt), "--out", str(out["measures.csv"])],
        ["plot", "--kind", "deviation", "--gt", str(gt), "--pred", f"noisy={pred}", "--pred", f"self={gt}",
         "--out", str(out["deviation.svg"]), "--csv", str(out["deviation.csv"])],
    ]
    for argv in runs:
        assert main(argv) == 0
    return {name: _digest(path) for name, path in out.items()}


def test_outputs_match_recorded_digests(tmp_path):
    assert golden_outputs(tmp_path) == GOLDEN


@pytest.mark.parametrize("args", list(TRACE_GOLDEN), ids=["acr_gradnorm_seed0", "mse_only_seed3", "fixed_weights_seed7"])
def test_train_toy_trace_matches_recorded_digest(tmp_path, args):
    trace = tmp_path / "trace.csv"
    assert main(["train-toy", *args, "--trace", str(trace)]) == 0
    assert _digest(trace) == TRACE_GOLDEN[args]


@pytest.mark.parametrize("mode", ["head", "torso"])
def test_pck_scale_modes_count_what_the_oracle_counts(tmp_path, mode):
    """Samples with a hidden head or torso endpoint are skipped and counted, not fatal."""
    gt, pred = _golden_pair(tmp_path)
    report = tmp_path / "report.json"
    assert main(["evaluate", "--gt", str(gt), "--pred", str(pred), "--metric", "pck", "--pck-scale", mode,
                 "--out", str(report)]) == 0
    got = json.loads(report.read_text())["pck"]
    gts, preds = ([SimpleNamespace(xy=r[4], v=r[5]) for r in oracle_parse_coco(path)[1]] for path in (gt, pred))
    values, counts, skips = oracle_pck(preds, gts, SimpleNamespace(pck_scale_mode=mode, pck_threshold=0.1))
    assert got["sample_counts"] == counts and got["skip_counts"] == skips
    assert sum(skips) > 0
    assert list(got["per_keypoint"].values()) == pytest.approx(values, rel=0, abs=1e-12)
