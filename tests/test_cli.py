import csv
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import phenokey.cli
from phenokey.cli import MEASURE_HEADER, build_parser, main
from phenokey.dataset import dataset_to_coco_dict, serialize_coco
from phenokey.errors import DegenerateMeasurementWarning, PhenokeyWarning
from phenokey.morphometry import ABBREVS, PHENOTYPES
from phenokey.optim import TrainConfig
from phenokey.schema import KEYPOINT_COUNT, SPECIES
from phenokey.synth import TEMPLATES, template_to_dict

from conftest import STDERR_LINE, make_dataset, make_keypoints, rows
from oracles import oracle_phenotype_length


@pytest.fixture
def synth_files(tmp_path):
    gt = tmp_path / "gt.json"
    pred = tmp_path / "pred.json"
    assert main(["synth", "--template", "deep_bodied", "--n", "12", "--seed", "3",
                 "--out", str(gt)]) == 0
    assert main(["synth", "--template", "deep_bodied", "--n", "12", "--seed", "3",
                 "--perturb", "uniform_px", "--magnitude", "4", "--out", str(pred)]) == 0
    return gt, pred


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_is_usage_error():
    assert main(["evaluate", "--bogus", "x"]) == 2


def test_missing_file_is_data_error(tmp_path, capsys):
    assert main(["validate", "--input", str(tmp_path / "absent.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_validate_clean_and_dirty(fixture_path, tmp_path, capsys):
    assert main(["validate", "--input", str(fixture_path)]) == 0
    doc = json.loads(fixture_path.read_text())
    doc["annotations"][0]["keypoints"][0] = -5
    dirty = tmp_path / "dirty.json"
    dirty.write_text(json.dumps(doc))
    assert main(["validate", "--input", str(dirty)]) == 1
    out = capsys.readouterr().out
    assert "visible_nonnegative" in out


def test_measure_emits_23_rows_per_image(fixture_path, tmp_path):
    out = tmp_path / "measures.csv"
    assert main(["measure", "--input", str(fixture_path), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "image_id,abbrev,value_px,status"
    assert len(lines) == 1 + 2 * 23
    image2 = [l for l in lines if l.startswith("2,")]
    skipped = [l for l in image2 if "skipped" in l]
    assert len(skipped) == 1 and skipped[0].startswith("2,DFH,,skipped:K-22")


def test_measure_run_as_a_module_warns_at_its_entry_line(tmp_path):
    path = tmp_path / "gt.json"
    serialize_coco(make_dataset([make_keypoints(image_id=4, overrides={12: (410.0, 270.0)})]), path)
    src = str(Path(phenokey.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    args = ["measure", "--input", str(path), "--out", str(tmp_path / "m.csv")]
    # as `python -m`, and as the console script's stub calls main
    stub = "import sys; from phenokey.cli import main; sys.exit(main())"
    for entry in (["-m", "phenokey.cli"], ["-c", stub]):
        done = subprocess.run([sys.executable, *entry, *args], env=env, capture_output=True, text=True, check=True)
        assert done.stderr == "warning: ED on image 4: coincident endpoints, zero length\n"


def test_measure_skips_by_flags_and_matches_oracle(tmp_path, capsys):
    hidden_a = np.full(KEYPOINT_COUNT, 2)
    hidden_a[0] = 0                        # K-1: TL (1, 9) loses endpoint a
    hidden_b = np.full(KEYPOINT_COUNT, 2)
    hidden_b[8] = 0                        # K-9: TL (1, 9) loses endpoint b
    hidden_both = np.full(KEYPOINT_COUNT, 2)
    hidden_both[[10, 11]] = 0              # K-11 and K-12: ED (11, 12) names K-11
    kps = [
        make_keypoints(v=hidden_a, image_id=1),
        make_keypoints(v=hidden_b, image_id=2),
        make_keypoints(v=hidden_both, image_id=3, overrides={11: (np.nan, np.nan), 12: (0.0, 0.0)}),
        make_keypoints(image_id=4, overrides={12: (410.0, 270.0)}),    # K-12 on K-11: ED is 0
    ]
    path = tmp_path / "gt.json"
    serialize_coco(make_dataset(kps), path)
    out = tmp_path / "measures.csv"
    capsys.readouterr()
    assert main(["measure", "--input", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == "warning: ED on image 4: coincident endpoints, zero length\n"
    with open(out, newline="", encoding="utf-8") as fh:
        rows = {(r["image_id"], r["abbrev"]): r for r in csv.DictReader(fh)}
    assert len(rows) == 4 * 23
    status = {key: r["status"] for key, r in rows.items()}
    assert status[("1", "TL")] == "skipped:K-1"
    assert status[("2", "TL")] == "skipped:K-9" and status[("2", "TFL")] == "skipped:K-9"
    assert status[("3", "ED")] == "skipped:K-11" and status[("3", "PoL")] == "skipped:K-12"
    assert status[("4", "ED")] == "degenerate" and rows[("4", "ED")]["value_px"] == "0.0"
    for kp in kps:
        for abbrev, _, ends in PHENOTYPES:
            row = rows[(str(kp.image_id), abbrev)]
            length, hidden = oracle_phenotype_length(kp, SimpleNamespace(endpoints=ends))
            if hidden is not None:
                assert row["status"] == f"skipped:K-{hidden}" and row["value_px"] == ""
            else:
                assert row["status"] in ("ok", "degenerate")
                assert float(row["value_px"]) == pytest.approx(length, rel=1e-12, abs=1e-12)


def test_measure_csv_equals_the_csv_module_text(tmp_path, recwarn):
    hidden = np.full(KEYPOINT_COUNT, 2)
    hidden[21] = 0                                                         # K-22: DFH skipped
    kps = [
        make_keypoints(image_id="a,b", overrides={12: (410.0, 270.0)}),     # K-12 on K-11: ED degenerate
        make_keypoints(image_id='q"t', v=hidden),
        make_keypoints(image_id="x\ny"),
        make_keypoints(image_id=""),
        make_keypoints(image_id=7),
    ]
    dataset = make_dataset(kps)
    path = tmp_path / "gt.json"
    path.write_text(json.dumps(dataset_to_coco_dict(dataset)))
    out = tmp_path / "m.csv"
    assert main(["measure", "--input", str(path), "--out", str(out)]) == 0
    expected = [("image_id", "abbrev", "value_px", "status")]
    for kp in rows(dataset):    # canonical order: the int id first, then the strings
        for abbrev, _, ends in PHENOTYPES:
            (ax, ay), (bx, by) = (kp.keypoints.xy[e - 1] for e in ends)
            missing = [e for e in ends if kp.keypoints.v[e - 1] == 0]
            length = float(np.hypot(bx - ax, by - ay))
            status = f"skipped:K-{missing[0]}" if missing else "degenerate" if length == 0 else "ok"
            expected.append((kp.image_id, abbrev, None if missing else length, status))
    reference = io.StringIO()
    csv.writer(reference).writerows(expected)
    assert out.read_bytes() == reference.getvalue().encode()
    assert b'\r\n"x\ny",BD,' in out.read_bytes() and b"\r\n,TL," in out.read_bytes()


def test_evaluate_pmp_report(synth_files, tmp_path):
    gt, pred = synth_files
    out = tmp_path / "report.json"
    assert main(["evaluate", "--gt", str(gt), "--pred", str(pred),
                 "--metric", "pmp", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["pmp"]["per_keypoint"]) == KEYPOINT_COUNT
    assert doc["metric"] == "pmp"
    assert "oks" not in doc
    assert doc["config"]["pmp_threshold"] == 0.1


def test_evaluate_all_includes_phenotypes(synth_files, tmp_path):
    gt, pred = synth_files
    out = tmp_path / "report.json"
    assert main(["evaluate", "--gt", str(gt), "--pred", str(pred),
                 "--metric", "all", "--r", "0.2", "--pck-scale", "head",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["pmp_threshold"] == 0.2
    assert doc["config"]["pck_scale_mode"] == "head"
    assert len(doc["phenotypes"]) == 23
    assert "mmape" in doc and "oks" in doc and "pck" in doc


def test_evaluate_config_file_and_flags_give_the_same_report(synth_files, tmp_path):
    gt, pred = synth_files
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pmp_threshold": 1, "pck_threshold": 2, "oks_scale": 300}))
    by_config, by_flags = tmp_path / "config.json", tmp_path / "flags.json"
    assert main(["evaluate", "--gt", str(gt), "--pred", str(pred), "--config", str(cfg),
                 "--out", str(by_config)]) == 0
    assert main(["evaluate", "--gt", str(gt), "--pred", str(pred), "--r", "1", "--pck-threshold", "2",
                 "--oks-scale", "300", "--out", str(by_flags)]) == 0
    assert by_config.read_bytes() == by_flags.read_bytes()
    assert json.loads(by_config.read_text())["config"]["pmp_threshold"] == 1.0


def test_evaluate_config_file_and_flag_precedence(synth_files, tmp_path):
    gt, pred = synth_files
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pmp_threshold": 0.05, "pck_scale_mode": "torso"}))
    out = tmp_path / "report.json"
    assert main(["evaluate", "--gt", str(gt), "--pred", str(pred), "--metric", "pmp",
                 "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["pmp_threshold"] == 0.05
    assert main(["evaluate", "--gt", str(gt), "--pred", str(pred), "--metric", "pmp",
                 "--config", str(cfg), "--r", "0.3", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["pmp_threshold"] == 0.3


@pytest.mark.parametrize("config,message", [
    ({"pmp_treshold": 0.05, "pck_scale_mode": "torso"}, "unknown config key(s) 'pmp_treshold'"),
    ("pmp_threshold", "config must be a JSON object"),
    ({"oks_k": 5}, "oks_k must hold 22 finite positive numbers"),
    ({"oks_k": [0.1] * 21}, "oks_k must hold 22 finite positive numbers"),
    ({"oks_k": ["0.1"] * 22}, "oks_k must hold 22 finite positive numbers"),
    ({"oks_k": "0.1"}, "oks_k must hold 22 finite positive numbers"),
    ({"pmp_threshold": -1}, "pmp_threshold must be a finite positive number, got -1"),
    ({"pck_threshold": True}, "pck_threshold must be a finite positive number, got True"),
    ({"pmp_threshold": float("nan")}, "pmp_threshold must be a finite positive number, got nan"),
    ({"pmp_threshold": float("inf")}, "pmp_threshold must be a finite positive number, got inf"),
    ({"pck_threshold": "0.1"}, "pck_threshold must be a finite positive number, got '0.1'"),
    ({"pck_scale_mode": "elbow"}, "pck_scale_mode must be one of head, torso, bbox_diagonal, got 'elbow'"),
    ({"oks_scale": 0}, "oks_scale must be a finite positive number, got 0"),
    ({"oks_scale": [1.0]}, "oks_scale must be a finite positive number, got [1.0]"),
    ({"pmp_threshold": 10**400}, f"pmp_threshold must be a finite positive number, got {10**400}"),
    ({"oks_k": [10**400] * 22}, "oks_k must hold 22 finite positive numbers"),
])
def test_evaluate_config_unknown_key_is_data_error(synth_files, tmp_path, capsys, config, message):
    gt, pred = synth_files
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    assert main(["evaluate", "--gt", str(gt), "--pred", str(pred), "--metric", "pmp",
                 "--config", str(cfg), "--out", str(out)]) == 1
    assert f"error: {cfg}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_prior_and_acr_flow(synth_files, tmp_path):
    gt, _ = synth_files
    prior = tmp_path / "prior.json"
    assert main(["prior", "--train", str(gt), "--out", str(prior)]) == 0
    doc = json.loads(prior.read_text())
    assert doc["training_set_size"] == 12
    assert len(doc["extremes"]) == KEYPOINT_COUNT

    out = tmp_path / "acr.json"
    assert main(["acr", "--pred", str(gt), "--prior", str(prior), "--out", str(out)]) == 0
    acr_doc = json.loads(out.read_text())
    # training ground truth against its own-population prior: exactly zero
    assert acr_doc["total_loss"] == 0.0
    assert all(entry["loss"] == 0.0 for entry in acr_doc["per_image"])


def test_acr_on_a_prediction_file_with_no_records_writes_a_report_with_none(synth_files, tmp_path, capsys):
    gt, _ = synth_files
    prior, empty, out = tmp_path / "prior.json", tmp_path / "empty.json", tmp_path / "acr.json"
    assert main(["prior", "--train", str(gt), "--out", str(prior)]) == 0
    empty.write_text(json.dumps(dict(json.loads(gt.read_text()), images=[], annotations=[])))
    capsys.readouterr()
    assert main(["acr", "--pred", str(empty), "--prior", str(prior), "--out", str(out)]) == 0
    assert capsys.readouterr().err == f"warning: {empty}: annotations array is empty; dataset has no records\n"
    expected = {"schema_version": 1, "total_loss": 0.0, "per_image": []}
    assert out.read_text() == json.dumps(expected, indent=2) + "\n"


def test_prior_species_filter_errors_when_empty(synth_files, tmp_path, capsys):
    gt, _ = synth_files
    assert main(["prior", "--train", str(gt), "--species", "grouper",
                 "--out", str(tmp_path / "p.json")]) == 1
    assert "grouper" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutate, named",
    [
        (lambda doc: {k: v for k, v in doc.items() if k != "extremes"}, "missing field 'extremes'"),
        (lambda doc: [1], "missing field 'extremes'"),
        (lambda doc: dict(doc, extremes=[dict(doc["extremes"][0], keypoint=99), *doc["extremes"][1:]]),
         "extremes[0]: field 'keypoint' must be an integer in 1..22, got 99"),
        (lambda doc: dict(doc, extremes=[dict(e, keypoint=1) for e in doc["extremes"]]),
         "extremes[1]: field 'keypoint' repeats K-1"),
        (lambda doc: dict(doc, species=5), f"field 'species' must be one of {', '.join(SPECIES)}, got 5"),
        (lambda doc: dict(doc, species="salmon"), f"field 'species' must be one of {', '.join(SPECIES)}, got 'salmon'"),
        (lambda doc: dict(doc, extremes=[dict(e, x_min=[0.2], y_min=[0.3]) for e in doc["extremes"]]),
         "K-1: field 'x_min' must be a number in [0, 1], got [0.2]"),
    ],
    ids=["no-extremes", "not-an-object", "keypoint-99", "keypoint-1-twice", "species-5", "species-salmon",
         "every-min-a-list"],
)
def test_acr_rejects_a_bad_prior_file_naming_file_and_field(synth_files, tmp_path, capsys, mutate, named):
    gt, pred = synth_files
    prior = tmp_path / "prior.json"
    assert main(["prior", "--train", str(gt), "--out", str(prior)]) == 0
    prior.write_text(json.dumps(mutate(json.loads(prior.read_text()))))
    capsys.readouterr()
    out = tmp_path / "acr.json"
    assert main(["acr", "--pred", str(pred), "--prior", str(prior), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: prior file {prior}: {named}\n"
    assert not out.exists()


def test_train_toy_writes_trace(tmp_path):
    trace = tmp_path / "trace.csv"
    assert main(["train-toy", "--seed", "1", "--steps", "40", "--lr", "2.0",
                 "--acr", "on", "--n", "12", "--trace", str(trace)]) == 0
    lines = trace.read_text().strip().splitlines()
    assert lines[0].split(",") == ["step", "L_mse", "L_acr", "w_mse", "w_acr",
                                   "grad_norm_mse", "grad_norm_acr", "violation_count"]
    assert len(lines) == 42  # header + steps + final row


def test_train_toy_flags_default_to_the_train_config():
    args = build_parser().parse_args(["train-toy", "--trace", "t.csv"])
    cfg = TrainConfig()
    assert (args.steps, args.lr, args.lr_decay, args.lr_weights, args.alpha) == (
        cfg.steps, cfg.lr, cfg.lr_decay, cfg.lr_weights, cfg.alpha)
    assert cfg.steps == 500    # the golden `--seed 3 --acr off` trace runs at this default


@pytest.mark.parametrize("command", [["synth", "--template", "elongate", "--n", "3"], ["train-toy"]])
def test_negative_seed_is_named(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main([*command, "--seed", "-1", "--out" if command[0] == "synth" else "--trace", str(out)]) == 1
    assert capsys.readouterr().err == "error: seed must be a nonnegative integer, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("mode", ["uniform_px", "proportional_to_shortest_phenotype"])
@pytest.mark.parametrize("magnitude", ["nan", "inf", "1e308"])
def test_synth_rejects_a_magnitude_without_finite_noise(tmp_path, capsys, mode, magnitude):
    out = tmp_path / "pred.json"
    assert main(["synth", "--template", "elongate", "--n", "3", "--perturb", mode,
                 "--magnitude", magnitude, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: magnitude ") and err.count("\n") == 1
    assert not out.exists()


def test_train_toy_rejects_a_negative_feature_dim_naming_the_field(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    assert main(["train-toy", "--steps", "3", "--feature-dim", "-1", "--trace", str(trace)]) == 1
    assert capsys.readouterr().err == "error: feature_dim must be a nonnegative integer, got -1\n"
    assert not trace.exists()
    # a width numpy itself refuses, with a traceback, before it allocates anything
    assert main(["train-toy", "--steps", "3", "--feature-dim", str(10**20), "--trace", str(trace)]) == 1
    assert capsys.readouterr().err == f"error: feature_dim must be at most 4096, got {10**20}\n"
    assert not trace.exists()


def test_train_toy_rejects_negative_steps(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    assert main(["train-toy", "--steps", "-1", "--trace", str(trace)]) == 1
    assert capsys.readouterr().err == "error: steps must be a nonnegative integer, got -1\n"
    assert not trace.exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--lr-decay", "-1"), ("--lr", "nan"), ("--lr", "inf"), ("--lr-decay", "nan"), ("--lr-weights", "nan"),
     ("--lr-weights", "-1"), ("--alpha", "-5"), ("--alpha", "inf")],
)
def test_train_toy_rejects_a_bad_rate_naming_the_field(tmp_path, capsys, flag, value):
    trace = tmp_path / "trace.csv"
    assert main(["train-toy", "--steps", "3", flag, value, "--trace", str(trace)]) == 1
    field = flag[2:].replace("-", "_")
    assert capsys.readouterr().err == f"error: {field} must be a finite nonnegative number, got {float(value)!r}\n"
    assert not trace.exists()


def _hide_k5(doc):
    for ann in doc["annotations"]:
        ann["keypoints"][3 * 4 + 2] = 0


@pytest.mark.parametrize(
    "argv, mutate, message",
    [
        (["synth", "--template", "deep_bodied", "--n", "0", "--out", "{out}"], None,
         "population size must be >= 1 and < 2**32 (one seed word per fish index), got 0"),
        (["synth", "--template", "deep_bodied", "--n", "4294967296", "--out", "{out}"], None,
         "population size must be >= 1 and < 2**32 (one seed word per fish index), got 4294967296"),
        (["train-toy", "--n", "0", "--trace", "{out}"], None,
         "population size must be >= 1 and < 2**32 (one seed word per fish index), got 0"),
        (["prior", "--train", "{doc}", "--out", "{out}"], lambda doc: doc.update(annotations=[]),
         "{doc}: cannot fit a prior on an empty training set"),
        (["prior", "--train", "{doc}", "--out", "{out}"], _hide_k5,
         "{doc}: keypoints never visible in the training set: ['K-5']"),
        (["evaluate", "--gt", "{doc}", "--pred", "{doc}", "--oks-scale", "-1", "--out", "{out}"], None,
         "oks_scale must be a finite positive number, got -1.0"),
        (["evaluate", "--gt", "{doc}", "--pred", "{doc}", "--r", "0", "--out", "{out}"], None,
         "pmp_threshold must be a finite positive number, got 0.0"),
        (["measure", "--input", "{doc}", "--out", "{out}"],
         lambda doc: doc["annotations"][0]["keypoints"].__setitem__(0, float("nan")),
         "{doc}: image 1: K-1 is annotated at non-finite (nan, 430.0)"),
    ],
    ids=["synth-no-fish", "synth-2**32-fish", "train-toy-no-fish", "prior-no-annotations", "prior-K-5-never-visible",
         "negative-oks-scale", "zero-r", "measure-nan-K-1"],
)
def test_each_refusal_is_one_error_line_and_exit_1(fixture_path, tmp_path, capsys, argv, mutate, message):
    doc, out = tmp_path / "doc.json", tmp_path / "out"
    data = json.loads(fixture_path.read_text())
    if mutate:
        mutate(data)
    doc.write_text(json.dumps(data))
    assert main([arg.format(doc=doc, out=out) for arg in argv]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines[-1] == f"error: {message.format(doc=doc)}"
    assert all(line.startswith("warning: ") for line in lines[:-1])
    assert not out.exists()


@pytest.mark.parametrize("command", [["synth", "--n", "3", "--out"], ["train-toy", "--steps", "3", "--trace"]])
def test_an_unknown_template_lists_the_built_in_names(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main([*command, str(out), "--template", "nosuch"]) == 1
    assert capsys.readouterr().err == (
        "error: template 'nosuch' is neither a built-in (deep_bodied, elongate) nor a file\n"
    )
    assert not out.exists()


def test_plot_scatter_and_deviation(synth_files, tmp_path):
    gt, pred = synth_files
    svg = tmp_path / "tl.svg"
    assert main(["plot", "--kind", "scatter", "--gt", str(gt), "--pred", str(pred),
                 "--phenotype", "TL", "--out", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")

    dev = tmp_path / "dev.svg"
    csv_out = tmp_path / "dev.csv"
    assert main(["plot", "--kind", "deviation", "--gt", str(gt),
                 "--pred", f"uniform={pred}", "--out", str(dev), "--csv", str(csv_out)]) == 0
    assert "box-group" in dev.read_text()
    assert csv_out.read_text().startswith("metric,min")


def test_plot_deviation_refuses_a_label_xml_forbids_and_writes_nothing(synth_files, tmp_path, capsys):
    gt, pred = synth_files
    dev = tmp_path / "dev.svg"
    capsys.readouterr()
    assert main(["plot", "--kind", "deviation", "--gt", str(gt), "--pred", f"m\x01={pred}", "--out", str(dev)]) == 1
    assert capsys.readouterr().err == "error: label 'm\\x01': '\\x01' is a character an SVG (XML 1.0) cannot hold\n"
    assert not dev.exists() and not dev.with_suffix(".csv").exists()


def test_plot_deviation_missing_image_is_data_error(synth_files, tmp_path, capsys):
    gt, _ = synth_files
    short = tmp_path / "short.json"
    assert main(["synth", "--template", "deep_bodied", "--n", "11", "--seed", "3",
                 "--perturb", "uniform_px", "--magnitude", "4", "--out", str(short)]) == 0
    capsys.readouterr()
    assert main(["plot", "--kind", "deviation", "--gt", str(gt), "--pred", f"m={short}",
                 "--out", str(tmp_path / "dev.svg")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: prediction file {short}: predictions missing for image ids [12]\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("metric", ["all", "oks", "pck", "pmp"])
def test_evaluate_scores_an_empty_ground_truth_as_null_blocks(synth_files, tmp_path, capsys, metric):
    gt, _ = synth_files
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps(dict(json.loads(gt.read_text()), images=[], annotations=[])))
    out = tmp_path / "report.json"
    capsys.readouterr()
    assert main(["evaluate", "--gt", str(empty), "--pred", str(gt), "--metric", metric, "--out", str(out)]) == 0
    assert capsys.readouterr().err == (
        f"warning: {empty}: annotations array is empty; dataset has no records\n"
        f"warning: prediction file {gt}: 12 predicted image id(s) not in the ground truth, ignored: [1, 2, 3, 4, 5]\n")
    nulls = {f"K-{j}": None for j in range(1, KEYPOINT_COUNT + 1)}
    hits = {"per_keypoint": nulls, "mean": None, "sample_counts": [0] * KEYPOINT_COUNT,
            "skip_counts": [0] * KEYPOINT_COUNT}
    blocks = {"oks": {"mean": None, "per_image": []}, "pck": hits, "pmp": hits,
              "phenotypes": dict.fromkeys(ABBREVS), "mmape": {"per_keypoint": nulls, "mean": None}}
    report = json.loads(out.read_text())
    assert report.pop("config") and report.pop("schema_version") == 1
    assert report == {"n_samples": 0, "metric": metric, **(blocks if metric == "all" else {metric: blocks[metric]})}


@pytest.mark.parametrize("value, axis", [(float("nan"), "x"), (float("inf"), "y")])
def test_prior_and_acr_name_a_fish_with_a_nonfinite_visible_coordinate(synth_files, tmp_path, capsys, value, axis):
    gt, pred = synth_files
    prior = tmp_path / "prior.json"
    assert main(["prior", "--train", str(gt), "--out", str(prior)]) == 0
    for path in (gt, pred):
        doc = json.loads(path.read_text())
        doc["annotations"][2]["keypoints"][3 * 4 + "xy".index(axis)] = value   # image 3, visible K-5
        path.write_text(json.dumps(doc))
    capsys.readouterr()
    reason = f"image 3: non-finite {axis}-range across visible keypoints"
    assert main(["prior", "--train", str(gt), "--out", str(tmp_path / "again.json")]) == 1
    assert capsys.readouterr().err == f"error: {gt}: {reason}\n"
    assert main(["acr", "--pred", str(pred), "--prior", str(prior), "--out", str(tmp_path / "acr.json")]) == 1
    assert capsys.readouterr().err == f"error: {pred}: {reason}\n"


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("command", ["evaluate", "deviation", "scatter"])
def test_evaluate_and_plot_name_a_ground_truth_with_a_nonfinite_visible_coordinate(
    synth_files, tmp_path, capsys, value, command
):
    gt, pred = synth_files
    doc = json.loads(gt.read_text())
    doc["annotations"][2]["keypoints"][3 * 1] = value   # image 3, visible K-2
    gt.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = {
        "evaluate": ["evaluate", "--gt", str(gt), "--pred", str(pred), "--out", str(out)],
        "deviation": ["plot", "--kind", "deviation", "--gt", str(gt), "--pred", str(pred), "--out", str(out)],
        "scatter": ["plot", "--kind", "scatter", "--gt", str(gt), "--pred", str(pred), "--out", str(out)],
    }[command]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")    # no numpy RuntimeWarning on the way
        assert main(argv) == 1
    x, y = doc["annotations"][2]["keypoints"][3:5]
    assert capsys.readouterr().err == f"error: {gt}: ground truth image 3: K-2 is annotated at non-finite ({x}, {y})\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--gt", "--measures"])
def test_an_input_that_is_no_utf8_names_its_file(synth_files, tmp_path, capsys, flag):
    gt, pred = synth_files
    evaluation, measures = tmp_path / "eval.json", tmp_path / "m.csv"
    assert main(["evaluate", "--gt", str(gt), "--pred", str(pred), "--metric", "pmp", "--out", str(evaluation)]) == 0
    assert main(["measure", "--input", str(gt), "--out", str(measures)]) == 0
    bad = gt if flag == "--gt" else measures
    text = bad.read_bytes()
    bad.write_bytes(text[:40] + b"\xff" + text[41:])
    argv = {
        "--gt": ["evaluate", "--gt", str(gt), "--pred", str(pred)],
        "--measures": ["report", "--evaluation", str(evaluation), "--measures", str(measures)],
    }[flag]
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position 40: invalid start byte\n"
    )
    assert not out.exists()


def test_evaluate_missing_prediction_is_data_error(synth_files, tmp_path, capsys):
    gt, _ = synth_files
    short = tmp_path / "short.json"
    assert main(["synth", "--template", "deep_bodied", "--n", "11", "--seed", "3",
                 "--perturb", "uniform_px", "--magnitude", "4", "--out", str(short)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--gt", str(gt), "--pred", str(short), "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: prediction file {short}: predictions missing for image ids [12]\n"
    assert "Traceback" not in err


def test_report_composes_without_recompute(synth_files, tmp_path):
    gt, pred = synth_files
    evaluation = tmp_path / "eval.json"
    measures = tmp_path / "measures.csv"
    combined = tmp_path / "combined.json"
    assert main(["evaluate", "--gt", str(gt), "--pred", str(pred),
                 "--metric", "pmp", "--out", str(evaluation)]) == 0
    assert main(["measure", "--input", str(gt), "--out", str(measures)]) == 0
    assert main(["report", "--evaluation", str(evaluation), "--measures", str(measures),
                 "--out", str(combined)]) == 0
    doc = json.loads(combined.read_text())
    assert doc["evaluation"] == json.loads(evaluation.read_text())
    assert len(doc["measurements"]) == 12 * 23
    assert doc["measurements"][0]["abbrev"] == "TL"


def test_report_embeds_image_ids_with_line_breaks_unchanged(tmp_path, recwarn):
    dataset = make_dataset([make_keypoints(image_id=image_id) for image_id in ("a\r\nb", "c\rd", "e\nf", 7)])
    gt, evaluation, measures, combined = (tmp_path / name for name in ("gt.json", "eval.json", "m.csv", "out.json"))
    serialize_coco(dataset, gt)
    assert main(["evaluate", "--gt", str(gt), "--pred", str(gt), "--metric", "pmp", "--out", str(evaluation)]) == 0
    assert main(["measure", "--input", str(gt), "--out", str(measures)]) == 0
    assert main(["report", "--evaluation", str(evaluation), "--measures", str(measures), "--out", str(combined)]) == 0
    measurements = json.loads(combined.read_text())["measurements"]
    assert [row["image_id"] for row in measurements[::len(ABBREVS)]] == ["7", "a\r\nb", "c\rd", "e\nf"]
    with open(measures, encoding="utf-8", newline="") as fh:
        assert measurements == list(csv.DictReader(fh))


def test_subcommands_byte_deterministic(synth_files, tmp_path):
    gt, pred = synth_files
    r1 = tmp_path / "r1.json"
    assert main(["evaluate", "--gt", str(gt), "--pred", str(pred), "--metric", "all",
                 "--out", str(r1)]) == 0
    r2 = tmp_path / "r2.json"
    assert main(["evaluate", "--gt", str(gt), "--pred", str(pred), "--metric", "all",
                 "--out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()

    g2 = tmp_path / "gt2.json"
    assert main(["synth", "--template", "deep_bodied", "--n", "12", "--seed", "3",
                 "--out", str(g2)]) == 0
    assert g2.read_bytes() == gt.read_bytes()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "phenokey" in capsys.readouterr().out


def _strict_json(text):
    def refuse(token):
        raise AssertionError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


def test_evaluate_nonfinite_prediction_is_a_counted_miss(fixture_path, tmp_path, capsys):
    doc = json.loads(fixture_path.read_text())
    pred_doc = json.loads(fixture_path.read_text())
    pred_doc["annotations"][0]["keypoints"][3 * 10] = float("nan")     # image 1, K-11 x
    assert doc["annotations"][0]["keypoints"][3 * 10 + 2] > 0
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps(pred_doc))
    clean_out, out = tmp_path / "clean.json", tmp_path / "report.json"
    assert main(["evaluate", "--gt", str(fixture_path), "--pred", str(fixture_path), "--out", str(clean_out)]) == 0
    assert main(["evaluate", "--gt", str(fixture_path), "--pred", str(pred), "--out", str(out)]) == 0
    text = out.read_text()
    assert "NaN" not in text and "Infinity" not in text
    report, clean = _strict_json(text), _strict_json(clean_out.read_text())

    # OKS: K-11 of image 1 scores similarity 0, every other keypoint is exact
    visible = sum(1 for f in doc["annotations"][0]["keypoints"][2::3] if f > 0)
    assert report["oks"]["per_image"][0]["oks"] == pytest.approx((visible - 1) / visible, abs=1e-15)
    assert report["oks"]["per_image"][1] == clean["oks"]["per_image"][1]
    # PCK / PMP: the sample still counts, as a miss
    for metric in ("pck", "pmp"):
        assert report[metric]["sample_counts"] == clean[metric]["sample_counts"]
        assert report[metric]["skip_counts"] == clean[metric]["skip_counts"]
        assert report[metric]["per_keypoint"]["K-11"] == clean[metric]["per_keypoint"]["K-11"] - 0.5
    # phenotypes through K-11 skip the non-finite pair and count it
    for abbrev, stats in report["phenotypes"].items():
        before = clean["phenotypes"][abbrev]
        moved = abbrev in ("SnL", "ED")
        assert stats["n_skipped"] == before["n_skipped"] + moved
        assert stats["n_samples"] == before["n_samples"] - moved


def test_report_writers_refuse_nonfinite_numbers(synth_files, tmp_path, capsys):
    gt, pred = synth_files
    evaluation, measures = tmp_path / "r.json", tmp_path / "m.csv"
    assert main(["evaluate", "--gt", str(gt), "--pred", str(pred), "--out", str(evaluation)]) == 0
    assert main(["measure", "--input", str(gt), "--out", str(measures)]) == 0
    doc = json.loads(evaluation.read_text())
    doc["oks"]["mean"] = float("nan")    # json.load reads NaN, the report writer refuses it
    evaluation.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    out.write_text("old report\n")
    argv = ["report", "--evaluation", str(evaluation), "--measures", str(measures)]
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {out}: Out of range float values are not JSON compliant\n"
    assert out.read_text() == "old report\n"
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: stdout: Out of range float values are not JSON compliant\n")
    assert list(tmp_path.glob("*.part")) == []


def test_acr_names_the_record_with_a_nonfinite_hinge(synth_files, tmp_path, capsys):
    gt, pred = synth_files
    prior = tmp_path / "prior.json"
    assert main(["prior", "--train", str(gt), "--out", str(prior)]) == 0
    doc = json.loads(pred.read_text())
    # K-13 hidden with a NaN x: the box ignores it, its hinge is NaN
    doc["annotations"][0]["keypoints"][3 * 12:3 * 13] = [float("nan"), 10.0, 0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "acr.json"
    capsys.readouterr()
    assert main(["acr", "--pred", str(bad), "--prior", str(prior), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: image 1: K-13 has a non-finite ACR hinge\n"
    assert not out.exists()


def test_writers_never_use_the_pure_python_encoder(synth_files, tmp_path, monkeypatch):
    def slow_encoder(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder was used")

    monkeypatch.setattr(json.encoder, "_make_iterencode", slow_encoder)
    with pytest.raises(AssertionError):
        json.dumps({"a": [1]}, indent=2)
    gt, pred = synth_files
    prior = tmp_path / "prior.json"
    runs = [
        ["evaluate", "--gt", str(gt), "--pred", str(pred), "--metric", "all", "--out", str(tmp_path / "r.json")],
        ["prior", "--train", str(gt), "--out", str(prior)],
        ["acr", "--pred", str(pred), "--prior", str(prior), "--out", str(tmp_path / "acr.json")],
        ["synth", "--template", "elongate", "--n", "5", "--seed", "2", "--out", str(tmp_path / "s.json")],
        ["synth", "--template", "elongate", "--n", "5", "--seed", "2", "--perturb", "uniform_px",
         "--magnitude", "3", "--out", str(tmp_path / "p.json")],
        ["measure", "--input", str(gt), "--out", str(tmp_path / "m.csv")],
        ["report", "--evaluation", str(tmp_path / "r.json"), "--measures", str(tmp_path / "m.csv"),
         "--out", str(tmp_path / "report.json")],
    ]
    for argv in runs:
        assert main(argv) == 0, argv
    monkeypatch.undo()
    for name in ("r.json", "prior.json", "acr.json", "s.json", "p.json", "report.json"):
        text = (tmp_path / name).read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_whole_file_commands_run_on_plain_and_flagged_files(synth_files, tmp_path, capsys):
    gt, pred = synth_files
    doc = json.loads(gt.read_text())
    doc["annotations"][1]["keypoints"][0] = -5.0
    doc["images"][3]["width"] = 0
    flagged = tmp_path / "flagged.json"
    flagged.write_text(json.dumps(doc))
    prior = tmp_path / "prior.json"
    runs = [
        ["measure", "--input", str(gt), "--out", str(tmp_path / "m.csv")],
        ["evaluate", "--gt", str(gt), "--pred", str(pred), "--metric", "all", "--out", str(tmp_path / "r.json")],
        ["prior", "--train", str(gt), "--out", str(prior)],
        ["acr", "--pred", str(pred), "--prior", str(prior), "--out", str(tmp_path / "acr.json")],
        ["plot", "--kind", "deviation", "--gt", str(gt), "--pred", f"m={pred}", "--out", str(tmp_path / "d.svg")],
        ["synth", "--template", "elongate", "--n", "5", "--seed", "2", "--out", str(tmp_path / "s.json")],
        ["synth", "--template", "elongate", "--n", "5", "--seed", "2", "--perturb", "uniform_px",
         "--magnitude", "3", "--out", str(tmp_path / "p.json")],
    ]
    assert main(["validate", "--input", str(flagged)]) == 1
    first, second = capsys.readouterr().out.splitlines()
    assert first.startswith("[visible_nonnegative] image 2, keypoint 1: (-5.0, ")
    assert second.startswith("[positive_dimensions] image 4: width=0.0, height=")
    for argv in runs:
        assert main(argv) == 0, argv


@pytest.mark.parametrize("flag", ["--gt", "--pred", "--config", "--prior", "--template", "--evaluation"])
def test_every_json_input_names_its_file(synth_files, tmp_path, capsys, flag):
    gt, pred = synth_files
    prior, evaluation, measures = tmp_path / "prior.json", tmp_path / "eval.json", tmp_path / "m.csv"
    assert main(["prior", "--train", str(gt), "--out", str(prior)]) == 0
    assert main(["evaluate", "--gt", str(gt), "--pred", str(pred), "--metric", "pmp", "--out", str(evaluation)]) == 0
    assert main(["measure", "--input", str(gt), "--out", str(measures)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "a": 1,\n  }\n')
    files = {"--gt": gt, "--pred": pred, "--config": None, "--prior": prior, "--evaluation": evaluation, flag: bad}
    argv = {
        "--gt": ["evaluate", "--gt", str(files["--gt"]), "--pred", str(pred)],
        "--pred": ["evaluate", "--gt", str(gt), "--pred", str(files["--pred"])],
        "--config": ["evaluate", "--gt", str(gt), "--pred", str(pred), "--config", str(bad)],
        "--prior": ["acr", "--pred", str(pred), "--prior", str(files["--prior"])],
        "--template": ["synth", "--template", str(bad), "--n", "3", "--out", str(tmp_path / "s.json")],
        "--evaluation": ["report", "--evaluation", str(files["--evaluation"]), "--measures", str(measures)],
    }[flag]
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert main(argv + (["--out", str(out)] if flag != "--template" else [])) == 1
    name = f"prior file {bad}" if flag == "--prior" else str(bad)
    assert capsys.readouterr().err == (
        f"error: {name}: malformed document at line 3, column 3: Expecting property name enclosed in double quotes\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "mutate, named",
    [
        (lambda doc: [1], "missing field 'mean_layout'"),
        (lambda doc: {"name": "x"}, "missing field 'mean_layout'"),
        (lambda doc: {k: v for k, v in doc.items() if k != "spread"}, "missing field 'spread'"),
        (lambda doc: dict(doc, mean_layout=doc["mean_layout"][:3]),
         "field 'mean_layout' must hold finite numbers of shape (22, 2), got shape (3, 2)"),
        (lambda doc: dict(doc, body_size_range=["big", "small"]),
         "field 'body_size_range' must hold finite numbers of shape (2,), got non-numeric values"),
        (lambda doc: dict(doc, body_size_range=["500", "900"]),
         "field 'body_size_range' must hold finite numbers of shape (2,), got non-numeric values"),
        (lambda doc: dict(doc, aspect="0.5"),
         "field 'aspect' must hold finite numbers of shape (), got non-numeric values"),
        (lambda doc: dict(doc, aspect=True),
         "field 'aspect' must hold finite numbers of shape (), got non-numeric values"),
        (lambda doc: dict(doc, aspect=None),
         "field 'aspect' must hold finite numbers of shape (), got non-numeric values"),
        (lambda doc: dict(doc, aspect=[0.5]), "field 'aspect' must hold finite numbers of shape (), got shape (1,)"),
        (lambda doc: dict(doc, mean_layout=[[float("nan"), 0.5]] + doc["mean_layout"][1:]),
         "field 'mean_layout' must hold finite numbers of shape (22, 2), got NaN or infinity"),
        (lambda doc: dict(doc, spread=doc["spread"][:-1] + [float("inf")]),
         "field 'spread' must hold finite numbers of shape (22,), got NaN or infinity"),
        (lambda doc: dict(doc, aspect=float("-inf")),
         "field 'aspect' must hold finite numbers of shape (), got NaN or infinity"),
        (lambda doc: dict(doc, body_size_range=[900.0, 500.0]),
         "invalid template: body_size_range must satisfy 0 < min <= max, got (900.0, 500.0)"),
        (lambda doc: dict(doc, spread=[0.2] * KEYPOINT_COUNT),
         "invalid template: mean_layout +/- 3*spread must stay within [0, 1] on both axes"),
        (lambda doc: dict(doc, spread=doc["spread"][:-1] + [-0.001]), "invalid template: spread must be nonnegative"),
        (lambda doc: dict(doc, aspect=0), "invalid template: aspect must be in (0, 2], got 0.0"),
        (lambda doc: dict(doc, aspect=2.5), "invalid template: aspect must be in (0, 2], got 2.5"),
        (lambda doc: dict(doc, aspect=10**400),
         "field 'aspect' must hold finite numbers of shape (), got non-numeric values"),
    ],
    ids=["not-an-object", "name-only", "no-spread", "short-layout", "text-sizes", "numeric-text-sizes",
         "numeric-text-aspect", "bool-aspect", "null-aspect", "list-aspect", "nan-layout", "inf-spread", "inf-aspect",
         "sizes-reversed", "spread-too-wide", "negative-spread", "zero-aspect", "aspect-2.5", "beyond-float-aspect"],
)
def test_synth_rejects_a_bad_template_file_naming_file_and_field(tmp_path, capsys, mutate, named):
    template = tmp_path / "template.json"
    template.write_text(json.dumps(mutate(template_to_dict(TEMPLATES["elongate"]))))
    out = tmp_path / "s.json"
    assert main(["synth", "--template", str(template), "--n", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {template}: {named}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [["synth", "--n", "4", "--seed", "2", "--out"],
                                     ["train-toy", "--n", "6", "--seed", "2", "--steps", "50", "--trace"]],
                         ids=["synth", "train-toy"])
def test_synth_reads_a_good_template_file_like_the_built_in_one(tmp_path, command):
    template = tmp_path / "template.json"
    template.write_text(json.dumps(template_to_dict(TEMPLATES["elongate"])))
    from_file, built_in = tmp_path / "file.out", tmp_path / "built_in.out"
    assert main([command[0], "--template", str(template), *command[1:], str(from_file)]) == 0
    assert main([command[0], "--template", "elongate", *command[1:], str(built_in)]) == 0
    assert from_file.read_bytes() == built_in.read_bytes()


@pytest.mark.parametrize(
    "evaluation_text, measures_text, bad, named",
    [
        ("[1, 2]", None, "evaluation", "missing field 'schema_version'"),
        ('{"schema_version": 2, "n_samples": 12}', None, "evaluation", "field 'schema_version' must be 1, got 2"),
        ('{"schema_version": 1}', None, "evaluation", "missing field 'n_samples'"),
        (None, "a,b\n1,2\n", "measures", "header must be image_id,abbrev,value_px,status, got ['a', 'b']"),
        (None, "", "measures", "header must be image_id,abbrev,value_px,status, got None"),
        (None, f"{','.join(MEASURE_HEADER)}\r\n1,TL,1.0,ok\r\n{'x' * 131073},TL,1.0,ok\r\n", "measures",
         "line 3: field larger than field limit (131072)"),
        (None, f"{','.join(MEASURE_HEADER)}\r\n1,TL,1.0,ok,x\r\n", "measures", "line 2: 5 fields, expected 4"),
        (None, f"{','.join(MEASURE_HEADER)}\r\n1,TL,1.0,ok\r\n\r\n1,HL\r\n", "measures",
         "line 4: 2 fields, expected 4"),
    ],
    ids=["list", "version-2", "no-n_samples", "header-a-b", "empty-csv", "oversized-field", "extra-field",
         "short-row"],
)
def test_report_rejects_what_evaluate_and_measure_do_not_write(
    synth_files, tmp_path, capsys, evaluation_text, measures_text, bad, named
):
    gt, pred = synth_files
    evaluation, measures = tmp_path / "eval.json", tmp_path / "m.csv"
    assert main(["evaluate", "--gt", str(gt), "--pred", str(pred), "--metric", "pmp", "--out", str(evaluation)]) == 0
    assert main(["measure", "--input", str(gt), "--out", str(measures)]) == 0
    if evaluation_text is not None:
        evaluation.write_text(evaluation_text)
    if measures_text is not None:
        measures.write_text(measures_text)
    out = tmp_path / "combined.json"
    capsys.readouterr()
    assert main(["report", "--evaluation", str(evaluation), "--measures", str(measures), "--out", str(out)]) == 1
    path = evaluation if bad == "evaluation" else measures
    assert capsys.readouterr().err == f"error: {path}: {named}\n"
    assert not out.exists()


def _deviation_quantiles_by_hand(gt_path, pred_path):
    gt_doc, pred_doc = json.loads(gt_path.read_text()), json.loads(pred_path.read_text())
    values = []
    for g, p in zip(gt_doc["annotations"], pred_doc["annotations"]):
        assert g["image_id"] == p["image_id"]
        for i in range(KEYPOINT_COUNT):
            gx, gy, gv = g["keypoints"][3 * i:3 * i + 3]
            px, py, _ = p["keypoints"][3 * i:3 * i + 3]
            if gv > 0 and np.isfinite(px) and np.isfinite(py):
                values.append(float(np.hypot(px - gx, py - gy)))
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return [min(values), q1, med, q3, max(values)]


def test_plot_deviation_leaves_out_nonfinite_predictions_and_counts_them(synth_files, tmp_path, capsys):
    gt, pred = synth_files
    doc = json.loads(pred.read_text())
    doc["annotations"][0]["keypoints"][3 * 4] = float("inf")       # image 1, K-5 x
    doc["annotations"][5]["keypoints"][3 * 7 + 1] = float("nan")   # image 6, K-8 y
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    svg, table = tmp_path / "dev.svg", tmp_path / "dev.csv"
    capsys.readouterr()
    assert main(["plot", "--kind", "deviation", "--gt", str(gt), "--pred", f"m={bad}",
                 "--out", str(svg), "--csv", str(table)]) == 0
    assert capsys.readouterr().err == "warning: m: 2 non-finite predicted keypoints left out\n"
    header, row = table.read_text().splitlines()
    assert row.split(",")[0] == "m"
    assert [float(x) for x in row.split(",")[1:]] == pytest.approx(_deviation_quantiles_by_hand(gt, bad), rel=1e-12)
    text = svg.read_text()
    assert "nan" not in text and "inf" not in text

    assert main(["plot", "--kind", "deviation", "--gt", str(gt), "--pred", f"m={pred}",
                 "--out", str(svg), "--csv", str(table)]) == 0
    assert capsys.readouterr().err == ""


def test_plot_deviation_with_no_finite_prediction_is_a_data_error(synth_files, tmp_path, capsys):
    gt, pred = synth_files
    doc = json.loads(pred.read_text())
    for ann in doc["annotations"]:
        ann["keypoints"][0::3] = [float("nan")] * KEYPOINT_COUNT
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["plot", "--kind", "deviation", "--gt", str(gt), "--pred", f"m={bad}",
                 "--out", str(tmp_path / "dev.svg")]) == 1
    assert capsys.readouterr().err == (
        f"warning: m: {12 * KEYPOINT_COUNT} non-finite predicted keypoints left out\n"
        "error: m: no finite deviation to plot\n"
    )


def test_plot_scatter_takes_one_prediction_file(synth_files, tmp_path, capsys):
    gt, pred = synth_files
    svg = tmp_path / "tl.svg"
    capsys.readouterr()
    assert main(["plot", "--kind", "scatter", "--gt", str(gt), "--pred", str(pred),
                 "--pred", str(tmp_path / "absent.json"), "--out", str(svg)]) == 2
    assert capsys.readouterr().err == "error: a scatter plot takes one --pred\n"
    assert not svg.exists()
    assert main(["plot", "--kind", "scatter", "--gt", str(gt), "--pred", f"run={pred}", "--out", str(svg)]) == 0
    labelled = svg.read_bytes()
    assert main(["plot", "--kind", "scatter", "--gt", str(gt), "--pred", str(pred), "--out", str(svg)]) == 0
    assert svg.read_bytes() == labelled


def test_synth_magnitude_needs_perturb(tmp_path, capsys):
    out = tmp_path / "m.json"
    # refused before any file is read: the template does not exist
    assert main(["synth", "--template", str(tmp_path / "absent.json"), "--n", "3", "--magnitude", "5",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --magnitude needs --perturb\n"
    assert not out.exists()
    # --perturb alone perturbs by 0
    for name, magnitude in (("default.json", []), ("zero.json", ["--magnitude", "0"])):
        assert main(["synth", "--template", "elongate", "--n", "3", "--perturb", "uniform_px", *magnitude,
                     "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "default.json").read_bytes() == (tmp_path / "zero.json").read_bytes()


@pytest.mark.parametrize("csv_flag", [[], ["--csv", "-"]], ids=["no-csv", "csv-on-stdout"])
def test_plot_deviation_on_stdout_needs_a_csv_file(synth_files, tmp_path, monkeypatch, capsys, csv_flag):
    _, pred = synth_files
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    capsys.readouterr()
    # refused before any file is read: the ground truth does not exist
    argv = ["plot", "--kind", "deviation", "--gt", str(tmp_path / "absent.json"), "--pred", str(pred), "--out", "-"]
    assert main(argv + csv_flag) == 2
    refusal = "error: a deviation plot on stdout (--out -) needs a --csv file for its quantiles\n"
    assert capsys.readouterr() == ("", refusal)
    assert list(cwd.iterdir()) == []    # no `-.csv`
    argv[argv.index("--gt") + 1] = str(synth_files[0])
    assert main(argv + ["--csv", "q.csv"]) == 0
    assert capsys.readouterr().out.startswith("<svg")
    assert sorted(path.name for path in cwd.iterdir()) == ["q.csv"]


def test_plot_scatter_missing_image_names_the_prediction_file(synth_files, tmp_path, capsys):
    gt, _ = synth_files
    short = tmp_path / "short.json"
    assert main(["synth", "--template", "deep_bodied", "--n", "10", "--seed", "3", "--out", str(short)]) == 0
    capsys.readouterr()
    assert main(["plot", "--kind", "scatter", "--gt", str(gt), "--pred", str(short),
                 "--out", str(tmp_path / "tl.svg")]) == 1
    assert capsys.readouterr().err == f"error: prediction file {short}: predictions missing for image ids [11, 12]\n"


def test_a_scatter_with_fewer_than_2_usable_pairs_names_the_phenotype_the_file_and_the_pairs_left_out(
    fixture_path, tmp_path, capsys
):
    doc = json.loads(fixture_path.read_text())
    flat = doc["annotations"][0]["keypoints"]
    flat[3 * 11:3 * 11 + 2] = flat[3 * 10:3 * 10 + 2]    # K-12 on K-11: fish 1's ED is 0
    gt, svg = tmp_path / "gt.json", tmp_path / "ed.svg"
    gt.write_text(json.dumps(doc))
    assert main(["plot", "--kind", "scatter", "--gt", str(gt), "--pred", str(fixture_path), "--phenotype", "ED",
                 "--out", str(svg)]) == 1
    assert capsys.readouterr().err == (
        f"error: ED: 1 usable pair(s) with prediction file {fixture_path} (1 left out), a scatter needs at least 2\n"
    )
    assert not svg.exists()


def test_plot_phenotype_choices_come_from_the_table(synth_files, tmp_path, capsys):
    gt, pred = synth_files
    assert main(["plot", "--kind", "scatter", "--gt", str(gt), "--pred", str(pred),
                 "--phenotype", "XX", "--out", str(tmp_path / "xx.svg")]) == 2
    err = capsys.readouterr().err
    assert "argument --phenotype: invalid choice: 'XX'" in err
    assert all(abbrev in err for abbrev in ABBREVS)


def test_pipeline_on_30_fish_runs_end_to_end(tmp_path, capsys):
    f = {name: str(tmp_path / name) for name in (
        "gt.json", "pred.json", "m.csv", "eval.json", "prior.json", "acr.json", "tl.svg", "dev.svg", "dev.csv",
        "combined.json",
    )}
    steps = [
        ["synth", "--template", "elongate", "--n", "30", "--seed", "8", "--out", f["gt.json"]],
        ["synth", "--template", "elongate", "--n", "30", "--seed", "8", "--perturb",
         "proportional_to_shortest_phenotype", "--magnitude", "0.05", "--out", f["pred.json"]],
        ["validate", "--input", f["gt.json"]],
        ["measure", "--input", f["gt.json"], "--out", f["m.csv"]],
        ["evaluate", "--gt", f["gt.json"], "--pred", f["pred.json"], "--metric", "all", "--out", f["eval.json"]],
        ["prior", "--train", f["gt.json"], "--out", f["prior.json"]],
        ["acr", "--pred", f["pred.json"], "--prior", f["prior.json"], "--out", f["acr.json"]],
        ["plot", "--kind", "scatter", "--gt", f["gt.json"], "--pred", f["pred.json"], "--out", f["tl.svg"]],
        ["plot", "--kind", "deviation", "--gt", f["gt.json"], "--pred", f"p={f['pred.json']}",
         "--out", f["dev.svg"], "--csv", f["dev.csv"]],
        ["report", "--evaluation", f["eval.json"], "--measures", f["m.csv"], "--out", f["combined.json"]],
    ]
    for argv in steps:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
    combined = json.loads((tmp_path / "combined.json").read_text())
    assert combined["evaluation"] == json.loads((tmp_path / "eval.json").read_text())
    with open(tmp_path / "m.csv", newline="", encoding="utf-8") as fh:
        assert combined["measurements"] == list(csv.DictReader(fh))
    assert len(combined["measurements"]) == 30 * 23



@pytest.mark.parametrize(
    "mutate, named",
    [
        (lambda doc: doc["annotations"][1].update(image_id=[2]),
         "annotation 2: field 'image_id' must be a number or a string, got [2]"),
        (lambda doc: doc["images"][1].update(id=[2]), "images[1]: field 'id' must be a number or a string, got [2]"),
        (lambda doc: doc["annotations"][0].update(category_id={"id": 1}),
         "annotation 1: field 'category_id' must be a number or a string, got {'id': 1}"),
        (lambda doc: doc["categories"][1].update(id=[2]),
         "categories[1]: field 'id' must be a number or a string, got [2]"),
        (lambda doc: doc["images"][0].update(height="tall"), "images[0]: field 'height' must be a number, got 'tall'"),
        (lambda doc: doc["images"][1].update(width=None), "images[1]: field 'width' must be a number, got None"),
        (lambda doc: doc["images"][0].update(width="1152"), "images[0]: field 'width' must be a number, got '1152'"),
        (lambda doc: doc["images"][1].update(height=True), "images[1]: field 'height' must be a number, got True"),
        (lambda doc: doc["images"].insert(0, 5), "images[0] must be an object, got int"),
        (lambda doc: doc["images"][1].pop("width"), "images[1]: missing field 'width'"),
        (lambda doc: doc["images"][1].update(width=10**400),
         "images[1]: field 'width' is an integer of 401 digits, past the float range"),
        (lambda doc: doc["images"][0].update(height=-(10**400)),
         "images[0]: field 'height' is an integer of 401 digits, past the float range"),
        (lambda doc: doc.update(categories=5), "missing or non-array field 'categories'"),
        (lambda doc: doc["annotations"][1]["keypoints"].__setitem__(4, 10**400),
         "annotation 2: non-numeric keypoints entry: int too large to convert to float"),
        (lambda doc: doc["annotations"][0]["keypoints"].pop(),
         "annotation 1: keypoints list has 65 values, expected 66"),
        (lambda doc: doc["annotations"][1]["keypoints"].__setitem__(3 * 3 + 2, 1.5),
         "annotation 2: keypoint 4 has fractional visibility flag 1.5"),
        (lambda doc: doc["annotations"][1].update(image_id=7), "annotation 2 references unknown image id 7"),
        (lambda doc: doc["annotations"][1].update(image_id=1),
         "duplicate image id 1: multiple annotations for one image"),
        (lambda doc: doc["images"][1].update(id=1), "duplicate image id 1 in images array"),
    ],
    ids=["list-image_id", "list-image-id", "object-category_id", "list-category-id", "text-height", "null-width",
         "numeric-text-width", "bool-height", "int-image", "no-width", "beyond-float-width", "beyond-float-height",
         "int-categories", "beyond-float-keypoint", "65-keypoint-values", "fractional-flag", "unknown-image-id",
         "two-annotations-one-image", "duplicate-image-id"],
)
def test_parse_coco_names_file_entry_and_field_of_a_bad_entry(fixture_path, tmp_path, capsys, mutate, named):
    doc = json.loads(fixture_path.read_text())
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", "--input", str(bad)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: {named}\n"


def test_validate_refuses_a_top_level_that_is_no_object(tmp_path, capsys):
    bad = tmp_path / "list.json"
    bad.write_text("[]")
    assert main(["validate", "--input", str(bad)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: top level must be an object, got list\n"


def test_json_limits_name_the_file(fixture_path, tmp_path, capsys):
    digits = "9" * 5000
    with pytest.raises(ValueError) as limit:    # the interpreter's cap on integer texts, which json applies
        int(digits)
    text = fixture_path.read_text()
    width = json.dumps(json.loads(text)["images"][0]["width"])
    bad = tmp_path / "bad.json"
    bad.write_text(text.replace(f'"width": {width}', f'"width": {digits}', 1))
    assert main(["validate", "--input", str(bad)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: {limit.value}\n"


@pytest.mark.parametrize("flag", ["--input", "--config", "--prior", "--template"])
def test_json_nested_past_the_recursion_limit_names_its_file(synth_files, tmp_path, capsys, flag):
    gt, pred = synth_files
    deep, out = tmp_path / "deep.json", tmp_path / "out.json"
    deep.write_text("[" * 100_000)
    argv = {
        "--input": ["validate", "--input", str(deep)],
        "--config": ["evaluate", "--gt", str(gt), "--pred", str(pred), "--config", str(deep), "--out", str(out)],
        "--prior": ["acr", "--pred", str(pred), "--prior", str(deep), "--out", str(out)],
        "--template": ["synth", "--template", str(deep), "--n", "3", "--out", str(out)],
    }[flag]
    capsys.readouterr()
    assert main(argv) == 1
    name = f"prior file {deep}" if flag == "--prior" else str(deep)
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name}: maximum recursion depth exceeded") and err.count("\n") == 1
    assert not out.exists()


def test_every_stderr_line_is_an_error_a_warning_or_a_status_line(tmp_path, capsys):
    f = {name: str(tmp_path / name) for name in (
        "gt.json", "pred.json", "empty.json", "dirty.json", "m.csv", "eval.json", "prior.json", "acr.json",
        "trace.csv", "synth.json", "tl.svg", "dev.svg", "combined.json",
    )}
    # three fish of one shape, so TL is constant, and one whose K-12 sits on K-11, so its ED is 0
    fish = [*(make_keypoints(image_id=n) for n in (1, 2, 3)),
            make_keypoints(image_id=4, overrides={12: (410.0, 270.0)})]
    gt = make_dataset(fish)
    serialize_coco(gt, f["gt.json"])
    pred = dataset_to_coco_dict(make_dataset([*fish, make_keypoints(image_id=99)]))
    pred["annotations"][0]["keypoints"][3 * 4] = float("inf")    # image 1, K-5 x: a non-finite prediction
    Path(f["pred.json"]).write_text(json.dumps(pred))
    Path(f["empty.json"]).write_text(json.dumps(dict(dataset_to_coco_dict(gt), annotations=[])))
    dirty = dataset_to_coco_dict(gt)
    dirty["annotations"][0]["keypoints"][0] = -5
    Path(f["dirty.json"]).write_text(json.dumps(dirty))
    runs = [
        (["validate", "--input", f["empty.json"]], 0),
        (["validate", "--input", f["dirty.json"]], 1),
        (["measure", "--input", f["gt.json"], "--out", f["m.csv"]], 0),
        (["evaluate", "--gt", f["gt.json"], "--pred", f["pred.json"], "--out", f["eval.json"]], 0),
        (["evaluate", "--gt", f["pred.json"], "--pred", f["gt.json"], "--out", f["acr.json"]], 1),
        (["prior", "--train", f["gt.json"], "--out", f["prior.json"]], 0),
        (["acr", "--pred", f["gt.json"], "--prior", f["prior.json"], "--out", f["acr.json"]], 0),
        (["train-toy", "--n", "1", "--steps", "5", "--trace", f["trace.csv"]], 0),
        (["train-toy", "--steps", "5", "--lr", "1e9", "--trace", f["trace.csv"]], 1),
        (["synth", "--template", "deep_bodied", "--n", "3", "--out", f["synth.json"]], 0),
        (["plot", "--kind", "scatter", "--gt", f["gt.json"], "--pred", f["pred.json"], "--out", f["tl.svg"]], 0),
        (["plot", "--kind", "deviation", "--gt", f["gt.json"], "--pred", f"p={f['pred.json']}", "--out", f["dev.svg"]],
         0),
        (["report", "--evaluation", f["eval.json"], "--measures", f["m.csv"], "--out", f["combined.json"]], 0),
    ]
    capsys.readouterr()
    lines = []
    for argv, code in runs:
        assert main(argv) == code, argv
        lines += capsys.readouterr().err.splitlines()
    assert [line for line in lines if not STDERR_LINE.fullmatch(line)] == []
    warned = [line for line in lines if line.startswith("warning: ")]
    assert warned == [
        f"warning: {f['empty.json']}: annotations array is empty; dataset has no records",
        "warning: ED on image 4: coincident endpoints, zero length",
        f"warning: prediction file {f['pred.json']}: 1 predicted image id(s) not in the ground truth, ignored: [99]",
        "warning: initial task loss is zero; balancing disabled, keeping the starting weights",
        f"warning: prediction file {f['pred.json']}: 1 predicted image id(s) not in the ground truth, ignored: [99]",
        "warning: constant ground truth; scatter emitted without a fitted line",
        f"warning: prediction file {f['pred.json']}: 1 predicted image id(s) not in the ground truth, ignored: [99]",
        "warning: p: 1 non-finite predicted keypoints left out",
    ]
    assert f"error: {f['dirty.json']}: 1 violation(s)" in lines

    # the hook changes the display only: a filter that makes a warning an error still raises it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PhenokeyWarning, match="annotations array is empty"):
            main(["validate", "--input", f["empty.json"]])
        with pytest.raises(DegenerateMeasurementWarning, match="ED on image 4"):
            main(["measure", "--input", f["gt.json"], "--out", f["m.csv"]])


def test_each_prediction_file_with_unknown_image_ids_gets_its_own_warning(fixture_path, tmp_path, capsys):
    doc = json.loads(fixture_path.read_text())
    doc["images"].append(dict(doc["images"][0], id=99999))
    doc["annotations"].append(dict(doc["annotations"][0], id=99999, image_id=99999))
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["plot", "--kind", "deviation", "--gt", str(fixture_path), "--pred", f"a={paths[0]}",
                 "--pred", f"b={paths[1]}", "--out", str(tmp_path / "dev.svg")]) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"warning: prediction file {path}: 1 predicted image id(s) not in the ground truth, ignored: [99999]"
        for path in paths
    ]
    # under an error filter the raised warning names the file too
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PhenokeyWarning, match=f"^prediction file {re.escape(str(paths[0]))}: 1 predicted"):
            main(["evaluate", "--gt", str(fixture_path), "--pred", str(paths[0]), "--out", str(tmp_path / "e.json")])


def test_scatter_fits_the_pairs_the_report_scores(tmp_path):
    gt, pred, report, svg = (tmp_path / name for name in ("gt.json", "pred.json", "eval.json", "ed.svg"))
    synth = ["synth", "--template", "deep_bodied", "--n", "5", "--seed", "4"]
    assert main([*synth, "--out", str(gt)]) == 0
    assert main([*synth, "--perturb", "uniform_px", "--magnitude", "3", "--out", str(pred)]) == 0
    doc = json.loads(gt.read_text())
    flat = doc["annotations"][0]["keypoints"]
    flat[3 * 11:3 * 11 + 2] = flat[3 * 10:3 * 10 + 2]    # K-12 on K-11: image 1's ED is 0
    gt.write_text(json.dumps(doc))
    assert main(["evaluate", "--gt", str(gt), "--pred", str(pred), "--out", str(report)]) == 0
    assert main(["plot", "--kind", "scatter", "--gt", str(gt), "--pred", str(pred), "--phenotype", "ED",
                 "--out", str(svg)]) == 0
    ed = json.loads(report.read_text())["phenotypes"]["ED"]
    assert ed["n_samples"] == 4 and ed["n_skipped"] == 1
    assert svg.read_text().count('class="pt"') == 4
    assert f"R² = {ed['r2'] * 100:.1f}%" in svg.read_text()
