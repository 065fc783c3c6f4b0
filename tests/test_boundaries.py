"""Single-field mutations of every JSON input, run through `cli.main`.

A valid annotation file, evaluation config, species template and prior each have one field deleted or replaced by
a bool, a negative number, NaN, infinity, a string, `[]`, `{}` or an integer past the float range. Every command
that reads the file must then accept it (exit 0) or refuse it (exit 1), and write nothing to stderr but `error:`,
`warning:` and status lines: no exception may leave `main`. Each test draws every (field, value) pair once.
`validate` and `measure` only read the file, so each of their `error:` lines must start with its path.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phenokey.cli import main
from phenokey.synth import TEMPLATES, template_to_dict

from conftest import DATA_DIR, STDERR_LINE

_DELETE = object()
VALUES = [_DELETE, True, -3, math.nan, math.inf, "x", [], {}, 10**400]


def _paths(doc, prefix=()):
    """The path of each value under ``doc``; of a list, its first entry, or its first three if it holds scalars."""
    if isinstance(doc, dict):
        items = list(doc.items())
    else:
        items = list(enumerate(doc))[:3 if all(isinstance(v, (int, float, str)) for v in doc) else 1]
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _mutated(doc, path, value):
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    parent = doc
    for key in parents:
        parent = parent[key]
    if value is _DELETE:
        del parent[last]
    else:
        parent[last] = value
    return doc


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("boundaries")
    f = {name: str(root / name) for name in ("prior.json", "bad.json", "out")}
    f["gt.json"] = str(DATA_DIR / "two_fish.json")
    assert main(["prior", "--train", f["gt.json"], "--out", f["prior.json"]]) == 0
    return f


def _check(capsys, f, doc, commands, naming=()):
    """``doc`` with one field mutated, written to ``f['bad.json']``, through each command; one Hypothesis test.

    Every `error:` line of a command named in ``naming`` must start with the file's path."""
    paths = sorted(_paths(doc), key=repr)

    # as many examples as (path, value) pairs: Hypothesis draws no pair twice, so it draws every one
    @settings(max_examples=len(paths) * len(VALUES), derandomize=True, database=None, deadline=None)
    @given(st.sampled_from(paths), st.sampled_from(VALUES))
    def run(path, value):
        with open(f["bad.json"], "w", encoding="utf-8") as fh:
            json.dump(_mutated(doc, path, value), fh)
        for argv in commands:
            capsys.readouterr()
            assert main(argv) in (0, 1), (path, value, argv)
            lines = capsys.readouterr().err.splitlines()
            assert [line for line in lines if not STDERR_LINE.fullmatch(line)] == [], (path, value, argv)
            if argv[0] in naming:
                errors = [line for line in lines if line.startswith("error: ")]
                assert all(line.startswith(f"error: {f['bad.json']}: ") for line in errors), (path, value, errors)

    run()


def test_every_reader_of_an_annotation_file_accepts_or_refuses_each_mutation(files, capsys):
    f = files
    bad, good = f["bad.json"], f["gt.json"]
    with open(good, encoding="utf-8") as fh:
        doc = json.load(fh)
    # the fields phenokey reads; a mutation of any other one changes nothing
    doc = {"info": {"role": doc["info"]["role"]},
           "images": [{key: img[key] for key in ("id", "width", "height")} for img in doc["images"]],
           "annotations": [{key: ann[key] for key in ("id", "image_id", "category_id", "keypoints")}
                           for ann in doc["annotations"]],
           "categories": [{key: cat[key] for key in ("id", "name")} for cat in doc["categories"]]}
    _check(capsys, f, doc, [
        ["validate", "--input", bad],
        ["measure", "--input", bad, "--out", f["out"]],
        ["evaluate", "--gt", bad, "--pred", good, "--out", f["out"]],
        ["evaluate", "--gt", good, "--pred", bad, "--out", f["out"]],
        ["prior", "--train", bad, "--out", f["out"]],
        ["acr", "--pred", bad, "--prior", f["prior.json"], "--out", f["out"]],
    ], naming=("validate", "measure"))


def test_an_evaluation_config_accepts_or_refuses_each_mutation(files, capsys):
    doc = {"pmp_threshold": 0.1, "pck_threshold": 0.2, "pck_scale_mode": "head", "oks_scale": 100.0,
           "oks_k": [0.025] * 22}
    gt = files["gt.json"]
    _check(capsys, files, doc, [["evaluate", "--gt", gt, "--pred", gt, "--config", files["bad.json"],
                                 "--out", files["out"]]])


def test_a_species_template_accepts_or_refuses_each_mutation(files, capsys):
    doc = template_to_dict(TEMPLATES["elongate"])
    _check(capsys, files, doc, [["synth", "--template", files["bad.json"], "--n", "3", "--out", files["out"]]])


def test_a_prior_file_accepts_or_refuses_each_mutation(files, capsys):
    with open(files["prior.json"], encoding="utf-8") as fh:
        doc = json.load(fh)
    _check(capsys, files, doc, [["acr", "--pred", files["gt.json"], "--prior", files["bad.json"],
                                 "--out", files["out"]]])
