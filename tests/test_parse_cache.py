"""The parse cache behind ``parse_coco``: a warm read gives the cold read's dataset, every command's outputs and its
stderr; a bad entry, a changed source or a changed version is a miss; an unusable location runs uncached; refusals
are never cached; the directory stays within its bound. ``conftest.parse_cache`` gives each test its own directory."""

import json
import os
import shutil
import stat
import sys
from pathlib import Path

import numpy as np
import pytest

from phenokey import dataset as dataset_module
from phenokey.cli import main
from phenokey.dataset import _CACHE_ENTRIES, Dataset, parse_coco, serialize_coco
from phenokey.errors import ParseError
from phenokey.synth import TEMPLATES, PerturbationModel, generate_population, perturb

from conftest import DATA_DIR


def _entries(cache: Path) -> list:
    return sorted(p.name for p in cache.iterdir()) if cache.is_dir() else []


@pytest.fixture
def decoded(monkeypatch):
    """The annotation documents ``parse_coco`` decodes, counted: a hit decodes none."""
    calls = []

    def counting(doc):
        calls.append(doc)
        return decode(doc)

    decode = dataset_module._coco_dataset
    monkeypatch.setattr(dataset_module, "_coco_dataset", counting)
    return calls


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A ground truth with hidden, NaN-placed keypoints, its noisy predictions and a prior fitted on it."""
    base = tmp_path_factory.mktemp("cached-inputs")
    gt = generate_population(TEMPLATES["deep_bodied"], 12, seed=4, role="test")
    serialize_coco(perturb(gt, PerturbationModel("uniform_px", 3.0, seed=5)), base / "pred.json")
    xy, v = gt.xy.copy(), gt.v.copy()
    v[::3, 5], xy[::3, 5] = 0, np.nan
    hidden = Dataset(xy, v, gt.image_ids, gt.width, gt.height, gt.species, gt.role)
    serialize_coco(hidden, base / "gt.json")
    assert main(["prior", "--train", str(base / "gt.json"), "--out", str(base / "prior.json")]) == 0
    return base


# each parsing command, and the number of annotation files it reads
COMMANDS = {
    "validate": (["validate", "--input", "IN/gt.json"], 1),
    "evaluate": (["evaluate", "--gt", "IN/gt.json", "--pred", "IN/pred.json", "--metric", "all",
                  "--out", "OUT/report.json"], 2),
    "measure": (["measure", "--input", "IN/gt.json", "--out", "OUT/m.csv"], 1),
    "prior": (["prior", "--train", "IN/gt.json", "--out", "OUT/prior.json"], 1),
    "acr": (["acr", "--pred", "IN/pred.json", "--prior", "IN/prior.json", "--out", "OUT/acr.json"], 1),
    "scatter": (["plot", "--kind", "scatter", "--gt", "IN/gt.json", "--pred", "IN/pred.json", "--out", "OUT/s.svg"],
                2),
    "deviation": (["plot", "--kind", "deviation", "--gt", "IN/gt.json", "--pred", "model=IN/pred.json",
                   "--out", "OUT/d.svg", "--csv", "OUT/d.csv"], 2),
}


def _outputs(command, inputs, out, capsys):
    """(exit code, stdout, stderr, {output name: bytes}) of one run of ``command`` writing into ``out``."""
    out.mkdir(exist_ok=True)
    argv = [a.replace("IN/", f"{inputs}/").replace("OUT/", f"{out}/") for a in COMMANDS[command][0]]
    capsys.readouterr()
    code = main(argv)
    std = capsys.readouterr()
    return code, std.out, std.err, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("command", COMMANDS)
def test_every_parsing_command_gives_the_same_bytes_cold_and_warm(command, inputs, tmp_path, parse_cache, decoded,
                                                                  capsys):
    cold = _outputs(command, inputs, tmp_path / "cold", capsys)
    assert cold[0] == 0
    # one entry per annotation file; the prior that acr reads is not cached
    assert len(_entries(parse_cache)) == len(decoded) == COMMANDS[command][1]
    warm = _outputs(command, inputs, tmp_path / "warm", capsys)
    assert len(decoded) == COMMANDS[command][1]    # every annotation file came from the cache
    assert warm == cold


def test_a_warm_dataset_equals_the_cold_one_bit_for_bit(tmp_path, decoded):
    doc = json.loads((DATA_DIR / "two_fish.json").read_text(encoding="utf-8"))
    annotation = doc["annotations"][0]
    ids = [7, 'q"<&>', "fü sh", 2.5, True, None, "\ud800", 10**30, -0.0, float("inf")]
    doc["images"] = [{"id": i, "width": 2000, "height": 1500.5} for i in ids]
    doc["annotations"] = [dict(annotation, id=k, image_id=i, category_id=k % 6) for k, i in enumerate(ids)]
    doc["annotations"][1]["keypoints"][:3] = [float("nan"), -0.0, 0]
    doc["info"] = {"role": "test"}
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    cold, warm = parse_coco(path), parse_coco(path)
    assert len(decoded) == 1
    assert warm == cold and warm.role == "test"
    assert [(type(i), repr(i)) for i in warm.image_ids] == [(type(i), repr(i)) for i in cold.image_ids]
    for name in ("xy", "v", "width", "height", "species"):
        assert getattr(warm, name).tobytes() == getattr(cold, name).tobytes(), name


def _entry(parse_cache):
    (name,) = _entries(parse_cache)
    return parse_cache / name


# an entry's columns after its header line, with the little-endian dtype and the bytes per row of each
_LAYOUT = (("xy", "<f8", 44 * 8), ("v", "<i8", 22 * 8), ("width", "<f8", 8), ("height", "<f8", 8),
           ("species", "<i8", 8))


def _parts(data: bytes) -> list:
    """``[role, image ids, *column bytes]`` of an entry."""
    start = data.index(b"\n") + 1
    role, ids = json.loads(data[:start])
    parts = [role, ids]
    for _, _, row in _LAYOUT:
        parts.append(data[start:start + row * len(ids)])
        start += row * len(ids)
    assert start == len(data)
    return parts


def _joined(header, columns) -> bytes:
    return json.dumps(header).encode() + b"\n" + b"".join(columns)


def _edited(k, value):
    """An entry with item ``k`` of ``[role, image ids, *column bytes]`` made ``value(item)``."""
    def edit(data):
        parts = _parts(data)
        parts[k] = value(parts[k])
        return _joined(parts[:2], parts[2:])
    return edit


BAD_ENTRIES = {
    "empty": lambda data: b"",
    "truncated": lambda data: data[: len(data) // 2],
    "no list": lambda data: _joined({"role": "train"}, _parts(data)[2:]),
    "a column too few": lambda data: _joined(_parts(data)[:2], _parts(data)[2:-1]),
    "a column too short": _edited(-1, lambda column: column[:-4]),
    "a row too few": _edited(1, lambda ids: ids[:-1]),
    "bytes past the last column": lambda data: data + bytes(8),
    "an unknown role": _edited(0, lambda role: "val"),
    "a repeated id": _edited(1, lambda ids: [ids[0]] * len(ids)),
    "an id that is a list": _edited(1, lambda ids: [[i] for i in ids]),
    "ids in an object": _edited(1, lambda ids: {str(i): i for i in ids}),
    "a species past the tags": _edited(-1, lambda column: np.full(len(column) // 8, 7, "<i8").tobytes()),
    "deeply nested": lambda data: b"[" * 100_000 + b"\n" + b"".join(_parts(data)[2:]),
}


@pytest.mark.parametrize("damage", BAD_ENTRIES)
def test_an_unreadable_or_wrong_shape_entry_is_a_miss_and_is_rewritten(damage, fixture_path, parse_cache, decoded):
    cold = parse_coco(fixture_path)
    entry = _entry(parse_cache)
    good = entry.read_bytes()
    entry.write_bytes(BAD_ENTRIES[damage](good))
    assert entry.read_bytes() != good
    assert parse_coco(fixture_path) == cold
    assert len(decoded) == 2
    assert entry.read_bytes() == good
    assert parse_coco(fixture_path) == cold and len(decoded) == 2


def test_a_directory_in_place_of_an_entry_leaves_the_parse_uncached(fixture_path, parse_cache, decoded):
    cold = parse_coco(fixture_path)
    entry = _entry(parse_cache)
    entry.unlink()
    entry.mkdir()
    assert parse_coco(fixture_path) == cold and parse_coco(fixture_path) == cold
    assert len(decoded) == 3 and entry.is_dir()


def test_a_cache_location_under_a_regular_file_changes_no_output_and_no_stderr(inputs, tmp_path, monkeypatch,
                                                                               capsys):
    expected = _outputs("evaluate", inputs, tmp_path / "cached", capsys)
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    for _ in range(2):
        assert _outputs("evaluate", inputs, tmp_path / "cached", capsys) == expected
    assert blocker.read_text() == "not a directory\n"


def test_a_relative_cache_home_is_ignored_for_the_home_directory(fixture_path, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setenv("XDG_CACHE_HOME", "relative")
    parse_coco(fixture_path)
    assert not (tmp_path / "relative").exists()
    assert len(_entries(tmp_path / "home" / ".cache" / "phenokey")) == 1


def test_an_entry_is_the_json_text_of_its_list_in_a_private_directory(fixture_path, parse_cache):
    dataset = parse_coco(fixture_path)
    assert stat.S_IMODE(parse_cache.stat().st_mode) == 0o700
    data = _entry(parse_cache).read_bytes()    # the one file there: no part file is left
    # one JSON line of the role and the ids, then each column's little-endian bytes
    columns = [np.asarray(getattr(dataset, name), dtype).tobytes() for name, dtype, _ in _LAYOUT]
    assert data == b'["test", [1, 2]]\n' + b"".join(columns)
    assert _parts(data)[2:] == columns


@pytest.mark.parametrize("change", ["source", "python", "numpy"])
def test_a_changed_source_or_version_is_a_miss(change, fixture_path, tmp_path, parse_cache, decoded, monkeypatch):
    sources = tmp_path / "phenokey"
    shutil.copytree(Path(dataset_module.__file__).parent, sources, ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(dataset_module, "__file__", str(sources / "dataset.py"))
    parse_coco(fixture_path)
    parse_coco(fixture_path)
    assert len(decoded) == 1
    if change == "source":
        with open(sources / "metrics.py", "a", encoding="utf-8") as fh:
            fh.write("# changed\n")
    else:
        monkeypatch.setattr(*((sys, "version", "0.0") if change == "python" else (np, "__version__", "0.0")))
    parse_coco(fixture_path)
    assert len(decoded) == 2 and len(_entries(parse_cache)) == 2


def test_the_directory_keeps_the_newest_entries_within_its_bound(tmp_path, parse_cache, decoded):
    doc = json.loads((DATA_DIR / "two_fish.json").read_text(encoding="utf-8"))
    order = []
    for k in range(_CACHE_ENTRIES + 3):
        path = tmp_path / f"f{k}.json"
        path.write_text(json.dumps(dict(doc, info={"description": str(k)})), encoding="utf-8")
        before = set(_entries(parse_cache))
        parse_coco(path)
        (new,) = set(_entries(parse_cache)) - before
        order.append(new)
        os.utime(parse_cache / new, (1e9 + k, 1e9 + k))    # distinct write times, however coarse the clock
        if k == 0:
            (parse_cache / "kept.txt").write_text("not an entry\n")
    assert _entries(parse_cache) == sorted([*order[3:], "kept.txt"])
    parse_coco(tmp_path / "f0.json")
    assert len(decoded) == _CACHE_ENTRIES + 4


def _crlf_syntax_error(path):
    path.write_bytes(b'{\r\n  "images": [],\r\n  "annotations": []\r\n  "categories": []\r\n}\r\n')


def _cr_syntax_error(path):
    path.write_bytes(b'{\r  "images": [],\r  "annotations": []\r  "categories": []\r}\r')


def _no_utf8(path):
    path.write_bytes(b'{"images": [], "annotations": [], "info": {"description": "f\xe9sh"}}')


# the texts of a reader through open(path, encoding="utf-8"): "\r\n" and a lone "\r" end a line, positions are bytes
@pytest.mark.parametrize("write, message", [
    (_crlf_syntax_error, "malformed document at line 4, column 3: Expecting ',' delimiter"),
    (_cr_syntax_error, "malformed document at line 4, column 3: Expecting ',' delimiter"),
    (_no_utf8, "'utf-8' codec can't decode byte 0xe9 in position 60: invalid continuation byte"),
])
def test_a_refusal_keeps_its_text_and_is_never_cached(write, message, tmp_path, parse_cache):
    path = tmp_path / "bad.json"
    write(path)
    for _ in range(2):
        with pytest.raises(ParseError) as info:
            parse_coco(path)
        assert str(info.value) == f"{path}: {message}"
    assert _entries(parse_cache) == []


def test_the_empty_file_warning_is_given_cold_and_warm(tmp_path, decoded, capsys):
    path = tmp_path / "empty.json"
    path.write_text('{"images": [], "annotations": []}', encoding="utf-8")
    for _ in range(2):
        assert main(["validate", "--input", str(path)]) == 0
        assert capsys.readouterr().err.splitlines()[0] == (
            f"warning: {path}: annotations array is empty; dataset has no records")
    assert len(decoded) == 1
