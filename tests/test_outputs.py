"""Every output file is whole or absent: each writer at each kind of destination, every path inside ``tmp_path``.

A destination is never ``/dev/null`` or any other path outside ``tmp_path``: the tests may run as root, and a
wrong writer could replace a device node.
"""

import csv
import io
import os
import stat
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phenokey import jsontext
from phenokey.cli import main
from phenokey.dataset import serialize_coco
from phenokey.errors import PhenokeyError
from phenokey.plots import _QUANTILES, deviation_quantiles, plot_deviation_summary

from conftest import make_dataset, make_keypoints


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("inputs")
    synth = ["synth", "--template", "deep_bodied", "--n", "4", "--seed", "3"]
    assert main([*synth, "--out", str(base / "gt.json")]) == 0
    assert main([*synth, "--perturb", "uniform_px", "--magnitude", "4", "--out", str(base / "pred.json")]) == 0
    return base


# each writer as the argv that writes DEST; a second output of the same command goes to SIDE, a directory of its own
WRITERS = {
    "annotation": ["synth", "--template", "deep_bodied", "--n", "3", "--seed", "2", "--out", "DEST"],
    "report": ["evaluate", "--gt", "IN/gt.json", "--pred", "IN/pred.json", "--out", "DEST"],
    "measure": ["measure", "--input", "IN/gt.json", "--out", "DEST"],
    "scatter": ["plot", "--kind", "scatter", "--gt", "IN/gt.json", "--pred", "IN/pred.json", "--out", "DEST"],
    "deviation": ["plot", "--kind", "deviation", "--gt", "IN/gt.json", "--pred", "IN/pred.json", "--out", "DEST",
                  "--csv", "SIDE/q.csv"],
    "quantiles": ["plot", "--kind", "deviation", "--gt", "IN/gt.json", "--pred", "IN/pred.json",
                  "--out", "SIDE/d.svg", "--csv", "DEST"],
    "trace": ["train-toy", "--steps", "5", "--trace", "DEST"],
    "diverged trace": ["train-toy", "--steps", "5", "--lr", "1e9", "--trace", "DEST"],
}
# the exit code of a run that writes its destination
CODES = {"diverged trace": 1}


def _run(writer, dest, inputs, tmp_path):
    side = tmp_path / "side"
    side.mkdir(exist_ok=True)
    return main([arg.replace("DEST", str(dest)).replace("IN/", f"{inputs}/").replace("SIDE/", f"{side}/")
                 for arg in WRITERS[writer]])


@pytest.fixture
def expected(inputs, tmp_path_factory):
    """The bytes each writer writes to an absent destination."""
    def run(writer):
        base = tmp_path_factory.mktemp("expected")
        assert _run(writer, base / "out", inputs, base) == CODES.get(writer, 0)
        return (base / "out").read_bytes()
    return run


class _Refusing:
    """A file that takes the first piece of a write, then refuses, as an encoder does on a value it cannot write."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def writelines(self, pieces):
        self.fh.write(next(iter(pieces), ""))
        self.fh.flush()
        raise PhenokeyError("refused after the first piece")


@pytest.fixture
def refuse(monkeypatch):
    """Make every write whose destination is ``target`` fail after its first piece; the writer is the one caller of
    ``open`` for writing (see ``test_package``), so replacing ``open`` in ``jsontext`` reaches every output."""
    def arm(target):
        target = os.path.realpath(target)

        def opener(file, mode="r", *args, **kwargs):
            fh = open(file, mode, *args, **kwargs)
            aimed = "w" in mode and os.path.realpath(file).startswith(target)
            return _Refusing(fh) if aimed else fh

        monkeypatch.setattr(jsontext, "open", opener, raising=False)
    return arm


def _no_part_files(tmp_path):
    return list(tmp_path.rglob("*.part")) == []


# what a deviation plot writes to SIDE; its other file is DEST, and the two are committed together or not at all
_SIDE_FILES = ("d.svg", "q.csv")


@pytest.mark.parametrize("writer", WRITERS)
def test_an_absent_destination_stays_absent_on_a_refusal(writer, inputs, tmp_path, refuse, capsys):
    dest = tmp_path / "out"
    refuse(dest)
    assert _run(writer, dest, inputs, tmp_path) == 1
    assert capsys.readouterr().err.splitlines()[-1] == "error: refused after the first piece"
    assert not dest.exists()
    assert list((tmp_path / "side").iterdir()) == []
    assert _no_part_files(tmp_path)


@pytest.mark.parametrize("writer", WRITERS)
def test_an_existing_file_keeps_its_bytes_on_a_refusal_and_its_mode_on_success(writer, inputs, tmp_path, refuse,
                                                                               expected, monkeypatch):
    dest = tmp_path / "out"
    dest.write_bytes(b"old bytes\n")
    dest.chmod(0o600)
    (tmp_path / "side").mkdir()
    for name in _SIDE_FILES:
        (tmp_path / "side" / name).write_bytes(b"old side bytes\n")
    refuse(dest)
    assert _run(writer, dest, inputs, tmp_path) == 1
    assert dest.read_bytes() == b"old bytes\n"
    assert [(tmp_path / "side" / name).read_bytes() for name in _SIDE_FILES] == [b"old side bytes\n"] * 2
    assert _no_part_files(tmp_path)
    monkeypatch.undo()
    assert _run(writer, dest, inputs, tmp_path) == CODES.get(writer, 0)
    assert dest.read_bytes() == expected(writer)
    assert stat.S_IMODE(dest.stat().st_mode) == 0o600
    assert _no_part_files(tmp_path)


@pytest.mark.parametrize("writer", WRITERS)
def test_a_symlink_is_kept_and_its_target_written(writer, inputs, tmp_path, refuse, expected, monkeypatch):
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_bytes(b"old bytes\n")
    link.symlink_to(target)
    refuse(target)
    assert _run(writer, link, inputs, tmp_path) == 1
    assert link.is_symlink() and target.read_bytes() == b"old bytes\n"
    monkeypatch.undo()
    assert _run(writer, link, inputs, tmp_path) == CODES.get(writer, 0)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == expected(writer)
    assert _no_part_files(tmp_path)


@pytest.mark.parametrize("writer", WRITERS)
def test_a_fifo_is_written_in_place(writer, inputs, tmp_path, expected):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert _run(writer, fifo, inputs, tmp_path) == CODES.get(writer, 0)
    reader.join(timeout=30)
    assert not reader.is_alive() and received == [expected(writer)]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert _no_part_files(tmp_path)


@pytest.mark.parametrize("writer", WRITERS)
def test_a_directory_is_refused(writer, inputs, tmp_path, capsys):
    dest = tmp_path / "dir"
    dest.mkdir()
    assert _run(writer, dest, inputs, tmp_path) == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"error: [Errno 21] Is a directory: '{dest}'"
    assert list(dest.iterdir()) == []
    assert _no_part_files(tmp_path)


@pytest.mark.parametrize("writer", WRITERS)
def test_a_missing_directory_is_named_by_the_destination(writer, inputs, tmp_path, capsys):
    dest = tmp_path / "missing" / "out"
    assert _run(writer, dest, inputs, tmp_path) == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"error: [Errno 2] No such file or directory: '{dest}'"
    assert _no_part_files(tmp_path)


def test_a_refused_dataset_leaves_no_file_and_an_old_one_whole(tmp_path):
    dataset = make_dataset([make_keypoints(image_id=1), make_keypoints(image_id=b"x")])    # validates, cannot encode
    absent, existing = tmp_path / "absent.json", tmp_path / "existing.json"
    existing.write_text("old bytes\n")
    for dest in (absent, existing):
        with pytest.raises(TypeError, match="bytes is not JSON serializable"):
            serialize_coco(dataset, dest)
    assert not absent.exists() and existing.read_text() == "old bytes\n"
    assert _no_part_files(tmp_path)


def test_a_refused_report_leaves_no_file_and_prints_nothing(tmp_path, capsys):
    chunks = ([{"x": 1.0}] * 600, [{"x": float("nan")}])    # the NaN comes after the first 600 records
    dest = tmp_path / "report.json"
    for path in (dest, None, "-"):
        with pytest.raises(PhenokeyError, match="Out of range float values are not JSON compliant"):
            jsontext.dump({"records": (c for c in chunks)}, path)
    assert capsys.readouterr().out == ""
    assert not dest.exists() and _no_part_files(tmp_path)


def test_a_diverged_run_writes_the_trace_up_to_the_divergence(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    assert main(["train-toy", "--steps", "5", "--lr", "1e9", "--trace", str(trace)]) == 1
    assert capsys.readouterr().err.startswith("error: training diverged at step 1: ")
    lines = trace.read_text().splitlines()
    assert lines[0].startswith("step,") and [line.split(",")[0] for line in lines[1:]] == ["0", "1"]


# every label an SVG can hold: XML 1.0 has no C0 control but tab, LF and CR, no surrogate and no U+FFFE or U+FFFF
# (a plot refuses a label with one, see tests/test_plots.py)
_NOT_XML = "".join(map(chr, [*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), 0xFFFE, 0xFFFF]))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=_NOT_XML)))
def test_each_quantile_csv_row_is_the_csv_writer_row(tmp_path_factory, label):
    base = tmp_path_factory.getbasetemp() / "quantile_csv"
    base.mkdir(exist_ok=True)
    values = [0.5, 1.25, 3.0]
    plot_deviation_summary({label: values}, base / "d.svg", csv_path=base / "q.csv")
    rows = io.StringIO()
    csv.writer(rows).writerows([["metric", *_QUANTILES], [label, *deviation_quantiles(values).values()]])
    assert (base / "q.csv").read_bytes() == rows.getvalue().encode("utf-8")


@pytest.mark.parametrize("value", [None, "", "a", "a,b", 'say "hi"', "two\nlines", "cr\r", 3, 2.5, "-"])
def test_csv_field_is_a_csv_writer_field(value):
    out = io.StringIO()
    csv.writer(out).writerow([value, "x"])
    assert f"{jsontext.csv_field(value)},x\r\n" == out.getvalue()


def test_the_measure_csv_to_stdout_equals_the_file(inputs, tmp_path, capsys):
    dest = tmp_path / "m.csv"
    assert main(["measure", "--input", str(inputs / "gt.json"), "--out", str(dest)]) == 0
    capsys.readouterr()
    assert main(["measure", "--input", str(inputs / "gt.json"), "--out", "-"]) == 0
    assert capsys.readouterr().out == dest.read_bytes().decode()
