import xml.etree.ElementTree as ET

import numpy as np
import pytest

from phenokey.errors import DegenerateFitWarning, PhenokeyError
from phenokey.plots import deviation_quantiles, plot_deviation_summary, plot_scatter

SVG_NS = "{http://www.w3.org/2000/svg}"


def _elements(path, tag):
    root = ET.parse(path).getroot()
    return root.findall(f".//{SVG_NS}{tag}")


def _texts(path):
    return [t.text or "" for t in _elements(path, "text")]


def test_scatter_circle_count_matches_pairs(tmp_path):
    pairs = [(float(g), float(g) * 1.1 + 2) for g in range(2, 14)]
    out = tmp_path / "scatter.svg"
    plot_scatter(pairs, out)
    assert len(_elements(out, "circle")) == len(pairs)


def test_scatter_perfect_predictions_annotate_full_r2(tmp_path):
    pairs = [(g, g) for g in (10.0, 20.0, 30.0, 40.0)]
    out = tmp_path / "perfect.svg"
    plot_scatter(pairs, out)
    assert any("R² = 100.0%" in t for t in _texts(out))
    assert len(_elements(out, "line")) == 1


def test_scatter_two_points_interpolate(tmp_path):
    out = tmp_path / "two.svg"
    plot_scatter([(10.0, 13.0), (20.0, 27.0)], out)
    assert any("R² = 100.0%" in t for t in _texts(out))


def test_scatter_degenerate_fit_warns_and_omits_line(tmp_path):
    out = tmp_path / "flat.svg"
    with pytest.warns(DegenerateFitWarning):
        plot_scatter([(5.0, 1.0), (5.0, 2.0), (5.0, 3.0)], out)
    assert out.exists()
    assert len(_elements(out, "line")) == 0
    assert len(_elements(out, "circle")) == 3


def test_scatter_needs_two_points(tmp_path):
    with pytest.raises(ValueError, match="2 points"):
        plot_scatter([(1.0, 1.0)], tmp_path / "one.svg")


def test_scatter_byte_deterministic(tmp_path):
    pairs = [(g, 2 * g + 1) for g in np.linspace(3, 90, 25)]
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    plot_scatter(pairs, a, title="TL")
    plot_scatter(pairs, b, title="TL")
    assert a.read_bytes() == b.read_bytes()


def test_quantiles_order_statistics():
    q = deviation_quantiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert q == {"min": 1.0, "q1": 2.0, "median": 3.0, "q3": 4.0, "max": 5.0}


def test_quantiles_constant_values():
    q = deviation_quantiles([7.0] * 9)
    assert set(q.values()) == {7.0}


def test_deviation_two_groups_and_csv(tmp_path):
    out = tmp_path / "dev.svg"
    csv_out = tmp_path / "dev_quantiles.csv"
    plot_deviation_summary(
        {"oks": [1.0, 2.0, 3.0, 4.0, 5.0], "pmp": [0.5, 1.0, 1.5]}, out, csv_path=csv_out
    )
    groups = [g for g in _elements(out, "g") if g.get("class") == "box-group"]
    assert len(groups) == 2
    assert [g.get("data-label") for g in groups] == ["oks", "pmp"]
    lines = csv_out.read_text().strip().splitlines()
    assert lines[0] == "metric,min,q1,median,q3,max"
    assert lines[1].startswith("oks,1.0,2.0,3.0,4.0,5.0")


@pytest.mark.parametrize("label", ['a<b"c', "it's & <ok> ]]>", "'\"\t", "two\r\nlines\r", "plain"])
def test_deviation_labels_and_a_scatter_title_are_escaped_in_the_svg(tmp_path, label):
    out = tmp_path / "dev.svg"
    plot_deviation_summary({label: [1.0, 2.0, 3.0], "b": [2.0, 4.0]}, out)
    groups = [g for g in _elements(out, "g") if g.get("class") == "box-group"]
    assert [g.get("data-label") for g in groups] == [label, "b"]
    assert label in _texts(out)
    plot_scatter([(1.0, 2.0), (2.0, 3.5), (3.0, 4.0)], out, title=label)
    assert label in _texts(out)


@pytest.mark.parametrize("char", ["\x00", "\x01", "\x08", "\x0b", "\x0c", "\x0e", "\x1f", "\ud800", "\udcff", "\ufffe"])
def test_a_label_or_title_with_a_character_xml_forbids_is_refused_before_any_file(tmp_path, char):
    out = tmp_path / "dev.svg"
    label = f"a{char}b"
    with pytest.raises(PhenokeyError) as refused:
        plot_deviation_summary({"b": [2.0, 4.0], label: [1.0, 2.0]}, out)
    assert str(refused.value) == f"label {label!r}: {char!r} is a character an SVG (XML 1.0) cannot hold"
    with pytest.raises(PhenokeyError, match="^title "):
        plot_scatter([(1.0, 2.0), (2.0, 3.5), (3.0, 4.0)], out, title=label)
    assert list(tmp_path.iterdir()) == []


def test_a_plain_label_keeps_its_bytes(tmp_path):
    out = tmp_path / "dev.svg"
    plot_deviation_summary({"model>1": [1.0, 2.0], "m'2": [2.0, 3.0]}, out)
    text = out.read_text()
    assert '<g class="box-group" data-label="m\'2">' in text and ">m'2</text>" in text


def test_deviation_csv_defaults_next_to_svg(tmp_path):
    out = tmp_path / "plot.svg"
    plot_deviation_summary({"only": [2.0, 2.0]}, out)
    assert (tmp_path / "plot.csv").exists()


@pytest.mark.parametrize("out, csv_path", [
    pytest.param("-", None, id="-"),
    pytest.param(None, None, id="None"),
    pytest.param("-", "-", id="csv-on-stdout-too"),    # the SVG and the CSV would run together
])
def test_a_deviation_plot_on_stdout_without_a_csv_path_writes_nothing(tmp_path, monkeypatch, capsys, out, csv_path):
    monkeypatch.chdir(tmp_path)    # the old default put the quantiles in `-.csv` here
    with pytest.raises(ValueError, match="a deviation plot on stdout needs a csv_path"):
        plot_deviation_summary({"m": [1.0, 2.0, 3.0]}, out, csv_path=csv_path)
    assert list(tmp_path.iterdir()) == [] and capsys.readouterr().out == ""


def test_deviation_empty_input_errors(tmp_path):
    with pytest.raises(ValueError):
        plot_deviation_summary({}, tmp_path / "no.svg")
    with pytest.raises(ValueError):
        plot_deviation_summary({"empty": []}, tmp_path / "no2.svg")


@pytest.mark.parametrize("csv_name", [None, "q.csv"], ids=["csv-next-to-svg", "csv-path"])
def test_a_deviation_summary_of_no_list_is_refused_before_any_file(tmp_path, csv_name):
    csv_path = None if csv_name is None else tmp_path / csv_name
    with pytest.raises(ValueError) as info:
        plot_deviation_summary({}, tmp_path / "no.svg", csv_path)
    assert type(info.value) is ValueError and str(info.value) == "need at least one labeled deviation list"
    assert list(tmp_path.iterdir()) == []
