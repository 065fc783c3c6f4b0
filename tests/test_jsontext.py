import json
import os
import re
from itertools import chain
from pathlib import Path

import pytest

import phenokey
from phenokey import jsontext
from phenokey.errors import ParseError, SchemaError
from phenokey.jsontext import doc_field, dumps, read_json

# as long as the shortest list of scalars a record list writes as one text per record
_K = list(range(1, jsontext._BLOCK_MIN + 1))

_DOCS = [
    {},
    [],
    0,
    "plain",
    None,
    -0.0,
    [[]],
    {"a": {}},
    {"a": [], "b": [1, [2, 3], {"c": None}], "d": {"e": [True, False]}},
    {"s": 'quote " backslash \\ é \U0001F41F tab\t newline\n', "n": [1.0, 1e300, 2**70, -5]},
    {"nested": [[1, [2, [3, {}]]], ({"t": (1, 2)},)]},
    {1: "int key", 2.5: [1], None: {}, True: 0, False: [[]]},
    {"per_image": [{"image_id": "x,\ny", "oks": None}, {"image_id": 2, "oks": 0.5}]},
    # record lists whose records differ from the first one's shape
    [{"a": 1, "b": 2}, {"b": 2, "a": 1}],
    [{"a": 1, "b": [1, 2]}, {"a": 1, "b": [1]}],
    [[[1, 2], [3]], [[1], [2, 3]]],
    [{"a": 1, "b": 2}, {"a": [3, 4], "b": 2}],
    [{"a": 1}, {"a": {}}, {"a": [5]}, {"a": {"b": 5}}],
    [[1, 2], [[], 2]],
    [{"a": 1}, {"a": 1, "b": 2}],
    [{"1": 0}, {1: 0}, {True: 0}],
    [{1: 0}, {True: 0}],
    [[1], {"0": 1}],
    [[1, [2]], "x", [1, [2]]],
    # records that hold no scalar
    [{}, {}],
    [[], []],
    [{"a": []}, {"a": []}],
    # keys and values holding % and the template's blank
    [{"%s": 1, "x%": "%s", "%": "100%"}, {"%s": "%d", "x%": "%%", "%": None}],
    [{"a": "%s", "b": ['"%s"', "%(b)s"]}, {"a": '"%s": x', "b": ["%", "%%s"]}],
    [[{"%s": ["%s"]}], [{"%s": ["x"]}]],
    # record lists whose lists of scalars are empty
    [{"a": 1, "k": []}, {"a": 2, "k": []}],
    [{"k": []}, {"k": _K}],
    [{"k": _K}, {"k": []}],
    [_K, []],
    # lists of scalars whose length varies across records
    [{"k": _K}, {"k": _K + [9]}],
    [{"k": _K + [9]}, {"k": _K[:1]}, {"k": _K}],
    [_K, _K[:3]],
    # strings holding brackets and separators inside lists of scalars
    [{"k": ["]", "],", "["] * 3}, {"k": ["],\n  [", "[[", "]]"] * 3}],
    [["a]", "[b"] * 4, ["],[", "]"] * 4, ["]\n,[", '"]'] * 4, ["", "{"] * 4],
    [{"k": ["x", "],\n      ["] * 4}, {"k": ["}", "{\n"] * 4}],
    # a container at one record's list position
    [{"k": _K}, {"k": _K[:-1] + [[2]]}],
    [{"k": _K}, {"k": [[1]] + _K[1:]}],
    [{"k": _K}, {"k": _K[:-1] + [{"a": 2}]}],
    [{"k": _K}, {"k": [{}] + _K[1:]}],
    [{"k": _K}, {"k": _K[:3] + [[]] + _K[4:]}, {"k": _K}],
    [_K, _K[:-1] + [[4, 5]]],
    [_K, _K, [{"a": []}] + _K[1:]],
    [[1], [[2]]],
    # long lists beside scalars and short lists, at several depths, as lists and tuples
    [{"id": 1, "kp": _K, "g": [[0.5, -1.0], _K]}, {"id": "2", "kp": tuple(_K), "g": [(3, 4), _K[::-1]]}],
    ({"k": tuple(_K)}, {"k": _K}),
]


@pytest.mark.parametrize("doc", _DOCS)
def test_dumps_equals_indent2_dumps(doc):
    assert dumps(doc) == json.dumps(doc, indent=2)
    assert dumps(doc, allow_nan=True) == json.dumps(doc, indent=2)


@pytest.mark.parametrize(
    "bad",
    [
        float("nan"),
        {"a": [float("inf")]},
        [[float("-inf")]],
        {"k": {"j": float("nan")}},
        # NaN in lists of scalars of a record list, and among its scalars
        [{"k": [float("nan")] + _K[1:]}, {"k": _K[1:] + [float("inf")]}],
        [{"id": float("nan"), "k": _K}, {"id": 2, "k": _K[:-1] + [float("-inf")]}],
        [{"g": [float("nan"), 1.0]}, {"g": [2.0, float("inf")]}],
    ],
)
def test_dumps_refuses_nonfinite_numbers_unless_allowed(bad):
    with pytest.raises(ValueError, match="not JSON compliant"):
        dumps(bad)
    assert dumps(bad, allow_nan=True) == json.dumps(bad, indent=2)


def test_same_shape_writer_equals_generic_text():
    entries = [
        {"image_id": image_id, "loss": loss, "gradient": [[1.0, -1.0], [0.0, 0.5]], "tags": ["a,\nb", None]}
        for image_id, loss in ((1, 0.25), ("two", 1e-17), ('th"ree', 3.0))
    ]
    doc = {"schema_version": 1, "per_image": entries, "tail": [entries[0]]}
    assert dumps(doc) == json.dumps(doc, indent=2)
    assert dumps({"per_image": []}) == json.dumps({"per_image": []}, indent=2)


@pytest.mark.parametrize("chunks", [
    [],
    [[]],
    [[], []],
    [[{"a": 1}]],
    [[{"a": 1}, {"a": 2}], [], [{"a": 3}]],
    [[1, 2], ["x"]],
    [[_K, _K], [[1, [2]]]],
    [[{"k": _K}], [{"k": _K[:-1] + [[2]]}, {"k": _K}]],
])
def test_a_generator_of_record_lists_is_written_as_their_concatenation(chunks, tmp_path):
    whole = list(chain.from_iterable(chunks))
    expected = json.dumps({"head": 1, "records": whole, "tail": [whole]}, indent=2)

    def doc():
        return {"head": 1, "records": (c for c in chunks), "tail": [(c for c in chunks)]}

    assert dumps(doc()) == expected
    path = tmp_path / "doc.json"
    jsontext.dump(doc(), path)
    assert path.read_text() == expected + "\n"


def test_dump_writes_each_record_list_before_it_takes_the_next(tmp_path):
    path = tmp_path / "doc.json"
    written = []
    pad = "x" * 40_000    # two records outgrow the file buffers, so what is written reaches the file

    def chunks():
        for k in range(3):
            written.extend(part.stat().st_size for part in tmp_path.glob("doc.json.*.part"))
            yield [{"id": k, "k": _K, "pad": pad}] * 2

    jsontext.dump({"records": chunks()}, path)
    assert len(written) == 3 and written[0] < written[1] < written[2]
    records = [{"id": k, "k": _K, "pad": pad} for k in (0, 0, 1, 1, 2, 2)]
    assert path.read_text() == json.dumps({"records": records}, indent=2) + "\n"
    assert list(tmp_path.iterdir()) == [path]


def test_files_written_together_take_their_places_together(tmp_path, capsys):
    first, second = tmp_path / "first", tmp_path / "second"
    second.write_text("old\n")

    def refused():
        pid = os.getpid()    # the first file is written, the second open; no destination is replaced yet
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"first.{pid}.part", "second", f"second.{pid}.2.part"]
        yield "new\n"
        raise ValueError("refused")

    with pytest.raises(ValueError, match="refused"):
        jsontext.write_whole(first, ["one\n"], ("-", ["out\n"]), (second, refused()))
    assert list(tmp_path.iterdir()) == [second] and second.read_text() == "old\n"
    assert capsys.readouterr().out == ""
    jsontext.write_whole(first, ["one\n"], ("-", ["out\n"]), (second, ["two\n"]), (first, ["last\n"]))
    assert [first.read_text(), second.read_text()] == ["last\n", "two\n"]    # one file given twice: the last wins
    assert capsys.readouterr().out == "out\n"
    assert sorted(tmp_path.iterdir()) == [first, second]


def test_a_same_shape_record_list_costs_a_fixed_number_of_encoder_calls(monkeypatch):
    calls = []
    encoder = jsontext._encoder

    def counting(depth, allow_nan):
        calls.append(depth)
        return encoder(depth, allow_nan)

    monkeypatch.setattr(jsontext, "_encoder", counting)
    counts = []
    for n in (10, 100):
        records = [{"id": i, "xy": [[i, 0.5], [1, 2]], "tags": ["a", None], "v": {"k": [i]}} for i in range(n)]
        calls.clear()
        assert dumps({"records": records}) == json.dumps({"records": records}, indent=2)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_no_module_but_jsontext_reads_json():
    package = Path(phenokey.__file__).parent
    readers = [p.name for p in sorted(package.glob("*.py")) if re.search(r"\bjson\.loads?\(", p.read_text())]
    assert readers == ["jsontext.py"]


def test_read_json_names_the_file_of_a_decoder_schema_error(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"a": 1}')
    assert read_json(path) == {"a": 1}
    assert read_json(path, lambda doc: doc_field(doc, "a")) == 1
    with pytest.raises(SchemaError) as info:
        read_json(path, lambda doc: doc_field(doc, "b", "entry[0]: "), name=f"thing {path}")
    assert str(info.value) == f"thing {path}: entry[0]: missing field 'b'"
    path.write_text('[1,\n 2,,]')
    with pytest.raises(ParseError) as info:
        read_json(path)
    assert str(info.value) == f"{path}: malformed document at line 2, column 4: Expecting value"
