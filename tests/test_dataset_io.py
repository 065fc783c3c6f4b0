import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from phenokey.dataset import (
    _CHUNK,
    Dataset,
    dataset_to_coco_dict,
    parse_coco,
    serialize_coco,
    validate,
)
from phenokey.errors import (
    DatasetValidationError,
    IntegrityError,
    ParseError,
    PhenokeyWarning,
    SchemaError,
)
from phenokey.schema import KEYPOINT_COUNT, SPECIES
from phenokey.synth import TEMPLATES, PerturbationModel, generate_population, perturb

import oracles
from conftest import make_dataset, make_keypoints, rows
from oracles import oracle_parse_coco, oracle_validate


def _load_fixture_doc(fixture_path):
    with open(fixture_path, encoding="utf-8") as fh:
        return json.load(fh)


def test_parse_fixture_two_records(fixture_path):
    ds = parse_coco(fixture_path)
    assert len(ds) == 2
    assert ds.role == "test"
    assert ds.image_ids == (1, 2)
    assert ds.width[0] == 1152 and ds.height[0] == 864
    assert [SPECIES[c] for c in ds.species.tolist()] == ["grouper", "mottled_naked_carp"]
    assert ds.xy[0, 0].tolist() == [110.0, 430.0] and ds.v[0, 0] == 2
    assert ds.v[0, 14] == 1
    assert ds.xy[1, 21].tolist() == [0.0, 0.0] and ds.v[1, 21] == 0


def test_no_keypoints_dropped(fixture_path):
    ds = parse_coco(fixture_path)
    assert ds.xy.shape == (len(ds), KEYPOINT_COUNT, 2) and ds.v.shape == (len(ds), KEYPOINT_COUNT)


def test_roundtrip_field_equality(fixture_path, tmp_path):
    ds = parse_coco(fixture_path)
    out = tmp_path / "roundtrip.json"
    serialize_coco(ds, out)
    again = parse_coco(out)
    assert again == ds
    assert again.image_ids == ds.image_ids
    assert np.array_equal(again.width, ds.width) and np.array_equal(again.height, ds.height)
    assert np.array_equal(again.xy, ds.xy) and np.array_equal(again.v, ds.v)
    assert np.array_equal(again.species, ds.species)


def test_double_roundtrip_byte_equal(fixture_path, tmp_path):
    ds = parse_coco(fixture_path)
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    serialize_coco(ds, first)
    serialize_coco(parse_coco(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_bad_triplet_count_names_annotation(fixture_path, tmp_path):
    doc = _load_fixture_doc(fixture_path)
    doc["annotations"][0]["keypoints"] = doc["annotations"][0]["keypoints"][:63]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="annotation 1"):
        parse_coco(path)


def test_fractional_visibility_flag_names_annotation_and_keypoint(fixture_path, tmp_path):
    doc = _load_fixture_doc(fixture_path)
    doc["annotations"][0]["keypoints"][3 * 3 + 2] = 2.7
    path = tmp_path / "fractional.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=r"annotation 1: keypoint 4 has fractional visibility flag 2\.7"):
        parse_coco(path)
    doc["annotations"][0]["keypoints"][3 * 3 + 2] = 2.0
    path.write_text(json.dumps(doc))
    assert parse_coco(path).v[0, 3] == 2


@pytest.mark.parametrize("flag", [float("nan"), float("inf"), -float("inf"), 2.0**63])
def test_a_visibility_flag_no_int64_holds_is_refused_not_cast(fixture_path, tmp_path, flag):
    doc = _load_fixture_doc(fixture_path)
    doc["annotations"][1]["keypoints"][3 * 3 + 2] = flag
    path = tmp_path / "flag.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as info:
        parse_coco(path)
    assert str(info.value) == f"{path}: annotation 2: keypoint 4 has out-of-range visibility flag {flag!r}"


def test_empty_annotations_warns(fixture_path, tmp_path):
    doc = _load_fixture_doc(fixture_path)
    doc["annotations"] = []
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    with pytest.warns(PhenokeyWarning, match="empty"):
        ds = parse_coco(path)
    assert len(ds) == 0


def test_two_annotations_for_one_image(fixture_path, tmp_path):
    doc = _load_fixture_doc(fixture_path)
    dup = dict(doc["annotations"][0])
    dup["id"] = 99
    doc["annotations"].append(dup)
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(IntegrityError, match="duplicate image id"):
        parse_coco(path)


def test_duplicate_id_in_images_array(fixture_path, tmp_path):
    doc = _load_fixture_doc(fixture_path)
    doc["images"][1]["id"] = doc["images"][0]["id"]
    path = tmp_path / "dupimg.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(IntegrityError):
        parse_coco(path)


def test_annotation_for_unknown_image(fixture_path, tmp_path):
    doc = _load_fixture_doc(fixture_path)
    doc["annotations"][0]["image_id"] = 777
    path = tmp_path / "orphan.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(IntegrityError, match="unknown image id"):
        parse_coco(path)


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"images": [\n  {"id": 1,, }\n]}')
    with pytest.raises(ParseError, match="line"):
        parse_coco(path)


def test_missing_top_level_field(tmp_path):
    path = tmp_path / "nofield.json"
    path.write_text('{"images": []}')
    with pytest.raises(ParseError, match="annotations"):
        parse_coco(path)


def test_validate_clean_fixture(fixture_path):
    assert validate(parse_coco(fixture_path)) == []


def test_validate_negative_visible_coordinate():
    kp = make_keypoints(overrides={5: (-3.0, 10.0)})
    violations = validate(make_dataset([kp]))
    assert len(violations) == 1
    assert violations[0].rule == "visible_nonnegative"
    assert violations[0].keypoint_index == 5


def test_validate_hidden_keypoint_may_be_anywhere():
    v = np.full(KEYPOINT_COUNT, 2)
    v[4] = 0
    kp = make_keypoints(v=v, overrides={5: (-3.0, -99.0)})
    assert validate(make_dataset([kp])) == []


def test_validate_duplicate_ids():
    kp1 = make_keypoints(image_id=7)
    kp2 = make_keypoints(image_id=7)
    violations = validate(make_dataset([kp1, kp2]))
    assert len(violations) == 1
    assert violations[0].rule == "unique_image_id"


def test_validate_out_of_bounds():
    kp = make_keypoints(overrides={9: (2500.0, 100.0)})
    violations = validate(make_dataset([kp], width=2000.0, height=2000.0))
    assert [v.rule for v in violations] == ["visible_within_bounds"]


def test_validate_nonfinite_coordinate():
    kp = make_keypoints(overrides={3: (np.nan, 50.0)})
    violations = validate(make_dataset([kp]))
    assert [v.rule for v in violations] == ["visible_finite"]


def test_validate_bad_visibility_flag():
    v = np.full(KEYPOINT_COUNT, 2)
    v[0] = 5
    violations = validate(make_dataset([make_keypoints(v=v)]))
    assert [v_.rule for v_ in violations] == ["visibility_flag"]


def test_validate_bad_dimensions():
    kp = make_keypoints()
    ds = make_dataset([kp], width=0.0)
    rules = {v.rule for v in validate(ds)}
    assert "positive_dimensions" in rules


def _rule_breaking_dataset():
    def kp(image_id, v_at=None, overrides=None):
        v = np.full(KEYPOINT_COUNT, 2)
        for idx, flag in (v_at or {}).items():
            v[idx - 1] = flag
        return make_keypoints(v=v, image_id=image_id, overrides=overrides)

    kps = [
        kp(1),
        kp(2, v_at={3: 5, 7: -1, 9: 0}, overrides={3: (np.nan, 1.0), 9: (-5.0, np.inf)}),
        kp(2, v_at={4: 1}, overrides={4: (np.inf, 3.0), 6: (-1.0, 4.5), 8: (2500.0, 10.0)}),
        kp(3, overrides={2: (np.nan, -2.0), 10: (10.0, 2000.5)}),
        kp(4, overrides={11: (3000.0, -1.0), 12: (2100.25, 2100.5)}),
        kp(5, v_at={1: 3}, overrides={5: (1999.5, 2000.0), 6: (2000.0, 2000.0000001)}),
        kp(5),
        kp(6),
        kp(2, overrides={22: (1.0, -0.0), 21: (-0.0, 0.5)}),
    ]
    width = [2000.0, 2000.0, 2000.0, 0.0, 2000.0, 2000.0, -4.0, 2000.0, 2000.0]
    height = [2000.0, 2000.0, 2000.0, 2000.0, float("nan"), 2000.0, -1.0, 2000.0, 2000.0]
    return make_dataset(kps, width=width, height=height)


def test_validate_matches_oracle_on_every_rule():
    ds = _rule_breaking_dataset()
    got = [(v.image_id, v.keypoint_index, v.rule, v.detail) for v in validate(ds)]
    assert got == oracle_validate(rows(ds))
    assert {rule for _, _, rule, _ in got} == {
        "unique_image_id", "positive_dimensions", "visibility_flag",
        "visible_finite", "visible_nonnegative", "visible_within_bounds",
    }
    assert len({image_id for image_id, *_ in got}) > 3


def test_validate_text_is_the_same_however_the_dataset_was_built(tmp_path):
    hidden = np.full(KEYPOINT_COUNT, 2)
    hidden[6] = 3
    kps = [
        make_keypoints(image_id=1),
        make_keypoints(image_id="b", overrides={3: (950.0, 10.0), 4: (-1.0, 5.0)}),
        make_keypoints(image_id=2, v=hidden, overrides={5: (np.nan, 1.0)}),
    ]
    # int dimensions, as a caller may pass them
    sizes = [(0, 480), (900, 600), (900, -2)]
    from_lists = Dataset(
        [kp.xy.tolist() for kp in kps], [kp.v.tolist() for kp in kps], [kp.image_id for kp in kps],
        [w for w, _ in sizes], [h for _, h in sizes], [4, 4, 4], role="test",
    )
    from_arrays = make_dataset(kps, role="test", width=[float(w) for w, _ in sizes],
                               height=[float(h) for _, h in sizes])
    path = tmp_path / "dirty.json"
    path.write_text(json.dumps(dataset_to_coco_dict(from_lists)))
    texts = [[str(v) for v in validate(ds)] for ds in (from_lists, from_arrays, parse_coco(path))]
    assert texts[0] == texts[1] == texts[2]
    assert texts[0][0] == "[positive_dimensions] image 1: width=0.0, height=480.0"
    assert "[visible_within_bounds] image 'b', keypoint 3: (950.0, 10.0) outside 900.0 x 600.0" in texts[0]
    assert len(texts[0]) == 6


def _serializer_cases():
    hidden = np.full(KEYPOINT_COUNT, 2)
    hidden[[0, 9, 21]] = 0
    nan_hidden = {1: (np.nan, np.nan), 10: (np.nan, 5.0), 22: (7.0, np.nan)}
    odd_ids = ['fish "one"', "poisson \u00e9", "\u9b5a\u2014\U0001f41f", "plain", "back\\slash"]
    odd = [make_keypoints(v=hidden, image_id=image_id, species=sp, overrides=nan_hidden)
           for image_id, sp in zip(odd_ids, SPECIES)]
    numeric = [make_keypoints(image_id=k, species=SPECIES[k % len(SPECIES)]) for k in (3, 1, 2)]
    pop = generate_population(TEMPLATES["deep_bodied"], 4, seed=5)
    grouper = np.full(4, SPECIES.index("grouper"))
    return [
        make_dataset(odd, role="test", width=[1000.0 + k for k in range(len(odd))], height=800.5),
        make_dataset(numeric, role="train"),
        make_dataset([], role="test"),
        Dataset(pop.xy, pop.v, pop.image_ids, pop.width, pop.height, grouper, pop.role),
    ]


@pytest.mark.parametrize("case", range(4))
def test_serialize_bytes_equal_indent2_dumps(case, tmp_path):
    ds = _serializer_cases()[case]
    out = tmp_path / "out.json"
    serialize_coco(ds, out)
    expected = json.dumps(dataset_to_coco_dict(ds), indent=2) + "\n"
    assert out.read_bytes() == expected.encode("utf-8")


def _chunked_population(n, perturbed):
    """``n`` fish whose ids mix ints and strings and whose hidden keypoints stand at NaN, perturbed if asked."""
    pop = generate_population(TEMPLATES["deep_bodied"], max(n, 1), seed=8)
    if perturbed:
        pop = perturb(pop, PerturbationModel("proportional_to_shortest_phenotype", 0.05, seed=8))
    v = pop.v[:n].copy()
    v[::3, 4] = 0
    v[1::7, [0, 17]] = 0
    xy = np.where((v == 0)[..., None], np.nan, pop.xy[:n])
    ids = [image_id if image_id % 4 else f"fish {image_id}" for image_id in pop.image_ids[:n]]
    return Dataset(xy, v, ids, pop.width[:n], pop.height[:n], pop.species[:n], pop.role)


@pytest.mark.parametrize("n, perturbed", [(0, False), (1, False), (_CHUNK - 1, False), (_CHUNK, False),
                                          (_CHUNK + 1, False), (2 * _CHUNK + 1, False), (2 * _CHUNK + 1, True)])
def test_serialize_bytes_hold_across_chunk_boundaries(n, perturbed, tmp_path, parse_cache):
    ds = _chunked_population(n, perturbed)
    assert len(ds) == n and (n < 4 or {type(i) for i in ds.image_ids} == {int, str})
    assert np.isnan(ds.xy[ds.v == 0]).all() and (ds.v == 0).any() == (n > 0)
    out = tmp_path / "out.json"
    serialize_coco(ds, out)
    expected = json.dumps(dataset_to_coco_dict(ds), indent=2) + "\n"
    assert out.read_bytes() == expected.encode("utf-8")
    # serialize -> parse -> serialize is byte-stable, through a parse-cache miss and then a hit
    for entries in (0, 1):
        assert len(list(parse_cache.glob("*"))) == entries
        if n:
            parsed = parse_coco(out)
        else:
            with pytest.warns(PhenokeyWarning, match="annotations array is empty"):
                parsed = parse_coco(out)
        assert parsed == ds
        again = tmp_path / f"again{entries}.json"
        serialize_coco(parsed, again)
        assert again.read_bytes() == out.read_bytes()


def test_serialize_memory_does_not_grow_with_the_population(tmp_path):
    peaks = {}
    for n in (2 * _CHUNK, 8 * _CHUNK):
        ds = generate_population(TEMPLATES["deep_bodied"], n, seed=4)
        tracemalloc.start()
        try:
            serialize_coco(ds, tmp_path / f"{n}.json")
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[8 * _CHUNK] <= 1.3 * peaks[2 * _CHUNK], peaks


def test_serialize_invalid_fails_before_write(tmp_path):
    kp = make_keypoints(overrides={5: (-3.0, 10.0)})
    out = tmp_path / "never.json"
    with pytest.raises(DatasetValidationError):
        serialize_coco(make_dataset([kp]), out)
    assert not out.exists()


def test_serialize_empty_dataset(tmp_path):
    out = tmp_path / "empty.json"
    serialize_coco(make_dataset([], role="train"), out)
    with pytest.warns(PhenokeyWarning):
        again = parse_coco(out)
    assert len(again) == 0


def test_parse_serialize_identity_on_synthetic(tmp_path):
    for seed in (0, 1, 2):
        ds = generate_population(TEMPLATES["elongate"], 6, seed=seed, role="test")
        out = tmp_path / f"synth_{seed}.json"
        serialize_coco(ds, out)
        assert parse_coco(out) == ds


def test_records_kept_in_canonical_id_order(tmp_path):
    kp_b = make_keypoints(image_id=9)
    kp_a = make_keypoints(image_id=3)
    ds = make_dataset([kp_b, kp_a])
    assert ds.image_ids == (3, 9)
    # columns given in reverse canonical order are put back in it
    ds = parse_coco(_write(tmp_path, _mixed_doc()))
    rebuilt = Dataset(ds.xy[::-1], ds.v[::-1], ds.image_ids[::-1], ds.width[::-1], ds.height[::-1], ds.species[::-1],
                      role="test")
    assert rebuilt == ds
    assert rebuilt.take([1, 3]).image_ids == (2, 5)


def test_records_compare_field_by_field():
    kp = make_keypoints(xy=np.full((KEYPOINT_COUNT, 2), np.nan), v=np.zeros(KEYPOINT_COUNT), image_id=1)
    ds = make_dataset([kp], width=100.0, height=100.0)
    assert ds == make_dataset([make_keypoints(xy=kp.xy, v=kp.v, image_id=1)], width=100.0, height=100.0)
    assert ds != make_dataset([kp], width=100.0, height=101.0)
    assert ds != make_dataset([make_keypoints(v=kp.v, image_id=1)], width=100.0, height=100.0)


def test_no_records_make_empty_columns():
    ds = make_dataset([])
    assert ds.xy.shape == (0, KEYPOINT_COUNT, 2) and ds.v.shape == (0, KEYPOINT_COUNT) and ds.v.dtype == np.int64
    assert ds.image_ids == () and len(ds) == 0


def test_wrong_shape_construction_raises():
    with pytest.raises(ValueError, match=r"^column xy has shape \(1, 21, 2\), expected \(1, 22, 2\) for 1 image ids$"):
        Dataset(np.zeros((1, 21, 2)), np.zeros((1, 21), dtype=int), [1], [10.0], [10.0], [0])


def test_unknown_species_rejected_at_construction():
    for code in (9, -1, len(SPECIES)):    # serialized, 9 and -1 would name no category
        with pytest.raises(ValueError, match=rf"^column species has {code} in row 1, expected 0..4$"):
            Dataset(np.zeros((2, KEYPOINT_COUNT, 2)), np.zeros((2, KEYPOINT_COUNT)), [2, 1], [10.0] * 2, [10.0] * 2,
                    [len(SPECIES) - 1, code])
    # a flag or code that is no whole number is refused before any cast, which would truncate it or warn
    flags = np.full((2, KEYPOINT_COUNT), 2.0)
    for value, text in ((1.5, "1.5"), (np.nan, "nan"), (-np.inf, "-inf"), (1e20, "1e+20")):
        bad = flags.copy()
        bad[1, 4] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^column v has {re.escape(text)} in row 1, expected an integer$"):
                Dataset(np.zeros((2, KEYPOINT_COUNT, 2)), bad, [2, 1], [10.0] * 2, [10.0] * 2, [0, 1])
            with pytest.raises(ValueError, match=rf"^column species has {re.escape(text)} in row 0, expected an "):
                Dataset(np.zeros((2, KEYPOINT_COUNT, 2)), flags, [2, 1], [10.0] * 2, [10.0] * 2, [value, 1])
    whole = Dataset(np.zeros((2, KEYPOINT_COUNT, 2)), flags, [2, 1], [10.0] * 2, [10.0] * 2, [4.0, 1.0])
    assert whole.v.dtype == whole.species.dtype == np.int64 and whole.species.tolist() == [1, 4]


def test_dataset_arrays_immutable(tmp_path):
    ds = parse_coco(_write(tmp_path, _mixed_doc()))
    for column in (ds.xy, ds.v, ds.width, ds.height, ds.species):
        with pytest.raises(ValueError):
            column[0] = 1
    with pytest.raises(AttributeError):
        ds.role = "train"


# ---------------------------------------------------------------------------
# columnar parse against the per-annotation oracle

_MIXED_IDS = (7, "b", 3, "a10", 1, "a2", 12, "z", 5, 2)


def _mixed_doc():
    """Ten annotations in scrambled file order: int and str ids, every species, hidden NaN keypoints."""
    names = ["grouper", "Mottled Naked Carp", "bighead-carp", "common_carp", "salmon"]
    images = [
        {"id": image_id, "width": 640 + k, "height": 480.5 if k % 2 else 480, "file_name": f"{k}.jpg"}
        for k, image_id in enumerate(_MIXED_IDS)
    ]
    annotations = []
    for k, image_id in enumerate(_MIXED_IDS):
        flat = []
        for i in range(KEYPOINT_COUNT):
            flag = 0 if (i + k) % 7 == 0 else (1 if (i + k) % 5 == 0 else 2)
            x, y = 10.0 + 13.5 * i + k, 20.0 + 7.25 * i
            if flag == 0 and k % 2:
                x, y = float("nan"), float("nan")
            flat += [x, y, flag]
        ann = {"id": 100 + k, "image_id": image_id, "keypoints": flat}
        if k != 4:
            ann["category_id"] = 1 + k % 6    # 6 is no category: species "other"
        annotations.append(ann)
    return {
        "info": {"role": "test"},
        "images": images,
        "annotations": annotations,
        "categories": [{"id": k + 1, "name": name} for k, name in enumerate(names)],
    }


def _write(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_parse_columns_match_oracle(tmp_path):
    path = _write(tmp_path, _mixed_doc())
    ds = parse_coco(path)
    role, expected = oracle_parse_coco(path)
    assert ds.role == role == "test"
    assert ds.image_ids == tuple(r[0] for r in expected) == (1, 2, 3, 5, 7, 12, "a10", "a2", "b", "z")
    assert [SPECIES[c] for c in ds.species.tolist()] == [r[3] for r in expected]
    assert {SPECIES[c] for c in ds.species.tolist()} == set(SPECIES)
    assert ds.width.tolist() == [r[1] for r in expected]
    assert ds.height.tolist() == [r[2] for r in expected]
    assert ds.v.tolist() == [r[5] for r in expected]
    assert np.array_equal(ds.xy, np.array([r[4] for r in expected]), equal_nan=True)
    assert np.isnan(ds.xy[ds.v == 0]).any() and not np.isnan(ds.xy[ds.v > 0]).any()
    assert ds.xy.dtype == np.float64 and ds.v.dtype == np.int64
    # the rows the tests read carry the same values
    for rec, code, row in zip(rows(ds), ds.species.tolist(), expected):
        assert (rec.image_id, rec.width, rec.height, SPECIES[code]) == row[:4]
        assert rec.keypoints.v.tolist() == row[5]


def _break(doc, k, kind):
    ann = doc["annotations"][k]
    if kind == "count":
        ann["keypoints"] = ann["keypoints"][:-3]
    elif kind == "non_numeric":
        ann["keypoints"][4] = "x" if k % 2 else [1.0, 2.0]
    elif kind == "unknown_image":
        ann["image_id"] = f"ghost{k}"
    elif kind == "duplicate_image":
        ann["image_id"] = doc["annotations"][k - 1]["image_id"]
    elif kind == "fractional":
        ann["keypoints"][3 * (k % KEYPOINT_COUNT) + 2] = 1.5


_ERRORS = {
    "count": SchemaError,
    "non_numeric": ParseError,
    "unknown_image": IntegrityError,
    "duplicate_image": IntegrityError,
    "fractional": SchemaError,
}


@pytest.mark.parametrize("kind", sorted(_ERRORS))
def test_parse_names_first_offending_annotation_like_oracle(tmp_path, kind):
    doc = _mixed_doc()
    _break(doc, 6, kind)
    _break(doc, 3, kind)
    path = _write(tmp_path, doc)
    with pytest.raises(getattr(oracles, _ERRORS[kind].__name__)) as oracle_exc:
        oracle_parse_coco(path)
    with pytest.raises(_ERRORS[kind]) as exc:
        parse_coco(path)
    assert str(exc.value).startswith(str(oracle_exc.value))
    if kind != "non_numeric":
        assert str(exc.value) == str(oracle_exc.value)
    # annotation 103 (file position 3) is named, not 106
    named = {"unknown_image": "unknown image id 'ghost3'", "duplicate_image": "duplicate image id 3:"}
    assert named.get(kind, "annotation 103") in str(exc.value)


def test_parse_reports_earlier_non_numeric_before_later_structural_error(tmp_path):
    doc = _mixed_doc()
    _break(doc, 2, "non_numeric")
    _break(doc, 5, "unknown_image")
    path = _write(tmp_path, doc)
    with pytest.raises(ParseError, match="annotation 102: non-numeric keypoints entry"):
        parse_coco(path)
    with pytest.raises(oracles.ParseError, match="annotation 102"):
        oracle_parse_coco(path)
