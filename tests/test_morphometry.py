import math
import warnings

import numpy as np
import pytest

from phenokey.errors import DegenerateMeasurementWarning
from phenokey.morphometry import (
    PhenotypeDef,
    PhenotypeTable,
    default_table,
    degenerate_messages,
    measure_all,
    measurement_rows,
    phenotype_lengths,
    shortest_phenotype_lengths,
)
from phenokey.schema import KEYPOINT_COUNT

from conftest import make_keypoints
from oracles import PHENOTYPE_ENDPOINTS

TABLE = default_table()


def _rows(kp):
    """``{abbrev: (value_px, status)}`` of one keypoint set's ``measure`` rows, the value None where skipped."""
    lengths, status, hidden = measurement_rows(kp.xy[None], kp.v[None])
    values = [None if h else value for value, h in zip(lengths[0].tolist(), hidden[0])]
    return {abbrev: (value, s) for abbrev, value, s in zip(TABLE.abbrevs(), values, status[0])}


def _shortest(kp):
    """(22,) shortest measurable related phenotype of each keypoint of one set; +inf where none is."""
    return shortest_phenotype_lengths(kp.xy[None], kp.v[None])[0]


def test_table_has_23_phenotypes():
    assert len(TABLE) == 23


def test_abbrevs_unique():
    abbrevs = TABLE.abbrevs()
    assert len(set(abbrevs)) == 23


def test_every_keypoint_covered():
    covered = {e for pdef in TABLE for e in pdef.endpoints}
    assert covered == set(range(1, KEYPOINT_COUNT + 1))


def test_known_endpoint_pairs():
    assert TABLE["TL"].endpoints == (1, 9)
    assert TABLE["ED"].endpoints == (11, 12)
    assert TABLE["CPD"].endpoints == (7, 8)
    assert TABLE["PeDD"].endpoints == (15, 20)


def test_related_sets():
    assert tuple(d.abbrev for d in TABLE.related(11)) == ("SnL", "ED")
    assert tuple(d.abbrev for d in TABLE.related(9)) == ("TL", "TFL")
    assert tuple(d.abbrev for d in TABLE.related(22)) == ("DFH",)


def test_default_table_is_one_shared_read_only_table():
    assert default_table() is default_table()
    arrays = [TABLE.endpoint_index, *(TABLE.related_index(j) for j in range(1, KEYPOINT_COUNT + 1))]
    assert not any(arr.flags.writeable for arr in arrays)
    with pytest.raises(ValueError, match="read-only"):
        TABLE.endpoint_index[0, 0] = 5


def test_def_rejects_identical_endpoints():
    with pytest.raises(ValueError, match="distinct"):
        PhenotypeDef("XX", "broken", (3, 3))


def test_table_rejects_missing_coverage():
    defs = [PhenotypeDef(f"P{i}", f"p{i}", (i, i + 1)) for i in range(1, 21)]
    with pytest.raises(ValueError, match="not covered"):
        PhenotypeTable(defs)


def test_measure_three_four_five():
    kp = make_keypoints(overrides={1: (0.0, 0.0), 9: (3.0, 4.0)})
    assert _rows(kp)["TL"] == (5.0, "ok")


def test_measure_coincident_warns_zero():
    kp = make_keypoints(overrides={11: (50.0, 50.0), 12: (50.0, 50.0)})
    with pytest.warns(DegenerateMeasurementWarning):
        measure_all(kp)
    with warnings.catch_warnings():
        warnings.simplefilter("error")    # the kernel states the fact in its status column and warns nothing
        rows = _rows(kp)
    assert rows["ED"] == (0.0, "degenerate")


def test_measure_hidden_endpoint_skips():
    v = np.full(KEYPOINT_COUNT, 2)
    v[10] = 0  # K-11
    kp = make_keypoints(v=v)
    assert _rows(kp)["ED"] == (None, "skipped:K-11")
    assert [(s.abbrev, s.missing_keypoint) for s in measure_all(kp)[1]] == [("SnL", 11), ("ED", 11)]


def test_measure_symmetric_and_rigid_invariant():
    rng = np.random.default_rng(7)
    base = make_keypoints()
    moved = []
    for _ in range(20):
        theta = rng.uniform(0, 2 * math.pi)
        shift = rng.uniform(-500, 500, size=2)
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        moved.append(base.xy @ rot.T + shift)
    xy = np.stack([base.xy, *moved])
    v = np.full(xy.shape[:2], 2)
    lengths = phenotype_lengths(xy, v, TABLE.endpoint_index)
    assert np.abs(lengths[1:] - lengths[0]).max() < 1e-9
    assert np.array_equal(phenotype_lengths(xy, v, TABLE.endpoint_index[::-1]), lengths)   # endpoints swapped


def test_measure_all_full_visibility():
    measured, skipped = measure_all(make_keypoints())
    assert len(measured) == 23
    assert skipped == []


def test_measure_all_hidden_k22_skips_only_dfh():
    v = np.full(KEYPOINT_COUNT, 2)
    v[21] = 0
    measured, skipped = measure_all(make_keypoints(v=v))
    assert len(measured) == 22
    assert [s.abbrev for s in skipped] == ["DFH"]
    assert skipped[0].missing_keypoint == 22


def test_measuring_functions_warn_of_coincident_endpoints_at_the_caller():
    kp = make_keypoints(overrides={11: (50.0, 50.0), 12: (50.0, 50.0)})
    with pytest.warns(DegenerateMeasurementWarning, match="ED on image") as record:
        measured, skipped = measure_all(kp)
        _, status, _ = measurement_rows(kp.xy[None], kp.v[None])
    assert [m.value for m in measured if m.abbrev == "ED"] == [0.0] and skipped == []
    assert [w.filename for w in record] == [__file__]    # measure_all's caller; measurement_rows warns nothing
    assert degenerate_messages([kp.image_id], status) == [str(record[0].message)]


def test_measure_all_nothing_visible():
    measured, skipped = measure_all(make_keypoints(v=np.zeros(KEYPOINT_COUNT, dtype=int)))
    assert measured == []
    assert len(skipped) == 23


def test_shortest_related_picks_eye_diameter():
    # SnL (K-1..K-11) = 120, ED (K-11..K-12) = 40
    kp = make_keypoints(overrides={1: (0.0, 0.0), 11: (120.0, 0.0), 12: (160.0, 0.0)})
    assert _shortest(kp)[10] == _rows(kp)["ED"][0] == 40.0


def test_shortest_related_tail_fin():
    kp = make_keypoints(overrides={1: (0.0, 0.0), 9: (500.0, 0.0), 10: (410.0, 0.0)})
    assert _shortest(kp)[8] == _rows(kp)["TFL"][0] == 90.0


def test_shortest_related_no_measurable_is_inf():
    v = np.full(KEYPOINT_COUNT, 2)
    v[19] = 0  # K-20 hidden; K-22's only phenotype DFH needs it
    kp = make_keypoints(v=v)
    assert _shortest(kp)[21] == math.inf


def test_shortest_related_is_minimum_of_related():
    rng = np.random.default_rng(11)
    xy = rng.uniform(10, 900, size=(10, KEYPOINT_COUNT, 2))
    v = np.full(xy.shape[:2], 2)
    shortest = shortest_phenotype_lengths(xy, v)
    lengths, _, _ = measurement_rows(xy, v)
    for n, t in np.ndindex(lengths.shape):
        for j in TABLE.defs[t].endpoints:
            assert shortest[n, j - 1] <= lengths[n, t]


def test_shortest_related_tie_breaks_by_table_order():
    # SnL and ED both measure 40 for K-11: the shortest is that shared length
    kp = make_keypoints(overrides={1: (0.0, 0.0), 11: (40.0, 0.0), 12: (80.0, 0.0)})
    assert _shortest(kp)[10] == _rows(kp)["SnL"][0] == _rows(kp)["ED"][0] == 40.0


def test_oracle_restates_the_table():
    assert tuple(pdef.endpoints for pdef in TABLE) == PHENOTYPE_ENDPOINTS
