import math

import numpy as np
import pytest

from phenokey.errors import (
    DegenerateMeasurementWarning,
    MissingKeypointError,
    NoMeasurablePhenotypeError,
)
from phenokey.morphometry import (
    PhenotypeDef,
    PhenotypeTable,
    default_table,
    measure,
    measure_all,
    shortest_related_phenotype,
)
from phenokey.schema import KEYPOINT_COUNT

from conftest import make_keypoints

TABLE = default_table()


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
    m = measure(kp, TABLE["TL"])
    assert m.value == 5.0
    assert m.abbrev == "TL"


def test_measure_coincident_warns_zero():
    kp = make_keypoints(overrides={11: (50.0, 50.0), 12: (50.0, 50.0)})
    with pytest.warns(DegenerateMeasurementWarning):
        m = measure(kp, TABLE["ED"])
    assert m.value == 0.0


def test_measure_hidden_endpoint_errors():
    v = np.full(KEYPOINT_COUNT, 2)
    v[10] = 0  # K-11
    kp = make_keypoints(v=v)
    with pytest.raises(MissingKeypointError, match="K-11"):
        measure(kp, TABLE["ED"])


def test_measure_symmetric_and_rigid_invariant():
    rng = np.random.default_rng(7)
    base = make_keypoints()
    for _ in range(20):
        theta = rng.uniform(0, 2 * math.pi)
        shift = rng.uniform(-500, 500, size=2)
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        moved = make_keypoints(xy=base.xy @ rot.T + shift)
        for pdef in TABLE:
            a = measure(base, pdef).value
            b = measure(moved, pdef).value
            assert abs(a - b) < 1e-9
            flipped = PhenotypeDef("tmp", "tmp", (pdef.endpoints[1], pdef.endpoints[0]))
            assert measure(base, flipped).value == a


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
        measure(kp, TABLE["ED"])
        shortest_related_phenotype(12, kp)
    assert [m.value for m in measured if m.abbrev == "ED"] == [0.0] and skipped == []
    assert [w.filename for w in record] == [__file__] * 3


def test_measure_all_nothing_visible():
    measured, skipped = measure_all(make_keypoints(v=np.zeros(KEYPOINT_COUNT, dtype=int)))
    assert measured == []
    assert len(skipped) == 23


def test_shortest_related_picks_eye_diameter():
    # SnL (K-1..K-11) = 120, ED (K-11..K-12) = 40
    kp = make_keypoints(overrides={1: (0.0, 0.0), 11: (120.0, 0.0), 12: (160.0, 0.0)})
    m = shortest_related_phenotype(11, kp)
    assert m.abbrev == "ED"
    assert m.value == 40.0


def test_shortest_related_tail_fin():
    kp = make_keypoints(overrides={1: (0.0, 0.0), 9: (500.0, 0.0), 10: (410.0, 0.0)})
    m = shortest_related_phenotype(9, kp)
    assert m.abbrev == "TFL"
    assert m.value == 90.0


def test_shortest_related_no_measurable_errors():
    v = np.full(KEYPOINT_COUNT, 2)
    v[19] = 0  # K-20 hidden; K-22's only phenotype DFH needs it
    kp = make_keypoints(v=v)
    with pytest.raises(NoMeasurablePhenotypeError, match="K-22"):
        shortest_related_phenotype(22, kp)


def test_shortest_related_is_minimum_of_related():
    rng = np.random.default_rng(11)
    for _ in range(10):
        kp = make_keypoints(xy=rng.uniform(10, 900, size=(KEYPOINT_COUNT, 2)))
        for j in range(1, KEYPOINT_COUNT + 1):
            shortest = shortest_related_phenotype(j, kp)
            for pdef in TABLE.related(j):
                assert shortest.value <= measure(kp, pdef).value


def test_shortest_related_tie_breaks_by_table_order():
    # SnL and ED both measure 40 for K-11: SnL comes first in the table
    kp = make_keypoints(overrides={1: (0.0, 0.0), 11: (40.0, 0.0), 12: (80.0, 0.0)})
    assert shortest_related_phenotype(11, kp).abbrev == "SnL"
