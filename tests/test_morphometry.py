import math
import warnings

import numpy as np
import pytest

from phenokey.morphometry import (
    ABBREVS,
    ENDPOINTS,
    PHENOTYPES,
    RELATED,
    degenerate_messages,
    measurement_rows,
    phenotype_lengths,
    shortest_phenotype_lengths,
)
from phenokey.schema import KEYPOINT_COUNT

from conftest import make_keypoints
from oracles import PHENOTYPE_ENDPOINTS

ENDS = {abbrev: ends for abbrev, _, ends in PHENOTYPES}


def _rows(kp):
    """``{abbrev: (value_px, status)}`` of one keypoint set's ``measure`` rows, the value None where skipped."""
    lengths, status, hidden = measurement_rows(kp.xy[None], kp.v[None])
    values = [None if h else value for value, h in zip(lengths[0].tolist(), hidden[0])]
    return {abbrev: (value, s) for abbrev, value, s in zip(ABBREVS, values, status[0])}


def _shortest(kp):
    """(22,) shortest measurable related phenotype of each keypoint of one set; +inf where none is."""
    return shortest_phenotype_lengths(kp.xy[None], kp.v[None])[0]


def test_table_has_23_phenotypes():
    assert len(PHENOTYPES) == 23
    assert ABBREVS == tuple(abbrev for abbrev, _, _ in PHENOTYPES)
    assert ENDPOINTS.shape == (2, 23) and ENDPOINTS.dtype == np.intp


def test_abbrevs_unique():
    assert len(set(ABBREVS)) == 23


def test_every_keypoint_covered():
    covered = {e for _, _, ends in PHENOTYPES for e in ends}
    assert covered == set(range(1, KEYPOINT_COUNT + 1))
    assert all(a != b for _, _, (a, b) in PHENOTYPES)


def test_known_endpoint_pairs():
    assert ENDS["TL"] == (1, 9)
    assert ENDS["ED"] == (11, 12)
    assert ENDS["CPD"] == (7, 8)
    assert ENDS["PeDD"] == (15, 20)
    assert [ENDPOINTS[:, t].tolist() for t in (ABBREVS.index("TL"), ABBREVS.index("PeDD"))] == [[0, 8], [14, 19]]


def test_related_sets():
    assert len(RELATED) == KEYPOINT_COUNT
    assert tuple(ABBREVS[t] for t in RELATED[11 - 1]) == ("SnL", "ED")
    assert tuple(ABBREVS[t] for t in RELATED[9 - 1]) == ("TL", "TFL")
    assert tuple(ABBREVS[t] for t in RELATED[22 - 1]) == ("DFH",)


def test_table_arrays_are_read_only():
    assert not any(arr.flags.writeable for arr in (ENDPOINTS, *RELATED))
    with pytest.raises(ValueError, match="read-only"):
        ENDPOINTS[0, 0] = 5
    with pytest.raises(ValueError, match="read-only"):
        RELATED[0][0] = 5


def test_measure_three_four_five():
    kp = make_keypoints(overrides={1: (0.0, 0.0), 9: (3.0, 4.0)})
    assert _rows(kp)["TL"] == (5.0, "ok")


def test_measure_coincident_warns_zero():
    kp = make_keypoints(overrides={11: (50.0, 50.0), 12: (50.0, 50.0)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")    # the kernel states the fact in its status column and warns nothing
        rows = _rows(kp)
        _, status, hidden = measurement_rows(kp.xy[None], kp.v[None])
    assert rows["ED"] == (0.0, "degenerate") and not hidden.any()
    # the text of the DegenerateMeasurementWarning that `measure` gives for the cell
    assert degenerate_messages([kp.image_id], status) == ["ED on image 1: coincident endpoints, zero length"]


def test_measure_hidden_endpoint_skips():
    v = np.full(KEYPOINT_COUNT, 2)
    v[10] = 0  # K-11
    kp = make_keypoints(v=v)
    assert _rows(kp)["ED"] == (None, "skipped:K-11")
    _, _, hidden = measurement_rows(kp.xy[None], kp.v[None])
    assert [(abbrev, h) for abbrev, h in zip(ABBREVS, hidden[0].tolist()) if h] == [("SnL", 11), ("ED", 11)]


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
    lengths = phenotype_lengths(xy, v, ENDPOINTS)
    assert np.abs(lengths[1:] - lengths[0]).max() < 1e-9
    assert np.array_equal(phenotype_lengths(xy, v, ENDPOINTS[::-1]), lengths)   # endpoints swapped


def test_measure_all_full_visibility():
    kp = make_keypoints()
    lengths, status, hidden = measurement_rows(kp.xy[None], kp.v[None])
    assert np.isfinite(lengths).sum() == 23 and (status == "ok").all()
    assert not hidden.any()


def test_measure_all_hidden_k22_skips_only_dfh():
    v = np.full(KEYPOINT_COUNT, 2)
    v[21] = 0
    kp = make_keypoints(v=v)
    lengths, status, hidden = measurement_rows(kp.xy[None], kp.v[None])
    assert np.isfinite(lengths).sum() == 22
    assert [abbrev for abbrev, h in zip(ABBREVS, hidden[0].tolist()) if h] == ["DFH"]
    assert hidden[0, ABBREVS.index("DFH")] == 22 and status[0, ABBREVS.index("DFH")] == "skipped:K-22"


def test_measure_all_nothing_visible():
    kp = make_keypoints(v=np.zeros(KEYPOINT_COUNT, dtype=int))
    lengths, status, hidden = measurement_rows(kp.xy[None], kp.v[None])
    assert np.isnan(lengths).all()
    assert hidden.all() and len(hidden[0]) == 23


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
        for j in PHENOTYPES[t][2]:
            assert shortest[n, j - 1] <= lengths[n, t]


def test_shortest_related_tie_breaks_by_table_order():
    # SnL and ED both measure 40 for K-11: the shortest is that shared length
    kp = make_keypoints(overrides={1: (0.0, 0.0), 11: (40.0, 0.0), 12: (80.0, 0.0)})
    assert _shortest(kp)[10] == _rows(kp)["SnL"][0] == _rows(kp)["ED"][0] == 40.0


def test_oracle_restates_the_table():
    assert tuple(ends for _, _, ends in PHENOTYPES) == PHENOTYPE_ENDPOINTS
