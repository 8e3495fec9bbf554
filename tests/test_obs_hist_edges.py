"""Histogram edge cases: the empty histogram and the snapshot shape."""

from repro.obs.metrics import Histogram


def test_empty_histogram_aggregates():
    h = Histogram()
    assert h.count == 0 and h.sum == 0.0
    assert h.min is None and h.max is None
    assert h.mean == 0.0  # defined (not a ZeroDivisionError)
    assert h.as_dict() == {
        "count": 0, "sum": 0.0, "min": None, "max": None, "mean": 0.0}


def test_as_dict_snapshot_shape():
    h = Histogram()
    h.observe(2.0)
    h.observe(4.0)
    assert h.as_dict() == {
        "count": 2, "sum": 6.0, "min": 2.0, "max": 4.0, "mean": 3.0}
