"""Histogram edge cases: empty histograms and bucket-count invariants.

The bucket vectors are what :func:`repro.obs.diff.histogram_delta`
subtracts and what the OpenMetrics exposition accumulates.
"""

from repro.obs.metrics import BUCKET_BOUNDS, Histogram


def test_empty_histogram_aggregates():
    h = Histogram()
    assert h.count == 0 and h.sum == 0.0
    assert h.min is None and h.max is None
    assert h.mean == 0.0  # defined (not a ZeroDivisionError)
    assert h.bucket_counts() == [0] * (len(BUCKET_BOUNDS) + 1)
    assert h.as_dict() == {
        "count": 0, "sum": 0.0, "min": None, "max": None, "mean": 0.0}


def test_bucket_counts_monotone_boundaries():
    """Bounds are *inclusive* upper edges: a value equal to a bound lands
    in that bound's bucket, epsilon above rolls into the next."""
    h = Histogram()
    h.observe(1.0)  # == bound 10^0
    h.observe(1.0000001)  # just above
    counts = h.bucket_counts()
    one = BUCKET_BOUNDS.index(1.0)
    assert counts[one] == 1 and counts[one + 1] == 1
    # the implicit +Inf bucket catches everything beyond the top bound
    h.observe(BUCKET_BOUNDS[-1] * 10)
    assert h.bucket_counts()[-1] == 1
    # cumulative view (what OpenMetrics exports) is monotone
    cum = 0
    for c in h.bucket_counts():
        assert c >= 0
        cum += c
    assert cum == h.count


def test_as_dict_snapshot_shape():
    h = Histogram()
    h.observe(2.0)
    h.observe(4.0)
    assert h.as_dict() == {
        "count": 2, "sum": 6.0, "min": 2.0, "max": 4.0, "mean": 3.0}
