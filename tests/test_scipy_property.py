"""`cluster_matrix` cuts the partition of SciPy's average linkage, the paper's clustering, on
instances Hypothesis draws, with and without cannot-link pairs."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
pytest.importorskip("scipy")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fcgtrack.clustering import cluster_matrix, dense  # noqa: E402
from oracles import NearThreshold, instance_partitions, scipy_cluster_batch  # noqa: E402


@st.composite
def instances(draw):
    """(square, cannot-link mask or None, threshold) of 2-39 items: distances uniform in
    [0, 1), or those of points around a few centres, which make sub-threshold cliques; a
    constrained instance marks up to 30 % of its pairs cannot-link."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 39))
    if draw(st.booleans()):
        square = rng.uniform(0, 1, (n, n))
    else:
        centres = rng.uniform(0, 1, (draw(st.integers(1, 5)), 2))
        points = centres[rng.integers(0, len(centres), n)] + rng.normal(0, 0.05, (n, 2))
        square = np.linalg.norm(points[:, None] - points[None, :], axis=-1)
    square = np.triu(square, 1)
    mask = None
    if draw(st.booleans()):
        upper = np.triu(rng.random((n, n)) < draw(st.floats(0.0, 0.3)), 1)
        mask = upper | upper.T
    return square + square.T, mask, draw(st.floats(0.01, 1.0))


@settings(max_examples=300)
@given(instances())
def test_cluster_matrix_cuts_scipy_average_linkage(instance):
    """An instance is skipped only when a SciPy merge height lies within 1e-9 relative of the
    threshold, where ulps decide the side; the filter health check fails the test when that
    skips too many."""
    square, mask, threshold = instance
    n = len(square)
    if mask is not None:
        square = np.where(mask, np.inf, square)
    load = dense(square[None])
    try:
        roots = scipy_cluster_batch([n], lambda group: load, threshold=threshold)
    except NearThreshold:
        assume(False)
    assert [cluster_matrix(square, threshold=threshold)] == instance_partitions([n], roots)
