"""SVG plots: decimation of long trajectories, axes of flat data."""

import numpy as np

from infodelay.plots import _MAX_POINTS, _decimate, line_plot


def test_decimate_picks_increasing_nodes_from_first_to_last():
    # the rounded grid steps by (n - 1)/3999 > 1, so no two points round
    # to the same node at any length past the threshold
    for n in [*range(_MAX_POINTS + 1, 20_000), 61_883, 123_765, 247_527, 10**6 + 7]:
        idx = _decimate(n)
        assert len(idx) == _MAX_POINTS and idx[0] == 0 and idx[-1] == n - 1, n
        assert (np.diff(idx) > 0).all(), n


def test_line_plot_of_flat_data():
    # no finite point plots one vertex at the origin, centred in the frame
    svg = line_plot([np.nan, 1.0], [2.0, np.inf], "t", "x", "y")
    assert '<polyline points="424.00,293.00"' in svg
    # a flat y is drawn mid-height, with ticks around its value
    svg = line_plot([0.0, 1.0, 2.0], [3.0, 3.0, 3.0], "t", "x", "y")
    assert '<polyline points="72.00,293.00 424.00,293.00 776.00,293.00"' in svg
    assert 'text-anchor="end" fill="#444444">3.4</text>' in svg
