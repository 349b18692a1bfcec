"""The SVG renderers on degenerate data ranges."""

import pytest

from steerdist import svgplot


def test_an_empty_tick_range_widens_to_one_unit():
    # a single x value (or hi below lo) gets the ticks of [lo, lo + 1]
    assert svgplot._ticks(2.0, 2.0) == svgplot._ticks(2.0, 3.0) == [2.0, 2.2, 2.4, 2.6, 2.8, 3.0]
    assert svgplot._ticks(2.0, 1.0) == svgplot._ticks(2.0, 3.0)


def test_a_constant_series_is_drawn_inside_the_frame(tmp_path):
    # y range [2, 2] widens to [2, 3], padded 5 % each side: y = 2 sits at
    # 1/22 of the plot height above its bottom
    path = tmp_path / "flat.svg"
    svgplot.line_chart([0.0, 1.0], {"flat": [2.0, 2.0]}, path)
    y = svgplot.MARGIN_T + svgplot._PLOT_H * (1.0 - 1.0 / 22.0)
    x0, x1 = svgplot.MARGIN_L, svgplot.WIDTH - svgplot.MARGIN_R
    assert f'<polyline points="{x0:.1f},{y:.1f} {x1:.1f},{y:.1f}"' in path.read_text()


def test_a_chart_with_no_finite_value_is_refused(tmp_path):
    path = tmp_path / "empty.svg"
    with pytest.raises(ValueError, match="^nothing to plot$"):
        svgplot.line_chart([0.0, 1.0], {"gone": [None, float("nan")]}, path)
    assert not path.exists()
