import io
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from puedet.errors import InvalidInputError
from puedet.svgplot import line_chart

SVG_NS = "{http://www.w3.org/2000/svg}"


def render(series, title, xlabel, ylabel):
    """The SVG document of a chart, written to a string."""
    buffer = io.StringIO()
    line_chart(series, title, xlabel, ylabel)(buffer)
    return buffer.getvalue()


def test_valid_xml_with_one_polyline_per_series():
    svg = render(
        [("a", [0, 1, 2], [0.0, 0.5, 1.0]), ("b", [0, 1, 2], [1.0, 0.5, 0.0])],
        "title", "x", "y",
    )
    root = ET.fromstring(svg)
    assert root.tag == f"{SVG_NS}svg"
    polylines = root.findall(f"{SVG_NS}polyline")
    assert len(polylines) == 2
    texts = [t.text for t in root.findall(f"{SVG_NS}text")]
    assert "a" in texts and "b" in texts and "title" in texts


def test_deterministic_output():
    series = [("s", [0.0, 10.0], [3.0, 4.0])]
    assert render(series, "t", "x", "y") == render(series, "t", "x", "y")


def test_constant_series_renders():
    svg = render([("flat", [0, 1, 2], [0.5, 0.5, 0.5])], "t", "x", "y")
    ET.fromstring(svg)


def test_labels_are_escaped():
    svg = render([("a<b&c", [0, 1], [0, 1])], "t<", "x&", "y>")
    ET.fromstring(svg)  # would raise on raw < or &


def test_escape_matches_xml_saxutils():
    # Text is escaped as xml.sax.saxutils.escape does: &, < and >, not quotes.
    from xml.sax.saxutils import escape

    text = 'a & b < c > d "e"'
    svg = render([(text, [0, 1], [0, 1])], text, text, text)
    assert svg.count(f">{escape(text)}</text>") == 4


def test_rejects_bad_series():
    with pytest.raises(InvalidInputError):
        line_chart([], "t", "x", "y")
    with pytest.raises(InvalidInputError):
        line_chart([("a", [0, 1], [0.0])], "t", "x", "y")
    with pytest.raises(InvalidInputError):
        line_chart([("a", [0, 1], [0.0, float("nan")])], "t", "x", "y")


@pytest.mark.parametrize(
    "series",
    [
        # The span of the y values overflows the float range.
        [("a", [0.0, 1.0], [-1.7e308, 1.7e308])],
        [("a", [-1.7e308, 1.7e308], [0.0, 1.0])],
        # A constant so large that widening it by 1.0 leaves a zero span.
        [("a", [0.0, 1.0], [1e20, 1e20])],
        # An int beyond the float range.
        [("a", [0, 10**400], [0.0, 1.0])],
    ],
)
def test_values_beyond_the_float_range_are_typed_errors(series):
    with pytest.raises(InvalidInputError):
        line_chart(series, "t", "x", "y")


def test_array_series_equal_list_series_byte_for_byte():
    rng = np.random.default_rng(4)
    xs, ys = rng.normal(0.0, 300.0, (2, 500))
    as_lists = [("a", xs.tolist(), ys.tolist()), ("b", [0, 1, 2], [-0.5, 0.25, 1e-3])]
    as_arrays = [("a", xs, ys), ("b", np.arange(3), np.array([-0.5, 0.25, 1e-3]))]
    assert render(as_arrays, "t", "x", "y") == render(as_lists, "t", "x", "y")


def test_polyline_equals_per_point_format():
    # Each polyline is formatted by one % over its interleaved x, y.  The
    # oracle scales the points as the chart does, into its plot area
    # x in [70, 616] and y in [40, 424] with the y span padded by 5% on each
    # side, and formats them one point at a time.
    rng = np.random.default_rng(8)
    xs = np.concatenate([rng.normal(0.0, 300.0, 3000), [-0.0, 1e-300, 0.0, -1e-300]])
    ys = np.concatenate([rng.normal(0.0, 1e-3, 3000), [0.0, -0.0, 1e-300, 5e-3]])
    series = [("a", xs, ys), ("b", xs[::-1] / 3.0, np.sin(xs) * 1e-3)]
    svg = render(series, "t", "x", "y")
    x_lo, x_hi = min(x.min() for _, x, _ in series), max(x.max() for _, x, _ in series)
    y_lo, y_hi = min(y.min() for _, _, y in series), max(y.max() for _, _, y in series)
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    polylines = ET.fromstring(svg).findall(f"{SVG_NS}polyline")
    assert len(polylines) == 2
    for polyline, (_, series_xs, series_ys) in zip(polylines, series):
        px = 70 + (series_xs - x_lo) / (x_hi - x_lo) * 546
        py = 40 + (y_hi - series_ys) / (y_hi - y_lo) * 384
        expected = " ".join(map("%.2f,%.2f".__mod__, zip(px.tolist(), py.tolist())))
        assert polyline.get("points") == expected


def test_values_count_the_numbers_the_polylines_format():
    # The count is known when the chart is built; writing it twice gives the
    # same document.
    series = [("a", [0, 1, 2], [0.0, 0.5, 1.0]), ("b", np.arange(5), np.ones(5))]
    chart = line_chart(series, "t", "x", "y")
    assert chart.values == 16
    first, second = io.StringIO(), io.StringIO()
    chart(first)
    chart(second)
    assert first.getvalue() == second.getvalue()
    polylines = ET.fromstring(first.getvalue()).findall(f"{SVG_NS}polyline")
    assert sum(len(p.get("points").replace(",", " ").split()) for p in polylines) == chart.values
