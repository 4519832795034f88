import xml.etree.ElementTree as ET

import numpy as np
import pytest

from puedet.errors import InvalidInputError
from puedet.svgplot import line_chart

SVG_NS = "{http://www.w3.org/2000/svg}"


def test_valid_xml_with_one_polyline_per_series():
    svg = line_chart(
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
    assert line_chart(series, "t", "x", "y") == line_chart(series, "t", "x", "y")


def test_constant_series_renders():
    svg = line_chart([("flat", [0, 1, 2], [0.5, 0.5, 0.5])], "t", "x", "y")
    ET.fromstring(svg)


def test_labels_are_escaped():
    svg = line_chart([("a<b&c", [0, 1], [0, 1])], "t<", "x&", "y>")
    ET.fromstring(svg)  # would raise on raw < or &


def test_escape_matches_xml_saxutils():
    # Text is escaped as xml.sax.saxutils.escape does: &, < and >, not quotes.
    from xml.sax.saxutils import escape

    text = 'a & b < c > d "e"'
    svg = line_chart([(text, [0, 1], [0, 1])], text, text, text)
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
    assert line_chart(as_arrays, "t", "x", "y") == line_chart(as_lists, "t", "x", "y")
