"""Unit tests for ASCII charts, tables and CSV export."""

import csv

from repro.analysis.plots import ascii_chart, render_table, sparkline, write_csv
from repro.simulation.probes import SeriesPoint


def series(*pairs):
    return [SeriesPoint(hour=float(h), value=float(v)) for h, v in pairs]


class TestAsciiChart:
    def test_chart_contains_title_legend_and_glyphs(self):
        chart = ascii_chart(
            {"dac": series((0, 0.0), (10, 5.0)), "ndac": series((0, 0.0), (10, 3.0))},
            title="capacity",
        )
        assert "capacity" in chart
        assert "* dac" in chart and "o ndac" in chart
        assert "*" in chart.split("\n")[1:][0] or any(
            "*" in line for line in chart.split("\n")
        )

    def test_empty_input_handled(self):
        assert "(no data)" in ascii_chart({}, title="nothing")
        assert "(no data)" in ascii_chart({"a": []}, title="nothing")

    def test_constant_series_does_not_crash(self):
        chart = ascii_chart({"flat": series((0, 5.0), (10, 5.0))})
        assert "flat" in chart

    def test_y_axis_labels_show_extent(self):
        chart = ascii_chart({"a": series((0, 0.0), (10, 250.0))})
        assert "250" in chart and "0" in chart

    def test_chart_dimensions_respected(self):
        chart = ascii_chart({"a": series((0, 0.0), (1, 1.0))}, width=30, height=5)
        body_lines = [l for l in chart.split("\n") if "|" in l]
        assert len(body_lines) == 5


class TestSparkline:
    def test_sparkline_length_bounded(self):
        line = sparkline(list(range(500)), width=50)
        assert 0 < len(line) <= 60

    def test_sparkline_empty(self):
        assert sparkline([]) == ""

    def test_sparkline_monotone_input(self):
        line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert line[0] == "▁" and line[-1] == "█"


class TestRenderTable:
    def test_headers_and_rows_aligned(self):
        table = render_table(
            ["name", "value"], [["alpha", 1.5], ["b", 22.25]], title="T"
        )
        lines = table.split("\n")
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert "1.50" in table and "22.25" in table

    def test_empty_rows(self):
        table = render_table(["a", "b"], [])
        assert "a" in table


class TestCsvExport:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "series.csv"
        write_csv(
            path,
            {
                "x": series((0, 1.0), (1, 2.0)),
                "y": series((0, 9.0)),
            },
        )
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["x_hour", "x_value", "y_hour", "y_value"]
        assert rows[1] == ["0.0", "1.0", "0.0", "9.0"]
        assert rows[2] == ["1.0", "2.0", "", ""]
