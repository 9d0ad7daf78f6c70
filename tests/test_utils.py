"""Tests of the utility helpers (parallel map, text rendering)."""

import math

from repro.utils import ascii_plot, format_table, parallel_map


def _square(x):
    return x * x


def _values(outcomes):
    assert all(outcome.ok for outcome in outcomes)
    return [outcome.value for outcome in outcomes]


def _square_or_boom(x):
    if x == 3:
        raise ValueError("boom at three")
    return x * x


class TestParallelMap:
    def test_serial(self):
        assert _values(parallel_map(_square, [1, 2, 3], workers=1)) == [1, 4, 9]

    def test_parallel_two_workers(self):
        outcomes = parallel_map(_square, list(range(8)), workers=2)
        assert _values(outcomes) == [x * x for x in range(8)]

    def test_all_cpus(self):
        assert _values(parallel_map(_square, [3, 4], workers=0)) == [9, 16]

    def test_empty(self):
        assert parallel_map(_square, [], workers=4) == []

    def test_single_item_runs_serially(self):
        assert _values(parallel_map(_square, [5], workers=8)) == [25]


class TestParallelMapExceptionCapture:
    """Regression: a crashing task used to abort the whole pool and discard
    every completed result; now it is captured per task."""

    def test_pool_crash_does_not_discard_siblings(self):
        outcomes = parallel_map(_square_or_boom, list(range(8)), workers=2)
        assert [o.index for o in outcomes] == list(range(8))  # input order restored
        failed = [o for o in outcomes if not o.ok]
        assert len(failed) == 1 and failed[0].index == 3
        assert "ValueError" in failed[0].error and "boom at three" in failed[0].error
        assert [o.value for o in outcomes if o.ok] == [x * x for x in range(8) if x != 3]

    def test_serial_capture(self):
        outcomes = parallel_map(_square_or_boom, list(range(5)), workers=1)
        assert [o.ok for o in outcomes] == [True, True, True, False, True]

    def test_on_result_streams_every_outcome(self):
        seen = []
        parallel_map(
            _square_or_boom,
            list(range(6)),
            workers=2,
            on_result=seen.append,
        )
        assert sorted(o.index for o in seen) == list(range(6))


class TestAsciiPlot:
    def test_contains_legend_and_axes(self):
        series = {
            "takum16": [(10.0, -3.0), (50.0, -2.5), (100.0, -2.0)],
            "bfloat16": [(10.0, -2.0), (50.0, -1.5), (100.0, -1.0)],
        }
        text = ascii_plot(series)
        assert "takum16" in text and "bfloat16" in text
        assert "percentile" in text
        assert "log10" in text

    def test_empty_series(self):
        assert "no finite data points" in ascii_plot({"a": []})

    def test_non_finite_points_skipped(self):
        text = ascii_plot({"a": [(10.0, -1.0), (20.0, math.inf), (30.0, -2.0)]})
        assert "a" in text

    def test_degenerate_single_point(self):
        text = ascii_plot({"a": [(50.0, -1.0)]})
        assert "a" in text


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(["name", "value"], [["x", 1], ["longer", 22]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_empty_rows(self):
        text = format_table(["a"], [])
        assert "a" in text
