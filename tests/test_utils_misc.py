"""Unit tests for tables, the call timer, and validation helpers."""

import pytest

from repro.errors import ConfigurationError
from repro.utils.tables import AsciiTable, render_table
from repro.utils.timer import time_call
from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
)


class TestAsciiTable:
    def test_basic_render(self):
        t = AsciiTable(["a", "b"], title="T")
        t.add_row([1, 2.5])
        out = t.render()
        assert "T" in out and "a" in out and "2.500" in out

    def test_markdown_render(self):
        t = AsciiTable(["x"])
        t.add_row(["val"])
        out = t.render(markdown=True)
        assert out.splitlines()[0].startswith("|")
        assert "---" in out.splitlines()[1]

    def test_bool_cells(self):
        t = AsciiTable(["flag"])
        t.add_row([True]).add_row([False])
        assert "yes" in t.render() and "no" in t.render()

    def test_wrong_arity_rejected(self):
        t = AsciiTable(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row([1])

    def test_render_table_helper(self):
        out = render_table(["h"], [[1], [2]], title="x")
        assert out.count("\n") >= 4

    def test_float_fmt(self):
        t = AsciiTable(["v"], float_fmt=".1f")
        t.add_row([3.14159])
        assert "3.1" in t.render() and "3.14" not in t.render()

    def test_column_alignment(self):
        t = AsciiTable(["name", "v"])
        t.add_row(["longvalue", 1])
        t.add_row(["s", 22])
        lines = [l for l in t.render().splitlines() if l.startswith("|")]
        widths = {len(l) for l in lines}
        assert len(widths) == 1  # all rows equally wide


class TestTimeCall:
    def test_time_call(self):
        result, elapsed = time_call(sum, [1, 2, 3])
        assert result == 6
        assert elapsed >= 0


class TestValidation:
    def test_positive_ok(self):
        assert check_positive("x", 1) == 1
        assert check_positive("x", 0.5) == 0.5

    @pytest.mark.parametrize("bad", [0, -1, -0.5, True, "a", None])
    def test_positive_bad(self, bad):
        with pytest.raises(ConfigurationError):
            check_positive("x", bad)

    def test_non_negative(self):
        assert check_non_negative("x", 0) == 0
        with pytest.raises(ConfigurationError):
            check_non_negative("x", -1e-9)

    def test_in_range(self):
        assert check_in_range("x", 5, 0, 10) == 5
        assert check_in_range("x", 0, 0, 10) == 0
        with pytest.raises(ConfigurationError):
            check_in_range("x", 11, 0, 10)
        with pytest.raises(ConfigurationError):
            check_in_range("x", 0, 0, 10, inclusive=False)

    def test_probability(self):
        assert check_probability("p", 0.5) == 0.5
        with pytest.raises(ConfigurationError):
            check_probability("p", 1.5)
