"""Tests for the tabular reporting helpers."""

from repro.bench.reporting import format_table


class TestFormatTable:
    def test_empty(self):
        assert "(empty)" in format_table([])
        assert format_table([], title="T").startswith("T")

    def test_alignment_and_content(self):
        rows = [
            {"name": "a", "value": 1},
            {"name": "longer", "value": 22},
        ]
        out = format_table(rows, title="My table")
        lines = out.splitlines()
        assert lines[0] == "My table"
        assert "name" in lines[1] and "value" in lines[1]
        assert set(lines[2]) <= {"-", "+"}
        assert "longer" in out and "22" in out
        # All data lines share the same width.
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1

    def test_missing_keys_render_blank(self):
        rows = [{"a": 1, "b": 2}, {"a": 3}]
        out = format_table(rows)
        assert "3" in out


class TestCSV:
    def test_save_and_content(self, tmp_path):
        from repro.bench.reporting import save_csv

        path = tmp_path / "out" / "rows.csv"
        save_csv([{"x": 1, "y": "a"}, {"x": 2, "y": "b"}], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,y"
        assert lines[1] == "1,a"
        assert len(lines) == 3

    def test_empty_rows(self, tmp_path):
        from repro.bench.reporting import save_csv

        path = tmp_path / "empty.csv"
        save_csv([], path)
        assert path.read_text() == ""


class TestSlugify:
    def test_basic(self):
        from repro.bench.reporting import slugify

        assert slugify("Fig 6(a): time (ms)") == "fig-6-a-time-ms"
        assert slugify("!!!") == "table"
