"""Tests for the reporting helpers."""

from repro.reporting.tables import ascii_table, comparison_table


class TestAsciiTable:
    def test_alignment_and_content(self):
        text = ascii_table(
            ["name", "value"],
            [["alpha", 1.5], ["b", 22]],
            title="demo",
        )
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[1]
        assert "alpha" in lines[3]
        assert "1.50" in lines[3]

    def test_empty_rows(self):
        text = ascii_table(["a", "b"], [])
        assert "a" in text

    def test_floats_formatted(self):
        text = ascii_table(["x"], [[3.14159]])
        assert "3.14" in text
        assert "3.14159" not in text


class TestComparisonTable:
    def test_basic(self):
        line = comparison_table("factor", 2.7, 4.1)
        assert line == "factor: paper=2.70 measured=4.10"

    def test_with_note(self):
        line = comparison_table("cost", 16.03, 23.87, note="shape only")
        assert line.endswith("(shape only)")
