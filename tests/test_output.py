import math

import numpy as np
import pytest

from topoqed.output import write_csv


def reference_line(row) -> str:
    """The CSV rule: a float (numpy.float64 included) as %.12g, anything else as str()."""
    return ",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row)


def reference_text(header, rows) -> str:
    return "\n".join([",".join(header)] + [reference_line(row) for row in rows]) + "\n"


SPECIAL_FLOATS = [0.0, -0.0, 1.0, -2.5, 1e-300, 5e-324, 1.7976931348623157e308, 1e22,
                  123456789012.5, 0.1 + 0.2, math.pi, math.inf, -math.inf, math.nan]


class TestWriteCsv:
    def test_rows_of_every_value_type(self, tmp_path):
        header = ["a", "b", "c", "d"]
        rows = [
            (x, np.float64(x), int(i), f"s{i}")
            for i, x in enumerate(SPECIAL_FLOATS)
        ]
        rows += [
            (True, None, np.int64(7), np.float32(0.1)),
            [1, 2.0, "three", np.float64(4.25)],  # a list row
            ("", "a,b", "%s %%", "%.12g"),
        ]
        write_csv(tmp_path / "t.csv", header, rows)
        assert (tmp_path / "t.csv").read_bytes() == reference_text(header, rows).encode()

    def test_column_whose_type_changes_between_rows(self, tmp_path):
        rows = [
            (0.5, "oscillatory"),
            ("n/a", 2),
            (np.float64(1.0 / 3.0), 3.0),
            (7, np.float64(-0.0)),
            (0.5, "oscillatory"),
            (False, math.nan),
        ]
        write_csv(tmp_path / "t.csv", ["x", "y"], rows)
        assert (tmp_path / "t.csv").read_text() == reference_text(["x", "y"], rows)

    def test_random_floats_and_empty_table(self, tmp_path):
        rng = np.random.default_rng(5)
        values = np.concatenate([rng.normal(size=300) * 10.0 ** rng.integers(-300, 300, 300),
                                 rng.uniform(-1, 1, 300)])
        rows = list(zip(values.tolist(), values, (values * 1e-7).tolist()))
        write_csv(tmp_path / "t.csv", ["p", "q", "r"], rows)
        assert (tmp_path / "t.csv").read_text() == reference_text(["p", "q", "r"], rows)
        write_csv(tmp_path / "e.csv", ["p"], [])
        assert (tmp_path / "e.csv").read_text() == "p\n"

    def test_property_any_row_of_mixed_values(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        value = st.one_of(st.floats(), st.floats().map(np.float64), st.integers(),
                          st.text(max_size=8), st.booleans())

        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(st.lists(st.lists(value, min_size=3, max_size=3), max_size=6))
        def check(rows):
            write_csv(tmp_path / "h.csv", ["a", "b", "c"], rows)
            assert (tmp_path / "h.csv").read_bytes() == reference_text(
                ["a", "b", "c"], rows).encode()

        check()
