import math

import numpy as np
import pytest

from helpers import reference_text
from topoqed.output import _SLICE_ROWS, write_csv, write_json, write_svg_plot

SPECIAL_FLOATS = [0.0, -0.0, 1.0, -2.5, 1e-300, 5e-324, 1.7976931348623157e308, 1e22,
                  123456789012.5, 0.1 + 0.2, math.pi]
NON_FINITE = [math.inf, -math.inf, math.nan]


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
        write_csv(tmp_path / "t.csv", header, list(zip(*rows)))
        assert (tmp_path / "t.csv").read_bytes() == reference_text(header, rows).encode()

    def test_column_whose_type_changes_between_rows(self, tmp_path):
        rows = [
            (0.5, "oscillatory"),
            ("n/a", 2),
            (np.float64(1.0 / 3.0), 3.0),
            (7, np.float64(-0.0)),
            (0.5, "oscillatory"),
            (False, 1e-300),
        ]
        write_csv(tmp_path / "t.csv", ["x", "y"], list(zip(*rows)))
        assert (tmp_path / "t.csv").read_text() == reference_text(["x", "y"], rows)

    def test_random_floats_and_empty_table(self, tmp_path):
        rng = np.random.default_rng(5)
        values = np.concatenate([rng.normal(size=300) * 10.0 ** rng.integers(-300, 300, 300),
                                 rng.uniform(-1, 1, 300)])
        rows = list(zip(values.tolist(), values, (values * 1e-7).tolist()))
        write_csv(tmp_path / "t.csv", ["p", "q", "r"], list(zip(*rows)))
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
            path = tmp_path / "h.csv"
            path.unlink(missing_ok=True)
            if any(isinstance(v, float) and not math.isfinite(v) for row in rows for v in row):
                with pytest.raises(ValueError, match="non-finite"):
                    write_csv(path, ["a", "b", "c"], list(zip(*rows)))
                assert not path.exists()
                return
            write_csv(path, ["a", "b", "c"], list(zip(*rows)))
            assert path.read_bytes() == reference_text(["a", "b", "c"], rows).encode()

        check()

    @pytest.mark.parametrize("array", [
        np.array(SPECIAL_FLOATS + [1.0 / 3.0, 2.0 ** -1074 * 3]),
        np.array([0.0, -0.0, 1.0, -2.5, 1e-30, 1e-45, 3.4e38, 0.1, 1.0 / 3.0, math.pi],
                 dtype=np.float32),
        np.array([0, -1, 7, 2**62, -(2**63)], dtype=np.int64),
        np.array([True, False, True]),
        np.array(["oscillatory", "evanescent", "", "a,b", "%s"]),
    ], ids=["float64", "float32", "int64", "bool", "unicode"])
    def test_array_column_prints_as_its_numpy_scalars(self, array, tmp_path):
        # The row rule sees the array's own scalars: a float32 is not a float
        # and prints by str(), with its own digits, not those of a double.
        write_csv(tmp_path / "a.csv", ["v", "i"], [array, list(range(len(array)))])
        rows = list(zip(array, range(len(array))))
        assert (tmp_path / "a.csv").read_bytes() == reference_text(["v", "i"], rows).encode()

    def test_mixed_dtypes_across_slice_boundaries(self, tmp_path):
        n = 2500
        assert n > 2 * _SLICE_ROWS
        rng = np.random.default_rng(11)
        floats = rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, n)
        columns = [
            floats,
            floats.astype(np.float32),
            np.arange(n, dtype=np.int64) - 1000,
            floats > 0,
            np.where(floats > 0, "oscillatory", "evanescent"),
            [float(x) if i % 3 else int(i) for i, x in enumerate(floats)],
            tuple(f"r{i}" for i in range(n)),
        ]
        write_csv(tmp_path / "m.csv", list("abcdefg"), columns)
        expected = reference_text(list("abcdefg"), zip(*columns))
        assert (tmp_path / "m.csv").read_bytes() == expected.encode()
        assert expected.count("\n") == n + 1

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("column", [
        lambda bad: [1.0, bad],
        lambda bad: ("x", np.float64(bad)),
        lambda bad: [2, np.float32(bad)],
        lambda bad: [complex(0.5, bad)],
        lambda bad: np.array([0.5, bad]),
        lambda bad: np.array([bad, 0.5], dtype=np.float32),
        lambda bad: np.array([0.5 + 0j, complex(bad, 0.0)]),
    ], ids=["float", "float64", "float32", "complex", "float64-array", "float32-array",
            "complex-array"])
    def test_non_finite_value_is_refused_before_the_file_opens(self, column, bad, tmp_path):
        # write_json's rule: a NaN or infinity is not data.
        finite = np.arange(len(column(bad)), dtype=float)
        with pytest.raises(ValueError, match="non-finite value in CSV column 'v'"):
            write_csv(tmp_path / "n.csv", ["i", "v"], [finite, column(bad)])
        assert not (tmp_path / "n.csv").exists()

    @pytest.mark.parametrize("lengths", [(3, 2), (2, 3), (0, 1), (4, 4, 5)])
    def test_columns_of_unequal_length_raise(self, lengths, tmp_path):
        # zip would cut the table to its shortest column without a word.
        columns = [np.arange(k, dtype=float) for k in lengths]
        with pytest.raises(ValueError, match="differ in length"):
            write_csv(tmp_path / "u.csv", [f"c{i}" for i in range(len(lengths))], columns)
        assert not (tmp_path / "u.csv").exists()

    @pytest.mark.parametrize("columns", [[], [np.empty(0)], [[], np.empty(0, dtype=int)]])
    def test_empty_table_writes_the_header_alone(self, columns, tmp_path):
        write_csv(tmp_path / "e.csv", ["x", "y"], columns)
        assert (tmp_path / "e.csv").read_bytes() == b"x,y\n"


def test_writers_create_the_output_directory_only_to_write(tmp_path):
    # A refused table or document leaves no directory behind; every writer
    # creates the missing directories of the file it writes.
    out = tmp_path / "a" / "b"
    with pytest.raises(ValueError, match="non-finite"):
        write_csv(out / "n.csv", ["v"], [[math.nan]])
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json(out / "n.json", {"v": math.inf})
    assert not (tmp_path / "a").exists()
    write_csv(out / "t.csv", ["v"], [[1.0]])
    write_json(tmp_path / "j" / "t.json", {"v": 1.0})
    write_svg_plot(tmp_path / "s" / "t.svg", [0.0, 1.0], [0.0, 1.0], "x", "y")
    assert (out / "t.csv").read_bytes() == b"v\n1\n"
    assert (tmp_path / "j" / "t.json").is_file() and (tmp_path / "s" / "t.svg").is_file()
