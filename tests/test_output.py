import math
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from helpers import reference_text
from topoqed.output import _SLICE_ROWS, _ticks, write_csv, write_json, write_svg_plot

SPECIAL_FLOATS = [0.0, -0.0, 1.0, -2.5, 1e-300, 5e-324, 1.7976931348623157e308, 1e22,
                  123456789012.5, 0.1 + 0.2, math.pi]
NON_FINITE = [math.inf, -math.inf, math.nan]


class TestWriteCsv:
    def test_rows_of_every_value_type(self, tmp_path):
        # One table with a column of each dtype the writer prints; the strings
        # hold the CSV separator and %-format text.
        n = len(SPECIAL_FLOATS)
        header = ["a", "b", "c", "d", "e"]
        columns = [
            np.array(SPECIAL_FLOATS),
            np.arange(n, dtype=np.int64) - 3,
            np.arange(n) % 2 == 0,
            np.array(SPECIAL_FLOATS) * (1 - 0.5j),
            np.array(["", "a,b", "%s %%", "%.12g"] + [f"s{i}" for i in range(n - 4)]),
        ]
        write_csv(tmp_path / "t.csv", header, columns)
        expected = reference_text(header, zip(*columns))
        assert (tmp_path / "t.csv").read_bytes() == expected.encode()

    def test_random_floats_and_empty_table(self, tmp_path):
        rng = np.random.default_rng(5)
        values = np.concatenate([rng.normal(size=300) * 10.0 ** rng.integers(-300, 300, 300),
                                 rng.uniform(-1, 1, 300)])
        columns = [values, -values, values * 1e-7]
        write_csv(tmp_path / "t.csv", ["p", "q", "r"], columns)
        assert (tmp_path / "t.csv").read_text() == reference_text(["p", "q", "r"], zip(*columns))
        write_csv(tmp_path / "e.csv", ["p"], [])
        assert (tmp_path / "e.csv").read_text() == "p\n"

    def test_property_float_and_unicode_arrays(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        edge = st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                                1.7976931348623157e308, -1.7976931348623157e308])
        value = st.one_of(edge, st.floats(allow_nan=False, allow_infinity=False))
        # numpy drops trailing NUL characters from a unicode array's strings.
        text = st.text(st.characters(blacklist_characters="\x00", blacklist_categories=("Cs",)),
                       max_size=8)

        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(st.integers(0, 6).flatmap(lambda n: st.tuples(
            st.lists(value, min_size=n, max_size=n), st.lists(text, min_size=n, max_size=n),
            st.lists(value, min_size=n, max_size=n))))
        def check(table):
            floats, strings, more = table
            columns = [np.array(floats, dtype=float), np.array(strings, dtype=str),
                       np.array(more, dtype=float)]
            path = tmp_path / "h.csv"
            write_csv(path, ["a", "b", "c"], columns)
            expected = reference_text(["a", "b", "c"], zip(floats, strings, more))
            assert path.read_bytes() == expected.encode()

        check()

    @pytest.mark.parametrize("array", [
        np.array(SPECIAL_FLOATS + [1.0 / 3.0, 2.0 ** -1074 * 3]),
        np.array([0, -1, 7, 2**62, -(2**63)], dtype=np.int64),
        np.array([True, False, True]),
        np.array(["oscillatory", "evanescent", "", "a,b", "%s"]),
    ], ids=["float64", "int64", "bool", "unicode"])
    def test_array_column_prints_as_its_numpy_scalars(self, array, tmp_path):
        index = np.arange(len(array))
        write_csv(tmp_path / "a.csv", ["v", "i"], [array, index])
        rows = list(zip(array, index))
        assert (tmp_path / "a.csv").read_bytes() == reference_text(["v", "i"], rows).encode()

    def test_mixed_dtypes_across_slice_boundaries(self, tmp_path):
        n = 2500
        assert n > 2 * _SLICE_ROWS
        rng = np.random.default_rng(11)
        floats = rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, n)
        columns = [
            floats,
            np.arange(n, dtype=np.int64) - 1000,
            floats > 0,
            np.where(floats > 0, "oscillatory", "evanescent"),
            floats * 1j,
            np.array([f"r{i}" for i in range(n)]),
        ]
        write_csv(tmp_path / "m.csv", list("abcdef"), columns)
        expected = reference_text(list("abcdef"), zip(*columns))
        assert (tmp_path / "m.csv").read_bytes() == expected.encode()
        assert expected.count("\n") == n + 1

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("column, error, message", [
        (lambda bad: [1.0, bad], AttributeError, "'list' object has no attribute 'dtype'"),
        (lambda bad: ("x", np.float64(bad)), AttributeError,
         "'tuple' object has no attribute 'dtype'"),
        (lambda bad: [2, np.float32(bad)], AttributeError,
         "'list' object has no attribute 'dtype'"),
        (lambda bad: [complex(0.5, bad)], AttributeError,
         "'list' object has no attribute 'dtype'"),
        (lambda bad: np.array([0.5, bad]), ValueError, "non-finite value in CSV column 'v'"),
        (lambda bad: np.array([bad, 0.5], dtype=np.float32), ValueError,
         "non-finite value in CSV column 'v'"),
        (lambda bad: np.array([0.5 + 0j, complex(bad, 0.0)]), ValueError,
         "non-finite value in CSV column 'v'"),
        (lambda bad: np.array([bad], dtype=object), ValueError,
         "CSV column 'v' has dtype object"),
    ], ids=["float", "float64", "float32", "complex", "float64-array", "float32-array",
            "complex-array", "object-array"])
    def test_non_finite_value_is_refused_before_the_file_opens(self, column, error, message,
                                                               bad, tmp_path):
        # write_json's rule: a NaN or infinity is not data.  A list or tuple
        # column has no dtype to print by, and an object array none that
        # the finiteness check can read, so both are refused whatever they hold.
        finite = np.arange(len(column(bad)), dtype=float)
        with pytest.raises(error, match=message):
            write_csv(tmp_path / "d" / "n.csv", ["i", "v"], [finite, column(bad)])
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("values", [["x"], [1.0]])
    def test_finite_object_column_is_refused_before_the_directory_is_made(self, values,
                                                                          tmp_path):
        # Only numeric, boolean and unicode columns are printed; an object
        # column is refused even when its values are finite.
        column = np.array(values, dtype=object)
        with pytest.raises(ValueError, match="CSV column 'v' has dtype object"):
            write_csv(tmp_path / "d" / "o.csv", ["q", "v"], [np.array(["x"]), column])
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("lengths", [(3, 2), (2, 3), (0, 1), (4, 4, 5)])
    def test_columns_of_unequal_length_raise(self, lengths, tmp_path):
        # zip would cut the table to its shortest column without a word.
        columns = [np.arange(k, dtype=float) for k in lengths]
        with pytest.raises(ValueError, match="differ in length"):
            write_csv(tmp_path / "u.csv", [f"c{i}" for i in range(len(lengths))], columns)
        assert not (tmp_path / "u.csv").exists()

    @pytest.mark.parametrize("columns", [[], [np.empty(0)],
                                         [np.empty(0, dtype=str), np.empty(0, dtype=int)]])
    def test_empty_table_writes_the_header_alone(self, columns, tmp_path):
        write_csv(tmp_path / "e.csv", ["x", "y"], columns)
        assert (tmp_path / "e.csv").read_bytes() == b"x,y\n"


def test_writers_create_the_output_directory_only_to_write(tmp_path):
    # A refused table or document leaves no directory behind; every writer
    # creates the missing directories of the file it writes.
    out = tmp_path / "a" / "b"
    with pytest.raises(ValueError, match="non-finite"):
        write_csv(out / "n.csv", ["v"], [np.array([math.nan])])
    with pytest.raises(AttributeError, match="no attribute 'dtype'"):
        write_csv(out / "t.csv", ["q", "v"], [np.array(["x"]), (math.inf,)])
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json(out / "n.json", {"v": math.inf})
    assert not (tmp_path / "a").exists()
    write_csv(out / "t.csv", ["v"], [np.array([1.0])])
    write_json(tmp_path / "j" / "t.json", {"v": 1.0})
    write_svg_plot(tmp_path / "s" / "t.svg", [0.0, 1.0], [0.0, 1.0], "x", "y", "t")
    assert (out / "t.csv").read_bytes() == b"v\n1\n"
    assert (tmp_path / "j" / "t.json").is_file() and (tmp_path / "s" / "t.svg").is_file()


class TestSvgPlot:
    def test_span_below_label_resolution_is_ticked_as_a_unit_span(self):
        # Rounded to the 12 digits of their labels, ticks 2e-14 apart all
        # read 1.0; the span is ticked as a flat plot's is.
        assert _ticks(1.0, 1.0 + 1e-13) == _ticks(1.0, 2.0)

    def test_values_that_differ_below_label_resolution_are_drawn_flat(self, tmp_path):
        # Two values one ulp apart are drawn as a constant.  Their tick step
        # was under half an ulp of the tick, which it then never moved, so a
        # child interpreter with a timeout draws them: a tick loop that never
        # ends fails the test instead of hanging the suite.
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "from topoqed.output import write_svg_plot; "
                "write_svg_plot(sys.argv[2], [0.0, 1.0], [0.5, 0.5 + 2**-53], 'x', 'y', 't'); "
                "write_svg_plot(sys.argv[3], [0.0, 1.0], [0.5, 0.5], 'x', 'y', 't')")
        src = Path(__file__).resolve().parents[1] / "src"
        subprocess.run([sys.executable, "-c", code, str(src), str(tmp_path / "ulp.svg"),
                        str(tmp_path / "flat.svg")], check=True, timeout=60)
        assert (tmp_path / "ulp.svg").read_bytes() == (tmp_path / "flat.svg").read_bytes()

    @pytest.mark.parametrize("n", [1100, 5000])
    def test_dense_curve_is_drawn_through_each_columns_extremes(self, tmp_path, n):
        # The plot area is 550 pixel columns wide.  Up to two points per
        # column every point is drawn; beyond that, the first and the last
        # point and each column's lowest and highest, in input order.
        x = np.linspace(0.0, 2.0, n)
        y = np.sin(7.0 * x) + 0.3 * np.cos(911.0 * x)
        write_svg_plot(tmp_path / "d.svg", x, y, "x", "y", "t")
        root = ET.parse(tmp_path / "d.svg").getroot()
        ns = "{http://www.w3.org/2000/svg}"
        frame = root.findall(f"{ns}rect")[1]
        left, top, width, height = (float(frame.get(k)) for k in ("x", "y", "width", "height"))
        pad = 0.05 * (y.max() - y.min())
        y_lo, y_hi = y.min() - pad, y.max() + pad

        def pixel(i):
            px = left + width * (x[i] - x[0]) / (x[-1] - x[0])
            py = top + height * (1.0 - (y[i] - y_lo) / (y_hi - y_lo))
            return f"{px:.2f},{py:.2f}"

        drawn = root.find(f"{ns}polyline").get("points").split()
        columns = np.array_split(np.arange(n), int(width))
        if n <= 2 * len(columns):
            assert drawn == [pixel(i) for i in range(n)]
            return
        assert len(drawn) <= 2 * len(columns) + 2
        assert drawn[0] == pixel(0) and drawn[-1] == pixel(n - 1)
        xs = [float(point.split(",")[0]) for point in drawn]
        assert xs == sorted(xs)
        for cols in columns:
            assert pixel(cols[y[cols].argmin()]) in drawn
            assert pixel(cols[y[cols].argmax()]) in drawn
