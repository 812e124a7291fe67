"""The one CSV table reader: format rules, exact conversion, and its monopoly on csv."""

import ast
import csv
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import wamdf
from wamdf import tables
from wamdf.tables import read_table

FLOAT_FIELDS = ["0.1", "-0.0", " 0.5 ", "+1e-3", "4.9e-324", "1e-400", "1e400",
                "-inf", "nan", "NaN", "0.30000000000000004", "2.2250738585072014e-308",
                "2.4703282292062327e-324", "2.4703282292062328e-324", "-2.4703282292062327e-324",
                "2.2250738585072011e-308", "1.7976931348623157e308", "1.7976931348623159e308",
                "infinity", "-Infinity", "+nan", "-nan", "INF", "1.", ".5", "1E5", "007.50",
                "\xa00.25\xa0"]
INT_FIELDS = ["0", "-1", "+2", " 3 ", "9223372036854775807", "-9223372036854775808", "007",
              "-0"]
# fields Python's float and int take and numpy's tokenizer refuses or misreads
PYTHON_ONLY = {float: ["1_0", "\u0663", "\u0968"], np.int64: ["1_000", "\u0663", "\u0968"]}


def _package_nodes():
    """(module file name, AST node) for every node of every package module."""
    for path in sorted(Path(wamdf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            yield path.name, node


def _imported(node):
    return ([a.name for a in node.names] if isinstance(node, ast.Import)
            else [node.module] if isinstance(node, ast.ImportFrom) else [])


def test_only_tables_imports_csv():
    # the CSV format lives behind read_table; any other csv import is a second reader
    importers = [name for name, node in _package_nodes() if "csv" in _imported(node)]
    assert importers == ["tables.py"]


def test_no_module_warns_or_calls_savetxt():
    # a solve reports on WeightProfile.warning and the CLI writes its tables
    # through _write_tsv; a warnings import or a savetxt call is a second channel
    found = [(name, "warnings") for name, node in _package_nodes()
             if "warnings" in _imported(node)]
    found += [(name, "savetxt") for name, node in _package_nodes()
              if isinstance(node, ast.Attribute) and node.attr == "savetxt"
              or isinstance(node, ast.Name) and node.id == "savetxt"]
    assert found == []


def test_no_module_reads_the_environment():
    # configuration comes from flags and config files, never from the environment
    readers = []
    for name, node in _package_nodes():
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            names = {a.name for a in node.names}
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "os"):
            names = {node.attr}
        else:
            continue
        if names & {"environ", "environb", "getenv", "getenvb"}:
            readers.append(name)
    assert readers == []


def test_only_checks_spells_the_range_messages():
    # range and integer checks go through wamdf._checks, so a hand-written
    # one cannot grow back in another module
    phrases = ("must lie in (0, 1)", "must lie in [0, 1]", "must be positive and finite",
               "must be an integer", "must be at least 1")
    spellers = [path.name for path in sorted(Path(wamdf.__file__).parent.glob("*.py"))
                if any(phrase in path.read_text() for phrase in phrases)]
    assert spellers == ["_checks.py"]


@pytest.mark.parametrize("dtype, fields, convert, extras", [
    (float, FLOAT_FIELDS, float, [()]), (np.int64, INT_FIELDS, int, [()]),
    (float, FLOAT_FIELDS, float, [(f,) for f in PYTHON_ONLY[float]]),
    (np.int64, INT_FIELDS, int, [(f,) for f in PYTHON_ONLY[np.int64]]),
], ids=["float", "int", "float-python-only", "int-python-only"])
def test_fields_convert_as_python_does(tmp_path, dtype, fields, convert, extras):
    rng = np.random.default_rng(5)
    if dtype is float:
        values = (rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200)).tolist()
        digits = ["".join(d) for d in rng.integers(0, 10, (100, 40)).astype(str)]
        fields = (fields + [repr(v) for v in values]
                  + ["%.*g" % (n, v) for n, v in zip(rng.integers(1, 18, 200).tolist(), values)]
                  + [f"{d[:1]}.{d[1:]}e{e}" for d, e in zip(digits, range(-345, 310, 7))])
    path = tmp_path / "t.csv"
    for extra in extras:   # one at a time, so no other field decides who reads the file
        lines = fields + list(extra)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        header, rows = read_table(path, dtype=dtype)
        expected = np.array([convert(f) for f in lines], dtype=dtype)
        assert header is None and rows.shape == (len(lines), 1) and rows.dtype == expected.dtype
        np.testing.assert_array_equal(rows[:, 0].view(np.uint64), expected.view(np.uint64))


def test_header_rules(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("\n a , b \n\n1,2\n\n3,4\n")
    header, rows = read_table(path, [("x",), ("a", "b")])
    assert header == ("a", "b")
    np.testing.assert_array_equal(rows, [[1.0, 2.0], [3.0, 4.0]])
    # with no expected headers, only a non-numeric first field makes a header
    assert read_table(path)[0] == ("a", "b")
    path.write_text("1,2\n3,4\n")
    assert read_table(path)[1].shape == (2, 2)
    with pytest.raises(ValueError, match=r"expected header 'x' or 'a,b'"):
        read_table(path, [("x",), ("a", "b")])


@pytest.mark.parametrize("text, named", [
    ("", "expected header"),
    ("a,b\n", "no data rows"),
    ("a,b\n1,2\n3\n", "ragged"),
    ("a\n1,2\n", "ragged"),
    ("a,b\n1,x\n", "non-numeric"),
    ("a,b\n1," + "2" * 200_000 + "\n", "field limit"),
    ("a,b\n1," + "2" * 200_000, "field limit"),
    ('a,b\n1,"2\n', "unexpected end of data"),
    ("a,b\n1,2\x1c\n", "non-numeric"),
], ids=["empty", "header-only", "short-row", "narrow-header", "text", "huge-field",
        "huge-last-field", "open-quote", "file-separator"])
def test_format_errors_name_the_file(tmp_path, text, named):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=named) as info:
        read_table(path, [("a", "b"), ("a",)])
    assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize("text", ["", "\n\n", "a,b\n", "a,b\n\n\r\n\r"],
                         ids=["empty", "blank-lines", "header-only", "header-and-blanks"])
def test_no_data_rows_warn_nothing(tmp_path, text):
    # loadtxt warns on a file of no data rows, so the tokenizer never sees one
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no data rows"):
            read_table(path)


def distinct_cells(dtype, n_rows, width):
    # every cell differs, so a block reshaped in the wrong order cannot match
    values = np.random.default_rng(11).permutation(n_rows * width) * 7919 - 10**6
    if dtype is float:
        values = values * np.pi
    return [[repr(v) for v in row] for row in values.reshape(n_rows, width).tolist()]


@pytest.mark.parametrize("dtype, convert, width, quote", [
    (float, float, 1, ""), (float, float, 3, ""), (np.int64, int, 3, ""),
    (float, float, 1, '"'), (float, float, 3, '"'), (np.int64, int, 3, '"'),
], ids=["1-float", "3-float", "3-int", "1-float-quoted", "3-float-quoted", "3-int-quoted"])
def test_rows_are_checked_in_every_block(tmp_path, monkeypatch, dtype, convert, width, quote):
    # quoted fields leave the file to the csv module, whose blocks are 3 rows here
    monkeypatch.setattr(tables, "_BLOCK_ROWS", 3)
    path = tmp_path / "t.csv"
    names = ("p", "q", "r")[:width]
    rows = ([[f"{v}"] for v in np.arange(11.0)] if width == 1
            else distinct_cells(dtype, 11, width))
    text = ",".join(names) + "\n" + "".join(
        ",".join(quote + f + quote for f in row) + "\n" for row in rows)
    path.write_text(text)
    got = read_table(path, [names], dtype=dtype)[1]
    expected = np.array([[convert(f) for f in row] for row in rows], dtype=dtype)
    assert got.shape == (11, width) and got.dtype == expected.dtype
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))
    path.write_text(text + ",".join([quote + "1" + quote] * (width + 1)) + "\n")
    with pytest.raises(ValueError, match="ragged"):
        read_table(path, [names], dtype=dtype)


@pytest.mark.parametrize("text", ["p,q\n", "", "\n\n"], ids=["header", "headerless", "blank-lines"])
def test_plain_rows_skip_the_csv_module(tmp_path, monkeypatch, text):
    # numpy's tokenizer reads every data row; the csv module reads only the first row
    taken = []

    class CountingReader:
        def __init__(self, *args, **kwargs):
            self.reader = csv_reader(*args, **kwargs)

        def __getattr__(self, name):   # line_num
            return getattr(self.reader, name)

        def __iter__(self):
            return self

        def __next__(self):
            taken.append(next(self.reader))
            return taken[-1]

    csv_reader = csv.reader
    monkeypatch.setattr(csv, "reader", CountingReader)
    path = tmp_path / "t.csv"
    rows = distinct_cells(float, 50, 2)
    path.write_text(text + "".join(",".join(row) + "\n" for row in rows))
    got = read_table(path)[1]
    np.testing.assert_array_equal(got, [[float(f) for f in row] for row in rows])
    assert len([row for row in taken if row]) == 1


def read_by_csv(path, dtype):
    # the csv block loop alone, as read_table runs it when numpy's tokenizer refuses a file
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tables, "_plain_rows", lambda *args: None)
        return read_table(path, dtype=dtype)


CSV_TEXT = st.lists(st.one_of(
    st.sampled_from(list("0123456789+-.eE_,\" \xa0\n\r#\x1c\u0968")),
    st.sampled_from(["nan", "inf", "-inf", "\n1,2\n", "\n1\n"]),
    st.floats(allow_nan=False).map(repr), st.integers(-2**64, 2**64).map(str),
), max_size=60).map("".join)


@given(text=CSV_TEXT, header=st.sampled_from(["", "p\n", "p,q\n"]),
       dtype=st.sampled_from([float, np.int64]))
def test_reads_as_the_csv_module_does(tmp_path_factory, text, header, dtype):
    path = tmp_path_factory.mktemp("t") / "t.csv"
    path.write_bytes((header + text).encode())
    try:
        expected = read_by_csv(path, dtype)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            read_table(path, dtype=dtype)
        assert str(info.value) == str(exc)
        return
    got = read_table(path, dtype=dtype)
    assert got[0] == expected[0]
    assert got[1].dtype == expected[1].dtype and got[1].shape == expected[1].shape
    np.testing.assert_array_equal(got[1].view(np.uint64), expected[1].view(np.uint64))
