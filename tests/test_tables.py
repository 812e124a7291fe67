"""The one CSV table reader: format rules, exact conversion, and its monopoly on csv."""

import ast
from pathlib import Path

import numpy as np
import pytest

import wamdf
from wamdf import tables
from wamdf.tables import read_table

FLOAT_FIELDS = ["0.1", "-0.0", " 0.5 ", "1_0", "+1e-3", "4.9e-324", "1e-400", "1e400",
                "-inf", "nan", "NaN", "0.30000000000000004", "2.2250738585072014e-308"]
INT_FIELDS = ["0", "-1", "+2", " 3 ", "1_000", "9223372036854775807"]


def test_only_tables_imports_csv():
    # the CSV format lives behind read_table; any other csv import is a second reader
    importers = []
    for path in sorted(Path(wamdf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "csv" in names:
                importers.append(path.name)
    assert importers == ["tables.py"]


def test_no_module_reads_the_environment():
    # configuration comes from flags and config files, never from the environment
    readers = []
    for path in sorted(Path(wamdf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {a.name for a in node.names}
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "os"):
                names = {node.attr}
            else:
                continue
            if names & {"environ", "environb", "getenv", "getenvb"}:
                readers.append(path.name)
    assert readers == []


@pytest.mark.parametrize("dtype, fields, convert", [
    (float, FLOAT_FIELDS, float), (np.int64, INT_FIELDS, int),
], ids=["float", "int"])
def test_fields_convert_as_python_does(tmp_path, dtype, fields, convert):
    rng = np.random.default_rng(5)
    if dtype is float:
        values = rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200)
        fields = fields + [repr(v) for v in values.tolist()]
    path = tmp_path / "t.csv"
    path.write_text("\n".join(fields) + "\n")
    header, rows = read_table(path, dtype=dtype)
    expected = np.array([convert(f) for f in fields], dtype=dtype)
    assert header is None and rows.shape == (len(fields), 1) and rows.dtype == expected.dtype
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
    ('a,b\n1,"2\n', "unexpected end of data"),
], ids=["empty", "header-only", "short-row", "narrow-header", "text", "huge-field", "open-quote"])
def test_format_errors_name_the_file(tmp_path, text, named):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=named) as info:
        read_table(path, [("a", "b"), ("a",)])
    assert str(info.value).startswith(f"{path}: ")


def distinct_cells(dtype, n_rows, width):
    # every cell differs, so a block reshaped in the wrong order cannot match
    values = np.random.default_rng(11).permutation(n_rows * width) * 7919 - 10**6
    if dtype is float:
        values = values * np.pi
    return [[repr(v) for v in row] for row in values.reshape(n_rows, width).tolist()]


@pytest.mark.parametrize("dtype, convert, width", [
    (float, float, 1), (float, float, 3), (np.int64, int, 3),
], ids=["1-float", "3-float", "3-int"])
def test_rows_are_checked_in_every_block(tmp_path, monkeypatch, dtype, convert, width):
    monkeypatch.setattr(tables, "_BLOCK_ROWS", 3)
    path = tmp_path / "t.csv"
    names = ("p", "q", "r")[:width]
    rows = ([[f"{v}"] for v in np.arange(11.0)] if width == 1
            else distinct_cells(dtype, 11, width))
    text = ",".join(names) + "\n" + "".join(",".join(row) + "\n" for row in rows)
    path.write_text(text)
    got = read_table(path, [names], dtype=dtype)[1]
    expected = np.array([[convert(f) for f in row] for row in rows], dtype=dtype)
    assert got.shape == (11, width) and got.dtype == expected.dtype
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))
    path.write_text(text + ",".join(["1"] * (width + 1)) + "\n")
    with pytest.raises(ValueError, match="ragged"):
        read_table(path, [names], dtype=dtype)
