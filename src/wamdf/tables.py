"""The CSV table format shared by every input file."""

import csv
from itertools import chain, islice

import numpy as np

_BLOCK_ROWS = 8192   # rows converted at a time, so the text held stays bounded
_SCAN_BYTES = 1 << 20   # bytes read at a time by the scan before numpy's tokenizer
_PLAIN_BYTES = bytes(range(0x20, 0x7F)) + b"\t\n\r"


def read_table(path, headers=(), dtype=float):
    """Read a numeric CSV table; returns ``(header, rows)``.

    Blank lines are skipped, and every row is as wide as the first.  The
    first row must be one of ``headers`` (tuples of names, compared after
    stripping spaces); with no ``headers`` it is a header only when its
    first field is not a number, and ``header`` is None for a headerless
    file.  ``rows`` is a 2-d ``dtype`` array of at least one row, each field
    converted exactly as Python's ``float`` or ``int`` would.  Every format
    error is a ValueError naming the file.

    The csv module parses the first row.  numpy's C tokenizer reads the
    data rows of a plain file (see ``_plain_rows``); the csv module reads
    the rest of any other file, and of one the tokenizer refuses, so the
    rules, the values and the messages are the same either way.
    """
    blocks = []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh, strict=True)
            rows = filter(None, reader)
            first = next(rows, [])
            header, skip = tuple(f.strip() for f in first), reader.line_num
            if headers:
                if header not in headers:
                    expected = " or ".join(repr(",".join(h)) for h in headers)
                    raise ValueError(f"{path}: expected header {expected}")
            elif first:
                try:
                    float(first[0])
                    header, rows, skip = None, chain([first], rows), 0
                except ValueError:
                    pass   # a header
            plain = _plain_rows(path, skip, dtype, len(first))
            if plain is not None:
                return header, plain
            while block := list(islice(rows, _BLOCK_ROWS)):
                widths = set(map(len, block)) | {len(first)}
                if len(widths) > 1:
                    raise ValueError(f"{path}: ragged rows (widths {sorted(widths)})")
                try:
                    blocks.append(np.array(list(chain.from_iterable(block)), dtype=dtype)
                                  .reshape(len(block), -1))
                except ValueError as exc:
                    kind = "integer" if np.dtype(dtype).kind in "iu" else "numeric"
                    raise ValueError(f"{path}: non-{kind} field ({exc})") from None
                except OverflowError:
                    raise ValueError(f"{path}: field out of range for {np.dtype(dtype)}") from None
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not blocks:
        raise ValueError(f"{path}: no data rows")
    return header, np.concatenate(blocks)


def _plain_rows(path, skip, dtype, width):
    """The rows after the first ``skip`` lines as numpy's C tokenizer reads
    them, or None where only the csv module can judge the file.

    On printable ASCII, loadtxt parses a field exactly as Python's ``float``
    or ``int`` does, or refuses it.  Beyond ASCII it is not exact: it strips
    the separators ``\\x1c``-``\\x1f``, which Python refuses, and reads some
    non-ASCII digits to wrong integers.  It also has no field size limit, so
    a file with a control byte, a non-ASCII character or a line past csv's
    limit is left to the csv module.  No quote character is set: a quoted
    field fails to parse, which leaves the file to the csv module too.
    """
    if not _is_plain(path, csv.field_size_limit()):
        return None
    # loadtxt warns on a file of no data rows; the csv module reports it
    with open(path, newline="") as fh:
        if not any(line.strip("\r\n") for line in islice(fh, skip, None)):
            return None
    try:
        rows = np.loadtxt(path, delimiter=",", comments=None, dtype=dtype, ndmin=2,
                          skiprows=skip)
    except (ValueError, OverflowError):
        return None
    return rows if rows.shape[1] == width else None


def _is_plain(path, limit):
    """Whether the file holds only printable ASCII, tabs and line ends, and
    no ``\\n``-ended line of more than ``limit`` bytes.  The file is read in
    fixed-size chunks, never whole."""
    open_line = 0   # bytes of the line still open at the end of the last chunk
    with open(path, "rb") as fh:
        while chunk := fh.read(_SCAN_BYTES):
            if chunk.translate(None, _PLAIN_BYTES):
                return False
            ends = np.flatnonzero(np.frombuffer(chunk, np.uint8) == ord("\n"))
            if ends.size:
                # each gap between newlines is one line and its newline
                if np.diff(ends, prepend=-1 - open_line).max() > limit + 1:
                    return False
                open_line = len(chunk) - 1 - ends[-1]
            else:
                open_line += len(chunk)
            if open_line > limit:
                return False
    return True
