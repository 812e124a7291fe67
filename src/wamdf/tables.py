"""The CSV table format shared by every input file."""

import csv
from itertools import chain, islice

import numpy as np

_BLOCK_ROWS = 8192   # rows converted at a time, so the text held stays bounded


def read_table(path, headers=(), dtype=float):
    """Read a numeric CSV table; returns ``(header, rows)``.

    Blank lines are skipped, and every row is as wide as the first.  The
    first row must be one of ``headers`` (tuples of names, compared after
    stripping spaces); with no ``headers`` it is a header only when its
    first field is not a number, and ``header`` is None for a headerless
    file.  ``rows`` is a 2-d ``dtype`` array of at least one row, each field
    converted exactly as Python's ``float`` or ``int`` would.  Every format
    error is a ValueError naming the file.
    """
    blocks = []
    try:
        with open(path, newline="") as fh:
            rows = filter(None, csv.reader(fh, strict=True))
            first = next(rows, [])
            header = tuple(f.strip() for f in first)
            if headers:
                if header not in headers:
                    expected = " or ".join(repr(",".join(h)) for h in headers)
                    raise ValueError(f"{path}: expected header {expected}")
            elif first:
                try:
                    float(first[0])
                    header, rows = None, chain([first], rows)
                except ValueError:
                    pass   # a header
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
