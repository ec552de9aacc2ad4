"""Strict line-grammar readers, and the row writer, shared by the CSV formats.

`maskmatrix-v1`, `gradtrace-v1`, `gradagg-v1` and `abltable-v1` files are
a header line and a body of comma-separated rows, every line ended by LF
(the last one too). Each body column has a grammar:

- `INT`: a canonical decimal integer, `0` or `[1-9][0-9]*`; `BIT`: `0` or `1`;
- `BITS`: a nonempty 0/1 string, an ablation-table combination;
- `FLOAT`: a nonnegative float as `repr` writes it: `0.5`, `2.0`,
  `1e-05`, `1.5e+16`; `SFLOAT`: a `FLOAT` with an optional minus sign;
- `NAME`: text without a comma, double quote, line break or lone
  surrogate, as header fields (split on commas, no csv quoting),
  modality and metric names are.

`parse_rows` (traces) and `read_columns` (ablation tables) check a whole
body against the line grammar with one possessive regex match;
`parse_rows` converts the body with numpy's `loadtxt` in one step,
`read_columns` splits it into text columns for the format's array
checks. A `maskmatrix-v1` body in the grammar has one byte form, which
`protocol.read_mask_matrix` checks without a regex. Only when a reader's
checks fail does `first_bad_line` walk the lines in Python to name the
first bad one as `path:line: reason`.

`format_rows`, the writer twin of the readers, formats the body of a
`gradtrace-v1`, `gradagg-v1` or `abltable-v1` file from its columns.
"""

from __future__ import annotations

import codecs
import io
import re
from functools import lru_cache
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import FileFormatError

# A header field, modality name or metric name: nonempty, and free of the
# comma, double quote and line breaks that would change how a line splits,
# and of the lone surrogates `read_text` makes of undecodable bytes.
# Every repeat is possessive: a cell ends at a comma or LF, which no repeat
# consumes, so none ever has to give a character back.
NAME = r'[^,"\r\n\ud800-\udfff]++'
INT = r"0|[1-9][0-9]*+"
BIT = r"[01]"
BITS = r"[01]++"
FLOAT = r"(?:0|[1-9][0-9]*+)\.[0-9]++|[1-9](?:\.[0-9]++)?+e[+-](?:0[1-9]|[1-9][0-9]{1,2}+)"
SFLOAT = f"-?+(?:{FLOAT})"

_DESCRIPTIONS = {
    NAME: "a name (nonempty, without double quotes or line breaks)",
    INT: "a canonical decimal integer",
    BIT: "0 or 1",
    BITS: "a nonempty 0/1 string",
    FLOAT: "a nonnegative float in repr form",
    SFLOAT: "a float in repr form",
}
_INT64_MAX = np.iinfo(np.int64).max


@lru_cache(maxsize=32)
def _body_re(fields: tuple[str, ...]) -> re.Pattern:
    """Any number of body lines in the grammar of `fields`.

    The repeat is possessive, so a match keeps no backtracking frame per line.
    """
    line = ",".join(f"(?:{f})" for f in fields) + "\n"
    return re.compile(f"(?:{line})*+")


def read_header(path: str | Path, line: bytes) -> list[str]:
    """Fields of a file's first line, given its bytes up to and including the LF."""
    if not line:
        raise FileFormatError(f"{path}: empty file")
    if line.startswith(codecs.BOM_UTF8):
        raise FileFormatError(f"{path}:1: byte-order mark before the header")
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError:
        raise FileFormatError(f"{path}:1: not UTF-8 text") from None
    if not text.endswith("\n"):
        raise FileFormatError(f"{path}:1: no newline at end of file")
    if text.endswith("\r\n"):
        raise FileFormatError(f"{path}:1: CRLF line ending, expected LF")
    fields = text[:-1].split(",")
    for i, field in enumerate(fields, 1):
        if not re.fullmatch(NAME, field):
            raise FileFormatError(
                f"{path}:1: header field {i} {field!r} is not a name "
                "(nonempty, without double quotes or line breaks)"
            )
    return fields


def read_text(path: str | Path) -> tuple[list[str], str]:
    """(header fields, body text) of a file; the body starts at line 2.

    Each undecodable body byte becomes a lone surrogate (`surrogateescape`),
    which no grammar matches, so the reader checks the header first and
    `first_bad_line` names such a line in file order.
    """
    # The body's bytes are read apart from the header line, so that the
    # file is held at most twice while they are decoded.
    with open(path, "rb") as f:
        header = read_header(path, f.readline())
        data = f.read()
    return header, data.decode("utf-8", "surrogateescape")


def parse_rows(body: str, fields: tuple[str, ...], dtype: np.dtype) -> np.ndarray | None:
    """The body as one record of the structured `dtype` per line, or None.

    None when a line breaks the grammar or a number overflows.
    """
    if not _body_re(fields).fullmatch(body):
        return None
    if not body:
        return np.empty(0, dtype=dtype)
    try:
        return np.loadtxt(io.StringIO(body), delimiter=",", dtype=dtype, ndmin=1)
    except ValueError:  # an integer beyond int64
        return None


def read_columns(body: str, fields: tuple[str, ...]) -> list[list[str]] | None:
    """The body's cells as one list of `str` per field, or None when a line breaks the grammar.

    Not numpy string arrays: those drop a trailing NUL, which `NAME` allows.
    """
    if not _body_re(fields).fullmatch(body):
        return None
    cells = body.replace("\n", ",").split(",")  # no grammar holds a comma; LF ends the body
    return [cells[j : -1 : len(fields)] for j in range(len(fields))]


# Rows `format_rows` formats with one `%` operation; the chunk's argument
# tuple and text stay small however long the body is.
_WRITE_CHUNK_ROWS = 4096


def format_rows(row_format: str, columns: Sequence[np.ndarray | Sequence]) -> str:
    """Rows of equal-length columns, each row `row_format` of its cells in column order.

    A numpy column's cells are the Python ints and floats of its
    `tolist()`, so `%d` and `%r` print what `f"{t}"` and `f"{g!r}"`
    print. A text column is a list of `str`, printed with `%s`.
    """
    n, width = len(columns[0]), len(columns)
    chunks = []
    for lo in range(0, n, _WRITE_CHUNK_ROWS):
        hi = min(lo + _WRITE_CHUNK_ROWS, n)
        cells: list = [None] * ((hi - lo) * width)
        for j, column in enumerate(columns):
            part = column[lo:hi]
            cells[j::width] = part.tolist() if isinstance(part, np.ndarray) else part
        chunks.append(row_format * (hi - lo) % tuple(cells))
    return "".join(chunks)


def first_bad_line(
    path: str | Path,
    body: str,
    names: tuple[str, ...] | list[str],
    fields: tuple[str, ...],
    check: Callable[[int, list[str]], str | None],
) -> FileFormatError:
    """The error for the first line, in file order, that does not read.

    Per line: UTF-8, the LF ending, the field count, then `check(k, cells)` (the
    format's own value checks on data row k, counted from 0), then each
    cell's grammar and the int64 range.
    """
    lines = body.split("\n")
    cells_match = [re.compile(field).fullmatch for field in fields]
    for k, line in enumerate(lines):
        last = k == len(lines) - 1
        if last and not line:
            break
        reason = _line_error(k, line, names, fields, cells_match, check)
        if reason is None and last:
            reason = "no newline at end of file"
        if reason is not None:
            return FileFormatError(f"{path}:{k + 2}: {reason}")
    return FileFormatError(f"{path}: unreadable rows")


_ESCAPED_BYTE = re.compile(r"[\udc80-\udcff]").search


def _line_error(k, line, names, fields, cells_match, check) -> str | None:
    if _ESCAPED_BYTE(line):
        return "not UTF-8 text"
    if line.endswith("\r"):
        return "CRLF line ending, expected LF"
    if not line:
        return "blank line"
    cells = line.split(",")
    if len(cells) != len(fields):
        return f"expected {len(fields)} fields, got {len(cells)}"
    reason = check(k, cells)
    if reason is not None:
        return reason
    for name, field, match, cell in zip(names, fields, cells_match, cells):
        if not match(cell):
            return f"{name} {cell!r} is not {_DESCRIPTIONS[field]}"
        if field == INT and int(cell) > _INT64_MAX:
            return f"{name} {cell} does not fit in a signed 64-bit integer"
    return None
