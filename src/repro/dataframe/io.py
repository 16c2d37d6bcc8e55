"""CSV serialisation helpers.

The pipeline writes curated tables back to disk as CSV (the corpus format
distributed by the paper is parquet; CSV keeps this reproduction free of
external dependencies while preserving round-tripping semantics).
"""

from __future__ import annotations

import os

from ..errors import CSVParseError
from .parser import ParseReport, parse_csv
from .table import Table

__all__ = ["table_to_csv", "write_csv_file", "read_csv_file"]


def _escape_field(value: object, delimiter: str) -> str:
    text = "" if value is None else str(value)
    if delimiter in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def table_to_csv(table: Table, delimiter: str = ",") -> str:
    """Serialise ``table`` to CSV text (header + rows)."""
    lines = [delimiter.join(_escape_field(name, delimiter) for name in table.header)]
    for row in table.rows:
        lines.append(delimiter.join(_escape_field(value, delimiter) for value in row))
    return "\n".join(lines) + "\n"


def write_csv_file(table: Table, path: str | os.PathLike[str], delimiter: str = ",") -> None:
    """Write ``table`` to ``path`` as CSV."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(table_to_csv(table, delimiter=delimiter))


def read_csv_file(path: str | os.PathLike[str]) -> tuple[Table, ParseReport]:
    """Read and parse a CSV file from disk."""
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        text = handle.read()
    if not text.strip():
        raise CSVParseError(f"file {path!s} is empty")
    return parse_csv(text, table_id=str(path))
