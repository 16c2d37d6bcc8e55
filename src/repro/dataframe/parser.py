"""Tolerant CSV → Table parser implementing the paper's §3.3 rules.

The parsing rules reproduced here, in order:

1. Sniff the delimiter (``repro.dataframe.sniffer``).
2. Skip leading lines that are empty or start with ``#`` (commented lines).
3. Treat the first remaining row as the header.
4. Drop "bad lines": empty lines, commented lines, and lines whose field
   count differs from the header width (after realignment).
5. Realign rows that carry a redundant trailing separator (an extra empty
   field at the end of every row), and headers with a trailing separator.
6. Fail with :class:`~repro.errors.CSVParseError` when no rows survive or
   the payload cannot be interpreted at all. Callers track the parse
   success rate (the paper reports 99.3%).

Only the sniffer's sample (the body's first ``SAMPLE_LINES`` non-blank
lines) is handed to the sniffer. A row without a quote character is split with ``str.split``
and its fields stripped with ``str.strip`` — for such a line that is
exactly what quote-aware splitting and quote stripping produce; quoted
rows go through :func:`~repro.dataframe.sniffer.split_line`. The
property tests in ``tests/test_csv_kernel.py`` check tables and reports
against the per-character reference parser kept there as the oracle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import islice

from ..errors import CSVParseError, SnifferError
from .sniffer import SAMPLE_LINES, Dialect, sniff_dialect, split_line
from .table import Table

__all__ = ["ParseReport", "parse_csv"]


@dataclass
class ParseReport:
    """Diagnostics describing how a CSV payload was parsed."""

    dialect: Dialect | None = None
    skipped_leading_lines: int = 0
    dropped_bad_lines: int = 0
    realigned_trailing_separator: bool = False
    total_lines: int = 0
    parsed_rows: int = 0
    warnings: list[str] = field(default_factory=list)

    @property
    def bad_line_fraction(self) -> float:
        if self.total_lines == 0:
            return 0.0
        return self.dropped_bad_lines / self.total_lines


def _is_comment_or_blank(line: str) -> bool:
    stripped = line.strip()
    return not stripped or stripped.startswith("#")


def _strip_quotes(value: str) -> str:
    value = value.strip()
    if len(value) >= 2 and value[0] == '"' and value[-1] == '"':
        return value[1:-1]
    return value


def _row_fields(line: str, dialect: Dialect) -> list[str]:
    """The stripped, unquoted fields of one row."""
    if '"' not in line and dialect.quotechar not in line:
        return list(map(str.strip, line.split(dialect.delimiter)))
    return [_strip_quotes(field) for field in split_line(line, dialect)]


def parse_csv(
    text: str,
    table_id: str | None = None,
    metadata: dict[str, object] | None = None,
) -> tuple[Table, ParseReport]:
    """Parse raw CSV text into a :class:`Table`.

    Returns the table plus a :class:`ParseReport` describing applied fixes.
    Raises :class:`CSVParseError` if the payload cannot be parsed.
    """
    report = ParseReport()
    if not text or not text.strip():
        raise CSVParseError("empty CSV payload")

    lines = text.splitlines()
    report.total_lines = len(lines)

    # Rule 2: skip leading blank/commented lines.
    start = 0
    while start < len(lines) and _is_comment_or_blank(lines[start]):
        start += 1
        report.skipped_leading_lines += 1
    if start >= len(lines):
        raise CSVParseError("payload contains only blank or commented lines")

    body = lines[start:]
    sample = list(islice((line for line in body if line.strip()), SAMPLE_LINES))
    try:
        dialect = sniff_dialect("\n".join(sample))
    except SnifferError as exc:
        raise CSVParseError(f"could not determine delimiter: {exc}") from exc
    report.dialect = dialect

    header_fields = _row_fields(body[0], dialect)
    if not header_fields:
        raise CSVParseError("empty header row")

    raw_rows: list[list[str]] = []
    for line in body[1:]:
        if _is_comment_or_blank(line):
            report.dropped_bad_lines += 1
            continue
        raw_rows.append(_row_fields(line, dialect))

    # Rule 5: realign header and values when a redundant trailing
    # separator makes the number of attributes and the number of values
    # per row disagree by exactly one empty field. The modal row width
    # decides which side carries the redundant separator.
    if raw_rows:
        width_counts = Counter(map(len, raw_rows))
        modal_width = max(width_counts, key=lambda w: (width_counts[w], w))
        if len(header_fields) == modal_width + 1 and header_fields[-1] == "":
            header_fields = header_fields[:-1]
            report.realigned_trailing_separator = True
        elif modal_width == len(header_fields) + 1:
            trailing_empty = sum(
                1 for fields in raw_rows if len(fields) == modal_width and fields[-1] == ""
            )
            if trailing_empty >= max(1, width_counts[modal_width] // 2):
                raw_rows = [
                    fields[:-1]
                    if len(fields) == modal_width and fields[-1] == ""
                    else fields
                    for fields in raw_rows
                ]
                report.realigned_trailing_separator = True

    # Rule 4: drop bad lines (extra or missing delimiters).
    width = len(header_fields)
    rows = [fields for fields in raw_rows if len(fields) == width]
    report.dropped_bad_lines += len(raw_rows) - len(rows)

    # A header-only file parses into an empty table (the paper drops
    # sub-minimum tables in the *filtering* stage, not here); but if data
    # rows existed and every one of them was bad, the file is unparseable.
    if not rows and raw_rows:
        raise CSVParseError("no data rows survived parsing")

    report.parsed_rows = len(rows)
    header = _dedupe_header(header_fields)
    table = Table(header, rows, table_id=table_id, metadata=metadata)
    return table, report


def _dedupe_header(names: list[str]) -> list[str]:
    """Make duplicate column names unique (``x``, ``x.1``, ``x.2`` ...).

    Mirrors pandas' ``mangle_dupe_cols`` behaviour so downstream column
    lookups by name are unambiguous.
    """
    seen: dict[str, int] = {}
    result: list[str] = []
    for name in names:
        name = name if name.strip() else "unnamed"
        if name not in seen:
            seen[name] = 0
            result.append(name)
        else:
            seen[name] += 1
            result.append(f"{name}.{seen[name]}")
    return result
