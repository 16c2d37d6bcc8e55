"""CSV dialect sniffing.

The paper leverages "the integrated functionality of Python's Sniffer
tool" to determine the delimiter of CSV files (§3.3). This module provides
an equivalent sniffer operating on raw text: it scores candidate
delimiters by the consistency of the per-line field counts they induce,
preferring delimiters that split most lines into the same, largest number
of fields.

The kernel works on whole strings, never per character. A line without
the quote character splits with ``str.split`` and counts its fields with
``str.count``; a quoted line is cut at its quote characters once
(:func:`_quote_runs`) and only the unquoted runs are split or counted.
The sniffer makes one quote-aware pass over its sample, skips candidates
absent from it, and counts the others line by line. The
per-character reference loop this replaces is kept as the oracle of the
property tests (``tests/test_csv_kernel.py``), which check that split
fields and sniffed dialects are identical to it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from ..errors import SnifferError

__all__ = ["Dialect", "sniff_dialect", "CANDIDATE_DELIMITERS"]

#: Delimiters considered by the sniffer, in preference order for ties.
CANDIDATE_DELIMITERS = (",", ";", "\t", "|", ":")

#: Non-blank lines the sniffer scores by default.
SAMPLE_LINES = 50


@dataclass(frozen=True)
class Dialect:
    """A detected CSV dialect."""

    delimiter: str
    quotechar: str = '"'
    #: Fraction of sampled lines whose field count equals the modal count.
    consistency: float = 1.0

    def __post_init__(self) -> None:
        if len(self.delimiter) != 1:
            raise SnifferError(f"delimiter must be a single character, got {self.delimiter!r}")
        if len(self.quotechar) != 1:
            raise SnifferError(f"quotechar must be a single character, got {self.quotechar!r}")


def _quote_runs(line: str, quotechar: str) -> Iterator[tuple[bool, str]]:
    """Yield ``(quoted, text)`` runs of ``line`` with the quotes removed.

    A quote character toggles quoting; inside quotes, a doubled quote is
    one literal quote character (yielded as its own quoted run). An
    unterminated quote quotes the rest of the line.
    """
    parts = line.split(quotechar)
    last = len(parts) - 1
    yield False, parts[0]
    quoted = False
    k = 1  # parts[k] follows the quote character being consumed
    while k <= last:
        if quoted and k < last and not parts[k]:
            yield True, quotechar
            yield True, parts[k + 1]
            k += 2
            continue
        quoted = not quoted
        yield quoted, parts[k]
        k += 1


def _unquoted_text(line: str, quotechar: str) -> str:
    """The characters of ``line`` outside quoted regions."""
    return "".join(text for quoted, text in _quote_runs(line, quotechar) if not quoted)


def sniff_dialect(text: str, sample_lines: int = SAMPLE_LINES) -> Dialect:
    """Detect the delimiter of ``text``.

    Raises :class:`~repro.errors.SnifferError` when no candidate delimiter
    splits the sample into more than one field consistently — the caller
    (the CSV parser) treats this as an unparseable file.
    """
    lines = [line for line in text.splitlines() if line.strip()][:sample_lines]
    if not lines:
        raise SnifferError("cannot sniff an empty payload")

    # One quote-aware scan per quoted line; a quote-free line is its own
    # unquoted text.
    quotechar = Dialect.quotechar
    unquoted = [line if quotechar not in line else _unquoted_text(line, quotechar) for line in lines]
    sample = "\n".join(unquoted)

    best: tuple[float, int, str] | None = None
    for delimiter in CANDIDATE_DELIMITERS:
        if delimiter not in sample:
            continue  # splits no line into more than one field
        # The modal field count; ties go to the count seen first.
        counts = Counter([line.count(delimiter) for line in unquoted])
        modal_separators, modal_freq = counts.most_common(1)[0]
        if modal_separators == 0:
            continue
        # Prefer higher consistency, then more fields, then candidate order.
        key = (modal_freq / len(lines), modal_separators + 1)
        if best is None or key > (best[0], best[1]):
            best = (*key, delimiter)

    if best is None:
        raise SnifferError("no candidate delimiter produced a consistent split")
    consistency, _, delimiter = best
    return Dialect(delimiter=delimiter, consistency=consistency)


def split_line(line: str, dialect: Dialect) -> list[str]:
    """Split a single CSV line on ``dialect.delimiter`` outside quoted regions."""
    delimiter, quotechar = dialect.delimiter, dialect.quotechar
    if quotechar not in line:
        return line.split(delimiter)
    fields: list[str] = []
    current: list[str] = []
    for quoted, text in _quote_runs(line, quotechar):
        if quoted:
            current.append(text)
            continue
        first, *rest = text.split(delimiter)
        current.append(first)
        for piece in rest:
            fields.append("".join(current))
            current = [piece]
    fields.append("".join(current))
    return fields
