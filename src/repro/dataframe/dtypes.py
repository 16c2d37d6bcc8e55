"""Atomic data type inference for table columns.

The paper (Table 4) reports the distribution of *atomic data types*
(numeric vs string vs other) for GitTables and WDC WebTables. This module
implements per-value and per-column type inference mirroring what
``pandas.read_csv`` would produce with default dtype inference, extended
with date and boolean detection used by the annotation metadata.
"""

from __future__ import annotations

import re
from collections import Counter
from enum import Enum
from typing import Iterable, Sequence

__all__ = [
    "AtomicType",
    "MISSING_TOKENS",
    "infer_value_type",
    "infer_column_type",
    "coerce_value",
    "is_missing",
]

#: Tokens treated as missing values, mirroring pandas' default NA values.
MISSING_TOKENS = frozenset(
    {"", "na", "n/a", "nan", "null", "none", "-", "?", "nil", "missing", "#n/a"}
)

_BOOL_TOKENS = frozenset({"true", "false", "yes", "no", "t", "f", "y", "n"})
#: Every typed text form as one anchored alternation, in priority order:
#: integer (up to 18 digits), float (decimal, exponent or ``1,234``
#: thousands), then the four date forms. The first alternative that
#: matches the whole text names the type.
_SCALAR_RE = re.compile(
    r"(?:(?P<integer>[+-]?\d{1,18})"
    r"|(?P<float>[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
    r"|[+-]?\d{1,3}(?:,\d{3})+(?:\.\d+)?)"
    r"|(?P<date>\d{4}-\d{1,2}-\d{1,2}(?:[ T]\d{1,2}:\d{2}(?::\d{2})?)?"
    r"|\d{1,2}/\d{1,2}/\d{2,4}|\d{1,2}-[A-Za-z]{3}-\d{2,4}|\d{4}/\d{1,2}/\d{1,2}))\Z"
)


class AtomicType(str, Enum):
    """Atomic data types attached to columns and semantic types."""

    INTEGER = "integer"
    FLOAT = "float"
    BOOLEAN = "boolean"
    DATE = "date"
    STRING = "string"
    EMPTY = "empty"

    @property
    def is_numeric(self) -> bool:
        """True for integer and float columns (paper Table 4 'Numeric')."""
        return self in (AtomicType.INTEGER, AtomicType.FLOAT)

    @property
    def coarse(self) -> str:
        """Coarse bucket used in Table 4: ``numeric``/``string``/``other``.

        Dates count as strings because the paper's pandas-based inference
        leaves unparsed dates as object columns; only booleans and fully
        empty columns land in "other", matching its ~0.5% share.
        """
        if self.is_numeric:
            return "numeric"
        if self in (AtomicType.STRING, AtomicType.DATE):
            return "string"
        return "other"


#: ``_SCALAR_RE``'s group names to the types they stand for.
_MATCHED = {kind.value: kind for kind in (AtomicType.INTEGER, AtomicType.FLOAT, AtomicType.DATE)}


def is_missing(value: object) -> bool:
    """Return True when ``value`` should be treated as a missing cell."""
    if value is None:
        return True
    if isinstance(value, float) and value != value:  # NaN
        return True
    if isinstance(value, str):
        return value.strip().lower() in MISSING_TOKENS
    return False


def infer_value_type(value: object) -> AtomicType:
    """Infer the atomic type of a single cell value.

    A plain ``str`` (every parsed cell) is stripped and lowered once and
    checked against the missing tokens; any other value, ``str``
    subclasses included, goes through :func:`is_missing` and the Python
    type checks first, then its stripped ``str()`` is typed the same
    way: the boolean tokens, then one match of ``_SCALAR_RE``.
    """
    if type(value) is str:
        text = value.strip()
        lowered = text.lower()
        if lowered in MISSING_TOKENS:
            return AtomicType.EMPTY
    else:
        if is_missing(value):
            return AtomicType.EMPTY
        if isinstance(value, bool):
            return AtomicType.BOOLEAN
        if isinstance(value, int):
            return AtomicType.INTEGER
        if isinstance(value, float):
            return AtomicType.FLOAT
        text = str(value).strip()
        lowered = text.lower()
    if lowered in _BOOL_TOKENS:
        return AtomicType.BOOLEAN
    match = _SCALAR_RE.match(text)
    return AtomicType.STRING if match is None else _MATCHED[match.lastgroup]


def infer_column_type(values: Sequence[object] | Iterable[object]) -> AtomicType:
    """Infer the dominant atomic type of a column.

    The rules follow pandas-like promotion: a column with integer and
    float values is a float column; a column with any non-numeric,
    non-missing value is a string column unless >=90% of non-missing
    values agree on boolean/date.
    """
    counts = Counter(map(infer_value_type, values))
    non_missing = sum(count for kind, count in counts.items() if kind is not AtomicType.EMPTY)
    if non_missing == 0:
        return AtomicType.EMPTY

    numeric = counts[AtomicType.INTEGER] + counts[AtomicType.FLOAT]
    if numeric == non_missing:
        if counts[AtomicType.FLOAT]:
            return AtomicType.FLOAT
        return AtomicType.INTEGER

    for candidate in (AtomicType.BOOLEAN, AtomicType.DATE):
        if counts[candidate] / non_missing >= 0.9:
            return candidate

    # Mostly-numeric columns with a few stray strings are still useful as
    # numeric data for statistics, but pandas would infer object; we follow
    # pandas and fall through to string unless numeric values dominate
    # overwhelmingly (>=95%).
    if numeric / non_missing >= 0.95:
        return AtomicType.FLOAT if counts[AtomicType.FLOAT] else AtomicType.INTEGER
    return AtomicType.STRING


def coerce_value(value: object, target: AtomicType) -> object:
    """Coerce a raw cell value to ``target``; missing values become None."""
    if is_missing(value):
        return None
    text = str(value).strip()
    try:
        if target is AtomicType.INTEGER:
            return int(float(text.replace(",", "")))
        if target is AtomicType.FLOAT:
            return float(text.replace(",", ""))
        if target is AtomicType.BOOLEAN:
            return text.lower() in {"true", "yes", "t", "y", "1"}
    except (TypeError, ValueError):
        return text
    return text
