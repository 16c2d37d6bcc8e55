"""The general cell classifier, as every value type once took it.

:func:`repro.dataframe.dtypes.infer_value_type` classifies a plain
``str`` with one combined pattern; this module keeps the step-by-step
version (``is_missing`` first, then one separate pattern per type in
priority order) so tests can hold the one-match path to exact equality
with it on any value.
"""

from __future__ import annotations

import re

from repro.dataframe.dtypes import AtomicType, is_missing

__all__ = ["infer_value_type"]

_INT_RE = re.compile(r"^[+-]?\d{1,18}$")
_FLOAT_RE = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?$")
_THOUSANDS_RE = re.compile(r"^[+-]?\d{1,3}(,\d{3})+(\.\d+)?$")
_BOOL_TOKENS = frozenset({"true", "false", "yes", "no", "t", "f", "y", "n"})
_DATE_RES = (
    re.compile(r"^\d{4}-\d{1,2}-\d{1,2}([ T]\d{1,2}:\d{2}(:\d{2})?)?$"),
    re.compile(r"^\d{1,2}/\d{1,2}/\d{2,4}$"),
    re.compile(r"^\d{1,2}-[A-Za-z]{3}-\d{2,4}$"),
    re.compile(r"^\d{4}/\d{1,2}/\d{1,2}$"),
)


def infer_value_type(value: object) -> AtomicType:
    """Infer the atomic type of a single cell value."""
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
    if _INT_RE.match(text):
        return AtomicType.INTEGER
    if _FLOAT_RE.match(text) or _THOUSANDS_RE.match(text):
        return AtomicType.FLOAT
    if any(pattern.match(text) for pattern in _DATE_RES):
        return AtomicType.DATE
    return AtomicType.STRING
