"""The CSV kernel (sniffer + parser) against its per-character oracle.

The oracle below is the reference implementation the string-level
kernel in :mod:`repro.dataframe.sniffer` / :mod:`repro.dataframe.parser`
replaced: a per-character quote-aware split, a per-delimiter sniffer
scoring pass, and a parser that strips quotes field by field and sniffs
the whole body. The kernel must agree with it exactly — the same split
fields, the same :class:`Dialect` (consistency included), the same
:class:`Table` and the same :class:`ParseReport` — on generated inputs
(quotes, doubled quotes, delimiters inside quotes, ragged rows, ``#``
comments, trailing separators, ``\\r\\n`` and blank lines) and on every
CSV file of a seeded synthetic GitHub instance.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dataframe.parser import ParseReport, _dedupe_header, parse_csv
from repro.dataframe.sniffer import CANDIDATE_DELIMITERS, Dialect, sniff_dialect, split_line
from repro.dataframe.table import Table
from repro.errors import CSVParseError, SnifferError

# -- the oracle ----------------------------------------------------------------


def oracle_split(line: str, delimiter: str, quotechar: str = '"') -> list[str]:
    """Split ``line`` on ``delimiter`` outside quoted regions, char by char."""
    fields: list[str] = []
    current: list[str] = []
    in_quotes = False
    i = 0
    length = len(line)
    while i < length:
        char = line[i]
        if char == quotechar:
            if in_quotes and i + 1 < length and line[i + 1] == quotechar:
                current.append(quotechar)
                i += 2
                continue
            in_quotes = not in_quotes
        elif char == delimiter and not in_quotes:
            fields.append("".join(current))
            current = []
        else:
            current.append(char)
        i += 1
    fields.append("".join(current))
    return fields


def _oracle_score(lines: list[str], delimiter: str) -> tuple[float, int]:
    counts = Counter(len(oracle_split(line, delimiter)) for line in lines)
    if not counts:
        return 0.0, 1
    modal_count, modal_freq = counts.most_common(1)[0]
    if modal_count <= 1:
        return 0.0, modal_count
    return modal_freq / len(lines), modal_count


def oracle_sniff(text: str, sample_lines: int = 50) -> Dialect:
    lines = [line for line in text.splitlines() if line.strip()][:sample_lines]
    if not lines:
        raise SnifferError("cannot sniff an empty payload")
    best: tuple[float, int, str] | None = None
    for delimiter in CANDIDATE_DELIMITERS:
        consistency, modal_count = _oracle_score(lines, delimiter)
        if consistency == 0.0:
            continue
        key = (consistency, modal_count)
        if best is None or key > (best[0], best[1]):
            best = (consistency, modal_count, delimiter)
    if best is None:
        raise SnifferError("no candidate delimiter produced a consistent split")
    consistency, _, delimiter = best
    return Dialect(delimiter=delimiter, consistency=consistency)


def _oracle_is_comment_or_blank(line: str) -> bool:
    stripped = line.strip()
    return not stripped or stripped.startswith("#")


def _oracle_strip_quotes(value: str) -> str:
    value = value.strip()
    if len(value) >= 2 and value[0] == '"' and value[-1] == '"':
        return value[1:-1]
    return value


def _oracle_fields(line: str, dialect: Dialect) -> list[str]:
    return [
        _oracle_strip_quotes(field)
        for field in oracle_split(line, dialect.delimiter, dialect.quotechar)
    ]


def oracle_parse_csv(text: str, table_id=None, metadata=None) -> tuple[Table, ParseReport]:
    report = ParseReport()
    if not text or not text.strip():
        raise CSVParseError("empty CSV payload")
    lines = text.splitlines()
    report.total_lines = len(lines)
    start = 0
    while start < len(lines) and _oracle_is_comment_or_blank(lines[start]):
        start += 1
        report.skipped_leading_lines += 1
    if start >= len(lines):
        raise CSVParseError("payload contains only blank or commented lines")
    body = lines[start:]
    try:
        dialect = oracle_sniff("\n".join(body))
    except SnifferError as exc:
        raise CSVParseError(f"could not determine delimiter: {exc}") from exc
    report.dialect = dialect
    header_fields = _oracle_fields(body[0], dialect)
    raw_rows: list[list[str]] = []
    for line in body[1:]:
        if _oracle_is_comment_or_blank(line):
            report.dropped_bad_lines += 1
            continue
        raw_rows.append(_oracle_fields(line, dialect))
    if raw_rows:
        width_counts: dict[int, int] = {}
        for fields in raw_rows:
            width_counts[len(fields)] = width_counts.get(len(fields), 0) + 1
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
                    fields[:-1] if len(fields) == modal_width and fields[-1] == "" else fields
                    for fields in raw_rows
                ]
                report.realigned_trailing_separator = True
    width = len(header_fields)
    rows: list[list[str]] = []
    for fields in raw_rows:
        if len(fields) != width:
            report.dropped_bad_lines += 1
            continue
        rows.append(fields)
    if not rows and raw_rows:
        raise CSVParseError("no data rows survived parsing")
    report.parsed_rows = len(rows)
    return Table(_dedupe_header(header_fields), rows, table_id=table_id, metadata=metadata), report


# -- comparison helpers ----------------------------------------------------------


def _outcome(function, *args):
    """A comparable result: the value, or the exception type and message."""
    try:
        return function(*args)
    except (SnifferError, CSVParseError) as error:
        return (type(error), str(error))


def _parse_outcome(parse, text: str):
    result = _outcome(parse, text, "t", {"k": 1})
    if isinstance(result[0], Table):
        table, report = result
        return (table.header, table.rows, table.table_id, table.metadata), report
    return result


def assert_parses_identically(text: str) -> None:
    assert _parse_outcome(parse_csv, text) == _parse_outcome(oracle_parse_csv, text)


# -- generated inputs ----------------------------------------------------------

_LINE_CHARS = st.sampled_from(list("ab1 ,;\t|:#\"'") + ["x y", '""', "é"])
_PLAIN = st.text(alphabet=st.sampled_from(list("abc12 .-#'")), max_size=6)
_ANY_DELIMITER = st.sampled_from(CANDIDATE_DELIMITERS + ("x", '"', " "))


@st.composite
def _field(draw, delimiter: str) -> str:
    text = draw(_PLAIN)
    style = draw(st.sampled_from(("plain", "quoted", "inner-delimiter", "doubled", "stray", "padded")))
    if style == "quoted":
        return f'"{text}"'
    if style == "inner-delimiter":
        return f'"{text}{delimiter}{text}"'
    if style == "doubled":
        return f'"{text}""{text}"""'
    if style == "stray":
        return text + '"'
    if style == "padded":
        return f'  "{text}" '
    return text


@st.composite
def csv_texts(draw) -> str:
    delimiter = draw(st.sampled_from(CANDIDATE_DELIMITERS))
    width = draw(st.integers(min_value=1, max_value=5))
    trailing = draw(st.booleans())
    lines: list[str] = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        kind = draw(st.sampled_from(("row", "row", "row", "ragged", "comment", "blank", "noise")))
        if kind == "comment":
            lines.append(draw(st.sampled_from(("#", "# note", "  # indented"))))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(("", " ", "\t"))))
        elif kind == "noise":
            lines.append("".join(draw(st.lists(_LINE_CHARS, max_size=10))))
        else:
            n = width if kind == "row" else draw(st.integers(min_value=0, max_value=width + 2))
            fields = [draw(_field(delimiter)) for _ in range(n)]
            lines.append(delimiter.join(fields) + (delimiter if trailing else ""))
    newline = draw(st.sampled_from(("\n", "\r\n", "\r")))
    return newline.join(lines) + draw(st.sampled_from(("", newline)))


# -- properties ----------------------------------------------------------------


class TestSplitLineMatchesOracle:
    @given(line=st.lists(_LINE_CHARS, max_size=24).map("".join), delimiter=_ANY_DELIMITER)
    @settings(max_examples=300, deadline=None)
    @example(line='"say ""hi""",2', delimiter=",")
    @example(line='a""b,"""c', delimiter=",")
    @example(line='"",""""', delimiter=",")
    @example(line='a,b,', delimiter=",")
    @example(line='"a,b', delimiter=",")
    @example(line='"a"b"c"', delimiter='"')
    def test_split_line(self, line, delimiter):
        dialect = Dialect(delimiter=delimiter)
        assert split_line(line, dialect) == oracle_split(line, delimiter)

    @given(line=st.lists(_LINE_CHARS, max_size=24).map("".join))
    @settings(max_examples=100, deadline=None)
    def test_split_line_other_quotechar(self, line):
        dialect = Dialect(delimiter=",", quotechar="'")
        assert split_line(line, dialect) == oracle_split(line, ",", "'")


class TestSniffMatchesOracle:
    @given(text=csv_texts())
    @settings(max_examples=300, deadline=None)
    @example(text='a,b\n"x, y",2\n"z, w",3\n')
    @example(text="a,b\n1,2\n3,4\n5\n")
    @example(text="justoneword\nanother\n")
    @example(text="a;b\n1,2;3\n")
    def test_sniff_dialect(self, text):
        assert _outcome(sniff_dialect, text) == _outcome(oracle_sniff, text)

    @given(text=csv_texts(), sample_lines=st.integers(min_value=1, max_value=4))
    @settings(max_examples=100, deadline=None)
    def test_sniff_dialect_short_sample(self, text, sample_lines):
        assert _outcome(sniff_dialect, text, sample_lines) == _outcome(
            oracle_sniff, text, sample_lines
        )


class TestParseMatchesOracle:
    @given(text=csv_texts())
    @settings(max_examples=300, deadline=None)
    @example(text="# exported\n\na,b,\n1,2,\n3,4,\n")
    @example(text='a,b\r\n"1,5","x ""y"""\r\n\r\n# c\r\n3,4,5\r\n')
    @example(text=" \n#\n")
    @example(text="a\nb\n")
    def test_parse_csv(self, text):
        assert_parses_identically(text)

    def test_long_body_past_the_sniff_sample(self):
        # Row 60 on switches delimiter; only the first 50 lines are sniffed.
        rows = [f"{i},{i * 2}" for i in range(60)] + [f"{i};{i}" for i in range(200)]
        assert_parses_identically("a,b\n" + "\n".join(rows) + "\n")


def test_every_csv_file_of_an_instance_parses_identically(github_instance):
    checked = 0
    for _, file in github_instance.iter_files():
        if file.extension != "csv":
            continue
        assert _parse_outcome(parse_csv, file.content) == _parse_outcome(
            oracle_parse_csv, file.content
        ), file.path
        checked += 1
    assert checked > 100


@pytest.mark.parametrize("quotechar", ["", "''"])
def test_dialect_rejects_non_single_character_quotechar(quotechar):
    with pytest.raises(SnifferError):
        Dialect(delimiter=",", quotechar=quotechar)
