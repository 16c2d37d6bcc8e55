"""Unit tests for atomic type inference (repro.dataframe.dtypes)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataframe.dtypes import (
    MISSING_TOKENS,
    AtomicType,
    coerce_value,
    infer_column_type,
    infer_value_type,
    is_missing,
)
from tests import dtypes_oracle


class TestIsMissing:
    def test_none_is_missing(self):
        assert is_missing(None)

    def test_nan_float_is_missing(self):
        assert is_missing(float("nan"))

    @pytest.mark.parametrize("token", ["", "na", "N/A", "NaN", "null", "None", "-", "?"])
    def test_missing_tokens(self, token):
        assert is_missing(token)

    @pytest.mark.parametrize("value", ["0", "false", "abc", 0, 0.0, "  x  "])
    def test_non_missing_values(self, value):
        assert not is_missing(value)


class TestInferValueType:
    @pytest.mark.parametrize(
        "value,expected",
        [
            ("42", AtomicType.INTEGER),
            ("-7", AtomicType.INTEGER),
            ("3.14", AtomicType.FLOAT),
            ("1e-3", AtomicType.FLOAT),
            ("1,234.5", AtomicType.FLOAT),
            ("true", AtomicType.BOOLEAN),
            ("No", AtomicType.BOOLEAN),
            ("2021-03-01", AtomicType.DATE),
            ("03/04/2021", AtomicType.DATE),
            ("2021-03-01 12:30:00", AtomicType.DATE),
            ("hello", AtomicType.STRING),
            ("", AtomicType.EMPTY),
            (None, AtomicType.EMPTY),
        ],
    )
    def test_value_types(self, value, expected):
        assert infer_value_type(value) is expected

    def test_python_native_types(self):
        assert infer_value_type(7) is AtomicType.INTEGER
        assert infer_value_type(7.5) is AtomicType.FLOAT
        assert infer_value_type(True) is AtomicType.BOOLEAN


class TestInferColumnType:
    def test_all_integers(self):
        assert infer_column_type(["1", "2", "3"]) is AtomicType.INTEGER

    def test_mixed_int_float_promotes_to_float(self):
        assert infer_column_type(["1", "2.5", "3"]) is AtomicType.FLOAT

    def test_strings_dominate(self):
        assert infer_column_type(["a", "b", "1"]) is AtomicType.STRING

    def test_mostly_numeric_with_noise_is_numeric(self):
        values = ["1"] * 99 + ["oops"]
        assert infer_column_type(values).is_numeric

    def test_empty_column(self):
        assert infer_column_type(["", None, "na"]) is AtomicType.EMPTY

    def test_boolean_column(self):
        assert infer_column_type(["yes", "no", "yes", "no"]) is AtomicType.BOOLEAN

    def test_date_column(self):
        assert infer_column_type(["2020-01-01", "2020-02-01", "2020-03-01"]) is AtomicType.DATE

    def test_missing_values_ignored(self):
        assert infer_column_type(["1", "", "2", "nan"]) is AtomicType.INTEGER


class TestCoarseBuckets:
    def test_numeric_bucket(self):
        assert AtomicType.INTEGER.coarse == "numeric"
        assert AtomicType.FLOAT.coarse == "numeric"

    def test_string_bucket_includes_dates(self):
        assert AtomicType.STRING.coarse == "string"
        assert AtomicType.DATE.coarse == "string"

    def test_other_bucket(self):
        assert AtomicType.BOOLEAN.coarse == "other"
        assert AtomicType.EMPTY.coarse == "other"

    def test_is_numeric_flag(self):
        assert AtomicType.INTEGER.is_numeric
        assert not AtomicType.STRING.is_numeric


class TestCoerceValue:
    def test_coerce_integer(self):
        assert coerce_value("42", AtomicType.INTEGER) == 42

    def test_coerce_float_with_thousands(self):
        assert coerce_value("1,234.5", AtomicType.FLOAT) == pytest.approx(1234.5)

    def test_coerce_boolean(self):
        assert coerce_value("yes", AtomicType.BOOLEAN) is True
        assert coerce_value("no", AtomicType.BOOLEAN) is False

    def test_coerce_missing_returns_none(self):
        assert coerce_value("", AtomicType.INTEGER) is None

    def test_coerce_unparseable_returns_text(self):
        assert coerce_value("abc", AtomicType.INTEGER) == "abc"


class _Text(str):
    """A ``str`` subclass with its own ``__str__``: takes the general path."""

    def __str__(self) -> str:
        return str.__str__(self).upper()


_PADDING = st.sampled_from(["", " ", "\t", "\n", " ", " ", "　", "   "])
_DIGITS = st.text(alphabet="0123456789", min_size=1, max_size=4)


@st.composite
def _number(draw) -> str:
    sign = draw(st.sampled_from(["", "+", "-"]))
    kind = draw(st.sampled_from(["int", "long", "decimal", "exponent", "thousands", "bad"]))
    if kind == "int":
        body = str(draw(st.integers(min_value=0, max_value=10**6)))
    elif kind == "long":
        # 18 digits are an integer, 19 fall through to float.
        body = draw(st.sampled_from(["1" * 17, "9" * 18, "1" * 19, "0" * 18, "12" * 10]))
    elif kind == "decimal":
        body = draw(st.sampled_from(["{}.{}", "{}.", ".{}"])).format(draw(_DIGITS), draw(_DIGITS))
    elif kind == "exponent":
        mark = draw(st.sampled_from(["e", "E", "e+", "E-"]))
        body = f"{draw(_DIGITS)}.{draw(_DIGITS)}{mark}{draw(_DIGITS)}"
    elif kind == "thousands":
        body = "1,234" + draw(st.sampled_from(["", ",567", ".89", ",567.0"]))
    else:
        body = draw(st.sampled_from(["12,34", "1,2345", ",123", "1,,234", "1234,567"]))
    return sign + body


@st.composite
def _date(draw) -> str:
    a, b, c = (draw(_DIGITS) for _ in range(3))
    form = draw(st.integers(min_value=0, max_value=4))
    if form == 0:
        clock = draw(st.sampled_from(["", " 12:30", "T1:05:59", " 12:3", "T12:30:5"]))
        return f"{a}-{b}-{c}{clock}"
    if form == 1:
        return f"{a}/{b}/{c}"
    if form == 2:
        return f"{a}-{draw(st.sampled_from(['Jan', 'feb', 'MAR', 'Ju', 'Sept']))}-{c}"
    if form == 3:
        return f"{a}/{b}/{c}/{a}"
    return f"{a}-{b}"


_WORDS = sorted(MISSING_TOKENS | {"true", "false", "yes", "no", "t", "f", "y", "n", "maybe"})


@st.composite
def _token(draw) -> str:
    word = draw(st.sampled_from(_WORDS))
    return "".join(ch.upper() if draw(st.booleans()) else ch for ch in word)


@st.composite
def _cell_text(draw) -> str:
    body = draw(
        st.one_of(
            _number(),
            _date(),
            _token(),
            st.text(alphabet="0123456789+-.,eE/:T aZ٣", max_size=12),
            st.text(max_size=8),
        )
    )
    return draw(_PADDING) + body + draw(_PADDING)


class TestOneMatchClassifierMatchesOracle:
    """``infer_value_type`` equals the step-by-step oracle on any value."""

    @given(text=_cell_text())
    @settings(max_examples=400, deadline=None)
    def test_str_cells(self, text):
        assert infer_value_type(text) is dtypes_oracle.infer_value_type(text)

    @given(
        value=st.one_of(
            _cell_text().map(_Text),
            st.booleans(),
            st.integers(),
            st.floats(allow_nan=True),
            st.none(),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_other_values(self, value):
        assert infer_value_type(value) is dtypes_oracle.infer_value_type(value)

    @pytest.mark.parametrize(
        "text",
        ["9" * 18, "9" * 19, "-" + "9" * 18, "1,234", "12,34", "1e5", "1.5E-3", ".5", "5.",
         "2021-01-02", "2021-1-2 3:04", "2021-01-02T03:04:05", "1/2/21", "01-Jan-2021",
         "2021/01/02", " NaN ", " TRUE　", "٣٤", "12\n", "ab"],
    )
    def test_edges(self, text):
        assert infer_value_type(text) is dtypes_oracle.infer_value_type(text)

    @pytest.mark.parametrize("word", _WORDS)
    def test_every_token_in_any_case_and_padding(self, word):
        for text in (word, word.upper(), word.title(), f"\u3000{word.upper()}\t", f" {word} "):
            assert infer_value_type(text) is dtypes_oracle.infer_value_type(text)
