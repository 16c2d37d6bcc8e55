"""In-memory relational table model.

:class:`Table` is the unit the GitTables pipeline operates on. It is a
deliberately small, immutable-ish container: a header (list of column
names), a list of rows (lists of cell values), and provenance metadata
(source repository, file path, license). Columns are exposed through
:class:`Column` views that carry inferred atomic types and per-column
statistics used by the featurisers and the corpus statistics module.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from ..errors import TableValidationError
from .dtypes import AtomicType, infer_column_type, is_missing

__all__ = ["Column", "Table"]


@dataclass(frozen=True)
class Column:
    """A single table column: name, values, and inferred atomic type."""

    name: str
    values: tuple[object, ...]
    atomic_type: AtomicType

    @classmethod
    def from_values(cls, name: str, values: Sequence[object]) -> "Column":
        """Build a column, inferring its atomic type from ``values``."""
        return cls(name=name, values=tuple(values), atomic_type=infer_column_type(values))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def non_missing_values(self) -> list[object]:
        """Values that are not missing/NaN/empty."""
        return [value for value in self.values if not is_missing(value)]

    @property
    def missing_fraction(self) -> float:
        """Fraction of missing cells in the column."""
        if not self.values:
            return 0.0
        return 1.0 - len(self.non_missing_values) / len(self.values)

    @property
    def distinct_count(self) -> int:
        """Number of distinct non-missing values (by string representation)."""
        return len({str(value) for value in self.non_missing_values})

    def numeric_values(self) -> list[float]:
        """Non-missing values parsed as floats; unparseable cells skipped."""
        numbers: list[float] = []
        for value in self.non_missing_values:
            try:
                numbers.append(float(str(value).replace(",", "")))
            except (TypeError, ValueError):
                continue
        return numbers

    def summary(self) -> dict[str, float]:
        """Basic numeric summary used by corpus statistics and features."""
        numbers = self.numeric_values()
        if not numbers:
            return {"count": 0.0, "mean": 0.0, "stdev": 0.0, "min": 0.0, "max": 0.0}
        return {
            "count": float(len(numbers)),
            "mean": statistics.fmean(numbers),
            "stdev": statistics.pstdev(numbers) if len(numbers) > 1 else 0.0,
            "min": min(numbers),
            "max": max(numbers),
        }


class Table:
    """A relational table with a header, rows, and provenance metadata."""

    __slots__ = ("table_id", "header", "rows", "metadata", "_columns_cache")

    def __init__(
        self,
        header: Sequence[str],
        rows: Sequence[Sequence[object]],
        table_id: str | None = None,
        metadata: Mapping[str, object] | None = None,
    ) -> None:
        header = [str(name) for name in header]
        if not header:
            raise TableValidationError("a table requires at least one column name")
        normalized_rows: list[tuple[object, ...]] = []
        width = len(header)
        for index, row in enumerate(rows):
            if len(row) != width:
                raise TableValidationError(
                    f"row {index} has {len(row)} values, expected {width}"
                )
            normalized_rows.append(tuple(row))
        self.table_id = table_id or ""
        self.header = tuple(header)
        self.rows = tuple(normalized_rows)
        self.metadata = dict(metadata or {})
        self._columns_cache: tuple[Column, ...] | None = None

    # -- basic shape -----------------------------------------------------

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_columns(self) -> int:
        return len(self.header)

    @property
    def num_cells(self) -> int:
        return self.num_rows * self.num_columns

    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_rows, self.num_columns)

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Table(id={self.table_id!r}, rows={self.num_rows}, cols={self.num_columns})"

    # -- column access ---------------------------------------------------

    @property
    def columns(self) -> tuple[Column, ...]:
        """Column views with inferred atomic types (computed lazily)."""
        if self._columns_cache is None:
            columns = []
            for position, name in enumerate(self.header):
                values = [row[position] for row in self.rows]
                columns.append(Column.from_values(name, values))
            self._columns_cache = tuple(columns)
        return self._columns_cache

    def column(self, name: str) -> Column:
        """Return the column named ``name`` (first match)."""
        for column in self.columns:
            if column.name == name:
                return column
        raise KeyError(name)

    def column_index(self, name: str) -> int:
        """Return the position of the column named ``name``."""
        try:
            return self.header.index(name)
        except ValueError as exc:
            raise KeyError(name) from exc

    def iter_rows(self) -> Iterator[tuple[object, ...]]:
        return iter(self.rows)

    # -- schema helpers --------------------------------------------------

    @property
    def schema(self) -> tuple[str, ...]:
        """The table schema: the ordered tuple of column names."""
        return self.header

    def schema_prefix(self, length: int) -> tuple[str, ...]:
        """The first ``length`` attribute names (used by schema completion)."""
        if length < 1:
            raise TableValidationError("schema prefix length must be >= 1")
        return self.header[:length]

    def unnamed_column_fraction(self) -> float:
        """Fraction of columns whose name looks auto-generated/unspecified."""
        if not self.header:
            return 0.0
        unnamed = sum(1 for name in self.header if _is_unnamed(name))
        return unnamed / len(self.header)

    # -- transformation --------------------------------------------------

    def with_metadata(self, **metadata: object) -> "Table":
        """Return a copy of the table with extra metadata entries."""
        merged = dict(self.metadata)
        merged.update(metadata)
        return Table(self.header, self.rows, table_id=self.table_id, metadata=merged)

    def with_column_values(self, name: str, values: Sequence[object]) -> "Table":
        """Return a copy with the values of column ``name`` replaced."""
        position = self.column_index(name)
        if len(values) != self.num_rows:
            raise TableValidationError(
                f"replacement column has {len(values)} values, table has {self.num_rows} rows"
            )
        new_rows = []
        for row, value in zip(self.rows, values):
            row = list(row)
            row[position] = value
            new_rows.append(row)
        return Table(self.header, new_rows, table_id=self.table_id, metadata=self.metadata)

    def head(self, count: int = 5) -> "Table":
        """Return the first ``count`` rows as a new table."""
        return Table(
            self.header, self.rows[:count], table_id=self.table_id, metadata=self.metadata
        )

    def to_dicts(self) -> list[dict[str, object]]:
        """Rows as dictionaries keyed by column name."""
        return [dict(zip(self.header, row)) for row in self.rows]

    @classmethod
    def from_columns(
        cls,
        columns: Mapping[str, Sequence[object]],
        table_id: str | None = None,
        metadata: Mapping[str, object] | None = None,
    ) -> "Table":
        """Build a table from a column-name → values mapping."""
        names = list(columns)
        if not names:
            raise TableValidationError("from_columns requires at least one column")
        lengths = {len(values) for values in columns.values()}
        if len(lengths) > 1:
            raise TableValidationError(f"columns have unequal lengths: {sorted(lengths)}")
        height = lengths.pop() if lengths else 0
        rows = [[columns[name][i] for name in names] for i in range(height)]
        return cls(names, rows, table_id=table_id, metadata=metadata)


def _is_unnamed(name: str) -> bool:
    """True when a column name is empty or an auto-generated placeholder."""
    stripped = name.strip().lower()
    if not stripped:
        return True
    if stripped.startswith("unnamed"):
        return True
    return stripped in {"nan", "none", "null"}
