"""Synthetic T2Dv2-style gold standard (paper §4.3).

T2Dv2 is a hand-labelled subset of WDC WebTables whose columns carry gold
DBpedia types. The paper evaluates both annotation methods against it:
the semantic method agrees with the gold label for 54% of columns, the
syntactic method for 61%, and a manual review shows that many
disagreements are actually granularity mismatches where GitTables'
annotation is the more specific one (e.g. gold ``location`` for a column
of cities the semantic method calls ``city``).

The synthetic benchmark reproduces that structure: every column has a
true fine-grained type; the *gold* label equals the true type for most
columns but is deliberately coarsened to the parent type (or an
alternative plausible label) for a configurable share of columns, which
is what produces the paper's agreement levels and its "T2Dv2 may need a
review" observation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .._rand import derive_rng
from ..dataframe.table import Table
from ..github.values import generate_values

__all__ = ["T2Dv2Column", "T2Dv2Benchmark", "build_t2dv2"]


@dataclass(frozen=True)
class T2Dv2Column:
    """One gold-annotated column of the benchmark."""

    table_id: str
    column_name: str
    values: tuple
    #: The gold DBpedia label as published by (the synthetic) T2Dv2.
    gold_type: str
    #: The fine-grained type actually realised by the column values;
    #: equals ``gold_type`` unless the gold label was coarsened.
    true_type: str

    @property
    def gold_is_coarsened(self) -> bool:
        return self.gold_type != self.true_type


@dataclass
class T2Dv2Benchmark:
    """A collection of gold-annotated Web-table columns."""

    columns: list[T2Dv2Column] = field(default_factory=list)
    tables: list[Table] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.columns)

    def coarsened_fraction(self) -> float:
        if not self.columns:
            return 0.0
        return sum(column.gold_is_coarsened for column in self.columns) / len(self.columns)


#: (canonical column name, alternative header spellings, value kind,
#: fine type, coarse/alternative gold type). Alternative spellings are
#: realistic Web-table headers that do not match any ontology label
#: exactly, which is what separates the syntactic and semantic methods'
#: agreement levels in §4.3.
_T2D_COLUMN_SPECS: tuple[tuple[str, tuple[str, ...], str, str, str], ...] = (
    ("City", ("City name", "Town/City"), "city", "city", "location"),
    ("Country", ("Country name", "Country of origin"), "country", "country", "place"),
    ("Name", ("Full name", "Name of person"), "person_name", "name", "name"),
    ("Title", ("Official title",), "title", "title", "title"),
    ("Artist", ("Performing artist", "Recording artist"), "artist", "artist", "person"),
    ("Year", ("Year released",), "year", "year", "date"),
    ("Date", ("Date of event",), "date", "date", "date"),
    ("Latin name", ("Scientific name",), "species", "latin name", "synonym"),
    ("Population", ("Population (2010)", "Inhabitants"), "population", "population", "population"),
    ("Area", ("Area (km2)", "Surface area"), "area", "area", "size"),
    ("Team", ("Team name", "Squad"), "team", "team", "club"),
    ("Author", ("Written by",), "person_name", "author", "writer"),
    ("Genre", ("Musical genre",), "genre", "genre", "category"),
    ("Language", ("Original language",), "language", "language", "language"),
    ("Status", ("Current status",), "status", "status", "state"),
    ("Address", ("Street address", "Location address"), "address", "address", "location"),
    ("Email", ("E-mail", "Contact email"), "email", "email", "email"),
    ("Price", ("List price", "Price (USD)"), "price", "price", "cost"),
    ("Elevation", ("Elevation (m)",), "distance", "elevation", "altitude"),
    ("Capital", ("Capital city",), "city", "capital", "city"),
    ("Description", ("Short description",), "description", "description", "abstract"),
    ("Director", ("Directed by",), "person_name", "director", "person"),
    ("Album", ("Album title",), "title", "album", "album"),
    ("Rank", ("Overall rank",), "rank", "rank", "number"),
    ("Weight", ("Weight (kg)",), "weight", "weight", "mass"),
)


def build_t2dv2(
    n_tables: int = 60,
    rows_per_table: int = 18,
    columns_per_table: int = 4,
    coarsen_probability: float = 0.35,
    header_variation_probability: float = 0.4,
    seed: int = 11,
) -> T2Dv2Benchmark:
    """Build the synthetic T2Dv2 benchmark.

    ``coarsen_probability`` controls how often the published gold label is
    the coarser/alternative label rather than the fine-grained one;
    ``header_variation_probability`` controls how often a column uses a
    messy real-world header spelling instead of the canonical one. The
    defaults reproduce agreement levels in the half-to-three-quarters
    range the paper reports for its annotators.
    """
    rng = derive_rng(seed, "t2dv2")
    benchmark = T2Dv2Benchmark()
    for index in range(n_tables):
        picks = rng.choice(len(_T2D_COLUMN_SPECS), size=min(columns_per_table, len(_T2D_COLUMN_SPECS)), replace=False)
        header: list[str] = []
        columns: dict[str, list] = {}
        table_id = f"t2dv2-{index:04d}"
        gold_columns: list[T2Dv2Column] = []
        for pick in picks:
            canonical, alternatives, kind, fine_type, coarse_type = _T2D_COLUMN_SPECS[pick]
            column_name = canonical
            if alternatives and rng.random() < header_variation_probability:
                column_name = alternatives[int(rng.integers(0, len(alternatives)))]
            values = generate_values(kind, rng, rows_per_table)
            header.append(column_name)
            columns[column_name] = values
            coarsened = rng.random() < coarsen_probability and coarse_type != fine_type
            gold_columns.append(
                T2Dv2Column(
                    table_id=table_id,
                    column_name=column_name,
                    values=tuple(values),
                    gold_type=coarse_type if coarsened else fine_type,
                    true_type=fine_type,
                )
            )
        table = Table.from_columns(columns, table_id=table_id, metadata={"source": "t2dv2"})
        benchmark.tables.append(table)
        benchmark.columns.extend(gold_columns)
    return benchmark
