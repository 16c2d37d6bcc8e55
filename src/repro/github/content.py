"""Synthetic GitHub content generator.

Builds repositories populated with CSV files whose structure follows the
distributions the paper reports for GitTables: long-tailed row/column
counts (mean ≈ 142 rows × 12 columns), ~58% numeric columns, database-like
column names dominated by identifiers, a licensing mix in which only a
minority of repositories carries a redistribution-permitting license, a
small share of forks, and "snapshot" repositories holding many
near-identical files. A configurable fraction of files is deliberately
messy (leading comments, trailing delimiters, bad lines) or unparseable,
exercising the parser's §3.3 rules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._rand import derive_rng
from .licenses import LICENSES, License
from .models import RepoFile, Repository
from .values import generate_values

__all__ = ["ColumnSpec", "TableTemplate", "GeneratorConfig", "ContentGenerator", "TABLE_TEMPLATES"]


@dataclass(frozen=True)
class ColumnSpec:
    """One column of a table template: header name and value kind."""

    name: str
    kind: str


@dataclass(frozen=True)
class TableTemplate:
    """A domain-specific table shape."""

    key: str
    domain: str
    #: Columns always present.
    core: tuple[ColumnSpec, ...]
    #: Columns added as the table gets wider.
    optional: tuple[ColumnSpec, ...]
    #: Relative frequency among generated files.
    weight: float
    #: WordNet-style topic nouns associated with this template (used by
    #: the search index so topic queries surface matching files).
    topics: tuple[str, ...]


def _c(name: str, kind: str) -> ColumnSpec:
    return ColumnSpec(name, kind)


TABLE_TEMPLATES: tuple[TableTemplate, ...] = (
    TableTemplate(
        key="biology",
        domain="noun.animal",
        core=(
            _c("Isolate Id", "id"), _c("Study", "study"), _c("Species", "species"),
            _c("Organism Group", "organism_group"), _c("Country", "country"),
        ),
        optional=(
            _c("State", "state"), _c("Gender", "gender"), _c("Age Group", "age_group"),
            _c("Genus", "genus"), _c("Class", "category"), _c("Year", "year"),
            _c("Sample Count", "count"), _c("Resistance", "percentage"),
            _c("Phenotype", "category"), _c("Measurement", "measurement"),
            _c("Mic Value", "value"),
        ),
        weight=1.2,
        topics=("organism", "species", "sample", "study", "isolate", "animal", "group"),
    ),
    TableTemplate(
        key="orders",
        domain="noun.possession",
        core=(
            _c("order_id", "id"), _c("order_date", "date"), _c("status", "status"),
            _c("quantity", "quantity"), _c("total_price", "price"),
        ),
        optional=(
            _c("product_id", "id"), _c("customer_id", "id"), _c("required_date", "date"),
            _c("shipped_date", "date"), _c("discount", "percentage"),
            _c("currency", "currency"), _c("tracking_number", "code"),
            _c("warehouse", "category"), _c("unit_price", "price"), _c("tax", "amount"),
        ),
        weight=1.5,
        topics=("order", "sale", "sales", "product", "price", "payment", "transaction", "id"),
    ),
    TableTemplate(
        key="products",
        domain="noun.artifact",
        core=(
            _c("product_id", "id"), _c("name", "product"), _c("price", "price"),
            _c("category", "category"),
        ),
        optional=(
            _c("brand", "brand"), _c("stock", "quantity"), _c("sku", "code"),
            _c("rating", "rating"), _c("weight", "weight"), _c("description", "description"),
            _c("supplier", "brand"), _c("discount", "percentage"), _c("url", "url"),
            _c("currency", "currency"), _c("reorder_level", "count"),
        ),
        weight=1.3,
        topics=("product", "item", "inventory", "stock", "price", "brand", "store"),
    ),
    TableTemplate(
        key="employees",
        domain="noun.person",
        core=(
            _c("emp_no", "id"), _c("first_name", "first_name"), _c("last_name", "last_name"),
            _c("hire_date", "date"),
        ),
        optional=(
            _c("address", "address"), _c("gender", "gender"), _c("salary", "salary"),
            _c("birth_date", "birth_date"), _c("email", "email"), _c("city", "city"),
            _c("country", "country"), _c("title", "job_title"), _c("department", "department"),
            _c("phone", "phone"), _c("manager_id", "id"), _c("status", "status"),
        ),
        weight=1.2,
        topics=("employee", "person", "people", "worker", "name", "salary", "job", "id"),
    ),
    TableTemplate(
        key="sensor",
        domain="noun.phenomenon",
        core=(
            _c("timestamp", "timestamp"), _c("sensor_id", "id"), _c("value", "value"),
        ),
        optional=(
            _c("temperature", "temperature"), _c("humidity", "humidity"),
            _c("pressure", "pressure"), _c("unit", "unit"), _c("status", "status"),
            _c("battery", "percentage"), _c("latitude", "latitude"),
            _c("longitude", "longitude"), _c("min", "min"), _c("max", "max"),
            _c("mean", "mean"), _c("error", "error"), _c("station", "code"),
        ),
        weight=1.4,
        topics=("sensor", "measurement", "temperature", "time", "value", "observation",
                "station", "device", "weather"),
    ),
    TableTemplate(
        key="sports",
        domain="noun.act",
        core=(
            _c("team", "team"), _c("player", "person_name"), _c("position", "position"),
            _c("points", "points"),
        ),
        optional=(
            _c("goals", "goals"), _c("wins", "wins"), _c("losses", "losses"),
            _c("season", "year"), _c("rank", "rank"), _c("matches", "count"),
            _c("age", "age"), _c("nationality", "nationality"), _c("height", "height"),
            _c("salary", "salary"), _c("club", "team"),
        ),
        weight=1.0,
        topics=("sport", "game", "match", "team", "player", "league", "score", "season"),
    ),
    TableTemplate(
        key="geo",
        domain="noun.location",
        core=(
            _c("country", "country"), _c("city", "city"), _c("latitude", "latitude"),
            _c("longitude", "longitude"),
        ),
        optional=(
            _c("population", "population"), _c("area", "area"), _c("region", "state"),
            _c("capital", "city"), _c("elevation", "distance"), _c("postal_code", "postcode"),
            _c("country_code", "code"), _c("time_zone", "category"), _c("density", "value"),
        ),
        weight=0.9,
        topics=("country", "city", "place", "location", "region", "population", "area", "map"),
    ),
    TableTemplate(
        key="issues",
        domain="noun.communication",
        core=(
            _c("id", "id"), _c("title", "title"), _c("status", "status"),
            _c("created", "timestamp"),
        ),
        optional=(
            _c("updated", "timestamp"), _c("author", "person_name"), _c("priority", "priority"),
            _c("label", "category"), _c("comment", "comment"), _c("assignee", "person_name"),
            _c("milestone", "code"), _c("closed", "boolean"), _c("url", "url"),
            _c("line", "line"), _c("version", "code"),
        ),
        weight=1.4,
        topics=("issue", "ticket", "task", "project", "bug", "comment", "status", "id",
                "software", "version"),
    ),
    TableTemplate(
        key="finance",
        domain="noun.possession",
        core=(
            _c("transaction_id", "id"), _c("date", "date"), _c("amount", "amount"),
            _c("balance", "amount"),
        ),
        optional=(
            _c("account_id", "id"), _c("currency", "currency"), _c("type", "category"),
            _c("description", "description"), _c("fee", "price"), _c("status", "status"),
            _c("merchant", "brand"), _c("category", "category"), _c("reference", "code"),
        ),
        weight=1.0,
        topics=("transaction", "account", "money", "amount", "bank", "payment", "balance",
                "finance", "budget"),
    ),
    TableTemplate(
        key="education",
        domain="noun.act",
        core=(
            _c("student_id", "id"), _c("name", "person_name"), _c("course", "course"),
            _c("grade", "grade"),
        ),
        optional=(
            _c("class", "category"), _c("score", "score"), _c("year", "year"),
            _c("school", "department"), _c("teacher", "person_name"), _c("credits", "count"),
            _c("semester", "category"), _c("email", "email"), _c("age", "age"),
            _c("attendance", "percentage"),
        ),
        weight=0.9,
        topics=("student", "course", "school", "grade", "education", "exam", "class", "score"),
    ),
    TableTemplate(
        key="media",
        domain="noun.communication",
        core=(
            _c("title", "title"), _c("artist", "artist"), _c("year", "year"),
            _c("genre", "genre"),
        ),
        optional=(
            _c("album", "title"), _c("duration", "duration"), _c("rating", "rating"),
            _c("lyrics", "lyrics"), _c("language", "language"), _c("plays", "count"),
            _c("label", "brand"), _c("track", "rank"), _c("url", "url"),
        ),
        weight=0.8,
        topics=("song", "music", "artist", "album", "film", "movie", "title", "genre", "lyrics"),
    ),
    TableTemplate(
        key="experiment",
        domain="noun.act",
        core=(
            _c("id", "id"), _c("run", "count"), _c("parameter", "category"),
            _c("value", "value"),
        ),
        optional=(
            _c("iteration", "count"), _c("min", "min"), _c("max", "max"), _c("mean", "mean"),
            _c("error", "error"), _c("time", "timestamp"), _c("epoch", "count"),
            _c("loss", "error"), _c("accuracy", "percentage"), _c("seed", "count"),
            _c("model", "code"), _c("dataset", "category"), _c("metric", "value"),
        ),
        weight=1.3,
        topics=("experiment", "test", "result", "value", "model", "parameter", "measurement",
                "analysis", "iteration", "dataset", "thing", "object"),
    ),
    TableTemplate(
        key="census",
        domain="noun.group",
        core=(
            _c("region", "state"), _c("population", "population"), _c("gender", "gender"),
            _c("age_group", "age_group"),
        ),
        optional=(
            _c("country", "country"), _c("city", "city"), _c("ethnicity", "ethnicity"),
            _c("race", "race"), _c("nationality", "nationality"), _c("income", "salary"),
            _c("households", "count"), _c("year", "year"), _c("education", "category"),
        ),
        weight=0.35,
        topics=("population", "census", "people", "group", "community", "gender",
                "ethnicity", "race", "country"),
    ),
    TableTemplate(
        key="vehicles",
        domain="noun.artifact",
        core=(
            _c("vehicle_id", "id"), _c("model", "product"), _c("year", "year"),
            _c("price", "price"),
        ),
        optional=(
            _c("brand", "brand"), _c("mileage", "distance"), _c("fuel", "category"),
            _c("color", "category"), _c("owner", "person_name"), _c("registration", "code"),
            _c("weight", "weight"), _c("engine", "code"), _c("status", "status"),
        ),
        weight=0.7,
        topics=("vehicle", "car", "engine", "model", "fuel", "price", "object", "thing"),
    ),
)

#: Generic filler columns appended when a table is wider than its
#: template; their names mimic the unnamed/auto-generated columns and
#: generic measures common in database exports.
_FILLER_COLUMNS: tuple[ColumnSpec, ...] = (
    _c("value", "value"), _c("count", "count"), _c("flag", "boolean"),
    _c("code", "code"), _c("note", "note"), _c("score", "score"),
    _c("ratio", "percentage"), _c("total", "amount"), _c("delta", "error"),
    _c("index", "rank"), _c("group", "category"), _c("label", "category"),
    _c("x", "value"), _c("y", "value"), _c("z", "value"),
    _c("field_1", "value"), _c("field_2", "value"), _c("field_3", "count"),
    _c("col_a", "measurement"), _c("col_b", "measurement"), _c("col_c", "count"),
    _c("extra", "note"), _c("misc", "code"), _c("ref", "code"),
)

#: Per-kind value-style variants: a column whose spec kind is the key is
#: generated with one of the alternative kinds some of the time, giving
#: the corpus within-type heterogeneity (real "status" columns are
#: sometimes words, sometimes numeric codes; "class" columns range from
#: categories to grades). Tuples are (kind, probability).
_KIND_VARIANTS: dict[str, tuple[tuple[str, float], ...]] = {
    "status": (("status", 0.7), ("count", 0.2), ("boolean", 0.1)),
    "category": (("category", 0.6), ("priority", 0.2), ("grade", 0.1), ("count", 0.1)),
    "description": (("description", 0.6), ("comment", 0.25), ("title", 0.15)),
    "address": (("address", 0.7), ("city", 0.3)),
    "person_name": (("person_name", 0.7), ("first_name", 0.2), ("last_name", 0.1)),
    "product": (("product", 0.7), ("title", 0.3)),
}

_NAMING_STYLES = ("snake", "lower", "camel", "title", "upper", "original")

_OWNER_PREFIXES = (
    "data", "open", "lab", "dev", "research", "ml", "geo", "bio", "civic", "city",
    "uni", "team", "project", "the", "py",
)
_OWNER_SUFFIXES = (
    "hub", "works", "lab", "group", "collective", "systems", "analytics", "io",
    "society", "team", "dev", "org",
)
_REPO_WORDS = (
    "data", "analysis", "pipeline", "dashboard", "scraper", "exports", "records",
    "tracker", "archive", "snapshots", "results", "models", "study", "survey",
    "catalog", "inventory", "monitor", "stats", "reports", "collection",
)


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the synthetic GitHub content generator."""

    #: Number of repositories to create.
    n_repositories: int = 600
    #: Mean number of CSV files per (non-snapshot) repository.
    mean_files_per_repo: float = 3.5
    #: Mean rows per table (long-tailed lognormal around this mean).
    mean_rows: float = 142.0
    #: Mean columns per table.
    mean_cols: float = 12.0
    #: Fraction of repositories that are forks (duplicating another repo's files).
    fork_fraction: float = 0.08
    #: Fraction of repositories carrying no license at all.
    no_license_fraction: float = 0.70
    #: Fraction of repositories that are "snapshot" repos with many files.
    snapshot_repo_fraction: float = 0.03
    #: Probability a file starts with comment/blank preamble lines.
    comment_preamble_probability: float = 0.10
    #: Probability a file carries a redundant trailing delimiter.
    trailing_delimiter_probability: float = 0.06
    #: Probability a file contains a few bad (mis-delimited) lines.
    bad_lines_probability: float = 0.08
    #: Probability a file is entirely unparseable (paper: 0.7% fail to parse).
    unparseable_probability: float = 0.007
    #: Probability a table contains a social-media column (filtered later).
    social_media_probability: float = 0.012
    #: Probability a table has too many unnamed columns (filtered later).
    unnamed_columns_probability: float = 0.02
    #: Probability a tiny (sub-minimum) table is generated (filtered later).
    tiny_table_probability: float = 0.03
    #: Probability a column name is mutated into a messier real-world form
    #: (abbreviation, prefix, suffix) that no longer matches an ontology
    #: label exactly. Drives the gap between syntactic and semantic
    #: annotation coverage (paper: 26% vs 71%).
    name_mutation_probability: float = 0.72
    #: Geometric decay applied to the inclusion probability of successive
    #: optional template columns (later columns are rarer).
    optional_column_decay: float = 0.78
    #: Delimiters and their sampling weights.
    delimiters: tuple[tuple[str, float], ...] = ((",", 0.82), (";", 0.10), ("\t", 0.06), ("|", 0.02))
    #: RNG seed.
    seed: int = 20230530

    @classmethod
    def small(cls, seed: int = 20230530) -> "GeneratorConfig":
        """A configuration sized for fast tests."""
        return cls(n_repositories=80, mean_rows=40.0, mean_cols=8.0, seed=seed)

    def scaled_to_files(self, target_files: int) -> "GeneratorConfig":
        """Return a copy sized so roughly ``target_files`` files exist."""
        repos = max(10, int(target_files / max(self.mean_files_per_repo, 1.0)))
        return GeneratorConfig(
            n_repositories=repos,
            mean_files_per_repo=self.mean_files_per_repo,
            mean_rows=self.mean_rows,
            mean_cols=self.mean_cols,
            fork_fraction=self.fork_fraction,
            no_license_fraction=self.no_license_fraction,
            snapshot_repo_fraction=self.snapshot_repo_fraction,
            comment_preamble_probability=self.comment_preamble_probability,
            trailing_delimiter_probability=self.trailing_delimiter_probability,
            bad_lines_probability=self.bad_lines_probability,
            unparseable_probability=self.unparseable_probability,
            social_media_probability=self.social_media_probability,
            unnamed_columns_probability=self.unnamed_columns_probability,
            tiny_table_probability=self.tiny_table_probability,
            name_mutation_probability=self.name_mutation_probability,
            optional_column_decay=self.optional_column_decay,
            delimiters=self.delimiters,
            seed=self.seed,
        )


class ContentGenerator:
    """Generates repositories and CSV files for the GitHub simulator."""

    def __init__(self, config: GeneratorConfig | None = None) -> None:
        self.config = config or GeneratorConfig()
        self._rng = derive_rng(self.config.seed, "github-content")
        weights = np.array([template.weight for template in TABLE_TEMPLATES])
        self._template_probs = weights / weights.sum()
        license_weights = np.array([license.weight for license in LICENSES])
        self._license_probs = license_weights / license_weights.sum()

    # -- repository level -------------------------------------------------

    def generate_repositories(self) -> list[Repository]:
        """Generate the full set of repositories (including forks)."""
        config = self.config
        repositories: list[Repository] = []
        n_originals = max(1, int(config.n_repositories * (1.0 - config.fork_fraction)))
        for index in range(n_originals):
            repositories.append(self._generate_repository(index))

        n_forks = config.n_repositories - n_originals
        for fork_index in range(n_forks):
            source = repositories[int(self._rng.integers(0, n_originals))]
            fork = Repository(
                owner=self._owner_name(n_originals + fork_index),
                name=source.name,
                license=source.license,
                is_fork=True,
                forked_from=source.full_name,
                files=list(source.files),
                domain=source.domain,
            )
            repositories.append(fork)
        return repositories

    def _owner_name(self, index: int) -> str:
        prefix = _OWNER_PREFIXES[int(self._rng.integers(0, len(_OWNER_PREFIXES)))]
        suffix = _OWNER_SUFFIXES[int(self._rng.integers(0, len(_OWNER_SUFFIXES)))]
        return f"{prefix}-{suffix}-{index}"

    def _repo_name(self) -> str:
        first = _REPO_WORDS[int(self._rng.integers(0, len(_REPO_WORDS)))]
        second = _REPO_WORDS[int(self._rng.integers(0, len(_REPO_WORDS)))]
        return f"{first}-{second}"

    def _sample_license(self) -> License | None:
        if self._rng.random() < self.config.no_license_fraction:
            return None
        pick = int(self._rng.choice(len(LICENSES), p=self._license_probs))
        return LICENSES[pick]

    def _generate_repository(self, index: int) -> Repository:
        config = self.config
        template_pick = int(self._rng.choice(len(TABLE_TEMPLATES), p=self._template_probs))
        template = TABLE_TEMPLATES[template_pick]
        repository = Repository(
            owner=self._owner_name(index),
            name=self._repo_name(),
            license=self._sample_license(),
            domain=template.domain,
        )
        if self._rng.random() < config.snapshot_repo_fraction:
            n_files = int(self._rng.integers(15, 45))
            snapshot = True
        else:
            n_files = max(1, int(self._rng.poisson(config.mean_files_per_repo)))
            snapshot = False

        # Snapshot repos reuse a single column layout across all files;
        # other repos mix templates with a bias towards the repo's own.
        snapshot_columns = self._sample_columns(template) if snapshot else None
        for file_index in range(n_files):
            file_template = template
            if not snapshot and self._rng.random() < 0.35:
                other = int(self._rng.choice(len(TABLE_TEMPLATES), p=self._template_probs))
                file_template = TABLE_TEMPLATES[other]
            columns = snapshot_columns or self._sample_columns(file_template)
            repo_file = self._generate_file(file_template, columns, file_index, snapshot)
            repository.add_file(repo_file)
        return repository

    # -- table / file level ------------------------------------------------

    def _sample_columns(self, template: TableTemplate) -> list[ColumnSpec]:
        config = self.config
        # Lognormal column count with the configured mean and a long tail.
        sigma = 0.55
        mu = float(np.log(max(config.mean_cols, 2.0))) - sigma**2 / 2
        n_cols = int(np.clip(round(self._rng.lognormal(mu, sigma)), 2, 60))

        columns = list(template.core)
        # Optional columns are included with geometrically decaying
        # probability, so later (rarer, often PII-bearing) template
        # columns appear in only a small share of tables.
        decay = config.optional_column_decay
        for index, spec in enumerate(template.optional):
            if len(columns) >= n_cols:
                break
            if self._rng.random() < decay ** (index + 1):
                columns.append(spec)
        # Start the filler cycle at a random offset so no single filler
        # name dominates the corpus-wide column-name distribution.
        filler_index = int(self._rng.integers(0, len(_FILLER_COLUMNS)))
        used = 0
        while len(columns) < n_cols:
            filler = _FILLER_COLUMNS[filler_index % len(_FILLER_COLUMNS)]
            suffix = used // len(_FILLER_COLUMNS)
            name = filler.name if suffix == 0 else f"{filler.name}_{suffix}"
            columns.append(ColumnSpec(name, filler.kind))
            filler_index += 1
            used += 1
        return columns[:n_cols]

    _NAME_PREFIXES = ("raw", "src", "db", "tbl", "old", "new", "tmp", "orig", "main")
    _NAME_SUFFIXES = ("val", "fld", "col", "attr", "info", "data", "str", "num")

    def _abbreviate(self, token: str) -> str:
        """Abbreviate a token the way real schemas do (qty, amt, dt, ...)."""
        known = {
            "quantity": "qty", "amount": "amt", "number": "num", "date": "dt",
            "description": "descr", "address": "addr", "average": "avg",
            "temperature": "temp", "department": "dept", "category": "cat",
            "percentage": "pct", "reference": "ref", "account": "acct",
            "transaction": "txn", "customer": "cust", "product": "prod",
            "position": "pos", "latitude": "lat", "longitude": "lon",
            "population": "pop", "measurement": "meas", "pressure": "press",
        }
        if token.lower() in known:
            return known[token.lower()]
        if len(token) <= 4:
            return token
        # Drop vowels after the first character, keep at most 5 characters.
        head, rest = token[0], token[1:]
        consonants = "".join(char for char in rest if char.lower() not in "aeiou")
        return (head + consonants)[:5]

    def _mutate_name(self, name: str) -> str:
        """Turn a clean column name into a messier real-world variant."""
        tokens = name.replace("-", " ").replace("_", " ").split()
        if not tokens:
            return name
        roll = self._rng.random()
        if roll < 0.40:
            mutated = [self._abbreviate(token) for token in tokens]
            return "_".join(mutated)
        if roll < 0.65:
            prefix = self._NAME_PREFIXES[int(self._rng.integers(0, len(self._NAME_PREFIXES)))]
            return "_".join([prefix, *tokens])
        if roll < 0.85:
            suffix = self._NAME_SUFFIXES[int(self._rng.integers(0, len(self._NAME_SUFFIXES)))]
            return "_".join([*tokens, suffix])
        # Glue the tokens together without separators ("orderdate").
        return "".join(tokens)

    def _style_name(self, name: str, style: str) -> str:
        tokens = name.replace("-", " ").replace("_", " ").split()
        if not tokens:
            return name
        if style == "snake":
            return "_".join(token.lower() for token in tokens)
        if style == "lower":
            return " ".join(token.lower() for token in tokens)
        if style == "camel":
            head, *rest = tokens
            return head.lower() + "".join(token.capitalize() for token in rest)
        if style == "title":
            return " ".join(token.capitalize() for token in tokens)
        if style == "upper":
            return "_".join(token.upper() for token in tokens)
        return name

    def _sample_rows(self) -> int:
        sigma = 1.1
        mu = float(np.log(max(self.config.mean_rows, 2.0))) - sigma**2 / 2
        return int(np.clip(round(self._rng.lognormal(mu, sigma)), 1, 12000))

    def _generate_file(
        self,
        template: TableTemplate,
        columns: list[ColumnSpec],
        file_index: int,
        snapshot: bool,
    ) -> RepoFile:
        config = self.config
        rng = self._rng

        if rng.random() < config.unparseable_probability:
            return self._generate_unparseable_file(template, file_index)

        columns = list(columns)
        if rng.random() < config.social_media_probability:
            columns.append(ColumnSpec("twitter_handle", "twitter_handle"))
        unnamed_heavy = rng.random() < config.unnamed_columns_probability

        n_rows = self._sample_rows()
        if rng.random() < config.tiny_table_probability:
            n_rows = int(rng.integers(0, 2))
        style = _NAMING_STYLES[int(rng.integers(0, len(_NAMING_STYLES)))]

        header: list[str] = []
        for position, spec in enumerate(columns):
            if unnamed_heavy and position >= max(1, len(columns) // 3):
                header.append("")
                continue
            name = spec.name
            if rng.random() < config.name_mutation_probability:
                name = self._mutate_name(name)
            header.append(self._style_name(name, style))

        column_values = []
        for spec in columns:
            kind = spec.kind
            variants = _KIND_VARIANTS.get(kind)
            if variants is not None:
                roll = rng.random()
                cumulative = 0.0
                for variant_kind, probability in variants:
                    cumulative += probability
                    if roll < cumulative:
                        kind = variant_kind
                        break
            column_values.append(generate_values(kind, rng, n_rows))

        delimiter = self._sample_delimiter()
        lines: list[str] = []
        if rng.random() < config.comment_preamble_probability:
            lines.append("# exported from internal database")
            lines.append("")
        trailing = rng.random() < config.trailing_delimiter_probability
        suffix = delimiter if trailing else ""

        def escape(cell: str) -> str:
            # Quote cells containing the delimiter, as real CSV writers do;
            # a small share of files is left unquoted on purpose (they end
            # up with mis-aligned rows the parser drops as bad lines).
            if delimiter in cell and rng.random() > 0.05:
                return '"' + cell.replace('"', '""') + '"'
            return cell

        lines.append(delimiter.join(escape(name) for name in header) + suffix)
        for row_index in range(n_rows):
            cells = [escape(column_values[c][row_index]) for c in range(len(columns))]
            lines.append(delimiter.join(cells) + suffix)

        if n_rows > 3 and rng.random() < config.bad_lines_probability:
            n_bad = int(rng.integers(1, 3))
            # Never insert before the header line (preamble + header), so
            # bad lines corrupt individual rows rather than the whole file.
            first_data_line = len(lines) - n_rows + 1
            for _ in range(n_bad):
                insert_at = int(rng.integers(first_data_line, len(lines) + 1))
                lines.insert(insert_at, delimiter.join(["corrupt"] * (len(columns) + 2)))

        content = "\n".join(lines) + "\n"
        topics = self._file_topics(template, columns)
        prefix = "snapshots/day" if snapshot else "data/export"
        path = f"{prefix}_{template.key}_{file_index}.csv"
        return RepoFile(path=path, content=content, topics=topics)

    def _generate_unparseable_file(self, template: TableTemplate, file_index: int) -> RepoFile:
        """A file the CSV parser should reject (free text, no delimiters)."""
        words = ["lorem", "ipsum", "dolor", "sit", "amet", "raw", "dump", "notes"]
        n_lines = int(self._rng.integers(3, 12))
        lines = []
        for _ in range(n_lines):
            count = int(self._rng.integers(1, 4))
            picks = self._rng.integers(0, len(words), size=count)
            lines.append(" ".join(words[i] for i in picks))
        content = "\n".join(lines) + "\n"
        return RepoFile(
            path=f"notes/raw_{template.key}_{file_index}.csv",
            content=content,
            topics=frozenset({"note", "text"}),
        )

    def _sample_delimiter(self) -> str:
        choices = [d for d, _ in self.config.delimiters]
        weights = np.array([w for _, w in self.config.delimiters])
        weights = weights / weights.sum()
        return choices[int(self._rng.choice(len(choices), p=weights))]

    def _file_topics(self, template: TableTemplate, columns: list[ColumnSpec]) -> frozenset[str]:
        topics = set(template.topics)
        for spec in columns:
            for token in spec.name.replace("-", " ").replace("_", " ").lower().split():
                topics.add(token)
        return frozenset(topics)
