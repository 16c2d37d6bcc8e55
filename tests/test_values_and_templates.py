"""Unit tests for the synthetic value pools and table templates."""

import pytest

from repro._rand import derive_rng
from repro.dataframe.dtypes import AtomicType, infer_column_type
from repro.github.content import TABLE_TEMPLATES, ColumnSpec, ContentGenerator, GeneratorConfig
from repro.github.values import VALUE_KINDS, ValuePools, generate_values


@pytest.fixture()
def rng():
    return derive_rng(1234, "value-tests")


class TestValueKinds:
    def test_every_kind_generates_requested_count(self, rng):
        for kind in VALUE_KINDS:
            values = generate_values(kind, rng, 7)
            assert len(values) == 7
            assert all(isinstance(value, str) for value in values)

    def test_unknown_kind_rejected(self, rng):
        with pytest.raises(KeyError):
            generate_values("not-a-kind", rng, 3)

    @pytest.mark.parametrize("kind", ["price", "quantity", "count", "score", "age", "salary"])
    def test_numeric_kinds_infer_numeric(self, rng, kind):
        values = generate_values(kind, rng, 30)
        assert infer_column_type(values).is_numeric

    @pytest.mark.parametrize("kind", ["country", "city", "species", "status", "person_name"])
    def test_categorical_kinds_infer_string(self, rng, kind):
        values = generate_values(kind, rng, 30)
        assert infer_column_type(values) is AtomicType.STRING

    def test_date_kind_infers_date(self, rng):
        assert infer_column_type(generate_values("date", rng, 30)) is AtomicType.DATE

    def test_email_values_contain_at_sign(self, rng):
        assert all("@" in value for value in generate_values("email", rng, 10))

    def test_id_values_are_sequential(self, rng):
        values = [int(v) for v in generate_values("id", rng, 10)]
        assert values == list(range(values[0], values[0] + 10))

    def test_country_pool_skews_western(self, rng):
        values = generate_values("country", rng, 2000)
        us_share = sum(value in ("United States", "USA") for value in values) / len(values)
        assert us_share > 0.2

    def test_gender_pool_matches_table6(self, rng):
        values = set(generate_values("gender", rng, 500))
        assert {"Male", "Female"} & values


class TestTemplates:
    def test_all_templates_have_core_and_topics(self):
        for template in TABLE_TEMPLATES:
            assert len(template.core) >= 3
            assert template.topics
            assert template.weight > 0

    def test_all_template_kinds_are_known(self):
        for template in TABLE_TEMPLATES:
            for spec in template.core + template.optional:
                assert spec.kind in VALUE_KINDS, (template.key, spec)

    def test_biology_template_matches_figure2(self):
        biology = next(t for t in TABLE_TEMPLATES if t.key == "biology")
        names = {spec.name for spec in biology.core}
        assert {"Isolate Id", "Species", "Organism Group"} <= names

    def test_orders_template_matches_figure6b(self):
        orders = next(t for t in TABLE_TEMPLATES if t.key == "orders")
        names = {spec.name for spec in orders.core + orders.optional}
        assert {"order_id", "status", "total_price", "product_id"} <= names


class TestGeneratorInternals:
    def test_column_sampling_respects_core(self):
        generator = ContentGenerator(GeneratorConfig(seed=5))
        template = TABLE_TEMPLATES[0]
        columns = generator._sample_columns(template)
        core_names = [spec.name for spec in template.core]
        assert [spec.name for spec in columns[: len(core_names)]] == core_names

    def test_name_mutation_produces_different_name(self):
        generator = ContentGenerator(GeneratorConfig(seed=6))
        mutated = {generator._mutate_name("order date") for _ in range(30)}
        assert any(name != "order date" for name in mutated)

    def test_style_name_variants(self):
        generator = ContentGenerator(GeneratorConfig(seed=7))
        assert generator._style_name("order date", "snake") == "order_date"
        assert generator._style_name("order date", "upper") == "ORDER_DATE"
        assert generator._style_name("order date", "camel") == "orderDate"
        assert generator._style_name("order date", "title") == "Order Date"

    def test_abbreviation_shortens_known_words(self):
        generator = ContentGenerator(GeneratorConfig(seed=8))
        assert generator._abbreviate("quantity") == "qty"
        assert generator._abbreviate("address") == "addr"
        assert len(generator._abbreviate("measurement")) <= 5

    def test_file_topics_include_header_tokens(self):
        generator = ContentGenerator(GeneratorConfig(seed=9))
        template = TABLE_TEMPLATES[1]
        columns = [ColumnSpec("order_id", "id"), ColumnSpec("status", "status")]
        topics = generator._file_topics(template, columns)
        assert "order" in topics and "status" in topics


class TestValuePools:
    def test_pools_are_nonempty(self):
        for name in ("COUNTRIES", "CITIES", "SPECIES", "STATUSES", "FIRST_NAMES"):
            assert getattr(ValuePools, name)

    def test_weighted_pools_have_positive_weights(self):
        for pool in (ValuePools.COUNTRIES, ValuePools.CITIES, ValuePools.GENDERS):
            assert all(weight > 0 for _, weight in pool)
