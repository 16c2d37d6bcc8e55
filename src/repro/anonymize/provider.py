"""Deterministic fake data provider (Faker substitute).

Provides the generator classes referenced by paper Table 3:
``faker.name``, ``faker.address``, ``faker.email``, ``faker.date``,
``faker.city`` and ``faker.postcode``. Values are drawn from embedded
word lists with a seeded RNG so anonymisation is reproducible.
"""

from __future__ import annotations

from .._rand import derive_rng

__all__ = ["FakeDataProvider"]

_FIRST_NAMES = (
    "Alex", "Jordan", "Taylor", "Morgan", "Casey", "Riley", "Jamie", "Avery",
    "Quinn", "Rowan", "Skyler", "Emerson", "Finley", "Harper", "Reese", "Dakota",
    "Elliot", "Hayden", "Kendall", "Logan", "Marion", "Noel", "Parker", "Sage",
)
_LAST_NAMES = (
    "Smith", "Johnson", "Williams", "Brown", "Jones", "Garcia", "Miller", "Davis",
    "Martinez", "Lopez", "Wilson", "Anderson", "Thomas", "Moore", "Martin", "Lee",
    "Thompson", "White", "Harris", "Clark", "Lewis", "Walker", "Hall", "Young",
)
_STREET_NAMES = (
    "Maple", "Oak", "Cedar", "Pine", "Elm", "Willow", "Birch", "Chestnut",
    "Juniper", "Magnolia", "Sycamore", "Aspen", "Laurel", "Hawthorn",
)
_STREET_SUFFIXES = ("Street", "Avenue", "Lane", "Road", "Boulevard", "Drive", "Court")
_CITIES = (
    "Springfield", "Riverton", "Fairview", "Lakeside", "Greenville", "Bristol",
    "Clinton", "Georgetown", "Salem", "Madison", "Arlington", "Ashland",
    "Burlington", "Clayton", "Dayton", "Franklin", "Milton", "Oxford",
)
_EMAIL_DOMAINS = ("example.com", "example.org", "example.net", "mail.example", "post.example")


class FakeDataProvider:
    """Deterministic generator of fake PII replacement values.

    The default stream is sequential per provider instance; callers that
    need values to be reproducible *independent of generation order*
    (e.g. the PII scrubber, whose tables may be processed by different
    build sessions) should draw from :meth:`keyed` sub-providers.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = derive_rng(seed, "fake-data-provider")

    def keyed(self, *key: object) -> "FakeDataProvider":
        """A provider whose stream depends only on (seed, key).

        Two keyed providers with the same seed and key generate identical
        sequences no matter how much either parent has generated — the
        property that makes PII scrubbing stable across resumed corpus
        builds, where some tables are skipped rather than re-scrubbed.
        """
        provider = FakeDataProvider(seed=self.seed)
        provider._rng = derive_rng(self.seed, "fake-data-provider", *key)
        return provider

    def _choice(self, options: tuple[str, ...]) -> str:
        return str(options[int(self._rng.integers(0, len(options)))])

    # Generator methods named after the Faker classes in paper Table 3. --

    def name(self) -> str:
        """A fake person name (``faker.name``)."""
        return f"{self._choice(_FIRST_NAMES)} {self._choice(_LAST_NAMES)}"

    def address(self) -> str:
        """A fake street address (``faker.address``)."""
        number = int(self._rng.integers(1, 9999))
        return f"{number} {self._choice(_STREET_NAMES)} {self._choice(_STREET_SUFFIXES)}"

    def email(self) -> str:
        """A fake email address (``faker.email``)."""
        first = self._choice(_FIRST_NAMES).lower()
        last = self._choice(_LAST_NAMES).lower()
        return f"{first}.{last}@{self._choice(_EMAIL_DOMAINS)}"

    def date(self) -> str:
        """A fake ISO date (``faker.date``)."""
        year = int(self._rng.integers(1950, 2021))
        month = int(self._rng.integers(1, 13))
        day = int(self._rng.integers(1, 29))
        return f"{year:04d}-{month:02d}-{day:02d}"

    def city(self) -> str:
        """A fake city name (``faker.city``)."""
        return self._choice(_CITIES)

    def postcode(self) -> str:
        """A fake postal code (``faker.postcode``)."""
        return f"{int(self._rng.integers(10000, 99999))}"

    #: Mapping from Faker class names (as written in the paper's Table 3)
    #: to provider method names.
    _CLASS_TO_METHOD = {
        "faker.name": "name",
        "faker.address": "address",
        "faker.email": "email",
        "faker.date": "date",
        "faker.city": "city",
        "faker.postcode": "postcode",
    }

    def generate(self, faker_class: str) -> str:
        """Generate a value for a Faker class name like ``"faker.email"``."""
        method_name = self._CLASS_TO_METHOD.get(faker_class)
        if method_name is None:
            raise ValueError(f"unknown faker class {faker_class!r}")
        return getattr(self, method_name)()

    def generate_column(self, faker_class: str, count: int) -> list[str]:
        """Generate ``count`` values for a Faker class."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return [self.generate(faker_class) for _ in range(count)]
