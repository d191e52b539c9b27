"""Dataset specifications: DS1 / DS2 / DS3 × SMALL / MEDIUM / LARGE.

Paper §VII-A1:

* **DS1** — weekly changes, 104 steps over two years, uniform victims;
* **DS2** — same steps, Gaussian hot-spot victims;
* **DS3** — daily changes, 693 steps, uniform, same *total* change count
  as DS1 (so the number of slices is the variable, not the change
  volume).

Row counts are scaled to interpreter scale (the paper's 12MB-260MB files
correspond to our SMALL/MEDIUM/LARGE row budgets); the *shape* of every
experiment depends on slice counts and relative sizes, which are
preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.sqlengine.values import Date
from repro.taubench import schema
from repro.taubench.generator import CatalogData, generate_catalog
from repro.taubench.simulator import TIMELINE_BEGIN, simulate
from repro.temporal.period import Period
from repro.temporal.stratum import TemporalStratum

SIZES = ["SMALL", "MEDIUM", "LARGE"]
DATASETS = ["DS1", "DS2", "DS3"]

_SIZE_SCALE = {"SMALL": 1, "MEDIUM": 3, "LARGE": 10}
_BASE_ITEMS = 48
_BASE_AUTHORS = 36
_BASE_PUBLISHERS = 10
_BASE_CHANGES = 700  # total changes at SMALL scale (~paper's 25K, scaled)


@dataclass(frozen=True)
class DatasetSpec:
    """One benchmark dataset configuration."""

    name: str  # DS1 / DS2 / DS3
    size: str  # SMALL / MEDIUM / LARGE
    num_steps: int
    step_days: int
    distribution: str
    total_changes: int
    num_items: int
    num_authors: int
    num_publishers: int

    @property
    def key(self) -> str:
        return f"{self.name}.{self.size}"

    @property
    def timeline(self) -> Period:
        """The two-year simulation window."""
        return Period(
            TIMELINE_BEGIN.ordinal,
            TIMELINE_BEGIN.ordinal + self.num_steps * self.step_days + 1,
        )


def dataset_spec(name: str, size: str) -> DatasetSpec:
    name = name.upper()
    size = size.upper()
    if name not in DATASETS:
        raise ValueError(f"unknown dataset {name}; expected one of {DATASETS}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size}; expected one of {SIZES}")
    scale = _SIZE_SCALE[size]
    if name == "DS3":
        num_steps, step_days = 693, 1
    else:
        num_steps, step_days = 104, 7
    return DatasetSpec(
        name=name,
        size=size,
        num_steps=num_steps,
        step_days=step_days,
        distribution="gaussian" if name == "DS2" else "uniform",
        total_changes=_BASE_CHANGES * scale,
        num_items=_BASE_ITEMS * scale,
        num_authors=_BASE_AUTHORS * scale,
        num_publishers=_BASE_PUBLISHERS * scale,
    )


@lru_cache(maxsize=None)
def _simulated_rows(spec: DatasetSpec):
    catalog = generate_catalog(
        spec.num_items, spec.num_authors, spec.num_publishers, seed=42
    )
    return catalog, simulate(
        catalog,
        num_steps=spec.num_steps,
        step_days=spec.step_days,
        total_changes=spec.total_changes,
        distribution=spec.distribution,
        seed=7,
    )


@dataclass
class Dataset:
    """A loaded dataset: the stratum plus workload parameters.

    The probe values below are what the benchmark queries parameterize
    on — the paper notes q2 was changed to search for an author that is
    actually present, to keep results non-empty.
    """

    spec: DatasetSpec
    stratum: TemporalStratum
    probe_author_id: str
    probe_author_first_name: str
    probe_item_id: str
    cold_item_id: str
    cold_author_id: str
    cold_author_first_name: str
    cold_author_last_name: str
    probe_publisher_id: str

    @property
    def timeline(self) -> Period:
        return self.spec.timeline

    def context(self, days: int) -> Period:
        """A temporal context of the given length, centred in year one."""
        begin = TIMELINE_BEGIN.ordinal + 30
        return Period(begin, begin + days)

    def context_bounds(self, days: int) -> tuple[str, str]:
        """:meth:`context` as ISO dates, for a ``VALIDTIME`` clause."""
        period = self.context(days)
        return Date(period.begin).to_iso(), Date(period.end).to_iso()

    def total_rows(self) -> int:
        return sum(
            len(self.stratum.db.catalog.get_table(t)) for t in schema.TABLE_NAMES
        )


def build_dataset(name: str, size: str) -> Dataset:
    """Generate, simulate and load one dataset into a fresh stratum."""
    spec = dataset_spec(name, size)
    return load_dataset(spec)


def load_dataset(spec: DatasetSpec) -> Dataset:
    catalog, tables = _simulated_rows(spec)
    stratum = TemporalStratum()
    schema.create_all(stratum)
    for table_name, rows in tables.items():
        stratum.db.insert_rows(table_name, rows)
    stratum.db.now = Date(TIMELINE_BEGIN.ordinal + 200)
    probe_author = catalog.authors[0]
    # a cold item/author: tied to the first item, far from the DS2
    # hot-spot centre (paper §VII-E: q2/q2b select a non-hot-spot row)
    cold_item_id = catalog.items[0][0]
    cold_author_id = next(
        link[1] for link in catalog.item_author if link[0] == cold_item_id
    )
    cold_author = next(a for a in catalog.authors if a[0] == cold_author_id)
    return Dataset(
        spec=spec,
        stratum=stratum,
        probe_author_id=probe_author[0],
        probe_author_first_name=probe_author[1],
        probe_item_id=catalog.items[len(catalog.items) // 2][0],
        cold_item_id=cold_item_id,
        cold_author_id=cold_author_id,
        cold_author_first_name=cold_author[1],
        cold_author_last_name=cold_author[2],
        probe_publisher_id=catalog.publishers[0][0],
    )
