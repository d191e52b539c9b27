"""The τPSM transformations, pinned: a refactor of the analysis that
feeds them must leave every output byte-identical.

DS1-SMALL, context [2010-02-01, 2010-03-01), all sixteen τPSM queries.
For each query: a blake2b of the MAX and PERST candidates' ``to_sql()``
(PERST's refusals of q8 and q17b verbatim), the clones' ``(name, window_param)``
— ``Catalog.write_free`` decides the window parameter — PERST's
constant-period tables, and the §VII-F rule ``choose_strategy`` fires.
The digests do not depend on ``PYTHONHASHSEED``.
"""

import hashlib
from typing import NamedTuple

import pytest

from repro.sqlengine.parser import parse_statement
from repro.taubench import build_dataset, get_query
from repro.taubench.queries import ALL_QUERIES
from repro.temporal.heuristic import choose_strategy
from repro.temporal.period import Period

BEGIN, END = "2010-02-01", "2010-03-01"


class Pin(NamedTuple):
    max_sql: str
    max_clones: tuple
    perst_sql: str
    perst_clones: tuple
    perst_cp: dict
    rule: str


PINNED = {
    "q2": Pin(
        "c7804562af982430", (("max_get_author_name", 1),),
        "c41cc1f6d91896c7", (("ps_get_author_name", None),), {}, "default",
    ),
    "q2b": Pin(
        "350833c0f1c3dedf", (("max_get_author_full_name", 1),),
        "3488fb901a499e09", (("ps_get_author_full_name", None),), {}, "default",
    ),
    "q3": Pin(
        "ded9ffdc1fe391b4", (("max_get_publisher_name", 1),),
        "5e6fc0b0c623df9f", (("ps_get_publisher_name", None),), {}, "default",
    ),
    "q5": Pin(
        "53bd923d36f033f3", (("max_get_author_name", 1),),
        "d575650bf02dc52c", (("ps_get_author_name", None),), {}, "default",
    ),
    "q6": Pin(
        "12c5e7cb153fc2cf", (("max_price_category", 1),),
        "4698a6a80fe824b9", (("ps_price_category", None),),
        {"taupsm_cp_price_category": ["item"]}, "default",
    ),
    "q7": Pin(
        "d5888b97e64b6ffa", (("max_count_cheap_items", 1),),
        "8d6862a707ef6fca", (("ps_count_cheap_items", None),),
        {"taupsm_cp_count_cheap_items": ["item", "item_publisher"]}, "default",
    ),
    "q7b": Pin(
        "fbbe29a997c01611", (("max_count_subject_pages", 1),),
        "6f7449b0df803a98", (("ps_count_subject_pages", None),),
        {"taupsm_cp_count_subject_pages": ["item"]}, "default",
    ),
    "q8": Pin(
        "8682d213a90c90a2", (("max_short_book_title", 1),),
        "PerStatementInapplicableError: per-statement slicing cannot transform"
        " a FOR over an ordered time-varying SELECT whose body assigns outer"
        " variable(s) t (the last row of each snapshot wins, cf. q8)",
        (), {}, "a",
    ),
    "q9": Pin(
        "963204296df47f3f",
        (("max_publisher_report", None), ("max_publisher_items", None)),
        "fb6ba8e8414dc6cf",
        (("ps_publisher_report", None), ("ps_publisher_items", None)),
        {}, "default",
    ),
    "q10": Pin(
        "62d7ff2155d477e5", (("max_price_flag", 1),),
        "8d1a27cf3f20fa46", (("ps_price_flag", None),),
        {"taupsm_cp_price_flag": ["item"]}, "default",
    ),
    "q11": Pin(
        "55cb3cf8dd7f8691", (("max_expensive_items", None),),
        "01c24a9dfa9d9510", (("ps_expensive_items", None),), {}, "default",
    ),
    "q14": Pin(
        "b769a6991e0e70e5", (("max_priciest_title", 1),),
        "0da5dc11c684c52a", (("ps_priciest_title", None),),
        {"taupsm_cp_priciest_title": ["item", "item_publisher"]}, "default",
    ),
    "q17": Pin(
        "a239a3bd2767c415", (("max_find_subject_item", 2),),
        "64a9f104f3b3d496", (("ps_find_subject_item", None),),
        {"taupsm_cp_find_subject_item": ["item", "item_author"]}, "default",
    ),
    "q17b": Pin(
        "5c5bd979f57bc425",
        (
            ("max_canadian_small_books", 0),
            ("max_has_canadian_author", 1),
            ("max_is_small_book", 1),
        ),
        "PerStatementInapplicableError: per-statement slicing cannot transform"
        " a FETCH of outer cursor 'all_items_cur' placed after a time-varying"
        " result in the same loop body (non-nested FETCH, cf. q17b)",
        (), {}, "a",
    ),
    "q19": Pin(
        "005de471419e0782", (("max_authors_of", 1),),
        "4226268204d98c42", (("ps_authors_of", None),), {}, "default",
    ),
    "q20": Pin(
        "2a79a5335785462c", (("max_discounted_price", 1),),
        "940bf18bccabf29d", (("ps_discounted_price", None),), {}, "default",
    ),
}


@pytest.fixture(scope="module")
def dataset():
    return build_dataset("DS1", "SMALL")


def _digest(candidate) -> str:
    if not candidate.applicable:
        return f"{candidate.error.__name__}: {candidate.reason}"
    return hashlib.blake2b(candidate.to_sql().encode(), digest_size=8).hexdigest()


def _clones(candidate) -> tuple:
    return tuple((routine.name, routine.window_param) for routine in candidate.clones)


def test_every_query_is_pinned():
    assert sorted(PINNED) == sorted(spec.name for spec in ALL_QUERIES)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_transformations_unchanged(dataset, name):
    stratum = dataset.stratum
    spec = get_query(name)
    spec.install(dataset)
    stmt = parse_statement(spec.sequenced_sql(dataset, BEGIN, END))
    context = Period.from_iso(BEGIN, END)
    max_found = stratum.candidate("max", stmt, stratum.registry)
    perst_found = stratum.candidate("perst", stmt, stratum.registry, context)
    found = Pin(
        _digest(max_found), _clones(max_found),
        _digest(perst_found), _clones(perst_found), perst_found.cp_requirements,
        choose_strategy(stmt, stratum, stratum.registry, context).rule,
    )
    assert found == PINNED[name]
