"""The paper's running example, end to end (Figures 1-11).

Builds the bookstore tables, registers get_author_name() (Figure 1),
runs the Figure 2 query with current semantics, the Figure 3 sequenced
query under both slicing strategies, and prints every transformed
artifact the paper shows: the current transformation (Figures 5-6), the
constant-period SQL (Figure 8), maximal slicing (Figures 9-10), and
per-statement slicing (Figure 11).

Run:  python examples/bookstore_history.py
"""

from repro import SlicingStrategy, TemporalStratum
from repro.sqlengine.values import Date
from repro.temporal.constant_periods import (
    build_constant_period_sql,
    build_time_points_sql,
)
from repro.temporal.period import Period


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


stratum = TemporalStratum()
stratum.create_temporal_table(
    "CREATE TABLE author (author_id CHAR(10), first_name CHAR(50),"
    " begin_time DATE, end_time DATE)"
)
stratum.create_temporal_table(
    "CREATE TABLE item (id CHAR(10), title CHAR(100),"
    " begin_time DATE, end_time DATE)"
)
stratum.create_temporal_table(
    "CREATE TABLE item_author (item_id CHAR(10), author_id CHAR(10),"
    " begin_time DATE, end_time DATE)"
)
db = stratum.db
db.execute("INSERT INTO author VALUES ('a1', 'Ben', DATE '2010-01-01', DATE '2010-06-01')")
db.execute("INSERT INTO author VALUES ('a1', 'Benjamin', DATE '2010-06-01', DATE '9999-12-31')")
db.execute("INSERT INTO item VALUES ('i1', 'Book One', DATE '2010-01-15', DATE '9999-12-31')")
db.execute("INSERT INTO item VALUES ('i2', 'Book Two', DATE '2010-03-01', DATE '2010-09-01')")
db.execute("INSERT INTO item_author VALUES ('i1', 'a1', DATE '2010-01-15', DATE '9999-12-31')")
db.execute("INSERT INTO item_author VALUES ('i2', 'a1', DATE '2010-03-01', DATE '2010-09-01')")

banner("Figure 1 — the stored function (registered as written)")
FIG1 = """
CREATE FUNCTION get_author_name (aid CHAR(10))
RETURNS CHAR(50)
READS SQL DATA
LANGUAGE SQL
BEGIN
  DECLARE fname CHAR(50);
  SET fname = (SELECT first_name
               FROM author
               WHERE author_id = aid);
  RETURN fname;
END
"""
print(FIG1.strip())
stratum.register_routine(FIG1)

FIG2 = (
    "SELECT i.title FROM item i, item_author ia"
    " WHERE i.id = ia.item_id AND get_author_name(ia.author_id) = 'Ben'"
)

banner("Figure 2 — current query (temporal upward compatibility)")
db.now = Date.from_ymd(2010, 4, 1)
print(f"-- CURRENT_DATE = {db.now.to_iso()}")
print(FIG2)
print("=>", stratum.execute(FIG2).rows)

banner("Figures 5 & 6 — the cur[[.]] transformation")
print(stratum.transform(FIG2).to_sql())

FIG3 = "VALIDTIME [DATE '2010-01-01', DATE '2010-12-01'] " + FIG2
banner("Figure 3 — the sequenced query")
print(FIG3)

banner("Figure 8 — constant-period SQL (ts and cp)")
print(build_time_points_sql(["author", "item", "item_author"], stratum.registry))
print()
print(build_constant_period_sql(Period.from_iso("2010-01-01", "2010-12-01")))

banner("Figures 9 & 10 — maximally-fragmented slicing (max[[.]])")
print(stratum.transform(FIG3, SlicingStrategy.MAX).to_sql())

banner("Figure 11 — per-statement slicing (ps[[.]])")
print(stratum.transform(FIG3, SlicingStrategy.PERST).to_sql())

banner("Execution — the history of titles authored by 'Ben'")
for strategy in (SlicingStrategy.MAX, SlicingStrategy.PERST):
    db.stats.reset()
    result = stratum.execute(FIG3, strategy=strategy)
    calls = {
        name[len(db.stats.ROUTINE_CALLS):]: count
        for name, count in db.obs.flat().items()
        if name.startswith(db.stats.ROUTINE_CALLS) and "get_author_name" in name
        and count
    }
    print(f"\n{strategy.value.upper()} (routine calls: {calls}):")
    for values, period in result.coalesced():
        print(f"  {values[0]:<10} during {period}")
