"""Deterministic work bound on SEQ-SET's interval hash join.

The join's work must track its output, not ``periods × cross product``:
on a keyed join every matched pair yields at least one result row and
nothing is left for a residual to reject.  The counts repeat exactly,
so a nested loop cannot come back unnoticed behind a timing threshold.
"""

from repro.sqlengine.parser import parse_statement
from repro.temporal import SlicingStrategy
from repro.temporal.seqset import compile_seqset

JOIN = (
    "SELECT i.id, ia.author_id FROM item i, item_author ia"
    " WHERE i.id = ia.item_id AND i.price > 50"
)
SEQUENCED = "VALIDTIME [DATE '2010-03-01', DATE '2011-03-01'] " + JOIN


def test_item_author_join_work_is_bounded_by_its_result(small_dataset):
    stratum = small_dataset.stratum
    db = stratum.db
    plan = compile_seqset(db, stratum.registry, parse_statement(SEQUENCED))
    assert all(source.keys for source in plan.sources[1:])  # every level a hash join
    # nothing is left to check per matched combination
    assert plan.root.filters == plan.root.residual_conjuncts == 0

    def counters():
        return tuple(
            db.obs.value(f"stratum.seqset.join.{name}")
            for name in ("probes", "matches", "keyless_levels")
        )

    runs = []
    for _ in range(2):
        before = counters()
        result = stratum.execute(SEQUENCED, strategy=SlicingStrategy.SEQSET)
        assert stratum.last_strategy is SlicingStrategy.SEQSET
        runs.append(
            tuple(after - b for after, b in zip(counters(), before))
            + (len(result.rows),)
        )
    probes, matches, keyless_levels, rows = runs[0]
    assert runs[1] == runs[0]
    assert rows > 0
    assert 0 < matches <= rows
    assert probes <= len(db.catalog.get_table("item"))
    assert keyless_levels == 0
