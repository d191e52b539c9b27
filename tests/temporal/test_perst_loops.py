"""PERST's per-period loops: correct or refused, never a wrong bag.

A statement outside PERST's algebraic fragment is evaluated point-wise
inside a loop over constant periods: the per-statement loop (§VI-C) for
one statement, cursor-body mode (§VII-C) for a whole body.  Six routine
shapes on the bookstore, and q17b with its FETCH nested in the loop,
were answered wrongly there: a RETURN that left the table function with
a scalar, stale rows a fallback did not delete, a per-period loop run
twice by an enclosing WHILE, a procedure result set per period, a LEAVE
that ended the loop over the periods at the first one.  Each case now
either equals the timeslice oracle (``tests/oracle``) snapshot by
snapshot, multiplicities included, or PERST refuses it with
:class:`PerStatementInapplicableError`; MAX and AUTO equal the oracle.
"""

import pytest

from repro.taubench import build_dataset, get_query
from repro.taubench.queries import _Q17B_FN
from repro.temporal import SlicingStrategy

from tests.conftest import make_bookstore
from tests.oracle import Expected, check

MAX, PERST, AUTO = SlicingStrategy.MAX, SlicingStrategy.PERST, SlicingStrategy.AUTO
QUERY = (
    "VALIDTIME [DATE '2010-01-01', DATE '2010-10-01']"
    " SELECT a.author_id, f(a.author_id) FROM author a"
)
FIRST_NAME_IS_BEN = "(SELECT first_name FROM author WHERE author_id = aid) = 'Ben'"

SHAPES = {
    # an early RETURN under the per-statement loop of a temporal IF
    "A-early-return": f"""
        CREATE FUNCTION f (aid CHAR(10)) RETURNS CHAR(10)
        READS SQL DATA LANGUAGE SQL
        BEGIN
          IF {FIRST_NAME_IS_BEN} THEN
            RETURN 'short';
          END IF;
          RETURN 'long';
        END""",
    # a variable assigned before the fallback IF assigns it again
    "B-assigned-twice": f"""
        CREATE FUNCTION f (aid CHAR(10)) RETURNS CHAR(10)
        READS SQL DATA LANGUAGE SQL
        BEGIN
          DECLARE r CHAR(10);
          SET r = 'none';
          IF {FIRST_NAME_IS_BEN} THEN
            SET r = 'short';
          ELSE
            SET r = 'long';
          END IF;
          RETURN r;
        END""",
    # the fallback IF inside a loop body runs its period loop twice
    "C-inside-while": f"""
        CREATE FUNCTION f (aid CHAR(10)) RETURNS CHAR(10)
        READS SQL DATA LANGUAGE SQL
        BEGIN
          DECLARE r CHAR(10);
          DECLARE i INTEGER DEFAULT 0;
          WHILE i < 2 DO
            IF {FIRST_NAME_IS_BEN} THEN
              SET r = 'short';
            ELSE
              SET r = 'long';
            END IF;
            SET i = i + 1;
          END WHILE;
          RETURN r;
        END""",
    # a procedure's result set under the per-statement loop
    "D-result-select": f"""
        CREATE PROCEDURE f (aid CHAR(10))
        LANGUAGE SQL
        BEGIN
          IF {FIRST_NAME_IS_BEN} THEN
            SELECT i.title FROM item i, item_author ia
            WHERE i.id = ia.item_id AND ia.author_id = aid;
          END IF;
        END""",
    # an aggregate SELECT INTO two targets falls back
    "E-select-into-two-targets": """
        CREATE FUNCTION f (aid CHAR(10)) RETURNS FLOAT
        READS SQL DATA LANGUAGE SQL
        BEGIN
          DECLARE n INTEGER;
          DECLARE p FLOAT;
          SET p = 0.0;
          SELECT COUNT(*), MAX(i.price) INTO n, p
          FROM item i, item_author ia
          WHERE i.id = ia.item_id AND ia.author_id = aid;
          RETURN p;
        END""",
    # a LEAVE under the per-statement loop of a temporal IF that names
    # the enclosing LOOP: it would end the loop over the periods
    "F-leave-enclosing-loop": f"""
        CREATE FUNCTION f (aid CHAR(10)) RETURNS INTEGER
        READS SQL DATA LANGUAGE SQL
        BEGIN
          DECLARE n INTEGER DEFAULT 0;
          l1: LOOP
            IF {FIRST_NAME_IS_BEN} THEN
              LEAVE l1;
            END IF;
            SET n = 1;
            LEAVE l1;
          END LOOP;
          RETURN n;
        END""",
}


def _bookstore(shape):
    stratum = make_bookstore()
    stratum.register_routine(SHAPES[shape])
    sql = QUERY if shape[0] != "D" else (
        "VALIDTIME [DATE '2010-01-01', DATE '2010-10-01'] CALL f('a1')"
    )
    return stratum, sql


def _nested_q17b():
    dataset = build_dataset("DS1", "SMALL")
    q17b = get_query("q17b")
    q17b.install(dataset)
    dataset.stratum.db.catalog.drop_routine("canadian_small_books")
    dataset.stratum.register_routine(nested_fetch(_Q17B_FN))
    # three weeks: four constant periods, each with a row (the reference
    # walks q17b's cursor loop in about a second a period)
    return dataset.stratum, q17b.sequenced_sql(dataset, *dataset.context_bounds(21))


def nested_fetch(definition: str) -> str:
    """q17b's body with its one FETCH opening the WHILE body."""
    nested = definition.replace(
        "  FETCH all_items_cur INTO iid;\n  w1:", "  w1:"
    ).replace(
        "    IF has_canadian_author(iid) = 1 AND",
        "    FETCH all_items_cur INTO iid;\n"
        "    IF done = 0 AND has_canadian_author(iid) = 1 AND",
    ).replace("    FETCH all_items_cur INTO iid;\n  END WHILE", "  END WHILE")
    assert nested.count("FETCH") == 1
    return nested


CASES = {shape: (lambda shape=shape: _bookstore(shape)) for shape in SHAPES}
CASES["q17b-nested-fetch"] = _nested_q17b


@pytest.mark.parametrize("case", CASES)
def test_perst_equals_max_or_refuses(case):
    """PERST ≡ the snapshot (the oracle), or a typed refusal; MAX and AUTO
    ≡ the snapshot.  The shapes only show over several constant periods
    with rows in them: a loop over the periods run twice, or left at the
    first one."""
    stratum, sql = CASES[case]()
    expected = Expected(stratum, sql)
    answers = list(expected.answers.values())
    assert not expected.errors and len(answers) >= 3 and any(answers[1:]), case
    verdicts = check(stratum, sql, (MAX, PERST, AUTO), expected)
    assert verdicts[MAX] == verdicts[AUTO] == "agrees", case
