"""Work bound: a statement is decided and transformed once.

DS1-SMALL.  The §VII-F heuristic puts its questions — is the statement
routine-free (rule (s), ``compile_seqset``), does PERST apply — to the
stratum's cached candidate function, and what it built is what runs.
So while one statement text executes 10× under AUTO, each of the three
transformation functions and rule (s)'s ``compile_seqset`` runs **at
most once** (when the heuristic transformed privately on every
execution: 10–11 ``PerstTransformer.transform`` calls per 10
executions; when rule (s) was read afresh on every decision, 10
``compile_seqset`` calls), and ``stratum.transforms`` is flat from the
second execution on.  The verdicts live under the transform cache's invalidation rules:
a routine redefinition flips them, the ones stored inside a rolled-back
window revalidate like any other — and asking installs nothing.
"""

import pytest

from repro.taubench import build_dataset, get_query
from repro.taubench.queries import _Q17B_FN, _Q17B_HAS_CANADIAN, _Q17B_IS_SMALL
from repro.temporal import SlicingStrategy
from repro.temporal import stratum as stratum_module
from repro.temporal.perst_slicing import PerstTransformer

FUNCTIONS = ("transform_query_max", "transform_current", "compile_seqset",
             "perst_transform")


@pytest.fixture
def dataset():
    dataset = build_dataset("DS1", "SMALL")
    db = dataset.stratum.db
    db.execute("CREATE TABLE audit (entity CHAR(4), val INTEGER)")
    dataset.stratum.execute("ALTER TABLE audit ADD TRANSACTIONTIME")
    dataset.stratum.execute("INSERT INTO audit (entity, val) VALUES ('e1', 1)")
    return dataset


@pytest.fixture
def calls(monkeypatch):
    """Calls of each transformation function, counted where the stratum
    looks it up."""
    counts = dict.fromkeys(FUNCTIONS, 0)

    def counting(name, function):
        def counted(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return counted

    for name in FUNCTIONS[:3]:
        monkeypatch.setattr(
            stratum_module, name, counting(name, getattr(stratum_module, name))
        )
    monkeypatch.setattr(
        PerstTransformer, "transform",
        counting("perst_transform", PerstTransformer.transform),
    )
    return counts


def sequenced(dataset, body: str, days: int = 90) -> str:
    begin, end = dataset.context_bounds(days)
    return f"VALIDTIME [DATE '{begin}', DATE '{end}'] " + body


def statements(dataset) -> dict:
    q2 = get_query("q2")
    q2.install(dataset)
    return {
        # (a) a routine-free selection: rule s
        "seqset": (
            sequenced(dataset, "SELECT i.id, i.price FROM item i WHERE i.price > 50"),
            SlicingStrategy.MAX,
        ),
        # (b) not routine-free for rule s, outside PERST's fragment: rule a
        "aggregate": (
            sequenced(dataset, "SELECT COUNT(*), AVG(i.price) FROM item i"),
            SlicingStrategy.MAX,
        ),
        # (c) routine-bearing: the default rule
        "routine": (
            q2.sequenced_sql(dataset, *dataset.context_bounds(90)),
            SlicingStrategy.PERST,
        ),
        # (d) a current read of a transaction-time table
        "current": ("SELECT entity, val FROM audit", None),
    }


@pytest.mark.parametrize("shape", ["seqset", "aggregate", "routine", "current"])
def test_each_transformation_runs_at_most_once(dataset, calls, shape):
    stratum = dataset.stratum
    value = stratum.db.obs.value
    sql, expected = statements(dataset)[shape]
    for count in calls:
        calls[count] = 0
    transforms = []
    for _ in range(10):
        stratum.execute(sql, SlicingStrategy.AUTO)
        transforms.append(value("stratum.transforms"))
        if expected is not None:
            assert stratum.last_strategy is expected
    # nothing is built after the first execution: not by the decision,
    # not by the clone installation's schema-version bump
    assert transforms[1:] == [transforms[0]] * 9
    assert all(count <= 1 for count in calls.values()), calls
    assert sum(calls.values()) >= 1


def test_probe_installs_nothing(dataset):
    """AUTO over a short context asks whether PERST applies (it does),
    then picks MAX by rule (c): only MAX's clone reaches the catalog, and
    the schema version moves by that one installation — exactly where
    the parent, whose probe threw its transformation away, left it."""
    stratum = dataset.stratum
    catalog = stratum.db.catalog
    q2 = get_query("q2")
    q2.install(dataset)
    sql = q2.sequenced_sql(dataset, *dataset.context_bounds(7))
    version = catalog.schema_version
    stratum.execute("EXPLAIN " + sql)
    assert catalog.schema_version == version
    stratum.execute(sql)
    assert stratum.last_strategy is SlicingStrategy.MAX
    clones = sorted(
        routine.name for routine in catalog.routines()
        if routine.name.startswith(("max_", "ps_"))
    )
    assert clones == ["max_get_author_name"]
    assert catalog.schema_version == version + 1
    stratum.execute(sql)
    assert catalog.schema_version == version + 1


def flag_form(helper: str) -> str:
    """A q17b helper in q10's IF / ELSE form: the flag is assigned in both
    branches and returned once (an early RETURN refuses PERST)."""
    assert helper.count("    RETURN 1;\n  END IF;\n  RETURN 0;") == 1
    return helper.replace("BEGIN\n", "BEGIN\n  DECLARE flag INTEGER;\n", 1).replace(
        "    RETURN 1;\n  END IF;\n  RETURN 0;",
        "    SET flag = 1;\n  ELSE\n    SET flag = 0;\n  END IF;\n  RETURN flag;",
    )


def test_redefinition_flips_the_verdict(dataset):
    """PERST applies while the FETCH opens the loop body (its helpers in
    q10's IF / ELSE form); q17b's form — the FETCH after the time-varying
    calls — takes it out of the fragment, and the cached verdict with it."""
    stratum = dataset.stratum
    q17b = get_query("q17b")
    q17b.install(dataset)
    nested = _Q17B_FN.replace(
        "  FETCH all_items_cur INTO iid;\n  w1:", "  w1:"
    ).replace(
        "    IF has_canadian_author(iid) = 1 AND",
        "    FETCH all_items_cur INTO iid;\n"
        "    IF done = 0 AND has_canadian_author(iid) = 1 AND",
    ).replace("    FETCH all_items_cur INTO iid;\n  END WHILE", "  END WHILE")
    assert nested.count("FETCH") == 1
    sql = q17b.sequenced_sql(dataset, *dataset.context_bounds(90))
    context = dataset.context(90)

    def verdict():
        from repro.sqlengine.parser import parse_statement

        return stratum.candidate(
            "perst", parse_statement(sql), stratum.registry, context
        )

    def redefine(definition, routine="canadian_small_books"):
        stratum.db.catalog.drop_routine(routine)
        stratum.register_routine(definition)

    redefine(flag_form(_Q17B_HAS_CANADIAN), "has_canadian_author")
    redefine(flag_form(_Q17B_IS_SMALL), "is_small_book")
    redefine(nested)
    assert verdict().applicable
    assert stratum.execute("EXPLAIN " + sql).lines[3].startswith(
        "strategy: perst (rule default"
    )
    assert (
        stratum.execute(sql).coalesced()
        == stratum.execute(sql, SlicingStrategy.MAX).coalesced()
    )
    redefine(_Q17B_FN)
    assert not verdict().applicable
    assert "non-nested FETCH" in verdict().reason
    assert stratum.execute("EXPLAIN " + sql).lines[3].startswith(
        "strategy: max (rule a: PERST inapplicable"
    )
    stratum.execute(sql)
    assert stratum.last_strategy is SlicingStrategy.MAX


def test_redefinition_flips_rule_s(dataset, calls):
    """Rule (s)'s cached verdict stands while nothing the statement
    reaches changes: a function created under the name of the built-in
    it calls makes it routine-bearing, and dropping it again routine-free."""
    stratum = dataset.stratum
    sql = sequenced(dataset, "SELECT i.id, ABS(i.price) AS p FROM item i WHERE i.price > 50")

    def rule() -> str:
        return stratum.execute("EXPLAIN " + sql).lines[3]

    assert rule().startswith("strategy: max (rule s")
    for _ in range(10):
        stratum.execute(sql)
    assert calls["compile_seqset"] == 1
    stratum.register_routine(
        "CREATE FUNCTION abs (x FLOAT) RETURNS FLOAT LANGUAGE SQL BEGIN RETURN x; END"
    )
    assert not rule().startswith("strategy: max (rule s")
    assert calls["compile_seqset"] == 2
    stratum.db.catalog.drop_routine("abs")
    assert rule().startswith("strategy: max (rule s")
    assert calls["compile_seqset"] == 3


def test_rollback_revalidates_verdicts_of_its_window(dataset):
    """A rollback moves the schema version forward, past every version
    its window stored a verdict at: such a verdict is served after it
    only through revalidation (nothing its statement reaches changed)."""
    stratum = dataset.stratum
    db = stratum.db
    value = db.obs.value
    sql, _ = statements(dataset)["aggregate"]
    stratum.execute("BEGIN")
    db.execute("CREATE TABLE scratch (x INTEGER)")
    stratum.execute(sql)
    window = db.catalog.schema_version
    assert any(
        not getattr(found, "applicable", True)
        for found in stratum._transform_cache.values()
    )
    stratum.execute("ROLLBACK")
    assert db.catalog.schema_version > window
    transforms = value("stratum.transforms")
    revalidated = value("stratum.transform_cache.revalidated")
    stratum.execute(sql)
    assert value("stratum.transforms") == transforms
    assert value("stratum.transform_cache.revalidated") > revalidated
