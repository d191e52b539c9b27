"""Static-analysis tests: reachability, inner modifiers, PERST checks."""

import pytest

from repro.sqlengine.parser import parse_statement
from repro.temporal import analysis
from repro.temporal.errors import PerStatementInapplicableError

from tests.conftest import GET_AUTHOR_NAME, make_bookstore


@pytest.fixture
def stratum():
    s = make_bookstore()
    s.register_routine(GET_AUTHOR_NAME)
    return s


class TestTableReferences:
    def test_direct_tables(self, stratum):
        stmt = parse_statement("SELECT 1 FROM item i, item_author ia")
        assert stratum.db.catalog.reach(stmt).tables == {"item", "item_author"}

    def test_subquery_tables_included(self, stratum):
        stmt = parse_statement(
            "SELECT 1 FROM item WHERE EXISTS (SELECT 1 FROM author)"
        )
        assert "author" in stratum.db.catalog.reach(stmt).tables

    def test_dml_targets_included(self, stratum):
        stmt = parse_statement("UPDATE item SET title = 'x'")
        assert stratum.db.catalog.reach(stmt).tables == {"item"}

    def test_reachable_through_function(self, stratum):
        stmt = parse_statement(
            "SELECT 1 FROM item_author ia WHERE get_author_name(ia.author_id) = 'Ben'"
        )
        tables = stratum.db.catalog.reach(stmt).tables
        assert "author" in tables  # only referenced inside the function
        assert "item_author" in tables

    def test_reachable_routines_transitive(self, stratum):
        stratum.register_routine(
            "CREATE FUNCTION outer_fn (aid CHAR(10)) RETURNS CHAR(50)"
            " READS SQL DATA LANGUAGE SQL BEGIN"
            " RETURN get_author_name(aid); END"
        )
        stmt = parse_statement("SELECT outer_fn('a1')")
        routines = stratum.db.catalog.reach(stmt).routines
        assert list(routines) == ["outer_fn", "get_author_name"]
        assert analysis.temporal_routines(
            stmt, stratum.db.catalog, stratum.registry
        ) == ["outer_fn", "get_author_name"]

    def test_reads_temporal(self, stratum):
        stmt = parse_statement("SELECT get_author_name('a1')")
        assert analysis.reads_temporal(stmt, stratum.db.catalog, stratum.registry)

    def test_non_temporal_statement(self, stratum):
        stratum.db.execute("CREATE TABLE plain (x INTEGER)")
        stmt = parse_statement("SELECT x FROM plain")
        assert not analysis.reads_temporal(stmt, stratum.db.catalog, stratum.registry)

    def test_routine_reads_temporal(self, stratum):
        assert analysis.reads_temporal(
            "get_author_name", stratum.db.catalog, stratum.registry
        )
        assert not analysis.reads_temporal(
            "no_such_routine", stratum.db.catalog, stratum.registry
        )


class TestInnerModifiers:
    def test_detects_inner_modifier(self, stratum):
        stmt = parse_statement(
            "CREATE PROCEDURE p () LANGUAGE SQL BEGIN"
            " VALIDTIME SELECT title FROM item; END"
        )
        assert analysis.has_inner_modifier(stmt.body)

    def test_no_modifier(self, stratum):
        stmt = parse_statement(
            "CREATE PROCEDURE p () LANGUAGE SQL BEGIN"
            " SELECT title FROM item; END"
        )
        assert not analysis.has_inner_modifier(stmt.body)


def _install(stratum, sql):
    stratum.register_routine(sql)


class TestPerstApplicability:
    def test_plain_query_applicable(self, stratum):
        stmt = parse_statement(
            "SELECT 1 FROM item_author ia WHERE get_author_name(ia.author_id) = 'Ben'"
        )
        analysis.check_perst_applicable(stmt, stratum.db.catalog, stratum.registry)

    def test_fetch_before_temporal_call_applicable(self, stratum):
        """q17's shape: FETCH at the top of the loop is fine."""
        _install(stratum, """
        CREATE FUNCTION walker () RETURNS INTEGER READS SQL DATA LANGUAGE SQL
        BEGIN
          DECLARE iid CHAR(10);
          DECLARE done INTEGER DEFAULT 0;
          DECLARE n INTEGER DEFAULT 0;
          DECLARE c CURSOR FOR SELECT id FROM item;
          DECLARE CONTINUE HANDLER FOR NOT FOUND SET done = 1;
          OPEN c;
          w: WHILE done = 0 DO
            FETCH c INTO iid;
            IF get_author_name(iid) = 'Ben' THEN SET n = n + 1; END IF;
          END WHILE w;
          CLOSE c;
          RETURN n;
        END
        """)
        stmt = parse_statement("SELECT walker()")
        analysis.check_perst_applicable(stmt, stratum.db.catalog, stratum.registry)

    def test_non_nested_fetch_rejected(self, stratum):
        """q17b's shape: FETCH after a temporal producer in the loop."""
        _install(stratum, """
        CREATE FUNCTION walker2 () RETURNS INTEGER READS SQL DATA LANGUAGE SQL
        BEGIN
          DECLARE iid CHAR(10);
          DECLARE done INTEGER DEFAULT 0;
          DECLARE n INTEGER DEFAULT 0;
          DECLARE c CURSOR FOR SELECT id FROM item;
          DECLARE CONTINUE HANDLER FOR NOT FOUND SET done = 1;
          OPEN c;
          FETCH c INTO iid;
          w: WHILE done = 0 DO
            IF get_author_name(iid) = 'Ben' THEN SET n = n + 1; END IF;
            FETCH c INTO iid;
          END WHILE w;
          CLOSE c;
          RETURN n;
        END
        """)
        stmt = parse_statement("SELECT walker2()")
        with pytest.raises(PerStatementInapplicableError):
            analysis.check_perst_applicable(
                stmt, stratum.db.catalog, stratum.registry
            )

    def test_fetch_of_loop_local_cursor_fine(self, stratum):
        """A cursor declared inside the loop's own compound is not outer."""
        _install(stratum, """
        CREATE FUNCTION walker3 () RETURNS INTEGER READS SQL DATA LANGUAGE SQL
        BEGIN
          DECLARE n INTEGER DEFAULT 0;
          DECLARE k INTEGER DEFAULT 0;
          w: WHILE k < 2 DO
            SET k = k + 1;
            BEGIN
              DECLARE iid CHAR(10);
              DECLARE done INTEGER DEFAULT 0;
              DECLARE c CURSOR FOR SELECT id FROM item;
              DECLARE CONTINUE HANDLER FOR NOT FOUND SET done = 1;
              OPEN c;
              IF get_author_name('a1') = 'Ben' THEN SET n = n + 1; END IF;
              FETCH c INTO iid;
              CLOSE c;
            END;
          END WHILE w;
          RETURN n;
        END
        """)
        stmt = parse_statement("SELECT walker3()")
        # the FETCH follows a temporal producer, but its cursor is local
        # to the same compound, so per-period evaluation is consistent
        analysis.check_perst_applicable(stmt, stratum.db.catalog, stratum.registry)


    LAST_TITLE = """
    CREATE FUNCTION last_title () RETURNS CHAR(100) READS SQL DATA LANGUAGE SQL
    BEGIN
      DECLARE t CHAR(100);
      FOR rec AS SELECT title FROM item ORDER BY title DO
        BODY
      END FOR;
      RETURN t;
    END
    """

    @pytest.mark.parametrize(
        "order, body, refused",
        [
            # q8's shape: the last row of each snapshot wins
            ("ORDER BY title", "SET t = rec.title;", True),
            # no order: which row is last is unspecified anyway
            ("", "SET t = rec.title;", False),
            # assignments local to the body start afresh per row
            (
                "ORDER BY title",
                "BEGIN DECLARE u CHAR(100); SET u = rec.title; END;",
                False,
            ),
        ],
        ids=["ordered-outer", "unordered", "ordered-local"],
    )
    def test_ordered_for_assigning_an_outer_variable(
        self, stratum, order, body, refused
    ):
        _install(stratum, self.LAST_TITLE.replace("ORDER BY title", order).replace(
            "BODY", body
        ))
        stmt = parse_statement("SELECT last_title()")

        def check():
            analysis.check_perst_applicable(stmt, stratum.db.catalog, stratum.registry)

        if refused:
            with pytest.raises(PerStatementInapplicableError, match="outer variable"):
                check()
        else:
            check()

class TestRoutinesWithInnerModifiers:
    def test_flags_routines(self, stratum):
        stratum.db.catalog.drop_routine("get_author_name")
        from repro.sqlengine.catalog import Routine

        definition = parse_statement(
            "CREATE PROCEDURE audit () LANGUAGE SQL BEGIN"
            " NONSEQUENCED VALIDTIME SELECT title, begin_time FROM item; END"
        )
        stratum.db.catalog.add_routine(
            Routine(kind="PROCEDURE", definition=definition)
        )
        stmt = parse_statement("CALL audit()")
        reached = stratum.db.catalog.reach(stmt).routines
        assert [name for name, r in reached.items() if r.facts.modifier] == ["audit"]


class TestRoutineFacts:
    """Each routine body is walked once, on its ``Routine``; the facts
    live and die with that object, so a rollback cannot leave them
    stale."""

    def test_rollback_leaves_no_stale_facts(self, stratum):
        catalog, db = stratum.db.catalog, stratum.db
        db.execute("CREATE TABLE plain (x INTEGER)")
        stmt = parse_statement("SELECT f()")
        version = catalog.schema_version
        stratum.execute("BEGIN")
        stratum.register_routine(
            "CREATE FUNCTION f () RETURNS INTEGER LANGUAGE SQL BEGIN"
            " INSERT INTO plain VALUES (1);"
            " RETURN (SELECT COUNT(*) FROM item); END"
        )
        assert analysis.reachable_temporal_tables(
            stmt, catalog, stratum.registry
        ) == ["item"]
        assert analysis.temporal_routines(stmt, catalog, stratum.registry) == ["f"]
        assert not catalog.write_free("f")
        stratum.execute("ROLLBACK")
        assert catalog.schema_version > version  # undoing f stamped it
        stratum.register_routine(
            "CREATE FUNCTION f () RETURNS INTEGER LANGUAGE SQL BEGIN"
            " RETURN (SELECT COUNT(*) FROM plain); END"
        )
        assert catalog.reach(stmt).tables == {"plain"}
        assert analysis.reachable_temporal_tables(stmt, catalog, stratum.registry) == []
        assert analysis.temporal_routines(stmt, catalog, stratum.registry) == []
        assert catalog.write_free("f")

    def test_each_body_is_walked_once(self, monkeypatch):
        from repro.sqlengine import catalog as catalog_module
        from repro.taubench import build_dataset, get_query
        from repro.temporal import SlicingStrategy

        dataset = build_dataset("DS1", "SMALL")
        spec = get_query("q2")
        spec.install(dataset)
        sql = spec.sequenced_sql(dataset, "2010-02-01", "2010-03-01")
        built = []
        walk = catalog_module.routine_facts

        def spy(routine):
            built.append(routine)
            return walk(routine)

        monkeypatch.setattr(catalog_module, "routine_facts", spy)
        stratum = dataset.stratum
        for strategy in (SlicingStrategy.MAX, SlicingStrategy.PERST, SlicingStrategy.AUTO):
            for _ in range(2):
                stratum.prepare(parse_statement(sql), strategy)
        assert built  # the analysis read routine facts
        assert len({id(routine) for routine in built}) == len(built)
