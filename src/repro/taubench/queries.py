"""The sixteen τPSM queries (paper §VII-A2).

Each query highlights one SQL/PSM construct:

======  ==========================================================
q2      SET with a SELECT row
q2b     multiple SET statements
q3      RETURN with a SELECT row
q5      a function in the SELECT list
q6      the CASE statement
q7      the WHILE statement (cursor-driven)
q7b     the REPEAT statement (cursor-driven)
q8      a loop name with the FOR statement (PERST-inapplicable: the
        ordered FOR's last row wins)
q9      a CALL within a procedure
q10     an IF without a CURSOR
q11     creation of a temporary table
q14     a local cursor declaration with FETCH, OPEN and CLOSE
q17     the LEAVE statement
q17b    a non-nested FETCH (PERST-inapplicable, paper §VII-A2)
q19     a function called in the FROM clause
q20     a SET statement
======  ==========================================================

Queries are parameterized on a loaded dataset's probe values — the paper
notes q2 was changed to search for an author actually present in the
data so the result set is never empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.taubench.datasets import Dataset


@dataclass(frozen=True)
class QuerySpec:
    """One benchmark query: its routines plus the invoking statement."""

    name: str
    feature: str
    routines: tuple[str, ...]
    build_query: Callable[["Dataset"], str]
    perst_applicable: bool = True
    uses_cursor: bool = False

    def install(self, dataset: "Dataset") -> None:
        """Register this query's routines on the dataset's stratum.

        Idempotent: re-registering replaces the previous definition.
        """
        for routine_sql in self.routines:
            stmt_name = _routine_name(routine_sql)
            catalog = dataset.stratum.db.catalog
            if catalog.has_routine(stmt_name):
                catalog.drop_routine(stmt_name)
            dataset.stratum.register_routine(routine_sql)

    def conventional_sql(self, dataset: "Dataset") -> str:
        return self.build_query(dataset)

    def sequenced_sql(self, dataset: "Dataset", begin_iso: str, end_iso: str) -> str:
        return (
            f"VALIDTIME [DATE '{begin_iso}', DATE '{end_iso}'] "
            + self.build_query(dataset)
        )


def _routine_name(routine_sql: str) -> str:
    tokens = routine_sql.split()
    index = tokens.index("FUNCTION") if "FUNCTION" in tokens else tokens.index("PROCEDURE")
    return tokens[index + 1].split("(")[0]


# ---------------------------------------------------------------------------
# q2 — SET with a SELECT row
# ---------------------------------------------------------------------------

_Q2_FN = """
CREATE FUNCTION get_author_name (aid CHAR(10))
RETURNS CHAR(40)
READS SQL DATA
LANGUAGE SQL
BEGIN
  DECLARE fname CHAR(40);
  SET fname = (SELECT first_name
               FROM author
               WHERE author_id = aid);
  RETURN fname;
END
"""

Q2 = QuerySpec(
    name="q2",
    feature="SET with a SELECT row",
    routines=(_Q2_FN,),
    build_query=lambda d: (
        "SELECT i.title FROM item i, item_author ia "
        "WHERE i.id = ia.item_id "
        f"AND ia.author_id = '{d.cold_author_id}' "
        f"AND get_author_name(ia.author_id) = '{d.cold_author_first_name}'"
    ),
)

# ---------------------------------------------------------------------------
# q2b — multiple SET statements
# ---------------------------------------------------------------------------

_Q2B_FN = """
CREATE FUNCTION get_author_full_name (aid CHAR(10))
RETURNS CHAR(90)
READS SQL DATA
LANGUAGE SQL
BEGIN
  DECLARE fn CHAR(40);
  DECLARE ln CHAR(40);
  SET fn = (SELECT first_name FROM author WHERE author_id = aid);
  SET ln = (SELECT last_name FROM author WHERE author_id = aid);
  RETURN fn || ' ' || ln;
END
"""

Q2B = QuerySpec(
    name="q2b",
    feature="multiple SET statements",
    routines=(_Q2B_FN,),
    build_query=lambda d: (
        "SELECT i.title FROM item i, item_author ia "
        "WHERE i.id = ia.item_id "
        f"AND ia.author_id = '{d.cold_author_id}' "
        f"AND get_author_full_name(ia.author_id) = "
        f"'{d.cold_author_first_name} {d.cold_author_last_name}'"
    ),
)

# ---------------------------------------------------------------------------
# q3 — RETURN with a SELECT row
# ---------------------------------------------------------------------------

_Q3_FN = """
CREATE FUNCTION get_publisher_name (pid CHAR(10))
RETURNS CHAR(60)
READS SQL DATA
LANGUAGE SQL
BEGIN
  RETURN (SELECT name FROM publisher WHERE publisher_id = pid);
END
"""

Q3 = QuerySpec(
    name="q3",
    feature="RETURN with a SELECT row",
    routines=(_Q3_FN,),
    build_query=lambda d: (
        "SELECT i.title FROM item i, item_publisher ip "
        "WHERE i.id = ip.item_id "
        f"AND ip.item_id = '{d.probe_item_id}' "
        "AND get_publisher_name(ip.publisher_id) LIKE '%Press%'"
    ),
)

# ---------------------------------------------------------------------------
# q5 — a function in the SELECT list
# ---------------------------------------------------------------------------

Q5 = QuerySpec(
    name="q5",
    feature="a function in the SELECT list",
    routines=(_Q2_FN,),
    build_query=lambda d: (
        "SELECT ia.author_id, get_author_name(ia.author_id) AS author_name "
        "FROM item_author ia "
        f"WHERE ia.item_id = '{d.probe_item_id}'"
    ),
)

# ---------------------------------------------------------------------------
# q6 — the CASE statement
# ---------------------------------------------------------------------------

_Q6_FN = """
CREATE FUNCTION price_category (iid CHAR(10))
RETURNS CHAR(10)
READS SQL DATA
LANGUAGE SQL
BEGIN
  DECLARE p FLOAT;
  DECLARE cat CHAR(10);
  SET p = (SELECT price FROM item WHERE id = iid);
  CASE
    WHEN p < 30.0 THEN
      SET cat = 'budget';
    WHEN p < 70.0 THEN
      SET cat = 'standard';
    ELSE
      SET cat = 'premium';
  END CASE;
  RETURN cat;
END
"""

Q6 = QuerySpec(
    name="q6",
    feature="the CASE statement",
    routines=(_Q6_FN,),
    build_query=lambda d: (
        "SELECT i.id, price_category(i.id) AS category FROM item i "
        f"WHERE i.id = '{d.probe_item_id}'"
    ),
)

# ---------------------------------------------------------------------------
# q7 — the WHILE statement (cursor-driven counting)
# ---------------------------------------------------------------------------

_Q7_FN = """
CREATE FUNCTION count_cheap_items (pid CHAR(10))
RETURNS INTEGER
READS SQL DATA
LANGUAGE SQL
BEGIN
  DECLARE done INTEGER DEFAULT 0;
  DECLARE p FLOAT;
  DECLARE n INTEGER DEFAULT 0;
  DECLARE c CURSOR FOR
    SELECT i.price
    FROM item i, item_publisher ip
    WHERE i.id = ip.item_id AND ip.publisher_id = pid;
  DECLARE CONTINUE HANDLER FOR NOT FOUND SET done = 1;
  OPEN c;
  w1: WHILE done = 0 DO
    FETCH c INTO p;
    IF done = 0 THEN
      IF p < 60.0 THEN
        SET n = n + 1;
      END IF;
    END IF;
  END WHILE w1;
  CLOSE c;
  RETURN n;
END
"""

Q7 = QuerySpec(
    name="q7",
    feature="the WHILE statement",
    routines=(_Q7_FN,),
    uses_cursor=True,
    build_query=lambda d: (
        "SELECT p.publisher_id, count_cheap_items(p.publisher_id) AS n "
        "FROM publisher p "
        f"WHERE p.publisher_id = '{d.probe_publisher_id}'"
    ),
)

# ---------------------------------------------------------------------------
# q7b — the REPEAT statement
# ---------------------------------------------------------------------------

_Q7B_FN = """
CREATE FUNCTION count_subject_pages (subj CHAR(30))
RETURNS INTEGER
READS SQL DATA
LANGUAGE SQL
BEGIN
  DECLARE done INTEGER DEFAULT 0;
  DECLARE pages INTEGER;
  DECLARE total INTEGER DEFAULT 0;
  DECLARE c CURSOR FOR
    SELECT number_of_pages FROM item WHERE subject = subj;
  DECLARE CONTINUE HANDLER FOR NOT FOUND SET done = 1;
  OPEN c;
  r1: REPEAT
    FETCH c INTO pages;
    IF done = 0 THEN
      SET total = total + pages;
    END IF;
  UNTIL done = 1
  END REPEAT r1;
  CLOSE c;
  RETURN total;
END
"""

Q7B = QuerySpec(
    name="q7b",
    feature="the REPEAT statement",
    routines=(_Q7B_FN,),
    uses_cursor=True,
    build_query=lambda d: (
        "SELECT count_subject_pages('databases') AS total_pages"
    ),
)

# ---------------------------------------------------------------------------
# q8 — a loop name with the FOR statement
# ---------------------------------------------------------------------------

_Q8_FN = """
CREATE FUNCTION short_book_title (aid CHAR(10))
RETURNS CHAR(120)
READS SQL DATA
LANGUAGE SQL
BEGIN
  DECLARE t CHAR(120);
  f1: FOR rec AS
    SELECT i.title AS title, i.number_of_pages AS pages
    FROM item i, item_author ia
    WHERE i.id = ia.item_id AND ia.author_id = aid
    ORDER BY i.title
  DO
    IF rec.pages < 400 THEN
      SET t = rec.title;
    END IF;
  END FOR f1;
  RETURN t;
END
"""

Q8 = QuerySpec(
    name="q8",
    feature="a loop name with the FOR statement",
    routines=(_Q8_FN,),
    perst_applicable=False,
    build_query=lambda d: (
        "SELECT a.last_name FROM author a "
        f"WHERE a.author_id = '{d.probe_author_id}' "
        "AND short_book_title(a.author_id) LIKE '%Vol%'"
    ),
)

# ---------------------------------------------------------------------------
# q9 — a CALL within a procedure
# ---------------------------------------------------------------------------

_Q9_INNER = """
CREATE PROCEDURE publisher_items (pid CHAR(10))
LANGUAGE SQL
BEGIN
  SELECT i.title
  FROM item i, item_publisher ip
  WHERE i.id = ip.item_id AND ip.publisher_id = pid;
END
"""

_Q9_OUTER = """
CREATE PROCEDURE publisher_report (pid CHAR(10))
LANGUAGE SQL
BEGIN
  CALL publisher_items(pid);
END
"""

Q9 = QuerySpec(
    name="q9",
    feature="a CALL within a procedure",
    routines=(_Q9_INNER, _Q9_OUTER),
    build_query=lambda d: f"CALL publisher_report('{d.probe_publisher_id}')",
)

# ---------------------------------------------------------------------------
# q10 — an IF without a CURSOR
# ---------------------------------------------------------------------------

_Q10_FN = """
CREATE FUNCTION price_flag (iid CHAR(10))
RETURNS CHAR(10)
READS SQL DATA
LANGUAGE SQL
BEGIN
  DECLARE p FLOAT;
  DECLARE flag CHAR(10);
  SET p = (SELECT price FROM item WHERE id = iid);
  IF p >= 50.0 THEN
    SET flag = 'expensive';
  ELSE
    SET flag = 'normal';
  END IF;
  RETURN flag;
END
"""

Q10 = QuerySpec(
    name="q10",
    feature="an IF without a CURSOR",
    routines=(_Q10_FN,),
    build_query=lambda d: (
        "SELECT i.id, price_flag(i.id) AS flag FROM item i "
        f"WHERE i.id = '{d.probe_item_id}'"
    ),
)

# ---------------------------------------------------------------------------
# q11 — creation of a temporary table
# ---------------------------------------------------------------------------

_Q11_PROC = """
CREATE PROCEDURE expensive_items (pid CHAR(10))
LANGUAGE SQL
BEGIN
  CREATE TEMPORARY TABLE pricey AS (
    SELECT i.title AS title, i.price AS price
    FROM item i, item_publisher ip
    WHERE i.id = ip.item_id
      AND ip.publisher_id = pid
      AND i.price > 40.0);
  SELECT title FROM pricey;
  DROP TABLE pricey;
END
"""

Q11 = QuerySpec(
    name="q11",
    feature="creation of a temporary table",
    routines=(_Q11_PROC,),
    build_query=lambda d: f"CALL expensive_items('{d.probe_publisher_id}')",
)

# ---------------------------------------------------------------------------
# q14 — a local cursor declaration with FETCH, OPEN, CLOSE
# ---------------------------------------------------------------------------

_Q14_FN = """
CREATE FUNCTION priciest_title (pid CHAR(10))
RETURNS CHAR(120)
READS SQL DATA
LANGUAGE SQL
BEGIN
  DECLARE t CHAR(120);
  DECLARE done INTEGER DEFAULT 0;
  DECLARE c CURSOR FOR
    SELECT i.title
    FROM item i, item_publisher ip
    WHERE i.id = ip.item_id AND ip.publisher_id = pid
    ORDER BY i.price DESC, i.title;
  DECLARE CONTINUE HANDLER FOR NOT FOUND SET done = 1;
  OPEN c;
  FETCH c INTO t;
  CLOSE c;
  IF done = 1 THEN
    SET t = 'none';
  END IF;
  RETURN t;
END
"""

Q14 = QuerySpec(
    name="q14",
    feature="a local cursor with FETCH, OPEN and CLOSE",
    routines=(_Q14_FN,),
    uses_cursor=True,
    build_query=lambda d: (
        f"SELECT priciest_title('{d.probe_publisher_id}') AS title"
    ),
)

# ---------------------------------------------------------------------------
# q17 — the LEAVE statement
# ---------------------------------------------------------------------------

_Q17_FN = """
CREATE FUNCTION find_subject_item (aid CHAR(10), subj CHAR(30))
RETURNS CHAR(120)
READS SQL DATA
LANGUAGE SQL
BEGIN
  DECLARE iid CHAR(10);
  DECLARE t CHAR(120);
  DECLARE s CHAR(30);
  DECLARE res CHAR(120);
  DECLARE done INTEGER DEFAULT 0;
  DECLARE c CURSOR FOR
    SELECT i.id, i.title, i.subject
    FROM item i, item_author ia
    WHERE i.id = ia.item_id AND ia.author_id = aid
    ORDER BY i.id;
  DECLARE CONTINUE HANDLER FOR NOT FOUND SET done = 1;
  SET res = 'none';
  OPEN c;
  l1: LOOP
    FETCH c INTO iid, t, s;
    IF done = 1 THEN
      LEAVE l1;
    END IF;
    IF s = subj THEN
      SET res = t;
      LEAVE l1;
    END IF;
  END LOOP l1;
  CLOSE c;
  RETURN res;
END
"""

Q17 = QuerySpec(
    name="q17",
    feature="the LEAVE statement",
    routines=(_Q17_FN,),
    uses_cursor=True,
    build_query=lambda d: (
        f"SELECT find_subject_item('{d.probe_author_id}', 'databases') AS title"
    ),
)

# ---------------------------------------------------------------------------
# q17b — a non-nested FETCH (PERST-inapplicable)
# ---------------------------------------------------------------------------

_Q17B_HAS_CANADIAN = """
CREATE FUNCTION has_canadian_author (iid CHAR(10))
RETURNS INTEGER
READS SQL DATA
LANGUAGE SQL
BEGIN
  DECLARE r INTEGER;
  SET r = (SELECT COUNT(*)
           FROM item_author ia, author a
           WHERE ia.item_id = iid
             AND a.author_id = ia.author_id
             AND a.country = 'Canada');
  IF r > 0 THEN
    RETURN 1;
  END IF;
  RETURN 0;
END
"""

_Q17B_IS_SMALL = """
CREATE FUNCTION is_small_book (iid CHAR(10))
RETURNS INTEGER
READS SQL DATA
LANGUAGE SQL
BEGIN
  DECLARE pages INTEGER;
  SET pages = (SELECT number_of_pages FROM item WHERE id = iid);
  IF pages < 250 THEN
    RETURN 1;
  END IF;
  RETURN 0;
END
"""

_Q17B_FN = """
CREATE FUNCTION canadian_small_books ()
RETURNS INTEGER
READS SQL DATA
LANGUAGE SQL
BEGIN
  DECLARE iid CHAR(10);
  DECLARE n INTEGER DEFAULT 0;
  DECLARE done INTEGER DEFAULT 0;
  DECLARE all_items_cur CURSOR FOR SELECT id FROM item ORDER BY id;
  DECLARE CONTINUE HANDLER FOR NOT FOUND SET done = 1;
  OPEN all_items_cur;
  FETCH all_items_cur INTO iid;
  w1: WHILE done = 0 DO
    IF has_canadian_author(iid) = 1 AND is_small_book(iid) = 1 THEN
      SET n = n + 1;
    END IF;
    FETCH all_items_cur INTO iid;
  END WHILE w1;
  CLOSE all_items_cur;
  RETURN n;
END
"""

Q17B = QuerySpec(
    name="q17b",
    feature="a non-nested FETCH (PERST-inapplicable)",
    routines=(_Q17B_HAS_CANADIAN, _Q17B_IS_SMALL, _Q17B_FN),
    perst_applicable=False,
    uses_cursor=True,
    build_query=lambda d: "SELECT canadian_small_books() AS n",
)

# ---------------------------------------------------------------------------
# q19 — a function called in the FROM clause
# ---------------------------------------------------------------------------

_Q19_FN = """
CREATE FUNCTION authors_of (iid CHAR(10))
RETURNS ROW(aid CHAR(10), fname CHAR(40)) ARRAY
READS SQL DATA
LANGUAGE SQL
BEGIN
  DECLARE result ROW(aid CHAR(10), fname CHAR(40)) ARRAY;
  INSERT INTO TABLE result (
    SELECT ia.author_id, a.first_name
    FROM item_author ia, author a
    WHERE ia.item_id = iid AND a.author_id = ia.author_id);
  RETURN result;
END
"""

Q19 = QuerySpec(
    name="q19",
    feature="a function called in the FROM clause",
    routines=(_Q19_FN,),
    build_query=lambda d: (
        "SELECT f.aid, f.fname "
        f"FROM TABLE(authors_of('{d.probe_item_id}')) AS f"
    ),
)

# ---------------------------------------------------------------------------
# q20 — a SET statement
# ---------------------------------------------------------------------------

_Q20_FN = """
CREATE FUNCTION discounted_price (iid CHAR(10))
RETURNS FLOAT
READS SQL DATA
LANGUAGE SQL
BEGIN
  DECLARE p FLOAT;
  DECLARE d FLOAT;
  SET p = (SELECT price FROM item WHERE id = iid);
  SET d = p * 0.9;
  RETURN d;
END
"""

Q20 = QuerySpec(
    name="q20",
    feature="a SET statement",
    routines=(_Q20_FN,),
    build_query=lambda d: (
        "SELECT i.id FROM item i "
        f"WHERE i.id = '{d.probe_item_id}' "
        "AND discounted_price(i.id) < 100000.0"
    ),
)


ALL_QUERIES: list[QuerySpec] = [
    Q2, Q2B, Q3, Q5, Q6, Q7, Q7B, Q8, Q9, Q10, Q11, Q14, Q17, Q17B, Q19, Q20,
]

_BY_NAME = {q.name: q for q in ALL_QUERIES}


def get_query(name: str) -> QuerySpec:
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown query {name!r}; expected one of {sorted(_BY_NAME)}"
        ) from None
