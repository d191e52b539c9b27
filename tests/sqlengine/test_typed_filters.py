"""A join level's total conjuncts are compiled to their value class
(``planner._typed_filter``): date ordinals, right-stripped characters,
native numbers.  ``values.compare`` stays the specification — for every
operator and every pair of operands of one class the closure must say
True exactly where the comparison evaluates to TRUE, so NULL rejects,
bool is an integer, CHAR padding is ignored and NaN equals NaN above
every other number."""

from hypothesis import given, settings, strategies as st

from repro.sqlengine.executor import _apply_binary
from repro.sqlengine.planner import _COMPARISONS, _typed_filter
from repro.sqlengine.values import Date, Null

NAN = float("nan")
INF = float("inf")

NUMBERS = st.one_of(
    st.sampled_from([
        Null, True, False, 0, 1, -1, 2, 0.0, -0.0, 1.0, 0.5, INF, -INF, NAN,
        2 ** 53, 2 ** 53 + 1, float(2 ** 53), 2 ** 70,
    ]),
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
)
CHARACTERS = st.one_of(
    st.sampled_from([Null, "", " ", "a", "a ", "a  ", "b", "ab", " a"]),
    st.text(alphabet="ab ", max_size=4),
)
DATES = st.one_of(
    st.sampled_from([Null, Date.MIN, Date.MAX, Date(Date.MAX_ORDINAL - 1)]),
    st.builds(Date, st.integers(Date.MIN_ORDINAL, Date.MAX_ORDINAL)),
)
CLASSES = {"numeric": NUMBERS, "character": CHARACTERS, "date": DATES}


def closure(value_class: str, op: str):
    # the two operands in different row-vector slots, as a join has them
    return _typed_filter(value_class, op, (0, 1), (1, 0))


@settings(max_examples=600, deadline=None)
@given(data=st.data(), op=st.sampled_from(sorted(_COMPARISONS)),
       value_class=st.sampled_from(sorted(CLASSES)))
def test_typed_filter_agrees_with_compare(data, op, value_class):
    left = data.draw(CLASSES[value_class], label="left")
    right = data.draw(CLASSES[value_class], label="right")
    vector = [["pad", left], [right, "pad"]]
    expected = _apply_binary(op, left, right) is True
    assert closure(value_class, op)(vector) is expected, (left, op, right)


def test_the_edges_by_hand():
    """The cases the property must cover, written out."""
    def holds(value_class, left, op, right):
        return closure(value_class, op)([["pad", left], [right, "pad"]])

    assert holds("numeric", True, "=", 1) and holds("numeric", False, "<", 1)
    assert holds("numeric", 1, "=", 1.0) and holds("numeric", 0.0, "=", -0.0)
    assert holds("numeric", NAN, "=", NAN) and not holds("numeric", NAN, "<>", NAN)
    assert holds("numeric", NAN, ">", INF) and holds("numeric", -INF, "<", NAN)
    assert not holds("numeric", NAN, "=", 1.0) and holds("numeric", NAN, "<>", 1.0)
    assert holds("character", "a  ", "=", "a") and holds("character", " a", "<>", "a")
    assert holds("date", Date.MIN, "<", Date.MAX)
    for value_class, value in (("numeric", 1), ("character", "a"), ("date", Date.MIN)):
        for op in _COMPARISONS:
            assert not holds(value_class, Null, op, value)
            assert not holds(value_class, value, op, Null)
