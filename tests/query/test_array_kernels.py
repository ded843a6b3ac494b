"""Array kernels against the scalar closures they stand in for.

Every dynamic clause shape the parser accepts either compiles to an array
kernel that agrees with the closure element by element, or declines
(``array is None``) and leaves the closure as the only kernel.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query import parse_query
from repro.query.analysis import analyze_query
from repro.query.expressions import (
    ARRAY_INT_LIMIT,
    NotVectorizable,
    as_column,
)


def analysis_of(where):
    return analyze_query(parse_query(
        f"SELECT S.id, T.id FROM S, T [windowsize=1 sampleinterval=100] WHERE {where}"
    ))


#: dynamic join clauses with an array form (``u`` / ``v`` are dynamic)
VECTORIZED_JOINS = [
    "S.u = T.u",
    "S.u != T.u",
    "S.u < T.u",
    "S.u <= T.v",
    "S.u > T.u",
    "S.u >= T.v",
    "S.u = T.u + 5",
    "S.u - 3 = T.u * 2",
    "S.u % 4 = T.u % 4",
    "S.u / 2 < T.v",
    "abs(S.v - T.v) > 1000",
    "min(S.u, S.v) < max(T.u, T.v, 3)",
    "S.u = T.u AND S.v < T.v",
    "S.u = T.u OR S.v < T.v",
    "NOT (S.u = T.u)",
    "NOT (S.u = T.u AND S.v < T.v) OR abs(S.u - T.v) >= 2",
    "S.u = T.u AND (S.v < T.v OR NOT S.v = 7)",
    "S.id < 25 AND S.u + S.id = T.u",      # a static attribute inside a dynamic clause
    "-S.u < T.u - 2.5",
]
#: clause shapes numpy cannot evaluate like Python does: scalar closure only
SCALAR_ONLY_JOINS = [
    "hash(S.u) % 2 = hash(T.u) % 2",
    "dist(S.pos, T.pos) < S.v",
    "S.u / T.u < 2",
    "S.u % T.u = 1",
    "S.u * T.u < 6",                       # a product of two columns could pass 2**53
    "S.u = T.u AND hash(S.v) = T.v",
]

numbers = st.one_of(
    st.integers(-6, 6),
    st.integers(-ARRAY_INT_LIMIT, ARRAY_INT_LIMIT),
    st.sampled_from([-2.5, -0.0, 0.5, 1.0, 3.0, 1e9, float("inf"), float("nan")]),
)


def column_lists(size):
    """Equal-length value lists for u and v: all ints, all floats or mixed."""
    return st.one_of(
        st.lists(st.integers(-6, 6), min_size=size, max_size=size),
        st.lists(st.integers(-ARRAY_INT_LIMIT, ARRAY_INT_LIMIT), min_size=size, max_size=size),
        st.lists(st.floats(-8, 8, allow_nan=False).map(lambda f: round(f * 2) / 2),
                 min_size=size, max_size=size),
        st.lists(numbers, min_size=size, max_size=size),
    )


@st.composite
def relations(draw):
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    source = {"u": draw(column_lists(n)), "v": draw(column_lists(n)),
              "id": list(range(20, 20 + n))}
    target = {"u": draw(column_lists(m)), "v": draw(column_lists(m))}
    return source, target


def rows_of(relation):
    size = len(next(iter(relation.values())))
    return [{a: values[i] for a, values in relation.items()} for i in range(size)]


# inf and nan compare and combine in numpy as they do in Python; numpy also
# warns about them, which is all these filters silence
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("clause", VECTORIZED_JOINS)
@given(relations())
@settings(max_examples=60, deadline=None)
def test_join_array_kernel_equals_the_closure(clause, relation_values):
    source, target = relation_values
    kernel = analysis_of(clause).join_kernel()
    assert kernel.array is not None
    s_columns = {a: as_column(source[a]) for a in kernel.source_attributes}
    t_columns = {a: as_column(target[a]) for a in kernel.target_attributes}
    expected = [[bool(kernel.scalar(s, t)) for t in rows_of(target)]
                for s in rows_of(source)]
    if any(c.dtype == object for c in (*s_columns.values(), *t_columns.values())):
        return  # mixed or wide values: the store runs the closure on these
    got = kernel.array({a: c[:, None] for a, c in s_columns.items()},
                       {a: c[None, :] for a, c in t_columns.items()})
    got = np.broadcast_to(np.asarray(got, dtype=bool), (len(expected), len(expected[0])))
    assert got.tolist() == expected


@pytest.mark.parametrize("clause", SCALAR_ONLY_JOINS)
def test_shapes_numpy_cannot_express_keep_only_the_closure(clause):
    kernel = analysis_of(clause).join_kernel()
    assert kernel.array is None
    assert callable(kernel.scalar)


SELECTIONS = [
    ("S.adc0 < 500", True),
    ("S.adc0 < 500 AND S.u != 3", True),
    ("S.u % 2 = 0 OR NOT S.v >= 2", True),
    ("abs(S.v) + 1 > S.u", True),
    ("hash(S.u) % 2 = 0", False),
    ("S.adc0 / S.u < 3", False),
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("clause,vectorized", SELECTIONS)
@given(relations())
@settings(max_examples=40, deadline=None)
def test_selection_array_kernel_equals_the_closure(clause, vectorized, relation_values):
    source, _ = relation_values
    source["adc0"] = [abs(hash(str(v))) % 1000 for v in source["u"]]
    kernel = analysis_of(f"{clause} AND S.u = T.u").selection_kernel("S")
    assert (kernel.array is not None) == vectorized
    columns = {a: as_column(source[a]) for a in kernel.attributes}
    if not vectorized or any(c.dtype == object for c in columns.values()):
        return
    got = np.broadcast_to(np.asarray(kernel.array(columns), dtype=bool), len(source["u"]))
    assert got.tolist() == [bool(kernel.scalar(row)) for row in rows_of(source)]


def test_kernels_read_only_the_attributes_they_name():
    analysis = analysis_of(
        "S.adc0 < 500 AND T.light > 3 AND S.u = T.u AND abs(S.v - T.humidity) > 2")
    join = analysis.join_kernel()
    assert join.source_attributes == ("u", "v")
    assert join.target_attributes == ("humidity", "u")
    assert analysis.selection_kernel("S").attributes == ("adc0",)
    assert analysis.selection_kernel("T").attributes == ("light",)


def test_a_query_without_dynamic_clauses_joins_and_sends_everything():
    analysis = analysis_of("S.id < 5 AND T.id > 7 AND S.x = T.y")
    assert analysis.join_kernel().array({}, {}) is True
    assert analysis.join_kernel().scalar({}, {}) is True
    assert analysis.selection_kernel("S").attributes == ()
    assert analysis.selection_kernel("S").array({}) is True


def test_as_column_keeps_numpy_to_what_it_computes_like_python():
    assert as_column([1, 2, 3]).dtype == np.int64
    assert as_column([0.5, 2.0]).dtype == np.float64
    assert as_column([True, False]).dtype == bool
    for values in ([1, 2.0], [1, None], ["a", "b"], [(1, 2), (3, 4)],
                   [ARRAY_INT_LIMIT + 1], [True, 1], []):
        column = as_column(values)
        assert column.dtype == object and column.tolist() == values
    wide = np.array([0, ARRAY_INT_LIMIT + 1])
    assert as_column(wide).dtype == object and as_column(wide).tolist() == wide.tolist()
    assert as_column(np.array([1, 2], dtype=np.int32)).dtype == np.int64


def test_compile_array_refuses_what_it_cannot_mirror():
    from repro.query import BinaryOp, AttributeRef, FunctionCall, Literal

    ref = AttributeRef("S", "u")
    for expression in (
        Literal("text"), Literal(2 ** 60),
        BinaryOp("/", ref, Literal(0)), BinaryOp("%", ref, ref),
        FunctionCall("hash", (ref,)), FunctionCall("min", ()),
        BinaryOp("*", BinaryOp("*", ref, ref), ref),
    ):
        with pytest.raises(NotVectorizable):
            expression.compile_array()
