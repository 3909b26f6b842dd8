"""The blocked first-witness scan behind the vectorized table checks.

first_failure is compared with the nested loops it stands for: walk the
indices in scan order, run each shallow check before the deeper loop at
the same prefix, and the checks at one index in listed order. Small
block sizes force many blocks, so the block boundaries are exercised.
first_mismatch, its 2-D table-against-table case, is compared with a
double loop over a full table and over a broadcast row, column and
scalar. canonical_dumps is compared with the json.dumps call whose bytes
it promises, errors included; on integer arrays, with that call on the
array's tolist().
"""

import json
from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hypergroups import _util
from hypergroups._util import canonical_dumps, first_failure, first_mismatch


def loop_first_failure(shape, masks):
    """The failure the nested loops meet first; masks are (name, full
    boolean array over the first d loop indices)."""

    def scan(prefix):
        for name, mask in masks:
            if mask.ndim == len(prefix) and mask[prefix]:
                return name, prefix
        if len(prefix) == len(shape):
            return None
        for i in range(shape[len(prefix)]):
            hit = scan(prefix + (i,))
            if hit:
                return hit
        return None

    for i in range(shape[0]):
        hit = scan((i,))
        if hit:
            return hit
    return None


@st.composite
def loop_nests(draw):
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    masks = []
    for k in range(draw(st.integers(1, 4))):
        depth = draw(st.integers(1, len(shape)))
        cells = int(np.prod(shape[:depth]))
        density = draw(st.sampled_from([0.0, 0.05, 0.3]))
        flags = draw(st.lists(st.floats(0, 1), min_size=cells, max_size=cells))
        mask = (np.array(flags) < density).reshape(shape[:depth])
        masks.append((f"check{k}", mask))
    return shape, masks


@contextmanager
def block_cells(cells):
    saved = _util.BLOCK_CELLS
    _util.BLOCK_CELLS = cells
    try:
        yield
    finally:
        _util.BLOCK_CELLS = saved


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(nest=loop_nests(), block=st.sampled_from([1, 3, 8, 1 << 18]))
def test_matches_nested_loops(nest, block):
    shape, masks = nest
    checks = [(name, lambda r, mask=mask: mask[r]) for name, mask in masks]
    with block_cells(block):
        assert first_failure(shape, checks) == loop_first_failure(shape, masks)


@st.composite
def mismatch_cases(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cells = st.integers(0, 2)
    lhs = np.array(draw(st.lists(cells, min_size=rows * cols,
                                 max_size=rows * cols))).reshape(rows, cols)
    shape = draw(st.sampled_from([(rows, cols), (cols,), (rows, 1), ()]))
    size = int(np.prod(shape))
    rhs = np.array(draw(st.lists(cells, min_size=size, max_size=size))).reshape(shape)
    return lhs, rhs if shape else int(rhs)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(case=mismatch_cases(), block=st.sampled_from([1, 3, 8, 1 << 18]))
def test_first_mismatch_matches_loops(case, block):
    lhs, rhs = case
    full = np.broadcast_to(rhs, lhs.shape)
    expected = next(((i, j) for i in range(lhs.shape[0])
                     for j in range(lhs.shape[1]) if lhs[i, j] != full[i, j]),
                    None)
    with block_cells(block):
        assert first_mismatch(lhs, rhs) == expected


def test_shallow_check_before_deeper_loop():
    deep = np.zeros((2, 2, 2), dtype=bool)
    deep[0, 1, 0] = True
    shallow = np.zeros((2, 2), dtype=bool)
    shallow[0, 1] = True
    checks = [("deep", lambda r: deep[r]), ("shallow", lambda r: shallow[r])]
    assert first_failure((2, 2, 2), checks) == ("shallow", (0, 1))
    shallow[0, 1], shallow[1, 0] = False, True
    assert first_failure((2, 2, 2), checks) == ("deep", (0, 1, 0))


def test_stops_at_first_failing_block():
    seen = []

    def mask_of(rows):
        seen.append(rows.start)
        out = np.zeros((rows.stop - rows.start, 2, 2), dtype=bool)
        if rows.start <= 2 < rows.stop:
            out[2 - rows.start, 1, 1] = True
        return out

    with block_cells(4):  # one leading index per block at shape (8, 2, 2)
        assert first_failure((8, 2, 2), [("c", mask_of)]) == ("c", (2, 1, 1))
    assert seen == [0, 1, 2]


def test_block_bound_holds():
    sizes = []

    def mask_of(rows):
        sizes.append((rows.stop - rows.start) * 64 * 64)
        return np.zeros((rows.stop - rows.start, 64, 64), dtype=bool)

    assert first_failure((300, 64, 64), [("c", mask_of)]) is None
    assert max(sizes) <= _util.BLOCK_CELLS
    assert sum(sizes) == 300 * 64 * 64


def test_witness_indices_are_python_ints():
    mask = np.zeros((3, 3), dtype=bool)
    mask[2, 1] = True
    name, at = first_failure((3, 3), [("c", lambda r: mask[r])])
    assert (name, at) == ("c", (2, 1))
    assert all(type(i) is int for i in at)


def dump_outcome(dump, value):
    try:
        return dump(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def reference_dumps(value):
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(-(2 ** 200), 2 ** 200),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(),
    st.sampled_from(['"\\/\b\f\n\r\t', "\x00\x1f\x7f", "\u00e9\u00fc\u00df",
                     "\u2028\u2029", "\U0001f600", "\ud800", ""]),
)
key_kinds = st.sampled_from([
    st.text(max_size=3), st.integers(-3, 3), st.floats(allow_nan=True),
    st.booleans(), st.none(), st.one_of(st.integers(-3, 3), st.floats()),
    st.one_of(st.text(max_size=2), st.integers(-3, 3)),  # unsortable mixes
])


def json_containers(children):
    int_rows = st.lists(st.integers(), min_size=1, max_size=8)
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        int_rows, int_rows.map(tuple),
        st.lists(st.one_of(st.integers(-2, 2), st.booleans()), max_size=6),
        key_kinds.flatmap(lambda keys: st.dictionaries(keys, children, max_size=4)),
    )


json_values = st.recursive(json_leaves, json_containers, max_leaves=30)


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(value=json_values)
def test_canonical_dumps_is_json_dumps(value):
    assert dump_outcome(canonical_dumps, value) == dump_outcome(reference_dumps, value)


@st.composite
def json_tables(draw):
    """A list of rows, mostly non-empty lists of ints in one range: small
    ones, negatives, or ints near 2^16 or past 2^63. Now and then a row
    is a tuple, empty, of another length, or holds a bool, a float or
    None."""
    cell = draw(st.sampled_from([
        st.integers(0, 9), st.integers(0, 2 ** 16 - 1), st.integers(-3, 3),
        st.integers(2 ** 16 - 2, 2 ** 16 + 2), st.integers(2 ** 63 - 2, 2 ** 63 + 2),
        st.integers(-(2 ** 70), 2 ** 70),
    ]))
    width = draw(st.integers(1, 5))
    odd_cells = st.one_of(st.booleans(), st.floats(allow_nan=False), st.none())
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        row = draw(st.lists(cell, min_size=width, max_size=width))
        kind = draw(st.sampled_from(["list"] * 6 + ["tuple", "empty", "ragged", "odd"]))
        if kind == "tuple":
            row = tuple(row)
        elif kind == "empty":
            row = []
        elif kind == "ragged":
            row = row + draw(st.lists(cell, min_size=1, max_size=2))
        elif kind == "odd":
            row[draw(st.integers(0, width - 1))] = draw(odd_cells)
        rows.append(row)
    return tuple(rows) if draw(st.booleans()) else rows


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(value=st.recursive(
    json_tables(),
    lambda children: st.one_of(st.lists(children, max_size=3),
                               st.dictionaries(st.text(max_size=2), children, max_size=3)),
    max_leaves=6))
def test_canonical_dumps_on_tables(value):
    assert canonical_dumps(value) == reference_dumps(value)


def as_lists(value):
    """value with each array in it, in lists and dicts at any depth, as
    its tolist()."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, list):
        return [as_lists(v) for v in value]
    if isinstance(value, dict):
        return {k: as_lists(v) for k, v in value.items()}
    return value


@st.composite
def int_arrays(draw):
    """An n x m integer array, n, m >= 1, of intp, int32 or uint8, its
    values in one range clipped to the dtype: small ones, mostly within
    [0, size] and so written from a token list, or negatives or values
    around 2^16 or up to 2^31, which are not. Now and then it is
    read-only."""
    dtype = np.dtype(draw(st.sampled_from([np.intp, np.int32, np.uint8])))
    info = np.iinfo(dtype)
    shape = draw(st.sampled_from([(1, 1), (1, 4), (5, 1)])
                 | st.tuples(st.integers(1, 6), st.integers(1, 6)))
    lo, hi = draw(st.sampled_from([
        (0, 1), (0, 9), (0, 40), (-3, 3), (2 ** 16 - 2, 2 ** 16 + 2), (0, 2 ** 31 - 1),
    ]))
    lo, hi = min(max(lo, info.min), info.max), min(hi, info.max)
    arr = draw(hnp.arrays(dtype, shape, elements=st.integers(lo, hi)))
    arr.flags.writeable = draw(st.booleans())
    return arr


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(value=st.recursive(
    int_arrays(),
    lambda children: st.one_of(st.lists(children, max_size=3),
                               st.dictionaries(st.text(max_size=2), children, max_size=3)),
    max_leaves=6))
def test_canonical_dumps_on_arrays(value):
    assert canonical_dumps(value) == reference_dumps(as_lists(value))


def test_canonical_dumps_on_a_table_past_two_to_the_sixteen():
    # 90,000 cells, so values up to 90,000 are written from a token
    # list, in blocks of 13 rows, the last one short
    arr = np.arange(300 * 300, dtype=np.intp).reshape(300, 300)[::-1]
    arr.flags.writeable = False
    assert canonical_dumps({"t": [arr]}) == reference_dumps({"t": [arr.tolist()]})


def test_canonical_dumps_refuses_other_arrays():
    for arr in [np.zeros((2, 2)), np.ones((2, 3), dtype=bool), np.array(3),
                np.zeros((2, 2, 2), dtype=np.intp), np.arange(3),
                np.array([["a"]]), np.array([[1]], dtype=object)]:
        for value in (arr, {"k": [arr]}):
            outcome = dump_outcome(canonical_dumps, value)
            assert outcome == (TypeError, "Object of type ndarray is not JSON serializable")
            assert outcome == dump_outcome(reference_dumps, value)


def test_canonical_dumps_edge_values():
    deep_list, deep_dict = [[0, 1]], {"k": [0, {"a": None}]}
    for _ in range(150):
        deep_list, deep_dict = [deep_list, 1], {"k": deep_dict, "j": [True, 2]}
    values = [
        [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [0], (5,), [True],
        [1, True, 0, False], [1, 2.0], [[0, 1], [1, 0]], [1, None],
        {1: "a", 2.5: "b", -1: "c"}, {True: 1, False: 0}, {None: [1]},
        {float("nan"): 0}, {float("inf"): [1, 2], float("-inf"): 0},
        [float("nan"), float("inf"), -float("inf"), -0.0, 1e300],
        [2 ** 100, -(2 ** 100)], {"big": 10 ** 5000}, [10 ** 5000],
        deep_list, deep_dict,
        {(1, 2): 3}, {"a": 1, 2: "b"}, {1, 2}, [1, np.int64(2)], np.int64(3),
        "\x00\u00e9\ud800\U0001f600",
    ]
    for value in values:
        assert dump_outcome(canonical_dumps, value) == dump_outcome(reference_dumps, value), value
