"""Group layer: table validation, builtin families, subgroups, cosets,
quotients, isomorphisms.

Oracles in this file recompute expected values from first principles
(brute-force subset scans, permutation composition, defining relations)
so the frozen literals below are re-derived on every run rather than
trusted.
"""

import copy
import dataclasses
import itertools
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergroups import _util, groups
from hypergroups import (
    AlgebraError,
    FiniteGroup,
    IndexOutOfRangeError,
    MalformedTablesError,
    NoIdentityError,
    NoInverseError,
    NotAssociativeError,
    NotClosedError,
    NotNormalError,
    NotSubgroupError,
    SizeLimitExceededError,
    Subgroup,
    UnknownSpecError,
    automorphisms,
    builtin_groups,
    cyclic_group,
    dihedral_group,
    direct_product,
    element_orders,
    enumerate_subgroups,
    format_cayley_text,
    group_from_cayley_table,
    group_from_json,
    group_from_spec,
    group_isomorphism,
    group_isomorphisms,
    group_to_json,
    is_normal,
    parse_cayley_text,
    quaternion_group,
    quotient_group,
    right_cosets,
    standard_construction,
    subgroup_closure,
    subgroup_from_elements,
    symmetric_group,
    trivial_group,
)
from hypergroups.groups import (_right_generators, first_nonassociative,
                                light_associative)

import loop_oracles

# --------------------------------------------------------------------
# oracles


def oracle_is_group(table):
    """Brute-force group test independent of the library's validator."""
    n = len(table)
    if any(len(row) != n for row in table):
        return False
    if any(not 0 <= v < n for row in table for v in row):
        return False
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return False
    neutrals = [
        e for e in range(n)
        if all(table[e][a] == a and table[a][e] == a for a in range(n))
    ]
    if len(neutrals) != 1:
        return False
    e = neutrals[0]
    return all(
        any(table[a][b] == e and table[b][a] == e for b in range(n))
        for a in range(n)
    )


def oracle_subgroups(group):
    """Every closed subset containing the identity, by scanning all
    2^n subsets. Only sane for |G| <= 8."""
    n, t = group.order, group.table.tolist()
    found = []
    for mask in range(1, 1 << n):
        elems = [x for x in range(n) if (mask >> x) & 1]
        if group.identity not in elems:
            continue
        s = set(elems)
        if all(t[a][b] in s for a in elems for b in elems):
            found.append(tuple(elems))
    return sorted(found, key=lambda t: (len(t), t))


def oracle_s3_table():
    """S3 rebuilt from scratch: lexicographic one-line permutations,
    (sigma . tau)(x) = tau(sigma(x))."""
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return [
        [index[tuple(tau[sigma[x]] for x in range(3))] for tau in perms]
        for sigma in perms
    ]


def oracle_isomorphisms(g1, g2):
    """All isomorphism tables by filtering every bijection. Only sane
    for |G| <= 6."""
    if g1.order != g2.order:
        return []
    t1, t2 = g1.table.tolist(), g2.table.tolist()
    out = []
    for f in itertools.permutations(range(g1.order)):
        if all(
            f[t1[a][b]] == t2[f[a]][f[b]]
            for a in range(g1.order)
            for b in range(g1.order)
        ):
            out.append(list(f))
    return out


def relabelled(group, perm):
    """group with each element x renamed perm[x]."""
    n, t = group.order, group.table.tolist()
    inv = [0] * n
    for x, y in enumerate(perm):
        inv[y] = x
    return group_from_cayley_table(
        [[perm[t[inv[a]][inv[b]]] for b in range(n)] for a in range(n)])


@st.composite
def relabelled_mutants(draw, table):
    """table with its labels permuted, then one to three edits: a cell
    set to a value in [-1, n], or a row cut short or made longer."""
    n = len(table)
    perm = draw(st.permutations(range(n)))
    inv = [0] * n
    for x, y in enumerate(perm):
        inv[y] = x
    out = [[perm[table[inv[a]][inv[b]]] for b in range(n)] for a in range(n)]
    for _ in range(draw(st.integers(1, 3))):
        a = draw(st.integers(0, n - 1))
        edit = draw(st.sampled_from(["cell"] * 8 + ["short", "long"]))
        if edit == "short":
            out[a] = out[a][:-1]
        elif edit == "long":
            out[a] = out[a] + [0]
        elif out[a]:
            out[a][draw(st.integers(0, len(out[a]) - 1))] = draw(st.integers(-1, n))
    return out


def describe(exc):
    """An exception as (type, args, witness), None as None."""
    if exc is None:
        return None
    return type(exc), exc.args, getattr(exc, "witness", None)


@st.composite
def magmas(draw):
    """Square tables: groups, groups with one cell changed, constant
    tables, left and right projections, and random tables."""
    kind = draw(st.sampled_from(["group", "mutant", "constant", "left",
                                 "right", "random"]))
    if kind in ("group", "mutant"):
        spec = draw(st.sampled_from(["Z2", "Z5", "S3", "Q8", "Z2xZ4", "D4",
                                     "Z3xS3", "Z2xZ2xZ2xZ2"]))
        table = group_from_spec(spec).table.tolist()
        n = len(table)
        if kind == "mutant":
            a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            table[a][b] = draw(st.integers(0, n - 1))
        return table
    n = draw(st.integers(1, 7))
    if kind == "constant":
        c = draw(st.integers(0, n - 1))
        return [[c] * n for _ in range(n)]
    if kind == "left":
        return [[a] * n for a in range(n)]
    if kind == "right":
        return [list(range(n)) for _ in range(n)]
    cell = st.integers(0, n - 1)
    return [draw(st.lists(cell, min_size=n, max_size=n)) for _ in range(n)]


class TestFirstNonassociative:
    """Light's test (scan c over a generating set first) must give the
    loops' first witness. A small BLOCK_CELLS sends small tables down
    the generating-set path; the default sends them to the full scan."""

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(table=magmas(), block=st.sampled_from([1, 7, 64, _util.BLOCK_CELLS]))
    def test_matches_loop_oracle(self, table, block):
        t = np.array(table, dtype=np.intp)
        with mock.patch.object(_util, "BLOCK_CELLS", block):
            got = first_nonassociative(t)
        assert got == loop_oracles.associativity_witness(table)
        assert got is None or all(type(i) is int for i in got)

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(table=magmas())
    def test_generating_set_is_greedy_and_reaches_everything(self, table):
        # each generator is the smallest element that right products of
        # the earlier ones miss, and the products of all reach every one
        def reached(gens):
            seen, todo = set(gens), list(gens)
            while todo:
                x = todo.pop()
                for s in gens:
                    if table[x][s] not in seen:
                        seen.add(table[x][s])
                        todo.append(table[x][s])
            return seen

        gens = _right_generators(np.array(table, dtype=np.intp))
        n = len(table)
        for k, s in enumerate(gens):
            earlier = reached(gens[:k])
            assert s == min(set(range(n)) - earlier)
        assert reached(gens) == set(range(n))

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(table=magmas(), data=st.data())
    def test_generating_set_with_moves_and_an_order(self, table, data):
        # with extra maps of the set and an order to pick from, each
        # generator is the first element of the order that the maps and
        # right products of the earlier generators miss
        n = len(table)
        maps = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n,
                                           max_size=n), max_size=2))
        order = data.draw(st.permutations(range(n)))

        def reached(gens):
            seen, todo = set(gens), list(gens)
            while todo:
                x = todo.pop()
                for y in [table[x][s] for s in gens] + [f[x] for f in maps]:
                    if y not in seen:
                        seen.add(y)
                        todo.append(y)
            return seen

        gens = _right_generators(np.array(table, dtype=np.intp),
                                 [np.array(f, dtype=np.intp) for f in maps], order)
        for k, s in enumerate(gens):
            earlier = reached(gens[:k])
            assert s == next(x for x in order if x not in earlier)
        assert reached(gens) == set(range(n))

    @pytest.mark.parametrize("spec", ["Z2xZ2xZ2xZ2xZ2xZ2xZ2xZ2", "D8xZ16", "S5"])
    def test_large_groups_pass_and_mutants_fail(self, spec):
        # past one block, so the generating-set scan decides the groups;
        # a changed cell sends the mutant to the full scan
        table = group_from_spec(spec).table.tolist()
        assert len(table) ** 3 > _util.BLOCK_CELLS
        assert first_nonassociative(np.array(table, dtype=np.intp)) is None
        table[37][91] = table[37][92]
        assert (first_nonassociative(np.array(table, dtype=np.intp))
                == loop_oracles.associativity_witness(table))


# --------------------------------------------------------------------
# table validation


class TestLightAssociative:
    @pytest.mark.parametrize("spec", ["Z2xZ2xZ2xZ2xZ2xZ2xZ2xZ2", "D8xZ16", "S4"])
    def test_groups_pass_and_a_changed_cell_fails(self, spec):
        table = group_from_spec(spec).table.tolist()
        assert light_associative(np.array(table, dtype=np.intp))
        table[5][11] = table[5][12]
        assert not light_associative(np.array(table, dtype=np.intp))

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(table=magmas())
    def test_equals_the_loop_verdict(self, table):
        assert (light_associative(np.array(table, dtype=np.intp))
                == (loop_oracles.associativity_witness(table) is None))


class TestNpTable:
    """The table is stored once, as a read-only intp array."""

    def test_read_only(self):
        t = cyclic_group(4).table
        assert isinstance(t, np.ndarray)
        assert t.dtype == np.intp and not t.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            t[0, 0] = 1

    def test_cells_refuse_writes(self):
        g = cyclic_group(4)
        # the table is a read-only array, the other cells are tuples
        with pytest.raises(ValueError, match="read-only"):
            g.table[1][1] = 3
        with pytest.raises(ValueError, match="read-only"):
            g.table[1] = (1, 0, 3, 2)
        with pytest.raises(TypeError):
            g.inverse[1] = 1
        h = subgroup_from_elements(g, [0, 2])
        dec = right_cosets(g, h)
        for cells in (h.elements, h.index_in, dec.cosets, dec.cosets[0],
                      dec.coset_of):
            with pytest.raises(TypeError):
                cells[0] = 1
        assert g.table.tolist() == [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]]

    def test_attributes_refuse_writes(self):
        # over the trivial subgroup, xi is the group table
        g = cyclic_group(4)
        h = subgroup_from_elements(g, [0])
        dec = right_cosets(g, h)
        klein = group_from_spec("Z2xZ2")
        for obj, name, value in ((g, "table", klein.table), (g, "inverse", klein.inverse),
                                 (g, "order", 2), (g, "_inverse", klein.np_inverse()),
                                 (h, "parent", klein), (h, "elements", (0, 1)),
                                 (h, "index_in", (0, 1, -1, -1)), (h, "_group", klein),
                                 (dec, "cosets", ((0,),)), (dec, "coset_of", (0,))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, value)
        xi = standard_construction(g, h, [0, 1, 2, 3]).xi
        assert (xi == g.table).all()

    def test_unchanged_table_is_not_rebuilt(self):
        g = cyclic_group(4)
        assert g.table is g.table
        # no field holds a second copy of the table
        arrays = [getattr(g, f.name) for f in dataclasses.fields(g)
                  if isinstance(getattr(g, f.name), np.ndarray)]
        assert [a.ndim for a in arrays] == [2, 1]

    def test_rows_and_array_make_one_group(self):
        table = group_from_spec("S3").table.tolist()
        from_rows = FiniteGroup(6, table, 0, [0, 1, 2, 4, 3, 5], "S3")
        from_array = FiniteGroup(6, np.array(table, dtype=np.uint8), 0,
                                 np.array([0, 1, 2, 4, 3, 5]), "S3")
        assert from_rows == from_array == group_from_spec("S3")
        assert hash(from_rows) == hash(from_array)
        table[4][5] = 0   # one cell changed, still in range
        assert FiniteGroup(6, table, 0, [0, 1, 2, 4, 3, 5], "S3") != from_rows

    def test_mul_returns_an_int(self):
        g = group_from_spec("Z2xS3")
        assert all(type(g.mul(a, b)) is int and g.mul(a, b) == g.table[a, b]
                   for a in range(g.order) for b in range(g.order))

    def test_subgroup_as_group_is_made_once(self):
        g = group_from_spec("Z2xZ2")
        h = subgroup_from_elements(g, [0, 1])
        assert h.as_group() is h.as_group()
        assert h.as_group().table.tolist() == [[0, 1], [1, 0]]
        assert h.as_group().inverse == (0, 1)
        assert not h.as_group().table.flags.writeable


class TestFiniteGroupChecks:
    """The constructor checks shape and range, not the group axioms."""

    def test_an_out_of_range_cell_is_refused(self):
        # it used to reach verify_axioms, which raised a bare IndexError
        table = [[0, 1], [1, 5]]
        with pytest.raises(NotClosedError) as ei:
            FiniteGroup(2, table, 0, [0, 1], "H")
        with pytest.raises(NotClosedError) as expected:
            group_from_cayley_table(table)
        assert describe(ei.value) == describe(expected.value)
        with pytest.raises(NotClosedError) as ei:
            FiniteGroup(2, np.array(table), 0, [0, 1], "H")
        assert describe(ei.value) == describe(expected.value)

    def test_a_subgroup_not_closed_is_refused(self):
        # {0, 1} in Z4: 1 + 1 = 2 is outside, and its -1 cell used to
        # wrap in numpy indexing, so standard_construction built a
        # hypergroup without complaint
        with pytest.raises(NotClosedError) as ei:
            Subgroup(parent=cyclic_group(4), elements=(0, 1)).as_group()
        assert ei.value.witness == (1, 1, -1)
        with pytest.raises(IndexOutOfRangeError):
            Subgroup(parent=cyclic_group(4), elements=(0, 4))

    @pytest.mark.parametrize("order, table, identity, inverse, error, where", [
        (2, [[0, 1]], 0, [0, 1], MalformedTablesError, "table"),
        (2, [[0, 1], [1]], 0, [0, 1], NotClosedError, (1, 1, -1)),
        (2, np.zeros((2, 3), dtype=int), 0, [0, 1], NotClosedError, (0, 3, -1)),
        (2, [[0, 1], [1, -1]], 0, [0, 1], NotClosedError, (1, 1, -1)),
        (2, [[0, 1], [1, 0.0]], 0, [0, 1], MalformedTablesError, "table[1][1]"),
        (2, np.array([[0, 1], [1, 0]]) * 1.0, 0, [0, 1], MalformedTablesError,
         "table[0][0]"),
        (2, [[0, 1], [1, 0]], 2, [0, 1], MalformedTablesError, "identity"),
        (2, [[0, 1], [1, 0]], True, [0, 1], MalformedTablesError, "identity"),
        (2, [[0, 1], [1, 0]], 0, [0, 2], MalformedTablesError, "inverse"),
        (2, [[0, 1], [1, 0]], 0, [0], MalformedTablesError, "inverse"),
        (2, [[0, 1], [1, 0]], 0, [0.0, 1.0], MalformedTablesError, "inverse"),
    ])
    def test_faults(self, order, table, identity, inverse, error, where):
        with pytest.raises(error) as ei:
            FiniteGroup(order, table, identity, inverse, "H")
        assert (ei.value.location if error is MalformedTablesError
                else ei.value.witness) == where

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(table=st.sampled_from(["Z5", "S3", "Q8", "Z2xZ4"])
           .flatmap(lambda spec: relabelled_mutants(group_from_spec(spec).table.tolist())))
    def test_range_faults_match_group_from_cayley_table(self, table):
        # in-range tables are kept whatever their axioms; a range or
        # length fault is the one group_from_cayley_table reports
        n = len(table)
        expected = loop_oracles.cayley_error(table)
        try:
            g = FiniteGroup(n, table, 0, list(range(n)), "H")
        except NotClosedError as exc:
            assert describe(exc) == describe(expected)
        else:
            assert not isinstance(expected, NotClosedError)
            assert g.table.tolist() == table

    def test_a_non_group_in_range_is_kept(self):
        g = FiniteGroup(2, [[0, 1], [1, 1]], 0, [0, 1], "H")
        assert g.table.tolist() == [[0, 1], [1, 1]] and g.inverse == (0, 1)


class TestCopyAndPickle:
    """Copies rebuild through the constructors, so they stay checked,
    read-only and frozen."""

    @staticmethod
    def copies(obj):
        return [copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))]

    def test_group_subgroup_and_cosets(self):
        g = group_from_spec("Z2xS3")
        h = subgroup_closure(g, [3])
        dec = right_cosets(g, h)
        for g2 in self.copies(g):
            assert g2 == g and g2.inverse == g.inverse
            assert not g2.table.flags.writeable
            assert g2.table.tolist() == g.table.tolist()
            with pytest.raises(dataclasses.FrozenInstanceError):
                g2.table = ()
        for h2 in self.copies(h):
            assert h2 == h and h2.index_in == h.index_in
            assert h2.as_group() == h.as_group()
            assert not h2.as_group().table.flags.writeable
            assert not h2.parent.table.flags.writeable
            with pytest.raises(dataclasses.FrozenInstanceError):
                h2.elements = (0,)
        for dec2 in self.copies(dec):
            assert dec2 == dec
            assert not dec2.subgroup.parent.table.flags.writeable
            with pytest.raises(TypeError):
                dec2.cosets[0][0] = 1
            with pytest.raises(dataclasses.FrozenInstanceError):
                dec2.coset_of = ()

    def test_hashes_survive_copies(self):
        g = group_from_spec("Z2xS3")
        h = subgroup_closure(g, [3])
        dec = right_cosets(g, h)
        for obj in (g, h, dec):
            for obj2 in self.copies(obj):
                assert obj2 == obj and hash(obj2) == hash(obj)
        assert len({g, *self.copies(g)}) == 1 and len({h, *self.copies(h)}) == 1

    def test_arrays_held_once(self):
        # each tuple that numpy code reads is also a read-only intp
        # array, the same object on every call, and copies rebuild it
        g = group_from_spec("Z2xS3")
        h = subgroup_closure(g, [3])
        dec = right_cosets(g, h)
        for obj, pairs in ((g, [("inverse", "np_inverse")]),
                           (h, [("elements", "np_elements"), ("index_in", "np_index_in")]),
                           (dec, [("coset_of", "np_coset_of")])):
            for copied in [obj] + self.copies(obj):
                for name, method in pairs:
                    arr = getattr(copied, method)()
                    assert arr is getattr(copied, method)()
                    assert arr.dtype == np.intp and not arr.flags.writeable
                    assert tuple(arr.tolist()) == getattr(obj, name)

    def test_unpickling_checks_the_table(self):
        g = cyclic_group(3)
        cls, args = g.__reduce__()
        bad = np.array(args[1])
        bad[2, 2] = 3
        with pytest.raises(NotClosedError):
            cls(args[0], bad, *args[2:])


class TestGroupFromCayleyTable:
    def test_z4_accepted(self):
        table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
        g = group_from_cayley_table(table, name="Z4")
        assert g.order == 4
        assert g.identity == 0
        assert list(g.inverse) == [0, 3, 2, 1]

    def test_not_closed(self):
        table = [[0, 1], [1, 7]]
        with pytest.raises(NotClosedError) as ei:
            group_from_cayley_table(table)
        assert ei.value.witness == (1, 1, 7)

    def test_associativity_failure_witness_is_lex_first(self):
        # closed, has identity 0, but (1*1)*1 = 1 while 1*(1*1) = 0
        table = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
        with pytest.raises(NotAssociativeError) as ei:
            group_from_cayley_table(table)
        assert ei.value.witness == (1, 1, 1)

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(spec=st.sampled_from(["Z6", "S3", "Q8", "Z2xZ4", "D4", "Z3xS3"]),
           data=st.data())
    def test_mutated_tables_give_loop_witness(self, spec, data):
        # row and column 0 stay, so 0 stays the identity
        table = group_from_spec(spec).table.tolist()
        n = len(table)
        for _ in range(data.draw(st.integers(1, 3))):
            a, b = (data.draw(st.integers(1, n - 1)) for _ in range(2))
            table[a][b] = data.draw(st.integers(0, n - 1))
        failed, witness, _ = loop_oracles.cayley_failure(table)
        try:
            group_from_cayley_table(table)
            got = (False, None)
        except (NotAssociativeError, NoInverseError) as exc:
            got = (True, exc.witness)
        assert got == (failed, witness)

    def test_associativity_witness_past_the_first_block(self, monkeypatch):
        # one leading element per block: the witness (1, ., .) of a
        # mutated Z2^5 lies in the second block
        table = group_from_spec("Z2xZ2xZ2xZ2xZ2").table.tolist()
        monkeypatch.setattr(_util, "BLOCK_CELLS", len(table) ** 2)
        table[21][5] = table[21][6]
        expected = loop_oracles.associativity_witness(table)
        assert expected[0] == 1
        with pytest.raises(NotAssociativeError) as ei:
            group_from_cayley_table(table)
        assert ei.value.witness == expected

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(table=st.sampled_from(["Z5", "S3", "Q8", "Z2xZ4", "D4", "Z3xS3"])
           .flatmap(lambda spec: relabelled_mutants(group_from_spec(spec).table.tolist())),
           block=st.sampled_from([1, 7, 64, _util.BLOCK_CELLS]))
    def test_errors_match_loop_oracle(self, table, block):
        # any cell may change, so the identity can go, move or stay; a
        # value may leave the range and a row may lose or gain a cell
        expected = loop_oracles.cayley_error(table)
        with mock.patch.object(_util, "BLOCK_CELLS", block):
            try:
                group_from_cayley_table(table)
                got = None
            except (NotClosedError, NoIdentityError, NotAssociativeError,
                    NoInverseError) as exc:
                got = exc
        assert describe(got) == describe(expected)

    def test_no_identity(self):
        table = [[1, 1], [1, 1]]
        with pytest.raises(NoIdentityError):
            group_from_cayley_table(table)

    def test_no_inverse(self):
        # min(a, b): associative monoid with identity 1; 0 not invertible
        table = [[0, 0], [0, 1]]
        with pytest.raises(NoInverseError) as ei:
            group_from_cayley_table(table)
        assert ei.value.witness == 0

    def test_ragged_rejected(self):
        with pytest.raises(NotClosedError):
            group_from_cayley_table([[0, 1], [1]])

    @pytest.mark.parametrize("table, location", [
        ([1, 2], "table[0]"),
        ([[0, 1], (1, 0), "10"], "table[2]"),
        (5, "table"),
        ("01", "table"),
    ])
    def test_rows_that_are_not_sequences(self, table, location):
        with pytest.raises(MalformedTablesError) as ei:
            group_from_cayley_table(table)
        assert ei.value.location == location

    @pytest.mark.parametrize("table, dtype", [
        ([[0, 1, 0], [1, 0, 1]], np.int64),              # wrong shape: 2 rows of 3
        ([[0, 1], [1, 0], [0, 1]], np.int64),            # wrong shape: 3 rows of 2
        ([[], []], np.int64),                            # wrong shape: empty rows
        ([[0, 1], [1, 2]], np.int64),                    # a cell out of range
        ([[0, 1], [1, 2]], np.uint8),
        ([[0, 1], [-1, 0]], np.int32),                   # a negative cell
        ([[0, 1], [1, 2 ** 63]], np.uint64),             # a cell past intp
        ([[1, 1], [1, 1]], np.int64),                    # no identity
        ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], np.int64),   # non-associative
        ([[0, 0], [0, 1]], np.int64),                    # no inverse
        ([[0, 1], [1, 0]], np.uint8),                    # a group
    ])
    def test_an_array_is_validated_as_its_rows(self, table, dtype):
        # an integer array is read as it is, never converted to rows: the
        # RowlessArray's tolist() raises, and so would a stored table's
        # that were not a plain array
        arr = np.array(table, dtype=dtype).reshape(len(table), -1)
        outcomes = []
        for value in (arr.tolist(), arr.view(loop_oracles.RowlessArray)):
            try:
                g = group_from_cayley_table(value)
                outcomes.append((g.table.tolist(), g.identity, g.inverse))
            except AlgebraError as exc:
                outcomes.append((type(exc), str(exc), getattr(exc, "witness", None)))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.filterwarnings("ignore::PendingDeprecationWarning")
    @pytest.mark.parametrize("spec", ["Z4", "S3"])
    def test_a_matrix_is_stored_as_a_plain_array(self, spec):
        # np.matrix keeps two dimensions under every index, so a table
        # kept as one crashed numpy's reshapes
        table = group_from_spec(spec).table
        g = group_from_cayley_table(np.matrix(table))
        assert type(g.table) is np.ndarray and g == group_from_cayley_table(table.tolist())
        assert type(FiniteGroup(g.order, np.matrix(table), 0, g.inverse, "H").table) is np.ndarray

    def test_order_cap(self):
        with pytest.raises(SizeLimitExceededError):
            cyclic_group(4096)


# --------------------------------------------------------------------
# builtin families


class TestFamilies:
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 12])
    def test_cyclic_matches_modular_addition(self, n):
        g = cyclic_group(n)
        assert g.table.tolist() == [
            [(i + j) % n for j in range(n)] for i in range(n)
        ]
        assert oracle_is_group(g.table.tolist())

    def test_s3_table_matches_permutation_oracle(self):
        g = symmetric_group(3)
        assert g.table.tolist() == oracle_s3_table()
        # frozen spot value, re-derived by the oracle above:
        # perms[3] = (1,2,0) then perms[1] = (0,2,1) gives (2,1,0) = perms[5]
        assert g.table[3][1] == 5

    def test_s4_is_a_group_of_order_24(self):
        g = symmetric_group(4)
        assert g.order == 24
        assert oracle_is_group(g.table.tolist())

    def test_symmetric_cap(self):
        with pytest.raises(SizeLimitExceededError):
            symmetric_group(6)

    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_dihedral_relations(self, n):
        # presentation r^n = s^2 = e, s r s = r^{-1};
        # element (f, k) is encoded as f*n + k
        g = dihedral_group(n)
        assert g.order == 2 * n
        assert oracle_is_group(g.table.tolist())
        r, s = 1, n  # rotation by 1, first reflection
        x = r
        for _ in range(n - 1):
            x = g.mul(x, r)
        assert x == g.identity  # r^n = e
        assert g.mul(s, s) == g.identity  # s^2 = e
        assert g.mul(g.mul(s, r), s) == g.inverse[r]  # s r s = r^-1

    def test_dihedral_cap(self):
        with pytest.raises(SizeLimitExceededError):
            dihedral_group(9)

    def test_quaternion_relations(self):
        # order [1, -1, i, -i, j, -j, k, -k]
        g = quaternion_group()
        assert g.order == 8
        assert oracle_is_group(g.table.tolist())
        one, minus, i, j, k = 0, 1, 2, 4, 6
        assert g.mul(i, i) == minus
        assert g.mul(j, j) == minus
        assert g.mul(k, k) == minus
        assert g.mul(g.mul(i, j), k) == minus  # ijk = -1
        assert g.mul(i, j) == k
        assert g.mul(j, i) == g.inverse[k]

    def test_direct_product_componentwise(self):
        a, b = cyclic_group(2), cyclic_group(3)
        g = direct_product(a, b)
        assert g.order == 6
        # pair (i, j) encoded as i*3 + j, A-major
        for i1 in range(2):
            for j1 in range(3):
                for i2 in range(2):
                    for j2 in range(3):
                        lhs = g.table[i1 * 3 + j1][i2 * 3 + j2]
                        assert lhs == ((i1 + i2) % 2) * 3 + (j1 + j2) % 3

    @pytest.mark.parametrize("spec_a, spec_b", [
        ("E", "Z3"), ("Z2", "Z3"), ("S3", "Z4"), ("Q8", "D4"), ("Z2xZ2", "S3"),
        ("D8", "Z16"), ("Z2xZ2xZ2xZ2", "Z2xZ2xZ2xZ2"), ("Z7", "E")])
    def test_direct_product_matches_loops(self, spec_a, spec_b):
        a, b = group_from_spec(spec_a), group_from_spec(spec_b)
        table, identity, inverse = loop_oracles.direct_product_table(a, b)
        g = direct_product(a, b)
        assert g.table.tolist() == table
        assert (g.identity, list(g.inverse)) == (identity, inverse)

    def test_trivial_group(self):
        g = trivial_group()
        assert g.order == 1 and g.identity == 0


class TestSpecs:
    def test_spec_strings(self):
        assert group_from_spec("Z6").order == 6
        assert group_from_spec("S3").order == 6
        assert group_from_spec("D4").order == 8
        assert group_from_spec("Q8").order == 8
        assert group_from_spec("E").order == 1
        assert group_from_spec("Z2xZ2").order == 4
        assert group_from_spec("Z2xS3").order == 12

    def test_unknown_spec(self):
        with pytest.raises(UnknownSpecError):
            group_from_spec("NOPE")
        with pytest.raises(UnknownSpecError):
            group_from_spec("Z0")

    def test_builtin_groups_all_valid_and_sorted(self):
        groups = builtin_groups(16)
        orders = [g.order for g in groups]
        assert orders == sorted(orders)
        assert all(g.order <= 16 for g in groups)
        names = [g.name for g in groups]
        assert len(names) == len(set(names))
        for g in groups:
            if g.order <= 8:
                assert oracle_is_group(g.table.tolist())
        # both groups of order 4 and at least 3 of the 5 of order 8
        assert sum(1 for g in groups if g.order == 4) == 2
        assert sum(1 for g in groups if g.order == 8) >= 3


# --------------------------------------------------------------------
# subgroups, cosets, quotients


class TestSubgroups:
    def test_enumerate_matches_subset_scan_z6(self):
        g = cyclic_group(6)
        got = sorted(
            (h.elements for h in enumerate_subgroups(g)),
            key=lambda t: (len(t), t),
        )
        assert got == oracle_subgroups(g)
        assert tuple(got) == ((0,), (0, 3), (0, 2, 4), (0, 1, 2, 3, 4, 5))

    def test_enumerate_matches_subset_scan_s3(self):
        g = symmetric_group(3)
        got = sorted(
            (h.elements for h in enumerate_subgroups(g)),
            key=lambda t: (len(t), t),
        )
        assert got == oracle_subgroups(g)
        assert len(got) == 6  # {e}, three order-2, one order-3, S3

    @pytest.mark.parametrize("g", builtin_groups(24), ids=lambda g: g.name)
    def test_enumerate_matches_closure_bfs(self, g):
        assert ([h.elements for h in enumerate_subgroups(g)]
                == [h.elements for h in loop_oracles.enumerate_subgroups(g)])

    def test_enumerate_with_the_identity_elsewhere(self):
        g = relabelled(group_from_spec("D4"), [5, 2, 7, 0, 3, 6, 1, 4])
        assert g.identity == 5
        assert ([h.elements for h in enumerate_subgroups(g)]
                == [h.elements for h in loop_oracles.enumerate_subgroups(g)])

    def test_lagrange(self):
        for spec in ("Z12", "D4", "Q8", "S3"):
            g = group_from_spec(spec)
            for h in enumerate_subgroups(g):
                assert g.order % len(h.elements) == 0

    def test_closure(self):
        g = cyclic_group(6)
        assert subgroup_closure(g, [2]).elements == (0, 2, 4)
        assert subgroup_closure(g, [2, 3]).elements == (0, 1, 2, 3, 4, 5)
        assert subgroup_closure(g, []).elements == (0,)

    def test_subgroup_from_elements_validates(self):
        g = cyclic_group(6)
        assert subgroup_from_elements(g, [0, 3]).elements == (0, 3)
        with pytest.raises(NotSubgroupError):
            subgroup_from_elements(g, [0, 1])
        with pytest.raises(NotSubgroupError):
            subgroup_from_elements(g, [3])  # missing identity

    def test_normality(self):
        s3 = symmetric_group(3)
        assert is_normal(subgroup_from_elements(s3, [0, 3, 4]))
        assert not is_normal(subgroup_from_elements(s3, [0, 1]))
        # all subgroups of an abelian group are normal
        for h in enumerate_subgroups(cyclic_group(12)):
            assert is_normal(h)

    def test_right_cosets_partition(self):
        g = symmetric_group(3)
        h = subgroup_from_elements(g, [0, 1])
        dec = right_cosets(g, h)
        assert sorted(x for c in dec.cosets for x in c) == list(range(6))
        # identity's coset first, each coset = set {h*a}
        assert 0 in dec.cosets[0]
        for c in dec.cosets:
            a = c[0]
            assert sorted(c) == sorted(g.table[x][a] for x in h.elements)

    def test_quotient_of_z6(self):
        g = cyclic_group(6)
        q = quotient_group(g, subgroup_from_elements(g, [0, 3]))
        assert q.order == 3
        assert group_isomorphism(q, cyclic_group(3)) is not None

    def test_quotient_rejects_non_normal(self):
        g = symmetric_group(3)
        with pytest.raises(NotNormalError):
            quotient_group(g, subgroup_from_elements(g, [0, 1]))

    def test_element_orders_divide_group_order(self):
        for spec in ("Z8", "S3", "Q8", "D5"):
            g = group_from_spec(spec)
            for o in element_orders(g):
                assert g.order % o == 0
        assert element_orders(cyclic_group(6)) == [1, 6, 3, 2, 3, 6]


# --------------------------------------------------------------------
# isomorphisms


class TestIsomorphisms:
    def test_matches_bijection_filter(self):
        for s1, s2 in [("Z4", "Z4"), ("Z6", "Z6"), ("S3", "S3"),
                       ("Z4", "Z2xZ2"), ("Z6", "S3")]:
            g1, g2 = group_from_spec(s1), group_from_spec(s2)
            expected = oracle_isomorphisms(g1, g2)
            got = list(group_isomorphisms(g1, g2))
            assert sorted(got) == sorted(expected), (s1, s2)

    def test_first_iso_is_lexicographically_least(self):
        for s1, s2 in [("Z6", "Z6"), ("S3", "S3"), ("S3", "D3")]:
            g1, g2 = group_from_spec(s1), group_from_spec(s2)
            expected = oracle_isomorphisms(g1, g2)
            assert group_isomorphism(g1, g2) == min(expected)

    def test_z4_not_isomorphic_to_klein(self):
        assert group_isomorphism(group_from_spec("Z4"),
                                 group_from_spec("Z2xZ2")) is None

    def test_s3_isomorphic_to_d3(self):
        f = group_isomorphism(group_from_spec("S3"), group_from_spec("D3"))
        assert f is not None
        t1, t2 = group_from_spec("S3").table.tolist(), group_from_spec("D3").table.tolist()
        assert all(
            f[t1[a][b]] == t2[f[a]][f[b]]
            for a in range(6) for b in range(6)
        )

    def test_symmetry(self):
        # f iso g1 -> g2 iff f^-1 iso g2 -> g1; spot-check via existence
        pairs = [("Z2xZ4", "Z8"), ("D4", "Q8"), ("Z2xZ2xZ2", "Z2xZ4")]
        for s1, s2 in pairs:
            a = group_isomorphism(group_from_spec(s1), group_from_spec(s2))
            b = group_isomorphism(group_from_spec(s2), group_from_spec(s1))
            assert (a is None) == (b is None)
            assert a is None  # these pairs are genuinely non-isomorphic

    def test_automorphism_counts(self):
        # |Aut(Z6)| = phi(6) = 2, |Aut(S3)| = 6, |Aut(Z2xZ2)| = 6
        assert len(list(group_isomorphisms(group_from_spec("Z6"),
                                           group_from_spec("Z6")))) == 2
        assert len(list(group_isomorphisms(group_from_spec("S3"),
                                           group_from_spec("S3")))) == 6
        assert len(list(group_isomorphisms(group_from_spec("Z2xZ2"),
                                           group_from_spec("Z2xZ2")))) == 6

    @pytest.mark.parametrize("g", builtin_groups(16), ids=lambda g: g.name)
    def test_automorphisms_equal_the_search(self, g):
        auts = automorphisms(g)
        assert auts.dtype == np.uint8 and not auts.flags.writeable
        assert auts.tolist() == list(map(list, loop_oracles.automorphisms(g)))

    def test_automorphisms_with_the_identity_elsewhere(self):
        g = relabelled(group_from_spec("Z2xS3"), [4, 9, 0, 11, 2, 7, 1, 10, 3, 6, 8, 5])
        assert g.identity == 4
        assert automorphisms(g).tolist() == list(group_isomorphisms(g, g))

    def test_automorphisms_size_cap(self):
        with pytest.raises(SizeLimitExceededError):
            automorphisms(cyclic_group(25))

    def test_size_cap(self):
        big = cyclic_group(256)
        with pytest.raises(SizeLimitExceededError):
            group_isomorphism(big, big)

    @pytest.mark.parametrize("search, cap, text", [
        (enumerate_subgroups, 24, "subgroup enumeration capped at order 24"),
        (automorphisms, 24, "automorphism listing capped at order 24"),
        (lambda g: group_isomorphism(g, g), 128, "isomorphism search capped at 128"),
    ], ids=["enumerate_subgroups", "automorphisms", "group_isomorphism"])
    def test_each_cap_is_its_constant(self, search, cap, text):
        assert (groups.MAX_ENUM_ORDER, groups.MAX_ISO_ORDER) == (24, 128)
        assert len(search(cyclic_group(cap))) > 0
        with pytest.raises(SizeLimitExceededError) as ei:
            search(cyclic_group(cap + 1))
        assert str(ei.value) == text


# --------------------------------------------------------------------
# serialization


class TestSerialization:
    def test_json_round_trip(self):
        g = group_from_spec("D4")
        data = group_to_json(g)
        assert set(data) == {"order", "table", "name"}
        assert type(data["table"][0][0]) is int
        g2 = group_from_json(data)
        assert g2 == g

    def test_cayley_text_round_trip(self):
        g = group_from_spec("S3")
        text = format_cayley_text(g)
        assert text.splitlines()[0].strip() == "6"
        g2 = parse_cayley_text(text)
        assert (g2.table == g.table).all()

    def test_cayley_text_validates(self):
        with pytest.raises(NotClosedError):
            parse_cayley_text("2\n0 1\n1 9\n")

    @pytest.mark.parametrize("text, token", [
        ("2\n0 1\n1 x", "x"),
        ("2\n0 1.0\n1 0", "1.0"),
        ("two\n0 1\n1 0", "two"),
    ])
    def test_cayley_text_names_a_bad_token(self, text, token):
        with pytest.raises(UnknownSpecError,
                           match=f"^token '{token}' is not an integer$"):
            parse_cayley_text(text)
