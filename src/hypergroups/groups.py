"""Finite groups as Cayley tables.

Elements are dense indices 0..n-1 and every map is a table, so each
property check is an exhaustive loop (or a numpy fancy-indexing pass).
The product convention throughout the package is table[i][j] = "i then
j"; for symmetric groups that means composition applies the left factor
first: (s*t)(x) = t(s(x)).

FiniteGroup, Subgroup and CosetDecomposition are frozen. A group's table
is stored once, as a read-only intp array made and checked at
construction; a Python loop over its cells reads rows = table.tolist(),
taken once per call. A subgroup's index_in and as_group() are made with
it; cosets are tuples. Each tuple that numpy code reads (a group's
inverses, a subgroup's elements and index_in, a decomposition's
coset_of) is also held once as a read-only intp array, behind an np_
method.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field

import numpy as np

from ._util import (as_int, fields_equal, first_failure, first_failure_on, read_table,
                    row_count, tables_to_lists)
from .errors import (
    IndexOutOfRangeError,
    InternalInconsistencyError,
    MalformedTablesError,
    NoIdentityError,
    NoInverseError,
    NotAssociativeError,
    NotClosedError,
    NotNormalError,
    NotSubgroupError,
    SizeLimitExceededError,
    UnknownSpecError,
)

# Hard cap on explicit Cayley tables; n^2 integers must stay cheap.
MAX_ORDER = 2048

# Caps on the order for subgroup and automorphism listing and for the
# isomorphism search; the acceptance sweeps need 16, this leaves headroom.
MAX_ENUM_ORDER = 24
MAX_ISO_ORDER = 128


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A Cayley table, given as rows or as an integer array, kept as table,
    a read-only intp array, and the inverses as inverse and np_inverse().
    __post_init__ checks shape and range only: order rows of order cells
    in [0, order), else NotClosedError at the first bad cell as
    group_from_cayley_table reports it, and identity and inverse in range,
    else MalformedTablesError. Groups compare by value and hash without
    the table; copy and pickle rebuild through the constructor."""

    order: int
    table: np.ndarray
    identity: int
    inverse: tuple[int, ...]
    name: str
    _inverse: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.order
        arr = _square_table(self.table, n)
        identity = as_int(self.identity, "identity")
        if not 0 <= identity < n:
            raise MalformedTablesError("identity", f"value {identity} outside [0, {n})")
        inverse = np.asarray(self.inverse)
        if (inverse.shape != (n,) or inverse.dtype.kind not in "iu"
                or not ((inverse >= 0) & (inverse < n)).all()):
            raise MalformedTablesError("inverse", f"not {n} values in [0, {n})")
        object.__setattr__(self, "table", arr)
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "inverse", tuple(inverse.tolist()))
        object.__setattr__(self, "_inverse", _read_only(inverse))

    def __reduce__(self):
        return (FiniteGroup, (self.order, self.table, self.identity,
                              self.inverse, self.name))

    __eq__ = fields_equal

    def __hash__(self) -> int:
        return hash((self.order, self.identity, self.inverse, self.name))

    def mul(self, i: int, j: int) -> int:
        return self.table.item(i, j)

    def np_inverse(self) -> np.ndarray:
        """inverse as a read-only intp array."""
        return self._inverse

    def is_abelian(self) -> bool:
        return bool((self.table == self.table.T).all())

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of parent, as its elements. __post_init__ makes index_in,
    as_group() and the arrays np_elements() and np_index_in() once: an
    element outside the parent raises IndexOutOfRangeError, and a set not
    closed NotClosedError."""

    parent: FiniteGroup
    elements: tuple[int, ...]
    # position of each parent element inside `elements`, -1 if absent
    index_in: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _group: FiniteGroup = field(init=False, repr=False, compare=False)
    _elements: np.ndarray = field(init=False, repr=False, compare=False)
    _index_in: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        parent = self.parent
        els = tuple(self.elements)
        bad = [x for x in els if not 0 <= x < parent.order]
        if bad:
            raise IndexOutOfRangeError(f"element {bad[0]} outside [0, {parent.order})")
        hels = np.array(els, dtype=np.intp)
        pos = np.full(parent.order, -1, dtype=np.intp)
        pos[hels] = np.arange(len(els))
        group = FiniteGroup(
            order=len(els),
            table=pos[parent.table[hels[:, None], hels]],
            identity=pos[parent.identity],
            inverse=pos[parent.np_inverse()[hels]],
            name="{%s} <= %s" % (",".join(map(str, els)), parent.name),
        )
        object.__setattr__(self, "elements", els)
        object.__setattr__(self, "index_in", tuple(pos.tolist()))
        object.__setattr__(self, "_group", group)
        object.__setattr__(self, "_elements", _read_only(hels))
        object.__setattr__(self, "_index_in", _read_only(pos))

    def __reduce__(self):
        return (Subgroup, (self.parent, self.elements))

    @property
    def order(self) -> int:
        return len(self.elements)

    def contains(self, x: int) -> bool:
        return self.index_in[x] >= 0

    def as_group(self) -> FiniteGroup:
        """The subgroup re-indexed as a standalone group on 0..|H|-1."""
        return self._group

    def np_elements(self) -> np.ndarray:
        """elements as a read-only intp array."""
        return self._elements

    def np_index_in(self) -> np.ndarray:
        """index_in as a read-only intp array."""
        return self._index_in


@dataclass(frozen=True)
class CosetDecomposition:
    """Right cosets as tuples, and coset_of, the coset index of each
    parent element, also as the read-only intp array np_coset_of()."""

    subgroup: Subgroup
    cosets: tuple[tuple[int, ...], ...]
    coset_of: tuple[int, ...]
    _coset_of: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_coset_of", _read_only(self.coset_of))

    def __reduce__(self):
        return (CosetDecomposition, (self.subgroup, self.cosets, self.coset_of))

    def np_coset_of(self) -> np.ndarray:
        """coset_of as a read-only intp array."""
        return self._coset_of


def _read_only(values) -> np.ndarray:
    """values as a new read-only intp array."""
    arr = np.array(values, dtype=np.intp)
    arr.flags.writeable = False
    return arr


def _square_table(table, n: int, name: str = "table") -> np.ndarray:
    """table as a new read-only (n, n) intp array, by read_table: other
    than n rows raise MalformedTablesError at table, and its other
    faults NotClosedError."""
    arr, fault = read_table(table, name, (n, n), n)
    if fault is not None:
        i, j, value = fault
        if i is None:
            raise MalformedTablesError("table", f"expected {n} rows, got {value}")
        raise NotClosedError(i, value, -1, n) if j is None else NotClosedError(i, j, value, n)
    arr.flags.writeable = False
    return arr


def group_from_cayley_table(table, name: str | None = None) -> FiniteGroup:
    """Validate a Cayley table and build a FiniteGroup.

    Check order matters: the order cap, then closure, then identity,
    then associativity, then inverses, each reported with its first
    witness in scan order.
    """
    n = row_count(table)
    if n > MAX_ORDER:
        raise SizeLimitExceededError(f"order {n} exceeds cap {MAX_ORDER}")
    t = _square_table(table, n)
    if n == 0:
        raise NotClosedError(0, 0, -1, 0)

    elements = np.arange(n)
    neutral = (t == elements).all(axis=1) & (t == elements[:, None]).all(axis=0)
    if not neutral.any():
        raise NoIdentityError("no two-sided neutral element")
    identity = int(neutral.argmax())

    witness = first_nonassociative(t)
    if witness is not None:
        raise NotAssociativeError(witness)

    inverts = (t == identity) & (t.T == identity)
    has_inverse = inverts.any(axis=1)
    if not has_inverse.all():
        raise NoInverseError(int(has_inverse.argmin()))

    return FiniteGroup(
        order=n,
        table=t,
        identity=identity,
        inverse=inverts.argmax(axis=1),
        name=name if name is not None else f"G{n}",
    )


def first_nonassociative(t: np.ndarray) -> tuple[int, int, int] | None:
    """The first (a, b, c) in scan order with (a*b)*c != a*(b*c) in the
    square intp table t, scanned over blocks of a. Past one block,
    Light's test (light_associative) decides first and the full scan
    runs only if it fails, so the witness is still the first in scan
    order."""
    n = len(t)
    failure = first_failure_on((n, n, n), [("associative", _associative_mask(t))],
                               lambda: _right_generators(t))
    return None if failure is None else failure[1]


def light_associative(t: np.ndarray) -> bool:
    """Whether the square intp table t is associative, by Light's test:
    the c with (a*b)*c = a*(b*c) for all a and b are closed under the
    product, so it is enough to test c in a set S whose products reach
    every element, here chosen greedily by _right_generators."""
    return _associativity_witness(t, _right_generators(t)) is None


def _associative_mask(t: np.ndarray):
    """The first_failure_on mask_of of (a*b)*c == a*(b*c) in the square
    intp table t, over (a, b, c)."""
    def mask_of(cols):
        tc = t if cols is None else t[:, cols]
        return lambda r: tc.take(t[r], axis=0) != t[r].take(tc, axis=1)
    return mask_of


def _associativity_witness(t: np.ndarray, cols) -> tuple[int, int, int] | None:
    """The first failing (a, b, c) with c among the columns cols."""
    n = len(t)
    failure = first_failure((n, n, len(cols)),
                            [("associative", _associative_mask(t)(cols))])
    return None if failure is None else failure[1]


def _right_generators(t: np.ndarray, moves=(), order=None) -> list[int]:
    """A set S, taken greedily with the first element of order (default
    0, 1, ...) not yet reached, such that the maps x -> t[x][s] for s in
    S and the maps x -> move[x] for move in moves, starting from S,
    reach every element."""
    n = len(t)
    reached = [False] * n
    found: list[int] = []   # the reached elements, in the order reached
    gens: list[int] = []
    columns = [move.tolist() for move in moves]   # columns[k][x]: map k at x
    done = [0] * len(columns)   # found[:done[k]] went through map k
    for s in range(n) if order is None else order:
        if reached[s]:
            continue
        gens.append(s)
        columns.append(t[:, s].tolist())
        done.append(0)
        reached[s] = True
        found.append(s)
        while min(done) < len(found):
            for k, column in enumerate(columns):
                start, done[k] = done[k], len(found)
                for x in found[start:]:
                    y = column[x]
                    if not reached[y]:
                        reached[y] = True
                        found.append(y)
    return gens


def trivial_group() -> FiniteGroup:
    return FiniteGroup(1, [[0]], 0, [0], "E")


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise UnknownSpecError(f"Z{n} is not a group")
    if n > MAX_ORDER:
        raise SizeLimitExceededError(f"Z{n} exceeds order cap {MAX_ORDER}")
    x = np.arange(n)
    return FiniteGroup(n, (x[:, None] + x) % n, 0, -x % n, f"Z{n}")


def symmetric_group(n: int) -> FiniteGroup:
    """S_n on lexicographically sorted one-line tuples, left factor first."""
    if n < 1:
        raise UnknownSpecError(f"S{n} is not a group")
    if n > 5:
        raise SizeLimitExceededError("S_n supported only for n <= 5")
    perms = np.array(sorted(itertools.permutations(range(n))))
    # [p, q] holds q after p, found by its base-n code: the codes of the
    # sorted perms are sorted
    code = n ** np.arange(n - 1, -1, -1)
    table = np.searchsorted(perms @ code, perms[np.arange(len(perms))[:, None],
                                                perms[:, None, :]] @ code)
    return FiniteGroup(len(perms), table, 0, (table == 0).argmax(axis=1), f"S{n}")


def dihedral_group(n: int) -> FiniteGroup:
    """D_n of order 2n; element f*n + k encodes s^f r^k."""
    if n < 1:
        raise UnknownSpecError(f"D{n} is not a group")
    if n > 8:
        raise SizeLimitExceededError("D_n supported only for n <= 8")
    f, k = np.divmod(np.arange(2 * n), n)
    # s^f1 r^a s^f2 r^b = s^(f1 + f2) r^((-1)^f2 a + b); each s r^k is its
    # own inverse
    table = (f[:, None] ^ f) * n + (k[:, None] * (1 - 2 * f) + k) % n
    return FiniteGroup(2 * n, table, 0, np.where(f == 1, np.arange(2 * n), -k % n),
                       f"D{n}")


def quaternion_group() -> FiniteGroup:
    """Q8 on [1, -1, i, -i, j, -j, k, -k]; index = 2*letter + sign."""
    # the product of letters l1 and l2 is letter l1 ^ l2 with this sign
    minus = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]])
    x = np.arange(8)
    letter, sign = np.divmod(x, 2)
    table = 2 * (letter[:, None] ^ letter) + (sign[:, None] ^ sign
                                              ^ minus[letter[:, None], letter])
    return FiniteGroup(8, table, 0, np.where(letter == 0, x, x ^ 1), "Q8")


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """A x B with pair (x, y) at index x*|B| + y."""
    order = a.order * b.order
    if order > MAX_ORDER:
        raise SizeLimitExceededError(
            f"product order {order} exceeds cap {MAX_ORDER}"
        )
    nb = b.order
    # cell ((x1, y1), (x2, y2)) at [x1, y1, x2, y2] before the reshape
    table = (a.table[:, None, :, None] * nb
             + b.table[None, :, None, :]).reshape(order, order)
    inverse = (a.np_inverse()[:, None] * nb + b.np_inverse()).ravel()
    return FiniteGroup(order, table, a.identity * nb + b.identity, inverse,
                       f"{a.name}x{b.name}")


_FAMILY_RE = re.compile(r"^(E|Z(\d+)|S(\d+)|D(\d+)|Q8)$")


def _atomic_group(token: str) -> FiniteGroup:
    m = _FAMILY_RE.match(token)
    if not m:
        raise UnknownSpecError(f"unknown group spec {token!r}")
    if token == "E":
        return trivial_group()
    if token == "Q8":
        return quaternion_group()
    kind, n = token[0], int(token[1:])
    if kind == "Z":
        return cyclic_group(n)
    if kind == "S":
        return symmetric_group(n)
    return dihedral_group(n)


def group_from_spec(spec: str) -> FiniteGroup:
    """Parse a family spec: Z_n, S_n (n<=5), D_n (n<=8), Q8, E, and
    direct products joined with "x", e.g. "Z2xS3"."""
    tokens = [t.strip() for t in spec.strip().split("x")]
    if not tokens or any(not t for t in tokens):
        raise UnknownSpecError(f"unknown group spec {spec!r}")
    groups = [_atomic_group(t) for t in tokens]
    g = groups[0]
    for other in groups[1:]:
        g = direct_product(g, other)
    return g


@functools.cache
def builtin_groups(max_order: int) -> tuple[FiniteGroup, ...]:
    """The deterministic family list used by the classification sweeps.

    Covers E, all cyclic groups, the non-cyclic abelian groups in
    invariant-factor form, the dihedral groups, Q8, and S3/S4, up to
    max_order. Sorted by (order, name). Built once per max_order: the
    tuple and its groups are immutable, so every call shares them.
    """
    specs = ["E"]
    specs += [f"Z{n}" for n in range(2, max_order + 1)]
    abelian = ["Z2xZ2", "Z2xZ4", "Z2xZ2xZ2", "Z3xZ3", "Z2xZ6",
               "Z2xZ8", "Z4xZ4", "Z2xZ2xZ4", "Z2xZ2xZ2xZ2",
               "Z2xZ10", "Z3xZ6", "Z2xZ2xZ6", "Z2xZ12", "Z4xZ6"]
    specs += abelian
    specs += ["S3", "S4"]
    specs += [f"D{n}" for n in range(4, 9)]
    specs += ["Q8", "Z2xQ8", "Z3xS3", "Z2xD4"]
    out = []
    for s in specs:
        g = group_from_spec(s)
        if g.order <= max_order:
            out.append(g)
    return tuple(sorted(out, key=lambda g: (g.order, g.name)))


def subgroup_closure(group: FiniteGroup, generators) -> Subgroup:
    gens = sorted(set(as_int(g, "generator") for g in generators))
    for g in gens:
        if not 0 <= g < group.order:
            raise IndexOutOfRangeError(
                f"generator {g} outside [0, {group.order})"
            )
    return _subgroup_of_mask(group, _closure_mask(group.table.tolist(), group.identity, gens))


def _closure_mask(t: list[list[int]], e: int, gens: list[int]) -> int:
    """<gens> as a bitmask in the group with table rows t and identity e:
    the closure of e under right multiplication by gens, which in a finite
    group is the subgroup they generate (inverses are positive powers)."""
    mask, frontier = 1 << e, [e]
    while frontier:
        x = frontier.pop()
        for y in map(t[x].__getitem__, gens):
            if not mask >> y & 1:
                mask |= 1 << y
                frontier.append(y)
    return mask


def _subgroup_of_mask(group: FiniteGroup, mask: int) -> Subgroup:
    return Subgroup(parent=group, elements=tuple(x for x in range(group.order)
                                                 if mask >> x & 1))


def subgroup_from_elements(group: FiniteGroup, elements) -> Subgroup:
    """Validate an explicit element list as a subgroup."""
    els = sorted(set(as_int(x, "subgroup") for x in elements))
    for x in els:
        if not 0 <= x < group.order:
            raise IndexOutOfRangeError(f"element {x} outside [0, {group.order})")
    elset = set(els)
    if group.identity not in elset:
        raise NotSubgroupError("missing the identity")
    for a, row in zip(els, group.table[els].tolist()):
        if group.inverse[a] not in elset:
            raise NotSubgroupError(f"not closed under inverse at {a}")
        for b in els:
            if row[b] not in elset:
                raise NotSubgroupError(f"not closed under product at ({a},{b})")
    return Subgroup(parent=group, elements=tuple(els))


def enumerate_subgroups(group: FiniteGroup) -> list[Subgroup]:
    """All subgroups, each once, sorted by size then lexicographically.

    Every subgroup is the join of the cyclic subgroups of its elements,
    so joining each subgroup found with each cyclic subgroup it does not
    contain, from the trivial one on, reaches all of them. Subgroups are
    bitmasks over the elements, and a join is the _closure_mask of the
    generators met on the way.
    """
    if group.order > MAX_ENUM_ORDER:
        raise SizeLimitExceededError(
            f"subgroup enumeration capped at order {MAX_ENUM_ORDER}"
        )
    rows, e = group.table.tolist(), group.identity
    cyclic: dict[int, int] = {}   # mask -> a generator
    for x in range(group.order):
        cyclic.setdefault(_closure_mask(rows, e, [x]), x)
    trivial = 1 << e
    found = {trivial: []}   # mask -> generators
    frontier = [trivial]
    while frontier:
        k = frontier.pop()
        for c, x in cyclic.items():
            if c & ~k:
                gens = found[k] + [x]
                j = _closure_mask(rows, e, gens)
                if j not in found:
                    found[j] = gens
                    frontier.append(j)
    out = [_subgroup_of_mask(group, mask) for mask in found]
    out.sort(key=lambda h: (len(h.elements), h.elements))
    return out


def is_normal(subgroup: Subgroup) -> bool:
    return _normality_witness(subgroup) is None


def right_cosets(group: FiniteGroup, h: Subgroup) -> CosetDecomposition:
    """Right cosets Ha; the coset of the identity comes first, the rest
    follow in order of their smallest element."""
    coset_of, h_rows = [-1] * group.order, group.table[h.np_elements()].tolist()
    cosets: list[tuple[int, ...]] = []
    order: list[int] = [group.identity]
    order += [x for x in range(group.order) if x != group.identity]
    for a in order:
        if coset_of[a] >= 0:
            continue
        members = tuple(sorted(row[a] for row in h_rows))
        idx = len(cosets)
        cosets.append(members)
        for m in members:
            coset_of[m] = idx
    return CosetDecomposition(subgroup=h, cosets=tuple(cosets),
                              coset_of=tuple(coset_of))


def quotient_group(group: FiniteGroup, h: Subgroup) -> FiniteGroup:
    witness = _normality_witness(h)
    if witness is not None:
        raise NotNormalError(witness)
    dec = right_cosets(group, h)
    n = len(dec.cosets)
    reps, rows = [c[0] for c in dec.cosets], group.table.tolist()
    table = [
        [dec.coset_of[rows[a][b]] for b in reps]
        for a in reps
    ]
    # representative independence: the induced product must not depend
    # on which member of each coset multiplies
    for i, ci in enumerate(dec.cosets):
        for j, cj in enumerate(dec.cosets):
            expect = table[i][j]
            for x in ci:
                for y in cj:
                    if dec.coset_of[rows[x][y]] != expect:
                        raise NotNormalError(
                            None,
                            f"coset product ill-defined at ({x},{y})",
                        )
    name = "%s/{%s}" % (group.name, ",".join(map(str, h.elements)))
    return group_from_cayley_table(table, name=name)


def _normality_witness(h: Subgroup) -> tuple[int, int] | None:
    g, rows = h.parent, h.parent.table.tolist()
    for x in range(g.order):
        xinv = g.inverse[x]
        for hh in h.elements:
            if not h.contains(rows[rows[x][hh]][xinv]):
                return (x, hh)
    return None


def element_orders(group: FiniteGroup) -> list[int]:
    """The order of each element, by walking its powers. A walk that
    passes |G| steps (the table is no group) raises
    InternalInconsistencyError instead of running forever."""
    n, e, t = group.order, group.identity, group.table.tolist()
    succ = list(range(1, n + 1))  # succ[k] = k + 1, and no succ[n]
    orders = [0] * n
    try:
        for x in range(n):
            y = x
            k = 1
            while y != e:  # the only comparison per step
                y = t[y][x]
                k = succ[k]
            orders[x] = k
    except IndexError:
        raise InternalInconsistencyError(
            f"the powers of {x} in {group.name} never reach the identity"
        ) from None
    return orders


def group_isomorphisms(g1: FiniteGroup, g2: FiniteGroup):
    """Yield all isomorphisms g1 -> g2 as mapping lists, in lexicographic
    order of the mapping tuple.

    Backtracking on the smallest unassigned element with forced-closure
    propagation: once f(a) and f(b) are chosen, f(ab) is forced, so each
    branch only decides genuinely free images. Trying candidate images
    in ascending order makes the first yield lexicographically least.
    """
    if max(g1.order, g2.order) > MAX_ISO_ORDER:
        raise SizeLimitExceededError(f"isomorphism search capped at {MAX_ISO_ORDER}")
    if g1.order != g2.order:
        return
    o1 = element_orders(g1)
    o2 = element_orders(g2)
    if sorted(o1) != sorted(o2):
        return
    n = g1.order
    candidates = [
        [y for y in range(n) if o2[y] == o1[x]] for x in range(n)
    ]
    t1, t2 = g1.table.tolist(), g2.table.tolist()
    f = [-1] * n
    used = [False] * n

    def propagate(queue, trail):
        """Force products of assigned pairs; return False on conflict."""
        while queue:
            a = queue.pop()
            fa = f[a]
            for b in range(n):
                fb = f[b]
                if fb < 0:
                    continue
                for x, y in ((t1[a][b], t2[fa][fb]), (t1[b][a], t2[fb][fa])):
                    cur = f[x]
                    if cur < 0:
                        if used[y]:
                            return False
                        f[x] = y
                        used[y] = True
                        trail.append((x, y))
                        queue.append(x)
                    elif cur != y:
                        return False
        return True

    def undo(trail):
        for x, y in trail:
            f[x] = -1
            used[y] = False

    def search():
        x = -1
        for i in range(n):
            if f[i] < 0:
                x = i
                break
        if x < 0:
            yield list(f)
            return
        for y in candidates[x]:
            if used[y]:
                continue
            f[x] = y
            used[y] = True
            trail = [(x, y)]
            if propagate([x], trail):
                yield from search()
            undo(trail)

    yield from search()


def group_isomorphism(g1: FiniteGroup, g2: FiniteGroup) -> list[int] | None:
    """First isomorphism in lexicographic order, or None."""
    for f in group_isomorphisms(g1, g2):
        return f
    return None


def automorphisms(group: FiniteGroup) -> np.ndarray:
    """Every automorphism of group, one per row of a read-only uint8
    array of shape (|Aut(G)|, n) in lexicographic row order, the order
    group_isomorphisms(group, group) yields them in.

    Built one greedy right generator s_1, s_2, ... (_right_generators)
    at a time. The rows of level i are the injective homomorphisms from
    K_i = <s_1, ..., s_i> into G: every row of level i - 1, extended by
    each image of s_i of the same element order, is carried along a
    spanning tree of K_i's right Cayley graph from the identity by
    f(x * s) = f(x) * f(s). A row stays if the other edges of the graph
    agree and no element but the identity maps to the identity. Every
    element of K_i is a word in the generators, so a map with
    f(x * s) = f(x) * f(s) on every edge is a homomorphism; with a
    trivial kernel it is injective, and at the last level, where K_i is
    G, bijective.
    """
    n = group.order
    if n > MAX_ENUM_ORDER:
        raise SizeLimitExceededError(f"automorphism listing capped at order {MAX_ENUM_ORDER}")
    tn, t, e = group.table, group.table.tolist(), group.identity
    orders = np.array(element_orders(group))
    gens: list[int] = []
    f = np.full((n, 1), e, dtype=np.uint8)   # f[x, row]: the image of x
    for s in _right_generators(tn):
        gens.append(s)
        images = np.flatnonzero(orders == orders[s])
        f = np.repeat(f, len(images), axis=1)
        f[s] = np.tile(images, f.shape[1] // len(images))
        reached, keep = [e], np.ones(f.shape[1], dtype=bool)
        seen = {e}
        for x in reached:
            for g in gens:
                z = t[x][g]
                image = tn[f[x], f[g]]
                if z in seen:
                    keep &= f[z] == image
                else:
                    seen.add(z)
                    reached.append(z)
                    f[z] = image
                    keep &= image != e
        f = f[:, keep]
    rows = np.ascontiguousarray(f.T[np.lexsort(f[::-1])])
    rows.flags.writeable = False
    return rows


def group_to_json(group: FiniteGroup) -> dict:
    return tables_to_lists(_group_json(group))


def _group_json(group: FiniteGroup) -> dict:
    """group_to_json with the table as its array, which canonical_dumps writes."""
    return {"order": group.order, "table": group.table, "name": group.name}


def group_from_json(data: dict) -> FiniteGroup:
    return group_from_cayley_table(data["table"], name=data.get("name"))


def format_cayley_text(group: FiniteGroup) -> str:
    lines = [str(group.order)]
    lines += [" ".join(map(str, row)) for row in group.table.tolist()]
    return "\n".join(lines) + "\n"


def parse_cayley_text(text: str) -> FiniteGroup:
    rows = [line.split() for line in text.strip().splitlines() if line.strip()]
    if not rows:
        raise UnknownSpecError("empty Cayley-table text")
    n = _int_token(rows[0][0])
    if len(rows) != n + 1:
        raise UnknownSpecError(f"expected {n} table rows, got {len(rows) - 1}")
    table = [[_int_token(v) for v in row] for row in rows[1:]]
    return group_from_cayley_table(table)


def _int_token(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise UnknownSpecError(f"token {token!r} is not an integer") from None
