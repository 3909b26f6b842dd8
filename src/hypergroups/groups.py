"""Finite groups as Cayley tables.

Elements are dense indices 0..n-1 and every map is a table, so each
property check is an exhaustive loop (or a numpy fancy-indexing pass).
The product convention throughout the package is table[i][j] = "i then
j"; for symmetric groups that means composition applies the left factor
first: (s*t)(x) = t(s(x)).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

import numpy as np

from ._util import as_int_matrix, first_failure, first_failure_on, int_table
from .errors import (
    IndexOutOfRangeError,
    InternalInconsistencyError,
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

# Default bound for the subgroup/isomorphism searches; the acceptance
# sweeps need 16, this leaves headroom.
DEFAULT_ENUM_BOUND = 24
DEFAULT_ISO_BOUND = 128


@dataclass
class FiniteGroup:
    order: int
    table: list[list[int]]
    identity: int
    inverse: list[int]
    name: str

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def np_table(self) -> np.ndarray:
        """The table as a read-only intp array, rebuilt whenever the list
        table no longer equals the snapshot it was built from."""
        snapshot, arr = getattr(self, "_np_table", (None, None))
        if snapshot != self.table:
            snapshot = [row[:] for row in self.table]
            arr = np.asarray(snapshot, dtype=np.intp)
            arr.flags.writeable = False
            object.__setattr__(self, "_np_table", (snapshot, arr))
        return arr

    def is_abelian(self) -> bool:
        t = self.table
        return all(
            t[i][j] == t[j][i]
            for i in range(self.order)
            for j in range(i + 1, self.order)
        )

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


@dataclass
class Subgroup:
    parent: FiniteGroup
    elements: tuple[int, ...]
    # position of each parent element inside `elements`, -1 if absent
    index_in: tuple[int, ...] = field(repr=False, default=())

    def __post_init__(self):
        if not self.index_in:
            pos = [-1] * self.parent.order
            for i, x in enumerate(self.elements):
                pos[x] = i
            self.index_in = tuple(pos)

    @property
    def order(self) -> int:
        return len(self.elements)

    def contains(self, x: int) -> bool:
        return self.index_in[x] >= 0

    def as_group(self) -> FiniteGroup:
        """The subgroup re-indexed as a standalone group on 0..|H|-1,
        rebuilt whenever the parent's np_table() is a new array, that is
        after an edit of the parent's table."""
        key = self.parent.np_table()
        cached_key, cached = getattr(self, "_as_group", (None, None))
        if cached_key is not key:
            els = self.elements
            pt = self.parent.table
            table = [[self.index_in[pt[a][b]] for b in els] for a in els]
            name = "{%s} <= %s" % (",".join(map(str, els)), self.parent.name)
            cached = FiniteGroup(
                order=len(els),
                table=table,
                identity=self.index_in[self.parent.identity],
                inverse=[self.index_in[self.parent.inverse[a]] for a in els],
                name=name,
            )
            object.__setattr__(self, "_as_group", (key, cached))
        return cached


@dataclass
class CosetDecomposition:
    subgroup: Subgroup
    cosets: list[list[int]]
    coset_of: list[int]


def group_from_cayley_table(table, name: str | None = None) -> FiniteGroup:
    """Validate a Cayley table and build a FiniteGroup.

    Check order matters: closure, then identity, then associativity,
    then inverses, each reported with its first witness in scan order.
    """
    table = as_int_matrix(table)
    n = len(table)
    if n == 0:
        raise NotClosedError(0, 0, -1, 0)
    if n > MAX_ORDER:
        raise SizeLimitExceededError(f"order {n} exceeds cap {MAX_ORDER}")
    t, fault = int_table(table, n, n)
    if fault is not None:
        i, j = fault
        if j is None:
            raise NotClosedError(i, len(table[i]), -1, n)
        raise NotClosedError(i, j, table[i][j], n)

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
        table=table,
        identity=identity,
        inverse=inverts.argmax(axis=1).tolist(),
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
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    inverse = [(-i) % n for i in range(n)]
    return FiniteGroup(n, table, 0, inverse, f"Z{n}")


def symmetric_group(n: int) -> FiniteGroup:
    """S_n on lexicographically sorted one-line tuples, left factor first."""
    if n < 1:
        raise UnknownSpecError(f"S{n} is not a group")
    if n > 5:
        raise SizeLimitExceededError("S_n supported only for n <= 5")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    order = len(perms)
    table = [
        [index[tuple(q[s] for s in p)] for q in perms]
        for p in perms
    ]
    inverse = [0] * order
    for i, p in enumerate(perms):
        ip = [0] * n
        for x, y in enumerate(p):
            ip[y] = x
        inverse[i] = index[tuple(ip)]
    return FiniteGroup(order, table, 0, inverse, f"S{n}")


def dihedral_group(n: int) -> FiniteGroup:
    """D_n of order 2n; element f*n + k encodes s^f r^k."""
    if n < 1:
        raise UnknownSpecError(f"D{n} is not a group")
    if n > 8:
        raise SizeLimitExceededError("D_n supported only for n <= 8")

    def mul(x, y):
        f1, a = divmod(x, n)
        f2, b = divmod(y, n)
        if f1 == 0 and f2 == 0:
            return (a + b) % n
        if f1 == 0 and f2 == 1:
            return n + (b - a) % n
        if f1 == 1 and f2 == 0:
            return n + (a + b) % n
        return (b - a) % n

    order = 2 * n
    table = [[mul(x, y) for y in range(order)] for x in range(order)]
    g = group_from_cayley_table(table, name=f"D{n}")
    return g


def quaternion_group() -> FiniteGroup:
    """Q8 on [1, -1, i, -i, j, -j, k, -k]; index = 2*letter + sign."""
    # letter products: lp[l1][l2] = (sign, letter)
    lp = [[(0, 0), (0, 1), (0, 2), (0, 3)],
          [(0, 1), (1, 0), (0, 3), (1, 2)],
          [(0, 2), (1, 3), (1, 0), (0, 1)],
          [(0, 3), (0, 2), (1, 1), (1, 0)]]

    def mul(x, y):
        l1, s1 = divmod(x, 2)
        l2, s2 = divmod(y, 2)
        sc, l = lp[l1][l2]
        return 2 * l + (s1 ^ s2 ^ sc)

    table = [[mul(x, y) for y in range(8)] for x in range(8)]
    return group_from_cayley_table(table, name="Q8")


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """A x B with pair (x, y) at index x*|B| + y."""
    order = a.order * b.order
    if order > MAX_ORDER:
        raise SizeLimitExceededError(
            f"product order {order} exceeds cap {MAX_ORDER}"
        )
    nb = b.order
    table = [[0] * order for _ in range(order)]
    for x1 in range(a.order):
        for y1 in range(b.order):
            row = table[x1 * nb + y1]
            arow = a.table[x1]
            brow = b.table[y1]
            for x2 in range(a.order):
                ax = arow[x2] * nb
                for y2 in range(b.order):
                    row[x2 * nb + y2] = ax + brow[y2]
    identity = a.identity * nb + b.identity
    inverse = [0] * order
    for x in range(a.order):
        for y in range(b.order):
            inverse[x * nb + y] = a.inverse[x] * nb + b.inverse[y]
    return FiniteGroup(order, table, identity, inverse, f"{a.name}x{b.name}")


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


def builtin_groups(max_order: int) -> list[FiniteGroup]:
    """The deterministic family list used by the classification sweeps.

    Covers E, all cyclic groups, the non-cyclic abelian groups in
    invariant-factor form, the dihedral groups, Q8, and S3/S4, up to
    max_order. Sorted by (order, name).
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
    out.sort(key=lambda g: (g.order, g.name))
    return out


def subgroup_closure(group: FiniteGroup, generators) -> Subgroup:
    gens = sorted(set(int(g) for g in generators))
    for g in gens:
        if not 0 <= g < group.order:
            raise IndexOutOfRangeError(
                f"generator {g} outside [0, {group.order})"
            )
    members = {group.identity}
    frontier = [group.identity]
    gens = gens or []
    # closure under product by generators; inverses come for free in a
    # finite group since <S> = set of words in S
    while frontier:
        x = frontier.pop()
        for g in gens:
            for y in (group.table[x][g], group.table[g][x]):
                if y not in members:
                    members.add(y)
                    frontier.append(y)
    return Subgroup(parent=group, elements=tuple(sorted(members)))


def subgroup_from_elements(group: FiniteGroup, elements) -> Subgroup:
    """Validate an explicit element list as a subgroup."""
    els = sorted(set(int(x) for x in elements))
    for x in els:
        if not 0 <= x < group.order:
            raise IndexOutOfRangeError(f"element {x} outside [0, {group.order})")
    elset = set(els)
    if group.identity not in elset:
        raise NotSubgroupError("missing the identity")
    for a in els:
        if group.inverse[a] not in elset:
            raise NotSubgroupError(f"not closed under inverse at {a}")
        for b in els:
            if group.table[a][b] not in elset:
                raise NotSubgroupError(f"not closed under product at ({a},{b})")
    return Subgroup(parent=group, elements=tuple(els))


def enumerate_subgroups(group: FiniteGroup, bound: int = DEFAULT_ENUM_BOUND) -> list[Subgroup]:
    """All subgroups, each once, sorted by size then lexicographically.

    BFS over closures: every subgroup arises by adjoining one element at
    a time, so extending each known subgroup by each outside element
    reaches all of them.
    """
    if group.order > bound:
        raise SizeLimitExceededError(
            f"subgroup enumeration capped at order {bound}"
        )
    trivial = frozenset({group.identity})
    seen = {trivial}
    frontier = [trivial]
    while frontier:
        current = frontier.pop()
        for x in range(group.order):
            if x in current:
                continue
            closure = _close(group, current | {x})
            if closure not in seen:
                seen.add(closure)
                frontier.append(closure)
    out = [Subgroup(parent=group, elements=tuple(sorted(s))) for s in seen]
    out.sort(key=lambda h: (len(h.elements), h.elements))
    return out


def _close(group: FiniteGroup, seed: frozenset[int]) -> frozenset[int]:
    members = set(seed)
    frontier = list(seed)
    while frontier:
        x = frontier.pop()
        for y in tuple(members):
            for z in (group.table[x][y], group.table[y][x]):
                if z not in members:
                    members.add(z)
                    frontier.append(z)
    return frozenset(members)


def is_normal(subgroup: Subgroup) -> bool:
    return _normality_witness(subgroup) is None


def right_cosets(group: FiniteGroup, h: Subgroup) -> CosetDecomposition:
    """Right cosets Ha; the coset of the identity comes first, the rest
    follow in order of their smallest element."""
    coset_of = [-1] * group.order
    cosets: list[list[int]] = []
    order: list[int] = [group.identity]
    order += [x for x in range(group.order) if x != group.identity]
    for a in order:
        if coset_of[a] >= 0:
            continue
        members = sorted(group.table[x][a] for x in h.elements)
        idx = len(cosets)
        cosets.append(members)
        for m in members:
            coset_of[m] = idx
    return CosetDecomposition(subgroup=h, cosets=cosets, coset_of=coset_of)


def quotient_group(group: FiniteGroup, h: Subgroup) -> FiniteGroup:
    witness = _normality_witness(h)
    if witness is not None:
        raise NotNormalError(witness)
    dec = right_cosets(group, h)
    n = len(dec.cosets)
    reps = [c[0] for c in dec.cosets]
    table = [
        [dec.coset_of[group.table[a][b]] for b in reps]
        for a in reps
    ]
    # representative independence: the induced product must not depend
    # on which member of each coset multiplies
    for i, ci in enumerate(dec.cosets):
        for j, cj in enumerate(dec.cosets):
            expect = table[i][j]
            for x in ci:
                for y in cj:
                    if dec.coset_of[group.table[x][y]] != expect:
                        raise NotNormalError(
                            None,
                            f"coset product ill-defined at ({x},{y})",
                        )
    name = "%s/{%s}" % (group.name, ",".join(map(str, h.elements)))
    return group_from_cayley_table(table, name=name)


def _normality_witness(h: Subgroup) -> tuple[int, int] | None:
    g = h.parent
    for x in range(g.order):
        xinv = g.inverse[x]
        for hh in h.elements:
            if not h.contains(g.table[g.table[x][hh]][xinv]):
                return (x, hh)
    return None


def element_orders(group: FiniteGroup) -> list[int]:
    """The order of each element, by walking its powers. A walk that
    passes |G| steps (the table is no group) raises
    InternalInconsistencyError instead of running forever."""
    n, e, t = group.order, group.identity, group.table
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


def group_isomorphisms(g1: FiniteGroup, g2: FiniteGroup, bound: int = DEFAULT_ISO_BOUND):
    """Yield all isomorphisms g1 -> g2 as mapping lists, in lexicographic
    order of the mapping tuple.

    Backtracking on the smallest unassigned element with forced-closure
    propagation: once f(a) and f(b) are chosen, f(ab) is forced, so each
    branch only decides genuinely free images. Trying candidate images
    in ascending order makes the first yield lexicographically least.
    """
    if g1.order > bound or g2.order > bound:
        raise SizeLimitExceededError(f"isomorphism search capped at {bound}")
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
    t1, t2 = g1.table, g2.table
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


def group_isomorphism(g1: FiniteGroup, g2: FiniteGroup, bound: int = DEFAULT_ISO_BOUND) -> list[int] | None:
    """First isomorphism in lexicographic order, or None."""
    for f in group_isomorphisms(g1, g2, bound=bound):
        return f
    return None


def group_to_json(group: FiniteGroup) -> dict:
    return {"order": group.order, "table": group.table, "name": group.name}


def group_from_json(data: dict) -> FiniteGroup:
    return group_from_cayley_table(data["table"], name=data.get("name"))


def format_cayley_text(group: FiniteGroup) -> str:
    lines = [str(group.order)]
    lines += [" ".join(map(str, row)) for row in group.table]
    return "\n".join(lines) + "\n"


def parse_cayley_text(text: str, name: str | None = None) -> FiniteGroup:
    rows = [line.split() for line in text.strip().splitlines() if line.strip()]
    if not rows:
        raise UnknownSpecError("empty Cayley-table text")
    n = _int_token(rows[0][0])
    if len(rows) != n + 1:
        raise UnknownSpecError(f"expected {n} table rows, got {len(rows) - 1}")
    table = [[_int_token(v) for v in row] for row in rows[1:]]
    return group_from_cayley_table(table, name=name)


def _int_token(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise UnknownSpecError(f"token {token!r} is not an integer") from None
