"""Hypergroups over a group.

A hypergroup over a group is a pair (M, H) with four structural tables

    phi : M x H -> M   (a, alpha) |-> a^alpha
    psi : M x H -> H   (a, alpha) |-> the cofactor of a*alpha
    xi  : M x M -> M   (a, b)     |-> [a, b]
    lam : M x M -> H   (a, b)     |-> (a, b)

and a left neutral o, subject to properties P1-P4 (P4 being relations
A1-A5). The standard construction produces one from a triple (G, H, M)
with M a right transversal: a*alpha = psi*phi and a*b = lam*xi under
the unique H x M factorization.

H-indices in psi/lam refer to a standalone copy of H on 0..|H|-1, so
abstract hypergroups (loaded or enumerated, no ambient group) use the
same representation as constructed ones. The four tables are stored
only as read-only intp arrays, shape- and range-checked when a
HypergroupOverGroup is made, except that standard_constructions checks
its items' tables once per batch; lists appear only in the JSON form
that hypergroup_to_json returns, not in the files written.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from . import _util
from ._util import (CheckResult, Report, as_int, first_failure, first_failure_on,
                    first_mismatch, int_table, tables_to_lists)
from .errors import (
    AlgebraError,
    IndexOutOfRangeError,
    InternalInconsistencyError,
    MalformedTablesError,
    MultipleSolutionsError,
    NoAmbientError,
    NoSolutionError,
    NotATransversalError,
    NotNormalError,
    ShapeMismatchError,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    _associativity_witness,
    _group_json,
    _right_generators,
    first_nonassociative,
    group_from_cayley_table,
    group_from_json,
    group_isomorphism,
    is_normal,
    light_associative,
    quotient_group,
    subgroup_from_elements,
)
from .transversals import (
    DEFAULT_SAMPLE_CAP,
    Transversal,
    inverse_decomposition,
    make_transversal,
    neutral_decomposition,
    sample_transversals,
)

AXIOM_NAMES = ("P1", "P2", "P3", "A1", "A2", "A3", "A4", "A5")


@dataclass
class Ambient:
    """Provenance of a standard construction: the triple (G, H, M)."""

    group: FiniteGroup
    subgroup: Subgroup
    transversal: Transversal

    @property
    def theta(self) -> int:
        """The standalone H-index of o^{-1}, worked out on each read: it is
        a function of the transversal, and few readers need it."""
        theta_parent, _ = neutral_decomposition(self.transversal)
        return self.h_index(theta_parent)

    @property
    def h_to_parent(self) -> tuple[int, ...]:
        return self.subgroup.elements

    @property
    def m_to_parent(self) -> tuple[int, ...]:
        return self.transversal.reps

    def h_index(self, parent_element: int) -> int:
        i = self.subgroup.index_in[parent_element]
        if i < 0:
            raise InternalInconsistencyError(
                f"element {parent_element} is not in the subgroup"
            )
        return i

    def m_index(self, parent_element: int) -> int:
        return self.transversal.decomposition.coset_of[parent_element]


@dataclass(eq=False)
class HypergroupOverGroup:
    """The tables phi, psi, xi and lam as read-only intp arrays.

    __post_init__ converts and checks each table once, through
    _util.int_table: |M| rows of the right length, values in [0, |M|)
    for phi and xi and in [0, |H|) for psi and lam, and o in [0, |M|).
    A fault raises MalformedTablesError, whether the hypergroup comes from
    hypergroup_from_tables, the constructor or dataclasses.replace.
    standard_constructions makes its items through _prechecked instead:
    it checks the coset indices once per call and the gathered psi and
    lam once per batch, and each item owns copies of its rows of the
    batch. A table cannot be written in place, so no check or derived
    value can go stale; a changed hypergroup is a new one, made with
    dataclasses.replace. Equality compares values; copy and pickle
    rebuild through the constructor, so copies are checked and
    read-only too.
    """

    m_size: int
    h: FiniteGroup
    phi: np.ndarray
    psi: np.ndarray
    xi: np.ndarray
    lam: np.ndarray
    o: int
    ambient: Ambient | None = None

    def __post_init__(self):
        m, hn = self.m_size, self.h.order
        for name, ncols, vrange in (("phi", hn, m), ("psi", hn, hn),
                                    ("xi", m, m), ("lam", m, hn)):
            table = int_table(getattr(self, name), name, (m, ncols), vrange)
            table.flags.writeable = False
            setattr(self, name, table)
        if not 0 <= self.o < m:
            raise MalformedTablesError("o", f"value {self.o} outside [0, {m})")

    @classmethod
    def _prechecked(cls, m_size, h, phi, psi, xi, lam, o, ambient) -> HypergroupOverGroup:
        """A hypergroup on tables its caller checked: new intp arrays of
        the right shapes and ranges that nothing else holds, made
        read-only here; skips __post_init__."""
        for table in (phi, psi, xi, lam):
            table.setflags(write=False)
        hg = object.__new__(cls)
        # set in field order, as __init__ does, so that the instances keep
        # sharing one key table; __dict__.update gave each its own, 143
        # more bytes per hypergroup
        hg.m_size, hg.h, hg.phi, hg.psi, hg.xi, hg.lam, hg.o, hg.ambient = (
            m_size, h, phi, psi, xi, lam, o, ambient)
        return hg

    def __reduce__(self):
        return (HypergroupOverGroup, (self.m_size, self.h, self.phi, self.psi,
                                      self.xi, self.lam, self.o, self.ambient))

    __eq__ = _util.fields_equal

    def __repr__(self) -> str:
        return (
            f"HypergroupOverGroup(|M|={self.m_size}, H={self.h.name}, "
            f"o={self.o})"
        )


@lru_cache(maxsize=256)
def _arange(n: int, step: int = 1, shape: tuple[int, ...] = (-1,)) -> np.ndarray:
    """np.arange(0, n * step, step).reshape(shape), read-only, made once
    per set of arguments. For constants of one hypergroup or group, so
    each holds at most max(|G|, |M|, |H|) cells."""
    arr = np.arange(0, n * step, step, dtype=np.intp).reshape(shape)
    arr.flags.writeable = False
    return arr


def hypergroup_from_tables(
    m_size: int,
    h: FiniteGroup,
    phi,
    psi,
    xi,
    lam,
    o: int,
    ambient: Ambient | None = None,
) -> HypergroupOverGroup:
    """Shape- and range-validate tables; axioms are verify_axioms' job."""
    return HypergroupOverGroup(
        m_size=as_int(m_size, "m_size"),
        h=h,
        phi=phi,
        psi=psi,
        xi=xi,
        lam=lam,
        o=as_int(o, "o"),
        ambient=ambient,
    )


def standard_construction(group: FiniteGroup, h: Subgroup, transversal) -> HypergroupOverGroup:
    """Build the hypergroup of a triple (G, H, M): standard_constructions
    with the one transversal M, given as a Transversal or its reps."""
    return standard_constructions(group, h, [transversal])[0]


def standard_constructions(group: FiniteGroup, h: Subgroup, transversals) -> list[HypergroupOverGroup]:
    """The hypergroups of the triples (G, H, M), one for each M in
    transversals (Transversals or reps), in order.

    phi/psi tabulate the factorization of a*alpha, lam/xi the one of
    a*b; o is the M-index of the identity-coset representative, which
    is 0 because reps are ordered with that coset first. Every
    transversal of (G, H) indexes the same right cosets, so the tables
    of many are one gather with a leading axis over the transversals,
    made for as many at a time as keep each temporary within
    BLOCK_CELLS cells (at least one). The coset indices, every cell of
    phi and xi, are range-checked once, and the stacked psi and lam once
    per gather, not per item; either fault raises
    InternalInconsistencyError. Each item owns copies of its tables.
    """
    ts = []
    for t in transversals:
        if isinstance(t, Transversal):
            if ((t.subgroup is not h and t.subgroup.elements != h.elements)
                    or (t.group is not group and not np.array_equal(t.group.table, group.table))):
                raise NotATransversalError(
                    "transversal was built for a different (group, subgroup) pair"
                )
        else:
            t = make_transversal(group, h, t)
        ts.append(t)
    if not ts:
        return []
    dec = ts[0].decomposition
    if any(t.decomposition is not dec and t.decomposition.coset_of != dec.coset_of
           for t in ts):
        raise NotATransversalError("transversals index different right cosets")

    cos = dec.np_coset_of()
    m, hn, n, h_group = len(ts[0].reps), h.order, group.order, h.as_group()
    # every cell of phi and xi is a coset index, so one check of cos
    # covers them all; read as unsigned, a negative value is past 2^63
    if cos.view(np.uintp).max() >= m:
        raise InternalInconsistencyError(
            f"the right cosets have an index outside [0, {m})")
    step = max(1, _util.BLOCK_CELLS // (m * max(m, hn, n)))
    out = []
    for lo in range(0, len(ts), step):
        batch = ts[lo:lo + step]
        phi, psi, xi, lam = _factorization_tables(
            group, h, cos, np.array([t.reps for t in batch], dtype=np.intp))
        if min(psi.min(), lam.min()) < 0:
            raise InternalInconsistencyError(
                "factorization produced an h-part outside the subgroup")
        # each item gets copies, not views that would pin the stack
        out += [HypergroupOverGroup._prechecked(
                    m, h_group, phi[i].copy(), psi[i].copy(), xi[i].copy(), lam[i].copy(), 0,
                    Ambient(group=group, subgroup=h, transversal=t))
                for i, t in enumerate(batch)]
    return out


def _factorization_tables(group: FiniteGroup, h: Subgroup, cos: np.ndarray, reps: np.ndarray):
    """phi, psi, xi and lam of the k transversals whose reps are the rows
    of the (k, |M|) array reps, stacked along a leading axis, each with
    one gather; an h-part outside H is -1 in psi or lam."""
    gt, n = group.table, group.order
    k, m = reps.shape
    rows = gt.take(reps, axis=0)                                  # a * x
    # h_part[i * n + x]: the H-index of alpha in x = alpha * a, with a the
    # rep of x's coset in item i
    h_part = h.np_index_in().take(gt.ravel().take(
        _arange(n, n) + group.np_inverse().take(reps).take(cos, axis=1)))
    prod = rows.take(h.np_elements(), axis=2)            # a * alpha
    # a * b, at rows[i, a, reps[i, b]]
    if k == 1:   # one item, as in standard_construction, needs no shift
        prod2 = rows.take(reps[0], axis=2)
        at, at2 = prod, prod2
    else:
        prod2 = rows.ravel().take(np.arange(0, k * m * n, n).reshape(k, m, 1) + reps[:, None, :])
        shift = np.arange(0, k * n, n)[:, None, None]
        at, at2 = prod + shift, prod2 + shift
    return cos.take(prod), h_part.take(at), cos.take(prod2), h_part.take(at2)


def verify_axioms(hg: HypergroupOverGroup) -> Report:
    """Exhaustively check P1-P3 and A1-A5, recording the lexicographically
    first witness per axiom.

    Table forms of the relations, with ht the H table:
      A0: phi[phi[a][al]][be]        == phi[a][ht[al][be]]
      A1: psi[a][ht[al][be]]         == ht[psi[a][al]][psi[phi[a][al]][be]]
      A2: phi[xi[a][b]][al]          == xi[phi[a][psi[b][al]]][phi[b][al]]
      A3: ht[lam[a][b]][psi[xi[a][b]][al]]
          == ht[psi[a][psi[b][al]]][lam[phi[a][psi[b][al]]][phi[b][al]]]
      A4: xi[xi[a][b]][c]            == xi[phi[a][lam[b][c]]][xi[b][c]]
      A5: ht[lam[a][b]][lam[xi[a][b]][c]]
          == ht[psi[a][lam[b][c]]][lam[phi[a][lam[b][c]]][xi[b][c]]]

    Each check is a mask, True where it fails, and a witness is the
    first True cell of its mask in row-major order. Where hg's relation
    cubes fit one BLOCK_CELLS block, as in verify_axioms_batch, the
    cubic masks are the parts of three identities. In the notation of
    facts (2), (4) and (5) below, with x = (eps, a), y = (eps, b),
    z = (eps, c):
      (2) (x.al).be = x.(al*be)   M-part A0, H-part A1, over (a, al, be)
      (4) (xy).al = x(y.al)       M-part A2, H-part A3, over (a, b, al)
      (5) (xy)z = x(yz)           M-part A4, H-part A5, over (a, b, c)
    cell by cell, with each side written as the table forms write it:
    (ga, d) as ga*(eps, d), so x(w) for w = (de, d) is
    psi[a][de]*((eps, a^de)(eps, d)). Encode (ga, d) as ga*|M| + d, so
    that x.al is E[a][al] = psi[a][al]*|M| + phi[a][al], xy is F[a][b] =
    lam[a][b]*|M| + xi[a][b], ga*w is L[ga*|H||M| + w], with
    L[ga*|H||M| + de*|M| + d] = ht[ga][de]*|M| + d, and x(w) is
    X[a*|H||M| + w] = L[psi[a][de]*|H||M| + F[phi[a][de]][d]]. Then
    x(y.al) = X at E[b][al] and x(yz) = X at F[b][c], and with X the
    three identities take 11 gathers and 3 comparisons
    (_Stack.products). A count of their mismatches and of the True
    cells of the four linear masks is 0 exactly when every check
    passes; otherwise the mismatches of an identity that fails, taken
    mod |M| and div |M|, are the masks of its two checks. Past one
    block each identity is one first_failure scan over blocks of
    leading a, which stops at the first failing block: _parts gathers
    the M- and H-parts of both sides on a block, with no encoding, and
    gives the masks of the identity's two checks at once. A part whose
    first failure that scan misses is scanned on its own.
    Memory: besides the tables, every temporary holds at most
    max(BLOCK_CELLS, |M|^2, |H|^2) cells (512 KiB of intp for |M|, |H|
    <= 256): an identity or mask within one block, L and X (|H|^2|M|
    and |M|^2|H| cells: made per call, no cache, and only within one
    block), a part of a side on a block of a scan, the (|H||M|)^2
    product table below, which is built only within that budget, and
    the generator walks, O(|M| + |H|) cells per generator.

    Generators only. When a cube spans more than one block and every
    check before it passed, the two parts of its identity are first
    scanned with the last argument over a generating set only
    (first_failure_on). A pass of both there is a pass of both, by the
    closure arguments below (A1 given A0, A3 given A2, and A4 with A5);
    a failure runs the full scan, which gives the witnesses. The
    arguments need H to be a group: ht associative, eps neutral and in
    every row, so that each element has an inverse (checked, else every
    relation is scanned in full).
    B is _right_generators(ht): every element of H is a product
    b1*...*bk of members of B, so a set that contains B and is closed
    under the product is H. Write a^al = phi[a][al], p(a, al) =
    psi[a][al], [a, b] = xi[a][b] and L(a, b) = lam[a][b].

    A0 (in P2), be over B. If A0 holds at be and at ga for all a, al,
    then a^(al*(be*ga)) = a^((al*be)*ga) = (a^(al*be))^ga
    = ((a^al)^be)^ga = (a^al)^(be*ga), so it holds at be*ga.
    A1, be over B, given A0. If A1 holds at be and at ga, then
    p(a, (al*be)*ga) = p(a, al*be) p(a^(al*be), ga)
    = p(a, al) p(a^al, be) p((a^al)^be, ga) = p(a, al) p(a^al, be*ga).
    A2, al over B, given A0 and A1; then A3, al over B, given A2 too.
    Let a' = a^p(b, al) and b' = b^al, so that a'^p(b', be)
    = a^(p(b, al) p(b^al, be)) = a^p(b, al*be) and b'^be = b^(al*be).
    If A2 holds at al and be, [a, b]^(al*be) = ([a, b]^al)^be
    = [a', b']^be = [a'^p(b', be), b'^be]: A2 holds at al*be. If A3
    holds at al and be, L(a, b) p([a, b], al*be)
    = L(a, b) p([a, b], al) p([a, b]^al, be)
    = p(a, p(b, al)) L(a', b') p([a', b'], be)
    = p(a, p(b, al)) p(a', p(b', be)) L(a'^p(b', be), b'^be)
    = p(a, p(b, al*be)) L(a^p(b, al*be), b^(al*be)): A3 holds at al*be.

    A4 and A5, c over S. On H x M take the product (al, a)(be, b) =
    (al p(a, be) L(a^be, b), [a^be, b]), the right action
    (ga, c).be = (ga p(c, be), c^be) and d*(ga, c) = (d ga, c). Given
    the unit conditions a^eps = a and p(a, eps) = eps:
      (1) x(be, b) = (x.be)(eps, b), (d*x)y = d*(xy) and
          (d*x).al = d*(x.al);
      (2) (x.al).be = x.(al*be), by A0 and A1;
      (3) x(be*w) = (x.be)w, by (1) and (2);
      (4) A2 and A3 at (a, b, al) say ((eps, a)(eps, b)).al =
          (eps, a)((eps, b).al), so (xw).al = x(w.al) by (1)-(3);
      (5) A4 and A5 at (a, b, c) are the M- and H-parts of
          ((eps, a)(eps, b))(eps, c) = (eps, a)((eps, b)(eps, c)).
    Let Z be the set of z with (xy)z = x(yz) for all x, y in H x M.
    Z is closed under the product (Light), under .al by (4), and under
    d* by (3) and (4): (xy)(d*z) = ((xy).d)z = (x(y.d))z = x((y.d)z)
    = x(y(d*z)). If A4 and A5 hold at (a, b, c) for all a, b, then
    (eps, c) is in Z: for y = be*(eps, b), by (3), (5) and (1),
    (xy)(eps, c) = ((x.be)(eps, b))(eps, c) = (x.be)((eps, b)(eps, c))
    = x(y(eps, c)). Let Z_M be the set of c with (eps, c) in Z. As d*
    with d = ga^-1 takes (ga, c) to (eps, c), and with d = ga back,
    Z = H x Z_M. So Z_M is closed under c -> c^al, since
    (eps, c).al = (p(c, al), c^al) is in Z, and under (c, d) -> [c, d],
    since (eps, c)(eps, d) = (L(c, d), [c, d]) is. S is taken greedily,
    o last, so that the maps x -> [x, s] for s in S and x -> x^be for
    be in B reach all of M from S; then Z_M = M, the product is
    associative, and A4 and A5 hold everywhere by (5). On a field's
    image S = {1}. Where the (|H||M|)^2 product table fits the budget
    above it is built instead, and once the unit conditions hold Light's
    test on it decides A4 and A5 (needing no other check to pass).
    """
    if not _items_per_block(hg.m_size, hg.h.order):
        return _scan_axioms(hg)
    return _report(hg, _block_failures(_Stack([hg]))[0])


def verify_axioms_batch(hgs) -> list[Report]:
    """[verify_axioms(hg) for hg in hgs], for hypergroups that share
    m_size, o and H (its table and identity), else ShapeMismatchError.
    Where one hypergroup's relation cubes fit one BLOCK_CELLS block, as
    many as fit together are checked at once on their stacked tables, as
    verify_axioms checks one; past it each is scanned on its own, as
    verify_axioms does."""
    hgs = list(hgs)
    if not hgs:
        return []
    m, h, o = hgs[0].m_size, hgs[0].h, hgs[0].o
    if any(hg.m_size != m or hg.o != o or (hg.h is not h and (
            hg.h.identity != h.identity or not np.array_equal(hg.h.table, h.table)))
           for hg in hgs):
        raise ShapeMismatchError("a batch must share |M|, o and the H table")
    step = _items_per_block(m, h.order)
    if not step:
        return [_scan_axioms(hg) for hg in hgs]
    chunks = [hgs[lo:lo + step] for lo in range(0, len(hgs), step)]
    return [r for chunk in chunks for r in map(_report, chunk, _block_failures(_Stack(chunk)))]


def _items_per_block(m: int, hn: int) -> int:
    """How many hypergroups' relation cubes (|M|^3, |M|^2|H|, |M||H|^2
    cells) fit one BLOCK_CELLS block; 0: one alone does not, so scan."""
    return _util.BLOCK_CELLS // max(m * m * m, m * m * hn, m * hn * hn)


class _Stack:
    """The tables of k hypergroups that share |M|, H and o, stacked along
    a leading axis: row x of item i is row i*|M| + x of the stack, so the
    tables whose values index rows are shifted once (phi_r, xi_r). For
    one item the tables are its own, with a leading axis of 1 and no
    shift. The four checks linear in |M| and |H| are masks, True where a
    check fails; products gives the three identities of the induced
    product that the cubic checks are parts of."""

    def __init__(self, hgs: list[HypergroupOverGroup]):
        first = hgs[0]
        k, m = len(hgs), first.m_size
        self.o, self.eps, self.ht = first.o, first.h.identity, first.h.table
        self.m_range, self.h_range = _arange(m), _arange(first.h.order)
        if k == 1:
            phi, psi, xi, lam = first.phi[None], first.psi[None], first.xi[None], first.lam[None]
            self.phi_r, self.xi_r = phi, xi
        else:
            phi, psi, xi, lam = (np.stack([getattr(hg, name) for hg in hgs])
                                 for name in ("phi", "psi", "xi", "lam"))
            shift = np.arange(0, k * m, m)[:, None, None]   # i*|M|
            self.phi_r, self.xi_r = phi + shift, xi + shift
        self.phi, self.psi, self.xi, self.lam = phi, psi, xi, lam

    def _row_offsets(self, step: int) -> np.ndarray:
        """(i*|M| + a)*step at [i, a, 0, 0]: where row a of item i starts
        in a stacked table of step columns."""
        k, m = len(self.xi), self.m_range.size
        return (_arange(m, step, (1, m, 1, 1)) if k == 1
                else np.arange(0, k * m * step, step).reshape(k, m, 1, 1))

    def neutral(self) -> np.ndarray:
        return self.xi[:, self.o] != self.m_range

    def columns(self) -> np.ndarray:
        # (k, a, x): column a of xi, sorted, against 0..|M|-1
        return np.sort(self.xi, axis=1).transpose(0, 2, 1) != self.m_range

    def unit(self) -> np.ndarray:
        return self.phi[:, :, self.eps] != self.m_range

    def image(self) -> np.ndarray:
        return (self.psi[:, self.o, :, None] != self.h_range).all(axis=1)

    def products(self):
        """(lhs, rhs) of each identity of verify_axioms' facts (2), (4)
        and (5) on H x M, for all arguments at once, with (ga, d) encoded
        as ga*|M| + d. Made one identity at a time, so that at most two
        of them are held at once. The tables left and x_times are made
        per call and not cached: |H|^2|M| and k|M|^2|H| cells, at most
        BLOCK_CELLS each where verify_axioms stacks k items."""
        m, hn = self.m_range.size, self.h_range.size
        ht, phi, psi, xi, lam = self.ht, self.phi, self.psi, self.xi, self.lam
        hm = hn * m
        # ga*w at ga*|H||M| + w, for w = de*|M| + d: ht[ga][de]*|M| + d
        left = (ht[:, :, None] * m + self.m_range).ravel()
        act = psi * m + phi                   # (eps, a).al, at [a, al]
        mul = lam * m + xi                    # (eps, a)(eps, b), at [a, b]
        act_r, mul_r = act.reshape(-1, hn), mul.reshape(-1, m)
        psi_l, lam_l = psi[..., None] * hm, lam[..., None] * hm
        # X: (eps, a)w at (i*|M| + a)*|H||M| + w
        x_times = left.take(psi_l + mul_r.take(self.phi_r, axis=0))
        a_w = self._row_offsets(hm)
        # (2) ((eps, a).al).be = (eps, a).(al*be), over (a, al, be)
        yield left.take(psi_l + act_r.take(self.phi_r, axis=0)), act.take(ht, axis=2)
        # (4) ((eps, a)(eps, b)).al = (eps, a)((eps, b).al), over (a, b, al)
        yield left.take(lam_l + act_r.take(self.xi_r, axis=0)), x_times.take(a_w + act[:, None])
        # (5) ((eps, a)(eps, b))(eps, c) = (eps, a)((eps, b)(eps, c)), over (a, b, c)
        yield left.take(lam_l + mul_r.take(self.xi_r, axis=0)), x_times.take(a_w + mul[:, None])


def _block_failures(stack: _Stack) -> list[dict]:
    """_first_cells of every check's mask on the items of stack: the four
    linear masks, and the M- and H-parts of the mismatches of the three
    identities of _Stack.products, which are the masks of A0-A5 cell by
    cell. One count over the linear masks and the mismatches finds the
    common case of no failure; only an identity with a mismatch is split
    into its parts."""
    m = stack.m_range.size
    masks = {"neutral": stack.neutral(), "columns": stack.columns(), "unit": stack.unit(),
             "image": stack.image()}
    count = sum(map(np.count_nonzero, masks.values()))
    for names, (lhs, rhs) in zip((("P2", "A1"), ("A2", "A3"), ("A4", "A5")), stack.products()):
        if np.count_nonzero(lhs != rhs):
            masks[names[0]], masks[names[1]] = lhs % m != rhs % m, lhs // m != rhs // m
            count += 1
    return _first_cells(masks, len(stack.xi)) if count else [{} for _ in stack.xi]


def _first_cells(masks: dict, k: int) -> list[dict]:
    """For each of the k items of the masks, {name: the index of the
    first True cell of its mask in row-major order} over the masks by
    name that have one."""
    found: list[dict] = [{} for _ in range(k)]
    for name, mask in masks.items():
        for i in np.flatnonzero(mask.reshape(k, -1).any(axis=1)).tolist():
            found[i][name] = tuple(np.argwhere(mask[i])[0].tolist())
    return found


def _scan_axioms(hg: HypergroupOverGroup) -> Report:
    """verify_axioms past one block: the checks linear in |M| and |H| in
    full, the M- and H-parts of each identity of facts (2), (4) and (5)
    by blocked scans, over generators where the closure arguments
    allow, and A4 and A5 by Light's test where the product table fits."""
    stack = _Stack([hg])
    phi, xi, ht, eps, o, m, hn = hg.phi, hg.xi, stack.ht, hg.h.identity, hg.o, hg.m_size, hg.h.order
    found = _first_cells({"neutral": stack.neutral(), "columns": stack.columns(),
                          "unit": stack.unit(), "image": stack.image()}, 1)[0]
    group_gens = cache(lambda: _group_generators(ht, eps))

    def b_if_all_ok():
        """B when H is a group and every check so far passed, else None:
        each closure argument below needs both."""
        return None if found else group_gens()

    def settle(n, names, shape, gens):
        """found[name] for the M- and H-parts of identity (n), named
        names: one first_failure_on scan of the two, which evaluates the
        identity once per block for both. A part that its failure misses
        is scanned on its own, in order, as the checks before it allow:
        over generators when gens() gives them, as A0 and A2 need only
        the checks before them and A1 and A3 also A0 and A2; in full for
        A4 and A5, which close only together."""
        held = {}   # the parts of the last block, by its rows and columns

        def parts(rows, cols):
            key = rows.start, rows.stop, cols is None
            if key not in held:
                held.clear()
                held[key] = _parts(stack, n, rows, cols)
            return held[key]

        axioms = [(name, lambda cols, i=i: lambda rows: parts(rows, cols)[i])
                  for i, name in enumerate(names)]
        failure = first_failure_on(shape, axioms, gens)
        for name, mask_of in axioms:
            own = failure
            if own is not None and own[0] != name:
                own = first_failure_on(shape, [(name, mask_of)],
                                       (lambda: None) if n == 5 else gens)
            if own is not None:
                found[name] = own[1]

    settle(2, ("P2", "A1"), (m, hn, hn), b_if_all_ok)
    settle(4, ("A2", "A3"), (m, m, hn), b_if_all_ok)

    units_ok = "unit" not in found and bool((hg.psi[:, eps] == eps).all())
    table_fits = (hn * m) ** 2 <= max(_util.BLOCK_CELLS, m * m)
    if (m ** 3 > _util.BLOCK_CELLS and table_fits and units_ok
            and light_associative(_product_table(phi, hg.psi, xi, hg.lam, ht))):
        return _report(hg, found)

    def s_if_all_ok():
        """S, past the product table's budget, when the unit conditions
        hold and b_if_all_ok() gives B; else None."""
        b = None if table_fits or not units_ok else b_if_all_ok()
        return None if b is None else _right_generators(
            xi, [phi[:, be] for be in b], order=[*range(o), *range(o + 1, m), o])

    settle(5, ("A4", "A5"), (m, m, m), s_if_all_ok)
    return _report(hg, found)


def _parts(stack: _Stack, n: int, rows: slice, cols=None) -> tuple[np.ndarray, np.ndarray]:
    """The masks of the M- and H-parts of identity (n) of verify_axioms'
    facts, n = 2, 4 or 5, on the one item of stack: A0 and A1, A2 and A3,
    or A4 and A5 over their loop nests (a, x, y), with a at rows and the
    last argument y at cols, all for None. The left side is u.y (n = 2,
    4) or u(eps, y) (n = 5) for u = (eps, a).x (n = 2) or (eps, a)(eps, x);
    the right side is (eps, a).(x*y) (n = 2) or (eps, a)w, for w =
    (de, d) = (eps, x).y or (eps, x)(eps, y), which is (psi[a][de]*
    lam[a'][d], xi[a'][d]) with a' = phi[a][de]. Each part of each side
    is its own gather, the M-parts first, so that their temporaries
    are freed before the H-parts are gathered."""
    phi, psi, xi, lam = stack.phi[0], stack.psi[0], stack.xi[0], stack.lam[0]
    ht, m, hn = stack.ht, stack.m_range.size, stack.h_range.size
    u_h, u_m = (psi, phi) if n == 2 else (lam, xi)       # u at [a][x]
    y_h, y_m = (lam, xi) if n == 5 else (psi, phi)       # the last step at [.][y]
    if cols is not None:
        y_h, y_m = y_h.take(cols, axis=1), y_m.take(cols, axis=1)
    u = u_m[rows]
    if n == 2:
        xy = ht if cols is None else ht.take(cols, axis=1)
        m_part = y_m.take(u, axis=0) != phi[rows].take(xy, axis=1)
        rhs_h = psi[rows].take(xy, axis=1)
    else:
        at = phi[rows].take(y_h, axis=1) * m + y_m       # a'*|M| + d
        m_part = y_m.take(u, axis=0) != xi.ravel().take(at)
        rhs_h = psi[rows].take(y_h, axis=1) * hn + lam.ravel().take(at)
        del at
        rhs_h = ht.ravel().take(rhs_h)
    lhs_h = ht.ravel().take(u_h[rows][..., None] * hn + y_h.take(u, axis=0))
    return m_part, lhs_h != rhs_h


def _report(hg: HypergroupOverGroup, found: dict) -> Report:
    """The Report of verify_axioms on hg, from the first failing index of
    each failed check's mask by its name: neutral and columns (P1), unit
    and P2 (A0), image (P3), and A1-A5."""
    xi, phi, o, eps = hg.xi, hg.phi, hg.o, hg.h.identity
    checks = dict.fromkeys(AXIOM_NAMES, CheckResult(True))   # frozen: one for all passes
    if "neutral" in found:
        a, = found["neutral"]
        checks["P1"] = CheckResult(False, (o, a), f"xi[{o}][{a}] = {xi[o, a]}, expected {a}")
    elif "columns" in found:
        a = found["columns"][0]
        col = xi[:, a].tolist()   # its first repeated value, at rows y < x
        x = next(x for x, v in enumerate(col) if v in col[:x])
        y = col.index(col[x])
        checks["P1"] = CheckResult(False, (y, x, a), f"xi[{y}][{a}] = xi[{x}][{a}] = {col[x]}")
    if "unit" in found:
        a, = found["unit"]
        checks["P2"] = CheckResult(False, (a,), f"phi[{a}][{eps}] = {phi[a, eps]}, expected {a}")
    elif "P2" in found:
        checks["P2"] = CheckResult(False, found["P2"], "phi[phi[{0}][{1}]][{2}] != "
                                   "phi[{0}][{1}*{2}]".format(*found["P2"]))
    if "image" in found:
        b, = found["image"]
        checks["P3"] = CheckResult(False, (b,), f"{b} not in the image of psi[{o}]")
    for name, args in (("A1", "a, alpha, beta"), ("A2", "a, b, alpha"),
                       ("A3", "a, b, alpha"), ("A4", "a, b, c"), ("A5", "a, b, c")):
        if name in found:
            w = found[name]
            checks[name] = CheckResult(False, w, f"{name} fails at ({args}) = {w}")
    return Report(checks, "axioms")


def _group_generators(ht: np.ndarray, eps: int) -> list[int] | None:
    """_right_generators(ht), or None unless ht is a group with identity
    eps: associative, eps neutral, and eps in every row (a right inverse
    of each element)."""
    gens = _right_generators(ht)
    ar = np.arange(len(ht))
    if ((ht[eps] == ar).all() and (ht[:, eps] == ar).all()
            and (ht == eps).any(axis=1).all()
            and _associativity_witness(ht, gens) is None):
        return gens
    return None


def _product_table(phi, psi, xi, lam, ht) -> np.ndarray:
    """The product (alpha, a)(beta, b) = (alpha*psi[a][beta]*lam[a'][b],
    xi[a'][b]) with a' = phi[a][beta], on H x M, as an (|H||M|)^2 intp
    table with (alpha, a) at index alpha*|M| + a."""
    m, hn = xi.shape[0], ht.shape[0]
    h_part = ht.ravel().take(ht[:, psi][..., None] * hn + lam[phi])
    return (h_part * m + xi[phi]).reshape(hn * m, hn * m)


def quasigroup_divide(hg: HypergroupOverGroup, a: int, b: int) -> int:
    """The unique x with xi[x][a] = b, by column scan."""
    if not 0 <= a < hg.m_size or not 0 <= b < hg.m_size:
        raise IndexOutOfRangeError(f"({a}, {b}) outside M = [0, {hg.m_size})")
    hits = np.flatnonzero(hg.xi[:, a] == b).tolist()
    if not hits:
        raise NoSolutionError(f"[x, {a}] = {b} has no solution (P1 violated)")
    if len(hits) > 1:
        raise MultipleSolutionsError(
            f"[x, {a}] = {b} solved by all of {hits} (P1 violated)"
        )
    return hits[0]


def lemma_solve(hg: HypergroupOverGroup, a: int, b: int) -> int:
    """Solve [x, a] = b by the closed formula x = [b^{a^{(-1)}}, a^{[-1]}].

    The companion condition
        (x, a) * {}^b(a^{(-1)}) * (b^{a^{(-1)}}, a^{[-1]}) = eps     (F3)
    must hold for every standard construction; its failure means the
    structure is corrupted, not that the equation is unsolvable.
    """
    if hg.ambient is None:
        raise NoAmbientError(
            "lemma_solve needs the ambient (G, H, M) for inverse decompositions"
        )
    if not 0 <= a < hg.m_size or not 0 <= b < hg.m_size:
        raise IndexOutOfRangeError(f"({a}, {b}) outside M = [0, {hg.m_size})")
    amb = hg.ambient
    ah_parent, am_parent = inverse_decomposition(
        amb.transversal, amb.m_to_parent[a]
    )
    ah = amb.h_index(ah_parent)
    am = amb.m_index(am_parent)
    x = int(hg.xi[hg.phi[b, ah], am])

    ht = hg.h.table.tolist()
    companion = ht[ht[hg.lam[x, a]][hg.psi[b, ah]]][hg.lam[hg.phi[b, ah], am]]
    if companion != hg.h.identity:
        raise InternalInconsistencyError(
            f"companion condition (F3) fails at (a, b) = ({a}, {b}): "
            f"product = {companion}, expected {hg.h.identity}"
        )
    return x


IDENTITY_NAMES = (
    "inv_factor_neutral",
    "inv_factor_theta",
    "conjugated_neutral_row",
    "o_fixed_by_action",
    "identity_acts_trivially",
    "identity_maps_to_identity",
    "left_neutral_row",
    "right_mult_by_neutral",
    "right_cofactor_of_neutral",
)


def check_derived_identities(hg: HypergroupOverGroup) -> Report:
    """Identities that follow from the construction; all reference the
    ambient triple through theta or the inverse decomposition.

      inv_factor_neutral:        [a^{[-1]}, a] = o
      inv_factor_theta:          a^{(-1)} * (a^{[-1]}, a) = theta
      conjugated_neutral_row:    psi[o][alpha] = theta^{-1} * alpha * theta
      o_fixed_by_action:         phi[o][alpha] = o
      identity_acts_trivially:   phi[a][eps] = a
      identity_maps_to_identity: psi[a][eps] = eps
      left_neutral_row:          xi[o][a] = a
      right_mult_by_neutral:     xi[a][o] = phi[a][theta^{-1}]
      right_cofactor_of_neutral: lam[a][o] = psi[a][theta^{-1}]
    """
    if hg.ambient is None:
        raise NoAmbientError("derived identities reference the ambient triple")
    amb = hg.ambient
    ht = hg.h.table.tolist()
    eps = hg.h.identity
    theta = amb.theta
    theta_inv = hg.h.inverse[theta]
    m, hn = hg.m_size, hg.h.order
    o = hg.o
    checks: dict[str, CheckResult] = {}

    def run(name, size, test):
        """The first x in range(size) that fails test, or a pass."""
        bad = next((x for x in range(size) if not test(x)), None)
        checks[name] = (CheckResult(True) if bad is None else
                        CheckResult(False, (bad,), f"{name} fails at {(bad,)}"))

    inv_dec = [
        inverse_decomposition(amb.transversal, amb.m_to_parent[a])
        for a in range(m)
    ]
    inv_h = [amb.h_index(hp) for hp, _ in inv_dec]
    inv_m = [amb.m_index(mp) for _, mp in inv_dec]

    run("inv_factor_neutral", m, lambda a: hg.xi[inv_m[a]][a] == o)
    run("inv_factor_theta", m,
        lambda a: ht[inv_h[a]][hg.lam[inv_m[a]][a]] == theta)
    run("conjugated_neutral_row", hn,
        lambda al: hg.psi[o][al] == ht[ht[theta_inv][al]][theta])
    run("o_fixed_by_action", hn, lambda al: hg.phi[o][al] == o)
    run("identity_acts_trivially", m, lambda a: hg.phi[a][eps] == a)
    run("identity_maps_to_identity", m, lambda a: hg.psi[a][eps] == eps)
    run("left_neutral_row", m, lambda a: hg.xi[o][a] == a)
    run("right_mult_by_neutral", m,
        lambda a: hg.xi[a][o] == hg.phi[a][theta_inv])
    run("right_cofactor_of_neutral", m,
        lambda a: hg.lam[a][o] == hg.psi[a][theta_inv])
    return Report(checks, "identities")


def is_group_quasigroup(hg: HypergroupOverGroup) -> bool:
    """True iff xi is associative and a Latin square, that is a group; an
    associative right quasigroup with a left neutral is a group, so
    associativity plus P1 must yield a Latin square or the structure is
    internally inconsistent."""
    xi = hg.xi
    if first_nonassociative(xi) is not None:
        return False
    if (np.sort(np.vstack((xi, xi.T)), axis=1) == np.arange(hg.m_size)).all():
        return True  # every row and every column is a permutation
    stack = _Stack([hg])
    if not (stack.neutral().any() or stack.columns().any()):  # P1 holds
        raise InternalInconsistencyError(
            "xi is associative and P1 holds but (M, xi) is not a group"
        )
    return False


def check_normal_case(
    group: FiniteGroup,
    h: Subgroup,
    transversal_cap: int = DEFAULT_SAMPLE_CAP,
    seed: int = 0,
) -> Report:
    """For a normal H: phi is trivial, (M, xi) is a group isomorphic to
    the quotient G/H, and all transversals give pairwise isomorphic
    (M, xi). Transversals beyond the cap are sampled with the seed. Each
    check keeps its first failure; info names the group, the subgroup
    and the number of transversals checked.

    quotient_group indexes the cosets as xi does, so for normal H each
    xi is the quotient's table itself, which one array comparison over
    all the constructions shows. Only an xi that differs is validated
    with group_from_cayley_table and compared with group_isomorphism.
    """
    if not is_normal(h):
        raise NotNormalError(msg=f"{{{','.join(map(str, h.elements))}}} is not normal in {group.name}")
    quotient = quotient_group(group, h)
    checks = {name: CheckResult(True) for name in (
        "phi_trivial", "xi_is_group", "isomorphic_to_quotient",
        "transversals_pairwise_isomorphic")}

    def fail_once(name, witness, detail):
        if checks[name].ok:
            checks[name] = CheckResult(False, witness, detail)

    transversals = sample_transversals(group, h, cap=transversal_cap, seed=seed)
    hgs = standard_constructions(group, h, transversals)
    marange = np.arange(group.order // h.order, dtype=np.intp)[:, None]
    if hgs:
        phi_ok = (np.stack([hg.phi for hg in hgs]) == marange).all(axis=(1, 2)).tolist()
        is_quotient = (np.stack([hg.xi for hg in hgs])
                       == quotient.table).all(axis=(1, 2)).tolist()
    # the first (M, xi) that is a group, and whether it is isomorphic to
    # the quotient (so the quotient is isomorphic to it)
    first: tuple[FiniteGroup, bool] | None = None
    for tidx, (t, hg) in enumerate(zip(transversals, hgs)):
        reps = list(t.reps)
        if not phi_ok[tidx]:
            w = first_mismatch(hg.phi, marange)
            fail_once("phi_trivial", (tidx,) + w,
                      f"phi[{w[0]}][{w[1]}] != {w[0]} for transversal {reps}")
        if is_quotient[tidx]:
            xi_group, to_quotient = quotient, True
        else:
            try:
                xi_group = group_from_cayley_table(hg.xi)
            except AlgebraError as exc:
                fail_once("xi_is_group", (tidx,),
                          f"(M, xi) not a group for transversal {reps}: {exc}")
                continue
            to_quotient = group_isomorphism(xi_group, quotient) is not None
            if not to_quotient:
                fail_once("isomorphic_to_quotient", (tidx,),
                          f"(M, xi) of transversal {reps} is not isomorphic to "
                          f"{quotient.name}")
        if first is None:
            first = (xi_group, to_quotient)
            continue
        if first[0] is quotient:
            to_first = to_quotient
        elif xi_group is quotient:
            to_first = first[1]
        else:
            to_first = group_isomorphism(xi_group, first[0]) is not None
        if not to_first:
            fail_once("transversals_pairwise_isomorphic", (tidx,),
                      f"(M, xi) of transversal {reps} is not isomorphic to "
                      f"the first transversal's")
    info = {"group": group.name, "subgroup": list(h.elements),
            "transversals_checked": len(transversals)}
    return Report(checks, info=info)


def hypergroup_to_json(hg: HypergroupOverGroup) -> dict:
    return tables_to_lists(_hypergroup_json(hg))


def _hypergroup_json(hg: HypergroupOverGroup) -> dict:
    """hypergroup_to_json with the tables as arrays, which canonical_dumps writes."""
    data = {
        "m_size": hg.m_size,
        "h": _group_json(hg.h),
        "phi": hg.phi,
        "psi": hg.psi,
        "xi": hg.xi,
        "lam": hg.lam,
        "o": hg.o,
    }
    if hg.ambient is not None:
        data["ambient"] = {
            "group": _group_json(hg.ambient.group),
            "subgroup": list(hg.ambient.subgroup.elements),
            "transversal": list(hg.ambient.transversal.reps),
        }
    return data


def hypergroup_from_json(data: dict) -> HypergroupOverGroup:
    """The hypergroup hypergroup_to_json wrote. After the tables, an
    ambient whose subgroup is not h (its standalone table) or whose
    transversal is not m_size long raises MalformedTablesError."""
    h = group_from_json(data["h"])
    ambient = None
    if data.get("ambient") is not None:
        g = group_from_json(data["ambient"]["group"])
        sub = subgroup_from_elements(g, data["ambient"]["subgroup"])
        t = make_transversal(g, sub, data["ambient"]["transversal"])
        ambient = Ambient(group=g, subgroup=sub, transversal=t)
    hg = hypergroup_from_tables(data["m_size"], h, data["phi"], data["psi"], data["xi"],
                                data["lam"], data["o"], ambient=ambient)
    if ambient is not None and (not np.array_equal(sub.as_group().table, h.table)
                                or len(t.reps) != hg.m_size):
        raise MalformedTablesError(
            "ambient", "the subgroup is not h or the transversal has not m_size elements")
    return hg
