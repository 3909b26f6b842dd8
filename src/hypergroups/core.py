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

import copy
from dataclasses import dataclass, field
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
    theta: int = field(init=False)  # standalone H-index of o^{-1}

    def __post_init__(self):
        theta_parent, _ = neutral_decomposition(self.transversal)
        self.theta = self.h_index(theta_parent)

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

    _Relations writes each check once, as a mask. Where hg's relation
    cubes fit one BLOCK_CELLS block, every mask is evaluated in full, as
    by verify_axioms_batch, and a witness is the first True cell of its
    mask in row-major order. Past it each cubic relation is one
    first_failure scan over blocks of leading a, which stops at the
    first failing block. Memory: besides the tables, every temporary
    holds at most max(BLOCK_CELLS, |M|^2, |H|^2) cells (512 KiB of intp
    for |M|, |H| <= 256): a full evaluation, a block of a scan, the
    (|H||M|)^2 product table below, which is built only within that
    budget, and the generator walks, O(|M| + |H|) cells per generator.

    Generators only. When a cube spans more than one block and every
    check before it passed, its relation is first scanned with the last
    argument over a generating set only (first_failure_on). A pass there
    is a pass, by the closure arguments below; a failure runs the full
    scan, which gives the witness. The arguments need H to be a group:
    ht associative, eps neutral and in every row, so that each element
    has an inverse (checked, else every relation is scanned in full).
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
    return _report(hg, _failures(_Relations([hg]))[0])


def verify_axioms_batch(hgs) -> list[Report]:
    """[verify_axioms(hg) for hg in hgs], for hypergroups that share
    m_size, o and H (its table and identity), else ShapeMismatchError.
    Where one hypergroup's relation cubes fit one BLOCK_CELLS block, as
    many as fit together are evaluated in full on their stacked tables;
    past it each is scanned on its own, as verify_axioms does."""
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
    return [r for chunk in chunks for r in map(_report, chunk, _failures(_Relations(chunk)))]


def _items_per_block(m: int, hn: int) -> int:
    """How many hypergroups' relation cubes (|M|^3, |M|^2|H|, |M||H|^2
    cells) fit one BLOCK_CELLS block; 0: one alone does not, so scan."""
    return _util.BLOCK_CELLS // max(m * m * m, m * m * hn, m * hn * hn)


class _Relations:
    """The checks of verify_axioms as masks, True where a check fails, on
    the tables of k hypergroups that share |M|, H and o, stacked along a
    leading axis; checks maps each name to its method, in report order (P2
    is A0, which decides P2 once the unit action holds). A0-A5 are
    (k, |rows|, d2, |cols|) over the loop nest: the first argument at the
    rows of a block, the last at the columns of the tables it indexes,
    h_cols of phi, psi and ht (A0-A3) or m_cols of xi and lam (A4, A5).
    Suffixes: _a at those rows, _c at those columns, _cr that by stacked
    row, _c4 that with an axis for a. Row x of item i is row i*|M| + x of
    the stack, so T[x][y] is the flat stack at (i*|M| + x)*ncols + y; the
    tables whose values index rows are shifted (phi_r, xi_r) and
    premultiplied (phi_m, psi_h, lam_h, a_h) once. A new _Relations is at
    every row and column, the whole tables; restrict gives a scan's block.
    """

    def __init__(self, hgs: list[HypergroupOverGroup]):
        first = hgs[0]
        k, m, hn = len(hgs), first.m_size, first.h.order
        self.o, self.eps, self.ht = first.o, first.h.identity, first.h.table
        self.m_range, self.h_range = _arange(m), _arange(hn)
        # a_h = (i*|M| + a)*|H|, a cached constant for one item
        if k == 1:   # one item needs no stack and no shift
            phi, psi, xi, lam = first.phi[None], first.psi[None], first.xi[None], first.lam[None]
            phi_r, xi_r = phi, xi
            self.phi_cr, self.psi_cr, self.xi_cr, self.lam_cr = (
                first.phi, first.psi, first.xi, first.lam)
            self.a_h = _arange(m, hn, (1, m, 1, 1))
        else:
            phi, psi, xi, lam = (np.stack([getattr(hg, name) for hg in hgs])
                                 for name in ("phi", "psi", "xi", "lam"))
            shift = np.arange(0, k * m, m)[:, None, None]   # i*|M|
            phi_r, xi_r = phi + shift, xi + shift
            self.phi_cr, self.psi_cr = phi.reshape(-1, hn), psi.reshape(-1, hn)
            self.xi_cr, self.lam_cr = xi.reshape(-1, m), lam.reshape(-1, m)
            self.a_h = np.arange(0, k * m * hn, hn).reshape(k, m, 1, 1)
        self.phi, self.psi, self.xi, self.lam = phi, psi, xi, lam
        self.phi_r, self.xi_r = phi_r, xi_r
        self.phi_m = phi_r.ravel() * m       # (i*|M| + phi[a][al])*|M|
        self.psi_h, self.lam_h = psi * hn, lam * hn
        self.htf, self.xif, self.lamf, self.psi_hf = (
            self.ht.ravel(), xi.ravel(), lam.ravel(), self.psi_h.ravel())
        # the other _a and _c tables, at every row and column
        self.phi_a, self.psi_a, self.phi_ra, self.xi_ra = phi, psi, phi_r, xi_r
        self.a_ha = self.a_h
        self.psi_ha, self.lam_ha = self.psi_h[..., None], self.lam_h[..., None]
        self.ht_c = self.ht
        self.phi_c4, self.psi_c4, self.xi_c4, self.lam_c4 = (
            phi[:, None], psi[:, None], xi[:, None], lam[:, None])
        self._at = None, None

    def restrict(self, rows=slice(None), h_cols=slice(None), m_cols=slice(None)) -> _Relations:
        """A copy with the _a and _c tables at rows, h_cols and m_cols."""
        rel = copy.copy(self)
        rel.phi_a, rel.psi_a, rel.phi_ra, rel.xi_ra, rel.a_ha = (
            self.phi[:, rows], self.psi[:, rows], self.phi_r[:, rows], self.xi_r[:, rows],
            self.a_h[:, rows])
        rel.psi_ha, rel.lam_ha = self.psi_h[:, rows, :, None], self.lam_h[:, rows, :, None]
        rel.ht_c = self.ht[:, h_cols]
        # a list of columns gives strided copies, which slow every gather after
        c = [np.ascontiguousarray(t) for t in (self.phi[..., h_cols], self.psi[..., h_cols],
                                               self.xi[..., m_cols], self.lam[..., m_cols])]
        rel.phi_cr, rel.psi_cr, rel.xi_cr, rel.lam_cr = (t.reshape(-1, t.shape[2]) for t in c)
        rel.phi_c4, rel.psi_c4, rel.xi_c4, rel.lam_c4 = (t[:, None] for t in c)
        rel._at = None, None
        return rel

    def neutral(self) -> np.ndarray:
        return self.xi[:, self.o] != self.m_range

    def columns(self) -> np.ndarray:
        # (k, a, x): column a of xi, sorted, against 0..|M|-1
        return np.sort(self.xi, axis=1).transpose(0, 2, 1) != self.m_range

    def unit(self) -> np.ndarray:
        return self.phi[:, :, self.eps] != self.m_range

    def image(self) -> np.ndarray:
        return (self.psi[:, self.o, :, None] != self.h_range).all(axis=1)

    def a0(self) -> np.ndarray:
        return self.phi_cr.take(self.phi_ra, axis=0) != self.phi_a.take(self.ht_c, axis=2)

    def a1(self) -> np.ndarray:
        return (self.psi_a.take(self.ht_c, axis=2)
                != self.htf.take(self.psi_ha + self.psi_cr.take(self.phi_ra, axis=0)))

    def a2(self) -> np.ndarray:
        return (self.phi_cr.take(self.xi_ra, axis=0)
                != self.xif.take(self._at_q(self.psi_c4, self.phi_c4)[1]))

    def a3(self) -> np.ndarray:
        at, cell = self._at_q(self.psi_c4, self.phi_c4)
        return (self.htf.take(self.lam_ha + self.psi_cr.take(self.xi_ra, axis=0))
                != self.htf.take(self.psi_hf.take(at) + self.lamf.take(cell)))

    def a4(self) -> np.ndarray:
        return (self.xi_cr.take(self.xi_ra, axis=0)
                != self.xif.take(self._at_q(self.lam_c4, self.xi_c4)[1]))

    def a5(self) -> np.ndarray:
        at, cell = self._at_q(self.lam_c4, self.xi_c4)
        return (self.htf.take(self.lam_ha + self.lam_cr.take(self.xi_ra, axis=0))
                != self.htf.take(self.psi_hf.take(at) + self.lamf.take(cell)))

    def _at_q(self, q_c4, r_c4):
        """(at, cell): at the flat index of row a, column q[b][y], and cell
        that of row phi[a][q[b][y]], column r[b][y], for q, r = psi, phi
        (A2, A3) or lam, xi (A4, A5); kept for the last q, as A2 and A3
        run one after the other, then A4 and A5."""
        if self._at[0] is not q_c4:
            at = self.a_ha + q_c4
            self._at = q_c4, (at, self.phi_m.take(at) + r_c4)
        return self._at[1]

    checks = {"neutral": neutral, "columns": columns, "unit": unit, "P2": a0, "image": image,
              "A1": a1, "A2": a2, "A3": a3, "A4": a4, "A5": a5}


def _failures(rel: _Relations, names=tuple(_Relations.checks)) -> list[dict]:
    """For each item of rel, {name: the index of the first True cell of
    its mask in row-major order} over the checks of names that fail.
    Every mask is made first; one count over them all finds the common
    case of no failure."""
    masks = [rel.checks[name](rel) for name in names]
    found: list[dict] = [{} for _ in range(len(rel.xi))]
    if np.count_nonzero(np.concatenate([mask.ravel() for mask in masks])):
        for name, mask in zip(names, masks):
            for i in np.flatnonzero(mask.reshape(len(mask), -1).any(axis=1)).tolist():
                found[i][name] = tuple(np.argwhere(mask[i])[0].tolist())
    return found


def _scan_axioms(hg: HypergroupOverGroup) -> Report:
    """verify_axioms past one block: the checks linear in |M| and |H| in
    full, each cubic relation by blocked scans, over generators where
    the closure arguments allow, and A4 and A5 by Light's test where the
    product table fits."""
    rel = _Relations([hg])
    phi, xi, ht, eps, o, m, hn = hg.phi, hg.xi, rel.ht, hg.h.identity, hg.o, hg.m_size, hg.h.order
    found = _failures(rel, ("neutral", "columns", "unit", "image"))[0]
    group_gens = cache(lambda: _group_generators(ht, eps))

    def b_if_all_ok():
        """B when H is a group and every check so far passed, else None:
        each closure argument below needs both."""
        return None if found else group_gens()

    def settle(shape, names, gens, last="h_cols"):
        """found[name] for each relation of names, whose last argument
        runs over the columns restrict calls last: one first_failure_on
        scan of them all, then a full scan of each its failure misses."""
        axioms = [(name, lambda cols, of=rel.checks[name]: lambda r: of(
            rel.restrict(r, **{last: slice(None) if cols is None else cols}))[0])
            for name in names]
        failure = first_failure_on(shape, axioms, gens)
        for name, mask_of in axioms:
            own = failure
            if own is not None and own[0] != name:
                own = first_failure(shape, [(name, mask_of(None))])
            if own is not None:
                found[name] = own[1]

    if "unit" not in found:
        settle((m, hn, hn), ["P2"], b_if_all_ok)
    for name, shape in (("A1", (m, hn, hn)), ("A2", (m, m, hn)), ("A3", (m, m, hn))):
        settle(shape, [name], b_if_all_ok)

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

    settle((m, m, m), ["A4", "A5"], s_if_all_ok, "m_cols")
    return _report(hg, found)


def _report(hg: HypergroupOverGroup, found: dict) -> Report:
    """The Report of verify_axioms on hg, from the first failing index of
    each failed check's mask by its name in _Relations.checks."""
    xi, phi, o, eps = hg.xi, hg.phi, hg.o, hg.h.identity
    checks = {name: CheckResult(True) for name in AXIOM_NAMES}
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
    if not _failures(_Relations([hg]), ("neutral", "columns"))[0]:  # P1 holds
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
