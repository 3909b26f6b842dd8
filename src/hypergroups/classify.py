"""Enumeration and isomorphism classification of small hypergroups.

Two sources feed the same catalog type: sweep_standard runs the
standard construction over builtin groups, subgroups and transversals;
enumerate_abstract searches the defining axioms directly over tables
at tiny sizes. Both file an entry under the orbit key of its ambient
group under the automorphisms: a standard construction's (G, H, T)
itself, an abstract hypergroup's the group its tables define on H x M
(_ambient). Equal keys mean isomorphic hypergroups, so no entry is
deduplicated by search, and every entry carries a certificate onto its
class representative, searched on first read, so "same class" claims
stay machine-checkable.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._util import BLOCK_CELLS, canonical_dumps
from .core import (
    HypergroupOverGroup,
    _hypergroup_json,
    _product_table,
    hypergroup_from_tables,
    is_group_quasigroup,
    standard_constructions,
    verify_axioms,
    verify_axioms_batch,
)
from .errors import AlgebraError, InternalInconsistencyError, SizeLimitExceededError
from .groups import (FiniteGroup, automorphisms, builtin_groups, element_orders,
                     enumerate_subgroups, group_from_cayley_table, group_isomorphism)
from .morphisms import HgMorphism, find_isomorphism
from .transversals import DEFAULT_SAMPLE_CAP, sample_transversals

MAX_SWEEP_ORDER = 24
MAX_ABSTRACT_M = 3
MAX_ABSTRACT_H = 3


@dataclass
class CatalogEntry:
    """One catalogued hypergroup and its class. An entry other than the
    representative of its class, made with _rep, finds iso_to_rep on
    first read."""

    hypergroup: HypergroupOverGroup
    provenance: str
    class_id: int
    xi_is_group: bool
    xi_commutative: bool
    _rep: HypergroupOverGroup | None = field(default=None, repr=False, compare=False)
    _iso: HgMorphism | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def iso_to_rep(self) -> HgMorphism | None:
        """An isomorphism onto the class representative, None for the
        representative itself; for an entry made with _rep, the
        find_isomorphism(hypergroup, _rep) certificate, searched once."""
        if self._rep is not None:
            iso = find_isomorphism(self.hypergroup, self._rep)
            if iso is None:
                raise InternalInconsistencyError(
                    f"{self.provenance} shares the orbit key of class "
                    f"{self.class_id} but is not isomorphic to its representative"
                )
            self._iso, self._rep = iso, None
        return self._iso


@dataclass
class Catalog:
    """Entries sorted into isomorphism classes by a key, a value that two
    hypergroups share exactly when they are isomorphic (the orbit keys
    of sweep_standard and enumerate_abstract). insert searches nothing:
    the first entry of a key represents its class, and the others find
    their certificates when iso_to_rep is first read. Each class's key
    is kept, in class-id order, for universality_probe.
    """

    entries: list[CatalogEntry] = field(default_factory=list)
    class_reps: list[HypergroupOverGroup] = field(default_factory=list)
    _classes: dict = field(default_factory=dict, repr=False)  # key -> (class id, flags)

    def insert(self, hg: HypergroupOverGroup, provenance: str, key) -> CatalogEntry:
        """Insert hg into the class of key. xi_is_group and
        xi_commutative are isomorphism invariants, computed once per
        class."""
        known = self._classes.get(key)
        if known is None:
            known = self._classes[key] = (len(self.class_reps), _xi_flags(hg))
            self.class_reps.append(hg)
            rep = None
        else:
            rep = self.class_reps[known[0]]
        entry = CatalogEntry(hg, provenance, known[0], *known[1], rep)
        self.entries.append(entry)
        return entry

    def stats(self) -> dict[tuple, int]:
        """Entry counts keyed by (|M|, |H|, xi is a group, xi commutative)."""
        out: dict[tuple, int] = {}
        for e in self.entries:
            k = (e.hypergroup.m_size, e.hypergroup.h.order, e.xi_is_group,
                 e.xi_commutative)
            out[k] = out.get(k, 0) + 1
        return out

    @property
    def n_classes(self) -> int:
        return len(self.class_reps)


def _xi_flags(hg: HypergroupOverGroup) -> tuple[bool, bool]:
    """Whether xi is a group, and whether it is commutative."""
    return is_group_quasigroup(hg), bool((hg.xi == hg.xi.T).all())


def sweep_standard(
    max_group_order: int,
    transversal_cap: int = DEFAULT_SAMPLE_CAP,
    seed: int = 0,
) -> Catalog:
    """Construct and classify every (builtin G, subgroup, transversal)
    triple up to the order bound, sampling transversals past the cap.
    The transversals of each (G, H) are built by one
    standard_constructions call and checked by one verify_axioms_batch
    call, then inserted in order by orbit key (Catalog.insert), so the
    sweep runs no isomorphism search.

    The key rests on this: the hypergroups of (G, H, T) and (G', H', T')
    are isomorphic iff some group isomorphism F : G -> G' has F(H) = H'
    and F(T) = T' as sets.
    - Given F, it maps the factorization a*al = psi(a, al)*phi(a, al),
      and a*b = lam(a, b)*xi(a, b), with its H part in H' and its T part
      in T', so by the uniqueness of the factorization in G' its
      restrictions (f0, f1) to H and T commute with phi, psi, xi and lam:
      a hypergroup isomorphism.
    - Given an isomorphism (f0, f1), let F(al*a) = f0(al)*f1(a) for al in
      H and a in T, a bijection by the unique H x M factorization of G and
      G'. It is a homomorphism because the product of G, written on
      H x M, is (al, a)(be, b) = (al*psi(a, be)*lam(a^be, b), xi(a^be, b))
      with a^be = phi(a, be), built from the group law of H and the four
      tables, which (f0, f1) carries over. F(T) = F(eps*T) = f1(T) = T'.
      P1 makes o the only left neutral of xi, so f1(o) = o', and as o is
      in H, F(H) = F(H*o) = f0(H)*o' = H'.
    So the classes over the groups isomorphic to G0, the first builtin
    of their order isomorphic to G, are the Aut(G0)-orbits on pairs
    (H, T), once each G is mapped onto G0 by one isomorphism. The key of
    (G, H, T) is (G0's name, the least bitmask of F(H), the least bitmask
    of F(T) over the F that reach that least H), with F ranging over the
    isomorphisms G -> G0: a function of the orbit, and equal keys give
    one orbit. The first entry of a key represents its class, as the
    first entry isomorphic to none before it would in a search, so class
    ids, representatives and exports are those a search gives.
    """
    if max_group_order > MAX_SWEEP_ORDER:
        raise SizeLimitExceededError(
            f"standard sweep capped at order {MAX_SWEEP_ORDER}"
        )
    catalog = Catalog()
    builtins = builtin_groups(max_group_order)
    canonical = _canonical_bases(builtins)
    for group in builtins:
        base, maps = canonical(group)
        for h in enumerate_subgroups(group):
            ts = sample_transversals(group, h, cap=transversal_cap, seed=seed)
            hgs = standard_constructions(group, h, ts)
            reps = np.array([t.reps for t in ts], dtype=np.intp)
            keys = _orbit_keys(maps, h.elements, reps)
            for t, hg, report, key in zip(ts, hgs, verify_axioms_batch(hgs), keys):
                if not report.overall:
                    raise InternalInconsistencyError(
                        f"standard construction failed axioms "
                        f"{report.failing()} for G={group.name}, "
                        f"H={list(h.elements)}, M={list(t.reps)}"
                    )
                provenance = "standard:%s:H=%s:M=%s" % (
                    group.name,
                    ",".join(map(str, h.elements)),
                    ",".join(map(str, t.reps)),
                )
                catalog.insert(hg, provenance, (base, *key))
    return catalog


def _ambient(hg: HypergroupOverGroup, provenance: str) -> tuple[FiniteGroup, list[int], np.ndarray]:
    """The converse of the standard construction: the group A that hg's
    tables define on H x M, with (al, a) at index al*|M| + a and the
    product (al, a)(be, b) = (al*psi(a, be)*lam(a^be, b), xi(a^be, b))
    (core._product_table); the elements of H_A = {(al, o)}; and
    T_A = {(eps, a)} in the order of a, as a (1, |M|) reps array. The
    table is checked to be a group: InternalInconsistencyError, naming
    provenance, reports one that is not, as hg passed verify_axioms.

    enumerate_abstract files hg under the orbit key (sweep_standard) of
    (A, H_A, T_A), and two hypergroups get equal keys iff they are
    isomorphic, the standard constructions among them included.
    - iso => equal key. An isomorphism (f0, f1) : hg -> hg' carries the
      four tables, and the product above is built from them and the
      group law of H, so F(al, a) = (f0 al, f1 a) is a group isomorphism
      A -> A'. f0(eps) = eps', and f1(o) = o' as P1 makes o the only left
      neutral of xi, so F(H_A) = H_A' and F(T_A) = T_A'. The isomorphisms
      A -> G0 are those A' -> G0 composed with F, so the keys are equal.
    - equal key => iso. Equal keys give isomorphisms F : A -> G0 and
      F' : A' -> G0 with F(H_A) = F'(H_A') and F(T_A) = F'(T_A'), so by
      sweep_standard's proof the standard constructions S of
      (A, H_A, T_A) and S' of (A', H_A', T_A') are isomorphic. So it is
      enough that hg is isomorphic to S. Take the notation (1)-(4) of
      verify_axioms' A4 and A5 argument. A's identity is e = (th, o) for
      some th: the M-part of e(eps, b) = (eps, b) says that e's M-part
      is a left neutral of xi, and P1 allows only o. By (4),
      x.be = (xe).be = x(e.be), so j(be) = e.be = (th*psi(o, be), o^be)
      is a homomorphism H -> A by (2). o^be = o: A2 at a = o reads
      xi(o^psi(b, al), b^al) = b^al, so o^psi(b, al) = o by P1, and
      psi(o, .) is onto H by P3, so a bijection. So j is injective, and
      j(H) = H_A. By (1), x(be, b) = (x.be)(eps, b), whence
        (be, b) = j(be) (eps, b),
        (eps, a) j(be) = (psi(a, be), a^be) = j(psi(a, be)) (eps, a^be),
        (eps, a)(eps, b) = (lam(a, b), xi(a, b)) = j(lam(a, b)) (eps, xi(a, b)).
      The first says that the right cosets of H_A are the fibres H x {a},
      each holding one (eps, a), so T_A is a right transversal; the
      other two, that f0 = j and f1(a) = (eps, a), read in S's labels
      (H_A's index and the right coset order), take hg's tables to S's.
      The isomorphism follows the coset order, not the identity
      labelling, and f0 is j, not the identity.
    """
    m, hn = hg.m_size, hg.h.order
    try:
        group = group_from_cayley_table(
            _product_table(hg.phi, hg.psi, hg.xi, hg.lam, hg.h.table))
    except AlgebraError as exc:
        raise InternalInconsistencyError(
            f"{provenance} passes verify_axioms but its product table is not "
            f"a group: {exc}") from None
    return (group, [al * m + hg.o for al in range(hn)],
            np.arange(hg.h.identity * m, hg.h.identity * m + m)[None])


def _canonical_bases(builtins: tuple[FiniteGroup, ...]):
    """The function taking a group to (G0's name, maps): G0 is the first
    group of builtins of its order isomorphic to it, and maps holds every
    isomorphism group -> G0 as a row of a uint8 array, the automorphisms
    of G0 after the first isomorphism group_isomorphism finds (after
    none for G0 itself). Aut(G0) is listed when the first group is
    mapped onto G0, and kept."""
    auts: dict[str, np.ndarray] = {}

    def canonical(group: FiniteGroup) -> tuple[str, np.ndarray]:
        for base in builtins:
            if base.order != group.order:
                continue
            to_base = slice(None) if base is group else group_isomorphism(group, base)
            if to_base is not None:
                if base.name not in auts:
                    auts[base.name] = automorphisms(base)
                return base.name, auts[base.name][:, to_base]
        raise InternalInconsistencyError(
            f"no builtin group of order {group.order} is isomorphic to {group.name}")

    return canonical


# _BIT[x] = 1 << x: a subset of a group of order <= MAX_SWEEP_ORDER as a
# uint32 bitmask
_BIT = 1 << np.arange(MAX_SWEEP_ORDER, dtype=np.uint32)


def _orbit_keys(maps: np.ndarray, h_elements, reps: np.ndarray) -> list[tuple[int, int]]:
    """The (H, T) part of the orbit key (sweep_standard) of each row T of
    reps, a (k, |M|) array of transversals of the subgroup H given by
    its elements: the least mask of F(H) over the rows F of maps, and the
    least mask of F(T) over the rows that reach it. Masks are ORed one
    element at a time, for as many T at a time as keep each temporary
    within BLOCK_CELLS cells."""
    h_masks = np.zeros(len(maps), dtype=np.uint32)
    for x in h_elements:
        h_masks |= _BIT[maps[:, x]]
    h_key = h_masks.min()
    stab = maps[h_masks == h_key]
    step = max(1, BLOCK_CELLS // len(stab))
    t_keys = []
    for lo in range(0, len(reps), step):
        t_masks = np.zeros((len(stab), len(reps[lo:lo + step])), dtype=np.uint32)
        for column in reps[lo:lo + step].T:
            t_masks |= _BIT[stab[:, column]]
        t_keys.append(t_masks.min(axis=0))
    return [(int(h_key), t_key) for t_key in np.concatenate(t_keys).tolist()]


def _xi_candidates(m: int):
    """All xi tables with left neutral 0 and permutation columns: choose
    per column a a permutation of M sending 0 to a."""
    perms = list(itertools.permutations(range(m)))
    per_column = [
        [p for p in perms if p[0] == a] for a in range(m)
    ]
    for combo in itertools.product(*per_column):
        yield [[combo[a][x] for a in range(m)] for x in range(m)]


def _phi_candidates(h: FiniteGroup, m: int):
    """All right actions of H on M as tables: maps al -> sigma_al into
    Sym(M) with sigma_eps = id and sigma_(al*be) = sigma_al then sigma_be."""
    perms = list(itertools.permutations(range(m)))
    idp = tuple(range(m))
    hn, ht = h.order, h.table.tolist()
    others = [al for al in range(hn) if al != h.identity]
    for assignment in itertools.product(perms, repeat=len(others)):
        sigma = {h.identity: idp}
        for al, p in zip(others, assignment):
            sigma[al] = p
        ok = all(
            tuple(sigma[be][sigma[al][x]] for x in range(m)) == sigma[ht[al][be]]
            for al in range(hn)
            for be in range(hn)
        )
        if ok:
            yield [[sigma[al][a] for al in range(hn)] for a in range(m)]


def _cyclic_generator_of(h: FiniteGroup) -> int:
    orders = element_orders(h)
    if h.order not in orders:
        raise SizeLimitExceededError(
            "abstract enumeration requires a cyclic H (all groups of order "
            "<= 3 are cyclic)"
        )
    return orders.index(h.order)


def _psi_candidates(h: FiniteGroup, phi: list[list[int]], m: int):
    """Psi tables satisfying A1 and P3.

    psi[a][eps] = eps is forced (set al = be = eps in A1 and cancel),
    and the rest of each row follows from the generator column via
    A1: psi[a][g^(k+1)] = psi[a][g^k] * psi[phi[a][g^k]][g]. Free
    choices are the m generator-column values; the full table is then
    filtered by the complete A1 relation and by P3.
    """
    hn = h.order
    ht = h.table.tolist()
    eps = h.identity
    if hn == 1:
        yield [[eps] for _ in range(m)]
        return
    gamma = _cyclic_generator_of(h)
    # powers[k] = gamma^(k+1); covers all of H minus eps
    powers = [gamma]
    while ht[powers[-1]][gamma] != eps:
        powers.append(ht[powers[-1]][gamma])
    for column in itertools.product(range(hn), repeat=m):
        psi = [[-1] * hn for _ in range(m)]
        for a in range(m):
            psi[a][eps] = eps
            psi[a][gamma] = column[a]
        for k in range(len(powers) - 1):
            g_k, g_next = powers[k], powers[k + 1]
            for a in range(m):
                psi[a][g_next] = ht[psi[a][g_k]][psi[phi[a][g_k]][gamma]]
        ok = all(
            psi[a][ht[al][be]] == ht[psi[a][al]][psi[phi[a][al]][be]]
            for a in range(m)
            for al in range(hn)
            for be in range(hn)
        )
        if ok and set(psi[0]) == set(range(hn)):  # P3 at o = 0
            yield psi


def _lambda_candidates(
    h: FiniteGroup, xi: list[list[int]], phi: list[list[int]],
    psi: list[list[int]], m: int
):
    """All lam tables consistent with A3 and A5, by DFS over cells with
    A3-forced propagation and A5 pruning.

    Each A3 instance (a, b, al) links cells (a, b) and
    (phi[a][psi[b][al]], phi[b][al]) by an invertible relation in H, so
    assigning one cell forces the other; free cells only appear when a
    new component starts. After each successful assignment every A5
    instance (a, b, c) whose four lam cells are assigned is checked; a
    failure prunes the subtree, whose leaves all keep those cells and so
    fail A5. The yield sequence is that of an A5 check at the leaves only.
    """
    hn = h.order
    ht = h.table.tolist()
    hinv = h.inverse
    links: dict[tuple[int, int], list[tuple]] = {}
    for a in range(m):
        for b in range(m):
            for al in range(hn):
                t = psi[xi[a][b]][al]
                s = psi[a][psi[b][al]]
                c1 = (a, b)
                c2 = (phi[a][psi[b][al]], phi[b][al])
                # relation: lam[c1] * t = s * lam[c2]
                links.setdefault(c1, []).append((c1, c2, t, s))
                links.setdefault(c2, []).append((c1, c2, t, s))
    lam = [[-1] * m for _ in range(m)]
    cells = [(a, b) for a in range(m) for b in range(m)]

    def force(cell, value, trail):
        lam[cell[0]][cell[1]] = value
        trail.append(cell)
        queue = [cell]
        while queue:
            c = queue.pop()
            for (c1, c2, t, s) in links.get(c, ()):
                v1 = lam[c1[0]][c1[1]]
                v2 = lam[c2[0]][c2[1]]
                if v1 >= 0 and v2 >= 0:
                    if ht[v1][t] != ht[s][v2]:
                        return False
                elif v1 >= 0:
                    forced = ht[hinv[s]][ht[v1][t]]
                    lam[c2[0]][c2[1]] = forced
                    trail.append(c2)
                    queue.append(c2)
                elif v2 >= 0:
                    forced = ht[ht[s][v2]][hinv[t]]
                    lam[c1[0]][c1[1]] = forced
                    trail.append(c1)
                    queue.append(c1)
        return True

    def a5_violated():
        for a in range(m):
            for b in range(m):
                ab = lam[a][b]
                for c in range(m):
                    bc = lam[b][c]
                    if ab < 0 or bc < 0:
                        continue
                    x = lam[xi[a][b]][c]
                    y = lam[phi[a][bc]][xi[b][c]]
                    if x >= 0 and y >= 0 and ht[ab][x] != ht[psi[a][bc]][y]:
                        return True
        return False

    def undo(trail):
        for (a, b) in trail:
            lam[a][b] = -1

    def search(pos):
        while pos < len(cells) and lam[cells[pos][0]][cells[pos][1]] >= 0:
            pos += 1
        if pos == len(cells):
            yield [row[:] for row in lam]
            return
        cell = cells[pos]
        for value in range(hn):
            trail: list[tuple[int, int]] = []
            if force(cell, value, trail) and not a5_violated():
                yield from search(pos + 1)
            undo(trail)

    yield from search(0)


def enumerate_abstract(m_size: int, h: FiniteGroup) -> Catalog:
    """All hypergroups with |M| = m_size over H, up to isomorphism.

    o is fixed at 0: every hypergroup is isomorphic to one with o = 0
    (transport the structure along the transposition swapping 0 and o),
    so the restriction loses no classes. Candidates are generated
    axiom-by-axiom and a final verify_axioms pass is the authority on
    what enters the catalog. Each entry is inserted under the orbit key
    (G0's name, least F(H) mask, least F(T) mask) of its ambient group
    (_ambient, which holds the proof that equal keys mean isomorphic
    hypergroups), with G0 the first builtin isomorphic to it: every
    group of order m_size*|H| <= 9 is a builtin. So no isomorphism is
    searched; the first entry of a key represents its class, as the
    first entry isomorphic to none before it, and the others find their
    certificates when iso_to_rep is first read.
    """
    if not 1 <= m_size <= MAX_ABSTRACT_M:
        raise SizeLimitExceededError(
            f"abstract enumeration needs |M| in 1..{MAX_ABSTRACT_M}, not {m_size}"
        )
    if h.order > MAX_ABSTRACT_H:
        raise SizeLimitExceededError(
            f"abstract enumeration capped at |H| <= {MAX_ABSTRACT_H}"
        )
    catalog = Catalog()
    canonical = _canonical_bases(builtin_groups(m_size * h.order))
    count = 0
    for xi in _xi_candidates(m_size):
        for phi in _phi_candidates(h, m_size):
            for psi in _psi_candidates(h, phi, m_size):
                for lam in _lambda_candidates(h, xi, phi, psi, m_size):
                    hg = hypergroup_from_tables(
                        m_size, h, phi, psi, xi, lam, 0
                    )
                    if not verify_axioms(hg).overall:
                        continue
                    provenance = f"abstract:m{m_size}:H={h.name}:#{count}"
                    count += 1
                    group, h_elements, reps = _ambient(hg, provenance)
                    base, maps = canonical(group)
                    key = _orbit_keys(maps, h_elements, reps)[0]
                    catalog.insert(hg, provenance, (base, *key))
    return catalog


@dataclass
class UniversalityReport:
    matches: list[dict]

    @property
    def all_matched(self) -> bool:
        return all(m["matched"] for m in self.matches)

    def unmatched(self) -> list[int]:
        return [m["abstract_class"] for m in self.matches if not m["matched"]]

    def to_dict(self) -> dict:
        return {"all_matched": self.all_matched, "matches": self.matches}


def universality_probe(
    catalog_abstract: Catalog, catalog_standard: Catalog
) -> UniversalityReport:
    """For each abstract class, report whether some standard-constructed
    class is isomorphic to it: the one filed under the same orbit key,
    as equal keys mean isomorphic hypergroups (see _ambient). Unmatched
    classes are listed, not treated as errors."""
    matches = []
    for abstract_id, key in enumerate(catalog_abstract._classes):
        std_id = catalog_standard._classes.get(key, (None,))[0]
        matches.append({"abstract_class": abstract_id, "matched": std_id is not None,
                        "standard_class": std_id})
    return UniversalityReport(matches=matches)


def catalog_csv(catalog: Catalog) -> str:
    """The summary table as CSV text (one row per entry)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["class_id", "m_size", "h_order", "xi_is_group", "xi_commutative",
         "provenance"]
    )
    for entry in catalog.entries:
        hg = entry.hypergroup
        writer.writerow(
            [
                entry.class_id,
                hg.m_size,
                hg.h.order,
                str(entry.xi_is_group).lower(),
                str(entry.xi_commutative).lower(),
                entry.provenance,
            ]
        )
    return buf.getvalue()


def export_catalog(catalog: Catalog, directory) -> list[str]:
    """Write class representative JSON files and entries.csv; returns the
    file names written, for logging."""
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    written = []
    for class_id, rep in enumerate(catalog.class_reps):
        fname = f"class_{class_id:04d}.json"
        (path / fname).write_text(canonical_dumps(_hypergroup_json(rep)))
        written.append(fname)
    (path / "entries.csv").write_text(catalog_csv(catalog))
    written.append("entries.csv")
    return written
