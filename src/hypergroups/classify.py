"""Enumeration and isomorphism classification of small hypergroups.

Two sources feed the same catalog type: sweep_standard runs the
standard construction over builtin groups, subgroups and transversals;
enumerate_abstract searches the defining axioms directly over tables
at tiny sizes. Entries are deduplicated by isomorphism, the sweep's by
an orbit key of the ambient group's automorphisms and the abstract
ones by search, and every entry carries a certificate onto its class
representative, so "same class" claims stay machine-checkable.
"""

from __future__ import annotations

import csv
import io
import itertools
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._util import BLOCK_CELLS, canonical_dumps
from .core import (
    HypergroupOverGroup,
    hypergroup_from_tables,
    hypergroup_to_json,
    is_group_quasigroup,
    standard_constructions,
    verify_axioms,
    verify_axioms_batch,
)
from .errors import InternalInconsistencyError, SizeLimitExceededError
from .groups import (FiniteGroup, Subgroup, automorphisms, builtin_groups, element_orders,
                     enumerate_subgroups, group_isomorphism, group_isomorphisms)
from .morphisms import HgMorphism, _element_keys, find_isomorphism
from .transversals import DEFAULT_SAMPLE_CAP, sample_transversals

MAX_SWEEP_ORDER = 24
MAX_ABSTRACT_M = 3
MAX_ABSTRACT_H = 3


@dataclass
class CatalogEntry:
    """One catalogued hypergroup and its class. An entry made with _rep,
    the representative of its class, finds iso_to_rep on first read."""

    hypergroup: HypergroupOverGroup
    provenance: str
    class_id: int
    _iso: HgMorphism | None  # iso_to_rep, once known
    xi_is_group: bool
    xi_commutative: bool
    _rep: HypergroupOverGroup | None = field(default=None, repr=False, compare=False)

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


class _Isomorphisms:
    """The isomorphisms group_isomorphisms(h1, h2) yields, in its order,
    listed only as far as iteration has reached, so that every search
    between the same two H tables shares one backtracking run. An
    exception from the run propagates and drops it, so it is never taken
    for the end of the list: the next iteration starts a new run and
    skips the isomorphisms already listed."""

    def __init__(self, h1: FiniteGroup, h2: FiniteGroup):
        self._groups = (h1, h2)
        self._found: list[list[int]] = []
        self._run = None   # the run that yields the rest, once started
        self._done = False

    def __iter__(self) -> Iterator[list[int]]:
        found = self._found
        i = 0
        while True:
            if i == len(found):
                if self._done:
                    return
                if self._run is None:
                    self._run = itertools.islice(group_isomorphisms(*self._groups), i, None)
                try:
                    found.append(next(self._run))
                except StopIteration:
                    self._done = True
                    return
                except BaseException:
                    self._run = None
                    raise
            yield found[i]
            i += 1


@dataclass
class Catalog:
    """Entries deduplicated by isomorphism, by one of two paths; a
    catalog takes all its entries by one of them.

    insert searches: find_isomorphism runs only against the class
    representatives sharing the entry's _invariant_key, in class-id
    order, so a finer key only removes calls that would miss. The
    _element_keys of the entry and of each representative are computed
    once and handed to the search, and so are the isomorphisms between
    the entry's H and the representative's, listed lazily once per pair
    of H tables (an _Isomorphisms).

    insert_keyed takes the class from a complete isomorphism invariant
    (sweep_standard's orbit keys) and searches nothing: the first entry
    of a key represents its class, and the others find their
    certificates when iso_to_rep is first read.
    """

    entries: list[CatalogEntry] = field(default_factory=list)
    class_reps: list[HypergroupOverGroup] = field(default_factory=list)
    _buckets: dict = field(default_factory=dict, repr=False)
    _rep_keys: list = field(default_factory=list, repr=False)  # _element_keys
    _h_ids: dict = field(default_factory=dict, repr=False)  # (H table, identity) -> id
    _rep_h: list = field(default_factory=list, repr=False)  # H id of each rep
    _h_isos: dict = field(default_factory=dict, repr=False)  # (H id, H id) -> _Isomorphisms
    _keyed: dict = field(default_factory=dict, repr=False)  # key -> (class id, flags)

    def insert(self, hg: HypergroupOverGroup, provenance: str) -> CatalogEntry:
        keys = _element_keys(hg)
        key = _invariant_key(hg, keys)
        bucket = self._buckets.setdefault(key, [])
        flags = key[3], key[4]  # xi is a group, xi is commutative
        h_id = self._h_ids.setdefault((hg.h.table, hg.h.identity), len(self._h_ids))
        for class_id in bucket:
            rep = self.class_reps[class_id]
            pair = (h_id, self._rep_h[class_id])
            f0s = self._h_isos.get(pair)
            if f0s is None:
                f0s = self._h_isos[pair] = _Isomorphisms(hg.h, rep.h)
            iso = find_isomorphism(hg, rep, keys1=keys,
                                   keys2=self._rep_keys[class_id], f0s=f0s)
            if iso is not None:
                entry = CatalogEntry(hg, provenance, class_id, iso, *flags)
                self.entries.append(entry)
                return entry
        class_id = len(self.class_reps)
        self.class_reps.append(hg)
        self._rep_keys.append(keys)
        self._rep_h.append(h_id)
        bucket.append(class_id)
        entry = CatalogEntry(hg, provenance, class_id, None, *flags)
        self.entries.append(entry)
        return entry

    def insert_keyed(self, hg: HypergroupOverGroup, provenance: str, key) -> CatalogEntry:
        """Insert hg into the class of key, a value that two hypergroups
        share exactly when they are isomorphic. xi_is_group and
        xi_commutative are isomorphism invariants, computed once per
        class."""
        known = self._keyed.get(key)
        if known is None:
            known = self._keyed[key] = (len(self.class_reps), _xi_flags(hg))
            self.class_reps.append(hg)
            rep = None
        else:
            rep = self.class_reps[known[0]]
        entry = CatalogEntry(hg, provenance, known[0], None, *known[1], rep)
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


def _invariant_key(hg: HypergroupOverGroup, keys: list[tuple]) -> tuple:
    """Isomorphism-invariant bucket key for dedup.

    Sizes, H's element orders, whether xi is a group and commutative,
    the sorted _element_keys, whether psi and lam are trivial, and the
    sorted colours of M after at most three rounds of colour refinement
    (stopping once no colour class splits). Refinement starts from the
    hashed _element_keys of hg, given as keys, with H coloured by element
    order, and recolours a by its xi/lam row, xi/lam column and
    (phi, psi) action.
    Only what an isomorphism carries along enters, so isomorphic
    hypergroups get equal keys; components are only added, so a coarser
    key's bucket can only split.
    """
    mr, hr = range(hg.m_size), range(hg.h.order)
    xi, lam, phi, psi = (t.tolist() for t in (hg.xi, hg.lam, hg.phi, hg.psi))
    hc = element_orders(hg.h)
    c = [hash(k) for k in keys]
    n_colours = len(set(c))
    for _ in range(3):
        c = [hash((
            c[a],
            tuple(sorted((c[xi[a][b]], c[b], hc[lam[a][b]]) for b in mr)),
            tuple(sorted((c[xi[b][a]], c[b], hc[lam[b][a]]) for b in mr)),
            tuple(sorted((c[phi[a][al]], hc[al], hc[psi[a][al]]) for al in hr)),
        )) for a in mr]
        if len(set(c)) == n_colours:
            break
        n_colours = len(set(c))
    return (
        hg.m_size,
        hg.h.order,
        tuple(sorted(hc)),
        *_xi_flags(hg),
        tuple(sorted(keys)),
        bool((hg.psi == np.arange(hg.h.order)).all()),
        bool((hg.lam == hg.h.identity).all()),
        tuple(sorted(c)),
    )


def sweep_standard(
    max_group_order: int,
    transversal_cap: int = DEFAULT_SAMPLE_CAP,
    seed: int = 0,
) -> Catalog:
    """Construct and classify every (builtin G, subgroup, transversal)
    triple up to the order bound, sampling transversals past the cap.
    The transversals of each (G, H) are built by one
    standard_constructions call and checked by one verify_axioms_batch
    call, then inserted in order by orbit key (Catalog.insert_keyed), so
    the sweep runs no isomorphism search.

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
    first entry found isomorphic to none before it did with the search,
    so class ids, representatives and exports are unchanged.
    """
    if max_group_order > MAX_SWEEP_ORDER:
        raise SizeLimitExceededError(
            f"standard sweep capped at order {MAX_SWEEP_ORDER}"
        )
    catalog = Catalog()
    bases: dict[int, list] = {}
    for group in builtin_groups(max_group_order):
        base, maps = _canonical_isomorphisms(group, bases)
        for h in enumerate_subgroups(group):
            ts = sample_transversals(group, h, cap=transversal_cap, seed=seed)
            hgs = standard_constructions(group, h, ts)
            keys = _orbit_keys(maps, h, ts)
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
                catalog.insert_keyed(hg, provenance, (base, *key))
    return catalog


# _BIT[x] = 1 << x: a subset of a group of order <= MAX_SWEEP_ORDER as a
# uint32 bitmask
_BIT = 1 << np.arange(MAX_SWEEP_ORDER, dtype=np.uint32)


def _canonical_isomorphisms(group: FiniteGroup, bases: dict[int, list]) -> tuple[str, np.ndarray]:
    """The name of G0, the first of bases isomorphic to group, and every
    isomorphism group -> G0 as a row of a uint8 array. bases maps an
    order to its canonical groups so far, each with its automorphisms;
    group joins them when none is isomorphic to it."""
    known = bases.setdefault(group.order, [])
    for base, auts in known:
        to_base = group_isomorphism(group, base)
        if to_base is not None:
            return base.name, auts[:, to_base]
    auts = automorphisms(group)
    known.append((group, auts))
    return group.name, auts


def _orbit_keys(maps: np.ndarray, h: Subgroup, ts) -> list[tuple[int, int]]:
    """The (H, T) part of the orbit key (sweep_standard) of each
    transversal T of h: the least mask of F(H) over the rows F of maps,
    and the least mask of F(T) over the rows that reach it. Masks are
    ORed one element at a time, for as many T at a time as keep each
    temporary within BLOCK_CELLS cells."""
    h_masks = np.zeros(len(maps), dtype=np.uint32)
    for x in h.elements:
        h_masks |= _BIT[maps[:, x]]
    h_key = h_masks.min()
    stab = maps[h_masks == h_key]
    reps = np.array([t.reps for t in ts], dtype=np.intp)
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
    hn = h.order
    others = [al for al in range(hn) if al != h.identity]
    for assignment in itertools.product(perms, repeat=len(others)):
        sigma = {h.identity: idp}
        for al, p in zip(others, assignment):
            sigma[al] = p
        ok = all(
            tuple(sigma[be][sigma[al][x]] for x in range(m)) == sigma[h.table[al][be]]
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
    ht = h.table
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
    ht = h.table
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
    what enters the catalog.
    """
    if m_size > MAX_ABSTRACT_M or m_size < 1:
        raise SizeLimitExceededError(
            f"abstract enumeration capped at |M| <= {MAX_ABSTRACT_M}"
        )
    if h.order > MAX_ABSTRACT_H:
        raise SizeLimitExceededError(
            f"abstract enumeration capped at |H| <= {MAX_ABSTRACT_H}"
        )
    catalog = Catalog()
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
                    catalog.insert(hg, provenance)
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
    class is isomorphic to it. Unmatched classes are listed, not treated
    as errors."""
    matches = []
    for abstract_id, rep in enumerate(catalog_abstract.class_reps):
        found = None
        for std_id, std_rep in enumerate(catalog_standard.class_reps):
            if (
                std_rep.m_size == rep.m_size
                and std_rep.h.order == rep.h.order
                and find_isomorphism(rep, std_rep) is not None
            ):
                found = std_id
                break
        matches.append(
            {
                "abstract_class": abstract_id,
                "matched": found is not None,
                "standard_class": found,
            }
        )
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
        (path / fname).write_text(canonical_dumps(hypergroup_to_json(rep)))
        written.append(fname)
    (path / "entries.csv").write_text(catalog_csv(catalog))
    written.append("entries.csv")
    return written
