"""Enumeration and isomorphism classification of small hypergroups.

Both sources of the catalog run the standard construction over builtin
groups, subgroups and transversals: sweep_standard files each
construction as it is, enumerate_abstract relabels those of order
|M|*|H| onto a given H, which by the converse of the construction gives
every hypergroup over H at tiny sizes. Each entry is filed under the
orbit key of its construction's (G, H, T) under the automorphisms.
Equal keys mean isomorphic hypergroups, so no entry is deduplicated by
search, and every entry carries a certificate onto its class
representative, searched on first read, so "same class" claims stay
machine-checkable.
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
    hypergroup_from_tables,
    is_group_quasigroup,
    standard_constructions,
    verify_axioms_batch,
)
from .errors import InternalInconsistencyError, SizeLimitExceededError
from .groups import (FiniteGroup, Subgroup, automorphisms, builtin_groups,
                     element_orders, enumerate_subgroups, group_isomorphism,
                     group_isomorphisms)
from .morphisms import HgMorphism, find_isomorphism
from .transversals import DEFAULT_SAMPLE_CAP, enumerate_transversals, sample_transversals

MAX_SWEEP_ORDER = 24
MAX_ABSTRACT_M = 3
MAX_ABSTRACT_H = 3


@dataclass
class CatalogEntry:
    """One catalogued hypergroup, where it came from (a standard or an
    abstract provenance) and its class. An entry other than the
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
    hypergroups share exactly when they are isomorphic: the orbit key of
    the (G, H, T) each entry was constructed from (sweep_standard; the
    entries of enumerate_abstract are relabelled constructions). insert
    searches nothing: the first entry of a key represents its class, and
    the others find their certificates when iso_to_rep is first read.
    Each class's key is kept, in class-id order, for universality_probe.
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
    The transversals of each (G, H) are built, checked and keyed as one
    batch (_keyed_constructions), then inserted in order by orbit key
    (Catalog.insert), so the sweep runs no isomorphism search.

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
            for t, hg, key in _keyed_constructions(group, h, ts, base, maps):
                provenance = "standard:%s:H=%s:M=%s" % (
                    group.name,
                    ",".join(map(str, h.elements)),
                    ",".join(map(str, t.reps)),
                )
                catalog.insert(hg, provenance, key)
    return catalog


def _keyed_constructions(group: FiniteGroup, h: Subgroup, ts, base: str, maps: np.ndarray):
    """Yield (t, hg, key) for each transversal t in ts of the subgroup h
    of group, in order: hg its standard construction, built by one
    standard_constructions call and checked by one verify_axioms_batch
    call, and key its orbit key (sweep_standard) with group's canonical
    base and maps. A construction that fails an axiom raises
    InternalInconsistencyError."""
    hgs = standard_constructions(group, h, ts)
    keys = _orbit_keys(maps, h.elements, np.array([t.reps for t in ts], dtype=np.intp))
    for t, hg, report, key in zip(ts, hgs, verify_axioms_batch(hgs), keys):
        if not report.overall:
            raise InternalInconsistencyError(
                f"standard construction failed axioms "
                f"{report.failing()} for G={group.name}, "
                f"H={list(h.elements)}, M={list(t.reps)}"
            )
        yield t, hg, (base, *key)


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


def enumerate_abstract(m_size: int, h: FiniteGroup) -> Catalog:
    """All hypergroups with |M| = m_size over H, up to isomorphism, as
    the standard constructions relabelled onto H's labels.

    o is fixed at 0: every hypergroup is isomorphic to one with o = 0
    (transport the structure along the transposition swapping 0 and o),
    so the restriction loses no classes. Every group of order
    m_size*|H| <= 9 is a builtin, so by the converse below every
    hypergroup over H with o = 0 has the tables of a construction of
    (G, H', T'), with G a builtin of that order, H' a subgroup
    isomorphic to H and T' a right transversal, carried along some
    (f0, f1): T'[f1 a][f0 al] = f(T[a][al]), with f0 an isomorphism
    H' -> H (group_isomorphisms) and f1 a bijection of M fixing 0.
    Conversely an isomorphism carries the axioms, so each such table is
    a hypergroup. The entries are these tables, repeats dropped, in the
    order of _search_order, each inserted under its construction's orbit
    key. Each entry is isomorphic to its construction, and constructions
    share a key exactly when they are isomorphic (sweep_standard), so
    entries do too: no isomorphism is searched, the first entry of a key
    represents its class, and the others find their certificates when
    iso_to_rep is first read.

    The converse of the standard construction. hg's tables define a
    group A on H x M (the paper's converse; associative by verify_axioms'
    A4 and A5 argument), with (al, a)(be, b) =
    (al*psi(a, be)*lam(a^be, b), xi(a^be, b)) for a^be = phi(a, be), and
    in it H_A = {(al, o)} and T_A = {(eps, a)}. hg is isomorphic to the
    standard construction S of (A, H_A, T_A). Take the notation (1)-(4)
    of verify_axioms' A4 and A5 argument. A's identity is e = (th, o)
    for some th: the M-part of e(eps, b) = (eps, b) says that e's M-part
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
    each holding one (eps, a), so T_A is a right transversal; the other
    two, that f0 = j and f1(a) = (eps, a), read in S's labels (H_A's
    index and the right coset order), take hg's tables to S's. An
    isomorphism F from A onto the builtin G of its order takes H_A to a
    subgroup H' and T_A to a right transversal T' of it, so by
    sweep_standard's proof S is isomorphic to the construction of
    (G, H', T'). Composed, the isomorphism onto hg has f1(0) = 0, as P1
    makes o the only left neutral of xi.
    """
    if not 1 <= m_size <= MAX_ABSTRACT_M:
        raise SizeLimitExceededError(
            f"abstract enumeration needs |M| in 1..{MAX_ABSTRACT_M}, not {m_size}"
        )
    if h.order > MAX_ABSTRACT_H:
        raise SizeLimitExceededError(
            f"abstract enumeration capped at |H| <= {MAX_ABSTRACT_H}"
        )
    order = m_size * h.order
    builtins = builtin_groups(order)
    canonical = _canonical_bases(builtins)
    gamma = element_orders(h).index(h.order)  # every H of order <= 3 is cyclic
    f1s = [np.array((0, *p)) for p in itertools.permutations(range(1, m_size))]
    found: dict[tuple, tuple] = {}
    for group in builtins:
        if group.order != order:
            continue
        base, maps = canonical(group)
        for sub in enumerate_subgroups(group):
            f0s = [np.array(f0) for f0 in group_isomorphisms(sub.as_group(), h)]
            if not f0s:
                continue
            ts = enumerate_transversals(group, sub)
            for _, hg, key in _keyed_constructions(group, sub, ts, base, maps):
                for f0, f1 in itertools.product(f0s, f1s):
                    tables = _relabel(hg, f0, f1)
                    found.setdefault(_search_order(tables, gamma), (tables, key))
    catalog = Catalog()
    for i, order_key in enumerate(sorted(found)):
        tables, key = found[order_key]
        catalog.insert(hypergroup_from_tables(m_size, h, *tables, 0),
                       f"abstract:m{m_size}:H={h.name}:#{i}", key)
    return catalog


def _relabel(hg: HypergroupOverGroup, f0: np.ndarray, f1: np.ndarray) -> tuple:
    """hg's phi, psi, xi and lam carried along f0 on H and f1 on M:
    T'[f1 a][f0 al] = f(T[a][al]), with f the map of T's values."""
    g0, g1 = np.argsort(f0), np.argsort(f1)  # the inverse maps
    by_h, by_m = np.ix_(g1, g0), np.ix_(g1, g1)
    return f1[hg.phi[by_h]], f0[hg.psi[by_h]], f1[hg.xi[by_m]], f0[hg.lam[by_m]]


def _search_order(tables: tuple, gamma: int) -> tuple[int, ...]:
    """The sort key of (phi, psi, xi, lam): xi by columns, phi by
    columns, psi's column at the generator gamma of H, lam by rows, the
    order in which a search choosing xi's columns, then phi's images of
    H's elements, then psi at gamma (which fixes psi by A1), then lam's
    cells by row in ascending values finds them, which numbers the
    entries. psi whole comes last, so that the key names the tables."""
    phi, psi, xi, lam = tables
    return tuple(np.concatenate((xi.T.ravel(), phi.T.ravel(), psi[:, gamma],
                                 lam.ravel(), psi.ravel())).tolist())


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
    as equal keys mean isomorphic hypergroups (see sweep_standard and
    enumerate_abstract). Unmatched classes are listed, not treated as
    errors."""
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
