"""Morphisms of hypergroups over groups.

A morphism (f0, f1) consists of a group homomorphism f0 on the H
component and a map f1 on M making four squares commute:

    f1(phi(a, al)) = phi'(f1 a, f0 al)
    f0(psi(a, al)) = psi'(f1 a, f0 al)
    f1(xi(a, b))   = xi'(f1 a, f1 b)
    f0(lam(a, b))  = lam'(f1 a, f1 b)

Composition is componentwise; compose(g, f) applies g first, matching
the package-wide "left factor first" convention.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import HypergroupOverGroup
from .errors import (
    InternalInconsistencyError,
    NotComposableError,
    ShapeMismatchError,
    SizeLimitExceededError,
)
from .groups import group_isomorphisms

DEFAULT_ISO_SIZE_BOUND = 24


@dataclass
class HgMorphism:
    source: HypergroupOverGroup
    target: HypergroupOverGroup
    f0: list[int]
    f1: list[int]

    def to_json(self) -> dict:
        return {"f0": self.f0, "f1": self.f1}


def identity_morphism(hg: HypergroupOverGroup) -> HgMorphism:
    return HgMorphism(
        source=hg,
        target=hg,
        f0=list(range(hg.h.order)),
        f1=list(range(hg.m_size)),
    )


def compose(g: HgMorphism, f: HgMorphism) -> HgMorphism:
    """g followed by f; requires g.target = f.source."""
    if g.target is not f.source and g.target != f.source:
        raise NotComposableError("g.target and f.source differ")
    return HgMorphism(
        source=g.source,
        target=f.target,
        f0=[f.f0[v] for v in g.f0],
        f1=[f.f1[v] for v in g.f1],
    )


@dataclass
class MorphismReport:
    ok: bool
    failed: str = ""
    witness: tuple | None = None

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "failed": self.failed or None,
            "witness": list(self.witness) if self.witness else None,
        }


def verify_morphism(m: HgMorphism) -> MorphismReport:
    """Check the f0 homomorphism property and all four squares pointwise;
    reports the first failure with its witness."""
    src, dst = m.source, m.target
    if len(m.f0) != src.h.order or len(m.f1) != src.m_size:
        raise ShapeMismatchError(
            f"f0/f1 lengths ({len(m.f0)}, {len(m.f1)}) do not match the "
            f"source sizes ({src.h.order}, {src.m_size})"
        )
    if any(not 0 <= v < dst.h.order for v in m.f0):
        raise ShapeMismatchError("f0 value outside the target H")
    if any(not 0 <= v < dst.m_size for v in m.f1):
        raise ShapeMismatchError("f1 value outside the target M")
    return _first_failed_square(m.f0, m.f1, _table_lists(src), _table_lists(dst))


def _table_lists(hg: HypergroupOverGroup) -> list[list[list[int]]]:
    """The H table, phi, psi, xi and lam as lists, for Python loops."""
    return [t.tolist() for t in (hg.h.table, hg.phi, hg.psi, hg.xi, hg.lam)]


def _first_failed_square(f0, f1, tables1, tables2) -> MorphismReport:
    """The scan of verify_morphism, on _table_lists of source and target."""
    ht, phi1, psi1, xi1, lam1 = tables1
    ht2, phi2, psi2, xi2, lam2 = tables2
    hn, m = len(ht), len(phi1)
    for al in range(hn):
        for be in range(hn):
            if f0[ht[al][be]] != ht2[f0[al]][f0[be]]:
                return MorphismReport(False, "f0_homomorphism", (al, be))
    for a in range(m):
        fa = f1[a]
        for al in range(hn):
            if f1[phi1[a][al]] != phi2[fa][f0[al]]:
                return MorphismReport(False, "phi_square", (a, al))
            if f0[psi1[a][al]] != psi2[fa][f0[al]]:
                return MorphismReport(False, "psi_square", (a, al))
    for a in range(m):
        fa = f1[a]
        for b in range(m):
            if f1[xi1[a][b]] != xi2[fa][f1[b]]:
                return MorphismReport(False, "xi_square", (a, b))
            if f0[lam1[a][b]] != lam2[fa][f1[b]]:
                return MorphismReport(False, "lam_square", (a, b))
    return MorphismReport(True)


def _xi_column_cycle_type(column: list[int]) -> tuple[int, ...]:
    """Cycle type of x -> column[x], with column = xi[.][a];
    relabeling-invariant when columns are permutations, and harmless
    (just a fingerprint) when not."""
    seen = [False] * len(column)
    lengths = []
    for start in range(len(column)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = column[x]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths))


def _element_keys(hg: HypergroupOverGroup) -> list[tuple]:
    """Per element a: the size of its phi-orbit, the cycle type of its
    xi column, and whether it is o."""
    columns = hg.xi.T.tolist()
    return [
        (len(set(row)), _xi_column_cycle_type(columns[a]), a == hg.o)
        for a, row in enumerate(hg.phi.tolist())
    ]


def find_isomorphism(
    hg: HypergroupOverGroup,
    hg2: HypergroupOverGroup,
    size_bound: int = DEFAULT_ISO_SIZE_BOUND,
) -> HgMorphism | None:
    """First isomorphism (f0, f1) in search order, or None.

    Iterates group isomorphisms f0: H -> H' lexicographically; for each,
    backtracks over f1 with f1(o) = o' forced, pruning candidates by
    phi-orbit size and xi-column cycle type and propagating the forced
    images f1(phi[a][al]) and f1(xi[a][b]). The catalogs classify by
    orbit keys, without it; it makes their certificates (iso_to_rep) and
    answers `hg iso`.
    """
    if hg.m_size != hg2.m_size or hg.h.order != hg2.h.order:
        return None
    if hg.m_size > size_bound:
        raise SizeLimitExceededError(
            f"isomorphism search capped at |M| <= {size_bound}"
        )
    m = hg.m_size
    hn = hg.h.order
    keys1, keys2 = _element_keys(hg), _element_keys(hg2)
    if sorted(keys1) != sorted(keys2):
        return None
    candidates = [
        [b for b in range(m) if keys2[b] == keys1[a]] for a in range(m)
    ]
    tables1, tables2 = _table_lists(hg), _table_lists(hg2)
    _, phi1, psi1, xi1, lam1 = tables1
    _, phi2, psi2, xi2, lam2 = tables2

    for f0 in group_isomorphisms(hg.h, hg2.h):
        f1 = [-1] * m
        used = [False] * m

        def assign(a, b, trail):
            if f1[a] >= 0:
                return f1[a] == b
            if used[b]:
                return False
            f1[a] = b
            used[b] = True
            trail.append(a)
            queue = [a]
            while queue:
                x = queue.pop()
                fx = f1[x]
                for al in range(hn):
                    if f0[psi1[x][al]] != psi2[fx][f0[al]]:
                        return False
                    y, fy = phi1[x][al], phi2[fx][f0[al]]
                    if f1[y] < 0:
                        if used[fy]:
                            return False
                        f1[y] = fy
                        used[fy] = True
                        trail.append(y)
                        queue.append(y)
                    elif f1[y] != fy:
                        return False
                for z in range(m):
                    fz = f1[z]
                    if fz < 0:
                        continue
                    for u, v, fu, fv in (
                        (x, z, fx, fz), (z, x, fz, fx)
                    ):
                        if f0[lam1[u][v]] != lam2[fu][fv]:
                            return False
                        y, fy = xi1[u][v], xi2[fu][fv]
                        if f1[y] < 0:
                            if used[fy]:
                                return False
                            f1[y] = fy
                            used[fy] = True
                            trail.append(y)
                            queue.append(y)
                        elif f1[y] != fy:
                            return False
            return True

        def undo(trail):
            for a in trail:
                used[f1[a]] = False
                f1[a] = -1

        def search():
            a = -1
            for i in range(m):
                if f1[i] < 0:
                    a = i
                    break
            if a < 0:
                return list(f1)
            for b in candidates[a]:
                if used[b]:
                    continue
                trail: list[int] = []
                if assign(a, b, trail):
                    result = search()
                    if result is not None:
                        return result
                undo(trail)
            return None

        trail0: list[int] = []
        if not assign(hg.o, hg2.o, trail0):
            undo(trail0)
            continue
        result = search()
        if result is not None:
            report = _first_failed_square(f0, result, tables1, tables2)
            if not report.ok:
                raise InternalInconsistencyError(
                    f"isomorphism search returned a non-morphism "
                    f"({report.failed} at {report.witness})"
                )
            return HgMorphism(source=hg, target=hg2, f0=list(f0), f1=result)
        undo(trail0)
    return None


def invert_isomorphism(m: HgMorphism) -> HgMorphism:
    """Inverse of a bijective morphism; raises if not bijective."""
    inv0 = [-1] * len(m.f0)
    for i, v in enumerate(m.f0):
        if inv0[v] >= 0:
            raise ShapeMismatchError("f0 is not injective")
        inv0[v] = i
    inv1 = [-1] * len(m.f1)
    for i, v in enumerate(m.f1):
        if inv1[v] >= 0:
            raise ShapeMismatchError("f1 is not injective")
        inv1[v] = i
    if (
        m.target.h.order != len(m.f0)
        or m.target.m_size != len(m.f1)
        or -1 in inv0
        or -1 in inv1
    ):
        raise ShapeMismatchError("morphism is not bijective")
    return HgMorphism(source=m.target, target=m.source, f0=inv0, f1=inv1)
