"""Plain nested-loop oracles for the vectorized table checks.

Each function here is the straightforward scan the library's numpy code
must agree with: same check order, same first witness in scan order.
They are slow (q^3 Python steps) and only tests import them. The rest
are other routes to library answers kept as references: the group test
on xi; the abstract catalog by a search over the axioms, its xi, phi,
psi and lambda candidates (the lambda search without pruning), each
entry keyed through its ambient group, the product the tables define
on H x M; the direct product's table, the normal case checked one
transversal at a time and the subgroup BFS over frozensets, all earlier
versions of library code; Aut(G) by the isomorphism search; and two
characterizations of a right transversal. RowlessArray, last, is an
input for the table readers.
"""

from __future__ import annotations

import functools
from itertools import permutations, product

import numpy as np

from hypergroups import (AlgebraError, FiniteField, InternalInconsistencyError,
                         NoIdentityError, NoInverseError, NotAssociativeError,
                         NotClosedError, SizeLimitExceededError, builtin_groups,
                         group_from_cayley_table, make_field)
from hypergroups import classify, core
from hypergroups._util import CheckResult, Report, first_mismatch, int_table
from hypergroups.groups import (Subgroup, element_orders, first_nonassociative,
                                group_isomorphism, group_isomorphisms, quotient_group,
                                right_cosets)
from hypergroups.transversals import sample_transversals


def check_field_tables(add, mul, zero, one):
    """(ok, failing check, witness) of the field axioms, by loops, on
    tables given as rows or as arrays."""
    add, mul = (t.tolist() if isinstance(t, np.ndarray) else t for t in (add, mul))
    n = len(add)
    rng = range(n)
    if zero == one:
        return False, "zero_equals_one", (zero,)
    for a in rng:
        if add[a][zero] != a or add[zero][a] != a:
            return False, "add_neutral", (a,)
    for a in rng:
        if all(add[a][b] != zero for b in rng):
            return False, "add_inverse", (a,)
    for a in rng:
        for b in rng:
            if add[a][b] != add[b][a]:
                return False, "add_commutative", (a, b)
            for c in rng:
                if add[add[a][b]][c] != add[a][add[b][c]]:
                    return False, "add_associative", (a, b, c)
    for a in rng:
        if mul[a][one] != a or mul[one][a] != a:
            return False, "mul_neutral", (a,)
        if mul[a][zero] != zero or mul[zero][a] != zero:
            return False, "mul_zero", (a,)
    for a in rng:
        for b in rng:
            if mul[a][b] != mul[b][a]:
                return False, "mul_commutative", (a, b)
            for c in rng:
                if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                    return False, "left_distributive", (a, b, c)
                if mul[add[a][b]][c] != add[mul[a][c]][mul[b][c]]:
                    return False, "right_distributive", (a, b, c)
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    return False, "mul_associative", (a, b, c)
    for a in rng:
        if a == zero:
            continue
        if all(mul[a][b] != one for b in rng):
            return False, "mul_inverse", (a,)
    return True, "ok", None


def _digits(n, p, width):
    out = []
    for _ in range(width):
        n, r = divmod(n, p)
        out.append(r)
    return out


def _undigits(coeffs, p):
    n = 0
    for c in reversed(coeffs):
        n = n * p + c
    return n


def _poly_mulmod(a, b, modulus, p):
    """(a*b) mod the monic modulus over GF(p), by schoolbook product and
    top-down reduction."""
    m = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    for d in range(len(prod) - 1, m - 1, -1):
        c = prod[d]
        prod[d] = 0
        for j in range(m):
            prod[d - m + j] = (prod[d - m + j] - c * modulus[j]) % p
    return prod[:m]


def extension_tables(p, modulus):
    """(add, mul) of GF(p)[x]/(modulus) in the digit encoding."""
    m = len(modulus) - 1
    polys = [_digits(i, p, m) for i in range(p ** m)]
    add = [
        [_undigits([(a + b) % p for a, b in zip(pa, pb)], p) for pb in polys]
        for pa in polys
    ]
    mul = [
        [_undigits(_poly_mulmod(pa, pb, modulus, p), p) for pb in polys]
        for pa in polys
    ]
    return add, mul


def associativity_witness(table):
    """The first (a, b, c) with (a*b)*c != a*(b*c), or None."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return (a, b, c)
    return None


def cayley_failure(table):
    """(failed, witness, identity) for a table with entries in range,
    checked as the library does: identity, associativity, inverses. The
    witness is the failing error's `witness`, None for a missing
    identity."""
    n = len(table)
    identity = next(
        (e for e in range(n)
         if all(table[e][x] == x and table[x][e] == x for x in range(n))),
        None,
    )
    if identity is None:
        return True, None, None
    triple = associativity_witness(table)
    if triple is not None:
        return True, triple, identity
    for x in range(n):
        if not any(table[x][y] == identity and table[y][x] == identity
                   for y in range(n)):
            return True, x, identity
    return False, None, identity


def cayley_error(table):
    """The error group_from_cayley_table raises on a non-empty table, by
    loops, or None for a group: closure row by row (a row's length
    before its values), then what cayley_failure finds."""
    n = len(table)
    for i, row in enumerate(table):
        if len(row) != n:
            return NotClosedError(i, len(row), -1, n)
        for j, v in enumerate(row):
            if not 0 <= v < n:
                return NotClosedError(i, j, v, n)
    failed, witness, identity = cayley_failure(table)
    if not failed:
        return None
    if identity is None:
        return NoIdentityError("no two-sided neutral element")
    if isinstance(witness, tuple):
        return NotAssociativeError(witness)
    return NoInverseError(witness)


def field_isomorphism(f1, f2):
    """The first multiplicative-generator map f1 -> f2 that is additive."""
    if f1.q != f2.q:
        return None
    add1, mul1, add2, mul2 = (t.tolist() for t in (f1.add, f1.mul, f2.add, f2.mul))

    def mult_order(f, mul, a):
        k, y = 1, a
        while y != f.one:
            y = mul[y][a]
            k += 1
        return k

    g1 = next((a for a in range(1, f1.q) if mult_order(f1, mul1, a) == f1.q - 1), None)
    if g1 is None:
        return None
    for cand in range(1, f2.q):
        if mult_order(f2, mul2, cand) != f2.q - 1:
            continue
        mapping = [f2.zero] * f1.q
        mapping[f1.one] = f2.one
        x, image = f1.one, f2.one
        for _ in range(f1.q - 2):
            x = mul1[x][g1]
            image = mul2[image][cand]
            mapping[x] = image
        if all(mapping[add1[a][b]] == add2[mapping[a]][mapping[b]]
               for a in range(f1.q) for b in range(f1.q)):
            return mapping
    return None


def reconstruct_field(hg):
    """What reconstruct_field reports, by loops: a dict with status and
    witness, plus the candidate tables, unit witness and isomorphism
    once they exist."""
    m = hg.m_size
    hn = hg.h.order
    ht = hg.h.table.tolist()
    eps = hg.h.identity
    phi, psi, xi, lam = (t.tolist() for t in (hg.phi, hg.psi, hg.xi, hg.lam))
    for a in range(m):
        for al in range(hn):
            if psi[a][al] != al:
                return {"status": "PsiNotTrivial", "witness": (a, al)}
    for a in range(m):
        for b in range(m):
            if lam[a][b] != eps:
                return {"status": "LamNotTrivial", "witness": (a, b)}
    failed, witness, identity = cayley_failure(xi)
    if failed:
        return {"status": "XiNotAbelianGroup", "witness": witness}
    for a in range(m):
        for b in range(a + 1, m):
            if xi[a][b] != xi[b][a]:
                return {"status": "XiNotAbelianGroup", "witness": (a, b)}
    if identity != hg.o:
        return {"status": "XiNotAbelianGroup", "witness": (identity,)}
    for al in range(hn):
        for be in range(al + 1, hn):
            if ht[al][be] != ht[be][al]:
                return {"status": "HNotAbelian", "witness": (al, be)}
    for al in range(hn):
        for a in range(m):
            for b in range(m):
                if (phi[xi[a][b]][al]
                        != xi[phi[a][al]][phi[b][al]]):
                    return {"status": "PhiNotEndomorphism", "witness": (al, a, b)}
    t = [[phi[a][al] for a in range(m)] for al in range(hn)]
    for al in range(hn):
        for be in range(al + 1, hn):
            if t[al] == t[be]:
                return {"status": "TNotInjective", "witness": (al, be)}
    zeta = [hg.o] * m
    if zeta in t:
        return {"status": "NotAField", "witness": (t.index(zeta),)}
    k_endos = [zeta] + t
    index_of = {tuple(e): i for i, e in enumerate(k_endos)}
    nk = len(k_endos)
    add = [[0] * nk for _ in range(nk)]
    for i in range(nk):
        for j in range(nk):
            s = tuple(xi[k_endos[i][a]][k_endos[j][a]] for a in range(m))
            if s not in index_of:
                return {"status": "NotAdditivelyClosed", "witness": (i, j),
                        "sum": list(s), "k_endomorphisms": k_endos}
            add[i][j] = index_of[s]
    mul = [[0] * nk for _ in range(nk)]
    for i in range(1, nk):
        for j in range(1, nk):
            mul[i][j] = 1 + ht[i - 1][j - 1]
    tables = {"k_endomorphisms": k_endos, "add_table": add, "mul_table": mul}
    one = 1 + eps
    ok, _, witness = check_field_tables(add, mul, 0, one)
    if not ok:
        return {"status": "NotAField", "witness": witness, **tables}
    try:
        canonical = make_field(nk)
    except AlgebraError:
        return {"status": "NotAField", "witness": (nk,), **tables}
    candidate = FiniteField(
        p=canonical.p, m=canonical.m, modulus=canonical.modulus, q=nk,
        add=add, mul=mul, zero=0, one=one, name=f"k({nk})",
    )
    unit_witness = next(
        (a for a in range(m) if len({e[a] for e in k_endos}) == nk == m), None
    )
    return {"status": "ok", "witness": None, **tables,
            "iso_to_canonical": field_isomorphism(candidate, canonical),
            "unit_witness": unit_witness}


def _relations(hg):
    """{name: (loop nest, holds)} of A0-A5, on the tables as rows."""
    m, hn = hg.m_size, hg.h.order
    phi, psi, xi, lam = (t.tolist() for t in (hg.phi, hg.psi, hg.xi, hg.lam))
    ht = hg.h.table.tolist()
    M, H = range(m), range(hn)
    return {
        "A0": ((M, H, H),
               lambda a, al, be: phi[phi[a][al]][be] == phi[a][ht[al][be]]),
        "A1": ((M, H, H),
               lambda a, al, be:
                   psi[a][ht[al][be]] == ht[psi[a][al]][psi[phi[a][al]][be]]),
        "A2": ((M, M, H),
               lambda a, b, al:
                   phi[xi[a][b]][al] == xi[phi[a][psi[b][al]]][phi[b][al]]),
        "A3": ((M, M, H),
               lambda a, b, al: ht[lam[a][b]][psi[xi[a][b]][al]]
               == ht[psi[a][psi[b][al]]][lam[phi[a][psi[b][al]]][phi[b][al]]]),
        "A4": ((M, M, M),
               lambda a, b, c: xi[xi[a][b]][c] == xi[phi[a][lam[b][c]]][xi[b][c]]),
        "A5": ((M, M, M),
               lambda a, b, c: ht[lam[a][b]][lam[xi[a][b]][c]]
               == ht[psi[a][lam[b][c]]][lam[phi[a][lam[b][c]]][xi[b][c]]]),
    }


def axiom_masks(hg):
    """{name: the mask of A0-A5 over its loop nest, True where the
    relation fails}, by loops."""
    return {name: np.array([not holds(*w) for w in product(*loops)], dtype=bool)
                    .reshape([len(r) for r in loops])
            for name, (loops, holds) in _relations(hg).items()}


def verify_axioms(hg):
    """{axiom: (ok, witness, detail)} of P1-P3 and A1-A5, by loops.

    P1 checks the left neutral row before the columns and P2 the unit
    action before A0; every other axiom is one loop nest whose first
    failing index tuple is the witness.
    """
    m, hn = hg.m_size, hg.h.order
    phi, psi, xi = (t.tolist() for t in (hg.phi, hg.psi, hg.xi))
    eps, o = hg.h.identity, hg.o
    M, H = range(m), range(hn)
    relations = _relations(hg)
    passed = (True, None, "")

    def first(name, detail):
        loops, holds = relations[name]
        for w in product(*loops):
            if not holds(*w):
                return False, w, detail(*w)
        return passed

    def p1():
        for a in M:
            if xi[o][a] != a:
                return False, (o, a), f"xi[{o}][{a}] = {xi[o][a]}, expected {a}"
        for a in M:
            seen = {}
            for x in M:
                v = xi[x][a]
                if v in seen:
                    return (False, (seen[v], x, a),
                            f"xi[{seen[v]}][{a}] = xi[{x}][{a}] = {v}")
                seen[v] = x
        return passed

    def p2():
        for a in M:
            if phi[a][eps] != a:
                return False, (a,), f"phi[{a}][{eps}] = {phi[a][eps]}, expected {a}"
        return first(
            "A0", lambda a, al, be: f"phi[phi[{a}][{al}]][{be}] != phi[{a}][{al}*{be}]")

    def p3():
        for b in H:
            if b not in psi[o]:
                return False, (b,), f"{b} not in the image of psi[{o}]"
        return passed

    def fails_at(axiom, names):
        return first(axiom, lambda *w: f"{axiom} fails at ({names}) = {w}")

    return {
        "P1": p1(),
        "P2": p2(),
        "P3": p3(),
        "A1": fails_at("A1", "a, alpha, beta"),
        "A2": fails_at("A2", "a, b, alpha"),
        "A3": fails_at("A3", "a, b, alpha"),
        "A4": fails_at("A4", "a, b, c"),
        "A5": fails_at("A5", "a, b, c"),
    }


def is_group_quasigroup(hg):
    """True iff (M, xi) is a group, through group_from_cayley_table
    after a first associativity scan; raises InternalInconsistencyError
    when xi is associative and P1 holds but (M, xi) is not a group."""
    m = hg.m_size
    if first_nonassociative(int_table(hg.xi, "xi", (m, m), m)) is not None:
        return False
    try:
        group_from_cayley_table(hg.xi)
        return True
    except AlgebraError:
        if core.verify_axioms(hg).checks["P1"].ok:
            raise InternalInconsistencyError(
                "xi is associative and P1 holds but (M, xi) is not a group"
            )
        return False


def xi_candidates(m):
    """All xi tables with left neutral 0 and permutation columns: choose
    per column a a permutation of M sending 0 to a."""
    perms = list(permutations(range(m)))
    per_column = [
        [p for p in perms if p[0] == a] for a in range(m)
    ]
    for combo in product(*per_column):
        yield [[combo[a][x] for a in range(m)] for x in range(m)]


def phi_candidates(h, m):
    """All right actions of H on M as tables: maps al -> sigma_al into
    Sym(M) with sigma_eps = id and sigma_(al*be) = sigma_al then sigma_be."""
    perms = list(permutations(range(m)))
    idp = tuple(range(m))
    hn, ht = h.order, h.table.tolist()
    others = [al for al in range(hn) if al != h.identity]
    for assignment in product(perms, repeat=len(others)):
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


def cyclic_generator_of(h):
    orders = element_orders(h)
    if h.order not in orders:
        raise SizeLimitExceededError(
            "abstract enumeration requires a cyclic H (all groups of order "
            "<= 3 are cyclic)"
        )
    return orders.index(h.order)


def psi_candidates(h, phi, m):
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
    gamma = cyclic_generator_of(h)
    # powers[k] = gamma^(k+1); covers all of H minus eps
    powers = [gamma]
    while ht[powers[-1]][gamma] != eps:
        powers.append(ht[powers[-1]][gamma])
    for column in product(range(hn), repeat=m):
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


def lambda_candidates(h, xi, phi, psi, m):
    """All lam tables consistent with A3 and A5, by DFS over cells with
    A3-forced propagation and an A5 check on completed tables.

    Each A3 instance (a, b, al) links cells (a, b) and
    (phi[a][psi[b][al]], phi[b][al]) by an invertible relation in H, so
    assigning one cell forces the other; free cells only appear when a
    new component starts.
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

    def a5_holds():
        for a in range(m):
            for b in range(m):
                for c in range(m):
                    lhs = ht[lam[a][b]][lam[xi[a][b]][c]]
                    rhs = ht[psi[a][lam[b][c]]][
                        lam[phi[a][lam[b][c]]][xi[b][c]]
                    ]
                    if lhs != rhs:
                        return False
        return True

    def undo(trail):
        for (a, b) in trail:
            lam[a][b] = -1

    def search(pos):
        while pos < len(cells) and lam[cells[pos][0]][cells[pos][1]] >= 0:
            pos += 1
        if pos == len(cells):
            if a5_holds():
                yield [row[:] for row in lam]
            return
        cell = cells[pos]
        for value in range(hn):
            trail: list[tuple[int, int]] = []
            if force(cell, value, trail):
                yield from search(pos + 1)
            undo(trail)

    yield from search(0)


def ambient(hg):
    """The converse of the standard construction: the group A that hg's
    tables define on H x M, with (al, a) at index al*|M| + a and the
    product (al, a)(be, b) = (al*psi(a, be)*lam(a^be, b), xi(a^be, b))
    (core._product_table); the elements of H_A = {(al, o)}; and
    T_A = {(eps, a)} in the order of a, as a (1, |M|) reps array. A table
    that is no group raises the AlgebraError of group_from_cayley_table."""
    m, hn = hg.m_size, hg.h.order
    group = group_from_cayley_table(
        core._product_table(hg.phi, hg.psi, hg.xi, hg.lam, hg.h.table))
    return (group, [al * m + hg.o for al in range(hn)],
            np.arange(hg.h.identity * m, hg.h.identity * m + m)[None])


def enumerate_abstract(m, h):
    """The abstract catalog by a search over the axioms: every xi, phi,
    psi and lam the candidate generators above allow, with o = 0, that
    passes verify_axioms, numbered in the order found and filed under
    the orbit key of its ambient group (ambient), the first builtin of
    that order isomorphic to it standing for the group."""
    catalog = classify.Catalog()
    canonical = classify._canonical_bases(builtin_groups(m * h.order))
    count = 0
    for xi in xi_candidates(m):
        for phi in phi_candidates(h, m):
            for psi in psi_candidates(h, phi, m):
                for lam in lambda_candidates(h, xi, phi, psi, m):
                    hg = core.hypergroup_from_tables(m, h, phi, psi, xi, lam, 0)
                    if not core.verify_axioms(hg).overall:
                        continue
                    group, h_elements, reps = ambient(hg)
                    base, maps = canonical(group)
                    key = classify._orbit_keys(maps, h_elements, reps)[0]
                    catalog.insert(hg, f"abstract:m{m}:H={h.name}:#{count}", (base, *key))
                    count += 1
    return catalog


def direct_product_table(a, b):
    """(table, identity, inverse) of A x B with pair (x, y) at index
    x*|B| + y, as lists, by loops."""
    order, nb = a.order * b.order, b.order
    at, bt = a.table.tolist(), b.table.tolist()
    table = [[0] * order for _ in range(order)]
    for x1 in range(a.order):
        for y1 in range(b.order):
            row = table[x1 * nb + y1]
            arow = at[x1]
            brow = bt[y1]
            for x2 in range(a.order):
                ax = arow[x2] * nb
                for y2 in range(b.order):
                    row[x2 * nb + y2] = ax + brow[y2]
    inverse = [0] * order
    for x in range(a.order):
        for y in range(b.order):
            inverse[x * nb + y] = a.inverse[x] * nb + b.inverse[y]
    return table, a.identity * nb + b.identity, inverse


def check_normal_case(group, h, transversal_cap=10_000, seed=0):
    """core.check_normal_case for a normal h, one transversal at a time:
    each xi validated by group_from_cayley_table and compared with the
    quotient and the first transversal's by group_isomorphism."""
    quotient = quotient_group(group, h)
    checks = {name: CheckResult(True) for name in (
        "phi_trivial", "xi_is_group", "isomorphic_to_quotient",
        "transversals_pairwise_isomorphic")}

    def fail_once(name, witness, detail):
        if checks[name].ok:
            checks[name] = CheckResult(False, witness, detail)

    first_xi_group = None
    transversals = sample_transversals(group, h, cap=transversal_cap, seed=seed)
    for tidx, t in enumerate(transversals):
        hg = core.standard_construction(group, h, t)
        reps = list(t.reps)
        w = first_mismatch(hg.phi, np.arange(hg.m_size, dtype=np.intp)[:, None])
        if w is not None:
            fail_once("phi_trivial", (tidx,) + w,
                      f"phi[{w[0]}][{w[1]}] != {w[0]} for transversal {reps}")
        try:
            xi_group = group_from_cayley_table(hg.xi)
        except AlgebraError as exc:
            fail_once("xi_is_group", (tidx,),
                      f"(M, xi) not a group for transversal {reps}: {exc}")
            continue
        if group_isomorphism(xi_group, quotient) is None:
            fail_once("isomorphic_to_quotient", (tidx,),
                      f"(M, xi) of transversal {reps} is not isomorphic to "
                      f"{quotient.name}")
        if first_xi_group is None:
            first_xi_group = xi_group
        elif group_isomorphism(xi_group, first_xi_group) is None:
            fail_once("transversals_pairwise_isomorphic", (tidx,),
                      f"(M, xi) of transversal {reps} is not isomorphic to "
                      f"the first transversal's")
    info = {"group": group.name, "subgroup": list(h.elements),
            "transversals_checked": len(transversals)}
    return Report(checks, info=info)


def enumerate_subgroups(group):
    """groups.enumerate_subgroups by BFS over closures: every subgroup
    arises by adjoining one element at a time, so extending each known
    subgroup by each outside element reaches all of them."""
    t = group.table.tolist()

    def close(seed):
        members = set(seed)
        frontier = list(seed)
        while frontier:
            x = frontier.pop()
            for y in tuple(members):
                for z in (t[x][y], t[y][x]):
                    if z not in members:
                        members.add(z)
                        frontier.append(z)
        return frozenset(members)

    trivial = frozenset({group.identity})
    seen = {trivial}
    frontier = [trivial]
    while frontier:
        current = frontier.pop()
        for x in range(group.order):
            if x in current:
                continue
            closure = close(current | {x})
            if closure not in seen:
                seen.add(closure)
                frontier.append(closure)
    out = [Subgroup(parent=group, elements=tuple(sorted(s))) for s in seen]
    out.sort(key=lambda h: (len(h.elements), h.elements))
    return out


@functools.cache
def automorphisms(group):
    """Aut(group) as group_isomorphisms(group, group) lists it, as a tuple
    of tuples, searched once per group for every test that needs it."""
    return tuple(map(tuple, group_isomorphisms(group, group)))


def bijection_characterization(group, h, candidate):
    """(alpha, a) -> alpha*a is a bijection H x candidate -> G."""
    members = list(candidate)
    if len(h.elements) * len(members) != group.order:
        return False
    seen = set()
    rows = group.table.tolist()
    for alpha in h.elements:
        row = rows[alpha]
        for a in members:
            seen.add(row[a])
    return len(seen) == group.order


def section_characterization(group, h, candidate):
    """candidate is the image of a section of the factor map G -> H\\G."""
    members = list(candidate)
    dec = right_cosets(group, h)
    sigma: dict[int, int] = {}
    for x in members:
        if not 0 <= x < group.order:
            return False
        c = dec.coset_of[x]
        if c in sigma:
            return False
        sigma[c] = x
    return len(sigma) == len(dec.cosets)


class RowlessArray(np.ndarray):
    """An array whose tolist() raises. A table given as one shows that
    the reader checked it as an array and never turned it into rows, and
    a table stored as one, rather than as a plain array, fails the first
    test that reads it back with tolist()."""

    def tolist(self):
        raise AssertionError("an integer array was turned into rows")
