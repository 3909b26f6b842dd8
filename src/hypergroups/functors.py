"""The three embedding functors and the inverse of the field functor.

Groups embed as hypergroups over the trivial group (xi = the group
table, everything else forced). Vector spaces over a finite field k
embed with H = k*, phi = scalar action, xi = vector addition, psi and
lam trivial. Fields are the one-dimensional case.

reconstruct_field inverts the field functor: it re-derives the scalar
field from the structural tables alone, as the set of endomorphisms
t(alpha) = phi(., alpha) plus the zero endomorphism zeta, under
pointwise xi-addition and composition.

The zero endomorphism is written zeta here, not theta: theta already
names o^{-1} in the neutral-element decomposition, and reusing it in
witness messages would conflate the two.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import _util
from ._util import first_failure_on, first_mismatch, read_table
from .core import HypergroupOverGroup, hypergroup_from_tables
from .errors import (
    AlgebraError,
    InternalInconsistencyError,
    MalformedTablesError,
    NotPrimeError,
    ShapeMismatchError,
    SizeLimitExceededError,
)
from .fields import (
    FiniteField,
    check_field_tables,
    field_isomorphism,
    make_field,
    multiplicative_group,
)
from .groups import (FiniteGroup, _right_generators, group_from_cayley_table,
                     trivial_group)
from .morphisms import HgMorphism

VS_SIZE_BOUND = 512


def functor_group(m_group: FiniteGroup) -> HypergroupOverGroup:
    """A group as a hypergroup over the trivial group E."""
    n = m_group.order
    return hypergroup_from_tables(
        m_size=n,
        h=trivial_group(),
        phi=[[a] for a in range(n)],
        psi=[[0] for _ in range(n)],
        xi=m_group.table,
        lam=[[0] * n for _ in range(n)],
        o=m_group.identity,
    )


def functor_group_on_hom(
    src: FiniteGroup, dst: FiniteGroup, f1: list[int]
) -> HgMorphism:
    """Lift a group homomorphism f1: src -> dst to a morphism of the
    functor images (f0 is forced: both H are trivial)."""
    if len(f1) != src.order:
        raise ShapeMismatchError(f"f1 has length {len(f1)}, expected {src.order}")
    return HgMorphism(
        source=functor_group(src),
        target=functor_group(dst),
        f0=[0],
        f1=list(f1),
    )


def _vector_index(components: tuple[int, ...], q: int) -> int:
    n = 0
    for c in components:
        n = n * q + c
    return n


def functor_vector_space(k: FiniteField, dim: int) -> HypergroupOverGroup:
    """k^dim as a hypergroup over H = k*.

    M enumerates dim-tuples lexicographically (first component most
    significant); H-index al is the field element al + 1.
    """
    if dim < 1:
        raise SizeLimitExceededError(f"dimension {dim} must be >= 1")
    # |k| >= 2, so a dim from the bit length of the bound on is over it;
    # the power is taken only below that, and no huge dim is printed
    if dim >= VS_SIZE_BOUND.bit_length() or k.q ** dim > VS_SIZE_BOUND:
        raise SizeLimitExceededError(
            f"|k|^dim exceeds bound {VS_SIZE_BOUND} (|k| = {k.q})"
        )
    size = k.q ** dim
    h = multiplicative_group(k)
    add, mul = k.add.tolist(), k.mul.tolist()
    vectors = list(itertools.product(range(k.q), repeat=dim))
    phi = [
        [_vector_index(tuple(mul[c][al + 1] for c in v), k.q) for al in range(h.order)]
        for v in vectors
    ]
    psi = [list(range(h.order)) for _ in vectors]
    xi = [
        [
            _vector_index(tuple(add[c][d] for c, d in zip(u, v)), k.q)
            for v in vectors
        ]
        for u in vectors
    ]
    lam = [[h.identity] * size for _ in vectors]
    return hypergroup_from_tables(
        m_size=size, h=h, phi=phi, psi=psi, xi=xi, lam=lam, o=0
    )


def functor_vector_space_on_map(
    k: FiniteField, matrix: list[list[int]], src_dim: int, dst_dim: int
) -> HgMorphism:
    """Lift the linear map v -> matrix . v (entries are field indices,
    shape dst_dim x src_dim) to a morphism of the functor images; f0 is
    the identity on k*. The matrix is read by _util.read_table: another
    shape raises ShapeMismatchError, and an entry that is not a field
    index MalformedTablesError at matrix[i][j]."""
    arr, fault = read_table(matrix, "matrix", (dst_dim, src_dim), k.q)
    if fault is not None:
        i, j, value = fault
        if j is None:
            raise ShapeMismatchError(f"matrix must be {dst_dim}x{src_dim}")
        raise MalformedTablesError(f"matrix[{i}][{j}]", f"value {value} outside [0, {k.q})")
    matrix = arr.tolist()
    src = functor_vector_space(k, src_dim)
    dst = functor_vector_space(k, dst_dim)
    add, mul = k.add.tolist(), k.mul.tolist()
    f1 = []
    for v in itertools.product(range(k.q), repeat=src_dim):
        w = []
        for row in matrix:
            acc = k.zero
            for coef, comp in zip(row, v):
                acc = add[acc][mul[coef][comp]]
            w.append(acc)
        f1.append(_vector_index(tuple(w), k.q))
    return HgMorphism(
        source=src, target=dst, f0=list(range(src.h.order)), f1=f1
    )


def functor_field(f: FiniteField) -> HypergroupOverGroup:
    """A field as a hypergroup over its multiplicative group."""
    h = multiplicative_group(f)
    q = f.q
    return hypergroup_from_tables(
        m_size=q, h=h, phi=f.mul[:, 1:],
        psi=np.broadcast_to(np.arange(q - 1), (q, q - 1)), xi=f.add,
        lam=np.full((q, q), h.identity), o=f.zero,
    )


def frobenius(f: FiniteField) -> list[int]:
    """The map x -> x^p as a field-index table."""
    x = np.arange(f.q)
    y = np.full(f.q, f.one)
    for _ in range(f.p):
        y = f.mul[y, x]
    return y.tolist()


def functor_field_on_hom(
    src: FiniteField, dst: FiniteField, f_map: list[int]
) -> HgMorphism:
    """Lift a field homomorphism (index map) to a morphism of the functor
    images; f0 is the restriction to the nonzero elements."""
    if len(f_map) != src.q:
        raise ShapeMismatchError(f"map has length {len(f_map)}, expected {src.q}")
    if any(v == dst.zero for i, v in enumerate(f_map) if i != src.zero):
        raise ShapeMismatchError("a nonzero element maps to zero")
    f0 = [f_map[al + 1] - 1 for al in range(src.q - 1)]
    return HgMorphism(
        source=functor_field(src),
        target=functor_field(dst),
        f0=f0,
        f1=list(f_map),
    )


RECONSTRUCTION_DIAGNOSTICS = (
    "PsiNotTrivial",
    "LamNotTrivial",
    "XiNotAbelianGroup",
    "HNotAbelian",
    "PhiNotEndomorphism",
    "TNotInjective",
    "NotAdditivelyClosed",
    "NotAField",
)


@dataclass
class FieldReconstruction:
    status: str                      # "ok" or a diagnostic name
    witness: tuple | None = None
    detail: str = ""
    field: FiniteField | None = None
    # candidate field elements as endomorphism arrays: index 0 is zeta,
    # index 1 + alpha is t(alpha)
    k_endomorphisms: list[list[int]] | None = None
    add_table: list[list[int]] | None = None
    mul_table: list[list[int]] | None = None
    iso_to_canonical: list[int] | None = None
    is_field_hypergroup: bool | None = None
    unit_witness: int | None = None  # an a with eval_a: k -> M bijective

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "witness": list(self.witness) if self.witness else None,
            "detail": self.detail,
            "field": self.field.name if self.field else None,
            "is_field_hypergroup": self.is_field_hypergroup,
        }


def reconstruct_field(hg: HypergroupOverGroup) -> FieldReconstruction:
    """Invert the field functor, checking each required condition in
    order and reporting the first failure.

    PhiNotEndomorphism scans (alpha, a, b). Past one first_failure
    block, b first runs over G, the _right_generators of xi, and only a
    failure there runs the full scan for the witness. (M, xi) is a group
    by then, so every b is a product g1...gk of members of G, and for
    each t = t(alpha) the b with t(ab) = t(a)t(b) for all a are closed
    under xi: if b and d are among them, t(a(bd)) = t((ab)d) = t(ab)t(d)
    = (t(a)t(b))t(d) = t(a)(t(b)t(d)) = t(a)t(bd).

    NotAdditivelyClosed compares sums on the columns G only. By then
    every row of k is an endomorphism of the abelian group (M, xi): each
    t(alpha) passed PhiNotEndomorphism, and zeta is constant at o, the
    neutral element of xi. The rows are pairwise distinct, by
    TNotInjective and the zero check. Two endomorphisms that agree on G
    agree on every product of members of G, which is every element, so
    they are equal. Hence the restriction k|G is injective, and as the
    pointwise sum k[i] + k[j] of two endomorphisms of an abelian group is
    one too, it is a row k[l] of k iff its restriction to G is k[l]|G.
    The failing (i, j) and the matched l are the ones a comparison of
    whole rows gives, so the witness, the first failure in row-major
    order, is too; the whole sum is built only for its detail.
    """
    m = hg.m_size
    hn = hg.h.order
    eps = hg.h.identity
    phi, psi, xi, lam = hg.phi, hg.psi, hg.xi, hg.lam
    ht = hg.h.table

    first = first_mismatch(psi, np.arange(hn))
    if first is not None:
        a, al = first
        return FieldReconstruction(
            status="PsiNotTrivial",
            witness=(a, al),
            detail=f"psi[{a}][{al}] = {psi[a, al]} != {al}",
        )
    first = first_mismatch(lam, eps)
    if first is not None:
        a, b = first
        return FieldReconstruction(
            status="LamNotTrivial",
            witness=(a, b),
            detail=f"lam[{a}][{b}] = {lam[a, b]} != {eps}",
        )

    try:
        xi_group = group_from_cayley_table(xi)
    except AlgebraError as exc:
        return FieldReconstruction(
            status="XiNotAbelianGroup",
            witness=getattr(exc, "witness", None),
            detail=f"(M, xi) is not a group: {exc}",
        )
    first = first_mismatch(np.triu(xi, 1), np.triu(xi.T, 1))
    if first is not None:
        a, b = first
        return FieldReconstruction(
            status="XiNotAbelianGroup",
            witness=(a, b),
            detail=f"xi[{a}][{b}] != xi[{b}][{a}]",
        )
    if xi_group.identity != hg.o:
        return FieldReconstruction(
            status="XiNotAbelianGroup",
            witness=(xi_group.identity,),
            detail="the xi neutral element differs from o",
        )

    first = first_mismatch(np.triu(ht, 1), np.triu(ht.T, 1))
    if first is not None:
        al, be = first
        return FieldReconstruction(
            status="HNotAbelian",
            witness=(al, be),
            detail=f"H product at ({al}, {be}) is not commutative",
        )

    # t(alpha) = phi(., alpha) must be an endomorphism of (M, xi); past
    # one block b runs over the generators G first (see the docstring)
    t = np.ascontiguousarray(phi.T)
    flat_xi = xi.ravel().astype(np.int32)  # a compact copy keeps the gathers in cache

    def endomorphism(cols):  # t[al][xi[a][b]] == xi[t[al][a]][t[al][b]]
        xi_c, t_c = (xi, t) if cols is None else (xi[:, cols], t[:, cols])
        return lambda r: (t[r].take(xi_c, axis=1)
                          != flat_xi.take(t[r][:, :, None] * m + t_c[r][:, None, :]))

    gens = _right_generators(xi)
    failure = first_failure_on((hn, m, m), [("PhiNotEndomorphism", endomorphism)],
                               lambda: gens)
    if failure is not None:
        al, a, b = failure[1]
        return FieldReconstruction(
            status="PhiNotEndomorphism",
            witness=(al, a, b),
            detail=f"phi(., {al}) does not preserve xi at ({a}, {b})",
        )
    first_with = {}
    repeats = []
    for be, row in enumerate(t):
        al = first_with.setdefault(row.tobytes(), be)
        if al != be:
            repeats.append((al, be))
    if repeats:
        al, be = min(repeats)
        return FieldReconstruction(
            status="TNotInjective",
            witness=(al, be),
            detail=f"phi(., {al}) and phi(., {be}) coincide",
        )

    zero_at = np.flatnonzero((t == hg.o).all(axis=1))
    if len(zero_at):
        return FieldReconstruction(
            status="NotAField",
            witness=(int(zero_at[0]),),
            detail="the zero endomorphism equals some t(alpha)",
        )
    # k ordering: zeta first, then t(alpha) in H order
    k = np.vstack([np.full((1, m), hg.o), t]).astype(flat_xi.dtype)
    k_endos = k.tolist()
    nk = len(k)

    # sums of rows of k, matched on the generator columns only (see the
    # docstring), each restriction as one opaque value
    k_gens = np.ascontiguousarray(k[:, gens])
    row_of = np.dtype((np.void, len(gens) * k.itemsize))
    k_rows = k_gens.view(row_of).ravel()
    order = np.argsort(k_rows)
    sorted_rows = k_rows[order]
    add = np.empty((nk, nk), dtype=np.intp)
    step = max(1, _util.BLOCK_CELLS // (nk * len(gens)))
    for lo in range(0, nk, step):
        # sums[i, j] = (k[lo + i] + k[j]) restricted to the generators
        sums = flat_xi.take(k_gens[lo:lo + step, None, :] * m + k_gens)
        sum_rows = sums.view(row_of).reshape(len(sums), nk)
        pos = np.minimum(np.searchsorted(sorted_rows, sum_rows), nk - 1)
        missing = np.flatnonzero(sorted_rows[pos] != sum_rows)
        if len(missing):
            i, j = divmod(lo * nk + int(missing[0]), nk)
            return FieldReconstruction(
                status="NotAdditivelyClosed",
                witness=(i, j),
                detail=(
                    f"k[{i}] + k[{j}] is the endomorphism "
                    f"{flat_xi.take(k[i] * m + k[j]).tolist()}, not in k"
                ),
                k_endomorphisms=k_endos,
            )
        add[lo:lo + step] = order[pos]
    mul = np.zeros((nk, nk), dtype=np.intp)
    mul[1:, 1:] = 1 + ht
    add_table = add.tolist()
    mul_table = mul.tolist()

    one = 1 + eps
    ok, what, witness = check_field_tables(add, mul, 0, one)
    if not ok:
        return FieldReconstruction(
            status="NotAField",
            witness=witness,
            detail=f"field axiom {what} fails on k at {witness}",
            k_endomorphisms=k_endos,
            add_table=add_table,
            mul_table=mul_table,
        )

    try:
        canonical = make_field(nk)
    except NotPrimeError:
        return FieldReconstruction(
            status="NotAField",
            witness=(nk,),
            detail=f"|k| = {nk} is not a prime power",
            k_endomorphisms=k_endos,
            add_table=add_table,
            mul_table=mul_table,
        )
    candidate = FiniteField(
        p=canonical.p, m=canonical.m, modulus=canonical.modulus, q=nk,
        add=add, mul=mul, zero=0, one=one,
        name=f"k({nk})",
    )
    iso = field_isomorphism(candidate, canonical)
    if iso is None:
        raise InternalInconsistencyError(
            f"a field of order {nk} admits no isomorphism onto {canonical.name}"
        )

    # an a at which the nk endomorphisms take nk distinct values
    unit_witness = None
    if nk == m:
        column = np.sort(k, axis=0)
        distinct = 1 + (column[1:] != column[:-1]).sum(axis=0)
        units = np.flatnonzero(distinct == nk)
        if len(units):
            unit_witness = int(units[0])
    return FieldReconstruction(
        status="ok",
        field=canonical,
        k_endomorphisms=k_endos,
        add_table=add_table,
        mul_table=mul_table,
        iso_to_canonical=iso,
        is_field_hypergroup=unit_witness is not None,
        unit_witness=unit_witness,
    )
