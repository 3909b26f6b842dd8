"""Functors into the category of hypergroups over groups, and the
field-functor inverse.

The reconstruction tests exercise every documented diagnostic with a
purpose-built input, then the ok path with round-trips over every field
order up to 9. Structural frozen values (which table equals which) come
straight from the functor definitions.
"""

import itertools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergroups import (
    FiniteGroup,
    MalformedTablesError,
    NotPrimeError,
    ShapeMismatchError,
    SizeLimitExceededError,
    compose,
    cyclic_group,
    find_isomorphism,
    frobenius,
    functor_field,
    functor_field_on_hom,
    functor_group,
    functor_group_on_hom,
    functor_vector_space,
    functor_vector_space_on_map,
    group_from_spec,
    hypergroup_from_tables,
    make_extension_field,
    make_field,
    parse_poly,
    reconstruct_field,
    standard_construction,
    subgroup_from_elements,
    symmetric_group,
    trivial_group,
    verify_axioms,
    verify_morphism,
)
from hypergroups import _util
from hypergroups.functors import RECONSTRUCTION_DIAGNOSTICS

import loop_oracles


class TestFunctorGroup:
    @pytest.mark.parametrize("spec", ["E", "Z2", "Z3", "Z4", "Z2xZ2", "S3"])
    def test_images_verify(self, spec):
        g = group_from_spec(spec)
        hg = functor_group(g)
        assert verify_axioms(hg).overall
        assert hg.xi.tolist() == g.table.tolist()
        assert hg.h.order == 1
        assert hg.o == g.identity

    def test_three_nontrivial_homs(self):
        z6, z3, z2 = cyclic_group(6), cyclic_group(3), cyclic_group(2)
        s3 = symmetric_group(3)
        # sign of a permutation, read off the one-line form
        sign = [0, 1, 1, 0, 0, 1]
        homs = [
            (z6, z3, [x % 3 for x in range(6)]),
            (z6, z2, [x % 2 for x in range(6)]),
            (s3, z2, sign),
            (z3, z6, [0, 2, 4]),
        ]
        for src, dst, f in homs:
            mor = functor_group_on_hom(src, dst, f)
            assert verify_morphism(mor).ok, (src.name, dst.name)

    def test_functoriality(self):
        z12, z6, z3 = cyclic_group(12), cyclic_group(6), cyclic_group(3)
        u = [x % 6 for x in range(12)]
        v = [x % 3 for x in range(6)]
        w = [x % 3 for x in range(12)]  # v after u
        lhs = functor_group_on_hom(z12, z3, w)
        rhs = compose(functor_group_on_hom(z12, z6, u),
                      functor_group_on_hom(z6, z3, v))
        assert lhs.f1 == rhs.f1 and lhs.f0 == rhs.f0

    def test_faithful(self):
        # distinct homs lift to distinct morphisms and f1 recovers the hom
        z4, z2 = cyclic_group(4), cyclic_group(2)
        h1 = functor_group_on_hom(z4, z2, [0, 1, 0, 1])
        h2 = functor_group_on_hom(z4, z2, [0, 0, 0, 0])
        assert h1.f1 != h2.f1

    def test_rejects_wrong_shape(self):
        with pytest.raises(ShapeMismatchError):
            functor_group_on_hom(cyclic_group(4), cyclic_group(2), [0, 1])


class TestFunctorVectorSpace:
    @pytest.mark.parametrize("q,dim", [(2, 1), (2, 2), (2, 3),
                                       (3, 1), (3, 2), (4, 1)])
    def test_images_verify(self, q, dim):
        hg = functor_vector_space(make_field(q), dim)
        assert verify_axioms(hg).overall
        assert hg.m_size == q ** dim
        assert hg.h.order == q - 1
        assert hg.o == 0

    def test_structure_gf3_dim2(self):
        k = make_field(3)
        hg = functor_vector_space(k, 2)
        # vector (1,2) has index 1*3+2 = 5; (1,2)+(2,2) = (0,1) = index 1
        assert hg.xi[5][8] == 1
        # scalar 2 (H-index 1) times (1,2) = (2,1) = index 7
        assert hg.phi[5][1] == 7
        # psi trivial, lam constant identity
        assert hg.psi.tolist() == [[0, 1]] * 9
        assert all(v == 0 for row in hg.lam.tolist() for v in row)

    def test_three_nontrivial_linear_maps(self):
        k = make_field(3)
        maps = [
            ([[1, 1], [0, 1]], 2, 2),   # shear
            ([[2, 0], [0, 2]], 2, 2),   # scaling by 2
            ([[1, 2]], 2, 1),           # projection-like functional
            ([[1], [2]], 1, 2),         # inclusion as a line
        ]
        for matrix, sd, dd in maps:
            mor = functor_vector_space_on_map(k, matrix, sd, dd)
            assert verify_morphism(mor).ok, matrix

    def test_functoriality_on_composition(self):
        k = make_field(2)
        a = [[1, 1], [0, 1]]
        b = [[0, 1], [1, 0]]
        # matrix product b.a over GF(2)
        ba = [[(b[i][0] * a[0][j] + b[i][1] * a[1][j]) % 2
               for j in range(2)] for i in range(2)]
        lhs = functor_vector_space_on_map(k, ba, 2, 2)
        rhs = compose(functor_vector_space_on_map(k, a, 2, 2),
                      functor_vector_space_on_map(k, b, 2, 2))
        assert lhs.f1 == rhs.f1

    def test_size_bound(self):
        with pytest.raises(SizeLimitExceededError):
            functor_vector_space(make_field(5), 4)  # 625 > 512

    @pytest.mark.parametrize("matrix, location, text", [
        ([[9]], "matrix[0][0]", "value 9 outside [0, 4)"),
        ([[1.0]], "matrix[0][0]", "value 1.0 is not an integer"),
        ([[True]], "matrix[0][0]", "value True is not an integer"),
        ([[-1]], "matrix[0][0]", "value -1 outside [0, 4)"),
        ("1", "matrix", "not a sequence of rows"),
    ])
    def test_a_matrix_entry_is_a_field_index(self, matrix, location, text):
        # [[9]] raised IndexError, [[1.0]] TypeError, and [[-1]] wrapped
        with pytest.raises(MalformedTablesError) as ei:
            functor_vector_space_on_map(make_field(4), matrix, 1, 1)
        assert (ei.value.location, str(ei.value)) == (location, f"{location}: {text}")

    @pytest.mark.parametrize("matrix", [[[1, 2]], [[1], [2]], [], [[1], []]])
    def test_a_matrix_of_another_shape_is_a_shape_mismatch(self, matrix):
        with pytest.raises(ShapeMismatchError, match=r"^matrix must be 1x1$"):
            functor_vector_space_on_map(make_field(4), matrix, 1, 1)


class TestFunctorField:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_images_verify(self, q):
        f = make_field(q)
        hg = functor_field(f)
        assert verify_axioms(hg).overall
        assert hg.xi.tolist() == f.add.tolist()
        assert hg.o == f.zero
        assert hg.h.order == q - 1
        # phi is multiplication by the nonzero elements
        phi, mul = hg.phi.tolist(), f.mul.tolist()
        for a in range(q):
            for al in range(q - 1):
                assert phi[a][al] == mul[a][al + 1]

    def test_frobenius_morphisms(self):
        # x -> x^p is a field automorphism; three nontrivial instances
        for q in (4, 8, 9):
            f = make_field(q)
            fr = frobenius(f)
            assert fr != list(range(q))  # nontrivial on proper extensions
            mor = functor_field_on_hom(f, f, fr)
            assert verify_morphism(mor).ok

    def test_frobenius_frozen_gf4(self):
        assert frobenius(make_field(4)) == [0, 1, 3, 2]

    def test_identity_hom(self):
        f = make_field(5)
        mor = functor_field_on_hom(f, f, list(range(5)))
        assert verify_morphism(mor).ok

    def test_rejects_zero_collapse(self):
        f = make_field(4)
        with pytest.raises(ShapeMismatchError):
            functor_field_on_hom(f, f, [0, 0, 0, 0])


class TestReconstructField:
    def test_diagnostic_names(self):
        assert RECONSTRUCTION_DIAGNOSTICS == (
            "PsiNotTrivial", "LamNotTrivial", "XiNotAbelianGroup",
            "HNotAbelian", "PhiNotEndomorphism", "TNotInjective",
            "NotAdditivelyClosed", "NotAField",
        )

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_round_trip(self, q):
        r = reconstruct_field(functor_field(make_field(q)))
        assert r.ok
        assert r.field.q == q
        assert r.is_field_hypergroup is True
        assert r.unit_witness is not None
        assert r.iso_to_canonical is not None
        # the candidate tables really are a field isomorphic to GF(q)
        iso = r.iso_to_canonical
        add, mul = r.field.add.tolist(), r.field.mul.tolist()
        for i in range(q):
            for j in range(q):
                assert iso[r.add_table[i][j]] == add[iso[i]][iso[j]]
                assert iso[r.mul_table[i][j]] == mul[iso[i]][iso[j]]

    def test_a_size_cap_is_not_a_diagnostic(self):
        # every AlgebraError of make_field read as "not a prime power";
        # past |k| = 512 it is a size cap, which must reach the caller
        hg = functor_field(make_field(9))
        cap = SizeLimitExceededError("field order 9 exceeds cap 8")
        with mock.patch("hypergroups.functors.make_field", side_effect=cap):
            with pytest.raises(SizeLimitExceededError, match="exceeds cap 8"):
                reconstruct_field(hg)
        with mock.patch("hypergroups.functors.make_field",
                        side_effect=NotPrimeError("9 is not a prime power")):
            r = reconstruct_field(hg)
        assert (r.status, r.detail) == ("NotAField", "|k| = 9 is not a prime power")

    def test_psi_not_trivial(self):
        g = symmetric_group(3)
        h = subgroup_from_elements(g, [0, 1])
        hg = standard_construction(g, h, [0, 2, 4])
        r = reconstruct_field(hg)
        assert r.status == "PsiNotTrivial"
        a, al = r.witness
        assert hg.psi[a][al] != al

    def test_lam_not_trivial(self):
        g = cyclic_group(6)
        h = subgroup_from_elements(g, [0, 3])
        hg = standard_construction(g, h, [0, 1, 2])
        r = reconstruct_field(hg)
        assert r.status == "LamNotTrivial"
        a, b = r.witness
        assert hg.lam[a][b] != 0

    def test_xi_not_group(self):
        # Klein-like xi broken at one entry is no longer a quasigroup,
        # but the diagnostic fires before any axiom check
        e = trivial_group()
        hg = hypergroup_from_tables(
            2, e, [[0], [1]], [[0], [0]],
            [[0, 1], [1, 1]], [[0, 0], [0, 0]], 0,
        )
        r = reconstruct_field(hg)
        assert r.status == "XiNotAbelianGroup"

    def test_xi_not_abelian(self):
        r = reconstruct_field(functor_group(symmetric_group(3)))
        assert r.status == "XiNotAbelianGroup"
        a, b = r.witness
        s3 = symmetric_group(3)
        assert s3.mul(a, b) != s3.mul(b, a)

    def test_h_not_abelian(self):
        # valid hypergroup: xi = Z3, H = S3 acting trivially
        s3 = symmetric_group(3)
        z3 = cyclic_group(3)
        hg = hypergroup_from_tables(
            3, s3,
            [[a] * 6 for a in range(3)],
            [list(range(6)) for _ in range(3)],
            z3.table.tolist(),
            [[0] * 3 for _ in range(3)],
            0,
        )
        assert verify_axioms(hg).overall
        r = reconstruct_field(hg)
        assert r.status == "HNotAbelian"

    def test_phi_not_endomorphism(self):
        # x -> swap(0,1) is not additive on Z3: crafted invalid input
        z2 = cyclic_group(2)
        z3 = cyclic_group(3)
        hg = hypergroup_from_tables(
            3, z2,
            [[0, 1], [1, 0], [2, 2]],
            [[0, 1] for _ in range(3)],
            z3.table.tolist(),
            [[0] * 3 for _ in range(3)],
            0,
        )
        r = reconstruct_field(hg)
        assert r.status == "PhiNotEndomorphism"
        al, a, b = r.witness
        assert (hg.phi[hg.xi[a][b]][al]
                != hg.xi[hg.phi[a][al]][hg.phi[b][al]])

    def test_t_not_injective(self):
        # H = Z2 acting trivially on Z2: t(0) = t(1) = identity
        z2 = cyclic_group(2)
        hg = hypergroup_from_tables(
            2, z2,
            [[0, 0], [1, 1]],
            [[0, 1], [0, 1]],
            [[0, 1], [1, 0]],
            [[0, 0], [0, 0]],
            0,
        )
        assert verify_axioms(hg).overall
        r = reconstruct_field(hg)
        assert r.status == "TNotInjective"
        assert r.witness == (0, 1)

    def test_zeta_in_image(self):
        # phi column equal to the zero map: crafted invalid input
        z2 = cyclic_group(2)
        hg = hypergroup_from_tables(
            2, z2,
            [[0, 0], [1, 0]],
            [[0, 1], [0, 1]],
            [[0, 1], [1, 0]],
            [[0, 0], [0, 0]],
            0,
        )
        r = reconstruct_field(hg)
        assert r.status == "NotAField"
        assert "zero endomorphism" in r.detail

    def test_not_additively_closed(self):
        r = reconstruct_field(functor_group(cyclic_group(3)))
        assert r.status == "NotAdditivelyClosed"
        assert r.witness == (1, 1)

    def test_vs_dim2_reconstructs_scalar_subfield(self):
        # k^2 is not a field hypergroup, but {zeta} + scalars is a field
        r = reconstruct_field(functor_vector_space(make_field(3), 2))
        assert r.ok
        assert r.field.q == 3
        assert r.is_field_hypergroup is False
        assert r.unit_witness is None

    def test_vs_dim1_is_field_hypergroup(self):
        r = reconstruct_field(functor_vector_space(make_field(3), 1))
        assert r.ok and r.is_field_hypergroup is True

    def test_nondefault_modulus_round_trip(self):
        f = make_extension_field(2, parse_poly("x^3+x^2+1"))
        r = reconstruct_field(functor_field(f))
        assert r.ok and r.field.q == 8

    def test_reconstructed_image_isomorphic_to_original_image(self):
        # functor_field(GF(q)) and functor_field(reconstructed) agree
        for q in (4, 5):
            hg = functor_field(make_field(q))
            r = reconstruct_field(hg)
            again = functor_field(r.field)
            assert find_isomorphism(hg, again) is not None


# --------------------------------------------------------------------
# reconstruction against the loop oracle


def _base_image(kind, arg):
    if kind == "field":
        return functor_field(make_field(arg))
    if kind == "vs":
        return functor_vector_space(make_field(arg[0]), arg[1])
    return functor_group(group_from_spec(arg))


@st.composite
def mutated_images(draw):
    """A functor image (mostly of a field) with one table entry changed,
    or one phi column swapped for another map of M: a multiple of a
    power of Frobenius, a copy of another column, or the zero map."""
    kind, arg = draw(st.sampled_from(
        [("field", q) for q in (2, 3, 4, 5, 7, 8, 9)]
        + [("vs", (2, 2)), ("vs", (3, 2)), ("group", "Z4"), ("group", "S3")]
    ))
    hg = _base_image(kind, arg)
    m, hn = hg.m_size, hg.h.order
    tables = {name: getattr(hg, name).tolist()
              for name in ("phi", "psi", "xi", "lam")}
    h_table = hg.h.table.tolist()
    mutation = draw(st.sampled_from(["none", "entry", "column"]))
    if mutation == "entry":
        name = draw(st.sampled_from(["phi", "psi", "xi", "lam", "h"]))
        table = h_table if name == "h" else tables[name]
        limit = m if name in ("phi", "xi") else hn
        row = draw(st.integers(0, len(table) - 1))
        col = draw(st.integers(0, len(table[row]) - 1))
        table[row][col] = draw(st.integers(0, limit - 1))
    elif mutation == "column" and kind == "field":
        f = make_field(arg)
        c = draw(st.integers(0, f.q - 1))
        power = draw(st.integers(0, f.m - 1))
        frob, x_to_power = frobenius(f), list(range(f.q))
        for _ in range(power):
            x_to_power = [frob[x] for x in x_to_power]
        al = draw(st.integers(0, hn - 1))
        mul = f.mul.tolist()
        for a in range(m):
            tables["phi"][a][al] = mul[x_to_power[a]][c]
    h = FiniteGroup(order=hn, table=h_table, identity=hg.h.identity,
                    inverse=list(hg.h.inverse), name="H")
    return hypergroup_from_tables(m, h, o=hg.o, **tables)


class TestReconstructionAgainstLoops:
    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(hg=mutated_images())
    def test_status_and_witness_match_loops(self, hg):
        self.check(hg)

    # blocks this small run the generator scans of PhiNotEndomorphism
    # and of the field checks on these small images
    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(hg=mutated_images(), block=st.sampled_from([1, 8, 64]))
    def test_generator_scans_match_loops(self, hg, block):
        with mock.patch.object(_util, "BLOCK_CELLS", block):
            self.check(hg)

    def test_phi_column_additive_only_for_one_generator(self):
        # on GF(8), t(a) = a except that x^2+x and x^2+x+1 swap: t(a+1) =
        # t(a)+1 for every a, but t(x+x^2) != t(x)+t(x^2), so the scan
        # over generators must take more b than 1
        f = make_field(8)
        hg = functor_field(f)
        t = list(range(8))
        t[6], t[7] = 7, 6
        add = f.add.tolist()
        assert all(t[add[a][1]] == add[t[a]][1] for a in range(8))
        phi = hg.phi.tolist()
        for a in range(8):
            phi[a][3] = t[a]
        bad = hypergroup_from_tables(8, hg.h, phi, hg.psi, hg.xi, hg.lam, hg.o)
        for block in (1, 64, _util.BLOCK_CELLS):
            with mock.patch.object(_util, "BLOCK_CELLS", block):
                self.check(bad)
        assert reconstruct_field(bad).status == "PhiNotEndomorphism"

    @pytest.mark.parametrize("q", [4, 8, 9])
    def test_every_column_swapped_for_an_endomorphism(self, q):
        # t(alpha) becomes a -> c a^(p^s), an endomorphism of (M, xi), so
        # each image reaches the sums of k, matched on the generator
        # columns, and many are not closed under them; one-row blocks
        # split those sums across blocks
        f = make_field(q)
        hg = functor_field(f)
        statuses, frob, x_to_power = set(), frobenius(f), list(range(q))
        mul = f.mul.tolist()
        for _ in range(f.m):
            for al, c in itertools.product(range(q - 1), range(q)):
                phi = hg.phi.tolist()
                for a in range(q):
                    phi[a][al] = mul[x_to_power[a]][c]
                bad = hypergroup_from_tables(q, hg.h, phi, hg.psi, hg.xi, hg.lam, hg.o)
                for block in (1, _util.BLOCK_CELLS):
                    with mock.patch.object(_util, "BLOCK_CELLS", block):
                        self.check(bad)
                statuses.add(reconstruct_field(bad).status)
            x_to_power = [frob[x] for x in x_to_power]
        assert {"ok", "NotAdditivelyClosed"} <= statuses

    @staticmethod
    def check(hg):
        r = reconstruct_field(hg)
        expected = loop_oracles.reconstruct_field(hg)
        assert (r.status, r.witness) == (expected["status"], expected["witness"])
        for key in ("k_endomorphisms", "add_table", "mul_table",
                    "iso_to_canonical", "unit_witness"):
            if key in expected:
                assert getattr(r, key) == expected[key], key
        if r.status == "NotAdditivelyClosed":
            i, j = r.witness
            assert r.detail == (f"k[{i}] + k[{j}] is the endomorphism "
                                f"{expected['sum']}, not in k")
