"""Finite fields: prime and extension construction, default moduli,
axiom checking, isomorphism.

The irreducibility oracle here factors polynomials by exhaustive trial
multiplication of lower-degree monics, independent of the library's
long-division route, and sympy's irreducibility test is a second one.
Frozen moduli below were derived by hand and are re-checked against
that oracle and against the documented least-first scan order.
"""

import copy
import dataclasses
import itertools
import pickle
import random
import signal
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergroups import _util
from hypergroups import (
    InternalInconsistencyError,
    MalformedTablesError,
    NotClosedError,
    NotIrreducibleError,
    NotMonicError,
    NotPrimeError,
    SizeLimitExceededError,
    UnknownSpecError,
    check_field_tables,
    default_modulus,
    field_isomorphism,
    format_poly,
    make_extension_field,
    make_field,
    make_prime_field,
    multiplicative_group,
    parse_field_spec,
    parse_poly,
    verify_field_axioms,
)
from hypergroups.fields import _irreducibility_witness

import loop_oracles

# --------------------------------------------------------------------
# oracles


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError inside the block once seconds have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def poly_mul_mod_p(a, b, p):
    """Plain convolution product of ascending-coefficient polys mod p."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def oracle_irreducible(poly, p):
    """No monic factorization f = g*h with deg g, deg h >= 1, found by
    trying every pair of lower-degree polynomials."""
    deg = len(poly) - 1
    for d1 in range(1, deg):
        d2 = deg - d1
        for g_low in itertools.product(range(p), repeat=d1):
            g = list(g_low) + [1]
            for h_low in itertools.product(range(p), repeat=d2):
                h = list(h_low) + [1]
                if poly_mul_mod_p(g, h, p) == list(poly):
                    return False
    return True


def monic_polys_ascending(p, deg):
    """Monic degree-deg polys in the integer-encoding scan order: the
    non-leading coefficients read as a base-p number, ascending."""
    for code in range(p ** deg):
        coeffs = []
        rest = code
        for _ in range(deg):
            rest, d = divmod(rest, p)
            coeffs.append(d)
        yield coeffs + [1]


# --------------------------------------------------------------------
# prime fields


class TestPrimeFields:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
    def test_tables_are_modular_arithmetic(self, p):
        f = make_prime_field(p)
        assert f.q == p and f.m == 1 and f.zero == 0 and f.one == 1
        for i in range(p):
            for j in range(p):
                assert f.add[i][j] == (i + j) % p
                assert f.mul[i][j] == (i * j) % p

    def test_rejects_composite(self):
        with pytest.raises(NotPrimeError):
            make_prime_field(6)
        with pytest.raises(NotPrimeError):
            make_prime_field(1)

    def test_prime_cap(self):
        with pytest.raises(SizeLimitExceededError):
            make_prime_field(101)

    def test_neg_and_mul_inverse(self):
        f = make_prime_field(7)
        for a in range(7):
            assert f.add[a][f.neg(a)] == 0
            if a:
                assert f.mul[a][f.mul_inverse(a)] == 1


class TestFrozenField:
    """A field's tables are read-only intp arrays, made and checked once;
    edits make a new field through the constructor."""

    @pytest.mark.parametrize("q", [2, 4, 9, 25])
    def test_two_forms_of_one_table(self, q):
        # one stored form: rows and an array given to the constructor
        # make equal fields, and no field holds a second copy
        f = make_field(q)
        for arr in (f.add, f.mul):
            assert isinstance(arr, np.ndarray)
            assert arr.dtype == np.intp and arr.shape == (q, q)
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 1
        assert [fd.name for fd in dataclasses.fields(f)
                if isinstance(getattr(f, fd.name), np.ndarray)] == ["add", "mul"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.one = 0
        assert replace(f, add=f.add.tolist()) == f == replace(f, mul=np.array(f.mul))
        mul = f.mul.tolist()
        mul[1][1] = (mul[1][1] + 1) % q
        assert replace(f, mul=mul) != f and replace(f, mul=np.array(mul)) != f

    def test_arrays_are_copies(self):
        f = make_field(5)
        mul = np.array(f.mul)
        g = replace(f, mul=mul)
        mul[2, 3] = 0
        assert g.mul[2, 3] == f.mul[2, 3] == 1

    def test_gf512_holds_one_table_form(self):
        # two 512 x 512 intp arrays are 4 MiB; a second form of either
        # table, one int object per cell, would pass the 8 MiB bound
        tracemalloc.start()
        try:
            f = make_field(512)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert f.q == 512
        assert held < 8 * 2 ** 20, held

    @pytest.mark.parametrize("edit, error, text", [
        (lambda mul: mul[1].__setitem__(2, 5), NotClosedError,
         "table[1][2] = 5 is outside [0, 5)"),
        (lambda mul: mul[3].pop(), NotClosedError, "table[3][4] = -1 is outside [0, 5)"),
        (lambda mul: mul.pop(), MalformedTablesError, "table: expected 5 rows, got 4"),
        (lambda mul: mul[0].__setitem__(0, 0.5), MalformedTablesError,
         "mul[0][0]: value 0.5 is not an integer"),
    ])
    def test_tables_are_checked(self, edit, error, text):
        gf5 = make_field(5)
        mul = gf5.mul.tolist()
        edit(mul)
        with pytest.raises(error) as ei:
            replace(gf5, mul=mul)
        assert str(ei.value) == text

    def test_an_array_out_of_range_is_refused(self):
        gf5 = make_field(5)
        mul = np.array(gf5.mul)
        mul[1, 2] = 5
        with pytest.raises(NotClosedError) as ei:
            replace(gf5, mul=mul)
        assert str(ei.value) == "table[1][2] = 5 is outside [0, 5)"

    def test_copy_and_pickle_rebuild(self):
        f = make_field(8)
        for g in (copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert g == f and g.name == f.name
            assert not g.add.flags.writeable and not g.mul.flags.writeable

    def test_inverse_errors_keep_their_texts(self):
        gf5 = make_field(5)
        mul = gf5.mul.tolist()
        mul[3][2] = 3   # row 3 keeps no 1: 3*2 was 1
        f = replace(gf5, mul=mul)
        with pytest.raises(InternalInconsistencyError, match="^no multiplicative inverse for 3$"):
            f.mul_inverse(3)
        with pytest.raises(InternalInconsistencyError, match="^no multiplicative inverse for 3$"):
            multiplicative_group(f)
        add = gf5.add.tolist()
        add[4][1] = 4   # row 4 keeps no 0
        with pytest.raises(InternalInconsistencyError, match="^no additive inverse for 4$"):
            replace(gf5, add=add).neg(4)


# --------------------------------------------------------------------
# extension fields and moduli


class TestExtensionFields:
    def test_gf4_frozen_products(self):
        f = make_field(4)  # elements 0, 1, x, x+1
        assert f.mul[2][2] == 3  # x*x = x+1
        assert f.mul[2][3] == 1  # x*(x+1) = 1
        assert f.add[2][3] == 1  # x + (x+1) = 1
        assert f.add[2][2] == 0  # characteristic 2

    def test_default_moduli_frozen_and_least(self):
        expected = {
            4: [1, 1, 1],          # x^2+x+1
            8: [1, 1, 0, 1],       # x^3+x+1
            9: [1, 0, 1],          # x^2+1
            16: [1, 1, 0, 0, 1],   # x^4+x+1
            25: [2, 0, 1],         # x^2+2
            27: [1, 2, 0, 1],      # x^3+2x+1
        }
        for q, poly in expected.items():
            p = 2 if q in (4, 8, 16) else (3 if q in (9, 27) else 5)
            deg = len(poly) - 1
            assert default_modulus(p, deg) == poly
            assert oracle_irreducible(poly, p)
            # least in scan order: everything before it is reducible
            for cand in monic_polys_ascending(p, deg):
                if cand == poly:
                    break
                assert not oracle_irreducible(cand, p), (q, cand)

    def test_irreducibility_matches_sympy(self):
        # every monic polynomial of degree m over GF(p) with p^m <= 128
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        checked = 0
        for p in sympy.primerange(2, 129):
            m = 1
            while p ** m <= 128:
                for coeffs in monic_polys_ascending(p, m):
                    expected = sympy.Poly(coeffs[::-1], x, modulus=p).is_irreducible
                    assert (_irreducibility_witness(coeffs, p) is None) == expected, (p, coeffs)
                    checked += 1
                m += 1
        assert checked == 2409

    def test_default_moduli_are_the_first_sympy_irreducibles(self):
        # every prime power q = p^m <= 512, in the encoding order
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        for p in sympy.primerange(2, 513):
            m = 1
            while p ** m <= 512:
                first = next(c for c in monic_polys_ascending(p, m)
                             if sympy.Poly(c[::-1], x, modulus=p).is_irreducible)
                assert default_modulus(p, m) == first, (p, m)
                m += 1

    def test_reducible_rejected_with_factor_witness(self):
        # x^2+1 = (x+1)^2 over GF(2)
        with pytest.raises(NotIrreducibleError) as ei:
            make_extension_field(2, [1, 0, 1])
        factor = ei.value.factor
        assert len(factor) >= 2 and factor[-1] == 1
        # the witness really divides: multiply back by the cofactor scan
        assert not oracle_irreducible([1, 0, 1], 2)

    def test_non_monic_rejected(self):
        with pytest.raises(NotMonicError):
            make_extension_field(2, [1, 1, 0])  # leading zero
        with pytest.raises(NotMonicError):
            make_extension_field(3, [1, 2])  # degree < 2
        with pytest.raises(NotMonicError):
            make_extension_field(3, [1, 0, 2])  # leading 2

    def test_size_cap(self):
        with pytest.raises(SizeLimitExceededError):
            make_field(1024)

    def test_make_field_dispatch(self):
        assert make_field(7).m == 1
        f = make_field(8)
        assert (f.p, f.m) == (2, 3)
        with pytest.raises(NotPrimeError):
            make_field(12)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
    def test_axioms_pass(self, q):
        rep = verify_field_axioms(make_field(q))
        assert rep.overall, (q, rep.checks)

    def test_non_field_gives_a_report(self):
        gf9 = make_field(9)
        mul = gf9.mul.tolist()
        mul[2][3], mul[2][4] = mul[2][4], mul[2][3]
        f = replace(gf9, mul=mul)
        with time_limit(10):
            rep = verify_field_axioms(f)
            with pytest.raises(InternalInconsistencyError, match="never reach"):
                multiplicative_group(f)
        assert not rep.overall
        assert rep.checks["field_axioms"].witness == ("right_distributive", 1, 1, 3)
        assert not rep.checks["multiplicative_cyclic"].ok

    def test_digit_encoding(self):
        # element index = ascending base-p digit encoding of coefficients
        f = make_field(9)  # modulus x^2+1
        # element 3 = x (digits [0,1]); x * x = -1 = 2
        assert f.mul[3][3] == 2
        # (1 + x) + (2 + x) = 2x = index 6
        assert f.add[4][5] == 6


# --------------------------------------------------------------------
# table checker


class TestCheckFieldTables:
    def test_valid(self):
        f = make_field(5)
        ok, what, witness = check_field_tables(f.add, f.mul, f.zero, f.one)
        assert ok and witness is None

    def test_symmetric_mul_mutation_gives_distributivity_witness(self):
        f = make_field(5)
        mul = f.mul.tolist()
        mul[2][3] = mul[3][2] = 2  # keeps commutativity
        ok, what, witness = check_field_tables(f.add, mul, f.zero, f.one)
        assert not ok
        assert what == "right_distributive"
        assert witness == (1, 1, 3)
        # replay: (1+1)*3 != 1*3 + 1*3 under the mutated table
        assert mul[f.add[1][1]][3] != f.add[mul[1][3]][mul[1][3]]

    def test_zero_equals_one_rejected(self):
        ok, what, _ = check_field_tables([[0]], [[0]], 0, 0)
        assert not ok and what == "zero_equals_one"

    def test_missing_inverse_detected(self):
        # Z4 with multiplication mod 4 is a ring, not a field: 2 has no
        # inverse (and 2*2 = 0 hits the zero-divisor check first)
        add = [[(i + j) % 4 for j in range(4)] for i in range(4)]
        mul = [[(i * j) % 4 for j in range(4)] for i in range(4)]
        ok, what, witness = check_field_tables(add, mul, 0, 1)
        assert not ok
        assert what in ("mul_inverse", "mul_zero_divisor")

    @pytest.mark.parametrize("edit, location, text", [
        (lambda t: t["add"][1].__setitem__(2, 3.5), "add[1][2]", "value 3.5 is not an integer"),
        (lambda t: t["mul"][2].__setitem__(3, -1), "mul[2][3]", "value -1 outside [0, 4)"),
        (lambda t: t["add"][3].__setitem__(0, 4), "add[3][0]", "value 4 outside [0, 4)"),
        (lambda t: t["mul"][1].pop(), "mul[1]", "expected 4 columns, got 3"),
        (lambda t: t.__setitem__("mul", [row[:3] for row in t["mul"][:3]]), "mul",
         "expected 4 rows, got 3"),
        (lambda t: t.__setitem__("zero", 4), "zero", "value 4 outside [0, 4)"),
        (lambda t: t.__setitem__("one", True), "one", "value True is not an integer"),
    ])
    def test_malformed_tables_are_refused(self, edit, location, text):
        # a 3.5 was truncated and passed, a -1 wrapped to a bogus witness,
        # and the rest raised IndexError or ValueError
        f = make_field(4)
        tables = {"add": f.add.tolist(), "mul": f.mul.tolist(), "zero": 0, "one": 1}
        edit(tables)
        with pytest.raises(MalformedTablesError) as ei:
            check_field_tables(**tables)
        assert (ei.value.location, str(ei.value)) == (location, f"{location}: {text}")

    @pytest.mark.parametrize("name", ["add", "mul"])
    @pytest.mark.parametrize("cell", [None, 0, -1, 5, 2 ** 63], ids=str)
    def test_an_array_is_validated_as_its_rows(self, name, cell):
        # an integer array is read as one, never turned into rows
        f = make_field(5)
        tables = {"add": f.add, "mul": f.mul}
        edited = np.array(tables[name], dtype=np.uint64 if cell == 2 ** 63 else np.int64)
        if cell is not None:
            edited[3, 2] = cell
        outcomes = []
        for value in (edited.tolist(), edited.view(loop_oracles.RowlessArray)):
            try:
                outcomes.append(check_field_tables(**{**tables, name: value}, zero=0, one=1))
            except MalformedTablesError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.filterwarnings("ignore::PendingDeprecationWarning")
    def test_matrix_tables_check_as_their_rows(self):
        f = make_field(9)
        mul = f.mul.tolist()
        mul[2][3] = mul[3][2] = 2
        for add, mul in ((f.add, f.mul), (f.add, mul)):
            assert check_field_tables(np.matrix(add), np.matrix(mul), 0, 1) == (
                check_field_tables(np.array(add).tolist(), np.array(mul).tolist(), 0, 1))

    def test_noncommutative_allowed_when_relaxed(self):
        # the relaxed mode only drops the commutativity requirement
        f = make_field(3)
        ok, _, _ = check_field_tables(
            f.add, f.mul, f.zero, f.one, require_commutative_mul=False
        )
        assert ok


# --------------------------------------------------------------------
# multiplicative group and isomorphism


class TestMultiplicativeGroup:
    @pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
    def test_cyclic_of_order_q_minus_1(self, q):
        f = make_field(q)
        g = multiplicative_group(f)
        assert g.order == q - 1
        assert g.identity == f.one - 1
        from hypergroups import element_orders
        assert max(element_orders(g)) == q - 1  # cyclic

    def test_group_index_maps_to_field_index(self):
        f = make_field(4)
        g = multiplicative_group(f)
        # group element h is field element h+1
        for i in range(3):
            for j in range(3):
                assert g.table[i][j] == f.mul[i + 1][j + 1] - 1

    def test_tables_match_loops_up_to_128(self):
        # the definition as loops, for every field order up to 128 that
        # the prime-field cap admits
        for q in range(2, 129):
            try:
                f = make_field(q)
            except (NotPrimeError, SizeLimitExceededError):
                continue
            n, mul = q - 1, f.mul.tolist()
            g = multiplicative_group(f)
            table = [[mul[i + 1][j + 1] - 1 for j in range(n)] for i in range(n)]
            assert g.table.tolist() == table
            assert list(g.inverse) == [f.mul_inverse(i + 1) - 1 for i in range(n)]


class TestFieldIsomorphism:
    def test_same_field(self):
        f = make_field(9)
        iso = field_isomorphism(f, f)
        assert iso is not None

    def test_different_moduli_gf9(self):
        f1 = make_field(9)  # x^2+1
        f2 = make_extension_field(3, parse_poly("x^2+x+2"))
        iso = field_isomorphism(f1, f2)
        assert iso is not None
        for a in range(9):
            for b in range(9):
                assert iso[f1.add[a][b]] == f2.add[iso[a]][iso[b]]
                assert iso[f1.mul[a][b]] == f2.mul[iso[a]][iso[b]]

    def test_different_moduli_gf8(self):
        f1 = make_field(8)  # x^3+x+1
        f2 = make_extension_field(2, parse_poly("x^3+x^2+1"))
        iso = field_isomorphism(f1, f2)
        assert iso is not None
        for a in range(8):
            for b in range(8):
                assert iso[f1.mul[a][b]] == f2.mul[iso[a]][iso[b]]

    def test_equal_order_isomorphic_up_to_9(self):
        for q in (2, 3, 4, 5, 7, 8, 9):
            assert field_isomorphism(make_field(q), make_field(q)) is not None

    def test_different_orders(self):
        assert field_isomorphism(make_field(4), make_field(8)) is None


# --------------------------------------------------------------------
# parsing and formatting


class TestPolyParsing:
    def test_parse(self):
        assert parse_poly("x^2+x+1") == [1, 1, 1]
        assert parse_poly("x^3+2x+1") == [1, 2, 0, 1]
        assert parse_poly("x^2+2") == [2, 0, 1]
        assert parse_poly("x") == [0, 1]

    def test_format_round_trip(self):
        for text in ("x^2+x+1", "x^3+2x+1", "x^4+x+1", "x^2+2"):
            assert format_poly(parse_poly(text)) == text

    def test_parse_rejects_garbage(self):
        with pytest.raises(UnknownSpecError):
            parse_poly("y^2+1")
        with pytest.raises(UnknownSpecError):
            parse_poly("")

    @pytest.mark.parametrize("text", ["x^10+1", "x^2000000", "x^99999999",
                                      "x^" + "9" * 5000, "x^" + "0" * 5000 + "12"])
    def test_a_degree_past_any_field_is_refused_first(self, text):
        # "x^99999999" built a 100-million-entry list before any check,
        # and 5,000 digits were past what int() converts
        with pytest.raises(SizeLimitExceededError) as ei:
            parse_poly(text)
        assert str(ei.value) == ("polynomial degree exceeds 9, the most for a field "
                                 "of order <= 512")
        assert parse_poly("x^0009+1") == [1] + [0] * 8 + [1]

    def test_a_long_modulus_is_refused_with_a_short_message(self):
        # the message used to spell out p^m: 1,505 digits at GF(4;x^5000),
        # and past 4,300 digits str() raised ValueError instead
        for m, text in ((7, "field order 2187 exceeds cap 512"),
                        (2_000_000, "field order 3^2000000 exceeds cap 512")):
            with pytest.raises(SizeLimitExceededError) as ei:
                make_extension_field(3, [1] + [0] * (m - 1) + [1])
            assert str(ei.value) == text


class TestFieldSpec:
    def test_plain(self):
        assert parse_field_spec("GF(5)").q == 5
        assert parse_field_spec("GF(8)").modulus == [1, 1, 0, 1]

    def test_explicit_modulus(self):
        f = parse_field_spec("GF(4;x^2+x+1)")
        assert f.q == 4 and f.modulus == [1, 1, 1]

    def test_errors(self):
        with pytest.raises(UnknownSpecError):
            parse_field_spec("GF[5]")
        with pytest.raises(NotPrimeError):
            parse_field_spec("GF(6)")
        with pytest.raises(NotIrreducibleError):
            parse_field_spec("GF(4;x^2+1)")
        with pytest.raises(UnknownSpecError):
            parse_field_spec("GF(8;x^2+x+1)")  # degree mismatch


# --------------------------------------------------------------------
# numpy tables and checks against the loop oracles


@st.composite
def mutated_field_tables(draw):
    """The tables of GF(q), or of the ring Z/n (no field: it fails
    mul_inverse), with up to three entries changed, possibly
    symmetrically, and now and then with zero and one swapped. Changes
    land mostly off the rows and columns of 0 and 1, so that the deeper
    checks are reached."""
    q, ring = draw(st.sampled_from(
        [(q, False) for q in (2, 3, 4, 5, 7, 8, 9)] + [(n, True) for n in (4, 6, 8, 9)]
    ))
    if ring:
        add = [[(i + j) % q for j in range(q)] for i in range(q)]
        mul = [[(i * j) % q for j in range(q)] for i in range(q)]
    else:
        f = make_field(q)
        add, mul = f.add.tolist(), f.mul.tolist()
    cell = st.one_of(st.integers(min(2, q - 1), q - 1), st.integers(0, q - 1))
    for _ in range(draw(st.integers(0, 3))):
        table = draw(st.sampled_from([add, mul]))
        a, b, v = draw(cell), draw(cell), draw(st.integers(0, q - 1))
        table[a][b] = v
        if draw(st.booleans()):
            table[b][a] = v
    zero, one = (1, 0) if draw(st.integers(0, 9)) == 0 else (0, 1)
    return add, mul, zero, one


class TestAgainstLoopOracles:
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(tables=mutated_field_tables(), commutative=st.booleans())
    def test_check_field_tables_matches_loops(self, tables, commutative):
        add, mul, zero, one = tables
        assert check_field_tables(add, mul, zero, one, commutative) == (
            loop_oracles.check_field_tables(add, mul, zero, one, commutative)
        )

    # blocks this small run the generator scans on these small tables
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(tables=mutated_field_tables(), commutative=st.booleans(),
           block=st.sampled_from([1, 8, 64]))
    def test_generator_scans_match_loops(self, tables, commutative, block):
        add, mul, zero, one = tables
        with mock.patch.object(_util, "BLOCK_CELLS", block):
            got = check_field_tables(add, mul, zero, one, commutative)
        assert got == loop_oracles.check_field_tables(add, mul, zero, one, commutative)

    @pytest.mark.parametrize("q", [4, 5, 8])
    def test_every_single_mutation_with_generator_scans(self, q):
        f = make_field(q)
        for name, a, b, v in itertools.product(("add", "mul"), *[range(q)] * 3):
            tables = {"add": f.add.tolist(), "mul": f.mul.tolist()}
            tables[name][a][b] = v
            for commutative in (True, False):
                with mock.patch.object(_util, "BLOCK_CELLS", 1):
                    got = check_field_tables(tables["add"], tables["mul"], 0, 1, commutative)
                assert got == loop_oracles.check_field_tables(
                    tables["add"], tables["mul"], 0, 1, commutative)

    def test_near_fields_and_a_non_associative_algebra(self):
        # tables that fail one law only, so that the generator scan for
        # that law is the one that must catch it
        f = make_field(9)
        fmul = f.mul.tolist()
        squares = {fmul[x][x] for x in range(9)}
        cube = [fmul[fmul[a][a]][a] for a in range(9)]
        # Dickson's near-field: a o b = ab for a square b, a^3 b otherwise
        dickson = [[fmul[a if b in squares else cube[a]][b] for b in range(9)]
                   for a in range(9)]
        opposite = [list(col) for col in zip(*dickson)]
        # GF(2)^3 with basis 1, x, y and x^2 = y, y^2 = 0, xy = yx = x
        basis = {(1, 1): 1, (1, 2): 2, (1, 4): 4, (2, 2): 4, (2, 4): 2, (4, 4): 0}
        algebra = [[0] * 8 for _ in range(8)]
        for a, b in itertools.product(range(8), repeat=2):
            for i, j in itertools.product((1, 2, 4), repeat=2):
                if a & i and b & j:
                    algebra[a][b] ^= basis[min(i, j), max(i, j)]
        xor = [[a ^ b for b in range(8)] for a in range(8)]
        cases = [(f.add, dickson, False, "left_distributive"),
                 (f.add, opposite, False, "right_distributive"),
                 (xor, algebra, True, "mul_associative")]
        for add, mul, commutative, law in cases:
            expect = loop_oracles.check_field_tables(add, mul, 0, 1, commutative)
            assert expect[1] == law
            for block in (1, 8, _util.BLOCK_CELLS):
                with mock.patch.object(_util, "BLOCK_CELLS", block):
                    assert check_field_tables(add, mul, 0, 1, commutative) == expect

    @pytest.mark.parametrize("q", [4, 5])
    def test_every_single_mul_mutation_matches_loops(self, q):
        f = make_field(q)
        for a, b, v in itertools.product(range(q), repeat=3):
            mul = f.mul.tolist()
            mul[a][b] = v
            for commutative in (True, False):
                assert check_field_tables(f.add, mul, 0, 1, commutative) == (
                    loop_oracles.check_field_tables(f.add, mul, 0, 1, commutative)
                )

    @pytest.mark.parametrize(
        "p,m",
        [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 2), (3, 3),
         (3, 4), (5, 2), (5, 3), (7, 2), (11, 2)],
    )
    def test_extension_tables_match_loops(self, p, m):
        irreducible = [c for c in monic_polys_ascending(p, m)
                       if oracle_irreducible(c, p)]
        picks = {0, len(irreducible) // 2, len(irreducible) - 1}
        for modulus in (irreducible[i] for i in sorted(picks)):
            f = make_extension_field(p, modulus)
            assert (f.add.tolist(), f.mul.tolist()) == (
                loop_oracles.extension_tables(p, modulus))
            assert f.add.dtype == f.mul.dtype == np.intp

    @pytest.mark.parametrize("p,m", [(2, 5), (2, 6), (3, 4), (5, 3), (2, 7), (11, 2)])
    def test_field_isomorphism_matches_loops_on_larger_fields(self, p, m):
        # seeded moduli; the orders come from mul, not from a group
        rng = random.Random(p * 100 + m)
        moduli = [c for c in monic_polys_ascending(p, m) if oracle_irreducible(c, p)]
        f1, f2 = (make_extension_field(p, rng.choice(moduli)) for _ in range(2))
        assert field_isomorphism(f1, f2) == loop_oracles.field_isomorphism(f1, f2)

    def test_field_isomorphism_rejects_non_fields(self):
        gf5 = make_field(5)
        mul = gf5.mul.tolist()
        mul[2][3] = mul[3][2] = 0
        zero_divisor = replace(gf5, mul=mul)
        # {1, 2, 3, 4} as the Klein group: no element of order 4
        klein = replace(gf5, mul=[[0] * 5] + [[0] + [1 + ((a - 1) ^ (b - 1))
                                                      for b in range(1, 5)]
                                               for a in range(1, 5)])
        mul = gf5.mul.tolist()
        mul[2][2] = 2  # the powers of 2 stay at 2
        never_one = replace(gf5, mul=mul)
        for bad, match in ((zero_divisor, "zero divisor"), (klein, "not cyclic"),
                           (never_one, "the powers of 1 in GF.5.. never reach")):
            for pair in ((bad, gf5), (gf5, bad)):
                with pytest.raises(InternalInconsistencyError, match=match):
                    field_isomorphism(*pair)

    def test_field_isomorphism_matches_loops(self):
        for q in (4, 8, 9, 16, 25, 27):
            p, m = {4: (2, 2), 8: (2, 3), 9: (3, 2), 16: (2, 4),
                    25: (5, 2), 27: (3, 3)}[q]
            moduli = [c for c in monic_polys_ascending(p, m)
                      if oracle_irreducible(c, p)]
            f1 = make_extension_field(p, moduli[-1])
            f2 = make_field(q)
            assert field_isomorphism(f1, f2) == loop_oracles.field_isomorphism(f1, f2)
