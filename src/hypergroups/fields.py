"""Small finite fields GF(p^m) as explicit tables.

Element i encodes the polynomial whose coefficients are the base-p
digits of i (coefficient of x^j = j-th digit), so elements sort by
coefficient tuple with zero first and one second. Prime fields use the
same table-driven representation for uniformity.

Extension fields are built from exp/log tables: addition digitwise, and
multiplication as exp[(log a + log b) mod (q - 1)] from the powers of
the first primitive element. A FiniteField is frozen, and keeps each
table once, as a read-only intp array made and checked at construction;
a Python loop over its cells reads rows or columns taken with tolist()
once per call.
"""

from __future__ import annotations

import functools
import re
import sys
from dataclasses import dataclass

import numpy as np

from ._util import (CheckResult, Report, as_int, fields_equal, first_failure, first_failure_on,
                    int_table, row_count)
from .errors import (
    InternalInconsistencyError,
    MalformedTablesError,
    NotIrreducibleError,
    NotMonicError,
    NotPrimeError,
    SizeLimitExceededError,
    UnknownSpecError,
)
from .groups import FiniteGroup, _associative_mask, _right_generators, _square_table

MAX_FIELD_ORDER = 512
MAX_PRIME = 97
MAX_DEGREE = MAX_FIELD_ORDER.bit_length() - 1  # of a modulus: p^m within the cap, p >= 2


@dataclass(frozen=True, eq=False)
class FiniteField:
    """GF(q) as tables: add and mul, given as rows or as integer arrays,
    are kept as read-only intp arrays, made and checked once at
    construction: q rows of q cells in [0, q), else the error
    FiniteGroup raises for its table. Fields compare by value; copy and
    pickle rebuild through the constructor."""

    p: int
    m: int
    modulus: list[int]  # ascending coefficients, length m+1, monic
    q: int
    add: np.ndarray
    mul: np.ndarray
    zero: int
    one: int
    name: str

    def __post_init__(self):
        for name in ("add", "mul"):
            object.__setattr__(self, name, _square_table(getattr(self, name), self.q, name))

    def __reduce__(self):
        return (FiniteField, (self.p, self.m, self.modulus, self.q, self.add,
                              self.mul, self.zero, self.one, self.name))

    __eq__ = fields_equal

    def neg(self, a: int) -> int:
        hits = np.flatnonzero(self.add[a] == self.zero)
        if not len(hits):
            raise InternalInconsistencyError(f"no additive inverse for {a}")
        return int(hits[0])

    def mul_inverse(self, a: int) -> int:
        hits = np.flatnonzero(self.mul[a] == self.one)
        if not len(hits):
            raise InternalInconsistencyError(f"no multiplicative inverse for {a}")
        return int(hits[0])

    def __repr__(self) -> str:
        return f"FiniteField({self.name})"


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _factor_prime_power(q: int) -> tuple[int, int]:
    """q = p^m with p prime, or NotPrime."""
    if q < 2:
        raise NotPrimeError(f"{q} is not a prime power")
    p = 2
    while p * p <= q and q % p:
        p += 1
    if q % p:
        p = q
    m = 0
    rest = q
    while rest % p == 0:
        rest //= p
        m += 1
    if rest != 1:
        raise NotPrimeError(f"{q} is not a prime power")
    return p, m


def _digits(n: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        n, r = divmod(n, p)
        out.append(r)
    return out


def _poly_divides(divisor: list[int], poly: list[int], p: int) -> bool:
    """Whether the monic divisor divides poly over GF(p)."""
    rem = list(poly)
    dd = len(divisor) - 1
    while True:
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dd:
            break
        lead = rem[-1]
        shift = len(rem) - 1 - dd
        for j in range(dd + 1):
            rem[shift + j] = (rem[shift + j] - lead * divisor[j]) % p
    return not rem


def _irreducibility_witness(modulus: list[int], p: int) -> list[int] | None:
    """A monic proper factor of the modulus, or None. Trial division by
    all monic polynomials of degree up to deg/2; fine at q <= 512."""
    m = len(modulus) - 1
    for d in range(1, m // 2 + 1):
        for enc in range(p ** d):
            candidate = _digits(enc, p, d) + [1]
            if _poly_divides(candidate, modulus, p):
                return candidate
    return None


def make_prime_field(p: int) -> FiniteField:
    if not _is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    if p > MAX_PRIME:
        raise SizeLimitExceededError(f"prime fields capped at p <= {MAX_PRIME}")
    x = np.arange(p)
    return FiniteField(
        p=p, m=1, modulus=[0, 1], q=p, add=(x[:, None] + x) % p,
        mul=x[:, None] * x % p, zero=0, one=1 % p, name=f"GF({p})",
    )


def make_extension_field(p: int, modulus) -> FiniteField:
    """GF(p^m) as GF(p)[x] / (modulus), from exp/log tables.

    Addition is digitwise: the table of digits 0..j is the sum table of
    digit j, times p^j, spread over that of digits 0..j-1. For
    multiplication, each g = 2, 3, ... in turn gives the matrix of the
    GF(p)-linear map y -> yg (row j: the digits of x^j g), applied to
    every element at once, and the powers g^0, ..., g^(q-2) are walked;
    the first g with no 1 among g^1, ..., g^(q-2) is primitive, and its
    walk is exp (exp[k] = g^k) with log its inverse.
    Then ab = exp[(log a + log b) mod (q - 1)] for nonzero a, b (R. Lidl
    and H. Niederreiter, Finite Fields, ch. 9).
    """
    if not _is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    modulus = [int(c) % p for c in modulus]
    if not modulus or modulus[-1] == 0:
        raise NotMonicError("leading coefficient is 0 mod p")
    m = len(modulus) - 1
    if m < 2:
        raise NotMonicError("extension modulus must have degree >= 2")
    if modulus[-1] != 1:
        raise NotMonicError(f"leading coefficient {modulus[-1]} != 1")
    if m > MAX_DEGREE or p ** m > MAX_FIELD_ORDER:
        order = p ** m if m <= MAX_DEGREE else f"{p}^{m}"
        raise SizeLimitExceededError(f"field order {order} exceeds cap {MAX_FIELD_ORDER}")
    q = p ** m
    factor = _irreducibility_witness(modulus, p)
    if factor is not None:
        raise NotIrreducibleError(factor)
    weights = p ** np.arange(m)
    digits = np.arange(q)[:, None] // weights % p   # digits[i, j]: x^j in i
    z = np.arange(p)
    add = np.zeros((1, 1), dtype=np.intp)   # the sums on no digits
    for j in range(m):   # digit j above the table of digits 0..j-1
        top = (z[:, None] + z) % p * p ** j
        add = (top[:, None, :, None] + add[None, :, None, :]).reshape(p ** (j + 1), -1)
    low = np.array(modulus[:m])
    for g in range(2, q):
        rows = [digits[g]]   # rows[j]: the digits of x^j g
        for _ in range(m - 1):   # times x: shift up, and x^m = -low
            y = rows[-1]
            rows.append((np.concatenate(([0], y[:-1])) - y[-1] * low) % p)
        times_g = (digits @ np.array(rows) % p @ weights).tolist()
        exp = [1]
        for _ in range(q - 2):
            exp.append(times_g[exp[-1]])
        if exp.count(1) == 1:   # no power below q - 1 is one
            break
    exp = np.array(exp)
    log = np.zeros(q, dtype=np.intp)
    log[exp] = np.arange(q - 1)
    mul = np.zeros((q, q), dtype=np.intp)
    mul[1:, 1:] = exp[(log[1:, None] + log[1:]) % (q - 1)]
    return FiniteField(
        p=p, m=m, modulus=modulus, q=q, add=add, mul=mul,
        zero=0, one=1, name=f"GF({q};{format_poly(modulus)})",
    )


def default_modulus(p: int, m: int) -> list[int]:
    """The first monic irreducible of degree m in the element encoding
    order (scan n = 0, 1, ... as the non-leading coefficients)."""
    for enc in range(p ** m):
        candidate = _digits(enc, p, m) + [1]
        if _irreducibility_witness(candidate, p) is None:
            return candidate
    raise InternalInconsistencyError(
        f"no irreducible monic polynomial of degree {m} over GF({p})"
    )


def make_field(q: int) -> FiniteField:
    """GF(q) with the default modulus when q is a proper prime power."""
    if q > MAX_FIELD_ORDER:
        raise SizeLimitExceededError(f"field order {q} exceeds cap {MAX_FIELD_ORDER}")
    p, m = _factor_prime_power(q)
    if m == 1:
        return make_prime_field(p)
    return make_extension_field(p, default_modulus(p, m))


_TERM_RE = re.compile(r"^(\d+)?(?:(x)(?:\^(\d+))?)?$")


def parse_poly(text: str) -> list[int]:
    """Parse "x^2+x+1" style polynomials into ascending coefficients. A
    degree past MAX_DEGREE, which no field within MAX_FIELD_ORDER has,
    raises SizeLimitExceededError before any list is made, and so does a
    coefficient too long for _numeral."""
    text = text.replace(" ", "").replace("*", "")
    terms = text.split("+")
    coeffs: dict[int, int] = {}
    for term in terms:
        m = _TERM_RE.match(term)
        if not m or not term:
            raise UnknownSpecError(f"cannot parse polynomial term {term!r}")
        coef, has_x, exp = m.groups()
        if coef is None and has_x is None:
            raise UnknownSpecError(f"cannot parse polynomial term {term!r}")
        c = 1 if coef is None else _numeral(coef, "polynomial coefficient")
        d = 0 if has_x is None else 1
        if exp is not None:
            # compared as text first: int() refuses long numerals, leading
            # zeros included
            exp = exp.lstrip("0") or "0"
            if len(exp) > len(str(MAX_DEGREE)) or int(exp) > MAX_DEGREE:
                raise SizeLimitExceededError(f"polynomial degree exceeds {MAX_DEGREE}, the most "
                                             f"for a field of order <= {MAX_FIELD_ORDER}")
            d = int(exp)
        coeffs[d] = coeffs.get(d, 0) + c
    degree = max(coeffs)
    return [coeffs.get(d, 0) for d in range(degree + 1)]


def _numeral(digits: str, what: str) -> int:
    """The value of a string of decimal digits. Compared as text first:
    past the most digits that int() converts under any
    sys.set_int_max_str_digits (leading zeros aside),
    SizeLimitExceededError names what."""
    digits, limit = digits.lstrip("0") or "0", sys.int_info.str_digits_check_threshold
    if len(digits) > limit:
        raise SizeLimitExceededError(f"{what} of {len(digits)} digits is longer than {limit} digits")
    return int(digits)


def format_poly(coeffs: list[int]) -> str:
    parts = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d]
        if c == 0:
            continue
        if d == 0:
            parts.append(str(c))
        elif d == 1:
            parts.append("x" if c == 1 else f"{c}x")
        else:
            parts.append(f"x^{d}" if c == 1 else f"{c}x^{d}")
    return "+".join(parts) if parts else "0"


_FIELD_SPEC_RE = re.compile(r"^GF\((\d+)(?:;(.*))?\)$")


def parse_field_spec(spec: str) -> FiniteField:
    """Field spec strings: "GF(5)", "GF(4;x^2+x+1)". An order too long
    for _numeral raises SizeLimitExceededError."""
    m = _FIELD_SPEC_RE.match(spec.strip())
    if not m:
        raise UnknownSpecError(f"unknown field spec {spec!r}")
    q = _numeral(m.group(1), "field order")
    poly = m.group(2)
    if poly is None:
        return make_field(q)
    p, _ = _factor_prime_power(q)
    f = make_extension_field(p, parse_poly(poly))
    if f.q != q:
        raise UnknownSpecError(
            f"modulus degree gives order {f.q}, spec says {q}"
        )
    return f


def multiplicative_group(f: FiniteField) -> FiniteGroup:
    """F* on the q-1 nonzero elements; group index h is field index h+1.
    Unless they are a cyclic group, raises as _unit_orders does."""
    _unit_orders(f)
    return FiniteGroup(
        order=f.q - 1, table=f.mul[1:, 1:] - 1, identity=f.one - 1,
        inverse=(f.mul[1:] == f.one).argmax(axis=1) - 1, name=f"{f.name}*",
    )


def check_field_tables(add, mul, zero: int, one: int) -> tuple[bool, str, tuple | None]:
    """Field axioms on raw tables; returns (ok, failing check, witness).

    Shared between constructed fields and reconstruction candidates.
    add sets the order n; add and mul are read by _util.int_table as
    n x n tables over [0, n), and zero and one must be in [0, n), else
    MalformedTablesError.
    The checks run in this order, each reporting the first witness in
    scan order: add_neutral, add_inverse, then add_commutative and
    add_associative over (a, b[, c]), mul_neutral and mul_zero over a,
    then mul_commutative, left_distributive, right_distributive and
    mul_associative over (a, b[, c]), and last mul_inverse.

    Past one first_failure block, each group of cubic checks is first
    scanned with c over G only, G the _right_generators of add
    (first_failure_on), and only a failure there runs the full group,
    which gives the witness. Commutativity is checked in full. Every
    element is a sum g1+...+gk of members of G, so a set that contains
    G and is closed under + is the whole of it; the earlier
    checks give 0 + x = x, a0 = 0 and, before the mul group, that add is
    commutative and associative. The add group: the c with (a+b)+c =
    a+(b+c) for all a, b are closed under + (Light's test). In the mul
    group, for all a, b, and c, d in the set:
      a(b+c) = ab+ac: a(b+(c+d)) = a((b+c)+d) = a(b+c)+ad = ab+(ac+ad),
        and at b = 0 this reads a(c+d) = ac+ad; so this law holds
        everywhere, and the other two use it;
      (a+b)c = ac+bc: (a+b)(c+d) = (a+b)c+(a+b)d = (ac+bc)+(ad+bd)
        = (ac+ad)+(bc+bd) = a(c+d)+b(c+d);
      (ab)c = a(bc): (ab)(c+d) = (ab)c+(ab)d = a(bc)+a(bd) = a(bc+bd)
        = a(b(c+d)).
    """
    if zero == one:
        return False, "zero_equals_one", (zero,)
    n = row_count(add)
    # not copied: an intp array in range is read as it is
    A = int_table(add, "add", (n, n), n, copy=False)
    M = int_table(mul, "mul", (n, n), n, copy=False)
    for name, value in (("zero", zero), ("one", one)):
        if not 0 <= as_int(value, name) < n:
            raise MalformedTablesError(name, f"value {value} outside [0, {n})")
    ar = np.arange(n, dtype=np.intp)

    flat_add = A.ravel().astype(np.int32)  # a compact copy keeps the gathers in cache

    def add_at(x, y):  # A[x, y] for broadcastable index arrays
        return flat_add.take(x * n + y)

    def commutative(t):  # depth 2: the scan's c plays no part
        return lambda cols: lambda r: t[r] != t.T[r]

    def left_distributive(cols):  # a(b+c) = ab+ac
        A_c, M_c = (A, M) if cols is None else (A[:, cols], M[:, cols])
        return lambda r: M[r].take(A_c, axis=1) != add_at(M[r][:, :, None],
                                                           M_c[r][:, None, :])

    def right_distributive(cols):  # (a+b)c = ac+bc
        M_c = M if cols is None else M[:, cols]
        return lambda r: M_c.take(A[r], axis=0) != add_at(M_c[r][:, None, :], M_c)

    add_block = [("add_commutative", commutative(A)),
                 ("add_associative", _associative_mask(A))]
    mul_block = [("mul_commutative", commutative(M)),
                 ("left_distributive", left_distributive),
                 ("right_distributive", right_distributive),
                 ("mul_associative", _associative_mask(M))]
    add_gens = functools.cache(lambda: _right_generators(
        A, order=[*range(zero), *range(zero + 1, n), zero]))  # zero is a sum

    failure = (
        first_failure((n,), [
            ("add_neutral", lambda r: (A[r, zero] != ar[r]) | (A[zero, r] != ar[r])),
        ])
        or first_failure((n, n), [
            ("add_inverse", lambda r: ~(A[r] == zero).any(axis=1)),
        ])
        or first_failure_on((n, n, n), add_block, add_gens)
        or first_failure((n,), [
            ("mul_neutral", lambda r: (M[r, one] != ar[r]) | (M[one, r] != ar[r])),
            ("mul_zero", lambda r: (M[r, zero] != zero) | (M[zero, r] != zero)),
        ])
        or first_failure_on((n, n, n), mul_block, add_gens)
        or first_failure((n, n), [
            ("mul_inverse", lambda r: (ar[r] != zero) & ~(M[r] == one).any(axis=1)),
        ])
    )
    if failure is None:
        return True, "ok", None
    what, witness = failure
    return False, what, witness


def verify_field_axioms(f: FiniteField) -> Report:
    """Exhaustive check of the FiniteField invariants plus cyclicity of
    the nonzero elements under multiplication. A failing field_axioms
    has the witness (failing check, *indices); a failing
    multiplicative_cyclic has (reason,)."""
    ok, what, witness = check_field_tables(f.add, f.mul, f.zero, f.one)
    checks = {"field_axioms": CheckResult(ok, None if ok else (what, *witness))}
    try:
        multiplicative_group(f)  # raises unless F* is cyclic of order q - 1
        checks["multiplicative_cyclic"] = CheckResult(True)
    except InternalInconsistencyError as exc:
        checks["multiplicative_cyclic"] = CheckResult(False, (str(exc),))
    return Report(checks)


def _unit_orders(f: FiniteField) -> list[int]:
    """The multiplicative order of each nonzero element, element h + 1 at
    index h, read from mul by walking the powers of all of them at once,
    q - 1 steps of q - 1 cells. InternalInconsistencyError is raised for
    a zero divisor among the nonzero elements, then for one with no
    inverse, then at the first h whose powers h^1, ..., h^(q-1) never
    reach one, and last when no order is q - 1 (not cyclic)."""
    n = f.q - 1
    units = f.mul[1:, 1:].ravel() - 1
    if (units < 0).any():
        raise InternalInconsistencyError("zero divisor in the nonzero elements")
    has_inverse = (f.mul[1:] == f.one).any(axis=1)
    if not has_inverse.all():
        raise InternalInconsistencyError(
            f"no multiplicative inverse for {int(has_inverse.argmin()) + 1}")
    x = np.arange(n, dtype=np.intp)
    power, orders = x, np.zeros(n, dtype=np.intp)
    for k in range(1, n + 1):  # power = x^k
        orders[(power == f.one - 1) & (orders == 0)] = k
        power = units.take(power * n + x)
    orders = orders.tolist()
    if 0 in orders:
        raise InternalInconsistencyError(
            f"the powers of {orders.index(0)} in {f.name}* never reach the identity")
    if n not in orders:
        raise InternalInconsistencyError(f"{f.name}* is not cyclic")
    return orders


def field_isomorphism(f1: FiniteField, f2: FiniteField) -> list[int] | None:
    """An explicit field isomorphism as a mapping list, or None.

    Sends a multiplicative generator of f1 to each element of the same
    multiplicative order in f2 (ascending), extends multiplicatively,
    and keeps the first map that is also additive. Both must be fields:
    _unit_orders raises if either has zero divisors or a multiplicative
    group that is not cyclic.

    A map is first tested at b = 1 only, and only a pass there runs the
    test over all (a, b), so the answer is the one the full test gives.
    Between fields a pass at b = 1 is a pass: for b != 0 the map f is
    multiplicative, so f(a + b) = f(b) f(a/b + 1) = f(b) (f(a/b) + 1)
    = f(a) + f(b).
    """
    if f1.q != f2.q:
        return None
    n = f1.q - 1
    # index h of the orders is field element h + 1
    orders1, orders2 = _unit_orders(f1), _unit_orders(f2)
    g1 = orders1.index(n) + 1
    times_g1 = f1.mul[:, g1].tolist()
    for cand in (h + 1 for h, k in enumerate(orders2) if k == n):
        times_cand = f2.mul[:, cand].tolist()
        mapping = [f2.zero] * f1.q
        mapping[f1.one] = f2.one
        x = f1.one
        image = f2.one
        for _ in range(f1.q - 2):
            x = times_g1[x]
            image = times_cand[image]
            mapping[x] = image
        image_of = np.asarray(mapping, dtype=np.intp)
        if ((image_of[f1.add[:, f1.one]] == f2.add[image_of, f2.one]).all()
                and (image_of[f1.add] == f2.add[image_of[:, None], image_of]).all()):
            return mapping
    return None
