"""Small finite fields GF(p^m) as explicit tables.

Element i encodes the polynomial whose coefficients are the base-p
digits of i (coefficient of x^j = j-th digit), so elements sort by
coefficient tuple with zero first and one second. Prime fields use the
same table-driven representation for uniformity.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

import numpy as np

from ._util import CheckResult, Report, first_failure, first_failure_on
from .errors import (
    InternalInconsistencyError,
    NotIrreducibleError,
    NotMonicError,
    NotPrimeError,
    SizeLimitExceededError,
    UnknownSpecError,
)
from .groups import (FiniteGroup, _associative_mask, _right_generators,
                     element_orders)

MAX_FIELD_ORDER = 512
MAX_PRIME = 97


@dataclass
class FiniteField:
    p: int
    m: int
    modulus: list[int]  # ascending coefficients, length m+1, monic
    q: int
    add: list[list[int]]
    mul: list[list[int]]
    zero: int
    one: int
    name: str

    def neg(self, a: int) -> int:
        for b in range(self.q):
            if self.add[a][b] == self.zero:
                return b
        raise InternalInconsistencyError(f"no additive inverse for {a}")

    def mul_inverse(self, a: int) -> int:
        for b in range(self.q):
            if self.mul[a][b] == self.one:
                return b
        raise InternalInconsistencyError(f"no multiplicative inverse for {a}")

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
    add = [[(i + j) % p for j in range(p)] for i in range(p)]
    mul = [[(i * j) % p for j in range(p)] for i in range(p)]
    return FiniteField(
        p=p, m=1, modulus=[0, 1], q=p, add=add, mul=mul,
        zero=0, one=1 % p, name=f"GF({p})",
    )


def make_extension_field(p: int, modulus) -> FiniteField:
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
    q = p ** m
    if q > MAX_FIELD_ORDER:
        raise SizeLimitExceededError(
            f"field order {q} exceeds cap {MAX_FIELD_ORDER}"
        )
    factor = _irreducibility_witness(modulus, p)
    if factor is not None:
        raise NotIrreducibleError(factor)
    weights = p ** np.arange(m)
    digits = np.arange(q)[:, None] // weights % p   # digits[i, j]: x^j in i
    add = ((digits[:, None, :] + digits[None, :, :]) % p * weights).sum(axis=-1)
    # prod[i, k, d]: coefficient of x^d in (element i) * (element k)
    prod = np.zeros((q, q, 2 * m - 1), dtype=np.intp)
    for j in range(m):
        prod[:, :, j:j + m] += digits[:, None, j, None] * digits[None, :, :]
    # reduce from the top; the modulus is monic so no inverse is needed
    low = np.array(modulus[:m])
    for d in range(2 * m - 2, m - 1, -1):
        prod[:, :, d - m:d] -= prod[:, :, d, None] % p * low
    mul = (prod[:, :, :m] % p * weights).sum(axis=-1)
    return FiniteField(
        p=p, m=m, modulus=modulus, q=q, add=add.tolist(), mul=mul.tolist(),
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
    """Parse "x^2+x+1" style polynomials into ascending coefficients."""
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
        c = int(coef) if coef is not None else 1
        d = 0 if has_x is None else (int(exp) if exp is not None else 1)
        coeffs[d] = coeffs.get(d, 0) + c
    degree = max(coeffs)
    return [coeffs.get(d, 0) for d in range(degree + 1)]


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
    """Field spec strings: "GF(5)", "GF(4;x^2+x+1)"."""
    m = _FIELD_SPEC_RE.match(spec.strip())
    if not m:
        raise UnknownSpecError(f"unknown field spec {spec!r}")
    q = int(m.group(1))
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
    """F* on the q-1 nonzero elements; group index h is field index h+1."""
    n = f.q - 1
    table = np.asarray(f.mul, dtype=np.intp)[1:, 1:] - 1
    if (table < 0).any():
        raise InternalInconsistencyError("zero divisor in the nonzero elements")
    inverse = [f.mul_inverse(i + 1) - 1 for i in range(n)]
    group = FiniteGroup(
        order=n, table=table, identity=f.one - 1, inverse=inverse,
        name=f"{f.name}*",
    )
    if n not in element_orders(group):
        raise InternalInconsistencyError(f"{group.name} is not cyclic")
    return group


def check_field_tables(
    add,
    mul,
    zero: int,
    one: int,
    require_commutative_mul: bool = True,
) -> tuple[bool, str, tuple | None]:
    """Field axioms on raw tables; returns (ok, failing check, witness).

    Shared between constructed fields and reconstruction candidates;
    with require_commutative_mul off it checks a division ring instead.
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
    n = len(add)
    A = np.asarray(add, dtype=np.intp).reshape(n, n)
    M = np.asarray(mul, dtype=np.intp).reshape(n, n)
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
    mul_block = [("left_distributive", left_distributive),
                 ("right_distributive", right_distributive),
                 ("mul_associative", _associative_mask(M))]
    if require_commutative_mul:
        mul_block.insert(0, ("mul_commutative", commutative(M)))
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
    index h, read from mul by walking the powers of all of them at once.
    As with multiplicative_group, InternalInconsistencyError is raised
    for a zero divisor among the nonzero elements, or when they are no
    cyclic group: some powers never reach one, or no order is q - 1."""
    n = f.q - 1
    units = np.asarray(f.mul, dtype=np.intp)[1:, 1:].ravel() - 1
    if (units < 0).any():
        raise InternalInconsistencyError("zero divisor in the nonzero elements")
    x = np.arange(n, dtype=np.intp)
    power, orders = x, np.zeros(n, dtype=np.intp)
    for k in range(1, n + 1):  # power = x^k
        orders[(power == f.one - 1) & (orders == 0)] = k
        power = units.take(power * n + x)
    orders = orders.tolist()
    if 0 in orders or n not in orders:
        raise InternalInconsistencyError(f"{f.name}* is not cyclic")
    return orders


def field_isomorphism(f1: FiniteField, f2: FiniteField) -> list[int] | None:
    """An explicit field isomorphism as a mapping list, or None.

    Sends a multiplicative generator of f1 to each element of the same
    multiplicative order in f2 (ascending), extends multiplicatively,
    and keeps the first map that is also additive. Both must be fields:
    _unit_orders raises if either has zero divisors or a multiplicative
    group that is not cyclic.
    """
    if f1.q != f2.q:
        return None
    n = f1.q - 1
    # index h of the orders is field element h + 1
    orders1, orders2 = _unit_orders(f1), _unit_orders(f2)
    g1 = orders1.index(n) + 1
    add1 = np.asarray(f1.add, dtype=np.intp)
    add2 = np.asarray(f2.add, dtype=np.intp)
    for cand in (h + 1 for h, k in enumerate(orders2) if k == n):
        mapping = [f2.zero] * f1.q
        mapping[f1.one] = f2.one
        x = f1.one
        image = f2.one
        for _ in range(f1.q - 2):
            x = f1.mul[x][g1]
            image = f2.mul[image][cand]
            mapping[x] = image
        image_of = np.asarray(mapping, dtype=np.intp)
        if (image_of[add1] == add2[image_of[:, None], image_of[None, :]]).all():
            return mapping
    return None
