"""Arithmetic in GF(2^m) and in the polynomial ring GF(2)[x].

Polynomials over GF(2) are stored as Python integers: bit ``i`` is the
coefficient of ``x**i``.  The canonical textual form is the hex of that
coefficient word, e.g. ``"0x13"`` is ``x^4 + x + 1``.  Field elements of
GF(2^m) are integers below ``2**m`` holding coordinates in the polynomial
basis (bit 0 = constant term).

Multiplication goes through log/antilog tables indexed by a primitive
element alpha; degrees are limited to 2 <= m <= 16 so the tables stay small
and every exhaustive check (irreducibility, primitivity) is cheap enough to
run at construction time.  Each field is built and checked once per
(m, modulus) and then shared, with read-only numpy copies of its tables
for work over whole arrays of exponents or elements.
"""

from __future__ import annotations

import functools
import operator

import numpy as np


class UnsupportedDegree(ValueError):
    """Extension degree outside the supported range 2..16."""


class NonIrreducibleModulus(ValueError):
    """The supplied modulus polynomial factors over GF(2)."""


class NonPrimitiveModulus(ValueError):
    """The modulus is irreducible but x does not generate the unit group."""


class CoefficientNotInBaseField(ArithmeticError):
    """A conjugate product produced a coefficient outside GF(2).

    This can only happen through an internal arithmetic bug; it is never an
    input error.
    """


class DivisionByZeroPolynomial(ZeroDivisionError):
    """Polynomial division by the zero polynomial."""


#: One fixed primitive polynomial per degree, so codeword bits are
#: reproducible across runs and platforms.  Each entry is verified
#: (irreducible + primitive) the first time a field is created with it.
DEFAULT_MODULUS = {
    2: 0x7,       # x^2 + x + 1
    3: 0xB,       # x^3 + x + 1
    4: 0x13,      # x^4 + x + 1
    5: 0x25,      # x^5 + x^2 + 1
    6: 0x43,      # x^6 + x + 1
    7: 0x89,      # x^7 + x^3 + 1
    8: 0x11D,     # x^8 + x^4 + x^3 + x^2 + 1
    9: 0x211,     # x^9 + x^4 + 1
    10: 0x409,    # x^10 + x^3 + 1
    11: 0x805,    # x^11 + x^2 + 1
    12: 0x1053,   # x^12 + x^6 + x^4 + x + 1
    13: 0x201B,   # x^13 + x^4 + x^3 + x + 1
    14: 0x4443,   # x^14 + x^10 + x^6 + x + 1
    15: 0x8003,   # x^15 + x + 1
    16: 0x1100B,  # x^16 + x^12 + x^3 + x + 1
}


def poly_degree(p: int) -> int:
    """Degree of a GF(2)[x] polynomial; -1 for the zero polynomial."""
    return p.bit_length() - 1


def poly_mul(a: int, b: int) -> int:
    """Carry-less product of two GF(2)[x] polynomials.

    The loop runs over the bits of the shorter operand, whichever it is.
    A negative operand, which has no last bit to reach, raises ValueError.
    """
    if a < 0 or b < 0:
        raise ValueError(f"negative polynomial operand in {a} * {b}")
    if b.bit_length() > a.bit_length():
        a, b = b, a
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def poly_square(a: int) -> int:
    """Square of a GF(2)[x] polynomial: bit i of ``a`` moves to bit 2i, as
    the cross terms cancel in pairs.  A zero digit goes between every two
    binary digits of ``a``; a negative operand raises ValueError."""
    if a < 0:
        raise ValueError(f"negative polynomial operand in {a}^2")
    return int("0".join(format(a, "b")), 2)


def poly_divrem(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of GF(2)[x] division: a = q*b + r, deg r < deg b;
    a negative operand raises ValueError, as in ``poly_mul``."""
    if a < 0 or b < 0:
        raise ValueError(f"negative polynomial operand in {a} / {b}")
    if b == 0:
        raise DivisionByZeroPolynomial("division by zero polynomial")
    db = poly_degree(b)
    q = 0
    while a.bit_length() - 1 >= db and a:
        shift = a.bit_length() - 1 - db
        q |= 1 << shift
        a ^= b << shift
    return q, a


def poly_mod(a: int, b: int) -> int:
    return poly_divrem(a, b)[1]


def poly_is_irreducible(p: int) -> bool:
    """Irreducibility over GF(2) by trial division up to degree deg(p)//2."""
    d = poly_degree(p)
    if d <= 0:
        return False
    if d == 1:
        return True
    if not (p & 1):        # divisible by x
        return False
    for trial in range(2, 1 << (d // 2 + 1)):
        if poly_degree(trial) >= 1 and poly_mod(p, trial) == 0:
            return False
    return True


def row_basis(rows: list[int]) -> list[int]:
    """Independent rows spanning the same GF(2) space as ``rows``.

    Rows are bit vectors stored as integers; each is reduced by the basis
    rows' leading bits until it is zero or has a new leading bit, so the
    length of the result is the rank.
    """
    lead: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in lead:
                lead[top] = row
                break
            row ^= lead[top]
    return list(lead.values())


def cyclotomic_coset(e: int, m: int) -> list[int]:
    """Orbit of exponent e under doubling mod 2^m - 1, starting at e.

    The orbit indexes the conjugates alpha^(e * 2^j) of alpha^e; its size is
    the degree of the minimal polynomial of alpha^e.
    """
    n = (1 << m) - 1
    e %= n
    out = [e]
    cur = (e * 2) % n
    while cur != e:
        out.append(cur)
        cur = (cur * 2) % n
    return out


class FieldContext:
    """GF(2^m) with log/antilog tables over a verified primitive modulus.

    Elements are ints < 2^m in the polynomial basis.  ``exp[i]`` holds
    alpha^i for 0 <= i < 2^m - 1, and ``log[a]`` inverts that for nonzero a
    (``log[0]`` is 0).  ``exp_array`` is a read-only int64 numpy copy of
    ``exp``.  Instances are immutable after construction; ``field_create``
    shares one per (m, modulus).
    """

    __slots__ = ("m", "modulus", "order", "exp", "log", "exp_array")

    def __init__(self, m: int, modulus: int | None = None):
        if not (2 <= m <= 16):
            raise UnsupportedDegree(f"m={m} outside supported range 2..16")
        if modulus is None:
            modulus = DEFAULT_MODULUS[m]
        if modulus < 0:
            # no GF(2)[x] polynomial; poly_divrem would never end on it
            raise NonIrreducibleModulus(f"modulus {hex(modulus)} is negative")
        if poly_degree(modulus) != m:
            raise NonIrreducibleModulus(
                f"modulus {hex(modulus)} does not have degree {m}")
        if not poly_is_irreducible(modulus):
            raise NonIrreducibleModulus(
                f"modulus {hex(modulus)} factors over GF(2)")
        self.m = m
        self.modulus = modulus
        self.order = (1 << m) - 1

        # exp table by repeated multiplication by x and reduction; if alpha
        # returns to 1 early the modulus is irreducible but not primitive.
        exp = [0] * self.order
        log = [0] * (1 << m)
        a = 1
        for i in range(self.order):
            if a == 1 and i > 0:
                raise NonPrimitiveModulus(
                    f"ord(x) = {i} < {self.order} for modulus {hex(modulus)}")
            exp[i] = a
            log[a] = i
            a <<= 1
            if a >> m:
                a ^= modulus
        if a != 1:
            raise NonPrimitiveModulus(
                f"x^{self.order} != 1 for modulus {hex(modulus)}")
        self.exp = exp
        self.log = log
        self.exp_array = np.array(exp, dtype=np.int64)
        self.exp_array.flags.writeable = False

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % self.order]

    def alpha_pow(self, e: int) -> int:
        """alpha^e for any integer e (reduced mod 2^m - 1)."""
        return self.exp[e % self.order]

    def minimal_polynomial(self, exponent: int) -> int:
        """Minimal polynomial over GF(2) of beta = alpha^exponent.

        Expands prod_j (x - beta^(2^j)) over the conjugate orbit in
        GF(2^m)[x] and checks every coefficient lands in {0, 1}.  The result
        is returned as a GF(2)[x] bitmask; its degree equals the size of the
        cyclotomic coset of ``exponent``.
        """
        coset = cyclotomic_coset(exponent, self.m)
        # coeffs[i] is a field element; start with the constant poly 1
        coeffs = [1]
        for j in coset:
            root = self.alpha_pow(j)
            # multiply running product by (x + root)
            nxt = [0] * (len(coeffs) + 1)
            for i, ci in enumerate(coeffs):
                nxt[i + 1] ^= ci
                nxt[i] ^= self.mul(ci, root)
            coeffs = nxt
        out = 0
        for i, ci in enumerate(coeffs):
            if ci not in (0, 1):
                raise CoefficientNotInBaseField(
                    f"coefficient {ci} of x^{i} not in GF(2); "
                    f"exponent={exponent}, coset={coset}")
            out |= ci << i
        return out

    def __repr__(self) -> str:
        return f"FieldContext(m={self.m}, modulus={hex(self.modulus)})"


def field_create(m: int, modulus: int | None = None) -> FieldContext:
    """GF(2^m) over ``modulus``, ``DEFAULT_MODULUS[m]`` when None.

    The first call for an (m, modulus) builds the field and verifies that
    the modulus is irreducible and primitive; later calls return that same
    context while it is among the 16 fields used last.  A modulus that
    fails its check raises on every call, as a failure is never kept.
    """
    m = operator.index(m)
    return _shared_field(m, DEFAULT_MODULUS.get(m) if modulus is None
                         else modulus)


# the 15 default fields and one more; an m = 16 field holds 6 MiB of tables
@functools.lru_cache(maxsize=16)
def _shared_field(m: int, modulus: int | None) -> FieldContext:
    return FieldContext(m, modulus)
