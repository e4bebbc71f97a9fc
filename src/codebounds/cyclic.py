"""Binary cyclic codes of length 2^m - 1 with designed distance near n/2.

For even m >= 4 and 1 <= c <= m/2 - 1 the construction removes c cyclotomic
cosets, each of size m, from the root set of x^n - 1.  The resulting code
has dimension c*m and minimum distance at least 2^(m-1) - 2^(m/2+c-1),
certified by a run of consecutive roots alpha^t, ..., alpha^(2^m - 1) of the
generator polynomial g.  The roots are read off the degree-k check
polynomial h = (x^n - 1)/g: alpha^j is a root of g exactly when
h(alpha^j) != 0, one evaluation per cyclotomic coset.  ``minimal_ideals``
splits a built code into its c minimal ideals, whose cyclic-shift orbits
the distance engine enumerates.  A spec object keeps its root flags and
ideals, and an ideal its orbit representatives, once verified: per object,
not per value, and handed out as tuples or new lists.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field as dc_field
from functools import cached_property

from .gf2 import (
    FieldContext,
    cyclotomic_coset,
    field_create,
    poly_degree,
    poly_divrem,
    poly_mod,
    poly_mul,
    row_basis,
)


class InvalidParameters(ValueError):
    """(m, c) outside the construction's hypotheses."""


class CosetCollision(ArithmeticError):
    """Removed cosets overlap or have the wrong size (internal error)."""


class InexactDivision(ArithmeticError):
    """x^n - 1 is not divisible by the product of minimal polynomials."""


class CertificateFailure(ArithmeticError):
    """A claimed root of the generator polynomial failed evaluation."""


class DecompositionFailure(ArithmeticError):
    """The code's ideal or shift-orbit structure contradicts the theory."""


class LengthMismatch(ValueError):
    """Message length does not match the code dimension."""


@dataclass(frozen=True)
class CyclotomicCoset:
    """Doubling orbit mod 2^m - 1 with its defining representative."""

    representative: int
    members: frozenset[int]

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Codeword:
    n: int
    bits: int

    @property
    def weight(self) -> int:
        return self.bits.bit_count()


@dataclass(frozen=True)
class ConstructionSpec:
    """A built code: parameters, generator polynomial, and its field."""

    m: int
    c: int
    n: int
    k: int
    generator: int
    designed_distance: int
    field: FieldContext = dc_field(repr=False, compare=False, default=None)
    cosets: tuple[CyclotomicCoset, ...] = dc_field(compare=False, default=())

    def generator_rows(self) -> list[int]:
        """Generator-matrix rows: bit images of x^i * g(x), i = 0..k-1."""
        return [self.generator << i for i in range(self.k)]

    @cached_property
    def _roots(self) -> tuple[bool, ...]:
        return tuple(_root_flags(self))

    @cached_property
    def _ideals(self) -> tuple[MinimalIdeal, ...]:
        return _split_ideals(self)

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "c": self.c,
            "n": self.n,
            "k": self.k,
            "generator_hex": hex(self.generator),
            "designed_distance": self.designed_distance,
        }


def coset_exponents(m: int, i: int) -> CyclotomicCoset:
    """The i-th removed coset {2^j + 2^(m/2+i+j) mod 2^m - 1 : j = 0..m-1}.

    Raises InvalidParameters unless m is even, m >= 4 and 1 <= i <= m/2 - 1.
    The orbit size must come out to exactly m; anything else indicates a
    parameter outside the construction's range and raises CosetCollision.
    """
    m, i = _check_params(m, i)
    n = (1 << m) - 1
    rep = (1 + (1 << (m // 2 + i))) % n
    members = frozenset(((1 << j) + (1 << (m // 2 + i + j))) % n
                        for j in range(m))
    # the formula set is exactly the doubling orbit of the representative
    orbit = frozenset(cyclotomic_coset(rep, m))
    if members != orbit or len(members) != m:
        raise CosetCollision(
            f"coset of size {len(members)} != m={m} for (m={m}, i={i})")
    return CyclotomicCoset(rep, members)


def _check_params(m: int, c: int) -> tuple[int, int]:
    """(m, c) as ``operator.index`` reads them, or InvalidParameters."""
    m, c = operator.index(m), operator.index(c)
    if m % 2 or m < 4:
        raise InvalidParameters(f"m must be even and >= 4, got {m}")
    if not (1 <= c <= m // 2 - 1):
        raise InvalidParameters(
            f"c must satisfy 1 <= c <= m/2 - 1 = {m // 2 - 1}, got {c}")
    return m, c


def designed_distance(m: int, c: int) -> int:
    """Theorem 1's designed distance 2^(m-1) - 2^(m/2+c-1) of the (m, c) code."""
    m, c = _check_params(m, c)
    return (1 << (m - 1)) - (1 << (m // 2 + c - 1))


def build_code(m: int, c: int, modulus: int | None = None) -> ConstructionSpec:
    """Construct the code for (m, c), verifying every structural claim.

    The c cosets are rebuilt and checked pairwise disjoint, each of size m.
    g(x) = (x^n - 1) / prod_i M_i(x) is computed by exact division; a nonzero
    remainder or a degree other than n - c*m raises.  The returned spec's
    dimension is therefore certified, not assumed.
    """
    m, c = _check_params(m, c)
    ctx = field_create(m, modulus)
    n = (1 << m) - 1
    cosets = []
    seen: set[int] = set()
    h = 1
    for i in range(1, c + 1):
        cs = coset_exponents(m, i)
        if seen & cs.members:
            raise CosetCollision(
                f"coset {i} intersects earlier cosets at "
                f"{sorted(seen & cs.members)}")
        seen |= cs.members
        cosets.append(cs)
        h = poly_mul(h, ctx.minimal_polynomial(cs.representative))
    xn1 = (1 << n) | 1          # x^n - 1 == x^n + 1 over GF(2)
    g, rem = poly_divrem(xn1, h)
    if rem != 0:
        raise InexactDivision(
            f"x^{n}-1 not divisible by coset minimal-polynomial product")
    if poly_degree(g) != n - c * m:
        raise CosetCollision(
            f"deg g = {poly_degree(g)} != n - cm = {n - c * m}")
    return ConstructionSpec(m=m, c=c, n=n, k=c * m, generator=g,
                            designed_distance=designed_distance(m, c),
                            field=ctx, cosets=tuple(cosets))


@dataclass(frozen=True)
class MinimalIdeal:
    """The codewords whose nonzeros lie in one removed cyclotomic coset.

    Its generator is (x^n - 1) / M_e(x) for the coset representative e, so
    the ideal has dimension deg M_e = m.  Evaluating a word at
    beta = alpha^e maps the ideal one-to-one onto GF(2^m) and turns a
    cyclic shift into multiplication by beta, an element of order
    n / gcd(e, n).
    """

    n: int
    exponent: int
    generator: int
    dim: int
    field: FieldContext = dc_field(repr=False, compare=False)

    @property
    def orbit_size(self) -> int:
        """Length of the cyclic-shift orbit of every nonzero word."""
        return self.n // math.gcd(self.exponent, self.n)

    def rows(self) -> list[int]:
        """Basis rows x^j * generator for j = 0..dim-1."""
        return [self.generator << j for j in range(self.dim)]

    def orbit_representatives(self) -> list[int]:
        """One word from each cyclic-shift orbit of the nonzero words.

        The orbits correspond to the cosets alpha^r <beta>, r < gcd(e, n).
        A walk over all 2^dim - 1 nonzero messages a finds, for each r, the
        a with a(beta) = alpha^r; the word a(x) * generator represents the
        orbit.  The walk visits field elements, not n-bit words.  The result
        is then checked by shifting: each orbit must close after exactly
        ``orbit_size`` shifts without meeting another representative, and
        the orbits must cover all 2^dim - 1 nonzero words.  Anything else
        raises ``DecompositionFailure``.  Both run once per ideal object.
        """
        return list(self._orbits)

    @cached_property
    def _orbits(self) -> tuple[int, ...]:
        return _walk_orbits(self)


def _walk_orbits(ideal: MinimalIdeal) -> tuple[int, ...]:
    """The verified words of ``MinimalIdeal.orbit_representatives``."""
    ctx, n, size = ideal.field, ideal.n, ideal.orbit_size
    powers = [ctx.alpha_pow(ideal.exponent * j) for j in range(ideal.dim)]
    target = {ctx.alpha_pow(r): r for r in range(n // size)}
    messages = [0] * len(target)
    value = 0
    for step in range(1, 1 << ideal.dim):     # Gray-code walk over a
        value ^= powers[(step & -step).bit_length() - 1]
        if value in target:
            messages[target[value]] = step ^ (step >> 1)
    reps = [poly_mul(a, ideal.generator) for a in messages]
    if len(reps) * size != (1 << ideal.dim) - 1:
        raise DecompositionFailure(
            f"{len(reps)} orbits of {size} words do not cover the "
            f"ideal of coset {ideal.exponent}")
    mask = (1 << n) - 1
    others = set(reps)
    for word in reps:
        w = word
        for shift in range(1, size + 1):
            w = ((w << 1) | (w >> (n - 1))) & mask
            if w in others:
                break
        if w != word or shift != size:
            raise DecompositionFailure(
                f"shift orbit in the ideal of coset {ideal.exponent} "
                f"does not close after exactly {size} shifts")
    return tuple(reps)


def minimal_ideals(spec: ConstructionSpec) -> list[MinimalIdeal]:
    """Split the code into its c minimal ideals, one per removed coset.

    Each ideal generator is x^n - 1 divided exactly by the coset's minimal
    polynomial (``InexactDivision`` otherwise).  Every ideal must lie in the
    code and their rows together must have rank k, so that their direct sum
    is the code; anything else raises ``DecompositionFailure``.  The split
    and its checks run once per spec object.
    """
    return list(spec._ideals)


def _split_ideals(spec: ConstructionSpec) -> tuple[MinimalIdeal, ...]:
    """The checked ideals of ``minimal_ideals``."""
    xn1 = (1 << spec.n) | 1
    ideals = []
    for cs in spec.cosets:
        mp = spec.field.minimal_polynomial(cs.representative)
        gen, rem = poly_divrem(xn1, mp)
        if rem != 0:
            raise InexactDivision(
                f"x^{spec.n}-1 not divisible by M_{cs.representative}")
        if poly_mod(gen, spec.generator) != 0:
            raise DecompositionFailure(
                f"ideal of coset {cs.representative} is not in the code")
        ideals.append(MinimalIdeal(spec.n, cs.representative, gen,
                                   poly_degree(mp), spec.field))
    rank = len(row_basis([row for ideal in ideals for row in ideal.rows()]))
    if rank != spec.k:
        raise DecompositionFailure(
            f"minimal ideals span rank {rank} != k = {spec.k}")
    return tuple(ideals)


def _eval_at_alpha_pow(ctx: FieldContext, poly: int, j: int) -> int:
    """Evaluate a GF(2)[x] polynomial at alpha^j by Horner's rule."""
    beta = ctx.alpha_pow(j)
    res = 0
    for bit in range(poly_degree(poly), -1, -1):
        res = ctx.mul(res, beta) ^ ((poly >> bit) & 1)
    return res


def _root_flags(spec: ConstructionSpec) -> list[bool]:
    """Whether alpha^j is a root of g, for every exponent j < n.

    Decided through the check polynomial h = (x^n - 1)/g, of degree k, by
    exact division (``CertificateFailure`` if g does not divide x^n - 1).
    Every alpha^j is a root of x^n - 1 = g*h, and n is odd, so the roots
    are simple: alpha^j is a root of g exactly when h(alpha^j) != 0.  h has
    binary coefficients, so h(beta^2) = h(beta)^2 and one evaluation decides
    the whole cyclotomic coset of j.
    """
    n = spec.n
    h, rem = poly_divrem((1 << n) | 1, spec.generator)
    if rem != 0:
        raise CertificateFailure(f"g does not divide x^{n}-1")
    flags: list[bool | None] = [None] * n
    for j in range(n):
        if flags[j] is None:
            is_root = _eval_at_alpha_pow(spec.field, h, j) != 0
            for e in cyclotomic_coset(j, spec.m):
                flags[e] = is_root
    return flags


def bch_certificate(spec: ConstructionSpec) -> int:
    """Verify the designed-distance root window and return the bound.

    Confirms that alpha^j is a root of g for every j in [t, 2^m - 1] with
    t = 2^(m-1) + 2^(m/2+c-1) + 1 (the window wraps: 2^m - 1 is 0 mod n).
    Also confirms the window avoids every removed coset.  Returns run
    length + 1 = 2^(m-1) - 2^(m/2+c-1), the code's designed distance.
    """
    m, c, n = spec.m, spec.c, spec.n
    t = (1 << (m - 1)) + (1 << (m // 2 + c - 1)) + 1
    window = [j % n for j in range(t, 1 << m)]
    removed = set().union(*(cs.members for cs in spec.cosets))
    overlap = removed & set(window)
    if overlap:
        raise CertificateFailure(
            f"removed exponents {sorted(overlap)} inside root window")
    is_root = spec._roots
    for j in window:
        if not is_root[j]:
            raise CertificateFailure(
                f"g(alpha^{j}) != 0 inside claimed root window")
    bound = len(window) + 1
    if bound != spec.designed_distance:
        raise CertificateFailure(
            f"window length {len(window)} inconsistent with designed "
            f"distance {spec.designed_distance}")
    return bound


def best_bch_distance(spec: ConstructionSpec) -> int:
    """Longest consecutive root run anywhere on the circle, plus one.

    Scans all n exponents (not only the designed window) and returns the
    best BCH bound the generator supports.  Can exceed the designed
    distance; e.g. (m, c) = (4, 1) certifies 6 here against a designed 4.
    """
    n = spec.n
    is_root = spec._roots
    if all(is_root):            # cannot happen for a nonzero code
        return n + 1
    # longest circular run of roots: scan doubled sequence
    best = cur = 0
    for flag in is_root + is_root:
        cur = cur + 1 if flag else 0
        best = max(best, cur)
    return min(best, n - 1) + 1


def encode(spec: ConstructionSpec, message: int) -> Codeword:
    """Multiply the message polynomial by g(x); non-systematic encoder.

    ``message`` is an integer whose bit i is the coefficient of x^i, read
    through ``operator.index`` (numpy integers included; a float or a str
    raises TypeError); one outside 0..2^k - 1 raises ``LengthMismatch``.
    """
    message = operator.index(message)
    if not (0 <= message < (1 << spec.k)):
        raise LengthMismatch(f"message {message} not a {spec.k}-bit value")
    return Codeword(spec.n, poly_mul(message, spec.generator))
