"""Binary cyclic codes of length 2^m - 1 with designed distance near n/2.

For even m >= 4 and 1 <= c <= m/2 - 1 the construction removes c cyclotomic
cosets, each of size m, from the root set of x^n - 1.  The resulting code
has dimension c*m and minimum distance at least 2^(m-1) - 2^(m/2+c-1),
certified by a run of consecutive roots alpha^t, ..., alpha^(2^m - 1) of the
generator polynomial g.  The roots are read off the degree-k check
polynomial h = (x^n - 1)/g: alpha^j is a root of g exactly when
h(alpha^j) != 0, and all n values h(alpha^j) are formed at once over the
field's numpy exp table.  ``minimal_ideals`` splits a built code into its c
minimal ideals, each generated by g times the other cosets' minimal
polynomials, and the distance engine enumerates their cyclic-shift orbits:
the representatives come from one span table of field elements, and are
checked on the words themselves.  A spec object keeps its root flags and
ideals, and an ideal its orbit representatives, once verified: per object,
not per value, and handed out as tuples or new lists.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .gf2 import (
    FieldContext,
    cyclotomic_coset,
    field_create,
    poly_degree,
    poly_divrem,
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
    """A built code: parameters, generator polynomial, and its field.

    ``minimal_polynomials`` holds M_e for each removed coset, in the order
    of ``cosets``; g times their product is x^n - 1.
    """

    m: int
    c: int
    n: int
    k: int
    generator: int
    designed_distance: int
    field: FieldContext = dc_field(repr=False, compare=False, default=None)
    cosets: tuple[CyclotomicCoset, ...] = dc_field(compare=False, default=())
    minimal_polynomials: tuple[int, ...] = dc_field(compare=False,
                                                    default=())

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
    cosets, polys = [], []
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
        polys.append(ctx.minimal_polynomial(cs.representative))
        h = poly_mul(h, polys[-1])
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
                            field=ctx, cosets=tuple(cosets),
                            minimal_polynomials=tuple(polys))


@dataclass(frozen=True)
class MinimalIdeal:
    """The codewords whose nonzeros lie in one removed cyclotomic coset.

    Its generator is g times the other removed cosets' minimal polynomials,
    which is (x^n - 1) / M_e(x) for the coset representative e, so the
    ideal has dimension deg M_e = m.  Evaluating a word at beta = alpha^e
    maps the ideal one-to-one onto GF(2^m) and turns a cyclic shift into
    multiplication by beta, an element of order n / gcd(e, n).
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
        One span table holds a(beta) for all 2^dim messages a, and the log
        table picks out, for each r in turn, the a with a(beta) = alpha^r;
        the word a(x) * generator represents the orbit.  The words are then
        checked by algebra (``_check_orbits``): each is fixed by
        ``orbit_size`` shifts and nonzero at beta, so its orbit has exactly
        that many words; their values at beta lie in distinct cosets of
        <beta>, so no two share an orbit; and the orbits count all
        2^dim - 1 nonzero words.  Anything else raises
        ``DecompositionFailure``.  Both run once per ideal object.
        """
        return list(self._orbits)

    @cached_property
    def _orbits(self) -> tuple[int, ...]:
        return _walk_orbits(self)


def _walk_orbits(ideal: MinimalIdeal) -> tuple[int, ...]:
    """The verified words of ``MinimalIdeal.orbit_representatives``."""
    ctx, n = ideal.field, ideal.n
    # values[a] = a(beta), each power beta^j doubling the filled entries
    values = np.zeros(1 << ideal.dim, dtype=np.int64)
    for j in range(ideal.dim):
        half = 1 << j
        np.bitwise_xor(values[:half], ctx.alpha_pow(ideal.exponent * j),
                       out=values[half:2 * half])
    # message[r] is the a with a(beta) = alpha^r, or 0 if there is none
    message = np.zeros(n, dtype=np.int64)
    message[ctx.log_array[values[1:]]] = np.arange(1, len(values))
    reps = [poly_mul(a, ideal.generator)
            for a in message[:n // ideal.orbit_size].tolist()]
    _check_orbits(ideal, reps)
    return tuple(reps)


def _check_orbits(ideal: MinimalIdeal, reps: list[int]) -> None:
    """Raise ``DecompositionFailure`` unless ``reps``, words of the ideal,
    hold one word of each cyclic-shift orbit of its nonzero words.

    A shift multiplies u(beta) by beta, so the orbit of u evaluates into
    the coset u(beta) <beta>, and where u(beta) != 0, x^d * u = u forces
    beta^d = 1.  So each word must have x^size * u = u and u(beta) != 0,
    which makes its orbit exactly ``size`` = ord(beta) words; the words
    must evaluate into distinct cosets of <beta>, which makes their orbits
    disjoint; and reps * size must count all 2^dim - 1 nonzero words.
    """
    ctx, n, size = ideal.field, ideal.n, ideal.orbit_size
    if len(reps) * size != (1 << ideal.dim) - 1:
        raise DecompositionFailure(
            f"{len(reps)} orbits of {size} words do not cover the "
            f"ideal of coset {ideal.exponent}")
    mask = (1 << n) - 1
    if any(((u << size) | (u >> (n - size))) & mask != u for u in reps):
        raise DecompositionFailure(
            f"shift orbit in the ideal of coset {ideal.exponent} "
            f"does not close after {size} shifts")
    # u(beta) is the XOR of beta^i over the bits i of u
    size_bytes = -(-n // 8)
    words = np.frombuffer(b"".join(u.to_bytes(size_bytes, "little")
                                   for u in reps), dtype=np.uint8)
    bits = np.unpackbits(words.reshape(len(reps), size_bytes), axis=1,
                         count=n, bitorder="little")
    powers = ctx.exp_array[ideal.exponent * np.arange(n) % n]
    values = np.bitwise_xor.reduce(bits * powers, axis=1).tolist()
    if 0 in values:
        raise DecompositionFailure(
            f"a word of the ideal of coset {ideal.exponent} vanishes at "
            f"alpha^{ideal.exponent}, so its orbit is not {size} words")
    if len({ctx.log[v] % (n // size) for v in values}) != len(reps):
        raise DecompositionFailure(
            f"two shift orbits in the ideal of coset {ideal.exponent} "
            f"meet the same coset of alpha^{ideal.exponent}")


def minimal_ideals(spec: ConstructionSpec) -> list[MinimalIdeal]:
    """Split the code into its c minimal ideals, one per removed coset.

    Each ideal generator is g times the minimal polynomials of the other
    removed cosets, so every ideal lies in the code; times the coset's own
    minimal polynomial it must give x^n - 1 (``InexactDivision``
    otherwise).  The ideals' rows together must have rank k, so that their
    direct sum is the code; anything else raises ``DecompositionFailure``.
    The split and its checks run once per spec object.
    """
    return list(spec._ideals)


def _split_ideals(spec: ConstructionSpec) -> tuple[MinimalIdeal, ...]:
    """The checked ideals of ``minimal_ideals``."""
    xn1 = (1 << spec.n) | 1
    polys = spec.minimal_polynomials
    ideals = []
    for i, (cs, mp) in enumerate(zip(spec.cosets, polys, strict=True)):
        gen = spec.generator
        for other in polys[:i] + polys[i + 1:]:
            gen = poly_mul(gen, other)
        if poly_mul(gen, mp) != xn1:
            raise InexactDivision(
                f"x^{spec.n}-1 is not g * M_{cs.representative} times the "
                f"other cosets' minimal polynomials")
        ideals.append(MinimalIdeal(spec.n, cs.representative, gen,
                                   poly_degree(mp), spec.field))
    rank = len(row_basis([row for ideal in ideals for row in ideal.rows()]))
    if rank != spec.k:
        raise DecompositionFailure(
            f"minimal ideals span rank {rank} != k = {spec.k}")
    return tuple(ideals)


def _root_flags(spec: ConstructionSpec) -> list[bool]:
    """Whether alpha^j is a root of g, for every exponent j < n.

    Decided through the check polynomial h = (x^n - 1)/g, of degree k, by
    exact division (``CertificateFailure`` if g does not divide x^n - 1).
    Every alpha^j is a root of x^n - 1 = g*h, and n is odd, so the roots
    are simple: alpha^j is a root of g exactly when h(alpha^j) != 0.  All n
    values are formed at once over the field's exp table: h(alpha^j) is
    the XOR, over the terms x^i of h, of exp[i*j mod n], one length-n row
    per term.
    """
    n = spec.n
    h, rem = poly_divrem((1 << n) | 1, spec.generator)
    if rem != 0:
        raise CertificateFailure(f"g does not divide x^{n}-1")
    exp, j = spec.field.exp_array, np.arange(n)
    values = np.zeros(n, dtype=np.int64)
    for i in range(h.bit_length()):
        if h >> i & 1:
            values ^= exp[i * j % n]
    return (values != 0).tolist()


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
    A run lies between two circularly consecutive non-roots, so the bound
    is the widest gap between them.
    """
    n = spec.n
    non_roots = np.flatnonzero(~np.array(spec._roots, dtype=bool))
    if not non_roots.size:      # cannot happen for a nonzero code
        return n + 1
    return int((np.append(non_roots[1:], non_roots[0] + n) - non_roots).max())


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
