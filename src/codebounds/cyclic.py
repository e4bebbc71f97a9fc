"""Binary cyclic codes of length 2^m - 1 with designed distance near n/2.

For even m >= 4 and 1 <= c <= m/2 - 1 the construction removes c cyclotomic
cosets, each of size m, from the root set of x^n - 1.  The resulting code
has dimension c*m and minimum distance at least 2^(m-1) - 2^(m/2+c-1),
certified by a run of consecutive roots alpha^t, ..., alpha^(2^m - 1) of the
generator polynomial g.  g is the inverse of the check polynomial h to
n - deg h + 1 coefficients, by Newton's iteration, checked by g h = x^n - 1.
The roots are read off h: alpha^j is a root of g exactly when
h(alpha^j) != 0, and all n values h(alpha^j) are formed at once over the
field's numpy exp table.  ``minimal_ideals`` splits a built code into its c
minimal ideals, each generated by g times the other cosets' minimal
polynomials.  ``orbit_plan`` lays the code out as orbits of its group of
cyclic shifts and squarings, one stabilizer chain over the ideals: the
distance engine scans one word per orbit, each counted with its orbit's
size, and every orbit, stabilizer and count is checked on the way.  A
spec object keeps its root flags, ideals and plan, and an ideal its word
tables, once verified: per object, not per value, and handed out as
tuples, new lists or read-only arrays.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from . import _kernels
from .gf2 import (
    FieldContext,
    cyclotomic_coset,
    field_create,
    poly_degree,
    poly_divrem,
    poly_mul,
    poly_square,
    row_basis,
    systematic,
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
    """The code's ideal or orbit structure contradicts the theory."""


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
    def _roots(self) -> np.ndarray:
        return _root_flags(self)

    @cached_property
    def _ideals(self) -> tuple[MinimalIdeal, ...]:
        return _split_ideals(self)

    @cached_property
    def _plan(self) -> OrbitPlan:
        return _plan_orbits(minimal_ideals(self))

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
    g(x) = (x^n - 1) / prod_i M_i(x) is computed by ``_exact_quotient``;
    an inexact division or a degree other than n - c*m raises.  The
    returned spec's dimension is therefore certified, not assumed.
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
    g = _exact_quotient(h, n)
    if poly_degree(g) != n - c * m:
        raise CosetCollision(
            f"deg g = {poly_degree(g)} != n - cm = {n - c * m}")
    return ConstructionSpec(m=m, c=c, n=n, k=c * m, generator=g,
                            designed_distance=designed_distance(m, c),
                            field=ctx, cosets=tuple(cosets),
                            minimal_polynomials=tuple(polys))


def _exact_quotient(h: int, n: int) -> int:
    """(x^n - 1) / h, for h with h(0) = 1, or ``InexactDivision``.

    If g h = x^n + 1 then g h = 1 mod x^(n - deg h + 1), and deg g is below
    that, so g is the inverse of h to that many coefficients.  Newton's
    step u -> h u^2 (over GF(2), u (2 - h u) = h u^2) doubles the
    coefficients known at each step; squaring only spreads bits, and the
    product loops over the at most deg h + 1 terms of h.  No step works
    one quotient bit at a time.  The product g h must then be x^n + 1.
    """
    size = n - poly_degree(h) + 1
    g, known = 1, 1
    while known < size:
        known = min(2 * known, size)
        g = poly_mul(h, poly_square(g)) & ((1 << known) - 1)
    if poly_mul(h, g) != (1 << n) | 1:
        raise InexactDivision(
            f"x^{n}-1 not divisible by coset minimal-polynomial product")
    return g


@dataclass(frozen=True)
class MinimalIdeal:
    """The codewords whose nonzeros lie in one removed cyclotomic coset.

    Its generator is g times the other removed cosets' minimal polynomials,
    which is (x^n - 1) / M_e(x) for the coset representative e, so the
    ideal has dimension deg M_e = m.  Evaluating a word at beta = alpha^e
    maps the ideal one-to-one onto GF(2^m), so a nonzero word u has a log
    coordinate l with u(beta) = alpha^l.  The code's automorphism (t, f),
    bit i to 2^f * i + t mod n (f squarings, then t shifts), acts on it as
    l -> 2^f * l + e * t mod n.
    """

    n: int
    exponent: int
    generator: int
    dim: int
    minimal_polynomial: int
    field: FieldContext = dc_field(repr=False, compare=False)

    def rows(self) -> list[int]:
        """Basis rows x^j * generator for j = 0..dim-1."""
        return [self.generator << j for j in range(self.dim)]

    def words(self, values: np.ndarray) -> np.ndarray:
        """The words u of the ideal with u(beta) = value, for an array of
        field elements as the field stores them (0 gives the zero word),
        packed as ``_kernels.pack_rows`` packs rows.  The value's bits
        j < dim/2 pick a row of the low table, its other bits one of the
        high table: the spans of the words of value alpha^j for those j."""
        low, high = self._tables
        split = self.dim // 2
        return low[values & ((1 << split) - 1)] ^ high[values >> split]

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The tables of ``words``, each of about 2^(dim/2) words, built and
        checked once per ideal object."""
        basis, split = self._basis(), self.dim // 2
        return tuple(_kernels.pack_rows(_span(part), self.n)
                     for part in (basis[:split], basis[split:]))

    def _basis(self) -> list[int]:
        """The words of value alpha^j at beta, j = 0..dim-1.  Each row
        x^i generator is carried as the int value | row << dim, with value
        beta^i generator(beta), and ``systematic`` on the dim value bits
        leaves the rows of values 1, ..., alpha^(dim-1).
        ``DecompositionFailure`` unless the values are independent, so that
        evaluation at beta is one-to-one on the ideal."""
        ctx, e, dim = self.field, self.exponent, self.dim
        offset, values = self._generator_log(), (1 << dim) - 1
        found = systematic([ctx.alpha_pow(e * i + offset)
                            | self.generator << i + dim for i in range(dim)],
                           values)
        if found is None:
            raise DecompositionFailure(
                f"evaluation at alpha^{e} is not one-to-one on the ideal of "
                f"coset {e}")
        basis = [0] * dim
        for row in found[0]:
            basis[(row & values).bit_length() - 1] = row >> dim
        return basis

    def _generator_log(self) -> int:
        """The log of generator(beta).  As generator * M_e = x^n - 1, the
        derivative at a simple root beta of M_e gives
        generator(beta) M_e'(beta) = beta^(n-1); beta must be one, or it is
        not a nonzero of the ideal (``DecompositionFailure``)."""
        ctx, e, check = self.field, self.exponent, self.minimal_polynomial
        # M_e' keeps the odd terms of M_e, each lowered by one degree
        slope = _value(ctx, e, check >> 1 & int("01" * self.dim, 2))
        if _value(ctx, e, check) or not slope:
            raise DecompositionFailure(
                f"alpha^{e} is not a simple root of the minimal polynomial "
                f"of the ideal of coset {e}")
        return -e - ctx.log[slope]


def _span(rows: list[int]) -> list[int]:
    """All 2^len(rows) XOR combinations of int rows; combination i takes
    the rows of the bits of i."""
    span = [0]
    for row in rows:
        span += [word ^ row for word in span]
    return span


def _value(ctx: FieldContext, e: int, poly: int) -> int:
    """poly(alpha^e): the XOR of alpha^(e i) over the terms x^i."""
    value = 0
    for i in range(poly.bit_length()):
        if poly >> i & 1:
            value ^= ctx.alpha_pow(e * i)
    return value


# A subgroup <(s, 0), (tau, phi)> of the automorphisms (t, f) of a code of
# length n = 2^m - 1 is a triple (s, tau, phi), with s | n and phi | m:
# s = n means no shift but the identity, and phi = m no squaring (tau is
# then 0).  The whole group is (1, 0, 1), of n * m elements; the shifts
# alone are (1, 0, m).  In log coordinates (see ``MinimalIdeal``) the
# shifts (s, 0) add the multiples of g = gcd(e s, n) to the log, so the
# group's orbits on an ideal's nonzero words are the cycles of
# r -> 2^phi r + e tau on the residues mod g, each of (n/g) * (cycle
# length) words.


def _walk_orbits(ideal: MinimalIdeal, groups: np.ndarray):
    """The orbits of each group row (s, tau, phi) of ``groups`` on the
    ideal's nonzero words: per orbit, its group's row, the log of its
    representative (the least residue of its cycle) and its size, as
    arrays.

    All groups' residues lie side by side in one array, residue r of a
    group with first index f at index f + r, and pointer doubling finds
    the least index of each cycle.  The numbers of each group row are
    Python ints; only the residues and the orbits are arrays.  The orbits
    are checked by ``_check_orbits``.
    """
    n, e, m = ideal.n, ideal.exponent, ideal.field.m
    # per group row: g, its first index f, r -> 2^phi r + e tau mod g as a
    # jump i -> f + (a i + c) mod g between indices, the row and n / g
    table, first, longest = [], 0, 1
    for k, (s, tau, phi) in enumerate(groups.tolist()):
        g = math.gcd(e * s, n)
        a = pow(2, phi, g)
        table.append((g, first, a, (e * tau - a * first) % g, k, n // g))
        first += g
        # a cycle has at most min(g, m / phi) residues
        longest = max(longest, min(g, m // phi))
    cols = np.array(table).T
    spread = cols.repeat(cols[0], axis=1)
    g, first, a, c = spread[:4]
    index = np.arange(len(g))
    jump = (a * index + c) % g + first
    least = index
    for _ in range((longest - 1).bit_length()):
        least = np.minimum(least, least[jump])
        jump = jump[jump]
    # the indices of a cycle share its least one, and no other shares it
    counts = np.bincount(least)
    reps = np.flatnonzero(counts)
    _, first, _, _, row, per = spread[:, reps]
    return row, reps - first, per * counts[reps]


def _check_orbits(ideal: MinimalIdeal, groups: np.ndarray, row: np.ndarray,
                  logs: np.ndarray, sizes: np.ndarray) -> None:
    """Raise ``DecompositionFailure`` unless, for each group row of
    ``groups``, the logs of its orbits represent distinct orbits of the
    given sizes, which together hold all 2^m - 1 nonzero words of the
    ideal.

    Each size must be n/g times a cycle length L, with 1 <= L <= m/phi.
    The powers (tau, phi)^i, which move the log l to
    2^(i phi) l + e tau (2^(i phi) - 1) / (2^phi - 1), must move each
    representative, mod g, to residues that are distinct for i < L,
    also across one group's representatives, and back to it at i = L; and
    the residues passed must number the g of every group together.  So
    the cycles are disjoint and cover every residue, and each group's
    sizes sum to n.  All the powers are formed at once; the numbers of
    each group row are Python ints, gathered per orbit.
    """
    n, e, m = ideal.n, ideal.exponent, ideal.field.m
    # per group row: g, the first index of its residues when all groups'
    # residues lie side by side, n / g, phi, e tau mod g and 2^phi - 1
    table, total = [], 0
    for s, tau, phi in groups.tolist():
        g = math.gcd(e * s, n)
        table.append((g, total, n // g, phi, e * tau % g, (1 << phi) - 1))
        total += g
    g, first, per, phi, shift, ratio = np.array(table).T[:, row]
    lengths, rest = np.divmod(sizes, per)
    # a cycle of (tau, phi) has at least one and at most m / phi residues
    closed = not ((lengths < 1) | (lengths * phi > m)).any()
    if closed:
        # steps past L repeat step L, which must be the representative
        # again; 2^(i phi) is exact for i phi <= m, and 2^m = 1 mod g
        steps = np.arange(m + 1)[:, None]
        power = 1 << np.minimum(steps, lengths) * phi
        at = (power * logs + shift * ((power - 1) // ratio)) % g
        # residue r of a group with first index f passes, at a step
        # i < L, as index f + r
        passed = (first + at)[steps < lengths]
    if rest.any() or closed and len(passed) != total:
        raise DecompositionFailure(
            f"orbits of {sizes.tolist()} words do not cover the "
            f"{n} nonzero words of the ideal of coset {e}")
    if not (closed and (at[-1] == logs % g).all()
            and np.bincount(passed).max() < 2):
        raise DecompositionFailure(
            f"two representatives in the ideal of coset {e} share a "
            f"cycle, or a cycle does not close")


def _stabilizers(ideal: MinimalIdeal, groups: np.ndarray, row: np.ndarray,
                 logs: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The stabilizer of each orbit representative of ``_walk_orbits``.

    With g and the cycle length L as there, the stabilizer of the log r
    in <(s, 0), (tau, phi)> is (s n/g, tau', L phi): (tau, phi)^L is
    (tau_L, L phi) with tau_L = tau (2^(L phi) - 1) / (2^phi - 1), which
    moves r by a multiple of g, and tau' = tau_L + s u adds the shift s u
    that moves it back, e s u = (1 - 2^(L phi)) r - e tau_L mod n.
    """
    n, e, m = ideal.n, ideal.exponent, ideal.field.m
    groups, stabs = groups.tolist(), []
    for k, log, size in zip(row.tolist(), logs.tolist(), sizes.tolist()):
        s, tau, phi = groups[k]
        g = math.gcd(e * s, n)
        turns = size // (n // g) * phi
        power = 1 << turns
        tau_l = tau * ((power - 1) // ((1 << phi) - 1)) % n
        moved = ((1 - power) * log - e * tau_l) % n
        if moved % g:
            raise DecompositionFailure(
                f"a stabilizer in the ideal of coset {e} moves its "
                f"representative off its residue")
        unit = pow(e * s // g, -1, n // g) if g < n else 0
        shift = tau_l + s * (moved // g * unit % (n // g))
        stabs.append((s * (n // g), shift % n if turns < m else 0, turns))
    return np.array(stabs, dtype=np.int64).reshape(-1, 3)


def _check_fixed(words: np.ndarray, stabs: np.ndarray, m: int) -> None:
    """Raise ``DecompositionFailure`` unless each generator of each
    stabilizer (s, tau, phi), read as the bit permutation
    i -> 2^f i + t mod n with (t, f) = (s, 0) and (tau, phi), fixes its
    packed word."""
    n = (1 << m) - 1
    gens = [(k, t, f) for k, (s, tau, phi) in enumerate(stabs.tolist())
            for t, f in ((s, 0), (tau, phi)) if (t, f) not in ((n, 0),
                                                              (0, m))]
    if not gens:
        return
    word, t, f = np.array(gens).T[:, :, None]
    i = np.arange(n)
    per = max(1, (1 << 20) // n)
    for first in range(0, len(word), per):
        part = slice(first, first + per)
        bits = np.unpackbits(words[word[part, 0]].view(np.uint8), axis=1,
                             count=n, bitorder="little")
        # 2^f i mod n rotates the m bits of i < n by f
        moved = ((i << f[part]) | (i >> (m - f[part]))) & n
        moved += t[part]
        moved -= n * (moved >= n)
        if (bits[np.arange(len(bits))[:, None], moved] != bits).any():
            raise DecompositionFailure(
                "a stabilizer generator moves the word it was found for")


@dataclass(frozen=True)
class OrbitScan:
    """Words rep + span(ideals[level:]) of an orbit plan; each word of
    rep i's coset stands for multiplicity[i] words of the code.

    Rep i is the prefix word bases[parent[i]] XOR the word of ``ideal``,
    ideals[level - 1], whose value at beta is values[i] (value 0 adds
    nothing).
    """

    level: int
    bases: np.ndarray = dc_field(repr=False)
    parent: np.ndarray = dc_field(repr=False)
    values: np.ndarray = dc_field(repr=False)
    multiplicity: np.ndarray = dc_field(repr=False)
    ideal: MinimalIdeal = dc_field(repr=False)

    def __len__(self) -> int:
        return len(self.parent)

    def reps(self, start: int, stop: int) -> np.ndarray:
        """Reps start .. stop - 1, packed; all of them, when asked for at
        once, are formed once and kept for the next scan."""
        if start == 0 and stop >= len(self):
            return self._reps
        return (self.bases[self.parent[start:stop]]
                ^ self.ideal.words(self.values[start:stop]))

    @cached_property
    def _reps(self) -> np.ndarray:
        reps = self.bases[self.parent] ^ self.ideal.words(self.values)
        reps.flags.writeable = False
        return reps


@dataclass(frozen=True)
class OrbitPlan:
    """The code's words as orbits of its shift-and-squaring group.

    The group G = <x, sigma> of the cyclic shifts and the squaring
    sigma: i -> 2i mod n fixes the code, each minimal ideal and every
    weight; it has n * m elements.  A stabilizer chain over the ideals in
    order: the words whose components in the first j ideals form the
    prefix P, with stabilizer H in G, take each H-orbit of the nonzero
    words u of ideal j to one prefix P + u, standing for the orbit's size
    times P's count of words, with H's stabilizer of u; the component 0
    keeps P and H.  A prefix whose stabilizer is the identity is scanned
    with the span of the ideals after it; the prefixes left after the last
    ideal are words of their own, the zero word aside.  ``scans`` holds
    one ``OrbitScan`` per level that has any; multiplicity * words over
    them is 2^k - 1.
    """

    ideals: tuple[MinimalIdeal, ...]
    scans: tuple[OrbitScan, ...]


def orbit_plan(spec: ConstructionSpec) -> OrbitPlan:
    """The spec's ``OrbitPlan`` over its minimal ideals in order, built and
    checked once per spec object."""
    return spec._plan


def _plan_orbits(ideals: list[MinimalIdeal]) -> OrbitPlan:
    """The checked ``OrbitPlan`` of the direct sum of ``ideals``.

    Each level's walk checks its orbits (``_check_orbits``); each prefix
    with a nontrivial stabilizer is checked to be fixed by its generators
    on the bits (``_check_fixed``); and multiplicity * words over the
    scans must count all 2^k - 1 nonzero words.  Anything else raises
    ``DecompositionFailure``.  The last ideal's prefixes are words, so
    their stabilizers are never needed or formed.
    """
    n, m = ideals[0].n, ideals[0].field.m
    # the prefixes so far: packed words, stabilizers, words each stands for
    words = _kernels.pack_rows([0], n)
    stabs = np.array([[1, 0, 1]], dtype=np.int64)
    mults = np.ones(1, dtype=np.int64)
    scans = []
    for level, ideal in enumerate(ideals, 1):
        row, logs, sizes = orbits = _walk_orbits(ideal, stabs)
        _check_orbits(ideal, stabs, *orbits)
        values, mult = ideal.field.exp_array[logs], mults[row] * sizes
        if level == len(ideals):
            # with every prefix before them but the zero word, prefix 0
            older = np.arange(1, len(words))
            scans.append(OrbitScan(
                level, words, np.concatenate([row, older]),
                np.concatenate([values, 0 * older]),
                np.concatenate([mult, mults[1:]]), ideal))
            break
        kids = _stabilizers(ideal, stabs, *orbits)
        keep = (kids[:, 0] < n) | (kids[:, 2] < m)
        if not keep.all():
            done = ~keep
            scans.append(OrbitScan(level, words, row[done], values[done],
                                   mult[done], ideal))
        words = np.concatenate([words, words[row[keep]]
                                ^ ideal.words(values[keep])])
        stabs = np.concatenate([stabs, kids[keep]])
        mults = np.concatenate([mults, mult[keep]])
    # every prefix but the zero word, prefix 0, has its stabilizer checked
    _check_fixed(words[1:], stabs[1:], m)
    k = sum(ideal.dim for ideal in ideals)
    covered = sum(int(scan.multiplicity.sum())
                  << sum(ideal.dim for ideal in ideals[scan.level:])
                  for scan in scans)
    if covered != (1 << k) - 1:
        raise DecompositionFailure(
            f"orbit plan counts {covered} nonzero words != 2^{k} - 1")
    return OrbitPlan(tuple(ideals), tuple(scans))


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
                                   poly_degree(mp), mp, spec.field))
    rank = len(row_basis([row for ideal in ideals for row in ideal.rows()]))
    if rank != spec.k:
        raise DecompositionFailure(
            f"minimal ideals span rank {rank} != k = {spec.k}")
    return tuple(ideals)


def _root_flags(spec: ConstructionSpec) -> np.ndarray:
    """Read-only bool array: whether alpha^j is a root of g, each j < n.

    Decided through the check polynomial h = (x^n - 1)/g, of degree k, by
    exact division (``CertificateFailure`` if g does not divide x^n - 1).
    Every alpha^j is a root of x^n - 1 = g*h, and n is odd, so the roots
    are simple: alpha^j is a root of g exactly when h(alpha^j) != 0.  All n
    values are formed at once over the field's exp table: h(alpha^j) is
    the XOR, over the terms x^i of h, of exp[i*j mod n], one length-n row
    per term, all rows in one array.  As 2^m = 1 mod n, i*j mod n is
    (i*j & n) + (i*j >> m), less n once if that is n or more: no division.
    The table is read in the smallest dtype that holds n.
    """
    n, m = spec.n, spec.m
    h, rem = poly_divrem((1 << n) | 1, spec.generator)
    if rem != 0:
        raise CertificateFailure(f"g does not divide x^{n}-1")
    terms = [i for i in range(h.bit_length()) if h >> i & 1]
    # i*j < n^2 < 2^32 for m <= 16, and (i*j & n) + (i*j >> m) < 2n
    exps = np.multiply.outer(np.array(terms, dtype=np.uint32),
                             np.arange(n, dtype=np.uint32))
    high = exps >> m
    exps &= n
    exps += high
    np.subtract(exps, n, out=exps, where=exps >= n)
    table = spec.field.exp_array.astype(np.min_scalar_type(n))
    flags = np.bitwise_xor.reduce(np.take(table, exps)).astype(bool)
    flags.flags.writeable = False
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
    window = np.arange(t, 1 << m) % n
    removed = np.zeros(n, dtype=bool)
    for cs in spec.cosets:
        removed[list(cs.members)] = True
    overlap = window[removed[window]]
    if overlap.size:
        raise CertificateFailure(
            f"removed exponents {sorted(set(overlap.tolist()))} inside "
            f"root window")
    missed = window[~spec._roots[window]]
    if missed.size:
        raise CertificateFailure(
            f"g(alpha^{missed[0]}) != 0 inside claimed root window")
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
    non_roots = np.flatnonzero(~spec._roots)
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
