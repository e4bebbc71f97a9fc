"""Fourier analysis on F_2^n (dense, n <= 16) and the covering-bound replay.

Functions on the cube are dense tables of length 2^n indexed by the point's
integer bitmask.  The kernels are numpy operations along the last axis, so
a 2-D array is processed row by row in one call, and each level runs one
long inner loop per row: the butterfly in constant geometry, the adjacency
operator as n flips.  Their results equal a loop over (size/2h, 2, h)
blocks bit for bit.  A self-convolution f * f transforms f once.

The public primitives are exact only.  They take one 1-D sequence of
Integral/Rational entries (numpy integers, Fractions with numpy parts and
1-D integer or object ndarrays and generators included) and raise
TypeError, naming the entry type, for anything else: a float entry, a float
ndarray, or a row of a 2-D array: ``spectrum.clear_denominators``, the
route ``rayleigh_quotient`` uses too, raises it.  Each distinct entry
object of a table is read once: that route clears the distinct entries to
numerators over one common denominator q, and the numerators of the whole
table reach numpy as one int64 array when they fit, Python ints (object)
otherwise.  An operation runs in int64 only when a magnitude bound,
computed from the inputs before its array is allocated, keeps every
intermediate below 2^63; otherwise it runs on Python ints.  Nothing passes
through floating point, and int64 never wraps.  Results are lists: Integral
entries give ints, any other Rational entry (or any division, as in ``wht``
and ``convolve``) gives Fractions, one per distinct value.  The identity
suite checks all its functions at once as the rows of one exact array on
the kernels, and replays a few of them through the public primitives, whose
outputs it compares entry by entry, cross-multiplied in integers, with the
array's rows.  The covering replay is numeric by nature (a square root and
a Perron vector enter) but holds no float table of the cube: it works on
the n + 1 weight shells, through the exact Krawtchouk values of
``krawtchouk.values`` and Parseval (see ``covering_replay``), reduces every
sum with ``math.fsum`` and checks each step with a relative tolerance.  Its
ball side comes from the layers that own it: lambda from
``spectrum.top_eigenvalue``, |B_r| from the Krawtchouk column t = 0; no
certificate is made.  The code enters only through its distance
distribution B on the shells, counted afresh by each call from blocks of
pairwise XORs binned by weight; no table of the cube and no cache is kept.

Two transform normalizations appear, and both are real:
``wht_unnormalized`` is the butterfly u(f)(z) = sum_x f(x) (-1)^<x,z>, which
satisfies u(u(f)) = 2^n f; ``wht`` divides by 2^n and matches the
inner-product convention <f, g> = E[f g], under which E f = wht(f)[0] and
Parseval reads <f, g> = sum_z wht(f)(z) wht(g)(z).
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from numbers import Integral

import numpy as np

from . import krawtchouk
from .bounds import NotApplicable, OutOfRange
from .spectrum import (ball_operator, clear_denominators, radial_vector,
                       top_eigenvalue)

DENSE_MAX_N = 16  # largest cube ``identity_suite`` holds densely
REPLAY_MAX_N = 15  # largest cube ``covering_replay`` replays on
_REL_TOL = 1e-9  # replay steps are float; each may miss by this much
_INT64_LIMIT = 1 << 63
_PAIR_BLOCK = 1 << 18  # codeword XORs ``_code_side`` forms at once


class DimensionMismatch(ValueError):
    """Operands, or a word and its cube, differ in dimension."""


class ChainViolation(ArithmeticError):
    """A replay inequality failed beyond tolerance (implementation bug)."""


def _dim(values) -> int:
    size = len(values)
    n = size.bit_length() - 1
    if size == 0 or size != 1 << n:
        raise DimensionMismatch(f"table length {size} not a power of 2")
    return n


def _split(values):
    """A table as (numerators, unit, magnitude), each distinct entry read once.

    The entries are held in one list first: a generator is read once, and
    ``id`` names an object only while it lives (iterating an ndarray makes
    a fresh scalar per entry, and a freed one's id is reused).  The distinct
    objects, by id, go through ``clear_denominators``, which refuses an
    entry type that is not Rational (a row of a 2-D array included) and
    turns them into Python-int numerators over q.  Returns the numerators
    F of every entry as one ndarray, int64 when the magnitude max |F|
    stays below 2^63 and Python ints (object) otherwise; the unit 1/q, or
    the int 1 when every type is Integral; and that magnitude.
    """
    values = list(values)
    _, first, inverse = np.unique(
        np.fromiter(map(id, values), np.uint64, len(values)),
        return_index=True, return_inverse=True)
    distinct = list(map(values.__getitem__, first.tolist()))
    nums, q = clear_denominators(distinct)
    integral = all(issubclass(k, Integral) for k in set(map(type, distinct)))
    unit = 1 if integral else Fraction(1, q)
    mag = max(map(abs, nums), default=0)
    return _array(nums, mag)[inverse], unit, mag


def _array(entries, bound: int) -> np.ndarray:
    """Integer entries as an ndarray ready for exact arithmetic.

    ``bound`` bounds every intermediate the caller will form; int64 is used
    only below 2^63, so it cannot wrap, and Python ints (object) otherwise.
    """
    return np.asarray(entries,
                      dtype=np.int64 if bound < _INT64_LIMIT else object)


def _out(result: np.ndarray, unit) -> list:
    """The numerators times ``unit`` as a list; the int unit 1 leaves them
    as they are.  One Fraction is built per distinct numerator and shared
    by every entry that holds it."""
    values = result.tolist()
    if isinstance(unit, int):
        return values
    num, den = unit.numerator, unit.denominator
    scaled = {v: Fraction(v * num, den) for v in set(values)}
    return list(map(scaled.__getitem__, values))


def _butterfly(a: np.ndarray) -> np.ndarray:
    """u along the last axis; level h combines the entries x and x + h.

    Constant geometry (Pease): each level reads the pairs (2i, 2i + 1) as
    two stride-2 lanes and writes lo + hi and lo - hi to the two halves of
    the other of two buffers.  That rotates the index right by one bit, so
    the next level's pairs are adjacent again and after n levels the order
    is natural; ``a`` is never written.  Each entry sees the operations of
    the in-place loop over (size/2h, 2, h) blocks in the same order, so
    float, int64 and object results are identical to it.  Callers: the
    public primitives (one exact table) and the identity suite (its int64
    or object array, one function per row).
    """
    lead, size = a.shape[:-1], a.shape[-1]
    src, bufs = a, (np.empty(a.shape, a.dtype), np.empty(a.shape, a.dtype))
    for level in range(size.bit_length() - 1):
        halves = bufs[level % 2].reshape(*lead, 2, size // 2)
        lo, hi = src[..., 0::2], src[..., 1::2]
        np.add(lo, hi, out=halves[..., 0, :])
        np.subtract(lo, hi, out=halves[..., 1, :])
        src = bufs[level % 2]
    return a.copy() if src is a else src


def _adjacency(a: np.ndarray) -> np.ndarray:
    """(Af)(x) = sum_i f(x xor e_i) along the last axis, one flip per bit.

    Level h adds f(x xor h) to every entry, from h = 1 up: while h < 4
    as one stride-2h lane per offset k < h, after that as a flipped copy
    of ``a``, whose blocks of h are then long enough to copy fast.
    """
    lead, size = a.shape[:-1], a.shape[-1]
    out = np.zeros(a.shape, a.dtype)
    h = 1
    while h < size:
        blocks = a.reshape(*lead, size // (2 * h), 2, h)
        if h < 4:
            acc = out.reshape(*lead, size // (2 * h), 2, h)
            for k in range(h):
                acc[..., 0, k] += blocks[..., 1, k]
                acc[..., 1, k] += blocks[..., 0, k]
        else:
            out += blocks[..., ::-1, :].reshape(*lead, size)
        h *= 2
    return out


def wht_unnormalized(values) -> list:
    """Butterfly transform u(f)(z) = sum_x f(x) (-1)^<x,z>; u(u(f)) = 2^n f.

    Exact: all-Integral tables give ints, other Rationals Fractions.
    """
    entries, unit, mag = _split(values)
    size = 1 << _dim(entries)
    return _out(_butterfly(_array(entries, mag * size)), unit)


def wht(values) -> list:
    """Normalized transform: wht(f)[z] = E[f * chi_z] = u(f)[z] / 2^n.

    Entries come out as Fractions, integral values included.
    """
    entries, unit, mag = _split(values)
    size = 1 << _dim(entries)
    return _out(_butterfly(_array(entries, mag * size)),
                Fraction(unit, size))


def inner(f, g) -> Fraction:
    """<f, g> = E[f g] under the uniform distribution.

    A Fraction computed from the integer numerators of the entries.
    Raises ``DimensionMismatch`` unless both tables have one power-of-2
    length.
    """
    ef, uf, mf = _split(f)
    eg, ug, mg = _split(g)
    if _dim(ef) != _dim(eg):
        raise DimensionMismatch(f"{len(ef)} vs {len(eg)}")
    # size |F| |G| bounds every partial sum; max(., 1) keeps it above |F|, |G|
    bound = len(ef) * max(mf, 1) * max(mg, 1)
    dot = (_array(ef, bound) * _array(eg, bound)).sum()
    return Fraction(int(dot), len(ef) * uf.denominator * ug.denominator)


def convolve(f, g) -> list:
    """(f * g)(x) = E_y f(y) g(x + y), via u(u(f) . u(g)) / 4^n.

    Exact (Fractions out).  A self-convolution (g is f) transforms f once.
    """
    ef, uf, mf = _split(f)
    eg, ug, mg = (ef, uf, mf) if g is f else _split(g)
    if len(ef) != len(eg):
        raise DimensionMismatch(f"{len(ef)} vs {len(eg)}")
    size = 1 << _dim(ef)
    # |u(u(F) . u(G))| <= size^3 |F| |G| bounds all three transforms
    bound = size ** 3 * max(mf, 1) * max(mg, 1)
    tf = _butterfly(_array(ef, bound))
    tg = tf if g is f else _butterfly(_array(eg, bound))
    return _out(_butterfly(tf * tg), Fraction(uf * ug, size * size))


def adjacency_apply(f) -> list:
    """Af by neighbor summation: (Af)(x) = sum_i f(x xor e_i).

    Same input/output contract as ``wht_unnormalized``.
    """
    entries, unit, mag = _split(f)
    n = _dim(entries)
    # n |F| bounds every sum; at n = 0 the entries still have to fit
    return _out(_adjacency(_array(entries, mag * max(n, 1))), unit)


def degree_function(n: int) -> list:
    """L with L(x) = 2^n at weight-1 points, else 0; satisfies Af = f * L."""
    return [(1 << n) if x.bit_count() == 1 else 0 for x in range(1 << n)]


_DENOMINATORS = np.array([1, 1, 2, 4])


def _random_functions(rng: random.Random, count: int, size: int):
    """``count`` random rational functions as integer rows F over q.

    Returns (F, q): an int64 array of shape (count, size) and an int64
    array of count denominators; function i is F[i] / q[i].  Values are
    exactly uniform on [-16, 16]: six random bits per draw, with draws of
    33 and above rejected.  Every tenth function (i % 10 == 0) divides
    each value by a denominator drawn from (1, 1, 2, 4); its q is the
    largest one drawn, so F = value * (q / denominator) stays integral.
    All bits come from ``rng.randbytes``.
    """
    total = count * size
    parts, have = [], 0
    while have < total:
        # 33 of 64 six-bit values are kept: ask for about twice the need
        draws = np.frombuffer(rng.randbytes(2 * (total - have) + 64),
                              dtype=np.uint8) & 63
        parts.append(np.extract(draws < 33, draws))
        have += parts[-1].size
    values = np.concatenate(parts)[:total].astype(np.int64) - 16
    values = values.reshape(count, size)
    q = np.ones(count, dtype=np.int64)
    dyadic = values[::10]
    picks = np.frombuffer(rng.randbytes(dyadic.size), dtype=np.uint8) & 3
    dens = _DENOMINATORS[picks].reshape(dyadic.shape)
    q[::10] = dens.max(axis=1)
    dyadic *= q[::10, None] // dens
    return values, q


def identity_suite(n: int, count: int = 100, seed: int = 0) -> dict:
    """Zero-tolerance transform identities on `count` random rational functions.

    Per function (with its two successors as g, h): u(u(f)) = 2^n f;
    Parseval <f, g> = sum_z wht(f) wht(g); E f = wht(f)[0];
    <f*g, h> = <f, g*h>; and Af = f * L elementwise.  The degree transform
    L-hat(z) = n - 2 w(z) is checked once per dimension.  Raises
    ChainViolation on the first failure, and ValueError for count < 1.
    n, count and seed are read through ``operator.index`` (numpy integers
    included; a float raises TypeError).

    The functions are drawn in bulk by ``_random_functions``: values
    exactly uniform on [-16, 16] from ``random.Random(seed * 1000003 + n)``
    bytes, and every tenth function carries non-integer dyadic values.
    Each f = F/q is held as the integer vector F, and since all five
    identities are invariant under scaling by q > 0, the cross-multiplied
    integer forms below are exact verifications of the rational statements
    (no tolerance anywhere).  All functions are checked at once as the rows
    of one array, through ``_butterfly`` and ``_adjacency`` directly; its
    dtype is chosen once, int64 when the bound below allows it and Python
    ints otherwise.  The successors g and h are rolled copies formed where
    a check reads them, never held.

    Every 25th function f = F_i/q_i, with g and h its successors j = i + 1
    and k = i + 2 (mod count), is also replayed through the public
    Fraction interface, built by ``_out`` with one Fraction per distinct
    value.  Each public output is compared, entry by entry, with the
    integer rows the array checks hold, as v.numerator * den ==
    b * v.denominator: wht(wht(f)) = F_i/(q_i 2^n); wht(f) = U_i/(q_i 2^n)
    and wht(g) = U_j/(q_j 2^n) for U = u(F); <f, g> =
    dot(F_i, F_j)/(q_i q_j 2^n); and Af and f * L both = AF_i/q_i for
    AF = ``_adjacency(F)``.  <f*g, h> = <f, g*h> compares the two public
    values.  The array checks prove the five identities on those rows, so
    equality proves them on the public path; the comparison itself runs
    through neither ``clear_denominators`` nor ``_out``, the code under
    test.
    """
    n, count, seed = map(operator.index, (n, count, seed))
    if not 1 <= n <= DENSE_MAX_N:
        raise DimensionMismatch(
            f"n = {n} outside dense range 1..{DENSE_MAX_N}")
    if count < 1:
        raise ValueError(f"count = {count} must be at least 1")
    rng = random.Random(seed * 1000003 + n)
    size = 1 << n
    big_l = degree_function(n)
    mult = [n - 2 * z.bit_count() for z in range(size)]
    if wht(big_l) != mult:
        raise ChainViolation("degree transform disagrees with n - 2 w(z)")

    draws, q = _random_functions(rng, count, size)
    # |dot(u(U_i . U_{i+1}), F_{i+2})| <= size^4 top^3 bounds every value
    top = int(np.abs(draws).max())
    F = _array(draws, size ** 4 * top ** 3)

    def dot(a, b):
        return (a * b).sum(axis=-1)

    def succ(a, k=1):
        return np.roll(a, -k, axis=0)

    U = _butterfly(F)
    AF = _adjacency(F)
    # u(U_j . U_{j+1}) appears on both sides of neighboring associativity
    # checks; compute each once
    P = _butterfly(U * succ(U))
    checks = [
        ("double transform", (_butterfly(U) != size * F).any(axis=1)),
        ("Parseval", dot(U, succ(U)) != size * dot(F, succ(F))),
        ("mean identity", U[:, 0] != F.sum(axis=1)),
        ("convolution self-adjointness",
         dot(P, succ(F, 2)) != dot(F, succ(P))),
        # u is injective (the double-transform check proves it on this very
        # input), so Af = f*L iff u(AF) = U . L-hat pointwise
        ("adjacency factorization",
         (_butterfly(AF) != U * np.array(mult)).any(axis=1)),
    ]
    failed = np.stack([bad for _, bad in checks])
    failing = np.flatnonzero(failed.any(axis=0))
    first = int(failing[0]) if failing.size else count

    numerator = operator.attrgetter("numerator")
    denominator = operator.attrgetter("denominator")

    def matches(values, rows, den):
        """values[k] == rows[k] / den for every k, cross-multiplied."""
        return len(values) == len(rows) and \
            list(map(den.__mul__, map(numerator, values))) == \
            list(map(operator.mul, rows, map(denominator, values)))

    for i in range(0, first, 25):
        j, k = (i + 1) % count, (i + 2) % count
        f, g, h = (_out(draws[x], Fraction(1, int(q[x]))) for x in (i, j, k))
        qi, qj = int(q[i]), int(q[j])
        wf, af = wht(f), AF[i].tolist()
        ok = (matches(wht(wf), F[i].tolist(), qi * size)
              and matches(wf, U[i].tolist(), qi * size)
              and matches(wht(g), U[j].tolist(), qj * size)
              and matches([inner(f, g)], [int(dot(F[i], F[j]))],
                          qi * qj * size)
              and inner(convolve(f, g), h) == inner(f, convolve(g, h))
              and matches(adjacency_apply(f), af, qi)
              and matches(convolve(f, big_l), af, qi))
        if not ok:
            raise ChainViolation(
                f"rational-path replay failed (n={n}, i={i})")
    if failing.size:
        name = checks[int(np.argmax(failed[:, first]))][0]
        raise ChainViolation(f"{name} failed (n={n}, i={first})")
    return {"n": n, "count": count, "pass": True}


def _code_side(code: list[int], n: int) -> tuple[list[int], int]:
    """The radius-free half of ``covering_replay`` for one code.

    ``code`` is the sorted distinct words as Python ints, all in
    [0, 2^n).  Returns (B, d): the n + 1 exact counts B_t = #{(a, b) in
    C^2 : |a ^ b| = t}, and the least t >= 1 with B_t > 0 (n for a
    one-word code).  The XORs of ``rows`` codewords at a time, at most
    ``_PAIR_BLOCK`` (or one row of |C|), are binned by weight at once.
    """
    words = np.asarray(code, dtype=np.int64)
    rows = max(1, _PAIR_BLOCK // max(words.size, 1))
    dist = np.zeros(n + 1, dtype=np.int64)
    for start in range(0, words.size, rows):
        block = words[start:start + rows, None] ^ words
        dist += np.bincount(np.bitwise_count(block).ravel(), minlength=n + 1)
    reached = np.flatnonzero(dist[1:])
    d = int(reached[0]) + 1 if reached.size else n
    return dist.tolist(), d


def covering_replay(code, r: int, n: int | None = None) -> dict:
    """Numerically replay the eigenvalue covering bound on a concrete code.

    Builds the radial Perron vector of B_r(0, n) for its float lambda,
    ``spectrum.top_eigenvalue`` of ``ball_operator(n, r)`` (the float a
    certificate of the ball carries, though none is made), extended by
    zero off the ball (checking Af >= lambda f pointwise), the function
    phi with phi_hat = sqrt(1_C * 1_C) >= 0, and F = phi * f, then verifies
    every inequality of the bound's derivation and the final size bound
    |C| <= n/(lambda - (n - 2d)) * |B| with d the measured minimum distance
    and |B| = sum_{w <= r} C(n, w).  1_C * 1_C is N/2^n for the histogram
    N of the XORs a ^ b over ordered pairs of codewords.

    Every quantity lives on the n + 1 weight shells.  f is radial, so
    (Af)_w = w f_{w-1} + (n - w) f_{w+1}, u(f)(z) = sum_{w <= r} f_w K_w(|z|)
    with the Krawtchouk values K_w(t) of ``krawtchouk.values``, exact in
    ints, E f = u(f)(0)/2^n, and E f^2 and |B| are sums weighted by
    C(n, w) = K_w(0).  The rest follows by Parseval
    from the distance distribution B_t = sum_{|x| = t} N(x):
    E phi = sqrt(m/2^n), E phi^2 = sum_t B_t/2^n, E F = E phi u(f)(0)/2^n,
    E F^2 = sum_t (B_t/2^n) (u(f)(t)/2^n)^2 and <AF, F> = sum_t (n - 2t)
    (B_t/2^n) (u(f)(t)/2^n)^2, since A is diagonal in the characters with
    eigenvalue n - 2|z|.  Each sum is a ``math.fsum`` of floats, so the
    report depends on no machine setting; each step is checked with a
    relative tolerance.  d is the least t >= 1 with B_t > 0 (n for a
    one-word code).  ``_code_side`` counts B and d on every call, binning
    blocks of pair XORs by weight, with no table of the cube and no cache.
    ``REPLAY_MAX_N`` bounds that work at |C|^2 <= 2^30 pairs and keeps the
    words in int64.
    Words, r and n are read through ``operator.index`` (numpy integers
    included; a float or a str raises TypeError), so the report holds
    Python ints.
    The derivation widens 2d to n in ``two_estimates`` and
    ``final_bound``, which holds only when 2d <= n.  Past half distance
    the chain may still pass (one-word codes, {0, 7}), and its report
    stands; when 2d > n and those two are the only failed steps, the code
    lies outside the bound's hypothesis and NotApplicable is raised,
    naming it.  Any other failure beyond tolerance raises ChainViolation.
    Raises OutOfRange for a code without the zero word, InvalidRadius
    unless 1 <= r <= n/2, and DimensionMismatch for n > ``REPLAY_MAX_N``
    or a word outside the cube, a negative one before the radius.  A given
    n meets the cap before ``code`` is read, so a lazy ``code`` is never
    consumed above it; a missing n is the largest word's bit length
    (>= 1).  Every input check runs before the code side is computed.
    """
    if n is not None:
        n = operator.index(n)
    if n is None or n <= REPLAY_MAX_N:
        code = sorted({operator.index(c) for c in code})
        if 0 not in code:
            raise OutOfRange("code must be nonempty and contain 0")
        if n is None:
            n = max(1, code[-1].bit_length())
        if code[0] < 0:
            raise DimensionMismatch(f"codeword {code[0]} outside [0, 2^{n})")
    if n > REPLAY_MAX_N:
        raise DimensionMismatch(f"n = {n} exceeds replay cap {REPLAY_MAX_N}")
    r = operator.index(r)
    lam = top_eigenvalue(ball_operator(n, r))
    size = 1 << n
    for c in code:
        if c >= size:
            raise DimensionMismatch(f"codeword {c} outside [0, 2^{n})")
    counts, d = _code_side(code, n)

    # the radial vector on the ball, 0 off it, padded by a 0 at each end
    rad = radial_vector(n, r, lam)
    pad = [0.0, *rad] + [0.0] * (n - r + 1)
    worst = min(w * pad[w] + (n - w) * pad[w + 2] - lam * pad[w + 1]
                for w in range(n + 1))
    perron_ok = worst >= -_REL_TOL * max(map(abs, rad)) * lam

    kraw = krawtchouk.values(n, r)
    shells = [row[0] for row in kraw]             # K_w(0) = C(n, w)
    ef2 = math.fsum(c * v * v for c, v in zip(shells, rad)) / size
    u_f = [math.fsum(map(operator.mul, rad, col)) for col in zip(*kraw)]
    ef = u_f[0] / size
    m = len(code)
    ephi, ephi2 = math.sqrt(m / size), math.fsum(counts) / size
    eF = ephi * u_f[0] / size
    # (B_t/2^n) (u(f)(t)/2^n)^2 = F_hat(z)^2 summed over the shell |z| = t
    energy = [b / size * (u / size) ** 2 for b, u in zip(counts, u_f)]
    eF2 = math.fsum(energy)
    afF = math.fsum((n - 2 * t) * e for t, e in enumerate(energy))
    ball = sum(shells)

    def step(name, lhs, rhs, kind):
        if kind == "le":
            ok = lhs <= rhs + _REL_TOL * max(1.0, abs(rhs))
        elif kind == "ge":
            ok = lhs >= rhs - _REL_TOL * max(1.0, abs(rhs))
        else:
            ok = abs(lhs - rhs) <= _REL_TOL * max(1.0, abs(rhs))
        return {"name": name, "lhs": lhs, "rhs": rhs, "pass": bool(ok)}

    steps = [
        {"name": "perron_pointwise", "lhs": worst, "rhs": 0.0,
         "pass": bool(perron_ok)},
        step("support_cauchy", ef * ef, ef2 * ball / size, "le"),
        step("phi_moment_ratio", ephi2 / (ephi * ephi), float(m), "eq"),
        step("AF_lower_estimate", afF, lam * eF2, "ge"),
        step("EF_product_identity", eF * eF, (ephi * ef) ** 2, "eq"),
        step("EF2_product_lower", eF2, ephi2 * ef2 / size, "ge"),
        step("two_estimates", n * ephi ** 2 * ef ** 2,
             (lam - (n - 2 * d)) / size * ephi2 * ef2, "ge"),
    ]
    applicable = lam > n - 2 * d
    bound = n / (lam - (n - 2 * d)) * ball if applicable else math.inf
    steps.append(step("final_bound", float(m), bound, "le"))

    report = {
        "n": n,
        "r": r,
        "d": d,
        "lambda": lam,
        "code_size": m,
        "ball_size": ball,
        "bound": bound,
        "steps": steps,
        "pass": all(s["pass"] for s in steps),
    }
    if not report["pass"]:
        failed = [s["name"] for s in steps if not s["pass"]]
        if 2 * d > n and set(failed) <= {"two_estimates", "final_bound"}:
            raise NotApplicable(
                f"the covering bound needs 2d <= n, got (n, d) = ({n}, {d});"
                f" the steps that widen 2d to n failed: {failed}")
        raise ChainViolation(f"replay steps failed: {failed}; report={report}")
    return report
