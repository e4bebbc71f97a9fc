"""Fourier analysis on F_2^n (dense, n <= 16) and the covering-bound replay.

Functions on the cube are dense tables of length 2^n indexed by the point's
integer bitmask.  The kernels are numpy operations along the last axis, so
a 2-D array is processed row by row in one call, and each level runs one
long inner loop per row: the butterfly in constant geometry, the adjacency
operator as n flips.  Their results equal a loop over (size/2h, 2, h)
blocks bit for bit.  A self-convolution f * f transforms f once.

The public primitives are exact only.  They take one 1-D sequence of
Integral/Rational entries (numpy integers, Fractions with numpy parts and
1-D integer or object ndarrays included) and raise TypeError, naming the
entry type, for anything else: a float entry, a float ndarray, or a row of
a 2-D array.  ``spectrum.clear_denominators``, the route
``rayleigh_quotient`` uses too, turns the entries into Python-int
numerators over one common denominator q.  The numerators run in int64
only when a magnitude bound, computed from the inputs before any array is
allocated, keeps every intermediate below 2^63; otherwise they run on
Python ints (object arrays).  They never pass through floating point, and
int64 never wraps; ``inner`` is one Python-int dot product of the
numerators.  Results are lists: Integral entries give ints, any other
Rational entry (or any division, as in ``wht`` and ``convolve``) gives
Fractions, one per distinct value.  The identity suite checks all its
functions at once as the rows of one exact array on the kernels.  The
covering replay is numeric by nature (a square root and a Perron vector
enter): it runs its float64 arrays through the dtype-agnostic kernels
directly and checks each step with a relative tolerance.

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
from numbers import Integral, Rational

import numpy as np

from .bounds import OutOfRange, vol
from .spectrum import (InvalidRadius, ball_operator, clear_denominators,
                       radial_vector, top_eigenvalue)

_REL_TOL = 1e-9  # replay steps are float; each may miss by this much
_INT64_LIMIT = 1 << 63


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
    """A table as (numerators, unit, magnitude).

    Every entry type must be Rational (the numbers-ABC test runs once per
    type, not per entry); any other type, a row of a 2-D array included,
    raises TypeError naming it.  ``clear_denominators`` turns the entries
    into Python-int numerators F over q: the unit is 1/q, or the int 1 when
    every type is Integral, and the magnitude is max |F|.
    """
    kinds = set(map(type, values))
    inexact = sorted(k.__name__ for k in kinds if not issubclass(k, Rational))
    if inexact:
        raise TypeError(f"exact entries expected, got {', '.join(inexact)}")
    nums, q = clear_denominators(values)
    unit = 1 if all(issubclass(k, Integral) for k in kinds) \
        else Fraction(1, q)
    return nums, unit, max(map(abs, nums), default=0)


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
    return [scaled[v] for v in values]


def _butterfly(a: np.ndarray) -> np.ndarray:
    """u along the last axis; level h combines the entries x and x + h.

    Constant geometry (Pease): each level reads the pairs (2i, 2i + 1) as
    two stride-2 lanes and writes lo + hi and lo - hi to the two halves of
    the other of two buffers.  That rotates the index right by one bit, so
    the next level's pairs are adjacent again and after n levels the order
    is natural; ``a`` is never written.  Each entry sees the operations of
    the in-place loop over (size/2h, 2, h) blocks in the same order, so
    float, int64 and object results are identical to it.  Callers: the
    public primitives (one exact table), the identity suite (its int64 or
    object array, one function per row), the covering replay (float64).
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
    ef, uf, _ = _split(f)
    eg, ug, _ = _split(g)
    if _dim(ef) != _dim(eg):
        raise DimensionMismatch(f"{len(ef)} vs {len(eg)}")
    return Fraction(sum(map(operator.mul, ef, eg)),
                    len(f) * uf.denominator * ug.denominator)


def _convolution(f, g):
    """f * g as (numerators, unit), as ``_out`` takes them.

    The entries are the integer numerators u(u(F) . u(G)) and the unit is
    1/(q_f q_g 4^n) > 0, so an entry is zero exactly where f * g is.  When
    g is f the transform is computed once.
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
    return _butterfly(tf * tg), Fraction(uf * ug, size * size)


def convolve(f, g) -> list:
    """(f * g)(x) = E_y f(y) g(x + y), via u(u(f) . u(g)) / 4^n.

    Exact (Fractions out).
    """
    return _out(*_convolution(f, g))


def adjacency_apply(f) -> list:
    """Af by neighbor summation: (Af)(x) = sum_i f(x xor e_i).

    Same input/output contract as ``wht_unnormalized``.
    """
    entries, unit, mag = _split(f)
    n = _dim(entries)
    return _out(_adjacency(_array(entries, mag * n)), unit)


def degree_function(n: int) -> list:
    """L with L(x) = 2^n at weight-1 points, else 0; satisfies Af = f * L."""
    return [(1 << n) if x.bit_count() == 1 else 0 for x in range(1 << n)]


def _check_words(code, n: int) -> None:
    """Raise DimensionMismatch naming the first word outside [0, 2^n)."""
    for c in code:
        if not 0 <= c < 1 << n:
            raise DimensionMismatch(f"codeword {c} outside [0, 2^{n})")


def indicator(code, n: int) -> list:
    """1_C as a dense 0/1 table; a word outside [0, 2^n) is a mismatch."""
    _check_words(code, n)
    values = [0] * (1 << n)
    for c in code:
        values[c] = 1
    return values


def _pairwise_min_distance(code: list[int], n: int) -> int:
    """Minimum pairwise Hamming distance; n for codes with < 2 words."""
    if len(code) < 2:
        return n
    best = n
    for i, a in enumerate(code):
        for b in code[i + 1:]:
            w = (a ^ b).bit_count()
            if w < best:
                best = w
    return best


def distance_check(code, n: int, d: int) -> bool:
    """True iff (1_C * 1_C) vanishes on all weights 0 < w < d.

    Computed both spectrally (exact convolution) and by a direct pairwise
    scan; disagreement between the two routes raises, since it can only
    come from an arithmetic bug.
    """
    if n > 16:
        raise DimensionMismatch(f"n = {n} exceeds dense-transform cap 16")
    code = sorted(set(code))
    one_c = indicator(code, n)
    # exact integer numerators: zero exactly where the convolution is
    numerators, _ = _convolution(one_c, one_c)
    weights = np.bitwise_count(np.arange(1 << n))
    spectral = not numerators[(weights > 0) & (weights < d)].any()
    direct = _pairwise_min_distance(code, n) >= d
    if spectral != direct:
        raise ChainViolation(
            f"convolution route says {spectral}, pairwise scan says "
            f"{direct} for d = {d}")
    return spectral


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
        parts.append(draws[draws < 33])
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
    a check reads them, never held.  Every 25th function is additionally
    replayed through the public Fraction interface so that arithmetic path
    stays exercised; ``_out`` builds the replayed function with one
    Fraction per distinct value, and the replay's own sums stay per-entry
    Fraction arithmetic, its independent oracle.
    """
    if not 1 <= n <= 16:
        raise DimensionMismatch(f"n = {n} outside dense range 1..16")
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
         (_butterfly(_adjacency(F)) != U * np.array(mult))
         .any(axis=1)),
    ]
    failed = np.stack([bad for _, bad in checks])
    failing = np.flatnonzero(failed.any(axis=0))
    first = int(failing[0]) if failing.size else count

    def function(i):
        i %= count
        return _out(draws[i], Fraction(1, int(q[i])))

    for i in range(0, first, 25):
        f, g, h = function(i), function(i + 1), function(i + 2)
        wf = wht(f)
        ok = (wht(wf) == [v / size for v in f]
              and inner(f, g) == sum(a * b for a, b in zip(wf, wht(g)))
              and wf[0] == sum(f) / size
              and inner(convolve(f, g), h) == inner(f, convolve(g, h))
              and adjacency_apply(f) == convolve(f, big_l))
        if not ok:
            raise ChainViolation(
                f"rational-path replay failed (n={n}, i={i})")
    if failing.size:
        name = checks[int(np.argmax(failed[:, first]))][0]
        raise ChainViolation(f"{name} failed (n={n}, i={first})")
    return {"n": n, "count": count, "pass": True}


def covering_replay(code, r: int, n: int | None = None) -> dict:
    """Numerically replay the eigenvalue covering bound on a concrete code.

    Builds the radial Perron vector of B_r(0, n) extended by zero off the
    ball (checking Af >= lambda f pointwise), the function phi with
    phi_hat = sqrt(1_C * 1_C) >= 0, and F = phi * f, then verifies every
    inequality of the bound's derivation and the final size bound
    |C| <= n/(lambda - (n - 2d)) * |B| with d the measured minimum distance.
    Raises ChainViolation if any step fails beyond tolerance; OutOfRange for
    a code without the zero word, InvalidRadius unless 1 <= r <= n/2, and
    DimensionMismatch for n > 15 or a word outside the cube.
    """
    code = sorted(set(code))
    if 0 not in code:
        raise OutOfRange("code must be nonempty and contain 0")
    if n is None:
        n = max(1, max(code).bit_length())
    if n > 15:
        raise DimensionMismatch(f"n = {n} exceeds replay cap 15")
    if not 1 <= r <= n // 2:
        raise InvalidRadius(f"r = {r} outside 1..n/2 = {n // 2}")
    _check_words(code, n)
    size = 1 << n
    one_c = np.zeros(size)
    one_c[code] = 1.0
    d = _pairwise_min_distance(code, n)
    lam = top_eigenvalue(ball_operator(n, r))

    # the radial vector on the ball, and 0 (index r + 1) off it
    rad = np.array(radial_vector(n, r, lam) + [0.0])
    f = rad[np.minimum(np.bitwise_count(np.arange(size)), r + 1)]
    af = _adjacency(f)
    worst = float((af - lam * f).min())
    scale = float(np.abs(f).max()) * lam
    perron_ok = worst >= -_REL_TOL * scale

    # float convolutions u(u(f) . u(g)) / 4^n, on the kernels directly
    conv_cc = _butterfly(_butterfly(one_c) ** 2) / size ** 2
    phi_hat = np.sqrt(np.maximum(conv_cc, 0.0))
    phi = _butterfly(phi_hat)                # synthesis: sum_z phi_hat chi_z
    big_f = _butterfly(_butterfly(phi) * _butterfly(f)) / size ** 2

    def mean(vals):
        return float(vals.sum()) / size

    def mean_sq(vals):
        return float(np.dot(vals, vals)) / size

    ef, ef2 = mean(f), mean_sq(f)
    ephi, ephi2 = mean(phi), mean_sq(phi)
    eF, eF2 = mean(big_f), mean_sq(big_f)
    ball = vol(r, n)
    m = len(code)
    afF = float(np.dot(_adjacency(big_f), big_f)) / size

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
        raise ChainViolation(f"replay steps failed: {failed}; report={report}")
    return report
