"""Maximal eigenvalues of Hamming-ball subgraphs of the hypercube.

The ball B_r(0, n) is invariant under coordinate permutations, so its
adjacency spectrum restricted to radial functions is carried by an
(r+1)-point tridiagonal operator: lambda*f(i) = i*f(i-1) + (n-i)*f(i+1).
The symmetric form has off-diagonal squares (i+1)(n-i); dividing through by
n and letting n grow gives the asymptotic operator with off-diagonal squares
(i+1), whose top eigenvalue t_r is the n -> infinity limit of
lambda_B / sqrt(n).  An operator is passed around as the plain tuple of its
off-diagonal squares: ``ball_operator`` builds it, ``top_eigenvalue`` reads
it.

Everything here works on the radial reduction only — never on the 2^n-vertex
graph — and the certification path uses exact arithmetic only: the witness
is scaled to integers and its Rayleigh quotient is two integer sums over
binomial weights, divided once at the end, so no square root or float ever
enters an audited value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from itertools import accumulate
from numbers import Rational
from operator import add, attrgetter, index, mul

from .krawtchouk import shell_weights

_TOL = 1e-12  # bisection width, in absolute units of lambda
_LAGUERRE_STEPS = 20  # a cap; 1-4 steps suffice from either start
# the asymptotic start's margin over sqrt(n) t_r, far above t_r's float error
_START_MARGIN = 1 + 1e-9
# ``_radial_parts`` rescales its entries below _RESCALE_BELOW; an entry whose
# ``math.frexp`` exponent is below _MIN_EXP is no normal float, and
# ``_exact_digits`` rounds it in the context _DIGITS
_RESCALE_BELOW = 2.0 ** -400
_MIN_EXP = -1021
_DIGITS = Context(prec=13, rounding=ROUND_HALF_EVEN)


class InvalidRadius(ValueError):
    """Radius outside 1 <= r (<= n/2 for a finite n)."""


class DegenerateWitness(ArithmeticError):
    """A Rayleigh quotient was asked of the zero vector."""


def ball_operator(n: int, r: int) -> tuple[int, ...]:
    """Radial reduction of the adjacency of B_r(0, n).

    Returns the off-diagonal squares (i+1)(n-i), i < r, of the
    zero-diagonal symmetric tridiagonal operator on the r+1 weight shells.
    Its top eigenvalue equals the maximal eigenvalue of the ball subgraph:
    the ball's Perron vector can be taken radial, so nothing is lost in the
    reduction.  Raises ``InvalidRadius`` unless 1 <= r <= n/2; n and r go
    through ``operator.index``.
    """
    n, r = index(n), index(r)
    if r < 1:
        raise InvalidRadius(f"radius must be >= 1, got {r}")
    if r > n // 2:
        raise InvalidRadius(f"radius {r} exceeds n/2 = {n // 2}")
    return tuple((i + 1) * (n - i) for i in range(r))


def _all_below(offdiag_sq, x: float) -> bool:
    """Sturm test: True when every eigenvalue lies strictly below x.

    The LDL^T pivots of (T - x I) are all negative exactly when x exceeds
    the top eigenvalue.  The pivot recurrence uses the off-diagonal squares
    directly, so it never takes a square root; it stops at the first pivot
    that is not negative (zero or NaN included), before any division by it.
    """
    d = shift = -x
    if not d < 0:
        return False
    for bsq in offdiag_sq:
        d = shift - bsq / d
        if not d < 0:
            return False
    return True


def _top_root_estimate(offdiag_sq, x: float) -> float:
    """Float estimate of the top eigenvalue by Laguerre's method from x.

    The characteristic polynomials of the leading minors follow
    q_0 = 1, q_1 = x, q_{k+1} = x q_k - s_k q_{k-1}; differentiating the
    recurrence gives q' and q''.  All six running values are scaled down
    together when they grow large, which leaves q'/q and q''/q unchanged.
    Started above every root, Laguerre's iterates fall monotonically onto
    the top one; the loop stops once a step is below 1e-6 relative (the
    convergence is cubic), or when q or the step is no longer positive.
    The result is only a hint: ``top_eigenvalue`` verifies it.
    """
    m = len(offdiag_sq) + 1
    for _ in range(_LAGUERRE_STEPS):
        q0, q, d0, d, e0, e = 1.0, x, 0.0, 1.0, 0.0, 0.0
        for s in offdiag_sq:
            q0, q, d0, d, e0, e = (q, x * q - s * q0, d, q + x * d - s * d0,
                                   e, 2 * d + x * e - s * e0)
            if abs(q) > 1e150:
                q0, q, d0, d, e0, e = (v * 1e-150 for v in (q0, q, d0, d,
                                                            e0, e))
        if not q > 0:
            break
        g = d / q
        h = g * g - e / q
        step = m / (g + math.sqrt(max(0.0, (m - 1) * (m * h - g * g))))
        if not step > 0:
            break
        x -= step
        if step <= 1e-6 * x:
            break
    return x


def top_eigenvalue(offdiag_sq) -> float:
    """Largest eigenvalue of the zero-diagonal symmetric tridiagonal operator
    with off-diagonal squares ``offdiag_sq``, by Sturm-sequence bisection on
    [0, max row sum].

    The bisection halves [0, Gershgorin bound + 1] until it is _TOL wide
    or double precision runs out, asking ``_all_below`` at each midpoint.
    That predicate is monotone in x, in floating point too: -x is exact,
    and each pivot d <- -x - s/d (s >= 0 a square) is built from correctly
    rounded IEEE operations, each monotone in its operands, so by induction
    every computed pivot is non-increasing in x while the pivots before it
    stay negative.  Hence once _all_below(a) is False and _all_below(c) is
    True, every midpoint <= a answers False and every midpoint >= c True.

    A Laguerre estimate of the top root gives such a bracket: [a, c] =
    est -/+ 4 ulp(est), each point tested only while it tightens the
    bracket.  The loop then replays the plain bisection, asking the
    predicate only at midpoints inside (a, c), so it takes the very same
    steps and returns the same float bit for bit.  A side that does not
    verify stays at -inf or +inf, where every midpoint is asked, as
    without a bracket.
    """
    return _top_eigenvalue(offdiag_sq, math.inf,
                           _row_sum_bounds(offdiag_sq)[-1])


def _row_sum_bounds(offdiag_sq) -> list[float]:
    """Entry k is the Gershgorin bound (largest row sum of |entries|) of
    the leading block with the first k off-diagonal squares, k = 0..len.

    Row i of a block sums sqrt(s_{i-1}) + sqrt(s_i), with the squares past
    the block's edge read as 0; the maxima run over the same float sums a
    single block would form, so each entry is that block's bound exactly.
    """
    b = list(map(math.sqrt, offdiag_sq))
    # the rows before a block's last, then its last row, which sums b alone
    inner = accumulate(map(add, [0.0, *b], b), max)
    return [0.0, *map(max, inner, b)]


def _top_eigenvalue(offdiag_sq, start: float, gershgorin: float) -> float:
    """``top_eigenvalue``, with Laguerre started at min(start, gershgorin
    + 1), where ``gershgorin`` is the operator's ``_row_sum_bounds`` entry.
    A start above the top root saves Laguerre steps; any other start costs
    only Sturm tests, since the bracket it yields is verified and the
    bisection replay returns the same float either way."""
    hi = gershgorin + 1.0
    lo = 0.0
    a, c = -math.inf, math.inf
    est = _top_root_estimate(offdiag_sq, min(start, hi))
    for x in (est - 4 * math.ulp(est), est + 4 * math.ulp(est)):
        if a < x < c:                    # False for NaN, or an infinite est
            if _all_below(offdiag_sq, x):
                c = x
            else:
                a = x
    while hi - lo > _TOL:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:       # double precision exhausted
            break
        if mid <= a:
            lo = mid
        elif mid >= c or _all_below(offdiag_sq, mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def radial_vector(n: int, r: int, lam: float) -> list[float]:
    """Radial recurrence vector f(0..r) for trial eigenvalue ``lam``.

    f(0) = 1 and lam*f(i) = i*f(i-1) + (n-i)*f(i+1); at the true top
    eigenvalue this is the (unnormalized) Perron vector of the ball.  The
    entries are those of ``_radial_parts`` as plain floats, so at huge n
    the later ones underflow to 0.  n and r go through ``operator.index``;
    ``InvalidRadius`` unless n >= 1 and 0 <= r <= n/2.
    """
    n, r = index(n), index(r)
    if not (n >= 1 and 0 <= r <= n // 2):
        raise InvalidRadius(f"need n >= 1 and 0 <= r <= n/2, got n = {n}, "
                            f"r = {r}")
    return [math.ldexp(x, s) for x, s in _radial_parts(n, r, lam)]


def _radial_parts(n: int, r: int, lam: float) -> list[tuple[float, int]]:
    """``radial_vector`` with the entries' scale carried apart, so that
    none underflows: pairs (x_i, s_i) for f(i) = x_i 2^(s_i).

    s_i stays 0 while the entries are above 2^-400.  Past that the running
    pair f(i-1), f(i) is scaled by the same power of two, which brings f(i)
    into [0.5, 1), and s_i keeps the shift.  The entries fall by a factor
    of about lam/n >= 2^-512 per step, so no next entry can underflow.  The
    recurrence is linear and scaling by a power of two is exact, so
    wherever the plain entries are normal floats, x_i 2^(s_i) equals them
    bit for bit.
    """
    prev, cur, shift = 1.0, lam / n, 0
    f = [(prev, 0), (cur, 0)]
    for i in range(1, r):
        prev, cur = cur, (lam * cur - i * prev) / (n - i)
        if abs(cur) < _RESCALE_BELOW:
            e = math.frexp(cur)[1]
            prev, cur, shift = math.ldexp(prev, -e), math.ldexp(cur, -e), \
                shift + e
        f.append((cur, shift))
    return f[:r + 1]


@dataclass(frozen=True)
class EigenCertificate:
    """A certified rational lower bound on lambda_B with its witness.

    ``digits`` holds the float radial vector with each entry rounded to 12
    significant digits, as pairs (m, e) for the value m * 10^e;
    ``lambda_certified`` is the exact Rayleigh quotient of that vector,
    evaluated on an integer multiple of it.  ``witness`` is the same vector
    as exact rationals, built only when it is read.
    """

    n: int
    r: int
    lambda_float: float
    lambda_certified: Fraction
    digits: tuple[tuple[int, int], ...]

    @property
    def witness(self) -> tuple[Fraction, ...]:
        """The rounded radial vector, entry i = m_i * 10^e_i, as Fractions."""
        return tuple(Fraction(m * 10 ** e) if e >= 0 else Fraction(m, 10 ** -e)
                     for m, e in self.digits)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "lambda_float": self.lambda_float,
            "lambda_certified_num": self.lambda_certified.numerator,
            "lambda_certified_den": self.lambda_certified.denominator,
        }


def clear_denominators(values) -> tuple[list, int]:
    """Integral/Rational entries as Python-int numerators F over q = lcm.

    Entry i equals F[i] / q.  The entries are read once, into a list, so a
    generator gives what its list gives.  Python ints come back as they
    are, over q = 1; a type that is not Rational raises TypeError naming
    it.  Otherwise the parts are read through the numbers-ABC attributes;
    when their types hold anything but int (numpy integers, or Fractions
    built from them), each part goes through ``int()`` so no product can
    wrap.
    """
    values = list(values)
    kinds = {*map(type, values)}
    if kinds <= {int}:
        return values, 1
    inexact = sorted(k.__name__ for k in kinds if not issubclass(k, Rational))
    if inexact:
        raise TypeError(f"exact entries expected, got {', '.join(inexact)}")
    nums = list(map(attrgetter("numerator"), values))
    dens = list(map(attrgetter("denominator"), values))
    if not {*map(type, nums), *map(type, dens)} <= {int}:
        nums, dens = list(map(int, nums)), list(map(int, dens))
    q = math.lcm(*set(dens))
    if q == 1:
        return nums, 1
    return [a * (q // b) for a, b in zip(nums, dens)], q


def rayleigh_quotient(n: int, f: list[int | Fraction]) -> Fraction:
    """Exact Rayleigh quotient of a radial vector on the cube's adjacency.

    The graph carries C(n,i)*(n-i) edges between weight shells i and i+1,
    so for F(x) = f(w_H(x)):
    <AF, F> / <F, F> = sum 2*C(n,i)(n-i) f_i f_{i+1} / sum C(n,i) f_i^2.
    Any such quotient is a true lower bound on the top ball eigenvalue.

    n goes through ``operator.index``, so a numpy length cannot wrap the
    binomials, a float one raises TypeError and a negative one ValueError.
    ``f`` holds Integral/Rational entries (numpy integers included).
    ``clear_denominators`` turns them into Python-int numerators over one
    common denominator, which leaves the quotient unchanged; both sums are
    then Python ints over the weights of ``krawtchouk.shell_weights`` (its
    binomial recurrence), and the one Fraction is built at the end.
    """
    f, _ = clear_denominators(f)
    return _quotient(shell_weights(n, len(f)), f)


def _quotient(weights, f: list[int]) -> Fraction:
    """The Rayleigh quotient of the Python ints ``f`` from ``shell_weights``
    of at least len(f) shells."""
    binoms, edges = weights
    den = sum(map(mul, binoms, map(mul, f, f)))
    if den == 0:
        raise DegenerateWitness("witness vector is identically zero")
    return Fraction(sum(map(mul, edges, map(mul, f, f[1:]))), den)


def lambda_ceiling(n: int, r: int) -> float:
    """A float above the top eigenvalue of B_r(0, n): sqrt(n) t_r (1 + 1e-9)
    for r <= 64, and inf past the range of ``asymptotic_constant``.

    (i+1)(n-i) <= (i+1) n entrywise, so by Perron-Frobenius
    lambda_B <= sqrt(n) t_r; the margin lies far above the float error of
    sqrt(n) and of t_r (bisected to 1e-12, and t_r >= 1), so no certified
    lambda of the ball reaches this value.
    """
    if r > 64:
        return math.inf
    return math.sqrt(n) * asymptotic_constant(r) * _START_MARGIN


def certify(n: int, r: int) -> EigenCertificate:
    """Certified rational lower bound on the top eigenvalue of B_r(0, n):
    ``certify_radii(n, (r,))[0]``, the one certification path."""
    return certify_radii(n, (r,))[0]


def certify_radii(n: int, radii) -> list[EigenCertificate]:
    """The certificates of B_r(0, n) for each r in ``radii``, in one pass.

    n and the radii go through ``operator.index``; ``InvalidRadius`` is
    raised where ``ball_operator`` raises it for the smallest or largest
    radius.  One operator of the largest radius and one list of its
    ``_row_sum_bounds`` serve every radius: the ball of radius r is the
    operator's first r squares, with Gershgorin bound entry r.
    ``top_eigenvalue`` runs on each, with Laguerre started at
    ``lambda_ceiling(n, r)``, above the top root yet close to it for
    r <= 64, rather than at the Gershgorin bound.  The start is only a
    hint, so the float is the same either way.

    Each radius's radial vector is regenerated from its float with each
    entry's scale carried apart (``_radial_parts``), and every entry of
    every vector is rounded to 12 significant digits, an integer m_i times
    10^(e_i), by one "%.12e" formatting and one integer parse; an entry
    below the float range, met only at huge n, is rounded the same way
    from its exact value (``_exact_digits``).  A radius's quotient is
    evaluated on the integers m_i * 10^(e_i - min e), a scaled copy of its
    witness with the same quotient, over binomial weights C(n, i) formed
    once for all radii.  The result is a true lower bound on lambda_B no
    matter how inaccurate the float stage was.
    Rounding is relative, so the witness keeps its shape at every n
    (f(0) = 1 keeps it nonzero) and the certificate stays within ~1e-12
    relative of lambda_float.  The certificate keeps the pairs (m_i, e_i);
    no Fraction is built for the witness until ``EigenCertificate.witness``
    is read.
    """
    n, radii = index(n), list(map(index, radii))
    if not radii:
        return []
    offdiag_sq = ball_operator(n, max(radii))
    if min(radii) < 1:
        ball_operator(n, min(radii))         # raises InvalidRadius
    gershgorin = _row_sum_bounds(offdiag_sq)
    lams = [_top_eigenvalue(offdiag_sq[:r], lambda_ceiling(n, r),
                            gershgorin[r]) for r in radii]
    vectors = [_radial_parts(n, r, lam) for r, lam in zip(radii, lams)]
    flat = [math.ldexp(x, s) for f in vectors for x, s in f]
    # "d.dddddddddddde+XX" per entry: drop the point, split off the exponent
    parts = list(map(int, ("%.12e " * len(flat) % tuple(flat))
                     .replace(".", "").replace("e", " ").split()))
    weights = shell_weights(n, max(map(len, vectors)))
    certs, at = [], 0
    for r, lam, f in zip(radii, lams, vectors):
        ms = parts[at:at + 2 * len(f):2]
        es = [e - 12 for e in parts[at + 1:at + 2 * len(f):2]]
        at += 2 * len(f)
        if f[-1][1]:           # rescaled: entries may lie below float range
            for i, (x, s) in enumerate(f):
                if math.frexp(x)[1] + s < _MIN_EXP:
                    ms[i], es[i] = _exact_digits(x, s)
        low = min(es)
        certified = _quotient(weights, [m * 10 ** (e - low)
                                        for m, e in zip(ms, es)])
        certs.append(EigenCertificate(n=n, r=r, lambda_float=lam,
                                      lambda_certified=certified,
                                      digits=tuple(zip(ms, es))))
    return certs


def _exact_digits(x: float, s: int) -> tuple[int, int]:
    """x 2^s, a nonzero value below the normal float range, rounded to 13
    significant digits half to even, as ``"%.12e"`` rounds a float: the
    pair (m, e) of the value m 10^e, with |m| of 13 digits."""
    x, e2 = math.frexp(x)
    num = Decimal(int(math.ldexp(x, 53)))     # x 2^s = num / 2^(53 - s - e2)
    q = _DIGITS.divide(num, Decimal(1 << 53 - s - e2))
    sign, digits, exp = q.as_tuple()
    m = int("".join(map(str, digits))) * 10 ** (13 - len(digits))
    return -m if sign else m, exp + len(digits) - 13


@functools.cache
def asymptotic_constant(r: int) -> float:
    """t_r, the top eigenvalue of the limit operator (1, ..., r), r <= 64."""
    if not (1 <= r <= 64):
        raise InvalidRadius(f"r = {r} outside supported range 1..64")
    return top_eigenvalue(tuple(range(1, r + 1)))


def recurrence_polynomial_root(r: int) -> float:
    """Independent oracle for t_r via the characteristic recurrence.

    The sequence p_0 = 1, p_1 = x, p_{j+1} = x*p_j - j*p_{j-1} builds the
    characteristic polynomials of the limit operator's leading minors.  By
    eigenvalue interlacing, x exceeds the largest root of p_{r+1} exactly
    when every p_j(x) is positive, which gives a clean bisection predicate
    that never touches the bisection path used by top_eigenvalue.
    """

    def above_all_roots(x: float) -> bool:
        prev, cur = 1.0, x
        if cur <= 0:
            return False
        for j in range(1, r + 1):
            prev, cur = cur, x * cur - j * prev
            if cur <= 0:
                return False
        return True

    lo, hi = 0.0, 2.0 * math.sqrt(r + 1) + 1.0
    while hi - lo > _TOL:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if above_all_roots(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
