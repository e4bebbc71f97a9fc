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

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter

_TOL = 1e-12  # bisection width, in absolute units of lambda
_LAGUERRE_STEPS = 20  # a cap; from the Gershgorin start 3-5 steps suffice


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
    reduction.  Raises ``InvalidRadius`` unless 1 <= r <= n/2.
    """
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
    b = [math.sqrt(s) for s in offdiag_sq]
    hi = max(x + y for x, y in zip([0.0] + b, b + [0.0])) + 1.0
    lo = 0.0
    a, c = -math.inf, math.inf
    est = _top_root_estimate(offdiag_sq, hi)
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
    eigenvalue this is the (unnormalized) Perron vector of the ball.
    """
    f = [1.0, lam / n]
    for i in range(1, r):
        f.append((lam * f[i] - i * f[i - 1]) / (n - i))
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

    Entry i equals F[i] / q.  A list of Python ints comes back as it is,
    over q = 1.  Otherwise numerators and denominators are read through the
    numbers-ABC attributes; when the set of their types holds anything but
    int (numpy integers, or Fractions built from them), each part goes
    through ``int()`` so no later product can wrap.
    """
    if {*map(type, values)} <= {int}:
        return list(values), 1
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

    n goes through ``int()``, so a numpy length cannot wrap the binomials.
    ``f`` holds Integral/Rational entries (numpy integers included).
    ``clear_denominators`` turns them into Python-int numerators over one
    common denominator, which leaves the quotient unchanged; both sums are
    then Python ints, with the binomials taken from the recurrence
    C(n,i+1) = C(n,i)(n-i)/(i+1), and the one Fraction is built at the end.
    """
    n = int(n)
    f, _ = clear_denominators(f)
    num = den = 0
    binom = 1                                  # C(n, i)
    for i, fi in enumerate(f):
        den += binom * fi * fi
        if i + 1 < len(f):
            edges = binom * (n - i)            # C(n, i) * (n - i)
            num += 2 * edges * fi * f[i + 1]
            binom = edges // (i + 1)
    if den == 0:
        raise DegenerateWitness("witness vector is identically zero")
    return Fraction(num, den)


def _decimal(x: float) -> tuple[int, int]:
    """x rounded to 12 significant digits, as (m, e) with value m * 10^e."""
    digits, exp = f"{x:.12e}".split("e")
    return int(digits.replace(".", "")), int(exp) - 12


def certify(n: int, r: int) -> EigenCertificate:
    """Certified rational lower bound on the top eigenvalue of B_r(0, n).

    n goes through ``int()``; ``InvalidRadius`` is raised where
    ``ball_operator(n, r)`` raises it.  Runs ``top_eigenvalue`` on that
    operator, regenerates the radial vector and rounds each entry to 12
    significant digits, an integer m_i times 10^(e_i).  The quotient is
    evaluated on the integers m_i * 10^(e_i - min e), a scaled copy of the
    witness with the same quotient.  The result is a true lower bound on
    lambda_B no matter how inaccurate the float stage was.  Rounding is
    relative, so the witness keeps its shape at every n (f(0) = 1 keeps it
    nonzero) and the certificate stays within ~1e-12 relative of
    lambda_float.  The certificate keeps the pairs (m_i, e_i); no Fraction
    is built for the witness until ``EigenCertificate.witness`` is read.
    """
    n = int(n)
    lam = top_eigenvalue(ball_operator(n, r))
    rounded = [_decimal(x) for x in radial_vector(n, r, lam)]
    low = min(e for _, e in rounded)
    certified = rayleigh_quotient(n, [m * 10 ** (e - low) for m, e in rounded])
    return EigenCertificate(n=n, r=r, lambda_float=lam,
                            lambda_certified=certified, digits=tuple(rounded))


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
