"""Maximal eigenvalues of Hamming-ball subgraphs of the hypercube.

The ball B_r(0, n) is invariant under coordinate permutations, so its
adjacency spectrum restricted to radial functions is carried by an
(r+1)-point tridiagonal operator: lambda*f(i) = i*f(i-1) + (n-i)*f(i+1).
The symmetric form has off-diagonal squares (i+1)(n-i); dividing through by
n and letting n grow gives the asymptotic operator with off-diagonal squares
(i+1), whose top eigenvalue t_r is the n -> infinity limit of
lambda_B / sqrt(n).

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

ASYMPTOTIC = "asymptotic"
_TOL = 1e-12  # bisection width, in absolute units of lambda


class InvalidRadius(ValueError):
    """Radius outside 1 <= r (<= n/2 in finite mode)."""


class DegenerateWitness(ArithmeticError):
    """A Rayleigh quotient was asked of the zero vector."""


@dataclass(frozen=True)
class TridiagonalOperator:
    """Zero-diagonal symmetric tridiagonal given by off-diagonal squares."""

    offdiag_sq: tuple[int, ...]
    mode: int | str          # finite n, or ASYMPTOTIC

    @property
    def size(self) -> int:
        return len(self.offdiag_sq) + 1

    @property
    def r(self) -> int:
        return len(self.offdiag_sq)


def ball_operator(n, r: int) -> TridiagonalOperator:
    """Radial reduction of the adjacency of B_r(0, n).

    ``n`` is a length, or ``"asymptotic"`` (equivalently None) for the
    normalized limit operator.  The top eigenvalue of the returned operator
    equals the maximal eigenvalue of the ball subgraph: the ball's Perron
    vector can be taken radial, so nothing is lost in the reduction.
    """
    if r < 1:
        raise InvalidRadius(f"radius must be >= 1, got {r}")
    if n is None or n == ASYMPTOTIC:
        return TridiagonalOperator(tuple(i + 1 for i in range(r)), ASYMPTOTIC)
    n = int(n)
    if r > n // 2:
        raise InvalidRadius(f"radius {r} exceeds n/2 = {n // 2}")
    return TridiagonalOperator(tuple((i + 1) * (n - i) for i in range(r)), n)


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


def top_eigenvalue(T: TridiagonalOperator) -> float:
    """Largest eigenvalue by Sturm-sequence bisection on [0, max row sum]."""
    b = [math.sqrt(s) for s in T.offdiag_sq]
    row_sums = [b[0]] + [b[i - 1] + b[i] for i in range(1, len(b))] + [b[-1]]
    hi = max(row_sums) + 1.0
    lo = 0.0
    while hi - lo > _TOL:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:       # double precision exhausted
            break
        if _all_below(T.offdiag_sq, mid):
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

    ``witness`` is the float radial vector with each entry rounded to 12
    significant digits, as exact rationals; ``lambda_certified`` is its
    exact Rayleigh quotient, evaluated on an integer multiple of it.
    """

    n: int
    r: int
    lambda_float: float
    lambda_certified: Fraction
    witness: tuple[Fraction, ...]

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

    Entry i equals F[i] / q.  Numerators and denominators are read through
    the numbers-ABC attributes; when the set of their types holds anything
    but int (numpy integers, or Fractions built from them), each part goes
    through ``int()`` so no later product can wrap.
    """
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

    ``f`` holds Integral/Rational entries (numpy integers included).
    ``clear_denominators`` turns them into Python-int numerators over one
    common denominator, which leaves the quotient unchanged; both sums are
    then Python ints, with the binomials taken from the recurrence
    C(n,i+1) = C(n,i)(n-i)/(i+1), and the one Fraction is built at the end.
    """
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


def certify(T: TridiagonalOperator) -> EigenCertificate:
    """Certified rational lower bound on the finite-n ball eigenvalue.

    Runs the float bisection, regenerates the radial vector and rounds each
    entry to 12 significant digits, read as an integer m_i times 10^(e_i).
    The quotient is evaluated on the integers m_i * 10^(e_i - min e), a
    scaled copy of the witness with the same quotient.  The result is a true
    lower bound on lambda_B no matter how inaccurate the float stage was.
    Rounding is relative, so the witness keeps its shape at every n (f(0) = 1
    keeps it nonzero) and the certificate stays within ~1e-12 relative of
    lambda_float.
    """
    if T.mode == ASYMPTOTIC:
        raise ValueError("certification requires a finite-n operator")
    n, r = int(T.mode), T.r
    lam = top_eigenvalue(T)
    rounded = [_decimal(x) for x in radial_vector(n, r, lam)]
    low = min(e for _, e in rounded)
    certified = rayleigh_quotient(n, [m * 10 ** (e - low) for m, e in rounded])
    witness = tuple(Fraction(m * 10 ** e) if e >= 0 else Fraction(m, 10 ** -e)
                    for m, e in rounded)
    return EigenCertificate(n=n, r=r, lambda_float=lam,
                            lambda_certified=certified, witness=witness)


def paper_test_function(n: int, t: float) -> float:
    """Rayleigh quotient of the explicit radius-3 trial vector.

    The vector is the radial recurrence at trial value t*sqrt(n) truncated
    after shell 3: f(0)=1, f(1)=t/sqrt(n), f(2)=(t^2-1)/(n-1),
    f(3) = ((t^2-1) t sqrt(n)/(n-1) - 2t/sqrt(n)) / (n-2).  Its quotient is
    a valid lower bound on lambda_B for B_3(0, n) at every t > 0.
    """
    if n < 16:
        raise ValueError("test function intended for n >= 16")
    if t <= 0:
        raise ValueError("t must be positive")
    rn = math.sqrt(n)
    f0 = 1.0
    f1 = t / rn
    f2 = (t * t - 1) / (n - 1)
    f3 = ((t * t - 1) * t * rn / (n - 1) - 2 * t / rn) / (n - 2)
    f = [f0, f1, f2, f3]
    num = sum(2 * math.comb(n, i) * (n - i) * f[i] * f[i + 1]
              for i in range(3))
    den = sum(math.comb(n, i) * f[i] ** 2 for i in range(4))
    return num / den


def asymptotic_constant(r: int) -> float:
    """t_r: top eigenvalue of the normalized limit operator, 1 <= r <= 64."""
    if not (1 <= r <= 64):
        raise InvalidRadius(f"r = {r} outside supported range 1..64")
    return top_eigenvalue(ball_operator(ASYMPTOTIC, r))


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
