"""Lower and upper bounds on A(n, d), classical and eigenvalue-driven.

Finite-n rigorous bounds are computed in exact integer/rational arithmetic;
floating point appears only in rate-level asymptotics and display rows that
drop o(.)/O(.) terms, and every such row carries rigor="asymptotic-heuristic"
so it can never be mistaken for a theorem.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

from .cyclic import InvalidParameters, _check_params, designed_distance
from .spectrum import EigenCertificate, InvalidRadius, ball_operator, certify

RIGOROUS = "rigorous"
HEURISTIC = "asymptotic-heuristic"


class OutOfRange(ValueError):
    """Parameters outside a bound's stated domain."""


class NotApplicable(RuntimeError):
    """The bound's hypothesis fails at these parameters (not an error)."""


@dataclass(frozen=True)
class BoundValue:
    """One bound evaluation: exact/log2 value plus rigor bookkeeping."""

    label: str
    kind: str                      # "lower" | "upper"
    rigor: str                     # RIGOROUS | HEURISTIC
    value_log2: float
    value_exact: int | None = None
    condition: str = ""

    def row(self, n: int, d: int) -> dict:
        """This value as the table row at (n, d), keyed in CSV column order.

        The keys are n, d, j = n - 2d, bound (the label), kind, rigor,
        value_log2, value_exact and condition: the one row schema of
        ``cli.bound_rows``, ``regime_table`` and the CSV and JSON writers.
        """
        return {"n": n, "d": d, "j": n - 2 * d, "bound": self.label,
                "kind": self.kind, "rigor": self.rigor,
                "value_log2": self.value_log2,
                "value_exact": self.value_exact,
                "condition": self.condition}


def _log2_int(x: int) -> float:
    """log2 of a positive integer of any size."""
    if x <= 0:
        raise ValueError("log2 of non-positive value")
    bl = x.bit_length()
    if bl <= 960:
        return math.log2(x)
    shift = bl - 53
    return math.log2(x >> shift) + shift


def _exact(label: str, kind: str, value: int, rigor: str = RIGOROUS,
           condition: str = "") -> BoundValue:
    return BoundValue(label=label, kind=kind, rigor=rigor,
                      value_log2=_log2_int(value), value_exact=value,
                      condition=condition)


# ---------------------------------------------------------------------------
# scalar helpers


def H2(p: float) -> float:
    """Binary entropy, with H2(0) = H2(1) = 0."""
    if p < 0 or p > 1:
        raise OutOfRange(f"entropy argument {p} outside [0, 1]")
    if p == 0 or p == 1:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def Q(x: float) -> float:
    """Standard normal tail probability, via the complementary error function."""
    return 0.5 * math.erfc(x / math.sqrt(2))


def J2(delta: float) -> float:
    return 0.5 * (1 - math.sqrt(max(0.0, 1 - 2 * delta)))


def _g_mrrw(x: float) -> float:
    """The entropy composite g(x) = H2((1 - sqrt(1-x))/2) on [0, 1]."""
    x = min(1.0, max(0.0, x))
    return H2(0.5 * (1 - math.sqrt(1 - x)))


# ---------------------------------------------------------------------------
# classical finite-n bounds


def vol(r: int, n: int) -> int:
    """|B_r(0, n)| = sum_{i<=r} C(n, i), exactly."""
    if not (0 <= r <= n):
        raise InvalidRadius(f"radius {r} outside [0, {n}]")
    v = term = 1
    for i in range(r):
        term = term * (n - i) // (i + 1)     # C(n, i+1), exact
        v += term
    if 0 < r <= n // 2 and _log2_int(v) > H2(r / n) * n + 1e-9:
        # the entropy cap on the ball size failed: an arithmetic bug
        raise ArithmeticError(
            f"Vol({r}, {n}) = {v} exceeds the entropy cap 2^(n H2(r/n))")
    return v


def gv_lower(n: int, d: int) -> BoundValue:
    """Greedy covering lower bound: A(n, d) >= 2^n / Vol(d-1, n)."""
    if not (1 <= d <= n):
        raise OutOfRange(f"need 1 <= d <= n, got d={d}, n={n}")
    value = -((-(1 << n)) // vol(d - 1, n))        # ceil division
    return _exact("gv", "lower", value)


def hamming_upper(n: int, d: int) -> BoundValue:
    """Sphere-packing bound with packing radius floor((d-1)/2)."""
    if not (1 <= d <= n):
        raise OutOfRange(f"need 1 <= d <= n, got d={d}, n={n}")
    e = (d - 1) // 2
    return _exact("hamming", "upper", (1 << n) // vol(e, n))


def singleton_upper(n: int, d: int) -> BoundValue:
    if not (1 <= d <= n):
        raise OutOfRange(f"need 1 <= d <= n, got d={d}, n={n}")
    return _exact("singleton", "upper", 1 << (n - d + 1))


def plotkin_upper(n: int, d: int) -> BoundValue:
    """Plotkin-type bound, sound for every 1 <= d <= n.

    d < n/2 uses the shortening corollary d * 2^(n-2d+2).  For d >= n/2 the
    averaging bound is applied to (n, d) when d is even and, via the parity
    extension A(n, d) = A(n+1, d+1), to (n+1, d+1) when d is odd; this keeps
    the bound valid at integer break points (e.g. A(6,4) = 4 and
    A(10,6) = 6 both meet it with equality).
    """
    if not (1 <= d <= n):
        raise OutOfRange(f"need 1 <= d <= n, got d={d}, n={n}")
    if 2 * d < n:
        return _exact("plotkin", "upper", d << (n - 2 * d + 2))
    if d % 2 == 0:
        if 2 * d == n:
            return _exact("plotkin", "upper", 2 * n)
        return _exact("plotkin", "upper", 2 * (d // (2 * d - n)))
    # odd d with 2d >= n: extend by a parity bit; the extension has even
    # distance d+1 with 2(d+1) > n+1, so the averaging case always applies
    ne, de = n + 1, d + 1
    return _exact("plotkin", "upper", 2 * (de // (2 * de - ne)),
                  condition="via parity extension to (n+1, d+1)")


def mceliece_upper(n: int, d: int) -> BoundValue:
    """Heuristic reference line n(j+2), meaningful only for j = o(sqrt(n))."""
    if not (1 <= d <= n):
        raise OutOfRange(f"need 1 <= d <= n, got d={d}, n={n}")
    j = n - 2 * d
    if j + 2 <= 0:
        raise NotApplicable(f"n(j+2) non-positive at j = {j}")
    ratio = j / math.sqrt(n)
    return _exact("mceliece", "upper", n * (j + 2), rigor=HEURISTIC,
                  condition=f"valid for j = o(sqrt(n)); j/sqrt(n) = "
                            f"{ratio:.6f}")


# ---------------------------------------------------------------------------
# rate-level asymptotic bounds


def rate_bounds(delta: float) -> dict[str, float]:
    """Asymptotic rate upper bounds at relative distance delta.

    eb = 1 - H2(J2(delta)); mrrw1 = H2(1/2 - sqrt(delta(1-delta)));
    mrrw2 = min_{0<=u<=1-2delta} 1 + g(u^2) - g(u^2 + 2 delta u + 2 delta),
    minimized by a 1001-point grid plus golden-section refinement.  All
    three drop o(1) terms and are therefore heuristic at finite n.
    """
    if not (0 < delta <= 0.5):
        raise OutOfRange(f"delta {delta} outside (0, 0.5]")
    eb = 1 - H2(J2(delta))
    mrrw1 = H2(0.5 - math.sqrt(delta * (1 - delta)))

    def objective(u: float) -> float:
        return 1 + _g_mrrw(u * u) - _g_mrrw(u * u + 2 * delta * u + 2 * delta)

    hi = 1 - 2 * delta
    if hi <= 0:
        return {"eb": eb, "mrrw1": mrrw1, "mrrw2": objective(0.0)}
    grid = [i * hi / 1000 for i in range(1001)]
    best_i = min(range(1001), key=lambda i: (objective(grid[i]), grid[i]))
    a = grid[max(0, best_i - 1)]
    b = grid[min(1000, best_i + 1)]
    # golden-section to 1e-10 in u; ties resolve toward smaller u because
    # the left candidate is kept on equality
    invphi = (math.sqrt(5) - 1) / 2
    c = b - invphi * (b - a)
    dpt = a + invphi * (b - a)
    while b - a > 1e-10:
        if objective(c) <= objective(dpt):
            b, dpt = dpt, c
            c = b - invphi * (b - a)
        else:
            a, c = c, dpt
            dpt = a + invphi * (b - a)
    u_star = a if objective(a) <= objective(b) else b
    return {"eb": eb, "mrrw1": mrrw1, "mrrw2": objective(u_star)}


# ---------------------------------------------------------------------------
# eigenvalue-driven bounds


# a full bound table needs ~1.2k (n, r) keys, so one pass never evicts
@functools.lru_cache(maxsize=4096)
def ball_certificate(n: int, r: int) -> EigenCertificate:
    """Cached certified eigenvalue lower bound for B_r(0, n)."""
    return certify(ball_operator(n, r))


def new_upper(n: int, d: int, r: int) -> BoundValue:
    """Eigenvalue covering bound: A(n,d) <= n/(lambda - (n-2d)) * Vol(r,n).

    Uses the certified rational lower bound lambda_hat in place of the true
    ball eigenvalue; any lambda_hat <= lambda_B only weakens the bound, so
    the floor below is rigorous.  Raises NotApplicable when
    lambda_hat <= n - 2d (ball radius too small for this distance).
    """
    if not (1 <= d <= n):
        raise OutOfRange(f"need 1 <= d <= n, got d={d}, n={n}")
    lam = ball_certificate(n, r).lambda_certified
    p, q = lam.numerator, lam.denominator
    j = n - 2 * d
    if p <= j * q:
        raise NotApplicable(
            f"certified lambda {float(lam):.6f} <= n - 2d = {j} at r = {r}")
    value = n * vol(r, n) * q // (p - j * q)       # lambda - j = (p - jq)/q
    return _exact(f"new_r{r}", "upper", value,
                  condition=f"lambda_certified = {float(lam):.9f} > {j}")


def new_upper_per_radius(n: int, d: int,
                         r_max: int = 8) -> list[tuple[int, BoundValue]]:
    """(r, new_upper(n, d, r)) for each applicable r = 1..min(r_max, n/2)."""
    per_radius = []
    for r in range(1, min(r_max, n // 2) + 1):
        try:
            per_radius.append((r, new_upper(n, d, r)))
        except NotApplicable:
            continue
    return per_radius


def best_new_upper(n: int, d: int, r_max: int = 8) -> BoundValue:
    """Minimum of the applicable eigenvalue bounds over r = 1..r_max."""
    per_radius = new_upper_per_radius(n, d, r_max)
    if not per_radius:
        raise NotApplicable(
            f"no ball radius r <= {r_max} satisfies lambda > n - 2d "
            f"at (n, d) = ({n}, {d})")
    return minimizing_radius(per_radius)


def minimizing_radius(per_radius: list[tuple[int, BoundValue]]) -> BoundValue:
    """The ``new_best`` row from (r, new_upper(n, d, r)) pairs, in r order.

    Ties go to the first (smallest) r.
    """
    best_r, best = min(per_radius, key=lambda pair: pair[1].value_exact)
    return BoundValue(label="new_best", kind="upper", rigor=RIGOROUS,
                      value_log2=best.value_log2,
                      value_exact=best.value_exact,
                      condition=f"minimizing r = {best_r}")


def cyclic_lower(m: int, c: int) -> BoundValue:
    """Construction-backed lower bound 2^(cm) at its native (n, d) point.

    Valid at n = 2^m - 1, d = 2^(m-1) - 2^(m/2+c-1); the inequality
    2^(cm) > n^c is checked exactly.  The construction itself is verified
    end to end in the builder; this evaluator only does the arithmetic.
    """
    _check_params(m, c)          # raises InvalidParameters like the builder
    n = (1 << m) - 1
    value = 1 << (c * m)
    if value <= n ** c:
        raise ArithmeticError(
            f"2^(cm) = {value} fails to exceed n^c = {n ** c}")
    d = designed_distance(m, c)
    return _exact("cyclic", "lower", value,
                  condition=f"at (n, d) = ({n}, {d})")


# ---------------------------------------------------------------------------
# display rows


def regime_table(a: float, n_list: list[int]) -> list[dict]:
    """Display rows for d = n/2 - a*sqrt(n), o(.)/O(.) terms dropped.

    Every row is flagged heuristic except the shortened-Plotkin row, which
    is evaluated at the integer d = ceil(n/2 - a*sqrt(n)) and is a theorem.
    Rows are ``BoundValue.row`` dicts, seven per n in a fixed label order;
    display rows have value_exact None.
    """
    if not 0 < a < math.inf:
        raise OutOfRange(f"a must be positive and finite, got {a}")
    tail = Q(2 * a)
    if tail == 0:
        raise OutOfRange(f"Q(2a) underflows to 0 at a = {a}")

    def display(label: str, kind: str, log2: float, cond: str) -> BoundValue:
        return BoundValue(label, kind, HEURISTIC, log2, condition=cond)

    rows = []
    for n in n_list:
        try:
            rn = math.sqrt(n)
        except OverflowError:
            raise OutOfRange(f"n of {n.bit_length()} bits is too large for "
                             f"float arithmetic") from None
        d = math.ceil(n / 2 - a * rn)
        if d < 1:
            raise OutOfRange(f"a = {a} too large for n = {n}")
        delta = d / n
        values = [
            display("gv_display", "lower", -math.log2(tail),
                    "1/Q(2a); Berry-Esseen term dropped"),
            display("hamming_display", "upper", (1 - H2(0.25)) * n,
                    "2^((1-H2(1/4))n); o(n) dropped"),
            display("singleton_display", "upper", n / 2,
                    "2^(n/2); o(n) dropped"),
            display("plotkin_display", "upper",
                    1 + math.log2(n) + 2 * a * rn, "2n*2^(2a sqrt(n))"),
            replace(plotkin_upper(n, d), label="plotkin_rigorous",
                    condition=f"d*2^(j+2) at integer d = {d}"),
            display("eb_display", "upper",
                    3 * math.log2(n) + a * rn / math.log(2),
                    "n^3*2^(a sqrt(n)/ln 2); O(1) exponent set to 0"),
            display("mrrw_display", "upper",
                    n * H2(0.5 - math.sqrt(delta * (1 - delta))),
                    "2^(n H2(1/2-sqrt(delta(1-delta)))); o(n) dropped"),
        ]
        rows.extend(bv.row(n, d) for bv in values)
    return rows

