"""Lower and upper bounds on A(n, d), classical and eigenvalue-driven.

Finite-n rigorous bounds are computed in exact integer/rational arithmetic;
floating point appears only in rate-level asymptotics and display rows that
drop o(.)/O(.) terms, and every such row carries rigor="asymptotic-heuristic"
so it can never be mistaken for a theorem.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

from .cyclic import designed_distance
from .spectrum import (EigenCertificate, InvalidRadius, certify_radii,
                       lambda_ceiling)

RIGOROUS = "rigorous"
HEURISTIC = "asymptotic-heuristic"
ROW_COLUMNS = ("n", "d", "j", "bound", "kind", "rigor", "value_log2",
               "value_exact", "condition")
# the largest exponent of the power of two an exact classical row forms (n
# for gv and hamming, whose ball volumes take up to n/2 big-int terms): at
# n = 2^16 the slowest ``bounds`` call takes about 1 s, at 2^17 about 4 s
EXACT_MAX_N = 1 << 16


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
        """This value as the table row at (n, d), keyed by ``ROW_COLUMNS``.

        The keys are n, d, j = n - 2d, bound (the label), kind, rigor,
        value_log2, value_exact and condition, in CSV column order: the one
        row schema of ``cli.bound_rows``, ``regime_table`` and the writers.
        """
        return dict(zip(ROW_COLUMNS, (
            n, d, n - 2 * d, self.label, self.kind, self.rigor,
            self.value_log2, self.value_exact, self.condition)))


def _log2_int(x: int) -> float:
    """log2 of a positive integer of any size."""
    if x <= 0:
        raise ValueError("log2 of non-positive value")
    bl = x.bit_length()
    if bl <= 960:
        return math.log2(x)
    shift = bl - 53
    return math.log2(x >> shift) + shift


def _check_float_range(n: int, r: int = 1) -> None:
    """``OutOfRange`` unless r * n fits a float: the float stage of a ball
    eigenvalue converts every (i + 1)(n - i) <= r n with i < r."""
    try:
        float(r * n)
    except OverflowError:
        raise OutOfRange(f"n of {n.bit_length()} bits is too large for "
                         f"float arithmetic") from None


def _domain(n: int, d: int) -> tuple[int, int]:
    """(n, d) via ``operator.index``; ``OutOfRange`` unless 1 <= d <= n."""
    n, d = operator.index(n), operator.index(d)
    if not (1 <= d <= n):
        raise OutOfRange(f"need 1 <= d <= n, got d={d}, n={n}")
    return n, d


def _check_exact_size(label: str, exponent: int) -> None:
    """``OutOfRange`` before a row forms 2^exponent past ``EXACT_MAX_N``."""
    if exponent > EXACT_MAX_N:
        raise OutOfRange(f"the {label} row would form 2^{exponent}; exact "
                         f"rows stop at 2^{EXACT_MAX_N}")


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
    # log1p, as 1 - p would round off the low bits of a tiny p
    return -p * math.log2(p) - (1 - p) * math.log1p(-p) / math.log(2)


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
    """|B_r(0, n)| = sum_{i<=r} C(n, i), exactly.

    A radius r <= 3h/4, h = floor((n-1)/2), sums r + 1 terms upward from
    C(n, 0).  A radius with n - r < r - h is the complement
    2^n - Vol(n - r - 1, n), whose n - r terms are summed the same way.
    Any other starts from the half sum S = sum_{i<=h} C(n, i),
    which is 2^(n-1) for odd n and (2^n - C(n, n/2))/2 for even n, and
    walks the |r - h| terms between h and r from one ``math.comb(n, h)``:
    a radius just below n/2 costs a few terms, not n/2 of them.  Every
    route must pass the entropy cap Vol <= 2^(n H2(r/n)) for 0 < r <= n/2.
    """
    r, n = operator.index(r), operator.index(n)
    if not (0 <= r <= n):
        raise InvalidRadius(f"radius {r} outside [0, {n}]")
    h = max(n - 1, 0) // 2
    if 4 * r <= 3 * h:
        v = term = 1
        for i in range(r):
            term = term * (n - i) // (i + 1)     # C(n, i+1), exact
            v += term
    elif n - r < r - h:
        v, term = 1 << n, 1
        for i in range(n - r):                   # subtract C(n, 0..n-r-1)
            v -= term
            term = term * (n - i) // (i + 1)     # C(n, i+1), exact
    else:
        term = math.comb(n, h)
        v = (1 << (n - 1) if n % 2
             else ((1 << n) - term * (n - h) // (h + 1)) // 2)
        for i in range(h, r, -1):                # subtract C(n, h..r+1)
            v -= term
            term = term * i // (n - i + 1)       # C(n, i-1), exact
        for i in range(h, r):                    # add C(n, h+1..r)
            term = term * (n - i) // (i + 1)     # C(n, i+1), exact
            v += term
    if 0 < r <= n // 2 and _log2_int(v) > H2(r / n) * n + 1e-9:
        # the entropy cap on the ball size failed: an arithmetic bug
        raise ArithmeticError(
            f"Vol({r}, {n}) = {v} exceeds the entropy cap 2^(n H2(r/n))")
    return v


def gv_lower(n: int, d: int) -> BoundValue:
    """Greedy covering lower bound: A(n, d) >= 2^n / Vol(d-1, n)."""
    n, d = _domain(n, d)
    _check_exact_size("gv", n)
    value = -((-(1 << n)) // vol(d - 1, n))        # ceil division
    return _exact("gv", "lower", value)


def hamming_upper(n: int, d: int) -> BoundValue:
    """Sphere-packing bound with packing radius floor((d-1)/2)."""
    n, d = _domain(n, d)
    _check_exact_size("hamming", n)
    e = (d - 1) // 2
    return _exact("hamming", "upper", (1 << n) // vol(e, n))


def singleton_upper(n: int, d: int) -> BoundValue:
    n, d = _domain(n, d)
    _check_exact_size("singleton", n - d + 1)
    return _exact("singleton", "upper", 1 << (n - d + 1))


def plotkin_upper(n: int, d: int) -> BoundValue:
    """Plotkin-type bound, sound for every 1 <= d <= n.

    d < n/2 uses the shortening corollary d * 2^(n-2d+2).  For d >= n/2 the
    averaging bound is applied to (n, d) when d is even and, via the parity
    extension A(n, d) = A(n+1, d+1), to (n+1, d+1) when d is odd; this keeps
    the bound valid at integer break points (e.g. A(6,4) = 4 and
    A(10,6) = 6 both meet it with equality).
    """
    n, d = _domain(n, d)
    if 2 * d < n:
        _check_exact_size("plotkin", n - 2 * d + 2)
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
    n, d = _domain(n, d)
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


class _BallCache:
    """What the eigenvalue bounds need of B_r(0, n), computed once per
    (n, r): the certificate, n * Vol(r, n) and float(lambda_certified).

    Calling the cache reads one radius.  ``fill(n, radii)`` certifies every
    radius it has no entry for at that length in one ``certify_radii``
    pass.  Either raises ``OutOfRange`` first for an n too large for the
    certificate's float stage.  Past ``maxsize`` entries the oldest are
    dropped.  The default table fills 15 keys; a bound-table benchmark pass
    (a 50-pair table at r <= 16 plus 338 regime points d = n/2 - a sqrt(n)
    over 2^10..2^20) fills 1,055-1,085, so 4096 keys drop none within such
    a run.  The cache is not locked: the package runs in one thread.
    """

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._entries: dict[tuple[int, int], tuple] = {}

    def __call__(self, n: int, r: int) -> tuple[EigenCertificate, int, float]:
        n, r = operator.index(n), operator.index(r)
        entry = self._entries.get((n, r))
        return entry if entry is not None else self._add(n, [r])[0]

    def fill(self, n: int, radii) -> None:
        n = operator.index(n)
        missing = [r for r in map(operator.index, radii)
                   if (n, r) not in self._entries]
        if missing:
            self._add(n, missing)

    def _add(self, n: int, radii: list[int]) -> list[tuple]:
        """Certify ``radii`` at length n in one pass; store and return their
        entries in order."""
        _check_float_range(n, max(radii))
        entries = [(cert, n * vol(r, n), float(cert.lambda_certified))
                   for r, cert in zip(radii, certify_radii(n, radii))]
        self._entries.update(zip([(n, r) for r in radii], entries))
        while len(self._entries) > self.maxsize:
            del self._entries[next(iter(self._entries))]
        return entries

    def cache_clear(self) -> None:
        self._entries.clear()


_ball = _BallCache(4096)


def ball_certificate(n: int, r: int) -> EigenCertificate:
    """Cached certified eigenvalue lower bound for B_r(0, n)."""
    return _ball(n, r)[0]


def _covering_floor(n: int, d: int, r: int) -> int | None:
    """floor(n Vol(r, n) / (lambda_hat - j)), j = n - 2d, or None where
    lambda_hat <= j: the applicability test and formula of every ``new_*``
    row, in integers (lambda_hat = p/q, so lambda_hat - j = (p - jq)/q)."""
    cert, size, _ = _ball(n, r)
    p, q = cert.lambda_certified.numerator, cert.lambda_certified.denominator
    j = n - 2 * d
    return size * q // (p - j * q) if p > j * q else None


def _new_row(n: int, d: int, r: int, value: int) -> BoundValue:
    """The ``new_r{r}`` row of an applicable floor."""
    return _exact(f"new_r{r}", "upper", value,
                  condition=f"lambda_certified = {_ball(n, r)[2]:.9f} > "
                            f"{n - 2 * d}")


def _radius_floors(n: int, d: int, r_max: int) -> list[tuple[int, int]]:
    """(r, floor) for the applicable radii r = 1..min(r_max, n/2), in order,
    at an (n, d) that ``_domain`` passed.

    A radius whose ``lambda_ceiling`` is at most j = n - 2d is dropped
    uncertified: its certified lambda lies below that ceiling, so it can
    never exceed j.  The ceiling grows with r, so the dropped radii are the
    smallest ones.  The others are certified together, in one cache fill.
    """
    top = min(r_max, n // 2)
    _check_float_range(n, top)
    low = 1
    while low <= top and lambda_ceiling(n, low) <= n - 2 * d:
        low += 1
    radii = range(low, top + 1)
    _ball.fill(n, radii)
    return [(r, value) for r in radii
            if (value := _covering_floor(n, d, r)) is not None]


def new_upper(n: int, d: int, r: int) -> BoundValue:
    """Eigenvalue covering bound: A(n,d) <= n/(lambda - (n-2d)) * Vol(r,n).

    Uses the certified rational lower bound lambda_hat in place of the true
    ball eigenvalue; any lambda_hat <= lambda_B only weakens the bound, so
    the floor below is rigorous.  Raises NotApplicable when
    lambda_hat <= n - 2d (ball radius too small for this distance).

    The certificate, n * Vol(r, n) and float(lambda_hat) share one cache
    entry per (n, r), so the many distances a table asks at one (n, r)
    certify and sum the ball once.
    """
    n, d = _domain(n, d)
    value = _covering_floor(n, d, r)
    if value is None:
        raise NotApplicable(
            f"certified lambda {_ball(n, r)[2]:.6f} <= n - 2d = {n - 2 * d} "
            f"at r = {r}")
    return _new_row(n, d, r, value)


def new_upper_rows(n: int, d: int, r_max: int = 8) -> list[BoundValue]:
    """The applicable ``new_r{r}`` rows, r = 1..min(r_max, n/2) in order,
    then their ``new_best`` row; empty when no radius applies."""
    n, d = _domain(n, d)
    floors = _radius_floors(n, d, r_max)
    rows = [_new_row(n, d, r, value) for r, value in floors]
    return rows + [minimizing_radius(floors)] if rows else []


def best_new_upper(n: int, d: int, r_max: int = 8) -> BoundValue:
    """Minimum of the applicable eigenvalue bounds over r = 1..r_max.

    The minimum is taken over the exact floors, and only its ``new_best``
    row is built; it equals ``new_upper_rows(n, d, r_max)[-1]``.
    """
    n, d = _domain(n, d)
    floors = _radius_floors(n, d, r_max)
    if not floors:
        raise NotApplicable(
            f"no ball radius r <= {r_max} satisfies lambda > n - 2d "
            f"at (n, d) = ({n}, {d})")
    return minimizing_radius(floors)


def minimizing_radius(floors: list[tuple[int, int]]) -> BoundValue:
    """The ``new_best`` row from (r, new_upper(n, d, r).value_exact) pairs,
    in r order.

    Ties go to the first (smallest) r.
    """
    best_r, best = min(floors, key=lambda pair: pair[1])
    return _exact("new_best", "upper", best,
                  condition=f"minimizing r = {best_r}")


def cyclic_lower(m: int, c: int) -> BoundValue:
    """Construction-backed lower bound 2^(cm) at its native (n, d) point.

    Valid at n = 2^m - 1, d = 2^(m-1) - 2^(m/2+c-1); the inequality
    2^(cm) > n^c is checked exactly.  The construction itself is verified
    end to end in the builder; this evaluator only does the arithmetic.
    """
    d = designed_distance(m, c)  # InvalidParameters, as build_code raises
    m, c = operator.index(m), operator.index(c)
    n = (1 << m) - 1
    value = 1 << (c * m)
    if value <= n ** c:
        raise ArithmeticError(
            f"2^(cm) = {value} fails to exceed n^c = {n ** c}")
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
        _check_float_range(n)
        rn = math.sqrt(n)
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

