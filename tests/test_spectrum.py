"""Ball-adjacency spectra: Sturm bisection, rational certificates, limits.

Independent oracles used here: dense ``numpy.linalg.eigvalsh`` on the
explicit tridiagonal matrix, and the Gauss–Hermite(e) nodes from
``numpy.polynomial.hermite_e`` for the asymptotic operator (its Jacobi
matrix is exactly the r -> infinity limit ``asymptotic_constant`` uses).
The integer certificate path is checked against plain reference routes kept
here: a Sturm count with its zero-pivot patch, and a ``Fraction`` sum with
``math.comb`` binomials.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from codebounds import spectrum as sp
from codebounds.bounds import ball_certificate
from codebounds.spectrum import (
    DegenerateWitness,
    InvalidRadius,
    asymptotic_constant,
    ball_operator,
    certify,
    certify_radii,
    clear_denominators,
    lambda_ceiling,
    radial_vector,
    rayleigh_quotient,
    recurrence_polynomial_root,
    top_eigenvalue,
)
from codebounds.spectrum import _all_below

ESTIMATE = sp._top_root_estimate


def dense_top(offdiag_sq) -> float:
    off = np.sqrt(np.asarray(offdiag_sq, dtype=float))
    mat = np.diag(off, 1) + np.diag(off, -1)
    return float(np.linalg.eigvalsh(mat)[-1])


def reference_count_below(offdiag_sq, x: float, zero_pivots=None) -> int:
    """Full Sturm count of eigenvalues below x, zero pivots patched."""
    count = 0
    d = -x
    if d < 0:
        count += 1
    for bsq in offdiag_sq:
        if d == 0.0:
            if zero_pivots is not None:
                zero_pivots.append(x)
            d = -1e-300
        d = -x - bsq / d
        if d < 0:
            count += 1
    return count


def reference_top(offdiag_sq, zero_pivots=None) -> float:
    """The bisection of ``top_eigenvalue`` driven by the full count."""
    b = [math.sqrt(s) for s in offdiag_sq]
    row_sums = [b[0]] + [b[i - 1] + b[i] for i in range(1, len(b))] + [b[-1]]
    hi = max(row_sums) + 1.0
    lo = 0.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if reference_count_below(offdiag_sq, mid, zero_pivots) \
                == len(offdiag_sq) + 1:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def reference_quotient(n: int, f) -> Fraction:
    """Rayleigh quotient as plain Fraction sums over math.comb weights."""
    f = [Fraction(v) for v in f]
    num = sum(2 * math.comb(n, i) * (n - i) * f[i] * f[i + 1]
              for i in range(len(f) - 1))
    den = sum(math.comb(n, i) * v * v for i, v in enumerate(f))
    return num / den


ORACLE_LENGTHS = (2, 3, 15, 63, 255, 4095, 65536, 2 ** 20)
ORACLE_BALLS = [(n, r) for n in ORACLE_LENGTHS
                for r in range(1, min(16, n // 2) + 1)]


class TestBallOperator:
    def test_finite_15_3(self):
        assert ball_operator(15, 3) == (15, 28, 39)

    def test_single_edge_class(self):
        assert ball_operator(9, 1) == (9,)

    @pytest.mark.parametrize("n,r", [(15, 8), (4, 3), (15, 0), (15, -1)])
    def test_invalid_radius(self, n, r):
        with pytest.raises(InvalidRadius):
            ball_operator(n, r)

    @pytest.mark.parametrize("call", [
        lambda: ball_operator(15.5, 2),
        lambda: ball_operator(15, 2.0),
        lambda: rayleigh_quotient(15.0, [1, 1]),
        lambda: certify(15.0, 2),
        lambda: certify(15, np.float64(2)),
        lambda: certify_radii(15, [1, 2.0]),
    ])
    def test_float_length_or_radius_refused(self, call):
        with pytest.raises(TypeError):
            call()

    def test_numpy_length_and_radii(self):
        op = ball_operator(np.int64(15), np.int64(2))
        assert op == ball_operator(15, 2)
        assert all(type(x) is int for x in op)
        certs = certify_radii(np.int64(63), [np.int64(1), np.uint8(3)])
        assert certs == certify_radii(63, [1, 3])
        assert all(type(c.n) is int and type(c.r) is int for c in certs)


class TestTopEigenvalue:
    def test_sqrt_n_at_r1(self):
        for n in (4, 9, 15, 100):
            assert abs(top_eigenvalue(ball_operator(n, 1)) - math.sqrt(n)) \
                < 1e-11

    def test_against_dense_solver(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            size = int(rng.integers(1, 9))
            sq = tuple(float(x) for x in rng.uniform(0.1, 50.0, size))
            lam = top_eigenvalue(sq)
            assert abs(lam - dense_top(sq)) < 1e-9 * max(1.0, abs(lam))

    @pytest.mark.parametrize("n,r", [(15, 3), (63, 5), (255, 7), (40, 20)])
    def test_ball_instances_match_dense(self, n, r):
        sq = ball_operator(n, r)
        assert abs(top_eigenvalue(sq) - dense_top(sq)) < 1e-8

    def test_one_by_one(self):
        # a single vertex: the Gershgorin start is 0 + 1, the eigenvalue 0
        assert abs(top_eigenvalue(()) - dense_top(())) < 1e-12


class TestCertify:
    def test_quartic_15_3(self):
        # characteristic polynomial: lambda^4 - 82 lambda^2 + 585
        lam = math.sqrt((82 + math.sqrt(82 * 82 - 4 * 585)) / 2)
        cert = certify(15, 3)
        assert abs(cert.lambda_float - lam) < 1e-10
        assert Fraction(86, 10) < cert.lambda_certified < Fraction(861, 100)
        assert float(cert.lambda_certified) <= cert.lambda_float + 1e-12

    def test_quartic_256_3(self):
        # lambda^4 - 1528 lambda^2 + 195072; below the asymptotic line
        lam = math.sqrt((1528 + math.sqrt(1528 ** 2 - 4 * 195072)) / 2)
        cert = certify(256, 3)
        assert abs(cert.lambda_float - lam) < 1e-9
        assert float(cert.lambda_certified) < asymptotic_constant(3) * 16

    def test_exact_at_n4_r1(self):
        cert = certify(4, 1)
        assert cert.lambda_certified == 2
        assert cert.lambda_float == pytest.approx(2.0, abs=1e-12)

    def test_witness_reproduces_certificate(self):
        cert = certify(63, 4)
        again = rayleigh_quotient(63, list(cert.witness))
        assert again == cert.lambda_certified

    def test_certificate_is_lower_bound(self):
        # Rayleigh quotients never exceed the true top eigenvalue
        for n, r in [(15, 3), (63, 5), (255, 4)]:
            cert = certify(n, r)
            assert float(cert.lambda_certified) <= \
                dense_top(ball_operator(n, r)) + 1e-9

    def test_json_fields(self):
        d = certify(15, 3).to_json_dict()
        assert list(d) == ["n", "r", "lambda_float",
                           "lambda_certified_num", "lambda_certified_den"]
        assert d["lambda_certified_num"] > 0 and d["lambda_certified_den"] > 0

    def test_degenerate_witness(self):
        with pytest.raises(DegenerateWitness):
            rayleigh_quotient(4, [Fraction(0), Fraction(0)])

    @pytest.mark.parametrize("n", [2, 15, 4095])
    def test_invalid_radius(self, n):
        for r in (0, n // 2 + 1):
            with pytest.raises(InvalidRadius):
                certify(n, r)

    def test_names_its_ball(self):
        for n, r in ORACLE_BALLS:
            cert = certify(n, r)
            assert (cert.n, cert.r) == (n, r)
            assert cert == ball_certificate(n, r)

    def test_numpy_length(self):
        # the witness quotient sums C(n, i)-sized terms: a numpy n must not
        # wrap them in int64, and the certificate stays JSON-ready
        cert = certify(np.int64(2 ** 20), 16)
        assert cert == certify(2 ** 20, 16) and type(cert.n) is int

    def test_convenience_wrapper(self):
        a = ball_certificate(31, 3)
        b = certify(31, 3)
        assert a.lambda_certified == b.lambda_certified
        assert isinstance(a.lambda_certified, Fraction)

    @pytest.mark.parametrize("n,r", [(4096, 8), (65536, 8), (2 ** 20, 8),
                                     (2 ** 20, 16)])
    def test_tight_at_large_n(self, n, r):
        # witness entries shrink like n^-i, so the rounding must be relative
        # for the slack to stay flat in n
        cert = certify(n, r)
        lam = Fraction(cert.lambda_float)
        assert cert.lambda_certified <= lam * (1 + Fraction(1, 10 ** 12))
        assert (lam - cert.lambda_certified) / lam < Fraction(1, 10 ** 9)

    @pytest.mark.parametrize("n,r", [(2 ** 600, 8), (2 ** 1000, 8),
                                     (2 ** 1000, 4)])
    def test_tight_past_the_float_range(self, n, r):
        # plain float entries (lambda/n)^i underflow here; the witness keeps
        # every entry nonzero, 13 digits each, and its quotient stays exact
        cert = ball_certificate(n, r)
        lam = Fraction(cert.lambda_float)
        assert cert.lambda_certified <= lam * (1 + Fraction(1, 10 ** 12))
        assert (lam - cert.lambda_certified) / lam < Fraction(1, 10 ** 9)
        assert all(10 ** 12 <= m < 10 ** 13 for m, _ in cert.digits)
        assert min(e for _, e in cert.digits) < -308
        assert rayleigh_quotient(n, list(cert.witness)) == \
            cert.lambda_certified


# the bound-table workload's regime lengths span [2^10, 2^20] with r <= 16
REGIME_BALLS = [(n, r) for n in (2 ** 10, 1500, 3001, 10 ** 4, 50000,
                                 2 ** 17 + 3, 700001, 2 ** 20)
                for r in range(1, 17)]


def decimal_reference(x: float) -> tuple[int, int]:
    """x to 12 significant digits as (m, e), value m * 10^e, one entry at a
    time: the parse ``certify`` once applied to each witness entry."""
    digits, exp = f"{x:.12e}".split("e")
    return int(digits.replace(".", "")), int(exp) - 12


class TestCertifyStart:
    """Laguerre's start at sqrt(n) t_r is a hint: the float never moves."""

    def test_same_float_in_few_sturm_tests(self, monkeypatch):
        calls = []
        monkeypatch.setattr(sp, "_all_below",
                            lambda sq, x: calls.append(x) or _all_below(sq, x))
        for n, r in ORACLE_BALLS + REGIME_BALLS:
            calls.clear()
            lam = certify(n, r).lambda_float
            assert len(calls) <= 8, (n, r, len(calls))
            assert lam == reference_top(ball_operator(n, r)), (n, r)

    def test_start_above_the_root(self):
        for n, r in ORACLE_BALLS + REGIME_BALLS:
            start = math.sqrt(n) * asymptotic_constant(r) * sp._START_MARGIN
            assert start > reference_top(ball_operator(n, r)), (n, r)

    @pytest.mark.parametrize("margin", [0.0, 0.5, 0.9, math.nan])
    def test_start_below_the_root(self, monkeypatch, margin):
        balls = ORACLE_BALLS[::2] + REGIME_BALLS[::3]
        want = {ball: certify(*ball) for ball in balls}
        monkeypatch.setattr(sp, "_START_MARGIN", margin)
        below = 0
        for (n, r), cert in want.items():
            below += not (math.sqrt(n) * asymptotic_constant(r) * margin
                          >= cert.lambda_float)
            assert certify(n, r) == cert, (n, r)
            assert cert.lambda_float == reference_top(ball_operator(n, r))
        assert below >= len(balls) // 2

    @pytest.mark.parametrize("n,r", [(200, 65), (4095, 70), (10 ** 6, 90)])
    def test_gershgorin_start_past_r64(self, n, r):
        assert certify(n, r).lambda_float == \
            reference_top(ball_operator(n, r))

    def test_digits_match_per_entry_parse(self, monkeypatch):
        tiny = 5e-324                                  # least subnormal
        sweep = [1.0, 0.0, -0.0, tiny, -tiny, 2.2250738585072e-308,
                 -1.0, -3.872983346207417e-01, 9.9999999999995e-05,
                 9.99999999999949e-05, 1.5e300, -7.25e-201, 123456789.0,
                 1 / 3, -2 / 3, 0.1, 1e22, 5e-15]
        rng = np.random.default_rng(7)
        sweep += list(rng.standard_normal(20) * 10.0 ** rng.integers(
            -300, 300, 20))
        sweep = [float(x) for x in sweep]
        monkeypatch.setattr(sp, "_radial_parts", lambda n, r, lam: [
            (x, 0) for x in sweep])
        cert = certify(63, 3)
        assert cert.digits == tuple(map(decimal_reference, sweep))
        assert cert.witness == tuple(Fraction(f"{x:.12e}") for x in sweep)


# the 74 lengths whose balls, r <= min(16, n/2), back the bound-table
# benchmark at seed 1: its 50 table pairs and 26 regime lengths, 1,175 keys
BENCH_LENGTHS = (
    15, 32, 35, 39, 44, 49, 54, 62, 63, 69, 77, 85, 95, 107, 120, 134, 147,
    166, 184, 205, 232, 255, 257, 285, 323, 356, 400, 443, 502, 562, 627,
    697, 778, 867, 966, 1024, 1085, 1206, 1225, 1354, 1498, 1667, 1781, 1892,
    1980, 2087, 2333, 2595, 2641, 2904, 3230, 3631, 4082, 4146, 5143, 6875,
    9588, 13250, 15484, 20270, 27396, 33419, 56400, 73735, 78248, 135089,
    169819, 237379, 254896, 357678, 545244, 606253, 909056, 1048576)


def radii_by_length(balls) -> dict[int, list[int]]:
    out = {}
    for n, r in balls:
        out.setdefault(n, []).append(r)
    return out


class TestCertifyRadii:
    """One pass per length gives each radius the certificate alone would."""

    BENCH_BALLS = [(n, r) for n in BENCH_LENGTHS
                   for r in range(1, min(16, n // 2) + 1)]

    def test_bench_keys_counted(self):
        assert len(self.BENCH_BALLS) == 1175

    @pytest.mark.parametrize("balls", ["oracle", "regime", "bench"])
    def test_equals_single_radius(self, balls):
        balls = {"oracle": ORACLE_BALLS, "regime": REGIME_BALLS,
                 "bench": self.BENCH_BALLS}[balls]
        for n, radii in radii_by_length(balls).items():
            certs = certify_radii(n, radii)
            assert [c.r for c in certs] == radii
            for r, cert in zip(radii, certs):
                alone = certify(n, r)
                assert (cert.n, cert.r, cert.lambda_float.hex(),
                        cert.lambda_certified, cert.digits) == \
                    (alone.n, alone.r, alone.lambda_float.hex(),
                     alone.lambda_certified, alone.digits), (n, r)

    def test_batch_against_reference_routes(self):
        # the float from the full Sturm count, the quotient from Fractions
        for n, radii in radii_by_length(REGIME_BALLS[::5]
                                        + ORACLE_BALLS[::4]).items():
            for r, cert in zip(radii, certify_radii(n, radii)):
                assert cert.lambda_float == \
                    reference_top(ball_operator(n, r)), (n, r)
                assert cert.lambda_certified == \
                    reference_quotient(n, cert.witness), (n, r)

    @pytest.mark.parametrize("n,radii", [
        (200, [1, 64, 65, 70, 100]), (4095, [70, 3, 65, 3]),
        (10 ** 6, [90, 16])])
    def test_past_r64_any_order(self, n, radii):
        # r > 64 starts Laguerre at the Gershgorin bound; order and repeats
        # are kept
        certs = certify_radii(n, radii)
        assert [c.r for c in certs] == radii
        for r, cert in zip(radii, certs):
            assert cert == certify(n, r)
            assert cert.lambda_float == reference_top(ball_operator(n, r))

    @pytest.mark.parametrize("radii", [[1, 8], [0, 3], [3, -1], [8]])
    def test_invalid_radius(self, radii):
        with pytest.raises(InvalidRadius):
            certify_radii(15, radii)

    def test_no_radii(self):
        assert certify_radii(15, []) == []

    def test_row_sum_bounds_per_block(self):
        # entry k is the bound ``reference_top`` takes for the first k
        # squares
        ops = (TestBracketedReplay.random_operators(count=40, seed=3)
               + [ball_operator(n, r) for n, r in ((15, 7), (2 ** 20, 16))])
        for sq in ops:
            bounds = sp._row_sum_bounds(sq)
            assert len(bounds) == len(sq) + 1 and bounds[0] == 0.0
            for k in range(1, len(sq) + 1):
                b = [math.sqrt(s) for s in sq[:k]]
                rows = [b[0]] + [b[i - 1] + b[i] for i in range(1, k)] \
                    + [b[-1]]
                assert bounds[k] == max(rows), (sq, k)

    def test_ceiling_above_every_certificate(self):
        for n, r in ORACLE_BALLS + REGIME_BALLS + self.BENCH_BALLS[::7]:
            assert lambda_ceiling(n, r) > certify(n, r).lambda_certified
        assert lambda_ceiling(4095, 65) == math.inf


class TestRadialVector:
    def test_recurrence_holds(self):
        n, r = 15, 3
        lam = top_eigenvalue(ball_operator(n, r))
        f = radial_vector(n, r, lam)
        assert f[0] == 1.0
        for i in range(r):
            lhs = (n - i) * f[i + 1]
            rhs = lam * f[i] - (i * f[i - 1] if i else 0.0)
            assert abs(lhs - rhs) < 1e-12

    @pytest.mark.parametrize("n,r", [(15, 3), (1000, 16), (2 ** 200, 8),
                                     (2 ** 300 - 7, 6)])
    def test_plain_floats_where_they_are_normal(self, n, r):
        # the scaled entries are the plain recurrence's, bit for bit
        lam = top_eigenvalue(ball_operator(n, r))
        plain = [1.0, lam / n]
        for i in range(1, r):
            plain.append((lam * plain[i] - i * plain[i - 1]) / (n - i))
        assert min(plain) > 2.3e-308
        assert radial_vector(n, r, lam) == plain
        assert [math.ldexp(x, s) for x, s in sp._radial_parts(n, r, lam)] \
            == plain

    def test_no_entry_underflows(self):
        n, r = 2 ** 1000, 8
        lam = top_eigenvalue(ball_operator(n, r))
        parts = sp._radial_parts(n, r, lam)
        assert all(x > 0 for x, _ in parts)
        assert radial_vector(n, r, lam)[-1] == 0.0
        # successive entries fall by about lam / n ~ 2^-500
        exps = [math.frexp(x)[1] + s for x, s in parts]
        assert all(-505 < b - a < -495 for a, b in zip(exps[1:], exps[2:]))


    @pytest.mark.parametrize("n, r", [(4, 7), (4, 3), (-5, 2), (0, 0),
                                      (-1, 0), (15, -1)])
    def test_bad_input_refused(self, n, r):
        # (4, 7) divided by zero; (-5, 2) returned a vector
        with pytest.raises(InvalidRadius, match="^need n >= 1 and "
                                                "0 <= r <= n/2, got "):
            radial_vector(n, r, 1.0)

    def test_lengths_read_as_ints(self):
        assert radial_vector(4, 0, 2.0) == [1.0]
        assert radial_vector(np.int64(15), np.int64(3), 3.0) \
            == radial_vector(15, 3, 3.0)
        for n, r in [(15.0, 3), (15, 3.0)]:
            with pytest.raises(TypeError):
                radial_vector(n, r, 3.0)


class TestAsymptoticConstant:
    def test_closed_forms(self):
        assert abs(asymptotic_constant(2) - math.sqrt(3)) < 1e-9
        assert abs(asymptotic_constant(3) - math.sqrt(3 + math.sqrt(6))) \
            < 1e-9
        assert abs(asymptotic_constant(4) - math.sqrt(5 + math.sqrt(10))) \
            < 1e-9

    def test_against_hermite_nodes(self):
        for r in range(1, 13):
            nodes, _ = np.polynomial.hermite_e.hermegauss(r + 1)
            assert abs(asymptotic_constant(r) - float(nodes[-1])) < 1e-9

    def test_recurrence_oracle_subset(self):
        for r in (1, 2, 5, 12, 25, 40):
            assert abs(asymptotic_constant(r)
                       - recurrence_polynomial_root(r)) < 1e-9

    def test_monotone_in_r(self):
        vals = [asymptotic_constant(r) for r in range(1, 20)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestSturmOracle:
    """``top_eigenvalue`` returns the float the full Sturm count gives."""

    def test_ball_operators(self):
        for n, r in ORACLE_BALLS:
            sq = ball_operator(n, r)
            assert top_eigenvalue(sq) == reference_top(sq), (n, r)

    def test_asymptotic_operators(self):
        for r in range(1, 65):
            assert asymptotic_constant(r) \
                == reference_top(tuple(range(1, r + 1))), r

    def test_double_precision_exhausted(self):
        # at lambda ~ 28,218 one ulp exceeds the 1e-12 width, so the
        # bisection ends on a midpoint equal to an endpoint
        sq = ball_operator(2 ** 24, 16)
        lam = top_eigenvalue(sq)
        assert math.ulp(lam) > 1e-12
        assert lam == reference_top(sq)

    # the first midpoint (1.0, resp. 2.0) makes the second pivot exactly 0,
    # and the zero square that follows would divide by it
    @pytest.mark.parametrize("sq,zero_at", [((1, 0), 1.0), ((4, 0, 9), 2.0)])
    def test_zero_pivot(self, sq, zero_at):
        hits = []
        assert top_eigenvalue(sq) == reference_top(sq, hits)
        assert hits == [zero_at]
        assert abs(top_eigenvalue(sq) - dense_top(sq)) < 1e-9

    @pytest.mark.parametrize("x", [0.0, -0.0, 1.0, 2.0, 3.5, -1.0,
                                   float("nan"), float("inf")])
    def test_predicate_matches_count(self, x):
        for sq in [(1,), (1, 0), (4, 0, 9), (15, 28, 39), (2, 3)]:
            full = reference_count_below(sq, x) == len(sq) + 1
            assert _all_below(sq, x) == full, (sq, x)


class TestBracketedReplay:
    """The bracketed replay takes the plain bisection's steps, in few tests."""

    @staticmethod
    def random_operators(count=120, seed=17):
        """Off-diagonal lengths 1-64; int, float and zero squares mixed."""
        rng = np.random.default_rng(seed)
        ops = []
        for _ in range(count):
            size = int(rng.integers(1, 65))
            sq = [int(v) for v in rng.integers(0, 10 ** 6, size)]
            for i in range(size):
                if rng.random() < 0.3:
                    sq[i] = float(rng.uniform(0.0, 50.0))
                elif rng.random() < 0.1:
                    sq[i] = 0
            ops.append(tuple(sq))
        return ops

    def test_random_operators(self):
        for sq in self.random_operators():
            assert top_eigenvalue(sq) == reference_top(sq), sq

    @pytest.mark.parametrize("bad", [
        lambda sq, hi: math.nan,
        lambda sq, hi: math.inf,
        lambda sq, hi: 0.0,
        lambda sq, hi: hi,
        lambda sq, hi: ESTIMATE(sq, hi) + 1e-3,
        lambda sq, hi: ESTIMATE(sq, hi) - 1e-3,
    ], ids=["nan", "inf", "zero", "hi", "above", "below"])
    def test_wrong_estimate(self, monkeypatch, bad):
        monkeypatch.setattr(sp, "_top_root_estimate", bad)
        ops = ([ball_operator(n, r) for n, r in ORACLE_BALLS[::3]]
               + [tuple(range(1, r + 1)) for r in (1, 2, 7, 64)]
               + [(1, 0), (4, 0, 9), (0,), (2.5, 0.0, 3)]
               + self.random_operators(count=20, seed=5))
        for sq in ops:
            assert top_eigenvalue(sq) == reference_top(sq), sq

    def test_few_sturm_tests(self, monkeypatch):
        calls = []
        monkeypatch.setattr(sp, "_all_below",
                            lambda sq, x: calls.append(x) or _all_below(sq, x))
        ops = ([ball_operator(n, r) for n, r in ORACLE_BALLS]
               + [tuple(range(1, r + 1)) for r in range(1, 65)])
        for sq in ops:
            calls.clear()
            top_eigenvalue(sq)
            assert 2 <= len(calls) <= 8, (sq[0], len(sq) + 1, len(calls))


class TestRayleighOracle:
    @pytest.mark.parametrize("n,f", [
        (15, [1, 2, 3]),
        (15, [Fraction(1), Fraction(1, 3), Fraction(-2, 7)]),
        (63, [1, Fraction(1, 3), 5, Fraction(7, 10 ** 20)]),
        (63, [-1, 4, -9, 16]),
        (2, [3, -1, 2, 5]),                    # shells past n weigh 0
        (2 ** 20, [Fraction(v, 10 ** (12 + 6 * i))
                   for i, v in enumerate(range(10 ** 12, 10 ** 12 + 17))]),
    ])
    def test_matches_fraction_sum(self, n, f):
        got = rayleigh_quotient(n, f)
        assert isinstance(got, Fraction)
        assert got == reference_quotient(n, f)
        for scale in (7, -1, Fraction(3, 11), 10 ** 40):
            assert rayleigh_quotient(n, [scale * v for v in f]) == got

    def test_degenerate_int_witness(self):
        with pytest.raises(DegenerateWitness):
            rayleigh_quotient(4, [0, 0])

    def test_numpy_length(self):
        # C(n, i) * (n - i) wraps in int64 at n = 2^20 long before i = 16
        f = [1] * 17
        assert rayleigh_quotient(np.int64(2 ** 20), f) \
            == rayleigh_quotient(2 ** 20, f)

    def test_negative_length_refused(self):
        # the shell weights of n = -3 give a quotient of 3
        with pytest.raises(ValueError, match="^need n >= 0, got -3$"):
            rayleigh_quotient(-3, [1, 1])

    def test_numpy_int_entries(self):
        # int64 products of these entries wrap; Python ints do not
        f = [np.int64(10 ** 10), np.int64(10 ** 9)]
        assert rayleigh_quotient(63, f) == Fraction(1260, 163)
        f = [Fraction(v, np.int64(3)) for v in f]
        assert rayleigh_quotient(63, f) == Fraction(1260, 163)

    @pytest.mark.parametrize("values, q", [
        ([3, -1, 0], 1),
        ([np.int64(5), True, Fraction(1, 4),
          Fraction(np.int64(2 ** 62), np.int64(3))], 12),
        ([Fraction(1, 6), Fraction(-2, 9)], 18),
        ([], 1),
    ])
    def test_clear_denominators(self, values, q):
        nums, got = clear_denominators(values)
        assert got == q and type(got) is int
        assert all(type(v) is int for v in nums)
        assert [Fraction(v, q) for v in nums] == values
        # a generator is read once and gives what its list gives
        assert clear_denominators(v for v in values) == (nums, q)

    def test_generator_reads_as_its_list(self):
        f = [1, 2, 1]
        assert rayleigh_quotient(15, (v for v in f)) == \
            rayleigh_quotient(15, f) == Fraction(450, 83)

    @pytest.mark.parametrize("f, kinds", [
        ([1.0, 0.5], "float"),
        ([1, np.float64(0.5)], "float64"),
        ([Fraction(1), 0.5, 1j], "complex, float"),
    ])
    def test_inexact_entries_refused(self, f, kinds):
        # the TypeError of the exact transforms, which share this route
        for call in (clear_denominators, lambda v: rayleigh_quotient(15, v)):
            with pytest.raises(TypeError, match="^exact entries expected, "
                                                f"got {kinds}$"):
                call(f)

    def test_certificates_match_reference(self):
        for n, r in ORACLE_BALLS:
            cert = certify(n, r)
            assert cert.lambda_float == reference_top(ball_operator(n, r))
            expected = tuple(Fraction(f"{x:.12e}") for x in
                             radial_vector(n, r, cert.lambda_float))
            assert cert.witness == expected, (n, r)
            assert all(isinstance(v, Fraction) for v in cert.witness)
            assert cert.lambda_certified == reference_quotient(n, expected)
