"""Bound evaluators: exact arithmetic, applicability, rigor labeling."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codebounds import bounds as bd
from codebounds.bounds import (
    HEURISTIC,
    RIGOROUS,
    NotApplicable,
    OutOfRange,
    ball_certificate,
    best_new_upper,
    cyclic_lower,
    gv_lower,
    hamming_upper,
    mceliece_upper,
    new_upper,
    plotkin_upper,
    rate_bounds,
    regime_table,
    singleton_upper,
    vol,
)
from codebounds.cyclic import InvalidParameters
from codebounds.distance import exact_A_search
from codebounds.spectrum import InvalidRadius


class TestVol:
    def test_examples(self):
        assert vol(0, 9) == 1
        assert vol(3, 15) == 576
        assert vol(3, 256) == 2796417

    def test_full_ball_is_cube(self):
        assert vol(10, 10) == 1 << 10

    @pytest.mark.parametrize("r,n", [(-1, 5), (6, 5)])
    def test_radius_range(self, r, n):
        with pytest.raises(InvalidRadius):
            vol(r, n)

    @given(st.integers(1, 40), st.data())
    def test_matches_direct_sum(self, n, data):
        r = data.draw(st.integers(0, n))
        assert vol(r, n) == sum(math.comb(n, i) for i in range(r + 1))

    # empty sum, whole cube, just past the entropy-checked half, and the
    # largest radius a bound table asks for
    @pytest.mark.parametrize("r,n", [
        (r, n) for n in (1, 2, 63, 1000)
        for r in sorted({0, n, n // 2 + 1})] + [(2040, 4095)])
    def test_recurrence_grid(self, r, n):
        assert vol(r, n) == sum(math.comb(n, i) for i in range(r + 1))

    def test_entropy_cap_raises(self, monkeypatch):
        # an explicit raise, so the check also runs under python -O
        monkeypatch.setattr(bd, "H2", lambda p: 0.0)
        with pytest.raises(ArithmeticError):
            vol(3, 15)


class TestClassicalBounds:
    def test_gv_examples(self):
        assert gv_lower(15, 6).value_exact == 7
        for n in (4, 9, 13):
            assert gv_lower(n, 1).value_exact == 1 << n

    def test_gv_ceiling_oracle(self):
        n, d = 63, 16
        v = sum(math.comb(n, i) for i in range(d))
        expected = (1 << n) // v + (1 if (1 << n) % v else 0)
        assert gv_lower(n, d).value_exact == expected

    def test_hamming_examples(self):
        assert hamming_upper(7, 3).value_exact == 16      # Hamming code, tight
        assert hamming_upper(15, 6).value_exact == 270
        assert hamming_upper(23, 7).value_exact == 4096   # Golay, tight
        assert hamming_upper(9, 1).value_exact == 1 << 9

    def test_singleton(self):
        assert singleton_upper(15, 6).value_exact == 1 << 10
        assert singleton_upper(8, 8).value_exact == 2

    def test_plotkin_examples(self):
        assert plotkin_upper(8, 4).value_exact == 16      # RM(3,1), tight
        assert plotkin_upper(15, 6).value_exact == 192
        assert plotkin_upper(6, 4).value_exact == 4       # tight
        assert plotkin_upper(5, 3).value_exact == 4       # tight, via parity
        # shortened Plotkin corollary A(10,6) = 6 is met with equality
        assert plotkin_upper(10, 6).value_exact == 6

    def test_plotkin_sound_against_exhaustive(self):
        # every 2d >= n case must upper-bound the true A(n, d)
        for n in range(2, 8):
            for d in range(max(1, (n + 1) // 2), n + 1):
                a = exact_A_search(n, d)
                assert plotkin_upper(n, d).value_exact >= a, (n, d, a)

    def test_mceliece(self):
        mv = mceliece_upper(15, 6)
        assert mv.value_exact == 75
        assert mv.rigor == HEURISTIC
        assert "j/sqrt(n)" in mv.condition

    @pytest.mark.parametrize("n,d", [(8, 5), (15, 9), (10, 6)])
    def test_mceliece_not_applicable(self, n, d):
        assert n - 2 * d + 2 <= 0
        with pytest.raises(NotApplicable):
            mceliece_upper(n, d)

    @pytest.mark.parametrize(
        "fn", [gv_lower, hamming_upper, singleton_upper, plotkin_upper,
               mceliece_upper])
    def test_domain_checks(self, fn):
        with pytest.raises(OutOfRange):
            fn(15, 0)
        with pytest.raises(OutOfRange):
            fn(15, 16)

    @given(st.integers(2, 24), st.data())
    @settings(max_examples=60)
    def test_ordering_and_log2(self, n, data):
        d = data.draw(st.integers(1, n))
        lo = gv_lower(n, d)
        for bv in (lo, hamming_upper(n, d), singleton_upper(n, d),
                   plotkin_upper(n, d)):
            assert bv.value_log2 == pytest.approx(
                math.log2(bv.value_exact), abs=1e-9)
            if bv.kind == "upper":
                assert bv.value_exact >= lo.value_exact
                assert bv.rigor == RIGOROUS


class TestLog2Int:
    def test_huge_power_is_exact(self):
        assert bd._log2_int(1 << 1000) == 1000.0
        assert bd._log2_int(1 << 5000) == 5000.0

    def test_small_matches_math(self):
        for x in (1, 2, 3, 576, 2796417):
            assert bd._log2_int(x) == math.log2(x)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bd._log2_int(0)


class TestEigenvalueBounds:
    def test_examples(self):
        assert new_upper(15, 6, 1).value_exact == 274
        assert new_upper(15, 6, 3).value_exact == 1540

    def test_rational_pipeline(self):
        for n, d, r in [(15, 6, 3), (3, 3, 1), (63, 24, 3), (1000, 480, 4),
                        (4095, 1984, 7), (2 ** 20, 2 ** 19 - 2048, 16)]:
            lam = ball_certificate(n, r).lambda_certified
            exact = Fraction(n) * vol(r, n) / (lam - (n - 2 * d))
            assert new_upper(n, d, r).value_exact == \
                exact.numerator // exact.denominator, (n, d, r)

    def test_not_applicable_small_ball(self):
        # lambda(B_1) = sqrt(15) < 15 - 2*2
        with pytest.raises(NotApplicable):
            new_upper(15, 2, 1)

    def test_best_picks_minimum(self):
        best = best_new_upper(15, 6)
        assert best.label == "new_best"
        assert best.value_exact == 274
        assert best.condition == "minimizing r = 1"
        assert best_new_upper(63, 24).condition == "minimizing r = 3"
        assert best_new_upper(63, 24).value_exact == 791634

    def test_minimizing_radius_first_on_ties(self):
        b3, b4 = new_upper(63, 24, 3), new_upper(63, 24, 4)
        best = bd.minimizing_radius([(4, b4), (5, b3), (9, b3)])
        assert (best.label, best.value_exact, best.condition) == \
            ("new_best", 791634, "minimizing r = 5")

    def test_best_none_applicable(self):
        # at (63, 16) radii up to 6 all have lambda <= n - 2d = 31
        with pytest.raises(NotApplicable):
            best_new_upper(63, 16, r_max=6)
        assert best_new_upper(63, 16, r_max=8).value_exact == 60792920638

    def test_certificate_cache_stable(self):
        a = ball_certificate(31, 2)
        b = ball_certificate(31, 2)
        assert a is b

    def test_beats_hamming_in_regime(self):
        # the whole point: just below n/2 the eigenvalue bound wins
        n, d = 63, 24
        assert best_new_upper(n, d).value_exact \
            < hamming_upper(n, d).value_exact
        assert best_new_upper(n, d).value_exact \
            < plotkin_upper(n, d).value_exact


class TestCyclicLower:
    def test_examples(self):
        bv = cyclic_lower(6, 2)
        assert bv.value_exact == 4096
        assert bv.condition == "at (n, d) = (63, 16)"
        assert bv.value_exact > 63 ** 2
        assert cyclic_lower(4, 1).value_exact == 16
        assert cyclic_lower(6, 1).condition == "at (n, d) = (63, 24)"

    def test_polynomial_beating(self):
        # 2^(cm) > n^c at every supported parameter point
        for m in range(4, 17, 2):
            for c in range(1, m // 2):
                n = (1 << m) - 1
                assert cyclic_lower(m, c).value_exact > n ** c

    def test_rejects_bad_params(self):
        with pytest.raises(InvalidParameters):
            cyclic_lower(5, 1)
        with pytest.raises(InvalidParameters):
            cyclic_lower(4, 2)


class TestRateBounds:
    def test_known_values(self):
        rb = rate_bounds(0.1)
        assert rb["mrrw1"] == pytest.approx(0.7219280948873623, abs=1e-12)
        assert rb["mrrw2"] == pytest.approx(0.6927407430788792, abs=1e-9)
        assert rb["eb"] == pytest.approx(0.7018824866054365, abs=1e-12)

    def test_mrrw2_improves_at_small_delta(self):
        rb = rate_bounds(0.1)
        assert rb["mrrw2"] < rb["mrrw1"] - 0.02

    def test_bounds_coincide_past_crossover(self):
        for delta in (0.28, 0.3, 0.35, 0.4, 0.45, 0.499):
            rb = rate_bounds(delta)
            assert abs(rb["mrrw1"] - rb["mrrw2"]) < 1e-9

    def test_endpoint_half(self):
        rb = rate_bounds(0.5)
        assert rb["mrrw1"] == 0.0
        assert rb["eb"] == 0.0

    @pytest.mark.parametrize("delta", [0.0, -0.1, 0.6])
    def test_domain(self, delta):
        with pytest.raises(OutOfRange):
            rate_bounds(delta)

    def test_mrrw1_formula(self):
        for delta in (0.05, 0.2, 0.45):
            expected = bd.H2(0.5 - math.sqrt(delta * (1 - delta)))
            assert rate_bounds(delta)["mrrw1"] == pytest.approx(expected)


class TestRegimeTable:
    def test_row_shape(self):
        rows = regime_table(1.0, [256])
        assert [r["bound"] for r in rows] == [
            "gv_display", "hamming_display", "singleton_display",
            "plotkin_display", "plotkin_rigorous", "eb_display",
            "mrrw_display"]
        assert all(r["n"] == 256 and r["d"] == 112 for r in rows)

    def test_n256_values(self):
        rows = {r["bound"]: r for r in regime_table(1.0, [256])}
        assert rows["gv_display"]["value_log2"] == pytest.approx(
            -math.log2(bd.Q(2.0)), abs=1e-12)
        assert rows["hamming_display"]["value_log2"] == pytest.approx(
            (1 - bd.H2(0.25)) * 256, abs=1e-9)
        assert rows["singleton_display"]["value_log2"] == 128.0
        assert rows["plotkin_display"]["value_log2"] == pytest.approx(
            1 + 8 + 32, abs=1e-12)
        assert rows["plotkin_rigorous"]["value_exact"] == 112 << 34
        assert rows["eb_display"]["value_log2"] == pytest.approx(
            24 + 16 / math.log(2), abs=1e-9)
        only_theorem = [r for r in regime_table(1.0, [256])
                        if r["rigor"] == RIGOROUS]
        assert [r["bound"] for r in only_theorem] == ["plotkin_rigorous"]

    def test_n100_plotkin_display(self):
        rows = {r["bound"]: r for r in regime_table(1.0, [100])}
        assert rows["plotkin_display"]["value_log2"] == pytest.approx(
            math.log2(200) + 20, abs=1e-12)

    def test_domain(self):
        with pytest.raises(OutOfRange):
            regime_table(-1.0, [100])
        with pytest.raises(OutOfRange):
            regime_table(6.0, [100])      # pushes d below 1
        for a in (math.inf, math.nan, 20.0):   # 20.0: Q(2a) underflows
            with pytest.raises(OutOfRange):
                regime_table(a, [2000])

