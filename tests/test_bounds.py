"""Bound evaluators: exact arithmetic, applicability, rigor labeling."""

import functools
import math
import sys
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codebounds import bounds as bd
from codebounds.bounds import (
    HEURISTIC,
    RIGOROUS,
    BoundValue,
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
from codebounds.spectrum import (
    InvalidRadius,
    certify,
    certify_radii,
    lambda_ceiling,
)


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

    @pytest.mark.parametrize("n", [10 ** 17, 2 ** 60, 10 ** 300])
    def test_exact_at_huge_n(self, n):
        # n H2(r/n) once rounded 1 - r/n first and lost about 2 bits near
        # n = 10^17, so the entropy cap raised on a correct sum
        for r in (1, 2, 3, 8, 16):
            assert vol(r, n) == sum(math.comb(n, i) for i in range(r + 1))

    def test_entropy_cap_raises(self, monkeypatch):
        # an explicit raise, so the check also runs under python -O
        monkeypatch.setattr(bd, "H2", lambda p: 0.0)
        with pytest.raises(ArithmeticError):
            vol(3, 15)


@functools.cache
def prefix_volumes(n: int) -> list[int]:
    """Vol(r, n) for r = 0..n as running sums of math.comb."""
    return list(accumulate(math.comb(n, i) for i in range(n + 1)))


def switch_radius(n: int) -> int:
    """The least r that ``vol`` sums from the half sum rather than from 0."""
    return 3 * (max(n - 1, 0) // 2) // 4 + 1


class TestVolNearHalf:
    """The half-sum route against the direct binomial sum, on both sides."""

    @pytest.mark.parametrize("n", range(121))
    def test_every_radius_small_n(self, n):
        assert [vol(r, n) for r in range(n + 1)] == prefix_volumes(n)

    @pytest.mark.parametrize("n", [255, 1023, 1024, 4095, 4096])
    def test_sampled_radii(self, n):
        h, s = (n - 1) // 2, switch_radius(n)
        radii = {0, 1, 2, h // 3, s - 2, s - 1, s, s + 1, h - 40,
                 h - 3, h - 2, h - 1, h, h + 1, n // 2, n // 2 + 1,
                 n - 1, n}
        radii |= {int(h * k / 13) for k in range(14)}
        want = prefix_volumes(n)
        for r in sorted(radii):
            assert vol(r, n) == want[r], (r, n)

    @pytest.mark.parametrize("n", [1023, 1024])
    def test_entropy_cap_raises_on_half_route(self, monkeypatch, n):
        h = (n - 1) // 2
        assert h - 1 >= switch_radius(n)   # both radii take the new route
        want, comb, calls = prefix_volumes(n)[h - 1], math.comb, []
        monkeypatch.setattr(math, "comb",
                            lambda *args: calls.append(args) or comb(*args))
        assert vol(h - 1, n) == want
        assert calls == [(n, h)]
        monkeypatch.setattr(bd, "H2", lambda p: 0.0)
        with pytest.raises(ArithmeticError, match=f"^Vol\\({h}, {n}\\) "):
            vol(h, n)


def vol_lines(r: int, n: int) -> int:
    """Lines ``vol(r, n)`` executes, counted by a tracer on its frame."""
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code is bd.vol.__code__ else None

    sys.settrace(tracer)
    try:
        vol(r, n)
    finally:
        sys.settrace(None)
    return lines


class TestVolComplement:
    """Past (n + h)/2, vol is 2^n less the n - r terms above r."""

    @pytest.mark.parametrize("n", [255, 1024, 4095])
    def test_radii_past_half(self, n):
        h, want = (n - 1) // 2, prefix_volumes(n)
        for r in [h + 1, (n + h) // 2 - 2, (n + h) // 2 + 2, n - 1, n]:
            assert vol(r, n) == want[r], (r, n)

    def test_radii_past_half_at_65536(self):
        # math.comb sums of 65536-bit binomials take minutes, so h + 1 =
        # n/2 meets its closed form, and (n + h)/2 +- 2 must add up to 2^n
        # with the upward sum of the other side
        n, h = 65536, 32767
        assert vol(h + 1, n) == (1 << (n - 1)) + math.comb(n, n // 2) // 2
        for r in ((n + h) // 2 - 2, (n + h) // 2 + 2):
            assert vol(r, n) + vol(n - r - 1, n) == 1 << n, r
        assert (vol(n - 1, n), vol(n, n)) == ((1 << n) - 1, 1 << n)

    @pytest.mark.parametrize("n", [65536, 4095])
    def test_walks_at_most_n_minus_r_terms(self, n):
        # 3 loop lines per term walked, and a fixed number around them;
        # vol(65535, 65536) once walked 32,768 terms up from the half sum
        fixed = vol_lines(n, n)
        for r in (n - 1, n - 5, n - 40):
            assert vol_lines(r, n) <= fixed + 3 * (n - r + 1), r
        assert fixed < 20

    def test_gv_at_full_distance(self):
        # gv's vol(n - 1, n) = 2^n - 1
        assert gv_lower(65536, 65536).value_exact == 2


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


class TestNumpyIntegers:
    """numpy n, d and r give the Python-int results and error messages."""

    EVALUATORS = [gv_lower, hamming_upper, singleton_upper, plotkin_upper,
                  mceliece_upper, best_new_upper]

    @pytest.mark.parametrize("fn", EVALUATORS)
    @pytest.mark.parametrize("n,d", [(15, 6), (63, 24), (100, 45)])
    def test_evaluators(self, fn, n, d):
        assert fn(np.int64(n), np.int64(d)) == fn(n, d)

    @pytest.mark.parametrize("fn", EVALUATORS + [
        lambda n, d: new_upper(n, d, 1)])
    def test_domain_messages(self, fn):
        for n, d in [(15, 0), (15, 16)]:
            with pytest.raises(OutOfRange) as want:
                fn(n, d)
            with pytest.raises(OutOfRange) as got:
                fn(np.int64(n), np.int64(d))
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("n,d,r", [(63, 24, 3), (100, 45, 4),
                                       (2 ** 20, 2 ** 19 - 2 ** 11, 16)])
    def test_ball_values(self, n, d, r):
        big_n, big_d, big_r = np.int64(n), np.int64(d), np.int64(r)
        assert vol(big_r, big_n) == vol(r, n)
        assert type(vol(big_r, big_n)) is int
        assert ball_certificate(big_n, big_r) == ball_certificate(n, r)
        assert new_upper(big_n, big_d, big_r) == new_upper(n, d, r)


class TestFloatArguments:
    """A float n, d, r, m or c is a TypeError, not a truncated integer:
    ``gv_lower(15.9, 6)`` once gave a rigorous-labelled value for n = 15."""

    @pytest.mark.parametrize("call", [
        *[functools.partial(fn, *args) for fn in TestNumpyIntegers.EVALUATORS
          for args in [(15.9, 6), (15, 6.0), (np.float64(15), 6)]],
        lambda: new_upper(63, 24, 3.9),
        lambda: new_upper(63.0, 24, 3),
        lambda: vol(2.7, 10),
        lambda: vol(2, 10.0),
        lambda: ball_certificate(15, 2.0),
        lambda: ball_certificate(15.0, 2),
        lambda: bd._ball.fill(63.0, [3]),
        lambda: bd._ball.fill(63, [3.0]),
        lambda: cyclic_lower(6.0, 2),
        lambda: cyclic_lower(6, 2.0),
    ])
    def test_refused(self, call):
        with pytest.raises(TypeError):
            call()

    def test_numpy_construction_parameters(self):
        row = cyclic_lower(np.int64(6), np.int64(2))
        assert row == cyclic_lower(6, 2)
        assert type(row.value_exact) is int


class TestFloatRange:
    # one refusal for every n the float stage cannot hold: the ball
    # eigenvalue's float stage once raised an internal OverflowError
    @pytest.mark.parametrize("call", [
        lambda n: ball_certificate(n, 1),
        lambda n: new_upper(n, 3, 1),
        lambda n: regime_table(1.0, [n]),
    ])
    def test_refused_past_float_range(self, call):
        with pytest.raises(OutOfRange, match="^n of 1101 bits is too large "
                                             "for float arithmetic$"):
            call(2 ** 1100)

    def test_ball_refused_when_its_products_overflow(self):
        # (i + 1)(n - i) reaches about 2n at r = 2, past the float range
        n = 2 ** 1023
        assert ball_certificate(n, 1).n == n
        with pytest.raises(OutOfRange, match="^n of 1024 bits "):
            ball_certificate(n, 2)


class TestExactSizeLimit:
    """The exact classical rows refuse a power of two past EXACT_MAX_N."""

    LIMIT = bd.EXACT_MAX_N

    # (row, n, d) whose power of two has exponent n - shift: n for gv and
    # hamming, n - d + 1 for singleton, n - 2d + 2 for plotkin below n/2
    @pytest.mark.parametrize("fn,d,shift", [
        (gv_lower, 3, 0), (hamming_upper, 3, 0),
        (singleton_upper, 5, 4), (plotkin_upper, 5, 8)])
    def test_limit_is_the_exponent(self, fn, d, shift):
        n = self.LIMIT + shift
        assert self.LIMIT - 40 < fn(n, d).value_log2 < self.LIMIT + 3
        label = fn(7, 1).label
        with pytest.raises(OutOfRange, match=(
                f"^the {label} row would form 2\\^{self.LIMIT + 1}; "
                "exact rows stop at 2\\^65536$")):
            fn(n + 1, d)

    @pytest.mark.parametrize("fn", [gv_lower, hamming_upper,
                                    singleton_upper, plotkin_upper])
    def test_refused_before_power_or_volume(self, monkeypatch, fn):
        # 1 << 10^30 would raise OverflowError, an internal fault
        def refuse(r, n):
            raise AssertionError("vol reached")

        monkeypatch.setattr(bd, "vol", refuse)
        with pytest.raises(OutOfRange, match="exact rows stop at"):
            fn(10 ** 30, 5)

    def test_small_exponent_at_huge_n(self):
        # the regime table's plotkin row and a singleton near d = n form
        # small powers of two at any n
        n = 10 ** 30
        assert singleton_upper(n, n).value_exact == 2
        d = n // 2 - 10 ** 4
        assert plotkin_upper(n, d).value_exact == d << (n - 2 * d + 2)
        assert regime_table(1.0, [10 ** 8])[4]["bound"] == "plotkin_rigorous"

    def test_eigenvalue_rows_unaffected(self):
        n = 10 ** 30
        assert new_upper(n, n // 2 - 10 ** 14, 1).value_exact > 0
        assert best_new_upper(n, n // 2 - 10 ** 15, 3).label == "new_best"


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

    def test_rows_end_with_their_minimum(self):
        rows = bd.new_upper_rows(63, 24)
        # r = 1, 2 are not applicable at (63, 24)
        assert rows[:-1] == [new_upper(63, 24, r) for r in range(3, 9)]
        assert rows[-1] == best_new_upper(63, 24)
        assert rows[-1].value_exact == min(bv.value_exact
                                           for bv in rows[:-1])
        assert bd.new_upper_rows(63, 16, r_max=6) == []

    def test_minimizing_radius_first_on_ties(self):
        b3, b4 = new_upper(63, 24, 3), new_upper(63, 24, 4)
        best = bd.minimizing_radius([(4, b4.value_exact), (5, b3.value_exact),
                                     (9, b3.value_exact)])
        assert (best.label, best.value_exact, best.condition) == \
            ("new_best", 791634, "minimizing r = 5")

    def test_best_none_applicable(self):
        # at (63, 16) radii up to 6 all have lambda <= n - 2d = 31
        with pytest.raises(NotApplicable):
            best_new_upper(63, 16, r_max=6)
        assert best_new_upper(63, 16, r_max=8).value_exact == 60792920638

    def test_volume_once_per_radius(self, monkeypatch):
        # 13 distances at one length share each ball's n * Vol(r, n)
        n = 1999
        bd._ball.cache_clear()
        calls = []
        monkeypatch.setattr(bd, "vol",
                            lambda r, m, vol=vol: calls.append((r, m))
                            or vol(r, m))
        for d in range(n // 2 - 4, n // 2 - 56, -4):
            best_new_upper(n, d)
        assert sorted(calls) == [(r, n) for r in range(1, 9)]

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


class TestBestNewUpper:
    """One row per call, equal to the last of ``new_upper_rows``."""

    SWEEP = [(n, d, r_max) for n in (2, 3, 7, 15, 16, 63, 64, 255, 1000)
             for d in sorted({1, 2, n // 4, n // 2 - 3, n // 2 - 1, n // 2,
                              n // 2 + 1, n})
             if 1 <= d <= n for r_max in (1, 2, 3, 8, 16)]

    @pytest.mark.parametrize("n,d,r_max", SWEEP)
    def test_last_row_or_refused(self, n, d, r_max):
        rows = bd.new_upper_rows(n, d, r_max)
        if rows:
            assert best_new_upper(n, d, r_max) == rows[-1]
        else:
            with pytest.raises(NotApplicable):
                best_new_upper(n, d, r_max)

    def test_ties_go_to_smallest_radius(self, monkeypatch):
        # real floors never tie in a scan of n < 200, so coarsen them to
        # their bit length: then several radii share the minimum
        floor = bd._covering_floor

        def coarse(n, d, r):
            value = floor(n, d, r)
            return None if value is None else 1 << value.bit_length()

        monkeypatch.setattr(bd, "_covering_floor", coarse)
        tied = 0
        for n, d, r_max in self.SWEEP:
            rows = bd.new_upper_rows(n, d, r_max)
            if not rows:
                continue
            best = best_new_upper(n, d, r_max)
            assert best == rows[-1]
            winners = [int(bv.label[5:]) for bv in rows[:-1]
                       if bv.value_exact == best.value_exact]
            assert best.condition == f"minimizing r = {winners[0]}"
            tied += len(winners) > 1
        assert tied >= 10

    def test_one_row_built_per_call(self, monkeypatch):
        built = []

        def spy(*args, **kwargs):
            built.append(kwargs["label"])
            return BoundValue(*args, **kwargs)

        points = [(63, 24), (255, 112), (4095, 1984),
                  (2 ** 20, 2 ** 19 - 2048)]
        for n, d in points:
            best_new_upper(n, d, 16)     # fill the ball cache first
        monkeypatch.setattr(bd, "BoundValue", spy)
        for n, d in points:
            built.clear()
            best_new_upper(n, d, 16)
            assert built == ["new_best"]
        built.clear()
        rows = bd.new_upper_rows(63, 24, 16)
        assert built == [bv.label for bv in rows]



class TestPerronDrop:
    """Radii whose ceiling sqrt(n) t_r (1 + 1e-9) is at most j = n - 2d are
    dropped uncertified; none of them could apply."""

    def test_sweep_drops_only_inapplicable_radii(self):
        triples = dropped = 0
        for n in range(2, 400):
            radii = range(1, min(16, n // 2) + 1)
            for r, cert in zip(radii, certify_radii(n, radii)):
                ceiling = lambda_ceiling(n, r)
                lam = cert.lambda_certified
                p, q = lam.numerator, lam.denominator
                for d in range(1, n + 1):
                    j = n - 2 * d
                    triples += 1
                    if ceiling <= j:
                        dropped += 1
                        assert p <= j * q, (n, d, r)
        assert (triples, dropped) == (1273944, 447431)

    @staticmethod
    def all_radius_floors(n, d, r_max):
        """(r, floor) over every radius, each certified alone."""
        floors = []
        for r in range(1, min(r_max, n // 2) + 1):
            lam = certify(n, r).lambda_certified
            if lam > n - 2 * d:
                size = n * vol(r, n)
                floors.append((r, size * lam.denominator
                               // (lam.numerator
                                   - (n - 2 * d) * lam.denominator)))
        return floors

    @pytest.mark.parametrize("n", [2, 3, 15, 16, 63, 100, 255, 1000, 4095])
    def test_floors_equal_every_radius_route(self, n):
        step = max(1, n // 60)
        for d in range(1, n + 1, step):
            for r_max in (1, 8, 16):
                assert bd._radius_floors(n, d, r_max) == \
                    self.all_radius_floors(n, d, r_max), (n, d, r_max)

    @pytest.mark.parametrize("n", [15, 63, 256, 1023, 2 ** 20])
    def test_rows_equal_per_radius_new_upper(self, n):
        for d in sorted({1, n // 4, n // 2 - 2 * math.isqrt(n),
                         n // 2 - math.isqrt(n), n // 2 - 3, n // 2, n}):
            singles = []
            for r in range(1, min(16, n // 2) + 1):
                try:
                    singles.append(new_upper(n, d, r))
                except NotApplicable:
                    pass
            assert bd.new_upper_rows(n, d, 16)[:-1] == singles, (n, d)

    def test_huge_n_refused_before_sqrt(self):
        # math.sqrt(2^1100) raises OverflowError, an internal fault
        with pytest.raises(OutOfRange, match="^n of 1101 bits "):
            best_new_upper(2 ** 1100, 3)
        with pytest.raises(OutOfRange, match="^n of 1101 bits "):
            bd.new_upper_rows(2 ** 1100, 3)

    def test_dropped_radius_never_certified(self, monkeypatch):
        # at (1999, 947), j = 105 is at least sqrt(1999) t_r for r <= 3
        bd._ball.cache_clear()
        seen = []
        monkeypatch.setattr(bd, "certify_radii",
                            lambda n, radii: seen.append(list(radii))
                            or certify_radii(n, radii))
        best_new_upper(1999, 947, 8)
        assert seen == [[4, 5, 6, 7, 8]]
        best_new_upper(1999, 995, 8)
        assert seen == [[4, 5, 6, 7, 8], [1, 2, 3]]


class TestBallCache:
    """Entries per (n, r), filled a length at a time, bounded."""

    def test_one_pass_per_length(self, monkeypatch):
        bd._ball.cache_clear()
        seen = []
        monkeypatch.setattr(bd, "certify_radii",
                            lambda n, radii: seen.append((n, list(radii)))
                            or certify_radii(n, radii))
        bd.new_upper_rows(255, 112, 16)     # j = 31 drops r = 1, 2
        bd.new_upper_rows(255, 127, 16)
        ball_certificate(255, 20)
        bd.new_upper_rows(255, 120, 20)
        assert seen == [(255, list(range(3, 17))), (255, [1, 2]),
                        (255, [20]), (255, [17, 18, 19])]

    def test_oldest_dropped_past_maxsize(self):
        cache = bd._BallCache(3)
        cache.fill(63, [1, 2])
        cache.fill(63, [2, 3, 4])
        assert list(cache._entries) == [(63, 2), (63, 3), (63, 4)]
        first = cache(63, 4)
        assert cache(63, 4) is first
        assert first[0] == certify(63, 4)
        assert first[1:] == (63 * vol(4, 63),
                             float(first[0].lambda_certified))


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

