"""Exact Walsh-Hadamard layer and the covering-bound numerical replay."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codebounds.bounds import new_upper, vol
from codebounds.cyclic import build_code, encode
from codebounds.fourier import (
    ChainViolation,
    DimensionMismatch,
    adjacency_apply,
    convolve,
    covering_replay,
    degree_function,
    distance_check,
    identity_suite,
    indicator,
    inner,
    wht,
    wht_unnormalized,
)
from codebounds.spectrum import ball_operator, top_eigenvalue

import codebounds.fourier as fr

int_funcs = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.integers(-20, 20),
                       min_size=1 << n, max_size=1 << n))


def paired_funcs(n_max=6):
    return st.integers(1, n_max).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(-9, 9), min_size=1 << n, max_size=1 << n),
            st.lists(st.integers(-9, 9), min_size=1 << n, max_size=1 << n)))


class TestTransform:
    def test_point_mass(self):
        # the indicator of 00 spreads evenly over the dual
        assert wht(indicator([0], 2)) == [Fraction(1, 4)] * 4

    def test_character_concentrates(self):
        n = 3
        for z in range(1 << n):
            chi = [(-1) ** (x & z).bit_count() for x in range(1 << n)]
            ft = wht(chi)
            assert ft[z] == 1
            assert all(ft[i] == 0 for i in range(1 << n) if i != z)

    @given(int_funcs)
    def test_unnormalized_involution(self, f):
        size = len(f)
        assert wht_unnormalized(wht_unnormalized(f)) == \
            [size * v for v in f]

    @given(int_funcs)
    def test_normalized_double_transform(self, f):
        size = len(f)
        assert wht(wht(f)) == [Fraction(v, size) for v in f]

    @given(int_funcs)
    def test_parseval(self, f):
        ft = wht(f)
        assert inner(f, f) == sum(w * w for w in ft)

    @given(int_funcs)
    def test_zeroth_coefficient_is_mean(self, f):
        assert wht(f)[0] == Fraction(sum(f), len(f))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(DimensionMismatch):
            wht([1, 2, 3])
        with pytest.raises(DimensionMismatch):
            inner([1, 2], [1, 2, 3, 4])

    @pytest.mark.parametrize("fn", [wht, wht_unnormalized, adjacency_apply])
    def test_rejects_empty_table(self, fn):
        with pytest.raises(DimensionMismatch,
                           match="table length 0 not a power of 2"):
            fn([])


class TestConvolution:
    @given(int_funcs)
    def test_point_mass_is_scaled_identity(self, f):
        size = len(f)
        delta = [1] + [0] * (size - 1)
        assert convolve(delta, f) == [Fraction(v, size) for v in f]

    @given(paired_funcs())
    def test_transform_multiplies(self, fg):
        f, g = fg
        lhs = wht(convolve(f, g))
        rhs = [a * b for a, b in zip(wht(f), wht(g))]
        assert lhs == rhs

    @given(paired_funcs(5))
    @settings(max_examples=40)
    def test_commutes(self, fg):
        f, g = fg
        assert convolve(f, g) == convolve(g, f)


class TestAdjacency:
    def test_degree_transform(self):
        n = 3
        lhat = wht(degree_function(n))
        assert lhat == [n - 2 * z.bit_count() for z in range(1 << n)]
        assert lhat[0] == 3 and lhat[7] == -3

    @given(int_funcs)
    @settings(max_examples=50)
    def test_adjacency_is_convolution_by_degree(self, f):
        n = len(f).bit_length() - 1
        lhs = adjacency_apply(f)
        rhs = convolve(f, degree_function(n))
        assert [Fraction(v) for v in lhs] == rhs

    def test_row_sums(self):
        n = 4
        ones = [1] * (1 << n)
        assert adjacency_apply(ones) == [n] * (1 << n)


class TestDistanceCheck:
    def test_two_word_code(self):
        assert distance_check([0, 7], 3, 3) is True
        assert distance_check([0, 7], 3, 4) is False

    def test_whole_cube(self):
        assert distance_check(list(range(8)), 3, 1) is True
        assert distance_check(list(range(8)), 3, 2) is False

    def test_constructed_code(self):
        spec = build_code(4, 1)
        words = [encode(spec, msg).bits for msg in range(1 << spec.k)]
        assert distance_check(words, spec.n, 6) is True
        assert distance_check(words, spec.n, 7) is False

    def test_cap(self):
        with pytest.raises(DimensionMismatch):
            distance_check([0], 17, 1)

    def test_zero_test_reads_numerators(self, monkeypatch):
        # the spectral route never converts the 2^n-entry convolution
        import codebounds.fourier as fr

        def no_conversion(*args):
            raise AssertionError("convolution converted")

        monkeypatch.setattr(fr, "_out", no_conversion)
        spec = build_code(4, 1)
        words = [encode(spec, msg).bits for msg in range(1 << spec.k)]
        assert distance_check(words, spec.n, 6) is True
        assert distance_check(words, spec.n, 7) is False

    def test_words_outside_cube_rejected(self):
        with pytest.raises(ValueError, match="codeword -1 "):
            indicator([-1], 3)
        with pytest.raises(ValueError, match="codeword -1 "):
            distance_check([0, -1], 3, 2)
        with pytest.raises(ValueError, match="codeword 9 "):
            distance_check([0, 9], 3, 1)


class TestCoveringReplay:
    def test_two_point_code(self):
        rep = covering_replay([0, 7], r=1)
        assert set(rep) == {"n", "r", "d", "lambda", "code_size",
                            "ball_size", "bound", "steps", "pass"}
        assert rep["n"] == 3 and rep["d"] == 3 and rep["code_size"] == 2
        assert rep["lambda"] == pytest.approx(math.sqrt(3), abs=1e-11)
        assert rep["ball_size"] == 4
        # n/(lambda - (n - 2d)) * |B| = 3/(sqrt(3) + 3) * 4
        assert rep["bound"] == pytest.approx(12 / (math.sqrt(3) + 3),
                                             abs=1e-9)
        assert rep["pass"] is True
        names = [s["name"] for s in rep["steps"]]
        assert names == ["perron_pointwise", "support_cauchy",
                         "phi_moment_ratio", "AF_lower_estimate",
                         "EF_product_identity", "EF2_product_lower",
                         "two_estimates", "final_bound"]
        assert all(s["pass"] for s in rep["steps"])

    def test_single_word_moment_ratio(self):
        rep = covering_replay([0], r=1, n=3)
        ratio = next(s for s in rep["steps"]
                     if s["name"] == "phi_moment_ratio")
        assert ratio["lhs"] == pytest.approx(1.0, abs=1e-12)
        assert ratio["rhs"] == 1.0

    def test_agrees_with_certified_bound(self):
        rep = covering_replay([0, 7], r=1)
        bv = new_upper(3, 3, 1)
        # the certified evaluator floors the same quantity
        assert bv.value_exact == math.floor(rep["bound"] + 1e-9)
        assert rep["code_size"] <= bv.value_exact

    def test_lambda_matches_operator(self):
        rep = covering_replay([0, 3, 12, 15], r=2, n=6)
        assert rep["lambda"] == pytest.approx(
            top_eigenvalue(ball_operator(6, 2)), abs=1e-11)
        assert rep["ball_size"] == vol(2, 6)

    def test_requires_zero_word(self):
        with pytest.raises(ValueError):
            covering_replay([1, 2], r=1, n=3)
        with pytest.raises(ValueError):
            covering_replay([], r=1, n=3)

    def test_dimension_cap(self):
        with pytest.raises(DimensionMismatch):
            covering_replay([0, 1], r=1, n=16)

    def test_radius_cap(self):
        with pytest.raises(ValueError):
            covering_replay([0, 7], r=2, n=3)

    def test_word_outside_cube_rejected(self):
        with pytest.raises(ValueError, match="codeword 7 "):
            covering_replay([0, 7], r=1, n=2)
        with pytest.raises(ValueError, match="codeword -1 "):
            covering_replay([-1, 0, 7], r=1)


class TestIdentitySuite:
    def test_small_run(self):
        out = identity_suite(3, count=25, seed=1)
        assert out == {"n": 3, "count": 25, "pass": True}

    def test_seed_dependence_is_benign(self):
        assert identity_suite(2, count=10, seed=7)["pass"] is True

    @pytest.mark.parametrize("n", [0, 17])
    def test_range(self, n):
        with pytest.raises(DimensionMismatch):
            identity_suite(n, count=1)

    @pytest.mark.parametrize("count", [0, -5])
    def test_nonpositive_count_rejected(self, count):
        with pytest.raises(ValueError, match=f"count = {count} "):
            identity_suite(3, count=count)

    def test_detects_broken_adjacency(self, monkeypatch):
        import codebounds.fourier as fr

        real = fr.adjacency_apply

        def broken(f):
            out = real(f)
            out[0] += 1
            return out

        monkeypatch.setattr(fr, "adjacency_apply", broken)
        with pytest.raises(ChainViolation, match="adjacency"):
            fr.identity_suite(3, count=5)

    def test_detects_broken_transform(self, monkeypatch):
        import codebounds.fourier as fr

        real = fr.wht_unnormalized

        def broken(f):
            out = real(f)
            out[-1] += 1
            return out

        monkeypatch.setattr(fr, "wht_unnormalized", broken)
        with pytest.raises(ChainViolation):
            fr.identity_suite(2, count=5)


    def test_exact_int_route(self):
        # size^4 * 64^3 exceeds 2^63 at n = 12: the suite runs on Python ints
        assert identity_suite(12, count=10)["pass"] is True


@pytest.mark.deep
def test_deep_identity_suite_at_cap():
    assert identity_suite(16, count=3)["pass"] is True


class TestExactness:
    def test_no_int64_wraparound(self):
        assert wht_unnormalized([2 ** 62] * 4) == [2 ** 64, 0, 0, 0]
        rows = wht_unnormalized(np.full((2, 4), 2 ** 62, dtype=np.int64))
        assert rows.tolist() == [[2 ** 64, 0, 0, 0]] * 2
        assert adjacency_apply([2 ** 62] * 4) == [2 ** 63] * 4
        big = [2 ** 40, 0, 0, 0]
        # (f * f)(0) = E_y f(y)^2 = 2^80 / 4
        assert convolve(big, big) == [Fraction(2 ** 80, 4), 0, 0, 0]

    def test_inner_numpy_int_entries(self):
        # int64 products of these entries wrap; the numerators do not
        f = [np.int64(2 ** 62), np.int64(1)]
        g = [np.int64(4), np.int64(1)]
        assert inner(f, g) == Fraction(2 ** 64 + 1, 2)
        assert inner([Fraction(1, 3), 2], [np.int64(3), Fraction(1, 2)]) \
            == Fraction(1)

    def test_fractions_with_numpy_parts(self):
        # the parts stay np.int64; cleared without int() they wrap in int64
        x = Fraction(np.int64(2 ** 62), np.int64(3))
        table = [x] * 4
        assert wht_unnormalized(table) == [Fraction(2 ** 64, 3), 0, 0, 0]
        assert wht(table) == [x, 0, 0, 0]
        assert inner(table, table) == Fraction(2 ** 124, 9)
        assert convolve(table, [1] * 4) == [x] * 4
        assert adjacency_apply(table) == [Fraction(2 ** 63, 3)] * 4

    def test_inner_float_entries_stay_float(self):
        assert inner([0.5, 1.0], [2.0, 3.0]) == 2.0
        assert type(inner([1, 2], [0.5, 1.0])) is float

    def test_division_gives_fractions(self):
        assert all(type(v) is Fraction for v in wht([1, 2, 3, 4]))
        assert all(type(v) is Fraction
                   for v in convolve([1, 2, 3, 4], [0, 1, 0, -1]))
        assert all(type(v) is Fraction
                   for v in wht([Fraction(1, 3), 2, 0, 1]))

    @pytest.mark.parametrize("fn", [wht_unnormalized, adjacency_apply])
    def test_list_contracts(self, fn):
        assert all(type(v) is int for v in fn([1, -2, 3, 4]))
        assert all(type(v) is Fraction
                   for v in fn([Fraction(1, 2), 2, 0, Fraction(-3)]))
        assert all(type(v) is float for v in fn([0.5, 2.0, 0.0, -1.0]))


def _reference_wht(f):
    out = list(f)
    h = 1
    while h < len(out):
        for start in range(0, len(out), 2 * h):
            for i in range(start, start + h):
                a, b = out[i], out[i + h]
                out[i], out[i + h] = a + b, a - b
        h *= 2
    return out


def _reference_adjacency(f):
    n = len(f).bit_length() - 1
    return [sum(f[x ^ (1 << i)] for i in range(n)) for x in range(len(f))]


class TestBatchOracle:
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_int_rows_match_reference(self, n):
        rng = random.Random(n)
        rows = [[rng.randint(-50, 50) for _ in range(1 << n)]
                for _ in range(5)]
        arr = np.array(rows)
        u, a = wht_unnormalized(arr), adjacency_apply(arr)
        assert u.shape == a.shape == arr.shape
        for row, u_row, a_row in zip(rows, u, a):
            assert u_row.tolist() == _reference_wht(row)
            assert a_row.tolist() == _reference_adjacency(row)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_float_rows_convolve(self, n):
        rng = random.Random(100 + n)
        f, g = (np.array([[rng.uniform(-1, 1) for _ in range(1 << n)]
                          for _ in range(4)]) for _ in range(2))
        out = convolve(f, g)
        assert out.shape == f.shape
        for f_row, g_row, row in zip(f, g, out):
            exact = convolve([Fraction(v) for v in f_row],
                             [Fraction(v) for v in g_row])
            top = max(abs(v) for v in exact)
            assert all(abs(Fraction(v) - e) <= Fraction(1e-12) * top
                       for v, e in zip(row, exact))


def _stacking_butterfly(a):
    """The butterfly with each level built from fresh sums and differences."""
    lead, size = a.shape[:-1], a.shape[-1]
    out = a.copy()
    h = 1
    while h < size:
        pairs = out.reshape(*lead, size // (2 * h), 2, h)
        lo, hi = pairs[..., 0, :], pairs[..., 1, :]
        out = np.stack((lo + hi, lo - hi), axis=-2).reshape(*lead, size)
        h *= 2
    return out


class TestFastPaths:
    @pytest.mark.parametrize("n", [1, 3, 10, 15])
    @pytest.mark.parametrize("dtype", [np.float64, np.int64, object])
    def test_butterfly_matches_stacking(self, n, dtype):
        rng = np.random.default_rng(n)
        rows = 2 if dtype is object and n == 15 else 3
        if dtype is np.float64:
            table = rng.standard_normal((rows, 1 << n))
        else:
            table = rng.integers(-1000, 1000, (rows, 1 << n)).astype(dtype)
            if dtype is object:
                table[:, 0] = 2 ** 70   # beyond int64
        for a in (table, table[0]):
            got, want = fr._butterfly(a), _stacking_butterfly(a)
            assert got.dtype == want.dtype and got.shape == want.shape
            if dtype is object:
                assert got.tolist() == want.tolist()
            else:
                assert got.tobytes() == want.tobytes()

    def test_butterfly_leaves_input(self):
        a = np.arange(8, dtype=np.int64)
        fr._butterfly(a)
        assert a.tolist() == list(range(8))

    @pytest.mark.parametrize("table", [
        [3, -1, 0, 7, 2, 2, -5, 1],
        [Fraction(1, 3), 2, Fraction(-5, 4), 0],
        [0.25, -1.5, 3.0, 0.125],
    ])
    def test_self_convolution_shares_transform(self, table):
        assert convolve(table, table) == convolve(table, list(table))
        arr = np.array(table, dtype=object if isinstance(table[0], Fraction)
                       else None)
        assert (convolve(arr, arr) == convolve(arr, arr.copy())).all()

    def test_self_convolution_transforms_once(self, monkeypatch):
        calls = []
        real = fr._butterfly

        def counting(a):
            calls.append(a.shape)
            return real(a)

        monkeypatch.setattr(fr, "_butterfly", counting)
        f = [1, 0, 2, -1]
        convolve(f, f)
        assert len(calls) == 2
        convolve(f, list(f))
        assert len(calls) == 5

    class Third(Fraction):
        pass

    @pytest.mark.parametrize("values", [
        [1, -2, 3, 0],
        [Fraction(1, 2), Fraction(-3, 4), Fraction(5), Fraction(0)],
        [1, Fraction(1, 6), -4, Fraction(2, 9)],
        [],
        [True, False, True, True],
        [np.int64(3), np.int64(-7)],
        [3, np.int64(-7)],
        [Third(1, 3), Third(2)],
        [Fraction(1, 2), np.int64(1)],
        [0.5, 1],
    ])
    def test_split_clears_to_python_ints(self, values):
        entries, unit, mag = fr._split(values)
        if any(isinstance(v, float) for v in values):
            assert unit is None
            return
        assert all(type(v) is int for v in entries)
        assert [Fraction(v) * unit for v in entries] == \
            [Fraction(v) for v in values]
        assert mag == max((abs(v) for v in entries), default=0)

    def test_draws_deterministic_per_seed(self):
        a = fr._random_functions(random.Random(5), 30, 64)
        b = fr._random_functions(random.Random(5), 30, 64)
        c = fr._random_functions(random.Random(6), 30, 64)
        assert all((x == y).all() for x, y in zip(a, b))
        assert not (a[0] == c[0]).all()
        assert a[0].shape == (30, 64) and a[1].shape == (30,)

    def test_draws_exactly_uniform(self):
        count, size = 1000, 1024
        values, q = fr._random_functions(random.Random(11), count, size)
        plain = np.delete(values, np.s_[::10], axis=0)
        assert (q[np.arange(count) % 10 != 0] == 1).all()
        hist = np.bincount(plain.ravel() + 16, minlength=33)
        assert hist.size == 33 and (hist > 0).all()
        # six standard deviations of a binomial count around N/33; a draw
        # that reduces bytes mod 33 skews some value by more than that
        draws = plain.size
        mean = draws / 33
        band = 6 * math.sqrt(draws * (1 / 33) * (32 / 33))
        assert (np.abs(hist - mean) <= band).all(), hist

    def test_every_tenth_function_is_dyadic(self):
        count, size = 50, 256
        values, q = fr._random_functions(random.Random(2), count, size)
        for i in range(count):
            f = [Fraction(v, int(q[i])) for v in values[i].tolist()]
            if i % 10:
                assert q[i] == 1
                continue
            assert q[i] in (1, 2, 4)
            assert {v.denominator for v in f} <= {1, 2, 4}
            assert any(v.denominator > 1 for v in f)
            assert all(abs(v) <= 16 for v in f)
