"""Exact Walsh-Hadamard layer and the covering-bound numerical replay."""

import hashlib
import json
import math
import pathlib
import random
import tracemalloc
from fractions import Fraction
from numbers import Integral

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codebounds.bounds import (
    NotApplicable,
    OutOfRange,
    ball_certificate,
    new_upper,
    vol,
)
from codebounds.cyclic import encode
from codebounds.fourier import (
    ChainViolation,
    DimensionMismatch,
    adjacency_apply,
    convolve,
    covering_replay,
    degree_function,
    identity_suite,
    inner,
    wht,
    wht_unnormalized,
)
from codebounds.spectrum import (
    InvalidRadius,
    ball_operator,
    radial_vector,
    top_eigenvalue,
)

import codebounds.bounds as bd
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
        assert wht([1, 0, 0, 0]) == [Fraction(1, 4)] * 4

    def test_character_concentrates(self):
        n = 3
        for z in range(1 << n):
            chi = [(-1) ** (x & z).bit_count() for x in range(1 << n)]
            ft = wht(chi)
            assert ft[z] == 1
            assert all(ft[i] == 0 for i in range(1 << n) if i != z)

    def test_float_inputs(self):
        # floats are refused, not computed; the error names every bad type
        with pytest.raises(TypeError,
                           match="^exact entries expected, got float$"):
            wht([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(TypeError, match="got complex, float$"):
            wht([1, 2.0, 3j, Fraction(1, 2)])
        with pytest.raises(TypeError, match="got float64$"):
            wht(np.array([1.0, 2.0, 3.0, 4.0]))

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
        with pytest.raises(DimensionMismatch, match="length 3 not a power"):
            inner([1, 2, 3], [1, 2, 3])

    def test_inner_rejects_2d_tables(self):
        # a 2-D array is a table of rows, and a row is no exact entry: it
        # is refused for its entry type, whatever its length
        for shape in [(2, 4), (3, 4)]:
            table = np.ones(shape, dtype=np.int64)
            with pytest.raises(TypeError, match="got ndarray$"):
                inner(table, table)

    @pytest.mark.parametrize("shape", [(2, 4), (3, 4)])
    @pytest.mark.parametrize("call", [
        pytest.param(wht_unnormalized, id="wht_unnormalized"),
        pytest.param(wht, id="wht"),
        pytest.param(lambda t: convolve(t, t), id="convolve"),
        pytest.param(adjacency_apply, id="adjacency_apply"),
    ])
    def test_transforms_reject_2d_tables(self, call, shape):
        with pytest.raises(TypeError, match="got ndarray$"):
            call(np.ones(shape, dtype=np.int64))

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


def _random_code(rng, n, words):
    return sorted({0} | {rng.randrange(1 << n) for _ in range(words)})


def _pair_histogram(code, n):
    """N(x) = #{(a, b) in C^2 : a ^ b = x} as a dense table of the cube:
    the oracle of the replay's distance distribution."""
    words = np.asarray(code, dtype=np.int64)
    return np.bincount((words[:, None] ^ words).ravel(), minlength=1 << n)


class TestPairCounts:
    """B_t = #{(a, b) in C^2 : |a ^ b| = t}, the covering replay's 1_C * 1_C
    summed over each weight shell."""

    @pytest.mark.parametrize("block", [1, 7, 1 << 18])
    def test_matches_brute_force(self, monkeypatch, block):
        monkeypatch.setattr(fr, "_PAIR_BLOCK", block)
        rng = random.Random(block)
        for _ in range(20):
            n = rng.randint(1, 9)
            code = _random_code(rng, n, rng.randint(0, 40))
            want = [0] * (n + 1)
            for a in code:
                for b in code:
                    want[(a ^ b).bit_count()] += 1
            d = next((t for t in range(1, n + 1) if want[t]), n)
            assert fr._code_side(code, n) == (want, d)
        assert fr._code_side([], 3) == ([0] * 4, 3)

    def test_float_convolution_is_exact(self):
        # every value u(u(1_C)^2) forms is an integer below 2^53 and 4^n
        # is a power of 2, so the float route gives N / 2^n bit for bit
        rng = random.Random(3)
        for n in (3, 8, 12):
            code = _random_code(rng, n, 3 * n)
            one_c = np.zeros(1 << n)
            one_c[code] = 1.0
            route = fr._butterfly(fr._butterfly(one_c) ** 2) / 4 ** n
            pairs = _pair_histogram(code, n) / (1 << n)
            assert route.tobytes() == pairs.tobytes()

    @pytest.mark.parametrize("block", [1, 1 << 18])
    def test_replay_distance(self, monkeypatch, block):
        monkeypatch.setattr(fr, "_PAIR_BLOCK", block)
        rng = random.Random(11)
        for _ in range(15):
            n = rng.randint(2, 10)
            code = _random_code(rng, n, rng.randint(1, 30))
            d = min(((a ^ b).bit_count() for a in code for b in code
                     if a != b), default=n)
            assert covering_replay(code, 1, n)["d"] == d
        assert covering_replay([0], 1, 5)["d"] == 5


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

    def test_agrees_with_certified_bound(self, code_4_1):
        rep = covering_replay(_code_words(code_4_1), r=3)
        bv = new_upper(15, 6, 3)
        assert (rep["d"], bv.value_exact) == (6, 1540)
        # the certified evaluator floors the same quantity
        assert bv.value_exact == math.floor(rep["bound"] + 1e-9)
        assert rep["code_size"] <= bv.value_exact

    def test_lambda_matches_operator(self):
        rep = covering_replay([0, 3, 12, 15], r=2, n=6)
        assert rep["lambda"] == pytest.approx(
            top_eigenvalue(ball_operator(6, 2)), abs=1e-11)
        assert rep["ball_size"] == vol(2, 6)

    def test_past_half_distance_refused(self):
        # {00, 11} at r = 1: 2d = 4 > n = 2 fails only the steps that widen
        # 2d to n; {0, 7} and one-word codes pass past half distance and
        # keep their reports
        with pytest.raises(NotApplicable,
                           match=r"^the covering bound needs 2d <= n, got "
                                 r"\(n, d\) = \(2, 2\); the steps that "
                                 r"widen 2d to n failed: \['two_estimates', "
                                 r"'final_bound'\]$"):
            covering_replay([0, 3], r=1)
        assert covering_replay([0, 7], r=1)["pass"] is True
        assert covering_replay([0], r=1, n=3)["pass"] is True

    def test_other_step_past_half_distance_is_a_fault(self, monkeypatch):
        # twice the true pair counts break phi_moment_ratio too: a failure
        # the hypothesis does not explain stays a ChainViolation
        code_side = fr._code_side

        def doubled(code, n):
            counts, d = code_side(code, n)
            return [2 * b for b in counts], d

        monkeypatch.setattr(fr, "_code_side", doubled)
        with pytest.raises(ChainViolation, match="'phi_moment_ratio'"):
            covering_replay([0, 3], r=1)
        with pytest.raises(ChainViolation, match="'phi_moment_ratio'"):
            covering_replay([0, 7], r=1)

    @pytest.mark.parametrize("n", range(2, 16))
    def test_ball_side_matches_certificate_route(self, monkeypatch, n):
        # oracle: the certificate's float and the summed ball volume, the
        # route the replay took before; the replay itself certifies nothing
        # and leaves the bounds' ball cache, emptied first, as it was.  The
        # word 1 makes d = 1, so every replay applies
        monkeypatch.setattr(bd, "_balls", {})
        rng = random.Random(n)
        for r in range(1, n // 2 + 1):
            code = _random_code(rng, n, rng.randint(2, 12)) + [1]
            before = dict(bd._balls)
            rep = covering_replay(code, r, n)
            assert bd._balls == before
            assert rep["lambda"] == ball_certificate(n, r).lambda_float
            assert rep["ball_size"] == vol(r, n)
            assert type(rep["ball_size"]) is int

    def test_requires_zero_word(self):
        with pytest.raises(OutOfRange):
            covering_replay([1, 2], r=1, n=3)
        with pytest.raises(OutOfRange):
            covering_replay([], r=1, n=3)

    def test_dimension_cap(self):
        with pytest.raises(DimensionMismatch):
            covering_replay([0, 1], r=1, n=16)

    def test_radius_cap(self):
        for r in (2, 0, -1):
            with pytest.raises(InvalidRadius):
                covering_replay([0, 7], r=r, n=3)

    def test_lambda_is_the_certificate_float(self):
        for n, r in [(3, 1), (6, 2), (15, 7)]:
            rep = covering_replay([0, (1 << n) - 1], r=r, n=n)
            assert rep["lambda"] == ball_certificate(n, r).lambda_float

    def test_radius_refused_before_pairs(self, monkeypatch):
        def no_pairs(*args):
            raise AssertionError("pairs counted")

        monkeypatch.setattr(fr, "_code_side", no_pairs)
        with pytest.raises(InvalidRadius, match="^radius 2 exceeds n/2 = 1$"):
            covering_replay([0, 7], r=2, n=3)

    def test_negative_word_named_before_radius(self):
        # [-5, 0] infers n = 1, where r = 1 is out of range too; the word,
        # which lies in no cube, is the fault named
        with pytest.raises(DimensionMismatch,
                           match=r"^codeword -5 outside \[0, 2\^1\)$"):
            covering_replay([0, -5], r=1)

    def test_word_outside_cube_rejected(self):
        with pytest.raises(DimensionMismatch, match="codeword 7 "):
            covering_replay([0, 7], r=1, n=2)
        with pytest.raises(DimensionMismatch, match="codeword -1 "):
            covering_replay([-1, 0, 7], r=1)

    def test_first_word_outside_cube_named(self):
        # words are checked in sorted order; the first outside is named
        with pytest.raises(DimensionMismatch,
                           match=r"^codeword 9 outside \[0, 2\^3\)$"):
            covering_replay([0, 12, 9, 3], r=1, n=3)

    def test_cap_before_code_is_read(self):
        # a given n above the cap is refused before the words are drawn
        def words():
            raise AssertionError("code read")
            yield 0

        for n in (16, 63):
            with pytest.raises(DimensionMismatch,
                               match=f"^n = {n} exceeds replay cap 15$"):
                covering_replay(words(), r=1, n=n)

    @pytest.mark.parametrize("code, n, error", [
        ([1, 2], 16, DimensionMismatch),    # a given n meets the cap first
        ([1, 1 << 16], None, OutOfRange),   # an inferred n needs the words
        ([0, 1 << 16], None, DimensionMismatch),
    ])
    def test_error_precedence(self, code, n, error):
        with pytest.raises(error):
            covering_replay(iter(code), r=1, n=n)

    def test_lazy_code_within_cap(self):
        assert covering_replay(iter([7, 0]), r=1) == \
            covering_replay([0, 7], r=1)

    @pytest.mark.parametrize("code, r, n", [
        (np.array([0, 7]), 1, None),
        ([np.int64(0), np.uint16(7)], 1, None),
        ([0, 7], np.int64(1), np.int64(3)),
        (np.array([0, 7], dtype=np.uint8), np.int32(1), np.uint8(3)),
    ])
    def test_numpy_integers_read_as_ints(self, code, r, n):
        rep = covering_replay(code, r, n)
        assert repr(rep) == repr(covering_replay([0, 7], 1, 3))
        assert type(rep["n"]) is int and type(rep["r"]) is int

    @pytest.mark.parametrize("code, r, n", [
        ([0, 7.0], 1, None),
        (np.array([0.0, 7.0]), 1, None),
        ([0, 7], 1.0, 3),
        ([0, 7], 1, 3.0),
        (["0", "7"], 1, 3),
    ])
    def test_non_integers_refused(self, code, r, n):
        with pytest.raises(TypeError):
            covering_replay(code, r, n)


def _code_words(spec):
    return [encode(spec, msg).bits for msg in range(1 << spec.k)]


DATA = pathlib.Path(__file__).resolve().parent / "data"


def _dense_replay(code, r, n):
    """The replay's report computed on dense float64 tables of the cube,
    through ``_butterfly`` and ``_adjacency``: the route the shells
    replaced, kept as their oracle."""
    size, lam = 1 << n, ball_certificate(n, r).lambda_float
    weights = np.bitwise_count(np.arange(size))
    pairs = _pair_histogram(code, n)
    reached = weights[(pairs > 0) & (weights > 0)]
    d = int(reached.min()) if reached.size else n
    phi = fr._butterfly(np.sqrt(pairs / size))
    u_phi = fr._butterfly(phi)
    f = np.array(radial_vector(n, r, lam) + [0.0])[np.minimum(weights, r + 1)]
    worst = float((fr._adjacency(f) - lam * f).min())
    big_f = fr._butterfly(u_phi * fr._butterfly(f)) / size ** 2

    def mean(v):
        return float(v.sum()) / size

    def mean_sq(v):
        return float((v * v).sum()) / size

    ef, ef2, ephi, ephi2 = mean(f), mean_sq(f), mean(phi), mean_sq(phi)
    eF, eF2 = mean(big_f), mean_sq(big_f)
    afF = float((fr._adjacency(big_f) * big_f).sum()) / size
    ball, m = vol(r, n), len(code)
    tol = fr._REL_TOL

    def step(name, lhs, rhs, kind):
        slack = tol * max(1.0, abs(rhs))
        ok = {"le": lhs <= rhs + slack, "ge": lhs >= rhs - slack,
              "eq": abs(lhs - rhs) <= slack}[kind]
        return {"name": name, "lhs": lhs, "rhs": rhs, "pass": bool(ok)}

    steps = [
        {"name": "perron_pointwise", "lhs": worst, "rhs": 0.0,
         "pass": worst >= -tol * float(np.abs(f).max()) * lam},
        step("support_cauchy", ef * ef, ef2 * ball / size, "le"),
        step("phi_moment_ratio", ephi2 / (ephi * ephi), float(m), "eq"),
        step("AF_lower_estimate", afF, lam * eF2, "ge"),
        step("EF_product_identity", eF * eF, (ephi * ef) ** 2, "eq"),
        step("EF2_product_lower", eF2, ephi2 * ef2 / size, "ge"),
        step("two_estimates", n * ephi ** 2 * ef ** 2,
             (lam - (n - 2 * d)) / size * ephi2 * ef2, "ge"),
    ]
    bound = (n / (lam - (n - 2 * d)) * ball if lam > n - 2 * d
             else math.inf)
    steps.append(step("final_bound", float(m), bound, "le"))
    return {"n": n, "r": r, "d": d, "lambda": lam, "code_size": m,
            "ball_size": ball, "bound": bound, "steps": steps,
            "pass": all(s["pass"] for s in steps)}


def _close(a, b, tol):
    return a == b or abs(a - b) <= tol


def _assert_agrees(shell, dense):
    """Ints, names and flags equal; floats within 1e-12 relative, and the
    Perron residual, which is a rounding error near 0, within
    1e-12 lambda max f."""
    assert list(shell) == list(dense)
    for key, value in dense.items():
        if key == "steps":
            continue
        if isinstance(value, float):
            assert _close(shell[key], value, 1e-12 * abs(value)), key
        else:
            assert (type(shell[key]), shell[key]) == (type(value), value), key
    lam = dense["lambda"]
    top = max(radial_vector(dense["n"], dense["r"], lam))
    assert [s["name"] for s in shell["steps"]] == \
        [s["name"] for s in dense["steps"]]
    for new, old in zip(shell["steps"], dense["steps"]):
        assert new["pass"] is old["pass"], new["name"]
        for side in ("lhs", "rhs"):
            tol = (1e-12 * lam * top
                   if new["name"] == "perron_pointwise" and side == "lhs"
                   else 1e-12 * abs(old[side]))
            assert _close(new[side], old[side], tol), (new["name"], side)


def _seeded_codes():
    """Seeded random codes with n <= 12: 30 of up to 24 words, and one
    of 30 words in n = 12, whose pair support holds several hundred
    points."""
    rng = random.Random(2009)
    cases = []
    for _ in range(30):
        n = rng.randint(2, 12)
        cases.append((_random_code(rng, n, rng.randint(0, 24)),
                      rng.randint(1, n // 2), n))
    cases.append((_random_code(rng, 12, 30), 4, 12))
    return cases


class TestDenseOracle:
    """The shell replay against the dense tables it replaced."""

    def test_code_4_1_every_radius(self, code_4_1):
        words = sorted(_code_words(code_4_1))
        for r in range(1, 8):
            _assert_agrees(covering_replay(words, r, code_4_1.n),
                           _dense_replay(words, r, code_4_1.n))

    @pytest.mark.parametrize("code, r, n", [([0, 7], 1, 3), ([0], 1, 3),
                                            ([0], 3, 7)])
    def test_small_codes(self, code, r, n):
        _assert_agrees(covering_replay(code, r, n), _dense_replay(code, r, n))

    def test_seeded_codes(self):
        cases = _seeded_codes()
        support = np.count_nonzero(_pair_histogram(cases[-1][0], 12))
        assert len(cases) == 31 and support >= 300
        for code, r, n in cases:
            _assert_agrees(covering_replay(code, r, n),
                           _dense_replay(code, r, n))

    @pytest.mark.parametrize("argv, name", [
        (([0, 7], 1, None), "replay_words_0_7_r1"),
        ((None, 3, 15), "replay_m4_c1_r3"),
    ])
    def test_dense_fixtures(self, code_4_1, argv, name):
        # the reports the dense route pinned, before the shells
        code, r, n = argv
        if code is None:
            code = _code_words(code_4_1)
        dense = json.loads((DATA / f"{name}_dense.json").read_text())
        shell = json.loads(json.dumps(covering_replay(code, r, n)))
        _assert_agrees(shell, dense)

    def test_no_dense_float_table(self, monkeypatch, code_4_1):
        # the replay forms no table of the cube
        def refuse(*args):
            raise AssertionError("dense kernel called")

        monkeypatch.setattr(fr, "_butterfly", refuse)
        monkeypatch.setattr(fr, "_adjacency", refuse)
        assert covering_replay(_code_words(code_4_1), 3, 15)["pass"]

    def test_memory_stays_off_the_cube(self, code_4_1):
        # a table of the 2^15 cube in int64 alone would take 256 KiB
        words = _code_words(code_4_1)
        tracemalloc.start()
        try:
            covering_replay(words, 3, 15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10


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

    @pytest.mark.parametrize("n, count, seed, error", [
        (np.int64(3), 3, 0, None),
        (3, np.int32(3), np.uint8(0), None),
        (np.uint8(3), np.int64(3), np.int64(0), None),
        (3.0, 3, 0, TypeError),
        (3, 3.0, 0, TypeError),
        (3, 3, 0.0, TypeError),
    ])
    def test_numpy_integer_arguments(self, n, count, seed, error):
        if error:
            with pytest.raises(error):
                identity_suite(n, count, seed)
        else:
            out = identity_suite(n, count, seed)
            assert out == identity_suite(3, 3, 0)
            assert type(out["n"]) is int and type(out["count"]) is int

    @pytest.mark.parametrize("count", [0, -5])
    def test_nonpositive_count_rejected(self, count):
        with pytest.raises(ValueError, match=f"count = {count} "):
            identity_suite(3, count=count)

    def test_detects_broken_adjacency(self, monkeypatch):
        import codebounds.fourier as fr

        real = fr._adjacency

        def broken(a):
            out = real(a)
            out[..., 0] += 1
            return out

        monkeypatch.setattr(fr, "_adjacency", broken)
        with pytest.raises(ChainViolation, match="adjacency"):
            fr.identity_suite(3, count=5)

    def test_detects_broken_transform(self, monkeypatch):
        import codebounds.fourier as fr

        real = fr._butterfly

        def broken(a):
            # only the suite's 2-D array: the 1-D degree check stays intact
            out = real(a)
            if out.ndim == 2:
                out[..., -1] += 1
            return out

        monkeypatch.setattr(fr, "_butterfly", broken)
        with pytest.raises(ChainViolation, match="double transform"):
            fr.identity_suite(2, count=5)


    @pytest.mark.parametrize("n,dtype", [(11, np.int64), (12, object)])
    def test_largest_draws_pick_one_dtype(self, monkeypatch, n, dtype):
        # 64 = 16 * q/denominator with q = 4 is the largest numerator the
        # suite draws; size^4 * 64^3 is 2^62 at n = 11, which still picks
        # int64, and 2^66 at n = 12, which picks Python ints.  Every check
        # must hold on the one array of that dtype.  (int64 wrapping alone
        # cannot fail a check: the identities also hold mod 2^64.)
        count, size = 30, 1 << n
        rng = np.random.default_rng(n)
        draws = np.where(rng.random((count, size)) < 0.5, -64, 64)
        draws[:3] = 64                  # u concentrates on z = 0
        q = np.full(count, 4, dtype=np.int64)
        monkeypatch.setattr(fr, "_random_functions",
                            lambda *_: (draws.astype(np.int64), q))
        dtypes = set()
        real = fr._butterfly

        def spy(a):
            if a.ndim == 2:
                dtypes.add(a.dtype)
            return real(a)

        monkeypatch.setattr(fr, "_butterfly", spy)
        assert identity_suite(n, count=count)["pass"] is True
        assert dtypes == {np.dtype(dtype)}

    def test_exact_int_route(self):
        # size^4 * 64^3 exceeds 2^63 at n = 12: the suite runs on Python ints
        assert identity_suite(12, count=10)["pass"] is True


def _rational(*args):
    return any(isinstance(v, Fraction) for arg in args for v in arg)


def _bump_last(real):
    def broken(*args):
        out = real(*args)
        if _rational(*args):
            out[-1] += Fraction(1, 3)
        return out
    return broken


def _drop_last(real):
    def broken(*args):
        out = real(*args)
        return out[:-1] if _rational(*args) else out
    return broken


def _bump_inner(real):
    def broken(f, g):
        out = real(f, g)
        return out + Fraction(1, 3) if _rational(f, g) else out
    return broken


def _bump_numerator(real):
    def broken(values):
        nums, q = real(values)
        if _rational(values):
            nums[0] += 1
        return nums, q
    return broken


class TestReplayOracle:
    """The every-25th replay through the public Fraction interface."""

    @pytest.mark.parametrize("name,perturb", [
        ("wht", _bump_last),
        ("inner", _bump_inner),
        ("convolve", _bump_last),
        ("adjacency_apply", _bump_last),
        ("adjacency_apply", _drop_last),
        ("clear_denominators", _bump_numerator),
    ])
    def test_perturbed_public_path_fails(self, monkeypatch, name, perturb):
        # the integer array checks never call the public functions, so
        # only the replay can see the perturbation
        monkeypatch.setattr(fr, name, perturb(getattr(fr, name)))
        with pytest.raises(ChainViolation,
                           match=r"^rational-path replay failed \(n=6, i=0\)"):
            identity_suite(6)

    @pytest.mark.parametrize("count,replayed", [(1, 1), (2, 1), (26, 2)])
    def test_successors_wrap(self, monkeypatch, count, replayed):
        # j = i + 1 and k = i + 2 are taken mod count: at count 1 all three
        # are function 0, and at count 26 function 25 reads 0 and 1
        calls = []
        real = fr.adjacency_apply

        def spy(f):
            calls.append(f)
            return real(f)

        monkeypatch.setattr(fr, "adjacency_apply", spy)
        assert identity_suite(4, count=count) == \
            {"n": 4, "count": count, "pass": True}
        assert len(calls) == replayed


@pytest.mark.deep
def test_deep_identity_suite_at_cap():
    assert identity_suite(16, count=3)["pass"] is True


class TestExactness:
    def test_no_int64_wraparound(self):
        assert wht_unnormalized([2 ** 62] * 4) == [2 ** 64, 0, 0, 0]
        table = np.full(4, 2 ** 62, dtype=np.int64)
        assert wht_unnormalized(table) == [2 ** 64, 0, 0, 0]
        assert adjacency_apply([2 ** 62] * 4) == [2 ** 63] * 4
        big = [2 ** 40, 0, 0, 0]
        # (f * f)(0) = E_y f(y)^2 = 2^80 / 4
        assert convolve(big, big) == [Fraction(2 ** 80, 4), 0, 0, 0]
        # a zero bound on the results still holds the entries: Python ints
        assert adjacency_apply([2 ** 70]) == [0]
        assert inner([2 ** 70, 0], [0, 0]) == 0

    def test_inner_numpy_int_entries(self):
        # int64 products of these entries wrap; the numerators do not
        f = [np.int64(2 ** 62), np.int64(1)]
        g = [np.int64(4), np.int64(1)]
        assert inner(f, g) == Fraction(2 ** 64 + 1, 2)
        assert inner(np.array([2 ** 62, 1]), np.array([4, 1])) \
            == Fraction(2 ** 64 + 1, 2)
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

    @pytest.mark.parametrize("call", [
        wht_unnormalized, wht, adjacency_apply,
        lambda t: inner(t, [1, Fraction(1, 2), 0, 3]),
        lambda t: convolve(t, [1, Fraction(1, 2), 0, 3]),
    ], ids=["wht_unnormalized", "wht", "adjacency_apply", "inner",
            "convolve"])
    def test_generator_reads_as_its_list(self, call):
        table = [Fraction(1, 3), 2, np.int64(-1), Fraction(5, 4)]
        assert call(v for v in table) == call(table)

    @pytest.mark.parametrize("table", [
        pytest.param([0.5, 2.0, 0.0, -1.0], id="float list"),
        pytest.param([1, 2.0, 0, -1], id="mixed list"),
        pytest.param(np.array([0.5, 2.0, 0.0, -1.0]), id="float64 ndarray"),
        pytest.param(np.array([1, 2.0, 0, -1], dtype=object),
                     id="object ndarray with a float"),
    ])
    @pytest.mark.parametrize("call", [
        pytest.param(wht_unnormalized, id="wht_unnormalized"),
        pytest.param(wht, id="wht"),
        pytest.param(lambda t: inner([1, 0, 2, 1], t), id="inner"),
        pytest.param(lambda t: convolve(t, [1, 0, 2, 1]), id="convolve"),
        pytest.param(adjacency_apply, id="adjacency_apply"),
    ])
    def test_primitives_refuse_floats(self, call, table):
        with pytest.raises(TypeError, match="float"):
            call(table)


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
        # the identity suite's route: the kernels on one 2-D exact array
        rng = random.Random(n)
        rows = [[rng.randint(-50, 50) for _ in range(1 << n)]
                for _ in range(5)]
        arr = np.array(rows)
        u, a = fr._butterfly(arr), fr._adjacency(arr)
        assert u.shape == a.shape == arr.shape
        for row, u_row, a_row in zip(rows, u, a):
            assert u_row.tolist() == _reference_wht(row)
            assert a_row.tolist() == _reference_adjacency(row)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_float_rows_convolve(self, n):
        # the dense replay oracle's float route, u(u(f) . u(g)) / 4^n on
        # the kernels, against the exact convolution of the same rows
        rng = random.Random(100 + n)
        f, g = (np.array([[rng.uniform(-1, 1) for _ in range(1 << n)]
                          for _ in range(4)]) for _ in range(2))
        out = fr._butterfly(fr._butterfly(f) * fr._butterfly(g)) / 4 ** n
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



def _level_butterfly(a):
    """The in-place level loop over (size/2h, 2, h) blocks, kept verbatim as
    the reference for the kernel."""
    lead, size = a.shape[:-1], a.shape[-1]
    out = a.copy()
    scratch = np.empty((*lead, size // 2), dtype=out.dtype)
    h = 1
    while h < size:
        pairs = out.reshape(*lead, size // (2 * h), 2, h)
        lo, hi = pairs[..., 0, :], pairs[..., 1, :]
        diff = scratch.reshape(*lead, size // (2 * h), h)
        np.subtract(lo, hi, out=diff)
        lo += hi
        hi[...] = diff
        h *= 2
    return out


def _level_adjacency(a):
    """The flip-per-level adjacency loop, kept verbatim as the reference."""
    lead, size = a.shape[:-1], a.shape[-1]
    out = np.zeros_like(a)
    h = 1
    while h < size:
        flipped = a.reshape(*lead, size // (2 * h), 2, h)[..., ::-1, :]
        out += flipped.reshape(*lead, size)
        h *= 2
    return out


def _read_only(a):
    a.flags.writeable = False       # any write to the input raises
    return a


class TestKernelsMatchLevelLoop:
    @pytest.mark.parametrize("n", range(1, 16))
    def test_float_tables(self, n):
        # float64 rounding depends on the operand order of every addition,
        # so equal bytes mean the same operations in the same level order
        rng = np.random.default_rng(n)
        a = rng.standard_normal(1 << n) * 10.0 ** rng.integers(-8, 8, 1 << n)
        a[0] = -0.0
        a = _read_only(a)
        for kernel, reference in ((fr._butterfly, _level_butterfly),
                                  (fr._adjacency, _level_adjacency)):
            got, want = kernel(a), reference(a)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert got.flags.writeable

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10])
    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_exact_rows(self, n, dtype):
        rng = np.random.default_rng(100 + n)
        a = rng.integers(-1000, 1000, (5, 1 << n)).astype(dtype)
        if dtype is object:
            a[:, 0] = 3 ** 50           # beyond int64
        a = _read_only(a)
        for kernel, reference in ((fr._butterfly, _level_butterfly),
                                  (fr._adjacency, _level_adjacency)):
            got, want = kernel(a), reference(a)
            assert got.dtype == want.dtype and got.shape == want.shape
            if dtype is object:
                assert got.tolist() == want.tolist()
            else:
                assert got.tobytes() == want.tobytes()

    def test_strided_input(self):
        # a transposed view: the buffers must not inherit its layout
        a = _read_only(np.random.default_rng(7).standard_normal((16, 3)).T)
        for kernel, reference in ((fr._butterfly, _level_butterfly),
                                  (fr._adjacency, _level_adjacency)):
            want = reference(np.ascontiguousarray(a))
            assert kernel(a).tobytes() == want.tobytes()

    def test_single_entry_is_copied(self):
        a = np.array([5], dtype=np.int64)
        out = fr._butterfly(a)
        out[0] = 7
        assert a.tolist() == [5]


class TestOut:
    @pytest.mark.parametrize("dtype", [np.int64, object])
    @pytest.mark.parametrize("values", [
        pytest.param([3, 3, -3, 0, 3, 0, 0, -3], id="repeated"),
        pytest.param([5, -7, 2 ** 40, 11, 0, 1, -1, 6], id="unique"),
    ])
    @pytest.mark.parametrize("unit", [Fraction(1, 6), Fraction(5, 12),
                                      Fraction(1)])
    def test_per_entry_fractions(self, dtype, values, unit):
        got = fr._out(np.array(values, dtype=dtype), unit)
        want = [Fraction(v * unit.numerator, unit.denominator)
                for v in values]
        assert got == want
        assert all(type(v) is Fraction for v in got)

    def test_int_unit_keeps_ints(self):
        got = fr._out(np.array([2, 2, -1], dtype=object) * 2 ** 70, 1)
        assert got == [2 ** 71, 2 ** 71, -2 ** 70]
        assert all(type(v) is int for v in got)

    @pytest.mark.parametrize("q", [1, 3, 4])
    def test_public_outputs(self, q):
        # repeated values over q: every output equals its own Fraction
        ints = [4, 4, -4, 0, 4, 0, 8, -4]
        f = [Fraction(v, q) for v in ints]
        assert wht(f) == [Fraction(u, 8 * q) for u in _reference_wht(ints)]
        assert adjacency_apply(f) == \
            [Fraction(v, q) for v in _reference_adjacency(ints)]
        big = [2 ** 70 * v for v in ints]       # object numerators
        assert wht([Fraction(v, q) for v in big]) == \
            [Fraction(u, 8 * q) for u in _reference_wht(big)]


class Third(Fraction):
    pass


SHARED, THIRD = Fraction(2, 3), Third(-1, 3)
# tables for ``_split`` and the public primitives; ids are positional, so
# new cases go at the end
SPLIT_TABLES = [
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
    [SHARED] * 4,                               # one object, read once
    np.array([2 ** 62, 1, -3, 2 ** 62]),        # fresh scalar per entry
    [2 ** 70, -1, Fraction(1, 3), 0],           # past 2^63: object route
    [THIRD, Third(2), THIRD, THIRD],            # a Fraction subclass
    [7, SHARED, 7, Fraction(-5, 6)],            # int and Fraction mixed
    [Fraction(4, 2), 3, Fraction(-1), 0],       # q = 1, yet Fractions out
]


# sha256 of _random_functions(random.Random(seed), count, size)'s two arrays
DRAW_DIGESTS = [
    (5, 100, 1024,
     "4877bc6e52e9ec44a91723298c2e1577eb62bc1adac5c86d1f7a8ec5ce2aa45f"),
    (0, 1, 2,
     "e1d9dfe857aee3c3ddcc834a64e601071d995474419dfe49562557ff4639dcbe"),
    (7, 30, 64,
     "2cb2127f75b777894f5ae63e4a011dbfc99f87f97f46c749cec870126f29379b"),
    (11, 3, 4096,
     "d81ef0d0592a25b8a21633bd9befb9f6a570558a1c9e2d5183be2dd57c5d26a1"),
]


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
        [2 ** 62, -3, 0, 1],    # Python ints: int64 could wrap
    ])
    def test_self_convolution_shares_transform(self, table):
        assert convolve(table, table) == convolve(table, list(table))

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

    @pytest.mark.parametrize("values", SPLIT_TABLES)
    def test_split_clears_to_python_ints(self, values):
        if any(isinstance(v, float) for v in values):
            with pytest.raises(TypeError, match="float"):
                fr._split(values)
            return
        entries, unit, mag = fr._split(values)
        # exact integers: int64 below 2^63, Python ints (object) past it
        assert entries.dtype == (np.int64 if mag < 2 ** 63 else object)
        nums = entries.tolist()
        assert all(type(v) is int for v in nums)
        assert (type(unit) is int) == all(isinstance(v, Integral)
                                          for v in values)
        assert [Fraction(v) * unit for v in nums] == \
            [Fraction(v) for v in values]
        assert mag == max(map(abs, nums), default=0)

    @pytest.mark.parametrize("values", [
        t for t in SPLIT_TABLES
        if len(t) and not any(isinstance(v, float) for v in t)])
    def test_public_values_and_types(self, values):
        # each primitive against its definition in Fraction arithmetic: ints
        # out for all-Integral tables, Fractions otherwise and after division
        f = [Fraction(int(v.numerator), int(v.denominator)) for v in values]
        size = len(f)
        integral = all(isinstance(v, Integral) for v in values)
        for got, want, ints in [
            (wht_unnormalized(values), _reference_wht(f), integral),
            (wht(values), [u / size for u in _reference_wht(f)], False),
            (adjacency_apply(values), _reference_adjacency(f), integral),
            (convolve(values, values),
             [sum(f[y] * f[x ^ y] for y in range(size)) / size
              for x in range(size)], False),
            ([inner(values, values)], [sum(v * v for v in f) / size], False),
        ]:
            assert got == want
            assert all(type(v) is (int if ints else Fraction) for v in got)

    def test_draws_deterministic_per_seed(self):
        a = fr._random_functions(random.Random(5), 30, 64)
        b = fr._random_functions(random.Random(5), 30, 64)
        c = fr._random_functions(random.Random(6), 30, 64)
        assert all((x == y).all() for x, y in zip(a, b))
        assert not (a[0] == c[0]).all()
        assert a[0].shape == (30, 64) and a[1].shape == (30,)
        # the suite's functions, byte for byte: a change to the rejection
        # filter or to the order the bytes are read moves these digests
        for seed, count, size, digest in DRAW_DIGESTS:
            values, q = fr._random_functions(random.Random(seed), count, size)
            assert values.dtype == q.dtype == np.int64
            assert values.shape == (count, size) and q.shape == (count,)
            assert hashlib.sha256(values.tobytes() + q.tobytes()) \
                .hexdigest() == digest

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
