"""Exhaustive distance engines and the exact A(n, d) clique search."""

import dataclasses
import functools
import inspect
import itertools
import math
import operator
import random
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codebounds import _kernels, cyclic, distance
from codebounds.cli import main
from codebounds.distance import (
    BudgetExceeded,
    _orbit_histogram,
    distance_report,
    exact_A_search,
    min_distance,
    min_distance_of_rows,
    weight_distribution,
    weight_distribution_of_rows,
)
from codebounds.cyclic import (
    DecompositionFailure,
    build_code,
    minimal_ideals,
)
from codebounds.gf2 import row_basis

# ground truth for small n, from exhaustive search (standard tables)
A_TABLE = {
    (4, 2): 8, (4, 3): 2, (5, 3): 4, (6, 3): 8, (6, 4): 4,
    (7, 3): 16, (7, 4): 8, (8, 2): 128, (8, 4): 16, (8, 5): 4, (8, 6): 2,
}


class TestMinDistance:
    def test_4_1_golden(self, code_4_1):
        assert min_distance(code_4_1) == 6

    def test_6_2_golden(self, code_6_2):
        d = min_distance(code_6_2)
        assert d == 24
        assert d >= code_6_2.designed_distance

    def test_repetition_code(self):
        assert min_distance_of_rows([0b11111], 5) == 5

    def test_row_permutation_invariance(self, code_6_2):
        rows = code_6_2.generator_rows()
        rng = random.Random(7)
        for _ in range(3):
            shuffled = rows[:]
            rng.shuffle(shuffled)
            assert min_distance_of_rows(shuffled, code_6_2.n) == 24

    def test_budget(self, code_6_2):
        with pytest.raises(BudgetExceeded):
            min_distance(code_6_2, max_k=10)

    def test_one_default_budget(self):
        # every entry point enumerates up to the same k by default
        entries = [min_distance, weight_distribution, distance_report,
                   min_distance_of_rows, weight_distribution_of_rows]
        assert {inspect.signature(f).parameters["max_k"].default
                for f in entries} == {24}
        assert weight_distribution(build_code(8, 3)).min_distance == 96

    def test_workers_option_removed(self, code_4_1):
        # every scan runs in the calling thread
        with pytest.raises(SystemExit) as exc:
            main(["distance", "--m", "4", "--c", "1", "--workers", "2"])
        assert exc.value.code == 2
        with pytest.raises(TypeError):
            min_distance(code_4_1, workers=2)

    def test_weight_distribution_of_rows_has_no_workers(self, code_4_1):
        with pytest.raises(TypeError):
            weight_distribution_of_rows(code_4_1.generator_rows(), 15,
                                        workers=2)

    def test_workers_of_rows_starts_no_thread(self, monkeypatch, code_6_2):
        # workers is accepted for the benchmark's probe and ignored; with
        # layer_minima refused, the span goes to the full scan
        def refuse(thread):
            raise AssertionError(f"thread started: {thread!r}")
        monkeypatch.setattr(threading.Thread, "start", refuse)
        monkeypatch.setattr(_kernels, "layer_minima", _fail)
        rows = code_6_2.generator_rows()
        assert min_distance_of_rows(rows, 63, workers=4) == 24
        assert min_distance_of_rows(rows, 63) == 24

    def test_zero_code_rejected(self):
        with pytest.raises(ValueError):
            min_distance_of_rows([0, 0], 4)


def _rm_rows(r, m):
    """Generator of RM(r, m): evaluations of the monomials of degree <= r."""
    return [sum(1 << x for x in range(1 << m) if x & mono == mono)
            for mono in range(1 << m) if mono.bit_count() <= r]


def _fail(*args, **kwargs):
    raise AssertionError("this route must not run")


class TestInformationSets:
    # n on both sides of the 64- and 128-bit limb boundaries; sparse rows
    # give spans the information-set route takes, dense ones spans it
    # hands to the full scan; duplicate, dependent and zero rows are mixed
    # in, and a span of zero rows must raise like the full scan
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 130), k=st.integers(0, 16),
           density=st.sampled_from([0.03, 0.1, 0.5]),
           extra=st.integers(0, 4), seed=st.integers(0, 2 ** 32))
    def test_equals_full_scan(self, n, k, density, extra, seed):
        rng = random.Random(seed)
        rows = [sum(1 << i for i in range(n) if rng.random() < density)
                for _ in range(k)]
        for _ in range(extra):
            pick = rng.choice(["zero", "duplicate", "sum"])
            if pick == "zero" or not rows:
                rows.append(0)
            elif pick == "duplicate":
                rows.append(rng.choice(rows))
            else:
                rows.append(rng.choice(rows) ^ rng.choice(rows))
        rng.shuffle(rows)
        if not any(rows):
            with pytest.raises(ValueError, match="no nonzero codeword"):
                min_distance_of_rows(rows, n)
            return
        full = weight_distribution_of_rows(rows, n).min_distance
        assert min_distance_of_rows(rows, n) == full

    def test_short_dense_spans(self):
        # dense rows with n <= 40 end the search in its first rounds, where
        # an off-by-one in the stopping bound t w + j shows in about one
        # span in a hundred
        rng = random.Random(14)
        for _ in range(1000):
            n, k = rng.randint(2, 40), rng.randint(1, 12)
            rows = [rng.getrandbits(n) for _ in range(k)]
            if any(rows):
                assert min_distance_of_rows(rows, n) == \
                    weight_distribution_of_rows(rows, n).min_distance, rows

    def test_stops_only_at_the_bound(self):
        # rows e_i + p with wt(p) = 2: one information set, every row of
        # weight 3, and d = 2 first met at message weight 2; after the
        # weight-1 round the bound is t w + j = 2 < 3, so the search must
        # go on to weight 2
        rows = [1 << i | 0b11 << 8 for i in range(8)]
        assert min_distance_of_rows(rows, 10) == 2

    def test_rm_2_6_takes_the_information_set_route(self, monkeypatch):
        # RM(2, 6): n = 64, k = 22, two disjoint information sets
        monkeypatch.setattr(_kernels, "weight_scan", _fail)
        monkeypatch.setattr(_kernels, "least_weight", _fail)
        assert min_distance_of_rows(_rm_rows(2, 6), 64) == 16

    def test_sets_used_are_the_cheapest_count(self, monkeypatch):
        # 102 disjoint information sets exist, but with weight-2 rows one
        # set's tables and its weight-1 round already settle d = 2
        used = []
        real = _kernels.layer_minima
        monkeypatch.setattr(_kernels, "layer_minima", lambda gens, n, last: (
            used.append(len(gens)) or real(gens, n, last)))
        rows = [1 << i | 1 << (1000 + i) for i in range(20)]
        assert min_distance_of_rows(rows, 2048) == 2
        assert used == [1]

    def test_tables_keep_only_the_weights_searched(self, monkeypatch):
        # 16 sparse rows at n = 1000 take the information-set route on
        # several sets; each set's span tables keep only the columns of
        # message weight <= last, the weight by which the search returns
        asked, kept = [], []
        real_layers = _kernels.layer_minima
        real_order = _kernels._popcount_order

        def popcount_order(bits, last):
            order, at = real_order(bits, last)
            kept.append((bits, last, len(order)))
            return order, at

        monkeypatch.setattr(_kernels, "layer_minima", lambda gens, n, last: (
            asked.append((len(gens), last)) or real_layers(gens, n, last)))
        monkeypatch.setattr(_kernels, "_popcount_order", popcount_order)
        rng = random.Random(3)
        rows = [sum(1 << i for i in range(1000) if rng.random() < 0.03)
                for _ in range(16)]
        assert min_distance_of_rows(rows, 1000) == \
            weight_distribution_of_rows(rows, 1000).min_distance
        [(t, last)] = asked
        assert t > 1 and len(kept) == 2
        for bits, got, cols in kept:
            assert got == last
            assert cols <= sum(math.comb(bits, w) for w in range(last + 1))
            assert cols < 1 << bits

    def test_budget_is_on_the_rank(self):
        # 30 rows past max_k = 24, but their span has one nonzero word
        assert min_distance_of_rows([1] * 30, 1) == 1
        rows = [1 << i for i in range(20)]
        rows += [a ^ b for a, b in zip(rows, rows[1:])]
        assert len(rows) > 24 and min_distance_of_rows(rows, 20) == 1

    def test_budget_exceeded_by_the_rank(self):
        rows = [1 << i for i in range(26)] + [0, 1]
        with pytest.raises(BudgetExceeded, match="k = 26 exceeds"):
            min_distance_of_rows(rows, 26)
        assert min_distance_of_rows(rows, 26, max_k=26) == 1

    @pytest.mark.parametrize("n,k", [(63, 15), (64, 15), (127, 14),
                                     (255, 12)])
    def test_full_scan_from_k_alone(self, monkeypatch, n, k):
        # k is the largest rank whose full scan costs no more than one
        # information set; such spans, and RM(1, 8) (k = 9), split no set
        assert _kernels.scan_price(k, n) <= _kernels.search_price(k, n, 1, 0)
        assert _kernels.scan_price(k + 1, n) > \
            _kernels.search_price(k + 1, n, 1, 0)
        monkeypatch.setattr(distance, "_systematic", _fail)
        monkeypatch.setattr(_kernels, "layer_minima", _fail)
        assert min_distance_of_rows(_rm_rows(1, 8), 256) == 128
        rng = random.Random(n)
        for density in (0.5, 0.03):
            rows = [sum(1 << i for i in range(n) if rng.random() < density)
                    for _ in range(k)]
            assert min_distance_of_rows(rows, n) == \
                weight_distribution_of_rows(rows, n).min_distance

    @pytest.mark.parametrize("n", [63, 64, 127, 255])
    def test_dense_rank_16_spans_split_one_set(self, monkeypatch, n):
        # the first set prices the search above the scan; no second split
        split = []
        real = distance._systematic
        monkeypatch.setattr(distance, "_systematic", lambda rows, cols: (
            split.append(cols) or real(rows, cols)))
        monkeypatch.setattr(_kernels, "layer_minima", _fail)
        rng = random.Random(n)
        rows = [rng.getrandbits(n) for _ in range(16)]
        assert min_distance_of_rows(rows, n) == \
            weight_distribution_of_rows(rows, n).min_distance
        assert len(split) == 1

    def test_near_half_distance_code_goes_to_full_scan(self, monkeypatch):
        # (8,3): n = 255, k = 24, d = 96; ten sets would need message
        # weights up to about 9, more words than the 2^24 of a full scan
        monkeypatch.setattr(_kernels, "layer_minima", _fail)
        spec = build_code(8, 3)
        assert min_distance_of_rows(spec.generator_rows(), spec.n) == 96


class TestWeightDistribution:
    def test_4_1_histogram(self, code_4_1):
        wd = weight_distribution(code_4_1)
        assert sum(wd.counts) == 16
        assert wd.counts[0] == 1
        assert wd.min_distance == 6

    def test_repetition_3(self):
        wd = weight_distribution_of_rows([0b111], 3)
        assert wd.counts == (1, 0, 0, 1)

    def test_dependent_rows_count_each_word_per_message(self):
        # rank 2: each of the 4 codewords is reached by 2^(3 - 2) messages
        wd = weight_distribution_of_rows([0b011, 0b110, 0b101], 3)
        assert wd.counts == (2, 0, 6, 0) and wd.k == 3

    def test_balanced_coordinate_identity(self):
        # no always-zero coordinate => total weight = n * 2^(k-1)
        spec = build_code(6, 1)
        wd = weight_distribution(spec)
        assert sum(w * cnt for w, cnt in enumerate(wd.counts)) == 63 * 32


# the family codes with k <= 20, plus one built over a non-default field
ORBIT_CODES = [(4, 1, None), (6, 1, None), (6, 2, None), (8, 1, None),
               (8, 2, None), (10, 2, None), (8, 2, 0x12B)]


class TestOrbitEnumeration:
    @pytest.mark.parametrize("m,c,modulus", ORBIT_CODES)
    def test_matches_full_scan(self, m, c, modulus):
        spec = build_code(m, c, modulus)
        full = weight_distribution_of_rows(spec.generator_rows(), spec.n)
        wd = weight_distribution(spec)
        assert wd.counts == full.counts
        assert min_distance(spec) == full.min_distance
        assert wd.words_scanned < full.words_scanned == 1 << spec.k

    @pytest.mark.parametrize("m,c,modulus", ORBIT_CODES)
    def test_pless_moments(self, m, c, modulus):
        spec = build_code(m, c, modulus)
        counts = weight_distribution(spec).counts
        assert sum(counts) == 1 << spec.k
        assert sum(w * a for w, a in enumerate(counts)) == \
            spec.n << (spec.k - 1)

    @pytest.mark.parametrize("m,c", [(6, 2), (8, 2), (10, 2)])
    def test_reverse_ideal_order(self, m, c):
        spec = build_code(m, c)
        ideals = minimal_ideals(spec)
        forward, _ = _orbit_histogram(cyclic._plan_orbits(ideals), spec.n)
        backward, _ = _orbit_histogram(cyclic._plan_orbits(ideals[::-1]),
                                       spec.n)
        assert list(forward) == list(backward)

    def test_orbit_counts(self):
        # (8,3) under the shifts alone: gcd(33, 255) = 3, gcd(65, 255) = 5,
        # gcd(129, 255) = 3 orbits, each of 255 / gcd words
        ideals = minimal_ideals(build_code(8, 3))
        shifts = np.array([[1, 0, 8]])
        orbits = [cyclic._walk_orbits(i, shifts) for i in ideals]
        assert [len(logs) for _, logs, _ in orbits] == [3, 5, 3]
        assert [set(sizes.tolist()) for _, _, sizes in orbits] == \
            [{85}, {51}, {85}]

    def test_10_3_distance(self):
        assert min_distance(build_code(10, 3), max_k=30) == 448

    def test_wrong_orbit_size_is_internal_error(self):
        # orbits of length 5 read as length 15: alpha^1 is no nonzero of
        # the ideal, so its words have no log coordinates
        ideal = minimal_ideals(build_code(4, 1))[0]
        bad = cyclic._plan_orbits([dataclasses.replace(ideal, exponent=1)])
        with pytest.raises(DecompositionFailure):
            _orbit_histogram(bad, ideal.n)
        assert issubclass(DecompositionFailure, ArithmeticError)
        assert not issubclass(DecompositionFailure, ValueError)

    def test_rank_mismatch_is_internal_error(self, code_6_2):
        with pytest.raises(DecompositionFailure):
            minimal_ideals(dataclasses.replace(code_6_2, k=code_6_2.k + 1))

    def test_lost_orbit_is_not_bad_input(self, monkeypatch, capsys):
        # a dropped orbit breaks sum A_w = 2^k; the CLI must report that as
        # an internal fault (exit 5), not as invalid parameters (exit 2)
        real = cyclic._walk_orbits
        monkeypatch.setattr(cyclic, "_walk_orbits", lambda ideal, groups:
                            tuple(x[1:] for x in real(ideal, groups)))
        code = main(["distance", "--m", "8", "--c", "2"])
        captured = capsys.readouterr()
        assert code == 5 and captured.out == ""
        assert captured.err.startswith(
            "codebounds-error: internal: DecompositionFailure: ")


# the nonzero histogram entries and d of the shift-orbit route this chain
# replaced, each made once by that route (words scanned there: 1,051,649,
# 12,289, 16,387 and 196,613)
PARENT_HISTOGRAMS = {
    (10, 3): (448, {448: 797940, 480: 79832192, 496: 232032768,
                    512: 472005039, 528: 218065408, 544: 70382400,
                    576: 626076}),
    (12, 2): (1984, {1984: 1380015, 2016: 3319680, 2048: 7305480,
                     2080: 3734640, 2112: 1033305, 2176: 4095}),
    (14, 2): (8064, {8064: 20762722, 8128: 54391560, 8192: 116663343,
                     8256: 60333128, 8320: 15825978, 8448: 458724}),
    (16, 2): (32512, {32512: 326429835, 32640: 874988368,
                      32768: 1867485360, 32896: 952092480,
                      33024: 268453205, 33280: 5518047}),
}


class TestOrbitChain:
    """The chain over the group of shifts and squarings, against pinned
    histograms and every check it makes."""

    @pytest.mark.parametrize("m,c,words", [(10, 3, 105_078), (12, 2, 354),
                                           (14, 2, 1_184), (16, 2, 4_119)])
    def test_matches_the_shift_orbit_route(self, m, c, words):
        spec = build_code(m, c)
        d, pinned = PARENT_HISTOGRAMS[m, c]
        wd = weight_distribution(spec, max_k=32)
        assert {w: a for w, a in enumerate(wd.counts) if a and w} == pinned
        assert wd.counts[0] == 1 and sum(wd.counts) == 1 << spec.k
        assert min_distance(spec, max_k=32) == wd.min_distance == d
        assert wd.words_scanned == words

    def test_12_3_distance(self):
        # 2^(m-1) - 2^(m/2+c-2), from 1.4 million of 2^36 words
        report = distance_report(build_code(12, 3), max_k=36)
        assert (report["d_min"], report["words_scanned"]) == (1920,
                                                             1_399_555)

    @pytest.mark.parametrize("m,c,column,part", [
        (8, 3, 0, 3), (8, 3, 2, 2), (10, 2, 0, 3)])
    def test_stabilizer_too_large_refused(self, monkeypatch, m, c, column,
                                          part):
        # a third of the shift part, or half the squaring part, added to
        # each stabilizer moves some prefix word's bits
        real = cyclic._stabilizers

        def larger(*args):
            stabs = real(*args)
            step = stabs[:, column]
            stabs[:, column] = np.where(step % part == 0, step // part, step)
            return stabs
        monkeypatch.setattr(cyclic, "_stabilizers", larger)
        with pytest.raises(DecompositionFailure, match="stabilizer"):
            cyclic.orbit_plan(build_code(m, c))

    def test_log_of_the_message_refused(self, monkeypatch):
        # generator(beta) read as 1, so that each word is taken for the log
        # of a(beta) instead of u(beta) = a(beta) generator(beta): the
        # prefixes are words of other logs, which their stabilizers move
        monkeypatch.setattr(cyclic.MinimalIdeal, "_generator_log",
                            lambda ideal: 0)
        with pytest.raises(DecompositionFailure):
            cyclic.orbit_plan(build_code(8, 3))

    def test_size_off_by_one_refused_by_the_count(self, monkeypatch):
        # with the orbit check off, the plan's count still refuses it
        real = cyclic._walk_orbits
        monkeypatch.setattr(cyclic, "_check_orbits", lambda *args: None)
        monkeypatch.setattr(cyclic, "_walk_orbits", lambda ideal, groups:
                            (lambda row, logs, sizes:
                             (row, logs, sizes + (np.arange(len(sizes)) == 0))
                             )(*real(ideal, groups)))
        with pytest.raises(DecompositionFailure, match="counts"):
            cyclic.orbit_plan(build_code(6, 2))

    def test_plan_levels(self):
        # (8,3): 30 prefixes whose stabilizer is the identity after the
        # second ideal, each scanned with the third; then 659 words
        plan = cyclic.orbit_plan(build_code(8, 3))
        assert [(p.level, len(p)) for p in plan.scans] == [(2, 30), (3, 659)]
        assert set(plan.scans[0].multiplicity.tolist()) == {255 * 8}
        n = 255
        assert sum(int(p.multiplicity.sum()) << 8 * (3 - p.level)
                   for p in plan.scans) == (1 << 24) - 1
        # every rep is a word of the code
        rows = build_code(8, 3).generator_rows()
        basis = row_basis(rows)
        for part in plan.scans:
            for word in part.reps(0, len(part))[:40]:
                w = int.from_bytes(word.tobytes(), "little")
                assert w and len(row_basis(basis + [w])) == len(basis)
                assert w >> n == 0


class TestOneTablePerIdeal:
    """Each ideal's representatives are scanned off one pair of tables."""

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("m,c,modulus", ORBIT_CODES)
    def test_matches_the_scan_per_representative(self, m, c, modulus,
                                                 reverse):
        spec = build_code(m, c, modulus)
        ideals = minimal_ideals(spec)[::-1 if reverse else 1]
        n = spec.n
        for i, ideal in enumerate(ideals):
            rest = [row for later in ideals[i + 1:] for row in later.rows()]
            # the words of u(beta) = alpha^r, r < gcd(e, n): one per orbit
            # of the shifts
            logs = np.arange(math.gcd(ideal.exponent, n))
            reps = [int.from_bytes(word.tobytes(), "little")
                    for word in ideal.words(ideal.field.exp_array[logs])]
            lo = 1 << len(rest)
            # messages [2^k', 2^(k'+1)) of rest + [rep] are rep + span(rest)
            hist = sum(_kernels.weight_scan(rest + [rep], n, lo, 2 * lo)
                       for rep in reps)
            least = min(_kernels.least_weight(rest + [rep], n, lo, 2 * lo)
                        for rep in reps)
            assert list(_kernels.weight_scan(rest, n, reps=reps)) == \
                list(hist)
            assert _kernels.least_weight(rest, n, reps=reps) == least

    @pytest.mark.parametrize("m,c", [(6, 2), (8, 2), (8, 3)])
    def test_span_tables_built_once_per_ideal(self, monkeypatch, m, c):
        # the plan's prefixes at a level share one low and one high table:
        # (8,3) scans 30 prefixes over the last ideal and 659 words of
        # their own, one pair of tables per level, for either reduction
        spec = build_code(m, c)
        plan = cyclic.orbit_plan(spec)
        assert sum(len(part) for part in plan.scans) > len(plan.scans)
        for part in plan.scans:      # the word tables of each ideal
            part.reps(0, len(part))
        built = []
        real = _kernels._span_table
        monkeypatch.setattr(_kernels, "_span_table",
                            lambda rows: built.append(len(rows)) or real(rows))
        _orbit_histogram(plan, spec.n)
        assert len(built) == 2 * len(plan.scans)
        built.clear()
        assert min_distance(spec) == weight_distribution(spec).min_distance
        assert len(built) == 4 * len(plan.scans)

    @pytest.mark.parametrize("n", [31, 64, 200])
    @pytest.mark.parametrize("k", [0, 3, 12, 13, 14])
    def test_packed_reps_and_multiplicities(self, n, k):
        # many reps over few rows share blocks of 2^13 words; each word
        # counts its rep's multiplicity, and packed reps read as ints
        rng = random.Random(n * 31 + k)
        rows = [rng.getrandbits(n) for _ in range(k)]
        reps = [rng.getrandbits(n) for _ in range(300 if k < 13 else 3)]
        mult = np.array([rng.randrange(1, 50) for _ in reps])
        packed = _kernels.pack_rows(reps, n)
        want = sum(int(m) * _kernels.weight_scan(rows, n, reps=[r])
                   for m, r in zip(mult, reps))
        assert list(_kernels.weight_scan(rows, n, reps=packed,
                                         multiplicity=mult)) == list(want)
        least = min(_kernels.least_weight(rows, n, reps=[r]) for r in reps)
        assert _kernels.least_weight(rows, n, reps=packed) == least
        total = len(reps) << k
        blocks = list(_kernels._weight_blocks(rows, n, reps=packed))
        assert len(blocks) == -(-total // (1 << 13))
        assert [first for first, _ in blocks] == \
            list(range(0, total, 1 << 13))
        # ranges cut inside a block keep their words
        cut = total // 3 + 1
        parts = [_kernels.weight_scan(rows, n, a, b, reps=packed,
                                      multiplicity=mult)
                 for a, b in ((0, cut), (cut, total))]
        assert list(parts[0] + parts[1]) == list(want)

    @pytest.mark.parametrize("n", [5, 64, 65, 200])
    def test_a_nonzero_first_rep_keeps_its_message_0(self, n):
        # message 0 is the zero word only when reps[0] is; a coset of the
        # empty span is its rep alone, so skipping message 0 there would
        # read the coset as empty (n + 1) or count no word
        w = (1 << n) - 1 ^ 0b10110
        assert _kernels.least_weight([], n, reps=[w]) == w.bit_count()
        counts = _kernels.weight_scan([], n, reps=[w])
        assert counts[w.bit_count()] == 1 and counts.sum() == 1
        rows = [0b11 << 2]
        assert _kernels.least_weight(rows, n, reps=[0b1]) == 1
        assert _kernels.least_weight(rows, n, reps=[0, 0b1]) == 1
        assert _kernels.least_weight(rows, n, reps=[0]) == 2

    def test_lost_only_orbit_is_not_bad_input(self, monkeypatch, capsys):
        # (10,2)'s first ideal is one orbit of the whole group: losing it
        # leaves a group with no orbit, which must still read as lost
        real = cyclic._walk_orbits
        monkeypatch.setattr(cyclic, "_walk_orbits", lambda ideal, groups:
                            tuple(x[1:] for x in real(ideal, groups)))
        code = main(["distance", "--m", "10", "--c", "2"])
        captured = capsys.readouterr()
        assert code == 5 and captured.out == ""
        assert captured.err.startswith(
            "codebounds-error: internal: DecompositionFailure: ")


@pytest.mark.deep
def test_deep_8_3_orbit_histogram_matches_full_scan():
    spec = build_code(8, 3)
    full = weight_distribution_of_rows(spec.generator_rows(), spec.n,
                                       max_k=24)
    assert weight_distribution(spec, max_k=24) == full


def _span_scan_shapes():
    rng = random.Random(22)
    spans = [(n, [rng.getrandbits(n) for _ in range(22)])
             for n in (63, 64, 127, 255)]
    return spans + [(64, _rm_rows(2, 6))]


@pytest.mark.deep
@pytest.mark.parametrize("route", ["full scan", "information sets"])
def test_deep_each_route_forced_gives_the_histograms_d(monkeypatch, route):
    # a price of 2^64 keeps the other route from ever being taken
    never = "search_price" if route == "full scan" else "scan_price"
    monkeypatch.setattr(_kernels, never, lambda *args: 1 << 64)
    for n, rows in _span_scan_shapes():
        assert min_distance_of_rows(rows, n) == \
            weight_distribution_of_rows(rows, n).min_distance, (n, route)


@pytest.mark.deep
def test_deep_14_3_orbit_distance():
    # 2^(m-1) - 2^(m/2+c-2) = 7936, from 19.2 million of 2^42 words
    report = distance_report(build_code(14, 3), max_k=42)
    assert (report["d_min"], report["words_scanned"]) == (7936, 19_176_324)


@pytest.mark.deep
def test_deep_12_2_full_scan_distance():
    spec = build_code(12, 2)
    assert min_distance_of_rows(spec.generator_rows(), spec.n) == 1984


@pytest.mark.parametrize("entry", [min_distance_of_rows,
                                   weight_distribution_of_rows])
@pytest.mark.parametrize("rows,bad", [([0b1111], 0), ([0b1, 0b1000], 1),
                                      ([0b11, -1], 1)])
def test_rows_wider_than_n_rejected(entry, rows, bad):
    with pytest.raises(ValueError, match=f"row {bad} "):
        entry(rows, 3)


def test_numpy_integers_read_as_ints():
    rows = [np.int64(3), np.int64(5)]
    d = min_distance_of_rows(rows, 3)
    assert d == 2 and type(d) is int
    wd = weight_distribution_of_rows(rows, np.int64(3))
    assert wd == weight_distribution_of_rows([3, 5], 3)
    assert type(wd.n) is int and wd.words_scanned == 4
    assert min_distance_of_rows([3, 5], np.uint8(3)) == 2


@pytest.mark.parametrize("entry", [min_distance_of_rows,
                                   weight_distribution_of_rows])
@pytest.mark.parametrize("rows,n", [([3.0, 5], 3), (["3"], 3), ([3, 5], 3.0),
                                    ([3, 5], "3")])
def test_float_or_str_is_a_type_error(entry, rows, n):
    with pytest.raises(TypeError):
        entry(rows, n)


class TestLeastWeightOnly:
    """The min-distance callers reduce each block to its least weight."""

    def test_no_histogram_is_built(self, monkeypatch, code_6_2):
        code_8_2 = build_code(8, 2)
        scanned = weight_distribution(code_8_2).words_scanned
        # the orbit plans are made first: their walks count each cycle's
        # residues with np.bincount
        cyclic.orbit_plan(code_6_2)
        monkeypatch.setattr(np, "bincount", _fail)
        monkeypatch.setattr(_kernels, "weight_scan", _fail)
        assert min_distance_of_rows(_rm_rows(1, 8), 256) == 128
        assert min_distance_of_rows(_rm_rows(2, 6), 64) == 16
        assert min_distance_of_rows(code_6_2.generator_rows(), 63) == 24
        assert min_distance(code_6_2) == 24
        assert min_distance(code_8_2) == 112
        report = distance_report(code_8_2)
        assert report["d_min"] == 112
        assert report["words_scanned"] == scanned

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 127, 128, 255, 1023])
    @pytest.mark.parametrize("k,start,stop", [
        (1, 0, 2), (1, 1, 2), (1, 0, 1), (9, 0, 512), (14, 0, 9000),
        (14, 3, 8193), (15, 8191, 20000), (16, 30000, 30001),
        (16, 0, 1 << 16)])
    def test_first_weight_of_the_histogram(self, n, k, start, stop):
        # message 0 is left out; a range without another message gives
        # n + 1, and dependent rows (n < k) may reach weight 0
        rng = random.Random(n * 100 + k)
        rows = [rng.getrandbits(n) or 1 for _ in range(k)]
        counts = _kernels.weight_scan(rows, n, start, stop)
        counts[0] -= start == 0
        first = next((w for w, c in enumerate(counts) if c), n + 1)
        assert _kernels.least_weight(rows, n, start, stop) == first

    def test_shards_merge_by_min(self):
        rng = random.Random(5)
        rows = [rng.getrandbits(127) for _ in range(15)]
        whole = _kernels.least_weight(rows, 127)
        cuts = [0, 1, 4000, 8192, 20000, 1 << 15]
        assert min(_kernels.least_weight(rows, 127, a, b)
                   for a, b in zip(cuts, cuts[1:])) == whole
        assert min_distance_of_rows(rows, 127) == whole


def _oracle_scan(rows, n, start, stop):
    """Reference scan: XOR the selected rows of every message in the range."""
    counts = [0] * (n + 1)
    for m in range(start, stop):
        word = 0
        for i, row in enumerate(rows):
            if m >> i & 1:
                word ^= row
        counts[word.bit_count()] += 1
    return counts


class TestWeightScan:
    # single-word, boundary and multi-word rows, up to 16 limbs and on both
    # sides of the uint8/uint16 accumulator switch at n = 255/256; k on both
    # sides of the 13-bit low-table split, including k = 0 and k < 13 (the
    # high table is then the single zero column); ranges not aligned to
    # 2^13, some ending inside the first block
    @pytest.mark.parametrize("n,k,start,stop", [
        (63, 13, 0, 1 << 13),
        (64, 14, 5000, 12000),
        (65, 16, 8191, 16485),
        (200, 16, 30001, 41000),
        (200, 13, 17, 4000),
        (128, 14, 8190, 8200),
        (129, 15, 3, 9000),
        (255, 16, 12345, 20000),
        (256, 14, 0, 1 << 14),
        (257, 13, 100, 101),
        (1023, 15, 8000, 8500),
        (1023, 14, 5, 700),
        (10, 0, 0, 1),
        (70, 5, 0, 32),
        (130, 12, 7, 3001),
    ])
    def test_matches_python_oracle(self, n, k, start, stop):
        rng = random.Random(n * 1000 + k)
        rows = [rng.getrandbits(n) for _ in range(k)]
        counts = _kernels.weight_scan(rows, n, start, stop)
        assert list(counts) == _oracle_scan(rows, n, start, stop)

    # the all-ones row sits in the low table (message 1) and in the high
    # table (message 2^13), so weight n occurs from both; at n = 256 a
    # uint8 weight accumulator would wrap it to 0
    @pytest.mark.parametrize("n", [64, 128, 255, 256, 257, 1023])
    def test_all_ones_row_reaches_weight_n(self, n):
        rng = random.Random(n)
        ones = (1 << n) - 1
        rows = [ones] + [rng.getrandbits(n) for _ in range(12)] + [ones]
        counts = _kernels.weight_scan(rows, n, 0, 9000)
        assert counts[n] == 2
        assert list(counts) == _oracle_scan(rows, n, 0, 9000)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 127, 255, 256, 1023, 4095])
    @pytest.mark.parametrize("k", [0, 1, 16, 24])
    def test_pack_rows_matches_limb_loop(self, n, k):
        # the limb-at-a-time pack is the oracle; the all-ones row fills the
        # last limb exactly to bit n - 1
        rng = random.Random(n * 100 + k)
        rows = [rng.getrandbits(n) for _ in range(k - 1)] + [(1 << n) - 1][:k]
        limbs = max(1, (n + 63) >> 6)
        want = np.zeros((k, limbs), dtype=np.uint64)
        for i, row in enumerate(rows):
            for j in range(limbs):
                want[i, j] = row >> (64 * j) & ((1 << 64) - 1)
        got = _kernels.pack_rows(rows, n)
        assert got.dtype == np.uint64 and got.shape == (k, limbs)
        assert (got == want).all()

    def test_partial_ranges_merge(self, code_4_1):
        rows = code_4_1.generator_rows()
        lo = _kernels.weight_scan(rows, 15, 0, 7)
        hi = _kernels.weight_scan(rows, 15, 7, 16)
        full = _kernels.weight_scan(rows, 15, 0, 16)
        assert list(lo + hi) == list(full)

    # a start below 0, a stop past 2^k and a start past the stop were read
    # as [0, 0, 1], as 2 of 4 messages and as a numpy broadcast error
    @pytest.mark.parametrize("scan", [_kernels.weight_scan,
                                      _kernels.least_weight])
    @pytest.mark.parametrize("rows,start,stop", [
        ([1, 2], -1, 2), ([1], 0, 4), ([1, 2], 3, 1)])
    def test_range_outside_the_messages_refused(self, monkeypatch, scan,
                                                rows, start, stop):
        monkeypatch.setattr(_kernels, "pack_rows", _fail)
        with pytest.raises(ValueError,
                           match=rf"message range \[{start}, {stop}\)"):
            scan(rows, 2, start, stop)


def _unbroken_A_search(n, d):
    """Reference A(n, d): 0 fixed into the code, 1 + the maximum clique of
    the words of weight >= d, with no symmetry of the cube broken."""
    if d == 1:
        return 1 << n
    verts = [v for v in range(1, 1 << n) if v.bit_count() >= d]
    V = len(verts)
    neigh = [0] * V
    for a in range(V):
        for b in range(a + 1, V):
            if (verts[a] ^ verts[b]).bit_count() >= d:
                neigh[a] |= 1 << b
                neigh[b] |= 1 << a
    return 1 + _kernels.max_clique(neigh)


def _brute_clique(neigh):
    """Largest vertex set whose members are pairwise adjacent."""
    best = 0
    for mask in range(1 << len(neigh)):
        members = [v for v in range(len(neigh)) if mask >> v & 1]
        if len(members) > best and all(neigh[u] >> v & 1 for u, v in
                                       itertools.combinations(members, 2)):
            best = len(members)
    return best


def _graph(edges, size):
    neigh = [0] * size
    for a, b in edges:
        neigh[a] |= 1 << b
        neigh[b] |= 1 << a
    return neigh


class TestMaxClique:
    def test_greedy_seed_not_maximum(self):
        # the star's centre has the largest degree, so the greedy seed is
        # an edge of the star; only the search finds the disjoint K_4
        star = [(0, leaf) for leaf in range(1, 7)]
        k4 = list(itertools.combinations(range(7, 11), 2))
        assert _kernels.max_clique(_graph(star + k4, 11)) == 4

    def test_matches_brute_force(self):
        rng = random.Random(8)
        for _ in range(60):
            size = rng.randint(0, 12)
            p = rng.choice([0.2, 0.5, 0.8])
            edges = [e for e in itertools.combinations(range(size), 2)
                     if rng.random() < p]
            neigh = _graph(edges, size)
            assert _kernels.max_clique(neigh) == _brute_clique(neigh), edges


class TestLayerMinima:
    # k on both sides of the low/high split at min(13, ceil(k/2)) bits, n
    # on both sides of the limb boundaries; (70, 26) and (200, 30) reach
    # products of more than 2^13 words at weight 4 and 5, so the high
    # columns of one popcount are split over several blocks
    @pytest.mark.parametrize("n,k,depth", [
        (1, 1, 1), (10, 3, 3), (64, 9, 9), (65, 12, 12), (130, 14, 4),
        (70, 26, 5), (200, 30, 4),
    ])
    def test_matches_python_oracle(self, n, k, depth):
        rng = random.Random(n * 100 + k)
        rows = [rng.getrandbits(n) for _ in range(k)]
        layers = _kernels.layer_minima([rows, rows[::-1]], n)
        for w in range(1, depth + 1):
            words = [functools.reduce(operator.xor, pick)
                     for pick in itertools.combinations(rows, w)]
            least = min(x.bit_count() for x in words)
            assert [next(layers), next(layers)] == [least, least], w


    @pytest.mark.parametrize("n,k,t,last", [
        (40, 9, 2, 3), (130, 14, 3, 4), (70, 26, 1, 2), (64, 22, 7, 4),
        (255, 20, 50, 2)])
    def test_price_counts_the_words_formed(self, monkeypatch, n, k, t, last):
        # the price is the columns of the span tables plus the words whose
        # weights are taken, to message weight ``last``, in blocks of one
        # ``_word_weights`` call each
        formed, blocks = [], []
        real_table, real_weights = _kernels._span_table, _kernels._word_weights
        monkeypatch.setattr(_kernels, "_span_table", lambda rows: (
            formed.append(1 << len(rows)) or real_table(rows)))
        monkeypatch.setattr(_kernels, "_word_weights", lambda b, bits, w: (
            formed.append(w.size) or blocks.append(1)
            or real_weights(b, bits, w)))
        rng = random.Random(n + k)
        gens = [[rng.getrandbits(n) for _ in range(k)] for _ in range(t)]
        assert len(list(_kernels.layer_minima(gens, n, last))) == t * last
        assert sum(formed) == _kernels.layer_words(k, t, last)
        assert len(blocks) == _kernels.layer_blocks(k, t, last)


class TestExactASearch:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_unbroken_search(self, n):
        for d in range(1, n + 2):
            assert exact_A_search(n, d) == _unbroken_A_search(n, d), d

    @pytest.mark.parametrize("n,d", sorted(A_TABLE))
    def test_table_values(self, n, d):
        assert exact_A_search(n, d) == A_TABLE[n, d]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_whole_cube(self, n):
        assert exact_A_search(n, 1) == 1 << n

    def test_monotone_in_d(self):
        for n in range(2, 7):
            values = [exact_A_search(n, d) for d in range(1, n + 1)]
            assert values == sorted(values, reverse=True)

    def test_doubling_in_n(self):
        for n in range(3, 8):
            for d in range(2, min(n, 6)):
                assert exact_A_search(n, d) <= 2 * exact_A_search(n - 1, d)

    def test_distance_above_n(self):
        assert exact_A_search(5, 6) == 1

    def test_budget_and_override(self):
        with pytest.raises(BudgetExceeded):
            exact_A_search(9, 2)
        assert exact_A_search(9, 1, max_n=9) == 512

    def test_n8_row(self):
        # Every cell except d = 3: with 0 and 11100000 fixed, its w = 3
        # clique instance still has 188 dense vertices, and the search did
        # not finish in 5 minutes (one run, 2 vCPUs).  Monotonicity against
        # d = 4 and the doubling bound against A(7, 3) = 16 still pin the
        # skipped cell to [16, 32].
        row = [exact_A_search(8, d) for d in (1, 2, 4, 5, 6, 7, 8)]
        assert row == [256, 128, 16, 4, 2, 2, 2]
        assert 2 * exact_A_search(7, 3) == 32
