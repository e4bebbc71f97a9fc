"""Exhaustive distance engines and the exact A(n, d) clique search."""

import dataclasses
import inspect
import random

import pytest

from codebounds import _kernels
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
    MinimalIdeal,
    build_code,
    minimal_ideals,
)

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
        # the histogram and the minimum distance come from the same scan
        entries = [min_distance, weight_distribution, distance_report,
                   min_distance_of_rows, weight_distribution_of_rows]
        assert {inspect.signature(f).parameters["max_k"].default
                for f in entries} == {24}
        assert weight_distribution(build_code(8, 3)).min_distance == 96

    def test_workers_option_removed(self, code_4_1):
        # the orbit route runs in one thread; only the full scan shards
        with pytest.raises(SystemExit) as exc:
            main(["distance", "--m", "4", "--c", "1", "--workers", "2"])
        assert exc.value.code == 2
        with pytest.raises(TypeError):
            min_distance(code_4_1, workers=2)

    def test_zero_code_rejected(self):
        with pytest.raises(ValueError):
            min_distance_of_rows([0, 0], 4)


class TestWeightDistribution:
    def test_4_1_histogram(self, code_4_1):
        wd = weight_distribution(code_4_1)
        assert sum(wd.counts) == 16
        assert wd.counts[0] == 1
        assert wd.min_distance == 6

    def test_repetition_3(self):
        wd = weight_distribution_of_rows([0b111], 3)
        assert wd.counts == (1, 0, 0, 1)

    def test_balanced_coordinate_identity(self):
        # no always-zero coordinate => total weight = n * 2^(k-1)
        spec = build_code(6, 1)
        wd = weight_distribution(spec)
        assert sum(w * cnt for w, cnt in enumerate(wd.counts)) == 63 * 32


# the family codes with k <= 20, plus one built over a non-default field
ORBIT_CODES = [(4, 1, None), (6, 1, None), (6, 2, None), (8, 1, None),
               (8, 2, None), (10, 2, None), (8, 2, 0x12B)]


class TestOrbitEnumeration:
    # workers shards the full-scan oracle; the orbit route has no workers
    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("m,c,modulus", ORBIT_CODES)
    def test_matches_full_scan(self, m, c, modulus, workers):
        spec = build_code(m, c, modulus)
        full = weight_distribution_of_rows(spec.generator_rows(), spec.n,
                                           workers=workers)
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
        forward, _ = _orbit_histogram(ideals, spec.n)
        backward, _ = _orbit_histogram(ideals[::-1], spec.n)
        assert list(forward) == list(backward)

    def test_orbit_counts(self):
        # (8,3): gcd(33, 255) = 3, gcd(65, 255) = 5, gcd(129, 255) = 3
        ideals = minimal_ideals(build_code(8, 3))
        assert [len(i.orbit_representatives()) for i in ideals] == [3, 5, 3]
        assert [i.orbit_size for i in ideals] == [85, 51, 85]

    def test_10_3_distance(self):
        assert min_distance(build_code(10, 3), max_k=30) == 448

    def test_wrong_orbit_size_is_internal_error(self):
        ideal = minimal_ideals(build_code(4, 1))[0]   # orbits of length 5
        with pytest.raises(DecompositionFailure):
            dataclasses.replace(ideal, exponent=1).orbit_representatives()
        assert issubclass(DecompositionFailure, ArithmeticError)
        assert not issubclass(DecompositionFailure, ValueError)

    def test_rank_mismatch_is_internal_error(self, code_6_2):
        with pytest.raises(DecompositionFailure):
            minimal_ideals(dataclasses.replace(code_6_2, k=code_6_2.k + 1))

    def test_lost_orbit_is_not_bad_input(self, monkeypatch, capsys):
        # a dropped orbit breaks sum A_w = 2^k; the CLI must report that as
        # an internal fault (exit 5), not as invalid parameters (exit 2)
        real = MinimalIdeal.orbit_representatives
        monkeypatch.setattr(MinimalIdeal, "orbit_representatives",
                            lambda ideal: real(ideal)[1:])
        code = main(["distance", "--m", "8", "--c", "2"])
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

    @pytest.mark.parametrize("workers", [2, 3])
    def test_sharded_scan_matches_single(self, workers):
        # shard edges fall inside 2^13 blocks; buffers shared between
        # threads would corrupt some round of the repeated scan
        rng = random.Random(255)
        rows = [rng.getrandbits(255) for _ in range(18)]
        single = weight_distribution_of_rows(rows, 255, workers=1)
        assert single.counts == tuple(_kernels.weight_scan(rows, 255))
        for _ in range(20):
            assert weight_distribution_of_rows(
                rows, 255, workers=workers) == single

    def test_partial_ranges_merge(self, code_4_1):
        rows = code_4_1.generator_rows()
        lo = _kernels.weight_scan(rows, 15, 0, 7)
        hi = _kernels.weight_scan(rows, 15, 7, 16)
        full = _kernels.weight_scan(rows, 15, 0, 16)
        assert list(lo + hi) == list(full)


class TestExactASearch:
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
        # Every cell except d = 3: that one is a dense 219-vertex clique
        # instance the branch-and-bound kernel does not finish in under
        # an hour.  Monotonicity against d = 4 and the doubling bound
        # against A(7, 3) = 16 still pin the skipped cell to [16, 32].
        row = [exact_A_search(8, d) for d in (1, 2, 4, 5, 6, 7, 8)]
        assert row == [256, 128, 16, 4, 2, 2, 2]
        assert 2 * exact_A_search(7, 3) == 32
