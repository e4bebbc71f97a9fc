"""Shell arithmetic against independent sums of binomials."""

import math

import numpy as np
import pytest

from codebounds import krawtchouk


def explicit_krawtchouk(n, w, t):
    """K_w(t) = sum_j (-1)^j C(t, j) C(n - t, w - j)."""
    return sum((-1) ** j * math.comb(t, j) * math.comb(n - t, w - j)
               for j in range(w + 1))


class TestValues:
    def test_equal_explicit_sum(self):
        for n in range(41):
            rows = krawtchouk.values(n, n)
            assert rows == [[explicit_krawtchouk(n, w, t)
                             for t in range(n + 1)] for w in range(n + 1)], n
            assert all(type(k) is int for row in rows for k in row)

    def test_rows_are_a_prefix(self):
        full = krawtchouk.values(12, 12)
        for r in range(13):
            assert krawtchouk.values(12, r) == full[:r + 1]

    def test_orthogonality(self):
        # sum_t C(n, t) K_v(t) K_w(t) = 2^n C(n, w) [v = w]
        for n in range(21):
            rows = krawtchouk.values(n, n)
            shells = [math.comb(n, t) for t in range(n + 1)]
            for v in range(n + 1):
                for w in range(n + 1):
                    got = sum(c * a * b for c, a, b in
                              zip(shells, rows[v], rows[w]))
                    assert got == ((1 << n) * shells[w] if v == w else 0), \
                        (n, v, w)

    def test_numpy_ints(self):
        got = krawtchouk.values(np.int64(15), np.int64(7))
        assert got == krawtchouk.values(15, 7)
        assert all(type(k) is int for row in got for k in row)

    @pytest.mark.parametrize("n, r", [(3, -1), (3, 4), (3, 5), (-1, 0),
                                      (0, 1)])
    def test_radius_outside_refused(self, n, r):
        # (3, -1) returned [] and (3, 5) padded rows of zeros
        with pytest.raises(ValueError, match="^need 0 <= r <= n, got "):
            krawtchouk.values(n, r)

    @pytest.mark.parametrize("n, r", [(3.0, 1), (3, 1.0)])
    def test_float_refused(self, n, r):
        with pytest.raises(TypeError):
            krawtchouk.values(n, r)


class TestShellWeights:
    @pytest.mark.parametrize("n", [1, 15, 2 ** 20, 2 ** 64])
    def test_equal_comb(self, n):
        for length in range(18):
            binoms, edges = krawtchouk.shell_weights(n, length)
            count = max(length, 1)
            assert binoms == [math.comb(n, i) for i in range(count)]
            assert edges == [2 * math.comb(n, i) * (n - i)
                             for i in range(count - 1)]

    def test_numpy_ints(self):
        # C(2^20, i)(2^20 - i) wraps in int64 long before i = 16
        got = krawtchouk.shell_weights(np.int64(2 ** 20), np.int64(17))
        assert got == krawtchouk.shell_weights(2 ** 20, 17)
        assert all(type(k) is int for part in got for k in part)

    def test_negative_length_of_cube_refused(self):
        with pytest.raises(ValueError, match="^need n >= 0, got -3$"):
            krawtchouk.shell_weights(-3, 2)

    @pytest.mark.parametrize("n, length", [(15.0, 3), (15, 3.0)])
    def test_float_refused(self, n, length):
        with pytest.raises(TypeError):
            krawtchouk.shell_weights(n, length)
