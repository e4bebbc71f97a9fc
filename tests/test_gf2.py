"""Field tables, polynomial arithmetic, and cyclotomic cosets."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from codebounds import gf2
from codebounds.cyclic import build_code
from codebounds.gf2 import (
    DEFAULT_MODULUS,
    DivisionByZeroPolynomial,
    NonIrreducibleModulus,
    NonPrimitiveModulus,
    UnsupportedDegree,
    cyclotomic_coset,
    field_create,
    poly_degree,
    poly_divrem,
    poly_is_irreducible,
    poly_mod,
    poly_mul,
    poly_square,
    row_basis,
    systematic,
)

polys = st.integers(min_value=0, max_value=(1 << 24) - 1)


class TestPolyArithmetic:
    def test_divrem_square_of_x_plus_1(self):
        # (x^2+1) / (x+1): equal since (x+1)^2 = x^2+1 in characteristic 2
        assert poly_divrem(0b101, 0b11) == (0b11, 0)

    def test_divrem_modulus_by_trinomial(self):
        # (x^4+x+1) / (x^2+x+1) -> q = x^2+x, r = 1
        assert poly_divrem(0x13, 0b111) == (0b110, 1)

    def test_negative_operand_refused(self):
        # in a child with a timeout: both loops once ran forever on a
        # negative operand, so a regression fails here instead of hanging
        script = (
            "from codebounds.gf2 import poly_divrem, poly_mul\n"
            "for f, a, b in ((poly_mul, 3, -1), (poly_mul, -1, 3),\n"
            "                (poly_divrem, -4, 2), (poly_divrem, 5, -2)):\n"
            "    try:\n"
            "        f(a, b)\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n")
        root = os.path.dirname(os.path.dirname(gf2.__file__))
        path = os.pathsep.join(filter(None, [root,
                                             os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, timeout=30,
                             env={**os.environ, "PYTHONPATH": path})
        assert (out.returncode, out.stderr) == (0, "")
        assert out.stdout.splitlines() == [
            "negative polynomial operand in 3 * -1",
            "negative polynomial operand in -1 * 3",
            "negative polynomial operand in -4 / 2",
            "negative polynomial operand in 5 / -2"]

    def test_divide_by_zero(self):
        with pytest.raises(DivisionByZeroPolynomial):
            poly_divrem(0b101, 0)

    @given(polys.filter(lambda a: a > 0))
    def test_self_division(self, a):
        assert poly_divrem(a, a) == (1, 0)

    @given(polys, polys.filter(lambda b: b > 0))
    def test_divrem_roundtrip(self, a, b):
        q, r = poly_divrem(a, b)
        assert poly_mul(q, b) ^ r == a
        assert r == 0 or poly_degree(r) < poly_degree(b)
        assert poly_mod(a, b) == r

    @given(polys, polys)
    def test_mul_degree(self, a, b):
        p = poly_mul(a, b)
        if a and b:
            assert poly_degree(p) == poly_degree(a) + poly_degree(b)
        else:
            assert p == 0

    @given(st.integers(0, (1 << 16) - 1),
           st.integers(1 << 200, (1 << 2048) - 1))
    def test_mul_commutes_short_against_long(self, short, long):
        # coefficient k of the product is the parity of a_i b_j over i + j = k
        ones = [j for j, bit in enumerate(reversed(f"{long:b}")) if bit == "1"]
        want = 0
        for i in range(short.bit_length()):
            if short >> i & 1:
                for j in ones:
                    want ^= 1 << (i + j)
        assert poly_mul(short, long) == poly_mul(long, short) == want

    def test_irreducibility(self):
        assert poly_is_irreducible(0x13)          # x^4+x+1
        assert poly_is_irreducible(0b111)         # x^2+x+1
        assert not poly_is_irreducible(0b10101)   # x^4+x^2+1 = (x^2+x+1)^2
        assert not poly_is_irreducible(0b110)     # x(x+1)


def _span(rows):
    words = {0}
    for row in rows:
        words |= {w ^ row for w in words}
    return words


class TestRowBasis:
    @given(st.lists(st.integers(0, (1 << 10) - 1), max_size=12))
    def test_independent_and_same_span(self, rows):
        basis = row_basis(rows)
        span = _span(rows)
        assert _span(basis) == span
        # independent: 2^len(basis) distinct words
        assert len(span) == 1 << len(basis)

    def test_dependent_rows(self):
        assert row_basis([]) == [] and row_basis([0, 0]) == []
        assert len(row_basis([0b011, 0b110, 0b101])) == 2
        assert len(row_basis([1] * 30)) == 1


class TestSystematic:
    @given(st.lists(st.integers(0, (1 << 10) - 1), max_size=8),
           st.integers(0, (1 << 10) - 1))
    def test_reduction_on_the_masked_columns(self, rows, cols):
        found = systematic(rows, cols)
        rank = len(row_basis([row & cols for row in rows]))
        assert (found is None) == (rank < len(rows))
        if found is None:
            return
        out, left = found
        # row i's pivot is the lowest column of cols, not an earlier pivot,
        # that keeps the first i + 1 input rows independent on the earlier
        # pivots and itself
        pivots = []
        for i in range(len(rows)):
            done, free = sum(pivots), cols & ~sum(pivots)
            pivots.append(next(
                1 << c for c in range(10) if free >> c & 1
                and len(row_basis([row & (done | 1 << c)
                                   for row in rows[:i + 1]])) == i + 1))
        # each row holds its own pivot column and no other one
        assert [row & sum(pivots) for row in out] == pivots
        assert left == cols & ~sum(pivots)
        # the same span
        assert len(row_basis(rows + out)) == len(row_basis(out)) == len(rows)

    def test_rank_deficient_and_empty(self):
        assert systematic([], 0) == ([], 0)
        assert systematic([0b011, 0b110, 0b101], 0b111) is None
        assert systematic([0b100], 0b011) is None
        assert systematic([0b110, 0b011], 0b111) == ([0b110, 0b101], 0b100)


class TestFieldContext:
    def test_default_moduli_cover_supported_degrees(self):
        assert set(DEFAULT_MODULUS) == set(range(2, 17))
        for m, mod in DEFAULT_MODULUS.items():
            assert poly_degree(mod) == m
            assert poly_is_irreducible(mod)

    def test_gf16_generator_order(self):
        ctx = field_create(4)
        assert ctx.order == 15
        # alpha^4 = x + 1 under x^4+x+1; alpha^9 = x^3 + x
        assert ctx.alpha_pow(4) == 0b0011
        assert ctx.alpha_pow(9) == 0b1010
        assert ctx.alpha_pow(15) == 1

    def test_gf4(self):
        ctx = field_create(2)
        assert ctx.order == 3
        assert ctx.alpha_pow(3) == 1

    def test_mul_inv(self):
        ctx = field_create(6)
        for a in (1, 2, 37, 62):
            inverse = ctx.alpha_pow(ctx.order - ctx.log[a])
            assert ctx.mul(a, inverse) == ctx.mul(inverse, a) == 1

    def test_reducible_modulus_rejected(self):
        with pytest.raises(NonIrreducibleModulus):
            field_create(4, modulus=0b10101)

    @pytest.mark.parametrize("modulus", [-0x13, -0x1F, -1])
    def test_negative_modulus_rejected(self, monkeypatch, modulus):
        # refused before any polynomial arithmetic, which never ends on a
        # negative int
        def no_arithmetic(p):
            raise AssertionError("irreducibility test ran")

        monkeypatch.setattr(gf2, "poly_is_irreducible", no_arithmetic)
        with pytest.raises(NonIrreducibleModulus,
                           match=f"^modulus {hex(modulus)} is negative$"):
            field_create(4, modulus=modulus)

    def test_irreducible_but_imprimitive_rejected(self):
        # x^4+x^3+x^2+x+1 divides x^5 - 1, so its root has order 5, not 15
        assert poly_is_irreducible(0x1F)
        with pytest.raises(NonPrimitiveModulus):
            field_create(4, modulus=0x1F)

    @pytest.mark.parametrize("m", [0, 1, 17])
    def test_unsupported_degree(self, m):
        with pytest.raises(UnsupportedDegree):
            field_create(m)

    def test_all_supported_degrees_build(self):
        for m in range(2, 17):
            assert field_create(m).order == (1 << m) - 1


class TestSharedField:
    """One verified context per (m, modulus), shared by every call."""

    def test_equal_specs_give_one_context(self):
        ctx = field_create(8)
        assert field_create(8) is ctx
        assert field_create(8, None) is ctx
        assert field_create(8, DEFAULT_MODULUS[8]) is ctx
        assert field_create(np.int64(8)) is ctx and type(ctx.m) is int
        other = field_create(8, 0x12B)
        assert field_create(8, 0x12B) is other and other is not ctx

    def test_numpy_modulus_read_as_int(self):
        spec = build_code(4, 1, modulus=np.int64(0x13))
        assert spec == build_code(4, 1, modulus=0x13)
        ctx = field_create(4, np.int64(0x13))
        assert ctx is field_create(4, 0x13) and type(ctx.modulus) is int
        with pytest.raises(TypeError):
            field_create(4, 19.0)
        with pytest.raises(TypeError):
            build_code(4, 1, modulus=19.0)

    def test_distinct_moduli_keep_their_own(self):
        a, b = field_create(4, 0x13), field_create(4, 0x19)
        assert a is not b and a.exp != b.exp

    @pytest.mark.parametrize("modulus, error", [
        (0b10101, NonIrreducibleModulus), (0x1F, NonPrimitiveModulus)])
    def test_failures_are_not_kept(self, monkeypatch, modulus, error):
        built = []
        real = gf2.FieldContext
        monkeypatch.setattr(gf2, "FieldContext",
                            lambda *args: built.append(args) or real(*args))
        for _ in range(3):
            with pytest.raises(error):
                field_create(4, modulus)
        assert built == [(4, modulus)] * 3

    @pytest.mark.parametrize("m", [2, 6, 16])
    def test_tables_are_read_only_copies(self, m):
        ctx = field_create(m)
        assert ctx.exp_array.tolist() == ctx.exp
        with pytest.raises(ValueError):
            ctx.exp_array[1] = 0
        assert ctx.exp[1] == 2


class TestMinimalPolynomial:
    def test_exponent_nine(self):
        ctx = field_create(4)
        assert ctx.minimal_polynomial(9) == 0x1F  # x^4+x^3+x^2+x+1

    def test_exponent_zero(self):
        assert field_create(4).minimal_polynomial(0) == 0b11  # x + 1

    def test_exponent_one_recovers_modulus(self):
        ctx = field_create(4)
        assert ctx.minimal_polynomial(1) == ctx.modulus

    @pytest.mark.parametrize("m,e", [(4, 3), (4, 5), (6, 17), (6, 33)])
    def test_divides_xn_minus_1(self, m, e):
        ctx = field_create(m)
        n = ctx.order
        mp = ctx.minimal_polynomial(e)
        assert poly_degree(mp) == len(cyclotomic_coset(e, m))
        assert poly_mod((1 << n) | 1, mp) == 0

    def test_conjugates_share_minimal_polynomial(self):
        ctx = field_create(6)
        coset = cyclotomic_coset(17, 6)
        assert len({ctx.minimal_polynomial(e) for e in coset}) == 1


class TestCyclotomicCoset:
    def test_gf16_coset_of_three(self):
        # the orbit comes back in doubling order, starting at e
        assert cyclotomic_coset(3, 4) == [3, 6, 12, 9]

    def test_coset_of_zero(self):
        assert cyclotomic_coset(0, 4) == [0]

    @given(st.integers(min_value=2, max_value=12),
           st.integers(min_value=0, max_value=4094))
    def test_closed_under_doubling(self, m, e):
        n = (1 << m) - 1
        coset = cyclotomic_coset(e % n, m)
        assert {(2 * x) % n for x in coset} == set(coset)


@given(polys)
def test_square_spreads_bits(a):
    assert poly_square(a) == poly_mul(a, a)


def test_square_of_a_negative_refused():
    with pytest.raises(ValueError, match="negative"):
        poly_square(-3)
