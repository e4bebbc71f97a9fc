"""Cyclic-code construction: cosets, generators, certificates, encoding."""

import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from codebounds.cyclic import (
    CertificateFailure,
    InvalidParameters,
    LengthMismatch,
    _eval_at_alpha_pow,
    _root_flags,
    bch_certificate,
    best_bch_distance,
    build_code,
    coset_exponents,
    designed_distance,
    encode,
)
from codebounds.gf2 import cyclotomic_coset, poly_degree, poly_mod

DESIGNED = {(4, 1): 4, (6, 1): 24, (6, 2): 16,
            (8, 1): 112, (8, 2): 96, (8, 3): 64}


class TestCosetExponents:
    def test_m4(self):
        coset = coset_exponents(4, 1)
        assert coset.representative == 9
        assert coset.members == frozenset({9, 3, 6, 12})

    def test_m6(self):
        assert coset_exponents(6, 1).members == \
            frozenset({17, 34, 5, 10, 20, 40})
        assert coset_exponents(6, 2).members == \
            frozenset({33, 3, 6, 12, 24, 48})

    @pytest.mark.parametrize("m,c", list(DESIGNED))
    def test_full_size_cosets(self, m, c):
        # Theorem-type cosets never degenerate: m distinct members each
        for i in range(1, c + 1):
            assert len(coset_exponents(m, i)) == m


class TestBuildCode:
    def test_4_1(self, code_4_1):
        spec = code_4_1
        assert (spec.n, spec.k) == (15, 4)
        assert poly_degree(spec.generator) == 11
        assert spec.generator == 0xC63
        assert spec.designed_distance == 4

    def test_6_2(self, code_6_2):
        spec = code_6_2
        assert (spec.n, spec.k, spec.designed_distance) == (63, 12, 16)
        # frozen from the construction pipeline; regression guard
        assert spec.to_json_dict()["generator_hex"] == "0xc9d5326c763d5"

    def test_json_dict_field_order(self, code_6_2):
        assert list(code_6_2.to_json_dict()) == [
            "m", "c", "n", "k", "generator_hex", "designed_distance"]

    @pytest.mark.parametrize("m,c", [(6, 3), (4, 2), (4, 0), (5, 1), (3, 1)])
    def test_invalid_parameters(self, m, c):
        with pytest.raises(InvalidParameters):
            build_code(m, c)

    @pytest.mark.parametrize("m,c", list(DESIGNED))
    def test_designed_distances(self, m, c):
        spec = build_code(m, c)
        assert spec.designed_distance == DESIGNED[m, c]
        assert designed_distance(m, c) == DESIGNED[m, c]
        assert spec.k == c * m

    @pytest.mark.parametrize("m,c", [(4, 1), (6, 1), (6, 2), (8, 2)])
    def test_generator_invariants(self, m, c):
        spec = build_code(m, c)
        assert poly_degree(spec.generator) == spec.n - c * m
        assert poly_mod((1 << spec.n) | 1, spec.generator) == 0
        assert spec.designed_distance >= (
            spec.n / 2 - (1 << (c - 1)) * math.sqrt(spec.n))


class TestBchCertificate:
    def test_4_1_window(self, code_4_1):
        # window starts at t = 13, wraps through exponent 0: length 3, +1
        assert bch_certificate(code_4_1) == 4

    def test_6_1_window(self):
        assert bch_certificate(build_code(6, 1)) == 24

    def test_6_2_window(self, code_6_2):
        assert bch_certificate(code_6_2) == 16

    def test_best_run_beats_designed_window(self, code_4_1):
        assert best_bch_distance(code_4_1) == 6

    @pytest.mark.parametrize("m,c,modulus", [
        (4, 1, None), (6, 1, None), (6, 2, None), (8, 1, None),
        (8, 2, None), (10, 2, None), (8, 2, 0x12B)])
    def test_coset_root_flags_match_per_exponent(self, m, c, modulus):
        spec = build_code(m, c, modulus)
        assert _root_flags(spec) == [
            _eval_at_alpha_pow(spec.field, spec.generator, j) == 0
            for j in range(spec.n)]

    def test_root_flags_from_check_polynomial(self, monkeypatch):
        import codebounds.cyclic as cy

        spec = build_code(8, 2)
        calls = []
        real = cy._eval_at_alpha_pow

        def counted(ctx, poly, j):
            calls.append((poly, j))
            return real(ctx, poly, j)

        monkeypatch.setattr(cy, "_eval_at_alpha_pow", counted)
        _root_flags(spec)
        # only h = (x^n - 1)/g, of degree k, is evaluated; once per coset
        assert {poly_degree(poly) for poly, _ in calls} == {spec.k}
        cosets = [frozenset(cyclotomic_coset(j, spec.m)) for _, j in calls]
        assert len(set(cosets)) == len(cosets)
        assert frozenset().union(*cosets) == frozenset(range(spec.n))
        # g + 1 is divisible by x, so it does not divide x^n - 1
        bad = dataclasses.replace(spec, generator=spec.generator ^ 1)
        for certify in (bch_certificate, best_bch_distance):
            with pytest.raises(CertificateFailure):
                certify(bad)

    @pytest.mark.parametrize("m,c,designed,best", [
        (12, 2, 1920, 1936), (14, 2, 7936, 7968)])
    def test_large_code_certificates(self, m, c, designed, best):
        spec = build_code(m, c)
        assert bch_certificate(spec) == designed
        assert best_bch_distance(spec) == best


class TestEncode:
    def test_zero_message(self, code_4_1):
        assert encode(code_4_1, 0).bits == 0

    def test_unit_message_gives_generator(self, code_4_1):
        assert encode(code_4_1, 1).bits == code_4_1.generator

    def test_bad_messages(self, code_4_1):
        for msg in (1 << 4, -1):
            with pytest.raises(LengthMismatch):
                encode(code_4_1, msg)

    @given(st.integers(0, 15), st.integers(0, 15))
    def test_linearity(self, a, b):
        spec = build_code(4, 1)
        assert (encode(spec, a).bits ^ encode(spec, b).bits
                == encode(spec, a ^ b).bits)

    def test_cyclic_closure(self, code_4_1):
        # shifting any codeword stays inside the code: divisible by g
        n = code_4_1.n
        for msg in range(16):
            word = encode(code_4_1, msg).bits
            rotated = ((word << 1) | (word >> (n - 1))) & ((1 << n) - 1)
            assert poly_mod(rotated, code_4_1.generator) == 0
            assert rotated.bit_count() == word.bit_count()

    def test_nonzero_words_meet_designed_distance(self, code_4_1):
        for msg in range(1, 16):
            assert encode(code_4_1, msg).weight >= 4
