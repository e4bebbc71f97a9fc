"""Cyclic-code construction: cosets, generators, certificates, encoding."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import codebounds.cyclic as cy
from codebounds.cli import main
from codebounds.cyclic import (
    CertificateFailure,
    DecompositionFailure,
    InexactDivision,
    InvalidParameters,
    LengthMismatch,
    _root_flags,
    bch_certificate,
    best_bch_distance,
    build_code,
    coset_exponents,
    designed_distance,
    encode,
    minimal_ideals,
)
from codebounds.distance import (
    distance_report,
    min_distance,
    weight_distribution,
)
from codebounds.gf2 import (
    cyclotomic_coset,
    poly_degree,
    poly_divrem,
    poly_mod,
    poly_mul,
)

DESIGNED = {(4, 1): 4, (6, 1): 24, (6, 2): 16,
            (8, 1): 112, (8, 2): 96, (8, 3): 64}


def _horner(ctx, poly, j):
    """A GF(2)[x] polynomial evaluated at alpha^j by Horner's rule."""
    beta = ctx.alpha_pow(j)
    res = 0
    for bit in range(poly_degree(poly), -1, -1):
        res = ctx.mul(res, beta) ^ ((poly >> bit) & 1)
    return res


def _coset_root_flags(spec):
    """Root flags of g from one Horner evaluation of h = (x^n - 1)/g per
    cyclotomic coset: h(beta^2) = h(beta)^2 decides the whole coset."""
    h = poly_divrem((1 << spec.n) | 1, spec.generator)[0]
    flags = [None] * spec.n
    for j in range(spec.n):
        if flags[j] is None:
            is_root = _horner(spec.field, h, j) != 0
            for e in cyclotomic_coset(j, spec.m):
                flags[e] = is_root
    return flags


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
        with pytest.raises(InvalidParameters):
            designed_distance(m, c)

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

    @pytest.mark.parametrize("fn", [build_code, designed_distance,
                                    coset_exponents])
    @pytest.mark.parametrize("m,c", [(4.0, 1), (4, 1.0), (np.float64(8), 2)])
    def test_float_parameters_rejected(self, fn, m, c):
        with pytest.raises(TypeError):
            fn(m, c)

    def test_numpy_parameters_read_as_int(self):
        spec = build_code(np.int64(8), np.int64(2))
        assert spec.to_json_dict() == build_code(8, 2).to_json_dict()
        assert type(spec.m) is type(spec.c) is type(spec.n) is int
        d = designed_distance(np.uint8(8), np.int32(2))
        assert d == designed_distance(8, 2) and type(d) is int
        assert coset_exponents(np.int64(8), np.int64(2)) == \
            coset_exponents(8, 2)


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
            _horner(spec.field, spec.generator, j) == 0
            for j in range(spec.n)]

    @pytest.mark.parametrize("m,c,modulus", [
        (4, 1, None), (6, 1, None), (6, 2, None), (8, 1, None),
        (8, 2, None), (8, 3, None), (10, 2, None), (8, 2, 0x12B),
        (12, 2, None), (14, 2, None)])
    def test_root_flags_match_per_coset_horner(self, m, c, modulus):
        spec = build_code(m, c, modulus)
        assert _root_flags(spec) == _coset_root_flags(spec)

    def test_root_flags_from_check_polynomial(self):
        spec = build_code(8, 2)
        h, rem = poly_divrem((1 << spec.n) | 1, spec.generator)
        assert rem == 0 and poly_degree(h) == spec.k
        flags = _root_flags(spec)
        # only h, of degree k, decides the flags: its k roots, the removed
        # cosets, are the non-roots of g
        assert flags == [_horner(spec.field, h, j) != 0
                         for j in range(spec.n)]
        removed = set().union(*(cs.members for cs in spec.cosets))
        assert {j for j, flag in enumerate(flags) if not flag} == removed
        assert len(removed) == spec.k
        # g + 1 is divisible by x, so it does not divide x^n - 1
        bad = dataclasses.replace(spec, generator=spec.generator ^ 1)
        for certify in (_root_flags, bch_certificate, best_bch_distance):
            with pytest.raises(CertificateFailure):
                certify(bad)

    @pytest.mark.parametrize("m,c,designed,best", [
        (12, 2, 1920, 1936), (14, 2, 7936, 7968)])
    def test_large_code_certificates(self, m, c, designed, best):
        spec = build_code(m, c)
        assert bch_certificate(spec) == designed
        assert best_bch_distance(spec) == best

    @pytest.mark.parametrize("m,c,modulus", [
        (4, 1, None), (6, 1, None), (6, 2, None), (8, 1, None),
        (8, 2, None), (8, 3, None), (10, 2, None), (8, 2, 0x12B),
        (12, 2, None)])
    def test_best_run_matches_doubled_scan(self, m, c, modulus):
        spec = build_code(m, c, modulus)
        flags = _root_flags(spec)
        best = run = 0
        for flag in flags + flags:
            run = run + 1 if flag else 0
            best = max(best, run)
        assert best_bch_distance(spec) == min(best, spec.n - 1) + 1


def _gray_walk(ideal):
    """Orbit words by a Gray-code walk over all nonzero messages: for each
    r < gcd(e, n) in turn, a(x) * generator for the a with a(beta) =
    alpha^r."""
    ctx, n = ideal.field, ideal.n
    powers = [ctx.alpha_pow(ideal.exponent * j) for j in range(ideal.dim)]
    target = {ctx.alpha_pow(r): r for r in range(n // ideal.orbit_size)}
    messages = [0] * len(target)
    value = 0
    for step in range(1, 1 << ideal.dim):
        value ^= powers[(step & -step).bit_length() - 1]
        if value in target:
            messages[target[value]] = step ^ (step >> 1)
    return [poly_mul(a, ideal.generator) for a in messages]


ORACLE_CODES = [(4, 1, None), (4, 1, 0x19), (6, 1, None), (6, 2, None),
                (8, 1, None), (8, 2, None), (8, 3, None), (10, 2, None),
                (8, 2, 0x12B), (12, 2, None)]


class TestIdealsAndOrbits:
    """The split and the orbit walk against the quotient and walk they
    replace, and every check they make."""

    @pytest.mark.parametrize("m,c,modulus", ORACLE_CODES)
    def test_generators_are_exact_quotients(self, m, c, modulus):
        spec = build_code(m, c, modulus)
        xn1 = (1 << spec.n) | 1
        for ideal, cs in zip(minimal_ideals(spec), spec.cosets, strict=True):
            mp = spec.field.minimal_polynomial(cs.representative)
            assert ideal.generator == poly_divrem(xn1, mp)[0]
            assert ideal.dim == poly_degree(mp) == m

    @pytest.mark.parametrize("m,c,modulus", ORACLE_CODES)
    def test_representatives_match_gray_code_walk(self, m, c, modulus):
        for ideal in minimal_ideals(build_code(m, c, modulus)):
            assert ideal.orbit_representatives() == _gray_walk(ideal)

    def test_inexact_ideal_refused(self):
        spec = build_code(6, 2)
        first, second = spec.minimal_polynomials
        # g times the other factors times a changed M_e is not x^n - 1
        bad = dataclasses.replace(spec,
                                  minimal_polynomials=(first ^ 0b100, second))
        for _ in range(2):
            with pytest.raises(InexactDivision):
                minimal_ideals(bad)
        assert "_ideals" not in vars(bad)

    def test_corrupted_representatives_refused(self):
        # (8,3): 3, 5 and 3 orbits of 85, 51 and 85 words
        first, middle, last = minimal_ideals(build_code(8, 3))
        reps = first.orbit_representatives()
        cy._check_orbits(first, reps)
        n = first.n
        shifted = ((reps[0] << 7) | (reps[0] >> (n - 7))) & ((1 << n) - 1)
        for bad in ([reps[0], shifted, reps[2]],    # two reps, one orbit
                    reps[:2],                       # an orbit lost
                    [0] + reps[1:],                 # the zero word
                    # a word of another ideal, with orbits of 85 words too,
                    # vanishes at beta
                    reps[:2] + last.orbit_representatives()[:1],
                    # plus a word with orbits of 51: an orbit of 255
                    [reps[0] ^ middle.orbit_representatives()[0]]
                    + reps[1:]):
            with pytest.raises(DecompositionFailure):
                cy._check_orbits(first, bad)


def _spy(monkeypatch, name):
    """Record the argument of every call to ``cyclic.<name>``."""
    calls = []
    real = getattr(cy, name)
    monkeypatch.setattr(cy, name, lambda obj: calls.append(obj) or real(obj))
    return calls


class TestComputedOnce:
    """A spec keeps its root flags and ideals, an ideal its orbits."""

    def test_root_flags_once_per_spec(self, monkeypatch, capsys):
        calls = _spy(monkeypatch, "_root_flags")
        spec = build_code(6, 2)
        for _ in range(2):
            assert bch_certificate(spec) == 16
            assert best_bch_distance(spec) == 18
        assert len(calls) == 1 and calls[0] is spec
        calls.clear()
        # construct builds one spec and certifies it with both functions
        assert main(["construct", "--m", "8", "--c", "3"]) == 0
        assert "best_bch_distance = 66" in capsys.readouterr().out
        assert len(calls) == 1

    def test_ideals_and_orbits_once_per_spec(self, monkeypatch):
        splits = _spy(monkeypatch, "_split_ideals")
        walks = _spy(monkeypatch, "_walk_orbits")
        spec = build_code(8, 3)
        wd = weight_distribution(spec)
        assert min_distance(spec) == wd.min_distance == 96
        report = distance_report(spec)
        assert report["words_scanned"] == wd.words_scanned == 197_891
        ideals = minimal_ideals(spec)
        assert len(splits) == 1 and splits[0] is spec
        assert [id(ideal) for ideal in walks] == [id(i) for i in ideals]

    def test_equal_specs_keep_their_own(self, monkeypatch):
        # equal values over two fields: the orbit walk runs in each field
        a, b = build_code(4, 1, 0x13), build_code(4, 1, 0x19)
        assert a == b and a.field != b.field
        specs = [a, b, dataclasses.replace(a), dataclasses.replace(b)]
        flags = _spy(monkeypatch, "_root_flags")
        splits = _spy(monkeypatch, "_split_ideals")
        reps = []
        for spec in specs:
            assert best_bch_distance(spec) == 6
            ideal, = minimal_ideals(spec)
            assert ideal.field is spec.field
            reps.append(ideal.orbit_representatives())
        assert [id(s) for s in flags] == [id(s) for s in specs]
        assert [id(s) for s in splits] == [id(s) for s in specs]
        assert reps[0] == reps[2] != reps[1] == reps[3]
        assert reps[1] == list(cy._walk_orbits(minimal_ideals(b)[0]))

    def test_returned_lists_are_copies(self):
        spec = build_code(6, 2)
        ideals = minimal_ideals(spec)
        reps = ideals[0].orbit_representatives()
        want = list(reps)
        reps[0] ^= 1
        reps.append(0)
        ideals.clear()
        again = minimal_ideals(spec)
        assert len(again) == 2 and again[0].orbit_representatives() == want
        flags = _root_flags(spec)
        flags[0] = not flags[0]
        assert _root_flags(spec) == list(spec._roots) != flags

    def test_failures_are_not_kept(self):
        spec = build_code(4, 1)
        bad_g = dataclasses.replace(spec, generator=spec.generator ^ 1)
        bad_k = dataclasses.replace(spec, k=spec.k + 1)
        # orbits of length 5 read as length 15
        bad_orbit = dataclasses.replace(minimal_ideals(spec)[0], exponent=1)
        for _ in range(2):
            for certify in (bch_certificate, best_bch_distance):
                with pytest.raises(CertificateFailure):
                    certify(bad_g)
            for split in (minimal_ideals, weight_distribution, min_distance):
                with pytest.raises(DecompositionFailure):
                    split(bad_k)
            with pytest.raises(DecompositionFailure):
                bad_orbit.orbit_representatives()
        assert "_roots" not in vars(bad_g) and "_ideals" not in vars(bad_k)
        assert "_orbits" not in vars(bad_orbit)


class TestEncode:
    def test_zero_message(self, code_4_1):
        assert encode(code_4_1, 0).bits == 0

    def test_unit_message_gives_generator(self, code_4_1):
        assert encode(code_4_1, 1).bits == code_4_1.generator

    def test_bad_messages(self, code_4_1):
        for msg in (1 << 4, -1):
            with pytest.raises(LengthMismatch):
                encode(code_4_1, msg)

    @pytest.mark.parametrize("kind", [np.int64, np.uint8, np.int32, bool])
    def test_integer_types_read_as_int(self, code_4_1, kind):
        for msg in (0, 1):
            word = encode(code_4_1, kind(msg))
            assert word == encode(code_4_1, msg)
            assert type(word.bits) is int
        if kind is not bool:
            assert encode(code_4_1, kind(15)) == encode(code_4_1, 15)

    @pytest.mark.parametrize("msg", [1.0, np.float64(1.0), "1", None])
    def test_non_integer_messages_rejected(self, code_4_1, msg):
        with pytest.raises(TypeError):
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
