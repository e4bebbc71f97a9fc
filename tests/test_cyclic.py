"""Cyclic-code construction: cosets, generators, certificates, encoding."""

import dataclasses
import math
import re

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
        assert _root_flags(spec).tolist() == [
            _horner(spec.field, spec.generator, j) == 0
            for j in range(spec.n)]

    @pytest.mark.parametrize("m,c,modulus", [
        (4, 1, None), (6, 1, None), (6, 2, None), (8, 1, None),
        (8, 2, None), (8, 3, None), (10, 2, None), (8, 2, 0x12B),
        (12, 2, None), (14, 2, None)])
    def test_root_flags_match_per_coset_horner(self, m, c, modulus):
        spec = build_code(m, c, modulus)
        assert _root_flags(spec).tolist() == _coset_root_flags(spec)

    def test_root_flags_from_check_polynomial(self):
        # i*j mod n is reduced without division, i*j reaching n^2 - 2n + 1
        # on 8, 10 and 12 bits
        for m in (8, 10, 12):
            spec = build_code(m, 2)
            h, rem = poly_divrem((1 << spec.n) | 1, spec.generator)
            assert rem == 0 and poly_degree(h) == spec.k
            flags = _root_flags(spec).tolist()
            # only h, of degree k, decides the flags: its k roots, the
            # removed cosets, are the non-roots of g
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
        flags = _root_flags(spec).tolist()
        best = run = 0
        for flag in flags + flags:
            run = run + 1 if flag else 0
            best = max(best, run)
        assert best_bch_distance(spec) == min(best, spec.n - 1) + 1


def _gray_walk(ideal):
    """The word of each log by a Gray-code walk over all nonzero messages:
    for each l < n, the word u = a(x) * generator with u(beta) = alpha^l,
    its value at beta tracked through the bits of a."""
    ctx, n = ideal.field, ideal.n
    at_beta = _horner(ctx, ideal.generator, ideal.exponent)
    powers = [ctx.mul(ctx.alpha_pow(ideal.exponent * j), at_beta)
              for j in range(ideal.dim)]
    messages = [0] * n
    value = 0
    for step in range(1, 1 << ideal.dim):
        value ^= powers[(step & -step).bit_length() - 1]
        messages[ctx.log[value]] = step ^ (step >> 1)
    return [poly_mul(a, ideal.generator) for a in messages]


def _ints(words):
    """Packed words as ints."""
    return [int.from_bytes(word.tobytes(), "little") for word in words]


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
        # the word of each value alpha^l at beta, as the plan forms its
        # representatives
        for ideal in minimal_ideals(build_code(m, c, modulus)):
            words = ideal.words(ideal.field.exp_array)
            assert _ints(words) == _gray_walk(ideal)
            assert _ints(ideal.words(np.zeros(2, dtype=np.int64))) == [0, 0]

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
        # (8,3)'s first ideal under the shifts: 3 orbits of 85 words; its
        # second under the whole group, from the plan's second level
        first, middle, _ = minimal_ideals(build_code(8, 3))
        shifts = np.array([[1, 0, 8]])
        row, logs, sizes = cy._walk_orbits(first, shifts)
        assert (logs.tolist(), sizes.tolist()) == ([0, 1, 2], [85] * 3)
        cy._check_orbits(first, shifts, row, logs, sizes)
        for bad_logs, bad_sizes in (
                ([0, 3, 2], [85] * 3),          # two reps, one orbit
                ([0, 1], [85] * 2),             # an orbit lost
                ([0, 1, 2], [85, 85, 84]),      # an orbit size off by one
                ([0, 1, 2], [85, 170, 0]),      # a size for two orbits
                ([0, 1, 2], [85 << 40] * 3)):   # no cycle is that long
            with pytest.raises(DecompositionFailure):
                cy._check_orbits(first, shifts, row[:len(bad_logs)],
                                 np.array(bad_logs), np.array(bad_sizes))
        whole = np.array([[1, 0, 1], [85, 0, 1]])
        row, logs, sizes = cy._walk_orbits(middle, whole)
        cy._check_orbits(middle, whole, row, logs, sizes)
        # the second group's orbits are the cosets of doubling mod 255:
        # the rep 3 moved to 2 leaves two reps on the coset of 1
        moved = np.where((row == 1) & (logs == 3), 2, logs)
        for bad in ((row, moved, sizes), (row, logs, sizes + (sizes > 3)),
                    (row[1:], logs[1:], sizes[1:])):
            with pytest.raises(DecompositionFailure):
                cy._check_orbits(middle, whole, *bad)

    def test_dependent_values_refused(self, monkeypatch):
        # row 1's value at beta read as row 0's: evaluation is then not
        # one-to-one, so some value would have no word
        spec = build_code(8, 3)
        ideal = dataclasses.replace(minimal_ideals(spec)[1])
        n, e, offset = ideal.n, ideal.exponent, ideal._generator_log()
        real = cy.FieldContext.alpha_pow
        monkeypatch.setattr(
            cy.FieldContext, "alpha_pow", lambda ctx, x: real(
                ctx, offset if (x - e - offset) % n == 0 else x))
        values = ideal.field.exp_array
        for _ in range(2):
            with pytest.raises(DecompositionFailure, match="one-to-one"):
                ideal.words(values)
        assert "_tables" not in vars(ideal)
        # unbroken, the n values have n distinct nonzero words
        monkeypatch.setattr(cy.FieldContext, "alpha_pow", real)
        words = set(_ints(ideal.words(values)))
        assert len(words) == n and 0 not in words

    @pytest.mark.parametrize("m,c", [(8, 3), (10, 2), (10, 3)])
    def test_walk_matches_the_cycles_stepped_through(self, monkeypatch, m,
                                                     c):
        # each level's orbits against the cycles of r -> 2^phi r + e tau
        # mod g, stepped through one residue at a time
        levels = []
        real = cy._walk_orbits
        monkeypatch.setattr(cy, "_walk_orbits", lambda ideal, groups:
                            levels.append((ideal, groups))
                            or real(ideal, groups))
        cy._plan_orbits(minimal_ideals(build_code(m, c)))
        assert len(levels) == c
        for ideal, groups in levels:
            n, e = ideal.n, ideal.exponent
            want = []
            for row, (s, tau, phi) in enumerate(groups.tolist()):
                g = math.gcd(e * s, n)
                seen = set()
                for start in range(g):
                    at, length = start, 0
                    while at not in seen:
                        seen.add(at)
                        length += 1
                        at = ((1 << phi) * at + e * tau) % g
                    if length:
                        want.append([row, start, n // g * length])
            got = [x.tolist() for x in real(ideal, groups)]
            assert [list(x) for x in zip(*got)] == want


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
        plans = _spy(monkeypatch, "_plan_orbits")
        spec = build_code(8, 3)
        wd = weight_distribution(spec)
        assert min_distance(spec) == wd.min_distance == 96
        report = distance_report(spec)
        assert report["words_scanned"] == wd.words_scanned == 8_339
        ideals = minimal_ideals(spec)
        assert len(splits) == 1 and splits[0] is spec
        assert len(plans) == 1 and plans[0] == ideals
        assert cy.orbit_plan(spec).ideals == tuple(ideals)

    def test_equal_specs_keep_their_own(self, monkeypatch):
        # equal values over two fields: the orbit plan is made in each field
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
            part, = cy.orbit_plan(spec).scans
            reps.append(_ints(part.reps(0, len(part))))
        assert [id(s) for s in flags] == [id(s) for s in specs]
        assert [id(s) for s in splits] == [id(s) for s in specs]
        assert reps[0] == reps[2] != reps[1] == reps[3]
        ideal, = minimal_ideals(b)
        assert reps[1] == _ints(ideal.words(b.field.exp_array[[0, 1]]))
        assert ideal._tables is minimal_ideals(b)[0]._tables

    def test_returned_lists_are_copies(self):
        spec = build_code(6, 2)
        ideals = minimal_ideals(spec)
        first = ideals[0]
        ideals.clear()
        again = minimal_ideals(spec)
        assert len(again) == 2 and again[0] is first
        # the kept words are read-only; the words of values are new arrays
        part = cy.orbit_plan(spec).scans[0]
        with pytest.raises(ValueError):
            part.reps(0, len(part))[0] ^= 1
        words = first.words(spec.field.exp_array[:2])
        words[0] ^= 1
        assert (first.words(spec.field.exp_array[:2])[0] != words[0]).any()
        flags = _root_flags(spec)
        assert flags.dtype == bool and flags.shape == (spec.n,)
        with pytest.raises(ValueError):
            flags[0] = not flags[0]
        with pytest.raises(ValueError):
            spec._roots[0] = not spec._roots[0]
        assert spec._roots.tolist() == flags.tolist()

    def test_failures_are_not_kept(self):
        spec = build_code(4, 1)
        bad_g = dataclasses.replace(spec, generator=spec.generator ^ 1)
        bad_k = dataclasses.replace(spec, k=spec.k + 1)
        # alpha^1 is not a root of the ideal's minimal polynomial
        bad_orbit = dataclasses.replace(minimal_ideals(spec)[0], exponent=1)
        for _ in range(2):
            for certify in (bch_certificate, best_bch_distance):
                with pytest.raises(CertificateFailure):
                    certify(bad_g)
            for split in (minimal_ideals, weight_distribution, min_distance):
                with pytest.raises(DecompositionFailure):
                    split(bad_k)
            with pytest.raises(DecompositionFailure):
                bad_orbit.words(np.ones(1, dtype=np.int64))
        assert "_roots" not in vars(bad_g) and "_ideals" not in vars(bad_k)
        assert "_tables" not in vars(bad_orbit)


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


class TestQuotientAndWindow:
    """The Newton quotient and the array window against the division and
    the loop they replace."""

    @pytest.mark.parametrize("m,c,modulus", ORACLE_CODES + [(14, 2, None),
                                                          (16, 2, None)])
    def test_quotient_is_the_exact_division(self, m, c, modulus):
        spec = build_code(m, c, modulus)
        h = 1
        for mp in spec.minimal_polynomials:
            h = poly_mul(h, mp)
        assert cy._exact_quotient(h, spec.n) == spec.generator
        assert poly_divrem((1 << spec.n) | 1, h) == (spec.generator, 0)

    def test_inexact_quotient_refused(self):
        spec = build_code(6, 2)
        h = poly_mul(*spec.minimal_polynomials)
        # h with a term more, or squared, keeps h(0) = 1 but does not divide
        for bad in (h ^ 0b10, h ^ (1 << 5), poly_mul(h, h)):
            with pytest.raises(InexactDivision):
                cy._exact_quotient(bad, spec.n)

    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_window_failures_name_the_loops_exponent(self, c):
        # read with another c, the (8, 2) code's window starts elsewhere:
        # the message names the same exponent as a loop over the window
        spec = build_code(8, 2)
        bad = dataclasses.replace(spec, c=c)
        n, t = spec.n, (1 << 7) + (1 << (4 + c - 1)) + 1
        window = [j % n for j in range(t, 1 << 8)]
        removed = set().union(*(cs.members for cs in spec.cosets))
        flags = _root_flags(spec)
        if removed & set(window):
            want = f"removed exponents {sorted(removed & set(window))} "
        elif not all(flags[j] for j in window):
            want = f"g(alpha^{next(j for j in window if not flags[j])}) "
        else:
            want = "window length"
        if c == 2:
            assert bch_certificate(bad) == spec.designed_distance
            return
        with pytest.raises(CertificateFailure, match=re.escape(want)):
            bch_certificate(bad)
