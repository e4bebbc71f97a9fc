"""CLI contract: output formats, exit codes, determinism.

Everything runs in-process through ``main(argv)`` so coverage and speed stay
reasonable; a single subprocess test at the end confirms the console script
is wired up.
"""

import contextlib
import json
import os
import subprocess
import sys
import threading

import pytest

import codebounds
from codebounds import bounds as bd
from codebounds import cli, cyclic, fourier, spectrum
from codebounds.cli import CSV_COLUMNS, CSV_HEADER, bound_rows, main

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(DATA, "golden_table.csv")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_json(self, capsys):
        code, out, err = run_cli(capsys, "construct", "--m", "4", "--c", "1",
                                 "--json")
        assert code == 0 and err == ""
        obj = json.loads(out)
        assert obj == {"m": 4, "c": 1, "n": 15, "k": 4,
                       "generator_hex": "0xc63", "designed_distance": 4}

    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--m", "4", "--c", "1")
        assert code == 0
        lines = out.splitlines()
        assert "generator_hex = 0xc63" in lines
        assert "bch_certificate = 4" in lines
        assert "best_bch_distance = 6" in lines

    @pytest.mark.parametrize("m, c", [("8", "3"), ("10", "2"), ("14", "2")])
    def test_text_pinned(self, capsys, m, c):
        code, out, err = run_cli(capsys, "construct", "--m", m, "--c", c)
        with open(os.path.join(DATA, f"construct_m{m}_c{c}.txt")) as fh:
            assert (code, out, err) == (0, fh.read(), "")

    def test_explicit_modulus(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--m", "4", "--c", "1",
                               "--modulus", "0x13", "--json")
        assert code == 0
        assert json.loads(out)["generator_hex"] == "0xc63"

    def test_invalid_parameters_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "construct", "--m", "5", "--c", "1")
        assert code == 2 and out == ""
        assert err.startswith("codebounds-error: InvalidParameters:")

    def test_non_primitive_modulus_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "construct", "--m", "4", "--c", "1",
                               "--modulus", "0x1f")
        assert code == 2
        assert "NonPrimitiveModulus" in err


class TestDistance:
    def test_report(self, capsys):
        code, out, _ = run_cli(capsys, "distance", "--m", "4", "--c", "1")
        assert code == 0
        obj = json.loads(out)
        assert obj["n"] == 15 and obj["k"] == 4
        assert obj["d_min"] == 6
        assert obj["designed_distance"] == 4
        assert obj["meets_theorem1"] is True
        assert obj["seconds"] >= 0

    def test_words_scanned(self, capsys):
        # one word per orbit of the shifts and squarings: 30 prefixes over
        # the last ideal's 2^8 words, and 659 words of their own
        code, out, _ = run_cli(capsys, "distance", "--m", "8", "--c", "3")
        assert code == 0
        obj = json.loads(out)
        assert obj["d_min"] == 96
        assert obj["words_scanned"] == 30 * 2**8 + 659 == 8_339

    @pytest.mark.parametrize("m, c", [("8", "3"), ("10", "2")])
    def test_report_pinned(self, capsys, m, c, budget="24"):
        # the fixtures the CI step compares the installed script against,
        # written the way it writes them: the report less its timing
        code, out, err = run_cli(capsys, "distance", "--m", m, "--c", c,
                                 "--max-k", budget)
        assert (code, err) == (0, "")
        obj = json.loads(out)
        assert obj.pop("seconds") >= 0
        with open(os.path.join(DATA, f"distance_m{m}_c{c}.json")) as fh:
            assert json.dumps(obj, indent=2) + "\n" == fh.read()

    def test_report_pinned_12_3(self, capsys):
        # 2^36 words are past the default budget of 2^24
        self.test_report_pinned(capsys, "12", "3", budget="36")

    def test_12_2_in_default_budget(self, capsys):
        code, out, _ = run_cli(capsys, "distance", "--m", "12", "--c", "2")
        assert code == 0
        assert json.loads(out)["d_min"] == 1984

    def test_budget_exit_4(self, capsys):
        code, out, err = run_cli(capsys, "distance", "--m", "6", "--c", "2",
                                 "--max-k", "10")
        assert code == 4 and out == ""
        assert err.startswith("codebounds-error: BudgetExceeded:")


class TestEigen:
    def test_asymptotic(self, capsys):
        code, out, _ = run_cli(capsys, "eigen", "--asymptotic", "--r", "3")
        assert code == 0
        assert out.strip() == "2.33441421834"

    def test_finite_json(self, capsys):
        for n, r, lo, hi in [(15, 3, 8.60, 8.61), (65536, 8, 1155, 1156)]:
            code, out, _ = run_cli(capsys, "eigen", "--n", str(n),
                                   "--r", str(r))
            assert code == 0
            obj = json.loads(out)
            assert list(obj) == ["n", "r", "lambda_float",
                                 "lambda_certified_num",
                                 "lambda_certified_den"]
            assert obj["n"] == n and obj["r"] == r
            lam = obj["lambda_float"]
            cert = obj["lambda_certified_num"] / obj["lambda_certified_den"]
            assert lo < lam < hi and lo < cert < hi
            assert abs(lam - cert) < 1e-9 * lam

    def test_digits_option_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eigen", "--n", "15", "--r", "3", "--digits", "12"])
        assert exc.value.code == 2

    def test_requires_mode(self, capsys):
        code, _, err = run_cli(capsys, "eigen", "--r", "3")
        assert code == 2
        assert "OutOfRange" in err

    def test_bad_radius_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "eigen", "--n", "15", "--r", "9")
        assert code == 2
        assert "InvalidRadius" in err

    def test_n_near_1e17(self, capsys):
        # Vol(2, n) once tripped the entropy cap here: exit 5, internal
        code, out, err = run_cli(capsys, "eigen", "--n", str(10 ** 17),
                                 "--r", "2")
        assert (code, err) == (0, "")
        assert json.loads(out)["n"] == 10 ** 17

    @pytest.mark.parametrize("argv", [
        ["eigen", "--n", str(2 ** 1100), "--r", "1"],
        ["bounds", "--n", str(2 ** 1100), "--d", "3", "--r", "1"],
    ])
    def test_n_past_float_range_exit_2(self, capsys, argv):
        # was exit 5, an internal OverflowError from the float stage
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == ("codebounds-error: OutOfRange: n of 1101 bits is "
                       "too large for float arithmetic\n")


class TestBounds:
    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "15", "--d", "6")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == CSV_COLUMNS
        fields = {ln.split(",")[3]: ln.split(",") for ln in lines[2:]}
        assert fields["gv"][7] == "7"
        assert fields["hamming"][7] == "270"
        assert fields["plotkin"][7] == "192"
        assert fields["singleton"][7] == "1024"
        assert fields["mceliece"][5] == "asymptotic-heuristic"
        assert fields["new_r1"][7] == "274"
        assert fields["new_best"][7] == "274"
        # sorted by label within the (n, d) block
        labels = [ln.split(",")[3] for ln in lines[2:]]
        assert labels == sorted(labels)

    def test_json_rows_match_api(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "15", "--d", "6",
                               "--json")
        assert code == 0
        assert json.loads(out) == json.loads(json.dumps(bound_rows(15, 6)))

    def test_best_row_from_one_pass(self, monkeypatch):
        # new_best comes from the per-radius rows, not a second evaluation
        expected = {(n, d): bd.best_new_upper(n, d, 8)
                    for n, d in [(15, 6), (63, 24), (63, 16), (255, 112)]}

        def refuse(*args):
            raise AssertionError("best_new_upper called")

        monkeypatch.setattr(bd, "best_new_upper", refuse)
        for (n, d), best in expected.items():
            row = next(row for row in bound_rows(n, d)
                       if row["bound"] == "new_best")
            assert (row["value_exact"], row["condition"]) == \
                (best.value_exact, best.condition)

    def test_single_radius(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "15", "--d", "6",
                               "--r", "1")
        assert code == 0
        assert out.strip() == "274"

    def test_single_radius_json(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "15", "--d", "6",
                               "--r", "3", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["bound"] == "new_r3" and obj["value_exact"] == 1540

    def test_not_applicable_exit_3(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--n", "15", "--d", "2",
                                 "--r", "1")
        assert code == 3 and out == ""
        assert err.startswith("codebounds-error: NotApplicable:")

    def test_mceliece_row_skipped_past_half(self, capsys):
        # d = 9 >= n/2 + 1: mceliece_upper raises NotApplicable, and the
        # table goes on without that row
        code, out, _ = run_cli(capsys, "bounds", "--n", "15", "--d", "9")
        assert code == 0
        labels = [ln.split(",")[3] for ln in out.splitlines()[2:]]
        assert "mceliece" not in labels
        assert {"gv", "hamming", "plotkin", "new_best"} <= set(labels)

    def test_domain_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--n", "15", "--d", "0")
        assert code == 2
        assert "OutOfRange" in err

    @pytest.mark.parametrize("n,d", [(10 ** 30, 5), (10 ** 6, 499000),
                                     (bd.EXACT_MAX_N + 1, 3)])
    def test_exact_rows_past_size_limit_exit_2(self, capsys, monkeypatch,
                                               n, d):
        # 10^30 was exit 5 (OverflowError from 1 << n); 10^6 ran past 60 s
        def refuse(*args):
            raise AssertionError("a ball was summed or certified")

        monkeypatch.setattr(bd, "vol", refuse)
        monkeypatch.setattr(spectrum, "certify", refuse)
        monkeypatch.setattr(bd, "certify_radii", refuse)
        code, out, err = run_cli(capsys, "bounds", "--n", str(n),
                                 "--d", str(d))
        assert (code, out) == (2, "")
        assert err == (f"codebounds-error: OutOfRange: the gv row would form "
                       f"2^{n}; exact rows stop at 2^65536\n")

    def test_single_radius_at_huge_n(self, capsys):
        # the eigenvalue row alone has no exact size limit
        n = 10 ** 30
        code, out, err = run_cli(capsys, "bounds", "--n", str(n), "--d",
                                 str(n // 2 - 10 ** 14), "--r", "2")
        assert (code, err) == (0, "")
        assert int(out) == bd.new_upper(n, n // 2 - 10 ** 14, 2).value_exact


class TestTable:
    def test_matches_frozen_golden(self, capsys):
        code, out, _ = run_cli(capsys, "table")
        assert code == 0
        with open(GOLDEN) as fh:
            assert out == fh.read()

    def test_workers_do_not_change_bytes(self, capsys):
        _, serial, _ = run_cli(capsys, "table")
        _, parallel, _ = run_cli(capsys, "table", "--workers", "4")
        assert serial == parallel

    def test_workers_start_no_thread(self, capsys, monkeypatch):
        # --workers is validated, then ignored: the rows are built here
        def refuse(thread):
            raise AssertionError(f"thread started: {thread!r}")
        _, serial, _ = run_cli(capsys, "table")
        bd._ball.cache_clear()      # so the rows are certified again
        monkeypatch.setattr(threading.Thread, "start", refuse)
        code, out, err = run_cli(capsys, "table", "--workers", "4")
        assert (code, err) == (0, "")
        assert out == serial

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "t.csv"
        code, out, _ = run_cli(capsys, "table", "--out", str(target))
        assert code == 0
        assert out.strip() == f"wrote {target}"
        with open(GOLDEN) as fh:
            assert target.read_text() == fh.read()

    def test_out_into_missing_directory_exit_2(self, tmp_path, capsys,
                                               monkeypatch):
        # the path is opened first: no row is computed for a bad one
        def no_rows(*args):
            raise AssertionError("rows computed")

        monkeypatch.setattr(cli, "bound_rows", no_rows)
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, "table", "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith("codebounds-error: FileNotFoundError: ")
        assert str(target) in err and err.count("\n") == 1
        assert not target.parent.exists()

    def test_custom_pairs(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--pairs", "7:3")
        assert code == 0
        rows = [ln for ln in out.splitlines()[2:]]
        assert all(ln.startswith("7,3,") for ln in rows)
        hamming = next(ln for ln in rows if ln.split(",")[3] == "hamming")
        assert hamming.split(",")[7] == "16"

    def test_regime_mode(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--regime", "1.0",
                               "--n-list", "256")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == CSV_HEADER
        body = lines[2:]
        assert len(body) == 7
        assert all(ln.startswith("256,112,32,") for ln in body)
        rigorous = [ln for ln in body if ln.split(",")[5] == "rigorous"]
        assert len(rigorous) == 1
        assert rigorous[0].split(",")[3] == "plotkin_rigorous"

    @pytest.mark.parametrize("argv", [
        ["--regime", "inf"], ["--regime", "nan"], ["--regime", "0"],
        ["--regime", "-1"], ["--regime", "1.0", "--n-list", "-4"],
    ])
    def test_bad_regime_exit_2(self, capsys, argv):
        # rejected by the parser, before regime_table runs
        with pytest.raises(SystemExit) as exc:
            main(["table", *argv])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert f"argument {argv[-2]}: " in captured.err

    def test_regime_n_beyond_float_exit_2(self, capsys):
        # a 401-digit n overflows math.sqrt: bad input, not an internal fault
        code, out, err = run_cli(capsys, "table", "--regime", "1",
                                 "--n-list", "1" + "0" * 400)
        assert code == 2 and out == ""
        assert err.startswith("codebounds-error: OutOfRange: ")
        assert "internal:" not in err


@pytest.mark.parametrize("make_rows, args", [
    (bound_rows, (15, 6)), (bound_rows, (63, 24)), (bound_rows, (7, 3)),
    (bd.regime_table, (1.0, [100, 256])), (bd.regime_table, (0.5, [4096])),
])
def test_rows_share_the_csv_schema(make_rows, args):
    # one row builder: every row is keyed exactly by the CSV columns
    rows = make_rows(*args)
    assert rows
    assert all(list(row) == CSV_COLUMNS.split(",") for row in rows)


class TestFourierVerify:
    def test_small_range(self, capsys):
        code, out, _ = run_cli(capsys, "fourier-verify", "--n-min", "2",
                               "--n-max", "3", "--count", "5")
        assert code == 0
        assert out.splitlines() == ["n=2 functions=5 ok",
                                    "n=3 functions=5 ok"]

    @pytest.mark.parametrize("count", ["-5", "0"])
    def test_nonpositive_count_exit_2(self, capsys, count):
        # rejected by the parser, before any suite runs
        with pytest.raises(SystemExit) as exc:
            main(["fourier-verify", "--n-min", "2", "--n-max", "3",
                  "--count", count])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert f"--count: must be at least 1, got {count}" in captured.err

    @pytest.mark.parametrize("argv, message", [
        (["--n-min", "5", "--n-max", "3"], "--n-min 5 exceeds --n-max 3"),
        (["--n-min", "0"], "--n-min: must be in 1..16, got 0"),
        (["--n-max", "17"], "--n-max: must be in 1..16, got 17"),
        (["--n-min", "-1", "--n-max", "-1"], "--n-min: must be in 1..16"),
    ])
    def test_bad_range_exit_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["fourier-verify", *argv])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert message in captured.err


class TestReplay:
    def test_explicit_words(self, capsys):
        code, out, _ = run_cli(capsys, "replay", "--words", "0,7",
                               "--r", "1")
        assert code == 0
        obj = json.loads(out)
        assert obj["pass"] is True
        assert obj["n"] == 3 and obj["d"] == 3 and obj["code_size"] == 2

    def test_constructed_code(self, capsys):
        code, out, _ = run_cli(capsys, "replay", "--m", "4", "--c", "1",
                               "--r", "3")
        assert code == 0
        obj = json.loads(out)
        assert obj["code_size"] == 16 and obj["pass"] is True
        assert obj["bound"] >= 16

    def test_infinite_bound_prints_null(self, capsys):
        # lambda = 2 <= n - 2d = 2, so the bound is +inf: strict JSON has no
        # Infinity, and the value prints as null
        code, out, _ = run_cli(capsys, "replay", "--words", "0,1", "--n", "4",
                               "--r", "1")
        assert code == 0

        def refuse(name):
            raise AssertionError(f"non-standard JSON constant {name}")

        obj = json.loads(out, parse_constant=refuse)
        assert obj["bound"] is None and obj["pass"] is True
        assert obj["steps"][-1]["rhs"] is None

    def test_needs_input(self, capsys):
        code, _, err = run_cli(capsys, "replay", "--r", "1")
        assert code == 2
        assert "OutOfRange" in err

    def test_missing_zero_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "replay", "--words", "1,2",
                               "--r", "1")
        assert code == 2
        assert "OutOfRange" in err

    def test_word_outside_cube_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "replay", "--words", "0,7",
                               "--n", "2", "--r", "1")
        assert code == 2
        assert "DimensionMismatch" in err and "codeword 7" in err

    @pytest.mark.parametrize("argv", [
        ["--words", "0,7", "--r", "2"],
        ["--words", "0,7", "--n", "0", "--r", "1"],
        ["--words", "0", "--n", "-3", "--r", "-5"],
    ])
    def test_radius_outside_half_n_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "replay", *argv)
        assert code == 2 and out == ""
        assert err.startswith("codebounds-error: InvalidRadius: ")

    def test_negative_word_exit_2(self, capsys):
        # a negative word once shrank the inferred n and read as a radius
        # error
        code, out, err = run_cli(capsys, "replay", "--words", "0,-5",
                                 "--r", "1")
        assert (code, out) == (2, "")
        assert err == ("codebounds-error: DimensionMismatch: codeword -5 "
                       "outside [0, 2^1)\n")

    @pytest.mark.parametrize("argv, pinned", [
        (["--m", "4", "--c", "1", "--r", "3"], "replay_m4_c1_r3.json"),
        (["--words", "0,7", "--r", "1"], "replay_words_0_7_r1.json"),
    ])
    def test_report_pinned(self, capsys, argv, pinned):
        # every float of the report, byte for byte: drift in the replay's
        # float arithmetic fails here
        code, out, err = run_cli(capsys, "replay", *argv)
        with open(os.path.join(DATA, pinned)) as fh:
            assert (code, out, err) == (0, fh.read(), "")

    @pytest.mark.parametrize("m, c, r, n", [("6", "2", "5", 63),
                                            ("12", "5", "1", 4095)])
    def test_cap_refused_before_encoding(self, capsys, monkeypatch, m, c, r,
                                         n):
        def no_encode(*args):
            raise AssertionError("codeword encoded")

        monkeypatch.setattr(cyclic, "encode", no_encode)
        code, out, err = run_cli(capsys, "replay", "--m", m, "--c", c,
                                 "--r", r)
        assert (code, out) == (2, "")
        assert err == (f"codebounds-error: DimensionMismatch: n = {n} "
                       "exceeds replay cap 15\n")

    def test_default_n_is_left_to_covering_replay(self, capsys, monkeypatch):
        seen = []

        def record(code, r, n=None):
            seen.append(n)
            return {}

        monkeypatch.setattr(fourier, "covering_replay", record)
        run_cli(capsys, "replay", "--words", "0,7", "--r", "1")
        run_cli(capsys, "replay", "--words", "0,7", "--n", "5", "--r", "1")
        assert seen == [None, 5]


@pytest.mark.parametrize("argv, message", [
    (["bounds", "--n", "15", "--d", "6", "--r-max", "0"],
     "--r-max: must be at least 1, got 0"),
    (["table", "--r-max", "-3"], "--r-max: must be at least 1, got -3"),
    (["distance", "--m", "6", "--c", "2", "--max-k", "-1"],
     "--max-k: must be at least 1, got -1"),
    (["distance", "--m", "6", "--c", "2", "--max-k", "0"],
     "--max-k: must be at least 1, got 0"),
    (["table", "--workers", "0"], "--workers: must be at least 1, got 0"),
    (["table", "--workers", "-3"], "--workers: must be at least 1, got -3"),
    # options the table would otherwise ignore
    (["table", "--n-list", "256"], "table: --n-list needs --regime"),
    (["table", "--regime", "1", "--pairs", "15:6"],
     "argument --pairs: not allowed with argument --regime"),
    (["table", "--pairs", "15:6", "--regime", "1"],
     "argument --regime: not allowed with argument --pairs"),
    (["table", "--regime", "1", "--r-max", "4"],
     "table: --r-max is not allowed with --regime"),
    (["table", "--workers", "1", "--regime", "1"],
     "table: --workers is not allowed with --regime"),
])
def test_out_of_range_int_options_exit_2(capsys, argv, message):
    # rejected by the parser, before any row is dropped or budget checked
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("argv, option", [
    (["table", "--pairs", "7"], "--pairs"),
    (["table", "--pairs", "15:6,63"], "--pairs"),
    (["table", "--pairs", "15:x"], "--pairs"),
    (["table", "--regime", "1.0", "--n-list", "256,x"], "--n-list"),
    (["replay", "--words", "0,seven", "--r", "1"], "--words"),
    (["replay", "--words", "", "--r", "1"], "--words"),
    (["construct", "--m", "4", "--c", "1", "--modulus", "0xg"], "--modulus"),
])
def test_malformed_string_options_exit_2(capsys, argv, option):
    # rejected by the parser, before any subcommand runs
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"argument {option}: expected " in captured.err


@contextlib.contextmanager
def int_str_digits(limit):
    """Python's int <-> str digit limit set to ``limit`` inside the block."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


class TestLongExactValues:
    # exact values beyond Python's default limit of 4,300 digits
    BOUNDS = ["bounds", "--n", "20000", "--d", "10", "--r-max", "1"]
    REGIME = ["table", "--regime", "1", "--n-list", "100000000"]

    @pytest.mark.parametrize("argv", [BOUNDS, BOUNDS + ["--json"], REGIME],
                             ids=["bounds", "bounds-json", "regime"])
    def test_exit_0_and_caller_limit_kept(self, capsys, argv):
        with int_str_digits(5000):
            code, out, err = run_cli(capsys, *argv)
            assert sys.get_int_max_str_digits() == 5000
        assert code == 0 and err == ""

    def test_bounds_prints_every_digit(self, capsys):
        _, out, _ = run_cli(capsys, *self.BOUNDS)
        row = next(line for line in out.splitlines() if ",singleton," in line)
        with int_str_digits(0):
            assert row.split(",")[7] == str(2 ** 19991)  # 6,018 digits
        _, out, _ = run_cli(capsys, *self.BOUNDS, "--json")
        with int_str_digits(0):
            rows = json.loads(out)
        assert {row["bound"]: row["value_exact"] for row in rows}[
            "singleton"] == 2 ** 19991

    def test_regime_prints_every_digit(self, capsys):
        _, out, _ = run_cli(capsys, *self.REGIME)
        exact = [line.split(",")[7] for line in out.splitlines()[2:]]
        longest = max(exact, key=len)
        assert len(longest) > 4300 and longest.isdigit()


@pytest.mark.parametrize("argv, target, fault", [
    (["construct", "--m", "4", "--c", "1"], (cyclic, "bch_certificate"),
     cyclic.CertificateFailure("BCH run shorter than designed")),
    (["replay", "--words", "0,7", "--r", "1"], (fourier, "covering_replay"),
     fourier.ChainViolation("replay steps failed: ['final_bound']")),
    (["eigen", "--n", "15", "--r", "3"], (bd, "ball_certificate"),
     ZeroDivisionError("division by zero")),
])
def test_internal_fault_exit_5(capsys, monkeypatch, argv, target, fault):
    def failing(*args, **kwargs):
        raise fault

    monkeypatch.setattr(*target, failing)
    code, out, err = run_cli(capsys, *argv)
    assert code == 5 and out == ""
    assert err == (f"codebounds-error: internal: {type(fault).__name__}: "
                   f"{fault}\n")


def run_child(*argv, timeout=120):
    """``python -m codebounds.cli *argv`` in a child process."""
    # the child must import the same package as this process, installed or
    # not, so its parent directory goes first on the child's PYTHONPATH
    root = os.path.dirname(os.path.dirname(codebounds.__file__))
    path = os.pathsep.join(filter(None, [root,
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "codebounds.cli", *argv],
        capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": path})


def test_console_script_smoke():
    out = run_child("bounds", "--n", "15", "--d", "6", "--r", "1")
    assert out.returncode == 0
    assert out.stdout.strip() == "274"


def test_negative_modulus_exit_2():
    # in a child with a timeout: a negative modulus once sent the
    # irreducibility test into an endless division loop
    out = run_child("construct", "--m", "4", "--c", "1", "--modulus=-0x13",
                    timeout=30)
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == ("codebounds-error: NonIrreducibleModulus: "
                          "modulus -0x13 is negative\n")
