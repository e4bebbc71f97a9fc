"""Command-line front door.

Subcommands: construct | distance | eigen | bounds | table | fourier-verify
| replay.  All output is deterministic for a fixed configuration, except
the wall-time ``seconds`` field of ``distance``: stable row ordering, and
worker counts never affect bytes.  The CSV and plain-text output print
floats at 12 significant digits; JSON prints Python's repr, the shortest
string that reads back to the same float (``eigen --n 15 --r 3`` prints
8.608477839577606).  Exact integers print in full, at any length.  Exit
codes: 0 success, 2 invalid parameters (a ``table --out`` path that cannot
be opened included, reported before any row is computed; an n too large
for float arithmetic, or past the exact rows' ``bounds.EXACT_MAX_N``, is
``OutOfRange``), 3 bound not applicable, 4 budget
exceeded, 5 internal fault (an ArithmeticError: a failed certificate,
replay or exact division).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import operator
import sys

from . import bounds as bd
from . import cyclic, distance, fourier, spectrum
from .gf2 import NonIrreducibleModulus, NonPrimitiveModulus, UnsupportedDegree

CSV_HEADER = "# codebounds-table v1"
CSV_COLUMNS = ",".join(bd.ROW_COLUMNS)
_ROW_ORDER = operator.itemgetter("n", "d", "bound")

_INVALID_PARAM_ERRORS = (
    cyclic.InvalidParameters,
    bd.OutOfRange,
    spectrum.InvalidRadius,
    UnsupportedDegree,
    NonIrreducibleModulus,
    NonPrimitiveModulus,
    cyclic.LengthMismatch,
    fourier.DimensionMismatch,
)


def _fmt(x: float) -> str:
    """Fixed 12-significant-digit float formatting for CSV and text output."""
    return f"{x:.12g}"


def _err(exc: Exception) -> None:
    print(f"codebounds-error: {type(exc).__name__}: {exc}", file=sys.stderr)


def _emit_json(obj) -> None:
    def clean(v):
        if isinstance(v, float) and not math.isfinite(v):
            return None
        if isinstance(v, dict):
            return {k: clean(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [clean(x) for x in v]
        return v

    print(json.dumps(clean(obj), indent=2))


# ---------------------------------------------------------------------------
# row assembly shared by `bounds` and `table`


# (n, designed distance) -> (m, c) over all supported even m
_CONSTRUCTION_POINTS = {((1 << m) - 1, cyclic.designed_distance(m, c)): (m, c)
                        for m in range(4, 17, 2) for c in range(1, m // 2)}


def bound_rows(n: int, d: int, r_max: int = 8) -> list[dict]:
    """Every bound evaluation at (n, d) as ``BoundValue.row`` dicts.

    Inapplicable eigenvalue radii are skipped; the heuristic reference line
    is kept, marked by its rigor column.  Rows come back sorted by
    (n, d, bound label).
    """
    values = [bd.gv_lower(n, d), bd.hamming_upper(n, d),
              bd.singleton_upper(n, d), bd.plotkin_upper(n, d)]
    try:
        values.append(bd.mceliece_upper(n, d))
    except bd.NotApplicable:
        pass
    values.extend(bd.new_upper_rows(n, d, r_max))
    point = _CONSTRUCTION_POINTS.get((n, d))
    if point is not None:
        values.append(bd.cyclic_lower(*point))
    return sorted((bv.row(n, d) for bv in values), key=_ROW_ORDER)


def _csv_lines(rows: list[dict]) -> list[str]:
    """The CSV text of table rows, one line per row in column order."""
    lines = [CSV_HEADER, CSV_COLUMNS]
    for row in rows:
        exact, cond = row["value_exact"], row["condition"]
        if "," in cond or '"' in cond:
            cond = '"' + cond.replace('"', '""') + '"'
        fields = dict(row, value_log2=_fmt(row["value_log2"]),
                      value_exact="" if exact is None else exact,
                      condition=cond)
        lines.append(",".join(map(str, fields.values())))
    return lines


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_construct(args) -> int:
    spec = cyclic.build_code(args.m, args.c, modulus=args.modulus)
    cert = cyclic.bch_certificate(spec)
    if args.json:
        _emit_json(spec.to_json_dict())
    else:
        info = spec.to_json_dict()
        for key, value in info.items():
            print(f"{key} = {value}")
        print(f"bch_certificate = {cert}")
        print(f"best_bch_distance = {cyclic.best_bch_distance(spec)}")
    return 0


def _cmd_distance(args) -> int:
    spec = cyclic.build_code(args.m, args.c)
    report = distance.distance_report(spec, max_k=args.max_k)
    _emit_json(report)
    return 0


def _cmd_eigen(args) -> int:
    if args.asymptotic:
        print(_fmt(spectrum.asymptotic_constant(args.r)))
        return 0
    if args.n is None:
        raise bd.OutOfRange("eigen requires --n or --asymptotic")
    _emit_json(bd.ball_certificate(args.n, args.r).to_json_dict())
    return 0


def _cmd_bounds(args) -> int:
    if args.r is not None:
        # a single requested eigenvalue bound; NotApplicable exits 3
        bv = bd.new_upper(args.n, args.d, args.r)
        if args.json:
            _emit_json({"n": args.n, "d": args.d, "bound": bv.label,
                        "value_exact": bv.value_exact,
                        "value_log2": bv.value_log2,
                        "condition": bv.condition})
        else:
            print(bv.value_exact)
        return 0
    rows = bound_rows(args.n, args.d, r_max=args.r_max)
    if args.json:
        _emit_json(rows)
    else:
        for line in _csv_lines(rows):
            print(line)
    return 0


def _cmd_table(args) -> int:
    try:
        out = (open(args.out, "w", newline="") if args.out
               else contextlib.nullcontext(sys.stdout))
    except OSError as exc:
        _err(exc)  # a bad path is bad input, refused before any row
        return 2
    with out as fh:
        fh.write("\n".join(_csv_lines(_table_rows(args))) + "\n")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def _table_rows(args) -> list[dict]:
    if args.regime is not None:
        rows = bd.regime_table(args.regime, args.n_list or [100, 1024, 4096])
    else:
        rows = [row for n, d in args.pairs
                for row in bound_rows(n, d, args.r_max or 8)]
    return sorted(rows, key=_ROW_ORDER)


def _cmd_fourier_verify(args) -> int:
    for n in range(args.n_min, args.n_max + 1):
        result = fourier.identity_suite(n, count=args.count, seed=args.seed)
        print(f"n={n} functions={result['count']} ok")
    return 0


def _cmd_replay(args) -> int:
    if args.words:
        code, n = args.words, args.n
    else:
        if args.m is None or args.c is None:
            raise bd.OutOfRange("replay needs --words or both --m and --c")
        spec = cyclic.build_code(args.m, args.c)
        # lazy: covering_replay refuses n above its cap before any encode
        code = (cyclic.encode(spec, msg).bits for msg in range(1 << spec.k))
        n = spec.n
    report = fourier.covering_replay(code, args.r, n=n)
    _emit_json(report)
    return 0


# ---------------------------------------------------------------------------


def _int_range(lo: int, hi: int | None = None):
    """An argparse type: an int in lo..hi (no upper limit when hi is None)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lo or (hi is not None and value > hi):
            span = f"at least {lo}" if hi is None else f"in {lo}..{hi}"
            raise argparse.ArgumentTypeError(
                f"must be {span}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its error message
    return parse


def _parsed(convert, expected: str):
    """An argparse type: ``convert(text)``, whose ValueError names the form."""
    def parse(text: str):
        try:
            return convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {expected}, got {text!r}") from None
    return parse


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise ValueError(text)
    return value


def _pair(text: str) -> tuple[int, int]:
    n, d = text.split(":")
    return int(n), int(d)


def _comma_list(item):
    return lambda text: [item(part) for part in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="codebounds",
        description="Cyclic-code construction, Hamming-ball spectra, and "
                    "bounds on binary code sizes.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a code and certify it")
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--c", type=int, required=True)
    c.add_argument("--modulus", type=_parsed(lambda t: int(t, 16),
                                             "a hex number"),
                   help="field modulus as hex, e.g. 0x13")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=_cmd_construct)

    c = sub.add_parser("distance", help="exact minimum distance by enumeration")
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--c", type=int, required=True)
    c.add_argument("--max-k", type=_int_range(1), default=24)
    c.set_defaults(func=_cmd_distance)

    c = sub.add_parser("eigen", help="ball eigenvalues, exact or asymptotic")
    c.add_argument("--r", type=int, required=True)
    c.add_argument("--n", type=int)
    c.add_argument("--asymptotic", action="store_true")
    c.set_defaults(func=_cmd_eigen)

    c = sub.add_parser("bounds", help="evaluate all bounds at one (n, d)")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--r", type=int,
                   help="single eigenvalue-bound radius (exit 3 if "
                        "not applicable)")
    c.add_argument("--r-max", type=_int_range(1), default=8)
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=_cmd_bounds)

    c = sub.add_parser("table", help="deterministic bound table as CSV")
    rows = c.add_mutually_exclusive_group()
    rows.add_argument("--pairs", default="15:6,63:16,63:24",
                      type=_parsed(_comma_list(_pair), "a comma list of n:d"),
                      help="comma list of n:d pairs")
    # --r-max is 8 when not given; main refuses either one with --regime
    c.add_argument("--r-max", type=_int_range(1))
    c.add_argument("--workers", type=_int_range(1),
                   help="ignored (one thread); the benchmark passes it")
    c.add_argument("--out", help="output CSV path")
    rows.add_argument("--regime", type=_parsed(_positive_float,
                                               "a finite number > 0"),
                      help="emit display rows at d = n/2 - a sqrt(n) instead")
    c.add_argument("--n-list", type=_parsed(_comma_list(_int_range(1)),
                                            "a comma list of ints"),
                   help="comma list of n >= 1 for --regime")
    c.set_defaults(func=_cmd_table)

    c = sub.add_parser("fourier-verify", help="exact transform identity suite")
    dense = _int_range(1, fourier.DENSE_MAX_N)
    c.add_argument("--n-min", type=dense, default=2)
    c.add_argument("--n-max", type=dense, default=10)
    c.add_argument("--count", type=_int_range(1), default=100)
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=_cmd_fourier_verify)

    c = sub.add_parser("replay", help="replay the covering bound on a code")
    c.add_argument("--m", type=int)
    c.add_argument("--c", type=int)
    c.add_argument("--words", type=_parsed(_comma_list(lambda w: int(w, 0)),
                                           "a comma list of ints"),
                   help="explicit codewords, e.g. 0,7")
    c.add_argument("--n", type=int)
    c.add_argument("--r", type=int, required=True)
    c.set_defaults(func=_cmd_replay)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "fourier-verify" and args.n_min > args.n_max:
        parser.error(f"fourier-verify: --n-min {args.n_min} exceeds "
                     f"--n-max {args.n_max}")
    if args.command == "table" and args.n_list and args.regime is None:
        parser.error("table: --n-list needs --regime")
    if args.command == "table" and args.regime is not None:
        for option, value in (("--r-max", args.r_max),
                              ("--workers", args.workers)):
            if value is not None:
                parser.error(f"table: {option} is not allowed with --regime")
    # exact values print in full, past Python's int -> str digit limit;
    # an in-process caller gets its own limit back when main returns
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except bd.NotApplicable as exc:
        _err(exc)
        return 3
    except distance.BudgetExceeded as exc:
        _err(exc)
        return 4
    except _INVALID_PARAM_ERRORS as exc:
        _err(exc)
        return 2
    except ArithmeticError as exc:
        # a failed certificate or replay is a fault here, not bad input
        print(f"codebounds-error: internal: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 5
    finally:
        sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
