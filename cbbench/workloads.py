"""The four workloads: seeded inputs, the public-API calls of one pass, and
the oracle each call's result is checked against after the timed region.

A workload is a function ``run(p, inputs, ledger)`` that issues its calls
back to back through ``p.call`` and a function ``inputs(seed)`` that builds
every input before the clock starts.  Calls go through ``cb.<name>`` at
call time, so that the tracer's wrappers, once installed, are the functions
called.
Every check is an independent oracle: pinned values from the literature,
identities the result must satisfy, or a recomputation by a different
route (own binomial prefix, own GF(2) division, LAPACK eigenvalues).
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import codebounds as cb
import codebounds.cli
from calib import Speedometer

R_MAX = 16                       # ball radii tried by the bound workloads

# (m, c) -> (exact d_min, best BCH bound); the family the paper verifies
FAMILY = {
    (4, 1): (6, 6), (6, 1): (32, 28), (6, 2): (24, 18), (8, 1): (120, 120),
    (8, 2): (112, 100), (8, 3): (96, 66), (10, 2): (480, 456),
}
# exact A(n, d) for n <= 8 (Brouwer's tables); A(8, 3) = 20 is left out
# because the clique search takes over a minute on it
A_VALUES = {
    (5, 2): 16, (5, 3): 4, (6, 2): 32, (6, 3): 8, (6, 4): 4, (7, 3): 16,
    (7, 4): 8, (7, 5): 2, (8, 4): 16, (8, 5): 4, (8, 6): 2,
}
# Reed-Muller RM(r, m): n = 2^m, minimum distance 2^(m - r)
RM_CODES = [(1, 5), (2, 5), (1, 6), (2, 6), (1, 8)]
# random generator matrices: the shapes are pinned, the entries seeded
SPAN_SHAPES = [(n, k) for n in (63, 64, 127, 255) for k in (16, 19, 22)]
# construction rows of the bound table whose codes the table pass scans
TABLE_CONSTRUCTIONS = [(4, 1), (6, 1), (6, 2), (8, 1), (8, 2)]
TABLE_PAIRS = 45
REGIME_A = [0.25 * i for i in range(1, 14)]          # a = 0.25 .. 3.25
REGIME_STRATA = 24
PROBE_N = [1 << e for e in range(10, 21, 2)]


@dataclass
class Record:
    label: str
    out: object
    err: BaseException | None
    check: object                # callable(out, err) -> list of problems
    words: int                   # codewords this call enumerates


class Pass:
    """Issues calls back to back and keeps each result for its oracle.

    Only the calls are timed.  The speedometer takes its reference samples
    between calls, so they never fall inside a call or a span.
    """

    def __init__(self, reference: str = "interp"):
        self.records: list[Record] = []
        self.meter = Speedometer(reference)

    def call(self, label, fn, *args, check=None, words=0):
        if self.meter.due():
            self.meter.sample()
        t0 = time.perf_counter()
        try:
            out, err = fn(*args), None
        except Exception as exc:             # recorded, judged by the oracle
            out, err = None, exc
        self.meter.add(time.perf_counter() - t0)
        self.records.append(Record(label, out, err, check, words))
        return out

    def skip(self, label, words=0):
        """A call whose input failed to build counts as a failed call."""
        self.records.append(Record(label, None, RuntimeError(
            "input of this call failed"), None, words))

    def judge(self) -> list[str]:
        """Run every oracle once; return the problems, one per failed call."""
        out = []
        for rec in self.records:
            if rec.check is None:
                found = [] if rec.err is None else [repr(rec.err)]
            else:
                found = rec.check(rec.out, rec.err)
            if found:
                out.append(f"{rec.label}: {'; '.join(found)}")
        return out


def _ok(pred, what):
    """Check that the call returned and its result satisfies ``pred``."""
    def check(out, err):
        if err is not None:
            return [f"raised {err!r}"]
        return [] if pred(out) else [f"{what}; got {out!r:.200}"]
    return check


# ---------------------------------------------------------------------------
# independent arithmetic


def gf2_mod(a: int, b: int) -> int:
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


_PREFIX: dict[int, tuple[list[int], int]] = {}   # n -> (volumes, next C)


def ball_volume(r: int, n: int) -> int:
    """sum_{i<=r} C(n, i) from an incremental binomial prefix table,
    extended only as far as the largest radius asked for."""
    table, c = _PREFIX.get(n, ([], 1))
    for i in range(len(table), r + 1):
        table.append((table[-1] if table else 0) + c)
        c = c * (n - i) // (i + 1)
    _PREFIX[n] = (table, c)
    return table[r]


def pless_problems(counts, rows: list[int], n: int) -> list[str]:
    """Power moments of any span enumeration: sum A_w = 2^k and
    sum w A_w = 2^(k-1) * (number of nonzero columns)."""
    k = len(rows)
    support = 0
    for row in rows:
        support |= row
    out = []
    if len(counts) != n + 1:
        out.append(f"histogram length {len(counts)} != n + 1")
    if sum(counts) != 1 << k:
        out.append(f"sum A_w = {sum(counts)} != 2^{k}")
    if sum(w * a for w, a in enumerate(counts)) != \
            (1 << (k - 1)) * support.bit_count():
        out.append("first power moment fails")
    return out


def scan_checks(rows, n, d_pinned=None):
    """Oracles for a histogram call and a minimum-distance call on one span.

    The minimum distance must equal the first nonzero weight of the
    histogram (when the histogram call succeeded) and any pinned value.
    """
    hist: dict = {}

    def check_hist(out, err):
        if err is not None:
            return [f"raised {err!r}"]
        hist["counts"] = out.counts
        found = pless_problems(out.counts, rows, n)
        if d_pinned is not None and out.min_distance != d_pinned:
            found.append(f"histogram d = {out.min_distance} != {d_pinned}")
        return found

    def check_min(out, err):
        if err is not None:
            return [f"raised {err!r}"]
        found = []
        counts = hist.get("counts")
        if counts is not None:
            first = next((w for w in range(1, n + 1) if counts[w]), None)
            if out != first:
                found.append(f"d = {out} but first nonzero weight {first}")
        if d_pinned is not None and out != d_pinned:
            found.append(f"d = {out} != pinned {d_pinned}")
        return found

    return check_hist, check_min


# ---------------------------------------------------------------------------
# certificates and regime points (bound-table, and the probe elsewhere)


_EIG: dict[tuple[int, int], float] = {}


def lapack_lambda(n: int, r: int) -> float:
    """Top eigenvalue of the radial ball operator by LAPACK, not bisection."""
    if (n, r) not in _EIG:
        off = np.sqrt([(i + 1) * (n - i) for i in range(r)], dtype=float)
        mat = np.diag(off, 1) + np.diag(off, -1)
        _EIG[(n, r)] = float(np.linalg.eigvalsh(mat)[-1])
    return _EIG[(n, r)]


def cert_problems(cert) -> list[str]:
    out = []
    if cert.lambda_certified > Fraction(cert.lambda_float) * \
            (1 + Fraction(1, 10 ** 12)):
        out.append(f"lambda_cert > lambda_float at {(cert.n, cert.r)}")
    ref = lapack_lambda(cert.n, cert.r)
    if abs(cert.lambda_float - ref) > 1e-9 * ref:
        out.append(f"lambda_float {cert.lambda_float} != LAPACK {ref}")
    return out


def eigen_bound(n: int, d: int, r: int, lam: Fraction) -> int:
    """floor(n Vol(r, n) / (lam - (n - 2d))), recomputed from scratch."""
    q = Fraction(n * ball_volume(r, n)) / (lam - (n - 2 * d))
    return q.numerator // q.denominator


class CertLedger:
    """Certificates behind the pass's eigenvalue bounds, read back through
    the public cache after the timed region, plus the regime points."""

    def __init__(self):
        self.certs: dict[tuple[int, int], object] = {}
        self.cert_found: dict[tuple[int, int], list[str]] = {}
        self.eligible = 0
        self.covered = 0

    def cert(self, n: int, r: int, found: list[str]):
        """The pass's certificate for B_r(0, n); its problems go to found."""
        if (n, r) not in self.certs:
            cert = cb.ball_certificate(n, r)
            self.certs[(n, r)] = cert
            self.cert_found[(n, r)] = cert_problems(cert)
        found.extend(self.cert_found[(n, r)])
        return self.certs[(n, r)]

    def radii(self, n: int) -> range:
        return range(1, min(R_MAX, n // 2) + 1)

    def check_point(self, n: int, d: int, out, err):
        """Check a best-eigenvalue-bound result; count regime coverage."""
        found = []
        j = n - 2 * d
        bounds = {}
        lam_float = 0.0
        for r in self.radii(n):
            cert = self.cert(n, r, found)
            lam_float = max(lam_float, cert.lambda_float)
            if cert.lambda_certified > j:
                bounds[r] = eigen_bound(n, d, r, cert.lambda_certified)
        if lam_float > j:
            self.eligible += 1
            self.covered += err is None
        if isinstance(err, cb.NotApplicable):
            if bounds:
                found.append(f"NotApplicable but r = {min(bounds)} applies")
        elif err is not None:
            found.append(f"raised {err!r}")
        elif not bounds or out.value_exact != min(bounds.values()):
            found.append(f"value {out.value_exact} != "
                         f"{min(bounds.values()) if bounds else None}")
        return found

    def slack_max(self) -> float | None:
        return max((float((Fraction(c.lambda_float) - c.lambda_certified)
                          / Fraction(c.lambda_float))
                    for c in self.certs.values()), default=None)

    def coverage(self) -> float | None:
        return self.covered / self.eligible if self.eligible else None


def regime_points(ns: list[int]) -> list[tuple[int, int]]:
    return [(n, math.ceil(n / 2 - a * math.sqrt(n)))
            for n in ns for a in REGIME_A]


def run_regime(p: Pass, points, ledger: CertLedger) -> None:
    for n, d in points:
        p.call(f"best_new_upper({n},{d})", cb.best_new_upper, n, d, R_MAX,
               check=lambda out, err, n=n, d=d:
               ledger.check_point(n, d, out, err))


def run_probe(p: Pass, ledger: CertLedger) -> None:
    """Regime points on pinned lengths, for the workloads whose own calls
    issue no certificate; runs untimed, once per run."""
    run_regime(p, regime_points(PROBE_N), ledger)


# ---------------------------------------------------------------------------
# cyclic-verify


def cyclic_inputs(seed: int):
    return sorted(FAMILY)


def build_check(m: int, c: int):
    def check(spec, err):
        if err is not None:
            return [f"raised {err!r}"]
        n = (1 << m) - 1
        found = []
        if (spec.n, spec.k) != (n, c * m):
            found.append(f"(n, k) = {(spec.n, spec.k)}")
        if spec.generator.bit_length() - 1 != n - c * m:
            found.append("deg g != n - cm")
        if gf2_mod((1 << n) | 1, spec.generator):
            found.append("g does not divide x^n - 1")
        return found
    return check


def designed(m: int, c: int) -> int:
    return (1 << (m - 1)) - (1 << (m // 2 + c - 1))


def run_cyclic(p: Pass, family, ledger: CertLedger) -> None:
    for m, c in family:
        d_min, best_bch = FAMILY[(m, c)]
        words = 1 << (c * m)
        spec = p.call(f"build_code({m},{c})", cb.build_code, m, c,
                      check=build_check(m, c))
        if spec is None:
            for label in ("bch_certificate", "best_bch_distance"):
                p.skip(f"{label}({m},{c})")
            p.skip(f"weight_distribution({m},{c})", words)
            p.skip(f"min_distance({m},{c})", words)
            continue
        p.call(f"bch_certificate({m},{c})", cb.bch_certificate, spec,
               check=_ok(lambda v, d=designed(m, c): v == d,
                         "BCH bound != designed distance"))
        p.call(f"best_bch_distance({m},{c})", cb.best_bch_distance, spec,
               check=_ok(lambda v, b=best_bch: v == b, f"!= {best_bch}"))
        rows = spec.generator_rows()
        check_hist, check_min = scan_checks(rows, spec.n, d_min)
        p.call(f"weight_distribution({m},{c})", cb.weight_distribution, spec,
               spec.k, check=check_hist, words=words)
        p.call(f"min_distance({m},{c})", cb.min_distance, spec,
               check=check_min, words=words)


# ---------------------------------------------------------------------------
# span-scan


def rm_rows(r: int, m: int) -> list[int]:
    """Generator of RM(r, m): evaluations of all monomials of degree <= r."""
    n = 1 << m
    rows = []
    for mono in range(1 << m):
        if mono.bit_count() <= r:
            rows.append(sum(1 << x for x in range(n) if x & mono == mono))
    return rows


def span_inputs(seed: int):
    rng = random.Random(f"span-scan/{seed}")
    spans = []
    for n, k in SPAN_SHAPES:
        rows = [rng.getrandbits(n) or 1 for _ in range(k)]
        spans.append((f"random({n},{k})", n, rows, None))
    for r, m in RM_CODES:
        spans.append((f"RM({r},{m})", 1 << m, rm_rows(r, m), 1 << (m - r)))
    return spans, sorted(A_VALUES)


def run_span(p: Pass, inputs, ledger: CertLedger) -> None:
    spans, cliques = inputs
    for label, n, rows, d_pinned in spans:
        check_hist, check_min = scan_checks(rows, n, d_pinned)
        words = 1 << len(rows)
        p.call(f"weight_distribution_of_rows {label}",
               cb.weight_distribution_of_rows, rows, n, len(rows),
               check=check_hist, words=words)
        p.call(f"min_distance_of_rows {label}", cb.min_distance_of_rows,
               rows, n, check=check_min, words=words)
    for n, d in cliques:
        p.call(f"exact_A_search({n},{d})", cb.exact_A_search, n, d,
               check=_ok(lambda v, a=A_VALUES[(n, d)]: v == a, "wrong A"))


# ---------------------------------------------------------------------------
# bound-table


def table_inputs(seed: int):
    """Near-half pairs on a geometric length grid 32..4095 (each length
    jittered by up to 2 %) and regime lengths stratified on a log scale over
    [2^10, 2^20] with both ends pinned; the seed sets jitter and offsets."""
    rng = random.Random(f"bound-table/{seed}")
    pairs = []
    for i in range(TABLE_PAIRS):
        n = round(32 * (4095 / 32) ** (i / (TABLE_PAIRS - 1))
                  * (1 - 0.02 * rng.random()))
        a = rng.uniform(0.5, 1.5)
        pairs.append((n, max(1, math.ceil(n / 2 - a * math.sqrt(n)))))
    pairs += [((1 << m) - 1, designed(m, c)) for m, c in TABLE_CONSTRUCTIONS]
    ns = [1 << 10, 1 << 20] + [
        round(2 ** (10 + 10 * (i + rng.random()) / REGIME_STRATA))
        for i in range(REGIME_STRATA)]
    return pairs, sorted(set(ns))


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cb.cli.main(argv)
    return rc, buf.getvalue()


def table_argv(pairs, workers: int = 1) -> list[str]:
    return ["table", "--pairs", ",".join(f"{n}:{d}" for n, d in pairs),
            "--r-max", str(R_MAX), "--workers", str(workers)]


def table_check(pairs, ledger: CertLedger):
    """Recompute gv, hamming and every eigenvalue row of the CSV."""
    def check(out, err):
        if err is not None:
            return [f"raised {err!r}"]
        rc, text = out
        if rc != 0:
            return [f"exit code {rc}"]
        lines = text.splitlines()
        rows: dict[tuple[int, int], dict[str, int | None]] = {}
        for rec in csv.DictReader(lines[1:]):
            exact = rec["value_exact"]
            rows.setdefault((int(rec["n"]), int(rec["d"])), {})[
                rec["bound"]] = int(exact) if exact else None
        found = []
        for n, d in pairs:
            got = rows.get((n, d), {})
            gv = -(-(1 << n) // ball_volume(d - 1, n))
            ham = (1 << n) // ball_volume((d - 1) // 2, n)
            if got.get("gv") != gv or got.get("hamming") != ham:
                found.append(f"gv/hamming wrong at {(n, d)}")
            new = {}
            for r in ledger.radii(n):
                cert = ledger.cert(n, r, found)
                if cert.lambda_certified > n - 2 * d:
                    new[f"new_r{r}"] = eigen_bound(n, d, r,
                                                   cert.lambda_certified)
            if {k: v for k, v in got.items() if k.startswith("new_r")} != new:
                found.append(f"eigenvalue rows wrong at {(n, d)}")
            if new and got.get("new_best") != min(new.values()):
                found.append(f"new_best wrong at {(n, d)}")
        return found
    return check


def run_table(p: Pass, inputs, ledger: CertLedger) -> None:
    pairs, ns = inputs
    p.call("cli table", run_cli, table_argv(pairs),
           check=table_check(pairs, ledger))
    # the construction rows of the table cite these codes; back each with
    # an exact distance
    for m, c in TABLE_CONSTRUCTIONS:
        spec = p.call(f"build_code({m},{c})", cb.build_code, m, c,
                      check=build_check(m, c))
        if spec is None:
            p.skip(f"min_distance({m},{c})", 1 << (c * m))
            continue
        d_min = FAMILY[(m, c)][0]
        p.call(f"min_distance({m},{c})", cb.min_distance, spec,
               check=_ok(lambda v, d=d_min: v == d, f"!= {d_min}"),
               words=1 << spec.k)
    for r in range(1, R_MAX + 1):
        p.call(f"asymptotic_constant({r})", cb.asymptotic_constant, r,
               check=_ok(lambda v, r=r: abs(
                   v - cb.recurrence_polynomial_root(r)) <= 1e-9,
                   "disagrees with recurrence_polynomial_root"))
    run_regime(p, regime_points(ns), ledger)


# ---------------------------------------------------------------------------
# proof-replay


REPLAY_MC = (4, 1)
REPLAY_RADII = range(1, 8)
IDENTITY_NS = (8, 10)


def replay_inputs(seed: int):
    return seed


def run_replay(p: Pass, seed: int, ledger: CertLedger) -> None:
    for n in IDENTITY_NS:
        p.call(f"identity_suite({n})", cb.identity_suite, n, 100, seed,
               check=_ok(lambda v, n=n: v["pass"] is True and v["n"] == n
                         and v["count"] == 100, "suite did not pass"))
    m, c = REPLAY_MC
    d_min = FAMILY[REPLAY_MC][0]
    spec = p.call(f"build_code({m},{c})", cb.build_code, m, c,
                  check=build_check(m, c))
    for r in REPLAY_RADII:
        if spec is None:
            p.skip(f"covering_replay r={r}", 1 << (c * m))
            continue
        code = []
        for msg in range(1 << spec.k):
            word = p.call(f"encode {msg}", cb.encode, spec, msg,
                          check=_ok(lambda v, g=spec.generator:
                                    v.bits >> spec.n == 0
                                    and gf2_mod(v.bits, g) == 0,
                                    "not a multiple of g below x^n"))
            code.append(word.bits if word is not None else 0)
        p.call(f"covering_replay r={r}", cb.covering_replay, code, r,
               spec.n, check=_ok(
                   lambda v: v["pass"] is True and v["d"] == d_min
                   and v["code_size"] == 1 << spec.k
                   and v["bound"] >= v["code_size"], "replay failed"),
               words=1 << spec.k)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    inputs: object               # seed -> inputs, built before the clock
    run: object                  # (Pass, inputs, CertLedger) -> None
    reference: str               # calib.REFERENCES key: its dominant work
    biggest_scan: object = None  # inputs -> (rows, n) for the speedup probe


WORKLOADS = {
    "cyclic-verify": Workload(
        cyclic_inputs, run_cyclic, "numpy",
        lambda x: (cb.build_code(8, 3).generator_rows(), 255)),
    "span-scan": Workload(
        span_inputs, run_span, "numpy",
        lambda x: (x[0][len(SPAN_SHAPES) - 1][2], 255)),
    "bound-table": Workload(table_inputs, run_table, "interp"),
    "proof-replay": Workload(replay_inputs, run_replay, "lists"),
}
