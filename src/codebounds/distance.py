"""Ground-truth engines: exhaustive distance/weight data and exact A(n, d).

Linear-code statistics come from the numpy span-table scan in ``_kernels``
(one XOR and popcount per 64-bit limb of each word, over limb-major tables,
with weights summed in the smallest unsigned dtype that holds n).  Its
blocks are reduced to a weight histogram for the weight distributions,
and to their least weight for every caller that needs only the minimum
distance.  A full scan covers all 2^k codewords of any span; a
constructed cyclic code is instead enumerated one orbit of its group of
shifts and squarings at a time (``cyclic.orbit_plan``), and the full scan
is its oracle.  Every scan runs in the calling thread.  Both call the
same two reductions: a full scan is the one coset of the zero word, and
each level of the plan's cosets prefix + span(later ideals), formed in
blocks, shares one pair of span tables, each word counting its prefix's
orbit sizes in int64.  The last level has no later ideal: its words are
weighed straight off the packed words, with no span table.
``min_distance_of_rows`` gets the least weight either from the full scan
or from the Brouwer-Zimmermann information-set search: t disjoint
information sets, each systematic generator enumerated by increasing
message weight until the best weight found meets the lower bound on every
word not yet seen.  Both routes are priced in one unit before the search
starts; when the full scan wins from the rank alone, the span is never
split into information sets.
A(n, d) for tiny n is a maximum-clique search over the graph of n-bit words
with pairwise distance >= d, with the zero word and, up to a coordinate
permutation, a least-weight nonzero word 1^w 0^(n-w) fixed into the code.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field
from itertools import takewhile

import numpy as np

from . import _kernels
from .cyclic import ConstructionSpec, OrbitPlan, orbit_plan
from .gf2 import row_basis


class BudgetExceeded(RuntimeError):
    """Requested computation exceeds its default size budget."""


@dataclass(frozen=True)
class WeightDistribution:
    """Histogram of codeword weights, index = weight, length n + 1.

    ``k`` is the number of generator rows, and the counts always sum to
    2^k: from dependent rows of rank r, each codeword counts 2^(k - r)
    times.  ``words_scanned`` counts the codewords the enumeration
    visited: all 2^k for a span, one per orbit's coset word for a
    constructed code.  It is the route's work count, not part of
    equality.
    """

    n: int
    k: int
    counts: tuple[int, ...]
    words_scanned: int = field(compare=False)

    @property
    def min_distance(self) -> int:
        for w in range(1, self.n + 1):
            if self.counts[w]:
                return w
        raise ValueError("code has no nonzero codeword")


def _check_budget(k: int, max_k: int) -> None:
    if k > max_k:
        raise BudgetExceeded(
            f"k = {k} exceeds enumeration budget {max_k}; "
            "pass a larger max_k to override")


def _check_rows(rows: list[int], n: int) -> tuple[list[int], int]:
    """Rows and n read through ``operator.index`` (numpy integers included;
    a float or a str raises TypeError); a row that is negative or does not
    fit in n bits raises ``ValueError``."""
    n = operator.index(n)
    rows = [operator.index(row) for row in rows]
    for i, row in enumerate(rows):
        if row < 0 or row >> n:
            raise ValueError(
                f"generator row {i} ({row:#x}) does not fit in n = {n} bits")
    return rows, n


def _systematic(rows: list[int], cols: int) -> tuple[list[int], int] | None:
    """Gauss-Jordan on the columns in the mask ``cols``.

    Returns the reduced rows, systematic on an information set inside
    ``cols`` (row i is the i-th unit vector there), and ``cols`` less that
    set; ``None`` when the rows restricted to ``cols`` have rank below
    ``len(rows)``.
    """
    if cols.bit_count() < len(rows):
        return None
    rows = list(rows)
    for r in range(len(rows)):
        for s in range(r, len(rows)):
            if rows[s] & cols:
                break
        else:
            return None
        pivot = rows[s]
        rows[s] = rows[r]
        bit = pivot & cols & -(pivot & cols)
        cols ^= bit
        rows = [row ^ pivot if row & bit else row for row in rows]
        rows[r] = pivot
    return rows, cols


def _last_weight(k: int, t: int, best: int) -> int:
    """The first message weight w with t (w + 1) >= best, at most k."""
    return min(k, -(-best // t) - 1)


def min_distance_of_rows(rows: list[int], n: int, max_k: int = 24,
                         workers: int = 1) -> int:
    """Minimum nonzero codeword weight of the span of ``rows``.

    Brouwer-Zimmermann information-set search (Grassl, "Searching for
    linear codes with large minimum distance", 2006): the rows are reduced
    to a basis and brought to systematic form on disjoint information
    sets, and t of these systematic generators are enumerated by
    increasing message weight w (``_kernels.layer_minima``).  A codeword
    not yet met has weight >= w + 1 on every set already done at weight w
    and >= w on the others, so the search stops once the best weight found
    is at most that bound; at the latest when w = ceil(best / t) - 1,
    with best the least weight among the generator rows.

    Both routes are priced first, in one unit: the limbs of the words
    they form, plus a fixed charge per numpy block and per information set
    (``_kernels.scan_price`` and ``search_price``).  Priced with best = 1,
    a search costs no less than that on any span, so when even one set
    costs no less than the full scan, k alone decides and no set is split.
    Otherwise one set is split, and its least row weight prices the search
    on each count of sets t whose lower bound is below the scan; t is the
    cheapest count, and that many sets are split.  The span goes to the
    full scan (``least_weight``) unless the search on them, priced with
    the best row weight of all, costs less.  Each round only lowers best,
    so no later price can exceed it.

    Rows and n are read through ``operator.index``.  Raises ``ValueError``
    for a row that is negative or does not fit in n bits, and for a span
    with no nonzero word; ``BudgetExceeded`` when the rank, not the row
    count, exceeds ``max_k``.  ``workers`` is ignored (one thread); the
    benchmark's 1-vs-2-worker probe passes it.
    """
    rows, n = _check_rows(rows, n)
    basis = row_basis(rows)
    k = len(basis)
    _check_budget(k, max_k)
    if not k:
        raise ValueError("code has no nonzero codeword")

    def price(t: int, best: int) -> int:
        return _kernels.search_price(k, n, t, _last_weight(k, t, best))

    scan, gens = _kernels.scan_price(k, n), []
    # with best = 1 a price is a lower bound on every search on t sets
    if price(1, 1) < scan:
        basis, cols = _systematic(basis, (1 << n) - 1)
        gens.append(basis)
        # the rows of the systematic generators are the weight-1 messages
        best = min(row.bit_count() for row in basis)
        counts = takewhile(lambda t: price(t, 1) < scan, range(1, n // k + 1))
        plan = min(counts, key=lambda t: price(t, best))
        while len(gens) < plan and price(plan, best) < scan and \
                (found := _systematic(basis, cols)) is not None:
            basis, cols = found
            gens.append(basis)
            best = min(best, *(row.bit_count() for row in basis))
    if not gens or price(len(gens), best) >= scan:
        return _kernels.least_weight(basis, n)
    t = len(gens)
    layers = _kernels.layer_minima(gens, n, _last_weight(k, t, best))
    # value i, counted from t + 1, is set j's at message weight w: i = t w + j
    for i, least in enumerate(layers, t + 1):
        best = min(best, least)
        if best <= i:
            return best
    return best


def weight_distribution_of_rows(rows: list[int], n: int,
                                max_k: int = 24) -> WeightDistribution:
    """Weight histogram of all 2^len(rows) messages' codewords.

    Dependent rows are not reduced: each codeword of a span of rank r
    counts 2^(len(rows) - r) times, so [0b011, 0b110, 0b101] gives counts
    (2, 0, 6, 0) with k = 3.  Rows and n are read as in
    ``min_distance_of_rows``.
    """
    _check_budget(len(rows), max_k)
    rows, n = _check_rows(rows, n)
    counts = _kernels.weight_scan(rows, n)
    return WeightDistribution(n, len(rows), tuple(int(x) for x in counts),
                              1 << len(rows))


def _orbit_scans(plan: OrbitPlan, n: int, scan):
    """``scan(rest, n, reps, multiplicity)`` over the scans of an orbit
    plan, rest being the rows of the ideals after the scan's level; the
    results, and the words scanned.

    Each scan's reps are formed and scanned in blocks of
    ``_kernels.reps_per_call``, so a level of many thousands of prefixes
    is never held as a whole.
    """
    found, scanned = [], 0
    for part in plan.scans:
        rest = [row for ideal in plan.ideals[part.level:]
                for row in ideal.rows()]
        step = _kernels.reps_per_call(n, len(rest))
        for start in range(0, len(part), step):
            reps = part.reps(start, start + step)
            found.append(scan(rest, n, reps,
                              part.multiplicity[start:start + step]))
            scanned += len(reps) << len(rest)
    return found, scanned


def _orbit_histogram(plan: OrbitPlan, n: int):
    """Weight histogram of the words an orbit plan covers, and words
    scanned: each scanned word counts its rep's multiplicity."""
    found, scanned = _orbit_scans(
        plan, n, lambda rows, n, reps, mult:
        _kernels.weight_scan(rows, n, reps=reps, multiplicity=mult))
    counts = sum(found, np.zeros(n + 1, dtype=np.int64))
    counts[0] += 1
    return counts, scanned


def _orbit_least(spec: ConstructionSpec, max_k: int) -> tuple[int, int]:
    """Least nonzero weight of a constructed code, and words scanned: the
    least weight over the plan's scans, with no histogram."""
    _check_budget(spec.k, max_k)
    found, scanned = _orbit_scans(
        orbit_plan(spec), spec.n,
        lambda rows, n, reps, _: _kernels.least_weight(rows, n, reps=reps))
    return min(found), scanned


def min_distance(spec: ConstructionSpec, max_k: int = 24) -> int:
    """Exact minimum distance of a constructed code (orbit enumeration)."""
    return _orbit_least(spec, max_k)[0]


def weight_distribution(spec: ConstructionSpec,
                        max_k: int = 24) -> WeightDistribution:
    """Full weight histogram of a constructed code by orbit enumeration.

    Scans one word per orbit of the code's shifts and squarings, each
    prefix with the span of the ideals after it (``cyclic.orbit_plan``),
    instead of 2^k; the result equals
    ``weight_distribution_of_rows(spec.generator_rows(), ...)``.
    """
    _check_budget(spec.k, max_k)
    counts, scanned = _orbit_histogram(orbit_plan(spec), spec.n)
    return WeightDistribution(spec.n, spec.k, tuple(counts.tolist()),
                              scanned)


def distance_report(spec: ConstructionSpec, max_k: int = 24) -> dict:
    """CLI-facing summary of a distance verification run."""
    t0 = time.perf_counter()
    d, scanned = _orbit_least(spec, max_k)
    return {
        "n": spec.n,
        "k": spec.k,
        "d_min": d,
        "designed_distance": spec.designed_distance,
        "meets_theorem1": d >= spec.designed_distance,
        "words_scanned": scanned,
        "seconds": round(time.perf_counter() - t0, 6),
    }


def exact_A_search(n: int, d: int, max_n: int = 8) -> int:
    """Exact A(n, d): the largest binary code of length n, distance >= d.

    A code of two or more words can be translated to contain 0 and then
    permuted so that a nonzero word of least weight w >= d is
    1^w 0^(n-w); every other word then has weight >= w.  So for each w the
    search fixes those two words and runs a branch-and-bound maximum
    clique on the words of weight >= w at distance >= d from both, and
    A = max(1, max over w of 2 + clique).  Default budget stops at n = 8;
    raise ``max_n`` explicitly for larger searches.
    """
    if not (1 <= n):
        raise ValueError(f"invalid length {n}")
    if not (1 <= d):
        raise ValueError(f"invalid distance {d}")
    if n > max_n:
        raise BudgetExceeded(
            f"n = {n} exceeds clique-search budget {max_n}; "
            "pass a larger max_n to override")
    if d == 1:
        return 1 << n
    best = 1
    for w in range(d, n + 1):
        fixed = (1 << w) - 1
        verts = [v for v in range(1, 1 << n) if v.bit_count() >= w
                 and (v ^ fixed).bit_count() >= d]
        if 2 + len(verts) <= best:
            continue
        words = np.array(verts, dtype=np.min_scalar_type((1 << n) - 1))
        far = np.bitwise_count(words[:, None] ^ words[None, :]) >= d
        neigh = [int.from_bytes(row.tobytes(), "little")
                 for row in np.packbits(far, axis=1, bitorder="little")]
        best = max(best, 2 + _kernels.max_clique(neigh))
    return best
