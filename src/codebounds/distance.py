"""Ground-truth engines: exhaustive distance/weight data and exact A(n, d).

Linear-code statistics come from the numpy span-table scan in ``_kernels``
(one XOR and popcount per 64-bit limb of each word, over limb-major tables,
with weights summed in the smallest unsigned dtype that holds n).  The
``*_of_rows`` entry points scan all 2^k codewords of any span; a
constructed cyclic code is instead enumerated one cyclic-shift orbit at a
time, and the full scan is its oracle.
A(n, d) for tiny n is a maximum-clique search over the graph of n-bit words
with pairwise distance >= d, with the zero word fixed into the code.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .cyclic import (
    ConstructionSpec,
    DecompositionFailure,
    MinimalIdeal,
    minimal_ideals,
)


class BudgetExceeded(RuntimeError):
    """Requested computation exceeds its default size budget."""


@dataclass(frozen=True)
class WeightDistribution:
    """Histogram of codeword weights, index = weight, length n + 1.

    ``words_scanned`` counts the codewords the enumeration visited; it is
    not part of equality.
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
        raise ValueError("code has a single codeword")


def _check_budget(k: int, max_k: int, kind: str) -> None:
    if k > max_k:
        raise BudgetExceeded(
            f"k = {k} exceeds {kind} budget {max_k}; "
            "pass a larger max_k to override")


def _check_rows(rows: list[int], n: int) -> None:
    for i, row in enumerate(rows):
        if row < 0 or row >> n:
            raise ValueError(
                f"generator row {i} ({row:#x}) does not fit in n = {n} bits")


def _scan(rows: list[int], n: int, start: int, stop: int, workers: int = 1):
    """Weight scan of the messages in [start, stop), sharded across threads.

    Shards partition the range; each returns (min weight, histogram) and the
    results merge by min / elementwise sum, so the outcome does not depend
    on worker count or completion order.
    """
    workers = max(1, min(workers, stop - start))
    if workers == 1:
        return _kernels.weight_scan(rows, n, start, stop)
    cuts = [start + (stop - start) * i // workers for i in range(workers + 1)]
    shards = [(cuts[i], cuts[i + 1]) for i in range(workers)
              if cuts[i] < cuts[i + 1]]
    with ThreadPoolExecutor(max_workers=len(shards)) as pool:
        results = list(pool.map(
            lambda se: _kernels.weight_scan(rows, n, se[0], se[1]), shards))
    best = min(r[0] for r in results)
    counts = np.sum([r[1] for r in results], axis=0)
    return best, counts


def min_distance_of_rows(rows: list[int], n: int, max_k: int = 24,
                         workers: int = 1) -> int:
    """Minimum nonzero codeword weight of the span of ``rows``.

    Raises ``ValueError`` for a row that is negative or does not fit in n
    bits.
    """
    _check_budget(len(rows), max_k, "enumeration")
    _check_rows(rows, n)
    best, _ = _scan(rows, n, 0, 1 << len(rows), workers)
    if best >= 1 << 30:
        raise ValueError("code has no nonzero codeword")
    return best


def weight_distribution_of_rows(rows: list[int], n: int, max_k: int = 20,
                                workers: int = 1) -> WeightDistribution:
    """Full weight histogram of the span of ``rows`` (2^k enumeration)."""
    _check_budget(len(rows), max_k, "histogram")
    _check_rows(rows, n)
    total = 1 << len(rows)
    _, counts = _scan(rows, n, 0, total, workers)
    return WeightDistribution(n, len(rows), tuple(int(x) for x in counts),
                              total)


def _orbit_histogram(ideals: list[MinimalIdeal], n: int, workers: int = 1):
    """Weight histogram of the direct sum of ``ideals``, and words scanned.

    The words whose first-ideal component is a nonzero u weigh like
    u + span(later ideals), and shifting by x maps that set onto the one of
    x*u while keeping weights, so each shift-orbit representative u counts
    once per orbit member.  The words with u = 0 are the direct sum of the
    later ideals, handled by the next step of the loop.
    """
    counts = np.zeros(n + 1, dtype=np.int64)
    counts[0] = 1
    scanned = 0
    for i, ideal in enumerate(ideals):
        rest = [row for later in ideals[i + 1:] for row in later.rows()]
        lo = 1 << len(rest)
        for rep in ideal.orbit_representatives():
            # messages [2^k', 2^(k'+1)) are exactly rep + span(rest)
            _, part = _scan(rest + [rep], n, lo, 2 * lo, workers)
            counts += ideal.orbit_size * part
            scanned += lo
    return counts, scanned


def _orbit_distribution(spec: ConstructionSpec,
                        workers: int) -> WeightDistribution:
    counts, scanned = _orbit_histogram(minimal_ideals(spec), spec.n, workers)
    total = int(counts.sum())
    if total != 1 << spec.k:
        raise DecompositionFailure(
            f"orbit enumeration counted {total} words != 2^{spec.k}")
    return WeightDistribution(spec.n, spec.k, tuple(int(x) for x in counts),
                              scanned)


def min_distance(spec: ConstructionSpec, max_k: int = 24,
                 workers: int = 1) -> int:
    """Exact minimum distance of a constructed code (orbit enumeration)."""
    _check_budget(spec.k, max_k, "enumeration")
    return _orbit_distribution(spec, workers).min_distance


def weight_distribution(spec: ConstructionSpec, max_k: int = 20,
                        workers: int = 1) -> WeightDistribution:
    """Full weight histogram of a constructed code by orbit enumeration.

    Scans sum_i gcd(e_i, n) * 2^(m(c-i)) words instead of 2^k; the result
    equals ``weight_distribution_of_rows(spec.generator_rows(), ...)``.
    """
    _check_budget(spec.k, max_k, "histogram")
    return _orbit_distribution(spec, workers)


def distance_report(spec: ConstructionSpec, max_k: int = 24,
                    workers: int = 1) -> dict:
    """CLI-facing summary of a distance verification run."""
    t0 = time.perf_counter()
    _check_budget(spec.k, max_k, "enumeration")
    wd = _orbit_distribution(spec, workers)
    d = wd.min_distance
    return {
        "n": spec.n,
        "k": spec.k,
        "d_min": d,
        "designed_distance": spec.designed_distance,
        "meets_theorem1": d >= spec.designed_distance,
        "words_scanned": wd.words_scanned,
        "seconds": round(time.perf_counter() - t0, 6),
    }


def exact_A_search(n: int, d: int, max_n: int = 8) -> int:
    """Exact A(n, d): the largest binary code of length n, distance >= d.

    Branch-and-bound maximum clique on words of weight >= d (translation
    invariance fixes 0 into the code, so A = 1 + max clique among the
    remaining mutually-distant words).  Default budget stops at n = 8;
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
    verts = [v for v in range(1, 1 << n) if v.bit_count() >= d]
    if not verts:
        return 1
    V = len(verts)
    neigh = [0] * V
    for a in range(V):
        for b in range(a + 1, V):
            if (verts[a] ^ verts[b]).bit_count() >= d:
                neigh[a] |= 1 << b
                neigh[b] |= 1 << a
    return 1 + _kernels.max_clique(neigh)
