"""Ground-truth engines: exhaustive distance/weight data and exact A(n, d).

Linear-code statistics come from enumerating all 2^k codewords with the
numpy span-table scan in ``_kernels`` (one XOR and popcount per word).
A(n, d) for tiny n is a maximum-clique search over the graph of n-bit words
with pairwise distance >= d, with the zero word fixed into the code.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .cyclic import ConstructionSpec


class BudgetExceeded(RuntimeError):
    """Requested computation exceeds its default size budget."""


@dataclass(frozen=True)
class WeightDistribution:
    """Histogram of codeword weights, index = weight, length n + 1."""

    n: int
    k: int
    counts: tuple[int, ...]

    @property
    def min_distance(self) -> int:
        for w in range(1, self.n + 1):
            if self.counts[w]:
                return w
        raise ValueError("code has a single codeword")


def _scan_rows(rows: list[int], n: int, workers: int = 1):
    """Full-code weight scan, optionally sharded across threads.

    Shards partition the message range; each returns (min weight, histogram)
    and the results merge by min / elementwise sum, so the outcome does not
    depend on worker count or completion order.  Raises ``ValueError`` for a
    row that is negative or does not fit in n bits.
    """
    for i, row in enumerate(rows):
        if row < 0 or row >> n:
            raise ValueError(
                f"generator row {i} ({row:#x}) does not fit in n = {n} bits")
    k = len(rows)
    total = 1 << k
    workers = max(1, min(workers, total))
    if workers == 1:
        best, counts = _kernels.weight_scan(rows, n, 0, total)
        return best, counts
    bounds = [total * i // workers for i in range(workers + 1)]
    shards = [(bounds[i], bounds[i + 1]) for i in range(workers)
              if bounds[i] < bounds[i + 1]]
    with ThreadPoolExecutor(max_workers=len(shards)) as pool:
        results = list(pool.map(
            lambda se: _kernels.weight_scan(rows, n, se[0], se[1]), shards))
    best = min(r[0] for r in results)
    counts = np.sum([r[1] for r in results], axis=0)
    return best, counts


def min_distance_of_rows(rows: list[int], n: int, max_k: int = 24,
                         workers: int = 1) -> int:
    """Minimum nonzero codeword weight of the span of ``rows``."""
    if len(rows) > max_k:
        raise BudgetExceeded(
            f"k = {len(rows)} exceeds enumeration budget {max_k}; "
            "pass a larger max_k to override")
    best, _ = _scan_rows(rows, n, workers)
    if best >= 1 << 30:
        raise ValueError("code has no nonzero codeword")
    return best


def min_distance(spec: ConstructionSpec, max_k: int = 24,
                 workers: int = 1) -> int:
    """Exact minimum distance of a constructed code by full enumeration."""
    return min_distance_of_rows(spec.generator_rows(), spec.n, max_k, workers)


def weight_distribution_of_rows(rows: list[int], n: int, max_k: int = 20,
                                workers: int = 1) -> WeightDistribution:
    """Full weight histogram of the span of ``rows`` (2^k enumeration)."""
    if len(rows) > max_k:
        raise BudgetExceeded(
            f"k = {len(rows)} exceeds histogram budget {max_k}; "
            "pass a larger max_k to override")
    _, counts = _scan_rows(rows, n, workers)
    return WeightDistribution(n, len(rows), tuple(int(x) for x in counts))


def weight_distribution(spec: ConstructionSpec, max_k: int = 20,
                        workers: int = 1) -> WeightDistribution:
    """Full weight histogram of a constructed code (2^k enumeration)."""
    return weight_distribution_of_rows(spec.generator_rows(), spec.n,
                                       max_k, workers)


def distance_report(spec: ConstructionSpec, max_k: int = 24,
                    workers: int = 1) -> dict:
    """CLI-facing summary of a distance verification run."""
    t0 = time.perf_counter()
    d = min_distance(spec, max_k=max_k, workers=workers)
    return {
        "n": spec.n,
        "k": spec.k,
        "d_min": d,
        "designed_distance": spec.designed_distance,
        "meets_theorem1": d >= spec.designed_distance,
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
