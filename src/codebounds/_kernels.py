"""Hot numeric kernels: codeword weight enumeration and maximum clique.

The weight scan histograms the span of k generator rows by message index.
Each index splits into a low part (its first min(k, 13) bits) and a high
part; both parts index tables of XOR combinations of the matching rows.
The tables are limb-major, shape (ceil(n/64), 2^bits): row j holds 64-bit
limb j of every combination, so for each high-part entry the scan XORs
contiguous limb rows of the low table with one scalar per limb, popcounts
them, adds the limb rows into per-word weights and histograms those.  All
four steps write into buffers allocated once per call.  The weights are
summed in the smallest unsigned dtype that holds n, so a weight never
wraps.  The clique search is a branch and bound over python-int bitsets
with a greedy-colouring bound (Östergård, "A fast algorithm for the
maximum clique problem", 2002).
"""

from __future__ import annotations

import numpy as np

# message bits covered by the low span table: 2^13 rows per numpy call
_LOW_BITS = 13


# ---------------------------------------------------------------------------
# weight enumeration


def pack_rows(rows: list[int], n: int) -> np.ndarray:
    """Pack n-bit int rows into a (k, ceil(n/64)) uint64 array."""
    words = max(1, (n + 63) >> 6)
    out = np.zeros((len(rows), words), dtype=np.uint64)
    mask = (1 << 64) - 1
    for i, row in enumerate(rows):
        for w in range(words):
            out[i, w] = (row >> (64 * w)) & mask
    return out


def _span_table(rows: np.ndarray) -> np.ndarray:
    """All 2^k XOR combinations of k packed rows, limb-major.

    Returns shape (limbs, 2^k): column m is the combination selected by the
    bits of m.  Each generator row doubles the filled columns in place.
    """
    table = np.zeros((rows.shape[1], 1 << len(rows)), dtype=np.uint64)
    for i, row in enumerate(rows):
        half = 1 << i
        np.bitwise_xor(table[:, :half], row[:, None],
                       out=table[:, half:2 * half])
    return table


def weight_scan(rows: list[int], n: int, start: int = 0,
                stop: int | None = None) -> np.ndarray:
    """Weight histogram over a message range.

    Enumerates codewords sum(m_i * rows[i]) for message indices in
    [start, stop) and returns their int64 weight histogram of length n+1.
    Rows must fit in n bits.  The full code is [0, 2^k); histograms of
    disjoint ranges add elementwise, which is how the full scan in
    ``distance`` shards the range across threads.

    Both span tables are limb-major (see the module docstring), and the
    per-word weights are summed over limbs in ``np.min_scalar_type(n)``,
    the smallest unsigned dtype that holds n (uint8 only for n <= 255).
    The work buffers belong to this call, so concurrent calls share
    nothing.
    """
    k = len(rows)
    if stop is None:
        stop = 1 << k
    packed = pack_rows(rows, n)
    k_lo = min(k, _LOW_BITS)
    low = _span_table(packed[:k_lo])
    high = _span_table(packed[k_lo:])
    size = 1 << k_lo
    acc = np.min_scalar_type(n)
    block = np.empty_like(low)
    bits = np.empty(low.shape, dtype=np.uint8)
    wts = np.empty(size, dtype=acc)
    counts = np.zeros(n + 1, dtype=np.int64)
    for prefix in range(start >> k_lo, (stop + size - 1) >> k_lo):
        base = prefix << k_lo
        a, b = max(0, start - base), min(size, stop - base)
        width = b - a
        np.bitwise_xor(low[:, a:b], high[:, prefix:prefix + 1],
                       out=block[:, :width])
        np.bitwise_count(block[:, :width], out=bits[:, :width])
        np.add.reduce(bits[:, :width], axis=0, dtype=acc, out=wts[:width])
        counts += np.bincount(wts[:width], minlength=n + 1)
    return counts


# ---------------------------------------------------------------------------
# maximum clique


def _greedy_clique(neigh: list[int], order: list[int]) -> int:
    """Greedy clique along a vertex order; cheap incumbent seed."""
    common = (1 << len(neigh)) - 1
    size = 0
    for v in order:
        if common >> v & 1:
            size += 1
            common &= neigh[v]
    return size


def _max_clique_py(neigh: list[int], best: int) -> int:
    """Branch and bound with greedy-coloring bound, python-int bitsets."""
    V = len(neigh)

    def color_sort(cand: int) -> tuple[list[int], list[int]]:
        order: list[int] = []
        bound: list[int] = []
        color = 0
        while cand:
            color += 1
            avail = cand
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= ~(1 << v) & ~neigh[v]
                cand &= ~(1 << v)
                order.append(v)
                bound.append(color)
        return order, bound

    def expand(cand: int, size: int) -> None:
        nonlocal best
        order, bound = color_sort(cand)
        for i in range(len(order) - 1, -1, -1):
            if size + bound[i] <= best:
                return
            v = order[i]
            cand &= ~(1 << v)
            sub = cand & neigh[v]
            if sub:
                expand(sub, size + 1)
            elif size + 1 > best:
                best = size + 1
        return

    expand((1 << V) - 1, 0)
    return best


def max_clique(neighbors: list[int], lower_bound: int = 0) -> int:
    """Exact maximum clique size of a graph given as int-bitmask adjacency.

    ``lower_bound`` seeds the incumbent (the search only has to certify it
    cannot be beaten, or beat it).  Vertices are relabeled in descending
    degree order first; that ordering feeds both the greedy seed and the
    coloring quality.
    """
    V = len(neighbors)
    if V == 0:
        return 0
    by_degree = sorted(range(V), key=lambda v: -neighbors[v].bit_count())
    relabel = {old: new for new, old in enumerate(by_degree)}
    neigh = [0] * V
    for old, new in relabel.items():
        mask = neighbors[old]
        acc = 0
        while mask:
            u = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            acc |= 1 << relabel[u]
        neigh[new] = acc
    seed = max(lower_bound, _greedy_clique(neigh, list(range(V))))
    return _max_clique_py(neigh, seed)
