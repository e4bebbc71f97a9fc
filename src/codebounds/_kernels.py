"""Hot numeric kernels: codeword weight enumeration and maximum clique.

The weight scan histograms the span of k generator rows by message index.
Each index splits into a low part (its first min(k, 13) bits) and a high
part; both parts index tables of XOR combinations of the matching rows.
The tables are limb-major, shape (ceil(n/64), 2^bits): row j holds 64-bit
limb j of every combination, so for each high-part entry the scan XORs
contiguous limb rows of the low table with one scalar per limb, popcounts
them into per-word weights (for n > 64 through a uint8 buffer whose limb
rows are added up) and histograms those.  Every step writes into buffers
allocated once per call.  The weights are summed in the smallest unsigned
dtype that holds n, so a weight never wraps.  ``layer_minima`` builds the
same two tables, split at min(13, ceil(k/2)) bits and with their columns
sorted by message popcount, to find the least weight of each
message-weight layer of a span without enumerating the others.  The clique
search is a branch and bound over python-int bitsets with a
greedy-colouring bound (Östergård, "A fast algorithm for the maximum
clique problem", 2002).
"""

from __future__ import annotations

import math

import numpy as np

# message bits covered by the low span table: 2^13 rows per numpy call
_LOW_BITS = 13


# ---------------------------------------------------------------------------
# weight enumeration


def pack_rows(rows: list[int], n: int) -> np.ndarray:
    """Pack n-bit int rows into a read-only (k, ceil(n/64)) uint64 array.

    One ``to_bytes`` per row: its little-endian bytes are limbs 0, 1, ...
    """
    words = max(1, (n + 63) >> 6)
    data = b"".join(row.to_bytes(8 * words, "little") for row in rows)
    return np.frombuffer(data, dtype="<u8").reshape(len(rows), words)


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
        _word_weights(block[:, :width], bits[:, :width], wts[:width])
        counts += np.bincount(wts[:width], minlength=n + 1)
    return counts


def _word_weights(block: np.ndarray, bits: np.ndarray,
                  wts: np.ndarray) -> None:
    """Weights of the words of a limb-major block, written into ``wts``.

    The limbs run along axis -2 of ``block`` and ``bits``; ``wts`` has the
    shape of ``block`` without that axis.  One limb is popcounted straight
    into ``wts``; wider words go through the uint8 ``bits`` buffer and are
    summed over limbs.
    """
    if block.shape[-2] == 1:
        np.bitwise_count(block, out=wts[..., None, :])
    else:
        np.bitwise_count(block, out=bits)
        np.add.reduce(bits, axis=-2, dtype=wts.dtype, out=wts)


def _popcount_order(bits: int, last: int) -> tuple[np.ndarray, list[int]]:
    """Indices in [0, 2^bits) of popcount <= last, sorted by popcount.

    Returns the indices and the offsets: the indices of popcount i <= last
    are entries [at[i], at[i + 1]).
    """
    ones = np.bitwise_count(np.arange(1 << bits, dtype=np.uint64))
    order = np.argsort(ones, kind="stable")[:np.count_nonzero(ones <= last)]
    at = np.concatenate(([0], np.cumsum(np.bincount(ones))))
    return order, at.tolist()


def _layer_split(k: int) -> int:
    """Message bits in the low span table of ``layer_minima``."""
    return min(_LOW_BITS, (k + 1) // 2)


def layer_words(k: int, t: int, last: int) -> int:
    """Words ``layer_minima`` forms on t generators of k rows to message
    weight ``last`` (1..last), their two span tables each included."""
    k_lo = _layer_split(k)
    tables = (1 << k_lo) + (1 << (k - k_lo))
    return t * (tables + sum(math.comb(k, w) for w in range(1, last + 1)))


def layer_minima(gens: list[list[int]], n: int, last: int | None = None):
    """Least weights of the spans of t generators by message weight.

    Yields, for w = 1, 2, ..., last (k when None) and within each w for
    every generator in turn, the least weight among that generator's
    codewords whose message has exactly w ones.  All generators have k
    rows.  Nothing is computed before the first ``next``.  The messages
    split into a low part (the first min(13, ceil(k/2)) bits) and a high
    part, as in ``weight_scan``; each generator's two span tables keep
    only the columns of message popcount <= last, sorted by popcount, and
    are stacked (generator j holds limb rows j*limbs .. (j+1)*limbs - 1).
    So the weight-w words are the XORs of the low columns of weight w - h
    with the high columns of weight h, for each h.  These products are
    formed in blocks of at most 2^13 words, each weight for as many
    generators at once as fit in one block (at least one); the next batch
    is computed only when its first value is asked for.
    """
    t, k = len(gens), len(gens[0])
    last = k if last is None else last
    k_lo = _layer_split(k)
    low_order, low_at = _popcount_order(k_lo, last)
    high_order, high_at = _popcount_order(k - k_lo, last)
    packed = [pack_rows(rows, n) for rows in gens]
    low = np.concatenate([_span_table(p[:k_lo])[:, low_order] for p in packed])
    high = np.concatenate([_span_table(p[k_lo:])[:, high_order]
                           for p in packed])
    limbs = low.shape[0] // t
    size = 1 << _LOW_BITS
    block = np.empty(limbs * size, dtype=np.uint64)
    bits = np.empty(limbs * size, dtype=np.uint8)
    wts = np.empty(size, dtype=np.min_scalar_type(n))

    def minima(first: int, count: int, w: int) -> list[int]:
        """Least weight-w word of each of generators first .. first+count-1;
        count * C(k_lo, l) <= 2^13 for every low weight l = w - h."""
        part = slice(first * limbs, (first + count) * limbs)
        least = np.full(count, n, dtype=wts.dtype)
        for h in range(max(0, w - k_lo), min(w, k - k_lo) + 1):
            lo = low[part, None, low_at[w - h]:low_at[w - h + 1]]
            nl = lo.shape[2]
            step = size // (count * nl)
            for b in range(high_at[h], high_at[h + 1], step):
                hi = high[part, b:min(b + step, high_at[h + 1]), None]
                width = hi.shape[1] * nl
                shape = (count, limbs, width)
                words = block[:count * limbs * width]
                np.bitwise_xor(hi, lo, out=words.reshape(hi.shape[:2] + (nl,)))
                weights = wts[:count * width].reshape(count, width)
                _word_weights(words.reshape(shape),
                              bits[:words.size].reshape(shape), weights)
                np.minimum(least, weights.min(axis=1), out=least)
        return least.tolist()

    for w in range(1, last + 1):
        # C(k, min(w, k // 2)) bounds both C(k, w) and every C(k_lo, l)
        batch = max(1, size // math.comb(k, min(w, k // 2)))
        for first in range(0, t, batch):
            yield from minima(first, min(batch, t - first), w)


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


def max_clique(neighbors: list[int]) -> int:
    """Exact maximum clique size of a graph given as int-bitmask adjacency.

    Vertices are relabeled in descending degree order first; that ordering
    feeds both the greedy seed and the coloring quality.  The search is a
    branch and bound with a greedy-coloring bound on python-int bitsets.
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
    best = _greedy_clique(neigh, list(range(V)))

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

    expand((1 << V) - 1, 0)
    return best
