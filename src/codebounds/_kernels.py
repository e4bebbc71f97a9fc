"""Hot numeric kernels: codeword weight enumeration and maximum clique.

The weight scan enumerates the span of k generator rows by message index.
Each index splits into a low part (its first min(k, 13) bits) and a high
part; both parts index tables of XOR combinations of the matching rows.
The tables are limb-major, shape (ceil(n/64), 2^bits): row j holds 64-bit
limb j of every combination, so for each high-part entry the scan XORs
contiguous limb rows of the low table with one scalar per limb and
popcounts them into per-word weights (for n > 64 through a uint8 buffer
whose limb rows are added up).  Every step writes into buffers allocated
once per call.  The weights are summed in the smallest unsigned dtype
that holds n, so a weight never wraps.  The scan has one mode: the
cosets rep + span(rows), each rep XORed into the high table, where a
full scan is the one coset of the zero word.  A block is 2^13 words: the
low table XORed with as many high columns as fit, so many reps over a
few rows share a block; with no rows, the reps' own weights are the one
block, and no table is built.  One block loop feeds two reductions:
``weight_scan`` histograms each block, each word counting its rep's
multiplicity when given one, in int64 throughout, and ``least_weight``
keeps only its least weight, which is all a minimum distance needs.
``layer_minima`` builds the same two tables, split at min(13, ceil(k/2))
bits and with their columns sorted by message popcount, to find the
least weight of each message-weight layer of a span without enumerating
the others.  ``scan_price`` and ``search_price`` price the two routes to
a minimum distance in one unit, the limbs of the words they form plus a
fixed charge per block and per information set.  The clique search is a
branch and bound over python-int bitsets with a greedy-colouring bound
(Östergård, "A fast algorithm for the maximum clique problem", 2002).
"""

from __future__ import annotations

import functools
import math
from itertools import accumulate

import numpy as np

# message bits covered by the low span table: 2^13 rows per numpy call
_LOW_BITS = 13


# ---------------------------------------------------------------------------
# weight enumeration


def _limbs(n: int) -> int:
    """64-bit limbs of an n-bit word, at least one."""
    return max(1, (n + 63) >> 6)


def pack_rows(rows: list[int], n: int) -> np.ndarray:
    """Pack n-bit int rows into a read-only (k, ceil(n/64)) uint64 array.

    One ``to_bytes`` per row: its little-endian bytes are limbs 0, 1, ...
    """
    words = _limbs(n)
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


def _weight_blocks(rows: list[int], n: int, start: int = 0,
                   stop: int | None = None, reps: np.ndarray | None = None):
    """The weights of the words of messages [start, stop), by block.

    Message r * 2^k + m is reps[r] + (the word of m in span(rows)), each
    rep XORed into the high table's columns only.  ``reps`` is packed as
    ``pack_rows`` packs words; a missing one is the zero word alone, which
    makes the messages the span's 2^k codewords.
    Yields (first message, weights) for each run of consecutive messages
    in one block; the weights are a view of a buffer that the next block
    overwrites.  A block holds 2^13 words: the low table XORed with as
    many consecutive high columns as fit, one when k >= 13, so thousands
    of reps over a few rows take a few blocks.  With no rows the messages
    are the reps themselves, and their weights are the one block, read
    off the packed reps with no span table, XOR or block buffer.  Both
    span tables are limb-major (see the module docstring), and the
    per-word weights are summed over limbs in ``np.min_scalar_type(n)``,
    the smallest unsigned dtype that holds n (uint8 only for n <= 255).
    ``stop`` defaults to the message count; a range outside
    0 <= start <= stop <= that count raises ``ValueError`` before any
    table is built.
    """
    reps = np.zeros((1, _limbs(n)), np.uint64) if reps is None else reps
    total = len(reps) << len(rows)
    stop = total if stop is None else stop
    if not 0 <= start <= stop <= total:
        raise ValueError(f"message range [{start}, {stop}) is not a range "
                         f"inside the {total} messages [0, {total})")
    dtype = np.min_scalar_type(n)
    if not rows:
        # message r is reps[r] itself: the reps' weights are the one block
        words = reps[start:stop].T
        wts = np.empty(words.shape[1], dtype=dtype)
        _word_weights(words, np.empty(words.shape, dtype=np.uint8), wts)
        yield start, wts
        return
    packed = pack_rows(rows, n)
    k_lo = min(len(rows), _LOW_BITS)
    low = _span_table(packed[:k_lo])
    high = _span_table(packed[k_lo:])
    # column r * 2^(k - k_lo) + j is rep r XOR column j
    high = np.bitwise_xor(high[:, None], reps.T[:, :, None])
    high = high.reshape(len(high), -1)
    # high columns per block: as many as fit in 2^13 words, and no more
    # than the range holds
    size, begin, end = 1 << k_lo, start >> k_lo, -(-stop >> k_lo)
    per = min(1 << (_LOW_BITS - k_lo), end - begin)
    block = np.empty((len(low), per * size), dtype=np.uint64)
    bits = np.empty(block.shape, dtype=np.uint8)
    wts = np.empty(per * size, dtype=dtype)
    # column c of block3 is the low table XOR one high column
    block3, low, span = block.reshape(len(low), per, size), low[:, None], None
    for first in range(begin, end, max(per, 1)):
        columns = high[:, first:first + per, None]
        if columns.shape[1] != span:        # only at the last block
            span = columns.shape[1]
            views = (block3[:, :span], block[:, :span * size],
                     bits[:, :span * size], wts[:span * size])
        np.bitwise_xor(low, columns, out=views[0])
        _word_weights(*views[1:])
        base = first << k_lo
        if start <= base and base + span * size <= stop:
            yield base, views[3]
        else:                               # only at the range's ends
            a, b = max(0, start - base), min(span * size, stop - base)
            yield base + a, views[3][a:b]


def reps_per_call(n: int, k: int) -> int:
    """Reps of n bits over k rows that one ``weight_scan`` or
    ``least_weight`` call takes at most: their limbs, and their columns in
    the high span table, stay within 2^21 limbs (16 MiB)."""
    return max(1, (1 << 21) // (_limbs(n) << max(0, k - _LOW_BITS)))


def weight_scan(rows: list[int], n: int, start: int = 0,
                stop: int | None = None, reps: np.ndarray | None = None,
                multiplicity: np.ndarray | None = None) -> np.ndarray:
    """Weight histogram over a message range.

    The int64 weight histogram, of length n+1, of the words of messages
    [start, stop) as ``_weight_blocks`` numbers them: the span's codewords,
    or with the prefix words of an orbit plan as ``reps`` (packed) the
    cosets rep + span(rows).  With ``multiplicity``, ints aligned
    with ``reps``, each word of rep r's coset counts multiplicity[r]
    times: a block of one rep adds multiplicity[r] times its plain
    histogram, a block of several adds each word's multiplicity at its
    weight, all in int64, so every count below 2^63 is exact.  Rows and
    reps must fit in n bits.  Histograms of disjoint ranges add
    elementwise.  The package itself scans whole
    ranges; ``start`` and ``stop`` stay because the benchmark's tracer
    binds them by name to count the words of each call.
    """
    counts = np.zeros(n + 1, dtype=np.int64)
    k = len(rows)
    for first, wts in _weight_blocks(rows, n, start, stop, reps):
        if multiplicity is None:
            counts += np.bincount(wts, minlength=n + 1)
            continue
        # message first + i is a word of rep (first + i) >> k
        lo, hi = first >> k, (first + len(wts) - 1) >> k
        if lo == hi:
            counts += multiplicity[lo] * np.bincount(wts, minlength=n + 1)
        else:
            each = np.repeat(multiplicity[lo:hi + 1], 1 << k)
            np.add.at(counts, wts, each[first - (lo << k):][:len(wts)])
    return counts


def least_weight(rows: list[int], n: int,
                 reps: np.ndarray | None = None) -> int:
    """Least word weight over all the cosets rep + span(rows).

    The same blocks as ``weight_scan`` over all its messages, each reduced
    by its minimum instead of a histogram; message 0 is left out when it
    is the zero word (when reps is missing or reps[0] is 0).  Returns
    n + 1 when no other message is left, so the least weights of calls
    combine by ``min``.
    """
    least = n + 1
    zero_first = reps is None or not reps[:1].any()
    for first, wts in _weight_blocks(rows, n, reps=reps):
        if first == 0 and zero_first:
            wts = wts[1:]
        if wts.size:
            least = min(least, int(wts.min()))
    return least


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
    at = list(accumulate((math.comb(bits, i) for i in range(bits + 1)),
                         initial=0))
    ones = np.bitwise_count(np.arange(1 << bits, dtype=np.uint64))
    return np.argsort(ones, kind="stable")[:at[min(last, bits) + 1]], at


def _layer_split(k: int) -> int:
    """Message bits in the low span table of ``layer_minima``."""
    return min(_LOW_BITS, (k + 1) // 2)


def layer_words(k: int, t: int, last: int) -> int:
    """Words ``layer_minima`` forms on t generators of k rows to message
    weight ``last`` (1..last), their two span tables each included."""
    k_lo = _layer_split(k)
    tables = (1 << k_lo) + (1 << (k - k_lo))
    return t * (tables + sum(math.comb(k, w) for w in range(1, last + 1)))


@functools.cache
def _layer_products(k: int, w: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """How ``layer_minima`` forms the message-weight-w words of k rows: the
    generators per batch, and for each high weight h the counts of low and
    high span-table columns it XORs, C(k_lo, w - h) and C(k - k_lo, h)."""
    k_lo = _layer_split(k)
    # C(k, min(w, k // 2)) bounds both C(k, w) and every C(k_lo, l)
    batch = max(1, (1 << _LOW_BITS) // math.comb(k, min(w, k // 2)))
    return batch, tuple((math.comb(k_lo, w - h), math.comb(k - k_lo, h))
                        for h in range(max(0, w - k_lo), min(w, k - k_lo) + 1))


@functools.cache
def _batch_blocks(k: int, w: int, count: int) -> int:
    """Blocks ``layer_minima`` forms for one batch of ``count`` generators
    at message weight w: one per step of its innermost loop."""
    size = 1 << _LOW_BITS
    return sum(-(-high // (size // (count * low)))
               for low, high in _layer_products(k, w)[1]) if count else 0


def layer_blocks(k: int, t: int, last: int) -> int:
    """Blocks of words ``layer_minima`` forms on t generators of k rows to
    message weight ``last``: t // batch full batches per weight, then one
    of the t % batch generators left."""
    blocks = 0
    for w in range(1, last + 1):
        batch = _layer_products(k, w)[0]
        blocks += (t // batch * _batch_blocks(k, w, batch)
                   + _batch_blocks(k, w, t % batch))
    return blocks


# Route prices, in limbs of the words the full scan forms.  A word of
# either kernel costs its ceil(n/64) limbs, 3/2 as much in
# ``layer_minima``'s outer-product XOR; a block of the full scan costs
# 2^11 limbs, one of ``layer_minima`` 2^13, and an information set (its
# Gauss-Jordan split and its two span tables) 2^16.
_SCAN_BLOCK = 1 << 11
_SEARCH_BLOCK = 1 << 13
_SET = 1 << 16


def scan_price(k: int, n: int) -> int:
    """Price of ``least_weight`` over all 2^k messages of k rows of n bits,
    its two span tables included."""
    k_lo = min(k, _LOW_BITS)
    words = (1 << k) + (1 << k_lo) + (1 << (k - k_lo))
    return words * _limbs(n) + _SCAN_BLOCK * -(-(1 << k) >> _LOW_BITS)


def search_price(k: int, n: int, t: int, last: int) -> int:
    """Price of ``layer_minima`` on t generators of k rows of n bits to
    message weight ``last``, with the split of each one's information set;
    it grows with t and with ``last``."""
    return (3 * layer_words(k, t, last) * _limbs(n) // 2
            + _SEARCH_BLOCK * layer_blocks(k, t, last) + _SET * t)


def layer_minima(gens: list[list[int]], n: int, last: int):
    """Least weights of the spans of t generators by message weight.

    Yields, for w = 1, 2, ..., last and within each w for
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
        batch = _layer_products(k, w)[0]
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
