"""Exact arithmetic on the n + 1 weight shells of the cube F_2^n.

The shell sizes C(n, i), the edge counts between neighbouring shells, and
the Krawtchouk values K_w(t) (Delsarte 1973; MacWilliams-Sloane ch. 5 §7),
all as Python ints.  A leaf module: it imports nothing from the package.
"""

from __future__ import annotations

from operator import index


def shell_weights(n: int, length: int) -> tuple[list[int], list[int]]:
    """C(n, i) for i < length, and 2 C(n, i)(n - i) for i < length - 1: the
    weights of a radial vector's squared norm and of its edge sum, by the
    recurrence C(n, i+1) = C(n, i)(n - i)/(i + 1).  n and length go through
    ``operator.index``; a negative n raises ValueError."""
    n, length = index(n), index(length)
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    binoms, edges = [1], []
    for i in range(length - 1):
        edge = binoms[i] * (n - i)             # C(n, i) * (n - i)
        edges.append(2 * edge)
        binoms.append(edge // (i + 1))         # C(n, i+1), exact
    return binoms, edges


def values(n: int, r: int) -> list[list[int]]:
    """K_w(t) for w = 0..r and t = 0..n, exact, by the recurrence
    (w + 1) K_{w+1}(t) = (n - 2t) K_w(t) - (n - w + 1) K_{w-1}(t) from
    K_0 = 1 and K_1(t) = n - 2t; every division is exact.  Column t = 0
    holds C(n, w).  n and r go through ``operator.index``; ValueError
    unless 0 <= r <= n."""
    n, r = index(n), index(r)
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got r = {r}, n = {n}")
    rows = [[1] * (n + 1), [n - 2 * t for t in range(n + 1)]]
    for w in range(1, r):
        rows.append([((n - 2 * t) * k - (n - w + 1) * j) // (w + 1)
                     for t, (k, j) in enumerate(zip(rows[w], rows[w - 1]))])
    return rows[:r + 1]
