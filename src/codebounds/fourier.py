"""Fourier analysis on F_2^n (dense, n <= 16) and the covering-bound replay.

Functions on the cube are dense tables of length 2^n indexed by the point's
integer bitmask.  Identity checks run in exact rational arithmetic; the
covering replay is numeric by nature (a square root and a Perron vector
enter) and uses floats with a relative tolerance.

Two transform normalizations appear, and both are real:
``wht_unnormalized`` is the butterfly u(f)(z) = sum_x f(x) (-1)^<x,z>, which
satisfies u(u(f)) = 2^n f; ``wht`` divides by 2^n and matches the
inner-product convention <f, g> = E[f g], under which E f = wht(f)[0] and
Parseval reads <f, g> = sum_z wht(f)(z) wht(g)(z).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .bounds import vol
from .spectrum import ball_operator, radial_vector, top_eigenvalue

_REL_TOL = 1e-9  # replay steps are float; each may miss by this much


class DimensionMismatch(ValueError):
    """Operands live on cubes of different dimension."""


class ChainViolation(ArithmeticError):
    """A replay inequality failed beyond tolerance (implementation bug)."""


def _dim(values) -> int:
    n = len(values).bit_length() - 1
    if len(values) != 1 << n:
        raise DimensionMismatch(f"table length {len(values)} not a power of 2")
    return n


def wht_unnormalized(values: list) -> list:
    """Butterfly transform u(f)(z) = sum_x f(x) (-1)^<x,z>; u(u(f)) = 2^n f.

    Exact for int/Fraction inputs; works elementwise for floats too.
    """
    _dim(values)
    out = list(values)
    h = 1
    size = len(out)
    while h < size:
        for start in range(0, size, h * 2):
            for i in range(start, start + h):
                a, b = out[i], out[i + h]
                out[i], out[i + h] = a + b, a - b
        h *= 2
    return out


def wht(values: list) -> list:
    """Normalized transform: wht(f)[z] = E[f * chi_z] = u(f)[z] / 2^n."""
    size = len(values)
    u = wht_unnormalized([Fraction(v) if isinstance(v, int) else v
                          for v in values])
    return [v / size for v in u]


def inner(f: list, g: list):
    """<f, g> = E[f g] under the uniform distribution."""
    if len(f) != len(g):
        raise DimensionMismatch(f"{len(f)} vs {len(g)}")
    acc = sum(a * b for a, b in zip(f, g))
    return Fraction(acc, len(f)) if isinstance(acc, int) else acc / len(f)


def convolve(f: list, g: list) -> list:
    """(f * g)(x) = E_y f(y) g(x + y), via u(u(f) . u(g)) / 4^n; exact."""
    if len(f) != len(g):
        raise DimensionMismatch(f"{len(f)} vs {len(g)}")
    size = len(f)
    uf = wht_unnormalized(f)
    ug = wht_unnormalized(g)
    prod = [a * b for a, b in zip(uf, ug)]
    back = wht_unnormalized(prod)
    sq = size * size
    return [Fraction(v, sq) if isinstance(v, int) else v / sq for v in back]


def adjacency_apply(f: list) -> list:
    """Af by direct neighbor summation: (Af)(x) = sum_i f(x xor e_i)."""
    n = _dim(f)
    return [sum(f[x ^ (1 << i)] for i in range(n)) for x in range(len(f))]


def degree_function(n: int) -> list:
    """L with L(x) = 2^n at weight-1 points, else 0; satisfies Af = f * L."""
    return [(1 << n) if x.bit_count() == 1 else 0 for x in range(1 << n)]


def indicator(code, n: int) -> list:
    values = [0] * (1 << n)
    for c in code:
        values[c] = 1
    return values


def _pairwise_min_distance(code: list[int], n: int) -> int:
    """Minimum pairwise Hamming distance; n for codes with < 2 words."""
    if len(code) < 2:
        return n
    best = n
    for i, a in enumerate(code):
        for b in code[i + 1:]:
            w = (a ^ b).bit_count()
            if w < best:
                best = w
    return best


def distance_check(code, n: int, d: int) -> bool:
    """True iff (1_C * 1_C) vanishes on all weights 0 < w < d.

    Computed both spectrally (exact convolution) and by a direct pairwise
    scan; disagreement between the two routes raises, since it can only
    come from an arithmetic bug.
    """
    if n > 16:
        raise DimensionMismatch(f"n = {n} exceeds dense-transform cap 16")
    code = sorted(set(code))
    one_c = indicator(code, n)
    conv = convolve(one_c, one_c)
    spectral = all(conv[x] == 0 for x in range(1 << n)
                   if 0 < x.bit_count() < d)
    direct = _pairwise_min_distance(code, n) >= d
    if spectral != direct:
        raise ChainViolation(
            f"convolution route says {spectral}, pairwise scan says "
            f"{direct} for d = {d}")
    return spectral


def _random_function(rng: random.Random, size: int) -> list:
    # dyadic denominators keep exact arithmetic fast without losing coverage
    dens = (1, 1, 2, 4)
    return [Fraction(rng.randint(-16, 16), rng.choice(dens))
            for _ in range(size)]


def identity_suite(n: int, count: int = 100, seed: int = 0) -> dict:
    """Zero-tolerance transform identities on `count` random rational functions.

    Per function (with its two successors as g, h): u(u(f)) = 2^n f;
    Parseval <f, g> = sum_z wht(f) wht(g); E f = wht(f)[0];
    <f*g, h> = <f, g*h>; and Af = f * L elementwise.  The degree transform
    L-hat(z) = n - 2 w(z) is checked once per dimension.  Raises
    ChainViolation on the first failure.

    Every tenth function carries non-integer dyadic values; each f = F/q is
    cleared to the integer vector F, and since all five identities are
    invariant under scaling by q > 0, the cross-multiplied integer forms
    below are exact verifications of the rational statements (no tolerance
    anywhere).  Every 25th function is additionally replayed through the
    public Fraction interface so that arithmetic path stays exercised.
    """
    if not 1 <= n <= 16:
        raise DimensionMismatch(f"n = {n} outside dense range 1..16")
    rng = random.Random(seed * 1000003 + n)
    size = 1 << n
    big_l = degree_function(n)
    mult = [n - 2 * z.bit_count() for z in range(size)]
    if wht(big_l) != mult:
        raise ChainViolation("degree transform disagrees with n - 2 w(z)")

    funcs: list[tuple[list[int], int]] = []
    for i in range(count):
        if i % 10 == 0:
            vals = _random_function(rng, size)
            q = 1
            for v in vals:
                q = q * v.denominator // math.gcd(q, v.denominator)
            funcs.append(([int(v * q) for v in vals], q))
        else:
            funcs.append(([rng.randint(-16, 16) for _ in range(size)], 1))

    us = [wht_unnormalized(F) for F, _ in funcs]
    # u(U_i . U_{i+1}) appears on both sides of neighboring associativity
    # checks; compute each once
    prods: list[list | None] = [None] * count

    def u_prod(j: int) -> list:
        if prods[j] is None:
            pointwise = [a * b for a, b in zip(us[j], us[(j + 1) % count])]
            prods[j] = wht_unnormalized(pointwise)
        return prods[j]

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    for i, (F, q) in enumerate(funcs):
        U = us[i]
        G = funcs[(i + 1) % count][0]
        H = funcs[(i + 2) % count][0]
        if wht_unnormalized(U) != [size * v for v in F]:
            raise ChainViolation(f"double transform failed (n={n}, i={i})")
        if dot(U, us[(i + 1) % count]) != size * dot(F, G):
            raise ChainViolation(f"Parseval failed (n={n}, i={i})")
        if U[0] != sum(F):
            raise ChainViolation(f"mean identity failed (n={n}, i={i})")
        if dot(u_prod(i), H) != dot(F, u_prod((i + 1) % count)):
            raise ChainViolation(
                f"convolution self-adjointness failed (n={n}, i={i})")
        # u is injective (the double-transform check above proves it on this
        # very input), so Af = f*L iff u(AF) = U . L-hat pointwise
        if wht_unnormalized(adjacency_apply(F)) != \
                [u * m for u, m in zip(U, mult)]:
            raise ChainViolation(
                f"adjacency factorization failed (n={n}, i={i})")
        if i % 25 == 0:
            f = [Fraction(v, q) for v in F]
            g = [Fraction(v, funcs[(i + 1) % count][1]) for v in G]
            h = [Fraction(v, funcs[(i + 2) % count][1]) for v in H]
            wf = wht(f)
            ok = (wht(wf) == [v / size for v in f]
                  and inner(f, g) == sum(a * b for a, b in zip(wf, wht(g)))
                  and wf[0] == sum(f) / size
                  and inner(convolve(f, g), h) == inner(f, convolve(g, h))
                  and adjacency_apply(f) == convolve(f, big_l))
            if not ok:
                raise ChainViolation(
                    f"rational-path replay failed (n={n}, i={i})")
    return {"n": n, "count": count, "pass": True}


def covering_replay(code, r: int, n: int | None = None) -> dict:
    """Numerically replay the eigenvalue covering bound on a concrete code.

    Builds the radial Perron vector of B_r(0, n) extended by zero off the
    ball (checking Af >= lambda f pointwise), the function phi with
    phi_hat = sqrt(1_C * 1_C) >= 0, and F = phi * f, then verifies every
    inequality of the bound's derivation and the final size bound
    |C| <= n/(lambda - (n - 2d)) * |B| with d the measured minimum distance.
    Raises ChainViolation if any step fails beyond tolerance.
    """
    code = sorted(set(code))
    if not code or code[0] != 0:
        raise ValueError("code must be nonempty and contain 0")
    if n is None:
        n = max(1, max(code).bit_length())
    if n > 15:
        raise DimensionMismatch(f"n = {n} exceeds replay cap 15")
    if r > n // 2:
        raise ValueError(f"r = {r} exceeds n/2 = {n // 2}")
    size = 1 << n
    d = _pairwise_min_distance(code, n)
    lam = top_eigenvalue(ball_operator(n, r))

    rad = radial_vector(n, r, lam)
    f = [rad[x.bit_count()] if x.bit_count() <= r else 0.0
         for x in range(size)]
    af = adjacency_apply(f)
    worst = min(af[x] - lam * f[x] for x in range(size))
    scale = max(abs(v) for v in f) * lam
    perron_ok = worst >= -_REL_TOL * scale

    one_c = [float(v) for v in indicator(code, n)]
    conv_cc = convolve(one_c, one_c)
    phi_hat = [math.sqrt(max(0.0, v)) for v in conv_cc]
    phi = wht_unnormalized(phi_hat)          # synthesis: sum_z phi_hat chi_z
    big_f = convolve(phi, f)

    def mean(vals):
        return sum(vals) / size

    def mean_sq(vals):
        return sum(v * v for v in vals) / size

    ef, ef2 = mean(f), mean_sq(f)
    ephi, ephi2 = mean(phi), mean_sq(phi)
    eF, eF2 = mean(big_f), mean_sq(big_f)
    ball = vol(r, n)
    m = len(code)
    afF = inner(adjacency_apply(big_f), big_f)

    def step(name, lhs, rhs, kind):
        if kind == "le":
            ok = lhs <= rhs + _REL_TOL * max(1.0, abs(rhs))
        elif kind == "ge":
            ok = lhs >= rhs - _REL_TOL * max(1.0, abs(rhs))
        else:
            ok = abs(lhs - rhs) <= _REL_TOL * max(1.0, abs(rhs))
        return {"name": name, "lhs": lhs, "rhs": rhs, "pass": bool(ok)}

    steps = [
        {"name": "perron_pointwise", "lhs": worst, "rhs": 0.0,
         "pass": bool(perron_ok)},
        step("support_cauchy", ef * ef, ef2 * ball / size, "le"),
        step("phi_moment_ratio", ephi2 / (ephi * ephi), float(m), "eq"),
        step("AF_lower_estimate", afF, lam * eF2, "ge"),
        step("EF_product_identity", eF * eF, (ephi * ef) ** 2, "eq"),
        step("EF2_product_lower", eF2, ephi2 * ef2 / size, "ge"),
        step("two_estimates", n * ephi ** 2 * ef ** 2,
             (lam - (n - 2 * d)) / size * ephi2 * ef2, "ge"),
    ]
    applicable = lam > n - 2 * d
    bound = n / (lam - (n - 2 * d)) * ball if applicable else math.inf
    steps.append(step("final_bound", float(m), bound, "le"))

    report = {
        "n": n,
        "r": r,
        "d": d,
        "lambda": lam,
        "code_size": m,
        "ball_size": ball,
        "bound": bound,
        "steps": steps,
        "pass": all(s["pass"] for s in steps),
    }
    if not report["pass"]:
        failed = [s["name"] for s in steps if not s["pass"]]
        raise ChainViolation(f"replay steps failed: {failed}; report={report}")
    return report
