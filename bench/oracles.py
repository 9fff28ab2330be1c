"""Reference computations that the benchmark checks evolvekit against.

None of these call evolvekit.  Each has a second, independent oracle where
the two overlap; ``test_bench.py`` holds them to each other.

* ``simplex_vertices``: the direction simplex from its documented
  coordinate formula, used to build inputs and to test membership.
* ``closed_form_density``: the endpoint density evaluated in arbitrary
  precision with ``mpmath``, written from the paper's closed form in the
  barycentric sojourn variables (hyper-Bessel slices as ``0F_n`` series).
* ``telegraph_density``: the n = 1 density through exponentially scaled
  Bessel functions (``scipy.special.ive``), finite for every lambda*t.
* ``poisson_tail``: P{N(t) >= n} = gammainc(n, lambda*t), and
  ``poisson_tail_direct``, the same tail summed term by term.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.special import gammainc, ive


def simplex_vertices(n: int) -> np.ndarray:
    """Unit directions tau_0..tau_n of the cyclic motion, shape (n+1, n).

    Component j (1-based) of tau_i is -sqrt(n(n+1)/((n-j+1)(n-j+2)))/n for
    j < i+1, sqrt((n+1)(n-i)/(n(n-i+1))) for j = i+1 and 0 beyond.
    """
    V = np.zeros((n + 1, n))
    for i in range(n + 1):
        for j in range(1, min(i + 1, n) + 1):
            if j < i + 1:
                V[i, j - 1] = -math.sqrt(n * (n + 1) / ((n - j + 1) * (n - j + 2))) / n
            else:
                V[i, j - 1] = math.sqrt((n + 1) * (n - i) / (n * (n - i + 1)))
    return V


def simplex_volume(n: int, vt: float) -> float:
    """Volume of the simplex with vertices vt * tau_i, from a determinant."""
    V = vt * simplex_vertices(n)
    return abs(float(np.linalg.det(V[1:] - V[0]))) / math.factorial(n)


def barycentric(n: int, x: np.ndarray, vt: float) -> np.ndarray:
    """Weights w with x = vt * sum_r w_r tau_r and sum_r w_r = 1, shape (N, n+1)."""
    return (1.0 + (n / vt) * (np.asarray(x) @ simplex_vertices(n).T)) / (n + 1)


def closed_form_density(n: int, lam: float, v: float, t: float, w) -> float:
    """Endpoint density at the point with barycentric weights ``w`` (all > 0).

    f = prefactor exp(-lam t) lam^n / (n+1) * sum_m e_m(u) h_(n+1-m)(p), with
    u = lam t w, p = prod u, e_m the cyclic-window sums of products of m
    consecutive u's (e_0 = n+1) and h_b(p) = 0F_n(; 1^(b-1), 2^(n+1-b); p).
    """
    with mpmath.workdps(40):
        lt = mpmath.mpf(lam) * mpmath.mpf(t)
        u = [lt * mpmath.mpf(float(wr)) for wr in w]
        p = mpmath.fprod(u)
        total = mpmath.mpf(0)
        for m in range(n + 1):
            if m == 0:
                e = mpmath.mpf(n + 1)
            else:
                e = mpmath.fsum(
                    mpmath.fprod(u[(i + j) % (n + 1)] for j in range(m)) for i in range(n + 1)
                )
            b = n + 1 - m
            total += e * mpmath.hyper([], [1] * (b - 1) + [2] * (n + 1 - b), p)
        prefactor = mpmath.sqrt(n) ** n / (mpmath.sqrt(n + 1) ** (n + 1) * mpmath.mpf(v) ** n)
        return float(prefactor * mpmath.exp(-lt) * mpmath.mpf(lam) ** n / (n + 1) * total)


def telegraph_density(x, t: float, lam: float, v: float) -> np.ndarray:
    """Density of the symmetric telegraph process at |x| < vt.

    exp(-lam t)/(2v) * (lam I0(xi) + lam v t I1(xi)/r) with r = sqrt(v^2 t^2 - x^2)
    and xi = lam r / v, written with ive so that nothing overflows.
    """
    x = np.asarray(x, dtype=float)
    r = np.sqrt(v * v * t * t - x * x)
    xi = (lam / v) * r
    scale = np.exp(xi - lam * t)
    return scale / (2.0 * v) * (lam * ive(0, xi) + lam * v * t * ive(1, xi) / r)


def poisson_tail(n: int, lt: float) -> float:
    """P{Poisson(lt) >= n}, the mass of the absolutely continuous part."""
    return float(gammainc(n, lt))


def poisson_tail_direct(n: int, lt: float) -> float:
    """P{Poisson(lt) >= n} as math.fsum of the upper-tail terms."""
    terms = []
    k = n
    while True:
        term = math.exp(k * math.log(lt) - lt - math.lgamma(k + 1))
        terms.append(term)
        if k > lt and term < 1e-20 * math.fsum(terms):
            return math.fsum(terms)
        k += 1
