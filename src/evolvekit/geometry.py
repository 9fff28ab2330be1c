"""Geometry of the cyclic evolution: direction simplex, reachable set, coordinates.

The motion runs at speed v in R^n and cycles through n+1 unit directions
tau_0, ..., tau_n, the vertices of a regular simplex inscribed in the unit
sphere:

    tau_i . tau_i = 1,   sum_i tau_i = 0,   tau_i . tau_j = -1/n  (i != j),

with tau_i supported on the first i+1 coordinates.  The positions reachable
by time t form the scaled simplex T_vt with vertices v*t*tau_i, and

    Vol T_vt = (sqrt(n+1))^(n+1) / ((sqrt n)^n n!) * (v t)^n.

Two coordinate systems on T_vt are provided:

* the n+1 affine facet coordinates y_1, ..., y_(n+1) (``support_margins``),
  each vanishing on one facet and positive inside;
  z = (y_1 ... y_(n+1))^(1/(n+1)) is the radial argument of the
  hyper-Bessel kernel;

* barycentric weights w_0, ..., w_n with x = v t * sum_r w_r tau_r
  (``barycentric_coordinates``).  Physically w_r is the fraction of time a
  trajectory ending at x spent moving toward vertex r, so
  w_r = (1 + n <tau_r, x> / (v t)) / (n + 1).

T_vt is the intersection of the n+1 half-spaces y_i >= 0, so
``classify_batch`` reads membership from the least y.  Each y is a positive
multiple of one weight, so the open T_vt is also "all n+1 weights > 0".

Batch results have shape (N, n+1), but are computed as C-contiguous (n+1, N)
arrays and returned as transposed views: for so few columns, whole-row
operations over N points are what make a batch cheap; hot paths take ``.T``.

Everything here is a pure function of its arguments; returned arrays are
written once and safe to share between threads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

__all__ = [
    "EvolutionParams",
    "Membership",
    "SimplexGeometry",
    "barycentric_coordinates",
    "build_simplex",
    "classify_batch",
    "support_contains",
    "support_margins",
    "vertices_at_time",
    "volume",
]

#: boundary band of the least facet coordinate, in units of v*t
EPS_GEO = 1e-9


class Membership(Enum):
    INSIDE = "inside"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"

    def __str__(self) -> str:  # CSV-friendly
        return self.value


@dataclass(frozen=True)
class EvolutionParams:
    """Model parameters: dimension n >= 1, switch rate lam > 0, speed v > 0."""

    n: int
    lam: float
    v: float

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"dimension n must be an integer >= 1, got {self.n}")
        if not (self.lam > 0) or not math.isfinite(self.lam):
            raise ValueError(f"switch rate lam must be finite and > 0, got {self.lam}")
        if not (self.v > 0) or not math.isfinite(self.v):
            raise ValueError(f"speed v must be finite and > 0, got {self.v}")
        object.__setattr__(self, "n", int(self.n))


@dataclass(frozen=True)
class SimplexGeometry:
    """The n+1 unit direction vectors, rows of ``vertices`` (shape (n+1, n))."""

    n: int
    vertices: np.ndarray = field(repr=False)


@lru_cache(maxsize=None)
def _vertices(n: int) -> np.ndarray:
    V = np.zeros((n + 1, n))
    for i in range(n + 1):
        for j in range(1, n + 1):
            if j < i + 1:
                V[i, j - 1] = -math.sqrt(n * (n + 1) / ((n - j + 1) * (n - j + 2))) / n
            elif j == i + 1:
                V[i, j - 1] = math.sqrt((n + 1) * (n - i) / (n * (n - i + 1)))
    V.setflags(write=False)
    return V


@lru_cache(maxsize=None)
def _y_affine(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of the facet coordinates: y = M @ x + s * (v*t).

    y_i is (n+1) v t w_(i-1) / n = <tau_(i-1), x> + v t / n divided by its
    leading x-coefficient, so that this becomes +-1: the diagonal entry of
    tau_(i-1) for i <= n, and minus the last entry of tau_n for y_(n+1).
    """
    V = _vertices(n)
    lead = np.append(np.diag(V), -V[n, n - 1])
    M = V / lead[:, None]
    s = 1.0 / (n * lead)
    M.setflags(write=False)
    s.setflags(write=False)
    return M, s


def build_simplex(n: int) -> SimplexGeometry:
    """Direction set of the cyclic motion: n+1 regular-simplex unit vectors.

    Component j of tau_i is
        -sqrt(n(n+1) / ((n-j+1)(n-j+2))) / n   for j < i+1,
        sqrt((n+1)(n-i) / (n(n-i+1)))          for j = i+1,
        0                                      for j > i+1.
    """
    if int(n) != n or n < 1:
        raise ValueError(f"dimension n must be an integer >= 1, got {n}")
    return SimplexGeometry(n=int(n), vertices=_vertices(int(n)))


def _as_points(params: EvolutionParams, x) -> np.ndarray:
    X = np.asarray(x, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != params.n:
        raise ValueError(f"expected points of dimension {params.n}, got shape {X.shape}")
    return X


def support_margins(params: EvolutionParams, x, t: float) -> np.ndarray:
    """The n+1 facet coordinates y_1 ... y_(n+1) of points, shape (N, n+1):
    each vanishes on one facet of T_vt and is positive inside.  The result is
    the transposed view of a C-contiguous (n+1, N) array."""
    M, s = _y_affine(params.n)
    Y = M @ _as_points(params, x).T
    Y += (s * (params.v * t))[:, None]
    return Y.T


#: Membership by int8 code (lo >= -eps) + (lo > eps) of the least margin lo
_BY_CODE = np.array([Membership.OUTSIDE, Membership.BOUNDARY, Membership.INSIDE], dtype=object)


def classify_batch(params: EvolutionParams, x, t: float) -> np.ndarray:
    """Vectorized membership test against the reachable simplex at time t.

    Returns an array of ``Membership``.  Boundary means the least facet
    coordinate (``support_margins``) is within EPS_GEO * v*t of 0.  Where
    v*t is below the smallest normal float, t = 0 included, or n / (v*t)
    overflows, so that no weights of an inside point could be formed, the
    simplex degenerates to the origin: it alone is boundary, everything else
    outside.
    """
    X = _as_points(params, x)
    if t < 0:
        raise ValueError(f"time t must be >= 0, got {t}")
    vt = params.v * t
    if vt < np.finfo(float).tiny or math.isinf(params.n / vt):
        lo, eps = -np.abs(X).max(axis=1), 0.0
    else:
        lo, eps = support_margins(params, X, t).T.min(axis=0), EPS_GEO * vt
    return _BY_CODE[np.add(lo >= -eps, lo > eps, dtype=np.int8)]


def support_contains(params: EvolutionParams, x, t: float) -> Membership:
    """Classify a single point as inside, boundary or outside of T_vt."""
    return classify_batch(params, np.atleast_1d(np.asarray(x, dtype=float)), t)[0]


def _log_volume(n: int, vt: float) -> float:
    """log Vol(T_vt) for vt > 0, with Stirling's series for log n! from n = 100."""
    if n < 100:
        log_power = n * math.log(vt) - math.lgamma(n + 1)
    else:  # the next term of the series, 1/(1680 n^7), is below 1e-17
        log_power = n * (1 + math.log(vt / n)) - 0.5 * math.log(2 * math.pi * n)
        log_power -= (1 / 12 - (1 / 360 - 1 / (1260 * n * n)) / (n * n)) / n
    return 0.5 * math.log1p(n) + 0.5 * n * math.log1p(1 / n) + log_power


def volume(params: EvolutionParams, t: float) -> float:
    """Volume of the reachable simplex, (sqrt(n+1))^(n+1) (vt)^n / ((sqrt n)^n n!).

    Evaluated as written while its factors are finite and (vt)^n is a normal
    float, else as exp of its logarithm; from n = 100 Stirling's series for
    n! keeps the cancelling n log(vt) and log n! apart.  Returns 0 only where
    the volume underflows and raises ``OverflowError`` where it exceeds the
    float range.
    """
    if not t >= 0:
        raise ValueError(f"time t must be >= 0, got {t}")
    n, vt = params.n, params.v * t
    try:
        power = vt**n
        num = math.sqrt(n + 1) ** (n + 1) * power
        den = math.sqrt(n) ** n * math.factorial(n)
    except OverflowError:  # a power, or n! as a float, beyond the range
        power = num = den = math.inf
    if power >= sys.float_info.min and max(num, den) < math.inf:
        return num / den
    if vt / n == 0:  # vt = 0, or so small that the volume underflows too
        return 0.0
    log_volume = _log_volume(n, vt)
    if log_volume > math.log(sys.float_info.max):
        raise OverflowError(f"volume of T_vt exceeds the float range at n={n}, v*t={vt:g}")
    return math.exp(log_volume)


def vertices_at_time(params: EvolutionParams, t: float) -> np.ndarray:
    """Extreme points v*t*tau_i of the reachable simplex (unswitched endpoints)."""
    if t < 0:
        raise ValueError(f"time t must be >= 0, got {t}")
    return params.v * t * _vertices(params.n)


def barycentric_coordinates(params: EvolutionParams, x, t: float) -> np.ndarray:
    """Sojourn-fraction weights w_r of points, shape (N, n+1), rows sum to 1.

    w_r(x) = (1 + n <tau_r, x> / (vt)) / (n+1); all weights are nonnegative
    exactly on the closed simplex.  Requires t > 0.  The result is the
    transposed view of a C-contiguous (n+1, N) array.
    """
    if not t > 0:
        raise ValueError(f"time t must be > 0, got {t}")
    X = _as_points(params, x)
    n = params.n
    W = _vertices(n) @ X.T
    W *= n / (params.v * t)
    W += 1.0
    W /= n + 1
    return W.T
