"""Endpoint law of the cyclic evolution: exact density and integral identities.

Let N(t) be the Poisson(lam) switch count.  With fewer than n switches the
endpoint lies on a lower-dimensional face of the reachable simplex, so the
law splits into a singular part of mass

    P{boundary} = exp(-lam t) sum_{k<n} (lam t)^k / k!

and an absolutely continuous part of mass ``ac_mass`` = P{N(t) >= n} carried
by the open simplex.

The density of the absolutely continuous part has a closed form.  Condition
on N(t) = k >= n and on the (uniform) initial direction: the event times are
uniform order statistics, so the n+1 per-direction sojourn times are an
aggregated Dirichlet vector whose integer weights advance cyclically.
Summing the Poisson mixture and averaging the initial direction collapses,
in the scaled sojourn variables

    u_r = lam * t * w_r      (w_r the barycentric sojourn fractions),
    p   = u_0 u_1 ... u_n,

to a finite combination of hyper-Bessel slice series

    h_b(p) = sum_{q>=1} p^(q-1) / ((q-1)!^b q!^(n+1-b)),    b = 1..n+1,

namely

    f(x, t) = prefactor * exp(-lam t) * lam^n / (n+1)
              * sum_{m=0}^{n} e_m(u) h_(n+1-m)(p),

where e_m(u) sums the products of u over the n+1 cyclic index windows of
length m (e_0 = n+1) and prefactor = (sqrt n)^n / ((sqrt(n+1))^(n+1) v^n).
The m-th summand is exposed as ``operator_terms[m]``; on the line (n = 1)
it equals lam^(1-m) d^m/dt^m applied to the kernel and the whole expression
reduces to the classical telegraph-process density.

All n+1 slices are summed in one pass by ``special_functions._h_slices``,
the one series engine of the package, in exponentially scaled form,
exp(-lam t) h_b(p), the same trick as scipy's ``ive``: they share the top
slice's terms, every 32 of them make one small matrix product, and every
rescale is a power of two, so nothing overflows at any lam t.  At the
centre of the simplex the series needs about lam t / (n+1) terms, so with
the 2000-term cap ``density`` and ``density_batch`` are finite and correct
for lam t up to about 1750 (n+1) (3,500 at n = 1) and raise ValueError
beyond that rather than return a truncated sum.  Densities below the
float64 range (5e-324) read 0.

The Poisson-weight identities share one log-space sum, ``_log_poisson_sum``,
finite at every lam t: the tail P{N(t) >= n} of
``normalization_series_identity`` and the exponents n, 2n+1, ... of
``analytic_bessel_integral`` (which raises ``OverflowError`` past the float
range, from about lam t = 710 at n = 1 and v = lam).  Its relative
rounding grows as eps lam t log(lam t): 1.5e-13 at lam t = 1000, past the
chain's 1e-12 from about lam t = 1500.

``jet_operator_density`` evaluates the plain time-operator composite
prefactor * exp(-lam t) * [lam^n + lam^(n-1) d/dt + ... + d^n/dt^n] I
at one point or at an (N, n) batch, whose inside points share one jet
series (``_kernel_jet_batch``).  Each point's series stops at the first
term whose every slot, value and derivatives alike, is at most tol times
the largest partial sum that slot has reached, so a point's value does not
depend on the rest of its batch.  It coincides with ``density`` for n = 1
but does not integrate to ``ac_mass`` for n >= 2 (the moving-boundary flux
of d/dt I does not vanish), so it is kept only as a diagnostic; the
verification suite reports the comparison.
"""

from __future__ import annotations

import math
import sys
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammainc, gammaincc

from .geometry import (
    EvolutionParams,
    Membership,
    barycentric_coordinates,
    classify_batch,
    support_contains,
    volume,
    _log_volume,
    _real,
    _y_affine,
)
from .special_functions import DerivedConstants, _h_slices, _kernel_jet_batch

__all__ = [
    "DensityValue",
    "ac_mass",
    "analytic_bessel_integral",
    "boundary_probability",
    "density",
    "density_batch",
    "jet_operator_density",
    "normalization_series_identity",
    "remark_constant_check",
]

@dataclass(frozen=True)
class DensityValue:
    """Density at one point: total value, per-window contributions, location."""

    value: float
    operator_terms: np.ndarray = field(repr=False)
    location: Membership


def boundary_probability(params: EvolutionParams, t: float) -> float:
    """Mass of the singular component, exp(-lam t) sum_{k<n} (lam t)^k / k!.

    Equals 1 at t = 0 and decreases strictly to 0; the k-th summand is the
    probability of sitting on a k-dimensional face of the reachable simplex.
    Computed as the regularized upper incomplete gamma function Q(n, lam t);
    at n = 1 as exp(-lam t), which scipy's Q(1, 1) misses by 3 ulps.
    """
    lt = params.lam * _real("t", t, 0.0)
    if params.n == 1:
        return math.exp(-lt)
    return float(gammaincc(params.n, lt))


def ac_mass(params: EvolutionParams, t: float) -> float:
    """Mass of the absolutely continuous component, P{N(t) >= n}.

    Computed as the regularized lower incomplete gamma function P(n, lam t),
    not as ``1 - boundary_probability``, which cancels to rounding noise
    once the mass falls below the float64 epsilon.
    """
    return float(gammainc(params.n, params.lam * _real("t", t, 0.0)))


def _window_sums(u: np.ndarray) -> np.ndarray:
    """Cyclic-window products e_m(u), m = 0..n, shape (n+1, N), e_0 = n+1, of
    u with shape (n+1, N).  Row i of ``windows`` holds u_i ... u_(i+m-1)
    (indices mod n+1); one more factor per window is two row-slice products."""
    k = u.shape[0]
    # one block for out and the running products: glibc trims its heap top past
    # twice the largest block freed, and two blocks made each call re-fault it
    out, windows = np.empty((2,) + u.shape)
    out[0] = k
    windows[...] = u
    windows.sum(axis=0, out=out[1])
    for s in range(1, k - 1):
        windows[: k - s] *= u[s:]
        windows[k - s :] *= u[:s]
        windows.sum(axis=0, out=out[s + 1])
    return out


def _points(x, t: float, tol: float) -> np.ndarray:
    """``x`` as a float array, once it, t > 0 and tol in (0, 1) are checked."""
    _real("t", t, 0.0, strict=True)
    if _real("tol", tol, 0.0, strict=True) >= 1:
        raise ValueError(f"tol must be in (0, 1), got {tol!r}")
    X = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(X)):
        raise ValueError("coordinates must be finite")
    return X


def density_batch(
    params: EvolutionParams, x, t: float, tol: float = 1e-12
) -> np.ndarray:
    """Density of the absolutely continuous component at points x, zero off
    the open simplex.  ``x`` has shape (N, n); returns shape (N,)."""
    X = np.atleast_2d(_points(x, t, tol))
    loc = classify_batch(params, X, t)
    inside = loc == Membership.INSIDE
    values = np.zeros(len(X))
    if inside.any():
        # before lam**n in _window_terms, so an out-of-range constant is named
        consts = DerivedConstants.from_params(params)
        terms = _window_terms(params, X.compress(inside, axis=0), t, tol)
        values[inside] = consts.prefactor * terms.sum(axis=0)
    return values


def _window_terms(
    params: EvolutionParams, X: np.ndarray, t: float, tol: float
) -> np.ndarray:
    """Per-window contributions times exp(-lam t), shape (n+1, N); row m
    generalizes lam^(n-m) d^m/dt^m of the kernel (equality holds at n = 1)."""
    n = params.n
    u = barycentric_coordinates(params, X, t).T
    u *= params.lam * t
    np.clip(u, 0.0, None, out=u)
    p = np.prod(u, axis=0)
    terms = _window_sums(u)
    terms *= params.lam**n / (n + 1)
    return _h_slices(n, p, tol, params.lam * t, terms)[0]


def density(
    params: EvolutionParams, x, t: float, tol: float = 1e-12
) -> DensityValue:
    """Density of the absolutely continuous component at one point.

    Inside the open simplex the value is
    prefactor * exp(-lam t) * sum(operator_terms); on the boundary and
    outside the absolutely continuous density is 0 (the boundary carries
    the singular mass, see ``boundary_probability``).  The value comes from
    the exp(-lam t)-scaled terms, which never overflow; ``operator_terms``
    are unscaled, so where a term exceeds the float64 range (from about
    lam t = 709 on) it reads inf, and 0 where its scaled form underflowed.
    """
    X = np.atleast_1d(_points(x, t, tol))[None, :]
    loc = support_contains(params, X[0], t)
    if loc is not Membership.INSIDE:
        return DensityValue(value=0.0, operator_terms=np.zeros(params.n + 1), location=loc)
    consts = DerivedConstants.from_params(params)
    scaled = _window_terms(params, X, t, tol)[:, 0]
    value = consts.prefactor * float(scaled.sum())
    with np.errstate(over="ignore"):
        terms = np.multiply(
            scaled, np.exp(params.lam * t), out=np.zeros_like(scaled), where=scaled > 0.0
        )
    terms.setflags(write=False)
    return DensityValue(value=value, operator_terms=terms, location=loc)


def jet_operator_density(
    params: EvolutionParams, x, t: float, tol: float = 1e-12
) -> float | np.ndarray:
    """Time-operator composite
    prefactor * exp(-lam t) * sum_m lam^(n-m) d^m/dt^m I(alpha z(x, t)),
    with derivatives taken by jets, zero off the open simplex.  ``x`` is one
    point, giving a float, or a batch of shape (N, n), giving shape (N,).
    Diagnostic only: equals ``density`` for n = 1, but is not the endpoint
    density for n >= 2.  Raises ``OverflowError`` naming n and lam t where
    the unscaled jets leave the float range (from about lam t = 709)."""
    X = _points(x, t, tol)
    single = X.ndim < 2
    X = np.atleast_2d(X)
    inside = classify_batch(params, X, t) == Membership.INSIDE
    values = np.zeros(len(X))
    if inside.any():
        n = params.n
        M, s = _y_affine(n)
        base = X.compress(inside, axis=0) @ M.T + s * (params.v * t)
        consts = DerivedConstants.from_params(params)
        with np.errstate(over="ignore", invalid="ignore"):
            G = _kernel_jet_batch(n, consts.alpha, base, s * params.v, tol)
            op = sum(params.lam ** (n - m) * math.factorial(m) * G[:, m] for m in range(n + 1))
            values[inside] = consts.prefactor * math.exp(-params.lam * t) * op
        if not np.isfinite(values).all():
            raise OverflowError(f"jet composite overflows at n={n}, lam*t={params.lam * t:g}")
    return float(values[0]) if single else values


def _log_poisson_sum(mean: float, first: int, step: int = 1) -> float:
    """log sum_k e^-mean mean^k / k! over k = first, first + step, ...

    The terms are summed relative to the one at k0, the class member nearest
    below the mean (or ``first``), by their ratios upward and downward; each
    side stops once the geometric bound on its remaining terms falls below
    1e-17 of the total.  The log of the k0 term is added last, so e^-mean
    cannot underflow a sum that does not; its rounding, about
    eps * mean * log(mean), sets the relative error: 1.4e-14 at mean = 50,
    1.5e-13 at mean = 1000 (against mpmath).  No incomplete gamma function
    is used, so this is an oracle for ``ac_mass``.  Past mean = 1e8 (2e5
    terms, 0.1 s) it raises ValueError.
    """
    if mean > 1e8:
        raise ValueError(f"Poisson sum needs more than 2e5 terms at lam*t = {mean:g}")
    if mean <= 0.0:
        return 0.0 if first == 0 else -math.inf
    k0 = first + step * max(0, math.floor((mean - first) / step))
    total = term = 1.0
    k = k0
    while True:  # ratio term(k + step) / term(k) decreases in k
        r = math.prod(mean / (k + i) for i in range(1, step + 1))
        if term * r < 1e-17 * total * (1.0 - r):
            break
        term, k = term * r, k + step
        total += term
    term, k = 1.0, k0
    while k - step >= first:  # ratio term(k - step) / term(k) decreases as k falls
        r = math.prod((k - i) / mean for i in range(step))
        if term * r < 1e-17 * total * (1.0 - r):
            break
        term, k = term * r, k - step
        total += term
    return math.log(total) + k0 * math.log(mean) - mean - math.lgamma(k0 + 1)


def analytic_bessel_integral(params: EvolutionParams, t: float) -> float:
    """Closed-form integral of the kernel over the reachable simplex,

        (v/lam)^n (sqrt(n+1))^(n+1) / (sqrt n)^n
            * sum_{k>=0} (lam t)^((n+1)(k+1)-1) / ((n+1)(k+1)-1)!,

    the series being e^(lam t) times the Poisson sum ``_log_poisson_sum``
    over the exponents n, 2n+1, ...  At n = 1 it is sinh(lam t).  Raises
    ``OverflowError`` naming n and lam t where the integral exceeds the
    float range (from about lam t = 710 at v = lam).
    """
    n = params.n
    lt = params.lam * _real("t", t, 0.0)
    if lt == 0.0:
        return 0.0
    log_coeff = n * (math.log(params.v) - math.log(params.lam))
    log_coeff += 0.5 * ((n + 1) * math.log(n + 1) - n * math.log(n))
    try:
        return math.exp(log_coeff + lt + _log_poisson_sum(lt, n, n + 1))
    except OverflowError:
        raise OverflowError(
            f"kernel integral exceeds the float range at n={n}, lam*t={lt:g}"
        ) from None


def normalization_series_identity(params: EvolutionParams, t: float) -> float:
    """Closed-form total mass of the density, checked against ``ac_mass``.

    Applying sum_m lam^(n-m) d^m/dt^m termwise to the kernel-integral series
    scatters its exponents so that every power of lam*t appears exactly once;
    subtracting the per-order volume-derivative corrections removes exactly
    the powers below n.  What remains is

        prefactor * exp(-lam t) * v^n (sqrt(n+1))^(n+1)/(sqrt n)^n
            * sum_{e>=n} (lam t)^e / e!

    which must equal the Poisson tail P{N(t) >= n}.  The exponent bookkeeping
    is verified structurally over four blocks of n+1 powers, the tail is
    summed by ``_log_poisson_sum``, and the value is compared with
    ``ac_mass`` to 1e-12 relative; a mismatch, NaN included, raises.
    """
    n = params.n
    lt = params.lam * _real("t", t, 0.0)

    # termwise derivative exponents: the m-th operator order turns the series
    # exponent (n+1)j - 1 into (n+1)j - 1 - m for every j >= 1
    exponents = sorted((n + 1) * j - 1 - m for m in range(n + 1) for j in range(1, 5))
    if exponents != list(range(4 * (n + 1))):
        raise AssertionError(f"exponents {exponents} miss or repeat a power")

    # corrections remove one copy of each exponent below n (volume flux terms)
    consts = DerivedConstants.from_params(params)
    coeff = params.v**n * math.sqrt(n + 1) ** (n + 1) / math.sqrt(n) ** n
    result = consts.prefactor * coeff * math.exp(_log_poisson_sum(lt, n))

    target = ac_mass(params, t)
    if not abs(result - target) <= 1e-12 * abs(target):
        raise AssertionError(
            f"normalization chain mismatch: series {result!r} vs mass {target!r}"
        )
    return result


def remark_constant_check(params: EvolutionParams, t: float) -> tuple[float, float]:
    """The density prefactor two ways: closed form and t^n / (n! Vol T_vt).

    Both are (sqrt n)^n / ((sqrt(n+1))^(n+1) v^n); the pair is returned for
    the caller to compare.  Each side is evaluated as written where that
    gives a normal float, else from its logarithm (``lgamma`` for n! and the
    log of the volume); a side outside the normal float range raises
    ``OverflowError`` naming n and v*t.
    """
    _real("t", t, 0.0, strict=True)
    n, v = params.n, params.v
    tiny, huge = sys.float_info.min, sys.float_info.max

    def from_log(log_value: float) -> float:
        if not math.log(tiny) <= log_value <= math.log(huge):
            raise OverflowError(
                f"density prefactor outside the float range at n={n}, v*t={v * t:g}"
            )
        return math.exp(log_value)

    closed = via_volume = math.nan
    with suppress(OverflowError):  # a power, or n! as a float, beyond the range
        if v**n >= tiny:
            closed = math.sqrt(n) ** n / (math.sqrt(n + 1) ** (n + 1) * v**n)
    with suppress(OverflowError):
        vol = volume(params, t)
        if min(t**n, vol) >= tiny:  # a subnormal factor has lost its precision
            via_volume = t**n / (math.factorial(n) * vol)
    if not tiny <= closed < math.inf:
        closed = from_log(-0.5 * math.log1p(n) - 0.5 * n * math.log1p(1 / n) - n * math.log(v))
    if not tiny <= via_volume < math.inf:
        via_volume = from_log(n * math.log(t) - math.lgamma(n + 1) - _log_volume(n, v * t))
    return closed, via_volume
