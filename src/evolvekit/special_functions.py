"""Hyper-Bessel slice series, the kernel, its series coefficients, and jets.

The endpoint density is built from the slice series

    h_b(p) = sum_{q>=1} p^(q-1) / ((q-1)!^b q!^(n+1-b)),    b = 1..n+1,

all summed by one engine, ``_h_slice``, in exp(-shift)-scaled form.  The
kernel of order n+1 is the top slice,

    I(w) = h_(n+1)((w/(n+1))^(n+1)) = sum_{k>=0} (w/(n+1))^((n+1)k) / (k!)^(n+1),

which reduces to the classical modified Bessel I_0 at n = 1 and solves the
radial equation (z d/dz)^(n+1) g = (alpha z)^(n+1) g for g(z) = I(alpha z).
Expanded in the facet-coordinate product, I(alpha z) with
z = (y_1...y_(n+1))^(1/(n+1)) becomes sum_k c_k (y_1...y_(n+1))^k with

    c_k = (alpha/(n+1))^((n+1)k) / (k!)^(n+1),

so the coefficients obey the exact recurrence
c_k * k^(n+1) = (alpha/(n+1))^(n+1) * c_(k-1), the termwise form of the
product-derivative equation.

Time derivatives of the composite t -> I(alpha z(x, t)) are taken with
truncated-Taylor jets, arrays whose last axis holds the coefficients of
eps^0..eps^n (exact polynomial arithmetic up to the needed order), rather
than finite differences; finite differences are kept only as the
independent cross-check in ``hyper_bessel_ode_residual`` and the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .geometry import EvolutionParams, _integral, _real

__all__ = [
    "DerivedConstants",
    "HyperBesselEval",
    "eval_hyper_bessel",
    "hyper_bessel_ode_residual",
    "series_coefficient",
    "tuned_ode_residual",
]

_LOG_HUGE = 700.0  # exp beyond this overflows a double
_SERIES_CAP = 2000
_RESCALE_LOG = 600.0


@dataclass(frozen=True)
class HyperBesselEval:
    """One kernel evaluation with its truncation diagnostics."""

    order: int
    argument: float
    value: float
    terms_used: int
    truncation_bound: float


@dataclass(frozen=True)
class DerivedConstants:
    """Constants tying the model parameters to the kernel and the density.

    alpha scales the radial coordinate, prefactor normalizes the density,
    and pde_constant is the right-hand coefficient of the product-derivative
    equation.  The algebraic identity pde_constant = (alpha/(n+1))^(n+1) is
    checked at construction instead of being assumed.
    """

    alpha: float
    prefactor: float
    pde_constant: float

    @classmethod
    def from_params(cls, params: EvolutionParams) -> "DerivedConstants":
        n, lam, v = params.n, params.lam, params.v
        root = math.exp(math.log(2 * n + 2) / (2 * n + 2))
        alpha = (lam / v) * math.sqrt(n * (n + 1)) / root
        try:
            # v**n may underflow to 0; lam / v and a division overflow to inf silently
            prefactor = math.sqrt(n) ** n / (math.sqrt(n + 1) ** (n + 1) * v**n)
            pde_constant = (
                (lam / v) ** (n + 1) * (n / (n + 1)) ** ((n + 1) / 2) / math.sqrt(2 * n + 2)
            )
            if not all(map(math.isfinite, (alpha, prefactor, pde_constant))):
                raise OverflowError
        except (OverflowError, ZeroDivisionError):
            raise OverflowError(
                f"density constants overflow float64 at n={n}, lam={lam!r}, v={v!r}"
            ) from None
        check = (alpha / (n + 1)) ** (n + 1)
        if not math.isclose(pde_constant, check, rel_tol=1e-12):
            raise AssertionError(
                f"pde constant mismatch: {pde_constant} vs (alpha/(n+1))^(n+1) = {check}"
            )
        return cls(alpha=alpha, prefactor=prefactor, pde_constant=pde_constant)


def _h_slice(
    n: int, b: int, p: np.ndarray, tol: float, shift: float
) -> tuple[np.ndarray, int, float]:
    """The scaled slice series exp(-shift) * h_b(p) for a batch of products
    p >= 0, with the number of terms summed and the log of the last term
    at max(p) (unscaled).

    Term ratio t_(q+1)/t_q = p / (q^b (q+1)^(n+1-b)).  The largest term over
    the batch (the one at max p) is tracked in log space; once it passes
    e^_RESCALE_LOG, ``term`` and ``acc`` are divided by it in place and its
    log moves into ``offset``, so no intermediate overflows whatever p is.
    The series stops at the first term below tol times the largest one, and
    raises ValueError if that does not happen within _SERIES_CAP terms.
    """
    pmax = float(np.max(p, initial=0.0))
    log_pmax = math.log(pmax) if pmax > 0.0 else -math.inf
    log_tol = math.log(tol)
    term = np.ones_like(p)
    acc = term.copy()
    log_tmax = log_amax = offset = 0.0
    for q in range(1, _SERIES_CAP):
        if log_amax - offset > _RESCALE_LOG:
            factor = math.exp(offset - log_amax)
            term *= factor
            acc *= factor
            offset = log_amax
        scale = 1.0 / (q**b * (q + 1) ** (n + 1 - b))
        term *= p * scale
        acc += term
        log_tmax += log_pmax + math.log(scale)
        log_amax = max(log_amax, log_tmax)
        if log_tmax < log_tol + log_amax:
            break
    else:
        raise ValueError(
            f"slice series h_{b} for n = {n} did not converge within "
            f"{_SERIES_CAP} terms at lam*t = {shift:g}"
        )
    if shift - offset > _RESCALE_LOG:  # keep exp(offset - shift) a normal float
        acc *= math.exp(offset - log_amax)
        offset = log_amax
    acc *= math.exp(offset - shift)
    return acc, q + 1, log_tmax


def eval_hyper_bessel(n: int, w: float, tol: float = 1e-12) -> HyperBesselEval:
    """Sum the kernel series at argument w >= 0.

    The kernel is the top slice h_(n+1) at p = (w/(n+1))^(n+1), summed by
    ``_h_slice`` through the exact ratio t_(k+1)/t_k = p / (k+1)^(n+1).
    The ratios decrease, so the dropped tail is at most the last term times
    r / (1 - r), r the next ratio; that is ``truncation_bound``.
    """
    n = _integral("n", n, 1)
    if _real("tol", tol, 0.0, strict=True) > 1e-6:
        raise ValueError(f"tol must be in (0, 1e-6], got {tol!r}")
    _real("w", w, 0.0)
    try:  # the value leaves float64 long before the series needs _SERIES_CAP terms
        base = (w / (n + 1)) ** (n + 1)
        with np.errstate(over="ignore"):
            values, terms, log_last = _h_slice(n, n + 1, np.array([base]), tol, 0.0)
        value = float(values[0])
        if not math.isfinite(value):
            raise OverflowError
    except (ValueError, OverflowError) as exc:
        raise OverflowError(f"kernel series overflowed at w={w}, n={n}") from exc
    ratio = base / terms ** (n + 1) if base else 0.0  # skips a huge int power at large n
    return HyperBesselEval(
        order=n + 1,
        argument=w,
        value=value,
        terms_used=terms,
        truncation_bound=math.exp(log_last) * ratio / (1.0 - ratio),
    )


def series_coefficient(n: int, alpha: float, k: int) -> float:
    """Coefficient c_k of (y_1...y_(n+1))^k in the expanded kernel.

    Evaluated as exp of (n+1) * (k log(alpha/(n+1)) - log k!) to keep large
    n and k representable; signals when the magnitude leaves double range.
    """
    n, k = _integral("n", n, 1), _integral("k", k, 0)
    _real("alpha", alpha, 0.0, strict=True)
    logc = (n + 1) * (k * math.log(alpha / (n + 1)) - gammaln(k + 1.0)) if k else 0.0
    if abs(logc) > _LOG_HUGE:
        raise OverflowError(
            f"series coefficient magnitude exp({logc:.1f}) outside double range "
            f"(n={n}, alpha={alpha}, k={k})"
        )
    return math.exp(logc)


def _jet_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of jets truncated to the common degree; last axis is the slot axis."""
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    deg = a.shape[-1] - 1
    for m in range(deg + 1):
        acc = 0.0
        for u in range(m + 1):
            acc = acc + a[..., u] * b[..., m - u]
        out[..., m] = acc
    return out


def _kernel_jet_batch(
    n: int, alpha: float, base: np.ndarray, slopes: np.ndarray, tol: float
) -> np.ndarray:
    """Degree-n jets of t -> I(alpha (y_1...y_(n+1))^(1/(n+1))) for a batch.

    ``base`` has shape (N, n+1) with the y values at the base time (all >= 0),
    ``slopes`` holds the constant dy_i/dt.  Returns jets of shape (N, n+1).

    The series sum_k c_k P^k in the product jet P follows the coefficient
    recurrence c_k = c_(k-1) (alpha/(n+1))^(n+1) / k^(n+1).  It always
    includes terms up to k = n, which is exact for boundary base points
    (where P has positive valuation in eps).  Beyond that a point stops at
    the first term whose every slot is at most tol times the largest
    partial sum that slot has reached, so its jet does not depend on the
    rest of the batch.
    """
    P = np.zeros((base.shape[0], n + 1))
    P[:, 0] = 1.0
    factor = np.zeros_like(P)
    for i in range(n + 1):
        factor[:, 0] = base[:, i]
        factor[:, 1] = slopes[i]
        P = _jet_mul(P, factor)
    pde_constant = (alpha / (n + 1)) ** (n + 1)
    G = np.zeros_like(P)
    rows = np.arange(len(P))  # rows of G still summing; acc, scale, term and P hold only these
    acc, scale, term = np.zeros_like(P), np.zeros_like(P), np.zeros_like(P)
    term[:, 0] = 1.0
    for k in range(1, _SERIES_CAP):
        acc += term
        np.maximum(scale, np.abs(acc), out=scale)
        term = _jet_mul(term, P) * (pde_constant / k ** (n + 1))
        if k > n:
            done = (np.abs(term) <= tol * scale).all(axis=1)
            G[rows[done]] = acc[done]
            keep = ~done
            rows, acc, scale, term, P = (a[keep] for a in (rows, acc, scale, term, P))
            if not rows.size:
                break
    G[rows] = acc  # a point still summing at _SERIES_CAP keeps its partial sums
    return G


def _radial_operator_grid(values: np.ndarray, zs: np.ndarray, h: float) -> np.ndarray:
    """One central-difference application of z d/dz on a uniform grid."""
    inner = zs[1:-1]
    return inner * (values[2:] - values[:-2]) / (2.0 * h)


def hyper_bessel_ode_residual(n: int, alpha: float, z: float, h: float) -> float:
    """Relative residual of (z d/dz)^(n+1) g = (alpha z)^(n+1) g at g = I(alpha .).

    The operator is applied n+1 times by nested central differences of step h,
    so the argument must stay positive across the stencil: z > (n+1) h > 0.
    The right side uses the derived-constants identity
    (alpha z)^(n+1) = pde_constant * ((n+1) z)^(n+1).
    """
    n = _integral("n", n, 1)
    _real("alpha", alpha, 0.0)
    _real("h", h, 0.0, strict=True)
    if _real("z", z, 0.0) - (n + 1) * h <= 0:
        raise ValueError(f"step too large: need z > (n+1) h, got z={z}, h={h}")
    m = n + 1
    zs = z + np.arange(-m, m + 1) * h
    # the kernel on the whole stencil in one series call; the centre is zs[m]
    try:
        with np.errstate(over="ignore"):
            vals = _h_slice(n, m, (alpha * zs / m) ** m, 1e-14, 0.0)[0]
        if not np.all(np.isfinite(vals)):
            raise OverflowError
    except (ValueError, OverflowError) as exc:
        raise OverflowError(f"overflow on the stencil at z={z}, n={n}, alpha={alpha}") from exc
    g = vals[m]
    for _ in range(m):
        vals = _radial_operator_grid(vals, zs, h)
        zs = zs[1:-1]
    lhs = vals[0]
    pde_constant = (alpha / (n + 1)) ** (n + 1)
    rhs = pde_constant * ((n + 1) * z) ** (n + 1) * g
    return abs(lhs - rhs) / abs(g)


def tuned_ode_residual(
    n: int, alpha: float, z: float, h0: float | None = None, halvings: int = 6
) -> float:
    """Best residual over successively halved steps (Richardson-style tuning)."""
    if h0 is None:
        h0 = min(0.05 * z / (n + 1), 0.05)
    best = math.inf
    h = h0
    for _ in range(halvings):
        if z - (n + 1) * h > 0:
            best = min(best, hyper_bessel_ode_residual(n, alpha, z, h))
        h /= 2.0
    return best
