"""Acceptance battery: one test per criterion, tolerances pinned.

Each test prints a single pass/fail line (run with ``pytest -s`` to see them
live).  Statistical criteria use fixed seeds so the suite is deterministic.
"""

import math

import numpy as np
import pytest
from scipy.special import i0 as scipy_i0
from scipy.special import i1 as scipy_i1

import evolvekit as ek
from evolvekit.special_functions import DerivedConstants, tuned_ode_residual
from evolvekit.verification import (
    check_beta_integrals,
    check_bessel_integral,
    check_normalization,
)


def report(number, name, passed, detail):
    print(f"criterion {number:2d} {'PASS' if passed else 'FAIL'}: {name} ({detail})")
    assert passed, f"criterion {number} failed: {name} ({detail})"


def test_criterion_01_simplex_invariants():
    worst = 0.0
    for n in range(1, 11):
        V = ek.build_simplex(n).vertices
        worst = max(worst, float(np.max(np.abs(np.linalg.norm(V, axis=1) - 1.0))))
        worst = max(worst, float(np.max(np.abs(V.sum(axis=0)))))
        for i in range(n + 1):
            worst = max(worst, float(np.max(np.abs(V[i, i + 1 :]), initial=0.0)))
        G = V @ V.T
        worst = max(worst, float(np.max(np.abs(G[~np.eye(n + 1, dtype=bool)] + 1.0 / n))))
    report(1, "simplex invariants, n <= 10", worst <= 1e-12, f"max deviation {worst:.2e}")


def test_criterion_02_coefficient_recurrence():
    worst = 0.0
    for n in range(1, 7):
        consts = DerivedConstants.from_params(ek.EvolutionParams(n=n, lam=1.0, v=1.0))
        for alpha in (consts.alpha, float(n + 1)):
            const = (alpha / (n + 1)) ** (n + 1)
            prev = ek.series_coefficient(n, alpha, 0)
            for k in range(1, 31):
                ck = ek.series_coefficient(n, alpha, k)
                worst = max(worst, abs(ck * k ** (n + 1) - const * prev) / (const * prev))
                prev = ck
    report(2, "coefficient recurrence, k <= 30, n <= 6", worst <= 1e-12,
           f"max relative defect {worst:.2e}")


def test_criterion_03_telegraph_oracle():
    combos = [(0.5, 1.0, 1.0), (1.0, 1.0, 1.0), (2.0, 0.5, 2.0), (1.0, 2.0, 0.5),
              (2.0, 2.0, 2.0)]
    worst = 0.0
    for lam, v, t in combos:
        params = ek.EvolutionParams(n=1, lam=lam, v=v)
        xs = np.linspace(-v * t, v * t, 103)[1:-1]
        ours = ek.density_batch(params, xs[:, None], t)
        root = np.sqrt(v * v * t * t - xs * xs)
        xi = lam / v * root
        oracle = np.exp(-lam * t) / (2 * v) * (lam * scipy_i0(xi) + lam * v * t * scipy_i1(xi) / root)
        worst = max(worst, float(np.max(np.abs(ours - oracle))))
    report(3, "telegraph oracle, 5 parameter combos", worst <= 1e-10,
           f"max abs deviation {worst:.2e}")


def test_criterion_04_normalization_chain():
    worst = 0.0
    for n in (1, 2, 3, 4):
        for lt in (0.5, 1.0, 2.0, 5.0):
            params = ek.EvolutionParams(n=n, lam=1.0, v=1.0)
            got = ek.normalization_series_identity(params, lt)
            target = ek.ac_mass(params, lt)
            worst = max(worst, abs(got - target) / target)
    report(4, "closed-form normalization chain", worst <= 1e-12,
           f"max relative deviation {worst:.2e}")


def test_criterion_05_quadrature_normalization():
    details = []
    ok = True
    for n in (1, 2, 3):
        for t in (0.5, 1.0, 2.0):
            params = ek.EvolutionParams(n=n, lam=1.0, v=1.0)
            rep = check_normalization(params, t, 1_000_000,
                                      np.random.default_rng(100 * n + int(10 * t)))
            ok = ok and rep.passed
            details.append(f"n={n},t={t}: |{rep.estimate:.5f}-{rep.target:.5f}|")
    report(5, "Monte Carlo normalization, 9 cases x 1e6 points", ok,
           "; ".join(details[:3]) + " ...")


def test_criterion_06_bessel_integral_identity():
    ok = True
    worst_z = 0.0
    for n in (1, 2, 3):
        for t in (0.5, 1.0, 2.0):
            params = ek.EvolutionParams(n=n, lam=1.0, v=1.0)
            rep = check_bessel_integral(params, t, 1_000_000,
                                        np.random.default_rng(200 * n + int(10 * t)))
            ok = ok and rep.passed
            if rep.sigma:
                worst_z = max(worst_z, abs(rep.estimate - rep.target) / rep.sigma)
    report(6, "kernel-integral identity, 9 cases x 1e6 points", ok,
           f"worst z-score {worst_z:.2f}")


def test_criterion_07_beta_integral_chain():
    worst = 0.0
    for k in range(11):
        for m in range(1, 6):
            rep = check_beta_integrals(k, m)
            worst = max(worst, abs(rep.estimate - rep.target) / rep.target)
            assert rep.passed
    report(7, "Beta-integral chain, k <= 10, m <= 5", worst <= 1e-10,
           f"max relative deviation {worst:.2e}")


def test_criterion_08_monte_carlo_distribution_fit():
    cases = [
        (1, 20, "20 bins"),
        (2, 12, "144 cells"),
        (3, 6, "111 cells"),
    ]
    details = []
    ok = True
    for n, bins, label in cases:
        params = ek.EvolutionParams(n=n, lam=1.0, v=1.0)
        config = ek.SimulationConfig(seed=1000 + n, samples=1_000_000, horizon=2.0)
        data = ek.simulate_batch(params, config, workers=1)
        fit = ek.histogram_fit(params, data, bins)
        if n == 2:
            assert fit.n_cells >= 100
        assert fit.expected.min() >= 5.0
        ok = ok and fit.p_value > 0.001
        details.append(f"n={n} ({label}): p={fit.p_value:.3f}, reduced={fit.reduced:.3f}")
    report(8, "endpoint distribution fit, 1e6 paths each", ok, "; ".join(details))


def test_criterion_09_singular_mass_decomposition():
    ok = True
    details = []
    for n in (2, 3):
        params = ek.EvolutionParams(n=n, lam=1.0, v=1.0)
        t = 1.0
        config = ek.SimulationConfig(seed=42 + n, samples=1_000_000, horizon=t)
        data = ek.simulate_batch(params, config, workers=1)
        for k in range(n):
            target = math.exp(-t) * t**k / math.factorial(k)
            frac = float(np.mean(data.switches == k))
            sigma = math.sqrt(target * (1 - target) / len(data))
            ok = ok and abs(frac - target) <= 3 * sigma
            details.append(f"n={n},k={k}: z={(frac - target) / sigma:+.2f}")
        verts = ek.vertices_at_time(params, t)
        unswitched = data.switches == 0
        gap = np.max(
            np.abs(data.positions[unswitched] - verts[data.initial_direction[unswitched]])
        )
        ok = ok and gap <= 1e-12 * params.v * t
        details.append(f"n={n} vertex gap {gap:.1e}")
    report(9, "singular mass decomposition", ok, "; ".join(details))


def test_criterion_10_volume_and_constant():
    ok = True
    details = []
    rng = np.random.default_rng(77)
    for n in (1, 2, 3):
        params = ek.EvolutionParams(n=n, lam=1.0, v=1.0)
        t = 1.5
        verts = ek.vertices_at_time(params, t)
        lo, hi = verts.min(axis=0), verts.max(axis=0)
        box = float(np.prod(hi - lo))
        pts = rng.uniform(lo, hi, size=(1_000_000, n))
        from evolvekit.geometry import classify_batch, Membership

        hit = float(np.mean(classify_batch(params, pts, t) != Membership.OUTSIDE))
        est = box * hit
        sigma = box * math.sqrt(max(hit * (1 - hit), 1e-12) / 1_000_000)
        target = ek.volume(params, t)
        ok = ok and abs(est - target) <= 3 * max(sigma, 1e-12)
        details.append(f"n={n}: vol z={(est - target) / max(sigma, 1e-12):+.2f}")
        closed, via_volume = ek.remark_constant_check(params, t)
        rel = abs(closed - via_volume) / closed
        ok = ok and rel <= 1e-12
    report(10, "volume hit-ratio and prefactor identity", ok, "; ".join(details))


def test_criterion_11_pde_residual():
    worst = 0.0
    for n in (1, 2):
        consts = DerivedConstants.from_params(ek.EvolutionParams(n=n, lam=1.0, v=1.0))
        for z in np.linspace(0.5, 2.0, 10):
            res = tuned_ode_residual(n, consts.alpha, float(z))
            worst = max(worst, res / (consts.alpha * z) ** (n + 1))
    report(11, "radial-equation residual, Richardson-tuned", worst <= 1e-2,
           f"max relative residual {worst:.2e}")
