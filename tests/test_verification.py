import math
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.special import gammaln
from scipy.stats import kstest

import evolvekit.verification as verification

from evolvekit.density import _log_poisson_sum, ac_mass, analytic_bessel_integral, density_batch
from evolvekit.geometry import EvolutionParams, Membership, classify_batch, volume
from evolvekit.verification import (
    QuadratureEstimate,
    _gauss_legendre,
    adaptive_simpson,
    check_beta_integrals,
    check_coefficient_recurrence,
    check_normalization,
    check_series_identity,
    check_volume,
    integrate_over_support,
    run_all,
    sample_uniform_simplex,
    telegraph_density,
)


def params(n, lam=1.0, v=1.0):
    return EvolutionParams(n=n, lam=lam, v=v)


class TestUniformSampling:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_samples_stay_in_simplex(self, n):
        p = params(n)
        pts = sample_uniform_simplex(p, 1.0, 20_000, np.random.default_rng(n))
        loc = classify_batch(p, pts, 1.0)
        assert all(m is not Membership.OUTSIDE for m in loc)

    def test_centroid(self):
        p = params(2)
        pts = sample_uniform_simplex(p, 1.0, 200_000, np.random.default_rng(0))
        # var of each coordinate is bounded by (vt)^2; crude 3 sigma envelope
        sigma = 1.0 / math.sqrt(len(pts))
        assert np.max(np.abs(pts.mean(axis=0))) < 3 * sigma

    def test_line_uniform_ks(self):
        p = params(1)
        t = 1.0
        pts = sample_uniform_simplex(p, t, 50_000, np.random.default_rng(5))[:, 0]
        res = kstest(pts, lambda x: (x + t) / (2 * t))
        assert res.statistic < 1.63 / math.sqrt(len(pts))

    def test_requires_positive_time(self):
        with pytest.raises(ValueError):
            sample_uniform_simplex(params(2), 0.0, 10, np.random.default_rng(0))


class TestIntegrateOverSupport:
    def test_constant_integrand_is_exact_volume(self):
        p = params(2)
        est = integrate_over_support(
            p, 1.0, lambda pts: np.ones(len(pts)), 10_000, np.random.default_rng(0)
        )
        assert est.value == pytest.approx(volume(p, 1.0), rel=1e-12)
        assert est.standard_error == pytest.approx(0.0, abs=1e-12)

    def test_odd_integrand_vanishes(self):
        p = params(3)
        est = integrate_over_support(
            p, 1.0, lambda pts: pts[:, 0], 200_000, np.random.default_rng(1)
        )
        assert abs(est.value) <= 3 * est.standard_error

    def test_second_moment_matches_dirichlet_oracle(self):
        # E[x_1^2] over the uniform law is (vt)^2 / (n (n+2))
        p = params(2)
        t = 1.3
        target = volume(p, t) * (p.v * t) ** 2 / (p.n * (p.n + 2))
        est = integrate_over_support(
            p, t, lambda pts: pts[:, 0] ** 2, 400_000, np.random.default_rng(2)
        )
        assert abs(est.value - target) <= 3 * est.standard_error

    def test_estimator_is_unbiased(self):
        # z-scores over independent repetitions behave like a standard normal
        p = params(2)
        t = 1.0
        target = volume(p, t) * (p.v * t) ** 2 / (p.n * (p.n + 2))
        zs = []
        for seed in range(50):
            est = integrate_over_support(
                p, t, lambda pts: pts[:, 0] ** 2, 20_000, np.random.default_rng(seed)
            )
            zs.append((est.value - target) / est.standard_error)
        assert abs(np.mean(zs)) < 3.0 / math.sqrt(50)
        assert 0.5 < np.std(zs) < 1.5

    def test_kernel_integrand_matches_closed_form(self):
        from evolvekit.verification import check_bessel_integral

        for n, t in ((1, 1.0), (2, 1.0), (3, 0.5)):
            rep = check_bessel_integral(params(n), t, 300_000, np.random.default_rng(9))
            assert rep.passed, rep

    def test_kernel_integral_suite_passes(self):
        # on the default grid (n <= 3) the suite integrates by cell cubature
        reports = run_all(budget=200_000, seed=0, suites=("bessel-integral",))
        assert len(reports) == 9
        assert all(rep.passed for rep in reports), reports
        for r in reports:
            n, lt = r.name.removeprefix("bessel-integral-n=").split("-lamt=")
            target = analytic_bessel_integral(params(int(n)), float(lt))
            assert r.sigma is None and r.info == f"resolution={verification._FIT_BINS[int(n)]}"
            assert abs(r.estimate - target) <= 1e-12 * target, r

    def test_rejects_nonfinite_integrand(self):
        p = params(1)
        with pytest.raises(ValueError):
            integrate_over_support(
                p, 1.0, lambda pts: np.full(len(pts), math.nan), 100,
                np.random.default_rng(0),
            )


class TestAdaptiveSimpson:
    def test_polynomial(self):
        got = adaptive_simpson(lambda x: x**3, 0.0, 1.0, 1e-12)
        assert got == pytest.approx(0.25, rel=1e-12)

    def test_sine(self):
        got = adaptive_simpson(math.sin, 0.0, math.pi, 1e-11)
        assert got == pytest.approx(2.0, rel=1e-10)

    def test_high_degree(self):
        got = adaptive_simpson(lambda x: x**40, 0.0, 1.0, 1e-12)
        assert got == pytest.approx(1.0 / 41.0, rel=1e-10)


class TestBetaIntegrals:
    def test_innermost_trivial(self):
        rep = check_beta_integrals(0, 1)
        assert rep.passed
        assert rep.target == pytest.approx(2.0, rel=1e-14)

    def test_innermost_k1(self):
        rep = check_beta_integrals(1, 1)
        assert rep.target == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert rep.passed

    def test_second_stage_k1(self):
        rep = check_beta_integrals(1, 2)
        assert rep.target == pytest.approx(1.0 / 20.0, rel=1e-13)
        assert rep.passed

    def test_full_range(self):
        for k in range(11):
            for m in range(1, 6):
                rep = check_beta_integrals(k, m)
                assert rep.passed, rep

    def test_rejects_bad_stage(self):
        with pytest.raises(ValueError):
            check_beta_integrals(1, 0)
        with pytest.raises(ValueError):
            check_beta_integrals(-1, 1)

    def test_every_case_to_k200(self):
        # adaptive Simpson turned absolute below 1e-12 and failed most of these
        failed = [
            (k, m)
            for k in range(201)
            for m in range(1, 11)
            if not check_beta_integrals(k, m).passed
        ]
        assert failed == []

    @pytest.mark.parametrize("k, m", [(30, 5), (60, 10)])
    def test_pinned_against_mpmath(self, k, m):
        exact = float(mpmath.beta(k + 1, m * (k + 1)))
        rep = check_beta_integrals(k, m)
        assert rep.estimate == pytest.approx(exact, rel=1e-12)
        assert rep.passed

    def test_underflowed_value_compared_in_log_space(self):
        # B(231, 2310) is about 1e-340, below the float range
        rep = check_beta_integrals(230, 10)
        assert rep.passed and rep.target == 0.0 and rep.estimate == 0.0
        log_exact = float(mpmath.log(mpmath.beta(231, 2310)))
        log_target = gammaln(231) + gammaln(2310) - gammaln(2541)
        assert log_target == pytest.approx(log_exact, rel=1e-14)
        assert f"log target {log_target:.15g}" in rep.info

    def test_node_bound_is_named(self, monkeypatch):
        monkeypatch.setattr(verification, "_MAX_NODES", 5)
        assert check_beta_integrals(4, 1).passed  # 5 nodes
        with pytest.raises(ValueError, match=r"k=5, m=1 needs a 6-node"):
            check_beta_integrals(5, 1)
        with pytest.raises(ValueError, match=r"k=2, m=3 needs a 6-node"):
            check_beta_integrals(2, 3)


class TestGaussLegendre:
    @staticmethod
    def monomial_on_unit_interval(nodes, degree):
        x, w = _gauss_legendre(nodes)
        return 0.5 * w @ (0.5 * (x + 1.0)) ** degree

    @pytest.mark.parametrize("degree", [*range(0, 65), 127, 200])
    def test_exact_with_half_degree_plus_one_nodes(self, degree):
        got = self.monomial_on_unit_interval(degree // 2 + 1, degree)
        assert got == pytest.approx(1.0 / (degree + 1), rel=1e-12, abs=0)

    @pytest.mark.parametrize("degree", range(2, 13))
    def test_one_node_fewer_is_not_exact(self, degree):
        got = self.monomial_on_unit_interval(degree // 2, degree)
        assert abs(got * (degree + 1) - 1.0) > 1e-7


class TestTelegraphOracle:
    def test_matches_direct_formula(self):
        from scipy.special import i0, i1

        lam, v, t = 1.2, 0.8, 1.5
        xs = np.linspace(-0.95 * v * t, 0.95 * v * t, 31)
        got = telegraph_density(xs, t, lam, v)
        for x, g in zip(xs, got):
            root = math.sqrt(v * v * t * t - x * x)
            xi = lam / v * root
            direct = math.exp(-lam * t) / (2 * v) * (lam * i0(xi) + lam * v * t * i1(xi) / root)
            assert g == pytest.approx(direct, rel=1e-13)


    def test_zero_off_the_open_support(self):
        lam, v, t = 1.0, 1.0, 1.0
        for x in (5.0, -1.5, v * t, -v * t):
            assert telegraph_density(x, t, lam, v) == 0.0
        inside = np.nextafter(v * t, 0.0)
        got = telegraph_density(np.array([-5.0, -inside, 0.0, inside, 1.0, 1.5]), t, lam, v)
        assert np.array_equal(got == 0.0, [True, False, False, False, True, True])

    @pytest.mark.parametrize("lt", [800.0, 1e4])
    def test_finite_and_exact_at_large_lam_t(self, lt):
        # i0 and i1 overflowed from about lam t = 710, which made this NaN
        for lam, v in ((1.0, 1.0), (2.0, 0.5), (0.5, 3.0)):
            t = lt / lam
            for frac in (0.0, 0.1, 0.3):  # e^-461 at 0.3, lam t = 1e4
                x = frac * v * t
                with mpmath.workdps(40):
                    r = mpmath.sqrt(mpmath.mpf(v * t) ** 2 - mpmath.mpf(x) ** 2)
                    xi = lam * r / v
                    exact = mpmath.exp(-lam * t) / (2 * v) * (
                        lam * mpmath.besseli(0, xi) + lam * v * t * mpmath.besseli(1, xi) / r
                    )
                got = float(telegraph_density(x, t, lam, v))
                assert got == pytest.approx(float(exact), rel=1e-12), (lam, v, frac)
                assert got > 0.0


class TestCheckNormalization:
    def test_line(self):
        rep = check_normalization(params(1), 1.0, 200_000, np.random.default_rng(3))
        assert rep.passed
        assert rep.target == pytest.approx(1 - math.exp(-1.0), rel=1e-12)

    def test_plane(self):
        rep = check_normalization(params(2), 2.0, 200_000, np.random.default_rng(4))
        assert rep.passed

    def test_small_time_near_zero_mass(self):
        rep = check_normalization(params(2), 1e-3, 50_000, np.random.default_rng(5))
        assert rep.passed
        assert rep.target < 1e-5


class TestSeriesIdentity:
    def test_finite_past_the_float_range_of_e_lam_t(self):
        rep = check_series_identity(params(1), 800.0)
        assert rep.passed and math.isfinite(rep.estimate)
        assert rep.estimate == pytest.approx(rep.target, rel=1e-12)

    def test_a_nan_sum_fails(self, monkeypatch):
        # the package exports a function named density, so take the module
        density_module = sys.modules["evolvekit.density"]
        monkeypatch.setattr(density_module, "_log_poisson_sum", lambda *args: math.nan)
        assert not check_series_identity(params(2), 1.0).passed

    @pytest.mark.parametrize("n, lt", [(4, 0.5), (6, 1.0), (3, 2.0)])
    def test_bound_is_relative_where_the_mass_is_small(self, n, lt, monkeypatch):
        # ac_mass is 1.75e-3 at (4, 0.5) and 5.9e-4 at (6, 1), where an
        # absolute 1e-12 would let a relative error of 1e-10 pass
        assert check_series_identity(params(n), lt).passed
        density_module = sys.modules["evolvekit.density"]
        monkeypatch.setattr(
            density_module, "ac_mass", lambda params, t: ac_mass(params, t) * (1 + 1e-10)
        )
        assert not check_series_identity(params(n), lt).passed


class TestSingularMass:
    @pytest.mark.parametrize(
        "n, mean",
        [(1, 2.0), (3, 2.0), (10, 1e-3), (9, 50.0), (50, 1.0), (200, 3.0),
         (100, 100.0), (1, 1000.0)],
    )
    def test_poisson_tail_against_mpmath(self, n, mean):
        exact = float(mpmath.gammainc(n, 0, mean, regularized=True))
        assert math.exp(_log_poisson_sum(mean, n)) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("n, mean", [(200, 0.3), (100, 1e-15), (150, 1e-20)])
    def test_log_poisson_tail_below_the_float_range(self, n, mean):
        # an absolute 1e-12 on the log is a relative 1e-12 on the tail itself
        with mpmath.workdps(40):
            exact = float(mpmath.log(mpmath.gammainc(n, 0, mean, regularized=True)))
        assert abs(_log_poisson_sum(mean, n) - exact) <= 1e-12

    def test_poisson_tail_at_zero_mean(self):
        assert math.exp(_log_poisson_sum(0.0, 2)) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tail_check_catches_a_relative_error_of_1e_10(self, n, monkeypatch):
        # the series identity holds ac_mass to the direct Poisson tail sum
        rep = check_series_identity(params(n), 2.0)
        assert rep.name == f"series-identity-n={n}-lamt=2" and rep.passed
        density_module = sys.modules["evolvekit.density"]
        monkeypatch.setattr(
            density_module, "ac_mass", lambda params, t: ac_mass(params, t) * (1 + 1e-10)
        )
        assert not check_series_identity(params(n), 2.0).passed


class TestRunAll:
    def test_zero_budget_empty(self):
        assert run_all(budget=0) == []

    def test_fit_budget_is_the_least_that_meets_min_expected(self):
        # of B endpoints, Binomial(B, a) land inside (a = ac_mass, the sum of
        # the cell masses m), and a cell expects the share m / a of them; it
        # must expect histogram_fit's min_expected of 5 with three standard
        # deviations of the inside count to spare
        from evolvekit.simulator import _expected_masses, simplex_cells

        need = 0.0
        for n, bins in verification._FIT_BINS.items():
            p = params(n)
            m = _expected_masses(simplex_cells(p, 2.0, bins), lambda x: density_batch(p, x, 2.0))
            spread = 3.0 * math.sqrt(1.0 / m.sum() - 1.0)  # B - spread sqrt(B) >= 5 / m
            need = max(need, (spread + math.sqrt(spread**2 + 4 * 5.0 / m.min())) ** 2 / 4)
        assert verification._FIT_BUDGET == math.ceil(need)
        with pytest.raises(ValueError, match="budget must be >= 1246 for mc-fit"):
            run_all(budget=1245, suites=("mc-fit",))

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_all(suites=("nosuch",))

    def test_exact_suites_pass(self):
        reports = run_all(budget=1000, suites=("coefficients", "beta", "remark"))
        assert reports
        assert all(r.passed for r in reports)

    @pytest.mark.parametrize(
        "grid", [None, [(4, 0.5), (4, 1.0), (4, 2.0)]], ids=["default", "n=4"]
    )
    def test_report_names_are_unique(self, grid):
        names = [r.name for r in run_all(params_grid=grid, budget=2_000)]
        assert len(names) == len(set(names))

    def test_checks_of_n_alone_run_once_per_dimension(self):
        # at the first lam t the grid lists for n, in the grid's order
        grid = [(2, 1.0), (2, 0.5), (2, 2.0)]
        reports = run_all(params_grid=grid, budget=20_000, suites=("geometry", "coefficients"))
        volumes = [r for r in reports if r.name == "volume-n=2"]
        recurrence = [r for r in reports if r.name == "coefficient-recurrence-n=2"]
        assert len(volumes) == len(recurrence) == 1
        assert volumes[0] == check_volume(params(2), 1.0)
        alpha = verification.DerivedConstants.from_params(params(2)).alpha
        assert recurrence[0] == check_coefficient_recurrence(2, alpha)

    def test_cubature_mass_per_grid_case(self):
        def cubature(grid):
            reports = run_all(budget=1000, params_grid=grid, suites=("normalization",))
            return [r for r in reports if r.name.startswith("cubature-mass")]

        grid = [(n, lt) for n in (1, 2, 3) for lt in (0.5, 1.0, 2.0)]
        first = cubature(grid)
        assert [r.name for r in first] == [f"cubature-mass-n={n}-lamt={lt:g}" for n, lt in grid]
        assert all(r.passed and r.rule != "report-only" for r in first)
        assert first == cubature(grid)  # deterministic: identical reports
        # beyond the mc-fit dimensions the nodes per piece grow too fast
        assert cubature([(5, 1.0)]) == []

    def test_mc_fit_holds_one_batch_at_a_time(self):
        # each batch and its fit are freed before the next batch is drawn
        tracemalloc.start()
        try:
            reports = run_all(budget=200_000, suites=("mc-fit",))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(r.passed for r in reports)
        assert peak < 20 * 2**20

    def test_geometry_suite_passes(self):
        reports = run_all(budget=100_000, suites=("geometry",))
        assert all(r.passed for r in reports)

    def test_corruption_hook_fails_volume(self, monkeypatch):
        # a volume 2 percent off, beyond every tolerance rule
        monkeypatch.setattr(verification, "volume", lambda p, t: volume(p, t) * 1.02)
        reports = run_all(budget=100_000, suites=("geometry",))
        assert any(not r.passed for r in reports)

    def test_corruption_hook_fails_normalization(self, monkeypatch):
        def off_by_2_percent(*args, **kwargs):
            est = integrate_over_support(*args, **kwargs)
            return QuadratureEstimate(est.value * 1.02, est.standard_error, est.samples)

        monkeypatch.setattr(verification, "integrate_over_support", off_by_2_percent)
        # n = 4 is past the cubature dimensions, so the Monte Carlo check runs;
        # at lam t = 5 two percent of the mass (0.73) clears the 5e-3 floor
        reports = run_all(budget=100_000, params_grid=[(4, 5.0)], suites=("normalization",))
        names = [r.name for r in reports if not r.passed]
        assert any(name.startswith("normalization") for name in names)

    def test_cubature_catches_a_relative_error_of_1e_6(self, monkeypatch):
        def scaled(f):
            return lambda *args, **kwargs: f(*args, **kwargs) * (1 + 1e-6)

        grid, suites = [(1, 1.0)], ("normalization", "bessel-integral")
        assert all(r.passed for r in run_all(budget=1000, params_grid=grid, suites=suites))
        with monkeypatch.context() as patch:
            patch.setattr(verification, "density_batch", scaled(density_batch))
            failed = [r.name for r in run_all(budget=1000, params_grid=grid, suites=suites)
                      if not r.passed]
        assert failed == ["cubature-mass-n=1-lamt=1"]
        kernel = verification._kernel
        monkeypatch.setattr(verification, "_kernel", lambda p, t: scaled(kernel(p, t)))
        failed = [r.name for r in run_all(budget=1000, params_grid=grid, suites=suites)
                  if not r.passed]
        assert failed == ["bessel-integral-n=1-lamt=1"]

    def test_monte_carlo_past_the_cubature_dimensions(self):
        reports = run_all(
            budget=20_000, params_grid=[(4, 1.0)], suites=("normalization", "bessel-integral")
        )
        assert [r.name for r in reports] == [
            "normalization-n=4-lamt=1", "series-identity-n=4-lamt=1", "bessel-integral-n=4-lamt=1"
        ]
        monte_carlo = [reports[0], reports[2]]
        assert all(r.sigma is not None and r.passed for r in monte_carlo), monte_carlo
