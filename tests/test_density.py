import math

import mpmath
import numpy as np
import pytest
from scipy.special import i0 as scipy_i0
from scipy.special import i1 as scipy_i1
from scipy.stats import poisson

from evolvekit.density import (
    ac_mass,
    analytic_bessel_integral,
    boundary_probability,
    density,
    density_batch,
    jet_operator_density,
    normalization_series_identity,
    remark_constant_check,
    _window_terms,
)
from evolvekit.geometry import EvolutionParams, Membership, vertices_at_time, volume
from evolvekit.special_functions import DerivedConstants


def telegraph_oracle(x, t, lam, v):
    """Classical symmetric line density, written directly from Bessel identities."""
    root = math.sqrt(v * v * t * t - x * x)
    xi = (lam / v) * root
    return math.exp(-lam * t) / (2 * v) * (lam * scipy_i0(xi) + lam * v * t * scipy_i1(xi) / root)


def interior_points(params, t, count, seed, pull=0.95):
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(params.n + 1), size=count)
    w = pull * w + (1 - pull) / (params.n + 1)
    return w @ vertices_at_time(params, t)


class TestDensityLineCase:
    def test_center_value(self):
        got = density(EvolutionParams(n=1, lam=1.0, v=1.0), [0.0], 1.0)
        expected = math.exp(-1.0) / 2.0 * (scipy_i0(1.0) + scipy_i1(1.0))
        assert got.value == pytest.approx(expected, abs=1e-14)
        assert got.value == pytest.approx(0.336835, abs=5e-7)
        assert got.location is Membership.INSIDE

    @pytest.mark.parametrize(
        "lam,v,t",
        [(0.5, 1.0, 1.0), (1.0, 1.0, 1.0), (2.0, 0.5, 2.0), (1.0, 2.0, 0.5), (2.0, 2.0, 2.0)],
    )
    def test_matches_telegraph_on_grid(self, lam, v, t):
        params = EvolutionParams(n=1, lam=lam, v=v)
        xs = np.linspace(-v * t, v * t, 103)[1:-1]
        got = density_batch(params, xs[:, None], t)
        oracle = np.array([telegraph_oracle(x, t, lam, v) for x in xs])
        assert np.max(np.abs(got - oracle)) <= 1e-10

    def test_operator_composite_equals_density_on_line(self):
        params = EvolutionParams(n=1, lam=0.8, v=1.2)
        t = 1.4
        xs = np.linspace(-0.9 * params.v * t, 0.9 * params.v * t, 21)
        for x in xs:
            assert jet_operator_density(params, [x], t, tol=1e-14) == pytest.approx(
                density(params, [x], t, tol=1e-14).value, rel=1e-12
            )


class TestDensityGeneral:
    def test_outside_is_zero(self):
        params = EvolutionParams(n=2, lam=1.0, v=1.0)
        out = density(params, [2.0, 2.0], 1.0)
        assert out.value == 0.0
        assert out.location is Membership.OUTSIDE
        assert np.all(out.operator_terms == 0.0)

    def test_boundary_is_zero(self):
        params = EvolutionParams(n=2, lam=1.0, v=1.0)
        vert = vertices_at_time(params, 1.0)[0]
        out = density(params, vert, 1.0)
        assert out.value == 0.0
        assert out.location is Membership.BOUNDARY

    def test_center_positive_finite(self):
        got = density(EvolutionParams(n=2, lam=1.0, v=1.0), [0.0, 0.0], 1.0)
        assert 0.0 < got.value < math.inf

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_nonnegative_everywhere(self, n):
        params = EvolutionParams(n=n, lam=1.0, v=1.0)
        t = 1.0
        rng = np.random.default_rng(n)
        verts = vertices_at_time(params, t)
        lo, hi = verts.min(axis=0) * 1.2, verts.max(axis=0) * 1.2
        X = rng.uniform(lo, hi, size=(100_000, n))
        vals = density_batch(params, X, t)
        assert np.all(vals >= 0.0)

    def test_value_is_prefactor_times_term_sum(self):
        params = EvolutionParams(n=3, lam=1.3, v=0.7)
        t = 1.1
        consts = DerivedConstants.from_params(params)
        for x in interior_points(params, t, 20, seed=5):
            got = density(params, x, t)
            assert got.value == pytest.approx(
                consts.prefactor * math.exp(-params.lam * t) * got.operator_terms.sum(),
                rel=1e-13,
            )
            assert np.all(got.operator_terms >= 0.0)

    def test_mirror_symmetry_in_plane(self):
        params = EvolutionParams(n=2, lam=1.0, v=1.0)
        t = 1.0
        pts = interior_points(params, t, 200, seed=8)
        mirrored = pts * np.array([1.0, -1.0])
        a = density_batch(params, pts, t)
        b = density_batch(params, mirrored, t)
        assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, a.max())

    def test_continuity_at_boundary(self):
        # approach a facet point radially; the limit is the window-term sum
        # evaluated at the boundary point itself
        params = EvolutionParams(n=2, lam=1.0, v=1.0)
        t = 1.0
        verts = vertices_at_time(params, t)
        edge_mid = 0.5 * (verts[0] + verts[1])
        consts = DerivedConstants.from_params(params)
        limit = (
            consts.prefactor
            * math.exp(-params.lam * t)
            * _window_terms(params, edge_mid[None, :], t, 1e-14).sum()
        )
        deltas = np.array([1e-3, 1e-5, 1e-7])
        approached = density_batch(params, np.outer(1 - deltas, edge_mid), t)
        errors = np.abs(approached - limit)
        assert errors[-1] < 1e-6 * limit
        assert errors[0] < 1e-2 * limit

    def test_batch_matches_scalar(self):
        params = EvolutionParams(n=3, lam=0.9, v=1.4)
        t = 0.8
        pts = interior_points(params, t, 30, seed=3)
        batch = density_batch(params, pts, t)
        single = np.array([density(params, x, t).value for x in pts])
        assert np.allclose(batch, single, rtol=1e-14)

    def test_rejects_bad_inputs(self):
        params = EvolutionParams(n=2, lam=1.0, v=1.0)
        with pytest.raises(ValueError):
            density(params, [0.0, 0.0], 0.0)
        with pytest.raises(ValueError):
            density(params, [0.0, 0.0], -1.0)
        with pytest.raises(ValueError):
            density(params, [math.nan, 0.0], 1.0)
        with pytest.raises(ValueError):
            density_batch(params, [[math.inf, 0.0]], 1.0)

    def test_operator_composite_differs_in_plane(self):
        # the plain time-operator composite is not the endpoint density
        # beyond the line; document the gap instead of hiding it
        params = EvolutionParams(n=2, lam=1.0, v=1.0)
        t = 1.0
        x = np.array([0.2, 0.1])
        f = density(params, x, t).value
        g = jet_operator_density(params, x, t)
        assert abs(g - f) / f > 1e-3


class TestBoundaryProbability:
    def test_t_zero_is_one(self):
        assert boundary_probability(EvolutionParams(n=3, lam=2.0, v=1.0), 0.0) == 1.0

    def test_line_value(self):
        got = boundary_probability(EvolutionParams(n=1, lam=1.0, v=1.0), 1.0)
        assert got == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_three_dimensional_value(self):
        got = boundary_probability(EvolutionParams(n=3, lam=2.0, v=1.0), 1.0)
        assert got == pytest.approx(math.exp(-2.0) * (1 + 2 + 2), rel=1e-14)
        assert got == pytest.approx(0.6766764, abs=5e-8)

    def test_strictly_decreasing_in_unit_interval(self):
        params = EvolutionParams(n=2, lam=1.5, v=1.0)
        ts = np.linspace(0.0, 4.0, 41)
        vals = [boundary_probability(params, t) for t in ts]
        assert all(0.0 < v <= 1.0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestAcMass:
    def test_t_zero(self):
        assert ac_mass(EvolutionParams(n=2, lam=1.0, v=1.0), 0.0) == 0.0

    def test_line_value(self):
        got = ac_mass(EvolutionParams(n=1, lam=1.0, v=1.0), 1.0)
        assert got == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)

    def test_poisson_tail_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            lt = float(rng.uniform(0.1, 6.0))
            params = EvolutionParams(n=n, lam=1.0, v=1.0)
            assert ac_mass(params, lt) == pytest.approx(
                float(poisson.sf(n - 1, lt)), rel=1e-12
            )

    @pytest.mark.parametrize("n", [17, 18, 19, 20])
    def test_tiny_mass_without_cancellation(self, n):
        params = EvolutionParams(n=n, lam=1.0, v=1.0)
        exact = float(mpmath.gammainc(n, 0, 1.0, regularized=True))
        assert ac_mass(params, 1.0) == pytest.approx(exact, rel=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            ac_mass(EvolutionParams(n=2, lam=1.0, v=1.0), -0.5)


class TestAnalyticBesselIntegral:
    def test_t_zero(self):
        assert analytic_bessel_integral(EvolutionParams(n=2, lam=1.0, v=1.0), 0.0) == 0.0

    def test_line_is_sinh(self):
        got = analytic_bessel_integral(EvolutionParams(n=1, lam=1.0, v=1.0), 1.0, tol=1e-15)
        assert got == pytest.approx(2.0 * math.sinh(1.0), rel=1e-13)

    def test_plane_value(self):
        # direct summation oracle: coeff * sum 1/(3k+2)!
        oracle = (3.0 * math.sqrt(3.0) / 2.0) * sum(
            1.0 / math.factorial(3 * k + 2) for k in range(8)
        )
        got = analytic_bessel_integral(EvolutionParams(n=2, lam=1.0, v=1.0), 1.0)
        assert got == pytest.approx(oracle, rel=1e-13)
        assert got == pytest.approx(1.3208, abs=1e-4)


class TestNormalizationSeriesIdentity:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("lt", [0.5, 1.0, 2.0, 5.0])
    def test_equals_ac_mass(self, n, lt):
        params = EvolutionParams(n=n, lam=1.0, v=1.0)
        got = normalization_series_identity(params, lt)
        target = ac_mass(params, lt)
        assert abs(got - target) <= 1e-12 * max(1.0, abs(target))

    def test_speed_independent(self):
        params = EvolutionParams(n=2, lam=1.5, v=3.0)
        got = normalization_series_identity(params, 0.8)
        assert got == pytest.approx(ac_mass(params, 0.8), rel=1e-12)

    def test_t_zero(self):
        assert normalization_series_identity(EvolutionParams(n=3, lam=1.0, v=1.0), 0.0) == 0.0


class TestRemarkConstant:
    def test_line(self):
        closed, via_volume = remark_constant_check(EvolutionParams(n=1, lam=1.0, v=1.0), 1.0)
        assert closed == pytest.approx(0.5, rel=1e-14)
        assert via_volume == pytest.approx(0.5, rel=1e-14)

    def test_plane(self):
        closed, via_volume = remark_constant_check(EvolutionParams(n=2, lam=1.0, v=1.0), 1.0)
        assert closed == pytest.approx(2.0 / (3.0 * math.sqrt(3.0)), rel=1e-13)
        assert closed == pytest.approx(via_volume, rel=1e-12)

    def test_speed_scaling(self):
        a, _ = remark_constant_check(EvolutionParams(n=3, lam=1.0, v=1.0), 1.0)
        b, _ = remark_constant_check(EvolutionParams(n=3, lam=1.0, v=2.0), 1.0)
        assert b == pytest.approx(a / 8.0, rel=1e-13)

    def test_time_invariance_of_volume_route(self):
        params = EvolutionParams(n=2, lam=1.0, v=1.3)
        for t in (0.3, 1.0, 4.0):
            closed, via_volume = remark_constant_check(params, t)
            assert closed == pytest.approx(via_volume, rel=1e-12)
