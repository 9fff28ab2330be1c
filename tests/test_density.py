import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import i0 as scipy_i0
from scipy.special import i1 as scipy_i1
from scipy.special import ive
from scipy.stats import poisson

from evolvekit.cli import main
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
from evolvekit.geometry import (
    EPS_GEO,
    EvolutionParams,
    Membership,
    _vertices,
    _y_affine,
    classify_batch,
    vertices_at_time,
    volume,
)
from evolvekit.special_functions import DerivedConstants, _h_slices
from test_geometry import _upper_affine


def telegraph_oracle(x, t, lam, v):
    """Classical symmetric line density, written directly from Bessel identities."""
    root = math.sqrt(v * v * t * t - x * x)
    xi = (lam / v) * root
    return math.exp(-lam * t) / (2 * v) * (lam * scipy_i0(xi) + lam * v * t * scipy_i1(xi) / root)


def telegraph_oracle_scaled(x, t, lam, v):
    """The same line density through exponentially scaled Bessel functions,
    I_k(xi) = ive(k, xi) exp(xi), so that it stays finite at any lam t."""
    x = np.asarray(x, dtype=float)
    root = np.sqrt(v * v * t * t - x * x)
    xi = (lam / v) * root
    return (
        np.exp(xi - lam * t) / (2 * v) * (lam * ive(0, xi) + lam * v * t * ive(1, xi) / root)
    )


def closed_form_oracle(n, lam, v, t, w):
    """Density at barycentric weights w from the closed form in mpmath, with
    h_b(p) = 0F_n(; 1^(b-1), 2^(n+1-b); p) and 40 digits throughout."""
    with mpmath.workdps(40):
        lt = mpmath.mpf(lam) * mpmath.mpf(t)
        u = [lt * mpmath.mpf(float(wr)) for wr in w]
        p = mpmath.fprod(u)
        total = (n + 1) * mpmath.hyper([], [1] * n, p)
        for m in range(1, n + 1):
            e = mpmath.fsum(
                mpmath.fprod(u[(i + j) % (n + 1)] for j in range(m)) for i in range(n + 1)
            )
            b = n + 1 - m
            total += e * mpmath.hyper([], [1] * (b - 1) + [2] * (n + 1 - b), p)
        prefactor = mpmath.sqrt(n) ** n / (mpmath.sqrt(n + 1) ** (n + 1) * mpmath.mpf(v) ** n)
        return float(prefactor * mpmath.exp(-lt) * mpmath.mpf(lam) ** n / (n + 1) * total)


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
        # (already scaled by exp(-lam t)) evaluated at the boundary point itself
        params = EvolutionParams(n=2, lam=1.0, v=1.0)
        t = 1.0
        verts = vertices_at_time(params, t)
        edge_mid = 0.5 * (verts[0] + verts[1])
        consts = DerivedConstants.from_params(params)
        limit = consts.prefactor * _window_terms(params, edge_mid[None, :], t, 1e-14).sum()
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


class TestOperatorCompositeBatch:
    """``jet_operator_density`` on a batch: one value per row, one jet series."""

    @staticmethod
    def points(n, lt, count, seed):
        w = np.random.default_rng(seed).dirichlet(np.ones(n + 1), size=count)
        return w @ vertices_at_time(EvolutionParams(n=n, lam=1.0, v=1.0), lt)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_point_is_the_one_row_batch(self, n):
        params = EvolutionParams(n=n, lam=1.0, v=1.0)
        for x in self.points(n, 2.0, 5, n):
            got = jet_operator_density(params, x, 2.0)
            assert type(got) is float
            batch = jet_operator_density(params, x[None, :], 2.0)
            assert batch.shape == (1,) and np.float64(got).tobytes() == batch[0].tobytes()

    def test_off_the_open_simplex_reads_zero(self):
        params = EvolutionParams(n=2, lam=1.0, v=1.0)
        t = 1.5
        verts = vertices_at_time(params, t)
        inside = self.points(2, t, 3, 5)
        X = np.vstack([inside, verts, 0.5 * (verts[0] + verts[1]), [[3.0, 3.0], [0.0, -2.0]]])
        got = jet_operator_density(params, X, t)
        assert got.shape == (len(X),)
        assert np.all(got[:3] > 0.0) and np.all(got[3:] == 0.0)
        assert jet_operator_density(params, verts[1], t) == 0.0
        assert jet_operator_density(params, [3.0, 3.0], t) == 0.0

    @pytest.mark.parametrize("n", [2, 3])
    def test_batch_rows_match_single_points(self, n):
        # each point stops on its own terms, whatever else is in the batch
        params = EvolutionParams(n=n, lam=1.0, v=1.0)
        X = self.points(n, 2.0, 40, 7 + n)
        X[0] = 0.0  # the centre, whose series runs longest
        got = jet_operator_density(params, X, 2.0)
        alone = np.array([jet_operator_density(params, x, 2.0) for x in X])
        assert np.max(np.abs(got - alone) / alone) <= 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("lt", [0.5, 2.0])
    def test_every_slot_converges(self, n, lt):
        # the series must run until the derivative slots settle, not the
        # value slot alone, or the default tol is off by up to 3.6e-7 at n = 2
        params = EvolutionParams(n=n, lam=1.0, v=1.0)
        X = self.points(n, lt, 200, 100 + n)
        got = jet_operator_density(params, X, lt, tol=1e-12)
        tight = jet_operator_density(params, X, lt, tol=1e-16)
        assert np.all(tight > 0.0)
        assert np.max(np.abs(got - tight) / tight) <= 1e-11

    def test_one_point_past_the_jet_range_raises(self):
        # the unscaled jets overflow to inf and exp(-800) underflows to 0;
        # their product would be NaN where density gives 0.0141
        params = EvolutionParams(n=1, lam=1.0, v=1.0)
        assert math.isfinite(jet_operator_density(params, [0.0], 700.0))
        with pytest.raises(OverflowError, match=r"n=1, lam\*t=800"):
            jet_operator_density(params, [0.0], 800.0)

    def test_batch_past_the_jet_range_raises(self):
        params = EvolutionParams(n=2, lam=1.0, v=1.0)
        X = np.array([[0.0, 0.0], [0.1, -0.05]])
        assert np.all(np.isfinite(jet_operator_density(params, X, 700.0)))
        with pytest.raises(OverflowError, match=r"n=2, lam\*t=800"):
            jet_operator_density(params, X, 800.0)


class TestLargeLambdaT:
    """The scaled slice series far past lam t ~ 709, where exp(lam t) overflows."""

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("lt", [1.0, 20.0, 800.0, 2000.0])
    def test_slices_match_mpmath(self, n, lt):
        # products from the centre of the simplex down to a face, each alone
        # and all in one batch, so that batches with and without a rescale
        # are both covered
        p = (lt / (n + 1)) ** (n + 1) * np.array([1.0, 0.3, 1e-2, 1e-6, 0.0])
        with mpmath.workdps(40):
            oracle = np.array([
                [
                    float(mpmath.hyper([], [1] * (b - 1) + [2] * (n + 1 - b), mpmath.mpf(pk))
                          * mpmath.exp(-lt))
                    for pk in p
                ]
                for b in range(1, n + 2)
            ])
        def slices(p):
            return _h_slices(n, p, 1e-12, lt, n + 1)[0][::-1]  # rows b = 1..n+1

        batch = slices(p)
        alone = np.hstack([slices(p[k:k + 1]) for k in range(len(p))])
        keep = oracle >= 1e-300
        assert keep[:, 0].all()
        for got in (batch, alone):
            assert np.all(np.isfinite(got))
            assert np.all(np.abs(got[keep] - oracle[keep]) <= 1e-12 * oracle[keep])
            assert np.all(got[~keep] < 1e-299)

    @pytest.mark.parametrize("lam,v,t", [(1.0, 1.0, 700.0), (2.0, 0.5, 400.0), (0.5, 2.0, 4000.0)])
    def test_line_matches_scaled_bessel(self, lam, v, t):
        params = EvolutionParams(n=1, lam=lam, v=v)
        xs = np.linspace(-v * t, v * t, 2003)[1:-1]
        got = density_batch(params, xs[:, None], t)
        oracle = telegraph_oracle_scaled(xs, t, lam, v)
        keep = oracle >= 1e-300
        assert np.count_nonzero(keep) > 1000
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got[keep] - oracle[keep]) / oracle[keep]) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("lt", [800.0, 2000.0])
    def test_plane_and_space_match_closed_form(self, n, lt):
        params = EvolutionParams(n=n, lam=1.0, v=1.0)
        w = np.random.default_rng(n).dirichlet(np.full(n + 1, 4.0), size=12)
        got = density_batch(params, w @ vertices_at_time(params, lt), lt)
        oracle = np.array([closed_form_oracle(n, 1.0, 1.0, lt, wi) for wi in w])
        keep = oracle >= 1e-300
        assert np.count_nonzero(keep) >= 6
        assert np.max(np.abs(got[keep] - oracle[keep]) / oracle[keep]) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_finite_everywhere_at_lam_t_800(self, n):
        params = EvolutionParams(n=n, lam=1.0, v=1.0)
        t = 800.0
        x = np.random.default_rng(10 + n).dirichlet(np.ones(n + 1), size=5000) @ vertices_at_time(
            params, t
        )
        got = density_batch(params, np.vstack([x, 1.01 * x[:500]]), t)
        assert np.all(np.isfinite(got))
        assert np.all(got >= 0.0)
        assert np.count_nonzero(got[:5000]) > 4500

    def test_cli_line_grid_rows_are_finite(self, tmp_path):
        out = tmp_path / "density.csv"
        assert main(["density", "--n", "1", "--t", "800", "--grid=-900:900:41", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:-1]]
        assert len(rows) == 41
        values = [float(row[-1]) for row in rows]
        assert all(math.isfinite(value) for value in values)
        assert all(value > 0.0 for value, row in zip(values, rows) if row[1] == "inside")

    def test_series_past_the_term_cap_raises(self):
        # the centre of the line at lam t = 1e4 needs more than _SERIES_CAP
        # terms; a truncated sum would be silently wrong
        params = EvolutionParams(n=1, lam=1.0, v=1.0)
        with pytest.raises(ValueError, match=r"n = 1 .*lam\*t = 10000"):
            density_batch(params, [[0.0]], 1e4)
        with pytest.raises(ValueError, match=r"n = 1 .*lam\*t = 10000"):
            density(params, [0.0], 1e4)


@st.composite
def evolution_cases(draw):
    """Parameters, a time with lam t in [0.001, 2000] and 1..6 points: points
    of the closed simplex (faces included) scaled by 0.99 to 1.05 about its
    centre, so that some land outside."""
    n = draw(st.integers(1, 4))
    lam = draw(st.floats(0.05, 20.0))
    v = draw(st.floats(0.1, 10.0))
    lt = draw(st.floats(1e-3, 2000.0))
    raw = draw(
        st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=n + 1, max_size=n + 1),
            min_size=1,
            max_size=6,
        )
    )
    stretch = draw(st.floats(0.99, 1.05))
    params = EvolutionParams(n=n, lam=lam, v=v)
    t = lt / lam
    w = np.array(raw) + 1e-12
    w /= w.sum(axis=1, keepdims=True)
    return params, t, stretch * (w @ vertices_at_time(params, t))


PROPERTY_SETTINGS = settings(max_examples=60, derandomize=True, database=None, deadline=None)


class TestDensityProperties:
    @PROPERTY_SETTINGS
    @given(evolution_cases())
    def test_finite_and_nonnegative(self, case):
        params, t, x = case
        f = density_batch(params, x, t)
        assert np.all(np.isfinite(f))
        assert np.all(f >= 0.0)

    @PROPERTY_SETTINGS
    @given(evolution_cases())
    def test_batch_equals_scalar(self, case):
        # one point per batch call: across a larger batch the truncation
        # follows the largest product and the per-row rounding of the
        # barycentric map can differ, both amplified by lam t, so equality
        # at 1e-14 is a one-point property (test_batch_matches_scalar covers
        # a 30-point batch at small lam t)
        params, t, x = case
        for xi in x:
            batch = density_batch(params, xi[None, :], t)[0]
            assert batch == pytest.approx(density(params, xi, t).value, rel=1e-14, abs=0.0)


class TestBoundaryProbability:
    def test_t_zero_is_one(self):
        assert boundary_probability(EvolutionParams(n=3, lam=2.0, v=1.0), 0.0) == 1.0

    def test_line_value(self):
        got = boundary_probability(EvolutionParams(n=1, lam=1.0, v=1.0), 1.0)
        assert got == pytest.approx(math.exp(-1.0), rel=1e-14)

    @pytest.mark.parametrize("lam, t", [(2.0, 0.25), (1.0, 1.0), (4.0, 2.5), (0.5, 1400.0)])
    def test_line_value_correctly_rounded(self, lam, t):
        # lam t = 0.5, 1, 10, 700: the single term exp(-lam t), to the last bit
        got = boundary_probability(EvolutionParams(n=1, lam=lam, v=1.0), t)
        assert got == math.exp(-lam * t)

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
            # poisson.sf is the same incomplete gamma routine; the term sum is not
            direct = math.fsum(
                math.exp(-lt) * lt**k / math.factorial(k) for k in range(n, 80)
            )
            assert ac_mass(params, lt) == pytest.approx(direct, rel=1e-12)

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
        got = analytic_bessel_integral(EvolutionParams(n=1, lam=1.0, v=1.0), 1.0)
        assert got == pytest.approx(2.0 * math.sinh(1.0), rel=1e-13)

    @pytest.mark.parametrize("lt", [50.0, 300.0, 700.0])
    def test_line_is_sinh_at_large_lam_t(self, lt):
        params = EvolutionParams(n=1, lam=2.0, v=0.5)
        got = analytic_bessel_integral(params, lt / params.lam)
        assert got == pytest.approx(2.0 * (params.v / params.lam) * math.sinh(lt), rel=1e-12)

    def test_overflow_names_n_and_lam_t(self):
        with pytest.raises(OverflowError, match=r"n=1, lam\*t=800"):
            analytic_bessel_integral(EvolutionParams(n=1, lam=1.0, v=1.0), 800.0)

    def test_small_coefficient_keeps_a_large_lam_t_finite(self):
        # e^720 is past the float range; (v/lam) e^720 / 2 * 2 is not
        got = analytic_bessel_integral(EvolutionParams(n=1, lam=1.0, v=1e-10), 720.0)
        with mpmath.workdps(40):
            exact = float(2 * mpmath.mpf(1e-10) * mpmath.sinh(720))
        assert got == pytest.approx(exact, rel=1e-12)

    def test_tiny_time_at_high_dimension(self):
        assert analytic_bessel_integral(EvolutionParams(n=100, lam=1.0, v=1.0), 1e-15) == 0.0

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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("lt", [100.0, 200.0, 500.0, 1000.0])
    def test_equals_ac_mass_at_large_lam_t(self, n, lt):
        params = EvolutionParams(n=n, lam=1.0, v=1.0)
        got = normalization_series_identity(params, lt)
        assert abs(got - ac_mass(params, lt)) <= 1e-12

    def test_speed_independent(self):
        params = EvolutionParams(n=2, lam=1.5, v=3.0)
        got = normalization_series_identity(params, 0.8)
        assert got == pytest.approx(ac_mass(params, 0.8), rel=1e-12)

    def test_t_zero(self):
        assert normalization_series_identity(EvolutionParams(n=3, lam=1.0, v=1.0), 0.0) == 0.0

    def test_tiny_time_at_high_dimension(self):
        params = EvolutionParams(n=100, lam=1.0, v=1.0)
        assert normalization_series_identity(params, 1e-15) == 0.0


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

    @pytest.mark.parametrize("n", [171, 300])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_past_factorial_overflow(self, n, t):
        # n! leaves the float range from n = 171, (sqrt n)^n from n = 283
        with mpmath.workdps(30):
            exact = float(mpmath.sqrt(n) ** n / mpmath.sqrt(n + 1) ** (n + 1))
        closed, via_volume = remark_constant_check(EvolutionParams(n=n, lam=1.0, v=1.0), t)
        assert closed == pytest.approx(exact, rel=1e-13)
        assert via_volume == pytest.approx(exact, rel=1e-12)

    def test_in_range_values_as_written(self):
        n, v, t = 40, 1.3, 0.7
        closed, via_volume = remark_constant_check(EvolutionParams(n=n, lam=1.0, v=v), t)
        assert closed == math.sqrt(n) ** n / (math.sqrt(n + 1) ** (n + 1) * v**n)
        params = EvolutionParams(n=n, lam=1.0, v=v)
        assert via_volume == t**n / (math.factorial(n) * volume(params, t))

    def test_prefactor_beyond_float_range_is_named(self):
        with pytest.raises(OverflowError, match=r"n=200, v\*t=1e-05"):
            remark_constant_check(EvolutionParams(n=200, lam=1.0, v=1e-5), 1.0)


# Verbatim copy of the (N, n+1)-layout _window_sums that preceded the
# row-major layout, and the density math of that layout written out with it.
def _reference_window_sums(u: np.ndarray) -> np.ndarray:
    """Cyclic-window products e_m(u), m = 0..n, shape (n+1, N); e_0 = n+1."""
    nplus1 = u.shape[1]
    out = np.empty((nplus1, u.shape[0]))
    out[0] = nplus1
    windows = np.ones_like(u)
    for m in range(1, nplus1):
        for i0 in range(nplus1):
            windows[:, i0] *= u[:, (i0 + m - 1) % nplus1]
        out[m] = windows.sum(axis=1)
    return out


def _reference_density_batch(params, X, t, tol=1e-12):
    n = params.n
    vt = params.v * t
    M, s = _y_affine(n)
    U, c = _upper_affine(n)
    margins = np.concatenate([X @ M.T + s * vt, X @ U.T + c * vt], axis=1)
    inside = margins.min(axis=1) > EPS_GEO * vt
    values = np.zeros(len(X))
    if inside.any():
        w = (1.0 + (n / vt) * (X[inside] @ _vertices(n).T)) / (n + 1)
        u = np.clip(params.lam * t * w, 0.0, None)
        p = np.prod(u, axis=1)
        e = _reference_window_sums(u)
        scale = params.lam**n / (n + 1)
        terms = np.empty_like(e)
        h = _h_slices(n, p, tol, params.lam * t, n + 1)[0]
        for m in range(n + 1):
            terms[m] = scale * e[m] * h[m]
        values[inside] = DerivedConstants.from_params(params).prefactor * terms.sum(axis=0)
    return values


def _grid_points(params, t, count, seed):
    """Dirichlet points of T_vt with 10% pushed just outside one facet."""
    n = params.n
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(n + 1), size=count)
    rows = np.nonzero(rng.random(count) < 0.1)[0]
    r = rng.integers(0, n + 1, size=len(rows))
    delta = rng.uniform(1e-4, 1e-2, size=len(rows))
    w[rows] *= ((1 + delta) / (1 - w[rows, r]))[:, None]
    w[rows, r] = -delta
    return w @ vertices_at_time(params, t)


class TestRowMajorLayoutPins:
    """density_batch in the (k, N) layout against the (N, k) reference math."""

    RATES = {1.0: (1.0, 1.0), 5.0: (2.0, 0.5), 20.0: (0.5, 2.0), 800.0: (1.0, 1.0)}

    @pytest.mark.parametrize(
        "n, lt",
        [(n, lt) for n in range(1, 9) for lt in (1.0, 5.0, 20.0)]
        + [(n, 800.0) for n in (1, 2, 3)],
    )
    def test_density_batch_matches_reference(self, n, lt):
        lam, v = self.RATES[lt]
        params = EvolutionParams(n=n, lam=lam, v=v)
        t = lt / lam
        X = _grid_points(params, t, 4000, seed=10 * n + int(lt))
        got = density_batch(params, X, t)
        ref = _reference_density_batch(params, X, t)
        assert np.array_equal(got == 0.0, ref == 0.0)
        assert np.all(np.abs(got - ref) <= 2e-15 * np.abs(ref))
        assert np.count_nonzero(ref) > 0

    @pytest.mark.parametrize("n", range(1, 9))
    def test_window_sums_match_reference(self, n):
        from evolvekit.density import _window_sums

        rng = np.random.default_rng(n)
        u = rng.uniform(0.0, 3.0, size=(1000, n + 1))
        got = _window_sums(np.ascontiguousarray(u.T))
        ref = _reference_window_sums(u)
        assert got.shape == ref.shape == (n + 1, 1000)
        assert np.allclose(got, ref, rtol=2e-15, atol=0.0)


@st.composite
def relabelling_cases(draw):
    """Parameters with n <= 5 and lam t <= 20, and interior barycentric
    weights bounded away from the faces."""
    n = draw(st.integers(1, 5))
    lam = draw(st.floats(0.05, 20.0))
    v = draw(st.floats(0.1, 10.0))
    lt = draw(st.floats(1e-3, 20.0))
    raw = draw(
        st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=n + 1, max_size=n + 1),
            min_size=1,
            max_size=6,
        )
    )
    w = np.array(raw) + 1e-3
    w /= w.sum(axis=1, keepdims=True)
    w = 0.98 * w + 0.02 / (n + 1)
    return EvolutionParams(n=n, lam=lam, v=v), lt / lam, w


class TestCyclicRelabelling:
    @PROPERTY_SETTINGS
    @given(relabelling_cases())
    def test_rotated_weights_give_the_same_density(self, case):
        # e_m(u) and p = prod(u) are invariant under a cyclic shift of the
        # sojourn variables, so the density is too
        params, t, w = case
        verts = vertices_at_time(params, t)
        f = density_batch(params, w @ verts, t)
        g = density_batch(params, np.roll(w, 1, axis=1) @ verts, t)
        assert np.all(f > 0.0)
        np.testing.assert_allclose(g, f, rtol=1e-12, atol=0.0)


class TestVtUnderflow:
    """v t below the smallest normal float: the simplex is the origin, on
    the boundary, so the density is 0 everywhere."""

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_vt_zero_density_is_zero(self, n):
        params = EvolutionParams(n=n, lam=1.0, v=1e-200)
        t = 1e-200
        rng = np.random.default_rng(n)
        X = rng.normal(size=(200, n)) * 10.0 ** rng.uniform(-300, 3, size=(200, 1))
        X[0] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = density_batch(params, X, t)
            at_origin = density(params, X[0], t)
        assert np.array_equal(values, np.zeros(len(X)))
        assert at_origin.value == 0.0
        assert at_origin.location is Membership.BOUNDARY

    @pytest.mark.parametrize("v", [1e-154, 1.5e-154])
    def test_vt_too_small_origin_is_boundary(self, v):
        # v t = 1e-308 is subnormal and 8 / 2.25e-308 overflows: either way
        # the weights would divide n by too small a v t
        params = EvolutionParams(n=8, lam=1.0, v=v)
        t = v
        assert math.isinf(params.n / params.v / t)
        origin = np.zeros(8)
        assert density_batch(params, origin, t).tolist() == [0.0]
        got = density(params, origin, t)
        assert got.value == 0.0
        assert got.location is Membership.BOUNDARY


class TestConstantsOutOfRange:
    """Parameters whose density constants leave the float range raise the
    constants' named OverflowError at an inside point."""

    @pytest.mark.parametrize(
        "n, lam, v, t",
        [
            (8, 1e-10, 1e-154, 1e10),  # v**8 underflows: a ZeroDivisionError before
            (3, 1e300, 1e-10, 1e-297),  # lam / v is inf: a bare error at lam**3 before
        ],
    )
    def test_inside_point_names_the_parameters(self, n, lam, v, t):
        params = EvolutionParams(n=n, lam=lam, v=v)
        origin = np.zeros(n)
        assert classify_batch(params, origin[None, :], t)[0] is Membership.INSIDE
        named = re.escape(f"n={n}, lam={lam!r}, v={v!r}")
        with pytest.raises(OverflowError, match=named):
            density_batch(params, origin[None, :], t)
        with pytest.raises(OverflowError, match=named):
            density(params, origin, t)
