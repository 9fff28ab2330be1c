import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.special import i0 as scipy_i0
from scipy.special import i1 as scipy_i1

import evolvekit.special_functions as special_functions
from evolvekit.geometry import EvolutionParams, support_margins, _y_affine
from evolvekit.special_functions import (
    DerivedConstants,
    _jet_mul,
    _h_slices,
    _radial_operator_grid,
    _kernel_jet_batch,
    eval_hyper_bessel,
    hyper_bessel_ode_residual,
    series_coefficient,
    tuned_ode_residual,
)


def bessel_i0_series(w: float) -> float:
    """Independent oracle: classical modified Bessel I_0, plain term loop."""
    total, term, k = 1.0, 1.0, 0
    while term > 1e-18 * total:
        k += 1
        term *= (w / 2.0) ** 2 / k**2
        total += term
    return total


class TestEvalHyperBessel:
    def test_zero_argument_is_one(self):
        for n in (1, 2, 3, 7):
            assert eval_hyper_bessel(n, 0.0).value == 1.0

    def test_matches_classical_i0(self):
        ws = np.concatenate([[0.0], np.geomspace(0.01, 20.0, 20)])
        for w in ws:
            got = eval_hyper_bessel(1, float(w), 1e-14).value
            assert got == pytest.approx(bessel_i0_series(float(w)), rel=1e-12)

    def test_order_three_at_three(self):
        # direct summation oracle: terms (3/3)^(3k) / (k!)^3
        oracle = sum(1.0 / math.factorial(k) ** 3 for k in range(12))
        assert eval_hyper_bessel(2, 3.0).value == pytest.approx(oracle, rel=1e-12)

    def test_value_at_least_one_and_monotone(self):
        for n in (1, 2, 4):
            grid = np.linspace(0.0, 12.0, 40)
            vals = [eval_hyper_bessel(n, float(w)).value for w in grid]
            assert all(v >= 1.0 for v in vals)
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_truncation_bound_respects_tol(self):
        for w in (0.5, 3.0, 15.0):
            res = eval_hyper_bessel(2, w, 1e-10)
            assert res.truncation_bound <= 1e-10 * res.value
            assert res.order == 3
            assert res.terms_used >= 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            eval_hyper_bessel(1, -0.5)
        with pytest.raises(ValueError):
            eval_hyper_bessel(1, math.nan)
        with pytest.raises(ValueError):
            eval_hyper_bessel(1, math.inf)
        with pytest.raises(ValueError):
            eval_hyper_bessel(1, 1.0, tol=1e-3)
        with pytest.raises(ValueError):
            eval_hyper_bessel(0, 1.0)

    @pytest.mark.parametrize("n,w", [(1, 2000.0), (2, 3000.0), (1, 1e5)])
    def test_overflow_raises(self, n, w):
        with pytest.raises(OverflowError):
            eval_hyper_bessel(n, w)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_mpmath(self, n):
        # I(w) = 0F_n(; 1, ..., 1; (w/(n+1))^(n+1))
        for w in (0.0, 0.3, 1.0, 4.0, 12.0, 25.0, 40.0):
            with mpmath.workdps(40):
                oracle = float(mpmath.hyper([], [1] * n, mpmath.mpf(w / (n + 1)) ** (n + 1)))
            got = eval_hyper_bessel(n, w, 1e-14).value
            assert abs(got - oracle) <= 1e-12 * oracle


class TestSeriesCoefficient:
    def test_k_zero_is_one(self):
        assert series_coefficient(3, 2.7, 0) == 1.0

    def test_direct_value(self):
        # (alpha/(n+1))^((n+1)k) / (k!)^(n+1) at n=1, alpha=1, k=2
        assert series_coefficient(1, 1.0, 2) == pytest.approx(1.0 / 64.0, rel=1e-14)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_recurrence(self, n):
        consts = DerivedConstants.from_params(EvolutionParams(n=n, lam=1.0, v=1.0))
        alpha = consts.alpha
        const = (alpha / (n + 1)) ** (n + 1)
        prev = series_coefficient(n, alpha, 0)
        for k in range(1, 31):
            ck = series_coefficient(n, alpha, k)
            assert ck * k ** (n + 1) == pytest.approx(const * prev, rel=1e-12)
            prev = ck

    def test_signals_out_of_range(self):
        with pytest.raises(OverflowError):
            series_coefficient(6, 1.0, 300)  # deep underflow
        with pytest.raises(OverflowError):
            series_coefficient(3, 1e12, 30)  # overflow
        with pytest.raises(ValueError):
            series_coefficient(2, 1.0, -1)
        with pytest.raises(ValueError):
            series_coefficient(2, -1.0, 1)


class TestTimeJet:
    """Time jets are coefficient arrays; ``_jet_mul`` is their product."""

    def test_multiplication_matches_truncated_polynomial(self):
        rng = np.random.default_rng(0)
        for deg in (1, 2, 4):
            a = rng.normal(size=deg + 1)
            b = rng.normal(size=deg + 1)
            got = _jet_mul(a, b)
            expected = np.convolve(a, b)[: deg + 1]
            assert np.allclose(got, expected, atol=1e-14)


def y_jets_at(params, x, t):
    """Base values and slopes of the affine facet-coordinate jets at a point."""
    M, s = _y_affine(params.n)
    base = M @ np.asarray(x, dtype=float) + s * params.v * t
    return base[None, :], s * params.v


def kernel_jet(n, alpha, base, slopes):
    """Degree-n jet of the kernel at one base point, as a 1-D coefficient array."""
    return _kernel_jet_batch(n, alpha, np.atleast_2d(base), np.asarray(slopes, float), 1e-12)[0]


def kernel_at_time(params, x, t, alpha):
    """Scalar composite t -> kernel(alpha * (prod y)^(1/(n+1))) for the FD oracle."""
    y = support_margins(params, np.asarray(x)[None, :], t)[0, : params.n + 1]
    z = float(np.prod(np.clip(y, 0.0, None))) ** (1.0 / (params.n + 1))
    return eval_hyper_bessel(params.n, alpha * z, 1e-14).value


class TestJetOfHyperBessel:
    """``_kernel_jet_batch``: jets of the kernel along affine facet coordinates;
    the m-th derivative at the base time is m! times slot m."""

    def test_constant_jets_reduce_to_plain_eval(self):
        n = 2
        vals = [0.7, 0.4, 0.9]
        got = kernel_jet(n, 1.3, vals, np.zeros(n + 1))
        z = float(np.prod(vals)) ** (1.0 / (n + 1))
        assert got[0] == pytest.approx(eval_hyper_bessel(n, 1.3 * z).value, rel=1e-12)
        assert np.allclose(got[1:], 0.0, atol=1e-15)

    def test_classical_identity_on_the_line(self):
        # (lam + d/dt) applied at the center reproduces I_0(1) + I_1(1)
        params = EvolutionParams(n=1, lam=1.0, v=1.0)
        consts = DerivedConstants.from_params(params)
        G = kernel_jet(1, consts.alpha, *y_jets_at(params, [0.0], 1.0))
        value = 1.0 * G[0] + G[1]
        assert value == pytest.approx(float(scipy_i0(1.0) + scipy_i1(1.0)), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_first_slot_matches_central_difference(self, n):
        params = EvolutionParams(n=n, lam=1.0, v=1.0)
        consts = DerivedConstants.from_params(params)
        rng = np.random.default_rng(n)
        t = 1.0
        from evolvekit.geometry import vertices_at_time

        w = rng.dirichlet(np.ones(n + 1), size=100) * 0.9 + 0.1 / (n + 1)
        pts = w @ vertices_at_time(params, t)
        h = 1e-5
        for x in pts:
            G = kernel_jet(n, consts.alpha, *y_jets_at(params, x, t))
            fd = (
                kernel_at_time(params, x, t + h, consts.alpha)
                - kernel_at_time(params, x, t - h, consts.alpha)
            ) / (2 * h)
            assert G[1] == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("n", [2, 3])
    def test_higher_slots_match_central_differences(self, n):
        params = EvolutionParams(n=n, lam=1.0, v=1.0)
        consts = DerivedConstants.from_params(params)
        rng = np.random.default_rng(17 + n)
        t = 1.0
        from evolvekit.geometry import vertices_at_time

        w = rng.dirichlet(np.ones(n + 1), size=10) * 0.8 + 0.2 / (n + 1)
        pts = w @ vertices_at_time(params, t)
        for x in pts:
            G = kernel_jet(n, consts.alpha, *y_jets_at(params, x, t))
            for m in range(2, n + 1):
                # m-th order central difference on the stencil t + (2j - m) h
                h = 0.01
                vals = np.array(
                    [
                        kernel_at_time(params, x, t + o * h, consts.alpha)
                        for o in np.arange(-m, m + 1)
                    ]
                )
                fd = sum(
                    (-1.0) ** (m - j) * math.comb(m, j) * vals[2 * j]
                    for j in range(m + 1)
                ) / (2 * h) ** m
                assert math.factorial(m) * G[m] == pytest.approx(fd, rel=2e-3, abs=1e-8)

    def test_boundary_base_is_exact(self):
        # a vanishing coordinate kills all series terms beyond the jet degree,
        # so the jet equals the degree-n truncation of c_1 * prod y (n=1 case)
        n = 1
        G = kernel_jet(n, 1.0, [0.0, 3.0], [2.0, 1.0])
        c1 = series_coefficient(n, 1.0, 1)
        assert G[0] == pytest.approx(1.0)  # k=0 term
        assert G[1] == pytest.approx(c1 * 2.0 * 3.0, rel=1e-13)


# the residual as it was before the stencil became one series call: one
# eval_hyper_bessel call per stencil point and one more for the centre
def _scalar_ode_residual(n: int, alpha: float, z: float, h: float) -> float:
    m = n + 1
    offsets = np.arange(-m, m + 1)
    zs = z + offsets * h
    vals = np.array([eval_hyper_bessel(n, alpha * zz, 1e-14).value for zz in zs])
    for _ in range(m):
        vals = _radial_operator_grid(vals, zs, h)
        zs = zs[1:-1]
    lhs = vals[0]
    g = eval_hyper_bessel(n, alpha * z, 1e-14).value
    pde_constant = (alpha / (n + 1)) ** (n + 1)
    rhs = pde_constant * ((n + 1) * z) ** (n + 1) * g
    return abs(lhs - rhs) / abs(g)


class TestOdeResidual:
    def test_line_case_small_residual(self):
        assert hyper_bessel_ode_residual(1, 1.0, 1.0, 1e-3) <= 1e-4

    @pytest.mark.parametrize("n", [1, 2])
    def test_stencil_in_one_call_matches_scalar_evaluations(self, n, monkeypatch):
        calls = []
        monkeypatch.setattr(
            special_functions, "eval_hyper_bessel", lambda *a: calls.append(a)
        )
        alpha = DerivedConstants.from_params(EvolutionParams(n=n, lam=1.0, v=1.0)).alpha
        for z in np.linspace(0.5, 2.0, 10):
            h = min(0.05 * z / (n + 1), 0.05)
            # the steps where truncation, not rounding, sets the residual
            for step in (h, h / 2, h / 4):
                got = hyper_bessel_ode_residual(n, alpha, float(z), step)
                want = _scalar_ode_residual(n, alpha, float(z), step)
                assert got == pytest.approx(want, rel=1e-6)
        assert calls == []

    @pytest.mark.parametrize("n", [1, 2])
    def test_check_is_one_series_call(self, n, monkeypatch):
        # every stencil of the (z, step) grid in one engine call, with the
        # worst residual of the per-argument tuning
        from evolvekit.verification import check_ode_residual

        calls = []
        engine = special_functions._h_slices
        monkeypatch.setattr(
            special_functions, "_h_slices", lambda *a: calls.append(a[1].size) or engine(*a)
        )
        alpha = DerivedConstants.from_params(EvolutionParams(n=n, lam=1.0, v=1.0)).alpha
        report = check_ode_residual(n, alpha)
        assert len(calls) == 1 and calls[0] == 10 * 6 * (2 * n + 3)
        monkeypatch.setattr(special_functions, "_h_slices", engine)
        worst = max(
            tuned_ode_residual(n, alpha, float(z)) / (alpha * z) ** (n + 1)
            for z in np.linspace(0.5, 2.0, 10)
        )
        assert report.estimate == pytest.approx(worst, rel=1e-3) and report.passed

    def test_stencil_overflow_is_named(self):
        with pytest.raises(OverflowError, match="stencil at z=800"):
            hyper_bessel_ode_residual(1, 1.0, 800.0, 1e-3)

    def test_order_three_with_tuning(self):
        assert tuned_ode_residual(2, 1.0, 1.0) <= 1e-2

    def test_rejects_large_step(self):
        with pytest.raises(ValueError):
            hyper_bessel_ode_residual(2, 1.0, 0.3, 0.2)
        with pytest.raises(ValueError):
            hyper_bessel_ode_residual(1, 1.0, 1.0, 0.0)


class TestDerivedConstants:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_construction_identity(self, n):
        consts = DerivedConstants.from_params(EvolutionParams(n=n, lam=0.7, v=1.9))
        assert consts.pde_constant == pytest.approx(
            (consts.alpha / (n + 1)) ** (n + 1), rel=1e-12
        )

    def test_line_alpha_is_rate_over_speed(self):
        consts = DerivedConstants.from_params(EvolutionParams(n=1, lam=3.0, v=2.0))
        assert consts.alpha == pytest.approx(1.5, rel=1e-14)
        assert consts.prefactor == pytest.approx(1.0 / 4.0, rel=1e-14)

    @pytest.mark.parametrize(
        "n, lam, v",
        [
            (300, 1.0, 1.0),
            (3, 1.0, 1e300),
            (3, 1e100, 1.0),
            (8, 1e-10, 1e-154),  # v**8 underflows to 0 and divides by it
            (3, 1e300, 1e-10),  # lam / v overflows to inf without an error
        ],
    )
    def test_overflow_names_the_parameters(self, n, lam, v):
        named = re.escape(f"n={n}, lam={lam!r}, v={v!r}")
        with pytest.raises(OverflowError, match=named):
            DerivedConstants.from_params(EvolutionParams(n=n, lam=lam, v=v))

    @pytest.mark.parametrize(
        "n, lam, v", [(1, 3.0, 2.0), (8, 1e-10, 1e-30), (3, 1e60, 1e-10), (40, 0.7, 1.9)]
    )
    def test_in_range_values_as_written(self, n, lam, v):
        consts = DerivedConstants.from_params(EvolutionParams(n=n, lam=lam, v=v))
        root = math.exp(math.log(2 * n + 2) / (2 * n + 2))
        assert consts.alpha == (lam / v) * math.sqrt(n * (n + 1)) / root
        assert consts.prefactor == math.sqrt(n) ** n / (math.sqrt(n + 1) ** (n + 1) * v**n)
        assert consts.pde_constant == (
            (lam / v) ** (n + 1) * (n / (n + 1)) ** ((n + 1) / 2) / math.sqrt(2 * n + 2)
        )


class TestSliceEngine:
    """``_h_slices``: all n+1 slices of a batch in one tiled pass."""

    @pytest.mark.parametrize("lt", [20.0, 800.0])
    def test_tiled_batch_matches_products_one_at_a_time(self, lt):
        # two full tiles and a last one of a single product, from the centre
        # of the simplex down to 0 and across many decades
        n = 2
        top = (lt / (n + 1)) ** (n + 1)
        p = top * np.random.default_rng(5).random(2 * special_functions._TILE + 1) ** 4
        p[[0, -1]] = top, 0.0
        batch = _h_slices(n, p, 1e-12, lt, n + 1)[0]
        alone = np.hstack([_h_slices(n, p[k : k + 1], 1e-12, lt, n + 1)[0] for k in range(len(p))])
        assert np.array_equal(batch == 0.0, alone == 0.0)
        normal = alone >= np.finfo(float).tiny
        assert normal[:, 0].all() and normal.mean() > 0.5
        assert np.all(np.abs(batch[normal] - alone[normal]) <= 1e-12 * alone[normal])

    def test_multiplies_in_place_into_the_callers_rows(self):
        n, lt = 3, 20.0
        p = np.linspace(0.0, (lt / (n + 1)) ** (n + 1), 9)
        rows = np.arange(1.0, 1.0 + (n + 1) * len(p)).reshape(n + 1, len(p))
        want = rows * _h_slices(n, p, 1e-12, lt, n + 1)[0]
        got, terms, _ = _h_slices(n, p, 1e-12, lt, rows)
        assert got is rows
        assert np.array_equal(got, want)
        assert terms == _h_slices(n, p, 1e-12, lt, 1)[1]

    @pytest.mark.parametrize("n, lt", [(8, 200.0), (1, 800.0), (3, 800.0)])
    def test_working_memory_does_not_grow_with_the_batch(self, n, lt):
        # the tile buffers take about 1.8 MB at n = 8; one more (N,) array
        # of N = 200,000 points would add 1.6 MB
        p = np.linspace(0.0, (lt / (n + 1)) ** (n + 1), 200_000)
        out = np.ones((n + 1, len(p)))
        tracemalloc.start()
        try:
            _h_slices(n, p, 1e-12, lt, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6

    @pytest.mark.parametrize(
        "n, w, tol, terms, bound",
        [
            (1, 0.5, 1e-12, 7, "0x1.5298d3e7eea0ap-53"),
            (2, 3.0, 1e-12, 9, "0x1.82919b57ccf20p-56"),
            (3, 40.0, 1e-14, 26, "0x1.fa92fa1c064f5p-9"),
            (8, 200.0, 1e-10, 35, "0x1.fd8d7d1290c1ep+212"),
            (1, 700.0, 1e-12, 454, "0x1.fa47aaafe2f77p+958"),
            (5, 0.0, 1e-12, 2, "0x0.0p+0"),
        ],
    )
    def test_kernel_diagnostics_keep_their_bits(self, n, w, tol, terms, bound):
        # the term count and truncation bound of the per-slice engine this
        # one replaced, which summed the kernel alone
        res = eval_hyper_bessel(n, w, tol)
        assert res.terms_used == terms
        assert res.truncation_bound.hex() == bound
