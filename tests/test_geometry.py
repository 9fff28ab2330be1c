import math
import sys
import warnings
from functools import lru_cache

import mpmath
import numpy as np
import pytest

from evolvekit.geometry import (
    EPS_GEO,
    EvolutionParams,
    Membership,
    barycentric_coordinates,
    build_simplex,
    classify_batch,
    support_contains,
    support_margins,
    vertices_at_time,
    volume,
    _as_points,
    _vertices,
    _y_affine,
)


def params(n, lam=1.0, v=1.0):
    return EvolutionParams(n=n, lam=lam, v=v)


class TestBuildSimplex:
    def test_line_case(self):
        V = build_simplex(1).vertices
        assert np.allclose(V, [[1.0], [-1.0]], atol=1e-15)

    def test_plane_case(self):
        V = build_simplex(2).vertices
        expected = np.array(
            [[1.0, 0.0], [-0.5, math.sqrt(3) / 2], [-0.5, -math.sqrt(3) / 2]]
        )
        assert np.allclose(V, expected, atol=1e-15)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_invariants(self, n):
        V = build_simplex(n).vertices
        assert V.shape == (n + 1, n)
        # unit norms
        assert np.max(np.abs(np.linalg.norm(V, axis=1) - 1.0)) < 1e-12
        # zero centroid
        assert np.max(np.abs(V.sum(axis=0))) < 1e-12
        # vertex i supported on the first i+1 coordinates
        for i in range(n + 1):
            assert np.all(V[i, i + 1 :] == 0.0)
        # pairwise dot products -1/n
        G = V @ V.T
        off = G[~np.eye(n + 1, dtype=bool)]
        assert np.max(np.abs(off + 1.0 / n)) < 1e-12

    @pytest.mark.parametrize("bad", [0, -1, -5])
    def test_rejects_small_n(self, bad):
        with pytest.raises(ValueError):
            build_simplex(bad)


class TestSupportContains:
    def test_centroid_inside(self):
        for n in (1, 2, 3, 5):
            assert support_contains(params(n), np.zeros(n), 1.0) is Membership.INSIDE

    def test_vertices_boundary(self):
        for n in (1, 2, 3, 4):
            p = params(n, v=1.3)
            for vert in vertices_at_time(p, 2.0):
                assert support_contains(p, vert, 2.0) is Membership.BOUNDARY

    def test_line_outside(self):
        assert support_contains(params(1), [1.5], 1.0) is Membership.OUTSIDE

    def test_t_zero_degenerate(self):
        p = params(2)
        assert support_contains(p, [0.0, 0.0], 0.0) is Membership.BOUNDARY
        assert support_contains(p, [1e-8, 0.0], 0.0) is Membership.OUTSIDE

    def test_nan_point_is_outside(self):
        # a NaN margin satisfies no support inequality
        p = params(2)
        for t in (0.0, 1.0):
            got = classify_batch(p, [[math.nan, 0.0], [0.0, 0.0]], t)
            assert got[0] is Membership.OUTSIDE
        assert support_contains(p, [0.0, math.nan], 1.0) is Membership.OUTSIDE

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            support_contains(params(2), [0.0, 0.0], -1.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_membership_equivalence_with_y_sign(self, n):
        # inside <=> min facet coordinate > 0, away from facet neighborhoods
        p = params(n)
        t = 1.7
        rng = np.random.default_rng(n)
        verts = vertices_at_time(p, t)
        lo, hi = verts.min(axis=0), verts.max(axis=0)
        X = rng.uniform(lo, hi, size=(100_000, n))
        margins = support_margins(p, X, t)
        ymin = margins[:, : n + 1].min(axis=1)
        loc = classify_batch(p, X, t)
        away = np.abs(margins).min(axis=1) > 1e-7 * p.v * t
        inside = loc == Membership.INSIDE
        assert np.array_equal(inside[away], (ymin > 0)[away])

    def test_convex_combinations_inside(self):
        for n in (1, 2, 3):
            p = params(n)
            t = 0.9
            rng = np.random.default_rng(7)
            w = rng.dirichlet(np.ones(n + 1), size=500)
            w = 0.999 * w + 0.001 / (n + 1)  # keep weights strictly positive
            X = w @ vertices_at_time(p, t)
            assert all(
                loc is Membership.INSIDE for loc in classify_batch(p, X, t)
            )


def _telescoped_y_affine(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The facet-coordinate coefficients as the paper writes them: telescoped
    square-root products, an empty product being 1 (so n = 1 is the line)."""
    M = np.zeros((n + 1, n))
    s = np.zeros(n + 1)
    M[0, 0] = 1.0
    s[0] = 1.0 / n

    def c(k: int, j: int) -> float:
        return math.sqrt((n - k + 1) * (n - k + 2) / ((n - j + 1) * (n - j + 2)))

    for k in range(2, n + 1):
        M[k - 1, k - 1] = 1.0
        for j in range(1, k):
            M[k - 1, j - 1] = -c(k, j) / (n - k + 1)
        s[k - 1] = c(k, 1) / (n - k + 1)

    def b(j: int) -> float:
        return math.sqrt(2.0 / ((n - j + 1) * (n - j + 2)))

    for j in range(1, n):
        M[n, j - 1] = -b(j)
    M[n, n - 1] = -1.0
    s[n] = b(1) if n > 1 else 1.0
    return M, s


class TestYAffineOracle:
    """``_y_affine`` is derived from the vertex table; the paper's telescoped
    formulas are the oracle."""

    @pytest.mark.parametrize("n", range(1, 41))
    def test_derived_map_matches_the_telescoped_formulas(self, n):
        # 3 float spacings: the maps round different square roots and
        # divisions, and at n = 34, 36 and 38 one entry of each lies on either
        # side of the exact value (about 2 and 1 spacings off), 3 apart
        for got, want in zip(_y_affine(n), _telescoped_y_affine(n)):
            assert np.array_equal(got == 0.0, want == 0.0)
            assert np.all(np.abs(got - want) <= 3 * np.spacing(np.abs(want)))

    def test_line(self):
        M, s = _y_affine(1)
        assert M.tolist() == [[1.0], [-1.0]] and s.tolist() == [1.0, 1.0]


class TestYCoordinates:
    """Facet coordinates: ``support_margins``."""

    @staticmethod
    def y_of(p, x, t=1.0):
        return support_margins(p, np.atleast_1d(np.asarray(x, float)), t)[0, : p.n + 1]

    def test_line_center(self):
        assert np.allclose(self.y_of(params(1), [0.0]), [1.0, 1.0], atol=1e-15)

    def test_line_vertex(self):
        assert np.allclose(self.y_of(params(1), [1.0]), [2.0, 0.0], atol=1e-15)

    def test_interior_positivity(self):
        for n in (1, 2, 3, 4):
            p = params(n)
            rng = np.random.default_rng(n + 10)
            w = rng.dirichlet(np.ones(n + 1), size=200) * 0.98 + 0.02 / (n + 1)
            X = w @ vertices_at_time(p, 1.0)
            for x in X:
                assert np.all(self.y_of(p, x) > 0)


class TestVolume:
    def test_line(self):
        assert volume(params(1), 1.0) == pytest.approx(2.0, rel=1e-15)

    def test_plane(self):
        assert volume(params(2), 1.0) == pytest.approx(3 * math.sqrt(3) / 4, rel=1e-14)

    def test_t_zero(self):
        assert volume(params(3), 0.0) == 0.0

    def test_speed_and_time_scaling(self):
        p = params(3, v=2.0)
        assert volume(p, 1.5) == pytest.approx(volume(params(3), 3.0), rel=1e-13)

    @pytest.mark.parametrize("vt", [1e-3, 0.1, 1.0, 10.0, 100.0])
    def test_matches_mpmath_over_whole_range(self, vt):
        # the float range ends in both directions inside n = 1..400: inf at
        # n = 103, vt = 100 and 0 at n = 116, vt = 1 came from finite factors
        for n in range(1, 401):
            with mpmath.workdps(40):
                root = mpmath.sqrt
                exact = root(n + 1) ** (n + 1) * mpmath.mpf(vt) ** n
                exact /= root(n) ** n * mpmath.factorial(n)
            if exact > sys.float_info.max:
                with pytest.raises(OverflowError, match=f"n={n}, v\\*t={vt:g}"):
                    volume(params(n), vt)
                continue
            got = volume(params(n), vt)
            if n <= 100:  # the expression as it was, bit for bit, where it holds
                old = math.sqrt(n + 1) ** (n + 1) * vt**n / (math.sqrt(n) ** n * math.factorial(n))
                assert got == old
            # subnormal results also carry the spacing of the subnormal grid
            assert abs(got - float(exact)) <= 1e-12 * float(exact) + 2.0**-1074, (n, vt)

    def test_extremes(self):
        # (vt)^10 overflows, yet the volume is a normal float
        assert volume(params(10), 1e31) == pytest.approx(1.47196e304, rel=1e-5)
        assert volume(params(2), 1e-200) == 0.0  # a true underflow
        assert volume(params(400), 0.0) == 0.0
        with pytest.raises(OverflowError, match="n=2, "):
            volume(params(2), 1e200)
        with pytest.raises(OverflowError, match="n=1, "):
            volume(params(1, v=1e300), 1e300)  # v*t itself is inf
        with pytest.raises(ValueError):
            volume(params(2), math.nan)


class TestVerticesAtTime:
    def test_t_zero_collapses(self):
        assert np.all(vertices_at_time(params(4), 0.0) == 0.0)

    def test_plane_at_t2(self):
        got = vertices_at_time(params(2), 2.0)
        expected = np.array(
            [[2.0, 0.0], [-1.0, math.sqrt(3)], [-1.0, -math.sqrt(3)]]
        )
        assert np.allclose(got, expected, atol=1e-14)

    def test_norms_are_vt(self):
        p = params(5, v=0.7)
        got = vertices_at_time(p, 3.1)
        assert np.allclose(np.linalg.norm(got, axis=1), 0.7 * 3.1, atol=1e-12)


class TestBarycentric:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_rows_sum_to_one(self, n):
        p = params(n)
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, n))
        w = barycentric_coordinates(p, X, 1.3)
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_normalized_facet_coordinates(self, n):
        # w_r equals y_(r+1) normalized by its value at vertex r
        p = params(n)
        t = 0.8
        verts = vertices_at_time(p, t)
        Y = support_margins(p, verts, t)[:, : n + 1].T  # Y[i, j] = y_i at vertex j
        # each y_i is positive at exactly one vertex
        pos = [int(np.argmax(Y[i])) for i in range(n + 1)]
        for i in range(n + 1):
            assert np.sum(np.abs(Y[i]) > 1e-10 * p.v * t) == 1
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, n)) * 0.3
        w = barycentric_coordinates(p, X, t)
        y = support_margins(p, X, t)[:, : n + 1]
        for i in range(n + 1):
            assert np.allclose(w[:, pos[i]], y[:, i] / Y[i, pos[i]], atol=1e-12)

    def test_vertex_weights_are_unit_coordinates(self):
        for n in (1, 2, 3):
            p = params(n)
            w = barycentric_coordinates(p, vertices_at_time(p, 2.0), 2.0)
            assert np.allclose(np.sort(w, axis=1)[:, :-1], 0.0, atol=1e-12)
            assert np.allclose(w.max(axis=1), 1.0, atol=1e-12)


class TestParamsValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0, "lam": 1.0, "v": 1.0},
            {"n": 1, "lam": 0.0, "v": 1.0},
            {"n": 1, "lam": -2.0, "v": 1.0},
            {"n": 1, "lam": 1.0, "v": 0.0},
            {"n": 1, "lam": math.inf, "v": 1.0},
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            EvolutionParams(**kwargs)


# Verbatim copy of the chained upper-bound rows that classify_batch tested
# next to the facet coordinates until it read only the least facet
# coordinate; TestUpperRowsRedundant shows they never decide INSIDE.
@lru_cache(maxsize=None)
def _upper_affine(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of the remaining chained upper bounds: margins = U @ x + u * (v*t).

    Row 0 is vt - x_1; rows k-1 (k = 2..n-1) are the upper bounds on x_k.
    The upper bound on x_n equals y_(n+1) and lives in ``_y_affine``.
    """
    rows = max(n - 1, 0)
    U = np.zeros((rows, n))
    u = np.zeros(rows)
    if rows == 0:
        U.setflags(write=False)
        u.setflags(write=False)
        return U, u
    U[0, 0] = -1.0
    u[0] = 1.0

    def c(k: int, j: int) -> float:
        return math.sqrt((n - k + 1) * (n - k + 2) / ((n - j + 1) * (n - j + 2)))

    for k in range(2, n):
        U[k - 1, k - 1] = -1.0
        for j in range(1, k):
            U[k - 1, j - 1] = -c(k, j)
        u[k - 1] = c(k, 1)
    U.setflags(write=False)
    u.setflags(write=False)
    return U, u


# Verbatim copies of the (N, 2n)-layout support_margins and classify_batch
# that preceded the row-major (2n, N) layout; the pins below hold the current
# functions to them.
def _reference_support_margins(params, x, t):
    X = _as_points(params, x)
    n = params.n
    M, s = _y_affine(n)
    U, u = _upper_affine(n)
    vt = params.v * t
    Y = X @ M.T + s * vt
    if U.shape[0]:
        extra = X @ U.T + u * vt
        return np.concatenate([Y, extra], axis=1)
    return Y


def _reference_classify_batch(params, x, t):
    X = _as_points(params, x)
    if t < 0:
        raise ValueError(f"time t must be >= 0, got {t}")
    if t == 0:
        at_origin = np.max(np.abs(X), axis=1) == 0.0
        out = np.where(at_origin, Membership.BOUNDARY, Membership.OUTSIDE)
        return out
    margins = _reference_support_margins(params, X, t)
    eps = EPS_GEO * max(params.v * t, np.finfo(float).tiny)
    lo = margins.min(axis=1)
    result = np.empty(len(X), dtype=object)
    result[lo > eps] = Membership.INSIDE
    result[(lo <= eps) & (lo >= -eps)] = Membership.BOUNDARY
    result[lo < -eps] = Membership.OUTSIDE
    return result


def _pin_points(p, t, count, seed):
    """Dirichlet points of T_vt with 10% pushed outside one facet, plus
    points at +-0.5 eps and +-2 eps from every support hyperplane, where
    eps = EPS_GEO * v t is the boundary band."""
    n = p.n
    vt = p.v * t
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(n + 1), size=count)
    rows = np.nonzero(rng.random(count) < 0.1)[0]
    r = rng.integers(0, n + 1, size=len(rows))
    delta = rng.uniform(1e-4, 1e-2, size=len(rows))
    w[rows] *= ((1 + delta) / (1 - w[rows, r]))[:, None]
    w[rows, r] = -delta
    X = w @ vertices_at_time(p, t)
    M, s = _y_affine(n)
    U, u = _upper_affine(n)
    eps = EPS_GEO * vt
    near = []
    for g, c in zip(np.vstack([M, U]), np.concatenate([s, u])):
        base = X[:20] - np.outer(X[:20] @ g + c * vt, g) / (g @ g)
        for k in (-2.0, -0.5, 0.5, 2.0):
            near.append(base + (k * eps / (g @ g)) * g)
    return np.vstack([X] + near)


class TestRowMajorLayoutPins:
    """The (k, N) layout of the density path changes no classification, margin
    or weight of the (N, k) code it replaced."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_classify_matches_reference(self, n):
        p = params(n, lam=1.3, v=0.7)
        for t in (0.4, 1.7, 30.0):
            X = _pin_points(p, t, 3000, seed=100 + n)
            got = classify_batch(p, X, t)
            ref = _reference_classify_batch(p, X, t)
            assert got.shape == ref.shape == (len(X),)
            assert all(isinstance(m, Membership) for m in got)
            assert np.array_equal(got, ref)
            # the facet offsets reach every class
            assert {m for m in got} == set(Membership)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_t_zero_rule_matches_reference(self, n):
        p = params(n)
        X = np.zeros((4, n))
        X[1, 0] = 1e-300
        X[2, -1] = -5e-324
        X[3] = 1.0
        got = classify_batch(p, X, 0.0)
        assert np.array_equal(got, _reference_classify_batch(p, X, 0.0))
        assert list(got) == [Membership.BOUNDARY] + [Membership.OUTSIDE] * 3

    @pytest.mark.parametrize("n", range(1, 9))
    def test_margins_match_reference(self, n):
        p = params(n, v=1.9)
        t = 0.6
        X = _pin_points(p, t, 2000, seed=200 + n)
        got = support_margins(p, X, t)
        ref = _reference_support_margins(p, X, t)[:, : n + 1]
        assert got.shape == ref.shape == (len(X), n + 1)
        assert np.allclose(got, ref, rtol=0.0, atol=4e-16 * p.v * t)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_barycentric_shape_and_rows(self, n):
        p = params(n, v=1.1)
        t = 2.3
        X = _pin_points(p, t, 500, seed=300 + n)
        w = barycentric_coordinates(p, X, t)
        assert w.shape == (len(X), n + 1)
        assert np.allclose(w.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
        V = build_simplex(n).vertices
        ref = (1.0 + (n / (p.v * t)) * (X @ V.T)) / (n + 1)
        assert np.allclose(w, ref, rtol=0.0, atol=4e-16)
        # one point alone maps as it does inside the batch
        assert np.allclose(barycentric_coordinates(p, X[7], t), w[7:8], rtol=0.0, atol=4e-16)


def _face_points(p, t, count, seed):
    """Dirichlet points of the closed simplex T_vt, most of them on a face:
    each row keeps a random subset of its weights, at least one, so every
    face dimension from vertices (one weight) to the interior is reached."""
    n = p.n
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(n + 1), size=count)
    keep = rng.random(w.shape) < rng.random((count, 1))
    keep[np.arange(count), rng.integers(0, n + 1, size=count)] = True
    w = np.vstack([np.where(keep, w, 0.0), np.eye(n + 1)])
    w /= w.sum(axis=1, keepdims=True)
    return w @ vertices_at_time(p, t)


class TestUpperRowsRedundant:
    """On the closed simplex every chained upper margin is at least sqrt(3)
    times the least facet margin, so the upper rows never decide INSIDE and
    classifying by the n+1 facet coordinates alone is the same test there."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_row_bound_from_vertex_values(self, n):
        # on T_vt, x = vt sum_r w_r tau_r and the one facet coordinate that is
        # positive at vertex r is y = k_r vt w_r; an upper row is affine, so it
        # equals sum_r H_r y / k_r >= (least y) sum_r H_r / k_r when all H_r >= 0
        M, s = _y_affine(n)
        U, u = _upper_affine(n)
        Y = _vertices(n) @ M.T + s  # Y[r, i]: facet coordinate i at vertex r, vt = 1
        H = _vertices(n) @ U.T + u  # H[r, j]: upper row j at vertex r, vt = 1
        k = Y.max(axis=1)
        assert np.allclose(np.sort(Y, axis=1)[:, :-1], 0.0, rtol=0.0, atol=1e-15)
        assert H.min() >= -1e-15
        assert np.all((H / k[:, None]).sum(axis=0) >= math.sqrt(3) * (1 - 1e-15))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_points_of_the_closed_simplex(self, n):
        p = params(n, lam=1.3, v=0.7)
        t = 1.9
        vt = p.v * t
        X = _face_points(p, t, 3000, seed=500 + n)
        margins = _reference_support_margins(p, X, t)
        least = margins[:, : n + 1].min(axis=1)
        assert least.min() >= -4e-15 * vt
        assert np.all(margins[:, n + 1 :] >= math.sqrt(3) * least[:, None] - 4e-15 * vt)


class TestVtUnderflow:
    """v t below the smallest normal float: the simplex is the origin."""

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_vt_zero_only_origin_on_boundary(self, n):
        p = params(n, v=1e-200)
        t = 1e-200
        assert p.v * t == 0.0
        rng = np.random.default_rng(n)
        X = rng.normal(size=(200, n)) * 10.0 ** rng.uniform(-300, 3, size=(200, 1))
        X[0] = 0.0
        got = classify_batch(p, X, t)
        assert got[0] is Membership.BOUNDARY
        assert all(m is Membership.OUTSIDE for m in got[1:])

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_vt_subnormal_only_origin_on_boundary(self, n):
        p = params(n, v=1e-154)
        t = 1e-154
        assert 0.0 < p.v * t < np.finfo(float).tiny
        X = np.zeros((3, n))
        X[1, 0] = 1e-310
        X[2] = -1.0
        got = classify_batch(p, X, t)
        assert list(got) == [Membership.BOUNDARY] + [Membership.OUTSIDE] * 2

    def test_n_over_vt_overflow_only_origin_on_boundary(self):
        # v t = 2.25e-308 is normal, but 8 / (v t) overflows to inf and
        # inf * <tau_r, 0> would be nan
        p = params(8, v=1.5e-154)
        t = 1.5e-154
        assert p.v * t >= np.finfo(float).tiny and math.isinf(p.n / (p.v * t))
        X = np.zeros((2, 8))
        X[1, 3] = 1e-300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = classify_batch(p, X, t)
        assert list(got) == [Membership.BOUNDARY, Membership.OUTSIDE]


class TestFacetBand:
    """BOUNDARY is the least facet margin within +-EPS_GEO * v t.  Without
    the chained upper rows, a point outside the closed simplex that only an
    upper row put beyond the band now reads BOUNDARY; nothing else moves."""

    def test_past_vertex_along_x1_reads_boundary(self):
        p = params(2, lam=1.3, v=0.7)
        t = 1.7
        vt = p.v * t
        x = vt * _vertices(2)[0] + 1.5 * EPS_GEO * vt * np.array([1.0, 0.0])
        # the removed row vt - x_1 is -1.5 eps there; the facets stay in the band
        assert _reference_classify_batch(p, x, t)[0] is Membership.OUTSIDE
        assert classify_batch(p, x, t)[0] is Membership.BOUNDARY

    @pytest.mark.parametrize("n", range(1, 9))
    def test_only_outside_to_boundary_differs(self, n):
        p = params(n, lam=1.3, v=0.7)
        t = 1.7
        vt = p.v * t
        rng = np.random.default_rng(600 + n)
        # face points pushed out across each upper row by 0.5 to 3 eps
        faces = _face_points(p, t, 500, seed=700 + n)
        pushed = [
            faces - np.outer(rng.uniform(0.5, 3.0, size=len(faces)) * EPS_GEO * vt / (g @ g), g)
            for g in _upper_affine(n)[0]
        ]
        X = np.vstack([_pin_points(p, t, 3000, seed=100 + n), faces] + pushed)
        got = classify_batch(p, X, t)
        ref = _reference_classify_batch(p, X, t)
        moved = got != ref
        assert all(m is Membership.BOUNDARY for m in got[moved])
        assert all(m is Membership.OUTSIDE for m in ref[moved])
        least = _reference_support_margins(p, X, t)[:, : n + 1].min(axis=1)
        assert np.all(least[moved] < 0.0)
        # the facet offsets reach every class, and past vertices the case occurs
        assert {m for m in got} == set(Membership)
        assert moved.any() == (n >= 2)
