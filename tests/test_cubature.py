"""The deterministic cell cubature behind ``histogram_fit``: the
Grundmann-Moller rules, the edgewise pieces, the masses against exact
totals and against the Monte Carlo tallies it replaced."""

import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chi2

import evolvekit.simulator as simulator
from evolvekit.density import ac_mass, density_batch
from evolvekit.geometry import (
    EvolutionParams,
    barycentric_coordinates,
    vertices_at_time,
    volume,
)
from evolvekit.simulator import (
    SimplexCells,
    _edgewise_pieces,
    _expected_masses,
    _grundmann_moller,
    simplex_cells,
)
from evolvekit.verification import adaptive_simpson, sample_uniform_simplex, telegraph_density


def params(n, lam=1.0, v=1.0):
    return EvolutionParams(n=n, lam=lam, v=v)


def _density_masses(cells: SimplexCells) -> np.ndarray:
    """The density's cell masses, as ``histogram_fit`` integrates them."""
    p, t = cells.params, cells.t
    return _expected_masses(cells, lambda x: density_batch(p, x, t, 1e-12))


# the uniform Monte Carlo cell tallies that the cubature replaced, verbatim
def _monte_carlo_masses(
    cells: SimplexCells, quad_points: int, seed: int, tol: float
) -> np.ndarray:
    """Cell masses of the density, normalized to sum 1.

    The line case integrates each interval with adaptive Simpson; higher
    dimensions use uniform Monte Carlo over the simplex with cell tallies.
    """
    params, t = cells.params, cells.t
    if params.n == 1:
        vt = params.v * t
        edges = np.linspace(-vt, vt, cells.resolution + 1)
        masses = np.array(
            [
                adaptive_simpson(
                    lambda s: density_batch(params, np.array([[s]]), t)[0],
                    edges[i],
                    edges[i + 1],
                    1e-10,
                )
                for i in range(cells.resolution)
            ]
        )
    else:
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=(seed, 0xE)))
        )
        vol = volume(params, t)
        masses = np.zeros(cells.count)
        done = 0
        chunk = 1_000_000
        while done < quad_points:
            take = min(chunk, quad_points - done)
            pts = sample_uniform_simplex(params, t, take, rng)
            f = density_batch(params, pts, t, tol)
            idx = cells.assign(pts)
            np.add.at(masses, idx, f)
            done += take
        masses *= vol / quad_points
    return masses / masses.sum()


class TestGrundmannMoller:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exact_on_monomials(self, n):
        # E[prod w_r^a_r] over the uniform simplex is n! prod a_r! / (n + |a|)!
        nodes, fine, coarse = _grundmann_moller(n)
        assert len(nodes) == math.comb(n + 6, n + 1)
        assert np.all(nodes > 0) and np.allclose(nodes.sum(axis=1), 1.0, rtol=0, atol=1e-15)
        for a in itertools.product(range(12), repeat=n + 1):
            degree = sum(a)
            if degree > 11:
                continue
            exact = math.prod(map(math.factorial, a)) * math.factorial(n)
            exact /= math.factorial(n + degree)
            values = np.prod(nodes**a, axis=1)
            assert values @ fine == pytest.approx(exact, rel=1e-12, abs=0)
            if degree <= 9:
                assert values @ coarse == pytest.approx(exact, rel=1e-12, abs=0)

    def test_degrees_are_sharp(self):
        nodes, fine, coarse = _grundmann_moller(2)
        for rule, degree in ((fine, 12), (coarse, 10)):
            exact = 2 * math.factorial(degree) / math.factorial(2 + degree)
            assert abs(nodes[:, 0] ** degree @ rule - exact) > 1e-6 * exact


class TestEdgewisePieces:
    @pytest.mark.parametrize(
        "n, m", [(2, 1), (2, 8), (2, 12), (3, 4), (3, 6), (4, 3), (8, 2), (10, 1)]
    )
    def test_pieces_tile_the_cells(self, n, m):
        p, t = params(n), 1.3
        pieces = _edgewise_pieces(n, m)
        assert pieces.shape == (m**n, n + 1, n + 1)
        assert np.all(pieces.sum(axis=2) == m)
        corners = vertices_at_time(p, t)
        x = (pieces / m) @ corners
        vols = np.abs(np.linalg.det(x[:, 1:] - x[:, :1])) / math.factorial(n)
        assert vols.sum() == pytest.approx(volume(p, t), rel=1e-12)
        # every vertex lies in the closure of the cell floor(m w) of the centroid
        keys = pieces.sum(axis=1) // (n + 1)
        assert np.all(pieces >= keys[:, None, :]) and np.all(pieces <= keys[:, None, :] + 1)
        cells = simplex_cells(p, t, m)
        index = {key: i for i, key in enumerate(cells.keys)}
        hit = [index[tuple(int(c) for c in key)] for key in keys]
        assert sorted(set(hit)) == list(range(cells.count))


class TestCellMasses:
    @pytest.mark.parametrize("n, m", [(2, 8), (3, 4)])
    @pytest.mark.parametrize("lamt", [0.5, 2.0, 20.0, 100.0])
    def test_total_is_ac_mass(self, n, m, lamt):
        p = params(n, lam=2.0, v=0.7)
        t = lamt / p.lam
        masses = _density_masses(simplex_cells(p, t, m))
        assert np.all(masses > 0)
        assert abs(masses.sum() - ac_mass(p, t)) <= 1e-10 * ac_mass(p, t)

    @pytest.mark.parametrize(
        "lam, v, t, m", [(1.0, 1.0, 2.0, 20), (0.5, 2.0, 1.5, 7), (3.0, 1.0, 10.0, 20)]
    )
    def test_line_matches_quad(self, lam, v, t, m):
        masses = _density_masses(simplex_cells(EvolutionParams(1, lam, v), t, m))
        edges = np.linspace(-v * t, v * t, m + 1)
        for mass, a, b in zip(masses, edges[:-1], edges[1:]):
            ref, _ = quad(telegraph_density, a, b, args=(t, lam, v), epsabs=1e-15, epsrel=1e-13)
            assert abs(mass - ref) <= 1e-12

    def test_deterministic(self):
        cells = simplex_cells(params(2), 100.0, 8)  # refines three times
        assert _density_masses(cells).tobytes() == _density_masses(cells).tobytes()

    @pytest.mark.parametrize("n, m", [(2, 8), (3, 4)])
    def test_monte_carlo_tallies_agree(self, n, m):
        # chi-square of the Monte Carlo masses about the cubature ones; the
        # covariance of the tallies comes from an independent uniform sample
        p, t, count = params(n), 2.0, 1_000_000
        cells = simplex_cells(p, t, m)
        exact = _density_masses(cells)
        total = exact.sum()
        share = exact / total
        tallies = _monte_carlo_masses(cells, count, 0, 1e-12)
        pts = sample_uniform_simplex(p, t, 200_000, np.random.default_rng(1))
        g2 = (volume(p, t) * density_batch(p, pts, t) / total) ** 2
        a = np.bincount(cells.assign(pts), weights=g2, minlength=cells.count) / len(pts)
        cov = np.diag(a) - np.outer(a, share) - np.outer(share, a)
        cov += a.sum() * np.outer(share, share)
        d = (tallies - share)[:-1]
        stat = count * d @ np.linalg.solve(cov[:-1, :-1], d)
        assert chi2.sf(stat, cells.count - 1) > 0.001


class TestAnyIntegrand:
    @pytest.mark.parametrize("n, m", [(1, 7), (2, 8), (3, 4)])
    def test_polynomials_are_exact(self, n, m):
        # the degree-11 rule integrates 1 and x_1^2 exactly: the volume, and
        # E[x_1^2] = (vt)^2 / (n (n+2)) times it under the uniform law
        p, t = params(n, v=1.3), 0.8
        cells = simplex_cells(p, t, m)
        vol = volume(p, t)
        ones = _expected_masses(cells, lambda x: np.ones(len(x))).sum()
        assert abs(ones - vol) <= 1e-13 * vol
        second = _expected_masses(cells, lambda x: x[:, 0] ** 2).sum()
        target = vol * (p.v * t) ** 2 / (n * (n + 2))
        assert abs(second - target) <= 1e-13 * target


class TestLineLattice:
    """The line is the 1-simplex: its intervals are lattice cells."""

    @pytest.mark.parametrize("m", [1, 7, 20])
    def test_keys_are_pairs(self, m):
        cells = simplex_cells(params(1), 1.5, m)
        assert cells.count == m
        assert list(cells.keys) == [(i, m - 1 - i) for i in range(m)]

    @pytest.mark.parametrize("m", [5, 20])
    def test_assign_is_the_lattice_floor(self, m):
        p, t = params(1, v=1.3), 0.7
        cells = simplex_cells(p, t, m)
        rng = np.random.default_rng(m)
        w0 = rng.uniform(0.0, 1.0, 5000)
        w0 = w0[np.abs(m * w0 - np.round(m * w0)) > 1e-9]  # away from the edges
        x = (2 * w0 - 1)[:, None] * (p.v * t)
        c = np.floor(m * barycentric_coordinates(p, x, t)[:, 0]).astype(int)
        got = cells.assign(x)
        assert np.array_equal(got, c)
        assert [cells.keys[i] for i in got] == [(k, m - 1 - k) for k in c]

    def test_refined_masses_at_long_horizon(self, monkeypatch):
        # at lam t = 1000 the first pass misses the target and the pieces split
        rounds = []
        integrals = simulator._piece_integrals
        monkeypatch.setattr(
            simulator, "_piece_integrals", lambda *a: rounds.append(1) or integrals(*a)
        )
        p = params(1, lam=2.0, v=0.5)
        t = 1000.0 / p.lam
        masses = _density_masses(simplex_cells(p, t, 20))
        assert len(rounds) > 1
        assert abs(masses.sum() - ac_mass(p, t)) <= 1e-10 * ac_mass(p, t)


def test_point_cap_raises(monkeypatch):
    monkeypatch.setattr(simulator, "_COORD_CAP", 80_000)
    cells = simplex_cells(params(3), 20.0, 4)
    with pytest.raises(ValueError, match=r"n=3, lam\*t=20, resolution=4"):
        _density_masses(cells)
