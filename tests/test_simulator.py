import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.stats import kstest

from evolvekit.density import ac_mass
from evolvekit.geometry import (
    EvolutionParams,
    barycentric_coordinates,
    vertices_at_time,
)
from evolvekit.simulator import (
    BLOCK_SIZE,
    PathDataset,
    SimulationConfig,
    _block_rng,
    _direction_cycle,
    _endpoint_arrays,
    _lattice_keys,
    _sample_paths,
    histogram_fit,
    simplex_cells,
    simulate_batch,
    simulate_path,
)
from test_geometry import _reference_support_margins


def params(n, lam=1.0, v=1.0):
    return EvolutionParams(n=n, lam=lam, v=v)


def _block(
    params: EvolutionParams, config: SimulationConfig, block_index: int, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    # one block sampled alone into arrays of its own, as a batch samples it
    # into its rows: positions, switches, initial and current directions
    pos, switches, init = _endpoint_arrays(count, params.n)
    _sample_paths(params, config, _block_rng(config, block_index), pos, switches, init)
    return pos, switches, init, (init + switches) % (params.n + 1)


def _reference_block(
    params: EvolutionParams, config: SimulationConfig, block_index: int, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    # the per-path fancy-indexed loop, kept verbatim as the bit-level reference
    seed = int(config.seed) & 0xFFFFFFFFFFFFFFFF
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=(seed, block_index)))
    )
    n = params.n
    tau = vertices_at_time(params, 1.0) / params.v
    if config.initial_direction is None:
        d = rng.integers(0, n + 1, size=count)
    else:
        d = np.full(count, config.initial_direction, dtype=np.int64)
    init = d.copy()
    pos = np.zeros((count, n))
    remaining = np.full(count, float(config.horizon))
    switches = np.zeros(count, dtype=np.int64)
    active = np.arange(count)
    while active.size:
        dt = rng.exponential(1.0 / params.lam, size=active.size)
        step = np.minimum(dt, remaining[active])
        pos[active] += params.v * step[:, None] * tau[d[active]]
        keep = dt < remaining[active]
        idx = active[keep]
        remaining[idx] -= dt[keep]
        switches[idx] += 1
        d[idx] = (d[idx] + 1) % (n + 1)
        active = idx
    if config.start_point is not None:
        pos += config.start_point
    return pos, switches, init, d


def _reference_path(
    params: EvolutionParams, config: SimulationConfig, rng: np.random.Generator
):
    # one path drawn as a scalar loop: one exponential per holding time, and
    # a length-1 direction draw when the first direction is uniform
    n = params.n
    tau = vertices_at_time(params, 1.0) / params.v
    if config.initial_direction is None:
        d = int(rng.integers(0, n + 1, size=1)[0])
    else:
        d = config.initial_direction
    init, pos, remaining, switches = d, np.zeros(n), float(config.horizon), 0
    while True:
        dt = float(rng.exponential(1.0 / params.lam, size=1)[0])
        pos += params.v * min(dt, remaining) * tau[d]
        if not dt < remaining:
            break
        remaining -= dt
        switches += 1
        d = (d + 1) % (n + 1)
    if config.start_point is not None:
        pos += config.start_point
    return pos, switches, init, d


class TestSimulatePath:
    def test_unswitched_paths_land_on_vertices(self):
        p = params(2, v=1.5)
        t = 1.0
        config = SimulationConfig(seed=1, samples=1, horizon=t)
        rng = np.random.default_rng(0)
        verts = vertices_at_time(p, t)
        seen = 0
        for _ in range(400):
            s = simulate_path(p, config, rng)
            if s.switches == 0:
                seen += 1
                target = verts[s.initial_direction]
                assert np.max(np.abs(s.position - target)) <= 1e-12 * p.v * t
                assert s.current_direction == s.initial_direction
        assert seen > 0

    def test_single_switch_kinematics_on_line(self):
        # one switch at time s from direction 0 puts the endpoint at v(2s - t)
        p = params(1)
        t = 1.0
        config = SimulationConfig(seed=0, samples=1, horizon=t, initial_direction=0)
        rng = np.random.default_rng(42)
        positions = []
        for _ in range(40_000):
            s = simulate_path(p, config, rng)
            if s.switches == 1:
                positions.append(s.position[0])
        positions = np.asarray(positions)
        # a uniform event time makes the endpoint uniform on (-vt, vt)
        res = kstest(positions, lambda x: (x + t) / (2 * t))
        assert res.pvalue > 1e-3

    def test_start_point_translates(self):
        p = params(2)
        start = np.array([5.0, -3.0])
        config = SimulationConfig(seed=0, samples=1, horizon=1.0, start_point=start)
        rng = np.random.default_rng(1)
        s = simulate_path(p, config, rng)
        margins = _reference_support_margins(p, (s.position - start)[None, :], 1.0)
        assert margins.min() >= -1e-9 * p.v

    @pytest.mark.parametrize("n, direction", [(1, None), (2, 1), (3, None)])
    def test_draws_match_one_path_reference(self, n, direction):
        # a loop that drew one number too many or too few would leave the
        # caller's generator elsewhere after 50 paths
        p = params(n, lam=1.3, v=0.8)
        start = np.linspace(-1.0, 2.0, n)
        config = SimulationConfig(
            seed=0, samples=1, horizon=1.5, initial_direction=direction, start_point=start
        )
        rng, ref = np.random.default_rng(n), np.random.default_rng(n)
        for _ in range(50):
            got = simulate_path(p, config, rng)
            pos, switches, init, current = _reference_path(p, config, ref)
            assert got.position.tobytes() == pos.tobytes()
            assert (got.switches, got.initial_direction, got.current_direction) == (
                switches, init, current
            )
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_rejects_bad_direction(self):
        with pytest.raises(ValueError):
            simulate_path(
                params(2),
                SimulationConfig(seed=0, samples=1, horizon=1.0, initial_direction=3),
                np.random.default_rng(0),
            )


class TestBlockPin:
    """The block sampler against the per-path reference loop, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    @pytest.mark.parametrize("lam, t", [(1.5, 0.0), (0.5, 2.0), (2.0, 3.65), (4.0, 25.0)])
    def test_bits_match_reference(self, n, lam, t):
        p = params(n, lam=lam, v=1.7)
        start = np.linspace(-2.5, 4.0, n)
        configs = [
            SimulationConfig(seed=17 + n, samples=1, horizon=t),
            SimulationConfig(seed=5, samples=1, horizon=t, initial_direction=n),
            SimulationConfig(seed=2**64 - 3, samples=1, horizon=t, start_point=start),
            SimulationConfig(seed=n, samples=1, horizon=t, initial_direction=0, start_point=start),
        ]
        for config in configs:
            for block_index, count in [(0, 1), (3, 1237)]:
                got = _block(p, config, block_index, count)
                want = _reference_block(p, config, block_index, count)
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype and g.shape == w.shape
                    assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("t", [1.0, 2.0, 100.0])
    def test_full_block_matches_reference(self, n, t):
        # a whole block: many iterations retire paths, in chunks of every size
        p = params(n)
        config = SimulationConfig(seed=23 + n, samples=1, horizon=t)
        got = _block(p, config, 1, BLOCK_SIZE)
        want = _reference_block(p, config, 1, BLOCK_SIZE)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()


class TestSimulateBatch:
    def test_positions_layout(self):
        for n in (1, 3):
            config = SimulationConfig(seed=4, samples=BLOCK_SIZE + 3, horizon=2.0)
            data = simulate_batch(params(n), config, workers=1)
            assert data.positions.shape == (BLOCK_SIZE + 3, n)
            assert data.positions.flags.c_contiguous
            for arr in (data.positions, data.switches, data.initial_direction, data.current_direction):
                assert not arr.flags.writeable

    def test_peak_memory_within_the_result_columns(self):
        # blocks are sampled straight into the batch's rows: no block results
        # are held beside the batch and no concatenation copies them
        config = SimulationConfig(seed=0, samples=200_000, horizon=2.0)
        tracemalloc.start()
        try:
            data = simulate_batch(params(3), config, workers=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        columns = (data.positions, data.switches, data.initial_direction, data.current_direction)
        assert peak < 1.6 * sum(arr.nbytes for arr in columns)

    def test_same_seed_identical(self):
        p = params(2)
        config = SimulationConfig(seed=7, samples=70_000, horizon=1.0)
        a = simulate_batch(p, config)
        b = simulate_batch(p, config)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.switches, b.switches)
        assert np.array_equal(a.initial_direction, b.initial_direction)

    def test_worker_count_invariance(self):
        # every worker count puts each block's reference draws in its own
        # rows; three threads on a short switch interval, racing to form the
        # direction table, would show a lost or misplaced write
        p = params(2)
        counts = [BLOCK_SIZE, BLOCK_SIZE, 1237]
        configs = [
            SimulationConfig(seed=3, samples=sum(counts), horizon=1.0),
            SimulationConfig(
                seed=8, samples=sum(counts), horizon=1.0, initial_direction=2,
                start_point=np.array([0.5, -1.25]),
            ),
        ]
        for config in configs:
            parts = [_reference_block(p, config, j, c) for j, c in enumerate(counts)]
            want = [np.concatenate(column) for column in zip(*parts)]
            for workers in (1, 2, 3):
                _direction_cycle.cache_clear()
                interval = sys.getswitchinterval()
                sys.setswitchinterval(1e-6)
                try:
                    data = simulate_batch(p, config, workers=workers)
                finally:
                    sys.setswitchinterval(interval)
                got = (data.positions, data.switches, data.initial_direction, data.current_direction)
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype and g.shape == w.shape
                    assert g.tobytes() == w.tobytes()

    def test_threads_variable_error_names_it(self, monkeypatch):
        # the variable is read before any thread is asked for
        monkeypatch.setenv("EVOLVEKIT_THREADS", "abc")
        config = SimulationConfig(seed=0, samples=BLOCK_SIZE + 1, horizon=1.0)
        with pytest.raises(ValueError, match="EVOLVEKIT_THREADS.*'abc'"):
            simulate_batch(params(2), config)

    def test_switch_counts_poisson_mean(self):
        p = params(2, lam=1.3)
        t = 1.7
        config = SimulationConfig(seed=11, samples=1_000_000, horizon=t)
        data = simulate_batch(p, config)
        mean = data.switches.mean()
        sigma = math.sqrt(p.lam * t / len(data))
        assert abs(mean - p.lam * t) <= 3.0 * sigma

    def test_endpoints_in_closure(self):
        for n in (1, 2, 3):
            p = params(n)
            t = 1.2
            config = SimulationConfig(seed=n, samples=50_000, horizon=t)
            data = simulate_batch(p, config)
            margins = _reference_support_margins(p, data.positions, t)
            assert margins.min() >= -1e-9 * p.v * t

    def test_cyclic_bookkeeping(self):
        p = params(3)
        config = SimulationConfig(seed=5, samples=50_000, horizon=2.0)
        data = simulate_batch(p, config)
        expected = (data.initial_direction + data.switches) % (p.n + 1)
        assert np.array_equal(data.current_direction, expected)

    def test_uniform_policy_counts(self):
        p = params(2)
        config = SimulationConfig(seed=9, samples=300_000, horizon=0.5)
        data = simulate_batch(p, config)
        counts = np.bincount(data.initial_direction, minlength=3)
        assert np.all(np.abs(counts / len(data) - 1 / 3) < 0.01)

    def test_fixed_policy(self):
        p = params(2)
        config = SimulationConfig(seed=9, samples=1000, horizon=0.5, initial_direction=1)
        data = simulate_batch(p, config)
        assert np.all(data.initial_direction == 1)

    def test_boundary_mass_split(self):
        p = params(3, lam=1.0)
        t = 1.0
        config = SimulationConfig(seed=21, samples=400_000, horizon=t)
        data = simulate_batch(p, config)
        for k in range(p.n):
            target = math.exp(-t) * t**k / math.factorial(k)
            frac = float(np.mean(data.switches == k))
            sigma = math.sqrt(target * (1 - target) / len(data))
            assert abs(frac - target) <= 3.0 * sigma

    def test_sample_accessor(self):
        p = params(2)
        config = SimulationConfig(seed=2, samples=10, horizon=1.0)
        data = simulate_batch(p, config)
        s = data.sample(3)
        assert np.array_equal(s.position, data.positions[3])
        assert s.switches == data.switches[3]
        assert len(data) == 10


class TestSimplexCells:
    def test_line_cells(self):
        p = params(1)
        cells = simplex_cells(p, 1.0, 10)
        assert cells.count == 10
        idx = cells.assign(np.array([[-0.999], [0.0], [0.999]]))
        assert list(idx) == [0, 5, 9]

    def test_plane_cells_partition(self):
        p = params(2)
        t = 1.0
        m = 5
        cells = simplex_cells(p, t, m)
        assert cells.count == m * m  # up and down triangles
        rng = np.random.default_rng(0)
        w = rng.dirichlet(np.ones(3), size=20_000)
        pts = w @ vertices_at_time(p, t)
        idx = cells.assign(pts)
        assert idx.min() >= 0 and idx.max() < cells.count
        assert len(np.unique(idx)) == cells.count

    def test_three_dim_cell_count(self):
        p = params(3)
        cells = simplex_cells(p, 1.0, 4)
        # compositions of 3, 2, 1 into four nonnegative parts
        assert cells.count == 20 + 10 + 4


    @pytest.mark.parametrize("n", range(1, 6))
    def test_lattice_keys_match_the_product_filter(self, n):
        for m in range(1, 9):
            digits = itertools.product(range(m), repeat=n + 1)
            want = tuple(c for c in digits if m - (n + 1) < sum(c) <= m - 1)
            assert _lattice_keys(n, m) == want

    @pytest.mark.parametrize("n, m", [(2, 4), (2, 8), (3, 4), (3, 8)])
    def test_assign_matches_reference(self, n, m):
        # reference: the lookup table rebuilt key by key on every call
        p = params(n, v=1.3)
        t = 0.7
        cells = simplex_cells(p, t, m)

        def reference(x):
            w = barycentric_coordinates(p, x, t)
            c = np.floor(m * np.clip(w, 0.0, 1.0 - 1e-12)).astype(np.int64)
            over = c.sum(axis=1) > m - 1
            for row in np.nonzero(over)[0]:
                while c[row].sum() > m - 1:
                    c[row, int(np.argmax(c[row]))] -= 1
            powers = m ** np.arange(n + 1, dtype=np.int64)
            table = np.full(m ** (n + 1), -1, dtype=np.int64)
            for i, key in enumerate(cells.keys):
                table[int(np.dot(key, powers))] = i
            return table[c @ powers]

        rng = np.random.default_rng(10 * n + m)
        w = rng.dirichlet(np.ones(n + 1), size=20_000)
        # lattice points c / m with sum(c) = m, where the floor keys overshoot
        c = np.array(list(itertools.product(range(m + 1), repeat=n + 1)))
        w = np.vstack([w, c[c.sum(axis=1) == m] / m])
        pts = w @ vertices_at_time(p, t)
        got = cells.assign(pts)
        assert np.array_equal(got, reference(pts))
        assert got.min() >= 0 and len(np.unique(got)) == cells.count
        assert np.array_equal(cells.assign(pts[:100]), got[:100])


class TestHistogramFit:
    def test_line_fit_passes(self):
        p = params(1)
        t = 1.0
        config = SimulationConfig(seed=31, samples=200_000, horizon=t)
        data = simulate_batch(p, config)
        fit = histogram_fit(p, data, bins=20)
        assert fit.n_cells == 20
        assert fit.dof == 19
        assert fit.p_value > 0.001
        assert 0.5 < fit.reduced < 1.6
        assert fit.expected.sum() == pytest.approx(fit.n_conditioned, rel=1e-9)
        assert fit.observed.sum() == fit.n_conditioned

    def test_plane_fit_passes(self):
        p = params(2)
        t = 2.0
        config = SimulationConfig(seed=37, samples=200_000, horizon=t)
        data = simulate_batch(p, config)
        fit = histogram_fit(p, data, bins=8)
        assert fit.p_value > 0.001

    @pytest.mark.parametrize("n, t, bins", [(1, 1.0, 20), (2, 2.0, 8), (3, 2.0, 4)])
    def test_p_value_is_the_chi2_survival_function(self, n, t, bins):
        from scipy.stats import chi2

        p = params(n)
        data = simulate_batch(p, SimulationConfig(seed=40 + n, samples=20_000, horizon=t))
        fit = histogram_fit(p, data, bins=bins)
        assert 0.0 < fit.p_value < 1.0
        assert fit.p_value == float(chi2.sf(fit.statistic, fit.dof))

    def test_empty_conditional_is_error(self):
        p = params(2)
        config = SimulationConfig(seed=0, samples=100, horizon=1e-7)
        data = simulate_batch(p, config)
        with pytest.raises(ValueError, match="switches"):
            histogram_fit(p, data, bins=4)

    def test_small_expected_counts_rejected(self):
        p = params(1)
        config = SimulationConfig(seed=0, samples=200, horizon=1.0)
        data = simulate_batch(p, config)
        with pytest.raises(ValueError, match="coarsen"):
            histogram_fit(p, data, bins=50)

    def test_translated_start_rejected(self):
        p = params(1)
        config = SimulationConfig(
            seed=0, samples=100, horizon=1.0, start_point=np.array([1.0])
        )
        data = simulate_batch(p, config)
        with pytest.raises(ValueError, match="origin"):
            histogram_fit(p, data, bins=5)


class TestConfigValidation:
    def test_bad_samples(self):
        with pytest.raises(ValueError):
            SimulationConfig(seed=0, samples=0, horizon=1.0)

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            SimulationConfig(seed=0, samples=1, horizon=-1.0)

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            SimulationConfig(seed=0, samples=1, horizon=1.0, initial_direction=-2)

    @pytest.mark.parametrize("seed", [2**64 + 5, -3, 2**64, -(2**64)])
    def test_seed_outside_64_bits(self, seed):
        # the block streams take the seed as a 64-bit word; 2**64 + 5 would
        # reproduce seed 5 under a different manifest seed
        with pytest.raises(ValueError, match="seed"):
            SimulationConfig(seed=seed, samples=1, horizon=1.0)

    @pytest.mark.parametrize("start", [[1.0], [0.0, math.nan], [1.0, 2.0, 3.0], [math.inf, 0.0]])
    def test_start_point_checked_against_n(self, start):
        # unchecked, [1.0] broadcasts over both coordinates, NaN gives NaN
        # positions and a length-3 start fails inside numpy
        config = SimulationConfig(seed=0, samples=3, horizon=1.0, start_point=start)
        with pytest.raises(ValueError, match="start point .* n=2"):
            simulate_batch(params(2), config, workers=1)
        with pytest.raises(ValueError, match="start point .* n=2"):
            simulate_path(params(2), config, np.random.default_rng(0))

    def test_seed_range_ends_accepted(self):
        for seed in (0, 2**64 - 1):
            assert SimulationConfig(seed=seed, samples=1, horizon=1.0).seed == seed

    @pytest.mark.parametrize(
        "field, value", [("seed", 1.5), ("samples", 2.5), ("initial_direction", 1.7)]
    )
    def test_fractional_integer_fields_rejected(self, field, value):
        # 1.5 once sampled seed 1 and 1.7 pinned direction 1
        kwargs = dict(seed=0, samples=1, horizon=1.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            SimulationConfig(**kwargs)

    def test_integral_floats_are_ints(self):
        # samples=5.0 once passed the check and failed inside simulate_batch
        p = params(2)
        a = simulate_batch(p, SimulationConfig(seed=7.0, samples=5.0, horizon=1.0), workers=1)
        b = simulate_batch(p, SimulationConfig(seed=7, samples=5, horizon=1.0), workers=1)
        assert type(a.config.seed) is int and type(a.config.samples) is int
        for x, y in [(a.positions, b.positions), (a.switches, b.switches),
                     (a.initial_direction, b.initial_direction)]:
            assert x.tobytes() == y.tobytes()
        config = SimulationConfig(seed=0, samples=1, horizon=1.0, initial_direction=2.0)
        assert type(config.initial_direction) is int
