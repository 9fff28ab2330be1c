"""Trajectory sampler for the cyclic evolution and goodness-of-fit machinery.

A path holds a direction for an exponential(lam) time, moves at speed v
along it, then switches to the next direction cyclically (the last is
followed by the first).  Only endpoints are kept: position, switch count,
initial and current direction.

Reproducibility contract: samples are generated in fixed blocks of
``BLOCK_SIZE`` consecutive indices; block j draws from a Philox generator
seeded with SeedSequence((seed, j)).  Batches are therefore bit-identical
for a given seed regardless of how many workers execute the blocks, and
results are ordered by sample index.

One path loop, ``_sample_paths``, serves ``simulate_batch`` (a block at a
time) and ``simulate_path`` (one path on the caller's generator).  Running
paths stay compacted in sample order as (n, running) position rows; after k
switches a path's direction is (d0 + k) mod (n+1), a column of the rolled
direction table.  Each iteration draws one exponential per running path in
sample order and applies ``pos += (v * min(dt, rem)) * tau[d]; rem -= dt``,
so the per-block streams and the output bits do not depend on this layout.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import product as iter_product

import numpy as np
from scipy.stats import chi2 as chi2_dist

from .density import density_batch
from .geometry import EvolutionParams, barycentric_coordinates, vertices_at_time, volume
from .verification import adaptive_simpson, sample_uniform_simplex

__all__ = [
    "BLOCK_SIZE",
    "FitReport",
    "PathDataset",
    "PathSample",
    "SimulationConfig",
    "SimplexCells",
    "histogram_fit",
    "simplex_cells",
    "simulate_batch",
    "simulate_path",
]

BLOCK_SIZE = 65536


@dataclass(frozen=True)
class SimulationConfig:
    """Batch description.  ``initial_direction`` None means uniform over 0..n;
    a fixed index pins every path's first direction.  ``start_point`` None is
    the origin; a general start translates the reachable simplex."""

    seed: int
    samples: int
    horizon: float
    initial_direction: int | None = None
    start_point: np.ndarray | None = None

    def __post_init__(self):
        if int(self.samples) != self.samples or self.samples < 1:
            raise ValueError(f"samples must be an integer >= 1, got {self.samples}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in 0..2**64-1, got {self.seed}")
        if self.horizon < 0 or not math.isfinite(self.horizon):
            raise ValueError(f"horizon must be finite and >= 0, got {self.horizon}")
        if self.initial_direction is not None and self.initial_direction < 0:
            raise ValueError("fixed initial direction must be >= 0")
        if self.start_point is not None:
            pt = np.asarray(self.start_point, dtype=float)
            pt.setflags(write=False)
            object.__setattr__(self, "start_point", pt)


@dataclass(frozen=True)
class PathSample:
    """One trajectory endpoint."""

    position: np.ndarray
    switches: int
    current_direction: int
    initial_direction: int


@dataclass(frozen=True)
class PathDataset:
    """Column-oriented endpoint batch (positions shape (N, n))."""

    positions: np.ndarray = field(repr=False)
    switches: np.ndarray = field(repr=False)
    initial_direction: np.ndarray = field(repr=False)
    current_direction: np.ndarray = field(repr=False)
    params: EvolutionParams
    config: SimulationConfig

    def __len__(self) -> int:
        return len(self.switches)

    def sample(self, i: int) -> PathSample:
        return PathSample(
            position=self.positions[i],
            switches=int(self.switches[i]),
            current_direction=int(self.current_direction[i]),
            initial_direction=int(self.initial_direction[i]),
        )


def _check_direction(params: EvolutionParams, config: SimulationConfig) -> None:
    if config.initial_direction is not None and config.initial_direction > params.n:
        raise ValueError(
            f"fixed initial direction {config.initial_direction} outside 0..{params.n}"
        )


def simulate_path(
    params: EvolutionParams, config: SimulationConfig, rng: np.random.Generator
) -> PathSample:
    """Sample one endpoint: exponential(lam) holding times, cyclic successor,
    speed v, stopped exactly at the horizon.  Draws from ``rng`` through the
    same path loop as ``simulate_batch``."""
    _check_direction(params, config)
    pos, switches, init, current = _sample_paths(params, config, rng, 1)
    return PathSample(
        position=pos[0],
        switches=int(switches[0]),
        current_direction=int(current[0]),
        initial_direction=int(init[0]),
    )


def _sample_paths(
    params: EvolutionParams, config: SimulationConfig, rng: np.random.Generator, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Endpoints of ``count`` paths drawn from ``rng``: positions (count, n),
    switches, initial and current directions.  Running paths are compressed
    only on iterations where some path stops."""
    n = params.n
    unit = (vertices_at_time(params, 1.0) / params.v).T  # column d is direction d
    cycle = np.hstack((unit, unit))  # cycle[:, s + d] = unit[:, (s + d) mod (n+1)]
    if config.initial_direction is None:
        init = rng.integers(0, n + 1, size=count)
    else:
        init = np.full(count, config.initial_direction, dtype=np.int64)
    out = np.empty((count, n))
    switches = np.empty(count, dtype=np.int64)
    order, d0 = np.arange(count), init
    pos = np.zeros((n, count))
    remaining = np.full(count, float(config.horizon))
    k = 0
    while order.size:
        dt = rng.exponential(1.0 / params.lam, size=order.size)
        step = params.v * np.minimum(dt, remaining)
        table = cycle[:, k % (n + 1) :]
        for i in range(n):
            pos[i] += step * table[i].take(d0)
        keep = dt < remaining
        if not keep.all():
            stop = ~keep
            done = order[stop]
            out[done] = pos.compress(stop, axis=1).T
            switches[done] = k
            order, d0, remaining, dt = order[keep], d0[keep], remaining[keep], dt[keep]
            pos = pos.compress(keep, axis=1)
        remaining -= dt
        k += 1
    if config.start_point is not None:
        out += config.start_point
    return out, switches, init, (init + switches) % (n + 1)


def _simulate_block(
    params: EvolutionParams, config: SimulationConfig, block_index: int, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=(int(config.seed), block_index)))
    )
    return _sample_paths(params, config, rng, count)


def _worker_count(workers: int | None) -> int:
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("EVOLVEKIT_THREADS")
    if env is not None:
        return max(1, int(env))
    return os.cpu_count() or 1


def simulate_batch(
    params: EvolutionParams, config: SimulationConfig, workers: int | None = None
) -> PathDataset:
    """Sample ``config.samples`` endpoints.

    Deterministic in (seed, samples): the per-block substreams make the
    result independent of ``workers`` (which defaults to EVOLVEKIT_THREADS
    or the machine's CPU count).
    """
    _check_direction(params, config)
    total = config.samples
    blocks = [
        (j, min(BLOCK_SIZE, total - j * BLOCK_SIZE))
        for j in range((total + BLOCK_SIZE - 1) // BLOCK_SIZE)
    ]
    nworkers = _worker_count(workers)
    if nworkers > 1 and len(blocks) > 1:
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            parts = list(
                pool.map(
                    _simulate_block,
                    [params] * len(blocks),
                    [config] * len(blocks),
                    [j for j, _ in blocks],
                    [c for _, c in blocks],
                )
            )
    else:
        parts = [_simulate_block(params, config, j, c) for j, c in blocks]
    pos = np.concatenate([p[0] for p in parts])
    sw = np.concatenate([p[1] for p in parts])
    init = np.concatenate([p[2] for p in parts])
    cur = np.concatenate([p[3] for p in parts])
    for arr in (pos, sw, init, cur):
        arr.setflags(write=False)
    return PathDataset(
        positions=pos,
        switches=sw,
        initial_direction=init,
        current_direction=cur,
        params=params,
        config=config,
    )


@dataclass(frozen=True)
class SimplexCells:
    """Partition of the reachable simplex for goodness-of-fit binning.

    n = 1: ``resolution`` equal-width intervals on (-vt, vt).
    n >= 2: barycentric lattice cells, key = floor(resolution * w) over the
    n+1 sojourn fractions; there is one cell per admissible key.
    """

    params: EvolutionParams
    t: float
    resolution: int
    keys: tuple = field(repr=False)
    _table: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):  # cell index of each key read in base m, else -1
        if self.params.n > 1:
            m, n = self.resolution, self.params.n
            table = np.full(m ** (n + 1), -1, dtype=np.int64)
            table[np.array(self.keys) @ m ** np.arange(n + 1)] = np.arange(len(self.keys))
            object.__setattr__(self, "_table", table)

    @property
    def count(self) -> int:
        return self.resolution if self.params.n == 1 else len(self.keys)

    def assign(self, x: np.ndarray) -> np.ndarray:
        """Cell index of each point (points must lie in the closed simplex)."""
        m = self.resolution
        if self.params.n == 1:
            vt = self.params.v * self.t
            idx = np.floor((x[:, 0] + vt) / (2 * vt) * m).astype(np.int64)
            return np.clip(idx, 0, m - 1)
        w = barycentric_coordinates(self.params, x, self.t)
        c = np.floor(m * np.clip(w, 0.0, 1.0 - 1e-12)).astype(np.int64)
        over = c.sum(axis=1) > m - 1
        for row in np.nonzero(over)[0]:  # exact lattice hits, measure zero
            while c[row].sum() > m - 1:
                c[row, int(np.argmax(c[row]))] -= 1
        return self._table[c @ (m ** np.arange(self.params.n + 1, dtype=np.int64))]


def _lattice_keys(n: int, m: int) -> tuple:
    """Barycentric lattice keys c = floor(m w) of the cells of resolution m,
    in lexicographic order: n+1 digits in 0..m-1 with m-(n+1) < sum(c) <= m-1."""
    return tuple(c for c in iter_product(range(m), repeat=n + 1) if m - (n + 1) < sum(c) <= m - 1)


def simplex_cells(params: EvolutionParams, t: float, resolution: int) -> SimplexCells:
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    n = params.n
    keys = tuple(range(resolution)) if n == 1 else _lattice_keys(n, resolution)
    return SimplexCells(params=params, t=t, resolution=resolution, keys=keys)


@dataclass(frozen=True)
class FitReport:
    statistic: float
    dof: int
    p_value: float
    reduced: float
    observed: np.ndarray = field(repr=False)
    expected: np.ndarray = field(repr=False)
    n_conditioned: int
    n_cells: int


def _expected_masses(
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


def histogram_fit(
    params: EvolutionParams,
    dataset: PathDataset,
    bins: int,
    quad_points: int = 4_000_000,
    seed: int = 0,
    min_expected: float = 5.0,
    tol: float = 1e-12,
) -> FitReport:
    """Chi-square fit of conditioned endpoints against the density.

    Keeps samples with at least n switches (the ones carrying the absolutely
    continuous mass), computes expected cell masses by quadrature of the
    density, and compares counts.  Raises when the conditioned set is empty
    or when any expected count falls below ``min_expected`` (coarsen bins).
    """
    if dataset.config.start_point is not None and np.any(dataset.config.start_point):
        raise ValueError("histogram_fit expects origin-started datasets")
    t = dataset.config.horizon
    cond = dataset.switches >= params.n
    n_cond = int(cond.sum())
    if n_cond == 0:
        raise ValueError("no samples with enough switches to land inside the simplex")
    cells = simplex_cells(params, t, bins)
    masses = _expected_masses(cells, quad_points, seed, tol)
    expected = masses * n_cond
    if expected.min() < min_expected:
        raise ValueError(
            f"smallest expected cell count {expected.min():.2f} < {min_expected}; "
            "coarsen the binning"
        )
    observed = np.bincount(cells.assign(dataset.positions[cond]), minlength=cells.count)
    statistic = float(((observed - expected) ** 2 / expected).sum())
    dof = cells.count - 1
    return FitReport(
        statistic=statistic,
        dof=dof,
        p_value=float(chi2_dist.sf(statistic, dof)),
        reduced=statistic / dof,
        observed=observed,
        expected=expected,
        n_conditioned=n_cond,
        n_cells=cells.count,
    )
