"""Trajectory sampler for the cyclic evolution and goodness-of-fit machinery.

A path holds a direction for an exponential(lam) time, moves at speed v
along it, then switches to the next direction cyclically (the last is
followed by the first).  Only endpoints are kept: position, switch count,
initial and current direction.

Reproducibility contract: samples are generated in fixed blocks of
``BLOCK_SIZE`` consecutive indices; block j draws from a Philox generator
seeded with SeedSequence((seed, j)).  Batches are therefore bit-identical
for a given seed regardless of how many threads sample the blocks or in
which order they finish, and results are ordered by sample index.

One path loop, ``_sample_paths``, serves ``simulate_batch`` (a block at a
time) and ``simulate_path`` (one path on the caller's generator), and
writes the endpoints into arrays its caller passes.  ``simulate_batch``
allocates a batch's columns once, and each block's loop writes its own
rows: on threads, at most one per block, which share only read-only
tables, or in the calling thread for one worker or one block.  The current
directions are formed once for the whole batch.  The running paths are
kept in sample order in one float array of n + 1 rows, their coordinates
and the time remaining, with one int array of two rows, sample index and
initial direction d0; after k switches a path's direction is
(d0 + k) mod (n+1), a column of the rolled direction table.  Each
iteration draws one exponential per running path in sample order and
applies ``pos += (v * min(dt, rem)) * tau[d]; rem -= dt``.  On an iteration
where some paths stop, their positions and switch count are written to
their sample rows and the two state arrays are compressed once each.  The
per-block streams and the output bits do not depend on this layout.

``histogram_fit`` compares conditioned endpoint counts with cell masses of
the density, which ``_expected_masses`` computes by deterministic
quadrature in every dimension, the line included: a degree-11
Grundmann-Moller rule on the edgewise sub-simplices of each lattice cell,
refined where its embedded degree-9 rule disagrees.  The engine takes any
batch integrand; the verification battery also integrates the density's
kernel with it.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from typing import Callable

import numpy as np
from scipy.special import chdtrc

from .density import density_batch
from .geometry import EvolutionParams, barycentric_coordinates, vertices_at_time, volume
# unused here; benchmark tracing wraps these names in this module
from .verification import adaptive_simpson, sample_uniform_simplex  # noqa: F401

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


def _integral(name: str, value) -> int:
    """``value`` as an int if it is a whole number, else ``ValueError``."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


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
        for name in ("seed", "samples", "initial_direction"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _integral(name, getattr(self, name)))
        if self.samples < 1:
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


def _check_config(params: EvolutionParams, config: SimulationConfig) -> None:
    if config.initial_direction is not None and config.initial_direction > params.n:
        raise ValueError(
            f"fixed initial direction {config.initial_direction} outside 0..{params.n}"
        )
    start = config.start_point
    if start is not None and (start.shape != (params.n,) or not np.isfinite(start).all()):
        raise ValueError(f"start point must be {params.n} finite coordinates at n={params.n}")


def simulate_path(
    params: EvolutionParams, config: SimulationConfig, rng: np.random.Generator
) -> PathSample:
    """Sample one endpoint: exponential(lam) holding times, cyclic successor,
    speed v, stopped exactly at the horizon.  Draws from ``rng`` through the
    same path loop as ``simulate_batch``."""
    _check_config(params, config)
    pos, switches, init = _endpoint_arrays(1, params.n)
    _sample_paths(params, config, rng, pos, switches, init)
    return PathSample(
        position=pos[0],
        switches=int(switches[0]),
        current_direction=int((init[0] + switches[0]) % (params.n + 1)),
        initial_direction=int(init[0]),
    )


@lru_cache(maxsize=64)
def _direction_cycle(n: int, v: float) -> np.ndarray:
    """The unit directions as columns, twice over: column s + d is direction
    (s + d) mod (n+1).  Read-only, shared by every path loop with this (n, v).
    Formed as vertices_at_time / v, the bits the sampler has always used, so
    it depends on v; lam plays no part."""
    unit = (vertices_at_time(EvolutionParams(n=n, lam=1.0, v=v), 1.0) / v).T
    cycle = np.hstack((unit, unit))
    cycle.setflags(write=False)
    return cycle


def _endpoint_arrays(count: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Empty positions (count, n), switch counts and initial directions."""
    return np.empty((count, n)), np.empty(count, dtype=np.int64), np.empty(count, dtype=np.int64)


def _sample_paths(
    params: EvolutionParams,
    config: SimulationConfig,
    rng: np.random.Generator,
    out: np.ndarray,
    switches: np.ndarray,
    init: np.ndarray,
) -> None:
    """Draw ``len(switches)`` paths from ``rng`` and write their endpoints to
    ``out`` (count, n), their switch counts to ``switches`` and their initial
    directions to ``init``."""
    n = params.n
    count = len(switches)
    cycle = _direction_cycle(n, params.v)
    if config.initial_direction is None:
        init[:] = rng.integers(0, n + 1, size=count)
    else:
        init.fill(config.initial_direction)
    state = np.zeros((n + 1, count))  # rows: the n coordinates, time remaining
    state[n] = config.horizon
    tags = np.array((np.arange(count), init))  # rows: sample index, initial direction
    k = 0
    while True:
        remaining = state[n]
        step = np.minimum(rng.exponential(1.0 / params.lam, size=tags.shape[1]), remaining)
        keep = step < remaining  # the draw fell short of the time remaining
        remaining -= step  # the draw itself on every path that runs on
        step *= params.v
        table = cycle[:, k % (n + 1) :]
        for i in range(n):
            state[i] += table[i].take(tags[1]) * step
        del step  # before the compaction below allocates
        running = np.count_nonzero(keep)
        if running < keep.size:
            stop = ~keep
            done = tags[0].compress(stop)
            out[done] = state[:n].compress(stop, axis=1).T
            switches[done] = k
            if not running:
                break
            state, tags = state.compress(keep, axis=1), tags.compress(keep, axis=1)
        k += 1
    if config.start_point is not None:
        out += config.start_point


def _block_rng(config: SimulationConfig, block_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=(config.seed, block_index)))
    )


def _worker_count(workers: int | None) -> int:
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("EVOLVEKIT_THREADS")
    if env is None:
        return os.cpu_count() or 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ValueError(f"EVOLVEKIT_THREADS must be an integer, got {env!r}") from None


def simulate_batch(
    params: EvolutionParams, config: SimulationConfig, workers: int | None = None
) -> PathDataset:
    """Sample ``config.samples`` endpoints, each block of ``BLOCK_SIZE``
    into its own rows, on at most ``workers`` threads (default
    EVOLVEKIT_THREADS, else the CPU count) and at most one per block; one
    worker or one block runs in the calling thread.  Deterministic in (seed,
    samples): the per-block substreams make the result independent of
    ``workers`` and of the order in which blocks finish."""
    _check_config(params, config)
    total = config.samples
    blocks = -(-total // BLOCK_SIZE)
    threads = min(_worker_count(workers), blocks)
    pos, sw, init = _endpoint_arrays(total, params.n)

    def sample_block(j: int) -> None:
        rows = slice(j * BLOCK_SIZE, (j + 1) * BLOCK_SIZE)
        _sample_paths(params, config, _block_rng(config, j), pos[rows], sw[rows], init[rows])

    if threads == 1:
        for j in range(blocks):
            sample_block(j)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(sample_block, range(blocks)))
    cur = init + sw
    cur %= params.n + 1
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
    """Partition of the reachable simplex for goodness-of-fit binning:
    barycentric lattice cells, key = floor(resolution * w) over the n+1
    sojourn fractions, one cell per admissible key.  On the line the keys
    (c, resolution-1-c) are the equal-width intervals of (-vt, vt), left to
    right.
    """

    params: EvolutionParams
    t: float
    resolution: int
    keys: tuple = field(repr=False)
    _table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):  # cell index of each key read in base m, else -1
        m, n = self.resolution, self.params.n
        table = np.full(m ** (n + 1), -1, dtype=np.int64)
        table[np.array(self.keys) @ m ** np.arange(n + 1)] = np.arange(len(self.keys))
        object.__setattr__(self, "_table", table)

    @property
    def count(self) -> int:
        return len(self.keys)

    def assign(self, x: np.ndarray) -> np.ndarray:
        """Cell index of each point (points must lie in the closed simplex)."""
        m = self.resolution
        if self.params.n == 1:  # interior edges go right, not left as in the lattice
            vt = self.params.v * self.t
            idx = np.floor((x[:, 0] + vt) / (2 * vt) * m).astype(np.int64)
            return np.clip(idx, 0, m - 1)
        w = barycentric_coordinates(self.params, x, self.t)
        np.clip(w, 0.0, 1.0 - 1e-12, out=w)
        w *= m
        c = np.floor(w, out=w).astype(np.int64)
        del w  # before the key sums below allocate
        over = c.sum(axis=1) > m - 1
        for row in np.nonzero(over)[0]:  # exact lattice hits, measure zero
            while c[row].sum() > m - 1:
                c[row, int(np.argmax(c[row]))] -= 1
        return self._table[c @ (m ** np.arange(self.params.n + 1, dtype=np.int64))]


def _lattice_keys(n: int, m: int) -> tuple:
    """Barycentric lattice keys c = floor(m w) of the cells of resolution m,
    in lexicographic order: n+1 digits in 0..m-1 with m-(n+1) < sum(c) <= m-1."""
    return tuple(sorted(c for s in range(max(m - n, 0), m) for c in _compositions(s, n + 1)))


def simplex_cells(params: EvolutionParams, t: float, resolution: int) -> SimplexCells:
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    keys = _lattice_keys(params.n, resolution)
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


#: Grundmann-Moller index: the cell rule has degree 2s+1 = 11
_GM_INDEX = 5
#: relative error allowed on the total cell mass
_CUBATURE_RTOL = 1e-10
#: barycentric coordinates, n+1 per integrand point, that one
#: ``_expected_masses`` call may evaluate before it gives up: 4e6 points at n = 3
_COORD_CAP = 16_000_000
#: coordinates per integrand call, which bounds the cubature's memory
_CHUNK_COORDS = 1 << 20


def _compositions(total: int, parts: int):
    """All tuples of ``parts`` nonnegative integers summing to ``total``."""
    for bars in combinations(range(total + parts - 1), parts - 1):
        edges = (-1, *bars, total + parts - 1)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


@lru_cache(maxsize=None)
def _grundmann_moller(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes (K, n+1) in barycentric coordinates and the weights of the
    Grundmann-Moller rules of degree 2s+1 and 2s-1, s = ``_GM_INDEX``, on the
    n-simplex, as fractions of its volume (Grundmann & Moller, SIAM J. Numer.
    Anal. 15, 1978).  Level i of the rule of index q holds the nodes
    (2 beta + 1) / (2q+1+n-2i), |beta| = q-i, so level i-1 of the rule of
    index s-1 is level i of the rule of index s: the degree-(2s-1) rule uses
    the same nodes, and the difference of the two is an error estimate."""

    def weight(q: int, i: int) -> float:
        d = 2 * q + 1
        return (
            math.factorial(n) * (-1) ** i * (d + n - 2 * i) ** d
            / (4**q * math.factorial(i) * math.factorial(d + n - i))
        )

    s = _GM_INDEX
    nodes, fine, coarse = [], [], []
    for i in range(s + 1):
        betas = np.array(list(_compositions(s - i, n + 1)), dtype=float)
        nodes.append((2 * betas + 1) / (2 * s + 1 + n - 2 * i))
        fine.append(np.full(len(betas), weight(s, i)))
        coarse.append(np.full(len(betas), weight(s - 1, i - 1) if i else 0.0))
    out = np.vstack(nodes), np.concatenate(fine), np.concatenate(coarse)
    for arr in out:
        arr.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _edgewise_pieces(n: int, m: int) -> np.ndarray:
    """The m**n edgewise sub-simplices of the n-simplex (Edelsbrunner &
    Grayson, Discrete Comput. Geom. 24, 2000): integer vertices m*w, shape
    (m**n, n+1 vertices, n+1 weights).

    In the cumulative coordinates z_i = m (w_0 + ... + w_(i-1)) the simplex
    is 0 <= z_1 <= ... <= z_n <= m, and the pieces are its Freudenthal
    simplices: from a nondecreasing base point, one unit step along each
    axis in turn, every vertex keeping that order.  Every hyperplane
    m w_r = integer is z_i = k or z_(i+1) - z_i = k, a wall of that
    triangulation, so no piece crosses one.  Each partial path extends to
    a whole one, so building them a step at a time never holds more than
    m**n paths.
    """
    base = np.array(list(combinations_with_replacement(range(m), n)), dtype=np.int64)
    paths = base[:, None, :]
    for _ in range(n):
        z = paths[:, -1]
        above = np.concatenate((z[:, 1:], np.full((len(z), 1), m)), axis=1)
        rows, axes = np.nonzero((z == base) & (z < above))
        step = z[rows]
        step[np.arange(len(rows)), axes] += 1
        paths = np.concatenate((paths[rows], step[:, None]), axis=1)
        base = base[rows]
    ends = np.zeros((len(paths), n + 1, 1), dtype=np.int64)
    pieces = np.diff(np.concatenate((ends, paths, ends + m), axis=2), axis=2)
    pieces.setflags(write=False)
    return pieces


def _piece_integrals(
    params: EvolutionParams,
    t: float,
    simplices: np.ndarray,
    vol: np.ndarray,
    integrand: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Degree-11 Grundmann-Moller integrals of ``integrand`` over simplices
    (shape (P, n+1, n+1), rows the vertices' barycentric weights) of volumes
    ``vol``, and their error estimates |degree 11 - degree 9|.  The
    integrand maps points (N, n) of T_vt to values (N,); it is evaluated in
    tiles of pieces by nodes of at most ``_CHUNK_COORDS`` coordinates."""
    n = params.n
    nodes, fine, coarse = _grundmann_moller(n)
    corners = vertices_at_time(params, t)
    per_call = max(1, _CHUNK_COORDS // (n + 1))
    rows, cols = max(1, per_call // len(nodes)), min(len(nodes), per_call)
    f = np.empty((len(simplices), len(nodes)))
    for i in range(0, len(simplices), rows):
        for j in range(0, len(nodes), cols):
            pts = (nodes[j : j + cols] @ simplices[i : i + rows]) @ corners
            f[i : i + rows, j : j + cols] = integrand(pts.reshape(-1, n)).reshape(pts.shape[:2])
    return vol * (f @ fine), vol * np.abs(f @ (fine - coarse))


def _expected_masses(
    cells: SimplexCells, integrand: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """Integrals of ``integrand`` over the cells; for the density these are
    the unnormalized cell masses, whose sum is ``ac_mass``.

    Deterministic quadrature.  Each of the resolution**n edgewise
    sub-simplices lies in one cell (on the line they are the cells), and a
    degree-11 Grundmann-Moller rule integrates them all at once.  While the
    summed |degree 11 - degree 9| estimates exceed 1e-10 of the total, the
    pieces with the largest estimates split into their 2**n edgewise
    children, in the same cell, until the rest sum to at most 0.9e-10 of it.
    Raises ``ValueError`` past a fixed number of integrand points.
    """
    params, t, m = cells.params, cells.t, cells.resolution
    n = params.n
    coords_per_piece = math.comb(n + _GM_INDEX + 1, n + 1) * (n + 1)  # nodes x weights
    evaluated = 0

    def spend(pieces: int) -> None:  # checked before anything of that size is built
        nonlocal evaluated
        evaluated += pieces * coords_per_piece
        if evaluated > _COORD_CAP:
            raise ValueError(
                f"cell cubature needs more than {_COORD_CAP // (n + 1)} integrand points "
                f"at n={n}, lam*t={params.lam * t:g}, resolution={m}"
            )

    spend(m**n)
    pieces = _edgewise_pieces(n, m)
    new = [
        pieces / float(m),
        np.full(len(pieces), volume(params, t) / m**n),
        cells._table[(pieces.sum(axis=1) // (n + 1)) @ m ** np.arange(n + 1)],
    ]
    # leaves: simplices, volumes, cells, estimates, error estimates
    leaves = [np.empty((0, n + 1, n + 1)), np.empty(0), np.empty(0, np.int64)]
    leaves += [np.empty(0), np.empty(0)]
    while True:
        new.extend(_piece_integrals(params, t, new[0], new[1], integrand))
        leaves = [np.concatenate(pair) for pair in zip(leaves, new)]
        simplices, vol, cell, est, err = leaves
        budget = _CUBATURE_RTOL * abs(est.sum())
        if err.sum() <= budget:
            break
        # split the largest estimates until the rest fit in 9/10 of the
        # budget; the 2**n children of a piece together carry about 2**-10
        # of its estimate
        order = np.argsort(err)
        split = np.ones(len(err), dtype=bool)
        split[order[: np.searchsorted(np.cumsum(err[order]), 0.9 * budget, "right")]] = False
        spend(2**n * int(split.sum()))
        children = _edgewise_pieces(n, 2) / 2.0
        new = [
            np.matmul(children, simplices[split, None]).reshape(-1, n + 1, n + 1),
            np.repeat(vol[split] / 2**n, 2**n),
            np.repeat(cell[split], 2**n),
        ]
        leaves = [a[~split] for a in leaves]
    return np.bincount(cell, weights=est, minlength=cells.count)


def histogram_fit(
    params: EvolutionParams,
    dataset: PathDataset,
    bins: int,
    min_expected: float = 5.0,
    tol: float = 1e-12,
) -> FitReport:
    """Chi-square fit of conditioned endpoints against the density.

    Keeps samples with at least n switches (the ones carrying the absolutely
    continuous mass), computes expected cell masses by deterministic
    quadrature of the density (``_expected_masses``; ``tol`` is the density's
    series tolerance) and compares counts.  Raises when the conditioned set
    is empty, when any expected count falls below ``min_expected`` (coarsen
    bins) or when the quadrature would exceed its point cap.
    """
    if dataset.config.start_point is not None and np.any(dataset.config.start_point):
        raise ValueError("histogram_fit expects origin-started datasets")
    t = dataset.config.horizon
    cond = dataset.switches >= params.n
    n_cond = int(cond.sum())
    if n_cond == 0:
        raise ValueError("no samples with enough switches to land inside the simplex")
    cells = simplex_cells(params, t, bins)
    masses = _expected_masses(cells, lambda x: density_batch(params, x, t, tol))
    expected = masses / masses.sum() * n_cond
    if expected.min() < min_expected:
        raise ValueError(
            f"smallest expected cell count {expected.min():.2f} < {min_expected}; "
            "coarsen the binning"
        )
    observed = np.bincount(
        cells.assign(dataset.positions.compress(cond, axis=0)), minlength=cells.count
    )
    statistic = float(((observed - expected) ** 2 / expected).sum())
    dof = cells.count - 1
    return FitReport(
        statistic=statistic,
        dof=dof,
        p_value=float(chdtrc(dof, statistic)),
        reduced=statistic / dof,
        observed=observed,
        expected=expected,
        n_conditioned=n_cond,
        n_cells=cells.count,
    )
