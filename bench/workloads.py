"""The benchmark's workloads: inputs from a seed, one operation, output checks.

A workload has a ``round``: a fixed list of operation specs.  A run executes
whole rounds.  Every operation is a pure function of its spec, so the
untimed warm-up round doubles as the reference: each timed operation must
reproduce its warm-up output exactly (``digest``), and the warm-up outputs
get the full checks once, after timing (``check``).  Checks that hold only
with high probability (4-sigma rules) are run-level (``check_run``); they
see None in place of an output that failed its own checks.

evolvekit functions are looked up through their modules at call time, so
the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import os

import numpy as np

import oracles


def _mod(name: str):
    return importlib.import_module(name)


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def endpoint_problems(n: int, vt: float, pos, switches, init, cur) -> list[str]:
    """Properties every batch of endpoints must have, whatever the seed."""
    problems = []
    if not np.array_equal(cur, (init + switches) % (n + 1)):
        problems.append("current_direction != (initial_direction + switches) mod (n+1)")
    norms = np.linalg.norm(pos, axis=1)
    if not np.all(norms <= vt * (1 + 1e-12)):
        problems.append(f"endpoint norm {norms.max()!r} exceeds vt = {vt}")
    w = oracles.barycentric(n, pos, vt)
    if not np.all(w >= -1e-12):
        problems.append(f"endpoint outside the simplex (barycentric weight {w.min()!r})")
    for d in range(n + 1):
        still = pos[(switches == 0) & (init == d)]
        if len(still) and not np.all(still == still[0]):
            problems.append(f"zero-switch endpoints from direction {d} differ")
        if len(still) and abs(np.linalg.norm(still[0]) - vt) > 1e-12 * vt:
            problems.append(f"zero-switch endpoint from direction {d} is not at distance vt")
    return problems


def endpoint_statistics(n: int, lt: float, pos, switches) -> list[str]:
    """4-sigma rules: mean switch count near lam*t, each coordinate mean near 0."""
    problems = []
    count = len(switches)
    sigma = math.sqrt(lt / count)
    if not abs(switches.mean() - lt) <= 4 * sigma:
        problems.append(f"mean switches {switches.mean()!r} not within 4 sigma of {lt}")
    for j in range(n):
        sigma = pos[:, j].std() / math.sqrt(count)
        if not abs(pos[:, j].mean()) <= 4 * sigma:
            problems.append(f"mean of x_{j + 1} = {pos[:, j].mean()!r} not within 4 sigma of 0")
    return problems


def parse_csv(text: str, n: int):
    """Columns of a simulate CSV; raises ValueError on a malformed file."""
    header = ",".join(f"x_{j + 1}" for j in range(n)) + ",switches,initial_direction,current_direction"
    lines = text.split("\n")
    if lines[0] != header or lines[-1] != "":
        raise ValueError(f"CSV header {lines[0]!r} != {header!r} or no final newline")
    cols = list(zip(*(line.split(",") for line in lines[1:-1])))
    if len(cols) != n + 3:
        raise ValueError(f"CSV rows have {len(cols)} fields, expected {n + 3}")
    pos = np.array([[float(c) for c in col] for col in cols[:n]]).T.copy()
    return (pos,) + tuple(np.array([int(c) for c in col]) for col in cols[n:])


def csv_problems(columns, data) -> list[str]:
    """The CSV must hold ``data`` exactly, since %.17g round-trips doubles."""
    problems = []
    for name, col, ref in zip(
        ("positions", "switches", "initial_direction", "current_direction"), columns, _columns(data)
    ):
        if col.shape != ref.shape or col.tobytes() != np.ascontiguousarray(ref).tobytes():
            problems.append(f"CSV {name} differ from simulate_batch bit for bit")
    return problems


class Dataset:
    """``evolvekit simulate`` through ``cli.main``: n=2, lam t=1, one CSV per op."""

    name = "dataset"
    unit = "row"
    N, LAM, V, T, ROWS = 2, 1.0, 1.0, 1.0, 200_000

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.round = ["ref"]

    def _argv(self, path: str) -> list[str]:
        return [
            "simulate", "--n", str(self.N), "--lambda", str(self.LAM), "--v", str(self.V),
            "--t", str(self.T), "--samples", str(self.ROWS), "--seed", str(self.seed),
            "--policy", "uniform", "--out", path,
        ]

    def run(self, spec, reference: bool):
        path = os.path.join(self.workdir, "ref.csv" if reference else "op.csv")
        status = _mod("evolvekit.cli").main(self._argv(path))
        return status, path

    def units(self, spec, out) -> int:
        return self.ROWS

    def digest(self, out) -> str:
        status, path = out
        manifest = path + ".manifest.json"
        if status != 0 or not os.path.exists(path) or not os.path.exists(manifest):
            return f"status={status} data={os.path.exists(path)} manifest={os.path.exists(manifest)}"
        with open(path, "rb") as fh:
            return _sha(fh.read())

    def discard(self, out) -> None:
        for p in (out[1], out[1] + ".manifest.json"):
            if os.path.exists(p):
                os.unlink(p)

    def check(self, spec, out) -> list[str]:
        status, path = out
        if status != 0:
            return [f"cli.main returned {status}"]
        if not os.path.exists(path + ".manifest.json"):
            return ["no manifest beside the CSV"]
        with open(path) as fh:
            text = fh.read()
        try:
            self.columns = parse_csv(text, self.N)
        except ValueError as exc:
            return [str(exc)]
        params = _mod("evolvekit.geometry").EvolutionParams(n=self.N, lam=self.LAM, v=self.V)
        sim = _mod("evolvekit.simulator")
        config = sim.SimulationConfig(seed=self.seed, samples=self.ROWS, horizon=self.T)
        problems = csv_problems(self.columns, sim.simulate_batch(params, config, workers=1))
        return problems + endpoint_problems(self.N, self.V * self.T, *self.columns)

    def check_run(self, outs) -> list[str]:
        if outs[0] is None:
            return []
        return endpoint_statistics(self.N, self.LAM * self.T, self.columns[0], self.columns[1])


class LongHorizon:
    """``simulate_batch(..., workers=1)`` at n=2, lam t=100, no file output."""

    name = "long-horizon"
    unit = "endpoint"
    N, LAM, V, T, SAMPLES = 2, 1.0, 1.0, 100.0, 65_536

    def __init__(self, seed: int, workdir: str):
        self.params = _mod("evolvekit.geometry").EvolutionParams(n=self.N, lam=self.LAM, v=self.V)
        self.config = _mod("evolvekit.simulator").SimulationConfig(
            seed=seed, samples=self.SAMPLES, horizon=self.T
        )
        self.round = ["ref"]

    def run(self, spec, reference: bool):
        return _mod("evolvekit.simulator").simulate_batch(self.params, self.config, workers=1)

    def units(self, spec, out) -> int:
        return len(out)

    def digest(self, out) -> str:
        return _sha(*(np.ascontiguousarray(a).tobytes() for a in _columns(out)))

    def discard(self, out) -> None:
        pass

    def check(self, spec, out) -> list[str]:
        if len(out) != self.SAMPLES:
            return [f"{len(out)} endpoints, expected {self.SAMPLES}"]
        return endpoint_problems(self.N, self.V * self.T, *_columns(out))

    def check_run(self, outs) -> list[str]:
        out = outs[0]
        if out is None:
            return []
        return endpoint_statistics(self.N, self.LAM * self.T, out.positions, out.switches)


def _columns(data):
    return data.positions, data.switches, data.initial_direction, data.current_direction


class Verify:
    """``run_all(budget=200_000, seed=0)``: the whole identity-check battery."""

    name = "verify"
    unit = "asserted check"

    def __init__(self, seed: int, workdir: str):
        # the battery's 3-sigma rules are tuned for seed 0; other seeds fail
        # some of them by chance, so the battery's own seed stays fixed
        self.round = [{"budget": 200_000, "seed": 0}]

    def run(self, spec, reference: bool):
        return _mod("evolvekit.verification").run_all(**spec)

    def units(self, spec, out) -> int:
        return sum(r.rule != "report-only" for r in out)

    def digest(self, out) -> str:
        return _sha(repr([(r.name, r.passed, r.estimate, r.target) for r in out]).encode())

    def discard(self, out) -> None:
        pass

    def check(self, spec, out) -> list[str]:
        if self.units(spec, out) == 0:
            return ["the battery asserted no check"]
        return [
            f"{r.name}: estimate {r.estimate!r} vs target {r.target!r} ({r.rule})"
            for r in out
            if r.rule != "report-only" and not r.passed
        ]

    def check_run(self, outs) -> list[str]:
        return []


class DensityGrid:
    """``density_batch`` on fixed point sets, n = 1..8, lam t = 1, 5, 20.

    Each set is 90% uniform points of T_vt and 10% points pushed just
    outside one facet.  Three more sets at lam t = 800 (n = 1, 2, 3) do not
    depend on the seed: evolvekit overflows there, and those operations
    count as failed until that is mended.
    """

    name = "density-grid"
    unit = "point"
    POINTS = 40_000
    # (lam, v) per lam*t, so that the rate, the speed and the horizon all vary
    RATES = {1.0: (1.0, 1.0), 5.0: (2.0, 0.5), 20.0: (0.5, 2.0)}
    ORACLE_POINTS = 3

    def __init__(self, seed: int, workdir: str):
        geometry = _mod("evolvekit.geometry")
        self.round = []
        for n in range(1, 9):
            for lt, (lam, v) in self.RATES.items():
                entropy = (seed % 2**63, n, int(lt))
                self.round.append(self._spec(geometry, n, lam, v, lt / lam, entropy))
        for n in (1, 2, 3):
            self.round.append(self._spec(geometry, n, 1.0, 1.0, 800.0, (800, n)))

    def _spec(self, geometry, n, lam, v, t, entropy):
        rng = np.random.default_rng(np.random.SeedSequence(entropy))
        w = rng.dirichlet(np.ones(n + 1), size=self.POINTS)
        outside = rng.random(self.POINTS) < 0.1
        r = rng.integers(0, n + 1, size=self.POINTS)
        delta = rng.uniform(1e-4, 1e-2, size=self.POINTS)
        rows = np.nonzero(outside)[0]
        wr = w[rows, r[rows]]
        w[rows] *= ((1 + delta[rows]) / (1 - wr))[:, None]
        w[rows, r[rows]] = -delta[rows]
        x = (v * t) * (w @ oracles.simplex_vertices(n))
        return {
            "params": geometry.EvolutionParams(n=n, lam=lam, v=v),
            "t": t, "x": x, "w": w, "inside": ~outside,
        }

    def run(self, spec, reference: bool):
        return _mod("evolvekit.density").density_batch(spec["params"], spec["x"], spec["t"])

    def units(self, spec, out) -> int:
        return len(spec["x"])

    def digest(self, out) -> str:
        return _sha(out.tobytes())

    def discard(self, out) -> None:
        pass

    def check(self, spec, out) -> list[str]:
        p, t, w = spec["params"], spec["t"], spec["w"]
        n, lt = p.n, p.lam * t
        label = f"n={n} lam*t={lt:g}"
        if not np.all(np.isfinite(out)):
            i = int(np.argmin(np.isfinite(out)))
            return [
                f"{label}: {np.count_nonzero(~np.isfinite(out))} non-finite values; "
                f"the closed form at w={w[i].tolist()} is {self._oracle(spec, i)!r}"
            ]
        problems = []
        low = w.min(axis=1)
        if np.any(out[low < -1e-6] != 0.0):
            problems.append(f"{label}: nonzero density outside the simplex")
        clear = low > 1e-6
        if not np.all(out[clear] > 0.0):
            problems.append(f"{label}: {np.count_nonzero(out[clear] <= 0)} interior zeros")
            return problems
        if n == 1:
            x = spec["x"][clear, 0]
            ref = oracles.telegraph_density(x, t, p.lam, p.v)
            rel = np.max(np.abs(out[clear] - ref) / ref)
            if not rel <= 1e-10:
                problems.append(f"{label}: {rel:.3g} relative error against the telegraph density")
        else:
            for i in np.nonzero(clear)[0][: self.ORACLE_POINTS]:
                ref = self._oracle(spec, i)
                rel = abs(out[i] - ref) / ref
                if not rel <= 1e-10:
                    problems.append(
                        f"{label}: {out[i]!r} vs closed form {ref!r} at w={w[i].tolist()}"
                    )
        return problems

    @staticmethod
    def _oracle(spec, i: int) -> float:
        p = spec["params"]
        if p.n == 1:
            return float(oracles.telegraph_density(spec["x"][i], spec["t"], p.lam, p.v)[0])
        return oracles.closed_form_density(p.n, p.lam, p.v, spec["t"], spec["w"][i])

    def check_run(self, outs) -> list[str]:
        problems = []
        for spec, out in zip(self.round, outs):
            p, t = spec["params"], spec["t"]
            if out is None:
                continue  # a failed operation
            f = out[spec["inside"]]
            vol = oracles.simplex_volume(p.n, p.v * t)
            mass, sigma = vol * f.mean(), vol * f.std() / math.sqrt(len(f))
            target = oracles.poisson_tail(p.n, p.lam * t)
            if not abs(mass - target) <= 4 * sigma:
                problems.append(
                    f"n={p.n} lam*t={p.lam * t:g}: Vol*mean(f) = {mass!r} not within "
                    f"4 sigma ({sigma:.3g}) of the Poisson tail {target!r}"
                )
        return problems


WORKLOADS = {w.name: w for w in (Dataset, LongHorizon, Verify, DensityGrid)}


def make(name: str, seed: int, workdir: str):
    return WORKLOADS[name](seed, workdir)
