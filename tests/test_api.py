import dataclasses
import functools
import importlib
import importlib.util
import inspect
import math
import os
import pathlib
import re
import subprocess
import sys
from functools import partial

import numpy as np
import pytest

import evolvekit
from evolvekit import geometry, verification
from evolvekit.geometry import EvolutionParams
from evolvekit.simulator import SimulationConfig

MODULES = ["cli", "density", "geometry", "simulator", "special_functions", "verification"]
RETIRED = [
    "TimeJet",
    "jet_of_hyper_bessel",
    "YCoordinates",
    "to_y_coordinates",
    "OutsideSupportError",
    "_simulate_block",
]
ROOT = pathlib.Path(__file__).resolve().parents[1]
SPANS_FILE = ROOT / "bench" / "spans.py"


@pytest.mark.parametrize("module", [None] + MODULES)
def test_every_exported_name_resolves(module):
    mod = evolvekit if module is None else importlib.import_module(f"evolvekit.{module}")
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{mod.__name__}.{name}"


def test_retired_names_are_gone():
    for mod in [evolvekit] + [importlib.import_module(f"evolvekit.{m}") for m in MODULES]:
        for name in RETIRED:
            assert not hasattr(mod, name), f"{mod.__name__}.{name}"
            assert name not in getattr(mod, "__all__", [])


def test_runtime_never_loads_scipy_stats():
    # a fit, the singular-mass checks and the Poisson tail sum in a fresh
    # interpreter: scipy.stats alone costs about a second of import time
    script = """
import sys
import evolvekit.cli  # the console script's import graph
from evolvekit.geometry import EvolutionParams
from evolvekit.simulator import SimulationConfig, histogram_fit, simulate_batch
from evolvekit.verification import check_series_identity, check_singular_mass

p = EvolutionParams(n=2, lam=1.0, v=1.0)
data = simulate_batch(p, SimulationConfig(seed=0, samples=5000, horizon=2.0))
assert 0.0 <= histogram_fit(p, data, bins=4).p_value <= 1.0
assert check_singular_mass(p, 2.0, data)[-1].passed
assert check_series_identity(p, 2.0).passed
assert "scipy.stats" not in sys.modules, "evolvekit loaded scipy.stats"
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def _load_spans():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS_FILE)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_span_targets_resolve():
    # the benchmark times each layer by wrapping these names; a target that no
    # longer resolves turns its per-layer metric into None without an error
    targets = [t for names, _ in _load_spans().SPANS.values() for t in names]
    assert "evolvekit.density:classify_batch" in targets
    assert "evolvekit.density:barycentric_coordinates" in targets
    for target in targets:
        module_name, path = target.split(":")
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), target


# The input sweep: every public callable with an int- or float-annotated
# parameter, each such argument drawn from SWEEP with the others valid.  A
# call must return finite values, or raise ValueError or OverflowError whose
# message names the argument.
SWEEP = [0, -1, 0.5, 2.0, 1e308, math.inf, math.nan, "2"]
NUMERIC = re.compile(r"(int|float)( \| None)?")
P1, P2 = EvolutionParams(1, 1.0, 1.0), EvolutionParams(2, 1.0, 1.0)
X2 = np.array([[0.1, 0.0]])

#: records the package fills from checked inputs; they check nothing themselves
RECORDS = {
    "DensityValue", "DerivedConstants", "FitReport", "HyperBesselEval", "PathSample",
    "QuadratureEstimate", "SimplexGeometry", "VerificationReport",
}


@functools.cache
def _endpoints():
    return evolvekit.simulate_batch(P1, SimulationConfig(seed=1, samples=5000, horizon=2.0), workers=1)


def _ones(pts):
    return np.ones(len(pts))


#: name -> (call taking the swept arguments by keyword, their valid values)
CALLS = {
    "EvolutionParams": (EvolutionParams, dict(n=2, lam=1.0, v=1.0)),
    "build_simplex": (evolvekit.build_simplex, dict(n=2)),
    "barycentric_coordinates": (partial(evolvekit.barycentric_coordinates, P2, X2), dict(t=1.0)),
    "classify_batch": (partial(geometry.classify_batch, P2, X2), dict(t=1.0)),
    "support_contains": (partial(evolvekit.support_contains, P2, X2[0]), dict(t=1.0)),
    "support_margins": (partial(geometry.support_margins, P2, X2), dict(t=1.0)),
    "vertices_at_time": (partial(evolvekit.vertices_at_time, P2), dict(t=1.0)),
    "volume": (partial(evolvekit.volume, P2), dict(t=1.0)),
    "ac_mass": (partial(evolvekit.ac_mass, P2), dict(t=1.0)),
    "boundary_probability": (partial(evolvekit.boundary_probability, P2), dict(t=1.0)),
    "analytic_bessel_integral": (partial(evolvekit.analytic_bessel_integral, P2), dict(t=1.0)),
    "normalization_series_identity": (
        partial(evolvekit.normalization_series_identity, P2), dict(t=1.0)
    ),
    "remark_constant_check": (partial(evolvekit.remark_constant_check, P2), dict(t=1.0)),
    "density": (partial(evolvekit.density, P2, X2[0]), dict(t=1.0, tol=1e-12)),
    "density_batch": (partial(evolvekit.density_batch, P2, X2), dict(t=1.0, tol=1e-12)),
    "jet_operator_density": (
        partial(evolvekit.jet_operator_density, P2, X2), dict(t=1.0, tol=1e-12)
    ),
    "SimulationConfig": (
        SimulationConfig, dict(seed=1, samples=500, horizon=1.0, initial_direction=0)
    ),
    "simulate_batch": (
        partial(evolvekit.simulate_batch, P2, SimulationConfig(seed=1, samples=500, horizon=1.0)),
        dict(workers=1),
    ),
    "simplex_cells": (partial(evolvekit.simplex_cells, P2), dict(t=1.0, resolution=4)),
    "histogram_fit": (
        lambda **kw: evolvekit.histogram_fit(P1, _endpoints(), **kw),
        dict(bins=5, min_expected=5.0, tol=1e-12),
    ),
    "eval_hyper_bessel": (evolvekit.eval_hyper_bessel, dict(n=2, w=1.0, tol=1e-12)),
    "hyper_bessel_ode_residual": (
        evolvekit.hyper_bessel_ode_residual, dict(n=1, alpha=1.0, z=1.0, h=0.01)
    ),
    "series_coefficient": (evolvekit.series_coefficient, dict(n=2, alpha=1.0, k=3)),
    "check_beta_integrals": (evolvekit.check_beta_integrals, dict(k=3, m=2)),
    "check_normalization": (
        lambda **kw: evolvekit.check_normalization(P2, rng=np.random.default_rng(0), **kw),
        dict(t=1.0, count=1000),
    ),
    "integrate_over_support": (
        lambda **kw: evolvekit.integrate_over_support(
            P2, integrand=_ones, rng=np.random.default_rng(0), **kw
        ),
        dict(t=1.0, count=100, chunk=64),
    ),
    "run_all": (
        partial(evolvekit.run_all, params_grid=[(4, 0.5)], suites=("normalization",)),
        dict(budget=2000, seed=0),
    ),
    "sample_uniform_simplex": (
        lambda **kw: evolvekit.sample_uniform_simplex(P2, rng=np.random.default_rng(0), **kw),
        dict(t=1.0, count=10),
    ),
    "adaptive_simpson": (
        partial(verification.adaptive_simpson, lambda x: 1.0), dict(a=0.0, b=1.0, tol=1e-8)
    ),
    "telegraph_density": (
        partial(verification.telegraph_density, 0.3), dict(t=1.0, lam=1.0, v=1.0)
    ),
}

#: values left out, each with its reason
LEFT_OUT = {
    # work at scale: as many samples, points or lattice rows as asked for
    ("run_all", "budget", 1e308): "1e308 Monte Carlo samples",
    ("check_normalization", "count", 1e308): "1e308 Monte Carlo samples",
    ("integrate_over_support", "count", 1e308): "1e308 Monte Carlo samples",
    ("sample_uniform_simplex", "count", 1e308): "1e308 points",
    ("build_simplex", "n", 1e308): "an (n+1) x n vertex table; numpy refuses it unnamed",
    # valid thread counts start threads; only values refused before that are swept
    ("simulate_batch", "workers", 2.0): "a valid thread count",
    ("simulate_batch", "workers", 1e308): "a valid thread count",
}


def _finite(out) -> bool:
    if dataclasses.is_dataclass(out):
        return all(_finite(getattr(out, f.name)) for f in dataclasses.fields(out))
    if isinstance(out, (list, tuple)):
        return all(map(_finite, out))
    if isinstance(out, (float, np.floating, np.ndarray)) and np.asarray(out).dtype.kind == "f":
        return bool(np.all(np.isfinite(out)))
    return True


def _names(message: str, name: str) -> bool:
    return re.search(rf"(?<![A-Za-z_]){re.escape(name)}(?![A-Za-z_(])", message) is not None


def test_sweep_covers_every_numeric_argument():
    for module in (evolvekit, verification):
        for name in module.__all__:
            obj = getattr(module, name)
            if not callable(obj) or name in RECORDS:
                continue
            numeric = {
                p.name for p in inspect.signature(obj).parameters.values()
                if NUMERIC.fullmatch(str(p.annotation))
            }
            assert numeric <= set(CALLS.get(name, (None, {}))[1]), (name, numeric)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "name, arg", [(name, arg) for name, (_, valid) in CALLS.items() for arg in valid]
)
def test_input_sweep(name, arg):
    call, valid = CALLS[name]
    assert _finite(call(**valid)), "the valid call itself"
    for value in SWEEP:
        if (name, arg, value) in LEFT_OUT:
            continue
        try:
            out = call(**{**valid, arg: value})
        except (ValueError, OverflowError) as exc:
            assert _names(str(exc), arg), (value, str(exc))
        else:
            assert _finite(out), value


@pytest.mark.parametrize(
    "call, arg",
    [
        pytest.param(lambda: evolvekit.ac_mass(P2, math.nan), "t", id="ac_mass-nan"),
        pytest.param(lambda: evolvekit.vertices_at_time(P2, math.nan), "t", id="vertices-nan"),
        pytest.param(lambda: geometry.classify_batch(P2, X2, math.nan), "t", id="classify-nan"),
        pytest.param(lambda: evolvekit.density(P2, X2[0], math.inf), "t", id="density-inf"),
        pytest.param(lambda: EvolutionParams(math.inf, 1.0, 1.0), "n", id="params-n-inf"),
        pytest.param(lambda: EvolutionParams(math.nan, 1.0, 1.0), "n", id="params-n-nan"),
        pytest.param(lambda: evolvekit.check_beta_integrals(1.5, 2), "k", id="beta-k-1.5"),
        pytest.param(lambda: evolvekit.density_batch(P2, X2, 1.0, tol=0), "tol", id="tol-0"),
        pytest.param(lambda: evolvekit.density_batch(P2, X2, 1.0, tol=2), "tol", id="tol-2"),
        pytest.param(lambda: evolvekit.check_normalization(P2, 1.0, math.nan), "count",
                     id="normalization-count-nan"),
        pytest.param(lambda: evolvekit.run_all(budget=-1), "budget", id="budget-negative"),
        pytest.param(
            lambda: evolvekit.simulate_batch(P2, SimulationConfig(0, 10, 1.0), workers=2.5),
            "workers", id="workers-2.5",
        ),
    ],
)
def test_once_silent_inputs_raise_a_named_error(call, arg):
    with pytest.raises(ValueError) as exc:
        call()
    assert _names(str(exc.value), arg), str(exc.value)


def test_whole_number_floats_are_integers():
    # each of these raised TypeError from inside numpy
    grid, suites = [(4, 1.0)], ("geometry", "normalization")
    assert evolvekit.run_all(budget=2e3, params_grid=grid, suites=suites) == evolvekit.run_all(
        budget=2000, params_grid=grid, suites=suites
    )
    assert evolvekit.simplex_cells(P2, 1.0, 2.0) == evolvekit.simplex_cells(P2, 1.0, 2)
    whole, exact = (evolvekit.histogram_fit(P1, _endpoints(), bins) for bins in (4.0, 4))
    assert whole.statistic == exact.statistic and whole.n_cells == exact.n_cells


@pytest.mark.parametrize("text", ["0", "-1", "0.5", "inf", "nan", "x"])
def test_threads_variable_takes_the_same_rule(monkeypatch, text):
    # refused before any thread is asked for; "0" once ran one thread
    monkeypatch.setenv("EVOLVEKIT_THREADS", text)
    with pytest.raises(ValueError, match="EVOLVEKIT_THREADS must be an integer >= 1"):
        evolvekit.simulate_batch(P2, SimulationConfig(seed=0, samples=10, horizon=1.0))
