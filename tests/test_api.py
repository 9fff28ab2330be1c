import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

import evolvekit

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
