"""Tests of the benchmark itself: its oracles, its checks and its tracer.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import importlib
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from evolvekit.geometry import EvolutionParams, build_simplex  # noqa: E402


@pytest.mark.parametrize("lam,v,t", [(1.0, 1.0, 1.0), (2.0, 0.5, 2.5), (0.5, 2.0, 40.0), (1.0, 1.0, 800.0)])
def test_closed_form_matches_telegraph_on_the_line(lam, v, t):
    for frac in (-0.9, -0.3, 0.0, 0.45, 0.99):
        x = frac * v * t
        w = [(1 - x / (v * t)) / 2, (1 + x / (v * t)) / 2]
        mp_value = oracles.closed_form_density(1, lam, v, t, w)
        line = float(oracles.telegraph_density(np.array([x]), t, lam, v)[0])
        assert mp_value > 0
        assert abs(mp_value - line) <= 1e-12 * line


@pytest.mark.parametrize("n", range(1, 9))
def test_gammainc_matches_direct_poisson_sum(n):
    for lt in (0.5, 1.0, 5.0, 20.0, 100.0, 800.0):
        assert math.isclose(oracles.poisson_tail(n, lt), oracles.poisson_tail_direct(n, lt), rel_tol=1e-12)


@pytest.mark.parametrize("n", range(1, 9))
def test_simplex_vertices_match_the_program_and_are_regular(n):
    V = oracles.simplex_vertices(n)
    assert np.array_equal(V, build_simplex(n).vertices)
    gram = V @ V.T
    assert np.allclose(np.diag(gram), 1.0, atol=1e-14)
    assert np.allclose(gram[~np.eye(n + 1, dtype=bool)], -1.0 / n, atol=1e-14)
    lt = 3.0
    x = lt * np.array([[0.2] + [0.8 / n] * n]) @ V
    assert np.allclose(oracles.barycentric(n, x, lt), [[0.2] + [0.8 / n] * n], atol=1e-14)


def _grid_spec(wl, n, lt):
    return next(s for s in wl.round if s["params"].n == n and math.isclose(s["params"].lam * s["t"], lt))


@pytest.mark.parametrize("n", [1, 3, 8])
def test_density_scaled_by_two_percent_fails(n):
    wl = workloads.DensityGrid(seed=5, workdir="")
    spec = _grid_spec(wl, n, 5.0)
    out = wl.run(spec, reference=True)
    assert wl.check(spec, out) == []
    assert wl.check(spec, out * 1.02) != []


def test_density_grid_counts_the_overflow_at_lam_t_800_as_failed():
    wl = workloads.DensityGrid(seed=5, workdir="")
    failing = [s for s in wl.round if s["params"].lam * s["t"] == 800.0]
    assert [s["params"].n for s in failing] == [1, 2, 3]
    with np.errstate(all="ignore"):
        assert all(wl.check(s, wl.run(s, reference=True)) for s in failing)
    other = workloads.DensityGrid(seed=6, workdir="")
    for a, b in zip(failing, other.round[-3:]):
        assert np.array_equal(a["x"], b["x"])


def test_density_grid_poisson_tail_rule_catches_a_lost_mass():
    wl = workloads.DensityGrid(seed=5, workdir="")
    outs = [wl.run(s, reference=True) if s["params"].n == 2 and s["t"] < 800 else None for s in wl.round]
    assert wl.check_run(outs) == []
    assert wl.check_run([None if o is None else o * 0.98 for o in outs]) != []


class SmallDataset(workloads.Dataset):
    ROWS = 3000


def test_dataset_csv_with_two_columns_swapped_fails(tmp_path):
    wl = SmallDataset(seed=3, workdir=str(tmp_path))
    out = wl.run("ref", reference=True)
    assert wl.check("ref", out) == []
    assert wl.check_run([out]) == []
    with open(out[1]) as fh:
        lines = fh.read().split("\n")
    swapped = lines[:1]
    for line in lines[1:]:
        f = line.split(",")
        swapped.append(",".join([f[1], f[0]] + f[2:]) if line else line)
    with open(out[1], "w") as fh:
        fh.write("\n".join(swapped))
    assert wl.check("ref", out) != []


def test_dataset_repeats_byte_for_byte_and_needs_its_manifest(tmp_path):
    wl = SmallDataset(seed=3, workdir=str(tmp_path))
    ref = wl.run("ref", reference=True)
    again = wl.run("ref", reference=False)
    assert wl.digest(ref) == wl.digest(again)
    os.unlink(again[1] + ".manifest.json")
    assert wl.digest(ref) != wl.digest(again)


class SmallLongHorizon(workloads.LongHorizon):
    SAMPLES = 2000


def test_endpoint_moved_outside_the_simplex_fails():
    wl = SmallLongHorizon(seed=4, workdir="")
    out = wl.run("ref", reference=True)
    assert wl.check("ref", out) == []
    assert wl.check_run([out]) == []
    pos = out.positions.copy()
    # inside the ball |x| <= vt, outside the simplex
    pos[7] = wl.T * np.array([-0.01, 0.51, 0.5]) @ oracles.simplex_vertices(2)
    assert np.linalg.norm(pos[7]) < wl.T
    assert wl.check("ref", dataclasses.replace(out, positions=pos)) != []


def test_missing_target_is_reported_as_missing_not_zero():
    tracer = spans.Tracer()
    tracer.install({"density.density_batch": (["evolvekit.density:no_such_function"], None)})
    values, missing = tracer.metrics(ops=1)
    assert values["density.batch_s"] is None
    assert missing["density.batch_s"] == ["evolvekit.density:no_such_function"]
    assert values["geometry.classify_s"] == 0.0


def test_self_time_excludes_child_spans(monkeypatch):
    density = importlib.import_module("evolvekit.density")
    for attr in ("density_batch", "classify_batch"):
        monkeypatch.setattr(density, attr, getattr(density, attr))
    tracer = spans.Tracer()
    tracer.install({
        name: (["evolvekit.density:" + attr], spans.SPANS[name][1])
        for name, attr in (("density.density_batch", "density_batch"), ("geometry.classify_batch", "classify_batch"))
    })
    params = EvolutionParams(n=3, lam=1.0, v=1.0)
    x = np.zeros((5000, 3))
    tracer.on = True
    density.density_batch(params, x, 1.0)
    density.density_batch(params, x[:10], 1.0)
    tracer.on = False
    values, missing = tracer.metrics(ops=2)
    assert missing == {}
    assert values["density.points"] == 2505.0
    assert values["geometry.points_classified"] == 2505.0
    batch, classify = (s for s in tracer.spans[:2])
    assert classify[3] == 0 and batch[3] == -1
    total = sum(s[2] - s[1] for s in tracer.spans if s[0] == "density.density_batch")
    inner = sum(s[2] - s[1] for s in tracer.spans if s[0] == "geometry.classify_batch")
    assert math.isclose(values["density.batch_s"] * 2, total - inner, rel_tol=1e-9)


def test_benchmark_json_names_exactly_the_metrics_the_runner_reports():
    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layers = set(spans.LAYER_METRICS) | {"setup.import_s", "machine.calib_s"}
    assert {m["name"] for m in spec["per_layer"]} == layers
    for m in spec["per_layer"]:
        assert m["unit"] == ("s" if m["name"].endswith("_s") else "count")
