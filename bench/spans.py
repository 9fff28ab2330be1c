"""Span tracing of evolvekit from outside the package.

``install`` replaces each traced function at the name its caller looks up
(``evolvekit.density.classify_batch``, ``evolvekit.cli.simulate_batch`` and so
on) with a wrapper that records a span: name, start, end, the enclosing span
and a work count.  Nothing inside ``src/`` changes.  A span's self time is its
duration minus the durations of its direct children.

Spans are recorded only while ``Tracer.on`` is true, so warm-up and output
checks stay out of the figures.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

import numpy as np


def _points(args, kwargs) -> int:
    x = np.asarray(kwargs["x"] if "x" in kwargs else args[1])
    return 1 if x.ndim == 1 else int(x.shape[0])


def _bytes_written(args, kwargs, out) -> int:
    argv = list(args[0] if args else kwargs["argv"])
    path = argv[argv.index("--out") + 1]
    return sum(os.path.getsize(p) for p in (path, path + ".manifest.json") if os.path.exists(p))


def _asserted(args, kwargs, out) -> int:
    return sum(r.rule != "report-only" for r in out)


# span name -> (targets "module:attribute", work count of one call or None)
SPANS = {
    "cli.main": (["evolvekit.cli:main"], _bytes_written),
    "simulator.simulate_batch": (
        ["evolvekit.cli:simulate_batch", "evolvekit.simulator:simulate_batch"],
        lambda a, k, out: int(out.switches.sum()),
    ),
    "simulator.histogram_fit": (["evolvekit.simulator:histogram_fit"], None),
    "simulator.assign": (["evolvekit.simulator:SimplexCells.assign"], None),
    "density.density_batch": (
        [
            "evolvekit.density:density_batch",
            "evolvekit.simulator:density_batch",
            "evolvekit.verification:density_batch",
            "evolvekit.cli:density_batch",
        ],
        lambda a, k, out: _points(a, k),
    ),
    "density.jet_operator_density": (["evolvekit.verification:jet_operator_density"], None),
    "geometry.classify_batch": (
        [
            "evolvekit.geometry:classify_batch",
            "evolvekit.density:classify_batch",
            "evolvekit.verification:classify_batch",
            "evolvekit.cli:classify_batch",
        ],
        lambda a, k, out: len(out),
    ),
    "geometry.barycentric_coordinates": (
        ["evolvekit.density:barycentric_coordinates", "evolvekit.simulator:barycentric_coordinates"],
        None,
    ),
    "geometry.support_margins": (
        ["evolvekit.geometry:support_margins", "evolvekit.verification:support_margins"],
        None,
    ),
    "special_functions.eval": (
        [
            "evolvekit.special_functions:eval_hyper_bessel",
            "evolvekit.verification:series_coefficient",
            "evolvekit.density:_kernel_jet_batch",
        ],
        lambda a, k, out: 1,
    ),
    "verification.run_all": (["evolvekit.verification:run_all"], _asserted),
    "verification.sample_uniform_simplex": (
        ["evolvekit.verification:sample_uniform_simplex", "evolvekit.simulator:sample_uniform_simplex"],
        None,
    ),
    "verification.integrate_over_support": (["evolvekit.verification:integrate_over_support"], None),
    # the work count of adaptive_simpson is its integrand calls; see _wrap
    "verification.adaptive_simpson": (
        ["evolvekit.verification:adaptive_simpson", "evolvekit.simulator:adaptive_simpson"],
        None,
    ),
}

# per-layer metric -> (span, what): "total" and "self" are seconds per
# operation, "count" is work per operation, "fit_points" counts the
# density_batch points whose caller chain passes through histogram_fit
LAYER_METRICS = {
    "cli.command_s": ("cli.main", "total"),
    "cli.serialize_s": ("cli.main", "self"),
    "cli.bytes_written": ("cli.main", "count"),
    "simulator.sample_s": ("simulator.simulate_batch", "self"),
    "simulator.switches": ("simulator.simulate_batch", "count"),
    "simulator.fit_s": ("simulator.histogram_fit", "self"),
    "simulator.assign_s": ("simulator.assign", "self"),
    "simulator.quad_points": ("density.density_batch", "fit_points"),
    "density.batch_s": ("density.density_batch", "self"),
    "density.points": ("density.density_batch", "count"),
    "density.jet_s": ("density.jet_operator_density", "self"),
    "geometry.classify_s": ("geometry.classify_batch", "self"),
    "geometry.barycentric_s": ("geometry.barycentric_coordinates", "self"),
    "geometry.margins_s": ("geometry.support_margins", "self"),
    "geometry.points_classified": ("geometry.classify_batch", "count"),
    "special_functions.eval_s": ("special_functions.eval", "self"),
    "special_functions.eval_calls": ("special_functions.eval", "count"),
    "verification.battery_s": ("verification.run_all", "total"),
    "verification.uniform_s": ("verification.sample_uniform_simplex", "self"),
    "verification.integrate_s": ("verification.integrate_over_support", "self"),
    "verification.simpson_s": ("verification.adaptive_simpson", "self"),
    "verification.simpson_evals": ("verification.adaptive_simpson", "count"),
    "verification.checks": ("verification.run_all", "count"),
}


class Tracer:
    """In-memory span list; each span is [name, start, end, parent, count]."""

    def __init__(self):
        self.on = False
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.missing: dict[str, list[str]] = {}

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int, count: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = count
        self._stack.pop()

    def _wrap(self, name: str, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            calls = [0]
            if name == "verification.adaptive_simpson":
                integrand = args[0]

                def counted(s):
                    calls[0] += 1
                    return integrand(s)

                args = (counted,) + args[1:]
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx, 0)
                raise
            tracer.close(idx, count(args, kwargs, out) if count else calls[0])
            return out

        return wrapper

    def install(self, table: dict = SPANS) -> None:
        """Wrap every target of ``table``; record targets that do not exist."""
        for name, (targets, count) in table.items():
            for target in targets:
                module_name, path = target.split(":")
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part, None)
                if owner is None or not callable(getattr(owner, attr, None)):
                    self.missing.setdefault(name, []).append(target)
                    continue
                setattr(owner, attr, self._wrap(name, getattr(owner, attr), count))

    def metrics(self, ops: int) -> tuple[dict[str, float | None], dict[str, list[str]]]:
        """Per-operation figure of every ``LAYER_METRICS`` entry, and the
        targets that no longer exist for each metric whose figure is None."""
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        counts: dict[str, int] = {}
        fit_points = 0
        for span in self.spans:
            duration = span[2] - span[1]
            total[span[0]] = total.get(span[0], 0.0) + duration
            self_time[span[0]] = self_time.get(span[0], 0.0) + duration
            counts[span[0]] = counts.get(span[0], 0) + span[4]
            if span[3] >= 0:
                parent = self.spans[span[3]][0]
                self_time[parent] = self_time.get(parent, 0.0) - duration
            if span[0] == "density.density_batch" and self._under(span, "simulator.histogram_fit"):
                fit_points += span[4]
        out: dict[str, float | None] = {}
        missing: dict[str, list[str]] = {}
        for metric, (span_name, what) in LAYER_METRICS.items():
            if span_name in self.missing:
                out[metric] = None
                missing[metric] = self.missing[span_name]
                continue
            value = {
                "total": total.get(span_name, 0.0),
                "self": self_time.get(span_name, 0.0),
                "count": counts.get(span_name, 0),
                "fit_points": fit_points,
            }[what]
            out[metric] = value / ops
        return out, missing

    def _under(self, span: list, ancestor: str) -> bool:
        while span[3] >= 0:
            span = self.spans[span[3]]
            if span[0] == ancestor:
                return True
        return False
