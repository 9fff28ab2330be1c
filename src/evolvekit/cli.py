"""Command-line front end: geometry tables, density grids, simulation, checks.

Commands are pure functions of their flags and seed; rerunning with the same
arguments reproduces output files byte for byte.  Every file output gets a
JSON manifest sidecar (<out>.manifest.json) recording the command, the full
parameter set, the seed, the artifact version and a timestamp; the sidecar
is written only once its data file is complete.

Exit status: 0 success / all checks passed, 1 verification failure,
2 usage error or a result beyond the float range.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .density import ac_mass, boundary_probability, density_batch
from .geometry import EvolutionParams, build_simplex, classify_batch, vertices_at_time, volume
from .simulator import BLOCK_SIZE, SimulationConfig, _lattice_keys, simulate_batch
from .special_functions import DerivedConstants
from .verification import SUITES, run_all


def _csv_template(floats: int, *tail: str) -> str:
    """%-template of one CSV line: ``floats`` fields as ``%.17g``, then ``tail``.

    C ``%.17g`` prints a Python float exactly as ``"{:.17g}".format`` does,
    ``-0``, ``nan`` and ``inf`` included, and 17 significant digits round-trip
    every float64.
    """
    return ",".join(["%.17g"] * floats + list(tail)) + "\n"


def _format_rows(template: str, columns) -> str:
    """``template % row`` for each row of ``columns`` (equal-length lists), joined."""
    return "".join([template % row for row in zip(*columns)])


def _write_file(path: str, write) -> None:
    """Run ``write(fh)`` on ``path`` opened for writing.

    If the write fails the file is removed; a failed ``open`` removes
    nothing, since whatever sits at ``path`` is not this call's.
    """
    fh = open(path, "w")
    try:
        with fh:
            write(fh)
    except BaseException:
        os.unlink(path)  # never leave partial output behind
        raise


def _emit(body, out: str | None, command: str, parameters: dict, seed: int | None) -> None:
    """Write ``body`` to ``out``, or to stdout when ``out`` is None.

    ``body`` is the text, or a function that writes it in chunks to a file.
    A file gets its manifest sidecar only once the data file is complete; if
    the manifest cannot be written the data file is removed too.
    """
    write = body if callable(body) else (lambda fh: fh.write(body))
    if out is None:
        write(sys.stdout)
        return
    _write_file(out, write)
    manifest = {
        "command": command,
        "parameters": parameters,
        "seed": seed,
        "artifact_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    try:
        _write_file(
            out + ".manifest.json",
            lambda fh: fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n"),
        )
    except BaseException:
        os.unlink(out)
        raise


def _params_from(args) -> EvolutionParams:
    return EvolutionParams(n=args.n, lam=args.lam, v=args.v)


def cmd_geometry(args) -> int:
    geom = build_simplex(args.n)
    n = args.n
    unit = EvolutionParams(n=n, lam=1.0, v=1.0)
    constants = {
        "volume_coefficient": volume(unit, 1.0),
        "prefactor_unit_speed": DerivedConstants.from_params(unit).prefactor,
        "bessel_root_scale": math.exp(math.log(2 * n + 2) / (2 * n + 2)),
        "pairwise_dot": -1.0 / n,
    }
    if args.format == "json":
        payload = {
            "n": n,
            "vertices": [[float(c) for c in row] for row in geom.vertices],
            "constants": constants,
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        keys = sorted(constants)
        text = (
            ",".join(f"x_{j + 1}" for j in range(n)) + "\n"
            + _format_rows(_csv_template(n), geom.vertices.T.tolist())
            + _format_rows("# %s=%.17g\n", [keys, [constants[k] for k in keys]])
        )
    _emit(text, args.out, "geometry", {"n": n, "format": args.format}, None)
    return 0


def _parse_grid(text: str, params: EvolutionParams, t: float) -> np.ndarray:
    if text.startswith("simplex:"):
        if params.n > 3:
            raise ValueError("simplex-native grids are offered only for n <= 3")
        m = int(text.split(":", 1)[1])
        if m < 1:
            raise ValueError("simplex grid resolution must be >= 1")
        verts = vertices_at_time(params, t)
        centers = []
        for c in _lattice_keys(params.n, m):
            w = (np.array(c) + 0.5)
            w = w / w.sum()
            centers.append(w @ verts)
        return np.array(centers)
    axes = []
    parts = text.split(",")
    if len(parts) == 1 and params.n > 1:
        parts = parts * params.n
    if len(parts) != params.n:
        raise ValueError(f"grid needs 1 or {params.n} lo:hi:count triples")
    for part in parts:
        lo, hi, count = part.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
        if count < 1 or not (hi > lo):
            raise ValueError(f"bad grid axis {part!r}")
        axes.append(np.linspace(lo, hi, count))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def cmd_density(args) -> int:
    params = _params_from(args)
    if not args.t > 0:
        raise ValueError("t must be > 0")
    if args.point:
        pts = np.array([[float(c) for c in p.split(",")] for p in args.point])
        if pts.shape[1] != params.n:
            raise ValueError(f"points must have {params.n} coordinates")
    elif args.grid:
        pts = _parse_grid(args.grid, params, args.t)
    else:
        raise ValueError("density needs --grid or at least one --point")
    if not np.all(np.isfinite(pts)):
        raise ValueError("grid points must be finite")
    values = density_batch(params, pts, args.t)
    location = classify_batch(params, pts, args.t)
    mass = ac_mass(params, args.t)
    singular = boundary_probability(params, args.t)
    parameters = {
        "n": params.n, "lambda": params.lam, "v": params.v, "t": args.t,
        "grid": args.grid, "points": args.point, "format": args.format,
    }
    if args.format == "json":
        payload = {
            "rows": [
                {
                    "x": [float(c) for c in pt],
                    "membership": str(loc),
                    "density": float(val),
                }
                for pt, loc, val in zip(pts, location, values)
            ],
            "ac_mass": mass,
            "boundary_probability": singular,
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = (
            ",".join(f"x_{j + 1}" for j in range(params.n)) + ",membership,density\n"
            + _format_rows(
                _csv_template(params.n, "%s", "%.17g"),
                [*pts.T.tolist(), location.tolist(), values.tolist()],
            )
            + "# ac_mass=%.17g,boundary_probability=%.17g\n" % (mass, singular)
        )
    _emit(text, args.out, "density", parameters, None)
    return 0


def _parse_policy(policy: str) -> int | None:
    if policy == "uniform":
        return None
    if policy.startswith("fixed:"):
        return int(policy.split(":", 1)[1])
    raise ValueError(f"policy must be 'uniform' or 'fixed:<i>', got {policy!r}")


def cmd_simulate(args) -> int:
    params = _params_from(args)
    config = SimulationConfig(
        seed=args.seed,
        samples=args.samples,
        horizon=args.t,
        initial_direction=_parse_policy(args.policy),
    )
    data = simulate_batch(params, config)
    header = (
        ",".join(f"x_{j + 1}" for j in range(params.n))
        + ",switches,initial_direction,current_direction\n"
    )
    row = _csv_template(params.n, "%d", "%d", "%d")

    def write(fh) -> None:
        fh.write(header)
        for start in range(0, len(data), BLOCK_SIZE):
            part = slice(start, start + BLOCK_SIZE)
            cols = [
                *data.positions[part].T.tolist(),
                data.switches[part].tolist(),
                data.initial_direction[part].tolist(),
                data.current_direction[part].tolist(),
            ]
            fh.write(_format_rows(row, cols))

    parameters = {
        "n": params.n, "lambda": params.lam, "v": params.v, "t": args.t,
        "samples": args.samples, "policy": args.policy,
    }
    _emit(write, args.out, "simulate", parameters, args.seed)
    return 0


def cmd_verify(args) -> int:
    grid = None
    if args.n is not None:
        grid = [(args.n, lt) for lt in (0.5, 1.0, 2.0)]
    reports = run_all(
        params_grid=grid, budget=args.budget, seed=args.seed, suites=(args.suite,)
    )
    all_passed = all(r.passed for r in reports)
    asserted = [r for r in reports if r.rule != "report-only"]
    payload = {
        "suite": args.suite,
        "grid": grid or "default",
        "budget": args.budget,
        "seed": args.seed,
        "status": "empty" if not reports else "ok",
        "all_passed": all_passed,
        "counts": {
            "pass": sum(r.passed for r in asserted),
            "fail": sum(not r.passed for r in asserted),
            "report_only": len(reports) - len(asserted),
        },
        "checks": [dataclasses.asdict(r) for r in reports],
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    parameters = {"suite": args.suite, "budget": args.budget, "n": args.n}
    _emit(text, args.out, "verify", parameters, args.seed)
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: estimate={r.estimate:.6g} target={r.target:.6g} ({r.rule})",
              file=sys.stderr)
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evolvekit",
        description="Cyclic finite-velocity random evolution: geometry, density, "
        "simulation and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p, with_t=True):
        p.add_argument("--n", type=int, required=True, help="space dimension (>= 1)")
        p.add_argument("--lambda", dest="lam", type=float, default=1.0, help="switch rate")
        p.add_argument("--v", type=float, default=1.0, help="speed")
        if with_t:
            p.add_argument("--t", type=float, required=True, help="time horizon")

    g = sub.add_parser("geometry", help="emit the direction-simplex vertex table")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--format", choices=("csv", "json"), default="csv")
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_geometry)

    d = sub.add_parser("density", help="evaluate the endpoint density on a grid")
    add_model_flags(d)
    d.add_argument("--grid", default=None,
                   help="lo:hi:count per axis (comma separated), or simplex:<m> for n <= 3")
    d.add_argument("--point", action="append", default=None,
                   help="explicit point 'x1,x2,...', repeatable")
    d.add_argument("--format", choices=("csv", "json"), default="csv")
    d.add_argument("--out", default=None)
    d.set_defaults(func=cmd_density)

    s = sub.add_parser("simulate", help="sample endpoints to a CSV dataset")
    add_model_flags(s)
    s.add_argument("--samples", type=int, required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--policy", default="uniform", help="uniform or fixed:<i>")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_simulate)

    v = sub.add_parser("verify", help="run identity-check suites, JSON report")
    v.add_argument("--suite", choices=SUITES, required=True)
    v.add_argument("--n", type=int, default=None, help="restrict the grid to one dimension")
    v.add_argument("--budget", type=int, default=200_000)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", default=None)
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError, OSError) as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
