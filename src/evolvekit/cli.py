"""Command-line front end: geometry tables, density grids, simulation, checks.

Commands are pure functions of their flags and seed; rerunning with the same
arguments reproduces output files byte for byte.  Every file output gets a
JSON manifest sidecar (<out>.manifest.json) recording the command, the full
parameter set, the seed, the artifact version and a timestamp; the sidecar
is written only once its data file is complete.

CSV rows hold exactly the bytes of C ``%.17g`` for floats, ``%d`` for
integers and ``%s`` for labels, but ``_csv_rows`` builds them a column at a
time in numpy: a fixed-notation float (1e-4 <= |x| < 1e17, and +-0) from its
correctly rounded 17-digit significand, which an error-free product with an
exact power of ten gives, a non-negative integer below 1e17 from its digits,
and every other value through ``%`` once per distinct value.

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


_ROWS = 16_384  # rows per formatted slab; bounds the writer's byte arrays
_POW10 = np.array([float(10**i) for i in range(23)])  # 1e0..1e22, all exact doubles
_SPLITTER = 134217729.0  # 2**27 + 1: Dekker's split of a double into two 26-bit halves
_PLACES = np.arange(1, 18, dtype=np.int8)[:, None]  # 1-based place of each of 17 digits
_TAIL_ROWS = np.arange(6, 24, dtype=np.int8)[:, None]  # block rows of the digits and after


def _prefixes() -> np.ndarray:
    """Bytes before the digits of a fixed-notation field, right-aligned in 6
    NUL-padded bytes; column ``21 * negative + k + 4`` for exponents k = -4..16.

    For k < 0 that is the sign, ``0.`` and -1 - k zeros; for k >= 0 the sign
    and one byte that the first digit takes over.
    """
    table = np.zeros((6, 42), np.uint8)
    for code in range(42):
        negative, k = divmod(code, 21)
        k -= 4
        text = ("-" if negative else "") + ("0." + "0" * (-1 - k) if k < 0 else "?")
        table[6 - len(text):, code] = np.frombuffer(text.encode(), np.uint8)
    return table


_PREFIXES = _prefixes()


def _halves(a):
    big = a * _SPLITTER
    high = big - (big - a)
    return high, a - high


def _significand(a, k):
    """``a * 10**(16 - k)`` rounded to the nearest int64, ties to even, exactly.

    ``10**(16 - k)`` is an exact double for k = -6..16, and Dekker's TwoProduct
    writes the product as ``p + e`` with no error.  Where the result has 17
    digits ``p`` is an even integer, so rounding ``e`` rounds the product.
    """
    s = _POW10[16 - k]
    p = a * s
    ah, al = _halves(a)
    sh, sl = _halves(s)
    e = al * sl - (((p - ah * sh) - al * sh) - ah * sl)
    return p.astype(np.int64) + np.rint(e).astype(np.int64)


def _digits(out, v) -> None:
    """Write the last ``len(out)`` decimal digits of ``v`` (0 <= v < 1e17) as
    ASCII, most significant in ``out[0]``."""
    high = v // 100_000_000
    x = (v - high * 100_000_000).astype(np.uint32)
    for j in range(len(out)):
        if j == 8:
            x = high.astype(np.uint32)
        q = x // 10
        np.copyto(out[-1 - j], x - q * 10, casting="unsafe")
        x = q
    out += ord("0")


class _Text:
    """``fmt % v`` for some entries of a column, formatted once per distinct value."""

    def __init__(self, rows, values, fmt: str):
        distinct, self.inverse = np.unique(values, return_inverse=True)
        texts = [fmt % v for v in distinct.tolist()]
        self.rows = rows
        self.table = np.array(texts, dtype=bytes)
        self.lengths = np.array([len(t) for t in texts], dtype=np.intp)

    def put(self, block, sep: int) -> None:
        """Write each text and ``sep`` after it into its column of the block."""
        if not len(self.rows):
            return
        width = self.table.itemsize
        block[:, self.rows] = 0
        block[:width, self.rows] = self.table.view(np.uint8).reshape(-1, width)[self.inverse].T
        block[self.lengths[self.inverse], self.rows] = sep


def _float_field(x, sep: int):
    """``%.17g`` of float64 ``x`` and ``sep`` after each, as a (bytes, rows)
    block, NUL where a field is shorter than the block.

    Fixed notation (1e-4 <= |x| < 1e17 after rounding, and +-0) comes from the
    correctly rounded 17-digit significand: rows 0..5 of the block hold the
    sign and ``0.000`` prefix, right-aligned, and rows 6..22 the digits.  For
    k >= 0 the integer digits move one row up, over the prefix, and the dot
    takes the place of the last one.  Scientific notation, inf and nan go
    through ``%``.
    """
    a = np.abs(x)
    usual = (a >= 1e-5) & (a < 1e17)
    a[~usual] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    np.clip(k, -6, 16, out=k)
    D = _significand(a, k)
    off = np.flatnonzero((D < 10**16) | (D >= 10**17))  # log10 off by one, or rounded up to 1e17
    if len(off):
        k[off] += np.where(D[off] < 10**16, -1, 1)
        D[off] = _significand(a[off], np.clip(k[off], -6, 16))
    fixed = usual & (k >= -4) & (k <= 16) & (D >= 10**16) & (D < 10**17)
    D[~fixed] = 0
    k = np.where(fixed, k, 0).astype(np.int8)
    rest = ~fixed & (x != 0)
    other = _Text(np.flatnonzero(rest), x[rest], "%.17g")
    block = np.zeros((max(24, other.table.itemsize + 1), len(x)), np.uint8)
    np.take(_PREFIXES, np.signbit(x) * 21 + (k + 4), axis=1, out=block[:6])
    _digits(block[6:23], D)
    nz = ((block[6:23] != ord("0")) * _PLACES).max(axis=0)  # 17 less the trailing zeros
    for p in range(5, 7 + int(k.max())):
        block[p] = np.where(k >= p - 5, block[p + 1], np.where(k == p - 6, ord("."), block[p]))
    end = np.where(nz > k + 1, 6 + nz, 6 + k)
    tail = block[6:24]
    tail *= _TAIL_ROWS < end
    tail += (_TAIL_ROWS == end) * np.uint8(sep)
    other.put(block, sep)
    return block


def _int_field(v, sep: int):
    """``%d`` of int64 ``v``, as ``_float_field`` does: 0 <= v < 1e17 from
    the digits, right-aligned, and the rest through ``%``."""
    usual = (v >= 0) & (v < 10**17)
    other = _Text(np.flatnonzero(~usual), v[~usual], "%d")
    u = np.where(usual, v, 0)
    digits = len(str(u.max()))
    block = np.zeros((max(digits, other.table.itemsize) + 1, len(v)), np.uint8)
    _digits(block[:digits], u)
    for j in range(digits - 1):
        block[j] *= u >= 10 ** (digits - 1 - j)  # leading zeros
    block[digits] = sep
    other.put(block, sep)
    return block


def _field(column, sep: int):
    if column.dtype.kind == "f":
        return _float_field(column.astype(np.float64), sep)
    if column.dtype.kind == "i":
        return _int_field(column.astype(np.int64), sep)
    text = _Text(np.arange(len(column)), column.astype(str), "%s")
    block = np.zeros((text.table.itemsize + 1, len(column)), np.uint8)
    text.put(block, sep)
    return block


def _csv_rows(columns) -> str:
    """CSV lines of equal-length 1-D arrays, the bytes that ``"%.17g,...,%d,%s\\n"``
    would give row by row: floats ``%.17g``, integers ``%d``, anything else ``%s``.

    Each column becomes a block of fields as ``_float_field`` describes; the
    blocks are stacked, turned row-major and stripped of NUL.  Text holds no
    NUL byte, so every other byte is output.
    """
    columns = [np.asarray(c) for c in columns]
    seps = [ord(",")] * (len(columns) - 1) + [ord("\n")]
    chunks = []
    for start in range(0, len(columns[0]), _ROWS):
        block = np.concatenate([_field(c[start : start + _ROWS], sep) for c, sep in zip(columns, seps)])
        flat = np.ascontiguousarray(block.T).ravel()
        chunks.append(flat[flat != 0])
    return b"".join(chunks).decode("ascii")


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
            + _csv_rows(geom.vertices.T)
            + "".join("# %s=%.17g\n" % (key, constants[key]) for key in keys)
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
            + _csv_rows([*pts.T, location, values])
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
    def write(fh) -> None:
        fh.write(header)
        for start in range(0, len(data), BLOCK_SIZE):
            part = slice(start, start + BLOCK_SIZE)
            fh.write(_csv_rows([
                *data.positions[part].T,
                data.switches[part],
                data.initial_direction[part],
                data.current_direction[part],
            ]))

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
