"""Benchmark of evolvekit: one run of one workload, or of all of them.

    python3 bench/run.py --workload dataset --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Each workload runs in a fresh worker process (``worker.py``) with every
thread pool capped at one thread.  Set-up time is sampled in fresh
interpreters: two probes and the worker itself each import evolvekit and
build the inputs; ``setup_s`` is the median of the three plus the worker's
untimed warm-up round.  With ``--trace 0`` the last line of stdout is a JSON
object with the end-to-end metrics, with ``--trace 1`` the per-layer ones.
The exit code is 0 only when every worker ran to its end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dataset", "long-horizon", "verify", "density-grid")
PROBES = 2
LIMIT_S = 170.0
THREAD_CAPS = {
    "EVOLVEKIT_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "units_per_s": "units/s", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


def _spawn(args: argparse.Namespace, workload: str, workdir: str, deadline: float, probe: bool):
    """Run worker.py; return (seconds from spawn to each protocol line, payloads)."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", workdir,
    ] + (["--probe"] if probe else [])
    env = dict(os.environ, **THREAD_CAPS)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(max(deadline - start, 1.0), proc.kill)
    watchdog.start()
    at, payload = {}, {}
    try:
        for line in proc.stdout:
            if line.startswith("@"):
                tag, _, body = line.partition(" ")
                at[tag] = time.perf_counter() - start
                payload[tag] = json.loads(body)
        status = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    want = "@ready" if probe else "@result"
    if status != 0 or want not in payload:
        raise WorkerError(f"{workload} worker exited with {status} before {want}")
    return at, payload


def run_workload(args: argparse.Namespace, workload: str) -> dict:
    """One run of ``workload``: the JSON object its last line reports."""
    deadline = time.perf_counter() + LIMIT_S
    workdir = os.path.join(ROOT, ".bench_out", f"{workload}-{os.getpid()}")
    setups, imports = [], []
    try:
        for _ in range(PROBES):
            at, payload = _spawn(args, workload, workdir, deadline, probe=True)
            setups.append(at["@ready"])
            imports.append(payload["@ready"]["import_s"])
        at, payload = _spawn(args, workload, workdir, deadline, probe=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(at["@ready"])
    imports.append(payload["@ready"]["import_s"])
    res = payload["@result"]

    if args.trace:
        values = dict(res["layers"])
        values["setup.import_s"] = statistics.median(imports)
        values["machine.calib_s"] = res["calib_s"]
        metrics = {
            name: {"value": value, "unit": "s" if name.endswith("_s") else "count"}
            for name, value in values.items()
        }
        for name, targets in res["missing"].items():
            metrics[name]["missing"] = targets
    else:
        values = {
            "setup_s": statistics.median(setups) + payload["@warm"]["warmup_s"],
            "op_p50_s": res["op_p50_s"],
            "units_per_s": res["units"] / res["op_sum_s"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}

    print(
        f"{workload}: {res['attempted']} operations attempted, {res['failed']} failed "
        f"({res['rounds']} rounds; unit: {res['unit']}; correct: {res['correct']})"
    )
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']!r} {m['unit']}")
    if args.trace:
        print(f"  {'op_p50_s':32s} {res['op_p50_s']!r} s  (traced: for the tracing overhead only)")
    else:
        print(f"  {'machine.calib_s':32s} {res['calib_s']!r} s  (machine witness, not gated)")
    for problem in res["problems"]:
        print(f"  problem: {problem}")
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(args, name)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
