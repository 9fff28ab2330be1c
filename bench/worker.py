"""One benchmark run of one workload, in a fresh interpreter.

Started by ``run.py``, which sets the thread caps and times set-up from the
outside.  Protocol on stdout: a ``@ready`` line once evolvekit is imported
and the inputs exist, a ``@warm`` line after the untimed warm-up round, and
a final ``@result`` line with the raw measurements.  With ``--probe`` the
worker stops after ``@ready``: it is one more set-up sample.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


class Witness:
    """A fixed numpy and pure-Python computation, timed after every round.

    It does not touch evolvekit, so a drift that moves it and the workload
    together is the machine's, not the program's.
    """

    def __init__(self):
        # imported here, not at the top, so that import_s includes numpy
        import numpy as np

        rng = np.random.default_rng(12345)
        self.np = np
        self.a = rng.random(100_000)
        self.m = rng.random((100, 100))
        self.samples: list[float] = []

    def sample(self) -> None:
        np = self.np
        start = time.perf_counter()
        np.sort(self.a)
        m = self.m
        for _ in range(10):
            m = m @ self.m
            m /= np.abs(m).max()
        sum(i * i % 7 for i in range(100_000))
        self.samples.append(time.perf_counter() - start)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import evolvekit

    import_s = time.perf_counter() - start
    if not os.path.abspath(evolvekit.__file__).startswith(SRC + os.sep):
        print(f"evolvekit imported from {evolvekit.__file__}, not from {SRC}", file=sys.stderr)
        return 1
    import spans
    import workloads

    start = time.perf_counter()
    wl = workloads.make(args.workload, args.seed, args.workdir)
    inputs_s = time.perf_counter() - start
    print("@ready " + json.dumps({"import_s": import_s, "inputs_s": inputs_s}), flush=True)
    if args.probe:
        return 0

    os.makedirs(args.workdir, exist_ok=True)
    tracer = spans.Tracer()
    if args.trace:
        tracer.install()
    start = time.perf_counter()
    reference = [wl.run(spec, reference=True) for spec in wl.round]
    warmup_s = time.perf_counter() - start
    digests = [wl.digest(out) for out in reference]
    print("@warm " + json.dumps({"warmup_s": warmup_s}), flush=True)

    times: list[float] = []
    matched: list[bool] = []
    units = 0
    witness = Witness()
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        for i, spec in enumerate(wl.round):
            tracer.on = bool(args.trace)
            t0 = time.perf_counter()
            out = wl.run(spec, reference=False)
            times.append(time.perf_counter() - t0)
            tracer.on = False
            units += wl.units(spec, out)
            matched.append(wl.digest(out) == digests[i])
            wl.discard(out)
        witness.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = [wl.check(spec, out) for spec, out in zip(wl.round, reference)]
    ok = [not p for p in problems]
    run_problems = wl.check_run([out if good else None for out, good in zip(reference, ok)])
    if not all(matched):
        problems.append([f"{matched.count(False)} timed operations differ from their warm-up output"])
    rounds = len(times) // len(wl.round)
    failed = sum(
        not (matched[k] and ok[k % len(wl.round)]) for k in range(len(times))
    )
    result = {
        "unit": wl.unit,
        "correct": not run_problems,
        "attempted": len(times),
        "failed": failed,
        "rounds": rounds,
        "problems": sorted({msg for p in problems for msg in p}) + run_problems,
        "op_p50_s": statistics.median(times),
        "units": units,
        "op_sum_s": sum(times),
        "peak_rss_mb": peak_rss_mb,
        "calib_s": statistics.median(witness.samples),
    }
    result["layers"], result["missing"] = tracer.metrics(len(times)) if args.trace else ({}, {})
    for out in reference:
        wl.discard(out)
    print("@result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
