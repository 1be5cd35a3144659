"""One workload process: set up, run passes for a fixed time, print one JSON line.

Started by ``run.py`` with BLAS pinned to one thread through the environment
and ``src`` on ``PYTHONPATH``.  ``--setup-only`` stops after set-up, so the
parent can time several fresh set-ups.  Set-up is imports, input generation
and one warm-up pass over the tiny op list of the same workload.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time
import traceback

import numpy as np

import qwalk
from qwalk.reproduce import run_claims

import tracer as tracing
import workloads


def run_pass(ops, record, tracer=None) -> list[float]:
    """Run every op once; record(kind, error) for each.  Returns the ops'
    latencies, which leave out the oracles' own cost."""
    latencies = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        error = None
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # an op that raises counts as failed
            latencies.append(time.perf_counter() - start)
            error = f"{type(exc).__name__}: {exc}"
        else:
            latencies.append(time.perf_counter() - start)
            try:
                op.check(result)
            except workloads.WrongAnswer as exc:
                error = f"wrong answer: {exc}"
        record(op.kind, error)
    return latencies


def best_latencies(ops, seconds: float, record, tracer=None) -> tuple[list[float], int]:
    """Whole passes until `seconds` have gone by (at least one).  Returns each
    op's best latency over the passes, and the number of passes.

    Best-of-run, as timeit reports: on a small virtual machine shared with
    other tenants, they can slow every instruction by up to 2x for tens of
    seconds, so a median over one run moves with them and a minimum less."""
    best: list[float] = []
    passes = 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        lat = run_pass(ops, record, tracer)
        best = lat if not best else [min(x, y) for x, y in zip(best, lat)]
        passes += 1
    return best, passes


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports, when numpy's OpenBLAS exposes it."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "qwalk": qwalk.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads": blas_threads(),
    }


def pool_speedup(claims_ops, record) -> float:
    """Warm serial pass over the claims over one `run_claims("all")` pass with
    QWALK_THREADS = nproc."""
    run_pass(claims_ops, record)  # warm-up: other workloads have not run them
    serial = sum(run_pass(claims_ops, record))
    old = os.environ.get("QWALK_THREADS")
    os.environ["QWALK_THREADS"] = str(len(os.sched_getaffinity(0)))
    try:
        start = time.perf_counter()
        results = run_claims("all")
        pooled = time.perf_counter() - start
    finally:
        if old is None:
            del os.environ["QWALK_THREADS"]
        else:
            os.environ["QWALK_THREADS"] = old
    for r in results:
        record(f"pool/{r.claim_id}", None if r.ok else f"pool: {r.observed}")
    return serial / pooled


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans-out")
    args = p.parse_args(argv)

    wall0, cpu0 = time.perf_counter(), time.process_time()
    failures: list[str] = []
    attempted = 0

    def record(kind, error):
        nonlocal attempted
        attempted += 1
        if error is not None:
            failures.append(f"{kind}: {error}")

    ops = workloads.build(args.workload, args.seed, args.size)
    run_pass(workloads.build(args.workload, args.seed, "tiny"), record)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    out = {"ready": ready, "env": environment()}
    if args.trace:
        half = args.seconds / 2
        plain, plain_passes = best_latencies(ops, half, record)
        tr = tracing.Tracer()
        tr.install()
        try:
            traced, traced_passes = best_latencies(ops, half, record, tr)
        finally:
            tr.uninstall()
        layer = tr.layer_metrics(traced_passes)
        layer["trace.overhead_frac"] = sum(traced) / sum(plain) - 1
        layer["reproduce.pool_speedup"] = pool_speedup(
            workloads.section_ops("claims", args.seed), record)
        if args.spans_out:
            out["spans"] = tr.write_spans(args.spans_out)
        out["passes"] = {"untraced": plain_passes, "traced": traced_passes}
        out["layer"] = layer
    else:
        best, out["passes"] = best_latencies(ops, args.seconds, record)
        out["best_ms"] = [x * 1e3 for x in best]
        out["sections_s"] = {}
        for op, t in zip(ops, best):
            section = op.kind.split("/", 1)[0]
            out["sections_s"][section] = out["sections_s"].get(section, 0.0) + t
        out["e2e"] = {
            "pass_s": sum(best),
            "op_p50_ms": float(np.percentile(best, 50)) * 1e3,
            "op_p90_ms": float(np.percentile(best, 90)) * 1e3,
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    wall = time.perf_counter() - wall0
    out["cpu_over_wall"] = (time.process_time() - cpu0) / wall
    out["attempted"] = attempted
    out["failures"] = failures
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
