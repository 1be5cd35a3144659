"""qwalk benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload mixed --seed 1 --seconds 50 --trace 0

Run from the repository root.  The package is imported from ``src`` (nothing
is installed).  Each run starts fresh worker processes with BLAS pinned to one
thread: ``SETUPS`` of them only set up, to time set-up, and one sets up and
then measures.  With ``--trace 0`` the result holds the end-to-end metrics;
with ``--trace 1`` the per-layer metrics of a traced run.  The last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the full result, with machine information, is also written
under ``.perfbench/``.  Exit status: 0 when every op was correct, 1 when an op
failed or a worker crashed, 2 when the source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import LAYER_METRICS  # noqa: E402  (stdlib-only module)

WORKLOADS = ("mixed", "tailed_horizon")
SETUPS = 4            # set-up-only processes per run, besides the measuring one
WORKER_TIMEOUT_S = 170
OUT_DIR = ".perfbench"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
E2E_UNITS = {"setup_s": "s", "pass_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
             "peak_rss_mb": "MB"}


def worker(argv: list[str], env: dict) -> tuple[float, dict]:
    """Run one worker; returns (monotonic start, its parsed JSON line)."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")] + argv,
                          env=env, stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small inputs, for the smoke test")
    args = p.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "qwalk", "__init__.py")):
        print("perfbench: run from the repository root; src/qwalk not found",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=src, **{k: "1" for k in BLAS_ENV})
    env.pop("QWALK_THREADS", None)
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--size", args.size]

    def setup_only() -> float:
        start, res = worker(common + ["--seconds", "0", "--setup-only"], env)
        return res["ready"] - start

    try:
        # set-up samples before and after the measured run, so that they
        # spread over the same stretch of time as the run
        setups = [setup_only() for _ in range(SETUPS // 2)]
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            extra += ["--spans-out", os.path.join(OUT_DIR, f"spans-{tag}.jsonl")]
        start, res = worker(common + extra, env)
        setups.append(res["ready"] - start)
        setups += [setup_only() for _ in range(SETUPS - SETUPS // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError,
            IndexError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values = dict(res["layer"], **{"run.cpu_over_wall": res["cpu_over_wall"]})
        metrics = {k: {"value": values[k], "unit": LAYER_METRICS[k][0]}
                   for k in LAYER_METRICS}
    else:
        values = dict(res["e2e"], setup_s=statistics.median(setups))
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in E2E_UNITS.items()}

    attempted, failures = res["attempted"], res["failures"]
    for line in failures[:20]:
        print(f"FAILED {line}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {res['passes']}  set-ups {len(setups)}")
    for k, m in metrics.items():
        print(f"  {k:32s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':32s} {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} of {attempted} ops)")
    if not args.trace:
        print("  pass_s by section: " + ", ".join(
            f"{k} {v:.4g} s" for k, v in res["sections_s"].items()))
    print(f"  cpu_over_wall {res['cpu_over_wall']:.3f}  env {json.dumps(res['env'])}")

    summary = {"correct": not failures, "attempted": attempted,
               "failed": len(failures), "metrics": metrics}
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as f:
        json.dump(dict(summary, args=vars(args), setups_s=setups,
                       fail_frac=len(failures) / attempted, failures=failures,
                       passes=res["passes"], best_ms=res.get("best_ms"),
                       sections_s=res.get("sections_s"),
                       cpu_over_wall=res["cpu_over_wall"], env=res["env"]), f, indent=1)
    print(json.dumps(summary))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
