"""riemflow's benchmark: four workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

For each workload it writes the seeded inputs, times ``SETUP_RUNS`` fresh
interpreters that import ``riemflow.cli``, load the configs and build the
initial fields (``setup_s``, the median), then runs the operations in one
worker process (``solve_s``, the median round, and the worker's
``peak_rss_mb``).  Both times are scaled to a reference machine speed by a
speed probe that runs during the timed work (``calibration.py``).  With
``--trace 1`` it reports the per-layer metrics instead; end-to-end numbers
come only from untraced runs.

Scenario outputs, spans and a results file per run go to ``.perfbench_out/``
at the root of the checkout.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit
status: 0 when every operation passed its checks, 1 when one failed, 2 when
the benchmark could not run.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import calibration
import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 5
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed check)."""


def child_env():
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(BENCH)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # one process, one BLAS thread: steadier on a shared machine, and never
    # more threads than cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(script, args, deadline):
    """Run a benchmark script to its end; return (wall seconds, last stdout line)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting " + script)
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / script)] + args, cwd=ROOT,
                              env=child_env(), stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{script} did not finish in time") from exc
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{script} {' '.join(args)} exited with {proc.returncode}")
    return wall, json.loads(lines[-1])


def machine_info():
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "blas_threads": 1}


def run_workload(workload, seed, seconds, trace, deadline):
    run_dir = OUT / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    inputs.write_inputs(workload, seed, str(run_dir))
    child_args = ["--workload", workload, "--dir", str(run_dir)]

    # the first launch fills the bytecode cache and is not timed
    run_child("probe.py", child_args, deadline)
    probes = [run_child("probe.py", child_args, deadline) for _ in range(SETUP_RUNS)]
    setup = [calibration.scaled(wall - p["kernel_s"], p["kernel_s"], p["samples"],
                                calibration.INTERPRETER_REFERENCE_S)
             for wall, p in probes]
    _, result = run_child("worker.py", child_args + ["--seconds", str(seconds),
                                                     "--trace", str(trace)], deadline)
    if trace:
        metrics = dict(result["layers"])
        metrics["cli.import_s"] = {
            "value": statistics.median(p[1]["import_s"] for p in probes), "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "solve_s": {"value": result["solve_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics,
        "rounds_s": result["rounds"], "traced_rounds_s": result.get("traced_rounds"),
        "setup_samples_s": [wall - p["kernel_s"] for wall, p in probes],
        "scaled_setup_s": setup, "scaled_rounds_s": result["scaled_rounds"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    if not (ROOT / "src" / "riemflow" / "__init__.py").is_file():
        print(f"error: no riemflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    try:
        results = [run_workload(name, args.seed, args.seconds, args.trace, deadline)
                   for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for r in results:
        shown = "  ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in r["metrics"].items())
        print(f"{r['workload']}: attempted {r['attempted']} failed {r['failed']}  {shown}")
    report = {"machine": machine_info(), "workloads": results}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": correct, "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
