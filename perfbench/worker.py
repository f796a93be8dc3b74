"""Run one workload's operations in this process and print one JSON line.

Usage (from ``run.py``, which writes the inputs first)::

    python worker.py --workload NAME --dir RUN_DIR --seconds S --trace 0|1

After the workload's warm-up pass it repeats whole rounds of the same
operations until ``S`` seconds have passed.  A round's time is the sum of its
operations' ``run`` calls, less the speed probe's kernel time; checks are not
timed.  ``solve_s`` is the median round scaled to the reference speed
(``calibration.py``).  With ``--trace 1`` the untraced rounds get half the
time, and then as many rounds run again, without the probe, with every layer
wrapped by ``spans.install``; the spans go to ``spans.json`` in the run
directory.
"""

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

import calibration

# one kernel sample every 50 ms: about 8% of the time, subtracted again
PROBE_INTERVAL_S = 0.05


def run_round(ops, probe, tracer, round_index):
    """Run every operation once, under the speed probe or the tracer; return
    (seconds, attempted, failed, bad_checks)."""
    seconds, failed, bad = 0.0, 0, 0
    for op in ops:
        if tracer is not None:
            tracer.operation = f"{round_index}:{op.name}"
        start = time.perf_counter()
        try:
            with probe or contextlib.nullcontext():
                result = op.run()
        except Exception:
            failed += 1
            print(f"operation {op.name} raised:", file=sys.stderr)
            traceback.print_exc()
            continue
        seconds += time.perf_counter() - start
        problems = op.check(result)
        if problems:
            failed += 1
            bad += 1
            for problem in problems:
                print(f"check failed in {op.name}: {problem}", file=sys.stderr)
    return seconds, len(ops), failed, bad


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import riemflow.cli  # noqa: F401  (the start-up a `riemflow run` pays)
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    state = workload.build(workloads.load_inputs(os.path.join(args.dir, "inputs.json")))
    workload.warm_up(state)
    ops = workload.operations(state)

    attempted = failed = bad = 0
    probe = calibration.SpeedProbe(calibration.array_kernel(), PROBE_INTERVAL_S)
    untraced, scaled = [], []
    budget = args.seconds / 2.0 if args.trace else args.seconds
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < budget:
        seconds, a, f, b = run_round(ops, probe, None, len(untraced))
        kernel_s, samples = probe.take()
        untraced.append(seconds - kernel_s)
        scaled.append(calibration.scaled(untraced[-1], kernel_s, samples,
                                         calibration.ARRAY_REFERENCE_S))
        attempted, failed, bad = attempted + a, failed + f, bad + b
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {"rounds": untraced, "scaled_rounds": scaled, "solve_s": statistics.median(scaled),
           "peak_rss_mb": peak_rss_mb}
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        traced, per_round = [], []
        for k in range(len(untraced)):
            first = len(tracer.spans)
            seconds, a, f, b = run_round(ops, None, tracer, len(untraced) + k)
            traced.append(seconds)
            per_round.append(spans.layer_metrics(tracer.spans, first))
            attempted, failed, bad = attempted + a, failed + f, bad + b
        tracer.write(os.path.join(args.dir, "spans.json"))
        layers = {name: {"value": statistics.median(r[name][0] for r in per_round),
                         "unit": unit}
                  for name, (_, unit) in per_round[0].items()}
        layers["trace.overhead_s"] = {
            "value": statistics.median(traced) - statistics.median(untraced), "unit": "s"}
        out.update(traced_rounds=traced, layers=layers)
    out.update(attempted=attempted, failed=failed, correct=bad == 0)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
