"""One set-up of a workload in a fresh interpreter, as ``riemflow run`` pays it.

Imports ``riemflow.cli``, loads the workload's configs and builds its initial
fields, then prints ``{"import_s": ..., "kernel_s": ..., "samples": ...}``:
the import's own time and the speed probe's totals (``calibration.py``).
``run.py`` times the whole process from start to exit.  The probe's kernel is
plain Python, so nothing is imported before ``riemflow.cli`` but the standard
library.

Usage: ``python probe.py --workload NAME --dir RUN_DIR``
"""

import argparse
import json
import os
import sys
import time

import calibration

# set-up lasts under a second: a kernel sample every 25 ms, about 6% of it
PROBE_INTERVAL_S = 0.025


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args(argv)

    probe = calibration.SpeedProbe(calibration.interpreter_kernel, PROBE_INTERVAL_S)
    with probe:
        start = time.perf_counter()
        import riemflow.cli  # noqa: F401
        import_s = time.perf_counter() - start - probe.kernel_s

        import workloads

        workloads.WORKLOADS[args.workload].build(
            workloads.load_inputs(os.path.join(args.dir, "inputs.json")))
    kernel_s, samples = probe.take()
    print(json.dumps({"import_s": import_s, "kernel_s": kernel_s, "samples": samples}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
