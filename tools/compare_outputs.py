"""Compare what two source trees write for the scenario files in configs/,
print for the scripts in demos/ and print for a fixed set of one-shot
commands.

Usage: ``python tools/compare_outputs.py SRC_A SRC_B``

``SRC_A`` and ``SRC_B`` are roots of riemflow checkouts.  Each tree runs
every ``configs/*.json`` of its own through ``riemflow run``, every
``demos/*.py`` of its own and every command of :data:`COMMANDS` (the
one-shot ``curvature`` report on each family and chart kind, ``soliton``
on each chart kind, ``linearize``, ``identity-check``, three runs of the step loop's
failed-step paths, two analytic evolutions off the origin, which no
config reaches, a one-sample flow recorded at every step, a point given
in scientific notation, a flow that records its last state after a failed
step and the flat metric's Gaussian soliton), one process
per run with the tree's ``src`` on the import path, in a temporary directory
of its own.  The script compares the exit status, stdout and every file the
run wrote: CSV files byte for byte, JSON summaries as parsed without
``wall_time_s``.  It prints each file and output that differs, and under it
how much: for a CSV file with the same header and row count, the largest
absolute difference of each column that differs and the largest relative
one, to the column's largest magnitude; for a summary, each key that
differs, with both values.  Then it prints the line count of ``src/riemflow/*.py`` in
each tree (as ``wc -l`` counts it), and exits 1 if any output differs,
else 0.
"""

import argparse
import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

# the value of a summary key in the summary that lacks it
MISSING = "(missing)"

CLI = ["-m", "riemflow.cli"]
POINT = ["--point", "0.1", "-0.2", "0.3"]

# the one-shot commands, run as ``python -m riemflow.cli <command>``: the
# curvature report on each family and each chart kind it can be sampled on
COMMANDS = [["curvature", *args] for args in (
    ["--family", "flat"], ["--family", "flat", "--grid", "8"],
    ["--family", "sphere-stereographic", *POINT],
    ["--family", "hyperbolic-poincare", "-n", "4", "--point", "0.1", "-0.2", "0.3", "0.05",
     "--step", "0.02"],
    ["--family", "conformal-torus", *POINT], ["--family", "conformal-torus", "--grid", "8"],
    ["--family", "diagonal-lame", "--lame", "2 + sin(x1)", "1 + x1 * x2", "1", *POINT],
    ["--family", "diagonal-lame", "--lame", "2 + sin(x1)", "1", "1", "--grid", "8"])] + [
    ["soliton", "--family", "hyperbolic-poincare", *POINT],
    ["soliton", "--family", "conformal-torus", "--grid", "8"], ["linearize"],
    ["identity-check"]] + [
    # step-loop paths no config reaches: a collapse found by bisecting the
    # first step, a coarse wave collapse and a scale-ODE root off the stride
    ["flow", "--family", "hyperbolic-poincare", "--dt", "1.5", "--t-end", "1.2", "--stride", "1"],
    ["wave", "--family", "hyperbolic-poincare", "--dt", "0.3", "--t-end", "2.0", "--stride", "1"],
    ["scale-ode", "--lam", "1", "--dt", "0.25", "--t-end", "3", "--stride", "3"]] + [
    # analytic evolutions off the origin, where the frozen frame is not the
    # identity at the stencil points: a wave with a velocity and an n = 4 flow
    ["wave", "--family", "hyperbolic-poincare", "--point", "0.13", "0.003", "0.14", "--dt", "1e-2",
     "--t-end", "2", "--stride", "5", "--velocity-scale", "0.3"],
    ["flow", "--family", "hyperbolic-poincare", "-n", "4", "--point", "0.1", "-0.2", "0.3", "0.05",
     "--dt", "1e-2", "--t-end", "1", "--stride", "5"]] + [
    # 2,001 one-sample records, which the flow's diagnostics take in batches
    # of at most 512: a run across batch boundaries
    ["flow", "--family", "sphere-stereographic", *POINT, "--dt", "1e-3", "--t-end", "2",
     "--stride", "1"]] + [
    # a negative coordinate in scientific notation, which argparse alone
    # would take for an option
    ["curvature", "--family", "hyperbolic-poincare", "--point", "-1e-1", "0", "0"]] + [
    # the last accepted state before a failed step, which the run records
    # after its loop, and the Gaussian soliton of the flat metric
    ["flow", "--family", "hyperbolic-poincare", "--dt", "0.3", "--t-end", "2", "--stride", "10"],
    ["soliton", "--family", "flat", "--potential", "quadratic", "--lam", "1"]]

# per kind, the runs of the tree at a root: name -> arguments after the
# interpreter
KINDS = {
    "configs": lambda root: {path.name: [*CLI, "run", str(path)]
                             for path in sorted((root / "configs").glob("*.json"))},
    "demos": lambda root: {path.name: [str(path)] for path in sorted((root / "demos").glob("*.py"))},
    "commands": lambda root: {shlex.join(command): [*CLI, *command] for command in COMMANDS},
}


def run_file(root, args):
    """Run ``args`` with the tree at ``root``; its exit status, stdout and
    the files it wrote, by name, JSON files parsed without
    ``wall_time_s``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryDirectory() as out_dir:
        result = subprocess.run(
            [sys.executable, *args],
            cwd=out_dir, env=env, capture_output=True, text=True, timeout=600)
        files = {}
        for path in sorted(Path(out_dir).iterdir()):
            if path.suffix == ".json":
                summary = json.loads(path.read_text())
                summary.pop("wall_time_s", None)
                files[path.name] = summary
            else:
                files[path.name] = path.read_bytes()
    return {"exit status": result.returncode, "stdout": result.stdout}, files


def csv_sizes(data_a, data_b):
    """Per column of two CSV files with the same header and row count that
    differs: (name, largest absolute difference, that over the column's
    largest magnitude in either file); ``None`` for files of another shape
    or with a cell that is not a number."""
    tables = [list(csv.reader(io.StringIO(data.decode()))) for data in (data_a, data_b)]
    if len(tables[0]) != len(tables[1]) or not tables[0] or tables[0][0] != tables[1][0]:
        return None
    try:
        columns = [list(zip(*([float(x) for x in row] for row in table[1:]))) for table in tables]
    except ValueError:
        return None
    sizes = []
    for name, a, b in zip(tables[0][0], *columns):
        gap = max(gap_of(x, y) for x, y in zip(a, b))
        if gap:
            sizes.append((name, gap, gap / max(abs(x) for x in a + b if not math.isnan(x))))
    return sizes


def gap_of(x, y):
    """|x - y|, 0 for equal values or two NaNs and inf for one NaN."""
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    return math.inf if math.isnan(x) or math.isnan(y) else abs(x - y)


def differing_keys(a, b, path=""):
    """The dotted keys, with both values, at which two parsed summaries
    differ; a key one of them lacks has the value ``MISSING`` there."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [entry for key in sorted(set(a) | set(b), key=str)
                for entry in differing_keys(a.get(key, MISSING), b.get(key, MISSING),
                                            f"{path}{key}.")]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [entry for k, (x, y) in enumerate(zip(a, b))
                for entry in differing_keys(x, y, f"{path}{k}.")]
    return [] if a == b else [(path[:-1], a, b)]


def size_lines(file, data_a, data_b):
    """Lines that say how much a file that differs between the trees
    differs."""
    if isinstance(data_a, dict) and isinstance(data_b, dict):
        return [f"{file}: key {key}: {a if a is MISSING else repr(a)} -> "
                f"{b if b is MISSING else repr(b)}" for key, a, b in differing_keys(data_a, data_b)]
    if isinstance(data_a, bytes) and isinstance(data_b, bytes) and file.endswith(".csv"):
        sizes = csv_sizes(data_a, data_b)
        if sizes is not None:
            return [f"{file}: column {name}: largest difference {gap:.3g}, relative {rel:.3g}"
                    for name, gap, rel in sizes]
    return []


def compare_file(root_a, args_a, root_b, args_b):
    """What differs between the run of ``args_a`` with the tree at
    ``root_a`` and that of ``args_b`` with the tree at ``root_b``, and lines
    that say how much (:func:`size_lines`); ``None`` for a run one tree
    lacks."""
    if args_a is None or args_b is None:
        return ["in one tree only"], []
    (streams_a, files_a), (streams_b, files_b) = (run_file(root_a, args_a),
                                                  run_file(root_b, args_b))
    files = [file for file in sorted(set(files_a) | set(files_b))
             if files_a.get(file) != files_b.get(file)]
    return ([key for key in streams_a if streams_a[key] != streams_b[key]] + files,
            [line for file in files for line in size_lines(file, files_a.get(file),
                                                           files_b.get(file))])


def line_total(root):
    """The newline count of ``src/riemflow/*.py`` in the tree at ``root``."""
    return sum(path.read_bytes().count(b"\n") for path in (root / "src" / "riemflow").glob("*.py"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a", type=Path)
    parser.add_argument("src_b", type=Path)
    args = parser.parse_args(argv)
    roots = (args.src_a.resolve(), args.src_b.resolve())
    failed = 0
    for kind, runs_of in KINDS.items():
        runs = [runs_of(root) for root in roots]
        names = list(dict.fromkeys([*runs[0], *runs[1]]))
        differing = 0
        for name in names:
            differences, sizes = compare_file(roots[0], runs[0].get(name),
                                              roots[1], runs[1].get(name))
            print(f"{kind}/{name}: "
                  + (f"differs: {', '.join(differences)}" if differences else "same"), flush=True)
            for line in sizes:
                print(f"  {line}", flush=True)
            differing += bool(differences)
        print(f"{len(names) - differing} of {len(names)} {kind} give the same outputs", flush=True)
        failed += differing
    lines = [line_total(root) for root in roots]
    print(f"src/riemflow lines: {lines[0]} in {args.src_a}, {lines[1]} in {args.src_b} "
          f"({lines[1] - lines[0]:+d})", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
