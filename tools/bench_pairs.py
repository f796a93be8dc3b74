"""Paired benchmark runs of two riemflow trees, kept as a ``BENCH_*.json``.

Usage::

    python tools/bench_pairs.py PARENT CHANGE --workload W [--workload W ...] \\
        --seeds A-B --out BENCH_<n>.json

``CHANGE`` is the root of a riemflow checkout.  ``PARENT`` is the root of
another, or a git revision of ``CHANGE``'s repository (``HEAD``, a branch, a
commit), which is exported with ``git archive`` into a temporary directory
for the runs and removed after them.  For each workload
and each seed from A to B, one pair: ``python3 perfbench/run.py --workload W
--seconds 6 --seed SEED --trace 0`` runs in each tree, one process at a time,
the parent first in the first pair and the change first in the next, and so
on alternately.  Each tree runs its own benchmark files, which a comparison
needs to be the same in both.

The file written holds every run (``workloads``: per workload, per pair, the
seed, the side that ran first, and per side ``correct``, ``attempted``,
``failed``, the end-to-end metrics and ``minor_faults``) and one ``summary``
row per workload and end-to-end metric of the change tree's
``BENCHMARK.json``: each side's median and quartiles, the ratio of the
medians (change over parent) and the pairs in which the change was better, a
tie counting for neither.  ``minor_faults`` is the minor page faults of the
run's processes (``ru_minflt`` of ``RUSAGE_CHILDREN`` over the run): it spans
the benchmark's set-up probes, the worker's warm-up and all its rounds, not
the timed rounds alone.  The script then prints that summary as a Markdown
table, with each metric's bound, and under it each side's median
``minor_faults`` per workload.  It exits 1 when an operation failed its
checks, else 0.
"""

import argparse
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
# every run's length, the same on both sides
SECONDS = 6
COMMAND = f"python3 perfbench/run.py --workload W --seconds {SECONDS} --seed S --trace 0"


def seed_range(text):
    """The seeds ``A`` to ``B`` of ``'A-B'``, both included."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds or seeds[0] < 0:
        raise argparse.ArgumentTypeError(f"expected seeds A-B with 0 <= A <= B, got {text!r}")
    return seeds


def run_side(root, workload, seed):
    """One untraced benchmark run of ``workload`` in the tree at ``root``:
    its ``correct``, ``attempted`` and ``failed``, each metric's value and
    the minor page faults of its processes, and the machine the benchmark
    reported."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", str(SECONDS),
         "--seed", str(seed), "--trace", "0"],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"perfbench/run.py in {root} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    report = json.loads((root / ".perfbench_out" / "results"
                         / f"{workload}-seed{seed}-trace0.json").read_text())
    run = {key: result[key] for key in ("correct", "attempted", "failed")}
    run.update((name, metric["value"]) for name, metric in result["metrics"].items())
    run["minor_faults"] = faults
    return run, report["machine"]


def quartiles(values):
    """The first quartile, the median and the third quartile of ``values``,
    interpolated between the order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(workloads, metrics):
    """One row per workload of ``workloads`` (name -> pairs, each with a
    ``parent`` and a ``change`` run) and per metric of ``metrics`` (the
    ``end_to_end`` entries of ``BENCHMARK.json``)."""
    rows = []
    for workload, pairs in workloads.items():
        for metric in metrics:
            name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
            values = {side: [pair[side][name] for pair in pairs] for side in SIDES}
            row = {"workload": workload, "metric": name, "pairs": len(pairs)}
            for side in SIDES:
                q1, median, q3 = quartiles(values[side])
                row.update({f"{side}_median": median, f"{side}_q1": q1, f"{side}_q3": q3})
            row["ratio"] = row["change_median"] / row["parent_median"]
            row["change_better_pairs"] = sum(sign * (change - parent) < 0.0 for parent, change
                                             in zip(values["parent"], values["change"]))
            rows.append(row)
    return rows


def table_lines(summary, metrics):
    """The summary as the rows of a Markdown table, each with its bound."""
    bounds = {metric["name"]: metric["bound"] for metric in metrics}
    lines = ["| workload | metric | parent | change | change/parent "
             "| change better in pairs | bound |",
             "| --- | --- | --- | --- | --- | --- | --- |"]
    for row in summary:
        sides = [f"{row[f'{side}_median']:.4g} [{row[f'{side}_q1']:.4g}, "
                 f"{row[f'{side}_q3']:.4g}]" for side in SIDES]
        lines.append(f"| {row['workload']} | {row['metric']} | {sides[0]} | {sides[1]} "
                     f"| {row['ratio']:.3f} | {row['change_better_pairs']}/{row['pairs']} "
                     f"| {bounds[row['metric']]:g} |")
    return lines


def fault_lines(workloads):
    """Per workload of ``workloads`` (name -> pairs), each side's median
    ``minor_faults`` per run."""
    lines = []
    for workload, pairs in workloads.items():
        parent, change = (statistics.median([pair[side]["minor_faults"] for pair in pairs])
                          for side in SIDES)
        lines.append(f"{workload}: median minor faults per run: parent {parent:.0f}, "
                     f"change {change:.0f}")
    return lines


def commit_of(root):
    """The commit checked out at ``root``, or ``None`` outside a git
    checkout."""
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def export_revision(repository, revision, into):
    """Export ``revision`` of the git repository at ``repository`` into the
    directory ``into`` with ``git archive``; return the commit it names."""
    def git(*args):
        return subprocess.run(["git", "-C", str(repository), *args], stdout=subprocess.PIPE,
                              check=True).stdout
    commit = git("rev-parse", "--verify", f"{revision}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", commit))) as archive:
        archive.extractall(into, filter="data")
    return commit


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="a checkout's root, or a git revision of CHANGE's")
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    change = args.change.resolve()
    if Path(args.parent).is_dir():
        return compare(Path(args.parent).resolve(), change, args)
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tree:
        return compare(Path(tree), change, args, export_revision(change, args.parent, tree))


def compare(parent, change, args, parent_commit=None):
    """The paired runs of ``args`` of the trees ``parent`` and ``change``,
    written to ``args.out`` and summarized; the exit status.  The parent's
    commit is ``parent_commit``, else the one checked out at ``parent``."""
    roots = {"parent": parent, "change": change}
    metrics = json.loads((roots["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    workloads, machine = {}, None
    for workload in args.workload:
        pairs = workloads[workload] = []
        for k, seed in enumerate(args.seeds):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side], machine = run_side(roots[side], workload, seed)
                print(f"{workload} seed {seed} {side}: "
                      + ", ".join(f"{m['name']} {pair[side][m['name']]:.4g}" for m in metrics),
                      flush=True)
            pairs.append(pair)

    runs = [pair[side] for pairs in workloads.values() for pair in pairs for side in SIDES]
    summary = summarize(workloads, metrics)
    seeds = f"{args.seeds[0]}-{args.seeds[-1]}"
    args.out.write_text(json.dumps({
        "parent_commit": parent_commit or commit_of(parent),
        "machine": machine,
        "description": (f"Paired runs of perfbench/run.py --seconds {SECONDS} --trace 0, "
                        "parent then change or change then parent alternately, one seed per "
                        f"pair ({seeds}); each side from its own copy of the tree."),
        "command": COMMAND,
        "workloads": workloads,
        "summary": summary,
        "all_correct": all(run["correct"] for run in runs),
        "attempted": {side: sum(pair[side]["attempted"] for pairs in workloads.values()
                                for pair in pairs) for side in SIDES},
        "failed": {side: sum(pair[side]["failed"] for pairs in workloads.values()
                             for pair in pairs) for side in SIDES},
    }, indent=2) + "\n")
    print("\n".join(table_lines(summary, metrics) + [""] + fault_lines(workloads)))
    return 0 if all(run["correct"] and not run["failed"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
