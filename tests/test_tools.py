import argparse
import importlib.util
import json
import shlex
import subprocess
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "compare_outputs", Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)


def test_compare_outputs_says_how_much_a_csv_differs():
    # per column that differs: the largest absolute difference and that over
    # the column's largest magnitude; equal NaNs are no difference
    a = b"t,x,y\n0,1,nan\n1,-2,3\n"
    b = b"t,x,y\n0,1,nan\n1,-2.5,3\n"
    assert compare_outputs.size_lines("run.csv", a, b) == [
        "run.csv: column x: largest difference 0.5, relative 0.2"]
    # another header or row count is only named as differing
    assert compare_outputs.size_lines("run.csv", a, b"t,x\n0,1\n") == []


def test_compare_outputs_names_the_summary_keys_that_differ():
    a = {"T_est": 1.0, "residuals": {"equation_max": 2e-16, "count": 3}, "steps": [1, 2]}
    b = {"T_est": 1.0, "residuals": {"equation_max": 3e-16, "count": 3}, "steps": [1, 4],
         "extra": None}
    assert compare_outputs.size_lines("run.json", a, b) == [
        "run.json: key extra: (missing) -> None",
        "run.json: key residuals.equation_max: 2e-16 -> 3e-16",
        "run.json: key steps.1: 2 -> 4"]


def test_compare_outputs_runs_the_one_shot_commands(tmp_path):
    # every command runs through each tree's own riemflow.cli, and its exit
    # status and stdout are compared; two stand-in trees print the same
    # arguments and exit with different statuses
    roots = []
    for name, status in (("a", 0), ("b", 3)):
        package = tmp_path / name / "src" / "riemflow"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "cli.py").write_text(f"import sys\nprint(sys.argv[1:])\nsys.exit({status})\n")
        roots.append(tmp_path / name)
    (a, runs_a), (b, runs_b) = ((root, compare_outputs.KINDS["commands"](root)) for root in roots)
    assert list(runs_a) == [shlex.join(command) for command in compare_outputs.COMMANDS]
    assert compare_outputs.run_file(a, runs_a["identity-check"]) == (
        {"exit status": 0, "stdout": "['identity-check']\n"}, {})
    assert compare_outputs.compare_file(a, runs_a["linearize"], a, runs_a["linearize"]) == ([], [])
    assert compare_outputs.compare_file(a, runs_a["linearize"], b, runs_b["linearize"]) == (
        ["exit status"], [])
    assert compare_outputs.compare_file(a, runs_a["linearize"], b, None) == (
        ["in one tree only"], [])
    # the curvature report on each family, and on a grid each periodic one
    reports = [command[1:] for command in compare_outputs.COMMANDS if command[0] == "curvature"]
    kinds = {(args[args.index("--family") + 1], "--grid" in args) for args in reports}
    assert kinds == {("flat", False), ("flat", True), ("sphere-stereographic", False),
                     ("hyperbolic-poincare", False), ("conformal-torus", False),
                     ("conformal-torus", True), ("diagonal-lame", False), ("diagonal-lame", True)}
    assert {"soliton", "linearize", "identity-check"} <= {c[0] for c in compare_outputs.COMMANDS}
    # the step loop's failed-step paths, which no config reaches: a collapse
    # found by bisecting the first step, a coarse wave collapse and a
    # scale-ODE root off the record stride
    assert {"flow --family hyperbolic-poincare --dt 1.5 --t-end 1.2 --stride 1",
            "wave --family hyperbolic-poincare --dt 0.3 --t-end 2.0 --stride 1",
            "scale-ode --lam 1 --dt 0.25 --t-end 3 --stride 3"} <= set(runs_a)
    # every shipped analytic config runs at the origin; these step the frozen
    # frame off it, a wave with a velocity at n = 3 and a flow at n = 4
    assert {"wave --family hyperbolic-poincare --point 0.13 0.003 0.14 --dt 1e-2 --t-end 2 "
            "--stride 5 --velocity-scale 0.3",
            "flow --family hyperbolic-poincare -n 4 --point 0.1 -0.2 0.3 0.05 --dt 1e-2 "
            "--t-end 1 --stride 5"} <= set(runs_a)
    # 2,001 one-sample records cross three of the record batches' boundaries
    assert ("flow --family sphere-stereographic --point 0.1 -0.2 0.3 --dt 1e-3 --t-end 2 "
            "--stride 1") in runs_a
    # a negative coordinate in scientific notation is a value, not an option
    assert "curvature --family hyperbolic-poincare --point -1e-1 0 0" in runs_a
    # the last accepted state before a failed step, recorded after the loop
    assert "flow --family hyperbolic-poincare --dt 0.3 --t-end 2 --stride 10" in runs_a
    assert "soliton --family flat --potential quadratic --lam 1" in runs_a
    # a grid soliton, the only command whose Christoffel symbols are a grid jet's
    assert "soliton --family conformal-torus --grid 8" in runs_a
    assert len(runs_a) == 21


spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "solve_s", "unit": "s", "better": "lower", "bound": 0.2},
           {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}]


def test_bench_pairs_summarizes_synthetic_pairs():
    # five pairs; medians and quartiles interpolate between order statistics,
    # a tie counts for neither side, and "higher" metrics are better when larger
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.0, 2.5, 3.0, 6.0]
    pairs = [{"seed": s, "first": ("parent", "change")[s % 2],
              "parent": {"solve_s": p, "rate": 1.0 / p}, "change": {"solve_s": c, "rate": 1.0 / c}}
             for s, (p, c) in enumerate(zip(parent, change))]
    solve, rate = bench_pairs.summarize({"w": pairs}, METRICS)
    assert solve == {"workload": "w", "metric": "solve_s", "pairs": 5,
                     "parent_median": 3.0, "parent_q1": 2.0, "parent_q3": 4.0,
                     "change_median": 2.5, "change_q1": 2.0, "change_q3": 3.0,
                     "ratio": 2.5 / 3.0, "change_better_pairs": 3,
                     "beyond_parent_spread": False}
    assert rate["change_better_pairs"] == 3
    assert rate["parent_median"] == 1.0 / 3.0 and rate["change_median"] == 1.0 / 2.5
    assert bench_pairs.table_lines([solve], METRICS)[2] == (
        "| w | solve_s | 3 [2, 4] | 2.5 [2, 3] | 0.833 | 3/5 | no | 0.2 |")


def test_bench_pairs_says_whether_the_medians_are_beyond_the_parent_spread():
    # the second half of the rule for claiming a gain: the medians differ by
    # more than the parent's q3 - q1, in either direction, strictly
    def row(parent, change):
        pairs = [{"parent": {"solve_s": p, "rate": 1.0}, "change": {"solve_s": c, "rate": 1.0}}
                 for p, c in zip(parent, change)]
        return bench_pairs.summarize({"w": pairs}, METRICS)[0]

    parent = [1.0, 1.5, 2.0, 2.5, 3.0]          # median 2, q3 - q1 = 1
    for shift, apart in ((-1.25, True), (-1.0, False), (0.5, False), (1.5, True)):
        got = row(parent, [p + shift for p in parent])
        assert got["beyond_parent_spread"] is apart
        assert f"| {'yes' if apart else 'no'} | 0.2 |" in bench_pairs.table_lines([got], METRICS)[2]
    assert bench_pairs.table_lines([], METRICS)[0].count("|") == 9


def test_bench_pairs_reproduces_a_committed_summary():
    # BENCH_23.json was assembled by hand in the same layout
    root = Path(__file__).resolve().parents[1]
    bench = json.loads((root / "BENCH_23.json").read_text())
    metrics = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    got = bench_pairs.summarize(bench["workloads"], metrics)
    assert len(got) == len(bench["summary"])
    for row in bench["summary"]:
        mine = next(r for r in got if (r["workload"], r["metric"]) == (row["workload"], row["metric"]))
        # the file predates the spread verdict, which its own quartiles give
        assert mine.pop("beyond_parent_spread") is (
            abs(row["change_median"] - row["parent_median"]) > row["parent_q3"] - row["parent_q1"])
        assert mine == pytest.approx(row, rel=1e-12)


def test_bench_pairs_reads_a_seed_range():
    assert bench_pairs.seed_range("4400-4403") == [4400, 4401, 4402, 4403]
    assert bench_pairs.seed_range("7") == [7]
    with pytest.raises(argparse.ArgumentTypeError):
        bench_pairs.seed_range("5-4")


def test_bench_pairs_counts_the_minor_faults_of_a_run(tmp_path):
    # a stand-in tree whose benchmark writes its results and writes 16 MiB
    # in a child process of its own: the faults of the run's processes are
    # counted, grandchildren included
    bench = tmp_path / "perfbench"
    bench.mkdir()
    (bench / "run.py").write_text(
        "import json, subprocess, sys\n"
        "from pathlib import Path\n"
        "subprocess.run([sys.executable, '-c', 'b\"x\" * 2 ** 24'], check=True)\n"
        "out = Path('.perfbench_out/results')\n"
        "out.mkdir(parents=True)\n"
        "(out / 'w-seed3-trace0.json').write_text(json.dumps({'machine': 'm'}))\n"
        "print(json.dumps({'correct': True, 'attempted': 1, 'failed': 0,\n"
        "                  'metrics': {'solve_s': {'value': 0.5}}}))\n")
    run, machine = bench_pairs.run_side(tmp_path, "w", 3)
    assert machine == "m"
    assert run["solve_s"] == 0.5 and run["correct"] and run["failed"] == 0
    assert run["minor_faults"] >= 16 * 2 ** 20 // 4096


def test_bench_pairs_prints_the_median_faults_per_workload():
    pairs = [{"parent": {"minor_faults": p}, "change": {"minor_faults": c}}
             for p, c in ((900, 40), (1000, 60), (1200, 50))]
    assert bench_pairs.fault_lines({"w": pairs, "v": pairs[:2]}) == [
        "w: median minor faults per run: parent 1000, change 50",
        "v: median minor faults per run: parent 950, change 50"]


def test_bench_pairs_runs_a_git_revision_as_the_parent(tmp_path, capsys):
    # a throwaway repository whose committed benchmark reports 0.5 s and whose
    # working tree reports 0.25 s: the revision HEAD is exported and run as
    # the parent, the working tree as the change, and the commit recorded
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    script = ("import json\n"
              "from pathlib import Path\n"
              "out = Path('.perfbench_out/results')\n"
              "out.mkdir(parents=True)\n"
              "(out / 'w-seed3-trace0.json').write_text(json.dumps({'machine': 'm'}))\n"
              "print(json.dumps({'correct': True, 'attempted': 1, 'failed': 0,\n"
              "                  'metrics': {'solve_s': {'value': %s}}}))\n")
    (repo / "perfbench" / "run.py").write_text(script % "0.5")
    (repo / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS[:1]}))

    def git(*args):
        return subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c",
                               "user.email=t@t", *args], check=True, stdout=subprocess.PIPE,
                              text=True).stdout.strip()

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "stand-in")
    (repo / "perfbench" / "run.py").write_text(script % "0.25")
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["HEAD", str(repo), "--workload", "w", "--seeds", "3",
                             "--out", str(out)]) == 0
    bench = json.loads(out.read_text())
    assert bench["parent_commit"] == git("rev-parse", "HEAD")
    pair, = bench["workloads"]["w"]
    assert (pair["parent"]["solve_s"], pair["change"]["solve_s"]) == (0.5, 0.25)
    assert "| w | solve_s | 0.5 [0.5, 0.5] | 0.25 [0.25, 0.25] | 0.500 | 1/1 |" in capsys.readouterr().out
