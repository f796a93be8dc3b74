import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import UNIT_COLLAPSE_TIME, flat_grid_field
from riemflow import cli
from riemflow.charts import AnalyticChart, GridChart
from riemflow.cli import main as cli_main
from riemflow.errors import DegenerateCoefficients, ParseError, SchemaError, UnknownFamily
from riemflow.families import _SAFE_FUNCS, make_family
from riemflow.flow import integrate_flow
from riemflow.scenarios import (
    CSV_COLUMNS,
    _build_chart,
    config_from_dict,
    load_config,
    run_scenario,
)
from riemflow.wave import integrate_wave


def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _base_cfg(tmp_path, **overrides):
    cfg = {
        "id": "test-run",
        "family": {"name": "flat"},
        "chart": {"dimension": 3, "kind": "periodic-grid", "points_per_axis": 8},
        "law": "riemann-flow",
        "integrator": {"dt": 0.05, "t_end": 0.5, "stride": 2},
        "output": {"csv": str(tmp_path / "out.csv"),
                   "summary": str(tmp_path / "out.json")},
        "seed": 0,
    }
    cfg.update(overrides)
    return cfg


def test_minimal_config_defaults():
    cfg = config_from_dict({"family": "flat", "law": "riemann-flow"})
    assert cfg.dt == 1e-3
    assert cfg.stride == 10
    assert cfg.dimension == 3
    assert cfg.collapse_threshold == 1e-6


def test_scenario_chart_is_built_once(tmp_path, monkeypatch):
    # the chart built at load to check the document is the one the run uses
    from riemflow import scenarios
    calls = []
    build = scenarios._build_chart
    monkeypatch.setattr(scenarios, "_build_chart",
                        lambda *args: calls.append(args) or build(*args))
    cfg = config_from_dict(_base_cfg(tmp_path, family={"name": "conformal-torus"}))
    assert isinstance(cfg.chart, GridChart) and cfg.chart.grid_shape == (8, 8, 8)
    assert run_scenario(cfg)["termination"] == "t_end"
    assert len(calls) == 1


def test_negative_dt_rejected():
    with pytest.raises(SchemaError):
        config_from_dict({"family": "flat", "law": "riemann-flow",
                          "integrator": {"dt": -1.0}})


def test_unknown_key_named():
    with pytest.raises(SchemaError) as err:
        config_from_dict({"family": "flat", "law": "riemann-flow",
                          "frobnicate": 1})
    assert "frobnicate" in str(err.value)


def test_unknown_family():
    with pytest.raises(UnknownFamily):
        config_from_dict({"family": "moebius", "law": "riemann-flow"})


def test_unknown_law():
    with pytest.raises(SchemaError):
        config_from_dict({"family": "flat", "law": "heat-death"})


def _rejected_law(law, library_call, match):
    """The config is refused at load naming the law, and the library call
    raises ValueError naming the offending parameter."""
    with pytest.raises(SchemaError) as err:
        config_from_dict({"family": "flat", "law": law})
    assert err.value.key == "law"
    fld, _ = flat_grid_field(3)
    with pytest.raises(ValueError, match=match):
        library_call(fld)


def test_riemann_flow_rejects_family_parameters():
    _rejected_law({"name": "riemann-flow", "beta": 1.0, "delta": 2.0},
                  lambda f: integrate_flow(f, ("riemann-induced", {"beta": 1.0}), 0.1, 0.2),
                  "beta")


def test_ricci_wave_rejects_alpha():
    _rejected_law({"name": "ricci-wave", "alpha": 2.0},
                  lambda f: integrate_wave(f, ("ricci-wave", {"alpha": 2.0}), 0.1, 0.2),
                  "alpha")


def test_general_flow_rejects_misspelt_delta():
    _rejected_law({"name": "general-flow", "beta": 1.0, "detla": 2.0},
                  lambda f: integrate_flow(f, ("general", {"beta": 1.0, "detla": 2.0}),
                                           0.1, 0.2),
                  "detla")


def test_general_wave_rejects_misspelt_alpha():
    _rejected_law({"name": "general", "alhpa": 0.5},
                  lambda f: integrate_wave(f, ("general", {"alhpa": 0.5}), 0.1, 0.2),
                  "alhpa")


def test_general_flow_needs_beta(tmp_path, capsys):
    _rejected_law({"name": "general-flow", "delta": 2.0},
                  lambda f: integrate_flow(f, ("general", {"delta": 2.0}), 0.1, 0.2),
                  "beta")
    # the command reports the error instead of dying with a traceback
    path = _write(tmp_path, _base_cfg(tmp_path, law={"name": "general-flow", "delta": 2.0}))
    assert cli_main(["run", path]) == 1
    assert "beta" in capsys.readouterr().err


def test_riemann_type_degenerate_beta():
    # (n-2) + n (1 - beta (n-1)) vanishes at beta = 2/n
    for n in (3, 4):
        with pytest.raises(DegenerateCoefficients):
            config_from_dict({"family": "flat", "chart": {"dimension": n},
                              "law": {"name": "riemann-type", "beta": 2.0 / n}})
        fld, _ = flat_grid_field(n)
        with pytest.raises(DegenerateCoefficients):
            integrate_flow(fld, ("riemann-type", {"beta": 2.0 / n}), 0.1, 0.2)


def test_riemann_type_scenario_reports_the_scaled_flow_alpha_sign(tmp_path):
    summary = run_scenario(load_config(_write(tmp_path, _base_cfg(tmp_path, law="riemann-type"))))
    assert summary["termination"] == "t_end"
    assert [d for d in summary["discrepancies"] if d["id"] == "scaled-flow-alpha-sign"] == [{
        "id": "scaled-flow-alpha-sign", "computed": -2.0, "commonly_stated": 2.0,
        "note": "leading coefficient that actually converts the scaled pair-product flow into "
                "the classical first-order law"}]


def test_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_config(str(path))


def test_flat_torus_run_is_steady(tmp_path):
    cfg = load_config(_write(tmp_path, _base_cfg(tmp_path)))
    summary = run_scenario(cfg)
    assert summary["termination"] == "t_end"
    assert summary["exit_code"] == 0
    assert summary["residuals"]["equation_max"] == 0.0
    rows = (tmp_path / "out.csv").read_text().splitlines()
    assert rows[0].split(",")[0] == "t"
    f_vals = {row.split(",")[1] for row in rows[1:]}
    assert f_vals == {"1"}


def test_sphere_scenario_smoke(tmp_path):
    cfg_dict = _base_cfg(tmp_path, id="sphere-smoke",
                         family={"name": "sphere-stereographic"},
                         chart={"dimension": 3, "kind": "analytic-point",
                                "point": [0.0, 0.0, 0.0], "step": 0.01},
                         integrator={"dt": 0.01, "t_end": 0.2, "stride": 5})
    summary = run_scenario(load_config(_write(tmp_path, cfg_dict)))
    assert summary["termination"] == "t_end"
    assert summary["discrepancies"]
    ids = {d["id"] for d in summary["discrepancies"]}
    assert "sphere-stereographic-curvature-factor" in ids


def test_collapse_scenario_exit_code(tmp_path):
    cfg_dict = _base_cfg(tmp_path, id="hyperbolic-collapse",
                         family={"name": "hyperbolic-poincare"},
                         chart={"dimension": 3, "kind": "analytic-point",
                                "point": [0.0, 0.0, 0.0], "step": 0.01},
                         integrator={"dt": 5e-3, "t_end": 2.0, "stride": 10})
    summary = run_scenario(load_config(_write(tmp_path, cfg_dict)))
    assert summary["termination"] == "collapse"
    assert summary["exit_code"] == 2
    assert abs(summary["T_est"] - 1.0) < 1e-3
    assert abs(summary["blowup_exponent"] + 1.0) < 0.05


def test_scale_ode_scenario(tmp_path):
    cfg_dict = {
        "id": "poly",
        "family": {"name": "flat"},
        "law": {"name": "scale-ode", "lam": -6.0, "v": 2.0},
        "integrator": {"dt": 1e-3, "t_end": 2.0, "stride": 100},
        "output": {"csv": str(tmp_path / "p.csv"),
                   "summary": str(tmp_path / "p.json")},
    }
    summary = run_scenario(load_config(_write(tmp_path, cfg_dict)))
    assert summary["termination"] == "t_end"
    assert summary["residuals"]["polynomial_condition"] == 0.0
    rows = (tmp_path / "p.csv").read_text().splitlines()[1:]
    for row in rows:
        t, f, _ = (float(v) for v in row.split(","))
        assert abs(f - (1.0 + t) ** 2) < 1e-8


def test_scale_ode_collapse_config_stops_before_the_root(tmp_path):
    path = Path(__file__).resolve().parents[1] / "configs" / "scale-ode-collapse.json"
    cfg = json.loads(path.read_text())
    cfg["output"] = {"csv": str(tmp_path / "collapse.csv"),
                     "summary": str(tmp_path / "collapse.json")}
    summary = run_scenario(load_config(_write(tmp_path, cfg)))
    assert summary["termination"] == "collapse"
    assert summary["t_final"] < summary["T_est"]
    assert abs(summary["T_est"] - UNIT_COLLAPSE_TIME) <= 1e-9
    assert summary["t_final"] < UNIT_COLLAPSE_TIME


def _run_shipped(tmp_path, name):
    """Summary and CSV text of ``configs/<name>.json`` run into ``tmp_path``."""
    path = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
    cfg = json.loads(path.read_text())
    cfg["output"] = {"csv": str(tmp_path / f"{name}.csv"),
                     "summary": str(tmp_path / f"{name}.json")}
    summary = run_scenario(load_config(_write(tmp_path, cfg)))
    return summary, (tmp_path / f"{name}.csv").read_text()


def test_blow_up_summary_reports_the_fit_uncertainty(tmp_path):
    summary, _ = _run_shipped(tmp_path, "hyperbolic-collapse")
    assert summary["termination"] == "collapse"
    unc = summary["T_est_uncertainty"]
    assert math.isfinite(unc) and unc > 0.0
    written = json.loads((tmp_path / "hyperbolic-collapse.json").read_text())
    assert written["T_est_uncertainty"] == unc


def test_relative_equation_residual(tmp_path):
    # max over records of eq_residual / sup_riem_norm, and None when every
    # record is flat; the CSV columns stay as they are
    summary, text = _run_shipped(tmp_path, "hyperbolic-collapse")
    rows = np.array([[float(v) for v in line.split(",")] for line in text.splitlines()[1:]])
    header = text.splitlines()[0].split(",")
    assert tuple(header) == CSV_COLUMNS
    ratio = rows[:, header.index("eq_residual")] / rows[:, header.index("sup_riem_norm")]
    assert summary["residuals"]["equation_max_relative"] == pytest.approx(ratio.max(), rel=1e-12)
    flat, _ = _run_shipped(tmp_path, "flat-torus-flow")
    assert flat["residuals"]["equation_max_relative"] is None
    assert flat["T_est_uncertainty"] is None


def test_ricci_residual_scores_the_ricci_law(tmp_path):
    # eq_residual of the Ricci flow is max |(v + 2 Ric) ^ g|, not the
    # Riemann law's dG/dt + 2 Riem, which stays of the size of Riem
    path = Path(__file__).resolve().parents[1] / "configs" / "ricci-hyperbolic-collapse.json"
    cfg = json.loads(path.read_text())
    cfg["output"] = {"csv": str(tmp_path / "ricci.csv"),
                     "summary": str(tmp_path / "ricci.json")}
    run_scenario(load_config(_write(tmp_path, cfg)))
    lines = (tmp_path / "ricci.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    ratio = rows[:, header.index("eq_residual")] / rows[:, header.index("sup_riem_norm")]
    assert len(rows) > 10
    assert ratio.max() <= 1e-8


def test_determinism_byte_identical_csv(tmp_path):
    cfg_dict = _base_cfg(tmp_path, id="det",
                         family={"name": "conformal-torus",
                                 "params": {"amplitude": 0.05, "mode": 1}},
                         seed=42)
    path = _write(tmp_path, cfg_dict)
    run_scenario(load_config(path))
    first = (tmp_path / "out.csv").read_bytes()
    run_scenario(load_config(path))
    second = (tmp_path / "out.csv").read_bytes()
    assert first == second


def test_cli_run_exit_codes(tmp_path, capsys):
    smooth = _write(tmp_path, _base_cfg(tmp_path), "smooth.json")
    assert cli_main(["run", smooth]) == 0
    collapse_cfg = _base_cfg(tmp_path, id="c",
                             family={"name": "hyperbolic-poincare"},
                             chart={"dimension": 3, "kind": "analytic-point",
                                    "point": [0.0, 0.0, 0.0], "step": 0.01},
                             integrator={"dt": 5e-3, "t_end": 2.0, "stride": 10})
    collapse = _write(tmp_path, collapse_cfg, "collapse.json")
    assert cli_main(["run", collapse]) == 2
    capsys.readouterr()


def test_cli_error_exit_code(tmp_path, capsys):
    bad = _write(tmp_path, {"family": "nowhere", "law": "riemann-flow"}, "bad.json")
    assert cli_main(["run", bad]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv, option", [
    (["scale-ode"], "--lam"),
    (["conformal-wave", "--velocity", "left"], "--velocity"),
    (["flow", "--bogus"], "--bogus"),
], ids=["missing-option", "bad-choice", "unknown-option"])
def test_cli_usage_error_exits_1_not_the_collapse_status(tmp_path, monkeypatch, capsys, argv,
                                                         option):
    # 2 means a detected singularity, so a mistyped command line must not
    # read as one; the usage message stays on stderr and nothing runs
    monkeypatch.chdir(tmp_path)
    assert cli_main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: riemflow") and option in err
    assert list(tmp_path.iterdir()) == []


def test_cli_conformal_wave_step_longer_than_the_run_is_an_error(tmp_path, monkeypatch, capsys):
    # one step of t_end, refused by the CFL guard, not a division by zero
    monkeypatch.chdir(tmp_path)
    assert cli_main(["conformal-wave", "--dt", "1e9", "--t-end", "0.5"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: dt=5.000e-01 exceeds 0.5*dx") and "Traceback" not in err


def test_cli_help_exits_0(capsys):
    assert cli_main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: riemflow")


def test_cli_jobs_flag(tmp_path, capsys):
    paths = []
    for k in range(2):
        cfg = _base_cfg(tmp_path, id=f"job{k}")
        cfg["output"] = {"csv": str(tmp_path / f"j{k}.csv"),
                         "summary": str(tmp_path / f"j{k}.json")}
        paths.append(_write(tmp_path, cfg, f"job{k}.json"))
    assert cli_main(["run", *paths, "--jobs", "2"]) == 0
    for k in range(2):
        assert (tmp_path / f"j{k}.csv").exists()
    capsys.readouterr()


def test_cli_run_starts_no_more_workers_than_configs(tmp_path, monkeypatch, capsys):
    # a process pool starts all its workers at the first task, so --jobs is
    # capped at the number of configs; a recording stand-in runs them here
    workers = []

    class Pool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", Pool)
    paths = [_write(tmp_path, _base_cfg(tmp_path, id=f"job{k}", output={
        "csv": str(tmp_path / f"j{k}.csv"), "summary": str(tmp_path / f"j{k}.json")}),
        f"job{k}.json") for k in range(3)]
    for jobs, want in (("5000", [3]), ("2", [2]), ("1", [])):
        workers.clear()
        assert cli_main(["run", *paths, "--jobs", jobs]) == 0
        assert workers == want
    assert cli_main(["run", paths[0], "--jobs", "8"]) == 0
    assert workers == []
    capsys.readouterr()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_cli_run_refuses_fewer_than_one_job(tmp_path, capsys, jobs):
    path = _write(tmp_path, _base_cfg(tmp_path))
    assert cli_main(["run", path, "--jobs", jobs]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: jobs must be at least 1 (key: 'jobs')\n")
    assert not (tmp_path / "out.csv").exists()


def test_cli_curvature_subcommand(capsys):
    assert cli_main(["curvature", "--family", "sphere-stereographic", "-n", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["constant_curvature_factor"] + 1.0) < 1e-12
    assert abs(out["scalar_range"][0] + 6.0) < 1e-5


@pytest.mark.parametrize("argv", [
    ["curvature", "--family", "flat", "--grid", "4"],
    ["soliton", "--family", "flat", "--grid", "4"],
    ["linearize", "--grid", "4"],
    ["curvature", "--family", "conformal-torus", "--grid", "0"],
    ["flow", "--family", "conformal-torus", "--grid", "0", "--t-end", "0.01"],
], ids=["curvature", "soliton", "linearize", "curvature-no-points", "flow-no-points"])
def test_cli_field_commands_refuse_a_bad_chart(argv, tmp_path, capsys, monkeypatch):
    # the same SchemaError as a scenario's chart, printed without a traceback;
    # a grid of no points is a grid too, not the analytic point, and no run
    # starts
    monkeypatch.chdir(tmp_path)
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: bad chart: grid charts need at least 8 points "
                            "per axis (key: 'chart')\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, key", [
    (["curvature", "--family", "conformal-torus", "--grid", "8", "--point", "0.1", "0.2", "0.3",
      "--step", "0.5"], "step"),
    (["flow", "--family", "conformal-torus", "--grid", "8", "--point", "0", "0", "0",
      "--t-end", "0.01"], "point"),
], ids=["curvature", "flow"])
def test_cli_grid_refuses_an_analytic_point_s_options(argv, key, tmp_path, capsys, monkeypatch):
    # every chart option given reaches the scenario's chart, which refuses
    # one its kind does not take; no run starts
    monkeypatch.chdir(tmp_path)
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown periodic-grid chart key (key: {key!r})\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("family, chart, key", [
    ("conformal-torus", {"kind": "periodic-grid", "points_per_axis": 8, "point": [1, 2, 3]},
     "point"),
    ("conformal-torus", {"kind": "periodic-grid", "step": 0.3}, "step"),
    ("flat", {"points_per_axis": 8, "step": 0.3}, "step"),
], ids=["point", "step", "default-kind"])
def test_a_grid_chart_refuses_an_analytic_point_s_keys(family, chart, key):
    with pytest.raises(SchemaError) as err:
        config_from_dict({"family": family, "law": "riemann-flow", "chart": chart})
    assert err.value.key == key


@pytest.mark.parametrize("family, chart, key", [
    ("conformal-torus", {"kind": "analytic-point", "points_per_axis": 8, "lengths": 3.0},
     "points_per_axis"),
    ("conformal-torus", {"kind": "analytic-point", "lengths": 3.0}, "lengths"),
    ("sphere-stereographic", {"point": [0, 0, 0], "points_per_axis": 8}, "points_per_axis"),
], ids=["points-per-axis", "lengths", "default-kind"])
def test_an_analytic_chart_refuses_a_grid_s_keys(family, chart, key):
    with pytest.raises(SchemaError) as err:
        config_from_dict({"family": family, "law": "riemann-flow", "chart": chart})
    assert err.value.key == key


@pytest.mark.parametrize("argv, error", [
    (["curvature", "--family", "hyperbolic-poincare", "--step", "inf"],
     "bad chart: finite-difference step must be positive and finite, got inf (key: 'chart')"),
    (["curvature", "--point", "nan", "0", "0"],
     "bad chart: evaluation point must be finite, got [nan  0.  0.] (key: 'chart')"),
    (["flow", "--family", "diagonal-lame", "--lame", "x1", "1", "1", "--point", "0.01", "0", "0",
      "--t-end", "0.002"],
     "metric sampler values are not finite, or not positive definite, at the stencil point "
     "[0. 0. 0.]"),
    (["curvature", "--family", "hyperbolic-poincare", "--step", "1e-300"],
     "bad chart: finite-difference step 1e-300 is too small: its half squared is below the "
     "smallest normal float (key: 'chart')"),
    (["soliton", "--family", "hyperbolic-poincare", "--step", "1e-300"],
     "bad chart: finite-difference step 1e-300 is too small: its half squared is below the "
     "smallest normal float (key: 'chart')"),
], ids=["infinite-step", "nan-point", "singular-stencil-point", "curvature-underflowing-step",
        "soliton-underflowing-step"])
def test_cli_refuses_an_analytic_chart_outside_the_metric_s_domain(argv, error, tmp_path, capsys,
                                                                    monkeypatch):
    # a step or point that is not finite is a bad chart, and a metric that is
    # singular at a stencil point is named there, not a LAPACK traceback; the
    # frozen frame refuses it before a run writes anything.  A step whose
    # half squared underflows is a bad chart too, refused before a stencil
    # divides by it.  The error is the command's only line of stderr: the
    # command runs once more in a process of its own, where no warning
    # filter of the test runner hides numpy's warnings
    monkeypatch.chdir(tmp_path)
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"
    assert list(tmp_path.iterdir()) == []
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "riemflow.cli", *argv], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {error}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, family, gap", [
    (["curvature", "--family", "hyperbolic-poincare", "--grid", "8"], "hyperbolic-poincare", "1"),
    (["curvature", "--family", "sphere-stereographic", "--grid", "8"], "sphere-stereographic",
     "0.999"),
    (["soliton", "--family", "hyperbolic-poincare", "--grid", "8"], "hyperbolic-poincare", "1"),
], ids=["curvature-hyperbolic", "curvature-sphere", "soliton-hyperbolic"])
def test_cli_refuses_a_grid_on_which_the_metric_is_not_periodic(argv, family, gap, capsys):
    # the periodic stencils would difference across the seam of a metric that
    # is not periodic on the torus and report garbage curvature
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: bad chart: the {family} metric is not finite and periodic "
                            f"on the grid: one period along axis 1 changes it by {gap} of max "
                            "|g| (key: 'chart')\n")


@pytest.mark.parametrize("argv, error", [
    (["curvature", "--family", "flat", "--grid", "8", "--amplitude", "0.3", "--mode", "2"],
     "unknown flat parameter (key: 'amplitude')"),
    (["curvature", "--family", "sphere-stereographic", "--lame", "2", "1", "1"],
     "unknown sphere-stereographic parameter (key: 'expressions')"),
    (["curvature", "--family", "diagonal-lame"],
     "diagonal-lame needs an 'expressions' list (key: 'expressions')"),
    (["flow", "--family", "flat", "--amplitude", "0.3"],
     "unknown flat parameter (key: 'amplitude')"),
], ids=["flat-amplitude", "sphere-lame", "lame-without-expressions", "flow-flat-amplitude"])
def test_cli_refuses_a_family_option_the_family_does_not_take(argv, error, tmp_path, capsys,
                                                               monkeypatch):
    # every family option given reaches make_family, which refuses it as it
    # refuses a scenario file's, before a run writes anything
    monkeypatch.chdir(tmp_path)
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["flow", "--family", "conformal-torus", "--grid", "8", "--t-end", "0.02", "--stride", "2"],
    ["wave", "--family", "hyperbolic-poincare", "--velocity-scale", "0.1", "--t-end", "0.05"],
    ["scale-ode", "--lam", "-6", "--v", "2", "--t-end", "0.5"],
    ["conformal-wave", "--points", "64", "--velocity", "right-mover", "--t-end", "0.1"],
], ids=["flow", "wave", "scale-ode", "conformal-wave"])
def test_a_run_subcommand_runs_the_scenario_its_summary_echoes(argv, tmp_path, capsys,
                                                               monkeypatch):
    # the subcommand writes a scenario document: `riemflow run` of the
    # summary's echo, with only the output moved, writes the same CSV bytes
    monkeypatch.chdir(tmp_path)
    code = cli_main(argv)
    (summary_path,) = tmp_path.glob("*.json")
    (csv_path,) = tmp_path.glob("*.csv")
    config = json.loads(summary_path.read_text())["config"]
    rerun = dict(config, output={"csv": "rerun.csv", "summary": "rerun.json"})
    assert cli_main(["run", _write(tmp_path, rerun, "rerun-config.json")]) == code
    capsys.readouterr()
    csv = csv_path.read_bytes()
    assert csv.count(b"\n") > 2
    assert (tmp_path / "rerun.csv").read_bytes() == csv


@pytest.mark.parametrize("argv, defaults, omitted", [
    (["flow", "--family", "hyperbolic-poincare", "--t-end", "0.02"],
     ["--point", "0", "0", "0", "--step", "0.01", "--seed", "0"], {"seed", "point", "step"}),
    (["wave", "--family", "conformal-torus", "--grid", "8", "--t-end", "0.02"],
     ["--velocity-scale", "0", "--seed", "0"], {"seed", "initial_velocity_scale"}),
    (["conformal-wave", "--points", "64", "--t-end", "0.1"], ["--seed", "0"], {"seed"}),
], ids=["flow", "wave", "conformal-wave"])
def test_a_run_subcommand_leaves_out_the_defaults_it_was_not_given(argv, defaults, omitted,
                                                                   tmp_path, capsys, monkeypatch):
    # the document leaves out the options that were not given, and the
    # scenario's defaults for them give the outputs that giving them does
    runs = []
    for name, extra in (("left-out", []),
                        ("given", [*defaults, "--csv", "run.csv", "--summary", "run.json"])):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        code = cli_main([*argv, "--id", "run", *extra])
        runs.append((code, Path("run.csv").read_bytes(), json.loads(Path("run.json").read_text())))
    capsys.readouterr()
    (code, csv, summary), (given_code, given_csv, given_summary) = runs

    def keys(config):
        return {*config, *config.get("chart", {})}

    assert not keys(summary.pop("config")) & (omitted | {"output"})
    assert omitted <= keys(given_summary.pop("config"))
    assert (code, csv) == (given_code, given_csv) and csv.count(b"\n") > 2
    del summary["wall_time_s"], given_summary["wall_time_s"]
    assert summary == given_summary


def test_a_periodic_diagonal_lame_grid_runs(tmp_path, capsys):
    lame = {"name": "diagonal-lame", "params": {"expressions": ["2 + sin(x1)", "1", "1"]}}
    assert run_scenario(config_from_dict(_base_cfg(tmp_path, family=lame)))["termination"] \
        == "t_end"
    assert cli_main(["curvature", "--family", "diagonal-lame", "--lame", "2 + sin(x1)", "1", "1",
                     "--grid", "8"]) == 0
    assert json.loads(capsys.readouterr().out)["sup_riem_norm"] < 1e-12


@pytest.mark.parametrize("family, chart_class", [
    ("flat", GridChart), ("conformal-torus", GridChart), ("sphere-stereographic", AnalyticChart),
    ("hyperbolic-poincare", AnalyticChart)])
def test_default_chart_kind_follows_the_family_s_default_lengths(family, chart_class):
    # a family with default grid lengths is sampled on a grid, any other at a point
    assert type(_build_chart({}, make_family(family, 3))) is chart_class


def test_cli_identity_check(capsys):
    assert cli_main(["identity-check", "-n", "3", "--count", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["max_roundtrip_error"] < 1e-10


@pytest.mark.parametrize("argv, error", [
    (["--count", "0"], "count must be at least 1 (key: 'count')"),
    (["--count", "-3"], "count must be at least 1 (key: 'count')"),
    (["-n", "0"], "dimension must be at least 3 (key: 'dimension')"),
    (["-n", "1"], "dimension must be at least 3 (key: 'dimension')"),
    (["-n", "2"], "dimension must be at least 3 (key: 'dimension')"),
])
def test_cli_identity_check_refuses_no_samples_and_small_dimensions(argv, error, capsys):
    # no sample would pass with a residual of 0, and below n = 3 there is no
    # recovery to check: one line on stderr, not a pass or a traceback
    assert cli_main(["identity-check", *argv]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {error}\n")


def test_cli_flow_subcommand(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = cli_main(["flow", "--family", "flat", "-n", "3", "--grid", "8",
                     "--law", "ricci-flow", "--dt", "0.1", "--t-end", "0.3",
                     "--stride", "1"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["termination"] == "t_end"


def test_cli_scale_ode_subcommand(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = cli_main(["scale-ode", "--lam", "1.0", "--v", "0", "--dt", "1e-3",
                     "--t-end", "2.0"])
    assert code == 2  # collapse detected is the expected scientific outcome
    out = json.loads(capsys.readouterr().out)
    assert 1.0 < out["T_est"] < 1.1


def test_cli_conformal_wave_subcommand(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = cli_main(["conformal-wave", "--points", "64", "--dt", "0.003",
                     "--t-end", "0.1", "--stride", "4"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["termination"] == "t_end"


def test_cli_soliton_subcommand(capsys):
    code = cli_main(["soliton", "--family", "hyperbolic-poincare", "-n", "3"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["classification"] == "shrinking"
    assert out["max_residual_norm"] < 1e-6


def test_cli_soliton_refuses_a_potential_that_is_not_periodic_on_the_grid(capsys):
    # -lam |x|^2 / 4 differenced across the seam of an 8^3 torus would give a
    # residual of 136.25
    argv = ["soliton", "--family", "flat", "--grid", "8", "--potential", "quadratic", "--lam", "1"]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the potential is not finite and periodic on the grid: one "
                            "period along axis 1 changes it by 1.2 of max |f| (key: 'potential')\n")
    # on the analytic chart the same soliton closes, and on the grid the zero potential
    for argv in (argv[:3] + argv[5:], argv[:5]):
        assert cli_main(argv) == 0
        assert json.loads(capsys.readouterr().out)["max_residual_norm"] == 0.0


@pytest.mark.parametrize("chart_args", [["--grid", "8"],
                                        ["--point", "0.1", "0.2", "0.0", "--step", "0.02"]])
def test_cli_field_and_scenario_share_the_chart(chart_args):
    # a one-shot report samples the chart that a run of the same arguments
    # integrates on: both build it from one chart spec
    args = cli.build_parser().parse_args(["flow", "--family", "conformal-torus", "--id", "x",
                                          *chart_args])
    family, fld = cli._build_field(args)
    chart = _build_chart(cli._scenario(args).chart_spec, family)
    assert type(fld.chart) is type(chart)
    for key, value in vars(chart).items():
        assert np.array_equal(getattr(fld.chart, key), value)
    if chart.kind == "periodic-grid":
        assert chart.lengths == family.periods


def test_cli_linearize_subcommand(capsys):
    # the two-run tangency check: the linearized flow against the central
    # quotient of two nonlinear runs, whose error falls as eps^2
    code = cli_main(["linearize", "--which", "riemann-induced"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"which", "errors", "observed_order", "initial_rhs_max"}
    assert out["which"] == "riemann-induced"
    assert 1.95 <= out["observed_order"] <= 2.05


@pytest.mark.parametrize("argv, error", [
    (["--t-end", "0"], "t_end must be positive (key: 't_end')"),
    (["--t-end", "-1"], "t_end must be positive (key: 't_end')"),
    (["--dt", "0"], "dt must be positive (key: 'dt')"),
], ids=["no-step", "negative-t-end", "zero-dt"])
def test_cli_linearize_refuses_a_run_without_steps(argv, error, capsys):
    # a run that takes no step compares roundoff with roundoff, whose
    # "order" means nothing; a schedule the flow refuses is refused here too,
    # as one line and exit 1, not a traceback
    assert cli_main(["linearize", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


@pytest.mark.parametrize("eps, error", [
    ("0", "eps must be positive (key: 'eps')"),
    ("-0.01", "eps must be positive (key: 'eps')"),
    ("nan", "eps must be a finite number, got nan (key: 'eps')"),
    ("inf", "eps must be a finite number, got inf (key: 'eps')"),
])
def test_cli_linearize_refuses_an_eps_that_is_not_positive_and_finite(eps, error, capsys):
    # a zero eps divides by zero and a NaN one reads as a metric that is not
    # positive definite; both are refused before any run, as one line
    assert cli_main(["linearize", "--eps", eps]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {error}\n")


@pytest.mark.parametrize("argv, same_as", [
    (["curvature", "--family", "hyperbolic-poincare", "--point", "-1e-1", "0", "0"],
     ["curvature", "--family", "hyperbolic-poincare", "--point", "-0.1", "0", "0"]),
    (["scale-ode", "--lam", "-1e2", "--t-end", "0.1"],
     ["scale-ode", "--lam", "-100", "--t-end", "0.1"]),
], ids=["curvature-point", "scale-ode-lam"])
def test_cli_reads_a_negative_number_in_scientific_notation_as_a_value(argv, same_as, tmp_path,
                                                                       capsys, monkeypatch):
    # argparse alone takes -1e-1 for an option and stops with a usage error;
    # every subcommand reads it as the number, as it reads -0.1
    monkeypatch.chdir(tmp_path)
    outputs = []
    for args in (argv, same_as):
        assert cli_main(args) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and outputs[0].err == ""


@pytest.mark.parametrize("argv, error", [
    (["linearize", "--eps", "-1e-2"], "eps must be positive (key: 'eps')"),
    (["flow", "--dt", "-1e-3"], "dt must be positive (key: 'dt')"),
    (["linearize", "--eps", "-inf"], "eps must be a finite number, got -inf (key: 'eps')"),
], ids=["linearize-eps", "flow-dt", "linearize-minus-inf"])
def test_cli_refuses_a_negative_value_argparse_took_for_an_option(argv, error, tmp_path, capsys,
                                                                  monkeypatch):
    # a negative number in scientific notation, or -inf, reaches the schema,
    # whose refusal names the key, and is not argparse's "expected one
    # argument"
    monkeypatch.chdir(tmp_path)
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {error}\n")
    assert list(tmp_path.iterdir()) == []


def test_cli_linearize_fits_no_order_to_roundoff(capsys):
    # one step of 1e-12 leaves errors of 2e-14 and 4e-14, the roundoff of the
    # central quotients, eps max |g| / (2 e): their "order" of -1.06 meant
    # nothing and is null.  At 1e-6 the errors, 3e-11 and 8e-12, stand well
    # above it and give the order 2
    for t_end, order in (("1e-12", None), ("1e-6", 2.0)):
        assert cli_main(["linearize", "--t-end", t_end, "--dt", t_end]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["observed_order"] == pytest.approx(order, abs=1e-2)


def test_configs_directory_loads():
    import glob
    import os
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = sorted(glob.glob(os.path.join(here, "configs", "*.json")))
    assert paths, "expected shipped scenario configurations"
    for path in paths:
        cfg = load_config(path)
        assert cfg.dt > 0


def test_cli_import_leaves_scipy_optimize_unloaded():
    # the library never imports scipy: not with the CLI, and not through a
    # collapse (a whole-step one and one found by bisecting a failed step),
    # its blow-up fit or the scale ODE's root
    import os
    import subprocess
    import sys

    import riemflow
    src = os.path.dirname(os.path.dirname(os.path.abspath(riemflow.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = "\n".join([
        "import sys, riemflow.cli",
        "print('scipy.optimize' in sys.modules)",
        "from riemflow.charts import AnalyticChart, MetricField",
        "from riemflow.families import make_family",
        "from riemflow.flow import integrate_flow, monitor_blow_up",
        "from riemflow.wave import constant_curvature_wave_ode",
        "fam = make_family('hyperbolic-poincare', 3)",
        "fld = MetricField.from_function(AnalyticChart(3, [0.0] * 3, 1e-2), fam.metric_function)",
        "assert integrate_flow(fld, 'riemann-induced', 1.5, 1.2).termination == 'collapse'",
        "monitor_blow_up(integrate_flow(fld, 'riemann-induced', 1e-2, 2.0))",
        "assert constant_curvature_wave_ode(1.0, 0.0, 1e-2, 3.0).collapse_time is not None",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    out = subprocess.run([sys.executable, "-c", script],
                         env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.split("\n")[:2] == ["False", "[]"]


def test_library_source_imports_no_scipy():
    import ast
    paths = sorted((Path(__file__).resolve().parents[1] / "src" / "riemflow").glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert not any(name.split(".")[0] == "scipy" for name in names), (path, node.lineno)


def test_numpy_is_the_only_install_dependency():
    # scipy is an oracle of the tests, demos and benchmark, so it is in the
    # test extra
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    deps = project["dependencies"]
    assert len(deps) == 1 and deps[0].startswith("numpy")
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])


# ---------------------------------------------------------------------------
# diagonal-lame expressions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("expr", ["().__class__.__base__.__subclasses__()", "x1.__class__",
                                  "__import__('os')", "x4", "pi(1)", "sin(x=x1)", "x1 // 2",
                                  "x1 if x1 else 2", "True", "'1'", "1 +"])
def test_diagonal_lame_refuses_expressions_outside_the_whitelist(expr):
    with pytest.raises(SchemaError, match="diagonal-lame expression"):
        make_family("diagonal-lame", 3, {"expressions": [expr, "1", "1"]})


def test_diagonal_lame_evaluates_like_the_expression():
    # the parsed code object evaluates the expression itself, bit for bit
    exprs = ["1 + 0.1 * sin(x1) * cos(2 * x2)", "exp(-x2 ** 2 / 2) + tanh(x3) / pi",
             "sqrt(2.0 + abs(x1 - x3)) * cosh(0.3 * x2) - -1"]
    fam = make_family("diagonal-lame", 3, {"expressions": exprs})
    x = np.random.default_rng(5).uniform(-1.0, 1.0, size=(4, 6, 3))
    namespace = {f"x{k + 1}": x[..., k] for k in range(3)}
    namespace.update(_SAFE_FUNCS)
    for H, expr in zip(fam.lame, exprs):
        assert np.array_equal(H(x), eval(expr, {"__builtins__": {}}, namespace))


def test_diagonal_lame_constants_start_no_integer_arithmetic():
    # 9 ** 9 ** 9 would run for minutes as integer arithmetic; as floats it
    # overflows at once
    fam = make_family("diagonal-lame", 3, {"expressions": ["9 ** 9 ** 9", "1", "1"]})
    with pytest.raises(OverflowError):
        fam.metric_function(np.zeros((1, 3)))
    with pytest.raises(SchemaError, match="out of range"):
        make_family("diagonal-lame", 3, {"expressions": ["1" + "0" * 400, "1", "1"]})


def test_cli_run_refuses_a_dunder_expression(tmp_path, capsys):
    cfg = _base_cfg(tmp_path, family={"name": "diagonal-lame", "params": {
        "expressions": ["1", "x1.__class__", "1"]}},
        chart={"dimension": 3, "kind": "analytic-point", "point": [0.0, 0.0, 0.0]})
    path = _write(tmp_path, cfg, "dunder.json")
    assert cli_main(["run", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "x1.__class__" in err


# ---------------------------------------------------------------------------
# every configuration error is refused at load
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("overrides, key", [
    ({"chart": {"dimension": 3, "kind": "periodic-grid", "points_per_axis": 4}}, "chart"),
    ({"family": {"name": "conformal-torus", "params": {"amplitud": 0.1}}}, "amplitud"),
    ({"family": {"name": "diagonal-lame", "params": {"expressions": ["1", "1"]}},
      "chart": {"dimension": 3, "kind": "analytic-point"}}, "expressions"),
    ({"family": {"name": "conformal-torus", "params": {"phases": [0.1, 0.2]}}}, "params"),
    ({"law": {"name": "scale-ode", "lamda": 1.0}}, "lamda"),
    ({"law": {"name": "scale-ode", "lam": "one"}}, "lam"),
    ({"law": {"name": "conformal-wave", "velocity": "left-mover"}}, "velocity"),
    ({"law": {"name": "conformal-wave", "points": 0}}, "points"),
    ({"law": {"name": "conformal-wave", "points": 2}}, "points"),
    ({"law": {"name": "conformal-wave", "length": -1.0}}, "length"),
    ({"law": {"name": "conformal-wave", "length": 0}}, "length"),
    ({"tolerances": {"identity": 1e-12}}, "tolerances"),
    ({"family": {"name": "sphere-stereographic"}}, "chart"),
    ({"seed": -1}, "seed"),
    ({"integrator": {"dt": float("nan"), "t_end": 0.5}}, "dt"),
    ({"integrator": {"dt": 0.05, "t_end": float("inf")}}, "t_end"),
    ({"law": {"name": "scale-ode", "lam": float("nan")}}, "lam"),
    ({"law": {"name": "conformal-wave", "length": float("inf")}}, "length"),
    ({"law": {"name": "general-flow", "beta": float("nan")}}, "law"),
    ({"stop": {"curvature_cap": float("nan")}}, "curvature_cap"),
    ({"stop": {"collapse_threshold": float("inf")}}, "collapse_threshold"),
    ({"initial_velocity_scale": float("-inf")}, "initial_velocity_scale"),
    ({"family": {"name": "hyperbolic-poincare"},
      "chart": {"kind": "analytic-point", "step": float("inf")}}, "chart"),
    ({"family": {"name": "hyperbolic-poincare"},
      "chart": {"kind": "analytic-point", "point": [float("nan"), 0.0, 0.0]}}, "chart"),
], ids=["grid-points", "family-parameter", "lame-table-length", "torus-phases",
        "scale-ode-parameter",
        "scale-ode-value", "conformal-velocity", "conformal-no-points",
        "conformal-two-points", "conformal-negative-length", "conformal-zero-length",
        "tolerances", "non-periodic-grid", "negative-seed", "nan-dt", "infinite-t-end",
        "nan-scale-ode-value", "conformal-infinite-length", "nan-law-parameter",
        "nan-curvature-cap", "infinite-collapse-threshold", "infinite-velocity-scale",
        "infinite-analytic-step", "nan-analytic-point"])
def test_config_errors_are_refused_at_load(tmp_path, overrides, key):
    with pytest.raises(SchemaError) as err:
        config_from_dict(_base_cfg(tmp_path, **overrides))
    assert err.value.key == key


@pytest.mark.parametrize("key, overrides, fraction", [
    ("mode", lambda v: {"family": {"name": "conformal-torus", "params": {"mode": v}}}, 1.5),
    ("mode", lambda v: {"law": {"name": "conformal-wave", "mode": v}}, 1.5),
    ("points", lambda v: {"law": {"name": "conformal-wave", "points": v}}, 256.9),
    ("stride", lambda v: {"integrator": {"dt": 0.05, "t_end": 0.5, "stride": v}}, 2.7),
    ("points_per_axis", lambda v: {"chart": {"dimension": 3, "kind": "periodic-grid",
                                             "points_per_axis": [8, v, 8]}}, 8.5),
    ("dimension", lambda v: {"chart": {"dimension": v, "kind": "periodic-grid",
                                       "points_per_axis": 8}}, 3.5),
    ("seed", lambda v: {"seed": v}, 2.7),
], ids=["torus-mode", "wave-mode", "points", "stride", "points-per-axis", "dimension", "seed"])
def test_fractional_counts_are_refused(tmp_path, key, overrides, fraction):
    # a whole-number parameter given a fraction is refused, not truncated;
    # the same value as a whole float loads
    with pytest.raises(SchemaError) as err:
        config_from_dict(_base_cfg(tmp_path, **overrides(fraction)))
    assert err.value.key == key
    config_from_dict(_base_cfg(tmp_path, **overrides(float(int(fraction)))))


def _torus_run(tmp_path, name, chart_lengths=None):
    chart = {"dimension": 3, "kind": "periodic-grid", "points_per_axis": 8}
    if chart_lengths is not None:
        chart["lengths"] = chart_lengths
    cfg = _base_cfg(tmp_path, id=name, chart=chart,
                    family={"name": "conformal-torus",
                            "params": {"amplitude": 0.05, "lengths": [1, 1, 1]}},
                    integrator={"dt": 1e-4, "t_end": 2e-4, "stride": 1},
                    output={"csv": str(tmp_path / f"{name}.csv"),
                            "summary": str(tmp_path / f"{name}.json")})
    return config_from_dict(cfg)


def test_grid_chart_takes_the_torus_periods(tmp_path):
    # a conformal torus of period 1 is sampled on the torus of side 1 whether
    # or not the chart repeats its lengths; other lengths are refused
    for name, lengths in (("implicit", None), ("explicit", [1, 1, 1])):
        run_scenario(_torus_run(tmp_path, name, lengths))
    first = [(tmp_path / f"{name}.csv").read_text().splitlines()[1]
             for name in ("implicit", "explicit")]
    assert first[0] == first[1]
    with pytest.raises(SchemaError) as err:
        _torus_run(tmp_path, "mismatch", [2.0 * np.pi] * 3)
    assert err.value.key == "lengths"


def test_cli_run_refuses_a_bad_file_before_running_any(tmp_path, capsys):
    good = _write(tmp_path, _base_cfg(tmp_path), "good.json")
    bad = _write(tmp_path, _base_cfg(tmp_path, id="bad", law={"name": "scale-ode",
                                                              "lamda": 1.0}), "bad.json")
    assert cli_main(["run", good, bad]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "lamda" in err
    assert not (tmp_path / "out.csv").exists()


def test_load_config_refuses_a_value_of_the_wrong_type(tmp_path):
    path = _write(tmp_path, _base_cfg(tmp_path, integrator={"dt": "fast"}))
    with pytest.raises(SchemaError, match="fast"):
        load_config(path)


def test_cli_curvature_refuses_a_short_lame_table(capsys):
    assert cli_main(["curvature", "--family", "diagonal-lame", "--lame", "1", "1",
                     "-n", "3"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
