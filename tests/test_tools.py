import importlib.util
from pathlib import Path

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
