"""Span tracing of riemflow's layers from outside the library.

:func:`install` wraps public functions of each layer wherever riemflow looks
them up: every loaded ``riemflow`` module whose globals hold the function gets
the wrapper, so ``riemflow.flow.riemann`` is traced inside the flow stepping
loop and ``riemflow.charts.analytic_scalar_jet`` where ``MetricField.jets``
calls it.  No file of the library is edited.

A span is (name, start, end, parent, operation, amount): the parent is the
index of the enclosing span (-1 at top level), the operation is the
identifier shared by every span of one benchmark operation, and the amount is
a per-call count some layers report (samples, records, steps, bytes).  Spans
stay in memory and are written once, by :meth:`Tracer.write`.
"""

import inspect
import json
import os
import sys
import time

import riemflow
from riemflow.charts import MetricField


# amounts reported per call, from the call's bound arguments and its result
def _samples(arguments, result):
    return arguments["field"].chart.sample_count


def _records(arguments, result):
    return len(result.times)


def _steps(arguments, result):
    return int(round(result.times[-1] / arguments["dt"]))


def _output_bytes(arguments, result):
    cfg = arguments["cfg"]
    return os.path.getsize(cfg.csv_path) + os.path.getsize(cfg.summary_path)


# (layer module, public function, amount or None); the span is named
# "<layer>.<function>"
TRACED = (
    ("charts", "analytic_scalar_jet", None),
    ("charts", "grid_scalar_jet", None),
    ("curvature", "riemann", _samples),
    ("curvature", "christoffel_from_jets", None),
    ("curvature", "tensor_norm", None),
    ("flow", "solve_pair_trace", None),
    ("flow", "integrate_flow", _records),
    ("flow", "monitor_blow_up", None),
    ("wave", "integrate_wave", None),
    ("wave", "conformally_flat_wave_solve", _steps),
    ("wave", "constant_curvature_wave_ode", None),
    ("variation", "integrate_linearized_flow", None),
    ("variation", "linearized_flow_rhs", None),
    ("scenarios", "run_scenario", _output_bytes),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.operation = None
        self._stack = []

    def wrap(self, name, fn, amount=None):
        tracer = self
        signature = inspect.signature(fn) if amount is not None else None

        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = [name, start, end, parent, tracer.operation, 0]
            if amount is not None:
                arguments = signature.bind(*args, **kwargs).arguments
                tracer.spans[index][5] = amount(arguments, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "operation", "amount"],
                       "names": names,
                       "spans": [[index[s[0]]] + s[1:] for s in self.spans]}, fh)


def install(tracer):
    """Wrap every function in :data:`TRACED` and ``MetricField.validate_spd``."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "riemflow" or name.startswith("riemflow."))]
    for layer, attr, amount in TRACED:
        original = getattr(getattr(riemflow, layer), attr)
        wrapper = tracer.wrap(f"{layer}.{attr}", original, amount)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    MetricField.validate_spd = tracer.wrap("charts.validate_spd", MetricField.validate_spd)


def _totals(spans, first):
    """Per span name: calls, inclusive time, self time and summed amount of
    ``spans[first:]``, a whole number of top-level spans."""
    child = [0.0] * (len(spans) - first)
    for name, start, end, parent, _, _ in spans[first:]:
        if parent >= 0:
            child[parent - first] += end - start
    out = {}
    for k, (name, start, end, _, _, amount) in enumerate(spans[first:]):
        calls, incl, self_, total = out.get(name, (0, 0.0, 0.0, 0))
        out[name] = (calls + 1, incl + end - start, self_ + end - start - child[k],
                     total + amount)
    return out


def layer_metrics(spans, first=0):
    """Per-layer metrics of the round whose spans are ``spans[first:]``, as
    {name: (value, unit)}."""
    totals = _totals(spans, first)

    def get(name, field):
        entry = totals.get(name)
        return entry[field] if entry else 0

    calls, incl, self_, amount = 0, 1, 2, 3
    riemann_time = get("curvature.riemann", incl)
    return {
        "charts.analytic_jet_s": (get("charts.analytic_scalar_jet", incl), "s"),
        "charts.analytic_jet_calls": (get("charts.analytic_scalar_jet", calls), "count"),
        "charts.grid_jet_s": (get("charts.grid_scalar_jet", incl), "s"),
        "charts.grid_jet_calls": (get("charts.grid_scalar_jet", calls), "count"),
        "charts.validate_spd_s": (get("charts.validate_spd", incl), "s"),
        "curvature.riemann_s": (get("curvature.riemann", self_), "s"),
        "curvature.riemann_calls": (get("curvature.riemann", calls), "count"),
        "curvature.christoffel_s": (get("curvature.christoffel_from_jets", incl), "s"),
        "curvature.tensor_norm_s": (get("curvature.tensor_norm", incl), "s"),
        "curvature.tensor_norm_calls": (get("curvature.tensor_norm", calls), "count"),
        "curvature.riemann_samples_per_s": (
            get("curvature.riemann", amount) / riemann_time if riemann_time else 0.0,
            "samples/s"),
        "flow.solve_pair_trace_s": (get("flow.solve_pair_trace", incl), "s"),
        "flow.self_s": (get("flow.integrate_flow", self_), "s"),
        "flow.records": (get("flow.integrate_flow", amount), "count"),
        "flow.monitor_blow_up_s": (get("flow.monitor_blow_up", incl), "s"),
        "wave.self_s": (get("wave.integrate_wave", self_), "s"),
        "wave.conformal_solve_s": (get("wave.conformally_flat_wave_solve", incl), "s"),
        "wave.conformal_steps": (get("wave.conformally_flat_wave_solve", amount), "count"),
        "wave.scale_ode_s": (get("wave.constant_curvature_wave_ode", incl), "s"),
        "variation.linearized_rhs_s": (get("variation.linearized_flow_rhs", incl), "s"),
        "variation.linearized_rhs_calls": (get("variation.linearized_flow_rhs", calls),
                                           "count"),
        "variation.self_s": (get("variation.integrate_linearized_flow", self_)
                             + get("variation.linearized_flow_rhs", self_), "s"),
        "scenarios.self_s": (get("scenarios.run_scenario", self_), "s"),
        "scenarios.output_bytes": (get("scenarios.run_scenario", amount), "bytes"),
    }
