"""In-memory spans around the public functions of each symlap layer.

A traced run replaces each function below, in every symlap module that
binds it (so ``symlap.forward.half_line_integral`` and
``symlap.rules.half_line_integral`` both record), with a wrapper that
appends one span: name, start, end, parent span and job id, plus a few
numbers read off the call (evaluations, error estimate over tol,
denominator degree, values evaluated).  Spans stay in memory and are
written out once, when the run ends.  End-to-end figures never come
from a traced run.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np


def _budget(args, kwargs, result):
    """half_line_integral(integrand, bound, x, tol, ...): evaluations and
    the reported estimate as a share of tol."""
    tol = kwargs["tol"] if "tol" in kwargs else args[3]
    return result.evaluations, result.abs_error_estimate / tol


# (module, function, span name, numbers read off (args, kwargs, result))
LAYERS = (
    ("quadrature", "half_line_integral", "quadrature.half_line", _budget),
    ("quadrature", "finite_oscillatory_integral", "quadrature.finite_osc",
     lambda a, kw, r: (r.evaluations,)),
    ("forward", "sl_forward", "forward.sl_forward", None),
    ("expr", "parse_transform", "expr.parse_transform",
     lambda a, kw, r: (r.g1.den.degree + r.g2.den.degree,)),
    ("expr", "polynomial_roots", "expr.polynomial_roots", None),
    ("expr", "evaluate_rational", "expr.evaluate_rational",
     lambda a, kw, r: (int(np.size(a[1])),)),
    ("inversion", "partial_fractions", "inversion.partial_fractions", None),
    ("inversion", "sl_inverse_split", "inversion.sl_inverse_split", None),
    ("inversion", "sl_inverse_numeric", "inversion.sl_inverse_numeric", None),
    ("rules", "check_rule_consistency", "rules.check_rule_consistency", None),
    ("applications", "heat_transform_pair",
     "applications.heat_transform_pair", None),
    ("applications", "ode_transform_check",
     "applications.ode_transform_check", None),
)

VERIFY_IDS = ("example1_grid", "examples_2_3_grid", "reductions",
              "kernel_witness", "split_inversion", "numeric_inversion",
              "derivative_rules", "heat_application", "ode_application",
              "determinism")

# (metric, unit) in the order BENCHMARK.json lists them
PER_LAYER = (
    ("quadrature.half_line.calls", "count"),
    ("quadrature.half_line.evals_per_call", "count"),
    ("quadrature.half_line.ns_per_eval", "ns"),
    ("quadrature.half_line.budget_use", "ratio"),
    ("quadrature.finite_osc.calls", "count"),
    ("quadrature.finite_osc.evals_per_call", "count"),
    ("quadrature.finite_osc.ns_per_eval", "ns"),
    ("forward.sl_forward.us_per_pt", "us"),
    ("forward.sl_forward.evals_per_pt", "count"),
    ("expr.parse_transform.us_per_call", "us"),
    ("expr.polynomial_roots.us_per_call", "us"),
    ("expr.den_degree", "count"),
    ("expr.evaluate_rational.ns_per_value", "ns"),
    ("inversion.partial_fractions.calls_per_pt", "count"),
    ("inversion.partial_fractions.us_per_call", "us"),
    ("inversion.sl_inverse_split.us_per_pt", "us"),
    ("inversion.sl_inverse_numeric.ms_per_call", "ms"),
    ("rules.check_rule_consistency.ms_per_call", "ms"),
    ("applications.heat_transform_pair.ms_per_call", "ms"),
    ("applications.ode_transform_check.ms_per_call", "ms"),
    *((f"verify.{cid}.ms", "ms") for cid in VERIFY_IDS),
    ("cli.format_share", "ratio"),
    ("setup.import_numpy_s", "s"),
    ("setup.import_symlap_s", "s"),
)

NAME, START, END, PARENT, JOB, EXTRA = range(6)


class Tracer:
    """Records spans while installed; ``job`` tags spans with the job id."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []
        self.job = -1

    def wrap(self, name, fn, extra=None):
        spans, stack, now = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = now()
                stack.pop()
            if extra is not None:
                rec[EXTRA] = extra(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every layer function wherever a symlap module binds it,
        and each criterion of the verify suite."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "symlap" or n.startswith("symlap.")]
        for mod_name, fn_name, span_name, extra in LAYERS:
            orig = getattr(sys.modules[f"symlap.{mod_name}"], fn_name)
            traced = self.wrap(span_name, orig, extra)
            for mod in modules:
                if getattr(mod, fn_name, None) is orig:
                    self._restore.append((mod, fn_name, orig))
                    setattr(mod, fn_name, traced)
        verify = sys.modules["symlap.verify"]
        orig = verify.CRITERIA
        self._restore.append((verify, "CRITERIA", orig))
        verify.CRITERIA = tuple(
            self.wrap("verify." + fn.__name__.removeprefix("criterion_"), fn)
            for fn in orig)

    def uninstall(self):
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "job", "extra"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, rounds: int, setup: dict) -> dict:
    """Per-layer figures from the spans of a traced run.

    Counts are per round or per call and repeat exactly for a given
    seed; times are medians over calls.  A layer the workload never
    reaches reads 0.
    """
    by = {}
    for i, s in enumerate(spans):
        by.setdefault(s[NAME], []).append(i)
    child_ns = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += s[END] - s[START]

    def dur(i):
        return spans[i][END] - spans[i][START]

    def calls(name):
        return by.get(name, [])

    def done(name):
        """Calls that returned, with the numbers read off them."""
        return [i for i in calls(name) if spans[i][EXTRA] is not None]

    def med(name, scale):
        return _median([dur(i) * scale for i in calls(name)])

    out = {}
    for layer in ("quadrature.half_line", "quadrature.finite_osc"):
        ids = done(layer)
        evals = sum(spans[i][EXTRA][0] for i in ids)
        out[f"{layer}.calls"] = len(calls(layer)) / rounds
        out[f"{layer}.evals_per_call"] = evals / len(ids) if ids else 0.0
        out[f"{layer}.ns_per_eval"] = _median(
            [dur(i) / spans[i][EXTRA][0] for i in ids])
    out["quadrature.half_line.budget_use"] = _median(
        [spans[i][EXTRA][1] for i in done("quadrature.half_line")])

    fwd = set(calls("forward.sl_forward"))
    out["forward.sl_forward.us_per_pt"] = med("forward.sl_forward", 1e-3)
    fwd_evals = sum(spans[i][EXTRA][0] for i in done("quadrature.half_line")
                    if spans[i][PARENT] in fwd)
    out["forward.sl_forward.evals_per_pt"] = (fwd_evals / len(fwd)
                                              if fwd else 0.0)

    out["expr.parse_transform.us_per_call"] = med("expr.parse_transform",
                                                  1e-3)
    out["expr.polynomial_roots.us_per_call"] = med("expr.polynomial_roots",
                                                   1e-3)
    out["expr.den_degree"] = sum(
        spans[i][EXTRA][0] for i in done("expr.parse_transform")) / rounds
    out["expr.evaluate_rational.ns_per_value"] = _median(
        [dur(i) / spans[i][EXTRA][0] for i in done("expr.evaluate_rational")
         if spans[i][EXTRA][0]])

    split_pts = len(calls("inversion.sl_inverse_split"))
    out["inversion.partial_fractions.calls_per_pt"] = (
        len(calls("inversion.partial_fractions")) / split_pts
        if split_pts else 0.0)
    out["inversion.partial_fractions.us_per_call"] = med(
        "inversion.partial_fractions", 1e-3)
    out["inversion.sl_inverse_split.us_per_pt"] = med(
        "inversion.sl_inverse_split", 1e-3)
    for name in ("inversion.sl_inverse_numeric",
                 "rules.check_rule_consistency",
                 "applications.heat_transform_pair",
                 "applications.ode_transform_check"):
        out[f"{name}.ms_per_call"] = med(name, 1e-6)
    for cid in VERIFY_IDS:
        out[f"verify.{cid}.ms"] = med(f"verify.{cid}", 1e-6)

    jobs = calls("job")
    total = sum(dur(i) for i in jobs)
    own = sum(dur(i) - child_ns[i] for i in jobs)
    out["cli.format_share"] = own / total if total else 0.0
    out["setup.import_numpy_s"] = setup["import_numpy_s"]
    out["setup.import_symlap_s"] = setup["import_symlap_s"]
    return {name: out[name] for name, _ in PER_LAYER}
