"""Tests of the benchmark itself: a tiny pass of every workload, and
checkers that reject outputs perturbed beyond their tolerances.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

symlap = run._import_symlap()


def _outputs(workload, seed=5):
    """The tiny jobs of one round with their outputs; failed jobs drop."""
    call = W.runner(workload, symlap.cli, symlap.verify)
    out = []
    for job in W.ROUNDS[workload](seed, 0, tiny=True):
        try:
            out.append((job, call(job)))
        except symlap.RootFindingError:
            assert job.expect_error == "RootFindingError"
    return out


def _replace_row(text, row, column, value):
    lines = text.splitlines()
    cells = lines[row + 1].split(",")
    cells[column] = repr(float(value))
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_tiny_pass(workload):
    result = run.run_workload(workload, seed=7, seconds=0, trace=False,
                              tiny=True, setup_probes=1)
    assert result["correct"]
    assert result["attempted"] == len(W.ROUNDS[workload](7, 0, tiny=True))
    expected_failing = sum(j.expect_error is not None
                           for j in W.ROUNDS[workload](7, 0, tiny=True))
    assert result["failed"] <= expected_failing
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    for name, unit in run.END_TO_END:
        assert result["metrics"][name] == {
            "value": result["metrics"][name]["value"], "unit": unit}
        assert result["metrics"][name]["value"] > 0


def test_tiny_traced_pass_reports_every_layer(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    result = run.run_workload("split-invert", seed=7, seconds=0, trace=True,
                              tiny=True, setup_probes=1)
    assert result["correct"]
    assert list(result["metrics"]) == [name for name, _ in spans.PER_LAYER]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["inversion.partial_fractions.calls_per_pt"] >= 1
    assert m["expr.den_degree"] > 0
    assert m["forward.sl_forward.us_per_pt"] == 0
    doc = json.loads((tmp_path / "trace-split-invert-seed7.json").read_text())
    assert doc["spans"]


def test_rescale_divides_out_the_host_speed():
    nominal = hostspeed.REF_UNIT_S
    assert hostspeed.rescale(0.3, nominal, nominal) == pytest.approx(0.3)
    # a host twice as slow during the job: the job counts half
    assert hostspeed.rescale(0.3, 2 * nominal, 2 * nominal) == pytest.approx(
        0.15)
    assert hostspeed.rescale(0.3, nominal, 3 * nominal) == pytest.approx(
        0.15)
    assert hostspeed.unit() == hostspeed.unit()
    assert hostspeed.seconds_per_unit(2) > 0


def test_benchmark_json_matches_the_runner():
    doc = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert run.WORKLOADS == W.WORKLOADS
    assert {w["name"] for w in doc["workloads"]} <= set(W.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(
        spans.PER_LAYER)


def test_rounds_have_fixed_shape_and_failures():
    for workload, make in W.ROUNDS.items():
        shapes = {tuple((j.points, j.expect_error) for j in make(seed, r))
                  for seed in (1, 2, 99) for r in (0, 3)}
        assert len(shapes) == 1, workload
    failing = [j for j in W.split_round(1, 0) if j.expect_error]
    assert [j.args for j in failing] == [j.args for j in W.split_round(8, 5)
                                         if j.expect_error]


def test_same_seed_same_inputs():
    for make in W.ROUNDS.values():
        assert [j.args for j in make(3, 2)] == [j.args for j in make(3, 2)]
    assert ([j.args for j in W.forward_round(3, 0)]
            != [j.args for j in W.forward_round(4, 0)])


def test_forward_checker_rejects_perturbed_value_and_estimate():
    for job, text in _outputs("forward-grid"):
        assert W.check_forward(job, text) is None
        rows = W.parse_csv(text, "y,re,im,err")
        tol = job.args[4]
        bad = _replace_row(text, 1, 1, rows[1, 1] + 2 * tol)
        assert W.check_forward(job, bad) is not None
        bad = _replace_row(text, 2, 3, 2 * tol)
        assert W.check_forward(job, bad) is not None


def test_split_checker_rejects_perturbed_value():
    for job, text in _outputs("split-invert"):
        assert W.check_split(job, text) is None
        rows = W.parse_csv(text, "t,re,im")
        t = rows[:, 0]
        allow = W.SPLIT_RTOL * job.oracle.scale(t) + W.SPLIT_ATOL
        k = len(t) // 2
        bad = _replace_row(text, k, 2, rows[k, 2] + 2 * allow[k])
        assert W.check_split(job, bad) is not None


def test_numeric_checker_rejects_perturbed_value_and_sensitivity():
    for job, text in _outputs("numeric-invert"):
        assert W.check_numeric(job, text) is None
        expr_text, x1, x2, t, A, tol = job.args
        rows = W.parse_csv(text, "t,re,im,a_sensitivity")
        allow = W.numeric_allowance(job.oracle, x1, x2, t, A, tol)
        bad = _replace_row(text, 0, 1, rows[0, 1] + 2 * allow)
        assert W.check_numeric(job, bad) is not None
        half = W.numeric_allowance(job.oracle, x1, x2, t, A / 2, tol)
        bad = _replace_row(text, 0, 3, 2 * (allow + half))
        assert W.check_numeric(job, bad) is not None


def test_numeric_allowance_is_tight_enough_to_matter():
    # the sign signal at t = 1, A = 1000: the truncation error is of order
    # 1/(pi A t), and the allowance must not be wider than a few times that
    tf = W._numeric_transform(np.random.default_rng(0), 0)
    allow = W.numeric_allowance(tf, 0.5, 0.5, 1.0, 1000.0, 1e-6)
    assert allow < 10 / (np.pi * 1000.0)


def test_verify_checker_rejects_failures_and_drift():
    [(job, text)] = _outputs("verify-suite")
    assert W.check_verify(job, text) is None
    doc = json.loads(text)
    doc["criteria"][3]["status"] = "fail"
    doc["all_pass"] = False
    assert W.check_verify(job, json.dumps(doc)) is not None
    doc = json.loads(text)
    doc["criteria"][0]["measured"] *= 1.5
    assert W.check_verify(job, json.dumps(doc, indent=2) + "\n",
                          first=text) is not None
    doc["criteria"].pop()
    assert W.check_verify(job, json.dumps(doc)) is not None


def test_closed_forms_agree_with_direct_quadrature():
    """The forward oracle is checked against scipy quadrature, which
    shares no code with symlap."""
    from scipy.integrate import quad

    def direct(sig, x1, x2, y, freq):
        f = {"sign": (lambda u: 1.0, lambda u: -1.0),
             "one": (lambda u: 1.0, lambda u: 1.0),
             "heaviside": (lambda u: 1.0, lambda u: 0.0),
             "ramp": (lambda u: u, lambda u: -u),
             "sincos": (lambda u: np.sin(freq * u),
                        lambda u: np.cos(freq * u)),
             "cossin": (lambda u: np.cos(freq * u),
                        lambda u: -np.sin(freq * u)),
             "ode_rhs": (lambda u: np.exp(u), lambda u: 1.0),
             "gauss": (lambda u: np.exp(-u * u), lambda u: np.exp(-u * u)),
             }[sig]
        total = 0j
        for piece, x, yy in ((f[0], x1, y), (f[1], x2, -y)):
            for part in (np.cos, lambda v: -np.sin(v)):
                # exp(-x u) < 1e-39 beyond u = 60 for every x used here
                val, _ = quad(lambda u: piece(u) * np.exp(-x * u)
                              * part(yy * u), 0, 60.0, limit=400)
                total += val if part is np.cos else 1j * val
        return total

    for sig in W.SIGN_LIKE + W.TRIG + ("ramp", "ode_rhs", "gauss"):
        x1, x2, y, freq = 2.5, 1.5, 0.7, 2.0
        closed = complex(W.forward_closed(sig, x1, x2, [y], freq)[0])
        assert abs(closed - direct(sig, x1, x2, y, freq)) < 1e-7, sig


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "forward-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
