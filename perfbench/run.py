"""Benchmark for symlap: forward grids, split and numeric inversion, and
the verify suite.

    python3 perfbench/run.py --workload forward-grid --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: symlap is imported from that
checkout's ``src/``.  ``--workload all`` runs every workload in turn in
this one process.  Each workload prints its metrics one per line, by
name and unit, with the operations attempted and failed.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer ones with ``--trace 1``.  With ``all`` it combines the
workloads and prefixes each metric name with its workload.  End-to-end
times are rescaled to a nominal host speed by a reference computation
timed between jobs (hostspeed.py).  perfbench/README.md says what each
metric means.

Only the standard library is imported at the top, so that the
fresh-interpreter set-up probes (``--probe``) time the numpy and symlap
imports themselves.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("forward-grid", "split-invert", "numeric-invert", "verify-suite")

SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
# Reference units timed around each set-up probe (about 15 ms).  Before
# each job, the reference takes about REF_SHARE of the job's time, within
# 1 and MAX_REF_UNITS units (about 50 ms).
SETUP_REF_UNITS = 24
REF_SHARE = 0.15
MAX_REF_UNITS = 80

END_TO_END = (
    ("setup_s", "s"),
    ("pts_per_s", "points/s"),
    ("job_p50_ms", "ms"),
    ("cpu_ms_per_pt", "ms/point"),
    ("peak_rss_mb", "MB"),
)


def _import_symlap():
    """Import symlap from the checkout's src/, and nothing else."""
    sys.path.insert(0, str(SRC_DIR))
    import symlap
    import symlap.cli
    import symlap.verify

    if Path(symlap.__file__).resolve().parent != SRC_DIR / "symlap":
        raise SystemExit(f"perfbench: imported symlap from {symlap.__file__},"
                         f" not from {SRC_DIR}")
    return symlap


def probe(workload: str, seed: int) -> None:
    """One fresh start: import numpy, import symlap, build the inputs."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    _import_symlap()
    t2 = time.perf_counter()
    import workloads

    workloads.ROUNDS[workload](seed, 0)
    print(json.dumps({"import_numpy_s": t1 - t0, "import_symlap_s": t2 - t1}),
          flush=True)


def measure_setup(workload: str, seed: int, n: int = SETUP_PROBES) -> dict:
    """Medians over n fresh interpreters: the time from spawning one to
    its being ready (imports done, inputs built), rescaled to the
    nominal host speed by reference samples taken around it, and its two
    imports as measured."""
    import hostspeed

    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", workload, "--seed", str(seed)]
    total, numpy_s, symlap_s = [], [], []
    before = hostspeed.seconds_per_unit(SETUP_REF_UNITS)
    for _ in range(n):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            try:
                proc.wait(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise SystemExit("perfbench: set-up probe did not exit")
        if proc.returncode != 0 or not line:
            raise SystemExit(
                f"perfbench: set-up probe failed ({proc.returncode})")
        after = hostspeed.seconds_per_unit(SETUP_REF_UNITS)
        doc = json.loads(line)
        total.append(hostspeed.rescale(ready - t0, before, after))
        numpy_s.append(doc["import_numpy_s"])
        symlap_s.append(doc["import_symlap_s"])
        before = after
    return {"setup_s": statistics.median(total),
            "import_numpy_s": statistics.median(numpy_s),
            "import_symlap_s": statistics.median(symlap_s)}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, setup_probes: int = SETUP_PROBES):
    """Run whole rounds of the workload until ``seconds`` of wall time
    have passed, checking every output.  Returns the result object that
    run.py prints."""
    setup = measure_setup(workload, seed, setup_probes)
    symlap = _import_symlap()
    import hostspeed
    import spans
    import workloads

    make_round = workloads.ROUNDS[workload]
    run = workloads.runner(workload, symlap.cli, symlap.verify)
    tracer = spans.Tracer() if trace else None
    if tracer:
        tracer.install()
        run = tracer.wrap("job", run)

    # (round, template, wall s, cpu s, reference s per unit before and
    # after the job)
    timing = []
    ref_units = None   # reference units before each template's job
    returned = set()   # templates whose jobs return
    problems = []
    attempted = failed = points = 0
    check = workloads.Checker(workload)
    rounds = 0
    hostspeed.seconds_per_unit(SETUP_REF_UNITS)   # warm-up
    start = time.perf_counter()
    try:
        while rounds == 0 or time.perf_counter() - start < seconds:
            outputs, jobs_timed, refs = [], [], []
            for k, job in enumerate(make_round(seed, rounds, tiny)):
                refs.append(hostspeed.seconds_per_unit(
                    ref_units[k] if ref_units else 1))
                if tracer:
                    tracer.job = attempted + k
                c0 = time.process_time()
                t0 = time.perf_counter()
                try:
                    out, err = run(job), None
                except Exception as exc:  # a failed job; the run goes on
                    out, err = None, f"{type(exc).__name__}: {exc}"
                jobs_timed.append((time.perf_counter() - t0,
                                   time.process_time() - c0))
                outputs.append((k, job, out, err))
            refs.append(hostspeed.seconds_per_unit(
                ref_units[-1] if ref_units else 1))
            timing += [(rounds, k, w, c, refs[k], refs[k + 1])
                       for k, (w, c) in enumerate(jobs_timed)]
            if rounds == 0:
                # every round has the same jobs, so the first round's
                # peak is the workload's; the checks below import scipy
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
                unit_s = statistics.median(refs)
                ref_units = [min(MAX_REF_UNITS,
                                 max(1, round(REF_SHARE * w / unit_s)))
                             for w, _ in jobs_timed]
            rounds += 1
            # outputs are checked between rounds and then dropped, so
            # memory does not grow with the number of rounds
            for k, job, out, err in outputs:
                attempted += 1
                if err is not None:
                    failed += 1
                    if job.expect_error is None or not err.startswith(
                            job.expect_error + ":"):
                        problems.append(f"{job.template}: unexpected {err}")
                    continue
                returned.add(k)
                points += job.points
                problem = check(job, out)
                if problem:
                    problems.append(f"{job.template}: {problem}")
    finally:
        if tracer:
            tracer.uninstall()
    for p in problems[:5]:
        print(f"perfbench: {workload}: {p}", file=sys.stderr)

    wall = sum(t[2] for t in timing)
    cpu = sum(t[3] for t in timing)
    unit_s = statistics.median(t[4] for t in timing)
    print(f"perfbench: {workload} seed={seed} trace={int(trace)}: {rounds} "
          f"rounds, {attempted} jobs, {points} points in {wall:.2f} s, "
          f"{points / wall:.1f} points/s as measured, cpu/wall "
          f"{cpu / wall:.2f}, reference unit {unit_s * 1e6:.0f} us"
          f" (nominal {hostspeed.REF_UNIT_S * 1e6:.0f})", file=sys.stderr)
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{workload}-seed{seed}.json")
        values = spans.layer_metrics(tracer.spans, rounds, setup)
        units = dict(spans.PER_LAYER)
    else:
        # Each job's wall and CPU time, rescaled to the nominal host by
        # the reference samples on either side of it.  Every round runs
        # the same job templates; the first round is a warm-up when
        # there are more.  A template's time is its mean over rounds:
        # the host switches between spells in which symlap and the
        # reference keep different ratios, and a mean blends them where a
        # median over a few rounds jumps from one to another.
        first = 1 if rounds > 1 else 0
        n = len(timing) // rounds
        wall_by = [[] for _ in range(n)]
        cpu_by = [[] for _ in range(n)]
        for r, k, w, c, before, after in timing:
            if r >= first:
                wall_by[k].append(hostspeed.rescale(w, before, after))
                cpu_by[k].append(hostspeed.rescale(c, before, after))
        job_wall = [statistics.fmean(v) for v in wall_by]
        job_cpu = [statistics.fmean(v) for v in cpu_by]
        values = {
            "setup_s": setup["setup_s"],
            "pts_per_s": points / rounds / sum(job_wall),
            "job_p50_ms": statistics.median(job_wall[k] for k in returned)
            * 1e3,
            "cpu_ms_per_pt": sum(job_cpu) * 1e3 / (points / rounds),
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }


def _print_metrics(name: str, result: dict) -> None:
    print(f"{name}: attempted {result['attempted']}, failed "
          f"{result['failed']}, correct {str(result['correct']).lower()}")
    for key, m in result["metrics"].items():
        print(f"  {key:45s} {m['value']:12.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="wall time to measure per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC_DIR / "symlap" / "__init__.py").is_file():
        print(f"perfbench: no symlap sources under {SRC_DIR}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    if args.probe:
        probe(args.workload, args.seed)
        return 0
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds,
                                     bool(args.trace))
        _print_metrics(name, results[name])
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": m for name, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
