"""One SHA-256 per benchmark workload over the command-line outputs.

    python3 tools/output_hashes.py                     # seeds 1-3, rounds 0-2
    python3 tools/output_hashes.py --dump out.json     # and keep the outputs
    python3 tools/output_hashes.py --against out.json  # compare with them

Run it from the root of a source checkout: symlap is imported from that
checkout's ``src/`` and the jobs come from its perfbench/workloads.py,
which is only read.  Every job of perfbench's generators (forward,
split and numeric inversion, the verify suite) runs through the call
the command line makes, and its output text goes into its workload's
digest; a job that raises adds ``ExcType: message`` instead.  Two trees
whose digests agree write the same bytes for all of those jobs, so
comparing this command's output at two commits checks that a change
leaves every output byte as it was.

Where the bytes move, the README's cross-kernel contract (agree) says
whether the values still agree: within the sum of the two estimates for
a forward grid, two tolerances for numeric inversion and a relative
1e-12 for split inversion, with the same error types and verify
statuses.  ``--dump FILE`` writes this tree's output texts as JSON, and
``--against FILE`` compares them, job by job, with a dump of another
checkout: it prints per workload the worst |difference| over its
allowance and every job that breaks the contract, and exits 1 if any
does.

The bytes depend on the CPU kernel: the core that numpy's bundled
OpenBLAS picks (OPENBLAS_CORETYPE overrides it) and the SIMD targets
numpy dispatches to (NPY_DISABLE_CPU_FEATURES masks them).  A last line
names both, so that a digest can be quoted with the kernel that made it.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
# the first line of each workload's output; any other text is an error
HEADERS = {"forward-grid": "y,re,im,err", "split-invert": "t,re,im",
           "numeric-invert": "t,re,im,a_sensitivity", "verify-suite": "{"}
SPLIT_RTOL = 1e-12


def workloads():
    """perfbench/workloads.py as a module, with symlap importable from
    this checkout's src/."""
    for path in (ROOT / "src", ROOT / "perfbench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import workloads as wl

    return wl


def outputs(seeds=(1, 2, 3), rounds=(0, 1, 2), tiny=False) -> dict:
    """{workload: [output text]} over the jobs of the given seeds and
    rounds, in generator order; a job that raises gives
    ``ExcType: message``."""
    wl = workloads()
    import symlap.cli
    import symlap.verify

    out = {}
    for name in wl.WORKLOADS:
        run = wl.runner(name, symlap.cli, symlap.verify)
        out[name] = []
        for seed in seeds:
            for r in rounds:
                for job in wl.ROUNDS[name](seed, r, tiny):
                    try:
                        text = run(job)
                    except Exception as exc:  # the error text is output too
                        text = f"{type(exc).__name__}: {exc}"
                    out[name].append(text)
    return out


def digest(texts) -> str:
    """Hex SHA-256 over output texts, each followed by a zero byte."""
    return hashlib.sha256(b"".join(
        text.encode() + b"\0" for text in texts)).hexdigest()


def digests(seeds=(1, 2, 3), rounds=(0, 1, 2), tiny=False) -> dict:
    """{workload: digest} over the output texts of outputs()."""
    return {name: digest(texts)
            for name, texts in outputs(seeds, rounds, tiny).items()}


def _error(name, text):
    """The type name of an error text, None for a workload's output."""
    return None if text.startswith(HEADERS[name]) else text.split(":")[0]


def _values(wl, text, name):
    rows = wl.parse_csv(text, HEADERS[name])
    return rows[:, 0], rows[:, 1] + 1j * rows[:, 2], rows[:, 3:]


def compare(wl, name, job, a, b):
    """(worst |difference| over its allowance, worst |difference|,
    problem) for outputs a and b of job: problem names an error type,
    verify status or argument column that differs, else None.  The
    allowance is the sum of the two estimates for a forward grid, two
    tolerances (the estimate's bound) for numeric inversion and
    SPLIT_RTOL relative for split inversion."""
    if _error(name, a) or _error(name, b):
        ea, eb = _error(name, a), _error(name, b)
        return 0.0, 0.0, None if ea == eb else f"error types {ea} and {eb}"
    if name == "verify-suite":
        da, db = json.loads(a), json.loads(b)
        status = [[(c["id"], c["status"]) for c in d["criteria"]]
                  for d in (da, db)]
        return 0.0, 0.0, None if status[0] == status[1] else (
            f"statuses {status}")
    (xa, va, ca), (xb, vb, cb) = (_values(wl, t, name) for t in (a, b))
    if not np.array_equal(xa, xb):
        return 0.0, 0.0, "argument columns differ"
    gap = np.abs(va - vb)
    if name == "forward-grid":
        allow = ca[:, 0] + cb[:, 0]
    elif name == "numeric-invert":
        allow = np.full(gap.shape, 2.0 * job.args[5])
    else:
        allow = SPLIT_RTOL * np.maximum(np.abs(va), np.abs(vb))
    # a gap where the allowance is 0 is infinitely far above it
    ratio = np.divide(gap, allow, out=np.where(gap > 0.0, np.inf, 0.0),
                      where=allow > 0.0)
    return (float(ratio.max(initial=0.0)), float(gap.max(initial=0.0)),
            None)


def _verdict(ratio, gap, problem):
    """None for a compare() result within the contract, else why not."""
    if problem:
        return problem
    return None if ratio <= 1.0 else (
        f"|difference| {gap:.3e} above its allowance")


def agree(wl, name, job, a, b):
    """None when outputs a and b of job meet the contract, else why not."""
    return _verdict(*compare(wl, name, job, a, b))


def against(mine, theirs, seeds=(1, 2, 3), rounds=(0, 1, 2), tiny=False):
    """{workload: (worst ratio of compare, [problems])} for two outputs()
    of the same seeds and rounds, a problem being a job that breaks the
    contract, named by its template."""
    wl = workloads()
    report = {}
    for name in wl.WORKLOADS:
        jobs = [job for seed in seeds for r in rounds
                for job in wl.ROUNDS[name](seed, r, tiny)]
        if not len(jobs) == len(mine[name]) == len(theirs[name]):
            raise ValueError(f"{name}: the two outputs have other jobs")
        worst, problems = 0.0, []
        for job, a, b in zip(jobs, mine[name], theirs[name]):
            result = compare(wl, name, job, a, b)
            worst = max(worst, result[0])
            why = _verdict(*result)
            if why:
                problems.append(f"{job.template}: {why}")
        report[name] = (worst, problems)
    return report


def kernel():
    """(core, simd): the core that numpy's bundled OpenBLAS runs, read
    from its scipy_openblas_get_corename64_ ("unknown" without one), and
    the SIMD targets numpy found on this CPU."""
    core = "unknown"
    for lib in Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*"):
        try:
            name = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        name.restype = ctypes.c_char_p
        core = name().decode()
        break
    found = np.show_config(mode="dicts").get("SIMD Extensions", {})
    return core, list(found.get("found", []))


def main(argv=()) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dump", metavar="FILE",
                    help="write the output texts as JSON to FILE")
    ap.add_argument("--against", metavar="FILE",
                    help="compare the outputs with another tree's --dump")
    args = ap.parse_args(argv)
    if args.dump or args.against:
        mine = outputs()
        sums = {name: digest(texts) for name, texts in mine.items()}
    else:
        sums = digests()
    for name, hexdigest in sums.items():
        print(f"{hexdigest}  {name}")
    core, simd = kernel()
    print(f"kernel: OpenBLAS {core}, numpy SIMD {' '.join(simd) or 'none'}")
    if args.dump:
        Path(args.dump).write_text(json.dumps(mine))
    if not args.against:
        return 0
    report = against(mine, json.loads(Path(args.against).read_text()))
    for name, (worst, problems) in report.items():
        print(f"{name}: worst |difference|/allowance {worst:.3g}, "
              f"{len(problems)} jobs outside the contract")
        for problem in problems:
            print(f"  {problem}")
    return 1 if any(problems for _, problems in report.values()) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
