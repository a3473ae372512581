"""Calls of F and evaluations of F per numeric-invert benchmark template.

    python3 tools/inversion_counts.py                  # seeds 1-3, rounds 0-2
    python3 tools/inversion_counts.py --seeds 1-10 --rounds 0-2

Run it from the root of a source checkout: symlap is imported from that
checkout's ``src/`` and the jobs come from its perfbench/workloads.py,
which is only read.  Every numeric-invert job runs through the call the
command line makes, with the integrand that numeric inversion hands to
the quadrature wrapped to count its calls and the y values of each
call.  Evaluations count y values as F sees them: a hermitian integrand
is called on y >= 0 only, any other on +-y.  The counts do not depend on
the machine, so two trees whose counts differ do different work.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _span(text: str) -> range:
    """"a-b" or "a" as the integers a to b."""
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def counts(seeds=(1, 2, 3), rounds=(0, 1, 2), tiny=False) -> dict:
    """{template: (jobs, calls of F, evaluations of F)} summed over the
    numeric-invert jobs of the given seeds and rounds, templates in
    generator order; a job that raises counts what it took."""
    for path in (ROOT / "src", ROOT / "perfbench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import symlap.cli
    import workloads as wl
    from symlap import inversion

    sizes = []
    on_line = inversion._on_line

    def counted(F, x1, x2):
        G, described = on_line(F, x1, x2)
        return (lambda y: sizes.append(y.size) or G(y)), described

    run = wl.runner("numeric-invert", symlap.cli, None)
    out = {}
    inversion._on_line = counted
    try:
        for seed in seeds:
            for r in rounds:
                for job in wl.ROUNDS["numeric-invert"](seed, r, tiny):
                    sizes.clear()
                    try:
                        run(job)
                    except Exception:  # a refused job still counts its cost
                        pass
                    jobs, calls, evals = out.get(job.template, (0, 0, 0))
                    out[job.template] = (jobs + 1, calls + len(sizes),
                                         evals + sum(sizes))
    finally:
        inversion._on_line = on_line
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-3", help="a or a-b (default 1-3)")
    ap.add_argument("--rounds", default="0-2", help="a or a-b (default 0-2)")
    args = ap.parse_args(argv)
    table = counts(_span(args.seeds), _span(args.rounds))
    print(f"{'template':<18}{'jobs':>6}{'calls/job':>11}{'evals/job':>11}")
    for name, (jobs, calls, evals) in table.items():
        print(f"{name:<18}{jobs:>6}{calls / jobs:>11.3f}{evals / jobs:>11.1f}")
    jobs, calls, evals = (sum(c) for c in zip(*table.values()))
    print(f"{'all':<18}{jobs:>6}{calls / jobs:>11.3f}{evals / jobs:>11.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
