"""laplace_grid calls, rows and piece evaluations per verify criterion.

    python3 tools/forward_counts.py

Run it from the root of a source checkout: symlap is imported from that
checkout's ``src/``.  Every criterion of the verify suite runs once, in
``verify.CRITERIA`` order, with ``forward.laplace_grid``, the quadrature
call behind every one-sided transform, wrapped to count its calls, the
calls at a single point, the rows (the distinct damping and tolerance
pairs among a call's points, each with panels of its own) and the
evaluations of the pieces it is handed.  The counts do not depend on
the machine, so two trees whose counts differ do different work.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def counts() -> dict:
    """{criterion id: (calls, one-point calls, rows, evaluations)} over
    one run of each verify criterion, in CRITERIA order."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from symlap import forward, verify

    grid = forward.laplace_grid
    tally = [0, 0, 0, 0]

    def counted(piece, bound, x, ys, tol, **kwargs):
        xs, _, tols = np.broadcast_arrays(x, ys, tol)
        tally[0] += 1
        tally[1] += xs.size == 1
        tally[2] += len(set(zip(xs.ravel().tolist(), tols.ravel().tolist())))

        def evaluated(u):
            tally[3] += np.size(u)
            return piece(u)

        return grid(evaluated, bound, x, ys, tol, **kwargs)

    out = {}
    forward.laplace_grid = counted
    try:
        for criterion in verify.CRITERIA:
            tally[:] = [0, 0, 0, 0]
            name = criterion().id
            out[name] = tuple(tally)
    finally:
        forward.laplace_grid = grid
    return out


def main(argv=None) -> int:
    table = counts()
    print(f"{'criterion':<20}{'calls':>7}{'one-point':>11}{'rows':>7}"
          f"{'evaluations':>13}")
    for name, (calls, single, rows, evals) in table.items():
        print(f"{name:<20}{calls:>7}{single:>11}{rows:>7}{evals:>13}")
    calls, single, rows, evals = (sum(c) for c in zip(*table.values()))
    print(f"{'all':<20}{calls:>7}{single:>11}{rows:>7}{evals:>13}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
