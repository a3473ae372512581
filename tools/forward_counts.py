"""laplace_grid calls, rows, piece evaluations and batches per verify
criterion.

    python3 tools/forward_counts.py

Run it from the root of a source checkout: symlap is imported from that
checkout's ``src/``.  Every criterion of the verify suite runs once, in
``verify.CRITERIA`` order, with ``forward.laplace_grid``, the quadrature
call behind every one-sided transform, wrapped to count its calls, the
calls at a single point, the rows (the distinct damping and tolerance
pairs among a call's points, each with panels of its own) and the
evaluations of the pieces it is handed, and ``quadrature._grid_pass``
wrapped to count the batches, the sets of rows that run together.  The
counts do not depend on the machine, so two trees whose counts differ
do different work.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def counts() -> dict:
    """{criterion id: (calls, one-point calls, rows, evaluations,
    batches)} over one run of each verify criterion, in CRITERIA
    order."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from symlap import forward, quadrature, verify

    grid, grid_pass = forward.laplace_grid, quadrature._grid_pass
    tally = [0, 0, 0, 0, 0]

    def counted(piece, bound, x, ys, tol, **kwargs):
        xs, _, tols = np.broadcast_arrays(x, ys, tol)
        tally[0] += 1
        tally[1] += xs.size == 1
        tally[2] += len(set(zip(xs.ravel().tolist(), tols.ravel().tolist())))

        def evaluated(u):
            tally[3] += np.size(u)
            return piece(u)

        return grid(evaluated, bound, x, ys, tol, **kwargs)

    def batch(*args):
        tally[4] += 1
        return grid_pass(*args)

    out = {}
    forward.laplace_grid, quadrature._grid_pass = counted, batch
    try:
        for criterion in verify.CRITERIA:
            tally[:] = [0, 0, 0, 0, 0]
            name = criterion().id
            out[name] = tuple(tally)
    finally:
        forward.laplace_grid, quadrature._grid_pass = grid, grid_pass
    return out


def main(argv=None) -> int:
    table = counts()
    print(f"{'criterion':<20}{'calls':>7}{'one-point':>11}{'rows':>7}"
          f"{'evaluations':>13}{'batches':>9}")
    for name, row in (*table.items(),
                      ("all", [sum(c) for c in zip(*table.values())])):
        calls, single, rows, evals, batches = row
        print(f"{name:<20}{calls:>7}{single:>11}{rows:>7}{evals:>13}"
              f"{batches:>9}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
