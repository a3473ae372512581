"""One SHA-256 per benchmark workload over the command-line outputs.

    python3 tools/output_hashes.py            # seeds 1-3, rounds 0-2

Run it from the root of a source checkout: symlap is imported from that
checkout's ``src/`` and the jobs come from its perfbench/workloads.py,
which is only read.  Every job of perfbench's generators (forward,
split and numeric inversion, the verify suite) runs through the call
the command line makes, and its output text goes into its workload's
digest; a job that raises adds ``ExcType: message`` instead.  Two trees
whose digests agree write the same bytes for all of those jobs, so
comparing this command's output at two commits checks that a change
leaves every output byte as it was.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def digests(seeds=(1, 2, 3), rounds=(0, 1, 2), tiny=False) -> dict:
    """{workload: hex SHA-256} over the jobs of the given seeds and
    rounds, in generator order."""
    for path in (ROOT / "src", ROOT / "perfbench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import symlap.cli
    import symlap.verify
    import workloads as wl

    out = {}
    for name in wl.WORKLOADS:
        run = wl.runner(name, symlap.cli, symlap.verify)
        h = hashlib.sha256()
        for seed in seeds:
            for r in rounds:
                for job in wl.ROUNDS[name](seed, r, tiny):
                    try:
                        text = run(job)
                    except Exception as exc:  # the error text is output too
                        text = f"{type(exc).__name__}: {exc}"
                    h.update(text.encode())
                    h.update(b"\0")
        out[name] = h.hexdigest()
    return out


def main() -> int:
    for name, digest in digests().items():
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
