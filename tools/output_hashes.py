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

The bytes depend on the CPU kernel: the core that numpy's bundled
OpenBLAS picks (OPENBLAS_CORETYPE overrides it) and the SIMD targets
numpy dispatches to (NPY_DISABLE_CPU_FEATURES masks them).  A last line
names both, so that a digest can be quoted with the kernel that made it.
"""

from __future__ import annotations

import ctypes
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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


def digests(seeds=(1, 2, 3), rounds=(0, 1, 2), tiny=False) -> dict:
    """{workload: hex SHA-256} over the output texts of outputs(), each
    followed by a zero byte."""
    return {name: hashlib.sha256(b"".join(
        text.encode() + b"\0" for text in texts)).hexdigest()
        for name, texts in outputs(seeds, rounds, tiny).items()}


def kernel():
    """(core, simd): the core that numpy's bundled OpenBLAS runs, read
    from its scipy_openblas_get_corename64_ ("unknown" without one), and
    the SIMD targets numpy found on this CPU."""
    import numpy as np

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


def main() -> int:
    for name, digest in digests().items():
        print(f"{digest}  {name}")
    core, simd = kernel()
    print(f"kernel: OpenBLAS {core}, numpy SIMD {' '.join(simd) or 'none'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
