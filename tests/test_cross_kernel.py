"""The determinism contract across CPU kernels (README, Determinism).

Output bytes are fixed for one host, numpy build and BLAS kernel.
Across kernels every value agrees within the sum of the two estimates,
and every error has the same type (tools/output_hashes.py, agree).  Tiny
rounds of the benchmark's job generators (perfbench/workloads.py, read
through tools/output_hashes.py) run in subprocesses under each OpenBLAS
core this CPU can run, and with numpy held to the lowest SIMD level it
found, and each run is compared with one in the default environment.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SEED, ROUND = 1, 0
# each OpenBLAS core and the CPU flag it needs
CORES = (("Haswell", "avx2"), ("Sandybridge", "avx"), ("SkylakeX", "avx512f"))

RUN = f"""
import json, sys
sys.path.insert(0, {str(ROOT / "tools")!r})
import output_hashes as tool
print(json.dumps({{"kernel": tool.kernel(), "outputs": tool.outputs(
    seeds=({SEED},), rounds=({ROUND},), tiny=True)}}))
"""


def _tool():
    spec = importlib.util.spec_from_file_location(
        "output_hashes", ROOT / "tools" / "output_hashes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cpu_flags():
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return set()
    return next((set(ln.split(":", 1)[1].split()) for ln in lines
                 if ln.startswith("flags")), set())


def _run(**settings):
    """The kernel and the output texts of a subprocess run with the
    given environment settings, none of the CPU ones inherited."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    env.update(settings, OPENBLAS_NUM_THREADS="1",
               PYTHONWARNINGS="error::RuntimeWarning")
    done = subprocess.run([sys.executable, "-c", RUN], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    doc = json.loads(done.stdout)
    return tuple(doc["kernel"]), doc["outputs"]


def test_outputs_agree_across_cpu_kernels():
    flags = _cpu_flags()
    tool = _tool()
    reference_kernel, reference = _run()
    if reference_kernel[0] == "unknown" or "avx" not in flags:
        pytest.skip("needs numpy's bundled OpenBLAS on an x86 CPU with AVX")
    variants = {f"OPENBLAS_CORETYPE={core}": {"OPENBLAS_CORETYPE": core}
                for core, flag in CORES if flag in flags}
    simd = reference_kernel[1]
    if simd:  # numpy at the lowest SIMD level it found
        masked = " ".join(simd[1:] or simd)
        variants[f"NPY_DISABLE_CPU_FEATURES={masked}"] = {
            "NPY_DISABLE_CPU_FEATURES": masked}
    wl = tool.workloads()
    problems = []
    for label, settings in variants.items():
        kernel, outputs = _run(**settings)
        # the setting took effect: the run names the core it asked for,
        # or lacks the SIMD targets it masked
        want = settings.get("OPENBLAS_CORETYPE", reference_kernel[0])
        assert kernel[0] == want, (label, kernel)
        masked = settings.get("NPY_DISABLE_CPU_FEATURES", "").split()
        assert not set(masked) & set(kernel[1]), (label, kernel)
        for name in wl.WORKLOADS:
            jobs = wl.ROUNDS[name](SEED, ROUND, True)
            assert len(jobs) == len(reference[name]) == len(outputs[name])
            for job, a, b in zip(jobs, reference[name], outputs[name]):
                why = tool.agree(wl, name, job, a, b)
                if why:
                    problems.append(f"{label} {name} {job.template}: {why}")
    assert problems == []
