"""What the numbers were measured on, the BLAS thread pin, and a GEMM calibration.

The workloads run with one BLAS thread (`pin_threads`, called before numpy
is imported). With the default two OpenBLAS threads on a shared 2-core
host, every GEMM waits for whichever thread the host descheduled, and ten
runs of the same code spread by up to a quarter of their median; the
threads also busy-wait, so an epoch burned two cores' worth of CPU time for
the wall time of one. The calibration times one (rows x 128) @ (128 x 128) float32
product, the per-tap shape of the C=128 convs, once in a subprocess with
the thread variables the benchmark inherited and once with one BLAS
thread, both for a contiguous right operand and for the strided
`kernels[:, :, m].T` view the conv kernels multiply by.
"""

import json
import os
import platform
import subprocess
import sys

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

CALIBRATION = r"""
import json, time
import numpy as np
rng = np.random.default_rng(0)
w = rng.standard_normal((128, 128), dtype=np.float32)
k = rng.standard_normal((128, 128, 5), dtype=np.float32)
out = {}
for rows in (200, 1000):
    a = rng.standard_normal((rows, 128), dtype=np.float32)
    for label, b in (("contiguous", w), ("tap_view", k[:, :, 2].T)):
        a @ b
        times = []
        for _ in range(25):
            t0 = time.perf_counter()
            a @ b
            times.append(time.perf_counter() - t0)
        out[f"{rows}x128@128x128.{label}_ms"] = sorted(times)[len(times) // 2] * 1e3
print(json.dumps(out))
"""


def pin_threads():
    """Set every BLAS/OpenMP thread variable to 1; return the inherited values."""
    inherited = {var: os.environ.get(var) for var in THREAD_VARS}
    os.environ.update({var: "1" for var in THREAD_VARS})
    return inherited


def _blas():
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"name": "unknown"}
    keys = ("name", "version", "openblas configuration")
    return {key: deps[key] for key in keys if key in deps}


def _git_commit(root):
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def describe(root, inherited):
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "inherited_thread_env": inherited,
        "git_commit": _git_commit(root),
    }


def calibrate(inherited):
    """Median ms per product: inherited threading, then one BLAS thread."""
    default = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    default.update({var: val for var, val in inherited.items() if val is not None})
    result = {}
    for label, env in (("default_threads", default), ("one_thread", dict(os.environ))):
        proc = subprocess.run([sys.executable, "-c", CALIBRATION], env=env,
                              capture_output=True, text=True, timeout=120)
        result[label] = json.loads(proc.stdout) if proc.returncode == 0 else {
            "error": proc.stderr.strip()[-500:]}
    return result
