"""Machine fingerprint, host roofline probe and process memory readings.

Every result carries the fingerprint, so a number can be compared only
with numbers taken on the same kind of machine.  The roofline probe runs
in the benchmark's own process, right before the workload, and gives the
two hardware bounds the ``*_frac_*`` metrics divide by:

* ``stream_gbps`` -- a STREAM-style triad ``a = b + s * c`` over float64
  arrays whose combined size is at least four times the last-level
  cache.  NumPy runs the triad as two passes (``a = s * c`` then
  ``a += b``), five array sweeps in all; the byte count is computed from
  the array sizes, ``5 * 8 * n``.  NumPy ufuncs are single-threaded, so
  this is one core's bandwidth, the same kind of core the CSR kernels
  run on.
* ``gemm_gflops`` -- float32 square GEMM through NumPy (and so through
  its BLAS, with its own threads), ``2 m^3`` flops per call.

Both take the best of several repetitions, as STREAM does.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import os
import platform
import sys
import time

import numpy as np

BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
#: triad working set as a multiple of the last-level cache
TRIAD_LLC_MULTIPLE = 4
#: triad working set when the cache size cannot be read
TRIAD_FALLBACK_BYTES = 1 << 30
GEMM_SIZE = 2048
REPEATS = 5


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def _parse_size(text: str) -> int:
    """``"307200K"`` -> bytes (sysfs cache size notation)."""
    if not text:
        return 0
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    mult = units.get(text[-1].upper(), 1)
    digits = text[:-1] if text[-1].upper() in units else text
    try:
        return int(digits) * mult
    except ValueError:
        return 0


def llc_bytes() -> int:
    """Size of the largest-level CPU cache of cpu0, from sysfs (0 if unknown)."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best_level, best_size = -1, 0
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return 0
    for entry in entries:
        if not entry.startswith("index"):
            continue
        level = _read(os.path.join(base, entry, "level"))
        kind = _read(os.path.join(base, entry, "type"))
        if not level.isdigit() or kind == "Instruction":
            continue
        if int(level) > best_level:
            best_level = int(level)
            best_size = _parse_size(_read(os.path.join(base, entry, "size")))
    return best_size


def cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.lower().startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def blas_version() -> str:
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except Exception:  # numpy without the dict mode
        return "unknown"


def git_revision(root: str) -> str:
    """HEAD's commit id read from ``.git`` directly; "unknown" outside git."""
    head = _read(os.path.join(root, ".git", "HEAD"))
    if head.startswith("ref: "):
        ref = head[5:]
        rev = _read(os.path.join(root, ".git", ref))
        if rev:
            return rev
        for line in _read(os.path.join(root, ".git", "packed-refs")).splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
        return "unknown"
    return head or "unknown"


def fingerprint(root: str) -> dict:
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:  # pragma: no cover - scipy is a hard dependency
        scipy_version = "missing"
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "llc_bytes": llc_bytes(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas_version(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV_VARS},
        "git_revision": git_revision(root),
    }


def stream_triad(total_bytes: int) -> dict:
    """Best-of triad bandwidth over three float64 arrays of ``total_bytes``."""
    n = max(total_bytes // (3 * 8), 1)
    b = np.ones(n)
    c = np.full(n, 2.0)
    a = np.empty(n)
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        np.multiply(c, 3.0, out=a)
        a += b
        best = min(best, time.perf_counter() - t0)
    moved = 5 * 8 * n
    return {"gbps": moved / best / 1e9, "array_bytes": 8 * n, "working_set_bytes": 24 * n}


def gemm_rate(m: int = GEMM_SIZE) -> float:
    """Best-of float32 GEMM rate in GFLOP/s."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((m, m), dtype=np.float32)
    b = rng.standard_normal((m, m), dtype=np.float32)
    a @ b  # warm the BLAS thread pool
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t0)
    return 2.0 * m**3 / best / 1e9


def spin(seconds: float) -> None:
    """Keep every core busy for ``seconds`` with float32 GEMMs (BLAS threads).

    On a virtual machine the first seconds of work after a pause run
    slower -- on the reference machine up to 30% -- until the host has
    the cores running flat out again; a spin before timing skips them.
    """
    a = np.ones((1024, 1024), dtype=np.float32)
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end:
        a @ a


def _numpy_openblas():
    """NumPy's bundled OpenBLAS as ``(library, symbol prefix)``, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            if hasattr(lib, f"{prefix}_set_num_threads{suffix}"):
                return lib, prefix, suffix
    return None


@contextlib.contextmanager
def single_blas_thread():
    """Run the block with one BLAS thread, in this process and in every
    process it starts meanwhile (through ``OPENBLAS_NUM_THREADS``).

    ``fit_lowdim`` serves this way: its served batches are small GEMMs
    (32 x 16 x 14000), and with more BLAS threads each one wakes a helper
    thread that then spins; on a 2-core host that thread competes with
    the sender and the service for the cores, and the fixed-rate p50
    read 4-6 ms instead of 3.2-3.7 ms and varied twice as much between
    runs.  ``fit_highdim``'s batches (32 x 4096 x 5000) are not small:
    one thread cut its serving capacity 2.7-fold.
    """
    found = _numpy_openblas()
    before_env = os.environ.get("OPENBLAS_NUM_THREADS")
    before = None
    if found is not None:
        lib, prefix, suffix = found
        before = int(getattr(lib, f"{prefix}_get_num_threads{suffix}")())
        getattr(lib, f"{prefix}_set_num_threads{suffix}")(1)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        yield
    finally:
        if before_env is None:
            os.environ.pop("OPENBLAS_NUM_THREADS", None)
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = before_env
        if found is not None:
            getattr(lib, f"{prefix}_set_num_threads{suffix}")(before)


def roofline(triad_bytes: int | None = None) -> dict:
    """Both hardware bounds plus the sizes they were measured at."""
    llc = llc_bytes()
    if triad_bytes is None:
        triad_bytes = TRIAD_LLC_MULTIPLE * llc if llc else TRIAD_FALLBACK_BYTES
    triad = stream_triad(triad_bytes)
    return {
        "stream_gbps": triad["gbps"],
        "triad_array_bytes": triad["array_bytes"],
        "triad_working_set_bytes": triad["working_set_bytes"],
        "llc_bytes": llc,
        "gemm_gflops": gemm_rate(),
        "gemm_size": GEMM_SIZE,
    }


def cpu_ticks() -> list:
    """Machine-wide CPU time counters from ``/proc/stat`` (empty if unknown)."""
    line = _read("/proc/stat").splitlines()[:1]
    return [int(v) for v in line[0].split()[1:]] if line else []


def steal_frac(before: list, after: list) -> float:
    """Share of CPU time between two :func:`cpu_ticks` readings that the
    hypervisor gave to other guests: how disturbed a run on a shared
    host was."""
    if len(before) < 8 or len(after) < 8:
        return float("nan")
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / max(sum(delta[:8]), 1)


def reset_peak_rss() -> bool:
    """Restart the kernel's peak-RSS counter at the current RSS (Linux)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    """Peak resident set of this process since start or the last reset."""
    for line in _read("/proc/self/status").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
