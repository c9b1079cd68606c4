"""Schema-versioned JSON benchmark artifact (``BENCH_results.json``).

Schema (version 2)
------------------
::

    {
      "schema_version": 2,
      "generated_by": "repro.bench",
      "repro_version": "<package version>",
      "config": {"quick": bool, "base_seed": int},
      "environment": {"python": str, "implementation": str,
                      "platform": str, "machine": str,
                      "numpy": str, "scipy": str, "cpu_count": str},
      "device_model": {"name": str, "peak_fp32_gflops": float,
                       "mem_bw_gbps": float, "mem_capacity_gb": float,
                       "pcie_bw_gbps": float},
      "experiments": {
        "<exp_id>": {
          "title": str, "group": str,
          "headers": [str, ...], "rows": [[...], ...],
          "metrics": {"<kind>.<name>": float, ...}
        }, ...
      }
    }

Metric names follow a ``<kind>.<name>`` convention that encodes the
regression direction:

* ``time.*``, ``error.*``, ``comm.*`` and ``mem.*`` — lower is better (a
  rise is a regression);
* ``throughput.*`` and ``quality.*`` — higher is better (a drop is a
  regression).

Every metric is modeled on the simulated device or counted on a seeded
execution; none is a wall-clock reading, so two runs of one tree on one
machine write identical metrics and the gate compares all of them.  Measured host
numbers belong to ``hostbench/``.
"""

from __future__ import annotations

import json
import os
import platform
from typing import Dict

from ..errors import ConfigError
from ..gpu import DeviceSpec

__all__ = [
    "SCHEMA_VERSION",
    "environment_metadata",
    "device_metadata",
    "metric_lower_is_better",
    "write_artifact",
    "load_artifact",
    "tracked_metrics",
]

SCHEMA_VERSION = 2

#: metric-name prefix -> True when a *rise* of the value is a regression
_KIND_LOWER_IS_BETTER = {
    "time": True,
    "error": True,
    "comm": True,
    "mem": True,
    "throughput": False,
    "quality": False,
}


def metric_lower_is_better(name: str) -> bool:
    """Regression direction of a ``<kind>.<name>`` metric."""
    kind = name.split(".", 1)[0]
    try:
        return _KIND_LOWER_IS_BETTER[kind]
    except KeyError:
        known = ", ".join(sorted(_KIND_LOWER_IS_BETTER))
        raise ConfigError(f"metric {name!r} has unknown kind {kind!r}; known: {known}") from None


#: BLAS/OpenMP thread-count knobs recorded for provenance.
_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def environment_metadata() -> Dict[str, str]:
    """Interpreter/platform/library versions, for artifact provenance.

    Includes the machine's CPU count and any BLAS/OpenMP thread-count
    environment variables that were set.
    """
    import numpy
    import scipy

    meta = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.system(),
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": str(os.cpu_count() or 1),
    }
    for var in _THREAD_ENV_VARS:
        value = os.environ.get(var)
        if value is not None:
            meta[var.lower()] = value
    return meta


def device_metadata(spec: DeviceSpec) -> Dict[str, object]:
    """The simulated device the modeled numbers were produced on."""
    return {
        "name": spec.name,
        "peak_fp32_gflops": spec.peak_fp32_gflops,
        "mem_bw_gbps": spec.mem_bw_gbps,
        "mem_capacity_gb": spec.mem_capacity_gb,
        "pcie_bw_gbps": spec.pcie_bw_gbps,
    }


def write_artifact(path: str, artifact: Dict[str, object]) -> str:
    """Write ``artifact`` as indented JSON, creating parent directories."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(artifact, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return path


def load_artifact(path: str) -> Dict[str, object]:
    """Load and validate a benchmark artifact; raises :class:`ConfigError`."""
    if not os.path.exists(path):
        raise ConfigError(f"benchmark artifact not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            artifact = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(artifact, dict):
        raise ConfigError(f"{path}: artifact root must be an object")
    version = artifact.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"{path}: unsupported schema_version {version!r} (this build reads {SCHEMA_VERSION})"
        )
    experiments = artifact.get("experiments")
    if not isinstance(experiments, dict):
        raise ConfigError(f"{path}: missing or malformed 'experiments' section")
    for exp_id, record in experiments.items():
        if not isinstance(record, dict) or "metrics" not in record:
            raise ConfigError(f"{path}: experiment {exp_id!r} is missing its metrics")
    return artifact


def tracked_metrics(record: Dict[str, object]) -> Dict[str, float]:
    """The gated scalars of one experiment record: its declared metrics."""
    return dict(record.get("metrics") or {})
