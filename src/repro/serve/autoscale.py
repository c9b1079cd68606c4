"""Autoscaling policy simulator: workers-vs-saturation-qps curves.

How many shard workers does a target load need?  This module answers
analytically, on the same cost models the engine charges — per-batch
service time comes from :func:`repro.engine.sharded.modeled_predict_batch_s`
(rectangular cross-kernel panels + collectives on a
:class:`~repro.gpu.spec.DeviceSpec`), so the policy curves and the
executed sharded backend cannot drift apart.

The model is a saturation law with two regimes:

* **worker-limited** — each worker retires one ``batch_size``-row batch
  every ``t_batch`` modeled seconds, so ``w`` workers saturate at
  ``w * batch_size / t_batch`` qps; adding workers helps linearly;
* **ingress-limited** — one batcher task forms at most
  ``1 / dispatch_overhead_s`` batches per second, capping throughput at
  ``batch_size / dispatch_overhead_s`` no matter how many workers wait
  behind it.  Past the knee, adding workers buys nothing — the policy
  answer becomes "grow the batch, not the fleet".

Everything is a pure function of the workload shape and the device
spec: deterministic across runs, which is why the bench experiment
(``ext_async_serving``) can gate on these numbers while wall-clock
latency stays warn-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..gpu.spec import A100_80GB, DeviceSpec

__all__ = [
    "AutoscalePoint",
    "DEFAULT_DISPATCH_OVERHEAD_S",
    "saturation_curve",
    "workers_for",
    "curve_for_model",
]

#: modeled per-batch ingress cost (queue drain + stack + executor hop) of
#: the asyncio batcher; the serialisation term that puts a knee in the
#: scaling curve
DEFAULT_DISPATCH_OVERHEAD_S = 150e-6


@dataclass(frozen=True)
class AutoscalePoint:
    """One point of the policy curve: a worker count and what it buys."""

    workers: int
    batch_service_s: float
    worker_qps: float
    ingress_qps: float
    saturation_qps: float
    ingress_limited: bool

    def to_row(self) -> Tuple:
        return (
            self.workers,
            f"{self.batch_service_s * 1e6:.1f}",
            f"{self.worker_qps:.0f}",
            f"{self.saturation_qps:.0f}",
            "ingress" if self.ingress_limited else "workers",
        )


def saturation_curve(
    *,
    n_support: int,
    dim: int,
    n_clusters: int,
    batch_size: int,
    workers: Sequence[int] = (1, 2, 4, 8),
    devices: int = 1,
    spec: DeviceSpec = A100_80GB,
    comm=None,
    dispatch_overhead_s: float = DEFAULT_DISPATCH_OVERHEAD_S,
) -> List[AutoscalePoint]:
    """The workers -> saturation-qps policy curve for one workload shape.

    ``n_support`` / ``dim`` / ``n_clusters`` describe the served model,
    ``batch_size`` the front door's fusion width, ``devices`` how many
    simulated devices each worker shards a batch across.
    """
    from ..engine.sharded import modeled_predict_batch_s

    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if dispatch_overhead_s <= 0:
        raise ConfigError(
            f"dispatch_overhead_s must be > 0, got {dispatch_overhead_s}"
        )
    if not workers:
        raise ConfigError("workers must name at least one worker count")
    t_batch = modeled_predict_batch_s(
        batch_size, n_support, dim, n_clusters, devices=devices, spec=spec, comm=comm
    )
    worker_qps = batch_size / t_batch
    ingress_qps = batch_size / dispatch_overhead_s
    points = []
    for w in sorted({int(w) for w in workers}):
        if w < 1:
            raise ConfigError(f"worker counts must be >= 1, got {w}")
        fleet_qps = w * worker_qps
        points.append(
            AutoscalePoint(
                workers=w,
                batch_service_s=t_batch,
                worker_qps=worker_qps,
                ingress_qps=ingress_qps,
                saturation_qps=min(fleet_qps, ingress_qps),
                ingress_limited=fleet_qps > ingress_qps,
            )
        )
    return points


def workers_for(
    target_qps: float,
    *,
    max_workers: int = 64,
    **workload,
) -> Optional[int]:
    """Smallest worker count whose modeled saturation meets ``target_qps``.

    Returns ``None`` when the target sits past the ingress ceiling —
    the autoscaler's signal that scaling out cannot meet the SLO and
    the batch size itself must grow.  ``**workload`` takes the same
    keywords as :func:`saturation_curve` (minus ``workers``).
    """
    if target_qps <= 0:
        raise ConfigError(f"target_qps must be > 0, got {target_qps}")
    if max_workers < 1:
        raise ConfigError(f"max_workers must be >= 1, got {max_workers}")
    workload.pop("workers", None)
    curve = saturation_curve(workers=range(1, max_workers + 1), **workload)
    for point in curve:
        if point.saturation_qps >= target_qps:
            return point.workers
    return None


def _model_shape(model) -> Tuple[int, int, int]:
    """(n_support, dim, n_clusters) of a fitted model, for the curve."""
    sup = getattr(model, "_support_x", None)
    centers = getattr(model, "_support_centers", None)
    if sup is not None:
        n, d = sup.shape
    elif centers is not None:
        # classical/center-based artifacts: the support is the centers
        n, d = centers.shape
    else:
        raise ConfigError(
            "this model was fitted on a precomputed kernel; its serving "
            "cost has no point-space shape — build the curve explicitly "
            "with saturation_curve(n_support=..., dim=..., n_clusters=...)"
        )
    k = int(getattr(model, "n_clusters", 0)) or int(max(model.labels_) + 1)
    return int(n), int(d), k


def curve_for_model(
    model,
    *,
    batch_size: int,
    workers: Sequence[int] = (1, 2, 4, 8),
    devices: Optional[int] = None,
    spec: DeviceSpec = A100_80GB,
    comm=None,
    dispatch_overhead_s: float = DEFAULT_DISPATCH_OVERHEAD_S,
) -> List[AutoscalePoint]:
    """:func:`saturation_curve` with the workload read off a fitted model."""
    n, d, k = _model_shape(model)
    return saturation_curve(
        n_support=n,
        dim=d,
        n_clusters=k,
        batch_size=batch_size,
        workers=workers,
        devices=devices if devices is not None else 1,
        spec=spec,
        comm=comm,
        dispatch_overhead_s=dispatch_overhead_s,
    )
