"""The serving configuration and result types.

:class:`ServeConfig` gives the serving tier the estimator treatment:
every knob is a declarative :class:`~repro.params.ParamSpec` (bounds,
conversion), and the ``get_params`` / ``set_params`` / ``clone`` /
non-default-``repr`` surface comes from
:class:`~repro.params.ParamsProtocol`, so a serving deployment is
introspected, copied and logged exactly like an estimator.

:class:`ServeResult` is the matching response type: the label plus its
serving metadata (model version, cache/coalesce provenance, latency).
It subclasses :class:`int`, so a caller that compares, indexes or does
arithmetic with the bare label keeps working.
"""

from __future__ import annotations

import warnings
from typing import Dict, Optional

from ..errors import ConfigError
from ..params import ParamSpec, ParamsProtocol, optional

__all__ = ["ServeConfig", "ServeResult"]


def _int_knob(value) -> int:
    """Strict integer conversion: bools and non-integral floats are bugs."""
    if isinstance(value, bool):
        raise ConfigError(f"expected an integer, got {value!r}")
    out = int(value)
    if out != value:
        raise ConfigError(f"expected an integer, got {value!r}")
    return out


class ServeConfig(ParamsProtocol):
    """Declarative configuration shared by every serving surface.

    Consumed by :class:`~repro.serve.service.PredictionService` (thread
    workers) and :class:`~repro.serve.frontdoor.AsyncPredictionServer`
    (asyncio ingress + shard worker processes); both accept either a
    ``ServeConfig`` or the same names as keywords.

    Parameters
    ----------
    batch_size:
        Maximum requests fused into one backend predict call.
    max_delay_ms:
        Deprecated and ignored: no batcher waits for a batch to fill.
        Still validated (>= 0); passing it warns ``DeprecationWarning``.
    n_workers:
        Concurrent batch servers: worker threads for
        ``PredictionService``, shard worker processes (or inline
        replicas) for ``AsyncPredictionServer``.
    queue_bound:
        Admission control: maximum *pending* (queued, not yet batched)
        requests before new arrivals are shed with
        :class:`~repro.errors.Overloaded`.  ``None`` (default) admits
        everything — the pre-existing unbounded behaviour.
    cache_size:
        LRU entries memoising label-by-query-digest (0 disables).
    latency_window:
        Size of the rolling windows behind the latency percentiles and
        the batch-size distribution.
    chunk_rows, chunk_cols, n_threads:
        Chunk schedule and thread count of the fused cross-kernel
        reduction, forwarded to ``predict`` / ``predict_batch``.
    devices:
        Shard every served batch's rows across this many simulated
        devices; ``None`` serves unsharded.
    """

    _params = (
        ParamSpec("batch_size", default=32, convert=_int_knob, low=1),
        ParamSpec("max_delay_ms", default=None, convert=optional(float), low=0.0),
        ParamSpec("n_workers", default=1, convert=_int_knob, low=1),
        ParamSpec("queue_bound", default=None, convert=optional(_int_knob), low=1),
        ParamSpec("cache_size", default=1024, convert=_int_knob, low=0),
        ParamSpec("latency_window", default=4096, convert=_int_knob, low=1),
        ParamSpec("chunk_rows", default=None, convert=optional(_int_knob), low=1),
        ParamSpec("chunk_cols", default=None, convert=optional(_int_knob), low=1),
        ParamSpec("n_threads", default=None, convert=optional(_int_knob), low=1),
        ParamSpec("devices", default=None, convert=optional(_int_knob), low=1),
    )

    def __init__(self, **params) -> None:
        if params.get("max_delay_ms") is not None:
            warnings.warn(
                "ServeConfig(max_delay_ms=) is deprecated and ignored: a free "
                "worker takes whatever is queued without waiting",
                DeprecationWarning,
                stacklevel=2,
            )
        self._init_params(**params)

    def clone(self) -> "ServeConfig":
        # set_params validates like __init__, without repeating its warning
        return type(self)().set_params(**self.get_params(deep=False))

    def predict_kwargs(self) -> Dict[str, Optional[int]]:
        """The reduction-schedule keywords forwarded to ``predict``."""
        return {
            "chunk_rows": self.chunk_rows,
            "chunk_cols": self.chunk_cols,
            "n_threads": self.n_threads,
        }

    @classmethod
    def coerce(cls, config, params: Dict[str, object], owner: str) -> "ServeConfig":
        """Resolve a service constructor's ``(config, **kwargs)`` pair.

        Exactly one source of truth: an explicit :class:`ServeConfig`
        (cloned, so the service owns its copy) *or* loose keywords (the
        back-compat surface, validated through the same specs).  Mixing
        both is ambiguous and raises :class:`~repro.errors.ConfigError`.
        """
        if config is None:
            return cls(**params)
        if not isinstance(config, ServeConfig):
            raise ConfigError(
                f"config must be a ServeConfig for {owner}, "
                f"got {type(config).__name__}"
            )
        if params:
            raise ConfigError(
                f"{owner} got both config= and keyword parameter(s) "
                f"{sorted(params)}; pass one or the other"
            )
        return config.clone()


class ServeResult(int):
    """A served label plus its serving metadata.

    Subclasses :class:`int` carrying the label value, so the historical
    bare-``int`` return contract of ``submit().result()`` / ``predict``
    still holds (``ServeResult(2) == 2``, usable as an index, castable
    with ``int()``); the metadata rides along as read-only-by-convention
    attributes.

    Attributes
    ----------
    label:
        The predicted cluster label (also the integer value itself).
    model_version:
        Version of the served model that answered (increments per swap).
    cache_hit:
        True when the answer came from the LRU digest cache.
    coalesced:
        True when this request was deduplicated onto another identical
        in-flight query (either front door).
    latency_s:
        Enqueue-to-answer wall-clock seconds for this request.
    """

    def __new__(
        cls,
        label,
        *,
        model_version: int = 1,
        cache_hit: bool = False,
        coalesced: bool = False,
        latency_s: float = 0.0,
    ) -> "ServeResult":
        self = super().__new__(cls, int(label))
        self.model_version = int(model_version)
        self.cache_hit = bool(cache_hit)
        self.coalesced = bool(coalesced)
        self.latency_s = float(latency_s)
        return self

    @property
    def label(self) -> int:
        return int(self)

    @property
    def latency_ms(self) -> float:
        return self.latency_s * 1e3

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (what the CLI emits per answered query)."""
        return {
            "label": int(self),
            "model_version": self.model_version,
            "cache_hit": self.cache_hit,
            "coalesced": self.coalesced,
            "latency_ms": self.latency_ms,
        }

    def __repr__(self) -> str:
        return (
            f"ServeResult(label={int(self)}, model_version={self.model_version}, "
            f"cache_hit={self.cache_hit}, coalesced={self.coalesced}, "
            f"latency_ms={self.latency_ms:.3f})"
        )
