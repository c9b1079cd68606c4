"""Online model refresh: shadow ``partial_fit`` -> artifact -> hot swap.

:class:`ModelRefresher` closes the loop between the online fit path
(:mod:`repro.engine.minibatch`) and the serving hot path
(:class:`~repro.serve.service.PredictionService`):

1. a **shadow copy** of the served model absorbs arriving data via
   :meth:`observe` (``partial_fit`` batches) while the service keeps
   answering queries from the live model, completely undisturbed;
2. :meth:`refresh` persists the shadow as the **next versioned
   artifact** (``<basename>-v0042.npz``, written to a temp file and
   published with an atomic ``os.replace`` so a crash never leaves a
   half-written artifact under the final name), reloads it, and
3. **hot-swaps** the reloaded model into the service
   (:meth:`~repro.serve.service.PredictionService.swap_model`): batches
   already running finish on the old model, every later request is
   answered by the new one, and nothing in flight is dropped.

The shadow is created by an artifact round trip (``save_model`` ->
``load_model``) rather than an in-process deep copy, so what serves
after a swap is exactly what a process restart would load — the
persistence path is exercised on every refresh, not just in disaster
recovery.  Version numbering continues from the artifacts already in
the directory, so a restarted refresher keeps counting.
"""

from __future__ import annotations

import os
import re
import tempfile
from typing import List, Optional

from ..errors import ConfigError
from ..estimators import require_capability
from .frontdoor import AsyncPredictionServer
from .persist import load_model, save_model
from .service import PredictionService

__all__ = ["ModelRefresher"]


class ModelRefresher:
    """Feed fresh data to a shadow model and hot-swap it into a service.

    Parameters
    ----------
    service:
        The live service to refresh: a
        :class:`~repro.serve.service.PredictionService` (in-process hot
        swap via ``swap_model``) or an
        :class:`~repro.serve.frontdoor.AsyncPredictionServer` (artifact
        propagation to every shard worker via ``swap_artifact``).  Its
        current model seeds the shadow and must carry the
        ``supports_partial_fit`` capability
        (:func:`repro.estimators.require_capability`).
    artifact_dir:
        Directory receiving the versioned ``.npz`` artifacts.  Created
        if missing; existing ``<basename>-v*.npz`` files there continue
        the numbering.
    basename:
        Artifact stem; files are named ``<basename>-v%04d.npz``.

    Attributes
    ----------
    shadow:
        The online copy absorbing :meth:`observe` batches.
    history:
        Paths of the artifacts written by :meth:`refresh`, in order.
    """

    def __init__(
        self,
        service: PredictionService,
        artifact_dir: str,
        *,
        basename: str = "model",
    ) -> None:
        if not isinstance(service, (PredictionService, AsyncPredictionServer)):
            raise ConfigError(
                "service must be a PredictionService or AsyncPredictionServer, "
                f"got {type(service).__name__}"
            )
        if not basename or os.sep in basename:
            raise ConfigError(f"invalid artifact basename: {basename!r}")
        require_capability(service.model, "supports_partial_fit", method="partial_fit")
        self.service = service
        self.artifact_dir = os.path.abspath(artifact_dir)
        self.basename = basename
        os.makedirs(self.artifact_dir, exist_ok=True)
        self.shadow = self._round_trip_copy(service.model)
        self.history: List[str] = []

    # ------------------------------------------------------------------
    def _round_trip_copy(self, model):
        """Independent copy of ``model`` via the persistence path."""
        fd, tmp = tempfile.mkstemp(
            prefix=f".{self.basename}-shadow-", suffix=".npz", dir=self.artifact_dir
        )
        os.close(fd)
        try:
            save_model(model, tmp)
            return load_model(tmp)
        finally:
            os.unlink(tmp)

    def _next_version(self) -> int:
        pat = re.compile(re.escape(self.basename) + r"-v(\d+)\.npz$")
        versions = [
            int(m.group(1))
            for name in os.listdir(self.artifact_dir)
            if (m := pat.match(name))
        ]
        return max(versions, default=0) + 1

    # ------------------------------------------------------------------
    def observe(self, x=None, *, kernel_matrix=None, sample_weight=None):
        """Absorb one data batch into the shadow (``partial_fit``).

        The live service is untouched; call :meth:`refresh` to publish.
        Returns the shadow for chaining/inspection.
        """
        return self.shadow.partial_fit(
            x, kernel_matrix=kernel_matrix, sample_weight=sample_weight
        )

    def refresh(self) -> str:
        """Publish the shadow: versioned artifact + hot swap.

        Writes ``<basename>-v%04d.npz`` atomically, reloads it, swaps
        the reloaded model into the service, and returns the artifact
        path.  The swapped-in model is the *loaded* one — serving always
        runs on state that provably survives persistence.
        """
        version = self._next_version()
        final = os.path.join(self.artifact_dir, f"{self.basename}-v{version:04d}.npz")
        fd, tmp = tempfile.mkstemp(
            prefix=f".{self.basename}-publish-", suffix=".npz", dir=self.artifact_dir
        )
        os.close(fd)
        try:
            save_model(self.shadow, tmp)
            os.replace(tmp, final)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        if hasattr(self.service, "swap_artifact"):
            # async front door: workers reload the published artifact
            # themselves (the same file a process restart would load)
            self.service.swap_artifact(final)
        else:
            fresh = load_model(final)
            self.service.swap_model(fresh)
        self.history.append(final)
        return final

    @property
    def n_batches_observed(self) -> int:
        """Batches the shadow has absorbed since its cold/warm start."""
        return int(getattr(self.shadow, "n_batches_seen_", 0))

    def latest_artifact(self) -> Optional[str]:
        """The most recently published artifact path (None before any)."""
        return self.history[-1] if self.history else None
