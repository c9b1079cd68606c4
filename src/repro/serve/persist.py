"""Versioned, schema-checked model artifacts (save / load / inspect).

A fitted estimator is persisted as a single ``.npz`` file holding the
out-of-sample *support set* the engine-level predict contract
(:class:`repro.engine.base.OutOfSamplePredictor`) consumes, plus a JSON
metadata header stored as a UTF-8 byte array under the ``__meta__`` key.
No pickling is involved anywhere (``allow_pickle=False`` on load), so
artifacts are safe to exchange and the array payloads round-trip
**bit-exactly**: ``load_model(save_model(est, p)).predict(q)`` is
bit-identical to ``est.predict(q)`` (tested property).

Header schema (``MODEL_SCHEMA_VERSION`` = 3)::

    {
      "format": "repro-serve-model",
      "schema_version": 3,
      "estimator": "<registry name>",       # repro.estimators key, e.g. "popcorn"
      "params": {...},                      # JSON-encoded get_params() of the fit
      "fit": {"n_iter": int|null, "objective": float|null,
              "converged": bool|null, "backend": str|null},
      "online": {...} | absent,             # partial_fit counters (see below)
      "arrays": [<npz keys present>, ...]
    }

Since schema version 2 the header is **registry-driven**: ``estimator``
is the :mod:`repro.estimators` registry key and ``params`` is the
estimator's introspected configuration
(:func:`repro.estimators.estimator_config`), so loading reconstructs the
exact estimator through :func:`~repro.estimators.make_estimator` —
there is no estimator-class switch statement anywhere, and a newly
registered estimator gets persistence for free.

Schema version 3 adds **online-fitted models**: an estimator carrying
mini-batch ``partial_fit`` state (:mod:`repro.engine.minibatch`)
additionally persists its explicit support selection matrix
(``support_v_*`` CSR arrays — after online updates ``labels_`` covers
only the last batch, so V is no longer derivable from it) plus the
per-cluster accumulated weights (``online_counts``) and the
smoothed-inertia counters under the ``online`` header key
(``n_batches_seen`` / ``ewa_inertia`` / ``ewa_inertia_min`` /
``no_improvement`` / ``precomputed``).  Loading such an artifact
reconstructs the live online state, so ``partial_fit`` continues exactly
where the saved model stopped (the reassignment RNG is reseeded from the
``seed`` parameter — artifacts stay pickle-free).

Loading rejects non-artifacts, damaged artifacts (every array is read
inside one guarded block), unknown estimator names, and any
``schema_version`` other than the current one with a clear
:class:`~repro.errors.ConfigError` — never a bare traceback.
"""

from __future__ import annotations

import json
import os
import zipfile
from typing import Dict

import numpy as np

from ..errors import ConfigError, SparseFormatError
from ..estimators import estimator_config, estimator_from_config

__all__ = [
    "MODEL_FORMAT",
    "MODEL_SCHEMA_VERSION",
    "save_model",
    "load_model",
    "inspect_model",
]

MODEL_FORMAT = "repro-serve-model"
MODEL_SCHEMA_VERSION = 3

#: npz key -> estimator attribute; every key is optional except
#: ``labels``/``c_norms`` (the engine predict contract's minimum).
#: ``centers_`` is not stored separately: for the classical estimators it
#: is the same matrix as ``support_centers`` and is re-aliased on load.
_ARRAY_ATTRS = (
    ("labels", "labels_"),
    ("c_norms", "_c_norms"),
    ("support_x", "_support_x"),
    ("support_weights", "_support_weights"),
    ("support_centers", "_support_centers"),
    ("landmark_x", "_landmark_x"),
    ("nystrom_map", "_nystrom_map"),
    ("landmarks", "landmarks_"),
)

#: estimators (by registry name) whose public ``centers_`` is the
#: persisted support_centers
_CENTERS_ALIASED = ("lloyd", "elkan")


def _fit_metadata(model) -> dict:
    objective = getattr(model, "objective_", None)
    if objective is None:
        objective = getattr(model, "inertia_", None)
    n_iter = getattr(model, "n_iter_", None)
    converged = getattr(model, "converged_", None)
    return {
        "n_iter": None if n_iter is None else int(n_iter),
        "objective": None if objective is None else float(objective),
        "converged": None if converged is None else bool(converged),
        "backend": getattr(model, "backend_", None),
    }


def save_model(model, path: str) -> str:
    """Persist a fitted estimator as a versioned ``.npz`` artifact.

    Returns the path written.  The estimator must be fitted,
    predict-capable (the engine contract's support set present), and
    registered in :mod:`repro.estimators`; custom estimator or kernel
    classes outside the registries are rejected.
    """
    try:
        config = estimator_config(model)  # rejects unregistered classes
    except ConfigError as exc:
        raise ConfigError(f"cannot persist {type(model).__name__}: {exc}") from exc
    if not hasattr(model, "labels_"):
        raise ConfigError("estimator is not fitted; call fit() before save_model")
    if getattr(model, "_c_norms", None) is None and getattr(
        model, "_support_centers", None
    ) is None:
        raise ConfigError(
            f"{config['estimator']} carries no out-of-sample support set; refit "
            "with this version of the package before saving"
        )

    arrays: Dict[str, np.ndarray] = {}
    for key, attr in _ARRAY_ATTRS:
        val = getattr(model, attr, None)
        if val is not None:
            arrays[key] = np.asarray(val)

    meta = {
        "format": MODEL_FORMAT,
        "schema_version": MODEL_SCHEMA_VERSION,
        "estimator": config["estimator"],
        "params": config["params"],
        "fit": _fit_metadata(model),
        "arrays": sorted(arrays),
    }

    # online-fitted models carry live partial_fit state: the explicit
    # support V (labels_ covers only the last batch, so V cannot be
    # rebuilt from it) and the per-cluster counts + smoothed-inertia
    # counters that make the loaded model resume where this one stopped
    online = getattr(model, "_online", None)
    v = getattr(model, "_support_v", None)
    if online is not None and v is not None:
        arrays["support_v_values"] = np.asarray(v.values)
        arrays["support_v_colinds"] = np.asarray(v.colinds)
        arrays["support_v_rowptrs"] = np.asarray(v.rowptrs)
        arrays["support_v_shape"] = np.asarray(v.shape, dtype=np.int64)
        arrays["online_counts"] = np.asarray(online.counts, dtype=np.float64)
        meta["online"] = {
            "n_batches_seen": int(getattr(model, "n_batches_seen_", 0)),
            **online.counters(),
        }
        meta["arrays"] = sorted(arrays)
    header = np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)

    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=header, **arrays)
    return path


#: what reading a damaged zip member raises: zipfile's CRC and header
#: checks (BadZipFile), numpy's ``.npy`` header parser (ValueError),
#: short records (OSError, EOFError), and flipped flag or method fields
#: (RuntimeError: "encrypted", or its NotImplementedError subclass for an
#: unknown compression method)
_READ_ERRORS = (zipfile.BadZipFile, ValueError, OSError, EOFError, RuntimeError)


def _read_artifact(path: str):
    """Read an artifact whole; returns ``(meta dict, {key: array})``.

    ``np.load`` opens an ``.npz`` lazily, so every member is read here,
    inside the one guarded block: a damaged payload raises
    :class:`~repro.errors.ConfigError` naming the path, never a raw
    zipfile or numpy error on first access.
    """
    if not os.path.exists(path):
        raise ConfigError(f"no such model artifact: {path}")
    try:
        npz = np.load(path, allow_pickle=False)
        if not isinstance(npz, np.lib.npyio.NpzFile):
            raise ConfigError("a bare .npy array, not an .npz archive")
        with npz:
            arrays = {key: npz[key] for key in npz.files}
    except _READ_ERRORS as exc:
        raise ConfigError(f"{path}: not a readable model artifact: {exc}") from exc
    header = arrays.pop("__meta__", None)
    if header is None:
        raise ConfigError(f"{path}: missing metadata header; not a {MODEL_FORMAT} artifact")
    try:
        meta = json.loads(bytes(header).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: corrupt metadata header: {exc}") from exc
    if not isinstance(meta, dict) or meta.get("format") != MODEL_FORMAT:
        raise ConfigError(f"{path}: not a {MODEL_FORMAT} artifact")
    if meta.get("schema_version") != MODEL_SCHEMA_VERSION:
        got = meta.get("schema_version")
        raise ConfigError(
            f"{path}: model schema version {got!r} is not supported by this "
            f"package (expected {MODEL_SCHEMA_VERSION}); refit the estimator "
            "with this version and save_model it again"
        )
    missing = sorted(set(meta.get("arrays") or ()) - set(arrays))
    if missing:
        raise ConfigError(f"{path}: damaged artifact; header lists missing array(s) {missing}")
    return meta, arrays


def load_model(path: str):
    """Reconstruct a fitted, predict-capable estimator from an artifact.

    The estimator is rebuilt through the registry
    (:func:`repro.estimators.make_estimator` on the persisted
    ``(estimator, params)`` header — its configuration re-validates on the
    way in); all arrays load bit-exactly, so ``predict`` is bit-identical
    to the estimator that was saved.
    """
    meta, arrays = _read_artifact(path)
    name = meta.get("estimator")
    try:
        model = estimator_from_config(name, meta.get("params"))
    except ConfigError as exc:
        raise ConfigError(f"{path}: unknown estimator config: {exc}") from exc
    fit = meta.get("fit") or {}
    if fit.get("n_iter") is not None:
        model.n_iter_ = int(fit["n_iter"])
    if fit.get("objective") is not None:
        model.objective_ = float(fit["objective"])
    if fit.get("converged") is not None:
        model.converged_ = bool(fit["converged"])
    if fit.get("backend") is not None:
        model.backend_ = fit["backend"]
    for key, attr in _ARRAY_ATTRS:
        if key in arrays:
            setattr(model, attr, arrays[key])
    if name in _CENTERS_ALIASED and getattr(model, "_support_centers", None) is not None:
        model.centers_ = model._support_centers
    if "support_v_values" in arrays:
        model._support_v = _support_v_from(path, arrays)
    online_meta = meta.get("online")
    if online_meta is not None and "online_counts" in arrays:
        from ..engine.minibatch import restore_online_state

        model.n_batches_seen_ = int(online_meta.get("n_batches_seen", 0))
        restore_online_state(model, arrays["online_counts"], online_meta)
    if not hasattr(model, "labels_"):
        raise ConfigError(f"{path}: artifact carries no labels array")
    return model


def _support_v_from(path: str, arrays: Dict[str, np.ndarray]):
    """The persisted support selection matrix, bounds-checked.

    The compiled SpMM/SpMV kernel does no bounds checking, so a file
    whose CSR arrays point outside the matrix would read out of bounds
    at predict time.  Row offsets, column range, array lengths and the
    support width are checked here; column order within a row is not,
    since mini-batch updates build the support V unsorted.
    """
    from ..sparse import CSRMatrix

    try:
        shape = tuple(int(s) for s in np.asarray(arrays["support_v_shape"]).ravel())
        if len(shape) != 2:
            raise SparseFormatError(f"support_v_shape must hold 2 entries, got {len(shape)}")
        v = CSRMatrix(
            arrays["support_v_values"],
            arrays["support_v_colinds"],
            arrays["support_v_rowptrs"],
            shape,
            check=False,
        )
        v.validate(canonical=False)
    except (SparseFormatError, ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: damaged support selection matrix: {exc}") from exc
    support_x = arrays.get("support_x")
    if support_x is not None and (support_x.ndim != 2 or support_x.shape[0] != v.ncols):
        raise ConfigError(
            f"{path}: support selection matrix has {v.ncols} columns but the "
            f"support set has shape {support_x.shape}"
        )
    c_norms = arrays.get("c_norms")
    if c_norms is not None and c_norms.shape != (v.nrows,):
        raise ConfigError(
            f"{path}: support selection matrix has {v.nrows} rows but c_norms "
            f"has shape {c_norms.shape}"
        )
    return v


def inspect_model(path: str) -> dict:
    """Artifact metadata plus per-array shapes/dtypes (no estimator built)."""
    meta, arrays = _read_artifact(path)
    meta = dict(meta)
    meta["array_info"] = {
        key: {"shape": list(arr.shape), "dtype": str(arr.dtype)}
        for key, arr in arrays.items()
    }
    meta["file_bytes"] = os.path.getsize(path)
    return meta
