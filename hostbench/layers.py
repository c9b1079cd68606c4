"""Per-layer measurement for the traced run.

:func:`instrument` turns on the ``repro.obs`` tracer, which already
emits ``fit.*``, ``pool.task``, ``minibatch.*`` and ``serve.*`` spans,
and adds spans around the public functions of each layer.  A function
is wrapped under every module-level name that refers to it, so a call
is caught wherever its caller looks the name up
(``repro.engine.reduction.spmm`` as well as ``repro.sparse.spmm``).
Everything is undone on exit.

Work-stealing pool tasks run in the caller's context, so spans on pool
worker threads hang under the span that started the pool.  Self time is
then wall-clock time shared out: at each instant, the innermost open
spans (those with no open child) share the instant equally.  A layer's
self time is the sum over its spans, so layers never count the same
second twice and their sum never exceeds the wall time they cover.

Layer -> metric -> end-to-end metric -> workload map (also in README.md):

============================  ===================================  =======================
layer                         should move                          most work / little work
============================  ===================================  =======================
kernels (Gram, pairwise)      fit_s, predict_s                     fit_highdim / fit_lowdim
sparse (spmm, spmv, V build)  fit_s                                fit_lowdim / fit_highdim
engine.reduction + pool       fit_s, predict_s, serve_p50_ms       fit_lowdim / fit_highdim
engine.base fit loop          fit_s, peak_rss_mb                   fit_lowdim / fit_highdim
engine.minibatch              partial_fit_rows_per_s, p99 (writes) fit_*, writes / serve reads
serve + serve.persist         serve_*, aserve_*                    fit_lowdim / fit_highdim
============================  ===================================  =======================
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import sys
from collections import defaultdict
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.obs import trace

#: spans whose wall-share self time is reported, as ``<name>_s``
SELF_TIME_SPANS = (
    "kernels.gram",
    "kernels.pairwise",
    "sparse.spmm",
    "sparse.spmv",
    "sparse.selection",
    "reduction.fused",
    "reduction.zpass",
    "reduction.sweep",
    "reduction.cross",
    "fit.init",
    "fit.iter",
    "fit.distances",
    "fit.argmin",
    "fit.update",
    "fit.inertia",
    "fit.finalize",
    "minibatch.batch",
    "minibatch.assign",
    "minibatch.update",
)
#: spans left out of the self-time tree: pool tasks only mark worker
#: busy time (their bodies run in the caller's context), and instants
#: have no duration
_NOT_IN_TREE = {"pool.task"}


def _spmm_attrs(a, b, *args, **kwargs) -> dict:
    """Work and traffic of one CSR SpMM, computed from the operand sizes.

    Bytes: the CSR arrays once, one gathered dense row segment per
    nonzero (``nnz * p`` elements), and the ``m x p`` output.
    """
    p = int(b.shape[1])
    item = a.values.dtype.itemsize
    nnz = int(a.nnz)
    moved = (
        a.values.nbytes + a.colinds.nbytes + a.rowptrs.nbytes
        + nnz * p * item + a.shape[0] * p * item
    )
    return {"madds": nnz * p, "bytes": moved}


def _gram_attrs(x, kernel, used) -> dict:
    n, d = x.shape
    flops = 2.0 * n * n * d if used == "gemm" else float(n) * (n + 1) * d
    return {"flops": flops, "method": used}


def _panel_attrs(red) -> dict:
    return {"panel_bytes": int(red.panel_bytes)}


class _Patches:
    """Records every replaced attribute so it can be put back."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def everywhere(self, original, wrapper) -> None:
        """Replace ``original`` under every ``repro`` module-level name."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._undo.append((mod, attr, original, True))
                    setattr(mod, attr, wrapper)

    def method(self, cls, name: str, wrapper) -> None:
        own = name in cls.__dict__
        self._undo.append((cls, name, cls.__dict__.get(name), own))
        setattr(cls, name, wrapper)

    def undo(self) -> None:
        for owner, attr, original, own in reversed(self._undo):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()


def _spanned(fn, name: str, attrs=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        extra = attrs(*args, **kwargs) if attrs is not None else {}
        with trace.span(name, **extra):
            return fn(*args, **kwargs)

    return wrapper


def _in_caller_context(run):
    """Pool ``run`` whose tasks execute in the submitting span's context."""

    @functools.wraps(run)
    def wrapper(self, tasks):
        return run(self, [functools.partial(contextvars.copy_context().run, t) for t in tasks])

    return wrapper


@contextlib.contextmanager
def instrument():
    """Enable the tracer plus the layer spans; restore everything on exit."""
    import repro.core.selection as selection
    import repro.engine.backends as backends
    import repro.engine.base as base
    import repro.engine.reduction as reduction
    import repro.kernels.base as kernels_base
    import repro.serve.frontdoor as frontdoor
    import repro.serve.persist as persist
    import repro.serve.refresh as refresh
    import repro.serve.service as service
    from repro import sparse

    patches = _Patches()
    functions = [
        (backends._host_kernel_matrix, "kernels.gram", _gram_attrs),
        (sparse.spmm, "sparse.spmm", _spmm_attrs),
        (sparse.spmv, "sparse.spmv", None),
        (sparse.selection_matrix, "sparse.selection", None),
        (sparse.weighted_selection_matrix, "sparse.selection", None),
        (selection.build_selection, "sparse.selection", None),
        (reduction.fused_popcorn_argmin, "reduction.fused", None),
        (reduction._label_gather, "reduction.zpass", None),
        (persist.save_model, "persist.save", None),
        (persist.load_model, "persist.load", None),
    ]
    methods = [
        (kernels_base.Kernel, "pairwise", "kernels.pairwise", None),
        (reduction._PopcornArgmin, "run", "reduction.sweep", _panel_attrs),
        (reduction.CrossKernelArgmin, "run", "reduction.cross", _panel_attrs),
        (base.BaseKernelKMeans, "_init_labels", "fit.init", None),
        (base.OutOfSamplePredictor, "_finalize_support", "fit.finalize", None),
        (service.PredictionService, "swap_model", "serve.swap", None),
        (frontdoor.AsyncPredictionServer, "swap_artifact", "serve.async.swap", None),
        (refresh.ModelRefresher, "refresh", "serve.refresh", None),
        (refresh.ModelRefresher, "observe", "serve.observe", None),
    ]
    was_enabled = trace.enabled
    try:
        for fn, name, attrs in functions:
            patches.everywhere(fn, _spanned(fn, name, attrs))
        for cls, attr, name, attrs in methods:
            patches.method(cls, attr, _spanned(getattr(cls, attr), name, attrs))
        patches.method(
            reduction.WorkStealingPool, "run", _in_caller_context(reduction.WorkStealingPool.run)
        )
        trace.enable()
        yield
    finally:
        if not was_enabled:
            trace.disable()
        patches.undo()


def mark() -> int:
    """The tracer position to read the run's spans from."""
    return trace.mark()


def spans_since(mark: int) -> List:
    return trace.spans(mark)


# ----------------------------------------------------------------------
# span analysis
# ----------------------------------------------------------------------

def self_times(spans: Iterable, t0: float, t1: float) -> Dict[int, float]:
    """Wall-share self time of every span that overlaps ``[t0, t1]``.

    Returns ``{span_id: seconds}``; see the module docstring.
    """
    tree = [
        s for s in spans
        if s.t1 > s.t0 and s.name not in _NOT_IN_TREE and s.t1 > t0 and s.t0 < t1
    ]
    ids = {s.span_id for s in tree}
    parent = {s.span_id: (s.parent_id if s.parent_id in ids else None) for s in tree}
    events = []
    for s in tree:
        events.append((max(s.t0, t0), 1, s.span_id))
        events.append((min(s.t1, t1), 0, s.span_id))
    events.sort()  # at equal times, closes (0) before opens (1)
    open_children: Dict[int, int] = defaultdict(int)
    open_spans = set()
    leaves = set()
    out: Dict[int, float] = defaultdict(float)
    prev = None
    for t, opening, sid in events:
        if leaves and prev is not None and t > prev:
            share = (t - prev) / len(leaves)
            for leaf in leaves:
                out[leaf] += share
        prev = t
        p = parent[sid]
        if opening:
            open_spans.add(sid)
            leaves.add(sid)
            if p is not None and p in open_spans:
                open_children[p] += 1
                leaves.discard(p)
        else:
            open_spans.discard(sid)
            leaves.discard(sid)
            if p is not None and p in open_spans:
                open_children[p] -= 1
                if open_children[p] == 0:
                    leaves.add(p)
    return out


def _mean(values: List[float]) -> float:
    return float(np.mean(values)) if values else 0.0


def compute_layers(
    spans: List, windows: List[tuple], roofline: dict, *, n_threads: int
) -> Dict[str, float]:
    """Self-time and work metrics of the compute layers over ``windows``.

    ``windows`` are one fit, one predict and one ``partial_fit`` stream,
    in that order, so the self times of the layers partition the wall
    time of one call of each; ``pool.busy_frac`` is over the fit alone.
    """
    names = {s.span_id: s.name for s in spans}
    by_name: Dict[str, list] = defaultdict(list)
    self_by_name: Dict[str, float] = defaultdict(float)
    for t0, t1 in windows:
        for s in spans:
            if s.t0 >= t0 and s.t1 <= t1:
                by_name[s.name].append(s)
        for sid, sec in self_times(spans, t0, t1).items():
            self_by_name[names[sid]] += sec
    out = {f"{name}_s": self_by_name[name] for name in SELF_TIME_SPANS}

    def total(name: str) -> float:
        return sum(s.duration_s for s in by_name[name])

    def attr_sum(name: str, key: str) -> float:
        return float(sum(s.attrs.get(key, 0) for s in by_name[name]))

    gram_t = total("kernels.gram")
    gram_flops = attr_sum("kernels.gram", "flops")
    out["kernels.gram_gflops"] = gram_flops / gram_t / 1e9 if gram_t else 0.0
    out["kernels.gram_frac_peak"] = out["kernels.gram_gflops"] / roofline["gemm_gflops"]
    out["kernels.pairwise_calls"] = float(len(by_name["kernels.pairwise"]))
    spmm_t = total("sparse.spmm")
    out["sparse.spmm_calls"] = float(len(by_name["sparse.spmm"]))
    out["sparse.spmm_madds"] = attr_sum("sparse.spmm", "madds")
    out["sparse.spmm_bytes"] = attr_sum("sparse.spmm", "bytes")
    out["sparse.spmm_gbps"] = out["sparse.spmm_bytes"] / spmm_t / 1e9 if spmm_t else 0.0
    out["sparse.spmm_frac_stream"] = out["sparse.spmm_gbps"] / roofline["stream_gbps"]
    out["sparse.spmv_calls"] = float(len(by_name["sparse.spmv"]))
    panels = [
        s.attrs.get("panel_bytes", 0)
        for name in ("reduction.sweep", "reduction.cross")
        for s in by_name[name]
    ]
    out["reduction.panel_bytes"] = float(max(panels, default=0))
    tasks = by_name["pool.task"]
    out["pool.tasks"] = float(len(tasks))
    out["pool.steals"] = float(sum(1 for s in tasks if s.attrs.get("stolen")))
    f0, f1 = windows[0]
    fit_busy = sum(s.duration_s for s in tasks if s.t0 >= f0 and s.t1 <= f1)
    out["pool.busy_frac"] = fit_busy / (max(n_threads, 1) * (f1 - f0))
    out["fit.iters"] = float(len(by_name["fit.iter"]))
    return out


def _batch_weighted_ms(batches: List) -> float:
    """Mean batch duration as seen by a request (batches weighted by size)."""
    sizes = np.array([s.attrs.get("size", 1) for s in batches], dtype=np.float64)
    if not sizes.sum():
        return 0.0
    durs = np.array([s.duration_s for s in batches])
    return float((sizes * durs).sum() / sizes.sum() * 1e3)


def _spans_in(spans: List, run) -> Dict[str, list]:
    """Spans by name that lie inside one open-loop run."""
    t0, t1 = float(run.due.min()), float(np.nanmax(run.done))
    by_name: Dict[str, list] = defaultdict(list)
    for s in spans:
        if s.t0 >= t0 and s.t1 <= t1:
            by_name[s.name].append(s)
    return by_name


def serve_layers(spans: List, served: Dict[str, dict]) -> Dict[str, float]:
    """Serving metrics of both front doors.

    ``served`` maps ``"thread"``/``"async"`` to the door's open-loop
    runs: ``"fixed"``, the read-only runs at the fixed rate, which the
    queue and batch metrics come from; and ``"writes"``, the run at the
    same rate with refreshes (or None), which the swap, refresh, observe
    and under-writes metrics come from.  Queue wait is a request's latency
    (answered from the backend, not the cache) minus the duration of the
    batch it rode in, averaged: batch durations are weighted by batch
    size, as a request sees them.
    """
    out: Dict[str, float] = {}
    for door, prefix, batch_span in (
        ("thread", "serve", "serve.batch"),
        ("async", "serve.async", "serve.async.batch"),
    ):
        runs = served[door]["fixed"]
        by_name: Dict[str, list] = defaultdict(list)
        lat: List[float] = []
        for r in runs:
            for name, found in _spans_in(spans, r).items():
                by_name[name] += found
            backend = r.answered & ~r.cache_hit
            lat += list((r.done[backend] - r.due[backend]) * 1e3)
        batches = by_name[batch_span]
        out[f"{prefix}.queue_wait_ms"] = max(_mean(lat) - _batch_weighted_ms(batches), 0.0)
        out[f"{prefix}.batch_ms"] = _mean([s.duration_s * 1e3 for s in batches])
        out[f"{prefix}.batch_size_mean"] = _mean([float(s.attrs.get("size", 0)) for s in batches])
        out[f"{prefix}.cache_hit_ratio"] = float(np.concatenate([r.cache_hit for r in runs]).mean())
        if door == "thread":
            out["serve.shed"] = float(sum(r.shed.sum() for r in runs))
        else:
            out["serve.async.coalesced_ratio"] = float(
                np.concatenate([r.coalesced for r in runs]).mean()
            )
            out["serve.async.worker_hop_ms"] = _mean(
                [s.duration_s * 1e3 for s in by_name["serve.async.worker_predict"]]
            )
        w = served[door]["writes"]
        written = _spans_in(spans, w) if w is not None else defaultdict(list)
        out[f"{prefix}.swap_ms"] = _mean([s.duration_s * 1e3 for s in written[f"{prefix}.swap"]])
        # the plain p99: the refresh stalls are what this one is for
        out[f"{prefix}.p99_under_writes_ms"] = w.percentile_ms(99) if w is not None else 0.0
        if door == "thread":
            out["serve.refresh_s"] = _mean([s.duration_s for s in written["serve.refresh"]])
    out["serve.observe_s"] = _mean([
        s.duration_s
        for door in ("thread", "async") if served[door]["writes"] is not None
        for s in _spans_in(spans, served[door]["writes"])["serve.observe"]
    ])
    return out


def persist_layers(spans: List) -> Dict[str, float]:
    """Mean save / load time over every artifact the run wrote or read."""
    return {
        "persist.save_s": _mean([s.duration_s for s in spans if s.name == "persist.save"]),
        "persist.load_s": _mean([s.duration_s for s in spans if s.name == "persist.load"]),
    }


def write_trace(path: str, spans: List) -> None:
    """Chrome-trace JSON of the run's spans (open in Perfetto)."""
    import json

    from repro.obs import spans_to_chrome_events

    with open(path, "w") as fh:
        json.dump(spans_to_chrome_events(spans), fh)


def support_rows(model) -> int:
    """Rows in a model's out-of-sample support (grows with ``partial_fit``)."""
    sup: Optional[np.ndarray] = getattr(model, "_support_x", None)
    return int(sup.shape[0]) if sup is not None else 0
