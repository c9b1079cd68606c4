"""The two workloads and the measurement of one run.

Every workload runs on the host path (``backend="host"``, float32) with
a Gaussian kernel of ``gamma = 1/d`` -- with the default ``gamma = 1``
high-dimensional blobs give ``K ~ I`` and a trivial clustering.  Each
workload goes through the whole life of a model: ``fit``, ``predict``,
``partial_fit``, save/load, and serving through both front doors.  The
workloads differ in shape, and so in which layer does most of the work:

``fit_lowdim``
    n=10000, d=16, k=32, 8 iterations.  Low d keeps the Gram stage
    under a tenth of ``fit_s``; the per-iteration distance step (CSR
    SpMM/SpMV inside the reduction's z-pass and sweep) is most of it.
    K is 400 MB in float32, more than the last-level cache, so the SpMM
    streams from memory.  Its cheap (d=16) model is then served: a
    Poisson stream of single-row queries, 20% of them repeats from a
    64-row hot set, and, in a run of its own per front door, the same
    reads while a second thread refreshes the model (``partial_fit`` on
    500 rows, save, hot swap) three times.
``fit_highdim``
    n=5000, d=4096, k=10, 3 iterations.  The n^2 d Gram (the GEMM/SYRK
    dispatch of paper Sec. 4.2) and the m n d cross-kernel of
    ``predict`` dominate; the distance step does not depend on d.  The
    shape mirrors the paper's high-dimensional datasets (cifar10,
    d=3072).  A CSR-kernel change should not move it; a Gram change
    should.  Its model is served read-only; a full served batch costs
    about 50 ms, most of it the cross-kernel.

Both workloads make the same measured fit round (fit, predict,
``partial_fit``) and serve their fitted model through
``PredictionService`` and then ``AsyncPredictionServer`` (one worker
process loaded from the saved artifact), so that each reports every
end-to-end metric.  Each door serves for half of ``--seconds``.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import os
import shutil
import statistics
import threading
import time
from typing import Dict, List, Optional

import numpy as np

from repro import PopcornKernelKMeans
from repro.data.synthetic import make_blobs
from repro.kernels import GaussianKernel
from repro.serve import (
    AsyncPredictionServer,
    ModelRefresher,
    PredictionService,
    ServeConfig,
    persist,
)

import layers
import loadgen
import machine
from reference import DenseKernelKMeans

#: end-to-end metrics (``--trace 0``): name -> unit
END_TO_END_UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "predict_s": "s",
    "partial_fit_rows_per_s": "rows/s",
    "label_agreement": "fraction",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
    "serve_p50_ms": "ms",
    "serve_max_qps": "q/s",
    "aserve_p50_ms": "ms",
    "aserve_max_qps": "q/s",
}
_SELF = {f"{name}_s": "s" for name in layers.SELF_TIME_SPANS}
#: per-layer metrics (``--trace 1``): name -> unit
PER_LAYER_UNITS = {
    **_SELF,
    "kernels.gram_gflops": "GFLOP/s",
    "kernels.gram_frac_peak": "fraction",
    "kernels.pairwise_calls": "count",
    "sparse.spmm_calls": "count",
    "sparse.spmm_madds": "count",
    "sparse.spmm_bytes": "bytes",
    "sparse.spmm_gbps": "GB/s",
    "sparse.spmm_frac_stream": "fraction",
    "sparse.spmv_calls": "count",
    "reduction.panel_bytes": "bytes",
    "pool.tasks": "count",
    "pool.steals": "count",
    "pool.busy_frac": "fraction",
    "fit.iters": "count",
    "minibatch.support_rows": "count",
    "serve_p99_ms": "ms",
    "aserve_p99_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.batch_ms": "ms",
    "serve.batch_size_mean": "count",
    "serve.cache_hit_ratio": "fraction",
    "serve.shed": "count",
    "serve.swap_ms": "ms",
    "serve.p99_under_writes_ms": "ms",
    "serve.refresh_s": "s",
    "serve.async.queue_wait_ms": "ms",
    "serve.async.batch_ms": "ms",
    "serve.async.batch_size_mean": "count",
    "serve.async.cache_hit_ratio": "fraction",
    "serve.async.coalesced_ratio": "fraction",
    "serve.async.worker_hop_ms": "ms",
    "serve.async.swap_ms": "ms",
    "serve.async.p99_under_writes_ms": "ms",
    "serve.observe_s": "s",
    "persist.save_s": "s",
    "persist.load_s": "s",
    "host.stream_gbps": "GB/s",
    "host.gemm_gflops": "GFLOP/s",
    "gen.lateness_p99_ms": "ms",
    "obs.overhead_frac": "fraction",
    "fail_frac": "fraction",
}

SERVE_CONFIG = dict(batch_size=32, max_delay_ms=2.0, n_workers=1, queue_bound=512, cache_size=1024)
#: serving set-up is repeated this many times per run; setup_s is the
#: median plus the (single) data generation
SETUP_REPEATS = 3
#: predict is timed this many times per fit round, and the partial_fit
#: stream run this many times (each on a copy of the fitted model); fit
#: repeats are per workload.  The metrics are the better quartile of the
#: repeats (see :func:`better_quartile`).  The first full-size partial_fit stream of a
#: process runs up to 25% slow
PREDICT_REPEATS = 5
PF_REPEATS = 4
#: unmeasured traffic at the fixed rate before a door's first measured
#: run and before its run with writes: the first requests after a pause
#: (the other door's runs, a closed loop's saturation) run slow
RAMP_S = 0.5
#: open-loop warm-up traffic per front door at start-up, seconds
WARMUP_S = 0.2
#: a fit or predict agreeing with the reference on less than this is wrong
MIN_AGREEMENT = 0.999
#: rows of the untimed warm-up fit made before the measured fit rounds
WARMUP_ROWS = 256
#: seconds of all-core spin before the measured fit rounds (machine.spin)
SPIN_S = 2.0
#: half-width of the box make_blobs draws cluster centres from.  With its
#: default of 10, 5-14% of the float32 Gaussian kernel entries (gamma =
#: 1/d) between far-apart blobs are subnormal, a share that changes with
#: the seed, and subnormal arithmetic is many times slower: fit and
#: predict times then depended on the seed by up to 30%.  At 5 no entry
#: is subnormal and the blobs are still well apart.
CENTER_BOX = 5.0


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    n: int
    d: int
    k: int
    iters: int
    fit_repeats: int  # fits per fit round; fit_s is their median
    rate: tuple  # fixed offered rate (thread, async), 10-20% of capacity
    segments: int  # read segments per door: a fixed-rate run, then a closed loop
    slo_ms: float = 20.0  # a request 10 SLOs late counts as failed
    n_predict: int = 2000
    pf_batches: int = 4
    pf_rows: int = 1000
    pool_rows: int = 2048
    refreshes: int = 0  # per front door, during its write run
    write_share: float = 0.0  # share of a door's time in the fixed-rate run with writes
    refresh_rows: int = 500
    #: serve with one BLAS thread per process (machine.single_blas_thread):
    #: right for a model whose served batches are small GEMMs, wrong for
    #: one whose batches a second BLAS thread makes twice as fast
    serve_single_blas: bool = False


WORKLOADS = {
    "fit_lowdim": Workload(
        "fit_lowdim", n=10000, d=16, k=32, iters=8, fit_repeats=1,
        rate=(500, 400), segments=10, refreshes=3, write_share=0.25,
        serve_single_blas=True,
    ),
    "fit_highdim": Workload(
        "fit_highdim", n=5000, d=4096, k=10, iters=3, fit_repeats=3,
        rate=(100, 80), segments=4, slo_ms=300.0,
    ),
}


def toy(wl: Workload) -> Workload:
    """A seconds-long version of ``wl`` for the self-test."""
    return dataclasses.replace(
        wl, n=min(wl.n, 400), d=min(wl.d, 64), k=min(wl.k, 8), iters=2,
        n_predict=100, pf_rows=50, pool_rows=1100, refresh_rows=40,
        rate=(300, 300),
    )


# ----------------------------------------------------------------------
# bookkeeping
# ----------------------------------------------------------------------

def _median(values) -> float:
    return float(statistics.median(values))


def better_quartile(values, better: str) -> float:
    """The quartile on the better side of repeated measurements of the
    same work (the lower quartile of times, the upper one of rates).

    Outside load on a shared host only ever slows a repeat down and comes
    and goes within seconds, so the slower repeats say more about the
    host than about the program; the single best repeat can be a lucky
    outlier (on ``fit_highdim`` one predict in five at times ran 25%
    faster than the rest).  The quartile skips both.  A change that slows
    every repeat shows in full.
    """
    return float(np.quantile(values, 0.25 if better == "lower" else 0.75))


class Tally:
    """Attempted and failed operations of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.errors: List[str] = []

    def op(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, n: int, why: str) -> None:
        if n:
            self.failed += n
            self.errors.append(f"{n} x {why}")


@dataclasses.dataclass
class Data:
    train: np.ndarray
    init: np.ndarray
    predict: np.ndarray
    updates: np.ndarray  # the partial_fit stream
    refresh: np.ndarray  # the writer's batches
    rows: loadgen.QueryRows


def seeded_init(x: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Each row's nearest (Euclidean) of ``k`` far-apart rows.

    The first row is drawn from ``seed``, each next one is the row
    farthest from those already chosen, so every blob gets one.
    Uniformly random labels would start from k nearly equal centroids,
    a near-tie for every row in the first assignment step; two starting
    rows in one blob would split it into two near-tied clusters.  Either
    way float32 rounding would send the program and the float64
    reference down different paths.
    """
    xd = x.astype(np.float64)
    sq = (xd * xd).sum(1)
    chosen = [int(np.random.default_rng([seed, 1]).integers(x.shape[0]))]
    nearest = np.full(x.shape[0], np.inf)
    for _ in range(k - 1):
        c = xd[chosen[-1]]
        nearest = np.minimum(nearest, sq - 2.0 * (xd @ c) + c @ c)
        chosen.append(int(np.argmax(nearest)))
    c = xd[chosen]
    return np.argmin((c * c).sum(1)[None, :] - 2.0 * (xd @ c.T), axis=1).astype(np.int32)


def make_data(wl: Workload, seed: int) -> Data:
    """The workload's arrays, all drawn from ``seed``."""
    sizes = [
        wl.n, wl.n_predict, wl.pf_batches * wl.pf_rows, 2 * wl.refreshes * wl.refresh_rows,
        wl.pool_rows, loadgen.HOT_ROWS,
    ]
    x, _ = make_blobs(sum(sizes), wl.d, wl.k, center_box=CENTER_BOX, rng=seed)
    train, pred, updates, refresh, pool, hot = np.split(x, np.cumsum(sizes)[:-1])
    init = seeded_init(train, wl.k, seed)
    return Data(train, init, pred, updates, refresh, loadgen.QueryRows(pool, hot))


def new_estimator(wl: Workload, n_threads: Optional[int]) -> PopcornKernelKMeans:
    return PopcornKernelKMeans(
        wl.k,
        kernel=GaussianKernel(gamma=1.0 / wl.d),
        backend="host",
        max_iter=wl.iters,
        check_convergence=False,
        n_threads=n_threads,
    )


@dataclasses.dataclass
class Round:
    model: Optional[PopcornKernelKMeans]  # after the last partial_fit stream: served
    fit_labels: np.ndarray
    predict_labels: np.ndarray
    fit_s: float
    predict_s: float
    pf_rows_per_s: float
    support_rows: int  # support rows of ``model``
    #: one fit, one predict and one partial_fit stream, as (t0, t1): the
    #: traced run's layer metrics cover exactly these
    windows: List[tuple]
    repeats: Dict[str, list]  # every timed repeat, for the result record


def warm_up(wl: Workload, data: Data, n_threads: int, spin_s: float) -> None:
    """An all-core spin, then an untimed toy fit, predict and partial_fit,
    so the measured round does not pay for first calls (imports, thread
    pools, BLAS start-up) or for a machine still idling."""
    machine.spin(spin_s)
    m = min(WARMUP_ROWS, wl.n)
    est = new_estimator(wl, n_threads).fit(data.train[:m], init_labels=np.arange(m) % wl.k)
    est.predict(data.predict[:m])
    est.partial_fit(data.updates[:m])


def fit_round(wl: Workload, data: Data, n_threads: int, tally: Tally) -> Round:
    """fit, then predict on held-out rows, then the warm partial_fit stream."""
    fit_times = []
    for _ in range(wl.fit_repeats):
        est = new_estimator(wl, n_threads)
        tally.op()
        t0 = time.perf_counter()
        est.fit(data.train, init_labels=data.init)
        fit_window = (t0, time.perf_counter())
        fit_times.append(fit_window[1] - t0)
    pred_times = []
    for _ in range(PREDICT_REPEATS):
        tally.op()
        tp = time.perf_counter()
        pred = est.predict(data.predict)
        pred_window = (tp, time.perf_counter())
        pred_times.append(pred_window[1] - tp)
    pf_rates = []
    for _ in range(PF_REPEATS):
        stream = copy.deepcopy(est)
        tp = time.perf_counter()
        for b in range(wl.pf_batches):
            tally.op()
            labels = stream.partial_fit(data.updates[b * wl.pf_rows:(b + 1) * wl.pf_rows]).labels_
            if labels.min() < 0 or labels.max() >= wl.k:
                tally.fail(1, "partial_fit label out of range")
        pf_window = (tp, time.perf_counter())
        pf_rates.append(wl.pf_batches * wl.pf_rows / (pf_window[1] - tp))
    return Round(
        stream, est.labels_.copy(), pred, better_quartile(fit_times, "lower"),
        better_quartile(pred_times, "lower"), better_quartile(pf_rates, "higher"), layers.support_rows(stream),
        [fit_window, pred_window, pf_window],
        {"fit_s": fit_times, "predict_s": pred_times, "partial_fit_rows_per_s": pf_rates},
    )


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------

class Doors:
    """Both front doors over one artifact, plus their refreshers."""

    def __init__(self, wl: Workload, artifact: str, workdir: str, warm: np.ndarray,
                 rows: loadgen.QueryRows) -> None:
        cfg = ServeConfig(**SERVE_CONFIG)
        self.wl = wl
        self.rows = rows
        self.loop: Optional[loadgen.LoopThread] = None
        self.server = None
        self.refreshers: Dict[str, ModelRefresher] = {}
        self.models = {"thread": {1: artifact}, "async": {1: artifact}}
        self.service = PredictionService(persist.load_model(artifact), cfg)
        try:
            self.loop = loadgen.LoopThread()
            server = AsyncPredictionServer(artifact, cfg, processes=True, start_method="spawn")
            self.loop.call(server.start())
            self.server = server
            self.service.predict_many(warm)
            self.loop.call(self.server.predict_many(warm))
            # the first moments of sustained traffic run slow; keep them
            # out of the measurement
            warm_rng = np.random.default_rng(0)
            for door in ("thread", "async"):
                self.drive(door, wl.rate[0 if door == "thread" else 1], WARMUP_S, warm_rng)
            if wl.refreshes:
                for door, target in (("thread", self.service), ("async", self.server)):
                    self.refreshers[door] = ModelRefresher(
                        target, os.path.join(workdir, door), basename=door
                    )
        except BaseException:
            self.close()
            raise

    def drive(self, door: str, rate: float, duration: float, rng) -> loadgen.RunResult:
        if door == "thread":
            return loadgen.drive_thread(self.service, self.rows, rate, duration, rng)
        return loadgen.drive_async(self.loop, self.server, self.rows, rate, duration, rng)

    def close(self) -> None:
        """Stop both doors: the worker process, then the loop thread."""
        try:
            self.service.close()
            if self.server is not None:
                self.loop.call(self.server.close())
        finally:
            self.server = None
            if self.loop is not None:
                self.loop.close()
                self.loop = None


def _writer(doors: Doors, door: str, batches: List[np.ndarray], duration: float,
            stop: threading.Event, tally: Tally) -> None:
    """Refresh ``door`` once in the middle of each of ``len(batches)``
    equal slices of ``duration``: observe one batch, then publish."""
    refresher = doors.refreshers[door]
    t_start = time.perf_counter()
    for i, rows in enumerate(batches):
        due = t_start + (i + 0.5) * duration / len(batches)
        if stop.wait(max(due - time.perf_counter(), 0.0)):
            return
        tally.op(2)
        try:
            refresher.observe(rows)
            path = refresher.refresh()
        except Exception as exc:  # counted, and the run goes on
            tally.fail(1, f"refresh: {exc!r}")
            continue
        doors.models[door][len(doors.models[door]) + 1] = path


def write_run(doors: Doors, door: str, duration: float, rng, tally: Tally,
              updates: List[np.ndarray]) -> loadgen.RunResult:
    """A fixed-rate run while a writer thread refreshes the model once
    per batch of ``updates``."""
    rate = doors.wl.rate[0 if door == "thread" else 1]
    doors.drive(door, rate, RAMP_S, rng)
    stop = threading.Event()
    writer = threading.Thread(
        target=_writer,
        args=(doors, door, updates, duration, stop, tally),
        name="hostbench-writer",
    )
    writer.start()
    try:
        return doors.drive(door, rate, duration, rng)
    finally:
        stop.set()
        writer.join()


def capacity(doors: Doors, door: str, duration: float, rng) -> loadgen.RunResult:
    """A closed-loop run at saturation; its answer rate is the capacity."""
    if door == "thread":
        return loadgen.drive_thread_closed(doors.service, doors.rows, duration, rng)
    return loadgen.drive_async_closed(doors.loop, doors.server, doors.rows, duration, rng)


def serve_door(doors: Doors, door: str, duration: float, rng, tally: Tally,
               updates: List[np.ndarray]) -> dict:
    """One door's share of the serving time.

    A ramp of :data:`RAMP_S` (not measured), then ``segments`` read
    segments, each a run at the door's fixed rate followed by a closed
    loop; then, if the workload has writes, the run with writes.  The
    door's p50 and capacity are the better quartile over the segments
    (see :func:`better_quartile`), so a burst of outside load on a
    shared host spoils some segments, not the figure.
    """
    wl = doors.wl
    read_s = duration * (1.0 - wl.write_share) / wl.segments
    rate = wl.rate[0 if door == "thread" else 1]
    doors.drive(door, rate, RAMP_S, rng)
    fixed, closed = [], []
    for _ in range(wl.segments):
        fixed.append(doors.drive(door, rate, read_s / 2, rng))
        closed.append(capacity(doors, door, read_s / 2, rng))
    writes = None
    if wl.refreshes:
        writes = write_run(doors, door, duration * wl.write_share, rng, tally, updates)
    return {
        "fixed": fixed,
        "closed": closed,
        "writes": writes,
        "p50_ms": better_quartile([r.percentile_ms(50) for r in fixed], "lower"),
        "max_qps": better_quartile([c.throughput_qps() for c in closed], "higher"),
    }


def check_served(doors: Doors, door: str, runs: List[loadgen.RunResult], k: int,
                 tally: Tally, corrupt: bool) -> None:
    """Every served label must equal batch ``predict`` under its model version."""
    rows = doors.rows.rows
    if corrupt:  # self-test hook: one wrong answer must be caught
        for r in runs:
            ok = np.flatnonzero(r.answered)
            if ok.size:
                r.label[ok[0]] = (r.label[ok[0]] + 1) % k
                break
    for version, artifact in doors.models[door].items():
        served_idx, served_lab = [], []
        for r in runs:
            sel = r.answered & (r.version == version)
            served_idx.append(r.row[sel])
            served_lab.append(r.label[sel])
        idx = np.concatenate(served_idx)
        if not idx.size:
            continue
        uniq, inv = np.unique(idx, return_inverse=True)
        want = persist.load_model(artifact).predict(rows[uniq])[inv]
        bad = int((want != np.concatenate(served_lab)).sum())
        tally.mismatched += bad
        tally.fail(bad, f"{door} served label differs from predict (version {version})")
    for r in runs:
        tally.fail(int(r.error.sum()), f"{door} request error")


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------

def _refresh_batches(wl: Workload, data: Data, slot: int) -> List[np.ndarray]:
    """The ``slot``-th group of refresh batches (one group per front door)."""
    if not wl.refreshes:
        return []
    n_rows = wl.refreshes * wl.refresh_rows
    return np.split(data.refresh[slot * n_rows:(slot + 1) * n_rows], wl.refreshes)


class Tracing:
    """The traced run's instrumentation window (a no-op when untraced)."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self._cm = None
        self.mark = 0
        self.spans: list = []

    def start(self) -> None:
        if self.enabled and self._cm is None:
            self._cm = layers.instrument()
            self._cm.__enter__()
            self.mark = layers.mark()

    def stop(self) -> None:
        if self._cm is not None:
            self.spans = layers.spans_since(self.mark)
            self._cm.__exit__(None, None, None)
            self._cm = None


def run(name: str, seed: int, seconds: float, traced: bool, *, root: str,
        toy_size: bool = False, corrupt: bool = False) -> dict:
    """Measure one workload; returns the result record (see ``run.py``).

    Every workload makes one untimed warm-up and one measured fit round,
    then serves its fitted model for ``seconds``, half per front door
    (:func:`serve_door`).  The traced run makes one untraced and then one traced fit round, to
    measure the tracer's own overhead; tracing stays on while it serves.
    """
    wl = toy(WORKLOADS[name]) if toy_size else WORKLOADS[name]
    nthreads = machine.nproc()
    out_dir = os.path.join(root, "hostbench", "out")
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tally = Tally()
    rng = np.random.default_rng([seed, 2])
    tracing = Tracing(traced)
    info: Dict[str, object] = {
        "fingerprint": machine.fingerprint(root),
        "config": {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
            "toy": toy_size, "n_threads": nthreads, "shape": dataclasses.asdict(wl),
            "serve": SERVE_CONFIG, "deadline_ms": loadgen.DEADLINE_SLOS * wl.slo_ms,
        },
    }
    roof = machine.roofline(64 << 20 if toy_size else None) if traced else None
    info["roofline"] = roof
    ticks0 = machine.cpu_ticks()

    # set-up A: the inputs
    t0 = time.perf_counter()
    data = make_data(wl, seed)
    gen_s = time.perf_counter() - t0
    machine.reset_peak_rss()

    doors: Optional[Doors] = None
    rounds: List[Round] = []
    phases = {"data_s": gen_s}
    info["phase_s"] = phases
    try:
        t0 = time.perf_counter()
        warm_up(wl, data, nthreads, 0.1 if toy_size else SPIN_S)
        phases["warm_up_s"] = time.perf_counter() - t0
        for i in range(2 if traced else 1):
            if traced and i == 1:
                tracing.start()
            if rounds:
                rounds[-1].model = None  # one model alive at a time
            t0 = time.perf_counter()
            rounds.append(fit_round(wl, data, nthreads, tally))
            phases[f"fit_round{i}_s"] = time.perf_counter() - t0
        fitted = rounds[-1]

        # serving, set-up included
        blas = machine.single_blas_thread() if wl.serve_single_blas else contextlib.nullcontext()
        with blas:
            # set-up B: save, load, start both doors, warm up
            setup_times = []
            for rep in range(SETUP_REPEATS):
                if doors is not None:
                    doors.close()
                    doors = None
                rep_dir = os.path.join(workdir, f"setup{rep}")
                os.makedirs(rep_dir)
                t0 = time.perf_counter()
                artifact = persist.save_model(fitted.model, os.path.join(rep_dir, "model.npz"))
                doors = Doors(wl, artifact, rep_dir, data.predict[: loadgen.HOT_ROWS], data.rows)
                setup_times.append(time.perf_counter() - t0)
            setup_s = gen_s + _median(setup_times)
            phases["setup_s"] = setup_times
            t0 = time.perf_counter()

            served = {
                door: serve_door(doors, door, seconds / 2, rng, tally,
                                 _refresh_batches(wl, data, slot))
                for slot, door in enumerate(("thread", "async"))
            }
        tracing.stop()
        peak_mb = machine.peak_rss_mb()
        phases["serve_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()

        # correctness
        for door in ("thread", "async"):
            fixed_runs = served[door]["fixed"] + [
                r for r in [served[door]["writes"]] if r is not None
            ]
            for r in fixed_runs:
                tally.op(r.n)
                tally.fail(int(r.shed.sum()), f"{door} shed at the fixed rate")
                tally.fail(r.n_late(wl.slo_ms), f"{door} answered later than the deadline")
            for r in served[door]["closed"]:
                tally.op(r.n)
                tally.fail(int(r.shed.sum()), f"{door} shed in the closed loop")
            check_served(doors, door, fixed_runs + served[door]["closed"], wl.k, tally,
                         corrupt and door == "thread")
        ref = DenseKernelKMeans(data.train, wl.k, 1.0 / wl.d)
        fit_agree = float((ref.fit(data.init, wl.iters) == fitted.fit_labels).mean())
        pred_agree = float((ref.predict(data.predict) == fitted.predict_labels).mean())
        phases["check_s"] = time.perf_counter() - t0
    finally:
        tracing.stop()
        if doors is not None:
            doors.close()
        shutil.rmtree(workdir, ignore_errors=True)

    n_fit, n_pred = fitted.fit_labels.size, fitted.predict_labels.size
    agreement = (fit_agree * n_fit + pred_agree * n_pred) / (n_fit + n_pred)
    fail_frac = tally.failed / max(tally.attempted, 1)
    info["latency_ms"] = {
        door: {
            "segment_p50": [r.percentile_ms(50) for r in served[door]["fixed"]],
            "segments": [r.summary() for r in served[door]["fixed"]],
            "under_writes": w.summary() if w is not None else None,
        }
        for door in served
        for w in [served[door]["writes"]]
    }
    info["capacity"] = {
        door: {"inflight": loadgen.CLOSED_INFLIGHT,
               "segment_qps": [c.throughput_qps() for c in served[door]["closed"]]}
        for door in served
    }
    info["repeats"] = fitted.repeats
    info["steal_frac"] = machine.steal_frac(ticks0, machine.cpu_ticks())
    info["checks"] = {
        "fit_agreement": fit_agree, "predict_agreement": pred_agree,
        "mismatched_served_labels": tally.mismatched, "failures": tally.errors,
    }
    correct = min(fit_agree, pred_agree) >= MIN_AGREEMENT and tally.mismatched == 0
    th, asy = served["thread"]["fixed"], served["async"]["fixed"]
    if not traced:
        values = {
            "setup_s": setup_s,
            "fit_s": fitted.fit_s,
            "predict_s": fitted.predict_s,
            "partial_fit_rows_per_s": fitted.pf_rows_per_s,
            "label_agreement": agreement,
            "peak_rss_mb": peak_mb,
            "ok_frac": 1.0 - fail_frac,
            "serve_p50_ms": served["thread"]["p50_ms"],
            "serve_max_qps": served["thread"]["max_qps"],
            "aserve_p50_ms": served["async"]["p50_ms"],
            "aserve_max_qps": served["async"]["max_qps"],
        }
        units = END_TO_END_UNITS
    else:
        spans = tracing.spans
        values = layers.compute_layers(spans, fitted.windows, roof, n_threads=nthreads)
        values.update(layers.serve_layers(spans, served))
        values.update(layers.persist_layers(spans))
        values.update({
            "serve_p99_ms": loadgen.pooled_percentile_ms(th, 99),
            "aserve_p99_ms": loadgen.pooled_percentile_ms(asy, 99),
            "minibatch.support_rows": fitted.support_rows,
            "host.stream_gbps": roof["stream_gbps"],
            "host.gemm_gflops": roof["gemm_gflops"],
            "gen.lateness_p99_ms": float(
                np.percentile(np.concatenate([r.lateness_ms() for r in th + asy]), 99)
            ),
            "obs.overhead_frac": rounds[1].fit_s / rounds[0].fit_s - 1.0,
            "fail_frac": fail_frac,
        })
        units = PER_LAYER_UNITS
        layers.write_trace(os.path.join(out_dir, f"trace-{name}-seed{seed}.json"), spans)
    return {
        "correct": bool(correct),
        "attempted": int(tally.attempted),
        "failed": int(tally.failed),
        "metrics": {m: {"value": float(values[m]), "unit": u} for m, u in units.items()},
        "info": info,
    }
