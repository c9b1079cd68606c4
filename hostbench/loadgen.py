"""Load generation for both serving front doors: open loop and closed loop.

Arrivals follow a seeded Poisson schedule fixed before the run starts.
The sender never waits for answers: each request goes out at its due
time (or as soon as the sender can, if it fell behind), and its latency
is measured from the *due* time to the moment its answer arrives.  A
stall anywhere -- in the service or in the sender itself -- therefore
shows up in the latency instead of silently delaying later arrivals.
How far behind the sender ran is reported separately as lateness.

Two senders share the schedule and the bookkeeping: a thread for
:class:`repro.serve.PredictionService` and a coroutine on the server's
own event loop for :class:`repro.serve.AsyncPredictionServer`.

Capacity is measured in a closed loop instead: the sender keeps a fixed
number of requests outstanding, sending the next as soon as one is
answered, so the service always has a full batch waiting; capacity is
the answer rate over the middle half of the run.  A rate searched for
against a latency target would sit at the knee where latency explodes,
and on a shared host a burst of outside load there moves it by a factor
of several; the saturated answer rate moves only as much as the host's
speed does.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import Overloaded

#: a request answered later than this many SLOs after its due time
#: counts as failed
DEADLINE_SLOS = 10.0
#: share of requests that repeat a row of the hot set
HOT_FRACTION = 0.2
HOT_ROWS = 64
#: how long to wait for the last answers of a run
DRAIN_TIMEOUT_S = 30.0
#: interpreter thread switch interval during a run (default 5 ms): the
#: sender shares the process and its interpreter lock with the service,
#: and with 5 ms slices a request can wait a whole slice behind the
#: sender itself
SWITCH_INTERVAL_S = 0.0005


def poisson_schedule(rate: float, duration: float, rng: np.random.Generator) -> np.ndarray:
    """Due offsets (s, ascending) of a Poisson stream of ``rate`` per second."""
    expected = rate * duration
    gaps = rng.exponential(1.0 / rate, size=int(expected + 6 * np.sqrt(expected) + 16))
    due = np.cumsum(gaps)
    return due[due < duration]


class QueryRows:
    """The rows a run sends: a hot set that repeats, and a cycled pool.

    The pool is cycled in order and is larger than the services' label
    caches, so a pool row has always been evicted before it comes back;
    only the hot set produces cache hits and coalescing.
    """

    def __init__(self, pool: np.ndarray, hot: np.ndarray) -> None:
        self.rows = np.ascontiguousarray(np.vstack([hot, pool]), dtype=np.float64)
        self.n_hot = hot.shape[0]
        self.n_pool = pool.shape[0]
        self._cursor = 0

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Row indices for the next ``n`` requests."""
        hot = rng.random(n) < HOT_FRACTION
        idx = np.empty(n, dtype=np.int64)
        idx[hot] = rng.integers(0, self.n_hot, size=int(hot.sum()))
        cold = int((~hot).sum())
        idx[~hot] = self.n_hot + (self._cursor + np.arange(cold)) % self.n_pool
        self._cursor = (self._cursor + cold) % self.n_pool
        return idx


@dataclass
class RunResult:
    """Everything one open-loop run observed, one entry per request."""

    rate: float
    duration: float
    row: np.ndarray
    due: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    label: np.ndarray
    version: np.ndarray
    cache_hit: np.ndarray
    coalesced: np.ndarray
    shed: np.ndarray
    error: np.ndarray

    @classmethod
    def empty(cls, rate: float, duration: float, row: np.ndarray,
              due: np.ndarray) -> "RunResult":
        n = due.shape[0]
        return cls(
            rate=rate,
            duration=duration,
            row=row,
            due=due,
            sent=np.full(n, np.nan),
            done=np.full(n, np.nan),
            label=np.full(n, -1, dtype=np.int64),
            version=np.zeros(n, dtype=np.int64),
            cache_hit=np.zeros(n, dtype=bool),
            coalesced=np.zeros(n, dtype=bool),
            shed=np.zeros(n, dtype=bool),
            error=np.zeros(n, dtype=bool),
        )

    @property
    def n(self) -> int:
        return int(self.due.shape[0])

    @property
    def answered(self) -> np.ndarray:
        return ~np.isnan(self.done) & ~self.error

    def latencies_ms(self) -> np.ndarray:
        ok = self.answered
        return (self.done[ok] - self.due[ok]) * 1e3

    def lateness_ms(self) -> np.ndarray:
        sent = ~np.isnan(self.sent)
        return (self.sent[sent] - self.due[sent]) * 1e3

    def percentile_ms(self, q: float) -> float:
        lat = self.latencies_ms()
        return float(np.percentile(lat, q)) if lat.size else float("inf")

    def n_late(self, slo_ms: float) -> int:
        """Requests unanswered, or answered :data:`DEADLINE_SLOS` SLOs late."""
        lat = np.full(self.n, np.inf)
        ok = self.answered
        lat[ok] = (self.done[ok] - self.due[ok]) * 1e3
        return int(((lat > DEADLINE_SLOS * slo_ms) & ~self.shed & ~self.error).sum())

    def throughput_qps(self) -> float:
        """Answers per second over the middle half of the run.

        Counted from the answer at the first quartile of answer times
        (exclusive) to the one at the third quartile (inclusive), over
        the time between the two.  Measured between two answers, the
        rate is not quantised by the batch size; start-up and drain stay
        outside it.
        """
        t = np.sort(self.done[self.answered])
        if t.size < 4:
            return 0.0
        t_a, t_b = t[t.size // 4], t[(3 * t.size) // 4]
        if t_b <= t_a:
            return 0.0
        count = np.searchsorted(t, t_b, "right") - np.searchsorted(t, t_a, "right")
        return float(count / (t_b - t_a))

    def trim(self, n: int) -> "RunResult":
        """The first ``n`` requests (a closed loop sizes its arrays ahead)."""
        return RunResult(
            self.rate, self.duration, self.row[:n], self.due[:n], self.sent[:n],
            self.done[:n], self.label[:n], self.version[:n], self.cache_hit[:n],
            self.coalesced[:n], self.shed[:n], self.error[:n],
        )

    def summary(self) -> dict:
        """Sample count and percentiles, for the result record."""
        lat = self.latencies_ms()
        return {
            "n": int(lat.size),
            **{f"p{q}": self.percentile_ms(q) for q in (50, 90, 99, 99.9)},
            "max": float(lat.max()) if lat.size else float("inf"),
        }


def pooled_percentile_ms(runs, q: float) -> float:
    """Latency percentile over the answered requests of several runs."""
    lat = np.concatenate([r.latencies_ms() for r in runs])
    return float(np.percentile(lat, q)) if lat.size else float("inf")


def _record(res: RunResult, i: int, fut) -> None:
    res.done[i] = time.perf_counter()
    try:
        r = fut.result()
    except BaseException:
        res.error[i] = True
        return
    res.label[i] = int(r)
    res.version[i] = r.model_version
    res.cache_hit[i] = r.cache_hit
    res.coalesced[i] = r.coalesced


@contextlib.contextmanager
def measured_run():
    """Collect garbage, so every run starts from a collected heap, and
    shorten the thread switch interval for the run only."""
    gc.collect()
    before = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    try:
        yield
    finally:
        sys.setswitchinterval(before)


def drive_thread(service, rows: QueryRows, rate: float, duration: float,
                 rng: np.random.Generator) -> RunResult:
    """Send one open-loop run to a :class:`PredictionService` from this thread."""
    offsets = poisson_schedule(rate, duration, rng)
    idx = rows.draw(offsets.shape[0], rng)
    with measured_run():
        return _drive_thread(service, rows, offsets, idx, rate, duration)


def _drive_thread(service, rows: QueryRows, offsets: np.ndarray, idx: np.ndarray,
                  rate: float, duration: float) -> RunResult:
    t0 = time.perf_counter() + 0.005
    res = RunResult.empty(rate, duration, idx, t0 + offsets)
    futures = []
    for i in range(res.n):
        wait = res.due[i] - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        res.sent[i] = time.perf_counter()
        try:
            fut = service.submit(rows.rows[idx[i]])
        except Overloaded:
            res.shed[i] = True
            continue
        except Exception:
            res.error[i] = True
            continue
        fut.add_done_callback(lambda f, i=i: _record(res, i, f))
        futures.append(fut)
    deadline = time.perf_counter() + DRAIN_TIMEOUT_S
    for fut in futures:
        try:
            fut.exception(timeout=max(deadline - time.perf_counter(), 0.0))
        except Exception:
            pass
    # callbacks run right after a future resolves; let the last ones land
    time.sleep(0.001)
    return res


async def _drive_async(server, rows: QueryRows, offsets: np.ndarray,
                       idx: np.ndarray, rate: float, duration: float) -> RunResult:
    t0 = time.perf_counter() + 0.005
    res = RunResult.empty(rate, duration, idx, t0 + offsets)
    futures = []
    for i in range(res.n):
        wait = res.due[i] - time.perf_counter()
        if wait > 0:
            await asyncio.sleep(wait)
        res.sent[i] = time.perf_counter()
        try:
            fut = server.submit_nowait(rows.rows[idx[i]])
        except Overloaded:
            res.shed[i] = True
            continue
        except Exception:
            res.error[i] = True
            continue
        fut.add_done_callback(lambda f, i=i: _record(res, i, f))
        futures.append(fut)
    if futures:
        await asyncio.wait(futures, timeout=DRAIN_TIMEOUT_S)
    await asyncio.sleep(0)  # let the done-callbacks run
    return res


class LoopThread:
    """An asyncio event loop running in its own thread."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self.loop.run_forever, name="hostbench-loop")
        self._thread.start()

    def call(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result()

    def close(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join()
        self.loop.close()


def drive_async(loop: LoopThread, server, rows: QueryRows, rate: float,
                duration: float, rng: np.random.Generator) -> RunResult:
    """Send one open-loop run to an :class:`AsyncPredictionServer`."""
    offsets = poisson_schedule(rate, duration, rng)
    idx = rows.draw(offsets.shape[0], rng)
    with measured_run():
        return loop.call(_drive_async(server, rows, offsets, idx, rate, duration))


#: requests a closed-loop sender keeps outstanding: two full batches, so
#: the service always has one waiting while it answers the other
CLOSED_INFLIGHT = 64
#: most answers per second a closed-loop run sizes its arrays for
CLOSED_MAX_QPS = 50_000


#: rows a closed loop draws at a time.  It draws them as it reaches
#: them, so the pool cursor moves on only by the rows actually sent (plus
#: less than one chunk): drawn all ahead, the cursor would jump by
#: thousands of rows, and the next run could start on pool rows still in
#: a label cache
CLOSED_DRAW = 64


def _closed_result(inflight: int, duration: float) -> RunResult:
    cap = int(duration * CLOSED_MAX_QPS) + inflight
    return RunResult.empty(
        float(inflight), duration, np.zeros(cap, dtype=np.int64), np.full(cap, np.nan)
    )


def _draw_ahead(res: RunResult, rows: QueryRows, i: int, rng: np.random.Generator) -> None:
    """Fill in the rows of the next :data:`CLOSED_DRAW` requests from ``i``."""
    n = min(CLOSED_DRAW, res.n - i)
    res.row[i:i + n] = rows.draw(n, rng)


def drive_thread_closed(service, rows: QueryRows, duration: float,
                        rng: np.random.Generator,
                        inflight: int = CLOSED_INFLIGHT) -> RunResult:
    """Keep ``inflight`` requests outstanding at a :class:`PredictionService`
    for ``duration`` seconds; latency is timed from each send."""
    res = _closed_result(inflight, duration)
    slots = threading.Semaphore(inflight)

    def done(i, fut):
        _record(res, i, fut)
        slots.release()

    futures = []
    i = 0
    with measured_run():
        t_end = time.perf_counter() + duration
        while i < res.n:
            slots.acquire()
            now = time.perf_counter()
            if now >= t_end:
                break
            if i % CLOSED_DRAW == 0:
                _draw_ahead(res, rows, i, rng)
            res.due[i] = res.sent[i] = now
            try:
                fut = service.submit(rows.rows[res.row[i]])
            except Overloaded:
                res.shed[i] = True
                slots.release()
            except Exception:
                res.error[i] = True
                slots.release()
            else:
                fut.add_done_callback(lambda f, i=i: done(i, f))
                futures.append(fut)
            i += 1
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        for fut in futures:
            try:
                fut.exception(timeout=max(deadline - time.perf_counter(), 0.0))
            except Exception:
                pass
        time.sleep(0.001)
    return res.trim(i)


async def _drive_async_closed(server, rows: QueryRows, res: RunResult,
                              inflight: int, rng: np.random.Generator) -> int:
    slots = asyncio.Semaphore(inflight)

    def done(i, fut):
        _record(res, i, fut)
        slots.release()

    futures = []
    i = 0
    t_end = time.perf_counter() + res.duration
    while i < res.n:
        await slots.acquire()
        now = time.perf_counter()
        if now >= t_end:
            break
        if i % CLOSED_DRAW == 0:
            _draw_ahead(res, rows, i, rng)
        res.due[i] = res.sent[i] = now
        try:
            fut = server.submit_nowait(rows.rows[res.row[i]])
        except Overloaded:
            res.shed[i] = True
            slots.release()
        except Exception:
            res.error[i] = True
            slots.release()
        else:
            fut.add_done_callback(lambda f, i=i: done(i, f))
            futures.append(fut)
        i += 1
    if futures:
        await asyncio.wait(futures, timeout=DRAIN_TIMEOUT_S)
    await asyncio.sleep(0)
    return i


def drive_async_closed(loop: LoopThread, server, rows: QueryRows, duration: float,
                       rng: np.random.Generator,
                       inflight: int = CLOSED_INFLIGHT) -> RunResult:
    """The closed loop of :func:`drive_thread_closed` for an
    :class:`AsyncPredictionServer`, sent from its event loop."""
    res = _closed_result(inflight, duration)
    with measured_run():
        n = loop.call(_drive_async_closed(server, rows, res, inflight, rng))
    return res.trim(n)
