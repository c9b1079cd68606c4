"""The ``repro-serve`` command line: save / load / predict / serve.

Usage::

    repro-serve save --model popcorn -k 10 -i data.csv -o model.npz
    repro-serve save --model nystrom -k 5 -n 2000 -d 16 -f gaussian -o model.npz
    repro-serve load model.npz
    repro-serve predict model.npz --input queries.csv [--output labels.txt]
                                  [--batch-size 64] [--stats] [--json]
    cat queries.jsonl | repro-serve serve model.npz --batch-size 64 \
                                  --max-delay-ms 2 --workers 2
    repro-serve stats model.npz [--input queries.csv] [--queries N] \
                                  [--format table|json|prom]
    repro-serve refresh model.npz --input new_data.csv [--outdir DIR]
                                  [--batch-size 256]
    repro-serve loadgen model.npz --qps 200,800 --requests 512 \
                                  [--queue-bound 128] [--workers 2] [--inline]

``save`` fits an estimator and persists it as a versioned artifact;
``load`` prints an artifact's metadata; ``predict`` answers a one-shot
query file (CSV/libSVM like the training CLI, or JSONL) through the
micro-batching service; ``serve`` reads JSONL queries from stdin — one
``[x, ...]`` array or ``{"id": ..., "x": [...]}`` object per line — and
writes one ``{"id": ..., "label": ...}`` result per line to stdout,
printing the serving stats to stderr at EOF; ``stats`` drives a short
query workload through the service and prints the serving stats as a
table, JSON, or Prometheus text exposition (``--format prom``);
``refresh`` absorbs new data into an online-capable artifact via
``partial_fit`` and publishes the next numbered artifact version
(``<stem>-vNNNN.npz``); ``loadgen`` drives the asyncio front door
(:class:`repro.serve.AsyncPredictionServer`) with an open-loop stream
at one or more offered-qps points and prints the measured SLO numbers
(p50/p95/p99, shed rate) next to the modeled autoscaling curve.

``predict --json`` and the ``serve`` loop emit the full
:class:`~repro.serve.ServeResult` per answered query (label, model
version, cache provenance, latency) as JSON.

``--trace-out FILE`` on ``predict`` / ``serve`` / ``stats`` enables
wall-clock span tracing (:mod:`repro.obs`) and writes a combined
Perfetto/chrome-trace of the request lifecycle next to the service's
profiler lanes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from typing import Optional, Sequence

import numpy as np

from ..data import load_dataset, make_random
from ..errors import ReproError
from ..estimators import filter_params, make_estimator
from ..reporting import format_table
from .config import ServeConfig
from .persist import inspect_model, load_model, save_model
from .refresh import ModelRefresher
from .service import PredictionService

__all__ = ["build_parser", "main"]

#: estimators whose fit contract the generic save path can drive from a
#: plain point matrix (the spectral/weighted estimators need a graph or a
#: precomputed kernel — save those programmatically via save_model)
_SAVE_MODELS = (
    "popcorn",
    "baseline",
    "nystrom",
    "lloyd",
    "elkan",
    "onthefly",
    "prmlt",
    "distributed",
)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-serve",
        description="Model persistence + batched prediction serving for the reproduction",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_reduction_flags(sp):
        # chunk schedule + thread count of the fused reduction engine
        sp.add_argument("--chunk-rows", dest="chunk_rows", type=int, default=None, metavar="R",
                        help="row-chunk height of the fused reduction / streamed panels")
        sp.add_argument("--chunk-cols", dest="chunk_cols", type=int, default=None, metavar="C")
        sp.add_argument("--n-threads", dest="n_threads", type=int, default=None, metavar="T")

    def add_serve_flags(sp, batch_size, workers, cache_size, devices=None):
        # the ServeConfig knobs (see _serve_config), with this subcommand's defaults
        sp.add_argument("--batch-size", type=int, default=batch_size)
        sp.add_argument("--max-delay-ms", type=float, default=None,
                        help="deprecated and ignored: a free worker takes what is queued at once")
        sp.add_argument("--workers", type=int, default=workers)
        sp.add_argument("--cache-size", type=int, default=cache_size)
        if devices is not None:
            sp.add_argument("--devices", type=int, default=None, metavar="G", help=devices)

    def add_trace_flag(sp):
        sp.add_argument(
            "--trace-out", dest="trace_out", default=None, metavar="FILE",
            help="enable span tracing and write a combined Perfetto/chrome-trace "
            "(request-lifecycle spans + the service profiler lanes)",
        )

    save_p = sub.add_parser("save", help="fit an estimator and persist it as an artifact")
    save_p.add_argument("--model", default="popcorn", choices=_SAVE_MODELS)
    save_p.add_argument("-k", type=int, default=10, help="number of clusters")
    save_p.add_argument("-i", dest="input", default=None, help="training file (libsvm or CSV)")
    save_p.add_argument("-n", type=int, default=1000, help="synthetic points (when no -i)")
    save_p.add_argument("-d", type=int, default=16, help="synthetic dimensionality")
    save_p.add_argument("-f", dest="kernel", default="polynomial",
                        choices=("linear", "polynomial", "sigmoid", "gaussian"))
    save_p.add_argument("-s", dest="seed", type=int, default=0, help="RNG seed")
    save_p.add_argument("-m", dest="max_iter", type=int, default=30, help="max iterations")
    save_p.add_argument(
        "--backend", default="auto", choices=("auto", "host", "device", "sharded")
    )
    save_p.add_argument(
        "--devices", type=int, default=None, metavar="G",
        help="fit on G simulated devices (implies --backend sharded)",
    )
    add_reduction_flags(save_p)
    save_p.add_argument("-o", dest="output", required=True, help="artifact path (.npz)")

    load_p = sub.add_parser("load", help="print an artifact's metadata")
    load_p.add_argument("model", help="artifact path")

    shard_help = "shard each served batch across G simulated devices"
    pred_p = sub.add_parser("predict", help="one-shot prediction over a query file")
    pred_p.add_argument("model", help="artifact path")
    pred_p.add_argument("--input", required=True,
                        help="query file (CSV, libsvm, or .jsonl)")
    pred_p.add_argument("--output", default=None, help="write labels here (default: stdout)")
    add_serve_flags(pred_p, 64, 1, 1024, devices=shard_help)
    add_reduction_flags(pred_p)
    pred_p.add_argument("--stats", action="store_true", help="print serving stats")
    pred_p.add_argument(
        "--json", action="store_true",
        help="emit one ServeResult JSON object per query instead of bare labels",
    )
    add_trace_flag(pred_p)

    serve_p = sub.add_parser("serve", help="stdin-JSONL serving loop")
    serve_p.add_argument("model", help="artifact path")
    add_serve_flags(serve_p, 64, 2, 4096, devices=shard_help)
    add_reduction_flags(serve_p)
    add_trace_flag(serve_p)

    stats_p = sub.add_parser(
        "stats",
        help="drive a short query workload and print the serving stats",
    )
    stats_p.add_argument("model", help="artifact path")
    stats_p.add_argument(
        "--input", default=None,
        help="query file (CSV, libsvm, or .jsonl); default: synthetic queries",
    )
    stats_p.add_argument(
        "--queries", type=int, default=256, metavar="N",
        help="synthetic query count when --input is not given",
    )
    add_serve_flags(stats_p, 64, 1, 1024)
    stats_p.add_argument("-s", dest="seed", type=int, default=0, help="RNG seed")
    stats_p.add_argument(
        "--format", dest="format", default="table",
        choices=("table", "json", "prom"),
        help="output format: table (human), json, or Prometheus text exposition",
    )
    add_trace_flag(stats_p)

    ref_p = sub.add_parser(
        "refresh",
        help="partial_fit new data into an artifact and publish the next version",
    )
    ref_p.add_argument("model", help="artifact path (an online-capable estimator)")
    ref_p.add_argument("--input", required=True,
                       help="new data file (CSV, libsvm, or .jsonl)")
    ref_p.add_argument(
        "--outdir", default=None,
        help="directory for the versioned artifacts (default: the model's directory)",
    )
    ref_p.add_argument(
        "--basename", default=None,
        help="artifact stem (default: the model filename, version suffix stripped)",
    )
    ref_p.add_argument(
        "--batch-size", type=int, default=None, metavar="B",
        help="split the input into partial_fit batches of B rows",
    )

    load_gen = sub.add_parser(
        "loadgen",
        help="open-loop load generation against the asyncio front door",
    )
    load_gen.add_argument("model", help="artifact path")
    load_gen.add_argument(
        "--qps", default="200", metavar="Q[,Q...]",
        help="offered-load sweep: comma-separated queries/sec points",
    )
    load_gen.add_argument(
        "--requests", type=int, default=256, metavar="N",
        help="requests per offered-load point",
    )
    load_gen.add_argument(
        "--input", default=None,
        help="query file (CSV, libsvm, or .jsonl); default: synthetic queries",
    )
    add_serve_flags(load_gen, 32, 2, 0,
                    devices="shard each worker's batches across G simulated devices")
    load_gen.add_argument("--queue-bound", type=int, default=None, metavar="B",
                          help="admission-control bound (default: admit everything)")
    load_gen.add_argument(
        "--inline", action="store_true",
        help="serve with inline workers instead of worker processes",
    )
    load_gen.add_argument("-s", dest="seed", type=int, default=0, help="RNG seed")
    load_gen.add_argument(
        "--format", dest="format", default="table", choices=("table", "json"),
    )
    return p


# ----------------------------------------------------------------------
# the thread door behind predict / serve / stats
# ----------------------------------------------------------------------

def _serve_config(args) -> ServeConfig:
    """The serving config a subcommand's flags spell out (``--workers``
    sets ``n_workers``); a knob it has no flag for keeps its default."""
    given = {"n_workers" if k == "workers" else k: v for k, v in vars(args).items()}
    return ServeConfig(**{k: given[k] for k in ServeConfig.param_names() if k in given})


@contextlib.contextmanager
def _serving(args, model):
    """A :class:`PredictionService` over ``model``, configured by the
    subcommand's flags.  With ``--trace-out`` the session is traced, and
    the combined request-lifecycle + profiler-lane trace is written
    before the service closes."""
    from ..obs import trace
    from ..obs.export import write_combined_trace

    if args.trace_out:
        trace.enable()
    mark = trace.mark()
    with PredictionService(model, _serve_config(args)) as svc:
        yield svc
        if args.trace_out:
            write_combined_trace(
                args.trace_out,
                tracer=trace,
                since=mark,
                profilers={"serve-profiler": svc.profiler_},
            )
            print(f"combined trace written to {args.trace_out}", file=sys.stderr)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _fit_model(args):
    """Registry-driven construction: no estimator-class switch anywhere.

    The CLI offers one flag set for every model; flags an estimator does
    not declare in its parameter surface (``kernel`` for Lloyd/Elkan,
    ``chunk_cols`` for Lloyd/Elkan) are simply not forwarded.
    """
    from ..errors import ConfigError

    if args.input:
        x, _ = load_dataset(args.input)
    else:
        x, _ = make_random(args.n, args.d, rng=args.seed)

    backend = args.backend
    if args.devices is not None:
        if args.devices < 1:
            raise ConfigError(f"--devices must be >= 1, got {args.devices}")
        if backend not in ("auto", "sharded"):
            raise ConfigError(f"--devices conflicts with --backend {backend}")
        backend = f"sharded:{args.devices}"
    offered = {
        "n_clusters": args.k,
        "kernel": args.kernel,
        "backend": backend,
        "chunk_rows": args.chunk_rows,
        "chunk_cols": args.chunk_cols,
        "n_threads": args.n_threads,
        "max_iter": args.max_iter,
        "seed": args.seed,
    }
    est = make_estimator(args.model, **filter_params(args.model, offered))
    return est.fit(x), x.shape


def _cmd_save(args) -> int:
    model, (n, d) = _fit_model(args)
    path = save_model(model, args.output)
    meta = inspect_model(path)
    print(
        f"saved {meta['estimator']} (k={meta['params']['n_clusters']}, trained on "
        f"n={n} d={d}) to {path} [{meta['file_bytes']} bytes]"
    )
    return 0


def _cmd_load(args) -> int:
    meta = inspect_model(args.model)
    fit = meta.get("fit") or {}
    params = meta.get("params") or {}
    kern = params.get("kernel")
    rows = [
        ("estimator", meta["estimator"]),
        ("schema version", meta["schema_version"]),
        ("n_clusters", params.get("n_clusters", "-")),
        ("kernel", kern["name"] if isinstance(kern, dict) else "-"),
        (
            "kernel params",
            json.dumps(kern.get("params", {})) if isinstance(kern, dict) else "-",
        ),
        ("fit iterations", fit.get("n_iter") if fit.get("n_iter") is not None else "-"),
        ("fit objective", fit.get("objective") if fit.get("objective") is not None else "-"),
        ("fit backend", fit.get("backend") or "-"),
        ("file bytes", meta["file_bytes"]),
    ]
    rows += [
        (f"param {name}", json.dumps(value))
        for name, value in sorted(params.items())
        if name not in ("n_clusters", "kernel") and value is not None
        and not isinstance(value, dict)
    ]
    rows += [
        (f"array {key}", f"{info['shape']} {info['dtype']}")
        for key, info in sorted(meta["array_info"].items())
    ]
    print(format_table(["field", "value"], rows))
    return 0


def _read_queries(path: str) -> np.ndarray:
    if path.endswith(".jsonl"):
        rows = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    rows.append(_jsonl_query(line)[1])
        return np.asarray(rows, dtype=np.float64)
    x, _ = load_dataset(path)
    return np.asarray(x, dtype=np.float64)


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    queries = _read_queries(args.input)
    with _serving(args, model) as svc:
        results = svc.predict_many(queries, details=True)
        labels = np.array([int(r) for r in results], dtype=np.int32)
        stats = svc.stats()
    if args.output:
        np.savetxt(args.output, labels, fmt="%d")
        print(f"{labels.shape[0]} labels written to {args.output}")
    elif args.json:
        for res in results:
            print(json.dumps(res.to_dict()))
    else:
        for lab in labels:
            print(int(lab))
    if args.stats:
        print(_stats_table(stats), file=sys.stderr)
    return 0


def _stats_table(stats) -> str:
    return format_table(
        ["stat", "value"],
        [(k, f"{v:.4g}" if isinstance(v, float) else v) for k, v in stats.items()],
    )


def _jsonl_query(line: str):
    """Parse one stdin line: a bare array or {"id": ..., "x": [...]}."""
    obj = json.loads(line)
    if isinstance(obj, dict):
        return obj.get("id"), np.asarray(obj["x"], dtype=np.float64)
    return None, np.asarray(obj, dtype=np.float64)


def _cmd_serve(args, stdin=None, stdout=None) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    model = load_model(args.model)
    with _serving(args, model) as svc:
        pending = []
        for lineno, line in enumerate(stdin, 1):
            line = line.strip()
            if not line:
                continue
            try:
                qid, row = _jsonl_query(line)
                pending.append((qid if qid is not None else lineno, svc.submit(row)))
            except (ValueError, KeyError, TypeError) as exc:  # ConfigError is a ValueError
                print(json.dumps({"line": lineno, "error": str(exc)}), file=sys.stderr)
                continue
            # keep the output stream flowing without blocking the reader
            while pending and pending[0][1].done():
                _flush_one(pending.pop(0), stdout)
        for item in pending:
            _flush_one(item, stdout)
        stats = svc.stats()
    print(json.dumps({"stats": stats}), file=sys.stderr)
    return 0


def _stats_queries(model, path: Optional[str], n: int, seed: int) -> np.ndarray:
    """A query workload: the ``path`` file, or ``n`` synthetic rows shaped
    like the model's support set (repeated so the cache-hit path
    exercises)."""
    from ..errors import ConfigError

    if path:
        return _read_queries(path)
    sup = getattr(model, "_support_x", None)
    centers = getattr(model, "_support_centers", None)
    if sup is not None:
        d = np.asarray(sup).shape[1]
    elif centers is not None:
        d = np.asarray(centers).shape[1]
    else:
        raise ConfigError(
            "this artifact was fitted on a precomputed kernel; synthetic "
            "queries cannot be generated — pass --input with a query file"
        )
    n = max(int(n), 1)
    rng = np.random.default_rng(seed)
    # half unique, half repeats: the repeated rows exercise the digest
    # cache so hit-rate stats are non-trivial
    uniq = rng.standard_normal((max(n // 2, 1), d))
    rows = uniq[rng.integers(uniq.shape[0], size=n)]
    return np.ascontiguousarray(rows)


def _cmd_stats(args) -> int:
    model = load_model(args.model)
    queries = _stats_queries(model, args.input, args.queries, args.seed)
    with _serving(args, model) as svc:
        svc.predict_many(queries)
        stats = svc.stats()
        prom = svc.stats(format="prom")
    if args.format == "prom":
        print(prom, end="")
    elif args.format == "json":
        print(json.dumps(stats, indent=2))
    else:
        print(_stats_table(stats))
    return 0


def _cmd_refresh(args) -> int:
    model = load_model(args.model)
    x = _read_queries(args.input)
    outdir = args.outdir or os.path.dirname(os.path.abspath(args.model))
    base = args.basename
    if base is None:
        stem = os.path.splitext(os.path.basename(args.model))[0]
        base = re.sub(r"-v\d+$", "", stem)
    if args.batch_size is not None:
        model.set_params(batch_size=args.batch_size)
    with PredictionService(model, n_workers=1) as svc:
        refresher = ModelRefresher(svc, outdir, basename=base)
        refresher.observe(x)
        path = refresher.refresh()
        stats = svc.stats()
    print(
        f"absorbed {x.shape[0]} rows in {refresher.n_batches_observed} "
        f"online batches; published {path} "
        f"(served model version {stats['model_version']})"
    )
    return 0


def _flush_one(item, stdout) -> None:
    qid, future = item
    try:
        stdout.write(json.dumps({"id": qid, **future.result().to_dict()}) + "\n")
    except Exception as exc:  # a failed request must not kill the loop
        stdout.write(json.dumps({"id": qid, "error": str(exc)}) + "\n")
    stdout.flush()


def _cmd_loadgen(args) -> int:
    import asyncio

    from .autoscale import curve_for_model
    from .frontdoor import AsyncPredictionServer, open_loop_load

    model = load_model(args.model)
    queries = _stats_queries(model, args.input, args.requests, args.seed)
    try:
        qps_points = [float(tok) for tok in args.qps.split(",") if tok.strip()]
    except ValueError:
        from ..errors import ConfigError

        raise ConfigError(f"--qps takes comma-separated numbers, got {args.qps!r}")
    cfg = _serve_config(args)

    async def _drive() -> list:
        reports = []
        for qps in qps_points:
            # a fresh server per offered-load point: clean counters, and
            # worker processes (when not --inline) restart from the artifact
            async with AsyncPredictionServer(
                args.model if not args.inline else model,
                cfg.clone(),
                processes=not args.inline,
            ) as server:
                reports.append(await open_loop_load(server, queries, qps))
        return reports

    reports = asyncio.run(_drive())
    curve = curve_for_model(
        model, batch_size=args.batch_size, devices=args.devices,
        workers=(1, 2, 4, 8),
    )
    if args.format == "json":
        print(
            json.dumps(
                {
                    "load": [r.to_dict() for r in reports],
                    "autoscale": [
                        {
                            "workers": p.workers,
                            "saturation_qps": p.saturation_qps,
                            "ingress_limited": p.ingress_limited,
                        }
                        for p in curve
                    ],
                },
                indent=2,
            )
        )
        return 0
    print(
        format_table(
            ["offered_qps", "accepted", "shed", "shed_rate", "p50_ms", "p95_ms",
             "p99_ms", "achieved_qps"],
            [
                (
                    f"{r.offered_qps:.0f}", r.accepted, r.shed,
                    f"{r.shed_rate * 100:.1f}%", f"{r.p50_ms:.3f}",
                    f"{r.p95_ms:.3f}", f"{r.p99_ms:.3f}", f"{r.achieved_qps:.0f}",
                )
                for r in reports
            ],
        )
    )
    print()
    print(
        format_table(
            ["workers", "batch_us", "worker_qps", "saturation_qps", "limited_by"],
            [p.to_row() for p in curve],
        )
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "save":
            return _cmd_save(args)
        if args.command == "load":
            return _cmd_load(args)
        if args.command == "predict":
            return _cmd_predict(args)
        if args.command == "stats":
            return _cmd_stats(args)
        if args.command == "refresh":
            return _cmd_refresh(args)
        if args.command == "loadgen":
            return _cmd_loadgen(args)
        return _cmd_serve(args)
    except ReproError as exc:
        print(f"repro-serve: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
