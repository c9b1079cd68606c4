"""The ``repro-bench`` command line: list / run / compare.

Usage::

    repro-bench list
    repro-bench run --all [--quick] [--jobs N] [--seed N]
                    [--out BENCH_results.json] [--results-dir DIR] [--no-csv]
    repro-bench run --only fig5 --only fig7
    repro-bench compare old.json new.json --threshold 0.2

``run`` executes the selected registry experiments and writes both the
legacy per-experiment CSVs and the consolidated JSON artifact.
``compare`` exits 0 when no tracked metric regressed past the threshold,
1 when something did (the CI perf gate), and 2 on usage/schema errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from ..errors import ConfigError
from ..reporting import format_table
from .artifact import load_artifact
from .compare import compare_artifacts, format_comparison
from .registry import RunConfig, all_experiments, experiment_ids
from .runner import DEFAULT_RESULTS_DIR, run_experiments

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-bench",
        description="Registry-driven benchmark runner for the Popcorn reproduction",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the registered experiments")

    run_p = sub.add_parser("run", help="run experiments; write CSVs + JSON artifact")
    run_p.add_argument("--all", action="store_true", help="run every registered experiment")
    run_p.add_argument(
        "--only",
        action="append",
        default=None,
        metavar="ID",
        help="run this experiment (repeatable; comma lists accepted)",
    )
    run_p.add_argument(
        "--quick",
        action="store_true",
        help="CI mode: subset the sweeps, skip full-grid shape checks",
    )
    run_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run experiments in N parallel worker processes",
    )
    run_p.add_argument(
        "--out",
        default="BENCH_results.json",
        metavar="FILE",
        help="consolidated JSON artifact path (default: BENCH_results.json)",
    )
    run_p.add_argument(
        "--results-dir",
        default=DEFAULT_RESULTS_DIR,
        metavar="DIR",
        help=f"per-experiment CSV directory (default: {DEFAULT_RESULTS_DIR})",
    )
    run_p.add_argument("--no-csv", action="store_true", help="skip the per-experiment CSVs")
    run_p.add_argument(
        "--csv",
        action="store_true",
        help="write the per-experiment CSVs even with --quick (quick rows are a "
        "subset of the canonical full-mode CSVs, so quick skips them by default)",
    )
    run_p.add_argument(
        "--seed", type=int, default=0, help="base seed for the executed workloads"
    )
    run_p.add_argument(
        "--trace-out",
        dest="trace_out",
        default=None,
        metavar="FILE",
        help="enable span tracing (repro.obs) and write a combined "
        "Perfetto/chrome-trace of the sweep: one bench.experiment span per "
        "experiment plus the engine/pool spans underneath (in-process runs "
        "only — --jobs > 1 workers trace their own processes)",
    )
    run_p.add_argument(
        "--metrics-out",
        dest="metrics_out",
        default=None,
        metavar="FILE",
        help="write the run's repro.obs metrics registry as a Prometheus "
        "text snapshot (implies tracing, which gates metric recording)",
    )

    cmp_p = sub.add_parser("compare", help="regression-gate two JSON artifacts")
    cmp_p.add_argument("old", help="baseline BENCH_results.json")
    cmp_p.add_argument("new", help="candidate BENCH_results.json")
    cmp_p.add_argument(
        "--threshold",
        type=float,
        default=0.2,
        help="fractional worsening that counts as a regression (default 0.2; "
        "0 flags any change)",
    )
    cmp_p.add_argument(
        "--only-changed",
        action="store_true",
        help="print only regressed/improved metrics",
    )
    return p


def _selected_ids(args) -> List[str]:
    if args.all and args.only:
        raise ConfigError("--all and --only are mutually exclusive")
    if args.all:
        return experiment_ids()
    if args.only:
        ids: List[str] = []
        for chunk in args.only:
            ids.extend(x.strip() for x in chunk.split(",") if x.strip())
        known = set(experiment_ids())
        unknown = [x for x in ids if x not in known]
        if unknown:
            raise ConfigError(
                f"unknown experiment(s): {', '.join(unknown)}; try `repro-bench list`"
            )
        return ids
    raise ConfigError("nothing selected: pass --all or --only ID")


def _cmd_list() -> int:
    rows = [
        (
            s.exp_id,
            s.group,
            ",".join(s.datasets) if s.datasets else "-",
            ",".join(map(str, s.k_values)) if s.k_values else "-",
            s.title,
        )
        for s in all_experiments()
    ]
    print(format_table(["id", "group", "datasets", "k", "title"], rows))
    print(f"\n{len(rows)} experiments registered")
    return 0


def _cmd_run(args) -> int:
    ids = _selected_ids(args)
    cfg = RunConfig(quick=args.quick, base_seed=args.seed)
    if args.no_csv and args.csv:
        raise ConfigError("--csv and --no-csv are mutually exclusive")
    # quick rows subset the paper grids, so don't clobber the canonical
    # full-mode CSVs unless asked to
    write_csv = args.csv or not (args.no_csv or args.quick)
    trace_mark = 0
    if args.trace_out or args.metrics_out:
        from ..obs import trace

        trace.enable()
        trace_mark = trace.mark()
    _, failures = run_experiments(
        ids,
        cfg,
        out=args.out,
        results_dir=args.results_dir,
        jobs=args.jobs,
        write_csv=write_csv,
    )
    if args.trace_out:
        from ..obs import trace
        from ..obs.export import write_combined_trace

        write_combined_trace(args.trace_out, tracer=trace, since=trace_mark)
        print(f"combined trace written to {args.trace_out}")
    if args.metrics_out:
        from ..obs import metrics, prometheus_text

        with open(args.metrics_out, "w") as fh:
            fh.write(prometheus_text(metrics.snapshot()))
        print(f"metrics snapshot written to {args.metrics_out}")
    if failures:
        print(f"\n{len(failures)}/{len(ids)} experiment(s) FAILED: {', '.join(failures)}")
        return 1
    return 0


def _cmd_compare(args) -> int:
    old = load_artifact(args.old)
    new = load_artifact(args.new)
    cmp = compare_artifacts(old, new, threshold=args.threshold)
    print(format_comparison(cmp, only_changed=args.only_changed))
    return 0 if cmp.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_compare(args)
    except ConfigError as exc:
        print(f"repro-bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
