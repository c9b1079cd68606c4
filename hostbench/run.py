"""Host benchmark of the Popcorn reproduction: one workload, one run.

Usage, from the root of the repository::

    python3 hostbench/run.py --workload fit_lowdim --seed 1 --seconds 15 --trace 0

Workloads: ``fit_lowdim``, ``fit_highdim`` (see
``hostbench/README.md``).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run.  The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it carries the machine fingerprint and the run config;
the full record is also written to ``hostbench/out/``.  The program is
imported from ``src/`` of the current directory; without it the
benchmark exits with status 2 and prints no result.  Every process the
run starts has ended when it exits.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _terminate(signum, frame):
    # unwind through every finally block, so the serving worker is stopped
    raise SystemExit(128 + signum)


def stop_child_processes() -> None:
    """Stop every process this run started and wait for each to end.

    The async front door's worker is stopped by the workload itself; this
    is the backstop for it, and the only stop for multiprocessing's
    resource tracker, which starting a ``spawn`` process launches and
    which would otherwise outlive the benchmark.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    try:
        return _main(argv)
    finally:
        stop_child_processes()


def _main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("fit_lowdim", "fit_highdim"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="seconds-long shapes (the self-test)")
    ap.add_argument("--corrupt-one-label", action="store_true",
                    help="flip one served label before checking (the self-test)")
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"hostbench: no program to measure: {src}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import workloads

    record = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), root=root,
        toy_size=args.toy, corrupt=args.corrupt_one_label,
    )
    info = record.pop("info")
    out_dir = os.path.join(root, "hostbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(
        out_dir, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w") as fh:
        json.dump({**record, **info}, fh, indent=1)
    print(json.dumps(info))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
