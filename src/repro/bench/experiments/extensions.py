"""Registry entries for the beyond-the-paper extension experiments.

Device-generation portability, distributed strong scaling, the
kernel-matrix memory wall, Nyström approximation quality, spectral
clustering via weighted kernel k-means, and the row-tiled engine sweep.
"""

from __future__ import annotations

import numpy as np

from ...errors import check
from ...approx import nystrom_embedding
from ...core import model_onthefly
from ...estimators import make_estimator
from ...data import make_circles, make_moons
from ...distributed import (
    INFINIBAND,
    NVLINK,
    model_distributed_popcorn,
)
from ...eval import adjusted_rand_index
from ...gpu import A100_80GB, H100_80GB, V100_32GB
from ...kernels import GaussianKernel
from ...modeling import model_baseline, model_popcorn, model_popcorn_tiled
from ..registry import ExperimentResult, ExperimentSpec, RunConfig, register_experiment
from .common import ITERS

DEVICE_SWEEP_SPECS = (V100_32GB, A100_80GB, H100_80GB)
DEVICE_SWEEP_WORKLOAD = (60000, 780, 100)  # mnist at k=100

MEMORY_WALL_CAPACITY = A100_80GB.mem_capacity_gb * 1e9
MEMORY_WALL_TILE = 8192

TILING_WORKLOAD = (50000, 780, 100)


# --- performance portability across GPU generations ------------------------


def run_ext_device_sweep(cfg: RunConfig) -> ExperimentResult:
    n, d, k = DEVICE_SWEEP_WORKLOAD
    specs = (A100_80GB, H100_80GB) if cfg.quick else DEVICE_SWEEP_SPECS
    rows = []
    totals = []
    speedups = []
    for spec in specs:
        pop = model_popcorn(n, d, k, iters=ITERS, spec=spec)
        base = model_baseline(n, d, k, iters=ITERS, spec=spec)
        s = base.total_s / pop.total_s
        totals.append(pop.total_s)
        speedups.append(s)
        rows.append(
            (
                spec.name,
                f"{pop.total_s:.3f}",
                f"{base.total_s:.3f}",
                f"{s:.2f}x",
                f"{pop.profiler.achieved_gflops('cusparse.spmm'):.0f}",
            )
        )
    return ExperimentResult(
        headers=("device", "popcorn_s", "baseline_s", "speedup", "spmm_gflops"),
        rows=tuple(rows),
        aux={"totals": totals, "speedups": speedups},
        metrics={
            "time.h100_popcorn_s": totals[-1],  # H100 is last in both sweeps
            "quality.min_speedup": min(speedups),
        },
    )


def check_ext_device_sweep(result: ExperimentResult) -> None:
    totals = result.aux["totals"]
    speedups = result.aux["speedups"]
    # newer generation -> faster Popcorn, with no code change
    check(
        totals[0] > totals[1] > totals[2],
        'invariant violated: totals[0] > totals[1] > totals[2]',
    )
    # the SpMM-vs-handwritten advantage survives every generation
    check(
        all(s > 1.3 for s in speedups),
        'invariant violated: all(s > 1.3 for s in speedups)',
    )


# --- distributed strong scaling --------------------------------------------


def run_ext_distributed(cfg: RunConfig) -> ExperimentResult:
    n, d, k = 200000, 780, 100  # K = 160 GB in FP32: needs >= 2 A100-80GB
    all_comms = ((NVLINK, "NVLink"), (INFINIBAND, "InfiniBand"))
    comms = all_comms[:1] if cfg.quick else all_comms
    gpu_counts = (1, 2, 8) if cfg.quick else (1, 2, 4, 8, 16)
    rows = []
    models = {}
    for comm, comm_name in comms:
        for g in gpu_counts:
            m = model_distributed_popcorn(n, d, k, g, comm=comm)
            models[(comm_name, g)] = m
            rows.append(
                (
                    comm_name,
                    g,
                    f"{m['makespan_s']:.3f}",
                    f"{m['compute_s']:.3f}",
                    f"{m['comm_s']:.4f}",
                    f"{m['speedup_vs_1gpu']:.2f}x",
                    f"{m['efficiency'] * 100:.0f}%",
                )
            )
    nvlink8 = model_distributed_popcorn(n, d, k, 8, comm=NVLINK)
    return ExperimentResult(
        headers=(
            "interconnect",
            "gpus",
            "makespan_s",
            "compute_s",
            "comm_s",
            "speedup",
            "efficiency",
        ),
        rows=tuple(rows),
        aux={"models": models},
        metrics={"time.nvlink8_makespan_s": nvlink8["makespan_s"]},
    )


def check_ext_distributed(result: ExperimentResult) -> None:
    models = result.aux["models"]
    # strong scaling holds through 8 GPUs on NVLink
    nv = {g: m["makespan_s"] for (c, g), m in models.items() if c == "NVLink"}
    check(nv[8] < nv[2] < nv[1], 'invariant violated: nv[8] < nv[2] < nv[1]')
    # InfiniBand pays more communication than NVLink
    check(
        models[("InfiniBand", 8)]["comm_s"] > models[("NVLink", 8)]["comm_s"],
        'invariant violated: models[("InfiniBand", 8)]["comm_s"] > models[("NVLink", 8)]...',
    )


# --- the kernel-matrix memory wall -----------------------------------------


def run_ext_memory_wall(cfg: RunConfig) -> ExperimentResult:
    d, k = 780, 100
    n_values = (50000, 200000) if cfg.quick else (50000, 100000, 141000, 200000, 400000)
    rows = []
    per_n = {}
    for n in n_values:
        k_bytes = 4.0 * n * n
        fits = k_bytes <= MEMORY_WALL_CAPACITY * 0.9
        pop = model_popcorn(n, d, k, include_transfer=False).total_s if fits else None
        tiled = model_popcorn_tiled(
            n, d, k, chunk_rows=MEMORY_WALL_TILE, include_transfer=False
        ).total_s
        otf = model_onthefly(n, d, k)
        dist4 = model_distributed_popcorn(n, d, k, 4)
        per_n[n] = (tiled, otf["total_s"], dist4["makespan_s"])
        rows.append(
            (
                n,
                f"{k_bytes / 1e9:.0f}",
                "yes" if fits else "NO",
                f"{pop:.2f}" if pop else "-",
                f"{tiled:.2f}",
                f"{otf['total_s']:.2f}",
                f"{otf['peak_bytes'] / 1e9:.2f}",
                f"{dist4['makespan_s']:.2f}",
            )
        )
    tiled_200k, otf_200k, dist4_200k = per_n[200000]  # in both the quick and full sweeps
    return ExperimentResult(
        headers=(
            "n",
            "K_GB",
            "K_fits_1gpu",
            "popcorn_s",
            "tiled_s",
            "onthefly_s",
            "onthefly_peak_GB",
            "distributed4_s",
        ),
        rows=tuple(rows),
        metrics={
            "time.tiled_200k_s": tiled_200k,
            "time.onthefly_200k_s": otf_200k,
            "time.distributed4_200k_s": dist4_200k,
        },
    )


def check_ext_memory_wall(result: ExperimentResult) -> None:
    d, k = 780, 100
    # structure: when K fits, popcorn beats recompute; when it doesn't,
    # the fallbacks still run, and 4-GPU distribution beats recompute
    pop_small = model_popcorn(50000, d, k, include_transfer=False).total_s
    otf_small = model_onthefly(50000, d, k)["total_s"]
    check(pop_small < otf_small, 'invariant violated: pop_small < otf_small')
    big = 200000
    check(
        4.0 * big * big > MEMORY_WALL_CAPACITY,
        'invariant violated: 4.0 * big * big > MEMORY_WALL_CAPACITY',
    )
    tiled_big = result.metrics["time.tiled_200k_s"]
    otf_big = model_onthefly(big, d, k)
    dist_big = result.metrics["time.distributed4_200k_s"]
    check(
        4.0 * MEMORY_WALL_TILE * big < MEMORY_WALL_CAPACITY,
        'invariant violated: 4.0 * MEMORY_WALL_TILE * big < MEMORY_WALL_CAPACITY',
    )
    check(np.isfinite(tiled_big), 'invariant violated: np.isfinite(tiled_big)')
    check(
        otf_big["peak_bytes"] < MEMORY_WALL_CAPACITY,
        'invariant violated: otf_big["peak_bytes"] < MEMORY_WALL_CAPACITY',
    )
    check(dist_big < otf_big["total_s"], 'invariant violated: dist_big < otf_big["total_s"]')
    # streaming is not free: tiled pays over resident popcorn where both run
    check(
        model_popcorn_tiled(
            50000, d, k, chunk_rows=MEMORY_WALL_TILE, include_transfer=False
        ).total_s
        > pop_small,
        'invariant violated: model_popcorn_tiled(50000, ...) > pop_small',
    )
    # tiled-vs-recompute crossover is set by d: re-streaming K over PCIe
    # costs ~4 bytes/entry/iter regardless of d, while recomputing it
    # costs O(d) FLOPs/entry/iter — so recompute wins at moderate d and
    # streaming wins for high-dimensional data
    check(
        otf_big["total_s"] < tiled_big,
        'invariant violated: otf_big["total_s"] < tiled_big',
    )
    hi_d = 4000
    check(
        model_popcorn_tiled(
            big, hi_d, k, chunk_rows=MEMORY_WALL_TILE, include_transfer=False
        ).total_s
        < model_onthefly(big, hi_d, k)["total_s"],
        'invariant violated: model_popcorn_tiled(big, hi_d, ...) < onthefly',
    )


# --- Nyström approximation quality -----------------------------------------


def kernel_rel_error(phi: np.ndarray, k_true: np.ndarray) -> float:
    """``||phi phi^T - K||_F / ||K||_F`` with no BLAS call in it.

    ``phi @ phi.T`` and the ``dot`` inside ``np.linalg.norm`` sum in an
    order that moves with the BLAS thread count; ``einsum`` and an
    elementwise square-sum do not, so the metric is the same on every
    machine.
    """
    diff = np.einsum("ik,jk->ij", phi, phi) - k_true
    return float(np.sqrt(np.square(diff).sum()) / np.sqrt(np.square(k_true).sum()))


def run_ext_nystrom(cfg: RunConfig) -> ExperimentResult:
    n = 300 if cfg.quick else 600
    landmark_sweep = (10, 100) if cfg.quick else (10, 25, 50, 100, 200)
    x, y = make_circles(n, rng=1)
    kern = GaussianKernel(gamma=5.0)
    k_true = kern.pairwise(x.astype(np.float64))
    rows = []
    aris = []
    errs = []
    for m in landmark_sweep:
        phi, _ = nystrom_embedding(x, kern, m, rng=np.random.default_rng(0))
        err = kernel_rel_error(phi, k_true)
        model = make_estimator(
            "nystrom", n_clusters=2, n_landmarks=m, kernel=kern, seed=0
        ).fit(x)
        ari = adjusted_rand_index(model.labels_, y)
        aris.append(ari)
        errs.append(err)
        rows.append((m, f"{err:.4f}", f"{ari:.3f}", phi.shape[1]))
    return ExperimentResult(
        headers=("landmarks", "kernel_rel_error", "ARI", "embedding_dim"),
        rows=tuple(rows),
        aux={"aris": aris, "errs": errs},
        metrics={
            "quality.best_ari": max(aris),
            "error.min_kernel_rel_error": min(errs),
        },
    )


def check_ext_nystrom(result: ExperimentResult) -> None:
    aris = result.aux["aris"]
    errs = result.aux["errs"]
    # enough landmarks solve the task exactly
    check(max(aris[-2:]) > 0.95, 'invariant violated: max(aris[-2:]) > 0.95')
    # kernel approximation error falls as landmarks are added
    check(errs[0] > errs[-1], 'invariant violated: errs[0] > errs[-1]')


# --- spectral clustering via weighted kernel k-means -----------------------


def run_ext_spectral(cfg: RunConfig) -> ExperimentResult:
    import networkx as nx

    from ...graph import cluster_graph

    mixing = (0.01, 0.20) if cfg.quick else (0.01, 0.05, 0.10, 0.20)
    rows = []
    aris = {}
    for p_out in mixing:
        g = nx.planted_partition_graph(4, 25, p_in=0.5, p_out=p_out, seed=1)
        truth = np.repeat(np.arange(4), 25)
        labels = cluster_graph(g, 4, seed=0)
        ari = adjusted_rand_index(labels, truth)
        aris[p_out] = ari
        rows.append(("planted(4x25)", f"p_out={p_out}", f"{ari:.3f}"))

    n_moons = 150 if cfg.quick else 300
    x, y = make_moons(n_moons, rng=3)
    plain = make_estimator(
        "popcorn", n_clusters=2, kernel=GaussianKernel(gamma=20.0), seed=0,
        init="k-means++", max_iter=100,
    ).fit(x)
    spect = make_estimator("spectral", n_clusters=2, seed=0).fit(x)
    plain_ari = adjusted_rand_index(plain.labels_, y)
    spect_ari = adjusted_rand_index(spect.labels_, y)
    rows.append(("moons", "plain kernel k-means", f"{plain_ari:.3f}"))
    rows.append(("moons", "spectral (kNN + weighted KKM)", f"{spect_ari:.3f}"))
    return ExperimentResult(
        headers=("task", "setting", "ARI"),
        rows=tuple(rows),
        aux={"aris": aris, "plain_ari": plain_ari, "spect_ari": spect_ari},
        metrics={
            "quality.planted_clean_ari": aris[0.01],
            "quality.moons_spectral_ari": spect_ari,
        },
    )


def check_ext_spectral(result: ExperimentResult) -> None:
    aris = result.aux["aris"]
    # quality degrades gracefully with community mixing, perfect when clean
    check(aris[0.01] == 1.0, 'invariant violated: aris[0.01] == 1.0')
    check(aris[0.01] >= aris[0.20], 'invariant violated: aris[0.01] >= aris[0.20]')
    # the graph view dominates the radial view on moons
    check(
        result.aux["spect_ari"] > result.aux["plain_ari"] + 0.5,
        'invariant violated: result.aux["spect_ari"] > result.aux["plain_ari"] + 0.5',
    )
    check(
        result.aux["spect_ari"] > 0.95,
        'invariant violated: result.aux["spect_ari"] > 0.95',
    )


# --- the row-tiled engine sweep --------------------------------------------


def run_ext_engine_tiling(cfg: RunConfig) -> ExperimentResult:
    n, d, k = TILING_WORKLOAD
    tiles = (4096, 50000) if cfg.quick else (1024, 4096, 16384, 50000)
    mono = model_popcorn(n, d, k, iters=ITERS, include_transfer=False)
    rows = []
    ratios = []
    tiled_by_rows = {}
    for tile in tiles:
        tiled = model_popcorn_tiled(n, d, k, chunk_rows=tile, iters=ITERS, include_transfer=False)
        tiled_by_rows[tile] = tiled.total_s
        ratio = tiled.total_s / mono.total_s
        ratios.append(ratio)
        peak_gb = 4.0 * tile * n / 1e9
        rows.append(
            (
                tile,
                f"{peak_gb:.2f}",
                f"{tiled.total_s:.2f}",
                f"{tiled.phase_s('transfer'):.2f}",
                f"{ratio:.2f}",
            )
        )
    rows.append(
        (
            "resident",
            f"{4.0 * n * n / 1e9:.2f}",
            f"{mono.total_s:.2f}",
            f"{mono.phase_s('transfer'):.2f}",
            "1.00",
        )
    )
    return ExperimentResult(
        headers=("chunk_rows", "peak_K_GB", "total_s", "transfer_s", "vs_monolithic"),
        rows=tuple(rows),
        aux={"ratios": ratios},
        metrics={
            "time.monolithic_s": mono.total_s,
            "time.tiled_4096_s": tiled_by_rows[4096],  # in both the quick and full sweeps
        },
    )


def check_ext_engine_tiling(result: ExperimentResult) -> None:
    ratios = result.aux["ratios"]
    # structure: streaming always costs something, and the overhead falls
    # at every step as tiles grow (fixed overheads amortise)
    check(all(r > 1.0 for r in ratios), 'invariant violated: all(r > 1.0 for r in ratios)')
    check(
        ratios == sorted(ratios, reverse=True),
        'invariant violated: ratios == sorted(ratios, reverse=True)',
    )
    # the streaming floor is the PCIe/HBM bandwidth gap (~80x on the A100
    # testbed): re-reading K over PCIe each iteration cannot cost more
    # than that relative to the resident SpMM
    check(ratios[-1] < 80.0, 'invariant violated: ratios[-1] < 80.0')


# --- engine-executed sharded strong scaling ---------------------------------

STRONG_SCALING_WORKLOAD = (6000, 32, 12)  # n, d, k — executed, host-exact
STRONG_SCALING_GPUS = (1, 2, 4, 8)
STRONG_SCALING_ITERS = 6
STRONG_SCALING_PAPER = (200000, 780, 100)  # the modeled paper-scale curve


def run_ext_strong_scaling(cfg: RunConfig) -> ExperimentResult:
    """Strong scaling of the engine's sharded backend, fit for fit.

    Unlike ``ext_distributed`` (the paper-scale analytical model), this
    experiment *executes* ``backend="sharded:<g>"`` through the shared
    engine and reads the modeled makespan off the fitted estimator — so
    the gate tracks the code path every estimator actually runs.  All
    metrics are deterministic (modeled launches + ring collectives), and
    the check pins bit-identical labels against ``backend="host"``.

    At the host-executable n=6000 the curve shows the calibrated
    small-shard utilization cliff (the Fig. 4 SCOTUS anomaly): shards
    under ~7200 rows cannot saturate the device, so g=2 can cost *more*
    than g=1 while g=8 still wins end to end.  The paper-scale speedup
    metric comes from :func:`~repro.distributed.model_distributed_popcorn`
    — the same cost functions at n=200k, where every shard stays wide.
    """
    from ...baselines import random_labels

    n, d, k = STRONG_SCALING_WORKLOAD
    rng = np.random.default_rng(7)
    x = rng.standard_normal((n, d)).astype(np.float64)
    init = random_labels(n, k, rng)

    def fit(backend: str):
        return make_estimator(
            "popcorn",
            n_clusters=k,
            backend=backend,
            dtype=np.float64,
            max_iter=STRONG_SCALING_ITERS,
            check_convergence=False,
            seed=0,
        ).fit(x, init_labels=init)

    host = fit("host")
    gpu_counts = STRONG_SCALING_GPUS if not cfg.quick else (1, 8)
    rows = []
    makespans = {}
    comms = {}
    matches = {}
    for g in gpu_counts:
        est = fit(f"sharded:{g}")
        makespans[g] = est.makespan_s_
        comms[g] = est.comm_profiler_.total_time()
        matches[g] = bool(np.array_equal(est.labels_, host.labels_))
        speedup = makespans[gpu_counts[0]] / est.makespan_s_
        rows.append(
            (
                g,
                f"{est.makespan_s_ * 1e3:.3f}",
                f"{comms[g] * 1e6:.1f}",
                f"{speedup:.2f}x",
                f"{est.parallel_efficiency_ * 100:.0f}%",
                "yes" if matches[g] else "NO",
            )
        )
    np_, dp, kp = STRONG_SCALING_PAPER
    paper = {g: model_distributed_popcorn(np_, dp, kp, g) for g in STRONG_SCALING_GPUS}
    for g in STRONG_SCALING_GPUS:
        rows.append(
            (
                f"paper-scale {g}",
                f"{paper[g]['makespan_s'] * 1e3:.1f}",
                f"{paper[g]['comm_s'] * 1e6:.1f}",
                f"{paper[g]['speedup_vs_1gpu']:.2f}x",
                f"{paper[g]['efficiency'] * 100:.0f}%",
                "modeled",
            )
        )
    g_hi = gpu_counts[-1]
    return ExperimentResult(
        headers=("gpus", "makespan_ms", "comm_us", "speedup", "efficiency", "labels=host"),
        rows=tuple(rows),
        aux={"makespans": makespans, "comms": comms, "matches": matches, "paper": paper},
        metrics={
            "time.sharded_g1_makespan_s": makespans[1],
            "time.sharded_g8_makespan_s": makespans[g_hi],
            "throughput.sharded_g8_speedup": makespans[1] / makespans[g_hi],
            "throughput.paper_scale_g8_speedup": paper[8]["speedup_vs_1gpu"],
            "comm.sharded_g8_comm_s": comms[g_hi],
            "comm.paper_scale_g8_comm_s": paper[8]["comm_s"],
        },
    )


def check_ext_strong_scaling(result: ExperimentResult) -> None:
    makespans = result.aux["makespans"]
    comms = result.aux["comms"]
    paper = result.aux["paper"]
    # the acceptance contract: sharded labels are bit-identical to host
    check(
        all(result.aux["matches"].values()),
        'invariant violated: all(result.aux["matches"].values())',
    )
    # end-to-end strong scaling holds at the executed size...
    check(makespans[8] < makespans[1], 'invariant violated: makespans[8] < makespans[1]')
    # ...and at every step at paper scale, where every shard stays wide
    for a, b in zip(STRONG_SCALING_GPUS, STRONG_SCALING_GPUS[1:]):
        check(
            paper[b]["makespan_s"] < paper[a]["makespan_s"],
            'invariant violated: paper[b]["makespan_s"] < paper[a]["makespan_s"]',
        )
    # communication is the price: it grows with the device count
    order = sorted(comms)
    check(
        all(comms[a] <= comms[b] for a, b in zip(order, order[1:])),
        'invariant violated: all(comms[a] <= comms[b] for a, b in zip(order, order[1:]))',
    )
    check(
        result.metrics["throughput.sharded_g8_speedup"] > 1.2,
        'invariant violated: result.metrics["throughput.sharded_g8_speedup"] > 1.2',
    )
    check(
        result.metrics["throughput.paper_scale_g8_speedup"] > 4.0,
        'invariant violated: result.metrics["throughput.paper_scale_g8_speedup"] > 4.0',
    )


register_experiment(
    ExperimentSpec(
        exp_id="ext_device_sweep",
        title="performance portability: same code across GPU generations (modeled)",
        group="extension",
        run=run_ext_device_sweep,
        k_values=(100,),
        check=check_ext_device_sweep,
        tags=("portability",),
    )
)
register_experiment(
    ExperimentSpec(
        exp_id="ext_distributed",
        title="distributed Popcorn strong scaling (modeled, n=200k)",
        group="extension",
        run=run_ext_distributed,
        k_values=(100,),
        check=check_ext_distributed,
        tags=("distributed", "scaling"),
    )
)
register_experiment(
    ExperimentSpec(
        exp_id="ext_memory_wall",
        title="past the kernel-matrix memory wall (modeled, d=780, k=100)",
        group="extension",
        run=run_ext_memory_wall,
        k_values=(100,),
        check=check_ext_memory_wall,
        tags=("memory", "tiling", "onthefly"),
    )
)
register_experiment(
    ExperimentSpec(
        exp_id="ext_nystrom",
        title="Nystrom approximate kernel k-means on circles (executed)",
        group="extension",
        run=run_ext_nystrom,
        k_values=(2,),
        check=check_ext_nystrom,
        tags=("approximation",),
    )
)
register_experiment(
    ExperimentSpec(
        exp_id="ext_spectral",
        title="spectral clustering via weighted kernel k-means (executed)",
        group="extension",
        run=run_ext_spectral,
        k_values=(2, 4),
        check=check_ext_spectral,
        tags=("spectral", "graph"),
    )
)
register_experiment(
    ExperimentSpec(
        exp_id="ext_strong_scaling",
        title="sharded engine backend strong scaling (executed, modeled makespan)",
        group="extension",
        run=run_ext_strong_scaling,
        k_values=(12,),
        check=check_ext_strong_scaling,
        tags=("distributed", "scaling", "engine", "sharded"),
    )
)
register_experiment(
    ExperimentSpec(
        exp_id="ext_engine_tiling",
        title="row-tiled vs monolithic Popcorn (modeled, n=50000, d=780, k=100)",
        group="extension",
        run=run_ext_engine_tiling,
        k_values=(100,),
        check=check_ext_engine_tiling,
        tags=("tiling", "engine"),
    )
)
