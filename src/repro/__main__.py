"""Command-line interface: schedule, inspect and run SpTTN kernels.

Examples
--------
Show the loop nest the scheduler picks for an MTTKRP over a FROSTT file::

    python -m repro schedule --spec "ijk,jr,kr->ir" --tns tensor.tns --rank 16

Run the kernel and report timings and operation counts (synthetic tensor
when no file is given)::

    python -m repro run --spec "ijk,jr,ks->irs" --shape 200,150,120 \
        --nnz 20000 --rank 16 --compare taco

Sweep every CSF-consistent loop order of the scheduler's contraction path
through the cost model (optionally across processes) and time the best
candidates serially::

    python -m repro tune --spec "ijk,ja,ka->ia" --shape 60,50,40 \
        --nnz 2000 --rank 8 --workers 4 --measure

Execute the kernel over virtual ranks — rank-parallel on the shared worker
pool — and/or sweep the strong-scaling simulator::

    python -m repro dist --spec "ijk,ja,ka->ia" --shape 120,120,120 \
        --nnz 40000 --procs 1,2,4,8 --workers 4 --mode both

Serve a seeded mix of concurrent contraction requests through the batched
contraction service and report throughput::

    python -m repro serve --requests 64 --workers 2 --mix mixed

Run the network-facing serving daemon, then drive it from a second shell
with a scripted client session (bit-identity check, stats, drain)::

    python -m repro serve --daemon --port 7421 --workers 2
    python -m repro serve --connect 127.0.0.1:7421 --requests 32 \
        --verify --stats --shutdown

Show the disk-backed plan store named by ``REPRO_PLAN_STORE``::

    REPRO_PLAN_STORE=planstore python -m repro cache

List the built-in dataset presets::

    python -m repro datasets
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

import numpy as np

from repro.engine.executor import ENGINES
from repro.serve.scenarios import MIXES

#: ``--compare`` names of the :mod:`repro.frameworks` baselines.
_BASELINES = {
    "spttn": "SpTTNCyclopsBaseline",
    "taco": "TacoLikeBaseline",
    "sparselnr": "SparseLNRLikeBaseline",
    "ctf": "CTFLikeBaseline",
    "splatt": "SplattLikeBaseline",
}


def _load_sparse(args):
    from repro.sptensor import random_sparse_tensor, read_tns

    if args.tns:
        tensor = read_tns(args.tns)
        print(f"loaded {args.tns}: shape={tensor.shape}, nnz={tensor.nnz}")
        return tensor
    if not args.shape:
        raise SystemExit("either --tns or --shape must be given")
    shape = tuple(int(s) for s in args.shape.split(","))
    nnz = args.nnz if args.nnz else max(64, int(0.001 * np.prod(shape)))
    tensor = random_sparse_tensor(shape, nnz=nnz, seed=args.seed)
    print(f"synthetic tensor: shape={shape}, nnz={tensor.nnz}")
    return tensor


def _build_operands(spec: str, tensor, rank: int, seed: int):
    """Concrete operands for *spec*: the sparse tensor plus random dense factors."""
    lhs = spec.split("->")[0].split(",")
    sparse_sub = lhs[0]
    dims = {name: dim for name, dim in zip(sparse_sub, tensor.shape)}
    operands: List[object] = [tensor]
    for pos, sub in enumerate(lhs[1:]):
        shape = []
        for idx in sub:
            if idx in dims:
                shape.append(dims[idx])
            else:
                dims[idx] = rank
                shape.append(rank)
        operands.append(np.random.default_rng(seed + pos).random(tuple(shape)))
    return operands


def cmd_schedule(args) -> int:
    from repro.core import SpTTNScheduler, parse_kernel

    tensor = _load_sparse(args)
    operands = _build_operands(args.spec, tensor, args.rank, args.seed)
    kernel = parse_kernel(args.spec, operands)
    scheduler = SpTTNScheduler(kernel, buffer_dim_bound=args.buffer_bound)
    start = time.perf_counter()
    schedule = scheduler.schedule()
    elapsed = time.perf_counter() - start
    print(f"\nschedule found in {elapsed * 1e3:.1f} ms")
    print(schedule.describe())
    print("\nintermediate buffers:")
    for buf in schedule.loop_nest.buffers():
        print(f"  {buf.name}: indices={buf.indices} "
              f"size={buf.size(kernel.index_dims)} elements")
    return 0


def cmd_run(args) -> int:
    from repro import frameworks
    from repro.core import parse_kernel
    from repro.obs import disable_tracing, enable_tracing, write_trace

    tensor = _load_sparse(args)
    operands = _build_operands(args.spec, tensor, args.rank, args.seed)
    kernel = parse_kernel(args.spec, operands)
    mapping = {op.name: t for op, t in zip(kernel.operands, operands)}

    if args.trace:
        enable_tracing()
    systems = ["spttn"] + [s for s in (args.compare or []) if s in _BASELINES]
    print(f"\n{'system':>12s} {'time [ms]':>12s} {'flops':>14s}")
    for name in systems:
        if name == "spttn":
            baseline = frameworks.SpTTNCyclopsBaseline(
                buffer_dim_bound=args.buffer_bound, engine=args.engine
            )
        else:
            baseline = getattr(frameworks, _BASELINES[name])()
        if not baseline.supports(kernel):
            print(f"{name:>12s} {'unsupported':>12s}")
            continue
        if name == "spttn":
            baseline.schedule_for(kernel)
        best = None
        flops = 0
        for _ in range(args.repeats):
            result = baseline.run(kernel, mapping)
            flops = result.counter.flops
            best = result.seconds if best is None else min(best, result.seconds)
        print(f"{name:>12s} {best * 1e3:12.2f} {flops:14,d}")
    if args.trace:
        path = write_trace(args.trace)
        disable_tracing()
        print(f"\nwrote Chrome-trace JSON to {path} (open in Perfetto)")
    return 0


def cmd_tune(args) -> int:
    from repro.core import (
        ExecutionCost,
        ExecutionRunner,
        SpTTNScheduler,
        measure_loop_nests,
        parse_kernel,
        sweep_loop_orders,
    )
    from repro.runtime import resolve_workers

    tensor = _load_sparse(args)
    operands = _build_operands(args.spec, tensor, args.rank, args.seed)
    kernel = parse_kernel(args.spec, operands)

    scheduler = SpTTNScheduler(kernel, buffer_dim_bound=args.buffer_bound)
    schedule = scheduler.schedule()
    workers = resolve_workers(args.workers)

    start = time.perf_counter()
    sweep = sweep_loop_orders(
        kernel,
        schedule.path,
        # score under the same buffer bound the scheduler used, so the
        # printed rank of its pick is an apples-to-apples comparison
        cost=ExecutionCost(kernel, buffer_dim_bound=args.buffer_bound),
        workers=args.workers,
        limit=args.max_candidates,
    )
    elapsed = time.perf_counter() - start
    print(
        f"\ncost-model sweep: {len(sweep.entries)} loop orders on the "
        f"scheduler's contraction path, {workers} worker(s), "
        f"{elapsed * 1e3:.1f} ms"
    )

    ranked = sweep.sorted_entries()
    print(f"\n{'rank':>5s} {'cost':>14s}  loop orders")
    for rank, entry in enumerate(ranked[: args.top]):
        orders = "; ".join(",".join(o) for o in entry.nest.order)
        print(f"{rank:5d} {entry.value:14.4e}  {orders}")

    model_rank = sweep.rank_of(schedule.loop_nest)
    print(
        f"\nscheduler's pick ranks #{model_rank} of {len(sweep.entries)} "
        f"in the exhaustive cost sweep"
        if model_rank is not None
        else "\nscheduler's pick lies outside the swept candidate set"
    )

    if args.measure:
        mapping = {op.name: t for op, t in zip(kernel.operands, operands)}
        candidates = [e.nest for e in ranked[: args.measure_candidates]]
        start = time.perf_counter()
        measured = measure_loop_nests(
            candidates, ExecutionRunner(kernel, mapping), repeats=args.repeats
        )
        elapsed = time.perf_counter() - start
        print(
            f"\nmeasured {len(measured)} candidates serially "
            f"({args.repeats} repeat(s) each) in {elapsed * 1e3:.1f} ms"
        )
        print(f"\n{'rank':>5s} {'time [ms]':>12s}  loop orders")
        for rank, entry in enumerate(measured.sorted_entries()[: args.top]):
            orders = "; ".join(",".join(o) for o in entry.nest.order)
            print(f"{rank:5d} {entry.value * 1e3:12.3f}  {orders}")
        measured_rank = measured.rank_of(schedule.loop_nest)
        if measured_rank is not None:
            print(
                f"\nscheduler's pick ranks #{measured_rank} of "
                f"{len(measured)} by measured time"
            )
    return 0


def cmd_dist(args) -> int:
    """Distributed virtual-rank execution and strong-scaling simulation.

    ``--mode execute`` measures real rank-parallel executions of every
    process count in ``--procs`` on the shared worker pool (``--workers``,
    defaulting to the ``REPRO_WORKERS`` environment variable the runtime
    layer shares; ``0`` = serial virtual ranks, ``-1`` = one worker per
    CPU); ``--mode simulate`` sweeps the alpha-beta simulator instead, and
    ``--mode both`` prints the measured and predicted curves side by side.
    """
    from repro.core import parse_kernel
    from repro.distributed import DistributedSpTTN, measured_scaling, strong_scaling
    from repro.runtime import resolve_workers

    tensor = _load_sparse(args)
    operands = _build_operands(args.spec, tensor, args.rank, args.seed)
    kernel = parse_kernel(args.spec, operands)
    mapping = {op.name: t for op, t in zip(kernel.operands, operands)}
    procs = [int(s) for s in args.procs.split(",") if s.strip()]
    if not procs:
        raise SystemExit("--procs must name at least one process count")
    workers = resolve_workers(args.workers)

    if args.mode in ("execute", "both"):
        rows = measured_scaling(
            kernel,
            mapping,
            procs,
            kernel_name="dist",
            workers=args.workers,
            repeats=args.repeats,
            engine=args.engine,
            simulate=args.mode == "both",
        )
        print(
            f"\nrank-parallel execution: {workers} worker(s), "
            f"{args.repeats} repeat(s) per count"
        )
        header = f"{'procs':>6s} {'grid':>10s} {'measured [ms]':>14s} {'speedup':>8s}"
        if args.mode == "both":
            header += f" {'predicted [ms]':>15s}"
        print(header)
        for row in rows:
            line = (
                f"{row['processes']:6d} {row['grid']:>10s} "
                f"{row['measured_s'] * 1e3:14.2f} {row['speedup']:8.2f}"
            )
            if args.mode == "both":
                line += f" {row['predicted_s'] * 1e3:15.3f}"
            print(line)
        if args.check:
            # exactness diagnostic: the reduced multi-rank output must
            # match a single rank (two extra executions; --no-check skips
            # them on large workloads)
            dist = DistributedSpTTN(
                kernel, mapping, engine=args.engine, workers=args.workers
            )
            single = dist.execute(1, workers=0)
            multi = dist.execute(procs[-1])
            if kernel.output.is_sparse:
                delta = float(np.max(np.abs(single.values - multi.values))) if single.nnz else 0.0
            else:
                delta = float(np.max(np.abs(np.asarray(single) - np.asarray(multi))))
            print(f"\nmax |Δ| between 1-rank and {procs[-1]}-rank outputs: {delta:.3e}")
    if args.mode == "simulate":
        result = strong_scaling(kernel, mapping, procs, kernel_name="dist")
        print(f"\nsimulated strong scaling ({len(procs)} process count(s))")
        print(
            f"{'procs':>6s} {'grid':>10s} {'total [ms]':>12s} {'compute':>9s} "
            f"{'comm':>9s} {'eff':>6s} {'imbalance':>10s}"
        )
        for row in result.as_rows():
            print(
                f"{row['processes']:6d} {row['grid']:>10s} "
                f"{row['time_s'] * 1e3:12.3f} {row['compute_s'] * 1e3:9.3f} "
                f"{row['comm_s'] * 1e3:9.3f} {row['efficiency']:6.2f} "
                f"{row['load_imbalance']:10.2f}"
            )
    return 0


def _cmd_serve_daemon(args) -> int:
    """Run the network-facing serving daemon until SIGTERM/SIGINT."""
    import asyncio

    from repro.runtime import resolve_workers
    from repro.serve.daemon import ServeDaemon

    daemon = ServeDaemon(
        host=args.host,
        port=args.port,
        workers=args.workers,
        engine=args.engine,
        max_pending=args.max_pending,
        client_quota=args.client_quota,
        trace_dir=args.trace_dir,
    )

    async def _run() -> None:
        serve_task = asyncio.ensure_future(
            daemon.serve(install_signal_handlers=True)
        )
        while daemon.address is None and not serve_task.done():
            await asyncio.sleep(0.01)
        if daemon.address is not None:
            host, port = daemon.address
            # parsed by scripted clients (tests, CI): keep the format stable
            print(f"repro serve daemon listening on {host}:{port}", flush=True)
            print(
                f"engine={daemon.service.engine} "
                f"workers={resolve_workers(daemon.service.workers)} "
                f"max_pending={daemon.service.max_pending} "
                f"client_quota={daemon.client_quota}",
                flush=True,
            )
        await serve_task

    asyncio.run(_run())
    print("daemon drained and exited cleanly", flush=True)
    return 0


def _cmd_serve_connect(args) -> int:
    """Scripted client session against a running daemon."""
    import json

    from repro.serve import ServeClient, execute_sequential, scenario_mix
    from repro.sptensor import COOTensor

    requests = scenario_mix(
        args.requests, mix=args.mix, seed=args.seed, engine=args.engine
    )
    with ServeClient(args.connect, retry=args.retry) as client:
        client.ping()
        print(f"connected to {args.connect}")
        if args.warmup:
            client.run(requests)  # populate the daemon's process caches
        start = time.perf_counter()
        outputs = client.run(requests)
        elapsed = time.perf_counter() - start
        print(
            f"served {args.requests} request(s), mix={args.mix!r}: "
            f"{elapsed * 1e3:.1f} ms ({args.requests / elapsed:.1f} req/s "
            f"round trip)"
        )
        if args.verify:
            expected = execute_sequential(requests, engine=args.engine)
            for i, (got, want) in enumerate(zip(outputs, expected)):
                if isinstance(want, COOTensor):
                    same = (
                        isinstance(got, COOTensor)
                        and np.array_equal(got.indices, want.indices)
                        and np.array_equal(got.values, want.values)
                    )
                else:
                    same = np.array_equal(np.asarray(got), np.asarray(want))
                if not same:
                    raise SystemExit(
                        f"daemon result {i} differs from in-process serving"
                    )
            print(
                f"verify: all {len(outputs)} daemon results bit-identical "
                f"to in-process serving"
            )
        if args.show_stats:
            print(json.dumps(client.stats(), indent=2, default=str))
        if args.show_metrics:
            print(client.metrics(format="prometheus"), end="")
        if args.shutdown:
            pending = client.shutdown_server()
            print(f"daemon draining ({pending} pending) and shutting down")
    return 0


def cmd_serve(args) -> int:
    """Serve contraction requests: in-process driver, daemon, or client.

    The default mode generates ``--requests`` deterministic requests for
    the ``--mix`` scenario (kernels, shapes, dtypes and sparsities vary
    within the mix), serves them through
    :class:`~repro.serve.ContractionService` on ``--workers`` worker
    processes, and prints throughput, batching and cache statistics.
    ``--daemon`` instead runs the asyncio TCP daemon on ``--host``/
    ``--port`` until SIGTERM (see ``docs/PROTOCOL.md``), and
    ``--connect HOST:PORT`` runs a scripted client session against a
    daemon (``--verify`` asserts bit-identity to in-process serving,
    ``--stats`` fetches the stats document, ``--shutdown`` drains it).
    """
    if args.daemon and args.connect:
        raise SystemExit("--daemon and --connect are mutually exclusive")
    if args.daemon:
        return _cmd_serve_daemon(args)
    if args.connect:
        return _cmd_serve_connect(args)
    from repro.obs import disable_tracing, enable_tracing, write_trace
    from repro.runtime import resolve_workers
    from repro.serve import ContractionService, ServiceStats, scenario_mix

    requests = scenario_mix(
        args.requests, mix=args.mix, seed=args.seed, engine=args.engine
    )
    service = ContractionService(workers=args.workers, engine=args.engine)
    workers = resolve_workers(args.workers)
    if args.warmup:
        service.run(requests)  # populate schedule/plan/executor caches
        service.stats = ServiceStats()  # report the timed pass only
    if args.trace:
        enable_tracing()
    start = time.perf_counter()
    service.run(requests)
    served_s = time.perf_counter() - start
    if args.trace:
        path = write_trace(args.trace)
        disable_tracing()
        print(f"wrote Chrome-trace JSON to {path} (open in Perfetto)")

    stats = service.stats
    print(f"\nserved {args.requests} request(s), mix={args.mix!r}, "
          f"{workers} worker(s), engine={service.engine}")
    print(f"{'elapsed [ms]':>16s} {'req/s':>10s} {'batches':>8s} "
          f"{'amortized':>10s} {'shm [kB]':>9s}")
    print(f"{served_s * 1e3:16.1f} {args.requests / served_s:10.1f} "
          f"{stats.batches:8d} {stats.amortized:10d} "
          f"{stats.shared_bytes / 1e3:9.1f}")
    kinds = ", ".join(f"{k}={n}" for k, n in sorted(stats.by_kind.items()))
    print(f"request mix: {kinds}")

    from repro.engine.plan_cache import caches_snapshot
    from repro.engine.plan_store import plan_store_snapshot

    print("\nprocess cache statistics:")
    _print_cache_stats(caches_snapshot())
    if plan_store_snapshot().get("configured"):
        _print_store_stats()
    return 0


def _print_cache_stats(stats_by_cache) -> None:
    print(
        f"{'cache':>10s} {'entries':>8s} {'hits':>8s} {'misses':>8s} "
        f"{'evictions':>10s} {'rejections':>11s} {'bytes':>12s}"
    )
    columns = ("entries", "hits", "misses", "evictions", "rejections", "bytes")
    for name, stats in stats_by_cache.items():
        print(
            f"{name:>10s} {stats['entries']:8d} {stats['hits']:8d} "
            f"{stats['misses']:8d} {stats['evictions']:10d} "
            f"{stats['rejections']:11d} {stats['bytes']:12,d}"
        )
        extra = [f"{k}={v}" for k, v in stats.items() if k not in columns]
        if extra:  # jit: compiles, runs, rebinds; csf: digests
            print(f"{'':>10s} {'  '.join(extra)}")


def cmd_cache(args) -> int:
    """Print the disk-backed plan store named by ``REPRO_PLAN_STORE``.

    The in-memory caches are per process and a fresh CLI invocation starts
    with them empty; a live process's cache, timing and store rows are the
    daemon's ``stats`` op.  The store is what a fresh process can see.
    """
    _print_store_stats()
    return 0


def _print_store_stats() -> None:
    """Print the default plan store's stats (or that none is configured)."""
    from repro.engine.plan_store import plan_store_snapshot

    snap = plan_store_snapshot()
    if not snap.get("configured"):
        print("\nplan store: not configured (set REPRO_PLAN_STORE)")
        return
    print(f"\nplan store at {snap['path']}:")
    print(
        f"{'entries':>8s} {'hits':>8s} {'misses':>8s} {'writes':>8s} "
        f"{'errors':>8s} {'bytes':>12s}"
    )
    print(
        f"{snap['entries']:8d} {snap['hits']:8d} {snap['misses']:8d} "
        f"{snap['writes']:8d} {snap['errors']:8d} {snap['bytes']:12,d}"
    )


def cmd_datasets(args) -> int:
    from repro.sptensor import dataset_presets

    print(f"{'name':>12s} {'order':>6s} {'shape':>30s} {'nnz':>14s}")
    for name, spec in sorted(dataset_presets().items()):
        print(
            f"{name:>12s} {spec.order:6d} {str(spec.full_shape):>30s} "
            f"{spec.full_nnz:14,d}"
        )
    print("\nload a scaled synthetic stand-in with "
          "repro.load_preset(name, scale=..., max_nnz=...) "
          "or the real file with load_preset(name, tns_path=...).")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="SpTTN-Cyclops reproduction: minimum-cost loop nests for "
        "sparse-tensor-times-tensor-network contractions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--spec", required=True, help='einsum spec, e.g. "ijk,jr,kr->ir"')
        p.add_argument("--tns", help="FROSTT .tns file for the sparse operand")
        p.add_argument("--shape", help="synthetic sparse tensor shape, e.g. 200,150,120")
        p.add_argument("--nnz", type=int, help="synthetic nonzero count")
        p.add_argument("--rank", type=int, default=16, help="dense factor rank (default 16)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--buffer-bound", type=int, default=2,
                       help="intermediate buffer dimension bound (default 2)")

    p_sched = sub.add_parser("schedule", help="show the selected loop nest")
    add_common(p_sched)
    p_sched.set_defaults(func=cmd_schedule)

    p_run = sub.add_parser("run", help="execute the kernel (optionally vs baselines)")
    add_common(p_run)
    p_run.add_argument("--compare", nargs="*", choices=sorted(_BASELINES),
                       help="baselines to compare against")
    p_run.add_argument("--repeats", type=int, default=3)
    p_run.add_argument(
        "--engine", choices=ENGINES, default=None,
        help="execution engine for the spttn system (default: REPRO_ENGINE "
        "environment variable, else 'jit')",
    )
    p_run.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record spans for the run and write a Chrome-trace JSON file "
        "(loadable in Perfetto / chrome://tracing)",
    )
    p_run.set_defaults(func=cmd_run)

    p_tune = sub.add_parser(
        "tune",
        help="sweep the loop-order space (cost model, optionally measured)",
    )
    add_common(p_tune)
    p_tune.add_argument(
        "--workers", type=int, default=None,
        help="cost-model sweep workers (-1 = one per CPU; default: the "
        "REPRO_WORKERS environment variable, else serial); --measure "
        "always times serially",
    )
    p_tune.add_argument(
        "--max-candidates", type=int, default=None,
        help="cap on the number of enumerated loop orders",
    )
    p_tune.add_argument(
        "--top", type=int, default=10, help="rows to print per ranking"
    )
    p_tune.add_argument(
        "--measure", action="store_true",
        help="also execute and time the best candidates",
    )
    p_tune.add_argument(
        "--measure-candidates", type=int, default=16,
        help="how many of the best-by-cost candidates to measure",
    )
    p_tune.add_argument("--repeats", type=int, default=1,
                        help="timed repetitions per measured candidate")
    p_tune.set_defaults(func=cmd_tune)

    p_dist = sub.add_parser(
        "dist",
        help="distributed virtual-rank execution (rank-parallel) / scaling sweep",
    )
    add_common(p_dist)
    p_dist.add_argument(
        "--procs", default="1,2,4,8",
        help="comma-separated virtual process counts (default 1,2,4,8)",
    )
    p_dist.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for rank-parallel execution (default: the "
        "REPRO_WORKERS environment variable; 0 = serial, -1 = one per CPU)",
    )
    p_dist.add_argument(
        "--engine", choices=ENGINES, default=None,
        help="execution engine for the per-rank executors (default: "
        "REPRO_ENGINE environment variable, else 'jit')",
    )
    p_dist.add_argument(
        "--mode", choices=("execute", "simulate", "both"), default="execute",
        help="measure real rank-parallel executions, sweep the alpha-beta "
        "simulator, or both (default execute)",
    )
    p_dist.add_argument("--repeats", type=int, default=1,
                        help="timed repetitions per process count")
    p_dist.add_argument(
        "--no-check", dest="check", action="store_false",
        help="skip the 1-rank vs n-rank exactness diagnostic "
        "(two extra executions) after the execute sweep",
    )
    p_dist.set_defaults(func=cmd_dist, check=True)

    p_serve = sub.add_parser(
        "serve",
        help="drive the batched contraction service with a seeded request mix",
    )
    p_serve.add_argument(
        "--requests", type=int, default=64,
        help="number of requests in the generated workload (default 64)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for batch dispatch (default: the "
        "REPRO_WORKERS environment variable; 0 = serial, -1 = one per CPU)",
    )
    p_serve.add_argument(
        "--engine", choices=ENGINES, default=None,
        help="execution engine for served requests (default: REPRO_ENGINE "
        "environment variable, else 'jit')",
    )
    p_serve.add_argument(
        "--mix", choices=MIXES, default="mixed",
        help="scenario mix of the generated requests (default mixed)",
    )
    p_serve.add_argument("--seed", type=int, default=0,
                         help="seed for the scenario generator")
    p_serve.add_argument(
        "--cold", dest="warmup", action="store_false",
        help="time the first (cold) pass instead of warming the caches "
        "with one untimed pass first",
    )
    p_serve.add_argument(
        "--daemon", action="store_true",
        help="run the network-facing serving daemon until SIGTERM "
        "(newline-delimited JSON over TCP; see docs/PROTOCOL.md)",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1",
        help="daemon bind host (default 127.0.0.1)",
    )
    p_serve.add_argument(
        "--port", type=int, default=0,
        help="daemon bind port (default 0 = ephemeral, printed on startup)",
    )
    p_serve.add_argument(
        "--max-pending", type=int, default=4096,
        help="daemon admission bound: backlog + in-flight requests above "
        "which submissions are rejected (default 4096)",
    )
    p_serve.add_argument(
        "--client-quota", type=int, default=64,
        help="daemon fairness bound: max in-flight requests per client "
        "connection in one dispatch cycle (default 64)",
    )
    p_serve.add_argument(
        "--connect", metavar="HOST:PORT", default=None,
        help="run a scripted client session against a daemon instead of "
        "serving in-process",
    )
    p_serve.add_argument(
        "--retry", type=float, default=0.0,
        help="with --connect: keep retrying the connection for this many "
        "seconds (for scripts that race the daemon startup)",
    )
    p_serve.add_argument(
        "--verify", action="store_true",
        help="with --connect: assert daemon results are bit-identical to "
        "in-process sequential serving",
    )
    p_serve.add_argument(
        "--stats", dest="show_stats", action="store_true",
        help="with --connect: fetch and print the daemon stats document",
    )
    p_serve.add_argument(
        "--metrics", dest="show_metrics", action="store_true",
        help="with --connect: fetch and print the daemon metrics in "
        "Prometheus text exposition format",
    )
    p_serve.add_argument(
        "--shutdown", action="store_true",
        help="with --connect: ask the daemon to drain and shut down after "
        "the session",
    )
    p_serve.add_argument(
        "--trace", metavar="PATH", default=None,
        help="in-process mode: record spans for the timed pass and write a "
        "Chrome-trace JSON file (loadable in Perfetto)",
    )
    p_serve.add_argument(
        "--trace-dir", metavar="DIR", default=None,
        help="with --daemon: enable tracing and write a Chrome-trace JSON "
        "file into DIR at shutdown (default: the REPRO_TRACE_DIR "
        "environment variable)",
    )
    p_serve.set_defaults(func=cmd_serve, warmup=True)

    p_cache = sub.add_parser(
        "cache", help="show the disk-backed plan store (REPRO_PLAN_STORE)"
    )
    p_cache.set_defaults(func=cmd_cache)

    p_data = sub.add_parser("datasets", help="list the FROSTT dataset presets")
    p_data.set_defaults(func=cmd_datasets)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
