"""Child process of ``run.py``: one workload, one mode, one JSON line on stdout.

Modes
-----
``generate``  write the workload's large inputs as ``.npy`` (untimed).
``probe``     cold start to the first verified operation, then exit: one
              ``setup_s`` sample.
``timed``     the same cold start, warm-up with every distinct request or
              kernel checked against the oracle, then the timed section in
              blocks with a yardstick reading around each.
``traced``    cold start, an untraced reference pass, then the same operations
              again with ``spans.install`` in effect, plus the layer replays.

``--t0`` is the parent's ``time.perf_counter()`` just before it spawned this
interpreter (one clock for all processes on Linux), so ``setup_s`` contains
interpreter start-up and ``import repro``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import subprocess
import sys
import time
import traceback
from pathlib import Path

import metrics
import oracle
import spans
import workloads
from yardstick import Yardstick

HERE = Path(__file__).resolve().parent
STOCK_DAEMON = [sys.executable, "-m", "repro"]
DAEMON_ARGS = ["serve", "--daemon", "--port", "0", "--workers", "0"]
SERVE_TIMEOUT_S = 60.0


def rss_mb(pid):
    """Peak resident set (``VmHWM``) of *pid* in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Checker:
    """Counts verifications; keeps the first verified output per key."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference = {}

    def record(self, ok):
        self.attempted += 1
        self.failed += not ok

    def verify(self, session, i, output):
        """First sight of a key: the session's check.  Afterwards: same bits."""
        key = session.key(i)
        if isinstance(output, Exception):
            ok = False
        elif key in self.reference:
            ok = oracle.same_bits(output, self.reference[key])
        else:
            ok = session.first_check(i, output)
            if ok:
                self.reference[key] = output
        self.record(ok)


# --------------------------------------------------------------------------- #
# Sessions: what one operation is, and how its result is checked
# --------------------------------------------------------------------------- #
class AppSession:
    """``cp_als`` / ``hooi``: one operation is one whole decomposition."""

    serve = False

    def __init__(self, name, seed, directory):
        self.seed = seed
        self.requests, self.tensor = workloads.load(name, seed, directory)
        if name == "cp_als":
            self.module = importlib.import_module("repro.apps.cp_als")
            self.function = "cp_als"
            self.arguments = dict(
                rank=workloads.CP_RANK, iterations=workloads.CP_ITERATIONS
            )
        else:
            self.module = importlib.import_module("repro.apps.tucker_hooi")
            self.function = "tucker_hooi"
            self.arguments = dict(
                ranks=workloads.HOOI_RANKS, iterations=workloads.HOOI_ITERATIONS
            )

    def open(self, **_):
        pass

    def close(self):
        pass

    def op(self, i):
        # looked up per call, so that the traced pass reaches the wrapper
        decompose = getattr(self.module, self.function)
        result = decompose(
            self.tensor, tolerance=0.0, seed=self.seed + i, **self.arguments
        )
        return [float(fit) for fit in result.fits]

    def key(self, i):
        return i

    def first_check(self, i, fits):
        return 0.0 < fits[-1] <= 1.0

    def warm_up(self, checker):
        """Every distinct kernel of the decomposition against the oracle."""
        from repro.serve.service import execute_sequential

        for request, output in zip(self.requests, execute_sequential(self.requests)):
            checker.record(oracle.check(request.spec, request.operands, output))

    def stats(self):
        from repro.engine.plan_cache import caches_snapshot
        from repro.runtime import pool_stats

        return {"caches": caches_snapshot(), "pool": pool_stats(), "service": {}}

    def rss_mb(self):
        return rss_mb(os.getpid())

    def stamp(self):
        from repro.engine.executor import default_engine

        return {"engine": default_engine(), "workers": "none (in-process apps)"}


class ServeSession:
    """``serve_small`` / ``serve_bulk``: closed loop, one client, one connection."""

    serve = True

    def __init__(self, name, seed, directory):
        self.requests, _ = workloads.load(name, seed, directory)
        self.bulk = name == "serve_bulk"
        self.timings = []
        self.process = None
        self.client = None
        self.banner = ""

    def open(self, launcher=STOCK_DAEMON, extra_env=None):
        from repro.serve import ServeClient

        self.process = subprocess.Popen(
            launcher + DAEMON_ARGS,
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, **(extra_env or {})},
        )
        try:
            listening = self.process.stdout.readline()
            self.banner = self.process.stdout.readline().strip()
            if "listening on" not in listening:
                raise RuntimeError(f"daemon did not start: {listening!r}")
            self.client = ServeClient(
                listening.rsplit(" ", 1)[1].strip(), timeout=SERVE_TIMEOUT_S, retry=5.0
            )
        except BaseException:
            self.close()
            raise

    def close(self):
        """Drain and stop the daemon; never leaves the process behind."""
        process, self.process = self.process, None
        if process is None:
            return
        try:
            if self.client is not None:
                self.client.shutdown_server(wait=True)
                self.client.close()
            process.wait(timeout=SERVE_TIMEOUT_S)
        except (OSError, RuntimeError, subprocess.TimeoutExpired):
            traceback.print_exc()
        finally:
            self.client = None
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()

    def op(self, i):
        if self.bulk:
            pending = self.client.submit_many(self.requests)
            outputs = [p.result() for p in pending]
            self.timings.extend(p.timings for p in pending)
            return outputs
        pending = self.client.submit(self.requests[i % len(self.requests)])
        output = pending.result()
        self.timings.append(pending.timings)
        return output

    def key(self, i):
        return 0 if self.bulk else i % len(self.requests)

    def first_check(self, i, output):
        if self.bulk:
            return all(
                oracle.check(r.spec, r.operands, o)
                for r, o in zip(self.requests, output)
            )
        request = self.requests[i % len(self.requests)]
        return oracle.check(request.spec, request.operands, output)

    def warm_up(self, checker):
        """Fill the daemon's caches and buffers; every reply is verified.

        ``serve_small``: two whole passes.  ``serve_bulk``: two batches
        pipelined back to back, so that the daemon's read buffer reaches its
        high-water mark before the clock starts.  Otherwise whether some timed
        batch happens to arrive while the event loop is busy decides a 10%
        step in the daemon's ``VmHWM``, and ``peak_rss_mb`` is bimodal.
        """
        if not self.bulk:
            run_pass(self, 2 * len(self.requests), checker)
            return
        pending = self.client.submit_many(self.requests * 2)
        outputs = [p.result() for p in pending]
        for start in (0, len(self.requests)):
            checker.verify(self, 0, outputs[start:start + len(self.requests)])

    def stats(self):
        return self.client.stats()

    def rss_mb(self):
        return rss_mb(self.process.pid)

    def stamp(self):
        fields = dict(f.split("=", 1) for f in self.banner.split() if "=" in f)
        return {"engine": fields.get("engine"), "workers": "--workers 0"}


# --------------------------------------------------------------------------- #
# Passes
# --------------------------------------------------------------------------- #
def run_pass(session, count, checker, recorder=None, yardstick=None, block=None):
    """*count* operations in blocks of *block*; verification after the clock stops.

    Returns the operations' latencies and ``(start, end)`` windows, each
    block's wall time, and the yardstick readings taken around the blocks
    (one more than there are blocks; none without a *yardstick*).
    """
    latencies, outputs, windows, walls = [], [], [], []
    reported = False
    block = block or count
    gc.collect()
    readings = [yardstick()] if yardstick else []
    for first in range(0, count, block):
        begin = time.perf_counter()
        for i in range(first, min(first + block, count)):
            if recorder is not None:
                recorder.op = i
            start = time.perf_counter()
            try:
                output = session.op(i)
            except Exception as exc:  # a failed operation is a result, not a crash
                output = exc
                if not reported:
                    traceback.print_exc()
                    reported = True
            end = time.perf_counter()
            latencies.append(end - start)
            windows.append((start, end))
            outputs.append(output)
        walls.append(time.perf_counter() - begin)
        if yardstick:
            readings.append(yardstick())
    if recorder is not None:
        recorder.op = None
    for i, output in enumerate(outputs):
        checker.verify(session, i, output)
    return latencies, walls, windows, readings


def counters(stats):
    """The counts that must not move during a timed section."""
    pools = stats["pool"]["pools"].values()
    return {
        "schedule_misses": stats["caches"]["schedule"]["misses"],
        "plan_misses": stats["caches"]["plan"]["misses"],
        "pool_maps": sum(pool["maps"] for pool in pools),
    }


def moved(before, after, names=None):
    return {name: after[name] - before[name] for name in names or before}


def median_time(call, repeats=5):
    """Median wall time of *call* over *repeats* runs, in seconds."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return spans.median(samples)


# --------------------------------------------------------------------------- #
# Layer replays of the traced mode
# --------------------------------------------------------------------------- #
def distinct(requests):
    unique = {(r.spec, tuple(id(op) for op in r.operands)): r for r in requests}
    return list(unique.values())


def tier_replay(requests):
    """The workload's kernels on each explicit tier: sum of medians of 5, in ms."""
    from repro.serve.service import execute_sequential

    kernels = distinct(requests)
    totals = {}
    for tier in metrics.TIERS:
        total = 0.0
        for request in kernels:
            execute_sequential([request], engine=tier)  # compile and bind
            total += median_time(lambda: execute_sequential([request], engine=tier))
        totals[tier] = total * 1e3
    return totals


def in_process_baseline(requests, daemon_s_per_request):
    """``ContractionService(workers=0).run`` on the same stream: the wire's base."""
    from repro.serve import ContractionService

    service = ContractionService(workers=0)
    service.run(requests)
    base = median_time(lambda: service.run(requests)) / len(requests)
    return {
        "inprocess_ms": base * 1e3,
        "wire_overhead_x": daemon_s_per_request / base,
    }


def pool_replay(requests, recorder, batches=4):
    """``serve_bulk``'s batch through ``ContractionService(workers=2)``."""
    from multiprocessing import resource_tracker

    from repro.runtime import shared_pool, shutdown_pool
    from repro.serve import ContractionService

    # The service publishes to shared memory before its first map, so its
    # forked workers inherit the parent's resource tracker.  Forking first,
    # as the spawn measurement below does, would leave each worker to start a
    # tracker of its own that reports every attached segment as leaked.
    resource_tracker.ensure_running()
    pool = shared_pool(2)
    try:
        trivial = []
        for _ in range(2):  # the first map forks the workers, the second does not
            start = time.perf_counter()
            pool.map(abs, [1, 2])
            trivial.append(time.perf_counter() - start)
        service = ContractionService(workers=2)
        service.run(requests)
        before = pool.stats()
        windows = []
        for _ in range(batches):
            start = time.perf_counter()
            service.run(requests)
            windows.append((start, time.perf_counter()))
        after = pool.stats()
    finally:
        shutdown_pool()
    layer = spans.layer_medians(spans.per_op(recorder.spans, windows))
    delta = moved(before, after, ("tasks", "serial_maps", "crashes", "timeouts",
                                  "respawns", "retries"))
    retries = sum(delta[name] for name in ("crashes", "timeouts", "respawns", "retries"))
    return {
        "pool_spawn_ms": (trivial[0] - trivial[1]) * 1e3,
        "pool_map_ms": layer["runtime.pool_map"][0],
        "pool_map_calls": layer["runtime.pool_map"][1],
        "pool_tasks": delta["tasks"] / batches,
        "pool_serial_maps": delta["serial_maps"] / batches,
        "pool_retries": retries / batches,
        "shm_publish_ms": layer["runtime.shm_publish"][0],
        "shm_bytes": layer["runtime.shm_publish"][2],
        "reduce_ms": layer["runtime.reduce"][0],
    }


def service_shares(before, after):
    """``serve.*`` ratios and counts of the traced daemon over the traced pass."""
    delta = moved(
        before, after, ("served", "batches", "amortized", "rejected", "failed", "expired")
    )
    served = delta["served"]
    return {
        "batch_size_mean": served / delta["batches"] if delta["batches"] else 0.0,
        "amortized_share": delta["amortized"] / served if served else 0.0,
        "rejected": delta["rejected"],
        "failed": delta["failed"],
        "expired": delta["expired"],
    }


# --------------------------------------------------------------------------- #
# Modes
# --------------------------------------------------------------------------- #
def traced_mode(args, session, workload, checker, pace):
    """Reference pass, layer replays, traced pass.

    *pace* is ``run_pass``'s yardstick and block: the overheads compare passes
    that run minutes apart, so each is read beside the yardstick.
    """
    count = workload.traced_count(args.seconds)
    per_op_requests = len(session.requests) if args.workload == "serve_bulk" else 1
    reference, walls, _, readings = run_pass(session, count, checker, **pace)
    reference_p50_rel = metrics.latency_p50_rel(reference, readings, workload.block)
    serve, trace_overhead = {}, 0.0
    if session.serve:
        session.close()
        serve = in_process_baseline(
            session.requests, sum(walls) / (count * per_op_requests)
        )
        if args.workload == "serve_small":
            session.open(extra_env={"REPRO_TRACE": "1"})
            session.warm_up(checker)
            observed, _, _, beside = run_pass(session, count, checker, **pace)
            observed_p50_rel = metrics.latency_p50_rel(observed, beside, workload.block)
            trace_overhead = observed_p50_rel / reference_p50_rel - 1.0
            session.close()

    recorder = spans.Recorder()
    spans_file = Path(args.inputs) / "daemon-spans.json"
    if session.serve:
        launcher = [sys.executable, str(HERE / "traced_daemon.py"), str(spans_file)]
        session.open(launcher=launcher)
        session.warm_up(checker)
    spans.install(recorder, "client")
    session.timings = []
    before = session.stats()
    traced, _, windows, beside = run_pass(session, count, checker, recorder, **pace)
    traced_p50_rel = metrics.latency_p50_rel(traced, beside, workload.block)
    after = session.stats()
    misses = moved(counters(before), counters(after))
    recorded = list(recorder.spans)
    if session.serve:
        serve.update(service_shares(before["service"], after["service"]))
        session.close()
        recorded += spans.load(json.loads(spans_file.read_text()), pid=1)

    totals = spans.per_op(recorded, windows)
    runtime = None
    if args.workload == "serve_bulk":
        runtime = pool_replay(session.requests, recorder)
    layer = metrics.per_layer(
        totals=totals,
        windows=windows,
        reference=reference,
        reference_wall=sum(walls),
        yardstick=readings,
        span_overhead=traced_p50_rel / reference_p50_rel - 1.0,
        trace_overhead=trace_overhead,
        stages=session.timings,
        cache_misses=(misses["schedule_misses"], misses["plan_misses"]),
        tiers=tier_replay(session.requests),
        serve=serve,
        runtime=runtime,
    )
    if args.trace_out:
        spans.write_chrome_trace(args.trace_out, recorded)
    return {"per_layer": layer, "traced_ops": count}


def timed_mode(args, session, workload, checker, pace):
    """The timed section of the end-to-end metrics."""
    before = counters(session.stats())
    latencies, walls, _, readings = run_pass(
        session, workload.count(args.seconds), checker, **pace
    )
    checks = moved(before, counters(session.stats()))
    # a search, a plan build or a pool map inside the timed section is a failure
    checker.record(not any(checks.values()))
    return {
        "checks": checks,
        "latencies": latencies,
        "block_walls_s": walls,
        "yardstick_s": readings,
        "peak_rss_mb": session.rss_mb(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--mode", required=True,
                        choices=("generate", "probe", "timed", "traced"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    if args.mode == "generate":
        workloads.generate(args.workload, args.seed, args.inputs)
        return 0

    import numpy
    import scipy

    workload = workloads.WORKLOADS[args.workload]
    cls = ServeSession if args.workload.startswith("serve") else AppSession
    session = cls(args.workload, args.seed, args.inputs)
    checker = Checker()
    result = {}
    try:
        session.open()
        run_pass(session, 1, checker)
        result["setup_s"] = time.perf_counter() - args.t0
        result["stamp"] = {
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            **session.stamp(),
        }
        if args.mode != "probe":
            session.warm_up(checker)
            with Yardstick(workload.round_trips) as yardstick:
                pace = dict(yardstick=yardstick, block=workload.block)
                mode = traced_mode if args.mode == "traced" else timed_mode
                result.update(mode(args, session, workload, checker, pace))
    finally:
        session.close()
    result["attempted"] = checker.attempted
    result["failed"] = checker.failed
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
