"""CPU time per warm small request on both ends of the stock daemon.

    PYTHONPATH=src python benchmarks/daemon_cpu.py [--requests 4096] [--repeat 3]

Starts ``repro serve --daemon --workers 0`` in a child process, sends two
warm-up passes of ``scenario_mix(512)``, then one request at a time (closed
loop, as the ``serve_small`` workload does) and reads the daemon's user and
system CPU from ``/proc/<pid>/stat`` and the client's from ``os.times``
around the timed requests.  Prints, per repeat, the daemon's user CPU per
request, the client's CPU per request and the median round trip in ms, and
a ``ping`` loop's daemon user CPU for scale.  Linux only (``/proc``).
"""

from __future__ import annotations

import argparse
import os
import re
import statistics
import subprocess
import sys
import time

PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def cpu_seconds(pid):
    """``(user, system)`` CPU seconds of *pid* so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    tick = os.sysconf("SC_CLK_TCK")
    return int(fields[11]) / tick, int(fields[12]) / tick


def measure(client, pid, count, call):
    """Daemon user ms, client CPU ms (per call) and median latency ms of *count* calls."""
    latencies = []
    daemon0, mine0 = cpu_seconds(pid), os.times()
    for i in range(count):
        start = time.perf_counter()
        call(i)
        latencies.append(time.perf_counter() - start)
    daemon1, mine1 = cpu_seconds(pid), os.times()
    mine = (mine1.user - mine0.user) + (mine1.system - mine0.system)
    return (
        (daemon1[0] - daemon0[0]) / count * 1e3,
        mine / count * 1e3,
        statistics.median(latencies) * 1e3,
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=4096)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)

    from repro.serve import ServeClient, scenario_mix

    requests = scenario_mix(512, mix="mixed", seed=0)
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--daemon", "--workers", "0",
         "--host", "127.0.0.1", "--port", "0"],
        stdout=subprocess.PIPE, text=True, env={**os.environ, **PINNED},
    )
    try:
        for line in daemon.stdout:
            found = re.search(r"listening on ([\d.]+):(\d+)", line)
            if found:
                break
        with ServeClient(found[1], int(found[2]), timeout=120) as client:
            for request in requests * 2:
                client.submit(request).result()

            def submit(i):
                client.submit(requests[i % len(requests)]).result()

            for _ in range(args.repeat):
                user, mine, p50 = measure(client, daemon.pid, args.requests, submit)
                ping, _, _ = measure(client, daemon.pid, args.requests, lambda i: client.ping())
                print(f"daemon user {user:.3f} ms/request  client cpu {mine:.3f} ms/request  "
                      f"p50 {p50:.3f} ms  (ping: daemon user {ping:.3f} ms)", flush=True)
            client.shutdown_server()
        daemon.wait(timeout=60)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()


if __name__ == "__main__":
    main()
