"""End-to-end benchmark: four workloads, five gated metrics, layer attribution.

    python3 benchmarks/e2e/run.py                      # all workloads, both passes
    python3 benchmarks/e2e/run.py --workload cp_als --trace 0
    python3 benchmarks/e2e/run.py --repeat 3 --trace 0 --out A.json

Every workload runs in fresh child processes (``runner.py``) under a pinned
environment; this process only spawns them, takes medians and prints.  With one
``--workload`` and an explicit ``--trace`` the last line of standard output is
the result object ``{"correct", "attempted", "failed", "metrics"}``.

See README.md in this directory for the metric glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import metrics
from spans import median
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
#: Three fresh-process cold starts per run; the runner itself is one of them.
COLD_PROBES = 3
CHILD_TIMEOUT_S = 170


def child_env(environ):
    """The children's environment, and the ``REPRO_*`` names removed from it."""
    scrubbed = sorted(name for name in environ if name.startswith("REPRO_"))
    env = {k: v for k, v in environ.items() if not k.startswith("REPRO_")}
    env.update(PINNED)
    path = [str(ROOT / "src"), str(HERE)]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env, scrubbed


def stamp(args, scrubbed):
    """What every result file records about where its numbers come from."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {
        "commit": commit or "unknown (not a git checkout)",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "pinned_env": PINNED,
        "scrubbed_env": scrubbed,
        "seed": args.seed,
        "seconds": args.seconds,
        "op_counts": {n: w.count(args.seconds) for n, w in WORKLOADS.items()},
        "traced_op_counts": {
            n: w.traced_count(args.seconds) for n, w in WORKLOADS.items()
        },
        "cold_probes": COLD_PROBES,
    }


def child(env, workload, mode, args, inputs, extra=()):
    """Run ``runner.py`` once; its last stdout line is its result."""
    command = [
        sys.executable, str(HERE / "runner.py"),
        "--workload", workload, "--mode", mode,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--inputs", str(inputs), "--t0", repr(time.perf_counter()), *extra,
    ]
    # its own process group, so that a stuck runner takes its daemon with it
    process = subprocess.Popen(
        command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise
    if process.returncode != 0:
        raise RuntimeError(f"{workload}/{mode} exited with {process.returncode}")
    return json.loads(stdout.splitlines()[-1]) if mode != "generate" else {}


def run_workload(name, trace, args, env):
    """One workload, one pass: ``(metrics, attempted, failed, extra)``."""
    # inside the checkout: the driver's contract allows no write outside it
    inputs = Path(tempfile.mkdtemp(prefix=f".work-{name}-", dir=HERE))
    try:
        child(env, name, "generate", args, inputs)
        if trace:
            extra = ()
            if args.trace_out:
                Path(args.trace_out).mkdir(parents=True, exist_ok=True)
                extra = ("--trace-out", str(Path(args.trace_out) / f"{name}.trace.json"))
            result = child(env, name, "traced", args, inputs, extra)
            attempted, failed = result["attempted"], result["failed"]
            values = result["per_layer"]
            extra_info = {"traced_ops": result["traced_ops"]}
        else:
            runs = [
                child(env, name, "probe", args, inputs) for _ in range(COLD_PROBES - 1)
            ]
            result = child(env, name, "timed", args, inputs)
            runs.append(result)
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            setups = [r["setup_s"] for r in runs]
            timed = (result["latencies"], result["block_walls_s"], result["yardstick_s"])
            values = metrics.end_to_end(
                *timed, WORKLOADS[name].block, median(setups),
                result["peak_rss_mb"], attempted, failed,
            )
            extra_info = {
                "raw": metrics.raw_times(*timed),
                "setup_samples_s": setups,
                "timed_section_checks": result["checks"],
            }
        extra_info["stamp"] = result["stamp"]
        return values, attempted, failed, extra_info
    finally:
        shutil.rmtree(inputs, ignore_errors=True)


def dry_values(trace):
    """The metric names a real run emits, with placeholder values."""
    if trace:
        return metrics.per_layer()
    return metrics.end_to_end([1.0], [1.0], [1.0, 1.0], 1, 1.0, 1.0, 1, 0)


def result_object(values, trace, attempted, failed):
    """The driver's result: exactly the metrics ``BENCHMARK.json`` names."""
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in named
        },
    }


def show(name, result, extra):
    for metric, entry in result["metrics"].items():
        print(f"{name:<12s} {metric:<32s} {entry['value']:>16.6f} {entry['unit']}")
    for section in ("raw", "timed_section_checks"):
        for key, value in extra.get(section, {}).items():
            print(f"{name:<12s} {section + '.' + key:<32s} {value:>16.6f}")
    print(f"{name:<12s} attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}", flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="scales the fixed operation counts (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: timed pass, 1: traced pass (default: both)")
    parser.add_argument("--trace-out", default=None,
                        help="directory for <workload>.trace.json (Chrome trace)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run everything N times (a run set for compare.py)")
    parser.add_argument("--out", default=None, help="write stamp and runs as JSON")
    parser.add_argument("--dry-run", action="store_true",
                        help="emit every metric name without launching a workload")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"{ROOT / 'src' / 'repro'} not found: nothing to benchmark")
    names = [args.workload] if args.workload else list(WORKLOADS)
    passes = [args.trace] if args.trace is not None else [0, 1]
    env, scrubbed = child_env(os.environ)
    document = {"stamp": stamp(args, scrubbed), "runs": []}
    print(json.dumps(document["stamp"]), flush=True)

    last = None
    for _ in range(args.repeat):
        run = {}
        for name in names:
            for trace in passes:
                if args.dry_run:
                    values, attempted, failed, extra = dry_values(trace), 1, 0, {}
                else:
                    values, attempted, failed, extra = run_workload(
                        name, trace, args, env
                    )
                last = result_object(values, trace, attempted, failed)
                show(name, last, extra)
                section = "per_layer" if trace else "end_to_end"
                run.setdefault(name, {})[section] = {
                    **extra,
                    "attempted": attempted,
                    "failed": failed,
                    "metrics": {k: v["value"] for k, v in last["metrics"].items()},
                }
        document["runs"].append(run)
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1))
    if len(names) == 1 and len(passes) == 1:
        # the driver's protocol: the result object is the last line, and a run
        # that produced one exits 0 whatever ``correct`` says
        print(json.dumps(last))
        return 0
    failures = sum(
        section["failed"] for run in document["runs"]
        for sections in run.values() for section in sections.values()
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
