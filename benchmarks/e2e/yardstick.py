"""A fixed piece of work, timed beside the operations: how fast is the host now.

The reference box is a 2-vCPU guest whose host speeds up and slows down by
tens of percent over minutes, so a wall time taken in one run cannot be
compared with one taken ten minutes later.  The timed section therefore reads
this yardstick before and after every block of operations and the gated time
metrics are operation time as a multiple of the yardstick time beside it: both
slow down together, their ratio repeats.  Raw milliseconds are still reported,
as per-layer metrics.

The work is benchmark-owned and never changes with the repository.  Three
parts, one for each thing the host slows down separately:

- a loop of interpreter bytecode (the daemon path is mostly that);
- NumPy gather, scale and segment sum on 60k x 32 without allocation (the
  engine's lowered tier is mostly that; fresh allocations are avoided on
  purpose, the cost of a first touch of a page on this guest varies tenfold);
- round trips of one line through a pipe to a child process that echoes it.
  What waking an idle vCPU costs is the host's decision, and a ``serve_small``
  operation is a chain of wake-ups (two processes, two threads, 3 ms).  Its
  yardstick makes 2400 round trips per reading, half of the reading's time:
  on a 40-minute recording across fast and slow stretches of the host
  (operation 2.7-4.9 ms), cut into run-sized windows, the ratio's quartile
  spread over all windows was 7.0% with 200 round trips and 4.1% with 2400,
  and its median over ten windows drifted by 16% and 4%.  The other workloads
  spend no measurable time on wake-ups and ask for none: with 200 of them
  the ten-seed spread of ``cp_als`` was 4.7%, without 1.2%.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

ROWS, NNZ, RANK = 300, 60_000, 32
PY_STEPS = 600_000
NP_PASSES = 3
ECHO = (
    "import sys\n"
    "for line in sys.stdin.buffer:\n"
    "    sys.stdout.buffer.write(line)\n"
    "    sys.stdout.buffer.flush()\n"
)


class Yardstick:
    """``yardstick()`` does the fixed work once and returns its wall time in s.

    *round_trips* is the number of lines echoed per reading; 0 starts no child.
    """

    def __init__(self, round_trips):
        self.round_trips = round_trips
        rng = np.random.default_rng(0)
        self.index = np.sort(rng.integers(0, ROWS, NNZ))
        self.bounds = np.flatnonzero(np.r_[1, np.diff(self.index)])
        self.dense = rng.random((ROWS, RANK))
        self.scale = rng.random((NNZ, 1))
        self.gathered = np.empty((NNZ, RANK))
        self.summed = np.empty((len(self.bounds), RANK))
        self.echo = None
        if round_trips:
            self.echo = subprocess.Popen(
                [sys.executable, "-S", "-c", ECHO],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            )
        self()  # touch every buffer once; the child has started when it returns

    def close(self):
        """Stop the echo child and wait for it."""
        if self.echo is not None:
            self.echo.stdin.close()
            self.echo.wait()
            self.echo.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __call__(self):
        start = time.perf_counter()
        total, table = 0, {}
        for i in range(PY_STEPS):
            total += i * i
            table[i & 255] = total
        for _ in range(NP_PASSES):
            np.take(self.dense, self.index, axis=0, out=self.gathered)
            np.multiply(self.gathered, self.scale, out=self.gathered)
            np.add.reduceat(self.gathered, self.bounds, axis=0, out=self.summed)
        line = b"x" * 255 + b"\n"
        for _ in range(self.round_trips):
            self.echo.stdin.write(line)
            self.echo.stdin.flush()
            if self.echo.stdout.readline() != line:
                raise RuntimeError("the yardstick's echo child stopped")
        return time.perf_counter() - start
