"""The daemon of the traced pass: ``repro``'s own CLI behind ``spans.install``.

``traced_daemon.py SPANS.json serve --daemon ...`` installs the benchmark's
wrappers, hands the remaining arguments to ``repro.__main__.main`` and, once
the daemon has drained, writes the recorded spans to ``SPANS.json``.  End-to-end
numbers never come from this process.
"""

from __future__ import annotations

import json
import sys

import spans


def main(argv):
    from repro.__main__ import main as repro_main

    spans_file, *arguments = argv
    recorder = spans.Recorder()
    spans.install(recorder, "daemon")
    try:
        return repro_main(arguments)
    finally:
        with open(spans_file, "w", encoding="utf-8") as handle:
            json.dump(recorder.dump(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
