"""The traced benchmark pass wraps library names by attribute: keep them there.

``benchmarks/e2e/spans.py`` replaces each ``SITES`` / ``PROTOCOL_SITES``
target with a timing wrapper, looking it up in its owner's ``__dict__``.  A
renamed or moved target would crash only the traced benchmark pass; these
tests make it fail here.  The module is loaded by path and left as it is.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
import threading
from pathlib import Path

import pytest

from repro.serve import ServeClient, protocol, scenario_mix, start_daemon_thread


@pytest.fixture(scope="module")
def spans():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "spans.py"
    spec = importlib.util.spec_from_file_location("e2e_spans", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets(spans):
    yield from ((module, path) for module, path, _, _ in spans.SITES)
    for sites in spans.PROTOCOL_SITES.values():
        yield from (("repro.serve.protocol", attr) for attr, _, _ in sites)


def test_every_wrapped_site_resolves(spans):
    for module, path in _targets(spans):
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        # ``Recorder.wrap`` reads the owner's own namespace, not inherited names
        assert attr in vars(owner), f"{module}.{path} is gone"
        raw = vars(owner)[attr]
        assert callable(getattr(raw, "__func__", raw)), f"{module}.{path} is not callable"


def test_submit_many_encodes_each_request_once_through_dumps(spans, monkeypatch):
    requests = scenario_mix(5, mix="mttkrp", seed=41)
    recorder = spans.Recorder()
    monkeypatch.setattr(protocol, "dumps", protocol.dumps)  # restored afterwards
    for attr, name, options in spans.PROTOCOL_SITES["client"]:
        if attr == "dumps":
            recorder.wrap(protocol, attr, name, **options)
    with start_daemon_thread(workers=0) as handle:
        with ServeClient(*handle.address, timeout=30) as client:
            for pending in client.submit_many(requests):
                pending.result()
        received = handle.daemon.stats.bytes_received
    client_thread = threading.get_ident()  # the daemon's reply dumps run elsewhere
    encoded = [s for s in recorder.spans if s.tid == client_thread]
    assert len(encoded) == len(requests)
    # what the harness reports as request bytes is what crossed the wire
    assert sum(s.value for s in encoded) == received
