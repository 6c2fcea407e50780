"""The benchmark's span tracer (``bench/spans.py``) wraps program functions
and methods by name. A rename or deletion in ``src/`` makes its ``install``
fail, so the traced benchmark runs stop working; this test catches that
without running the benchmark. The tracer file is only imported, never
changed."""

import importlib.util
import sys
from pathlib import Path

from conftest import fixture_path
from routecheck import verify
from routecheck.service import load_run_inputs  # noqa: F401  (loads every wrapped module)
from routecheck.sim import Network
from routecheck.snapshots import snapshot_of
from routecheck.topology import load_topology

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("routecheck_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_tracer_wraps_every_target_and_restores_them():
    spans = load_spans()
    originals = {name: getattr(verify, name) for name in ("answer", "reachable_sources", "reachable_endpoints")}
    topo = load_topology(Path(fixture_path("benign.topo")).read_text())
    snap = snapshot_of(Network(topo))
    tracer = spans.Tracer()
    tracer.install()
    try:
        verify.answer(topo, snap, "sources", topo.client_aps("alice")[0])
    finally:
        tracer.uninstall()
    calls = {name: calls for name, (calls, _) in tracer.self_times()[0].items()}
    assert calls["verify.reachable_sources"] == 1
    assert calls["verify.reachable_endpoints"] == len(topo.access_points) - 1
    assert calls["topology.lookup"] > 0
    assert {name: getattr(verify, name) for name in originals} == originals
