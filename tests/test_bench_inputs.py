"""Every benchmark workload, run once at seed 1 as the benchmark runs it,
answers all its queries with verified reports and finds every attack it
plants (config-churn plants all four kinds). A lost finding then fails
here, not only in a benchmark run. ``bench/run.py`` is only imported,
never changed."""

import importlib.util
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


@pytest.fixture(scope="module")
def bench_run():
    spec = importlib.util.spec_from_file_location("routecheck_bench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    path = list(sys.path)
    sys.modules[spec.name] = module  # dataclasses resolve the module by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
        sys.path[:] = path  # the module puts bench/ and src/ first
    return module


@pytest.mark.parametrize("workload", ["query-static", "config-churn", "dataplane-flood"])
def test_workload_session_has_no_failed_operation(bench_run, tmp_path, workload):
    assert workload in bench_run.WORKLOADS
    inputs = bench_run.prepare(workload, 1, tmp_path / "inputs")
    session = bench_run.run_one(inputs, 1, tmp_path / "artifacts", bench_run.Probe())
    assert session.ok
    assert inputs.queries > 0
    assert session.failed == 0
