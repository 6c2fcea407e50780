"""routecheck benchmark: run one generated workload through ``run_session``.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload query-static --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.
``--trace 0`` repeats untraced sessions for ``--seconds`` and reports the
end-to-end metrics; ``--trace 1`` runs one untraced session and then
traced sessions for ``--seconds`` and reports the per-layer metrics. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
1 when the correctness or determinism gate fails, and 2 when the checkout
holds no ``src/routecheck``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("query-static", "config-churn", "dataplane-flood")
# set-up takes milliseconds, so it is probed many times, spread over the run
SETUP_PROBES_FIRST = 10
SETUP_PROBES_PER_SESSION = 2
MIN_QUERIES = 100  # a run executes at least this many queries
MIN_SESSIONS = 3
# The host shares its cores: the same work runs up to 1.7x slower for
# seconds at a time while a neighbour is busy, and each CPU has its own
# slow spells. Sessions therefore take turns on the CPUs this process may
# use, and every timing is a median over the whole run: the fastest sample
# depends on whether a run happened to catch a quiet moment, the median
# does not.
KINDS = ("isolation", "sources", "geo", "summary")


if not (ROOT / "src" / "routecheck" / "__init__.py").is_file():
    print(f"error: no src/routecheck under {ROOT}; run the benchmark from a routecheck checkout", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
from routecheck import scenario, service, wire  # noqa: E402
from routecheck.protocol import ClientAgent, Controller  # noqa: E402
from routecheck.scenario import parse_scenario  # noqa: E402
from routecheck.service import RunConfig  # noqa: E402
from routecheck.topology import load_topology  # noqa: E402
from spans import Tracer  # noqa: E402


class SetupDone(Exception):
    """Raised at the first tick to end a set-up probe."""


@dataclass
class Probe:
    """The untraced run's only instrumentation: query latency as the client
    sees it, the time spent in run_scenario, and events handed to the
    controller."""

    latencies: list[tuple[str, float]] = field(default_factory=list)  # (kind, s) in report order
    pending: dict[bytes, tuple[str, float]] = field(default_factory=dict)
    events: int = 0
    scenario_enter: float = 0.0
    scenario_s: float = 0.0
    abort_setup: bool = False

    def install(self) -> None:
        make_query, on_delivery, on_events = ClientAgent.make_query, ClientAgent.on_delivery, Controller.on_events
        probe = self

        def timed_make_query(agent, kind, at=None, params=()):
            t0 = time.perf_counter()
            out = make_query(agent, kind, at, params)
            probe.pending[next(reversed(agent.outstanding))] = (kind, t0)
            return out

        def timed_on_delivery(agent, delivery, tick, send_later):
            n = len(agent.reports)
            on_delivery(agent, delivery, tick, send_later)
            if len(agent.reports) > n:
                t1 = time.perf_counter()
                _, ok, report = agent.reports[-1]
                entry = probe.pending.pop(report.nonce, None) if report is not None else None
                if ok and entry is not None:
                    probe.latencies.append((entry[0], t1 - entry[1]))

        def counted_on_events(controller, events, net):
            probe.events += len(events)
            return on_events(controller, events, net)

        def timed_run_scenario(*args, **kwargs):
            probe.scenario_enter = time.perf_counter()
            if probe.abort_setup:
                raise SetupDone()
            try:
                return scenario.run_scenario(*args, **kwargs)
            finally:
                probe.scenario_s += time.perf_counter() - probe.scenario_enter

        ClientAgent.make_query = timed_make_query
        ClientAgent.on_delivery = timed_on_delivery
        Controller.on_events = counted_on_events
        service.run_scenario = timed_run_scenario


@dataclass
class Inputs:
    topo_path: Path
    scn_path: Path
    queries: int
    attacks: list[tuple[str, str, str]]  # (finding kind, two detail fragments that must appear)
    injects: int

    def config(self, seed: int, out: Path) -> RunConfig:
        """The product's default RunConfig for these inputs."""
        return RunConfig(topology_path=str(self.topo_path), scenario_path=str(self.scn_path), seed=seed,
                         out_dir=str(out))


def prepare(workload: str, seed: int, work: Path) -> Inputs:
    topo_text, scn_text = gen.GENERATORS[workload](seed)
    work.mkdir(parents=True, exist_ok=True)
    topo_path, scn_path = work / "net.topo", work / "run.scn"
    topo_path.write_text(topo_text)
    scn_path.write_text(scn_text)
    topo = load_topology(topo_text)
    script = parse_scenario(scn_text, topo)
    attacks = []
    for j in script.joins:
        attacks.append(("isolation", f"client={j.client} foreign=", topo.access_point_at(*j.hidden).alias))
    for d in script.diverts:
        attacks.append(("geo", f"client={d.client} new_regions=", d.via))
    for d in script.directives:
        if d.kind == "suppress":
            attacks.append(("gap", f"sw={d.switch} ", ""))
    for tr in script.transients:
        attacks.append(("transient", f"sw={tr.switch} ", f"rule[{tr.rule}]"))
    return Inputs(
        topo_path=topo_path,
        scn_path=scn_path,
        queries=sum(d.kind == "query" for d in script.directives),
        attacks=attacks,
        injects=sum(d.kind == "inject" for d in script.directives),
    )


def attack_misses(inputs: Inputs, findings) -> int:
    """Planted attacks with no matching finding (join names the hidden alias,
    divert grows geo by its region, suppress opens a gap, transient flaps)."""
    misses = 0
    for kind, prefix, needle in inputs.attacks:
        if not any(f.kind == kind and prefix in f.detail and needle in f.detail for f in findings):
            misses += 1
    return misses


def artifact_digest(out: Path) -> tuple[str, int]:
    """sha256 over every artifact file (path and bytes), and their total size."""
    h = hashlib.sha256()
    size = 0
    for p in sorted(out.rglob("*")):
        if p.is_file():
            data = p.read_bytes()
            size += len(data)
            h.update(str(p.relative_to(out)).encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest(), size


@dataclass
class Session:
    ok: bool
    run_s: float
    setup_s: float
    scenario_s: float
    events: int
    failed: int
    digest: str
    counters: dict[str, int]
    latencies: list[tuple[str, float]] = field(default_factory=list)


def run_one(inputs: Inputs, seed: int, out: Path, probe: Probe) -> Session:
    """One run_session with the product's default RunConfig; never raises."""
    shutil.rmtree(out, ignore_errors=True)
    gc.collect()  # garbage left by the previous session is not this session's cost
    config = inputs.config(seed, out)
    probe.scenario_s = 0.0
    probe.latencies = []
    events_before = probe.events
    t0 = time.perf_counter()
    try:
        result = service.run_session(config)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return Session(False, 0.0, 0.0, 0.0, 0, inputs.queries + len(inputs.attacks), "", {})
    run_s = time.perf_counter() - t0
    verified = sum(ok for agent in result.agents.values() for _, ok, _ in agent.reports)
    failed = max(inputs.queries - verified, 0) + attack_misses(inputs, result.findings)
    digest, size = artifact_digest(out)
    reports = [wire.parse_frame(frame).report for _, _, _, frame, _ in result.controller.reports_sent]
    counters = {
        "sim.events": len(result.net.events),
        "sim.deliveries": len(result.net.deliveries),
        "snapshots.versions": result.controller.service.current().version,
        "protocol.reports": len(reports),
        "protocol.challenges": sum(r.requested for r in reports),
        "protocol.replies_verified": sum(r.received for r in reports),
        "protocol.rejects": len(result.controller.rejects),
        "protocol.findings": len(result.findings),
        "wire.report_bytes": sum(len(frame) for _, _, _, frame, _ in result.controller.reports_sent),
        "service.artifact_bytes": size,
    }
    return Session(True, run_s, probe.scenario_enter - t0, probe.scenario_s, probe.events - events_before,
                   failed, digest, counters, probe.latencies)


def probe_setup(inputs: Inputs, seed: int, out: Path, probe: Probe, n: int) -> list[float]:
    """Time run_session from entry to the first tick, n times."""
    config = inputs.config(seed, out)
    times = []
    probe.abort_setup = True
    try:
        for _ in range(n):
            t0 = time.perf_counter()
            try:
                service.run_session(config)
            except SetupDone:
                times.append(probe.scenario_enter - t0)
    finally:
        probe.abort_setup = False
    return times


class Gate:
    """Collects correctness and determinism failures."""

    def __init__(self):
        self.problems: list[str] = []

    def check(self, cond: bool, msg: str) -> None:
        if not cond:
            self.problems.append(msg)
            print(f"gate: {msg}", file=sys.stderr)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def pin(cpus: set[int]) -> None:
    """Move this process to the given CPUs; where that is refused, stay put."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def run_untraced(workload: str, seed: int, seconds: float, work: Path, gate: Gate) -> tuple[dict, int, int]:
    inputs = prepare(workload, seed, work)
    probe = Probe()
    probe.install()
    out = work / "artifacts"
    sessions: list[Session] = []
    cpus = sorted(os.sched_getaffinity(0))
    t_start = time.perf_counter()
    setups = probe_setup(inputs, seed, out, probe, SETUP_PROBES_FIRST)
    try:
        while True:
            pin({cpus[len(sessions) % len(cpus)]})
            setups += probe_setup(inputs, seed, out, probe, SETUP_PROBES_PER_SESSION)
            s = run_one(inputs, seed, out, probe)
            sessions.append(s)
            if not s.ok:
                break
            queries = sum(len(s.latencies) for s in sessions)
            if time.perf_counter() - t_start >= seconds and queries >= MIN_QUERIES and len(sessions) >= MIN_SESSIONS:
                break
    finally:
        pin(set(cpus))
    attempted = len(sessions) * (inputs.queries + len(inputs.attacks))
    failed = sum(s.failed for s in sessions)
    gate.check(all(s.ok for s in sessions), "a session raised")
    gate.check(failed == 0, f"{failed} of {attempted} operations failed")
    good = [s for s in sessions if s.ok]
    gate.check(len({s.digest for s in good}) <= 1, "artifacts differ between sessions of one seed")
    gate.check(len({json.dumps(s.counters, sort_keys=True) for s in good}) <= 1,
               "deterministic counters differ between sessions of one seed")
    metrics = {}
    if good:
        latencies = [x for s in good for x in s.latencies]
        metrics["setup_s"] = metric(statistics.median(setups + [s.setup_s for s in good]), "s")
        metrics["run_s"] = metric(statistics.median(s.run_s for s in good), "s")
        for kind in KINDS:
            values = [t for k, t in latencies if k == kind]
            if values:
                metrics[f"{kind}_p50_s"] = metric(statistics.median(values), "s")
        if len(latencies) >= 2:
            metrics["query_p90_s"] = metric(statistics.quantiles([t for _, t in latencies], n=10)[-1], "s")
        metrics["events_per_s"] = metric(statistics.median(s.events / s.scenario_s for s in good), "1/s")
        metrics["packets_per_s"] = metric(statistics.median(inputs.injects / s.scenario_s for s in good), "1/s")
    metrics["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics["success_rate"] = metric(1 - failed / attempted, "fraction")
    print(f"# {workload} seed={seed}: {len(sessions)} sessions, {len(setups)} set-up probes, "
          f"{sum(len(s.latencies) for s in sessions)} queries", file=sys.stderr)
    return metrics, attempted, failed


LAYERS = ("hspace", "topology", "verify", "snapshots", "sim", "scenario", "protocol", "keys", "wire", "service")
CALLS_AND_SELF = (
    "hspace.difference", "hspace.intersect", "hspace.compact",
    "topology.lookup", "topology.match_header",
    "verify.reachable_endpoints", "verify.reachable_sources", "verify.isolation_candidates",
    "verify.geo_exposure", "verify.transfer_summary",
    "snapshots.ingest_event", "snapshots.active_poll", "snapshots.poll_all", "snapshots.detect_transients",
    "sim.apply_flow_mod", "sim.inject", "sim.packet_out",
    "protocol.intercept", "protocol.on_events", "protocol.on_tick", "protocol.finish",
    "protocol.agent.make_query", "protocol.agent.on_delivery",
    "keys.seal", "keys.unseal", "keys.sign", "keys.verify",
    "wire.parse_frame",
)
SELF_ONLY = (
    "topology.load_topology", "scenario.parse_scenario", "scenario.expand", "scenario.run_scenario",
    "keys.provision", "service.load_run_inputs", "service.run_session", "snapshots.export_snapshot",
)
TRACE_COUNTS = (
    "hspace.terms_out", "topology.lookup.pieces", "verify.answer_terms", "sim.traces", "scenario.directives",
    "wire.parse_frame.errors",
)
SESSION_COUNTS = (
    "snapshots.versions", "sim.events", "sim.deliveries", "protocol.reports", "protocol.challenges",
    "protocol.replies_verified", "protocol.rejects", "protocol.findings", "wire.report_bytes",
    "service.artifact_bytes",
)


def layer_metrics(tracer: Tracer, session: Session) -> tuple[dict[str, float], dict[str, int], float, float]:
    """(self seconds by metric name, exact counts by metric name, root seconds, self-time sum)."""
    spans, root = tracer.self_times()
    times: dict[str, float] = {}
    counts: dict[str, int] = {}
    for name in CALLS_AND_SELF:
        c, s = spans.get(name, (0, 0.0))
        counts[f"{name}.calls"] = c
        times[f"{name}.self_s"] = s
    for name in SELF_ONLY:
        times[f"{name}.self_s"] = spans.get(name, (0, 0.0))[1]
    for layer in LAYERS:
        times[f"layer.{layer}.self_s"] = sum(s for n, (_, s) in spans.items() if n.startswith(layer + "."))
    counts["hspace.union.calls"] = spans.get("hspace.union", (0, 0.0))[0]
    for key in TRACE_COUNTS:
        counts[key] = tracer.counts[key]
    counts["hspace.peak_terms"] = tracer.peaks["hspace.terms_out"]
    for key in SESSION_COUNTS:
        counts[key] = session.counters[key]
    counts["trace.spans"] = len(tracer.start)
    return times, counts, root, sum(s for _, s in spans.values())


def run_traced(workload: str, seed: int, seconds: float, work: Path, gate: Gate) -> tuple[dict, int, int]:
    inputs = prepare(workload, seed, work)
    probe = Probe()
    probe.install()
    plain = run_one(inputs, seed, work / "untraced", probe)
    gate.check(plain.ok, "the untraced session raised")
    per_session = inputs.queries + len(inputs.attacks)
    attempted, failed = per_session, plain.failed
    runs: list[tuple[Session, dict, dict]] = []
    last_tracer = None
    t_start = time.perf_counter()
    while plain.ok:
        tracer = Tracer()
        tracer.install()
        try:
            s = run_one(inputs, seed, work / "traced", probe)
        finally:
            tracer.uninstall()
        attempted += per_session
        failed += s.failed
        if not s.ok:
            gate.check(False, "a traced session raised")
            break
        times, counts, root, self_sum = layer_metrics(tracer, s)
        gate.check(abs(self_sum - root) <= 1e-6 * max(root, 1e-3),
                   f"layer self times add up to {self_sum!r} s, root span is {root!r} s")
        gate.check(s.digest == plain.digest, "traced and untraced sessions wrote different artifacts")
        if runs:
            gate.check(counts == runs[0][2], "deterministic counters differ between traced sessions")
        runs.append((s, times, counts))
        last_tracer = tracer
        if time.perf_counter() - t_start >= seconds:
            break
    gate.check(failed == 0, f"{failed} of {attempted} operations failed")
    metrics: dict[str, dict] = {}
    if runs:
        for key in runs[0][1]:
            metrics[key] = metric(statistics.median(r[1][key] for r in runs), "s")
        for key, value in runs[0][2].items():
            metrics[key] = metric(value, "count" if not key.endswith("bytes") else "bytes")
        metrics["trace.overhead_s"] = metric(statistics.median(r[0].run_s for r in runs) - plain.run_s, "s")
        last_tracer.write(work / "spans.tsv")
    metrics["error_rate"] = metric(failed / attempted, "fraction")
    print(f"# {workload} seed={seed}: 1 untraced + {len(runs)} traced sessions", file=sys.stderr)
    return metrics, attempted, failed


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    work = WORK / f"{workload}-{'traced' if trace else 'plain'}"
    shutil.rmtree(work, ignore_errors=True)
    gate = Gate()
    fn = run_traced if trace else run_untraced
    metrics, attempted, failed = fn(workload, seed, seconds, work, gate)
    for d in work.iterdir():
        if d.is_dir():
            shutil.rmtree(d)
    for name, m in sorted(metrics.items()):
        print(f"{workload} {name} = {m['value']!r} {m['unit']}")
    result = {"correct": not gate.problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if not gate.problems else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in its own process; one summary line at the end."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        code = code or proc.returncode or (0 if result["correct"] else 1)
        merged["correct"] &= result["correct"] and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
