"""One-process orchestration of simulator, controller and client agents.

The trust boundary between the (possibly adversarial) scripted management
plane and the verification controller is logical: both live in this
process, connected by the ordered in-memory event stream. A run executes
a scenario to its horizon, answers every in-band query in the script, and
writes deterministic artifacts (no timestamps, stable ordering), so two
runs with the same config and seed produce byte-identical output.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from .hspace import Ternary
from .keys import KeyRegistry
from .protocol import DEFAULT_POLL_RATE, DEFAULT_TIMEOUT, Controller, Finding, build_agents, default_magic
from .scenario import Script, parse_scenario, run_scenario
from .sim import Network
from .snapshots import DEFAULT_WINDOW, export_snapshot, snapshot_of
from .topology import Topology, load_topology
from . import wire


@dataclass
class RunConfig:
    topology_path: str
    scenario_path: str
    seed: int = 0
    poll_rate: float = DEFAULT_POLL_RATE
    magic: str | None = None
    window: int = DEFAULT_WINDOW
    timeout: int = DEFAULT_TIMEOUT
    out_dir: str | None = None


@dataclass
class RunResult:
    topo: Topology
    net: Network
    controller: Controller
    agents: dict
    findings: list[Finding] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 2 if self.findings else 0


def load_run_inputs(config: RunConfig) -> tuple[Topology, Script, Ternary]:
    topo = load_topology(Path(config.topology_path).read_text())
    magic = Ternary.parse(config.magic) if config.magic is not None else default_magic(topo.width)
    if magic.width != topo.width:
        raise ValueError(f"magic pattern width {magic.width} != header width {topo.width}")
    script = parse_scenario(Path(config.scenario_path).read_text(), topo)
    return topo, script, magic


def run_session(config: RunConfig) -> RunResult:
    topo, script, magic = load_run_inputs(config)
    registry, client_signing = KeyRegistry.provision(topo, config.seed)
    net = Network(topo)
    controller = Controller(
        topo,
        registry,
        magic,
        seed=config.seed,
        timeout=config.timeout,
        poll_rate=config.poll_rate,
        window=config.window,
    )
    controller.install_magic_rules(net)
    initial_dump = export_snapshot(snapshot_of(net))
    agents = build_agents(topo, registry, client_signing, magic, config.seed)

    run_scenario(script, net, config.seed, controller=controller, agents=agents)
    controller.finish(net)

    result = RunResult(
        topo=topo,
        net=net,
        controller=controller,
        agents=agents,
        findings=sorted(controller.findings, key=lambda f: (f.tick, f.kind, f.detail)),
    )
    if config.out_dir:
        _write_artifacts(result, initial_dump, Path(config.out_dir))
    return result


_FILE_SAFE = re.compile(r"[^A-Za-z0-9._-]")  # a client id's characters that a report file name maps to _


def _write_artifacts(result: RunResult, initial_dump: str, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    width = result.topo.width
    (out / "events.log").write_text(
        "".join(ev.line(width) + "\n" for ev in result.net.events)
    )
    (out / "deliveries.log").write_text(
        "".join(d.line(width) + "\n" for d in result.net.deliveries)
    )
    (out / "snapshot_initial.txt").write_text(initial_dump)
    (out / "snapshot_final.txt").write_text(export_snapshot(result.controller.service.current()))
    (out / "findings.txt").write_text(
        "".join(f.line() + "\n" for f in result.findings)
    )
    reports = out / "reports"
    reports.mkdir(exist_ok=True)
    for i, (tick, client, kind, frame, body) in enumerate(result.controller.reports_sent):
        base = f"{i:03d}_{_FILE_SAFE.sub('_', client)}_{kind}"
        report = wire.parse_frame(frame).report
        text_lines = [body, f"auth_requested={report.requested}", f"auth_received={report.received}"]
        verified = report.param("verified")
        if verified:
            text_lines.append(f"verified={verified}")
        (reports / f"{base}.txt").write_text("\n".join(text_lines) + "\n")
        (reports / f"{base}.bin").write_bytes(frame)
    client_lines = []
    for client in sorted(result.agents):
        for tick, ok, report in result.agents[client].reports:
            status = "ok" if ok else "bad"
            client_lines.append(
                f"t={tick} client={client} kind={report.kind} verified={status} "
                f"requested={report.requested} received={report.received}"
            )
    (out / "client_reports.log").write_text("".join(l + "\n" for l in client_lines))
    (out / "summary.txt").write_text(
        f"findings={len(result.findings)}\nreports={len(result.controller.reports_sent)}\n"
        f"exit={result.exit_code}\n"
    )
