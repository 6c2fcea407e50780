"""Command-line surface.

Subcommands: run, query, oracle, scenario check. Exit
codes: 0 clean, 1 config/usage errors, 2 security findings (run) or
oracle mismatches, 141 (128 + SIGPIPE, the status a shell gives a
process killed by a closed pipe) when the reader of stdout went away, as
in ``routecheck query ... | head -1``; that exit prints nothing to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .oracle import MUTATIONS, run_cases
from .protocol import DEFAULT_POLL_RATE, DEFAULT_TIMEOUT
from .scenario import ScenarioError, parse_scenario
from .service import RunConfig, run_session
from .snapshots import DEFAULT_WINDOW, parse_snapshot_dump
from .topology import TopologyError, load_topology
from . import verify, wire


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="routecheck", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario with the verification controller attached")
    p_run.add_argument("--topology", required=True, help="topology document path")
    p_run.add_argument("--scenario", required=True, help="scenario script path")
    p_run.add_argument("--seed", type=int, default=0, help="run seed")
    p_run.add_argument("--magic", default=None, help="magic ternary pattern for protocol traffic")
    p_run.add_argument("--poll-rate", type=float, default=DEFAULT_POLL_RATE, help="active poll rate per tick")
    p_run.add_argument("--timeout", type=int, default=DEFAULT_TIMEOUT, help="auth reply timeout in ticks")
    p_run.add_argument("--window", type=int, default=DEFAULT_WINDOW, help="transient detection window in ticks")
    p_run.add_argument("--out", default=None, help="artifact output directory")

    p_query = sub.add_parser("query", help="answer a client query from a snapshot dump "
                             "(run --out writes the final one as snapshot_final.txt)")
    p_query.add_argument("--topology", required=True)
    p_query.add_argument("--snapshot", required=True, help="snapshot dump path")
    p_query.add_argument("--kind", required=True, choices=wire.KIND_CODES)
    p_query.add_argument("--client", required=True)
    p_query.add_argument("--at", default=None, metavar="SWITCH:PORT",
                         help="the client's access point to answer at (default: its first)")

    p_oracle = sub.add_parser("oracle", help="engine-vs-simulation equivalence over random networks")
    p_oracle.add_argument("--count", type=int, default=20)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--width", type=int, default=8)
    p_oracle.add_argument("--switches", type=int, default=6)
    p_oracle.add_argument("--rules", type=int, default=12)
    p_oracle.add_argument("--mutate", default=None, choices=list(MUTATIONS),
                          help="inject a deliberate analysis bug (the harness must then fail)")

    p_scn = sub.add_parser("scenario", help="scenario tooling")
    p_scn.add_argument("action", choices=["check"])
    p_scn.add_argument("--topology", required=True)
    p_scn.add_argument("--scenario", required=True)

    return parser


def cmd_run(args) -> int:
    config = RunConfig(
        topology_path=args.topology,
        scenario_path=args.scenario,
        seed=args.seed,
        poll_rate=args.poll_rate,
        magic=args.magic,
        window=args.window,
        timeout=args.timeout,
        out_dir=args.out,
    )
    result = run_session(config)
    for f in result.findings:
        print(f.line())
    print(f"findings={len(result.findings)} reports={len(result.controller.reports_sent)} exit={result.exit_code}")
    return result.exit_code


def cmd_query(args) -> int:
    topo = load_topology(Path(args.topology).read_text())
    snap = parse_snapshot_dump(Path(args.snapshot).read_text(), topo)
    point = topo.client_aps(args.client)[0]
    if args.at is not None:
        point = topo.access_point_of(args.client, args.at)
    print(verify.answer(topo, snap, args.kind, point).body)
    return 0


def cmd_oracle(args) -> int:
    cases = run_cases(
        count=args.count,
        seed=args.seed,
        width=args.width,
        max_switches=args.switches,
        max_rules=args.rules,
        mutation=args.mutate,
    )
    failed = 0
    for case in cases:
        verdict = "OK" if case.ok else "MISMATCH"
        print(f"case {case.index:03d} seed={case.seed} {verdict}")
        for m in case.mismatches:
            print(f"  {m}")
        failed += 0 if case.ok else 1
    print(f"cases={len(cases)} failed={failed}")
    return 0 if failed == 0 else 2


def cmd_scenario(args) -> int:
    topo = load_topology(Path(args.topology).read_text())
    parse_scenario(Path(args.scenario).read_text(), topo)
    print("scenario ok")
    return 0


COMMANDS = {
    "run": cmd_run,
    "query": cmd_query,
    "oracle": cmd_oracle,
    "scenario": cmd_scenario,
}
EXIT_BROKEN_PIPE = 141


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader is gone: send what is still buffered to the null device
        # so the flush at exit stays quiet too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (TopologyError, ScenarioError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
