"""CLI integration: exit codes, artifacts, determinism, offline queries."""

import hashlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import fixture_path
from routecheck import wire
from routecheck.cli import build_parser, main
from routecheck.oracle import MUTATIONS
from routecheck.service import RunConfig, run_session


def assert_same_tree(a, b):
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a and files_a == files_b
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def tree_digest(root):
    """sha256 over every file of an artifact tree: relative path, then content hash."""
    h = hashlib.sha256()
    for rel in sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()):
        h.update(rel.encode() + b"\0")
        h.update(hashlib.sha256((root / rel).read_bytes()).digest())
    return h.hexdigest()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_benign_run_exits_clean(tmp_path, capsys):
    code, out, err = run_cli(
        capsys,
        "run",
        "--topology", fixture_path("benign.topo"),
        "--scenario", fixture_path("benign.scn"),
        "--seed", "3",
        "--out", str(tmp_path / "art"),
    )
    assert code == 0, err
    assert "findings=0" in out
    reports = sorted(p.name for p in (tmp_path / "art" / "reports").glob("*.txt"))
    assert len(reports) == 4
    iso_name = [n for n in reports if n.endswith("isolation.txt")][0]
    iso = (tmp_path / "art" / "reports" / iso_name).read_text()
    assert "foreign=-" in iso


def test_joinattack_run_flags_hidden_endpoint(tmp_path, capsys):
    code, out, err = run_cli(
        capsys,
        "run",
        "--topology", fixture_path("joinattack.topo"),
        "--scenario", fixture_path("joinattack.scn"),
        "--seed", "3",
        "--out", str(tmp_path / "art"),
    )
    assert code == 2
    assert "kind=isolation" in out and "mallory:ap1" in out
    findings = (tmp_path / "art" / "findings.txt").read_text()
    assert "foreign=mallory:ap1" in findings


def test_geodivert_run_flags_new_region(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "run",
        "--topology", fixture_path("geodivert.topo"),
        "--scenario", fixture_path("geodivert.scn"),
        "--out", str(tmp_path / "art"),
    )
    assert code == 2
    assert "kind=geo" in out and "new_regions=offshore" in out


def test_gap_run_flags_missing_event(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "run",
        "--topology", fixture_path("benign.topo"),
        "--scenario", fixture_path("gap.scn"),
        "--out", str(tmp_path / "art"),
    )
    assert code == 2
    assert "kind=gap" in out


def test_a_sequence_gap_makes_the_controller_reread_the_switch(tmp_path, capsys):
    """The event that reveals a gap comes with a poll of its switch, so the
    withheld change is in the view before the next query is answered; the
    poll rate is pinned so low that no random poll finds it first."""
    setup = [l for l in Path(fixture_path("joinattack.scn")).read_text().splitlines() if l.startswith("@0 ")]
    scenario = tmp_path / "gap_then_query.scn"
    scenario.write_text("\n".join(setup + [
        "@10 attack suppress sw=swD count=1",
        "@12 attack join client=alice hidden=swD:2 match=01xxxxxxxxxxxxxx prio=90",
        "@14 flowmod add swD prio=5 match=0011xxxxxxxxxxxx action=drop",
        "@16 query client=alice kind=isolation",
        "horizon 40",
    ]) + "\n")
    out_dir = tmp_path / "art"
    code, _, _ = run_cli(
        capsys,
        "run",
        "--topology", fixture_path("joinattack.topo"),
        "--scenario", str(scenario),
        "--poll-rate", "0.001",
        "--seed", "3",
        "--out", str(out_dir),
    )
    assert code == 2
    findings = (out_dir / "findings.txt").read_text().splitlines()
    assert [f for f in findings if f.startswith("t=14 kind=gap sw=swD ")]
    assert [f for f in findings if f.startswith("t=14 kind=transient poll_disagreement sw=swD status=appeared ")]
    assert "t=16 kind=isolation client=alice foreign=mallory:ap1" in findings
    (report,) = (out_dir / "reports").glob("*_alice_isolation.txt")
    assert "foreign=mallory:ap1" in report.read_text().splitlines()


def test_transient_run_flags_flapping_rule(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "run",
        "--topology", fixture_path("benign.topo"),
        "--scenario", fixture_path("transient.scn"),
        "--out", str(tmp_path / "art"),
    )
    assert code == 2
    assert "kind=transient" in out


def test_flap_followed_by_many_versions_is_still_reported(tmp_path, capsys):
    """A rule flaps at ticks 5-8, then 300 benign flowmods make 300 more
    snapshot versions; the flap is still reported."""
    flap = "prio=50 match=10xxxxxxxxxxxxxx action=fwd:3"
    lines = [f"@{t} flowmod {op} swB {flap}" for t, op in zip(range(5, 9), ("add", "remove") * 2)]
    lines += [f"@{10 + i // 10} flowmod add swC prio=1 match={i:016b} action=drop" for i in range(300)]
    scn = tmp_path / "flap.scn"
    scn.write_text("\n".join(lines) + "\nhorizon 50\n")
    code, out, err = run_cli(capsys, "run", "--topology", fixture_path("joinattack.topo"), "--scenario", str(scn))
    assert code == 2, err
    assert f"sw=swB status=flapping first_seen=5 last_seen=7 polls=0 rule[{flap}]" in out
    assert "findings=1 " in out


def test_poll_that_only_reorders_a_table_is_a_finding(tmp_path, capsys):
    """swA's two equal-priority rules change places behind the controller's
    back (both events suppressed), so alice:ap1's 0... traffic is now
    dropped; the next poll reports both rules as reordered."""
    scn = tmp_path / "reorder.scn"
    scn.write_text(
        "@0 flowmod add swA prio=10 match=0xxxxxxxxxxxxxxx action=fwd:1\n"
        "@0 flowmod add swA prio=10 match=xxxxxxxxxxxxxxxx action=drop\n"
        "@0 flowmod add swB prio=10 match=0xxxxxxxxxxxxxxx action=fwd:2\n"
        "@3 attack suppress sw=swA count=2\n"
        "@4 flowmod remove swA prio=10 match=0xxxxxxxxxxxxxxx action=fwd:1\n"
        "@4 flowmod add swA prio=10 match=0xxxxxxxxxxxxxxx action=fwd:1\n"
        "@8 query client=alice kind=summary at=swB:2\n"
        "horizon 12\n"
    )
    code, out, err = run_cli(
        capsys, "run", "--topology", fixture_path("benign.topo"), "--scenario", str(scn), "--poll-rate", "1"
    )
    assert code == 2, err
    assert out.splitlines() == [
        "t=4 kind=transient poll_disagreement sw=swA status=reordered rule[prio=10 match=0xxxxxxxxxxxxxxx action=fwd:1]",
        "t=4 kind=transient poll_disagreement sw=swA status=reordered rule[prio=10 match=xxxxxxxxxxxxxxxx action=drop]",
        "findings=2 reports=1 exit=2",
    ]


def test_oversized_report_becomes_a_signed_error_report(tmp_path, capsys):
    """40 access points on one switch make a summary body far larger than a
    report field holds; the run sends a signed error report and goes on."""
    n = 40
    topo = tmp_path / "wide.topo"
    topo.write_text(f"headerwidth 16\nswitch sw ports {n}\n" + "".join(f"access sw:{p} client alice\n" for p in range(1, n + 1)))
    scn = tmp_path / "wide.scn"
    scn.write_text(
        "".join(f"@0 flowmod add sw prio=10 match=xxxxxxxxxx{p:06b} action=fwd:{p}\n" for p in range(1, n + 1))
        + "@5 query client=alice kind=summary\n@6 query client=alice kind=geo\nhorizon 20\n"
    )
    art = tmp_path / "art"
    code, out, err = run_cli(capsys, "run", "--topology", str(topo), "--scenario", str(scn), "--out", str(art))
    assert code == 0, err
    assert "findings=0 reports=2 exit=0" in out
    report = wire.parse_frame((art / "reports" / "000_alice_summary.bin").read_bytes()).report
    lines = report.param("body").split("\n")
    assert lines[:2] == ["kind=summary", "client=alice"] and len(lines) == 3
    size = int(lines[2].split(" bytes")[0].rsplit(" ", 1)[1])
    assert lines[2].startswith("error=") and size > 65535 and "65535" in lines[2]
    assert (art / "reports" / "000_alice_summary.txt").read_text().startswith(report.param("body") + "\n")
    assert (art / "client_reports.log").read_text().splitlines() == [
        "t=5 client=alice kind=summary verified=ok requested=0 received=0",
        "t=6 client=alice kind=geo verified=ok requested=0 received=0",
    ]


@pytest.mark.parametrize(
    ("timeout", "tick"), [("8", 12), ("16", 16), ("1000000000", 16)]
)
def test_isolation_session_open_at_the_horizon_is_reported(tmp_path, capsys, timeout, tick):
    """The horizon is tick 16; a deadline past it still ends in a signed
    report, sent at the horizon with the replies received by then."""
    flowmods = Path(fixture_path("benign.scn")).read_text().splitlines()[2:6]
    scn = tmp_path / "late.scn"
    scn.write_text("\n".join(flowmods + ["@4 query client=alice kind=isolation"]) + "\n")
    art = tmp_path / "art"
    code, out, err = run_cli(
        capsys, "run", "--topology", fixture_path("benign.topo"), "--scenario", str(scn),
        "--timeout", timeout, "--out", str(art),
    )
    assert code == 0, err
    assert "findings=0 reports=1 exit=0" in out
    assert (art / "client_reports.log").read_text().splitlines() == [
        f"t={tick} client=alice kind=isolation verified=ok requested=2 received=2"
    ]


@pytest.mark.parametrize("window", ["0", "-5"])
def test_non_positive_window_exits_one(capsys, window):
    code, out, err = run_cli(
        capsys, "run", "--topology", fixture_path("benign.topo"),
        "--scenario", fixture_path("transient.scn"), "--window", window,
    )
    assert code == 1 and out == ""
    assert err == f"error: transient window must be positive, got {window}\n"


@pytest.mark.parametrize("timeout", ["0", "-3"])
def test_non_positive_timeout_exits_one(tmp_path, capsys, timeout):
    flowmods = Path(fixture_path("benign.scn")).read_text().splitlines()[2:6]
    scn = tmp_path / "query.scn"
    scn.write_text("\n".join(flowmods + ["@4 query client=alice kind=isolation"]) + "\n")
    code, out, err = run_cli(
        capsys, "run", "--topology", fixture_path("benign.topo"), "--scenario", str(scn),
        "--timeout", timeout, "--out", str(tmp_path / "art"),
    )
    assert code == 1 and out == ""
    assert err == f"error: reply timeout must be positive, got {timeout}\n"


def test_nan_poll_rate_exits_one(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "run", "--topology", fixture_path("benign.topo"),
        "--scenario", fixture_path("benign.scn"), "--poll-rate", "nan", "--out", str(tmp_path / "out"),
    )
    assert code == 1 and out == ""
    assert err == "error: poll rate must be positive, got nan\n"


def test_poll_rate_too_small_to_draw_gaps_exits_one(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "run", "--topology", fixture_path("benign.topo"),
        "--scenario", fixture_path("benign.scn"), "--poll-rate", "1e-17", "--out", str(tmp_path / "out"),
    )
    assert code == 1 and out == ""
    assert err == "error: poll rate 1e-17 is too small: 1 - rate rounds to 1\n"


def test_empty_magic_pattern_exits_one(tmp_path, capsys):
    """An empty pattern is refused, not replaced by the default one."""
    code, out, err = run_cli(
        capsys, "run", "--topology", fixture_path("benign.topo"),
        "--scenario", fixture_path("benign.scn"), "--magic", "", "--out", str(tmp_path / "out"),
    )
    assert code == 1 and out == ""
    assert err == "error: header width must be positive, got 0\n"


def test_malformed_topology_exits_one(capsys):
    code, _, err = run_cli(
        capsys,
        "run",
        "--topology", fixture_path("bad.topo"),
        "--scenario", fixture_path("benign.scn"),
    )
    assert code == 1
    assert "error:" in err


def test_scenario_check(capsys):
    code, out, _ = run_cli(
        capsys,
        "scenario", "check",
        "--topology", fixture_path("benign.topo"),
        "--scenario", fixture_path("benign.scn"),
    )
    assert code == 0 and "scenario ok" in out
    code, _, err = run_cli(
        capsys,
        "scenario", "check",
        "--topology", fixture_path("geodivert.topo"),
        "--scenario", fixture_path("joinattack.scn"),
    )
    assert code == 1  # references switches the topology lacks


def test_run_determinism_byte_identical_artifacts(tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code, _, _ = run_cli(
            capsys,
            "run",
            "--topology", fixture_path("joinattack.topo"),
            "--scenario", fixture_path("joinattack.scn"),
            "--seed", "11",
            "--out", str(out),
        )
        assert code == 2
        outs.append(out)
    assert_same_tree(*outs)


def test_run_artifacts_independent_of_hash_seed(tmp_path):
    """Two processes with different string-hash seeds write the same bytes."""
    src = Path(__file__).resolve().parents[1] / "src"
    outs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"hashseed{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
        proc = subprocess.run(
            [
                sys.executable, "-m", "routecheck.cli",
                "run",
                "--topology", fixture_path("joinattack.topo"),
                "--scenario", fixture_path("joinattack.scn"),
                "--seed", "11",
                "--out", str(out),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        outs.append(out)
    assert_same_tree(*outs)


# Artifact trees of `routecheck run --seed 7` on the five fixture runs. Any
# change to these bytes is a behaviour change and must be deliberate.
GOLDEN_DIGESTS = {
    ("benign.topo", "benign.scn"):
        "d12d8ffa7ca0d129b2528049b29f90d8bd16dea0fca559c493199de71a6acd18",
    ("joinattack.topo", "joinattack.scn"):
        "0318598dae8e905b8e9a35d28bc7b98a4601f0e6a9debf63a52082c0d53e4791",
    ("geodivert.topo", "geodivert.scn"):
        "6690bb925cd8f6f1891cb00308122b441a031e3a687b77dab5864e352ed04dcb",
    ("benign.topo", "gap.scn"):
        "6ea2e2e9d816c2b535708383c909d49501b4037b5c02fa80996a597b0a1102b3",
    ("benign.topo", "transient.scn"):
        "3b65e3a455381d5e04b21c8a5d5e7ba0dec2745e31b95e3d9377ef3fad0b786a",
}


@pytest.mark.parametrize(("topology", "scenario"), list(GOLDEN_DIGESTS))
def test_run_artifacts_match_golden_digests(tmp_path, capsys, topology, scenario):
    out = tmp_path / "art"
    code, _, err = run_cli(
        capsys,
        "run",
        "--topology", fixture_path(topology),
        "--scenario", fixture_path(scenario),
        "--seed", "7",
        "--out", str(out),
    )
    assert code in (0, 2), err
    assert tree_digest(out) == GOLDEN_DIGESTS[(topology, scenario)]


@pytest.mark.parametrize(
    ("topology", "scenario", "kind"),
    [("benign.topo", "benign.scn", kind) for kind in wire.KIND_CODES] + [("joinattack.topo", "joinattack.scn", "isolation")],
)
def test_snapshot_dump_and_query_match_inband_body(tmp_path, capsys, topology, scenario, kind):
    """The last in-band report of a kind equals ``routecheck query`` on the
    final snapshot that ``run --out`` dumps. benign.scn's tables stop changing
    at tick 0; joinattack.scn's second isolation query runs on the post-attack
    snapshot, the final one."""
    art = tmp_path / "art"
    config = RunConfig(
        topology_path=fixture_path(topology),
        scenario_path=fixture_path(scenario),
        seed=4,
        out_dir=str(art),
    )
    result = run_session(config)
    frames = [f for (_, _, k, f, _) in result.controller.reports_sent if k == kind]
    inband_body = wire.parse_frame(frames[-1]).report.param("body")

    code, out, _ = run_cli(
        capsys,
        "query",
        "--topology", fixture_path(topology),
        "--snapshot", str(art / "snapshot_final.txt"),
        "--kind", kind,
        "--client", "alice",
    )
    assert code == 0
    assert out.rstrip("\n") == inband_body


def test_query_into_a_closed_pipe_exits_quietly(tmp_path):
    """A reader that went away (``routecheck query ... | head -1``) is not a
    configuration error: nothing on stderr, and exit 128 + SIGPIPE."""
    dump = tmp_path / "dump.txt"
    dump.write_text("version=1 tick=0\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child writes a byte
    try:
        proc = subprocess.run(
            [
                sys.executable, "-m", "routecheck.cli",
                "query",
                "--topology", fixture_path("benign.topo"),
                "--snapshot", str(dump),
                "--kind", "summary",
                "--client", "alice",
            ],
            env=env,
            stdout=write_end,
            stderr=subprocess.PIPE,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 141


def test_query_at_names_the_access_point_of_an_inband_answer(tmp_path, capsys):
    """An in-band sources query asked at alice's second access point signs
    the body that ``routecheck query --at`` prints on the run's final
    snapshot; an access point of another client is refused."""
    scn = tmp_path / "at.scn"
    scn.write_text(Path(fixture_path("benign.scn")).read_text() + "@12 query client=alice kind=sources at=swB:2\n")
    art = tmp_path / "art"
    result = run_session(RunConfig(topology_path=fixture_path("benign.topo"), scenario_path=str(scn), seed=4,
                                   out_dir=str(art)))
    frames = [f for (_, _, k, f, _) in result.controller.reports_sent if k == "sources"]
    inband_body = wire.parse_frame(frames[-1]).report.param("body")
    assert "point=alice:ap2" in inband_body.splitlines()

    query = ("query", "--topology", fixture_path("benign.topo"), "--snapshot", str(art / "snapshot_final.txt"),
             "--kind", "sources", "--client", "alice")
    code, out, _ = run_cli(capsys, *query, "--at", "swB:2")
    assert code == 0
    assert out.rstrip("\n") == inband_body
    for wrong, message in (
        ("swC:2", "swC:2 is not an access point of alice"),
        ("swB:1", "swB:1 is not an access point of alice"),
        ("swB", "expected <switch>:<port>, got 'swB'"),
        ("nowhere:2", "nowhere:2 is not an access point of alice"),
    ):
        code, out, err = run_cli(capsys, *query, "--at", wrong)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"


def test_query_sources_consistent_with_isolation(tmp_path, capsys):
    run_cli(
        capsys,
        "run",
        "--topology", fixture_path("joinattack.topo"),
        "--scenario", fixture_path("joinattack.scn"),
        "--out", str(tmp_path / "art"),
    )
    dump = tmp_path / "art" / "snapshot_final.txt"
    _, iso, _ = run_cli(
        capsys, "query",
        "--topology", fixture_path("joinattack.topo"),
        "--snapshot", str(dump), "--kind", "isolation", "--client", "alice",
    )
    _, src, _ = run_cli(
        capsys, "query",
        "--topology", fixture_path("joinattack.topo"),
        "--snapshot", str(dump), "--kind", "sources", "--client", "alice",
    )
    fields = dict(l.split("=", 1) for l in iso.splitlines() if "=" in l)
    candidates = set()
    for key in ("own", "foreign"):
        if fields[key] != "-":
            candidates |= set(fields[key].split(","))
    sources = {l.split(" ")[0].split("=", 1)[1] for l in src.splitlines() if l.startswith("source=")}
    assert sources <= candidates
    assert "mallory:ap1" in sources


def test_query_summary_empty_net(tmp_path, capsys):
    empty_scn = tmp_path / "empty.scn"
    empty_scn.write_text("horizon 5\n")
    run_cli(
        capsys,
        "run",
        "--topology", fixture_path("benign.topo"),
        "--scenario", str(empty_scn),
        "--magic", "1111111111111111",  # keep full wildcard space clear of ctrl rules
        "--out", str(tmp_path / "art"),
    )
    dump = tmp_path / "art" / "snapshot_final.txt"
    code, out, _ = run_cli(
        capsys,
        "query",
        "--topology", fixture_path("benign.topo"),
        "--snapshot", str(dump),
        "--kind", "summary",
        "--client", "alice",
    )
    assert code == 0
    # the single all-ones magic header goes to the controller, the rest
    # drops: no endpoint-to-endpoint rows at all
    assert [l for l in out.splitlines() if l.startswith("row ")] == []


def test_oracle_command_passes_and_mutations_fail(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--count", "6", "--seed", "1", "--width", "6", "--switches", "4")
    assert code == 0
    assert "failed=0" in out
    code, out, _ = run_cli(
        capsys, "oracle", "--count", "12", "--seed", "1", "--width", "6", "--switches", "4",
        "--mutate", "ignore-priority",
    )
    assert code == 2
    assert "MISMATCH" in out


def test_oracle_count_zero_trivially_passes(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--count", "0")
    assert code == 0 and "cases=0 failed=0" in out


def test_oracle_rejects_wide_headers(capsys):
    code, _, err = run_cli(capsys, "oracle", "--count", "1", "--width", "17")
    assert code == 1 and "width" in err


@pytest.mark.parametrize("option, value, least", [
    ("--count", "-3", 0),
    ("--switches", "1", 2),
    ("--rules", "-1", 0),
    ("--width", "0", 1),
])
def test_oracle_refuses_an_option_out_of_range(capsys, option, value, least):
    """Refused by name, not run as zero cases or failed deep in the generator."""
    assert run_cli(capsys, "oracle", option, value) == (1, "", f"error: {option} must be at least {least}, got {value}\n")


@pytest.mark.parametrize("mutation", [None, *MUTATIONS])
def test_oracle_samples_headers_at_the_product_width(capsys, mutation):
    """At width 16 the oracle checks sampled headers, passes the engine and
    catches each deliberate analysis bug."""
    code, out, _ = run_cli(capsys, "oracle", "--count", "5", "--width", "16", *(["--mutate", mutation] if mutation else []))
    if mutation is None:
        assert (code, out.splitlines()[-1]) == (0, "cases=5 failed=0")
    else:
        assert code == 2 and "MISMATCH" in out


def readme_cli_commands():
    """Every ``routecheck ...`` command in the code blocks of the README's CLI
    section, continuation lines joined and ``[optional]`` brackets dropped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    blocks = section.split("```")[1::2]
    commands = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("routecheck "):
                commands.append(shlex.split(line.replace("[", "").replace("]", ""))[1:])
    return commands


def test_readme_cli_lines_parse():
    commands = readme_cli_commands()
    assert {argv[0] for argv in commands} == {"run", "query", "oracle", "scenario"}
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


@pytest.mark.parametrize("command", [["run", "--scenario", "x"],
                                     ["query", "--snapshot", "x", "--kind", "geo", "--client", "c"],
                                     ["scenario", "check", "--scenario", "x"]])
def test_header_width_comes_only_from_the_topology(capsys, command):
    with pytest.raises(SystemExit):
        build_parser().parse_args(command + ["--topology", "t", "--width", "32"])
    assert "unrecognized arguments: --width 32" in capsys.readouterr().err
