"""Routing verification service and SDN data-plane simulator, desk scale.

A simulated OpenFlow-style network under a scriptable (and possibly
compromised) management plane, plus a trusted verification controller
that answers client queries about reachability, isolation and geographic
exposure through snapshot monitoring, wildcard header-space analysis and
an in-band authenticated probe protocol.
"""

from .hspace import (
    HeaderSpace,
    Ternary,
    WidthMismatch,
)
from .topology import (
    AccessPoint,
    Action,
    FlowRule,
    FlowTable,
    Link,
    Topology,
    TopologyError,
    load_topology,
)
from .sim import Delivery, Network, Packet, SwitchEvent, TraceHop, TracePath
from .scenario import ScenarioError, Script, parse_scenario, run_scenario
from .snapshots import (
    GapDetected,
    Snapshot,
    SnapshotService,
    TransientFinding,
    export_snapshot,
    parse_snapshot_dump,
    schedule_polls,
    snapshot_of,
)
from .verify import (
    ReachEntry,
    ReachResult,
    geo_exposure,
    isolation_candidates,
    reachable_endpoints,
    reachable_sources,
    transfer_summary,
)
from .keys import KeyRegistry, SealKeyPair, SigningKey, VerifyKey, seal
from .protocol import ClientAgent, Controller, Finding, default_magic, encode_query, verify_report
from .service import RunConfig, RunResult, run_session

__version__ = "0.1.0"
