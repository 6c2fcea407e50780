"""Self-tests of the workload generators: seeded, distinct per seed, loadable."""

import pytest

from gen import GENERATORS
from routecheck.scenario import parse_scenario
from routecheck.topology import load_topology


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_same_seed_same_text(workload):
    assert GENERATORS[workload](7) == GENERATORS[workload](7)


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_other_seed_other_text(workload):
    topo_a, scn_a = GENERATORS[workload](7)
    topo_b, scn_b = GENERATORS[workload](8)
    assert topo_a != topo_b
    assert scn_a != scn_b


@pytest.mark.parametrize("workload", sorted(GENERATORS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_inputs_load(workload, seed):
    topo_text, scn_text = GENERATORS[workload](seed)
    topo = load_topology(topo_text)
    assert topo.width == 16
    script = parse_scenario(scn_text, topo)
    kinds = {d.query_kind for d in script.directives if d.kind == "query"}
    assert kinds == {"isolation", "sources", "geo", "summary"}
    assert any(d.kind == "inject" for d in script.directives)
