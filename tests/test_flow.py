"""The test-side reference min-cost flow and its potential network.

``reference_flow`` is the ground truth the rebalancer is compared against
in test_rebalance.py, so its own checks stay: the fig6 numbers (scale, arc
costs, optimal cost) are worked out by hand, and small general networks
exercise negative costs, parallel arcs and infeasible demands.
"""

from fractions import Fraction

import pytest

from bakermill import example_instance
from conftest import FLOW_SEED, fresh_rng, random_instance
from reference_flow import (
    Arc,
    FlowInfeasibleError,
    FlowNetwork,
    build_potential_network,
    extract_baker_profile,
    min_cost_flow,
    potential_scale,
)


def test_potential_scale_is_lcm():
    assert potential_scale(1) == 1
    assert potential_scale(4) == 12
    assert potential_scale(6) == 60


def test_fig6_network_layout():
    ex = example_instance("fig6")
    network, scale = build_potential_network(ex.instance, ex.miller_profile)
    assert scale == 2
    assert len(network.arcs) == 11  # 2 source + 3 choice + 3*2 sink arcs
    # unit-arc chain per location: cost of the k-th parallel arc into the
    # sink is -(millers * scale) // k
    sink_costs = {}
    for arc in network.arcs:
        if arc.head == network.sink:
            sink_costs.setdefault(arc.tail, []).append(arc.cost)
    per_location = [sorted(sink_costs[n]) for n in sorted(sink_costs)]
    assert per_location == [[-2, -1], [-4, -2], [0, 0]]
    assert all(arc.capacity == 1 for arc in network.arcs)


def test_fig6_flow_finds_potential_maximizer():
    ex = example_instance("fig6")
    network, scale = build_potential_network(ex.instance, ex.miller_profile)
    result = min_cost_flow(network, ex.instance.num_bakers)
    assert result.total_cost == -4
    profile = extract_baker_profile(ex.instance, result)
    assert profile == (1, 2)
    assert Fraction(-result.total_cost, scale) == Fraction(2)


def test_single_arc_network():
    net = FlowNetwork(2, (Arc(0, 1, 1, -5),), source=0, sink=1)
    result = min_cost_flow(net, 1)
    assert result.total_cost == -5
    assert result.flows == (1,)


def test_flow_prefers_cheaper_route():
    net = FlowNetwork(
        4,
        (Arc(0, 1, 1, 0), Arc(0, 2, 1, 0), Arc(1, 3, 1, 7), Arc(2, 3, 1, 3)),
        source=0,
        sink=3,
    )
    result = min_cost_flow(net, 1)
    assert result.total_cost == 3
    result2 = min_cost_flow(net, 2)
    assert result2.total_cost == 10


def test_zero_required_flow():
    net = FlowNetwork(2, (Arc(0, 1, 1, 4),), source=0, sink=1)
    result = min_cost_flow(net, 0)
    assert result.total_cost == 0
    assert result.flows == (0,)


def test_infeasible_demand_raises():
    net = FlowNetwork(3, (Arc(0, 1, 1, 0), Arc(1, 2, 1, 0)), source=0, sink=2)
    with pytest.raises(FlowInfeasibleError):
        min_cost_flow(net, 2)
    disconnected = FlowNetwork(3, (Arc(0, 1, 1, 0),), source=0, sink=2)
    with pytest.raises(FlowInfeasibleError):
        min_cost_flow(disconnected, 1)


def test_negative_cost_cycle_free_network_with_reordered_arcs():
    # same network, arcs shuffled: the optimum must not move
    arcs = [
        Arc(0, 1, 2, -3),
        Arc(0, 2, 2, 1),
        Arc(1, 3, 1, 0),
        Arc(1, 2, 1, -2),
        Arc(2, 3, 2, 0),
    ]
    base = min_cost_flow(FlowNetwork(4, tuple(arcs), 0, 3), 3).total_cost
    rng = fresh_rng(FLOW_SEED)
    for _ in range(10):
        rng.shuffle(arcs)
        shuffled = min_cost_flow(FlowNetwork(4, tuple(arcs), 0, 3), 3)
        assert shuffled.total_cost == base


def test_flow_conservation_and_capacity():
    rng = fresh_rng(FLOW_SEED + 1)
    for _ in range(50):
        inst = random_instance(rng)
        millers = tuple(
            rng.randrange(inst.num_locations) for _ in range(inst.num_millers)
        )
        network, _ = build_potential_network(inst, millers)
        result = min_cost_flow(network, inst.num_bakers)
        assert all(isinstance(f, int) for f in result.flows)
        net_out = [0] * network.num_nodes
        for arc, flow in zip(network.arcs, result.flows):
            assert 0 <= flow <= arc.capacity
            net_out[arc.tail] += flow
            net_out[arc.head] -= flow
        for node in range(network.num_nodes):
            if node == network.source:
                assert net_out[node] == inst.num_bakers
            elif node == network.sink:
                assert net_out[node] == -inst.num_bakers
            else:
                assert net_out[node] == 0
