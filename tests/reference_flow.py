"""Reference rebalancer for tests: general min-cost flow on the full network.

This is the generic successive-shortest-path solver that
``bakermill.solver.phase3_rebalance`` specializes. It builds every one of
the n*q parallel sink arcs and starts from a Bellman-Ford pass, so it is
slow, but it shares no code with the library's rebalancer and serves as
the ground truth for its exact profiles.

For a fixed miller placement, the baker profile maximizing the harmonic
potential is an integral min-cost flow: one unit per baker, routed through
her permissible locations, with each location offering parallel unit arcs
to the sink priced at -millers/1, -millers/2, ... Costs are pre-scaled by
lcm(1..num_bakers) so every arc cost is an integer and the optimum is exact.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from bakermill.model import GameError, Instance


class FlowInfeasibleError(GameError):
    pass


@dataclass(frozen=True)
class Arc:
    tail: int
    head: int
    capacity: int
    cost: int


@dataclass(frozen=True)
class FlowNetwork:
    """Directed network with integer capacities and costs. Parallel arcs allowed."""

    num_nodes: int
    arcs: tuple[Arc, ...]
    source: int
    sink: int


@dataclass(frozen=True)
class FlowResult:
    network: FlowNetwork
    flows: tuple[int, ...]
    total_cost: int


def potential_scale(num_bakers: int) -> int:
    """lcm(1..n), the denominator-clearing factor for harmonic arc costs."""
    return math.lcm(*range(1, num_bakers + 1))


def _node_layout(instance: Instance):
    # source, then bakers, then locations, then sink
    num_bakers = instance.num_bakers
    sink = 1 + num_bakers + instance.num_locations
    return num_bakers, sink


def baker_node(baker_id: int) -> int:
    return 1 + baker_id


def location_node(instance: Instance, loc: int) -> int:
    return 1 + instance.num_bakers + loc


def build_potential_network(instance: Instance, miller_locations) -> tuple[FlowNetwork, int]:
    """Network whose min-cost flow of value num_bakers maximizes the potential.

    Returns ``(network, scale)``; an optimal flow of cost c corresponds to a
    baker profile of potential -c/scale.
    """
    num_bakers, sink = _node_layout(instance)
    scale = potential_scale(num_bakers)
    millers_at = [0] * instance.num_locations
    for loc in miller_locations:
        if not 0 <= loc < instance.num_locations:
            raise GameError(f"miller placed at unknown location index {loc}")
        millers_at[loc] += 1

    arcs = []
    for b in range(num_bakers):
        arcs.append(Arc(0, baker_node(b), 1, 0))
    for b, rng in enumerate(instance.bakers):
        for loc in rng:
            arcs.append(Arc(baker_node(b), location_node(instance, loc), 1, 0))
    for loc in range(instance.num_locations):
        weighted = millers_at[loc] * scale
        for k in range(1, num_bakers + 1):
            # k-th baker at this location adds millers/k to the potential
            arcs.append(Arc(location_node(instance, loc), sink, 1, -(weighted // k)))
    return FlowNetwork(sink + 1, tuple(arcs), 0, sink), scale


def min_cost_flow(network: FlowNetwork, required_flow: int) -> FlowResult:
    """Successive shortest augmenting paths with node potentials.

    Arcs are sorted into a canonical order before solving, so the result is
    invariant under permutations of parallel arcs. Negative arc costs are
    fine as long as the network has no negative cycle; the initial node
    potentials come from one Bellman-Ford pass over the empty flow.
    """
    if required_flow < 0:
        raise GameError("required flow must be nonnegative")
    arcs = network.arcs
    flows = [0] * len(arcs)
    if required_flow == 0:
        return FlowResult(network, tuple(flows), 0)

    order = sorted(
        range(len(arcs)),
        key=lambda i: (arcs[i].tail, arcs[i].head, arcs[i].cost, i),
    )
    n = network.num_nodes
    # residual graph: entries 2j (forward) and 2j+1 (backward) for sorted arc j
    to: list[int] = []
    cap: list[int] = []
    cost: list[int] = []
    adj: list[list[int]] = [[] for _ in range(n)]
    for i in order:
        a = arcs[i]
        adj[a.tail].append(len(to))
        to.append(a.head)
        cap.append(a.capacity)
        cost.append(a.cost)
        adj[a.head].append(len(to))
        to.append(a.tail)
        cap.append(0)
        cost.append(-a.cost)

    source, sink = network.source, network.sink
    # initial potentials: shortest distances tolerating negative costs
    pot: list = [None] * n
    pot[source] = 0
    for _ in range(n - 1):
        changed = False
        for u in range(n):
            du = pot[u]
            if du is None:
                continue
            for e in adj[u]:
                if cap[e] > 0:
                    v = to[e]
                    nd = du + cost[e]
                    if pot[v] is None or nd < pot[v]:
                        pot[v] = nd
                        changed = True
        if not changed:
            break

    pushed = 0
    while pushed < required_flow:
        dist: list = [None] * n
        dist[source] = 0
        prev_edge = [-1] * n
        heap = [(0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if dist[u] is None or d > dist[u]:
                continue
            for e in adj[u]:
                if cap[e] <= 0:
                    continue
                v = to[e]
                if pot[v] is None:
                    continue  # unreachable under empty flow stays unreachable
                nd = d + cost[e] + pot[u] - pot[v]
                if dist[v] is None or nd < dist[v]:
                    dist[v] = nd
                    prev_edge[v] = e
                    heapq.heappush(heap, (nd, v))
        if dist[sink] is None:
            raise FlowInfeasibleError(
                f"cannot route {required_flow} units, stuck after {pushed}"
            )
        for v in range(n):
            if dist[v] is not None:
                pot[v] += dist[v]
        # bottleneck along the augmenting path
        amount = required_flow - pushed
        v = sink
        while v != source:
            e = prev_edge[v]
            amount = min(amount, cap[e])
            v = to[e ^ 1]
        v = sink
        while v != source:
            e = prev_edge[v]
            cap[e] -= amount
            cap[e ^ 1] += amount
            v = to[e ^ 1]
        pushed += amount

    total = 0
    for j, i in enumerate(order):
        used = arcs[i].capacity - cap[2 * j]
        flows[i] = used
        total += used * arcs[i].cost
    return FlowResult(network, tuple(flows), total)


def extract_baker_profile(instance: Instance, result: FlowResult) -> tuple[int, ...]:
    """Read the baker assignment off a saturating flow of a potential network."""
    num_bakers, _ = _node_layout(instance)
    assignment: list = [None] * num_bakers
    for arc, flow in zip(result.network.arcs, result.flows):
        if flow and 1 <= arc.tail <= num_bakers:
            b = arc.tail - 1
            loc = arc.head - 1 - num_bakers
            if assignment[b] is not None:
                raise GameError(f"baker {b} is split across locations in the flow")
            assignment[b] = loc
    for b, loc in enumerate(assignment):
        if loc is None:
            raise GameError(f"flow does not assign baker {b}")
        if loc not in instance.bakers[b]:
            raise GameError(f"flow assigns baker {b} outside her range")
    return tuple(assignment)
