"""Three-phase equilibrium construction.

Phase 1 concentrates bakers: repeatedly grab the location whose range
contains the most still-unassigned bakers, park them all there, and remove
the location. Phase 2 drops millers in one at a time, each at a best
response. Phase 3 rebalances the bakers to the profile maximizing the
harmonic potential for the fixed miller placement, by successive shortest
augmenting paths on the location graph. The result is a pure Nash
equilibrium, and phase 3 never disturbs the millers' stability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .model import (
    GameError,
    Instance,
    StrategyProfile,
    coverage,
    is_nash_equilibrium,
    potential_value,
)


@dataclass(frozen=True)
class GreedyOrder:
    """Locations in pick order, with the baker count grabbed at each pick."""

    order: tuple[int, ...]
    counts: tuple[int, ...]


@dataclass(frozen=True)
class SolveReport:
    profile: StrategyProfile          # final state
    greedy: GreedyOrder
    phase1_bakers: tuple[int, ...]    # baker profile before rebalancing
    potential_before: Fraction
    potential_after: Fraction
    coverage: int
    is_ne: bool


def phase1_concentrate(instance: Instance) -> tuple[GreedyOrder, tuple[int, ...]]:
    """Greedy concentration; ties go to the lowest location index."""
    range_sets = [set(rng) for rng in instance.bakers]
    remaining = list(range(instance.num_locations))
    unassigned = set(range(instance.num_bakers))
    assignment: list = [None] * instance.num_bakers
    order: list[int] = []
    counts: list[int] = []
    for _ in range(instance.num_locations):
        best = None
        best_count = -1
        for loc in remaining:  # ascending, so ties keep the lowest index
            c = sum(1 for b in unassigned if loc in range_sets[b])
            if c > best_count:
                best, best_count = loc, c
        order.append(best)
        counts.append(best_count)
        grabbed = [b for b in unassigned if best in range_sets[b]]
        for b in grabbed:
            assignment[b] = best
        unassigned.difference_update(grabbed)
        remaining.remove(best)
    return GreedyOrder(tuple(order), tuple(counts)), tuple(assignment)


def _order_from_profile(instance: Instance, bakers_at: list[int]) -> GreedyOrder:
    # For phase-1 profiles this reconstructs the greedy order exactly:
    # the pick sequence is non-increasing in final counts and breaks count
    # ties toward the lower location index.
    order = sorted(range(instance.num_locations), key=lambda loc: (-bakers_at[loc], loc))
    return GreedyOrder(tuple(order), tuple(bakers_at[loc] for loc in order))


def phase2_insert_millers(instance: Instance, baker_locations, order: GreedyOrder | None = None) -> tuple[int, ...]:
    """Sequential best-response insertion of all millers.

    Each miller lands on the location maximizing bakers/(millers+1); among
    maximizers, the one earliest in the greedy order wins.
    """
    bakers_at = [0] * instance.num_locations
    for loc in baker_locations:
        bakers_at[loc] += 1
    if order is None:
        order = _order_from_profile(instance, bakers_at)
    millers_at = [0] * instance.num_locations
    placements = []
    for _ in range(instance.num_millers):
        best = order.order[0]
        for loc in order.order[1:]:
            if bakers_at[loc] * (millers_at[best] + 1) > bakers_at[best] * (millers_at[loc] + 1):
                best = loc
        placements.append(best)
        millers_at[best] += 1
    return tuple(placements)


def phase3_rebalance(instance: Instance, miller_locations) -> tuple[int, ...]:
    """Baker profile maximizing the potential for the given miller placement.

    This is successive shortest augmenting paths with node potentials (Ahuja,
    Magnanti and Orlin, *Network Flows*, ch. 9) on the network source ->
    bakers -> permissible locations -> sink, where the k-th baker at location
    l earns millers_l/k and the Dijkstra heap breaks ties by node id (source,
    bakers, locations, sink). Each path places one more baker and shifts a
    chain of placed ones. The search runs on locations and the sink alone,
    without changing a single decision of the search on the full network:

    - No path passes through the sink, so a location's arcs into the sink
      fill in order of k. Location l keeps one live arc, worth its next
      baker's share, and the sink one residual arc back, worth its last.
    - Every placed baker has the potential of her location, and every
      unplaced one that of the source, 0. Reduced distances are never
      negative and bakers' ids precede locations', so the unplaced bakers
      pop first, in id order, and a location's parked bakers pop right
      after it. A baker matters only as the first one, by id, to offer an
      arc to a location, and paths are read back through that first baker.
    - Shares are scaled by L = lcm(1..min(n, max degree + 1)). No location
      ever holds more bakers than its degree, so every share is an exact
      integer, and a uniform scale changes no comparison.
    """
    num_bakers, num_locations = instance.num_bakers, instance.num_locations
    millers_at = [0] * num_locations
    for loc in miller_locations:
        if not 0 <= loc < num_locations:
            raise GameError(f"miller placed at unknown location index {loc}")
        millers_at[loc] += 1
    ranges = instance.bakers
    holders: list[list[int]] = [[] for _ in range(num_locations)]  # ascending ids
    for b, rng in enumerate(ranges):
        for loc in rng:
            holders[loc].append(b)
    scale = math.lcm(*range(1, min(num_bakers, max(map(len, holders)) + 1) + 1))
    share = [m * scale for m in millers_at]

    sink = num_locations
    at: list = [None] * num_bakers
    parked = [0] * num_locations
    unplaced = [len(h) for h in holders]   # unplaced bakers that may go to l
    # links[l][t]: bakers parked at l that may move on to t
    links: list[dict[int, int]] = [{} for _ in range(num_locations)]
    # Over the empty flow every location a baker can use lies at distance 0.
    # The sink's start shifts only its own distances in the first search,
    # where it has no residual arc out, so any start gives the same choices.
    pot = [0] * (sink + 1)

    for _ in range(num_bakers):
        dist: list = [None] * (sink + 1)
        prev: list = [None] * (sink + 1)   # None: reached from an unplaced baker
        heap = [(-pot[loc], loc) for loc in range(num_locations) if unplaced[loc]]
        for d, loc in heap:
            dist[loc] = d
        heapify(heap)
        while heap:
            d, u = heappop(heap)
            if d > dist[u]:
                continue
            base = d + pot[u]
            if u < sink:
                arcs = [(sink, base - share[u] // (parked[u] + 1))]
                arcs += [(t, base) for t in links[u]]
            else:
                arcs = [(loc, base + share[loc] // c) for loc, c in enumerate(parked) if c]
            for v, nd in arcs:
                nd -= pot[v]
                if dist[v] is None or nd < dist[v]:
                    dist[v] = nd
                    prev[v] = u
                    heappush(heap, (nd, v))
        for v, dv in enumerate(dist):
            if dv is not None:
                pot[v] += dv

        # Walk the path back from the sink. Each location on it was entered
        # by the first baker, by id, who was unplaced or parked at the
        # location before it; she moves on, and the locations stay distinct.
        loc = prev[sink]
        while loc is not None:
            src = prev[loc]
            baker = next(b for b in holders[loc] if at[b] == src)
            if src is None:
                for t in ranges[baker]:
                    unplaced[t] -= 1
            else:
                parked[src] -= 1
                for t in ranges[baker]:
                    if t != src:
                        links[src][t] -= 1
                        if not links[src][t]:
                            del links[src][t]
            parked[loc] += 1
            for t in ranges[baker]:
                if t != loc:
                    links[loc][t] = links[loc].get(t, 0) + 1
            at[baker] = loc
            loc = src
    return tuple(at)


def compute_equilibrium(instance: Instance) -> SolveReport:
    """Run all three phases and report the equilibrium with its artifacts."""
    greedy, phase1 = phase1_concentrate(instance)
    millers = phase2_insert_millers(instance, phase1, order=greedy)
    rebalanced = phase3_rebalance(instance, millers)
    profile = StrategyProfile(rebalanced, millers)
    return SolveReport(
        profile=profile,
        greedy=greedy,
        phase1_bakers=phase1,
        potential_before=potential_value(instance, millers, phase1),
        potential_after=potential_value(instance, millers, rebalanced),
        coverage=coverage(instance, profile),
        is_ne=is_nash_equilibrium(instance, profile),
    )


def stable_from_location_set(instance: Instance, keep) -> SolveReport:
    """Solve the game restricted to the locations in ``keep``, then reinstate.

    Bakers whose range misses ``keep`` are withheld from the restricted
    solve and afterwards parked at their lowest-index permissible location.
    The completed state is an equilibrium of the full game whenever ``keep``
    is an optimal covering set of size min(num_locations, num_millers); the
    report's ``is_ne`` flag tells the truth either way.
    """
    keep = sorted(set(keep))
    if not keep:
        raise GameError("the location set to keep must be nonempty")
    for loc in keep:
        if not 0 <= loc < instance.num_locations:
            raise GameError(f"unknown location index {loc}")
    keep_set = set(keep)
    new_index = {loc: i for i, loc in enumerate(keep)}

    kept_bakers = [b for b in range(instance.num_bakers)
                   if any(loc in keep_set for loc in instance.bakers[b])]

    if not kept_bakers:
        # degenerate: nothing to solve inside keep, park everyone trivially
        phase1 = tuple(rng[0] for rng in instance.bakers)
        millers = (keep[0],) * instance.num_millers
        greedy = GreedyOrder(tuple(keep), (0,) * len(keep))
        profile = StrategyProfile(phase1, millers)
        phi = potential_value(instance, millers, phase1)
        return SolveReport(profile, greedy, phase1, phi, phi,
                           coverage(instance, profile),
                           is_nash_equilibrium(instance, profile))

    sub = Instance(
        locations=tuple(instance.locations[loc] for loc in keep),
        num_millers=instance.num_millers,
        bakers=tuple(
            tuple(new_index[loc] for loc in instance.bakers[b] if loc in keep_set)
            for b in kept_bakers
        ),
    )
    sub_report = compute_equilibrium(sub)

    def complete(sub_bakers) -> tuple[int, ...]:
        full: list = [None] * instance.num_bakers
        for j, b in enumerate(kept_bakers):
            full[b] = keep[sub_bakers[j]]
        for b in range(instance.num_bakers):
            if full[b] is None:
                full[b] = instance.bakers[b][0]
        return tuple(full)

    bakers_full = complete(sub_report.profile.baker_locations)
    phase1_full = complete(sub_report.phase1_bakers)
    millers_full = tuple(keep[loc] for loc in sub_report.profile.miller_locations)
    profile = StrategyProfile(bakers_full, millers_full)
    greedy = GreedyOrder(
        tuple(keep[loc] for loc in sub_report.greedy.order),
        sub_report.greedy.counts,
    )
    return SolveReport(
        profile=profile,
        greedy=greedy,
        phase1_bakers=phase1_full,
        potential_before=potential_value(instance, millers_full, phase1_full),
        potential_after=potential_value(instance, millers_full, bakers_full),
        coverage=coverage(instance, profile),
        is_ne=is_nash_equilibrium(instance, profile),
    )


def greedy_k_coverage(instance: Instance, k: int) -> tuple[int, ...]:
    """First k locations of the greedy concentration order."""
    if not 1 <= k <= instance.num_locations:
        raise GameError(f"k must be between 1 and {instance.num_locations}")
    greedy, _ = phase1_concentrate(instance)
    return greedy.order[:k]


def covered_bakers(instance: Instance, locations) -> int:
    """How many bakers have at least one permissible location in the set."""
    chosen = set(locations)
    return sum(1 for rng in instance.bakers if chosen.intersection(rng))
