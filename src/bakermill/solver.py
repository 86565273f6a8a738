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

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush

from .model import (
    GameError,
    Instance,
    StrategyProfile,
    _is_nash,
    coverage,
    location_sums,
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


def _holders(instance: Instance) -> list[list[int]]:
    """For each location, the ids of the bakers that may use it, ascending."""
    holders: list[list[int]] = [[] for _ in range(instance.num_locations)]
    for b, rng in enumerate(instance.bakers):
        for loc in rng:
            holders[loc].append(b)
    return holders


def _greedy_order(bakers_at) -> GreedyOrder:
    # Phase 1's picks, read off its per-location counts: each pick grabs at
    # least as many bakers as any later one, and a later pick with the same
    # count has a higher index, so the picks are the locations sorted by
    # (-count, index). Locations that grab nobody come last, by index.
    order = sorted(range(len(bakers_at)), key=lambda loc: (-bakers_at[loc], loc))
    return GreedyOrder(tuple(order), tuple(bakers_at[loc] for loc in order))


def phase1_concentrate(instance: Instance) -> tuple[GreedyOrder, tuple[int, ...]]:
    """Greedy concentration; ties go to the lowest location index.

    Each location keeps a live count of its unassigned bakers. A pick takes
    the highest count (``max`` returns the first, so the lowest index), and
    every baker it grabs decrements each location in her range.
    """
    holders = _holders(instance)
    live = [len(h) for h in holders]
    grabbed = [0] * instance.num_locations
    assignment: list = [None] * instance.num_bakers
    while True:
        best = max(range(instance.num_locations), key=live.__getitem__)
        if not live[best]:
            break
        grabbed[best] = live[best]
        for b in holders[best]:
            if assignment[b] is None:
                assignment[b] = best
                for loc in instance.bakers[b]:
                    live[loc] -= 1
    return _greedy_order(grabbed), tuple(assignment)


def phase2_insert_millers(instance: Instance, baker_locations, order: GreedyOrder | None = None) -> tuple[int, ...]:
    """Sequential best-response insertion of all millers.

    Each miller lands on the location maximizing bakers/(millers+1); among
    maximizers, the one earliest in the greedy order wins.
    """
    bakers_at = location_sums(instance.num_locations, baker_locations)
    if order is None:
        order = _greedy_order(bakers_at)
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

    This is the profile that successive shortest augmenting paths (Ahuja,
    Magnanti and Orlin, *Network Flows*, ch. 9) build on the network source
    -> bakers -> permissible locations -> sink, where the k-th baker at
    location l earns millers_l/k, with Dijkstra's heap breaking ties by
    (reduced distance, node id) and ids ordered source, bakers, locations,
    sink. Each path places one more baker and shifts a chain of placed
    ones. Here each search is a walk over the locations alone, and it
    makes the same choice:

    1. Every residual arc but the sink's costs 0. No shortest path passes
       through the sink, so location l's arcs into it fill in order of k,
       and its cheapest one left is worth its next share,
       millers_l/(parked_l+1).
    2. So every node the search can reach lies at distance 0, and keeps
       potential 0: an augmentation only adds arcs into nodes that were
       reachable already. Reachable nodes therefore pop by id alone: the
       bakers not yet placed, then the locations, each followed at once by
       its parked bakers. So the bakers not yet placed act as one more row
       of locations, the source row, that pops first: a location enters
       from the source row if a baker not yet placed may use it, else from
       the first popped location that holds a baker who may move to it,
       and the path is read back through the first such baker by id.
    3. So the sink's predecessor is the first location, in pop order, with
       the largest next share: a later equal share does not lower the
       sink's distance.
    4. Successive path costs never fall, so no share found can beat the
       previous path's (for the first search, the largest miller count).
       Once the best share reaches it, no later pop can replace it, and
       the walk stops.
    """
    num_bakers, num_locations = instance.num_bakers, instance.num_locations
    for loc in miller_locations:
        if not 0 <= loc < num_locations:
            raise GameError(f"miller placed at unknown location index {loc}")
    millers_at = location_sums(num_locations, miller_locations)
    ranges = instance.bakers
    holders = _holders(instance)

    out = num_locations   # the source row's id: where bakers not yet placed are
    at = [out] * num_bakers
    parked = [0] * num_locations + [num_bakers]
    # links[l][t]: bakers parked at l, or not yet placed for l = out, that
    # may move on to t. The source row only loses bakers, so its keys stay
    # ascending and already form a heap.
    links: list[dict[int, int]] = [{} for _ in range(num_locations)]
    links.append({t: len(h) for t, h in enumerate(holders) if h})
    # the previous path's share, as numerator and denominator
    bound_num, bound_den = max(millers_at), 1

    for _ in range(num_bakers):
        heap = list(links[out])
        prev = dict.fromkeys(heap, out)   # first discoverer
        best_num, best_den = -1, 1
        while heap:
            u = heappop(heap)
            num, den = millers_at[u], parked[u] + 1
            if num * best_den > best_num * den:
                best_num, best_den, last = num, den, u
                if num * bound_den >= bound_num * den:
                    break
            for t in links[u]:
                if t not in prev:
                    prev[t] = u
                    heappush(heap, t)
        bound_num, bound_den = best_num, best_den

        # Walk the path back from the sink. Each location on it was entered
        # by the first baker, by id, who was not yet placed or parked at the
        # location before it; she moves on, and the locations stay distinct.
        loc = last
        while loc != out:
            src = prev[loc]
            baker = next(b for b in holders[loc] if at[b] == src)
            parked[src] -= 1
            parked[loc] += 1
            for t in ranges[baker]:
                if t != src:
                    links[src][t] -= 1
                    if not links[src][t]:
                        del links[src][t]
                if t != loc:
                    links[loc][t] = links[loc].get(t, 0) + 1
            at[baker] = loc
            loc = src
    return tuple(at)


def _report(instance: Instance, greedy: GreedyOrder, phase1, bakers, millers) -> SolveReport:
    profile = StrategyProfile(bakers, millers)
    return SolveReport(
        profile=profile,
        greedy=greedy,
        phase1_bakers=phase1,
        potential_before=potential_value(instance, millers, phase1),
        potential_after=potential_value(instance, millers, bakers),
        coverage=coverage(instance, profile),
        is_ne=_is_nash(instance, profile),
    )


def compute_equilibrium(instance: Instance) -> SolveReport:
    """Run all three phases and report the equilibrium with its artifacts."""
    greedy, phase1 = phase1_concentrate(instance)
    millers = phase2_insert_millers(instance, phase1, order=greedy)
    return _report(instance, greedy, phase1, phase3_rebalance(instance, millers), millers)


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
        return _report(instance, greedy, phase1, phase1, millers)

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

    greedy = GreedyOrder(
        tuple(keep[loc] for loc in sub_report.greedy.order),
        sub_report.greedy.counts,
    )
    return _report(
        instance,
        greedy,
        complete(sub_report.phase1_bakers),
        complete(sub_report.profile.baker_locations),
        tuple(keep[loc] for loc in sub_report.profile.miller_locations),
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
