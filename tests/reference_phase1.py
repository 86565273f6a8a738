"""Reference phase 1 for tests: the greedy pick loop that rescans.

On every pick it counts, for each remaining location, the unassigned
bakers whose range holds it, and records the pick order and counts as it
goes. That is O(q^2 * n), but it shares no code with
``bakermill.solver.phase1_concentrate``, which keeps live counts and reads
the order back from the final counts; it serves as the ground truth for
the exact order, counts and assignment.
"""

from __future__ import annotations

from bakermill.model import Instance


def reference_phase1(instance: Instance):
    """``(order, counts, assignment)``; ties go to the lowest location index."""
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
    return tuple(order), tuple(counts), tuple(assignment)
