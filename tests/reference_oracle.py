"""Reference equilibrium scan for tests: every miller multiset per profile.

For each baker profile it tries all C(L+M-1, M) miller multisets and
checks both sides' stability inequalities in full. That is far slower
than ``bakermill.oracle._scan_equilibria``, which derives the stable
miller vectors from the baker counts by D'Hondt apportionment, but it
shares no code with it; it serves as the ground truth for the exact
equilibrium list, its order and each coverage.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, product

from bakermill.model import Instance, StrategyProfile


def _miller_multisets(instance: Instance):
    """Precomputed (vector, counts, occupied) per miller multiset."""
    num_locations = instance.num_locations
    out = []
    for vec in combinations_with_replacement(range(num_locations), instance.num_millers):
        counts = [0] * num_locations
        for loc in vec:
            counts[loc] += 1
        occupied = [loc for loc in range(num_locations) if counts[loc]]
        out.append((vec, counts, occupied))
    return out


def _scan_equilibria(instance: Instance):
    """Yield (profile, coverage) for every equilibrium, in canonical order."""
    num_locations = instance.num_locations
    ranges = instance.bakers
    multisets = _miller_multisets(instance)
    for bakers in product(*ranges):
        bakers_at = [0] * num_locations
        for loc in bakers:
            bakers_at[loc] += 1
        deviations = [
            (loc, t)
            for b, loc in enumerate(bakers)
            for t in ranges[b]
            if t != loc
        ]
        for millers, millers_at, occupied in multisets:
            stable = True
            for loc, t in deviations:
                if millers_at[t] * bakers_at[loc] > millers_at[loc] * (bakers_at[t] + 1):
                    stable = False
                    break
            if stable:
                for loc in occupied:
                    b_here, m_here = bakers_at[loc], millers_at[loc]
                    for t in range(num_locations):
                        if t != loc and bakers_at[t] * m_here > b_here * (millers_at[t] + 1):
                            stable = False
                            break
                    if not stable:
                        break
            if stable:
                cov = sum(bakers_at[loc] for loc in occupied)
                yield StrategyProfile(bakers, millers), cov
