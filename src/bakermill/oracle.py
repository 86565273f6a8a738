"""Exhaustive ground truth for small instances.

Everything here enumerates rather than constructs: all Nash equilibria,
the coverage optimum, price of anarchy/stability, and the brute-force
potential maximum. Millers are interchangeable, so miller placements are
enumerated as multisets and equilibria are reported with a sorted miller
vector. Each entry point refuses instances whose search space exceeds a
budget (default 10**7, overridable per call or via the ORACLE_BUDGET
environment variable).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, prod

from .model import GameError, Instance, StrategyProfile, _is_int
from .serialization import instance_digest

DEFAULT_BUDGET = 10**7
_BUDGET_ENV = "ORACLE_BUDGET"


class BudgetExceededError(GameError):
    pass


@dataclass(frozen=True)
class OracleReport:
    """Everything the exhaustive search knows about one instance."""

    digest: str
    profiles_examined: int
    equilibria: tuple[StrategyProfile, ...]
    opt_coverage: int
    opt_witness: StrategyProfile
    best_ne_coverage: int
    best_ne_witness: StrategyProfile
    worst_ne_coverage: int
    worst_ne_witness: StrategyProfile
    poa: object  # Fraction, or float("inf") defensively
    pos: object


def resolve_budget(budget: int | None = None) -> int:
    if budget is not None:
        if not _is_int(budget):
            raise GameError(f"oracle budget must be an integer, got {budget!r}")
        if budget < 1:
            raise GameError("oracle budget must be positive")
        return budget
    raw = os.environ.get(_BUDGET_ENV)
    if raw is not None:
        try:
            value = int(raw)
        except ValueError:
            raise GameError(f"{_BUDGET_ENV} must be an integer, got {raw!r}") from None
        if value < 1:
            raise GameError(f"{_BUDGET_ENV} must be positive, got {value}")
        return value
    return DEFAULT_BUDGET


def search_space(instance: Instance) -> int:
    """Nominal size used for the budget check (baker product times L**M)."""
    return prod(len(rng) for rng in instance.bakers) * (
        instance.num_locations ** instance.num_millers
    )


def _check_budget(size: int, budget: int | None) -> None:
    limit = resolve_budget(budget)
    if size > limit:
        raise BudgetExceededError(
            f"search space {size} exceeds the oracle budget {limit}; "
            f"raise it explicitly or via {_BUDGET_ENV} to proceed"
        )


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


def enumerate_all_ne(instance: Instance, budget: int | None = None) -> list[StrategyProfile]:
    """All Nash equilibria, miller vectors sorted, in lexicographic order."""
    _check_budget(search_space(instance), budget)
    return [profile for profile, _ in _scan_equilibria(instance)]


def optimal_coverage(instance: Instance, budget: int | None = None) -> tuple[int, StrategyProfile]:
    """Best achievable coverage over all states, with a deterministic witness.

    Millers are enumerated as multisets; bakers then pick any millered
    permissible location (lowest index), which is individually optimal
    for coverage.
    """
    _check_budget(search_space(instance), budget)
    masks = [sum(1 << loc for loc in rng) for rng in instance.bakers]
    best = -1
    best_millers = None
    for vec in combinations_with_replacement(
        range(instance.num_locations), instance.num_millers
    ):
        occ_mask = 0
        for loc in vec:
            occ_mask |= 1 << loc
        cov = sum(1 for mask in masks if mask & occ_mask)
        if cov > best:
            best = cov
            best_millers = vec
    occupied = {loc for loc in best_millers}
    bakers = []
    for rng in instance.bakers:
        covered = [loc for loc in rng if loc in occupied]
        bakers.append(covered[0] if covered else rng[0])
    return best, StrategyProfile(tuple(bakers), best_millers)


def poa_pos(instance: Instance, budget: int | None = None):
    """Price of anarchy and price of stability as exact fractions.

    A worst equilibrium with zero coverage cannot occur (some baker is
    always covered in equilibrium); should it ever, the ratio degrades to
    an infinite sentinel rather than a division error.
    """
    report = oracle_report(instance, budget)
    return report.poa, report.pos


def brute_potential_max(instance: Instance, miller_locations, budget: int | None = None):
    """Maximize the potential by trying every baker profile."""
    _check_budget(prod(len(rng) for rng in instance.bakers), budget)
    # the potential sum(millers at l * H(bakers at l)) with its own exact
    # harmonic numbers: the solver's report scores with model.potential_value,
    # so the oracle must not, or a fault there would agree with itself
    num_locations = instance.num_locations
    millers_at = [0] * num_locations
    for loc in miller_locations:
        millers_at[loc] += 1
    millered = [(loc, millers_at[loc]) for loc in range(num_locations) if millers_at[loc]]
    harmonics = [Fraction(0)]
    for k in range(1, instance.num_bakers + 1):
        harmonics.append(harmonics[-1] + Fraction(1, k))
    best = None
    witness = None
    for bakers in product(*instance.bakers):
        bakers_at = [0] * num_locations
        for loc in bakers:
            bakers_at[loc] += 1
        value = Fraction(0)
        for loc, millers in millered:
            value += millers * harmonics[bakers_at[loc]]
        if best is None or value > best:
            best = value
            witness = bakers
    return best, witness


def oracle_report(instance: Instance, budget: int | None = None) -> OracleReport:
    _check_budget(search_space(instance), budget)
    equilibria = []
    best = worst = None
    best_cov = -1
    worst_cov = None
    for profile, cov in _scan_equilibria(instance):
        equilibria.append(profile)
        if cov > best_cov:
            best_cov, best = cov, profile
        if worst_cov is None or cov < worst_cov:
            worst_cov, worst = cov, profile
    if not equilibria:
        raise GameError("no Nash equilibrium found, which contradicts existence")
    opt_cov, opt_witness = optimal_coverage(instance, budget)
    examined = prod(len(rng) for rng in instance.bakers) * comb(
        instance.num_locations + instance.num_millers - 1, instance.num_millers
    )
    poa = Fraction(opt_cov, worst_cov) if worst_cov else float("inf")
    pos = Fraction(opt_cov, best_cov) if best_cov else float("inf")
    return OracleReport(
        digest=instance_digest(instance),
        profiles_examined=examined,
        equilibria=tuple(equilibria),
        opt_coverage=opt_cov,
        opt_witness=opt_witness,
        best_ne_coverage=best_cov,
        best_ne_witness=best,
        worst_ne_coverage=worst_cov,
        worst_ne_witness=worst,
        poa=poa,
        pos=pos,
    )
