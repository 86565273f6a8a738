"""Exhaustive ground truth for small instances.

Everything here enumerates rather than constructs: all Nash equilibria,
the coverage optimum, price of anarchy/stability, and the brute-force
potential maximum. Millers are interchangeable, so equilibria are
reported with a sorted miller vector. The equilibrium scan walks every
baker profile; the miller vectors stable against its baker counts are
exactly the D'Hondt apportionments of the millers to those counts, so
they are derived once per count vector rather than found by trying every
miller multiset. Each entry point refuses instances whose search space
exceeds a budget (default 10**7, overridable per call or via the
ORACLE_BUDGET environment variable).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import comb, prod

from .model import GameError, Instance, StrategyProfile, _is_int
from .serialization import instance_digest

DEFAULT_BUDGET = 10**7
_BUDGET_ENV = "ORACLE_BUDGET"
_CACHED_COUNT_VECTORS = 1 << 14   # at most a few MB of stable miller lists


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
    poa: Fraction
    pos: Fraction


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


def _stable_millers(counts, num_millers: int) -> tuple:
    """Every (millers, millers_at) stable against the baker counts, with
    millers sorted, in lexicographic order of millers.

    Millers are stable when, for every occupied l and every t,
    counts[l]/millers_at[l] >= counts[t]/(millers_at[t]+1): exactly the
    Jefferson/D'Hondt apportionments of num_millers seats to the
    populations counts (Balinski and Young, *Fair Representation*, 1982).
    Every apportionment takes the num_millers largest quotients counts[l]/k,
    so all of them share the smallest one taken, v. The seats whose
    quotient is above v are forced; the rest go, one each, to any of the
    locations whose next quotient equals v. Ascending combinations of
    those locations give the vectors in lexicographic order. Quotients are
    compared as cross-multiplied integers; counts must not be all 0.
    """
    num_locations = len(counts)
    seats = [0] * num_locations
    for _ in range(num_millers):
        best, v_num, v_den = 0, counts[0], seats[0] + 1
        for loc in range(1, num_locations):
            num, den = counts[loc], seats[loc] + 1
            if num * v_den > v_num * den:
                best, v_num, v_den = loc, num, den
        seats[best] = v_den
    # the greedy takes the quotients in falling order, so its last is v; a
    # location's seat at v is not forced, and its next quotient may be v
    forced, tied = [], []
    for loc in range(num_locations):
        k = seats[loc]
        if k and counts[loc] * v_den == v_num * k:
            k = seats[loc] = k - 1
            tied.append(loc)
        elif counts[loc] * v_den == v_num * (k + 1):
            tied.append(loc)
        if k:
            forced += [loc] * k
    out = []
    for extra in combinations(tied, num_millers - len(forced)):
        millers_at = seats[:]
        for loc in extra:
            millers_at[loc] += 1
        out.append((tuple(sorted(forced + list(extra))), tuple(millers_at)))
    return tuple(out)


def _bakers_stable(bakers, ranges, bakers_at, millers_at) -> bool:
    """No baker gains by moving: millers_t/(bakers_t+1) <= millers_l/bakers_l
    for each baker at l and each t in her range (t == l never fails)."""
    for b, loc in enumerate(bakers):
        m_here, b_here = millers_at[loc], bakers_at[loc]
        for t in ranges[b]:
            if millers_at[t] * b_here > m_here * (bakers_at[t] + 1):
                return False
    return True


def _scan_equilibria(instance: Instance):
    """Yield (profile, coverage) for every equilibrium, in canonical order."""
    num_locations = instance.num_locations
    ranges = instance.bakers
    # the stable (millers, millers_at) pairs per baker count vector, each
    # tuple of them stored once: many count vectors share the same pairs.
    # Both are emptied when full, since where count vectors rarely repeat
    # (the poa family: every profile has its own) they would only grow.
    by_counts: dict = {}
    shared: dict = {}
    for bakers in product(*ranges):
        bakers_at = [0] * num_locations
        for loc in bakers:
            bakers_at[loc] += 1
        key = tuple(bakers_at)
        candidates = by_counts.get(key)
        if candidates is None:
            if len(by_counts) == _CACHED_COUNT_VECTORS:
                by_counts.clear()
                shared.clear()
            candidates = _stable_millers(bakers_at, instance.num_millers)
            candidates = by_counts[key] = shared.setdefault(candidates, candidates)
        for millers, millers_at in candidates:
            if _bakers_stable(bakers, ranges, bakers_at, millers_at):
                cov = sum(b for b, m in zip(bakers_at, millers_at) if m)
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
    return _optimal_coverage(instance)


def _optimal_coverage(instance: Instance) -> tuple[int, StrategyProfile]:
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

    Both are well defined: every equilibrium covers at least one baker. A
    miller at a location with no baker has utility 0 and would gain by
    joining any baker, and there is at least one baker and one miller, so
    in an equilibrium every miller shares a location with some baker.
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
    opt_cov, opt_witness = _optimal_coverage(instance)
    examined = prod(len(rng) for rng in instance.bakers) * comb(
        instance.num_locations + instance.num_millers - 1, instance.num_millers
    )
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
        poa=Fraction(opt_cov, worst_cov),
        pos=Fraction(opt_cov, best_cov),
    )
