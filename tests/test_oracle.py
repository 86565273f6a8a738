"""Exhaustive reference oracle: NE enumeration, optima, ratio reports.

test_matches_naive_enumeration re-derives the equilibrium set with a
deliberately dumb product-space scan so the multiset-based oracle is
checked against an independent route.
"""

import itertools
from fractions import Fraction

import pytest

from bakermill import (
    BudgetExceededError,
    GameError,
    StrategyProfile,
    brute_potential_max,
    compute_equilibrium,
    coverage,
    enumerate_all_ne,
    example_instance,
    gen_poa_family,
    is_nash_equilibrium,
    optimal_coverage,
    oracle_report,
    poa_pos,
    potential_value,
    resolve_budget,
    search_space,
)
from conftest import ORACLE_SEED, fresh_rng, random_instance


def test_search_space_size():
    inst = example_instance("fig2").instance
    # 2 * 1 * 1 * 1 baker choices times 2^2 miller vectors
    assert search_space(inst) == 8


def test_fig2_equilibria_enumerated_exactly():
    inst = example_instance("fig2").instance
    found = enumerate_all_ne(inst)
    assert set(found) == {
        StrategyProfile((0, 0, 0, 1), (0, 0)),
        StrategyProfile((0, 0, 1, 1), (0, 1)),
    }


def test_fig2_report_values():
    ex = example_instance("fig2")
    report = oracle_report(ex.instance)
    assert report.opt_coverage == 4
    assert report.best_ne_coverage == 4
    assert report.worst_ne_coverage == 3
    assert report.poa == Fraction(4, 3)
    assert report.pos == 1
    assert report.profiles_examined == 6
    assert is_nash_equilibrium(ex.instance, report.best_ne_witness)
    assert is_nash_equilibrium(ex.instance, report.worst_ne_witness)
    assert coverage(ex.instance, report.opt_witness) == 4


def test_poa_family_report():
    inst, profiles = gen_poa_family(3)
    report = oracle_report(inst)
    assert report.poa == 3
    assert report.worst_ne_coverage == 1
    assert is_nash_equilibrium(inst, profiles["worst_ne"])
    assert coverage(inst, profiles["worst_ne"]) == 1
    assert coverage(inst, profiles["optimum"]) == 3


def test_optimal_coverage_witness_is_valid():
    rng = fresh_rng(ORACLE_SEED)
    for _ in range(100):
        inst = random_instance(rng)
        opt, witness = optimal_coverage(inst)
        assert coverage(inst, witness) == opt
        for baker, loc in enumerate(witness.baker_locations):
            assert loc in inst.bakers[baker]


def test_brute_potential_max_fig6():
    ex = example_instance("fig6")
    best, witness = brute_potential_max(ex.instance, ex.miller_profile)
    assert best == Fraction(2)
    assert witness == (1, 2)


def test_matches_naive_enumeration():
    # independent route: scan full miller vectors, dedup by sorted millers
    rng = fresh_rng(ORACLE_SEED + 1)
    for _ in range(40):
        inst = random_instance(rng, max_bakers=4, max_locations=3, max_millers=2)
        naive = set()
        for bakers in itertools.product(*inst.bakers):
            for millers in itertools.product(
                range(inst.num_locations), repeat=inst.num_millers
            ):
                prof = StrategyProfile(bakers, tuple(sorted(millers)))
                if prof in naive:
                    continue
                if is_nash_equilibrium(inst, prof):
                    naive.add(prof)
        fast = {
            StrategyProfile(p.baker_locations, tuple(sorted(p.miller_locations)))
            for p in enumerate_all_ne(inst)
        }
        assert fast == naive


def test_every_reported_equilibrium_passes_predicate():
    rng = fresh_rng(ORACLE_SEED + 2)
    for _ in range(150):
        inst = random_instance(rng)
        report = oracle_report(inst)
        assert report.equilibria, "pure equilibria must exist"
        for prof in report.equilibria:
            assert is_nash_equilibrium(inst, prof)
        covs = [coverage(inst, p) for p in report.equilibria]
        assert report.best_ne_coverage == max(covs)
        assert report.worst_ne_coverage == min(covs)
        assert report.worst_ne_coverage <= report.best_ne_coverage
        assert report.best_ne_coverage <= report.opt_coverage
        assert report.poa >= report.pos >= 1
        solved = compute_equilibrium(inst)
        assert report.worst_ne_coverage <= solved.coverage <= report.best_ne_coverage


def test_poa_pos_direct():
    inst = example_instance("fig2").instance
    poa, pos = poa_pos(inst)
    assert (poa, pos) == (Fraction(4, 3), Fraction(1))


def test_potential_maximizer_is_baker_equilibrium():
    # any global potential maximizer under fixed millers resists baker moves
    rng = fresh_rng(ORACLE_SEED + 3)
    from bakermill import is_baker_equilibrium

    for _ in range(100):
        inst = random_instance(rng)
        millers = tuple(
            sorted(rng.randrange(inst.num_locations) for _ in range(inst.num_millers))
        )
        _, witness = brute_potential_max(inst, millers)
        ok, _ = is_baker_equilibrium(inst, StrategyProfile(witness, millers))
        assert ok


# --------------------------------------------------------------------- budget


def test_budget_refusal():
    inst = example_instance("fig2").instance
    with pytest.raises(BudgetExceededError):
        oracle_report(inst, budget=7)
    report = oracle_report(inst, budget=8)
    assert len(report.equilibria) == 2


def test_budget_env_override(monkeypatch):
    inst = example_instance("fig2").instance
    monkeypatch.setenv("ORACLE_BUDGET", "5")
    with pytest.raises(BudgetExceededError):
        enumerate_all_ne(inst)
    monkeypatch.setenv("ORACLE_BUDGET", "1000")
    assert len(enumerate_all_ne(inst)) == 2
    # explicit argument beats the environment
    monkeypatch.setenv("ORACLE_BUDGET", "5")
    assert len(enumerate_all_ne(inst, budget=100)) == 2


def test_budget_env_validation(monkeypatch):
    monkeypatch.setenv("ORACLE_BUDGET", "zero")
    with pytest.raises(GameError):
        resolve_budget()
    monkeypatch.setenv("ORACLE_BUDGET", "-3")
    with pytest.raises(GameError):
        resolve_budget()
    monkeypatch.delenv("ORACLE_BUDGET")
    assert resolve_budget() == 10 ** 7
    with pytest.raises(GameError):
        resolve_budget(0)
    # an explicit budget must be an int, and a bool is not one
    fig2 = example_instance("fig2").instance
    for budget in ["7", True, 2.5]:
        with pytest.raises(GameError, match=f"oracle budget must be an integer, got {budget!r}"):
            resolve_budget(budget)
        with pytest.raises(GameError, match="oracle budget must be an integer"):
            oracle_report(fig2, budget=budget)
    # brute_potential_max refuses through the same check, hint included
    with pytest.raises(BudgetExceededError, match="exceeds the oracle budget 1; raise it"):
        brute_potential_max(fig2, (0, 0), budget=1)
