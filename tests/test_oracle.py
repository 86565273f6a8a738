"""Exhaustive reference oracle: NE enumeration, optima, ratio reports.

test_matches_naive_enumeration re-derives the equilibrium set with a
deliberately dumb product-space scan so the apportionment-based oracle is
checked against an independent route; test_scan_matches_reference_oracle
compares whole lists, order and coverage included, with the multiset scan
kept in reference_oracle.py.
"""

import ast
import itertools
from fractions import Fraction
from pathlib import Path

import pytest

from bakermill import (
    BudgetExceededError,
    GameError,
    Instance,
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
from bakermill import oracle
from conftest import ORACLE_SEED, fresh_rng, random_instance
import reference_oracle

DIFFERENTIAL_TRIALS = 700   # per shape


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


def test_oracle_report_reads_the_budget_once(monkeypatch):
    # one check covers both the scan and the optimum, so a changed
    # ORACLE_BUDGET cannot refuse the optimum after the scan has run
    calls = []

    def counting_resolve_budget(budget=None):
        calls.append(budget)
        return resolve_budget(budget)

    monkeypatch.setattr(oracle, "resolve_budget", counting_resolve_budget)
    oracle_report(example_instance("fig2").instance)
    assert calls == [None]
    optimal_coverage(example_instance("fig2").instance, budget=8)
    assert calls == [None, 8]


# -------------------------------------------------------- miller apportionment


def test_stable_millers_are_exactly_the_stable_multisets():
    # Every count vector of up to 4 locations with counts 0-4, not all 0, and
    # every M <= 5: the apportionment lists exactly the miller multisets that
    # pass the miller inequality, in the order the multisets come.
    tied = 0
    for q in range(1, 5):
        for counts in itertools.product(range(5), repeat=q):
            if not any(counts):
                continue
            for m in range(1, 6):
                expected = []
                for vec in itertools.combinations_with_replacement(range(q), m):
                    at = tuple(vec.count(loc) for loc in range(q))
                    # no miller at an occupied l gains at any t:
                    # counts[t]/(at[t]+1) <= counts[l]/at[l]
                    if all(counts[t] * at[loc] <= counts[loc] * (at[t] + 1)
                           for loc in range(q) if at[loc] for t in range(q)):
                        expected.append((vec, at))
                assert oracle._stable_millers(counts, m) == tuple(expected), (counts, m)
                tied += len(expected) > 1
    assert tied >= 1000   # count vectors with more than one apportionment


def _ranges_from(rng, locations, num_bakers, size=None):
    return tuple(
        tuple(sorted(rng.sample(locations, size or rng.randint(1, len(locations)))))
        for _ in range(num_bakers)
    )


def test_scan_matches_reference_oracle():
    # Three shapes: random; tie-heavy, every range the same size, so many
    # locations hold equal counts; and more millers than locations, with
    # locations no baker can use. The lists must match entry for entry,
    # coverage included.
    rng = fresh_rng(ORACLE_SEED + 4)
    trials = 0
    tie_variants = 0   # equilibria sharing their bakers with the one before
    for shape in ("random", "tied", "crowded") * DIFFERENTIAL_TRIALS:
        q = rng.randint(1, 5)
        m = rng.randint(1, 4)
        n = rng.randint(1, 5)
        if shape == "random":
            ranges = _ranges_from(rng, range(q), n)
        elif shape == "tied":
            ranges = _ranges_from(rng, range(q), n, size=rng.randint(1, q))
        else:
            q = rng.randint(2, 4)
            m = rng.randint(q + 1, q + 3)
            ranges = _ranges_from(rng, rng.sample(range(q), rng.randint(1, q - 1)), n)
        inst = Instance(tuple("abcde"[:q]), m, ranges)
        found = list(oracle._scan_equilibria(inst))
        assert found == list(reference_oracle._scan_equilibria(inst)), inst
        trials += 1
        tie_variants += sum(a[0].baker_locations == b[0].baker_locations
                            for a, b in zip(found, found[1:]))
    assert trials >= 2000
    assert tie_variants >= 1000   # 3114 at this seed


def test_scan_is_unchanged_when_its_cache_fills(monkeypatch):
    # the per-call cache of stable millers is emptied when full; with room
    # for two count vectors it empties many times per instance
    monkeypatch.setattr(oracle, "_CACHED_COUNT_VECTORS", 2)
    rng = fresh_rng(ORACLE_SEED + 5)
    for _ in range(200):
        inst = random_instance(rng, max_bakers=5, max_locations=4, max_millers=4)
        assert list(oracle._scan_equilibria(inst)) == list(reference_oracle._scan_equilibria(inst))


# what the oracle checks: the solver, and the model's move kernel, location
# sums, verdicts and potential
SHARED_WITH_CHECKED_CODE = {
    "improving_moves", "location_sums", "_first_moves", "potential_value", "harmonic", "_is_nash",
}


def test_oracle_shares_no_code_with_what_it_checks():
    tree = ast.parse(Path(oracle.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [*(node.module or "").split("."), *(a.name for a in node.names)]
        elif isinstance(node, ast.Import):
            names = [part for a in node.names for part in a.name.split(".")]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        assert "solver" not in names, ast.unparse(node)
        assert not SHARED_WITH_CHECKED_CODE.intersection(names), ast.unparse(node)
