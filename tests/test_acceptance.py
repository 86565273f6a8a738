"""Acceptance gate: ten end-to-end criteria, one test and one verdict line each.

Shared passes (solving and exhaustively analyzing the 10,000-instance corpus)
run once in module fixtures; their cost lands on the first test that uses
them. Every numeric claim is exact rational arithmetic, no tolerances.

Criterion 9 checks the improving-move cycle on the weighted fig7 instance
in its two stages: the scripted 7 moves all strictly improve and land on a
location-rotated copy of the start, which every baker's range makes the same
game state under new location names; three relabeled passes (21 moves) then
return to the exact start. test_dynamics.py shows by exhaustive search that
no shorter improving walk returns to the exact start.
"""

import itertools
import time
from fractions import Fraction

import pytest

from bakermill import (
    CoverageProblem,
    baker_utility,
    compute_equilibrium,
    coverage,
    example_instance,
    fig7_cycle_script,
    gen_poa_family,
    gen_pos_family,
    is_nash_equilibrium,
    miller_utility,
    occupancy,
    optimal_coverage,
    oracle_report,
    phase3_rebalance,
    potential_value,
    reduce_to_optimal_ne_instance,
    reduce_to_optimum_instance,
    run_dynamics,
    state_signature,
)
from bakermill.oracle import brute_potential_max
from conftest import fresh_rng, random_instance

CORPUS_SEED = 2718
FLOW_SEED = 3141
REDUCTION_SEED = 1618
CORPUS_SIZE = 10_000
FLOW_TRIALS = 1_000

APPROX_NUM = 1582  # tight rational upper bound on e/(e-1)
APPROX_DEN = 999


def verdict(num, ok, detail, started):
    elapsed = time.perf_counter() - started
    word = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {word} - {detail} ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def corpus():
    rng = fresh_rng(CORPUS_SEED)
    return [
        random_instance(rng, max_bakers=6, max_locations=4, max_millers=3)
        for _ in range(CORPUS_SIZE)
    ]


@pytest.fixture(scope="module")
def solved(corpus):
    return [compute_equilibrium(inst) for inst in corpus]


@pytest.fixture(scope="module")
def oracled(corpus):
    return [oracle_report(inst) for inst in corpus]


def test_criterion_01_solver_output_verifies_everywhere(corpus, solved):
    t0 = time.perf_counter()
    bad = sum(
        1
        for inst, report in zip(corpus, solved)
        if not (report.is_ne and is_nash_equilibrium(inst, report.profile))
    )
    ok = bad == 0
    verdict(1, ok, f"{CORPUS_SIZE - bad}/{CORPUS_SIZE} solved states verify as NE", t0)
    assert ok


def test_criterion_02_flow_equals_brute_force_potential():
    t0 = time.perf_counter()
    rng = fresh_rng(FLOW_SEED)
    mismatches = 0
    for _ in range(FLOW_TRIALS):
        inst = random_instance(rng, max_bakers=6, max_locations=4, max_millers=3)
        millers = tuple(
            sorted(rng.randrange(inst.num_locations) for _ in range(inst.num_millers))
        )
        rebalanced = phase3_rebalance(inst, millers)
        best, _ = brute_potential_max(inst, millers)
        if potential_value(inst, millers, rebalanced) != best:
            mismatches += 1
    ok = mismatches == 0
    verdict(2, ok, f"{FLOW_TRIALS} rebalanced potentials equal brute-force maxima", t0)
    assert ok


def test_criterion_03_pure_equilibria_always_exist(oracled):
    t0 = time.perf_counter()
    empty = sum(1 for report in oracled if not report.equilibria)
    ok = empty == 0
    verdict(3, ok, f"nonempty NE set on all {CORPUS_SIZE} instances", t0)
    assert ok


def test_criterion_04_poa_family_hits_baker_count():
    t0 = time.perf_counter()
    ok = True
    for m in range(1, 6):
        inst, profiles = gen_poa_family(m)
        report = oracle_report(inst)
        dispersed = profiles["worst_ne"]
        ok = ok and report.poa == Fraction(m)
        ok = ok and is_nash_equilibrium(inst, dispersed)
        ok = ok and coverage(inst, dispersed) == 1
    verdict(4, ok, "poa equals m for m in 1..5, dispersed NE covers 1", t0)
    assert ok


def test_criterion_05_pos_family_formula_and_uniqueness():
    t0 = time.perf_counter()
    ok = True
    for n in (1, 2, 3):
        for q in (2, 3):
            inst, profiles = gen_pos_family(n, q, q)
            report = oracle_report(inst)
            ok = ok and report.pos == 1 + Fraction(n * (q - 1), q * n + 1)
            ok = ok and len(report.equilibria) == 1
            ok = ok and report.equilibria[0] == profiles["ne"]
    verdict(5, ok, "pos formula exact and NE unique on the n x q grid", t0)
    assert ok


def test_criterion_06_pos_upper_bound_on_corpus(corpus, oracled):
    t0 = time.perf_counter()
    violations = 0
    for inst, report in zip(corpus, oracled):
        q = min(inst.num_locations, inst.num_millers)
        bound = 1 + Fraction(q - 1, inst.num_millers)
        if report.pos > bound:
            violations += 1
    ok = violations == 0
    verdict(6, ok, f"pos within 1 + (q-1)/m on all {CORPUS_SIZE} instances", t0)
    assert ok


def test_criterion_07_solver_welfare_approximation(corpus, solved, oracled):
    t0 = time.perf_counter()
    violations = 0
    for inst, sol, report in zip(corpus, solved, oracled):
        q = min(inst.num_locations, inst.num_millers)
        slack = (1 + Fraction(q - 1, inst.num_millers)) * Fraction(
            APPROX_NUM, APPROX_DEN
        )
        if Fraction(sol.coverage) * slack < report.opt_coverage:
            violations += 1
    ok = violations == 0
    verdict(7, ok, f"coverage within the approximation factor, {CORPUS_SIZE} runs", t0)
    assert ok


def best_k_cover(problem):
    return max(
        len(set().union(*sets))
        for sets in itertools.combinations(problem.sets, problem.k)
    )


def reduction_case_ok(problem):
    expect = best_k_cover(problem)
    opt, _ = optimal_coverage(reduce_to_optimum_instance(problem).instance)
    if opt != expect:
        return False
    red = reduce_to_optimal_ne_instance(problem)
    report = oracle_report(red.instance)
    return report.best_ne_coverage == expect + problem.k * red.dummies_per_location


def test_criterion_08_coverage_reductions_are_faithful():
    # exhaustive over every family shape on up to 4 ground items, then a
    # broad seeded sample of the 5 and 6 item shapes (the complete 6-item
    # space holds several hundred thousand families; sampling keeps the
    # check inside the runtime budget)
    t0 = time.perf_counter()
    bad = 0
    exhaustive = 0
    subsets4 = [
        tuple(s)
        for size in range(1, 5)
        for s in itertools.combinations(range(1, 5), size)
    ]
    for count in range(1, 5):
        for family in itertools.combinations(subsets4, count):
            for k in range(1, count + 1):
                exhaustive += 1
                if not reduction_case_ok(CoverageProblem(family, k)):
                    bad += 1
    rng = fresh_rng(REDUCTION_SEED)
    sampled = 0
    while sampled < 2000:
        ground = rng.randint(5, 6)
        count = rng.randint(1, 4)
        family = set()
        while len(family) < count:
            mask = rng.randrange(1, 2 ** ground)
            family.add(tuple(i + 1 for i in range(ground) if mask >> i & 1))
        k = rng.randint(1, count)
        sampled += 1
        if not reduction_case_ok(CoverageProblem(tuple(family), k)):
            bad += 1
    ok = bad == 0
    verdict(
        8,
        ok,
        f"{exhaustive} exhaustive + {sampled} sampled reduction cases agree",
        t0,
    )
    assert ok


def test_criterion_09_seven_scripted_moves_return_to_start():
    t0 = time.perf_counter()
    ex = example_instance("fig7")
    w = ex.instance
    start = ex.profiles["start"]
    block = run_dynamics(w, start, policy="scripted", script=ex.script)
    improving = len(block.moves) == 7 and all(
        m.utility_after > m.utility_before for m in block.moves
    )
    # one pass hands x y's contents, y z's and z x's
    rotation = {0: 1, 1: 2, 2: 0}
    start_sig = state_signature(w, start)
    end_sig = state_signature(w, block.states[-1])
    rotated = all(end_sig[loc] == start_sig[rotation[loc]] for loc in range(3))
    # a relabeling that maps every range onto itself is a symmetry of the
    # instance, so the rotated copy is the start under new location names
    symmetric = all(
        {rotation[loc] for loc in allowed} == set(allowed)
        for allowed in w.instance.bakers
    )
    cycle = run_dynamics(w, start, policy="scripted", script=fig7_cycle_script())
    closed = (
        cycle.status == "cycle-detected"
        and cycle.revisit_index == 0
        and len(cycle.moves) == 21
        and all(m.utility_after > m.utility_before for m in cycle.moves)
        and state_signature(w, cycle.states[-1]) == start_sig
    )
    ok = improving and rotated and symmetric and closed
    verdict(
        9,
        ok,
        "7 moves improve: %s, rotated copy after 7: %s, rotation fixes every "
        "range: %s, exact start after 21: %s"
        % (improving, rotated, symmetric, closed),
        t0,
    )
    assert improving, "the scripted block must be 7 strictly improving moves"
    assert rotated, "one pass must leave the start rotated by x<-y, y<-z, z<-x"
    assert symmetric, "the rotation must map every baker's range onto itself"
    assert closed, "three relabeled passes must return to the exact start"


def test_criterion_10_welfare_identities_on_all_equilibria(corpus, oracled):
    t0 = time.perf_counter()
    checked = 0
    bad = 0
    for inst, report in zip(corpus, oracled):
        for prof in report.equilibria:
            checked += 1
            occ = occupancy(inst, prof)
            miller_sum = sum(
                (miller_utility(inst, prof, m) for m in range(inst.num_millers)),
                Fraction(0),
            )
            millered_mass = sum(
                occ.bakers_at[loc]
                for loc in range(inst.num_locations)
                if occ.millers_at[loc]
            )
            if miller_sum != millered_mass:
                bad += 1
                continue
            baker_sum = sum(
                (baker_utility(inst, prof, b) for b in range(inst.num_bakers)),
                Fraction(0),
            )
            strays = sum(
                occ.millers_at[loc]
                for loc in range(inst.num_locations)
                if occ.bakers_at[loc] == 0
            )
            if strays == 0:
                if baker_sum != inst.num_millers:
                    bad += 1
            else:
                # per-location form: each baker-occupied location contributes
                # exactly its miller count to the sum
                if baker_sum != inst.num_millers - strays:
                    bad += 1
    ok = bad == 0
    verdict(10, ok, f"utility identities hold on {checked} equilibria", t0)
    assert ok
