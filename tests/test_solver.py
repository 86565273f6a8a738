"""Three-phase equilibrium computation and the greedy coverage routines."""

import itertools
from fractions import Fraction

import pytest

from bakermill import (
    GameError,
    Instance,
    StrategyProfile,
    brute_potential_max,
    compute_equilibrium,
    coverage,
    covered_bakers,
    example_instance,
    gen_poa_family,
    gen_pos_family,
    greedy_k_coverage,
    is_miller_equilibrium,
    is_nash_equilibrium,
    miller_utility,
    occupancy,
    optimal_coverage,
    phase1_concentrate,
    phase2_insert_millers,
    potential_value,
    stable_from_location_set,
)
from conftest import SOLVER_SEED, fresh_rng, random_instance
from reference_phase1 import reference_phase1

APPROX_NUM = 1582  # rational stand-in for e/(e-1), slightly above it
APPROX_DEN = 999


# ------------------------------------------------------------------- phase 1


def test_phase1_fig3_order_and_counts():
    inst = example_instance("fig3").instance
    greedy, bakers = phase1_concentrate(inst)
    assert greedy.order == (0, 2, 1)
    assert greedy.counts == (4, 2, 0)
    assert bakers == (0, 0, 0, 0, 2, 2)


def test_phase1_fig2():
    inst = example_instance("fig2").instance
    greedy, bakers = phase1_concentrate(inst)
    assert greedy.order == (0, 1)
    assert greedy.counts == (3, 1)
    assert bakers == (0, 0, 0, 1)


def test_phase1_tie_breaks_to_lowest_index():
    inst = Instance(("x", "y"), 1, ((0,), (1,)))
    greedy, _ = phase1_concentrate(inst)
    assert greedy.order == (0, 1)


def test_phase1_counts_are_monotone():
    rng = fresh_rng(SOLVER_SEED)
    for _ in range(200):
        greedy, _ = phase1_concentrate(random_instance(rng))
        for a, b in itertools.pairwise(greedy.counts):
            assert a >= b


def ring_instance(rng, max_bakers=20, max_locations=8):
    """Ranges are arcs of a cycle of locations: many equal counts."""
    num_locations = rng.randint(1, max_locations)
    ranges = []
    for _ in range(rng.randint(1, max_bakers)):
        start, width = rng.randrange(num_locations), rng.randint(1, num_locations)
        ranges.append(tuple((start + i) % num_locations for i in range(width)))
    names = tuple(f"r{i}" for i in range(num_locations))
    return Instance(names, rng.randint(1, 3), tuple(ranges))


def test_phase1_matches_rescanning_reference():
    rng = fresh_rng(SOLVER_SEED + 5)
    corpus = [random_instance(rng, max_bakers=12, max_locations=6) for _ in range(2000)]
    corpus += [ring_instance(rng) for _ in range(1000)]
    tied = zero_grabs = 0
    for inst in corpus:
        greedy, bakers = phase1_concentrate(inst)
        order, counts, assignment = reference_phase1(inst)
        assert (greedy.order, greedy.counts, bakers) == (order, counts, assignment)
        # phase 2's fallback rebuilds the same order from the profile alone
        assert phase2_insert_millers(inst, bakers) == phase2_insert_millers(inst, bakers, greedy)
        tied += any(a == b > 0 for a, b in itertools.pairwise(counts))
        zero_grabs += 0 in counts
    assert tied >= 200 and zero_grabs >= 200


# ------------------------------------------------------------------- phase 2


def test_phase2_fig3():
    inst = example_instance("fig3").instance
    greedy, bakers = phase1_concentrate(inst)
    millers = phase2_insert_millers(inst, bakers, greedy)
    assert millers == (0, 0, 2)


def test_phase2_fig2_stacks_both_millers():
    inst = example_instance("fig2").instance
    millers = phase2_insert_millers(inst, (0, 0, 0, 1))
    assert millers == (0, 0)


def test_phase2_result_is_miller_equilibrium():
    rng = fresh_rng(SOLVER_SEED + 1)
    for _ in range(200):
        inst = random_instance(rng)
        greedy, bakers = phase1_concentrate(inst)
        millers = phase2_insert_millers(inst, bakers, greedy)
        ok, _ = is_miller_equilibrium(inst, StrategyProfile(bakers, millers))
        assert ok


def test_phase2_unmoved_by_hypothetical_extra_miller():
    # drop in one more miller at her best response; nobody already placed
    # should find an improving move even then
    rng = fresh_rng(SOLVER_SEED + 2)
    for _ in range(100):
        inst = random_instance(rng)
        greedy, bakers = phase1_concentrate(inst)
        millers = phase2_insert_millers(inst, bakers, greedy)
        occ = occupancy(inst, StrategyProfile(bakers, millers))
        extra = max(
            range(inst.num_locations),
            key=lambda loc: Fraction(occ.bakers_at[loc], occ.millers_at[loc] + 1),
        )
        millers_at = list(occ.millers_at)
        millers_at[extra] += 1
        for loc in set(millers):
            stay = Fraction(occ.bakers_at[loc], millers_at[loc])
            for target in range(inst.num_locations):
                if target == loc:
                    continue
                move = Fraction(occ.bakers_at[target], millers_at[target] + 1)
                assert move <= stay


# ------------------------------------------------------------------- phase 3


def test_solve_fig2_keeps_concentration():
    report = compute_equilibrium(example_instance("fig2").instance)
    assert report.profile.baker_locations == (0, 0, 0, 1)
    assert report.profile.miller_locations == (0, 0)
    assert report.potential_after == Fraction(11, 3)
    assert report.potential_after >= report.potential_before
    assert report.coverage == 3
    assert report.is_ne


def test_solve_unrestricted_instance_colocates_everyone():
    inst = Instance(("x", "y", "z"), 2, ((0, 1, 2),) * 5)
    report = compute_equilibrium(inst)
    assert report.profile.baker_locations == (0,) * 5
    assert report.profile.miller_locations == (0, 0)
    assert report.coverage == 5


def test_solve_poa_family_instance():
    inst, _ = gen_poa_family(5)
    report = compute_equilibrium(inst)
    assert report.is_ne
    assert report.coverage >= 1


def test_solve_pos_family_instance():
    inst, profiles = gen_pos_family(2, 3, 3)
    report = compute_equilibrium(inst)
    assert report.is_ne
    assert report.profile.miller_locations == (0, 0, 0)
    assert report.coverage == 7
    assert report.profile == profiles["ne"]


def test_solver_output_is_always_nash():
    rng = fresh_rng(SOLVER_SEED + 3)
    for _ in range(400):
        inst = random_instance(rng)
        report = compute_equilibrium(inst)
        assert report.is_ne
        assert is_nash_equilibrium(inst, report.profile)


def test_solver_monotonicity_invariants():
    rng = fresh_rng(SOLVER_SEED + 4)
    for _ in range(200):
        inst = random_instance(rng)
        report = compute_equilibrium(inst)
        occ = occupancy(inst, report.profile)
        # millers follow the greedy order: no later location gets more
        miller_counts = [occ.millers_at[loc] for loc in report.greedy.order]
        for a, b in itertools.pairwise(miller_counts):
            assert a >= b


def test_phase3_reaches_brute_force_potential():
    rng = fresh_rng(SOLVER_SEED + 5)
    for _ in range(300):
        inst = random_instance(rng)
        report = compute_equilibrium(inst)
        millers = report.profile.miller_locations
        achieved = potential_value(inst, millers, report.profile.baker_locations)
        best, _ = brute_potential_max(inst, millers)
        assert achieved == best
        assert report.potential_after == best
        assert report.potential_after >= report.potential_before


def test_phase3_miller_utility_band_narrows():
    # rebalancing bakers never raises the best-off miller nor lowers the
    # worst-off one
    rng = fresh_rng(SOLVER_SEED + 6)
    for _ in range(200):
        inst = random_instance(rng)
        greedy, bakers = phase1_concentrate(inst)
        millers = phase2_insert_millers(inst, bakers, greedy)
        before = StrategyProfile(bakers, millers)
        report = compute_equilibrium(inst)
        assert report.profile.miller_locations == millers
        utils_before = [
            miller_utility(inst, before, m) for m in range(inst.num_millers)
        ]
        utils_after = [
            miller_utility(inst, report.profile, m) for m in range(inst.num_millers)
        ]
        assert max(utils_after) <= max(utils_before)
        assert min(utils_after) >= min(utils_before)


# -------------------------------------------------- solving on a location set


def test_stable_from_full_set_matches_plain_solve():
    rng = fresh_rng(SOLVER_SEED + 7)
    for _ in range(100):
        inst = random_instance(rng)
        every = set(range(inst.num_locations))
        assert stable_from_location_set(inst, every).profile == (
            compute_equilibrium(inst).profile
        )


def test_stable_from_full_set_on_pos_instance():
    inst, _ = gen_pos_family(2, 3, 3)
    report = stable_from_location_set(inst, {0, 1, 2})
    assert report.coverage == 7
    assert report.is_ne


def test_stable_withheld_bakers_go_to_lowest_permissible():
    inst = Instance(("x", "y", "z"), 1, ((0,), (1, 2)))
    report = stable_from_location_set(inst, {0})
    assert report.profile.baker_locations == (0, 1)
    assert report.profile.miller_locations == (0,)


def test_stable_rejects_empty_set():
    inst = example_instance("fig2").instance
    with pytest.raises(GameError):
        stable_from_location_set(inst, set())


def test_stable_on_optimal_set_is_nash_with_good_coverage():
    rng = fresh_rng(SOLVER_SEED + 8)
    for _ in range(150):
        inst = random_instance(rng)
        q = min(inst.num_locations, inst.num_millers)
        best = max(
            itertools.combinations(range(inst.num_locations), q),
            key=lambda K: covered_bakers(inst, K),
        )
        report = stable_from_location_set(inst, set(best))
        assert report.is_ne
        opt, _ = optimal_coverage(inst)
        slack = 1 + Fraction(q - 1, inst.num_millers)
        assert Fraction(report.coverage) * slack >= opt


# ------------------------------------------------------------ greedy coverage


def test_greedy_k_coverage_fig3():
    inst = example_instance("fig3").instance
    picked = greedy_k_coverage(inst, 2)
    assert tuple(picked) == (0, 2)
    assert covered_bakers(inst, picked) == 6


def test_greedy_k_coverage_poa_hub():
    inst, _ = gen_poa_family(4)
    picked = greedy_k_coverage(inst, 1)
    assert tuple(picked) == (0,)
    assert covered_bakers(inst, picked) == inst.num_bakers


def test_greedy_k_coverage_full_width():
    inst = example_instance("fig3").instance
    picked = greedy_k_coverage(inst, inst.num_locations)
    assert covered_bakers(inst, picked) == inst.num_bakers


def test_greedy_k_coverage_rejects_bad_k():
    inst = example_instance("fig3").instance
    with pytest.raises(GameError):
        greedy_k_coverage(inst, 0)
    with pytest.raises(GameError):
        greedy_k_coverage(inst, inst.num_locations + 1)


def test_greedy_k_coverage_approximation_ratio():
    # greedy * 1582/999 >= exhaustive best; the constant sits just above
    # the tight approximation factor
    rng = fresh_rng(SOLVER_SEED + 9)
    for _ in range(200):
        inst = random_instance(rng)
        for k in range(1, inst.num_locations + 1):
            greedy_cov = covered_bakers(inst, greedy_k_coverage(inst, k))
            best = max(
                covered_bakers(inst, K)
                for K in itertools.combinations(range(inst.num_locations), k)
            )
            assert greedy_cov * APPROX_NUM >= best * APPROX_DEN
