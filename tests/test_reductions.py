"""Coverage reductions, extremal-ratio families, and the example gallery."""

import itertools
from fractions import Fraction

import pytest

from bakermill import (
    CoverageProblem,
    EXAMPLE_TAGS,
    GameError,
    Instance,
    WeightedInstance,
    coverage,
    enumerate_all_ne,
    example_instance,
    gen_poa_family,
    gen_pos_family,
    is_nash_equilibrium,
    optimal_coverage,
    oracle_report,
    reduce_to_optimal_ne_instance,
    reduce_to_optimum_instance,
    validate_profile,
)
from conftest import REDUCTIONS_SEED, fresh_rng


def best_cover(problem):
    """Exhaustive k-coverage optimum, the reference the reductions must hit."""
    return max(
        len(set().union(*sets))
        for sets in itertools.combinations(problem.sets, problem.k)
    )


# ----------------------------------------------------------------- reductions


def test_coverage_problem_validation():
    with pytest.raises(GameError):
        CoverageProblem((), 1)
    with pytest.raises(GameError):
        CoverageProblem(((1, 2), ()), 1)
    with pytest.raises(GameError):
        CoverageProblem(((1,),), 2)
    for bad in [((1, "a"),), (({"a": 1},),), ((1.5, 2),), ((True, 2),), ((1,), (2.0,))]:
        with pytest.raises(GameError, match="integers"):
            CoverageProblem(bad, 1)
    canon = CoverageProblem(((2, 1, 2), (3,)), 1)
    assert canon.sets == ((1, 2), (3,))
    assert canon.ground == (1, 2, 3)


def test_optimum_reduction_hand_example():
    problem = CoverageProblem(((1, 2), (2, 3), (3,)), 1)
    red = reduce_to_optimum_instance(problem)
    inst = red.instance
    assert inst.num_locations == 3
    assert inst.num_bakers == 3  # one per ground item
    assert inst.num_millers == 1
    # item 2 sits in the first two sets
    item_baker = red.baker_for_item(2)
    assert inst.bakers[item_baker] == (0, 1)
    opt, _ = optimal_coverage(inst)
    assert opt == best_cover(problem) == 2


def test_optimum_reduction_more_millers():
    problem = CoverageProblem(((1, 2), (2, 3), (3,)), 2)
    opt, _ = optimal_coverage(reduce_to_optimum_instance(problem).instance)
    assert opt == best_cover(problem) == 3


def test_ne_reduction_hand_example():
    problem = CoverageProblem(((1, 2), (2, 3), (3,)), 1)
    red = reduce_to_optimal_ne_instance(problem)
    inst = red.instance
    q = len(problem.ground) + 1
    assert red.dummies_per_location == q
    assert inst.num_bakers == 3 + q * inst.num_locations
    report = oracle_report(inst)
    assert report.best_ne_coverage - problem.k * q == best_cover(problem) == 2


def test_ne_reduction_millers_spread_in_best_equilibrium():
    problem = CoverageProblem(((1, 2), (3,)), 2)
    red = reduce_to_optimal_ne_instance(problem)
    report = oracle_report(red.instance)
    witness = report.best_ne_witness
    assert len(set(witness.miller_locations)) == problem.k


def test_reductions_match_exhaustive_cover_on_random_families():
    rng = fresh_rng(REDUCTIONS_SEED)
    for _ in range(25):
        num_sets = rng.randint(1, 3)
        ground = rng.randint(1, 4)
        sets = []
        for _ in range(num_sets):
            mask = rng.randrange(1, 2 ** ground)
            sets.append(tuple(i + 1 for i in range(ground) if mask >> i & 1))
        k = rng.randint(1, num_sets)
        problem = CoverageProblem(tuple(sets), k)
        expect = best_cover(problem)
        opt, _ = optimal_coverage(reduce_to_optimum_instance(problem).instance)
        assert opt == expect
        red = reduce_to_optimal_ne_instance(problem)
        report = oracle_report(red.instance)
        assert report.best_ne_coverage == expect + k * red.dummies_per_location


# ------------------------------------------------------------------- families


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_poa_family_ratio_is_baker_count(m):
    inst, profiles = gen_poa_family(m)
    assert inst.num_bakers == m
    report = oracle_report(inst)
    assert report.poa == Fraction(m)
    assert is_nash_equilibrium(inst, profiles["worst_ne"])
    assert coverage(inst, profiles["worst_ne"]) == 1
    assert coverage(inst, profiles["optimum"]) == m


@pytest.mark.parametrize("n,q", [(1, 2), (2, 2), (1, 3), (2, 3)])
def test_pos_family_ratio_formula(n, q):
    inst, profiles = gen_pos_family(n, q, q)
    report = oracle_report(inst)
    assert report.pos == 1 + Fraction(n * (q - 1), q * n + 1)
    assert len(report.equilibria) == 1
    assert report.equilibria[0] == profiles["ne"]
    assert coverage(inst, profiles["optimum"]) == report.opt_coverage


def test_pos_family_fig5_numbers():
    inst, profiles = gen_pos_family(2, 3, 3)
    assert inst.locations == ("x", "l2", "l3")
    assert inst.num_bakers == 11  # hub of 7 plus 2 on each outer location
    report = oracle_report(inst)
    assert report.opt_coverage == 11
    assert report.best_ne_coverage == 7
    assert report.pos == Fraction(11, 7)


def test_family_generators_reject_bad_parameters():
    with pytest.raises(GameError):
        gen_poa_family(0)
    with pytest.raises(GameError):
        gen_pos_family(0, 3, 3)


# ------------------------------------------------------------- example gallery


def test_gallery_tags_and_validity():
    assert EXAMPLE_TAGS == ("fig1", "fig2", "fig3", "fig6", "fig7")
    for tag in EXAMPLE_TAGS:
        ex = example_instance(tag)
        inst = ex.instance
        base = inst.instance if isinstance(inst, WeightedInstance) else inst
        assert isinstance(base, Instance)
        for profile in ex.profiles.values():
            validate_profile(base, profile)


def test_gallery_rejects_unknown_tag():
    with pytest.raises(GameError):
        example_instance("fig99")


def test_fig6_carries_a_miller_placement():
    ex = example_instance("fig6")
    assert ex.miller_profile == (0, 1, 1)
    assert ex.instance.num_millers == 3


def test_fig7_is_weighted():
    ex = example_instance("fig7")
    assert isinstance(ex.instance, WeightedInstance)
    assert ex.instance.baker_weights == (5, 8, 8, 5, 6)
    assert ex.instance.miller_weights == (1,) * 12
    assert not ex.instance.is_uniform
    assert len(ex.script) == 7


def test_fig1_fig2_equilibrium_status_of_drawn_states():
    ex1 = example_instance("fig1")
    assert not is_nash_equilibrium(ex1.instance, ex1.profiles["left"])
    assert is_nash_equilibrium(ex1.instance, ex1.profiles["right"])
    ex2 = example_instance("fig2")
    assert is_nash_equilibrium(ex2.instance, ex2.profiles["left"])
    assert is_nash_equilibrium(ex2.instance, ex2.profiles["right"])
    assert set(enumerate_all_ne(ex2.instance)) == set(ex2.profiles.values())
