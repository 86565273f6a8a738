"""Core game model: utilities, coverage, potential, equilibrium predicates.

Hand-checked values come from the two small worked instances (fig1, fig2);
the property tests re-derive every identity from scratch with a seeded rng.
"""

from fractions import Fraction

import pytest

from bakermill import (
    Instance,
    InvalidInstanceError,
    InvalidProfileError,
    StrategyProfile,
    baker_utility,
    coverage,
    example_instance,
    format_fraction,
    harmonic,
    is_baker_equilibrium,
    is_miller_equilibrium,
    is_nash_equilibrium,
    miller_utility,
    occupancy,
    potential_value,
    validate_profile,
)
from conftest import MODEL_SEED, fresh_rng, random_instance, random_profile


def fig(tag):
    return example_instance(tag)


# ---------------------------------------------------------------- validation


def test_instance_canonicalizes_ranges():
    inst = Instance(("x", "y"), 1, ((1, 0, 1), (0,)))
    assert inst.bakers == ((0, 1), (0,))
    assert inst.num_locations == 2
    assert inst.num_bakers == 2


@pytest.mark.parametrize(
    "locations,millers,bakers",
    [
        (("x", "x"), 1, ((0,),)),  # duplicate name
        ((), 1, ()),  # no locations
        (("x",), 0, ((0,),)),  # no millers
        (("x",), 1, ((),)),  # empty range
        (("x",), 1, ((1,),)),  # index out of range
        (("x",), 1, ((-1,),)),
        (("x",), True, ((0,),)),  # bool miller count
        (("x", "y"), 1, ((True,),)),  # bool location index
        (("x",), 1, ((0.0,),)),  # float location index
        ((0, "y"), 1, ((0,),)),  # location name not a string
        (("", "y"), 1, ((0,),)),  # empty name: no file could hold it
    ],
)
def test_invalid_instances_rejected(locations, millers, bakers):
    with pytest.raises(InvalidInstanceError):
        Instance(locations, millers, bakers)


def test_profile_validation():
    inst = fig("fig2").instance
    validate_profile(inst, StrategyProfile((0, 0, 0, 1), (0, 0)))
    with pytest.raises(InvalidProfileError):
        validate_profile(inst, StrategyProfile((0, 0, 0), (0, 0)))  # short
    with pytest.raises(InvalidProfileError):
        validate_profile(inst, StrategyProfile((0, 0, 0, 0), (0, 0)))  # off-range
    with pytest.raises(InvalidProfileError):
        validate_profile(inst, StrategyProfile((0, 0, 0, 1), (0, 2)))  # bad miller


# ----------------------------------------------------------------- utilities


def test_fig2_left_utilities():
    inst = fig("fig2").instance
    left = fig("fig2").profiles["left"]
    # three bakers and both millers share x, the pinned baker sits alone on y
    assert [baker_utility(inst, left, b) for b in range(4)] == [
        Fraction(2, 3),
        Fraction(2, 3),
        Fraction(2, 3),
        Fraction(0),
    ]
    assert [miller_utility(inst, left, m) for m in range(2)] == [
        Fraction(3, 2),
        Fraction(3, 2),
    ]
    assert coverage(inst, left) == 3


def test_fig2_right_utilities():
    inst = fig("fig2").instance
    right = fig("fig2").profiles["right"]
    assert all(baker_utility(inst, right, b) == Fraction(1, 2) for b in range(4))
    assert all(miller_utility(inst, right, m) == Fraction(2) for m in range(2))
    assert coverage(inst, right) == 4


def test_fig1_left_utilities():
    inst = fig("fig1").instance
    left = fig("fig1").profiles["left"]
    assert [baker_utility(inst, left, b) for b in range(4)] == [
        Fraction(1, 3),
        Fraction(1, 3),
        Fraction(1, 3),
        Fraction(0),
    ]
    # miller 0 is alone on x with no bakers
    assert miller_utility(inst, left, 0) == 0
    assert miller_utility(inst, left, 1) == Fraction(3)


def test_occupancy_counts():
    inst = fig("fig1").instance
    occ = occupancy(inst, fig("fig1").profiles["left"])
    assert tuple(occ.bakers_at) == (0, 3, 1)
    assert tuple(occ.millers_at) == (1, 1, 0)


def test_utility_counts_self_at_target():
    # one baker pinned to x, one miller parked on y: each would gain by
    # joining the other, and the deviation value counts the mover herself
    inst = Instance(("x", "y"), 1, ((0, 1),))
    prof = StrategyProfile((0,), (1,))
    ok_b, wit_b = is_baker_equilibrium(inst, prof)
    ok_m, wit_m = is_miller_equilibrium(inst, prof)
    assert not ok_b and wit_b == (0, 1)
    assert not ok_m and wit_m == (0, 0)
    # two co-located millers with one baker: leaving would drop 1/2 -> 0
    inst2 = Instance(("x", "y"), 2, ((0,),))
    prof2 = StrategyProfile((0,), (0, 0))
    assert is_miller_equilibrium(inst2, prof2) == (True, None)


# ----------------------------------------------------- harmonic and potential


def test_harmonic_values():
    assert harmonic(0) == 0
    assert harmonic(1) == 1
    assert harmonic(4) == Fraction(25, 12)
    assert isinstance(harmonic(3), Fraction)


def test_potential_fig2():
    inst = fig("fig2").instance
    both_at_x = (0, 0)
    assert potential_value(inst, both_at_x, (0, 0, 0, 1)) == Fraction(11, 3)
    # hypothetically piling all four bakers on x scores 2*H_4
    assert potential_value(inst, both_at_x, (0, 0, 0, 0)) == Fraction(25, 6)


def test_potential_fig6():
    inst = fig("fig6").instance
    millers = fig("fig6").miller_profile
    assert potential_value(inst, millers, (1, 2)) == Fraction(2)
    assert potential_value(inst, millers, (0, 2)) == Fraction(1)


# ------------------------------------------------------ equilibrium predicates


def test_fig1_left_is_unstable_both_ways():
    inst = fig("fig1").instance
    left = fig("fig1").profiles["left"]
    ok_b, wit_b = is_baker_equilibrium(inst, left)
    assert not ok_b and wit_b == (0, 0)
    ok_m, wit_m = is_miller_equilibrium(inst, left)
    assert not ok_m and wit_m == (0, 1)
    assert not is_nash_equilibrium(inst, left)


def test_fig1_right_is_nash():
    inst = fig("fig1").instance
    right = fig("fig1").profiles["right"]
    assert is_baker_equilibrium(inst, right) == (True, None)
    assert is_miller_equilibrium(inst, right) == (True, None)
    assert is_nash_equilibrium(inst, right)


def test_fig2_both_drawn_states_are_nash():
    inst = fig("fig2").instance
    for name in ("left", "right"):
        assert is_nash_equilibrium(inst, fig("fig2").profiles[name])


def test_witness_is_first_in_scan_order():
    # two bakers could improve; the witness names the lowest baker id and,
    # for that baker, the lowest target index
    inst = Instance(("x", "y", "z"), 1, ((0, 1, 2), (0, 1, 2)))
    prof = StrategyProfile((0, 0), (1,))
    ok, wit = is_baker_equilibrium(inst, prof)
    assert not ok and wit == (0, 1)


# ------------------------------------------------------------------ properties


def test_miller_utility_sum_is_occupied_baker_mass():
    # sum of miller utilities telescopes to the bakers on millered locations
    rng = fresh_rng(MODEL_SEED)
    for _ in range(300):
        inst = random_instance(rng)
        prof = random_profile(rng, inst)
        occ = occupancy(inst, prof)
        lhs = sum(
            (miller_utility(inst, prof, m) for m in range(inst.num_millers)),
            Fraction(0),
        )
        rhs = sum(
            occ.bakers_at[loc]
            for loc in range(inst.num_locations)
            if occ.millers_at[loc] > 0
        )
        assert lhs == rhs


def test_baker_utility_sum_is_miller_count_when_covered():
    # whenever every miller stands with at least one baker the baker
    # utilities add up to exactly the number of millers
    rng = fresh_rng(MODEL_SEED + 1)
    seen = 0
    for _ in range(400):
        inst = random_instance(rng)
        prof = random_profile(rng, inst)
        occ = occupancy(inst, prof)
        if any(
            occ.millers_at[loc] > 0 and occ.bakers_at[loc] == 0
            for loc in range(inst.num_locations)
        ):
            continue
        seen += 1
        total = sum(
            (baker_utility(inst, prof, b) for b in range(inst.num_bakers)),
            Fraction(0),
        )
        assert total == inst.num_millers
    assert seen > 50


def test_coverage_matches_positive_utilities():
    rng = fresh_rng(MODEL_SEED + 2)
    for _ in range(200):
        inst = random_instance(rng)
        prof = random_profile(rng, inst)
        positive = sum(
            1 for b in range(inst.num_bakers) if baker_utility(inst, prof, b) > 0
        )
        assert coverage(inst, prof) == positive


def test_equilibrium_invariant_under_miller_permutation():
    rng = fresh_rng(MODEL_SEED + 3)
    for _ in range(100):
        inst = random_instance(rng)
        prof = random_profile(rng, inst)
        perm = list(prof.miller_locations)
        rng.shuffle(perm)
        shuffled = StrategyProfile(prof.baker_locations, tuple(perm))
        assert is_nash_equilibrium(inst, prof) == is_nash_equilibrium(inst, shuffled)
        assert coverage(inst, prof) == coverage(inst, shuffled)


def test_format_fraction():
    assert format_fraction(Fraction(3, 2)) == "3/2"
    assert format_fraction(Fraction(2)) == "2/1"
    assert format_fraction(Fraction(0)) == "0/1"
    assert format_fraction(float("inf")) == "inf"
