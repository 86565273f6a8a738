"""Phase 3: the rebalancer reaches the potential maximum, exactly as the
general min-cost flow in reference_flow.py would.

The brute-force checks pin the potential; the differential checks pin the
profile itself, tie-breaks included, against the reference flow on the
full network (every parallel sink arc, a Bellman-Ford start).
"""

import heapq
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bakermill import solver
from bakermill import (
    GameError,
    Instance,
    brute_potential_max,
    compute_equilibrium,
    example_instance,
    phase1_concentrate,
    phase2_insert_millers,
    phase3_rebalance,
    potential_value,
)
from conftest import FLOW_SEED, fresh_rng, random_instance
from reference_flow import build_potential_network, extract_baker_profile, min_cost_flow

DIFFERENTIAL_SEED = FLOW_SEED + 4
SMALL_TRIALS = 2_000
MEDIUM_TRIALS = 200
TIED_TRIALS = 600


def reference_profile(inst, millers):
    network, _ = build_potential_network(inst, millers)
    return extract_baker_profile(inst, min_cost_flow(network, inst.num_bakers))


def test_fig6_rebalance_finds_potential_maximizer():
    # millers x:1, y:2, z:0; baker 0 may use x or y, baker 1 only z. Baker 0
    # earns 2 at y against 1 at x, baker 1 adds 0 at z: potential 2.
    ex = example_instance("fig6")
    profile = phase3_rebalance(ex.instance, ex.miller_profile)
    assert profile == (1, 2)
    assert potential_value(ex.instance, ex.miller_profile, profile) == Fraction(2)


def test_rebalance_matches_brute_force_potential():
    rng = fresh_rng(FLOW_SEED + 2)
    for _ in range(300):
        inst = random_instance(rng)
        millers = tuple(
            sorted(rng.randrange(inst.num_locations) for _ in range(inst.num_millers))
        )
        profile = phase3_rebalance(inst, millers)
        best_phi, witness = brute_potential_max(inst, millers)
        assert potential_value(inst, millers, profile) == best_phi
        assert potential_value(inst, millers, witness) == best_phi


def test_rebalanced_profile_respects_ranges():
    rng = fresh_rng(FLOW_SEED + 3)
    for _ in range(100):
        inst = random_instance(rng)
        millers = tuple(
            rng.randrange(inst.num_locations) for _ in range(inst.num_millers)
        )
        profile = phase3_rebalance(inst, millers)
        assert len(profile) == inst.num_bakers
        for baker, loc in enumerate(profile):
            assert loc in inst.bakers[baker]


def test_miller_at_unknown_location_is_a_game_error():
    inst = example_instance("fig6").instance
    for millers in [(0, 1, 3), (-1, 0, 0)]:
        with pytest.raises(GameError, match="unknown location"):
            phase3_rebalance(inst, millers)


def test_rebalance_matches_reference_flow_profiles():
    # Random millers include empty locations and locations no baker can
    # reach; solver millers are the placements phase 3 sees in practice.
    # The tied shape deals the millers round the locations (i % q) over
    # ranges as wide as q, so many locations offer equal shares and the
    # heap's tie rule decides most paths.
    rng = fresh_rng(DIFFERENTIAL_SEED)
    shapes = [(SMALL_TRIALS, "mixed", dict(max_bakers=7, max_locations=5, max_millers=4)),
              (MEDIUM_TRIALS, "mixed", dict(max_bakers=40, max_locations=12, max_millers=8)),
              (TIED_TRIALS, "tied", dict(max_bakers=12, max_locations=6, max_millers=12))]
    mismatches = []
    tied_first_picks = 0
    for trials, millers_from, shape in shapes:
        for trial in range(trials):
            inst = random_instance(rng, **shape)
            q = inst.num_locations
            if millers_from == "tied":
                millers = tuple(i % q for i in range(inst.num_millers))
                tied_first_picks += inst.num_millers % q == 0 and q > 1
            elif trial % 2:
                greedy, phase1 = phase1_concentrate(inst)
                millers = phase2_insert_millers(inst, phase1, greedy)
            else:
                millers = tuple(rng.randrange(q) for _ in range(inst.num_millers))
            if phase3_rebalance(inst, millers) != reference_profile(inst, millers):
                mismatches.append((inst, millers))
    assert mismatches == []
    assert tied_first_picks >= 50   # every location ties for the first baker


@pytest.mark.parametrize("shape", ["subset", "ring"])
def test_rebalance_keeps_the_scale_script_hashes(monkeypatch, shape):
    # The smallest cases of scripts/phase3_scale.py, whose hashes were
    # recorded from the rebalancer that ran every search to the end.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "scripts"))
    from phase3_scale import EXPECTED, build, profile_hash

    inst = build(1000, 50, shape)
    greedy, phase1 = phase1_concentrate(inst)
    millers = phase2_insert_millers(inst, phase1, greedy)
    bakers = phase3_rebalance(inst, millers)
    assert profile_hash(bakers, millers) == EXPECTED[f"1000x50:{shape}"]


def test_sink_starts_below_every_share():
    # The smallest case where a sink starting at potential 0 goes wrong: the
    # first search then sees arcs into the sink of negative reduced cost, so
    # it stops after popping b (1 miller) and never pops g (2 millers).
    inst = Instance(tuple("abcdefg"), 6, ((1, 2, 3, 6),))
    assert phase3_rebalance(inst, (3, 0, 6, 1, 6, 5)) == (6,)


def test_searches_stop_once_the_best_share_reaches_the_last(monkeypatch):
    # Heap pops over a whole solve. Every search run to the end of the
    # reachable locations pops 10, 7, 18 and 4; the early stop saves the rest.
    pops = 0

    def counting_heappop(heap):
        nonlocal pops
        pops += 1
        return heapq.heappop(heap)

    monkeypatch.setattr(solver, "heappop", counting_heappop)
    counts = {}
    for tag in ("fig1", "fig2", "fig3", "fig6"):
        pops = 0
        compute_equilibrium(example_instance(tag).instance)
        counts[tag] = pops
    assert counts == {"fig1": 9, "fig2": 6, "fig3": 15, "fig6": 2}


@st.composite
def instances_with_millers(draw):
    num_locations = draw(st.integers(1, 4))
    location = st.integers(0, num_locations - 1)
    ranges = draw(st.lists(st.sets(location, min_size=1), min_size=1, max_size=5))
    millers = draw(st.lists(location, min_size=1, max_size=3))
    names = tuple("abcd"[:num_locations])
    return Instance(names, len(millers), tuple(tuple(r) for r in ranges)), tuple(millers)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(instances_with_millers())
def test_rebalance_reaches_potential_maximum_property(case):
    inst, millers = case
    profile = phase3_rebalance(inst, millers)
    best_phi, _ = brute_potential_max(inst, millers)
    assert potential_value(inst, millers, profile) == best_phi
    assert compute_equilibrium(inst).is_ne
