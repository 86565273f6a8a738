"""Improving-response dynamics on weighted instances.

The headline fact: on the weighted fig7 instance the scripted improving
moves come back to the exact starting state after three passes (21 moves),
while a single 7-move pass lands on a location-rotated copy of the start.
"""

import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bakermill import (
    GameError,
    Instance,
    InvalidProfileError,
    ScriptError,
    ScriptedMove,
    StrategyProfile,
    WeightedInstance,
    baker_utility,
    example_instance,
    fig7_cycle_script,
    is_baker_equilibrium,
    is_miller_equilibrium,
    is_nash_equilibrium,
    miller_utility,
    run_dynamics,
    state_signature,
    step_improving,
    trace_lines,
    weighted_utilities,
)
from conftest import DYNAMICS_SEED, fresh_rng, random_instance, random_profile


@pytest.fixture
def fig7():
    return example_instance("fig7")


def test_fig7_start_utilities(fig7):
    w = fig7.instance
    bakers, millers = weighted_utilities(w, fig7.profiles["start"])
    # bakers 0 and 1 (weights 5 and 8) share x with miller weight 6 there
    assert bakers[0] == Fraction(6, 13)
    assert bakers[1] == Fraction(6, 13)
    assert millers[0] == Fraction(13, 6)


def test_uniform_weights_match_unweighted_model():
    rng = fresh_rng(DYNAMICS_SEED)
    for _ in range(100):
        inst = random_instance(rng)
        w = WeightedInstance.uniform(inst)
        assert w.is_uniform
        prof = random_profile(rng, inst)
        bakers, millers = weighted_utilities(w, prof)
        assert list(bakers) == [
            baker_utility(inst, prof, b) for b in range(inst.num_bakers)
        ]
        assert list(millers) == [
            miller_utility(inst, prof, m) for m in range(inst.num_millers)
        ]


def test_state_signature_ignores_agent_identity(fig7):
    w = fig7.instance
    start = fig7.profiles["start"]
    # bakers 0 and 3 both weigh 5; swapping them changes nothing
    swapped = list(start.baker_locations)
    swapped[0], swapped[3] = swapped[3], swapped[0]
    assert state_signature(w, StrategyProfile(tuple(swapped), start.miller_locations)) == (
        state_signature(w, start)
    )
    # locations stay distinct: shifting a miller does change the signature
    moved = list(start.miller_locations)
    moved[0] = 1
    assert state_signature(w, StrategyProfile(start.baker_locations, tuple(moved))) != (
        state_signature(w, start)
    )


def test_first_improving_scans_millers_before_bakers():
    ex = example_instance("fig1")
    w = WeightedInstance.uniform(ex.instance)
    move = step_improving(w, ex.profiles["left"], policy="first")
    assert (move.kind, move.agent, move.origin, move.target) == ("miller", 0, 0, 1)
    assert move.utility_before == 0
    assert move.utility_after == Fraction(3, 2)


def test_best_improving_picks_largest_gain():
    ex = example_instance("fig1")
    w = WeightedInstance.uniform(ex.instance)
    move = step_improving(w, ex.profiles["left"], policy="best")
    # miller 0 gains 3/2 by joining y; no other agent gains more
    assert (move.kind, move.agent, move.target) == ("miller", 0, 1)


def test_step_improving_none_at_equilibrium():
    ex = example_instance("fig1")
    w = WeightedInstance.uniform(ex.instance)
    assert step_improving(w, ex.profiles["right"], policy="first") is None


def test_scripted_first_move_utilities(fig7):
    w = fig7.instance
    trace = run_dynamics(
        w, fig7.profiles["start"], policy="scripted", script=fig7.script[:1]
    )
    move = trace.moves[0]
    assert (move.kind, move.origin, move.target) == ("miller", 0, 2)
    assert move.utility_before == Fraction(13, 6)
    assert move.utility_after == Fraction(11, 5)


def test_scripted_block_rotates_the_state(fig7):
    w = fig7.instance
    trace = run_dynamics(
        w, fig7.profiles["start"], policy="scripted", script=fig7.script
    )
    assert len(trace.moves) == 7
    assert all(m.utility_after > m.utility_before for m in trace.moves)
    assert trace.revisit_index is None
    start_sig = state_signature(w, trace.states[0])
    end_sig = state_signature(w, trace.states[-1])
    assert end_sig != start_sig
    # the pass relabels locations cyclically: x's new contents are y's old
    rotation = {0: 1, 1: 2, 2: 0}
    assert all(end_sig[loc] == start_sig[rotation[loc]] for loc in range(3))


def test_fig7_cycle_closes_after_three_passes(fig7):
    w = fig7.instance
    script = fig7_cycle_script()
    assert len(script) == 21
    trace = run_dynamics(w, fig7.profiles["start"], policy="scripted", script=script)
    assert trace.status == "cycle-detected"
    assert trace.revisit_index == 0
    assert len(trace.moves) == 21
    assert all(m.utility_after > m.utility_before for m in trace.moves)
    assert state_signature(w, trace.states[-1]) == state_signature(w, trace.states[0])


def _shift(sig, side, weight, origin, target):
    """``sig`` with one agent of ``weight`` moved; side 0 bakers, 1 millers."""
    cells = [[list(bakers), list(millers)] for bakers, millers in sig]
    cells[origin][side].remove(weight)
    cells[target][side].append(weight)
    return tuple((tuple(sorted(b)), tuple(sorted(m))) for b, m in cells)


def _improving_successors(sig, baker_ranges):
    """Every signature one strictly improving move away from ``sig``."""
    baker_sum = [sum(bakers) for bakers, _ in sig]
    miller_sum = [sum(millers) for _, millers in sig]
    found = set()
    for loc, (bakers, millers) in enumerate(sig):
        for weight in set(millers):
            before = Fraction(baker_sum[loc], miller_sum[loc])
            for target in range(len(sig)):
                after = Fraction(baker_sum[target], miller_sum[target] + weight)
                if target != loc and after > before:
                    found.add(_shift(sig, 1, weight, loc, target))
        for weight in set(bakers):
            before = Fraction(miller_sum[loc], baker_sum[loc])
            for target in baker_ranges[weight]:
                after = Fraction(miller_sum[target], baker_sum[target] + weight)
                if target != loc and after > before:
                    found.add(_shift(sig, 0, weight, loc, target))
    return found


def test_fig7_no_shorter_walk_returns_to_start(fig7):
    # exhaustive count of improving walks over canonical signatures; the
    # signature forgets which baker is which, so equal weights must share
    # a range for a baker's range to be read off her weight
    w = fig7.instance
    baker_ranges = {}
    for weight, allowed in zip(w.baker_weights, w.instance.bakers):
        assert baker_ranges.setdefault(weight, allowed) == allowed
    start = state_signature(w, fig7.profiles["start"])
    relabeled = [
        tuple(start[perm[loc]] for loc in range(3))
        for perm in itertools.permutations(range(3))
        if perm != (0, 1, 2)
    ]
    block_end = state_signature(
        w,
        run_dynamics(
            w, fig7.profiles["start"], policy="scripted", script=fig7.script
        ).states[-1],
    )
    walks = Counter({start: 1})  # signature -> number of walks ending there
    for length in range(1, 22):
        grown = Counter()
        for sig, count in walks.items():
            for nxt in _improving_successors(sig, baker_ranges):
                grown[nxt] += count
        walks = grown
        if length < 21:
            assert walks[start] == 0, f"a {length}-move walk returns to the start"
        if length == 7:
            # one walk in all onto any relabeled copy, and the scripted block
            # is such a walk, so it is that walk
            assert sum(walks[copy] for copy in relabeled) == 1
            assert walks[block_end] == 1 and block_end in relabeled
    assert walks[start] == 1  # the three relabeled passes of the block


def test_trace_lines_format(fig7):
    w = fig7.instance
    trace = run_dynamics(
        w, fig7.profiles["start"], policy="scripted", script=fig7.script
    )
    lines = trace_lines(trace, w)
    assert lines[0] == "miller 0 x z 13/6 11/5"
    assert lines[1] == "baker 2 y z 1/4 5/19"
    assert len(lines) == 7


def test_consecutive_states_differ_by_one_agent(fig7):
    w = fig7.instance
    trace = run_dynamics(
        w, fig7.profiles["start"], policy="scripted", script=fig7_cycle_script()
    )
    for before, after in zip(trace.states, trace.states[1:]):
        diffs = sum(
            1
            for a, b in zip(
                before.baker_locations + before.miller_locations,
                after.baker_locations + after.miller_locations,
            )
            if a != b
        )
        assert diffs == 1


def test_script_errors_name_the_step(fig7):
    w = fig7.instance
    start = fig7.profiles["start"]
    # no miller of weight 9 exists anywhere
    bad = (ScriptedMove("miller", 0, 2, 9),)
    with pytest.raises(ScriptError, match="step 1"):
        run_dynamics(w, start, policy="scripted", script=bad)
    # the weight-8 baker on y would drop from 1/4 to 4/19 by moving to z
    losing = (ScriptedMove("baker", 1, 2, 8),)
    with pytest.raises(ScriptError, match="not improving"):
        run_dynamics(w, start, policy="scripted", script=losing)


def test_scripted_move_must_respect_baker_range():
    ex = example_instance("fig2")
    w = WeightedInstance.uniform(ex.instance)
    start = ex.profiles["left"]
    # bakers at x are pinned there except baker 2; ask for an impossible hop
    bad = (ScriptedMove("baker", 1, 0, 1),)
    with pytest.raises(ScriptError):
        run_dynamics(w, start, policy="scripted", script=bad)


def test_start_at_equilibrium_converges_immediately():
    ex = example_instance("fig1")
    w = WeightedInstance.uniform(ex.instance)
    trace = run_dynamics(w, ex.profiles["right"], policy="first")
    assert trace.status == "converged-to-NE"
    assert trace.moves == ()
    assert trace.states == (ex.profiles["right"],)


def test_unweighted_best_response_converges():
    # empirical on fixed seeds: uniform weights, best-improving, small sizes
    rng = fresh_rng(DYNAMICS_SEED + 1)
    for _ in range(50):
        inst = random_instance(rng, max_bakers=5, max_locations=3, max_millers=2)
        w = WeightedInstance.uniform(inst)
        start = random_profile(rng, inst)
        trace = run_dynamics(w, start, policy="best", step_budget=500)
        assert trace.status == "converged-to-NE"
        assert is_nash_equilibrium(inst, trace.states[-1])


def test_run_dynamics_rejects_a_start_that_does_not_fit():
    w = WeightedInstance.uniform(Instance(("x", "y", "z"), 1, ((0,), (0, 1))))
    for start, needle in [
        (StrategyProfile((2, 2), (0,)), "baker 0 may not choose"),  # outside her range
        (StrategyProfile((0,), (0,)), "expected 2 baker locations"),
        (StrategyProfile((0, 1), (5,)), "unknown location index 5"),
    ]:
        with pytest.raises(InvalidProfileError, match=needle):
            run_dynamics(w, start)


def test_step_improving_knows_only_first_and_best():
    ex = example_instance("fig2")
    with pytest.raises(GameError, match="unknown policy 'scripted'"):
        step_improving(WeightedInstance.uniform(ex.instance), ex.profiles["left"], "scripted")


def test_step_budget_halts_run(fig7):
    w = fig7.instance
    trace = run_dynamics(
        w,
        fig7.profiles["start"],
        policy="scripted",
        script=fig7_cycle_script(),
        step_budget=5,
    )
    assert trace.status == "step-budget-exhausted"
    assert len(trace.moves) == 5


def test_first_improving_sidesteps_the_cycle(fig7):
    # left to its own devices the same start stabilizes in a single move;
    # the cycling script exists precisely because it overrides that choice
    w = fig7.instance
    trace = run_dynamics(w, fig7.profiles["start"], policy="first")
    assert trace.status == "converged-to-NE"
    assert len(trace.moves) == 1
    move = trace.moves[0]
    assert (move.kind, move.agent, move.origin, move.target) == ("miller", 0, 0, 1)


def test_weighted_instance_validation():
    ex = example_instance("fig2")
    with pytest.raises(Exception):
        WeightedInstance(ex.instance, (1, 1, 1), (1, 1))  # wrong baker count
    with pytest.raises(Exception):
        WeightedInstance(ex.instance, (1, 1, 1, 0), (1, 1))  # zero weight
    for baker_weights, miller_weights in [
        ((1, 1, 1, 1.5), (1, 1)),
        ((1, 1, 1, 2.0), (1, 1)),
        ((1, 1, True, 1), (1, 1)),
        ((1, 1, 1, 1), (True, 1)),
        ((1, 1, 1, 1), (1, "2")),
    ]:
        with pytest.raises(GameError):
            WeightedInstance(ex.instance, baker_weights, miller_weights)
    with pytest.raises(GameError):
        WeightedInstance(Instance(("x", "y"), 1, ((0, 1),)), (1.5,), (True,))


# ------------------------------------------- improving moves against references


@st.composite
def instances_with_profiles(draw):
    num_locations = draw(st.integers(1, 4))
    location = st.integers(0, num_locations - 1)
    ranges = draw(st.lists(st.sets(location, min_size=1), min_size=1, max_size=5))
    ranges = tuple(tuple(sorted(r)) for r in ranges)
    millers = tuple(draw(st.lists(location, min_size=1, max_size=3)))
    bakers = tuple(draw(st.sampled_from(r)) for r in ranges)
    inst = Instance(tuple("abcd"[:num_locations]), len(millers), ranges)
    return inst, StrategyProfile(bakers, millers)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(instances_with_profiles())
def test_uniform_weights_move_like_plain_game(case):
    inst, prof = case
    move = step_improving(WeightedInstance.uniform(inst), prof, policy="first")
    assert (move is None) == is_nash_equilibrium(inst, prof)
    miller_ok, miller_witness = is_miller_equilibrium(inst, prof)
    baker_ok, baker_witness = is_baker_equilibrium(inst, prof)
    if not miller_ok:
        assert (move.kind, move.agent, move.target) == ("miller", *miller_witness)
    elif not baker_ok:
        assert (move.kind, move.agent, move.target) == ("baker", *baker_witness)


def reference_improving_moves(winstance, profile):
    """Brute-force scan of every strictly improving move, utilities compared
    as Fractions: millers then bakers by id, targets ascending. Each move is
    (kind, agent, origin, target, before, after)."""
    inst = winstance.instance
    baker_sum = [0] * inst.num_locations
    miller_sum = [0] * inst.num_locations
    for b, loc in enumerate(profile.baker_locations):
        baker_sum[loc] += winstance.baker_weights[b]
    for m, loc in enumerate(profile.miller_locations):
        miller_sum[loc] += winstance.miller_weights[m]
    candidates = []
    for m, loc in enumerate(profile.miller_locations):
        w = winstance.miller_weights[m]
        for t in range(inst.num_locations):
            before = Fraction(baker_sum[loc], miller_sum[loc])
            after = Fraction(baker_sum[t], miller_sum[t] + w)
            candidates.append(("miller", m, loc, t, before, after))
    for b, loc in enumerate(profile.baker_locations):
        w = winstance.baker_weights[b]
        for t in inst.bakers[b]:
            before = Fraction(miller_sum[loc], baker_sum[loc])
            after = Fraction(miller_sum[t], baker_sum[t] + w)
            candidates.append(("baker", b, loc, t, before, after))
    return [c for c in candidates if c[2] != c[3] and c[5] > c[4]]


def test_weighted_moves_match_reference_scan():
    # pins the scan order of "first" and the strict tie rule of "best"
    # (the earliest of several equal largest gains wins)
    rng = fresh_rng(DYNAMICS_SEED + 2)
    best_ties = 0
    for _ in range(1500):
        inst = random_instance(rng, max_bakers=8, max_locations=5, max_millers=4)
        w = WeightedInstance(
            inst,
            tuple(rng.randint(1, 5) for _ in range(inst.num_bakers)),
            tuple(rng.randint(1, 5) for _ in range(inst.num_millers)),
        )
        prof = random_profile(rng, inst)
        improving = reference_improving_moves(w, prof)
        expected = {"first": None, "best": None}
        if improving:
            gains = [after - before for *_, before, after in improving]
            expected["first"] = improving[0]
            expected["best"] = improving[gains.index(max(gains))]
            best_ties += gains.count(max(gains)) > 1
        for policy, want in expected.items():
            move = step_improving(w, prof, policy=policy)
            got = None if move is None else (
                move.kind, move.agent, move.origin, move.target,
                move.utility_before, move.utility_after,
            )
            assert got == want
    assert best_ties >= 100
