"""Reference dynamics for tests: the step loop that rebuilds everything.

Each step recomputes both sides' per-location weight sums, "best" builds
and subtracts a ``Fraction`` for every improving candidate, and every move
rebuilds the whole state signature with ``state_signature``. That costs
O(n + m) per move on top of the scan, but it shares no incremental state
with ``bakermill.dynamics.run_dynamics``, which keeps the sums and the
signature across steps and compares gains as integer pairs; it serves as
the ground truth for every move, state, status and revisit index. It keeps
every profile of the run as it goes and returns that list next to the
trace, so the trace's replayed ``states`` can be checked against it.
"""

from __future__ import annotations

from fractions import Fraction

from bakermill.dynamics import (
    DynamicsTrace,
    Move,
    ScriptedMove,
    ScriptError,
    WeightedInstance,
    state_signature,
)
from bakermill.model import (
    GameError,
    StrategyProfile,
    improving_moves,
    location_sums,
    validate_profile,
)


def _sides(winstance: WeightedInstance, profile: StrategyProfile):
    """Millers then bakers, each as (kind, positions, weights, targets, own
    weight sums, other side's weight sums) for `improving_moves`."""
    instance = winstance.instance
    num_locations = instance.num_locations
    baker_sum = location_sums(num_locations, profile.baker_locations, winstance.baker_weights)
    miller_sum = location_sums(num_locations, profile.miller_locations, winstance.miller_weights)
    anywhere = (range(num_locations),) * instance.num_millers
    return (
        ("miller", profile.miller_locations, winstance.miller_weights, anywhere,
         miller_sum, baker_sum),
        ("baker", profile.baker_locations, winstance.baker_weights, instance.bakers,
         baker_sum, miller_sum),
    )


def _move(kind, agent, origin, target, weight, own, other) -> Move:
    before = Fraction(other[origin], own[origin])
    after = Fraction(other[target], own[target] + weight)
    return Move(kind, agent, origin, target, before, after)


def _step(winstance: WeightedInstance, profile: StrategyProfile, policy: str) -> Move | None:
    """`step_improving` for a known policy and a profile known to fit."""
    best_move = None
    best_gain = None
    for kind, positions, weights, targets, own, other in _sides(winstance, profile):
        for agent, origin, target in improving_moves(positions, weights, targets, own, other):
            move = _move(kind, agent, origin, target, weights[agent], own, other)
            if policy == "first":
                return move
            gain = move.utility_after - move.utility_before
            if best_gain is None or gain > best_gain:
                best_move, best_gain = move, gain
    return best_move


def _apply_scripted(winstance, profile, scripted: ScriptedMove) -> Move:
    instance = winstance.instance
    names = instance.locations
    if scripted.kind not in ("baker", "miller"):
        raise ScriptError(f"unknown agent kind {scripted.kind!r}")
    for loc in (scripted.origin, scripted.target):
        if not 0 <= loc < instance.num_locations:
            raise ScriptError(f"unknown location index {loc}")
    if scripted.origin == scripted.target:
        raise ScriptError("a move must change location")

    miller_side, baker_side = _sides(winstance, profile)
    kind, positions, weights, _, own, other = (
        miller_side if scripted.kind == "miller" else baker_side
    )
    agent = None
    for a, loc in enumerate(positions):
        if loc == scripted.origin and (scripted.weight is None or weights[a] == scripted.weight):
            agent = a
            break
    if agent is None:
        detail = "" if scripted.weight is None else f" of weight {scripted.weight}"
        raise ScriptError(
            f"no {scripted.kind}{detail} at {names[scripted.origin]!r}"
        )
    if scripted.kind == "baker" and scripted.target not in instance.bakers[agent]:
        raise ScriptError(
            f"baker {agent} may not move to {names[scripted.target]!r}"
        )

    origin, target, weight = scripted.origin, scripted.target, weights[agent]
    move = _move(kind, agent, origin, target, weight, own, other)
    if not any(improving_moves((origin,), (weight,), ((target,),), own, other)):
        raise ScriptError(
            f"{kind} move {names[origin]!r} -> {names[target]!r} is not improving "
            f"({move.utility_before} -> {move.utility_after})"
        )
    return move


def _apply(profile: StrategyProfile, move: Move) -> StrategyProfile:
    if move.kind == "miller":
        millers = list(profile.miller_locations)
        millers[move.agent] = move.target
        return StrategyProfile(profile.baker_locations, tuple(millers))
    bakers = list(profile.baker_locations)
    bakers[move.agent] = move.target
    return StrategyProfile(tuple(bakers), profile.miller_locations)


def run_dynamics(
    winstance: WeightedInstance,
    start: StrategyProfile,
    policy: str = "first",
    step_budget: int = 1000,
    script=None,
) -> tuple[DynamicsTrace, tuple[StrategyProfile, ...]]:
    """Iterate improving moves until stability, a revisit, or the budget;
    returns the trace and every profile of the run, the start first.

    A start that does not fit the instance raises InvalidProfileError.
    With ``policy="scripted"`` the moves come from ``script`` (at most
    ``step_budget`` of them); a non-improving or unresolvable scripted move
    raises ScriptError naming the offending step. A revisit means the
    current canonical state equals an earlier one exactly.
    """
    validate_profile(winstance.instance, start)
    if step_budget < 1:
        raise GameError("step budget must be positive")
    if policy == "scripted":
        if script is None:
            raise GameError("policy 'scripted' needs a script")
        steps = list(script)[:step_budget]
    elif policy in ("first", "best"):
        steps = range(step_budget)
    else:
        raise GameError(f"unknown policy {policy!r}")

    profile = start
    states = [start]
    moves: list[Move] = []
    seen = {state_signature(winstance, start): 0}
    status = None
    revisit = None
    for k, step in enumerate(steps):
        if policy == "scripted":
            try:
                move = _apply_scripted(winstance, profile, step)
            except ScriptError as exc:
                raise ScriptError(f"script step {k + 1}: {exc}") from None
        else:
            move = _step(winstance, profile, policy)
        if move is None:
            status = "converged-to-NE"
            break
        profile = _apply(profile, move)
        moves.append(move)
        states.append(profile)
        sig = state_signature(winstance, profile)
        if sig in seen:
            status = "cycle-detected"
            revisit = seen[sig]
            break
        seen[sig] = len(states) - 1
    if status is None:
        if _step(winstance, profile, "first") is None:
            status = "converged-to-NE"
        else:
            status = "step-budget-exhausted"
    return DynamicsTrace(start, tuple(moves), status, revisit), tuple(states)
