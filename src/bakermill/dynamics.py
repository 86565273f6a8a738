"""Improving-response dynamics, including the weighted variant of the game.

Weights enter symmetrically: a baker's utility is the miller weight sum at
her location over the baker weight sum there (herself included), and the
mirror image for millers. Unit weights reproduce the plain game exactly.

States are compared with agent identities forgotten: per location, the
sorted multiset of baker weights and of miller weights. Interchangeable
agents therefore cannot mask a revisit, while distinct locations are never
conflated (ranges make locations genuinely different in general).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import (
    GameError,
    Instance,
    StrategyProfile,
    _is_int,
    improving_moves,
    location_sums,
    validate_profile,
)


class ScriptError(GameError):
    pass


@dataclass(frozen=True)
class WeightedInstance:
    instance: Instance
    baker_weights: tuple[int, ...]
    miller_weights: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "baker_weights", tuple(self.baker_weights))
        object.__setattr__(self, "miller_weights", tuple(self.miller_weights))
        if len(self.baker_weights) != self.instance.num_bakers:
            raise GameError("need exactly one weight per baker")
        if len(self.miller_weights) != self.instance.num_millers:
            raise GameError("need exactly one weight per miller")
        if not all(_is_int(w) and w >= 1 for w in self.baker_weights + self.miller_weights):
            raise GameError("weights must be positive integers")

    @classmethod
    def uniform(cls, instance: Instance) -> "WeightedInstance":
        """The plain game viewed as a weighted one (all weights 1)."""
        return cls(instance, (1,) * instance.num_bakers, (1,) * instance.num_millers)

    @property
    def is_uniform(self) -> bool:
        return set(self.baker_weights) == {1} and set(self.miller_weights) == {1}


@dataclass(frozen=True)
class Move:
    kind: str        # "baker" or "miller"
    agent: int
    origin: int
    target: int
    utility_before: Fraction
    utility_after: Fraction


@dataclass(frozen=True)
class ScriptedMove:
    """A move request by kind, endpoints and mover weight (agent ids resolve
    at run time: the lowest-id matching agent moves)."""

    kind: str
    origin: int
    target: int
    weight: int | None = None


@dataclass(frozen=True)
class DynamicsTrace:
    initial: StrategyProfile
    moves: tuple[Move, ...]
    states: tuple[StrategyProfile, ...]   # states[0] is the initial profile
    status: str    # converged-to-NE | cycle-detected | step-budget-exhausted
    revisit_index: int | None


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


def weighted_utilities(winstance: WeightedInstance, profile: StrategyProfile):
    """Per-agent utilities under weight-sum semantics, exact.

    Returns ``(baker_utilities, miller_utilities)`` indexed by agent id.
    """
    num_locations = winstance.instance.num_locations
    baker_sum = location_sums(num_locations, profile.baker_locations, winstance.baker_weights)
    miller_sum = location_sums(num_locations, profile.miller_locations, winstance.miller_weights)
    bakers = tuple(
        Fraction(miller_sum[loc], baker_sum[loc]) for loc in profile.baker_locations
    )
    millers = tuple(
        Fraction(baker_sum[loc], miller_sum[loc]) for loc in profile.miller_locations
    )
    return bakers, millers


def state_signature(winstance: WeightedInstance, profile: StrategyProfile):
    """Canonical state with agent identities forgotten, locations kept."""
    num_locations = winstance.instance.num_locations
    bakers: list[list[int]] = [[] for _ in range(num_locations)]
    millers: list[list[int]] = [[] for _ in range(num_locations)]
    for b, loc in enumerate(profile.baker_locations):
        bakers[loc].append(winstance.baker_weights[b])
    for m, loc in enumerate(profile.miller_locations):
        millers[loc].append(winstance.miller_weights[m])
    return tuple(
        (tuple(sorted(bakers[loc])), tuple(sorted(millers[loc])))
        for loc in range(num_locations)
    )


def _move(kind, agent, origin, target, weight, own, other) -> Move:
    before = Fraction(other[origin], own[origin])
    after = Fraction(other[target], own[target] + weight)
    return Move(kind, agent, origin, target, before, after)


def step_improving(
    winstance: WeightedInstance, profile: StrategyProfile, policy: str = "first"
) -> Move | None:
    """One improving move under the given policy, or None when stable.

    The fixed scan order for "first" and for tie-breaking in "best" is
    millers by id, then bakers by id, targets by ascending location index.
    A profile that does not fit the instance raises InvalidProfileError.
    """
    if policy not in ("first", "best"):
        raise GameError(f"unknown policy {policy!r}")
    validate_profile(winstance.instance, profile)
    return _step(winstance, profile, policy)


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
) -> DynamicsTrace:
    """Iterate improving moves until stability, a revisit, or the budget.

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
    return DynamicsTrace(start, tuple(moves), tuple(states), status, revisit)


def trace_lines(trace: DynamicsTrace, winstance: WeightedInstance) -> list[str]:
    """One record per move: kind, id, from, to, utility before and after."""
    from .model import format_fraction

    names = winstance.instance.locations
    return [
        " ".join(
            (
                move.kind,
                str(move.agent),
                names[move.origin],
                names[move.target],
                format_fraction(move.utility_before),
                format_fraction(move.utility_after),
            )
        )
        for move in trace.moves
    ]
