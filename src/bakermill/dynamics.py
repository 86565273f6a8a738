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

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .model import (
    GameError,
    GroupIndex,
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


def _sums(winstance: WeightedInstance, profile: StrategyProfile):
    """Per-location weight sums ``(baker_sum, miller_sum)`` of a profile."""
    num_locations = winstance.instance.num_locations
    return (
        location_sums(num_locations, profile.baker_locations, winstance.baker_weights),
        location_sums(num_locations, profile.miller_locations, winstance.miller_weights),
    )


def _sides(winstance: WeightedInstance, profile: StrategyProfile, baker_sum, miller_sum):
    """Millers then bakers, each as (kind, positions, weights, targets, own
    weight sums, other side's weight sums) for `improving_moves`."""
    instance = winstance.instance
    anywhere = (range(instance.num_locations),) * instance.num_millers
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
    baker_sum, miller_sum = _sums(winstance, profile)
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

    The fixed scan order is millers by id, then bakers by id, targets by
    ascending location index. "first" returns the first improving move in
    that order. "best" returns the move with the largest utility gain, and
    of several equal largest gains the first in that order; gains are
    compared exactly, as cross-multiplied integers.
    A profile that does not fit the instance raises InvalidProfileError.
    """
    if policy not in ("first", "best"):
        raise GameError(f"unknown policy {policy!r}")
    validate_profile(winstance.instance, profile)
    return _step(winstance, profile, policy, *_sums(winstance, profile))


def _step(winstance: WeightedInstance, profile: StrategyProfile, policy: str,
          baker_sum, miller_sum, movers=(None, None)) -> Move | None:
    """`step_improving` for a known policy, a profile known to fit and its
    per-location weight sums; ``movers`` holds the ascending miller and
    baker ids to scan, None meaning every agent of that side."""
    best = None
    # the gain other[t]/(own[t]+w) - other[l]/own[l] as num/den with den > 0;
    # every improving gain is positive, so the first candidate beats 0/1
    best_num, best_den = 0, 1
    for (kind, positions, weights, targets, own, other), agents in zip(
        _sides(winstance, profile, baker_sum, miller_sum), movers
    ):
        for agent, origin, target in improving_moves(positions, weights, targets, own, other,
                                                     agents):
            if policy == "first":
                return _move(kind, agent, origin, target, weights[agent], own, other)
            own_after = own[target] + weights[agent]
            num = other[target] * own[origin] - other[origin] * own_after
            den = own_after * own[origin]
            if num * best_den > best_num * den:
                best = (kind, agent, origin, target, weights[agent], own, other)
                best_num, best_den = num, den
    return None if best is None else _move(*best)


def _apply_scripted(winstance, profile, scripted, baker_sum, miller_sum) -> Move:
    instance = winstance.instance
    names = instance.locations
    if not isinstance(scripted, ScriptedMove):
        raise ScriptError(f"expected a ScriptedMove, got {scripted!r}")
    if scripted.kind not in ("baker", "miller"):
        raise ScriptError(f"unknown agent kind {scripted.kind!r}")
    for loc in (scripted.origin, scripted.target):
        if not _is_int(loc) or not 0 <= loc < instance.num_locations:
            raise ScriptError(f"unknown location index {loc!r}")
    if scripted.weight is not None and not (_is_int(scripted.weight) and scripted.weight >= 1):
        raise ScriptError(f"weight must be None or a positive int, got {scripted.weight!r}")
    if scripted.origin == scripted.target:
        raise ScriptError("a move must change location")

    miller_side, baker_side = _sides(winstance, profile, baker_sum, miller_sum)
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


def _shift(sums, cells, weight, origin, target) -> None:
    """Move one agent of ``weight`` from ``origin`` to ``target`` in one
    side's weight sums and sorted weight tuples; no other location changes."""
    sums[origin] -= weight
    sums[target] += weight
    here = cells[origin]
    i = bisect_left(here, weight)
    cells[origin] = here[:i] + here[i + 1:]
    there = cells[target]
    i = bisect_left(there, weight)
    cells[target] = there[:i] + (weight,) + there[i:]


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
    raises ScriptError naming the offending step, and so does a script item
    that is not a ScriptedMove. A revisit means the current canonical state
    equals an earlier one exactly. ``step_budget`` must be a positive int.

    Both sides' weight sums and sorted weight tuples per location are kept
    across steps and updated at the two locations a move touches; the
    tuples, zipped, are the ``state_signature`` of the current profile.
    "first" and "best" scan only the lowest id of each `GroupIndex` group,
    kept across steps as well. Under "first" the first improving agent by id
    is such a lowest id, since a lower id of her group would have the same
    moves. Under "best" any other agent's move only ties the same move of
    her group's lowest id, which comes earlier in the scan and so is kept.
    """
    validate_profile(winstance.instance, start)
    if not _is_int(step_budget) or step_budget < 1:
        raise GameError(f"step budget must be a positive integer, got {step_budget!r}")
    if policy == "scripted":
        if script is None:
            raise GameError("policy 'scripted' needs a script")
        steps = list(script)[:step_budget]
        groups = None
    elif policy in ("first", "best"):
        steps = range(step_budget)
        groups = {
            "miller": GroupIndex(start.miller_locations, winstance.miller_weights),
            "baker": GroupIndex(start.baker_locations,
                                zip(winstance.instance.bakers, winstance.baker_weights)),
        }
    else:
        raise GameError(f"unknown policy {policy!r}")

    profile = start
    baker_sum, miller_sum = _sums(winstance, start)
    signature = state_signature(winstance, start)
    baker_cells = [bakers for bakers, _ in signature]
    miller_cells = [millers for _, millers in signature]
    states = [start]
    moves: list[Move] = []
    seen = {signature: 0}
    status = None
    revisit = None
    movers = (None, None) if groups is None else (groups["miller"].reps, groups["baker"].reps)
    for k, step in enumerate(steps):
        if policy == "scripted":
            try:
                move = _apply_scripted(winstance, profile, step, baker_sum, miller_sum)
            except ScriptError as exc:
                raise ScriptError(f"script step {k + 1}: {exc}") from None
        else:
            move = _step(winstance, profile, policy, baker_sum, miller_sum, movers)
        if move is None:
            status = "converged-to-NE"
            break
        profile = _apply(profile, move)
        moves.append(move)
        states.append(profile)
        if move.kind == "baker":
            _shift(baker_sum, baker_cells, winstance.baker_weights[move.agent],
                   move.origin, move.target)
        else:
            _shift(miller_sum, miller_cells, winstance.miller_weights[move.agent],
                   move.origin, move.target)
        if groups is not None:
            groups[move.kind].move(move.agent, move.origin, move.target)
        sig = tuple(zip(baker_cells, miller_cells))
        if sig in seen:
            status = "cycle-detected"
            revisit = seen[sig]
            break
        seen[sig] = len(states) - 1
    if status is None:
        if _step(winstance, profile, "first", baker_sum, miller_sum, movers) is None:
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
