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

from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction

from .model import (
    GameError,
    Instance,
    StrategyProfile,
    _is_int,
    format_fraction,
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


class _Replayed:
    """`DynamicsTrace.states`: the profiles given or, by default, every
    profile of the run, rebuilt on each read from ``initial`` and ``moves``."""

    def __set__(self, trace, states):
        trace.__dict__["_states"] = states

    def __get__(self, trace, owner=None):
        if trace is None:
            return None  # the field's default
        if trace._states is not None:
            return trace._states
        bakers, millers = list(trace.initial.baker_locations), list(trace.initial.miller_locations)
        states = [trace.initial]
        for move in trace.moves:
            (bakers if move.kind == "baker" else millers)[move.agent] = move.target
            states.append(StrategyProfile(bakers, millers))
        return tuple(states)


@dataclass(frozen=True)
class DynamicsTrace:
    """A run's start, its moves and how it ended.

    ``status`` is converged-to-NE, cycle-detected or step-budget-exhausted;
    ``revisit_index`` is the index in ``states`` of the state the last move
    returned to, or None. ``states[0]`` is ``initial``; `run_dynamics`
    passes no ``states``, so a run stores no profile per step.
    """

    initial: StrategyProfile
    moves: tuple[Move, ...]
    status: str
    revisit_index: int | None
    states: tuple[StrategyProfile, ...] | None = _Replayed()


class _Side:
    """One side's state, kept across steps and updated in place by `move`.

    It holds the side's ``positions`` by agent id, its ``weights`` and
    allowed ``targets``, its per-location weight ``sums`` and, per
    location, the sorted tuple of its weights there (its ``cells``). With
    ``classes`` it also keeps ``reps``, the ascending lowest id of every
    group: the agents at one location with one fixed class, for a miller
    her weight, for a baker her range and weight. Two agents of a group
    have the same improving moves with the same gains, so scanning ``reps``
    with `improving_moves` finds each move in its first place in the full
    scan order. Without ``classes``, ``reps`` is None: scan every agent.
    """

    def __init__(self, kind, positions, weights, targets, num_locations, classes=None):
        self.kind, self.weights, self.targets = kind, weights, targets
        self.positions = list(positions)
        self.sums = location_sums(num_locations, positions, weights)
        cells: list[list[int]] = [[] for _ in range(num_locations)]
        for loc, w in zip(positions, weights):
            cells[loc].append(w)
        self.cells = [tuple(sorted(here)) for here in cells]
        self.reps = None
        if classes is not None:
            self._classes = tuple(classes)
            self._members: dict[tuple, list[int]] = {}
            for a, key in enumerate(zip(positions, self._classes)):
                self._members.setdefault(key, []).append(a)
            self.reps = sorted(group[0] for group in self._members.values())

    def move(self, agent: int, target: int) -> None:
        """Agent ``agent`` moves to ``target``; only her origin and target
        change, and ``reps`` stays exact in O(group size + groups) list work."""
        origin, weight = self.positions[agent], self.weights[agent]
        self.positions[agent] = target
        self.sums[origin] -= weight
        self.sums[target] += weight
        here = self.cells[origin]
        i = bisect_left(here, weight)
        self.cells[origin] = here[:i] + here[i + 1:]
        there = self.cells[target]
        i = bisect_left(there, weight)
        self.cells[target] = there[:i] + (weight,) + there[i:]
        if self.reps is None:
            return
        cls = self._classes[agent]
        group = self._members[origin, cls]
        if group[0] == agent:
            del self.reps[bisect_left(self.reps, agent)]
            if len(group) > 1:
                insort(self.reps, group[1])
        group.remove(agent)
        if not group:
            del self._members[origin, cls]
        group = self._members.setdefault((target, cls), [])
        insort(group, agent)
        if group[0] == agent:
            if len(group) > 1:
                del self.reps[bisect_left(self.reps, group[1])]
            insort(self.reps, agent)


def _sides(winstance: WeightedInstance, profile: StrategyProfile, grouped: bool = False):
    """Millers then bakers as `_Side` records of a profile known to fit;
    ``grouped`` keeps each side's group representatives as well."""
    instance = winstance.instance
    num_locations = instance.num_locations
    anywhere = (range(num_locations),) * instance.num_millers
    return (
        _Side("miller", profile.miller_locations, winstance.miller_weights, anywhere,
              num_locations, winstance.miller_weights if grouped else None),
        _Side("baker", profile.baker_locations, winstance.baker_weights, instance.bakers,
              num_locations, zip(instance.bakers, winstance.baker_weights) if grouped else None),
    )


def weighted_utilities(winstance: WeightedInstance, profile: StrategyProfile):
    """Per-agent utilities under weight-sum semantics, exact.

    Returns ``(baker_utilities, miller_utilities)`` indexed by agent id.
    """
    num_locations = winstance.instance.num_locations
    millers = location_sums(num_locations, profile.miller_locations, winstance.miller_weights)
    bakers = location_sums(num_locations, profile.baker_locations, winstance.baker_weights)
    return (
        tuple(Fraction(millers[loc], bakers[loc]) for loc in profile.baker_locations),
        tuple(Fraction(bakers[loc], millers[loc]) for loc in profile.miller_locations),
    )


def state_signature(winstance: WeightedInstance, profile: StrategyProfile):
    """Canonical state with agent identities forgotten, locations kept."""
    cells = [([], []) for _ in range(winstance.instance.num_locations)]
    for b, loc in enumerate(profile.baker_locations):
        cells[loc][0].append(winstance.baker_weights[b])
    for m, loc in enumerate(profile.miller_locations):
        cells[loc][1].append(winstance.miller_weights[m])
    return tuple((tuple(sorted(bakers)), tuple(sorted(millers))) for bakers, millers in cells)


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
    return _step(*_sides(winstance, profile), policy)


def _step(millers: _Side, bakers: _Side, policy: str) -> Move | None:
    """`step_improving` for a known policy on the current side records,
    each scanning its ``reps`` or, when None, every agent."""
    best = None
    # the gain other[t]/(own[t]+w) - other[l]/own[l] as num/den with den > 0;
    # every improving gain is positive, so the first candidate beats 0/1
    best_num, best_den = 0, 1
    for side, other in ((millers, bakers.sums), (bakers, millers.sums)):
        own, weights = side.sums, side.weights
        for agent, origin, target in improving_moves(side.positions, weights, side.targets,
                                                     own, other, side.reps):
            if policy == "first":
                return _move(side.kind, agent, origin, target, weights[agent], own, other)
            own_after = own[target] + weights[agent]
            num = other[target] * own[origin] - other[origin] * own_after
            den = own_after * own[origin]
            if num * best_den > best_num * den:
                best = (side.kind, agent, origin, target, weights[agent], own, other)
                best_num, best_den = num, den
    return None if best is None else _move(*best)


def _apply_scripted(winstance, millers: _Side, bakers: _Side, scripted) -> Move:
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

    side, other = (millers, bakers.sums) if scripted.kind == "miller" else (bakers, millers.sums)
    own, weights = side.sums, side.weights
    agent = None
    for a, loc in enumerate(side.positions):
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
    move = _move(side.kind, agent, origin, target, weight, own, other)
    if not any(improving_moves((origin,), (weight,), ((target,),), own, other)):
        raise ScriptError(
            f"{side.kind} move {names[origin]!r} -> {names[target]!r} is not improving "
            f"({move.utility_before} -> {move.utility_after})"
        )
    return move


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

    Each side's state is one `_Side` record, updated in place at the two
    locations a move touches; both sides' cells together are the
    ``state_signature`` of the current profile, flattened. No profile is
    kept per step: the trace's ``states`` replays its moves on demand.
    "first" and "best" scan only each side's group representatives. Under
    "first" the first improving agent by id is such a lowest id, since a
    lower id of her group would have the same moves. Under "best" any other
    agent's move only ties the same move of her group's lowest id, which
    comes earlier in the scan and so is kept.
    """
    validate_profile(winstance.instance, start)
    if not _is_int(step_budget) or step_budget < 1:
        raise GameError(f"step budget must be a positive integer, got {step_budget!r}")
    if policy == "scripted":
        if script is None:
            raise GameError("policy 'scripted' needs a script")
        steps = list(script)[:step_budget]
    elif policy in ("first", "best"):
        steps = range(step_budget)
    else:
        raise GameError(f"unknown policy {policy!r}")

    millers, bakers = _sides(winstance, start, grouped=policy != "scripted")
    moves: list[Move] = []
    # both sides have one cell per location, so the flat tuple of the two
    # lists compares exactly as the zipped state signature does
    seen = {tuple(bakers.cells + millers.cells): 0}
    status = None
    revisit = None
    for k, step in enumerate(steps):
        if policy == "scripted":
            try:
                move = _apply_scripted(winstance, millers, bakers, step)
            except ScriptError as exc:
                raise ScriptError(f"script step {k + 1}: {exc}") from None
        else:
            move = _step(millers, bakers, policy)
        if move is None:
            status = "converged-to-NE"
            break
        moves.append(move)
        (bakers if move.kind == "baker" else millers).move(move.agent, move.target)
        key = tuple(bakers.cells + millers.cells)
        if key in seen:
            status = "cycle-detected"
            revisit = seen[key]
            break
        seen[key] = len(moves)
    if status is None:
        if _step(millers, bakers, "first") is None:
            status = "converged-to-NE"
        else:
            status = "step-budget-exhausted"
    return DynamicsTrace(start, tuple(moves), status, revisit)


def trace_lines(trace: DynamicsTrace, winstance: WeightedInstance) -> list[str]:
    """One record per move: kind, id, from, to, utility before and after."""
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
