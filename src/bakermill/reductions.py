"""Instance generators: hardness reductions, ratio families, worked examples.

The coverage reductions map a maximum k-coverage problem onto the game so
that optima (and, in the second variant, best equilibria) carry the
coverage answer. The family generators produce instances whose price of
anarchy and price of stability hit the extremal values exactly. The
``example_instance`` gallery holds small frozen instances used throughout
the tests and the command line.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from .dynamics import ScriptedMove, WeightedInstance
from .model import GameError, Instance, StrategyProfile, _is_int


@dataclass(frozen=True)
class CoverageProblem:
    """Pick k of the given sets to cover as many ground items as possible.

    The ground set is the union of the sets; items may be any integers.
    """

    sets: tuple[tuple[int, ...], ...]
    k: int

    def __post_init__(self):
        raw = [tuple(s) for s in self.sets]
        if not all(_is_int(item) for s in raw for item in s):
            raise GameError("coverage items must be integers")
        sets = tuple(tuple(sorted(set(s))) for s in raw)
        if not sets:
            raise GameError("a coverage problem needs at least one set")
        if any(not s for s in sets):
            raise GameError("coverage sets must be nonempty")
        if not 1 <= self.k <= len(sets):
            raise GameError("k must be between 1 and the number of sets")
        object.__setattr__(self, "sets", sets)

    @property
    def ground(self) -> tuple[int, ...]:
        items: set[int] = set()
        for s in self.sets:
            items.update(s)
        return tuple(sorted(items))


@dataclass(frozen=True)
class CoverageReduction:
    """Game instance plus the item-to-baker correspondence.

    Baker ``b`` represents ground item ``item_order[b]`` for
    ``b < len(item_order)``; any bakers beyond that are the per-location
    pinned fillers of the equilibrium variant (``dummies_per_location``
    of them at each location, appended location by location).
    """

    instance: Instance
    item_order: tuple[int, ...]
    dummies_per_location: int = 0

    def baker_for_item(self, item: int) -> int:
        return self.item_order.index(item)


def _set_locations(problem: CoverageProblem) -> tuple[str, ...]:
    return tuple(f"T{j + 1}" for j in range(len(problem.sets)))


def _item_ranges(problem: CoverageProblem) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """The ground items, ascending, and each item's range: the indices of
    the sets holding it, ascending, built in one pass over the sets."""
    ranges: dict[int, list[int]] = {}
    for j, s in enumerate(problem.sets):
        for item in s:
            ranges.setdefault(item, []).append(j)
    ground = tuple(sorted(ranges))
    return ground, [tuple(ranges[item]) for item in ground]


def reduce_to_optimum_instance(problem: CoverageProblem) -> CoverageReduction:
    """Locations are the sets, one baker per item, k millers.

    The best achievable coverage of the instance equals the maximum
    k-coverage value of the problem.
    """
    ground, ranges = _item_ranges(problem)
    instance = Instance(
        locations=_set_locations(problem),
        num_millers=problem.k,
        bakers=tuple(ranges),
    )
    return CoverageReduction(instance, ground)


def reduce_to_optimal_ne_instance(problem: CoverageProblem) -> CoverageReduction:
    """Same construction plus q = ground+1 bakers pinned to each location.

    The fillers make every location attractive enough that best equilibria
    put the k millers on k distinct locations; the best equilibrium
    coverage is then the k-coverage optimum plus k*q.
    """
    ground, ranges = _item_ranges(problem)
    q = len(ground) + 1
    for j in range(len(problem.sets)):
        ranges.extend([(j,)] * q)
    instance = Instance(
        locations=_set_locations(problem),
        num_millers=problem.k,
        bakers=tuple(ranges),
    )
    return CoverageReduction(instance, ground, dummies_per_location=q)


def gen_poa_family(num_bakers: int) -> tuple[Instance, dict[str, StrategyProfile]]:
    """Worst-case anarchy: ratio exactly num_bakers.

    One hub plus one private location per baker; a single miller. Everyone
    at the hub is optimal (coverage num_bakers); everyone dispersed with
    the miller on the first private location is an equilibrium of
    coverage 1.
    """
    if num_bakers < 1:
        raise GameError("the family needs at least one baker")
    if num_bakers > sys.maxsize:
        raise GameError(f"the family cannot hold more than {sys.maxsize} bakers")
    locations = ("x",) + tuple(f"l{i + 1}" for i in range(num_bakers))
    instance = Instance(
        locations=locations,
        num_millers=1,
        bakers=tuple((0, i + 1) for i in range(num_bakers)),
    )
    optimum = StrategyProfile((0,) * num_bakers, (0,))
    dispersed = StrategyProfile(tuple(range(1, num_bakers + 1)), (1,))
    return instance, {"optimum": optimum, "worst_ne": dispersed}


def gen_pos_family(n: int, num_locations: int, num_millers: int) -> tuple[Instance, dict[str, StrategyProfile]]:
    """Worst-case stability: the unique equilibrium piles all millers on x.

    Location x holds n*num_millers+1 pinned bakers; every other location
    holds n pinned bakers. Spreading millers over q = min(locations,
    millers) locations is optimal, but any miller away from x would gain
    by joining the crowd, so all-at-x is the only equilibrium. The ratio
    is 1 + n*(q-1)/(n*num_millers+1).
    """
    if n < 1 or num_locations < 1 or num_millers < 1:
        raise GameError("family parameters must be positive")
    # the baker count exceeds every parameter, so this bounds them all
    if n * (num_millers + num_locations - 1) + 1 > sys.maxsize:
        raise GameError(f"the family cannot hold more than {sys.maxsize} bakers")
    locations = ("x",) + tuple(f"l{i + 2}" for i in range(num_locations - 1))
    hub = n * num_millers + 1
    ranges = [(0,)] * hub
    for j in range(1, num_locations):
        ranges.extend([(j,)] * n)
    instance = Instance(locations, num_millers, tuple(ranges))
    pinned = tuple(r[0] for r in ranges)
    q = min(num_locations, num_millers)
    spread = tuple(range(q)) + (0,) * (num_millers - q)
    optimum = StrategyProfile(pinned, spread)
    all_at_x = StrategyProfile(pinned, (0,) * num_millers)
    return instance, {"optimum": optimum, "ne": all_at_x}


@dataclass(frozen=True)
class ExampleInstance:
    """A frozen worked example, with any drawn states and scripts."""

    tag: str
    instance: object  # Instance or WeightedInstance
    profiles: dict[str, StrategyProfile] = field(default_factory=dict)
    miller_profile: tuple[int, ...] | None = None
    script: tuple[ScriptedMove, ...] | None = None


# Seven improving moves on the weighted example; applying them relabels the
# locations by x->z, y->x, z->y, so three relabeled passes close a cycle.
_FIG7_BLOCK = (
    ScriptedMove("miller", 0, 2, 1),
    ScriptedMove("baker", 1, 2, 8),
    ScriptedMove("baker", 0, 1, 5),
    ScriptedMove("miller", 0, 1, 1),
    ScriptedMove("baker", 2, 1, 6),
    ScriptedMove("miller", 0, 2, 1),
    ScriptedMove("miller", 0, 1, 1),
)
_FIG7_ROTATION = {0: 2, 1: 0, 2: 1}

EXAMPLE_TAGS = ("fig1", "fig2", "fig3", "fig6", "fig7")


def fig7_cycle_script() -> tuple[ScriptedMove, ...]:
    """The 21-move script that returns the start state exactly.

    The published 7-move block leaves a location-rotated copy of the start
    state, so the block is replayed three times, relabeled by the rotation
    it induces; the third pass lands back on the initial state.
    """
    relabel = {0: 0, 1: 1, 2: 2}
    moves = []
    for _ in range(3):
        for mv in _FIG7_BLOCK:
            moves.append(
                ScriptedMove(mv.kind, relabel[mv.origin], relabel[mv.target], mv.weight)
            )
        relabel = {loc: _FIG7_ROTATION[cur] for loc, cur in relabel.items()}
    return tuple(moves)


def example_instance(tag: str) -> ExampleInstance:
    """Small frozen instances exercised across the tests and the CLI.

    fig1  three locations, two drawn states, only one of them stable
    fig2  two equilibria with different coverage (3 vs 4)
    fig3  greedy concentration walkthrough (order x, z, y)
    fig6  the phase-3 rebalancing example (two bakers, millers 1/2/0)
    fig7  weighted instance admitting an improving-move cycle
    """
    if tag == "fig1":
        instance = Instance(
            locations=("x", "y", "z"),
            num_millers=2,
            bakers=((0, 1), (0, 1), (1, 2), (2,)),
        )
        return ExampleInstance(
            tag,
            instance,
            profiles={
                "left": StrategyProfile((1, 1, 1, 2), (0, 1)),
                "right": StrategyProfile((1, 1, 2, 2), (1, 2)),
            },
        )
    if tag == "fig2":
        instance = Instance(
            locations=("x", "y"),
            num_millers=2,
            bakers=((0,), (0,), (0, 1), (1,)),
        )
        return ExampleInstance(
            tag,
            instance,
            profiles={
                "left": StrategyProfile((0, 0, 0, 1), (0, 0)),
                "right": StrategyProfile((0, 0, 1, 1), (0, 1)),
            },
        )
    if tag == "fig3":
        instance = Instance(
            locations=("x", "y", "z"),
            num_millers=3,
            bakers=((0,), (0,), (0, 1), (0, 1, 2), (1, 2), (2,)),
        )
        return ExampleInstance(tag, instance)
    if tag == "fig6":
        instance = Instance(
            locations=("x", "y", "z"),
            num_millers=3,
            bakers=((0, 1), (2,)),
        )
        return ExampleInstance(tag, instance, miller_profile=(0, 1, 1))
    if tag == "fig7":
        base = Instance(
            locations=("x", "y", "z"),
            num_millers=12,
            bakers=((0, 1, 2),) * 5,
        )
        weighted = WeightedInstance(base, (5, 8, 8, 5, 6), (1,) * 12)
        start = StrategyProfile(
            (0, 0, 1, 2, 2),
            (0,) * 6 + (1,) * 2 + (2,) * 4,
        )
        return ExampleInstance(
            tag, weighted, profiles={"start": start}, script=_FIG7_BLOCK
        )
    raise GameError(f"unknown example tag {tag!r}; choose from {', '.join(EXAMPLE_TAGS)}")
