"""Core model of the bakers-and-millers location game.

Bakers and millers each pick one location. A baker may only use locations
from her personal range; a miller may go anywhere. A baker's utility is the
number of millers at her location divided by the number of bakers there
(herself included), and symmetrically for millers. Both denominators count
the agent herself, so utilities are always well defined.

Everything in this module is exact: integers and `fractions.Fraction`,
never floats. Equilibrium predicates compare cross-multiplied integers so
no rounding can creep into a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class GameError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidInstanceError(GameError):
    pass


class InvalidProfileError(GameError):
    pass


def format_fraction(value) -> str:
    """Render a rational as ``p/q`` (integers become ``n/1``, infinity ``inf``)."""
    if value == float("inf"):
        return "inf"
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class Instance:
    """A game instance: named locations, a miller count, per-baker ranges.

    ``bakers[b]`` is the set of location indices baker ``b`` may choose,
    stored as a strictly increasing tuple (canonical form). Millers are
    anonymous, hence only their count is kept.
    """

    locations: tuple[str, ...]
    num_millers: int
    bakers: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        locations = tuple(self.locations)
        if not locations:
            raise InvalidInstanceError("an instance needs at least one location")
        if not all(isinstance(name, str) and name for name in locations):
            raise InvalidInstanceError("location names must be nonempty strings")
        if len(set(locations)) != len(locations):
            raise InvalidInstanceError("location names must be unique")
        if not _is_int(self.num_millers) or self.num_millers < 1:
            raise InvalidInstanceError("num_millers must be a positive integer")
        if not self.bakers:
            raise InvalidInstanceError("an instance needs at least one baker")
        canonical = []
        for b, rng in enumerate(self.bakers):
            if not all(_is_int(loc) for loc in rng):
                raise InvalidInstanceError(f"baker {b} has a non-integer location index")
            rng = tuple(sorted(set(rng)))
            if not rng:
                raise InvalidInstanceError(f"baker {b} has an empty range")
            if rng[0] < 0 or rng[-1] >= len(locations):
                raise InvalidInstanceError(f"baker {b} has an out-of-range location index")
            canonical.append(rng)
        object.__setattr__(self, "locations", locations)
        object.__setattr__(self, "bakers", tuple(canonical))

    @property
    def num_locations(self) -> int:
        return len(self.locations)

    @property
    def num_bakers(self) -> int:
        return len(self.bakers)


@dataclass(frozen=True)
class StrategyProfile:
    """One location per baker and per miller, by agent index."""

    baker_locations: tuple[int, ...]
    miller_locations: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "baker_locations", tuple(self.baker_locations))
        object.__setattr__(self, "miller_locations", tuple(self.miller_locations))


@dataclass(frozen=True)
class Occupancy:
    """Per-location agent counts derived from a profile."""

    bakers_at: tuple[int, ...]
    millers_at: tuple[int, ...]


def validate_profile(instance: Instance, profile: StrategyProfile) -> None:
    """Raise InvalidProfileError unless the profile fits the instance."""
    if len(profile.baker_locations) != instance.num_bakers:
        raise InvalidProfileError(
            f"expected {instance.num_bakers} baker locations, "
            f"got {len(profile.baker_locations)}"
        )
    if len(profile.miller_locations) != instance.num_millers:
        raise InvalidProfileError(
            f"expected {instance.num_millers} miller locations, "
            f"got {len(profile.miller_locations)}"
        )
    for b, loc in enumerate(profile.baker_locations):
        if loc not in instance.bakers[b]:
            name = _loc_name(instance, loc)
            raise InvalidProfileError(f"baker {b} may not choose location {name}")
    for m, loc in enumerate(profile.miller_locations):
        if not 0 <= loc < instance.num_locations:
            raise InvalidProfileError(f"miller {m} is at an unknown location index {loc}")


def _loc_name(instance: Instance, loc: int) -> str:
    if 0 <= loc < instance.num_locations:
        return repr(instance.locations[loc])
    return f"index {loc}"


def location_sums(num_locations: int, positions, weights=None) -> list[int]:
    """Per-location weight sum of one side's agents (head counts when
    ``weights`` is None)."""
    sums = [0] * num_locations
    if weights is None:
        for loc in positions:
            sums[loc] += 1
    else:
        for loc, w in zip(positions, weights):
            sums[loc] += w
    return sums


def improving_moves(positions, weights, targets, own, other):
    """Yield every strictly improving unilateral move of one side.

    An agent's utility is ``other[l] / own[l]`` at her location ``l``, where
    ``own`` and ``other`` are the per-location weight sums of her side
    (herself included) and of the opposite side. Moving with weight ``w``
    from ``l`` to ``t`` is strictly improving exactly when
    ``other[t] * own[l] > other[l] * (own[t] + w)``. ``weights`` None means
    unit weights, the plain game; ``targets[a]`` lists agent ``a``'s allowed
    locations in ascending order. Moves come as ``(agent, origin, target)``
    in (agent id, target index) order.
    """
    for a, loc in enumerate(positions):
        w = 1 if weights is None else weights[a]
        own_here, other_here = own[loc], other[loc]
        for t in targets[a]:
            if t != loc and other[t] * own_here > other_here * (own[t] + w):
                yield a, loc, t


def occupancy(instance: Instance, profile: StrategyProfile) -> Occupancy:
    return Occupancy(
        tuple(location_sums(instance.num_locations, profile.baker_locations)),
        tuple(location_sums(instance.num_locations, profile.miller_locations)),
    )


def baker_utility(instance: Instance, profile: StrategyProfile, baker_id: int) -> Fraction:
    """Millers over bakers at the baker's own location, exact."""
    if not 0 <= baker_id < instance.num_bakers:
        raise GameError(f"no baker with id {baker_id}")
    loc = profile.baker_locations[baker_id]
    return Fraction(profile.miller_locations.count(loc), profile.baker_locations.count(loc))


def miller_utility(instance: Instance, profile: StrategyProfile, miller_id: int) -> Fraction:
    """Bakers over millers at the miller's own location, exact."""
    if not 0 <= miller_id < instance.num_millers:
        raise GameError(f"no miller with id {miller_id}")
    loc = profile.miller_locations[miller_id]
    return Fraction(profile.baker_locations.count(loc), profile.miller_locations.count(loc))


def coverage(instance: Instance, profile: StrategyProfile) -> int:
    """Number of bakers whose location hosts at least one miller."""
    millers_at = location_sums(instance.num_locations, profile.miller_locations)
    return sum(1 for loc in profile.baker_locations if millers_at[loc] > 0)


_HARMONIC: list[Fraction] = [Fraction(0)]


def harmonic(n: int) -> Fraction:
    """Exact n-th harmonic number, with H_0 = 0."""
    if n < 0:
        raise GameError("harmonic numbers are defined for n >= 0")
    while len(_HARMONIC) <= n:
        k = len(_HARMONIC)
        _HARMONIC.append(_HARMONIC[-1] + Fraction(1, k))
    return _HARMONIC[n]


def potential_value(instance, miller_locations, baker_locations) -> Fraction:
    """Sum over locations of (millers there) * H(bakers there).

    This is the classic congestion potential for the baker side: with the
    millers held fixed, a unilateral baker move changes the potential by
    exactly her utility change, so its maximizers are baker equilibria.
    """
    bakers_at = location_sums(instance.num_locations, baker_locations)
    millers_at = location_sums(instance.num_locations, miller_locations)
    total = Fraction(0)
    for loc in range(instance.num_locations):
        if millers_at[loc] and bakers_at[loc]:
            total += millers_at[loc] * harmonic(bakers_at[loc])
    return total


def is_baker_equilibrium(instance, profile):
    """No baker can strictly gain by moving inside her range.

    Returns ``(True, None)`` or ``(False, (baker_id, target_location))``
    with the first improving deviation in (baker id, location index) order.
    """
    bakers_at = location_sums(instance.num_locations, profile.baker_locations)
    millers_at = location_sums(instance.num_locations, profile.miller_locations)
    for b, _, t in improving_moves(
        profile.baker_locations, None, instance.bakers, bakers_at, millers_at
    ):
        return False, (b, t)
    return True, None


def is_miller_equilibrium(instance, profile):
    """No miller can strictly gain by moving anywhere.

    Returns ``(True, None)`` or ``(False, (miller_id, target_location))``.
    """
    bakers_at = location_sums(instance.num_locations, profile.baker_locations)
    millers_at = location_sums(instance.num_locations, profile.miller_locations)
    anywhere = (range(instance.num_locations),) * instance.num_millers
    for m, _, t in improving_moves(
        profile.miller_locations, None, anywhere, millers_at, bakers_at
    ):
        return False, (m, t)
    return True, None


def is_nash_equilibrium(instance, profile) -> bool:
    """Both sides stable at once."""
    baker_ok, _ = is_baker_equilibrium(instance, profile)
    if not baker_ok:
        return False
    miller_ok, _ = is_miller_equilibrium(instance, profile)
    return miller_ok
