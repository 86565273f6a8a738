"""Instance, profile and script files.

Instances travel as JSON documents:

    {
      "version": 1,
      "locations": ["x", "y"],
      "millers": 2,                      # or a list of positive weights
      "bakers": [
        {"range": ["x"], "weight": 1},   # weight optional, default 1
        {"range": ["x", "y"]}
      ]
    }

A document parses to a plain ``Instance`` unless some weight differs from
1, in which case it parses to a ``WeightedInstance``. Profiles are JSON
objects mapping agent position to location name:

    {"bakers": ["x", "x", "y"], "millers": ["x", "y"]}

Scripts are line oriented: ``kind origin target [weight]`` per move, with
blank lines and ``#`` comments ignored. So a location name holds no
whitespace and no ``#``; ``Instance`` and ``parse_instance`` refuse one that
does.
"""

from __future__ import annotations

import hashlib
import json
import sys

from .dynamics import ScriptedMove, WeightedInstance
from .model import GameError, Instance, StrategyProfile, _is_location_name

SCHEMA_VERSION = 1


class ParseError(GameError):
    pass


def _require(data: dict, key: str, context: str):
    if key not in data:
        raise ParseError(f"{context}: missing field {key!r}")
    return data[key]


def _positive_int(value, context: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ParseError(f"{context}: must be a positive integer, got {value!r}")
    return value


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except ValueError:  # an integer past Python's int_max_str_digits
        raise ParseError("an integer literal holds too many digits") from None
    except RecursionError:
        raise ParseError("arrays or objects nested too deeply") from None


def parse_instance(text: str):
    """Parse a JSON instance document; returns Instance or WeightedInstance."""
    data = _load_json(text)
    if not isinstance(data, dict):
        raise ParseError("document: expected an object at the top level")

    version = _require(data, "version", "document")
    if version != SCHEMA_VERSION:
        raise ParseError(f"version: expected {SCHEMA_VERSION}, got {version!r}")

    locations = _require(data, "locations", "document")
    if (
        not isinstance(locations, list)
        or not locations
        or not all(isinstance(name, str) and name for name in locations)
    ):
        raise ParseError("locations: expected a nonempty list of names")
    for name in locations:
        if not _is_location_name(name):
            raise ParseError(f"locations: name {name!r} holds whitespace or '#'")
    if len(set(locations)) != len(locations):
        dup = next(name for name in locations if locations.count(name) > 1)
        raise ParseError(f"locations: duplicate name {dup!r}")
    index = {name: i for i, name in enumerate(locations)}

    millers = _require(data, "millers", "document")
    if isinstance(millers, list):
        if not millers:
            raise ParseError("millers: weight list must be nonempty")
        miller_weights = tuple(
            _positive_int(w, f"millers[{i}]") for i, w in enumerate(millers)
        )
        num_millers = len(miller_weights)
    else:
        # a count builds no weight tuple unless the game is weighted; a profile
        # holds one entry per miller, so a count past sys.maxsize is refused
        miller_weights = ()
        num_millers = _positive_int(millers, "millers")
        if num_millers > sys.maxsize:
            raise ParseError(f"millers: a count above {sys.maxsize} is too large")

    bakers_data = _require(data, "bakers", "document")
    if not isinstance(bakers_data, list) or not bakers_data:
        raise ParseError("bakers: expected a nonempty list")
    ranges = []
    baker_weights = []
    for i, entry in enumerate(bakers_data):
        context = f"bakers[{i}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{context}: expected an object")
        rng = _require(entry, "range", context)
        if not isinstance(rng, list) or not rng:
            raise ParseError(f"{context}.range: expected a nonempty list of names")
        resolved = []
        for name in rng:
            if not isinstance(name, str) or name not in index:
                raise ParseError(f"{context}.range: unknown location {name!r}")
            resolved.append(index[name])
        ranges.append(tuple(resolved))
        baker_weights.append(_positive_int(entry.get("weight", 1), f"{context}.weight"))

    instance = Instance(tuple(locations), num_millers, tuple(ranges))
    if any(w != 1 for w in baker_weights) or any(w != 1 for w in miller_weights):
        return WeightedInstance(
            instance, tuple(baker_weights), miller_weights or (1,) * num_millers
        )
    return instance


def _json_array(items, indent: str) -> str:
    """A JSON array of already-encoded ``items``, laid out as
    ``json.dumps(..., indent=2)`` lays it out with its bracket at ``indent``."""
    if not items:
        return "[]"
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def serialize_instance(obj) -> str:
    """The canonical document, the text of ``json.dumps(data, indent=2)`` and a
    newline, written directly, as json's indenting encoder is pure Python."""
    instance = _base_instance(obj)
    names = [json.dumps(name) for name in instance.locations]
    weighted = isinstance(obj, WeightedInstance)
    baker_weights = obj.baker_weights if weighted else (1,) * instance.num_bakers
    miller_weights = obj.miller_weights if weighted else ()
    if any(w != 1 for w in miller_weights):
        millers = _json_array([str(w) for w in miller_weights], "  ")
    else:
        millers = str(instance.num_millers)
    bakers = []
    for rng, weight in zip(instance.bakers, baker_weights):
        entry = '{\n      "range": ' + _json_array([names[loc] for loc in rng], "      ")
        if weight != 1:
            entry += ',\n      "weight": ' + str(weight)
        bakers.append(entry + "\n    }")
    return (
        f'{{\n  "version": {SCHEMA_VERSION},\n  "locations": {_json_array(names, "  ")},\n'
        f'  "millers": {millers},\n  "bakers": {_json_array(bakers, "  ")}\n}}\n'
    )


def instance_digest(obj) -> str:
    """Stable short identifier of the canonical serialization."""
    return hashlib.sha256(serialize_instance(obj).encode()).hexdigest()[:16]


def _base_instance(obj) -> Instance:
    return obj.instance if isinstance(obj, WeightedInstance) else obj


def parse_profile(text: str, obj) -> StrategyProfile:
    """Parse a profile document and validate it against the instance."""
    instance = _base_instance(obj)
    data = _load_json(text)
    if not isinstance(data, dict):
        raise ParseError("profile: expected an object at the top level")
    index = {name: i for i, name in enumerate(instance.locations)}

    def resolve(kind: str, expected: int) -> tuple[int, ...]:
        entries = _require(data, kind, "profile")
        if not isinstance(entries, list):
            raise ParseError(f"{kind}: expected a list of location names")
        if len(entries) != expected:
            raise ParseError(f"{kind}: expected {expected} entries, got {len(entries)}")
        out = []
        for i, name in enumerate(entries):
            if not isinstance(name, str) or name not in index:
                raise ParseError(f"{kind}[{i}]: unknown location {name!r}")
            out.append(index[name])
        return tuple(out)

    bakers = resolve("bakers", instance.num_bakers)
    millers = resolve("millers", instance.num_millers)
    for b, loc in enumerate(bakers):
        if loc not in instance.bakers[b]:
            raise ParseError(
                f"bakers[{b}]: location {instance.locations[loc]!r} is outside the range"
            )
    return StrategyProfile(bakers, millers)


def serialize_profile(profile: StrategyProfile, obj) -> str:
    names = [json.dumps(name) for name in _base_instance(obj).locations]
    bakers = _json_array([names[loc] for loc in profile.baker_locations], "  ")
    millers = _json_array([names[loc] for loc in profile.miller_locations], "  ")
    return f'{{\n  "bakers": {bakers},\n  "millers": {millers}\n}}\n'


def parse_script(text: str, obj) -> tuple[ScriptedMove, ...]:
    instance = _base_instance(obj)
    index = {name: i for i, name in enumerate(instance.locations)}
    moves = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (3, 4):
            raise ParseError(
                f"line {lineno}: expected 'kind origin target [weight]', got {raw!r}"
            )
        kind, origin, target = parts[:3]
        if kind not in ("baker", "miller"):
            raise ParseError(f"line {lineno}: unknown agent kind {kind!r}")
        for name in (origin, target):
            if name not in index:
                raise ParseError(f"line {lineno}: unknown location {name!r}")
        weight = None
        if len(parts) == 4:
            try:
                weight = int(parts[3])
            except ValueError:
                raise ParseError(f"line {lineno}: weight must be an integer") from None
            if weight < 1:
                raise ParseError(f"line {lineno}: weight must be positive")
        moves.append(ScriptedMove(kind, index[origin], index[target], weight))
    return tuple(moves)


def serialize_script(script, obj) -> str:
    instance = _base_instance(obj)
    names = instance.locations
    lines = []
    for mv in script:
        parts = [mv.kind, names[mv.origin], names[mv.target]]
        if mv.weight is not None:
            parts.append(str(mv.weight))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
