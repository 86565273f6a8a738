"""Reference serialization for tests: build the data tree, let json indent it.

``instance_to_data`` builds the dict-and-list tree of an instance document
and ``json.dumps(..., indent=2)`` lays it out; the profile writer does the
same with its two name lists. It shares no writing code with
``bakermill.serialization``, which writes the indented text directly, and
serves as the ground truth for every byte of an instance or profile file
and so for every ``instance_digest``.
"""

from __future__ import annotations

import json

from bakermill.dynamics import WeightedInstance
from bakermill.serialization import SCHEMA_VERSION


def instance_to_data(obj) -> dict:
    if isinstance(obj, WeightedInstance):
        instance = obj.instance
        baker_weights = obj.baker_weights
        miller_weights = obj.miller_weights
    else:
        instance = obj
        baker_weights = (1,) * instance.num_bakers
        miller_weights = (1,) * instance.num_millers
    names = instance.locations
    bakers = []
    for rng, weight in zip(instance.bakers, baker_weights):
        entry: dict = {"range": [names[loc] for loc in rng]}
        if weight != 1:
            entry["weight"] = weight
        bakers.append(entry)
    millers = (
        list(miller_weights)
        if any(w != 1 for w in miller_weights)
        else len(miller_weights)
    )
    return {
        "version": SCHEMA_VERSION,
        "locations": list(names),
        "millers": millers,
        "bakers": bakers,
    }


def reference_serialize_instance(obj) -> str:
    return json.dumps(instance_to_data(obj), indent=2) + "\n"


def reference_serialize_profile(profile, obj) -> str:
    instance = obj.instance if isinstance(obj, WeightedInstance) else obj
    names = instance.locations
    data = {
        "bakers": [names[loc] for loc in profile.baker_locations],
        "millers": [names[loc] for loc in profile.miller_locations],
    }
    return json.dumps(data, indent=2) + "\n"
