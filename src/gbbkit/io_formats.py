"""JSON file formats for integer sets and quotient specifications."""

from __future__ import annotations

import json

from .errors import GbbError
from .groups import AbelianGroup
from .intsets import GodelSet, PeriodicSet


def set_from_json(data):
    if data.get("kind") == "godel":
        positions = frozenset(int(x) for x in data["S"])
        bound = int(data.get("position_bound", max(positions, default=0) + 1))
        return GodelSet(positions, bound)
    return PeriodicSet(int(data["modulus"]), frozenset(int(r) for r in data["residues"]))


def set_to_json(s):
    if isinstance(s, GodelSet):
        return {
            "kind": "godel",
            "S": sorted(s.digit_positions),
            "position_bound": s.position_bound,
        }
    return {"modulus": s.modulus, "residues": sorted(s.residues)}


def quotient_spec_from_json(data):
    """Parse {"target": {...}, "theta": {...}, "mode": ...}; theta keys are
    "u,v" strings, values are coordinate lists for abelian targets."""
    target_data = data["target"]
    if target_data["kind"] != "abelian":
        raise GbbError("only abelian quotient specs are file-loadable")
    target = AbelianGroup(tuple(int(f) for f in target_data["factors"]))
    theta = {}
    for key, coords in data["theta"].items():
        u, v = key.split(",")
        theta[(u, v)] = target.element([int(c) for c in coords])
    return target, theta, data.get("mode", "abelian-exact")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)
